//! End-to-end and per-layer benchmark of a `sharded-aqf`-fronted
//! [`FilteredDb`], in process and behind the AQFP wire.
//!
//! Every workload starts from the same set-up: a `sharded-aqf` filter at
//! `aqf-serverd` defaults (rbits 9, shard-bits 4, filter seed 1) over
//! 2^18 slots, prefilled through [`FilteredDb::insert_batch`] to load
//! 0.85 with 8-byte values. One client then runs a fixed number of
//! operations in a closed loop; no `IoPolicy` delay is injected. An
//! untraced run repeats set-up and measured phase four times with the
//! same seed, so every repetition must repeat every count.
//!
//! - `adversarial` (in-process): one [`FilteredDb::query`] per op; half
//!   the queries replay observed false positives, the rest are uniform
//!   keys that were never inserted. Cache: 256 pages.
//! - `batch-negatives` (wire): `QUERY_BATCH` frames of 1024 uniform keys
//!   that were never inserted, cycling through a pool of 4096 frames.
//!   Cache: 4096 pages (the whole tree).
//!
//! Keys are `aqf_bits_mix(index, salt)` with a salt derived from the
//! seed: prefilled keys have indices `1..=prefill` and never-inserted
//! keys indices from 2^48 on. The mix is a bijection, so every answer
//! has an exact expected value.

pub mod hist;

use aqf::{AqfConfig, ShardedAqf};
use aqf_filters::registry::FilterSpec;
use aqf_server::proto::decode_frame;
use aqf_server::{Client, Request, Response, Server, ServerConfig};
use aqf_storage::{FilteredDb, IoPolicy, IoStats, RevMapMode, SystemStats};
use aqf_workloads::{aqf_bits_mix, KeyStream};
use hist::{Histogram, Segmented};
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Instant;

/// Errors end the run; the message names the failed call.
pub type Res<T> = Result<T, String>;

const RBITS: u32 = 9;
const SHARD_BITS: u32 = 4;
const FILTER_SEED: u64 = 1;
const LOAD: f64 = 0.85;
/// Share of adversarial queries that replay an observed false positive.
const REPLAY_SHARE: f64 = 0.5;
/// First generator index of the never-inserted keys.
const NEG_BASE: u64 = 1 << 48;
const NEG_UNIVERSE: u64 = 1 << 62;
const KEY_SALT: u64 = 0x6b65_7973;
const VALUE_SALT: u64 = 0x7661_6c75;
/// Keys per batch-negatives frame.
const NEG_FRAME: usize = 1024;
/// batch-negatives cycles through this many frames of negatives. The
/// filter adapts to the pool's false positives in the first cycle and
/// then answers from memory, as in front of repeated negative traffic;
/// fresh keys forever would fill the table with adaptations (~1.6e-3
/// of all keys) within seconds and measure a full filter instead.
const NEG_POOL_FRAMES: u64 = 4096;
/// Set-up plus measured phase, repeated per untraced run.
const REPS: usize = 4;
/// `FilteredDb::open` calls timed on the traced run's snapshot.
const OPENS: usize = 11;
/// Wrong answers described in the output, per pass.
const MAX_WRONG_SHOWN: usize = 5;
/// Keys of each class re-read after the restart.
const RESTART_SAMPLE: u64 = 1024;

fn fail<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// In-process `FilteredDb::query` per op under the Fig. 6 adversary.
    Adversarial,
    /// Wire: query frames of never-inserted keys.
    BatchNegatives,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 2] = [Workload::Adversarial, Workload::BatchNegatives];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Adversarial => "adversarial",
            Workload::BatchNegatives => "batch-negatives",
        }
    }

    /// Workload by command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Measured units (ops for adversarial, frames otherwise) per second
    /// of `--seconds`, over all repetitions: a fixed count, so the op
    /// stream depends only on the seed and the run length, never on the
    /// machine's speed. Adversarial ops add ~0.7 adaptations per 1000,
    /// so at `--seconds 30` a repetition ends near load 0.94, short of a
    /// full table.
    fn units_per_second(self) -> u64 {
        match self {
            Workload::Adversarial => 4_000_000,
            Workload::BatchNegatives => 8_000,
        }
    }
}

/// One run's sizes.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of every generated key.
    pub seed: u64,
    /// log2 of the filter's slots.
    pub qbits: u32,
    /// B-tree page-cache capacity.
    pub cache_pages: usize,
    /// Measured ops (adversarial) or frames (batch-negatives) per
    /// repetition.
    pub units: u64,
    /// Repetitions of set-up and measured phase in an untraced run.
    pub reps: usize,
    /// Directory for the database files (removed first).
    pub dir: PathBuf,
}

impl Config {
    /// The benchmark's full-size configuration.
    pub fn full(workload: Workload, seed: u64, seconds: u64, dir: PathBuf) -> Self {
        Self {
            workload,
            seed,
            qbits: 18,
            cache_pages: match workload {
                Workload::Adversarial => 256,
                Workload::BatchNegatives => 4096,
            },
            units: seconds * workload.units_per_second() / REPS as u64,
            reps: REPS,
            dir,
        }
    }

    /// A small configuration with the same shape, for tests.
    pub fn small(workload: Workload, seed: u64, dir: PathBuf) -> Self {
        Self {
            qbits: 12,
            cache_pages: match workload {
                Workload::Adversarial => 4,
                Workload::BatchNegatives => 64,
            },
            units: match workload {
                Workload::Adversarial => 20_000,
                Workload::BatchNegatives => 40,
            },
            reps: 2,
            ..Self::full(workload, seed, 1, dir)
        }
    }

    fn prefill(&self) -> u64 {
        ((1u64 << self.qbits) as f64 * LOAD) as u64
    }
}

/// Key generator: every key is `aqf_bits_mix(index, salt)`.
struct Keys {
    salt: u64,
}

impl Keys {
    fn new(seed: u64) -> Self {
        Self {
            salt: aqf_bits_mix(seed, KEY_SALT),
        }
    }

    fn key(&self, index: u64) -> u64 {
        aqf_bits_mix(index, self.salt)
    }

    /// Salt under which index `r` gives `key(r + NEG_BASE)`: keys the
    /// prefill never inserts.
    fn negative_salt(&self) -> u64 {
        self.salt.wrapping_add(NEG_BASE)
    }

    /// Uniform never-inserted keys.
    fn negatives(&self, seed: u64) -> KeyStream {
        KeyStream::uniform(NEG_UNIVERSE, self.negative_salt(), seed)
    }
}

/// The value stored under `key`.
pub fn value_of(key: u64) -> [u8; 8] {
    aqf_bits_mix(key, VALUE_SALT).to_le_bytes()
}

/// Counters of one measured pass (deltas, except the filter's shape,
/// which is read at the end).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// `FilteredDb` queries.
    pub queries: u64,
    /// Queries the filter answered alone.
    pub filter_negatives: u64,
    /// Store reads that found the key.
    pub true_positives: u64,
    /// Store reads the store refuted.
    pub false_positives: u64,
    /// Filter adaptations.
    pub adapts: u64,
    /// Pager page reads.
    pub pager_reads: u64,
    /// Pager page writes.
    pub pager_writes: u64,
    /// Filter grows since creation.
    pub grows: u64,
    /// Filter size in bytes.
    pub filter_bytes: u64,
    /// Keys in the filter.
    pub filter_len: u64,
}

impl Counts {
    fn since(db: &FilteredDb, s0: SystemStats, io0: IoStats) -> Self {
        let (s, io, f) = (db.stats(), db.io_stats(), db.filter());
        Self {
            queries: s.queries - s0.queries,
            filter_negatives: s.filter_negatives - s0.filter_negatives,
            true_positives: s.true_positives - s0.true_positives,
            false_positives: s.false_positives - s0.false_positives,
            adapts: s.adapts - s0.adapts,
            pager_reads: io.reads - io0.reads,
            pager_writes: io.writes - io0.writes,
            grows: f.grows(),
            filter_bytes: f.size_in_bytes() as u64,
            filter_len: f.len(),
        }
    }

    fn fp_rate(&self) -> f64 {
        ratio(self.false_positives, self.queries)
    }

    fn bits_per_key(&self) -> f64 {
        ratio(self.filter_bytes * 8, self.filter_len)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// What the measured phases of a run saw.
#[derive(Debug)]
pub struct Pass {
    /// Wall time of the measured phases, generator included.
    pub wall_s: f64,
    /// Time spent inside requests.
    pub busy_s: f64,
    /// Keys queried.
    pub keys: u64,
    /// Answers checked.
    pub attempted: u64,
    /// Answers that were wrong.
    pub wrong: u64,
    /// Latency per request (one op or one frame).
    pub query_lat: Segmented,
    /// Latency of each frame, in order.
    pub frame_ns: Vec<u64>,
    /// Counters of one repetition (every repetition must match them).
    pub counts: Counts,
    /// Repetitions recorded.
    pub reps: usize,
    /// The first few wrong answers, described.
    pub wrong_answers: Vec<String>,
}

impl Pass {
    fn new(requests: u64) -> Self {
        Self {
            wall_s: 0.0,
            busy_s: 0.0,
            keys: 0,
            attempted: 0,
            wrong: 0,
            query_lat: Segmented::new(requests),
            frame_ns: Vec::new(),
            counts: Counts::default(),
            reps: 0,
            wrong_answers: Vec::new(),
        }
    }

    /// Record one repetition's counters; a repetition whose counters
    /// differ from the first one's counts as a wrong answer.
    fn add_rep(&mut self, c: Counts) {
        if self.reps == 0 {
            self.counts = c;
        } else {
            self.check(c == self.counts);
            if c != self.counts && self.wrong_answers.len() < MAX_WRONG_SHOWN {
                self.wrong_answers.push(format!(
                    "repetition {} counted {c:?}, the first {:?}",
                    self.reps + 1,
                    self.counts
                ));
            }
        }
        self.reps += 1;
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.wrong += u64::from(!ok);
    }

    fn check_values(&mut self, keys: &[u64], present: bool, got: &[Option<Vec<u8>>]) {
        if got.len() != keys.len() {
            self.attempted += keys.len() as u64;
            self.wrong += keys.len() as u64;
            return;
        }
        for (&k, v) in keys.iter().zip(got) {
            let ok = match v {
                Some(v) => present && v[..] == value_of(k),
                None => !present,
            };
            self.check(ok);
            if !ok && self.wrong_answers.len() < MAX_WRONG_SHOWN {
                let expected = if present { "its value" } else { "nothing" };
                self.wrong_answers
                    .push(format!("key {k:#018x}: expected {expected}, got {v:?}"));
            }
        }
    }

    fn time_query(&mut self, ns: u64) {
        self.query_lat.record(ns);
        self.busy_s += ns as f64 * 1e-9;
    }

    /// Keys per second of time spent inside requests.
    pub fn keys_per_s(&self) -> f64 {
        self.keys as f64 / self.busy_s
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Time accumulated in one kind of span, with the keys it covered.
#[derive(Clone, Copy, Debug, Default)]
struct Span {
    ns: u64,
    keys: u64,
}

impl Span {
    fn add(&mut self, ns: u64, keys: usize) {
        self.ns += ns;
        self.keys += keys as u64;
    }

    fn time<T>(&mut self, keys: usize, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = black_box(f());
        self.add(elapsed_ns(t), keys);
        out
    }

    fn ns_per_key(&self) -> f64 {
        ratio(self.ns, self.keys)
    }
}

/// Spans recorded by the traced pass around each public call, kept in
/// memory as per-kind totals and reported at the end.
struct Trace {
    /// `Request::encode`.
    encode: Span,
    /// `decode_frame` + `Response::decode`.
    decode: Span,
    /// `query_loc[_batch]` on `db.filter()`.
    probe: Span,
    /// The same probe on a standalone `ShardedAqf` over the prefill.
    aqf: Span,
    /// `FilteredDb::query[_batch]`.
    query: Span,
    /// The prefill's `FilteredDb::insert_batch`.
    insert: Span,
    query_reads: u64,
    insert_writes: u64,
    /// `FilteredDb::query` time of filter-negative and refuted queries.
    negative_ns: Histogram,
    fp_ns: Histogram,
    /// `FilteredDb::query_batch` time of each frame, in order.
    frame_ns: Vec<u64>,
    snapshot_s: f64,
    standalone: ShardedAqf,
}

impl Trace {
    fn new(cfg: &Config) -> Res<Self> {
        let standalone = ShardedAqf::new(
            AqfConfig::new(cfg.qbits, RBITS).with_seed(FILTER_SEED),
            SHARD_BITS,
        )
        .map_err(fail("ShardedAqf::new"))?;
        standalone
            .insert_batch(&prefill_keys(cfg))
            .map_err(fail("ShardedAqf::insert_batch"))?;
        Ok(Self {
            encode: Span::default(),
            decode: Span::default(),
            probe: Span::default(),
            aqf: Span::default(),
            query: Span::default(),
            insert: Span::default(),
            query_reads: 0,
            insert_writes: 0,
            negative_ns: Histogram::default(),
            fp_ns: Histogram::default(),
            frame_ns: Vec::new(),
            snapshot_s: 0.0,
            standalone,
        })
    }
}

fn prefill_keys(cfg: &Config) -> Vec<u64> {
    let keys = Keys::new(cfg.seed);
    (1..=cfg.prefill()).map(|i| keys.key(i)).collect()
}

/// Build the database and load the prefill.
fn fresh_db(cfg: &Config, trace: Option<&mut Trace>) -> Res<FilteredDb> {
    let _ = std::fs::remove_dir_all(&cfg.dir);
    let filter = FilterSpec::new("sharded-aqf", cfg.qbits)
        .with_rbits(RBITS)
        .with_shard_bits(SHARD_BITS)
        .with_seed(FILTER_SEED)
        .build()
        .map_err(fail("FilterSpec::build"))?;
    let mut db = FilteredDb::new(
        filter,
        &cfg.dir,
        cfg.cache_pages,
        IoPolicy::default(),
        RevMapMode::Merged,
    )
    .map_err(fail("FilteredDb::new"))?;
    let keys = prefill_keys(cfg);
    let values: Vec<[u8; 8]> = keys.iter().map(|&k| value_of(k)).collect();
    let items: Vec<(u64, &[u8])> = keys
        .iter()
        .zip(&values)
        .map(|(&k, v)| (k, &v[..]))
        .collect();
    let io0 = db.io_stats();
    let t = Instant::now();
    db.insert_batch(&items)
        .map_err(fail("FilteredDb::insert_batch"))?
        .map_err(fail("FilteredDb::insert_batch"))?;
    if let Some(tr) = trace {
        tr.insert.add(elapsed_ns(t), items.len());
        tr.insert_writes += db.io_stats().writes - io0.writes;
    }
    Ok(db)
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The adversarial stream against `db`: one `FilteredDb::query` per op,
/// with the adversary told after each op whether the store was read
/// (the `SystemStats` delta is its oracle).
fn adversarial_rep(
    cfg: &Config,
    db: &mut FilteredDb,
    pass: &mut Pass,
    mut trace: Option<&mut Trace>,
) -> Res<Counts> {
    let keys = Keys::new(cfg.seed);
    let mut stream =
        KeyStream::adversarial(REPLAY_SHARE, NEG_UNIVERSE, keys.negative_salt(), cfg.seed);
    let (s0, io0) = (db.stats(), db.io_stats());
    let mut prev = s0;
    let start = Instant::now();
    for _ in 0..cfg.units {
        let key = stream.next_key();
        if let Some(tr) = trace.as_deref_mut() {
            let filter = db.filter();
            tr.probe.time(1, || filter.query_loc(key));
            let standalone = &tr.standalone;
            tr.aqf.time(1, || standalone.query(key));
        }
        let t = Instant::now();
        let got = db.query(key).map_err(fail("FilteredDb::query"))?;
        let ns = elapsed_ns(t);
        pass.time_query(ns);
        let now = db.stats();
        let refuted = now.false_positives > prev.false_positives;
        let to_store =
            now.true_positives + now.false_positives > prev.true_positives + prev.false_positives;
        if let Some(tr) = trace.as_deref_mut() {
            tr.query.add(ns, 1);
            if refuted {
                tr.fp_ns.record(ns);
            } else if !to_store {
                tr.negative_ns.record(ns);
            }
        }
        stream.observe(key, to_store, got.is_some());
        // Every adversarial key is a never-inserted key.
        pass.check_values(&[key], false, &[got]);
        prev = now;
    }
    pass.wall_s += start.elapsed().as_secs_f64();
    pass.keys += cfg.units;
    let counts = Counts::since(db, s0, io0);
    if let Some(tr) = trace {
        tr.query_reads = counts.pager_reads;
    }
    Ok(counts)
}

/// The seeded frame sequence of batch-negatives.
struct FramePlan {
    seed: u64,
    keys: Keys,
    stream: KeyStream,
    sent: u64,
}

impl FramePlan {
    fn new(cfg: &Config) -> Self {
        let keys = Keys::new(cfg.seed);
        Self {
            seed: cfg.seed,
            stream: keys.negatives(cfg.seed),
            keys,
            sent: 0,
        }
    }

    fn next_frame(&mut self) -> Vec<u64> {
        if self.sent.is_multiple_of(NEG_POOL_FRAMES) {
            self.stream = self.keys.negatives(self.seed);
        }
        self.sent += 1;
        (0..NEG_FRAME).map(|_| self.stream.next_key()).collect()
    }
}

/// The frame sequence over one connection to an in-process server.
/// Returns the database after the server's shutdown snapshot, and the
/// counters, pager I/O of that snapshot included.
fn wire_rep(cfg: &Config, db: FilteredDb, pass: &mut Pass) -> Res<(FilteredDb, Counts)> {
    let (s0, io0) = (db.stats(), db.io_stats());
    let server =
        Server::start(db, "127.0.0.1:0", ServerConfig::default()).map_err(fail("Server::start"))?;
    drive_client(cfg, server.local_addr(), pass)?;
    let db = server.wait().map_err(fail("Server::wait"))?;
    let counts = Counts::since(&db, s0, io0);
    Ok((db, counts))
}

fn drive_client(cfg: &Config, addr: SocketAddr, pass: &mut Pass) -> Res<()> {
    let mut client = Client::connect(addr).map_err(fail("Client::connect"))?;
    let mut plan = FramePlan::new(cfg);
    let start = Instant::now();
    for _ in 0..cfg.units {
        let keys = plan.next_frame();
        let t = Instant::now();
        let got = client
            .query_batch(&keys)
            .map_err(fail("Client::query_batch"))?;
        let ns = elapsed_ns(t);
        pass.time_query(ns);
        pass.frame_ns.push(ns);
        pass.check_values(&keys, false, &got);
        pass.keys += keys.len() as u64;
    }
    pass.wall_s += start.elapsed().as_secs_f64();
    client.shutdown().map_err(fail("Client::shutdown"))?;
    Ok(())
}

/// The batch-negatives frames replayed in process through the same
/// `FilteredDb::query_batch` call the server makes; traced, it also
/// times each frame's encode, filter probe, standalone AQF probe and
/// response decode.
fn replay_rep(
    cfg: &Config,
    db: &mut FilteredDb,
    pass: &mut Pass,
    mut trace: Option<&mut Trace>,
) -> Res<Counts> {
    let (s0, io0) = (db.stats(), db.io_stats());
    let mut plan = FramePlan::new(cfg);
    let start = Instant::now();
    for _ in 0..cfg.units {
        let keys = plan.next_frame();
        let n = keys.len();
        if let Some(tr) = trace.as_deref_mut() {
            let req = Request::QueryBatch { keys: keys.clone() };
            tr.encode.time(n, || req.encode());
            let filter = db.filter();
            tr.probe.time(n, || filter.query_loc_batch(&keys));
            let standalone = &tr.standalone;
            tr.aqf.time(n, || standalone.query_batch(&keys));
        }
        let io0 = db.io_stats();
        let t = Instant::now();
        let mut got = db
            .query_batch(&keys)
            .map_err(fail("FilteredDb::query_batch"))?;
        let ns = elapsed_ns(t);
        pass.time_query(ns);
        if let Some(tr) = trace.as_deref_mut() {
            tr.query.add(ns, n);
            tr.query_reads += db.io_stats().reads - io0.reads;
            tr.frame_ns.push(ns);
            let bytes = Response::BatchValues { values: got }.encode();
            got = match tr.decode.time(n, || decode_response(&bytes))? {
                Response::BatchValues { values } => values,
                _ => return Err("QUERY_BATCH answer decoded to another op".into()),
            };
        }
        pass.check_values(&keys, false, &got);
        pass.keys += n as u64;
    }
    pass.wall_s += start.elapsed().as_secs_f64();
    Ok(Counts::since(db, s0, io0))
}

fn decode_response(bytes: &[u8]) -> Res<Response> {
    let (frame, _) = decode_frame(bytes).map_err(fail("decode_frame"))?;
    Response::decode(&frame).map_err(fail("Response::decode"))
}

fn reopen(cfg: &Config) -> Res<FilteredDb> {
    FilteredDb::open(&cfg.dir, cfg.cache_pages, IoPolicy::default())
        .map_err(fail("FilteredDb::open"))
}

/// Reopen the snapshot in `cfg.dir` `OPENS` times; returns the last
/// database and the median open time.
fn timed_restart(cfg: &Config) -> Res<(FilteredDb, f64)> {
    let mut times = Vec::new();
    let mut db = None;
    for _ in 0..OPENS {
        drop(db.take());
        let t = Instant::now();
        db = Some(reopen(cfg)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((db.expect("at least one open"), median(&mut times)))
}

/// Re-read a sample of prefilled keys and never-inserted keys from the
/// reopened database.
fn verify_restart(cfg: &Config, db: &mut FilteredDb, pass: &mut Pass) -> Res<()> {
    let keys = Keys::new(cfg.seed);
    let step = (cfg.prefill() / RESTART_SAMPLE).max(1) as usize;
    let present: Vec<u64> = (1..=cfg.prefill())
        .step_by(step)
        .map(|i| keys.key(i))
        .collect();
    let mut neg = keys.negatives(cfg.seed ^ 0x7265_7374);
    let absent: Vec<u64> = (0..RESTART_SAMPLE).map(|_| neg.next_key()).collect();
    for (batch, is_present) in [(present, true), (absent, false)] {
        let got = db
            .query_batch(&batch)
            .map_err(fail("FilteredDb::query_batch"))?;
        pass.check_values(&batch, is_present, &got);
    }
    Ok(())
}

/// Peak resident set of this process, in MiB.
fn rss_peak_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(fail("/proc/self/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// One named metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// A run's outcome: metrics, answer checks, counters and notes.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Answers checked.
    pub attempted: u64,
    /// Wrong answers.
    pub failed: u64,
    /// Counters of one measured repetition.
    pub counts: Counts,
    /// Human-readable lines (sample counts, error rate, counters).
    pub notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    fn absorb(&mut self, what: &str, pass: &Pass) {
        self.attempted += pass.attempted;
        self.failed += pass.wrong;
        for w in &pass.wrong_answers {
            self.notes.push(format!("wrong answer in {what}: {w}"));
        }
    }
}

fn latency_note(what: &str, h: &Histogram) -> String {
    format!(
        "{what}: n={} p50={:.3}us p99={:.3}us",
        h.len(),
        h.quantile(0.5) / 1e3,
        h.quantile(0.99) / 1e3,
    )
}

fn segmented_note(what: &str, h: &Segmented) -> String {
    let per = h.len() / h.segments().max(1) as u64;
    format!(
        "{what}: n={} in {} segments, p50={:.3}us p99={:.3}us (mean of segment quantiles; {} samples above each segment's p99)",
        h.len(),
        h.segments(),
        h.quantile(0.5) / 1e3,
        h.quantile(0.99) / 1e3,
        per - (per as f64 * 0.99).ceil() as u64,
    )
}

/// One set-up, measured phase and snapshot of an untraced run; returns
/// the set-up time.
fn untraced_rep(cfg: &Config, pass: &mut Pass) -> Res<f64> {
    let t = Instant::now();
    let mut db = fresh_db(cfg, None)?;
    let setup_s = t.elapsed().as_secs_f64();
    let counts = match cfg.workload {
        Workload::Adversarial => {
            let counts = adversarial_rep(cfg, &mut db, pass, None)?;
            db.snapshot().map_err(fail("FilteredDb::snapshot"))?;
            counts
        }
        Workload::BatchNegatives => wire_rep(cfg, db, pass)?.1,
    };
    pass.add_rep(counts);
    Ok(setup_s)
}

/// The untraced run: `cfg.reps` repetitions of set-up, measured phase
/// and snapshot, then a reopen of the last snapshot; every end-to-end
/// metric.
pub fn run(cfg: &Config) -> Res<Report> {
    let mut pass = Pass::new(cfg.units * cfg.reps as u64);
    let mut setups = Vec::new();
    for _ in 0..cfg.reps.max(1) {
        setups.push(untraced_rep(cfg, &mut pass)?);
    }
    let mut r = Report::default();
    r.absorb("measured phase", &pass);
    let mut check = Pass::new(0);
    verify_restart(cfg, &mut reopen(cfg)?, &mut check)?;
    r.absorb("restart check", &check);

    r.metric("keys_per_s", "1/s", pass.keys_per_s());
    r.metric("query_p50_us", "us", pass.query_lat.quantile(0.5) / 1e3);
    r.metric("query_p99_us", "us", pass.query_lat.quantile(0.99) / 1e3);
    r.metric("fp_rate", "ratio", pass.counts.fp_rate());
    r.metric("filter_bits_per_key", "bits", pass.counts.bits_per_key());
    r.metric("setup_s", "s", median(&mut setups));
    r.metric("rss_peak_mb", "MB", rss_peak_mb()?);
    r.notes.push(format!(
        "measured phases: {} repetitions, {} keys, wall {:.3}s, inside requests {:.3}s",
        pass.reps, pass.keys, pass.wall_s, pass.busy_s
    ));
    r.notes.push(segmented_note("query", &pass.query_lat));
    r.notes.push(format!(
        "adapts={} grows={} restart checks={}",
        pass.counts.adapts, pass.counts.grows, check.attempted
    ));
    r.notes.push(format!("counts: {:?}", pass.counts));
    r.counts = pass.counts;
    Ok(r)
}

/// The traced run: one repetition of the same seeded stream untraced,
/// then traced (batch-negatives also over the wire first, to split each
/// frame's time into wire and database); every per-layer metric.
pub fn run_traced(cfg: &Config) -> Res<Report> {
    let mut r = Report::default();
    let mut wire = None;
    if cfg.workload == Workload::BatchNegatives {
        let mut pass = Pass::new(cfg.units);
        let (db, counts) = wire_rep(cfg, fresh_db(cfg, None)?, &mut pass)?;
        drop(db);
        pass.add_rep(counts);
        r.absorb("wire pass", &pass);
        wire = Some(pass);
    }
    let mut plain = Pass::new(cfg.units);
    let mut db = fresh_db(cfg, None)?;
    let counts = match cfg.workload {
        Workload::Adversarial => adversarial_rep(cfg, &mut db, &mut plain, None)?,
        Workload::BatchNegatives => replay_rep(cfg, &mut db, &mut plain, None)?,
    };
    plain.add_rep(counts);
    drop(db);

    let mut trace = Trace::new(cfg)?;
    let mut traced = Pass::new(cfg.units);
    let mut db = fresh_db(cfg, Some(&mut trace))?;
    let c = match cfg.workload {
        Workload::Adversarial => adversarial_rep(cfg, &mut db, &mut traced, Some(&mut trace))?,
        Workload::BatchNegatives => replay_rep(cfg, &mut db, &mut traced, Some(&mut trace))?,
    };
    let t = Instant::now();
    db.snapshot().map_err(fail("FilteredDb::snapshot"))?;
    trace.snapshot_s = t.elapsed().as_secs_f64();
    let load_factor = db.filter().load_factor();
    drop(db);
    let (mut db, restart_s) = timed_restart(cfg)?;
    let mut check = Pass::new(0);
    verify_restart(cfg, &mut db, &mut check)?;
    drop(db);
    r.absorb("restart check", &check);
    traced.add_rep(c);
    // Same seed, same program: the traced replay repeats every count.
    plain.add_rep(c);
    r.absorb("untraced pass", &plain);
    r.absorb("traced pass", &traced);

    let lookups = c.true_positives + c.false_positives;
    let overhead_us = wire.as_ref().map_or(0.0, |w| {
        let mut d: Vec<f64> = w
            .frame_ns
            .iter()
            .zip(&trace.frame_ns)
            .map(|(&wire_ns, &db_ns)| (wire_ns as f64 - db_ns as f64) / 1e3)
            .collect();
        median(&mut d)
    });
    r.metric("server.encode_ns_per_key", "ns", trace.encode.ns_per_key());
    r.metric("server.decode_ns_per_key", "ns", trace.decode.ns_per_key());
    r.metric("server.overhead_us_per_frame", "us", overhead_us);
    r.metric("storage.query_ns_per_key", "ns", trace.query.ns_per_key());
    r.metric(
        "storage.store_ns_per_key",
        "ns",
        (trace.query.ns as f64 - trace.probe.ns as f64) / trace.query.keys.max(1) as f64,
    );
    r.metric(
        "storage.pager_reads_per_query",
        "ratio",
        ratio(trace.query_reads, c.queries),
    );
    r.metric(
        "storage.lookups_per_query",
        "ratio",
        ratio(lookups, c.queries),
    );
    r.metric(
        "storage.useful_lookup_ratio",
        "ratio",
        ratio(c.true_positives, lookups),
    );
    r.metric("storage.insert_ns_per_key", "ns", trace.insert.ns_per_key());
    r.metric(
        "storage.pager_writes_per_insert",
        "ratio",
        ratio(trace.insert_writes, trace.insert.keys),
    );
    r.metric("storage.snapshot_s", "s", trace.snapshot_s);
    r.metric("storage.restart_s", "s", restart_s);
    r.metric(
        "storage.negative_query_ns_p50",
        "ns",
        trace.negative_ns.quantile(0.5),
    );
    r.metric(
        "storage.fp_query_us_p50",
        "us",
        trace.fp_ns.quantile(0.5) / 1e3,
    );
    r.metric("filters.probe_ns_per_key", "ns", trace.probe.ns_per_key());
    r.metric(
        "filters.negative_share",
        "ratio",
        ratio(c.filter_negatives, c.queries),
    );
    r.metric(
        "filters.adapts_per_query",
        "ratio",
        ratio(c.adapts, c.queries),
    );
    r.metric("filters.load_factor", "ratio", load_factor);
    r.metric("filters.grows", "count", c.grows as f64);
    r.metric("aqf.probe_ns_per_key", "ns", trace.aqf.ns_per_key());
    r.metric(
        "trace.overhead_ratio",
        "ratio",
        plain.wall_s / traced.wall_s,
    );
    if !trace.fp_ns.is_empty() {
        r.notes.push(latency_note("refuted query", &trace.fp_ns));
    }
    if let Some(w) = &wire {
        r.notes.push(segmented_note("wire frame", &w.query_lat));
    }
    r.notes.push(format!("counts: {c:?}"));
    r.counts = c;
    Ok(r)
}
