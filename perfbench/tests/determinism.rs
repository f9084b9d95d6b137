//! Small-scale checks of the benchmark itself: one seed repeats every
//! count exactly, another seed changes them, every answer is right, and
//! the runs emit exactly the metrics `BENCHMARK.json` declares.

use perfbench::{run, run_traced, Config, Counts, Report, Workload};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn small(workload: Workload, seed: u64, traced: bool) -> Report {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "perfbench-{}-{seed}-{}",
        workload.name(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let cfg = Config::small(workload, seed, dir.clone());
    let report = if traced { run_traced(&cfg) } else { run(&cfg) }.expect("run succeeds");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(report.failed, 0, "{}: wrong answers", workload.name());
    assert!(report.attempted > 0);
    report
}

fn counts(workload: Workload, seed: u64) -> Counts {
    small(workload, seed, false).counts
}

#[test]
fn one_seed_repeats_every_count_and_another_changes_them() {
    for w in Workload::ALL {
        let (a, b, c) = (counts(w, 7), counts(w, 7), counts(w, 8));
        assert_eq!(a, b, "{}: two runs with one seed", w.name());
        assert_ne!(
            (a.false_positives, a.pager_reads, a.pager_writes),
            (c.false_positives, c.pager_reads, c.pager_writes),
            "{}: another seed",
            w.name()
        );
        assert!(a.queries > 0 && a.filter_len > 0, "{}: {a:?}", w.name());
    }
}

/// The quoted strings that follow `"name":` in `BENCHMARK.json`.
fn declared_names() -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    text.split("\"name\":")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn runs_emit_exactly_the_declared_metrics() {
    let declared = declared_names();
    for w in Workload::ALL {
        assert!(declared.iter().any(|n| n == w.name()), "{}", w.name());
    }
    for w in Workload::ALL {
        let mut emitted: Vec<&str> = Vec::new();
        let (plain, traced) = (small(w, 3, false), small(w, 3, true));
        emitted.extend(plain.metrics.iter().map(|m| m.name));
        emitted.extend(traced.metrics.iter().map(|m| m.name));
        emitted.extend(Workload::ALL.iter().map(|w| w.name()));
        let mut a: Vec<&str> = declared.iter().map(String::as_str).collect();
        a.sort_unstable();
        emitted.sort_unstable();
        assert_eq!(a, emitted, "{}", w.name());
        assert!(plain.metrics.iter().all(|m| m.value > 0.0), "{plain:?}");
    }
}
