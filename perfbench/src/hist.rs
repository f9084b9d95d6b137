//! Latency recording: a log-linear histogram (fixed memory, 1/256
//! relative bucket width, quantiles interpolated by rank inside a
//! bucket), and [`Segmented`], which averages quantiles over consecutive
//! segments of a run.

const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;

/// Nanosecond samples bucketed with 256 sub-buckets per power of two.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; (64 - SUB_BITS as usize + 1) << SUB_BITS],
            n: 0,
        }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.n += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The `q`-quantile in nanoseconds (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = (q * self.n as f64).ceil().clamp(1.0, self.n as f64);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= target {
                let (lo, width) = bounds(i);
                let within = (target - below as f64 - 0.5) / c as f64;
                return lo as f64 + within * width as f64;
            }
            below += c;
        }
        unreachable!("target rank is at most the sample count")
    }
}

/// Fewest requests in one segment of a [`Segmented`] record, so that a
/// segment's p99 has 50 samples above it: fewer make the tail noisier
/// than the slow spells the segments are there to average.
const MIN_SEGMENT: u64 = 5000;
const MAX_SEGMENTS: u64 = 20;

/// Latencies of a run of known length, split into up to 20 equal
/// consecutive segments. A quantile is the mean of the segments'
/// quantiles: a slow spell of the machine then moves it by its share of
/// the run, where a whole-run quantile can jump when the spell covers
/// more or less of the distribution's tail.
#[derive(Clone, Debug)]
pub struct Segmented {
    segments: Vec<Histogram>,
    per_segment: u64,
    n: u64,
}

impl Segmented {
    /// Room for `total` samples.
    pub fn new(total: u64) -> Self {
        let k = (total / MIN_SEGMENT).clamp(1, MAX_SEGMENTS);
        Self {
            segments: vec![Histogram::default(); k as usize],
            per_segment: total.div_ceil(k).max(1),
            n: 0,
        }
    }

    /// Record the next sample.
    pub fn record(&mut self, ns: u64) {
        let last = self.segments.len() - 1;
        let i = ((self.n / self.per_segment) as usize).min(last);
        self.segments[i].record(ns);
        self.n += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Segments holding samples.
    pub fn segments(&self) -> usize {
        self.segments.iter().filter(|h| !h.is_empty()).count()
    }

    /// Mean over the non-empty segments of their `q`-quantile, in ns.
    pub fn quantile(&self, q: f64) -> f64 {
        let used: Vec<f64> = self
            .segments
            .iter()
            .filter(|h| !h.is_empty())
            .map(|h| h.quantile(q))
            .collect();
        used.iter().sum::<f64>() / used.len().max(1) as f64
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros() - SUB_BITS;
    (((e + 1) as u64) << SUB_BITS) as usize + ((v >> e) - SUB) as usize
}

/// Lower bound and width of bucket `i`.
fn bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, 1);
    }
    let e = (i >> SUB_BITS) - 1;
    (((i & (SUB - 1)) + SUB) << e, 1 << e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_their_values() {
        for v in [
            0u64,
            1,
            255,
            256,
            257,
            511,
            512,
            1000,
            123_456,
            u32::MAX as u64,
        ] {
            let (lo, w) = bounds(index(v));
            assert!(lo <= v && v < lo + w, "{v} outside [{lo}, {})", lo + w);
        }
    }

    #[test]
    fn quantiles_are_within_a_bucket() {
        let mut h = Histogram::default();
        for v in 1..=10_000u64 {
            h.record(v * 10);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 / 50_000.0 - 1.0).abs() < 0.01, "p50 {p50}");
        assert!((p99 / 99_000.0 - 1.0).abs() < 0.01, "p99 {p99}");
    }

    #[test]
    fn segments_split_the_run_evenly() {
        let mut s = Segmented::new(200_000);
        assert_eq!(s.segments.len(), 20);
        for v in 0..200_000u64 {
            s.record(if v < 100_000 { 100 } else { 200 });
        }
        assert_eq!(s.segments(), 20);
        assert!((s.quantile(0.5) - 150.0).abs() < 1.0, "{}", s.quantile(0.5));
        assert_eq!(Segmented::new(9_999).segments.len(), 1);
    }
}
