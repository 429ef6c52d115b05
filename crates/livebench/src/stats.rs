//! Estimators: a fixed-size latency histogram, span aggregates, and the
//! medians and spreads the run and `stability` reports are built from.

/// Sub-buckets per octave of [`LogHist`]: bucket width is 1/64 of the
/// value, so an interpolated quantile is off by well under 1 %.
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Octaves covered above the linear range: values up to 2^42 ns (73 min).
const OCTAVES: usize = 36;

/// Log-linear histogram of nanosecond values. Fixed size, allocated once
/// before the measured window; recording is two shifts and an add.
pub struct LogHist {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl LogHist {
    pub fn new() -> Self {
        LogHist {
            buckets: vec![0; SUB * (OCTAVES + 1)],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let octave = (e - SUB_BITS + 1) as usize;
        let sub = ((v >> (e - SUB_BITS)) as usize) & (SUB - 1);
        (octave * SUB + sub).min(SUB * (OCTAVES + 1) - 1)
    }

    /// Lower bound and width of bucket `i`.
    fn bounds(i: usize) -> (u64, u64) {
        if i < SUB {
            return (i as u64, 1);
        }
        let octave = (i / SUB) as u32;
        let sub = (i % SUB) as u64;
        let shift = octave - 1;
        (((SUB as u64) + sub) << shift, 1 << shift)
    }

    pub fn record(&mut self, v: u64) {
        self.buckets[Self::index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u128 {
        self.sum
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (0..=1), interpolated linearly inside its bucket so
    /// the result moves smoothly with the sample instead of jumping between
    /// bucket edges. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * (self.count - 1) as f64;
        let mut before = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if rank < (before + n) as f64 {
                let (lo, width) = Self::bounds(i);
                let frac = (rank - before as f64 + 0.5) / n as f64;
                return Some((lo as f64 + frac * width as f64).min(self.max as f64));
            }
            before += n;
        }
        Some(self.max as f64)
    }
}

/// Aggregate of one span name: count, sum, max and a log₂ histogram
/// (bucket `i` holds durations in `[2^i, 2^(i+1))` ns).
#[derive(Clone)]
pub struct SpanAgg {
    pub count: u64,
    pub sum_ns: u64,
    pub max_ns: u64,
    pub log2: [u64; 40],
}

impl Default for SpanAgg {
    fn default() -> Self {
        SpanAgg {
            count: 0,
            sum_ns: 0,
            max_ns: 0,
            log2: [0; 40],
        }
    }
}

impl SpanAgg {
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns += ns;
        self.max_ns = self.max_ns.max(ns);
        let bucket = (63 - (ns | 1).leading_zeros()) as usize;
        self.log2[bucket.min(39)] += 1;
    }

    pub fn merge(&mut self, other: &SpanAgg) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        for (a, b) in self.log2.iter_mut().zip(other.log2) {
            *a += b;
        }
    }

    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }
}

/// Median of a sample (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// (max − min) / median: the within-set range `stability` prints.
pub fn rel_range(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_window_median_shrugs_off_a_transient_stall() {
        let mut counts = vec![80_000.0; 20];
        // Three stalled seconds: the mean moves, the median does not.
        for c in &mut counts[5..8] {
            *c = 20_000.0;
        }
        assert_eq!(median(&counts), 80_000.0);
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        assert!(mean < 0.9 * 80_000.0, "the mean would have moved: {mean}");
        // A slowdown of most of the window is not shrugged off.
        for c in &mut counts[8..] {
            *c = 60_000.0;
        }
        assert_eq!(median(&counts), 60_000.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn hist_quantiles_track_the_sample_within_a_percent() {
        let mut h = LogHist::new();
        for v in 1..=100_000u64 {
            h.record(v * 37);
        }
        for q in [0.01, 0.5, 0.9, 0.99] {
            let exact = (1.0 + q * 99_999.0) * 37.0;
            let got = h.quantile(q).unwrap();
            assert!(
                (got - exact).abs() / exact < 0.01,
                "q={q}: {got} vs {exact}"
            );
        }
        assert_eq!(h.count(), 100_000);
        assert_eq!(h.max(), 3_700_000);
        assert!(LogHist::new().quantile(0.5).is_none());
    }

    #[test]
    fn hist_buckets_tile_the_range() {
        // Every bucket's bounds must map back to the bucket.
        for i in 0..SUB * (OCTAVES + 1) - 1 {
            let (lo, width) = LogHist::bounds(i);
            assert_eq!(LogHist::index(lo), i, "lower edge of {i}");
            assert_eq!(LogHist::index(lo + width - 1), i, "upper edge of {i}");
        }
    }

    #[test]
    fn span_agg_buckets_by_power_of_two() {
        let mut a = SpanAgg::default();
        a.record(0);
        a.record(1);
        a.record(1023);
        a.record(1024);
        assert_eq!(a.log2[0], 2);
        assert_eq!(a.log2[9], 1);
        assert_eq!(a.log2[10], 1);
        assert_eq!(a.max_ns, 1024);
        let mut b = SpanAgg::default();
        b.merge(&a);
        b.merge(&a);
        assert_eq!(b.count, 8);
        assert_eq!(b.sum_ns, 2 * 2048);
    }
}
