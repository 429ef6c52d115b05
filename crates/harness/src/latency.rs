//! Latency accounting: weighted counters plus reservoir sampling for
//! percentiles.
//!
//! The paper reports *median request completion time* and throughput at
//! the knee of the latency curve (§8.1). Recorders are cheap enough to
//! update per reply at millions of represented requests per second, keep a
//! bounded reservoir for percentile estimates, and merge across clients.

use canopus_sim::Dur;
use rand::rngs::SmallRng;
use rand::Rng;

/// Default reservoir capacity.
pub const DEFAULT_RESERVOIR: usize = 4096;

/// Online latency statistics with reservoir-sampled percentiles.
#[derive(Clone, Debug)]
pub struct LatencyRecorder {
    completed: u64,
    sum_ns: u128,
    reservoir: Vec<u64>,
    cap: usize,
    seen: u64,
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        LatencyRecorder::new(DEFAULT_RESERVOIR)
    }
}

impl LatencyRecorder {
    /// Creates a recorder with the given reservoir capacity.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0);
        LatencyRecorder {
            completed: 0,
            sum_ns: 0,
            reservoir: Vec::with_capacity(cap.min(1024)),
            cap,
            seen: 0,
        }
    }

    /// Records one reply standing for `weight` client requests completing
    /// with latency `lat`.
    ///
    /// The reservoir must be weighted per *request*, not per reply —
    /// synthetic read and write batches carry different weights, and an
    /// unweighted reservoir would skew the combined median towards the
    /// rarer class. Each represented request is one algorithm-R insertion,
    /// capped to bound per-reply cost (weights within one workload stay in
    /// proportion far below the cap).
    pub fn record(&mut self, lat: Dur, weight: u32, rng: &mut SmallRng) {
        self.completed += weight as u64;
        self.sum_ns += lat.as_nanos() as u128 * weight as u128;
        let insertions = weight.clamp(1, 256);
        for _ in 0..insertions {
            self.seen += 1;
            if self.reservoir.len() < self.cap {
                self.reservoir.push(lat.as_nanos());
            } else {
                let j = rng.gen_range(0..self.seen);
                if (j as usize) < self.cap {
                    self.reservoir[j as usize] = lat.as_nanos();
                }
            }
        }
    }

    /// Total client requests completed (weighted).
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Mean latency, if anything was recorded.
    pub fn mean(&self) -> Option<Dur> {
        if self.completed == 0 {
            return None;
        }
        Some(Dur::nanos((self.sum_ns / self.completed as u128) as u64))
    }

    /// Estimated `p`-th percentile (0 < p ≤ 100) from the reservoir.
    pub fn percentile(&self, p: f64) -> Option<Dur> {
        if self.reservoir.is_empty() {
            return None;
        }
        let mut sorted = self.reservoir.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
        Some(Dur::nanos(sorted[rank.min(sorted.len() - 1)]))
    }

    /// Median latency (the paper's headline metric).
    pub fn median(&self) -> Option<Dur> {
        self.percentile(50.0)
    }

    /// Merges another recorder into this one.
    ///
    /// When the combined reservoir overflows, the merged sample set is
    /// rebuilt by sampling each slot from the two sides with probability
    /// proportional to how many insertions each has *seen* — naive
    /// concatenate-and-truncate would bias chains of merges towards the
    /// most recently merged recorder (observed as a wrong combined median
    /// when one datacenter's clients are merged last).
    pub fn merge(&mut self, other: &LatencyRecorder, rng: &mut SmallRng) {
        self.completed += other.completed;
        self.sum_ns += other.sum_ns;
        if other.reservoir.is_empty() {
            self.seen += other.seen;
            return;
        }
        if self.reservoir.len() + other.reservoir.len() <= self.cap {
            self.reservoir.extend_from_slice(&other.reservoir);
            self.seen += other.seen;
            return;
        }
        let w_self = self.seen.max(1) as f64;
        let w_other = other.seen.max(1) as f64;
        let p_self = w_self / (w_self + w_other);
        let mut merged = Vec::with_capacity(self.cap);
        for _ in 0..self.cap {
            let source = if rng.gen::<f64>() < p_self {
                &self.reservoir
            } else {
                &other.reservoir
            };
            merged.push(source[rng.gen_range(0..source.len())]);
        }
        self.reservoir = merged;
        self.seen += other.seen;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn counts_and_mean() {
        let mut r = LatencyRecorder::default();
        let mut g = rng();
        r.record(Dur::millis(2), 1, &mut g);
        r.record(Dur::millis(4), 3, &mut g);
        assert_eq!(r.completed(), 4);
        assert_eq!(r.mean(), Some(Dur::from_millis_f64(3.5)));
    }

    #[test]
    fn median_of_uniform_samples() {
        let mut r = LatencyRecorder::default();
        let mut g = rng();
        for i in 1..=101u64 {
            r.record(Dur::millis(i), 1, &mut g);
        }
        let median = r.median().unwrap();
        assert_eq!(median, Dur::millis(51));
        assert_eq!(r.percentile(100.0), Some(Dur::millis(101)));
    }

    #[test]
    fn reservoir_bounds_memory() {
        let mut r = LatencyRecorder::new(64);
        let mut g = rng();
        for i in 0..10_000u64 {
            r.record(Dur::micros(i), 1, &mut g);
        }
        assert_eq!(r.reservoir.len(), 64);
        assert_eq!(r.completed(), 10_000);
        // Percentiles still roughly track the distribution.
        let p50 = r.median().unwrap().as_micros();
        assert!((2_000..8_000).contains(&p50), "p50 ~ 5000, got {p50}");
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyRecorder::new(128);
        let mut b = LatencyRecorder::new(128);
        let mut g = rng();
        for _ in 0..100 {
            a.record(Dur::millis(1), 1, &mut g);
            b.record(Dur::millis(3), 1, &mut g);
        }
        a.merge(&b, &mut g);
        assert_eq!(a.completed(), 200);
        assert_eq!(a.mean(), Some(Dur::millis(2)));
    }

    #[test]
    fn empty_recorder_yields_none() {
        let r = LatencyRecorder::default();
        assert!(r.mean().is_none());
        assert!(r.median().is_none());
    }
}
