//! The lock-free metrics registry.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Option<Arc<..>>`:
//! `None` means the owning registry is disabled and every operation is a
//! single branch; `Some` updates a relaxed atomic. Registration (the cold
//! path) takes a mutex so names stay unique and exposition stays sorted.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: bucket 0 holds the value `0`, bucket
/// `b ∈ 1..=64` holds values in `[2^(b-1), 2^b - 1]` (so `u64::MAX` lands
/// in bucket 64).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index for `v` under the log₂ scheme above.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive `(lo, hi)` value bounds of bucket `b`.
pub fn bucket_bounds(b: usize) -> (u64, u64) {
    match b {
        0 => (0, 0),
        64 => (1u64 << 63, u64::MAX),
        b => (1u64 << (b - 1), (1u64 << b) - 1),
    }
}

#[derive(Debug)]
struct HistogramCells {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCells {
    fn new() -> Self {
        HistogramCells {
            buckets: [(); HISTOGRAM_BUCKETS].map(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Monotonically increasing counter. Cheap to clone; `inc`/`add` are
/// relaxed atomics, or one branch if the registry is disabled.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A no-op counter (what disabled registries hand out).
    pub fn noop() -> Self {
        Counter(None)
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        if let Some(c) = &self.0 {
            c.fetch_add(1, Relaxed);
        }
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Relaxed);
        }
    }

    /// Current value (0 for a no-op counter).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Relaxed))
    }
}

/// Signed instantaneous value (queue depths, in-flight cycles).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// A no-op gauge.
    pub fn noop() -> Self {
        Gauge(None)
    }

    /// Set the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.store(v, Relaxed);
        }
    }

    /// Add `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        if let Some(g) = &self.0 {
            g.fetch_add(d, Relaxed);
        }
    }

    /// Current value (0 for a no-op gauge).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.load(Relaxed))
    }
}

/// Log₂-bucketed histogram of `u64` samples.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<HistogramCells>>);

impl Histogram {
    /// A no-op histogram.
    pub fn noop() -> Self {
        Histogram(None)
    }

    /// Record one sample.
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.buckets[bucket_index(v)].fetch_add(1, Relaxed);
            h.count.fetch_add(1, Relaxed);
            h.sum.fetch_add(v, Relaxed);
        }
    }

    /// Point-in-time copy of the cells (empty snapshot for a no-op).
    pub fn snapshot(&self) -> HistogramSnapshot {
        match &self.0 {
            None => HistogramSnapshot::default(),
            Some(h) => HistogramSnapshot {
                count: h.count.load(Relaxed),
                sum: h.sum.load(Relaxed),
                buckets: (0..HISTOGRAM_BUCKETS)
                    .filter_map(|b| {
                        let n = h.buckets[b].load(Relaxed);
                        (n > 0).then_some((b, n))
                    })
                    .collect(),
            },
        }
    }
}

/// Copy of one histogram's state: total count/sum plus the non-empty
/// buckets as `(bucket_index, samples)` pairs in index order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples observed.
    pub count: u64,
    /// Sum of all observed values (wrapping add on overflow is accepted).
    pub sum: u64,
    /// `(bucket_index, samples)` for every non-empty bucket.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// Mean value, if any samples were recorded.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

#[derive(Debug)]
enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramCells>),
}

#[derive(Debug, Default)]
struct RegistryInner {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

/// A process-local metrics registry. Cloning shares the same store:
/// harnesses keep one clone per node for snapshot collection while the
/// node's process owns another.
#[derive(Clone, Debug, Default)]
pub struct Registry(Option<Arc<RegistryInner>>);

impl Registry {
    /// An enabled, empty registry.
    pub fn new() -> Self {
        Registry(Some(Arc::new(RegistryInner::default())))
    }

    /// A disabled registry: every handle it hands out is a no-op and every
    /// update costs one branch.
    pub fn disabled() -> Self {
        Registry(None)
    }

    /// Whether this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Get or create the counter `name`. Re-registering an existing name
    /// returns a handle to the same cell; registering a name that exists
    /// with a different metric type panics (a naming bug).
    pub fn counter(&self, name: &str) -> Counter {
        let Some(inner) = &self.0 else {
            return Counter::noop();
        };
        let mut metrics = inner.metrics.lock().unwrap();
        let cell = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(AtomicU64::new(0))));
        match cell {
            Metric::Counter(c) => Counter(Some(c.clone())),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Get or create the gauge `name` (same rules as [`Registry::counter`]).
    pub fn gauge(&self, name: &str) -> Gauge {
        let Some(inner) = &self.0 else {
            return Gauge::noop();
        };
        let mut metrics = inner.metrics.lock().unwrap();
        let cell = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(AtomicI64::new(0))));
        match cell {
            Metric::Gauge(g) => Gauge(Some(g.clone())),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Get or create the histogram `name` (same rules as
    /// [`Registry::counter`]).
    pub fn histogram(&self, name: &str) -> Histogram {
        let Some(inner) = &self.0 else {
            return Histogram::noop();
        };
        let mut metrics = inner.metrics.lock().unwrap();
        let cell = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(HistogramCells::new())));
        match cell {
            Metric::Histogram(h) => Histogram(Some(h.clone())),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Point-in-time copy of every registered metric, names sorted.
    ///
    /// Concurrent writers may land between individual cell reads — each
    /// cell is internally consistent (a histogram's buckets may briefly
    /// disagree with its `count` by in-flight samples), and a quiesced
    /// registry snapshots exactly.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        let Some(inner) = &self.0 else {
            return snap;
        };
        let metrics = inner.metrics.lock().unwrap();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => snap.counters.push((name.clone(), c.load(Relaxed))),
                Metric::Gauge(g) => snap.gauges.push((name.clone(), g.load(Relaxed))),
                Metric::Histogram(h) => {
                    let hs = Histogram(Some(h.clone())).snapshot();
                    snap.histograms.push((name.clone(), hs));
                }
            }
        }
        snap
    }
}

/// Point-in-time copy of a whole registry, ready for exposition.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// True if nothing was registered (e.g. a disabled registry).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Human-readable exposition: one line per metric, histograms with
    /// their non-empty `[lo..hi]` buckets.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter   {name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "gauge     {name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = write!(out, "histogram {name} count={} sum={}", h.count, h.sum);
            if let Some(mean) = h.mean() {
                let _ = write!(out, " mean={mean:.1}");
            }
            for &(b, n) in &h.buckets {
                let (lo, hi) = bucket_bounds(b);
                if lo == hi {
                    let _ = write!(out, " [{lo}]={n}");
                } else {
                    let _ = write!(out, " [{lo}..{hi}]={n}");
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Merge another snapshot into this one: counters/gauges add, and
    /// histograms add bucket-wise. Used to aggregate per-node registries
    /// into one cluster view.
    pub fn merge(&mut self, other: &Snapshot) {
        fn merge_into<V: Copy + std::ops::AddAssign>(
            dst: &mut Vec<(String, V)>,
            src: &[(String, V)],
        ) {
            for (name, v) in src {
                match dst.iter_mut().find(|(n, _)| n == name) {
                    Some((_, d)) => *d += *v,
                    None => dst.push((name.clone(), *v)),
                }
            }
            dst.sort_by(|a, b| a.0.cmp(&b.0));
        }
        merge_into(&mut self.counters, &other.counters);
        merge_into(&mut self.gauges, &other.gauges);
        for (name, h) in &other.histograms {
            match self.histograms.iter_mut().find(|(n, _)| n == name) {
                Some((_, d)) => {
                    d.count += h.count;
                    d.sum = d.sum.wrapping_add(h.sum);
                    for &(b, n) in &h.buckets {
                        match d.buckets.iter_mut().find(|(db, _)| *db == b) {
                            Some((_, dn)) => *dn += n,
                            None => d.buckets.push((b, n)),
                        }
                    }
                    d.buckets.sort_by_key(|&(b, _)| b);
                }
                None => self.histograms.push((name.clone(), h.clone())),
            }
        }
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    }
}
