//! Unit suite for the observability crate: histogram bucket edges, ring
//! wraparound ordering, and snapshot consistency under concurrent writers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use canopus_obs::{
    bucket_bounds, bucket_index, EventKind, FlightRecorder, NodeObs, Registry, DUMP_HEADER,
    HISTOGRAM_BUCKETS,
};

// ---------------------------------------------------------------------
// Histogram bucket boundaries
// ---------------------------------------------------------------------

/// Zero gets its own bucket; each exact power of two opens the next
/// bucket; `u64::MAX` lands in the last one.
#[test]
fn histogram_bucket_boundaries() {
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_index(1), 1);
    for b in 1..64usize {
        let lo = 1u64 << (b - 1);
        // Low edge of bucket b.
        assert_eq!(bucket_index(lo), b, "low edge of bucket {b}");
        // High edge: one below the next power.
        let hi = (1u64 << b) - 1;
        assert_eq!(bucket_index(hi), b, "high edge of bucket {b}");
        // The next power opens bucket b+1.
        assert_eq!(bucket_index(1u64 << b), b + 1, "power 2^{b}");
    }
    assert_eq!(bucket_index(u64::MAX), 64);
    assert_eq!(bucket_index(1u64 << 63), 64);
    assert_eq!(HISTOGRAM_BUCKETS, 65);
}

/// `bucket_bounds` and `bucket_index` must agree: every bucket's own
/// bounds map back into it.
#[test]
fn histogram_bounds_roundtrip() {
    for b in 0..HISTOGRAM_BUCKETS {
        let (lo, hi) = bucket_bounds(b);
        assert_eq!(bucket_index(lo), b, "lo of {b}");
        assert_eq!(bucket_index(hi), b, "hi of {b}");
        assert!(lo <= hi);
    }
    assert_eq!(bucket_bounds(0), (0, 0));
    assert_eq!(bucket_bounds(64).1, u64::MAX);
}

#[test]
fn histogram_observe_and_snapshot() {
    let reg = Registry::new();
    let h = reg.histogram("batch_size");
    for v in [0u64, 1, 2, 3, 4, 7, 8, u64::MAX] {
        h.observe(v);
    }
    let snap = h.snapshot();
    assert_eq!(snap.count, 8);
    assert_eq!(
        snap.sum,
        0u64.wrapping_add(1 + 2 + 3 + 4 + 7 + 8)
            .wrapping_add(u64::MAX)
    );
    // Buckets: 0→[0], 1→[1], 2→[2,3], 3→[4,7], 4→[8], 64→[MAX].
    assert_eq!(
        snap.buckets,
        vec![(0, 1), (1, 1), (2, 2), (3, 2), (4, 1), (64, 1)]
    );
}

// ---------------------------------------------------------------------
// Disabled registry / no-op handles
// ---------------------------------------------------------------------

#[test]
fn disabled_registry_is_inert() {
    let reg = Registry::disabled();
    assert!(!reg.is_enabled());
    let c = reg.counter("x");
    let g = reg.gauge("y");
    let h = reg.histogram("z");
    c.inc();
    c.add(10);
    g.set(5);
    g.add(-2);
    h.observe(123);
    assert_eq!(c.get(), 0);
    assert_eq!(g.get(), 0);
    assert_eq!(h.snapshot().count, 0);
    assert!(reg.snapshot().is_empty());
    assert!(!NodeObs::disabled().is_enabled());
}

#[test]
fn registry_handles_share_cells() {
    let reg = Registry::new();
    let a = reg.counter("hits");
    let b = reg.counter("hits");
    a.inc();
    b.add(2);
    assert_eq!(a.get(), 3);
    let snap = reg.snapshot();
    assert_eq!(snap.counter("hits"), Some(3));
    // Clones of the registry see the same store.
    assert_eq!(reg.clone().snapshot().counter("hits"), Some(3));
}

#[test]
fn text_exposition() {
    let reg = Registry::new();
    reg.counter("ops").add(7);
    reg.gauge("depth").set(-3);
    reg.histogram("sz").observe(5);
    let snap = reg.snapshot();
    let text = snap.to_text();
    assert!(text.contains("counter   ops 7"), "{text}");
    assert!(text.contains("gauge     depth -3"), "{text}");
    assert!(text.contains("histogram sz count=1 sum=5"), "{text}");
}

// ---------------------------------------------------------------------
// Snapshot under concurrent writes
// ---------------------------------------------------------------------

/// Writers hammer a counter and a histogram from several threads while a
/// snapshotter reads. Every observed snapshot must be monotone in the
/// counter and internally plausible; after joining, totals must be exact.
#[test]
fn snapshot_under_concurrent_writes() {
    const THREADS: usize = 4;
    const PER_THREAD: u64 = 20_000;
    let reg = Registry::new();
    let stop = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..THREADS)
        .map(|t| {
            let reg = reg.clone();
            thread::spawn(move || {
                let c = reg.counter("total");
                let h = reg.histogram("vals");
                for i in 0..PER_THREAD {
                    c.inc();
                    h.observe((t as u64) * PER_THREAD + i);
                }
            })
        })
        .collect();

    let snapshotter = {
        let reg = reg.clone();
        let stop = stop.clone();
        thread::spawn(move || {
            // A snapshot reads a histogram's count and its buckets at
            // different instants while the writers run, so the two cannot
            // be compared with each other; each on its own only grows, and
            // never past what will have been written in the end.
            let total = (THREADS as u64) * PER_THREAD;
            let (mut last, mut last_count, mut last_buckets) = (0u64, 0u64, 0u64);
            let mut iterations = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let snap = reg.snapshot();
                let now = snap.counter("total").unwrap_or(0);
                assert!(now >= last, "counter went backwards: {last} -> {now}");
                assert!(now <= total, "counter {now} past the final {total}");
                last = now;
                if let Some(h) = snap.histogram("vals") {
                    let buckets: u64 = h.buckets.iter().map(|&(_, n)| n).sum();
                    assert!(h.count >= last_count, "count {last_count} -> {}", h.count);
                    assert!(
                        buckets >= last_buckets,
                        "buckets {last_buckets} -> {buckets}"
                    );
                    assert!(h.count <= total && buckets <= total);
                    (last_count, last_buckets) = (h.count, buckets);
                }
                iterations += 1;
            }
            iterations
        })
    };

    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    assert!(snapshotter.join().unwrap() > 0);

    let snap = reg.snapshot();
    let total = (THREADS as u64) * PER_THREAD;
    assert_eq!(snap.counter("total"), Some(total));
    let h = snap.histogram("vals").unwrap();
    assert_eq!(h.count, total);
    assert_eq!(h.buckets.iter().map(|&(_, n)| n).sum::<u64>(), total);
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

/// Fill a small ring far past capacity: retention is exactly `cap`, the
/// retained window is the most recent events, and ordering (by seq and by
/// timestamp) is preserved across wraparound.
#[test]
fn ring_buffer_wraparound_ordering() {
    let fr = FlightRecorder::new(3, 8);
    for i in 0..100u64 {
        fr.record(
            i * 10,
            EventKind::Note {
                label: "i",
                value: i,
            },
        );
    }
    assert_eq!(fr.recorded(), 100);
    let evs = fr.events();
    assert_eq!(evs.len(), 8);
    let seqs: Vec<u64> = evs.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, (92..100).collect::<Vec<_>>());
    assert!(evs.windows(2).all(|w| w[0].at_nanos < w[1].at_nanos));
    assert!(evs.iter().all(|e| e.node == 3));
    // last(n) trims from the front.
    let last3: Vec<u64> = fr.last(3).iter().map(|e| e.seq).collect();
    assert_eq!(last3, vec![97, 98, 99]);
    // last(n) with n > len returns everything.
    assert_eq!(fr.last(100).len(), 8);
}

#[test]
fn flight_dump_format() {
    let fr = FlightRecorder::new(1, 4);
    fr.record(
        1_500_000,
        EventKind::Commit {
            cycle: 7,
            weight: 42,
        },
    );
    let dump = fr.dump_last(10);
    assert!(dump.starts_with(DUMP_HEADER), "{dump}");
    assert!(dump.contains("commit"), "{dump}");
    assert!(dump.contains("c7"), "{dump}");
    assert!(dump.contains("n1"), "{dump}");

    let empty = FlightRecorder::new(2, 4).dump_last(5);
    assert!(empty.contains("<no events recorded>"), "{empty}");
    let off = FlightRecorder::disabled().dump_last(5);
    assert!(off.contains("<recorder disabled>"), "{off}");
    assert!(!FlightRecorder::disabled().is_enabled());
}

#[test]
fn snapshot_merge_aggregates() {
    let a = Registry::new();
    a.counter("ops").add(3);
    a.histogram("sz").observe(4);
    let b = Registry::new();
    b.counter("ops").add(5);
    b.counter("extra").inc();
    b.histogram("sz").observe(5);
    let mut merged = a.snapshot();
    merged.merge(&b.snapshot());
    assert_eq!(merged.counter("ops"), Some(8));
    assert_eq!(merged.counter("extra"), Some(1));
    let h = merged.histogram("sz").unwrap();
    assert_eq!(h.count, 2);
    assert_eq!(h.buckets, vec![(3, 2)]); // both 4 and 5 land in [4,7]
}
