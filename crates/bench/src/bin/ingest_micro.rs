//! Parser micro-bench behind the amortized ingest cost model.
//!
//! The simulator's price table (in `canopus_sim::NodeConfig`) charges a
//! weight-1 request a full parse (`Work::Request`, 1200 ns) but an
//! aggregate only a per-batch base (`Work::Aggregate`, 1500 ns) plus a
//! small per-op marginal (`Work::BatchedOp`, 120 ns): a batched frame is
//! parsed *once*, and each additional op inside it costs one
//! length-prefixed slice read, not another header/dispatch/route trip.
//! This bin measures the real wire codec to justify that split: it times
//! decoding N separate single-put `Request` frames against one `MultiPut`
//! frame carrying the same N puts, then fits the batched curve to
//! `base + marginal × ops`.
//!
//! The absolute nanoseconds depend on the host; the *structure* is what
//! the cost model encodes, so the bench asserts the structural facts —
//! the per-op marginal inside a batch is a small fraction of a full
//! single-frame parse, and the batch base is the same order as one
//! frame — and prints the measured numbers next to the model's.
//!
//! Usage: cargo run --release -p canopus-bench --bin ingest_micro

use bytes::Bytes;
use canopus::CanopusMsg;
use canopus_kv::{ClientRequest, Op};
use canopus_net::wire::Wire;
use canopus_sim::{NodeConfig, NodeId, Work};
use std::time::Instant;

/// Wall-clock nanoseconds per decode of `frame`, best of `tries` batches
/// of `iters` decodes (best-of defeats scheduler noise).
fn time_decode(frame: &Bytes, iters: u32, tries: u32) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..tries {
        let start = Instant::now();
        for _ in 0..iters {
            let msg = CanopusMsg::from_bytes(frame.clone()).expect("valid frame");
            std::hint::black_box(&msg);
        }
        let per = start.elapsed().as_nanos() as f64 / f64::from(iters);
        best = best.min(per);
    }
    best
}

fn single_put_frame(key: u64) -> Bytes {
    CanopusMsg::Request(ClientRequest {
        client: NodeId(7),
        op_id: key,
        op: Op::Put {
            key,
            value: Bytes::from(vec![0xAB; 16]),
        },
    })
    .to_bytes()
}

fn multi_put_frame(ops: u64) -> Bytes {
    CanopusMsg::Request(ClientRequest {
        client: NodeId(7),
        op_id: 1,
        op: Op::MultiPut {
            puts: (0..ops).map(|k| (k, Bytes::from(vec![0xAB; 16]))).collect(),
        },
    })
    .to_bytes()
}

fn main() {
    const TRIES: u32 = 7;
    let single_ns = time_decode(&single_put_frame(3), 200_000, TRIES);

    // Two batch sizes fit the line: marginal = slope, base = intercept.
    let (k1, k2) = (64u64, 1024u64);
    let batch1_ns = time_decode(&multi_put_frame(k1), 20_000, TRIES);
    let batch2_ns = time_decode(&multi_put_frame(k2), 2_000, TRIES);
    let marginal_ns = (batch2_ns - batch1_ns) / (k2 - k1) as f64;
    let base_ns = batch1_ns - marginal_ns * k1 as f64;

    let model = NodeConfig::default();
    let (request, aggregate, batched_op) = (
        model.price(Work::Request).as_nanos(),
        model.price(Work::Aggregate).as_nanos(),
        model.price(Work::BatchedOp).as_nanos(),
    );
    println!("ingest micro-bench (wall clock, best of {TRIES}):");
    println!("  single-put frame decode:   {single_ns:>8.1} ns");
    println!(
        "  multi-put {k1} ops:          {batch1_ns:>8.1} ns ({:.1} ns/op)",
        batch1_ns / k1 as f64
    );
    println!(
        "  multi-put {k2} ops:        {batch2_ns:>8.1} ns ({:.1} ns/op)",
        batch2_ns / k2 as f64
    );
    println!("  fitted batch base:         {base_ns:>8.1} ns");
    println!("  fitted per-op marginal:    {marginal_ns:>8.1} ns");
    println!("  model: Request={request} ns, Aggregate={aggregate} ns, BatchedOp={batched_op} ns");
    println!(
        "  structure: marginal/single = {:.3} (model {:.3})",
        marginal_ns / single_ns,
        batched_op as f64 / request as f64
    );

    // The structural claims the cost model rests on. Wall-clock bounds
    // are deliberately loose — this gates the shape, not the host.
    assert!(
        marginal_ns < single_ns * 0.5,
        "per-op marginal inside a batch ({marginal_ns:.1} ns) should be well below a full \
         single-frame parse ({single_ns:.1} ns) — the amortized ingest split is unjustified"
    );
    assert!(
        base_ns < single_ns * 20.0,
        "batch base ({base_ns:.1} ns) should stay the same order as one frame parse \
         ({single_ns:.1} ns)"
    );
    println!("ok: amortized per-batch + per-op ingest split is justified");
}
