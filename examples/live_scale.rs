//! A 100+ node live Canopus cluster sustaining 100 000+ client sessions.
//!
//! The transport runs every node as one thread that owns all of the node's
//! sockets on one epoll instance, which is what makes this shape fit on a
//! single machine: 108 Canopus nodes (36 super-leaves of three in a 6×6
//! LOT tree) listen on loopback TCP, and a handful of [`SessionMux`]
//! processes host one hundred thousand concurrent closed-loop client
//! sessions between them — each session ~32 bytes of state, replies routed
//! back by op id alone.
//!
//! Run with: `cargo run --release --example live_scale [-- --record]`
//!
//! With `--record` (or `LIVE_SCALE_RECORD=1`) the measured figures are
//! merged into `BENCH_canopus.json` under a `live_scale` section.
//!
//! Knobs (environment):
//!
//! | variable                   | default | meaning                         |
//! |----------------------------|---------|---------------------------------|
//! | `LIVE_SCALE_SHAPE`         | 6x6     | LOT fanouts; super-leaves are   |
//! |                            |         | the product (3 nodes each)      |
//! | `LIVE_SCALE_SESSIONS`      | 100000  | concurrent client sessions      |
//! | `LIVE_SCALE_MUXES`         | 4       | session-mux processes           |
//! | `LIVE_SCALE_RUN_SECS`      | 60      | measured window after the ramp  |
//! | `LIVE_SCALE_THINK_MS`      | 150000  | per-session think time          |
//! | `LIVE_SCALE_OP_TIMEOUT_MS` | 30000   | per-op client timeout           |
//! | `LIVE_SCALE_RAMP_MS`       | 150000  | first-issue spread window       |
//! | `LIVE_SCALE_SEED`          | 42      | base seed for nodes and muxes   |
//!
//! `LIVE_TIME_UNIT_MS` defaults to 100 here (not the chaos suite's 50):
//! with a hundred node threads sharing a few cores, scheduling hiccups are
//! long enough to trip the tighter failure timeouts.

use std::sync::Arc;
use std::time::{Duration, Instant};

use canopus::{CanopusConfig, CanopusMsg, CanopusNode, EmulationTable, LotShape};
use canopus_bench::json::{replace_section, JsonObject};
use canopus_harness::{live_canopus_config, live_time_unit};
use canopus_net::tcp::{bind_loopback, spawn_node_obs, NetObs};
use canopus_net::FaultRules;
use canopus_sim::{Dur, NodeId, Time};
use canopus_workload::{LatencyRecorder, SessionMux, SessionMuxConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// Soft `RLIMIT_NOFILE`, if the platform exposes `/proc/self/limits`.
fn fd_soft_limit() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// Peak resident set in MiB, if the platform exposes `/proc/self/status`.
fn peak_rss_mib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024)
}

fn main() {
    let record = std::env::args().any(|a| a == "--record")
        || std::env::var("LIVE_SCALE_RECORD").is_ok_and(|v| v == "1");
    if std::env::var("LIVE_TIME_UNIT_MS").is_err() {
        std::env::set_var("LIVE_TIME_UNIT_MS", "100");
    }
    let unit = live_time_unit();

    // A deep LOT tree is what makes 100+ nodes tractable: a flat shape
    // exchanges every super-leaf's state all-to-all each cycle (O(leaves²)
    // transfers), while the paper's hierarchy aggregates per subtree.
    let shape_spec = std::env::var("LIVE_SCALE_SHAPE").unwrap_or_else(|_| "6x6".into());
    let fanouts: Vec<u16> = shape_spec
        .split('x')
        .map(|f| {
            f.trim()
                .parse()
                .expect("LIVE_SCALE_SHAPE: fanouts like 6x6")
        })
        .collect();
    let shape = LotShape::new(fanouts);
    let groups = shape.num_superleaves();
    assert!(groups >= 2, "need at least two super-leaves");
    let nodes = groups * 3;
    let sessions = env_u64("LIVE_SCALE_SESSIONS", 100_000) as usize;
    let muxes = env_u64("LIVE_SCALE_MUXES", 4).max(1) as usize;
    let run = Duration::from_secs(env_u64("LIVE_SCALE_RUN_SECS", 60));
    // 100k closed-loop sessions at 150 s think time offer ~670 ops/s —
    // the "many mostly-idle sessions" regime the multiplexer exists for,
    // and comfortably inside what a 108-node consensus core commits on a
    // small shared machine. The protocol has no admission control, so
    // offered load beyond the commit rate piles up in node request
    // buffers, inflates every cycle's merged state, and collapses cycle
    // rate; provision think/ramp so arrival rate stays under capacity.
    let think_ms = env_u64("LIVE_SCALE_THINK_MS", 150_000);
    let op_timeout_ms = env_u64("LIVE_SCALE_OP_TIMEOUT_MS", 30_000);
    let ramp_ms = env_u64("LIVE_SCALE_RAMP_MS", 150_000);
    let seed = env_u64("LIVE_SCALE_SEED", 42);

    // Sessions are virtual — only nodes and muxes own sockets. Budget: a
    // listener and an epoll instance per loop, the intra-super-leaf mesh,
    // one representative fetch channel per (node, sibling leaf), and both
    // request and reply directions between every node and every mux. Both
    // ends of every loopback connection live in this process, hence the
    // ×2s.
    let fd_estimate =
        (nodes + muxes) * 2 + groups * 12 + nodes * (groups - 1) * 2 + nodes * muxes * 4 + 64;
    if let Some(limit) = fd_soft_limit() {
        assert!(
            (fd_estimate as u64) <= limit,
            "estimated {fd_estimate} fds but soft limit is {limit}; raise it with `ulimit -n`"
        );
        println!("fd budget: ~{fd_estimate} of {limit} (soft limit) ✓");
    }
    println!(
        "cluster: {nodes} nodes ({groups} super-leaves, LOT {shape_spec}), {sessions} sessions \
         over {muxes} muxes, one event loop each, time unit: {unit}"
    );

    let membership: Vec<Vec<NodeId>> = (0..groups)
        .map(|g| (0..3).map(|i| NodeId((g * 3 + i) as u32)).collect())
        .collect();
    let table = EmulationTable::new(shape, membership);
    let cfg = CanopusConfig {
        max_linger: unit / 8,
        max_pipeline_depth: 4,
        ..live_canopus_config()
    };

    let (mut node_listeners, peers) = bind_loopback(nodes + muxes);
    let mux_listeners = node_listeners.split_off(nodes);

    println!("spawning {nodes} Canopus nodes ...");
    let rules = Arc::new(FaultRules::new(seed));
    let mut node_handles = Vec::new();
    for (i, listener) in node_listeners.into_iter().enumerate() {
        let id = NodeId(i as u32);
        let node = CanopusNode::new(id, table.clone(), cfg.clone(), seed);
        node_handles.push(spawn_node_obs::<CanopusMsg>(
            id,
            Box::new(node),
            listener,
            peers.clone(),
            seed.wrapping_add(i as u64),
            Arc::clone(&rules),
            NetObs::disabled(),
        ));
    }

    println!("spawning {muxes} session muxes hosting {sessions} sessions ...");
    let per = sessions / muxes;
    let extra = sessions % muxes;
    let stop_at = Time::ZERO + Dur::millis(ramp_ms) + Dur::nanos(run.as_nanos() as u64);
    let t0 = Instant::now();
    let mut mux_handles = Vec::new();
    for (k, listener) in mux_listeners.into_iter().enumerate() {
        let id = NodeId((nodes + k) as u32);
        let count = per + usize::from(k < extra);
        // Rotate the target list per mux so the muxes' low-numbered
        // sessions land on different super-leaves.
        let targets: Vec<NodeId> = (0..nodes)
            .map(|i| NodeId(((i + k * nodes / muxes) % nodes) as u32))
            .collect();
        let scfg = SessionMuxConfig {
            sessions: count,
            targets,
            think_time: Dur::millis(think_ms),
            op_timeout: Dur::millis(op_timeout_ms),
            tick: Dur::millis(25),
            ramp: Dur::millis(ramp_ms),
            stop_at,
            warmup: Dur::millis(ramp_ms),
            key_base: 1 + (k * per + k.min(extra)) as u64,
            ..SessionMuxConfig::default()
        };
        let mux = SessionMux::<CanopusMsg>::new(scfg, seed ^ (0x9e3779b9 + k as u64));
        mux_handles.push(spawn_node_obs::<CanopusMsg>(
            id,
            Box::new(mux),
            listener,
            peers.clone(),
            seed.wrapping_add((nodes + k) as u64),
            Arc::clone(&rules),
            NetObs::disabled(),
        ));
    }

    // Ramp + measured window + a bounded drain for in-flight ops.
    let drain = Duration::from_millis(op_timeout_ms.min(10_000)) + Duration::from_secs(2);
    let total = Duration::from_millis(ramp_ms) + run + drain;
    println!(
        "running: {}s ramp + {}s measured + {}s drain ...",
        ramp_ms / 1000,
        run.as_secs(),
        drain.as_secs()
    );
    let mut slept = Duration::ZERO;
    while slept < total {
        let step = Duration::from_secs(10).min(total - slept);
        std::thread::sleep(step);
        slept += step;
        println!("  t+{:>4}s", slept.as_secs());
    }

    println!("stopping muxes and collecting session stats ...");
    let elapsed = t0.elapsed();
    let mut issued = 0u64;
    let mut completed = 0u64;
    let mut timeouts = 0u64;
    let mut late = 0u64;
    let mut outstanding = 0u64;
    let mut served = 0u64;
    let mut peak = 0u64;
    let mut hosted = 0usize;
    let mut latency = LatencyRecorder::default();
    let mut merge_rng = SmallRng::seed_from_u64(seed);
    for handle in mux_handles {
        let mux = handle
            .stop()
            .into_any()
            .downcast::<SessionMux<CanopusMsg>>()
            .expect("session mux");
        issued += mux.issued;
        completed += mux.completed;
        timeouts += mux.timeouts;
        late += mux.late;
        outstanding += mux.outstanding();
        served += mux.sessions_served();
        peak += mux.peak_outstanding();
        hosted += mux.sessions();
        latency.merge(&mux.latency, &mut merge_rng);
    }

    // Let the final cycle close on every super-leaf before comparing
    // committed prefixes.
    std::thread::sleep(Duration::from_millis(unit.as_millis() * 20));
    println!("stopping {nodes} nodes and comparing commit digests ...");
    let mut digests = Vec::new();
    let mut committed_cycles = 0u64;
    let mut committed_weight = 0u64;
    for handle in node_handles {
        let process = handle.stop();
        let node = process
            .as_any()
            .downcast_ref::<CanopusNode>()
            .expect("canopus node");
        let s = node.stats();
        digests.push(s.commit_digest);
        committed_cycles = committed_cycles.max(s.committed_cycles);
        committed_weight = committed_weight.max(s.committed_weight);
    }

    let throughput = completed as f64 / elapsed.as_secs_f64();
    let p50 = latency.median().map_or(f64::NAN, |d| d.as_millis_f64());
    let p99 = latency
        .percentile(99.0)
        .map_or(f64::NAN, |d| d.as_millis_f64());
    println!("\n=== live_scale ===");
    println!("  nodes: {nodes} ({groups} super-leaves)   sessions: {hosted} over {muxes} muxes");
    println!("  issued: {issued}  completed: {completed}  timeouts: {timeouts}  late: {late}");
    println!("  sessions served: {served}/{hosted}  peak outstanding: {peak}");
    println!(
        "  committed throughput: {throughput:.0} ops/s over {:.0}s",
        elapsed.as_secs_f64()
    );
    println!("  latency p50: {p50:.0} ms  p99: {p99:.0} ms");
    println!("  node-side: {committed_cycles} cycles, {committed_weight} committed writes");
    if let Some(rss) = peak_rss_mib() {
        println!("  peak RSS: {rss} MiB");
    }

    assert_eq!(hosted, sessions, "every configured session was hosted");
    assert_eq!(
        issued,
        completed + timeouts + outstanding,
        "op accounting balances"
    );
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "commit digests diverged across the live cluster!"
    );
    assert!(
        served * 100 >= (hosted as u64) * 95,
        "at least 95% of sessions must complete an op (served {served} of {hosted})"
    );

    if record {
        let path = "BENCH_canopus.json";
        let doc = std::fs::read_to_string(path).expect("read BENCH_canopus.json");
        let mut section = JsonObject::new();
        section
            .field_int("nodes", nodes as u64)
            .field_str("shape", &shape_spec)
            .field_int("groups", groups as u64)
            .field_int("sessions", hosted as u64)
            .field_int("muxes", muxes as u64)
            .field_int("run_secs", run.as_secs())
            .field_int("think_ms", think_ms)
            .field_int("time_unit_ms", unit.as_millis())
            .field_int("issued", issued)
            .field_int("completed", completed)
            .field_int("timeouts", timeouts)
            .field_int("sessions_served", served)
            .field_int("peak_outstanding", peak)
            .field_num("committed_ops_per_sec", throughput)
            .field_num("latency_p50_ms", p50)
            .field_num("latency_p99_ms", p99)
            .field_int("node_committed_cycles", committed_cycles)
            .field_int("node_committed_writes", committed_weight)
            .field_int("fd_estimate", fd_estimate as u64);
        if let Some(rss) = peak_rss_mib() {
            section.field_int("peak_rss_mib", rss);
        }
        let doc = replace_section(&doc, "live_scale", &section.render());
        std::fs::write(path, doc).expect("write bench file");
        println!("\nrecorded `live_scale` section in {path}");
    }
    println!("\nLive {nodes}-node cluster sustained {served} sessions. ✓");
}
