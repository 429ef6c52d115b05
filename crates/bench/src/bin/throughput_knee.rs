//! Throughput knee: batching + pipelining vs the unbatched baseline.
//!
//! Searches for the highest offered load under the 10 ms saturation knee
//! on the paper's single-DC testbed (§8.1, 3 racks × 3 nodes), with the
//! harness's one search (`find_max_throughput`), for two Canopus
//! configurations:
//!
//! * **unbatched** — every client request is its own wire-level op
//!   (`client_max_batch = 1`), every op its own consensus proposal
//!   (`max_batch = 1`, no linger window), one cycle in flight;
//! * **batched** — 1 ms super-leaf batching windows, 1000-request
//!   overflow, 4 cycles in flight, clients aggregating up to 1000
//!   requests per op.
//!
//! Results — knees, per-node committed-op rates, every probe of the
//! searches, and a deterministic fixed-rate *smoke* section — are emitted
//! as schema-versioned JSON (committed as `BENCH_canopus.json` at the repo
//! root), marked `"kind": "modelled"`: every number is an output of the
//! simulator's price table. The smoke numbers come from fixed seeds on the
//! deterministic simulator, so they reproduce bit-for-bit on any machine;
//! CI regenerates them with `BENCH_SWEEP=smoke` and `--check` fails the
//! build on a >20 % throughput regression against the committed file.
//!
//! Usage:
//!   cargo run --release -p canopus-bench --bin throughput_knee -- \
//!       [--out PATH] [--check BASELINE.json]
//!   BENCH_SWEEP=smoke|full   (default full; smoke skips the knee sweep)

use canopus::{CanopusConfig, CanopusMsg};
use canopus_bench::json::{extract_number, number, JsonObject};
use canopus_harness::{
    find_max_throughput, Clients, ClusterBuilder, ClusterObs, DeploymentSpec, LoadSpec, Protocol,
    RunResult, SearchResult,
};
use canopus_obs::{bucket_bounds, json_escape, HistogramSnapshot, Snapshot};
use canopus_sim::Dur;

/// The schema of the emitted JSON. Bump when keys change meaning.
const SCHEMA_VERSION: u64 = 1;

/// Allowed relative throughput drop before `--check` fails.
const REGRESSION_TOLERANCE: f64 = 0.20;

/// Offered rates of the deterministic smoke runs, each about 60 % of its
/// config's modelled knee (the committed full search: unbatched 1.23 M/s,
/// batched 3.34 M/s). A slowdown that pushes a config past its knee
/// collapses its committed-op rate, which the CI regression gate
/// catches; one too small to reach the knee leaves the rate as it is.
const SMOKE_RATE_UNBATCHED: f64 = 780_000.0;
const SMOKE_RATE_BATCHED: f64 = 2_000_000.0;

/// Flight-ring capacity for instrumented bench runs. The bench only
/// reads registries, but `ClusterObs::on` sizes the ring too.
const BENCH_FLIGHT_CAP: usize = 64;

/// One measured point, with the node-side commit rate the harness's
/// `RunResult` does not carry.
#[derive(Clone, Debug)]
struct Measured {
    run: RunResult,
    /// Node 0's committed weight per second of total run time — the
    /// "single-node committed ops/sec" measure the perf trajectory tracks.
    node0_committed_per_sec: f64,
    /// Merged cluster metrics at the end of the run (empty when the point
    /// was measured with observability off).
    metrics: Snapshot,
}

impl AsRef<RunResult> for Measured {
    fn as_ref(&self) -> &RunResult {
        &self.run
    }
}

/// Formats a rate as `12.3 k/s` / `4.56 M/s`.
fn fmt_rate(rate: f64) -> String {
    if rate >= 1e6 {
        format!("{:.2} M/s", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1} k/s", rate / 1e3)
    } else {
        format!("{rate:.0} /s")
    }
}

fn measure(
    spec: &DeploymentSpec,
    load: &LoadSpec,
    cfg: CanopusConfig,
    seed: u64,
    obs: ClusterObs,
) -> Measured {
    let mut cluster = ClusterBuilder::<CanopusMsg>::new(spec, seed)
        .config(cfg)
        .clients(Clients::OpenLoop(load.clone()))
        .obs(obs)
        .sim();
    let run = cluster.measure(load);
    let node0 = cluster.node(cluster.nodes[0]).stats();
    Measured {
        run,
        node0_committed_per_sec: node0.committed_weight as f64
            / (load.warmup + load.duration).as_secs_f64(),
        metrics: cluster.metrics_snapshot(),
    }
}

// -------------------------------------------------------------------
// The `metrics` section: the observability evidence behind each number.
// -------------------------------------------------------------------

/// Compact JSON for one histogram: count, sum, mean, and the non-empty
/// log₂ buckets as `[lo, hi, samples]` triples.
fn hist_json(h: &HistogramSnapshot) -> String {
    let mut out = format!("{{\"count\":{},\"sum\":{}", h.count, h.sum);
    if let Some(mean) = h.mean() {
        out.push_str(&format!(",\"mean\":{}", number(mean)));
    }
    out.push_str(",\"buckets\":[");
    for (i, &(b, n)) in h.buckets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (lo, hi) = bucket_bounds(b);
        out.push_str(&format!("[{lo},{hi},{n}]"));
    }
    out.push_str("]}");
    out
}

/// The `metrics` object recorded next to each measured point: batch-size
/// and pipeline-occupancy histograms (summed over all nodes) plus wire
/// bytes broken down by message type. Empty object when the point was
/// measured with observability off.
fn metrics_json(snap: &Snapshot) -> String {
    let mut parts = Vec::new();
    for (key, name) in [
        ("batch_ops", "canopus.batch_ops"),
        ("batch_weight", "canopus.batch_weight"),
        ("pipeline_occupancy", "canopus.pipeline_occupancy"),
    ] {
        if let Some(h) = snap.histogram(name) {
            parts.push(format!("\"{key}\":{}", hist_json(h)));
        }
    }
    let bytes: Vec<String> = snap
        .counters
        .iter()
        .filter_map(|(name, v)| {
            name.strip_prefix("net.sent.bytes.")
                .map(|kind| format!("\"{}\":{v}", json_escape(kind)))
        })
        .collect();
    if !bytes.is_empty() {
        parts.push(format!("\"bytes_by_msg_type\":{{{}}}", bytes.join(",")));
    }
    format!("{{{}}}", parts.join(","))
}

/// The two compared configurations, as (node config, client batch cap).
fn unbatched(spec: &DeploymentSpec) -> (CanopusConfig, u32) {
    let mut cfg = CanopusMsg::sim_config(spec);
    cfg.max_batch = 1;
    cfg.max_linger = Dur::ZERO;
    cfg.max_pipeline_depth = 1;
    (cfg, 1)
}

fn batched(spec: &DeploymentSpec) -> (CanopusConfig, u32) {
    let mut cfg = CanopusMsg::sim_config(spec);
    cfg.max_batch = 1000;
    cfg.max_linger = Dur::millis(1);
    cfg.max_pipeline_depth = 4;
    (cfg, 1000)
}

/// The one search to the 10 ms knee, keeping the node-side rates.
fn knee_search(
    spec: &DeploymentSpec,
    cfg: &CanopusConfig,
    client_batch: u32,
    seed: u64,
) -> SearchResult<Measured> {
    find_max_throughput(Dur::millis(10), |rate| {
        let load = LoadSpec::new(rate).with_client_batch(client_batch);
        let m = measure(
            spec,
            &load,
            cfg.clone(),
            seed,
            ClusterObs::on(BENCH_FLIGHT_CAP),
        );
        eprintln!(
            "  offered={} achieved={} median={:?} node0={}",
            fmt_rate(m.run.offered),
            fmt_rate(m.run.achieved),
            m.run.median,
            fmt_rate(m.node0_committed_per_sec),
        );
        m
    })
}

/// Every probe of a search, in increasing offered load.
fn probes_json(search: &SearchResult<Measured>) -> Vec<String> {
    let mut probes: Vec<&Measured> = search.probes().iter().collect();
    probes.sort_by(|a, b| a.run.offered.total_cmp(&b.run.offered));
    probes
        .into_iter()
        .map(|m| {
            let mut o = JsonObject::new();
            o.field_num("offered_per_sec", m.run.offered)
                .field_num("achieved_per_sec", m.run.achieved)
                .field_num(
                    "median_us",
                    m.run
                        .median
                        .map(|d| d.as_nanos() as f64 / 1e3)
                        .unwrap_or(f64::NAN),
                )
                .field_num("node0_committed_per_sec", m.node0_committed_per_sec)
                .field_raw("metrics", metrics_json(&m.metrics));
            o.render().replace('\n', " ")
        })
        .collect()
}

// -------------------------------------------------------------------

fn check_baseline(doc: &str, fresh_unbatched: f64, fresh_batched: f64) -> Result<(), String> {
    let version = extract_number(doc, "schema_version")
        .ok_or("baseline is malformed: no numeric schema_version")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!(
            "baseline has schema_version {version}, expected {SCHEMA_VERSION}"
        ));
    }
    for (key, fresh) in [
        ("smoke_unbatched_committed_ops_per_sec", fresh_unbatched),
        ("smoke_batched_committed_ops_per_sec", fresh_batched),
    ] {
        let committed =
            extract_number(doc, key).ok_or_else(|| format!("baseline lacks numeric {key}"))?;
        if fresh < committed * (1.0 - REGRESSION_TOLERANCE) {
            return Err(format!(
                "{key} regressed: fresh {fresh:.0}/s vs committed {committed:.0}/s \
                 (> {:.0}% drop)",
                REGRESSION_TOLERANCE * 100.0
            ));
        }
        eprintln!("check {key}: fresh {fresh:.0}/s vs committed {committed:.0}/s ok");
    }
    Ok(())
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = Some(args.next().expect("--out takes a path")),
            "--check" => check_path = Some(args.next().expect("--check takes a path")),
            other => panic!("unknown argument {other}"),
        }
    }
    let full = std::env::var("BENCH_SWEEP")
        .map(|v| v != "smoke")
        .unwrap_or(true);

    let spec = DeploymentSpec::paper_single_dc(3);
    let (cfg_unbatched, client_unbatched) = unbatched(&spec);
    let (cfg_batched, client_batched) = batched(&spec);

    let mut doc = JsonObject::new();
    doc.field_int("schema_version", SCHEMA_VERSION)
        .field_str("bench", "throughput_knee")
        .field_str("kind", "modelled")
        .field_str("sweep", if full { "full" } else { "smoke" })
        .field_str("deployment", "paper_single_dc_3x3")
        .field_num("smoke_rate_unbatched_per_sec", SMOKE_RATE_UNBATCHED)
        .field_num("smoke_rate_batched_per_sec", SMOKE_RATE_BATCHED);

    // Deterministic fixed-rate smoke section (always present; the CI
    // regression gate reads exactly these keys).
    let smoke_load = |rate: f64| {
        let mut load = LoadSpec::new(rate);
        load.warmup = Dur::millis(100);
        load.duration = Dur::millis(400);
        load
    };
    eprintln!(
        "== smoke: unbatched @ {} ==",
        fmt_rate(SMOKE_RATE_UNBATCHED)
    );
    let smoke_u = measure(
        &spec,
        &smoke_load(SMOKE_RATE_UNBATCHED).with_client_batch(client_unbatched),
        cfg_unbatched.clone(),
        42,
        ClusterObs::on(BENCH_FLIGHT_CAP),
    );
    eprintln!("== smoke: batched @ {} ==", fmt_rate(SMOKE_RATE_BATCHED));
    let smoke_b = measure(
        &spec,
        &smoke_load(SMOKE_RATE_BATCHED).with_client_batch(client_batched),
        cfg_batched.clone(),
        42,
        ClusterObs::on(BENCH_FLIGHT_CAP),
    );
    let smoke_speedup = smoke_b.node0_committed_per_sec / smoke_u.node0_committed_per_sec;
    eprintln!(
        "smoke: unbatched {}, batched {} ({smoke_speedup:.2}x)",
        fmt_rate(smoke_u.node0_committed_per_sec),
        fmt_rate(smoke_b.node0_committed_per_sec),
    );
    doc.field_num(
        "smoke_unbatched_committed_ops_per_sec",
        smoke_u.node0_committed_per_sec,
    )
    .field_num(
        "smoke_batched_committed_ops_per_sec",
        smoke_b.node0_committed_per_sec,
    )
    .field_num("smoke_speedup", smoke_speedup)
    .field_raw("smoke_unbatched_metrics", metrics_json(&smoke_u.metrics))
    .field_raw("smoke_batched_metrics", metrics_json(&smoke_b.metrics));

    if full {
        eprintln!("== knee search: unbatched ==");
        let search_u = knee_search(&spec, &cfg_unbatched, client_unbatched, 42);
        eprintln!("== knee search: batched ==");
        let search_b = knee_search(&spec, &cfg_batched, client_batched, 42);

        let knee_u = search_u.max_throughput().unwrap_or(0.0);
        let knee_b = search_b.max_throughput().unwrap_or(0.0);
        let node0 =
            |s: &SearchResult<Measured>| s.best().map_or(0.0, |m| m.node0_committed_per_sec);
        let (node0_u, node0_b) = (node0(&search_u), node0(&search_b));
        eprintln!(
            "knee: unbatched {}, batched {} ({:.2}x); node0 committed {:.0}/s vs {:.0}/s ({:.2}x)",
            fmt_rate(knee_u),
            fmt_rate(knee_b),
            knee_b / knee_u,
            node0_u,
            node0_b,
            node0_b / node0_u,
        );

        // Latency at 70 % of each maximum (§8.1 reporting point).
        let lat = |rate: f64, cfg: &CanopusConfig, client: u32| {
            let load = LoadSpec::new(rate * 0.7).with_client_batch(client);
            measure(
                &spec,
                &load,
                cfg.clone(),
                43,
                ClusterObs::on(BENCH_FLIGHT_CAP),
            )
            .run
            .median
            .map(|d| d.as_nanos() as f64 / 1e3)
            .unwrap_or(f64::NAN)
        };
        doc.field_num("knee_unbatched_ops_per_sec", knee_u)
            .field_num("knee_batched_ops_per_sec", knee_b)
            .field_num("knee_speedup", knee_b / knee_u)
            .field_num("single_node_committed_ops_per_sec_unbatched", node0_u)
            .field_num("single_node_committed_ops_per_sec_batched", node0_b)
            .field_num("single_node_committed_speedup", node0_b / node0_u)
            .field_num(
                "latency70_unbatched_median_us",
                lat(knee_u, &cfg_unbatched, client_unbatched),
            )
            .field_num(
                "latency70_batched_median_us",
                lat(knee_b, &cfg_batched, client_batched),
            )
            .field_array("probes_unbatched", &probes_json(&search_u))
            .field_array("probes_batched", &probes_json(&search_b));
    }

    let rendered = doc.render();
    match &out_path {
        Some(path) => {
            std::fs::write(path, format!("{rendered}\n")).expect("write output file");
            eprintln!("wrote {path}");
        }
        None => println!("{rendered}"),
    }

    if let Some(path) = check_path {
        // The instrumented runs above must be byte-for-byte the runs a
        // metrics-free build would do: rerun both smoke points with a
        // disabled registry and demand identical committed op counts.
        eprintln!("== check: observability must not perturb the run ==");
        for (name, rate, cfg, client, observed) in [
            (
                "unbatched",
                SMOKE_RATE_UNBATCHED,
                &cfg_unbatched,
                client_unbatched,
                &smoke_u,
            ),
            (
                "batched",
                SMOKE_RATE_BATCHED,
                &cfg_batched,
                client_batched,
                &smoke_b,
            ),
        ] {
            let bare = measure(
                &spec,
                &smoke_load(rate).with_client_batch(client),
                cfg.clone(),
                42,
                ClusterObs::off(),
            );
            assert!(
                bare.node0_committed_per_sec == observed.node0_committed_per_sec
                    && bare.run.achieved == observed.run.achieved,
                "metrics-enabled smoke ({name}) diverged from metrics-off: \
                 committed {}/s vs {}/s, achieved {}/s vs {}/s",
                observed.node0_committed_per_sec,
                bare.node0_committed_per_sec,
                observed.run.achieved,
                bare.run.achieved,
            );
            eprintln!(
                "check metrics-off {name}: identical committed ops ({:.0}/s)",
                bare.node0_committed_per_sec
            );
        }

        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        match check_baseline(
            &baseline,
            smoke_u.node0_committed_per_sec,
            smoke_b.node0_committed_per_sec,
        ) {
            Ok(()) => eprintln!("baseline check passed ({path})"),
            Err(why) => {
                eprintln!("baseline check FAILED: {why}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_format() {
        assert_eq!(fmt_rate(2_610_000.0), "2.61 M/s");
        assert_eq!(fmt_rate(45_300.0), "45.3 k/s");
        assert_eq!(fmt_rate(120.0), "120 /s");
    }
}
