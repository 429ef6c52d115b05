//! The benchmark's names: every workload and metric with its unit,
//! direction, bound and — for the per-layer metrics — the end-to-end
//! metric and workload it is predicted to move. `BENCHMARK.json` is
//! rendered from these tables (`livebench manifest`), and a test holds the
//! file to them.

use crate::trace::KINDS;
use crate::workload::{WINDOW, WORKLOADS};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// The issue asks for bounds of 0.10 (0.05 for `outage_ms`) and holds them
/// to the difference between the medians of two sets of runs. The benchmark
/// contract holds the same number to a stricter statistic — the
/// interquartile spread of ten single runs — and refuses the whole benchmark
/// when a spread exceeds its bound. With the whole-window estimators the
/// widest spreads seen on the builder's 2-vCPU machine were 9 % (`put16_sat`
/// goodput), 19 % (`get90_paced` latency) and 11 % (`put16_sat` CPU), and a
/// resampling of the runs behind them puts a spread of 20 % within reach;
/// those three take the contract's ceiling of 0.25, as does `setup_s`, which
/// the contract wants widest. RSS (at most 3 %) keeps the issue's 0.10.
/// `outage_ms` spreads by under 1 %, but one run in forty detects the crash
/// 0.2-0.4 s early, and two such runs in a set of ten put the lower quartile
/// 5.4 % under the median: it takes 0.10. README.md has the table.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "goodput_ops_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_peak_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "outage_ms",
        unit: "ms",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric, and the workload, this one should move.
    pub moves: &'static str,
}

fn layer(name: &str, unit: &'static str, better: &'static str, moves: &'static str) -> Layer {
    Layer {
        name: name.to_string(),
        unit,
        better,
        moves,
    }
}

/// Every per-layer metric, in report order. The prefix up to the last
/// `.`-separated stem names the layer.
pub fn per_layer() -> Vec<Layer> {
    const REQ_REPLY: &str = "cpu_us_per_op on get90_paced";
    const REPL: &str = "cpu_us_per_op and goodput_ops_s on put16_sat";
    const WAKE: &str = "latency_p50_ms on put16_paced and get90_paced";
    const NOTHING_BYTES: &str =
        "nothing at 16-byte values; recorded so 'bytes dominate' can be checked before deltas ship";
    let mut v = vec![
        layer(
            "workload.latency_p99_ms",
            "ms",
            "lower",
            "not a gate: 13-300 ms at identical settings",
        ),
        layer("workload.latency_max_ms", "ms", "lower", "not a gate"),
        layer(
            "workload.sched_lag_p99_ms",
            "ms",
            "lower",
            "above 5 ms the open-loop latency_p50_ms is suspect",
        ),
        layer(
            "workload.inflight_mean",
            "count",
            "lower",
            "latency_p50_ms (Little's law) on every workload",
        ),
        layer(
            "workload.cpu_us_per_op",
            "us",
            "lower",
            "cpu_us_per_op: the generator's own share, every workload",
        ),
    ];
    for kind in KINDS {
        let moves = match kind {
            "request" | "reply" => REQ_REPLY,
            _ => REPL,
        };
        v.push(layer(
            &format!("net.wire.codec_ns.{kind}"),
            "ns",
            "lower",
            moves,
        ));
    }
    for kind in KINDS {
        v.push(layer(
            &format!("net.wire.bytes_per_msg.{kind}"),
            "B",
            "lower",
            NOTHING_BYTES,
        ));
    }
    v.extend([
        layer(
            "net.reactor.cpu_us_per_op",
            "us",
            "lower",
            "goodput_ops_s on put16_sat (about 45 % of process CPU)",
        ),
        layer("net.reactor.runq_wait_us_per_op", "us", "lower", WAKE),
        layer(
            "net.reactor.events_per_iter",
            "count",
            "higher",
            "goodput_ops_s on put16_sat (syscalls amortised per wake-up)",
        ),
        layer("net.reactor.wakeups_per_op", "count", "lower", WAKE),
        layer(
            "net.reactor.backpressure_full",
            "count",
            "lower",
            "goodput_ops_s on put16_sat (shed frames are retried cycles)",
        ),
        layer(
            "net.tcp.cpu_us_per_op",
            "us",
            "lower",
            "goodput_ops_s on put16_sat (mpsc hop, timers, one to_bytes per recipient)",
        ),
        layer("net.tcp.runq_wait_us_per_op", "us", "lower", WAKE),
        layer("net.tcp.vol_ctx_switches_per_op", "count", "lower", WAKE),
        layer(
            "net.tcp.msgs_per_op",
            "count",
            "lower",
            "goodput_ops_s on put16_sat",
        ),
        layer("net.tcp.bytes_per_op", "B", "lower", NOTHING_BYTES),
    ]);
    for kind in KINDS {
        v.push(layer(
            &format!("net.tcp.msgs_per_op.{kind}"),
            "count",
            "lower",
            "goodput_ops_s on put16_sat",
        ));
    }
    for kind in KINDS {
        v.push(layer(
            &format!("net.tcp.bytes_per_op.{kind}"),
            "B",
            "lower",
            NOTHING_BYTES,
        ));
    }
    v.extend([
        layer("core.step_us_per_op", "us", "lower", REPL),
        layer("core.step_us_per_op.request", "us", "lower", REQ_REPLY),
        layer("core.step_us_per_op.raft", "us", "lower", REPL),
        layer("core.step_us_per_op.proposal_request", "us", "lower", REPL),
        layer("core.step_us_per_op.proposal_response", "us", "lower", REPL),
        layer("core.step_us_per_op.timer", "us", "lower", "cpu_us_per_op on put16_paced (idle ticks)"),
        layer("core.steps_per_op", "count", "lower", REPL),
        layer("core.step_max_ms", "ms", "lower", "workload.latency_p99_ms: a long step stalls its node"),
        layer("core.cycles_per_s", "1/s", "higher", "latency_p50_ms on put16_paced: cycles free-run (~550/s), so cheaper steps shorten latency but leave cpu_us_per_op flat unless idle cycles stop"),
        layer("core.ops_per_cycle", "count", "higher", "goodput_ops_s on put16_sat (batching)"),
        layer("core.cycle_ms_mean", "ms", "lower", "latency_p50_ms on put16_paced and put16_sat"),
        layer("kv.put_ns", "ns", "lower", "nothing today (< 1 % of cpu_us_per_op); shows a store or persistence change"),
        layer("kv.get_ns", "ns", "lower", "nothing today (< 1 % of cpu_us_per_op)"),
        layer("setup.spawn_ms", "ms", "lower", "setup_s"),
        layer("setup.preload_ms", "ms", "lower", "setup_s"),
        layer("fault.detect_ms", "ms", "lower", "outage_ms on put16_crash"),
        layer("fault.ops_lost", "count", "lower", "latency_p50_ms on put16_crash (in flight to the victim at the crash, sent again to node 5)"),
        layer("fault.ops_late", "count", "lower", "goodput_ops_s on put16_crash (answered past the 1 s deadline)"),
        layer("fault.post_crash_p50_ms", "ms", "lower", "latency_p50_ms on put16_crash"),
        layer("host.nproc", "count", "higher", "every metric: provenance, not a target"),
        layer("host.ref_spin_ms", "ms", "lower", "every metric: host speed drift, not a target"),
        layer("host.steal_frac", "frac", "lower", "every metric: host contention, not a target"),
        layer("budget.unattributed_frac", "frac", "lower", "cpu_us_per_op: the share no layer row explains (<= 0.10 on put16_sat)"),
        layer("trace.goodput_ops_s", "1/s", "higher", "the traced run's goodput; 1 - this/goodput_ops_s is trace.overhead_frac"),
    ]);
    v
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", canopus_obs::json_escape(s))
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"crates/livebench/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"crates/livebench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {},\n", WINDOW.as_secs()));
    let rows = |rows: Vec<String>| rows.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": {}, \"why\": {}}}",
                    json_str(w.name),
                    json_str(w.why)
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    json_str(m.name),
                    json_str(m.unit),
                    json_str(m.better),
                    m.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        per_layer()
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    json_str(&m.name),
                    json_str(m.unit),
                    json_str(m.better)
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn legal_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_manifest_limits() {
        let layers = per_layer();
        assert!(layers.len() <= 128);
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(legal_name(w.name) && names.insert(w.name.to_string()));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(legal_name(m.name) && names.insert(m.name.to_string()));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in &layers {
            assert!(legal_name(&m.name), "{}", m.name);
            assert!(names.insert(m.name.clone()), "{} used twice", m.name);
            assert!(m.unit.len() <= 16 && !m.moves.is_empty());
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(manifest().len() <= 64 << 10);
    }

    #[test]
    fn benchmark_json_is_rendered_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, manifest(), "regenerate with `livebench manifest`");
    }
}
