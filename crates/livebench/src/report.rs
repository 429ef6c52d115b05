//! Turns what a run measured into the named metrics, and prints them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::gen::LoadGen;
use crate::metrics::{per_layer, EndToEnd, END_TO_END};
use crate::procfs::group_delta;
use crate::stats::{median, SpanAgg};
use crate::trace::{kind_index, NodeTrace, WireTrace, KINDS, STEP_NAMES};
use crate::workload::{Load, DEADLINE};

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Host facts measured outside the cluster.
pub struct Host {
    pub nproc: usize,
    pub ref_spin_ms: f64,
    pub kv_put_ns: f64,
    pub kv_get_ns: f64,
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// The six end-to-end metrics of one untraced run, each over the whole
/// window. `Err` when the run did not do the work a metric is defined on.
pub fn end_to_end_metrics(gen: &LoadGen, setups_s: &[f64]) -> Result<Vec<Metric>, String> {
    let m = &gen.m;
    let done = gen.done_in_window();
    if done == 0 {
        return Err("no op completed inside the window".into());
    }
    let goodput = match gen.workload().load {
        // The median of the per-second counts shrugs off a transient stall.
        Load::Closed => {
            let counts: Vec<f64> = m.per_second.iter().map(|&c| c as f64).collect();
            median(&counts)
        }
        Load::Paced(_) => done as f64 / window_s(gen),
    };
    let p50 = m.latency.quantile(0.5).ok_or("no latency sample")?;
    let cpu_us = (m.close.cpu_s - m.open.cpu_s) * 1e6 / done as f64;
    let rss = m.rss_peak_mib.ok_or("the window never closed")?;
    if m.crash_ns.is_none() {
        return Err("the crash was never injected".into());
    }
    let values = [
        goodput,
        ms(p50),
        cpu_us,
        rss,
        ms(m.outage_ns as f64),
        median(setups_s),
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(def, value)| Metric {
            name: def.name.to_string(),
            value,
            unit: def.unit,
        })
        .collect())
}

/// The measured length of the window, in seconds.
pub fn window_s(gen: &LoadGen) -> f64 {
    (gen.m.close.at_ns - gen.m.open.at_ns) as f64 / 1e9
}

/// The per-layer metrics of one traced run, in manifest order.
pub fn per_layer_metrics(
    gen: &LoadGen,
    nodes: &[(u32, NodeTrace)],
    host: &Host,
    goodput: f64,
) -> Vec<Metric> {
    let m = &gen.m;
    let done = gen.done_in_window().max(1) as f64;
    let window_s = window_s(gen);
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        v.insert(
            name.to_string(),
            if value.is_finite() { value } else { 0.0 },
        );
    };
    let per_op_us = |ns: u64| ns as f64 / 1e3 / done;

    // workload: the generator's view.
    let q = |h: &crate::stats::LogHist, q| h.quantile(q).map_or(0.0, ms);
    put("workload.latency_p99_ms", q(&m.latency, 0.99));
    put("workload.latency_max_ms", ms(m.latency.max() as f64));
    put("workload.sched_lag_p99_ms", q(&m.sched_lag, 0.99));
    put(
        "workload.inflight_mean",
        m.latency.sum() as f64 / (window_s * 1e9),
    );

    // Threads, by name, over the window.
    let threads = |prefix| group_delta(&m.open.threads, &m.close.threads, prefix);
    let (loadgen, reactor, node) = (
        threads("loadgen"),
        threads("canopus-reactor"),
        threads("node-"),
    );
    put("workload.cpu_us_per_op", per_op_us(loadgen.on_cpu_ns));
    put("net.reactor.cpu_us_per_op", per_op_us(reactor.on_cpu_ns));
    put(
        "net.reactor.runq_wait_us_per_op",
        per_op_us(reactor.runq_wait_ns),
    );
    put("net.tcp.runq_wait_us_per_op", per_op_us(node.runq_wait_ns));
    put(
        "net.tcp.vol_ctx_switches_per_op",
        node.vol_switches as f64 / done,
    );

    // The reactor's own counters.
    let reactor_delta = |name: &str| {
        let at = |edge: &crate::gen::EdgeSample| {
            edge.reactor
                .as_ref()
                .and_then(|s| s.counter(name))
                .unwrap_or(0)
        };
        at(&m.close).saturating_sub(at(&m.open)) as f64
    };
    put(
        "net.reactor.events_per_iter",
        reactor_delta("reactor.readiness.events")
            / reactor_delta("reactor.loop.iterations").max(1.0),
    );
    put(
        "net.reactor.wakeups_per_op",
        reactor_delta("reactor.wakeups") / done,
    );
    put(
        "net.reactor.backpressure_full",
        reactor_delta("reactor.backpressure.full"),
    );

    // What the wrappers saw, summed over the nodes.
    let mut steps: [SpanAgg; 7] = Default::default();
    let mut wire = WireTrace::default();
    wire.merge(&m.wire);
    for (_, t) in nodes {
        for (sum, s) in steps.iter_mut().zip(&t.steps) {
            sum.merge(s);
        }
        wire.merge(&t.wire);
    }
    for kind in KINDS {
        let k = kind_index(kind);
        put(
            &format!("net.wire.codec_ns.{kind}"),
            wire.codec[k].mean_ns(),
        );
        put(
            &format!("net.wire.bytes_per_msg.{kind}"),
            wire.bytes[k] as f64 / wire.msgs[k].max(1) as f64,
        );
        put(
            &format!("net.tcp.msgs_per_op.{kind}"),
            wire.msgs[k] as f64 / done,
        );
        put(
            &format!("net.tcp.bytes_per_op.{kind}"),
            wire.bytes[k] as f64 / done,
        );
    }
    put(
        "net.tcp.msgs_per_op",
        wire.msgs.iter().sum::<u64>() as f64 / done,
    );
    put(
        "net.tcp.bytes_per_op",
        wire.bytes.iter().sum::<u64>() as f64 / done,
    );

    let step_ns: u64 = steps.iter().map(|s| s.sum_ns).sum();
    put("core.step_us_per_op", per_op_us(step_ns));
    for (name, agg) in STEP_NAMES.iter().zip(&steps) {
        if !matches!(*name, "reply" | "start") {
            put(
                &format!("core.step_us_per_op.{name}"),
                per_op_us(agg.sum_ns),
            );
        }
    }
    put(
        "core.steps_per_op",
        steps.iter().map(|s| s.count).sum::<u64>() as f64 / done,
    );
    put(
        "core.step_max_ms",
        ms(steps.iter().map(|s| s.max_ns).max().unwrap_or(0) as f64),
    );
    // The node loop is what its thread did outside the state machine.
    put(
        "net.tcp.cpu_us_per_op",
        per_op_us(node.on_cpu_ns.saturating_sub(step_ns)),
    );

    // Cycles, from the nodes' own counters.
    let (mut cycles, mut cycle_ns, mut counted) = (0u64, 0u64, 0u64);
    for (_, t) in nodes {
        if let Some((a, b)) = t.stats_window {
            cycles += b.committed_cycles - a.committed_cycles;
            cycle_ns += b.cycle_latency_sum_ns - a.cycle_latency_sum_ns;
            counted += 1;
        }
    }
    let cycles_per_node = cycles as f64 / counted.max(1) as f64;
    put("core.cycles_per_s", cycles_per_node / window_s);
    put("core.ops_per_cycle", done / cycles_per_node.max(1.0));
    put(
        "core.cycle_ms_mean",
        ms(cycle_ns as f64 / cycles.max(1) as f64),
    );

    put("kv.put_ns", host.kv_put_ns);
    put("kv.get_ns", host.kv_get_ns);
    put("setup.spawn_ms", ms(m.spawn_ns as f64));
    put("setup.preload_ms", ms((m.setup_ns - m.spawn_ns) as f64));

    // fault: node 0 is in another super-leaf than the victim, so it sees
    // the outage only through the stalled cycles.
    let crash_ns = m.crash_ns.unwrap_or(0);
    let resumed = nodes
        .iter()
        .find(|(id, _)| *id == 0)
        .and_then(|(_, t)| t.commit_resumed_ns);
    put(
        "fault.detect_ms",
        resumed.map_or(0.0, |at| ms(at.saturating_sub(crash_ns) as f64)),
    );
    put("fault.ops_lost", m.resent_at_crash as f64);
    put("fault.ops_late", m.late_after_crash as f64);
    put("fault.post_crash_p50_ms", q(&m.post_crash, 0.5));

    put("host.nproc", host.nproc as f64);
    put("host.ref_spin_ms", host.ref_spin_ms);
    let (total, steal) = (
        m.close.host.0.saturating_sub(m.open.host.0),
        m.close.host.1.saturating_sub(m.open.host.1),
    );
    put("host.steal_frac", steal as f64 / total.max(1) as f64);

    let process_ns = (m.close.cpu_s - m.open.cpu_s) * 1e9;
    let named_ns = (loadgen.on_cpu_ns + reactor.on_cpu_ns + node.on_cpu_ns) as f64;
    put(
        "budget.unattributed_frac",
        1.0 - named_ns / process_ns.max(1.0),
    );
    put("trace.goodput_ops_s", goodput);

    per_layer()
        .into_iter()
        .map(|def| Metric {
            value: *v
                .get(&def.name)
                .unwrap_or_else(|| panic!("per-layer metric {} was not computed", def.name)),
            name: def.name,
            unit: def.unit,
        })
        .collect()
}

/// `name value unit`, one metric per line.
pub fn text_lines(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(out, "{} {} {}", m.name, m.value, m.unit);
    }
    out
}

/// The one-line result the benchmark contract asks for.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// Warnings that qualify a run without failing it.
pub fn warnings(gen: &LoadGen, goodput: f64) -> Vec<String> {
    let mut out = Vec::new();
    if gen.m.rss_short_of_work {
        out.push(
            "the window closed short of the fixed op count: rss_peak_mib was read at its end"
                .to_string(),
        );
    }
    if let Load::Paced(rate) = gen.workload().load {
        // A collapsed run is reported as it is: never retried or trimmed.
        if goodput < 0.9 * rate as f64 {
            out.push(format!(
                "goodput {goodput:.0} op/s is below 0.9 x the paced {rate} op/s: the run collapsed \
                 (ops answered later than {} s are not goodput)",
                DEADLINE.as_secs()
            ));
        }
        let lag = gen.m.sched_lag.quantile(0.99).map_or(0.0, ms);
        if lag > 5.0 {
            out.push(format!(
                "workload.sched_lag_p99_ms = {lag:.2}: the generator ran late, open-loop latency is suspect"
            ));
        }
    }
    out
}

/// Per-span aggregates, the metrics with their predictions, and the sampled
/// client-side op spans, as the JSON text of the trace file.
pub fn trace_json(
    workload: &str,
    metrics: &[Metric],
    gen: &LoadGen,
    nodes: &[(u32, NodeTrace)],
) -> String {
    let agg = |a: &SpanAgg| {
        let last = a.log2.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
        format!(
            "{{\"count\": {}, \"sum_ns\": {}, \"max_ns\": {}, \"log2_ns\": {:?}}}",
            a.count,
            a.sum_ns,
            a.max_ns,
            &a.log2[..last]
        )
    };
    let mut out = format!("{{\n\"workload\": \"{workload}\",\n\"metrics\": [\n");
    let defs = per_layer();
    let rows: Vec<String> = metrics
        .iter()
        .zip(&defs)
        .map(|(m, def)| {
            let layer = m.name.split('.').next().unwrap_or("");
            format!(
                "  {{\"name\": \"{}\", \"layer\": \"{layer}\", \"value\": {}, \"unit\": \"{}\", \"better\": \"{}\", \"moves\": \"{}\"}}",
                m.name,
                m.value,
                m.unit,
                def.better,
                canopus_obs::json_escape(def.moves)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n],\n\"spans\": {\n");
    let mut span_rows = Vec::new();
    for (id, t) in nodes {
        for (name, a) in STEP_NAMES.iter().zip(&t.steps) {
            if a.count > 0 {
                span_rows.push(format!("  \"node-{id}.step.{name}\": {}", agg(a)));
            }
        }
        for kind in KINDS {
            let a = &t.wire.codec[kind_index(kind)];
            if a.count > 0 {
                span_rows.push(format!("  \"node-{id}.codec.{kind}\": {}", agg(a)));
            }
        }
    }
    span_rows.push(format!(
        "  \"loadgen.codec.reply\": {}",
        agg(&gen.m.wire.codec[kind_index("reply")])
    ));
    out.push_str(&span_rows.join(",\n"));
    out.push_str("\n},\n\"ops\": [\n");
    let ops: Vec<String> = gen
        .m
        .spans
        .iter()
        .map(|s| {
            format!(
                "  {{\"id\": {}, \"due_ns\": {}, \"sent_ns\": {}, \"replied_ns\": {}, \"target\": {}}}",
                s.id, s.due_ns, s.sent_ns, s.replied_ns, s.target
            )
        })
        .collect();
    out.push_str(&ops.join(",\n"));
    out.push_str("\n]\n}\n");
    out
}

/// By how much `b` is worse than `a`, as a share of `a` (negative = better).
pub fn worse_by(def: &EndToEnd, a: f64, b: f64) -> f64 {
    if def.better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}
