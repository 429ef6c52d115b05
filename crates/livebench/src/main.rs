//! `livebench`: the wall-clock benchmark of the 3×3 loopback cluster.
//!
//! ```text
//! livebench run --workload W [--seed N] [--trace 0|1]
//! livebench run --all [--seed N]
//! livebench trace --workload W [--seed N]
//! livebench stability [--sets 2] [--runs 3]
//! livebench manifest
//! ```
//!
//! Every measured run is one fresh process; `run --all`, `trace` and
//! `stability` start one child `livebench run` per run, and a run starts one
//! child `livebench setup` per extra set-up it times. See README.md.

mod cluster;
mod gen;
mod metrics;
mod procfs;
mod report;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use canopus_kv::KvStore;

use cluster::{verify, Cluster, Finals};
use gen::{Event, GenConfig};
use metrics::END_TO_END;
use report::{Host, Metric};
use trace::{Clock, NodeTrace, TraceCtl, TracedProcess};
use workload::{Workload, KEYS, VICTIM, WINDOW, WORKLOADS};

/// Set-ups per run; `setup_s` is their median. Each is timed from the start
/// of a fresh process: the first is the run's own, the others are `livebench
/// setup` children started once its cluster is down.
const SETUPS: usize = 3;
/// Idle time between the last reply and shutdown, so the remote
/// super-leaves close the final cycle before digests are compared.
const QUIESCE: Duration = Duration::from_millis(500);
/// A run that has not finished by then is hung (the contract allows 180 s).
const RUN_LIMIT: Duration = Duration::from_secs(150);
/// Knobs that would change the system under test. The cluster is measured
/// as shipped, so that a later change of a default is measured, not masked.
const REFUSED_ENV: [&str; 3] = [
    "CANOPUS_REACTOR_LOOPS",
    "LIVE_TIME_UNIT_MS",
    "CANOPUS_NET_QUEUE_BYTES",
];

struct RunOpts {
    workload: &'static Workload,
    seed: u64,
    traced: bool,
}

struct Args(Vec<String>);

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        match self.0.iter().position(|a| a == name) {
            Some(i) => {
                self.0.remove(i);
                true
            }
            None => false,
        }
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn number(&mut self, name: &str, default: u64) -> Result<u64, String> {
        match self.value(name)? {
            Some(v) => v.parse().map_err(|_| format!("{name} {v}: not a number")),
            None => Ok(default),
        }
    }

    fn workload(&mut self) -> Result<Option<&'static Workload>, String> {
        match self.value("--workload")? {
            Some(name) => workload::by_name(&name)
                .map(Some)
                .ok_or_else(|| format!("unknown workload {name}")),
            None => Ok(None),
        }
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            Some(extra) => Err(format!("unexpected argument {extra}")),
            None => Ok(()),
        }
    }
}

fn main() -> ExitCode {
    let clock = Clock::start();
    let mut args = Args(std::env::args().skip(1).collect());
    let command = if args.0.is_empty() {
        String::new()
    } else {
        args.0.remove(0)
    };
    let outcome = match command.as_str() {
        "run" => cmd_run(args, clock),
        "setup" => args.done().and_then(|()| cmd_setup(clock)),
        "trace" => cmd_trace(args),
        "stability" => cmd_stability(args),
        "manifest" => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        _ => Err("usage: livebench run|trace|stability|manifest (see README.md)".to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("livebench: {e}");
            ExitCode::from(2)
        }
    }
}

// -------------------------------------------------------------------
// run
// -------------------------------------------------------------------

fn cmd_run(mut args: Args, clock: Clock) -> Result<bool, String> {
    let all = args.flag("--all");
    let workload = args.workload()?;
    let seed = args.number("--seed", 1)?;
    let traced = args.number("--trace", 0)? != 0;
    // The benchmark contract's driver passes the manifest's `run_seconds`;
    // the window is a constant of the benchmark, not a setting.
    let seconds = args.number("--seconds", WINDOW.as_secs())?;
    args.done()?;
    if seconds != WINDOW.as_secs() {
        return Err(format!(
            "--seconds {seconds}: the window is fixed at {} s",
            WINDOW.as_secs()
        ));
    }
    if all {
        let mut ok = true;
        for w in &WORKLOADS {
            ok &= child_run(w.name, seed, traced)?.0;
        }
        return Ok(ok);
    }
    let workload = workload.ok_or("run needs --workload W or --all")?;
    run_once(
        &RunOpts {
            workload,
            seed,
            traced,
        },
        clock,
    )
}

/// One set-up in this fresh process, timed from its start and torn down.
fn cmd_setup(clock: Clock) -> Result<bool, String> {
    refuse_env()?;
    let cfg = GenConfig {
        // Set-up is the same for every workload and seed.
        workload: &WORKLOADS[0],
        seed: 0,
        setup_only: true,
        traced: false,
        setup_begin_ns: 0,
    };
    let finals = drive(cfg, Arc::new(TraceCtl::new(clock)))?;
    let problems = verify(&finals.live, finals.gen.checker());
    for p in &problems {
        println!("violation: {p}");
    }
    println!("setup_s {} s", finals.gen.m.setup_ns as f64 / 1e9);
    Ok(problems.is_empty())
}

fn refuse_env() -> Result<(), String> {
    match REFUSED_ENV
        .iter()
        .find(|name| std::env::var_os(name).is_some())
    {
        Some(name) => Err(format!(
            "{name} is set: the cluster is measured as shipped, unset it"
        )),
        None => Ok(()),
    }
}

/// A fixed single-thread loop, timed on an idle machine before anything
/// is spawned: the only way to see the host itself drift between runs.
fn ref_spin_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..20_000_000u64 {
        x = (x ^ i).wrapping_mul(0xbf58_476d_1ce4_e5b9).rotate_left(31);
    }
    black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Standalone cost of `KvStore::put` and `get` at the benchmark's key
/// count, 200 ms each: `(put_ns, get_ns)`.
fn kv_timings() -> (f64, f64) {
    let mut store = KvStore::new();
    let value = Bytes::copy_from_slice(&workload::encode_value(1, 1));
    for key in 0..KEYS as u64 {
        store.put(key, value.clone());
    }
    let budget = Duration::from_millis(200);
    let time = |op: &mut dyn FnMut(u64)| {
        let (t0, mut n, mut key) = (Instant::now(), 0u64, 1u64);
        while t0.elapsed() < budget {
            for _ in 0..1024 {
                key = key.wrapping_mul(0x2545_f491_4f6c_dd1d) % KEYS as u64;
                op(key);
            }
            n += 1024;
        }
        t0.elapsed().as_nanos() as f64 / n as f64
    };
    let put = time(&mut |key| {
        black_box(store.put(key, value.clone()));
    });
    let get = time(&mut |key| {
        black_box(store.get(key));
    });
    (put, get)
}

/// Runs one cluster to the end of its generator's plan.
fn drive(cfg: GenConfig, ctl: Arc<TraceCtl>) -> Result<Finals, String> {
    let mut cluster = Cluster::spawn(cfg, ctl)?;
    let limit = Instant::now() + RUN_LIMIT;
    loop {
        let left = limit.saturating_duration_since(Instant::now());
        match cluster.events.recv_timeout(left) {
            Ok(Event::CrashNow) => cluster.stop_node(VICTIM),
            Ok(Event::Done) => break,
            Err(_) => return Err(format!("the run did not finish within {RUN_LIMIT:?}")),
        }
    }
    std::thread::sleep(QUIESCE);
    Ok(cluster.shutdown())
}

/// The checkout's commit, if the working directory is the root of a git
/// checkout (git is kept from searching the directories above it).
fn commit_hash() -> String {
    let above = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
        .unwrap_or_default();
    Command::new("git")
        .env("GIT_CEILING_DIRECTORIES", above)
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn trace_path(workload: &str) -> std::path::PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    std::path::Path::new(&target)
        .join("livebench")
        .join(format!("trace-{workload}.json"))
}

fn run_once(o: &RunOpts, clock: Clock) -> Result<bool, String> {
    refuse_env()?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let name = o.workload.name;
    println!(
        "livebench {name} seed={} seconds={} trace={} commit={} nproc={nproc} reactor_loops={}",
        o.seed,
        WINDOW.as_secs(),
        o.traced as u8,
        commit_hash(),
        canopus_net::reactor::loop_count()
    );
    println!(
        "note: message delay is loopback only; latency here is processor and scheduler time, \
         not network time"
    );
    let host = o.traced.then(|| {
        let (kv_put_ns, kv_get_ns) = kv_timings();
        Host {
            nproc,
            ref_spin_ms: ref_spin_ms(),
            kv_put_ns,
            kv_get_ns,
        }
    });

    let cfg = GenConfig {
        workload: o.workload,
        seed: o.seed,
        setup_only: false,
        traced: o.traced,
        // Set-up counts from process start; a traced run has spent time on
        // the host probes above, which are not set-up.
        setup_begin_ns: if o.traced { clock.now_ns() } else { 0 },
    };
    let finals = drive(cfg, Arc::new(TraceCtl::new(clock)))?;
    let gen = &finals.gen;

    let mut problems = verify(&finals.live, gen.checker());
    problems.extend(gen.m.violation_notes.iter().cloned());
    if gen.m.violations > gen.m.violation_notes.len() as u64 {
        problems.push(format!("{} wrong replies in all", gen.m.violations));
    }

    let mut setups_s = vec![gen.m.setup_ns as f64 / 1e9];
    if !o.traced {
        for _ in 1..SETUPS {
            let (ok, values) = child(&["setup"], false)?;
            match values.get("setup_s") {
                Some(&s) if ok => setups_s.push(s),
                _ => problems.push("a set-up on its own failed".to_string()),
            }
        }
    }

    let end_to_end = report::end_to_end_metrics(gen, &setups_s)?;
    let goodput = end_to_end[0].value;
    let m = &gen.m;
    // Attempted and failed are the window's ops. The crash injected after
    // the window of the other three workloads only serves `outage_ms`. A
    // failed op got no reply or a wrong one; a late one is not goodput.
    let (attempted, failed) = (m.window.attempted, m.window.lost);
    println!(
        "window {:.3} s: attempted {} ok {} late {} failed {}; crash probe after it: \
         attempted {} ok {} late {} failed {}; latency samples {}; stale replies {}; in flight to \
         the victim at the crash, sent again {}",
        report::window_s(gen),
        m.window.attempted,
        m.window.ok,
        m.window.late,
        failed,
        m.probe.attempted,
        m.probe.ok,
        m.probe.late,
        m.probe.lost,
        m.latency.count(),
        m.stale_replies,
        m.resent_at_crash,
    );

    println!(
        "set-ups, s: {setups_s:?} (first: spawn {:.3} s, then preload)",
        m.spawn_ns as f64 / 1e9
    );
    println!("completions per second of window: {:?}", m.per_second);

    let metrics: Vec<Metric> = if let Some(host) = &host {
        let traces = take_traces(finals.live, finals.crashed);
        let layers = report::per_layer_metrics(gen, &traces, host, goodput);
        let path = trace_path(name);
        let text = report::trace_json(name, &layers, gen, &traces);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, text));
        match written {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        layers
    } else {
        end_to_end
    };
    print!("{}", report::text_lines(&metrics));
    for w in report::warnings(gen, goodput) {
        println!("warning: {w}");
    }
    for p in &problems {
        println!("violation: {p}");
    }
    let correct = problems.is_empty();
    println!(
        "{}",
        report::result_json(correct, attempted, failed, &metrics)
    );
    Ok(correct)
}

/// Takes the wrappers' traces back from the final process states.
fn take_traces(
    live: Vec<(u32, Box<dyn canopus_sim::Process<canopus::CanopusMsg>>)>,
    crashed: Vec<(u32, Box<dyn canopus_sim::Process<canopus::CanopusMsg>>)>,
) -> Vec<(u32, NodeTrace)> {
    let mut out: Vec<(u32, NodeTrace)> = live
        .into_iter()
        .chain(crashed)
        .filter_map(|(id, p)| {
            let traced = p.into_any().downcast::<TracedProcess>().ok()?;
            Some((id, traced.trace().clone()))
        })
        .collect();
    out.sort_by_key(|(id, _)| *id);
    out
}

// -------------------------------------------------------------------
// Child runs, for the commands that need more than one
// -------------------------------------------------------------------

/// Starts this binary again with `args`, echoes the child's output if
/// asked, and returns whether it succeeded and the `name value unit` lines
/// it printed.
fn child(args: &[&str], echo: bool) -> Result<(bool, BTreeMap<String, f64>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting livebench {}: {e}", args[0]))?;
    let text = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{text}");
    }
    let mut values = BTreeMap::new();
    for line in text.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        if let [name, value, _unit] = fields[..] {
            if let Ok(value) = value.parse::<f64>() {
                values.insert(name.to_string(), value);
            }
        }
    }
    Ok((output.status.success(), values))
}

fn child_run(
    workload: &str,
    seed: u64,
    traced: bool,
) -> Result<(bool, BTreeMap<String, f64>), String> {
    let (seed, trace) = (seed.to_string(), if traced { "1" } else { "0" });
    child(
        &[
            "run",
            "--workload",
            workload,
            "--seed",
            &seed,
            "--trace",
            trace,
        ],
        true,
    )
}

// -------------------------------------------------------------------
// trace
// -------------------------------------------------------------------

fn cmd_trace(mut args: Args) -> Result<bool, String> {
    let workload = args.workload()?.ok_or("trace needs --workload W")?;
    let seed = args.number("--seed", 1)?;
    args.done()?;
    let (ok_plain, plain) = child_run(workload.name, seed, false)?;
    let (ok_traced, traced) = child_run(workload.name, seed, true)?;
    let get = |m: &BTreeMap<String, f64>, name: &str| {
        m.get(name)
            .copied()
            .ok_or_else(|| format!("the run did not print {name}"))
    };
    let overhead = 1.0 - get(&traced, "trace.goodput_ops_s")? / get(&plain, "goodput_ops_s")?;
    let unattributed = get(&traced, "budget.unattributed_frac")?;
    println!("trace.overhead_frac {overhead} frac");
    let mut ok = ok_plain && ok_traced;
    // The budget is only held to close where the box is CPU-bound.
    if workload.name == "put16_sat" {
        for (name, value) in [
            ("trace.overhead_frac", overhead),
            ("budget.unattributed_frac", unattributed),
        ] {
            if value > 0.10 {
                println!("FAIL: {name} = {value:.3} exceeds 0.10 on put16_sat");
                ok = false;
            }
        }
    }
    Ok(ok)
}

// -------------------------------------------------------------------
// stability
// -------------------------------------------------------------------

fn cmd_stability(mut args: Args) -> Result<bool, String> {
    let sets = args.number("--sets", 2)? as usize;
    let runs = args.number("--runs", 3)? as usize;
    args.done()?;
    if sets < 2 || runs < 1 {
        return Err("stability needs --sets >= 2 and --runs >= 1".into());
    }
    // samples[workload][metric][set] = one value per run. The sets are
    // interleaved (A1 B1 A2 B2 ...) so slow drift of the host lands on
    // both, and every run gets its own seed.
    let mut samples: BTreeMap<(&str, usize), Vec<Vec<f64>>> = BTreeMap::new();
    let mut seed = 1;
    let mut all_ok = true;
    for _ in 0..runs {
        for set in 0..sets {
            for w in &WORKLOADS {
                let (ok, values) = child_run(w.name, seed, false)?;
                seed += 1;
                all_ok &= ok;
                for (i, def) in END_TO_END.iter().enumerate() {
                    if let Some(&v) = values.get(def.name) {
                        samples
                            .entry((w.name, i))
                            .or_insert_with(|| vec![Vec::new(); sets])[set]
                            .push(v);
                    }
                }
            }
        }
    }
    println!(
        "\nstability: {sets} interleaved sets of {runs} runs, {} s windows",
        WINDOW.as_secs()
    );
    println!(
        "{:<12} {:<15} {:>12} {:>12} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "diff", "range", "bound"
    );
    for ((workload, i), per_set) in &samples {
        let def = &END_TO_END[*i];
        let metric = def.name;
        if per_set.iter().any(Vec::is_empty) {
            return Err(format!("{workload} {metric}: a set has no sample"));
        }
        let medians: Vec<f64> = per_set.iter().map(|v| stats::median(v)).collect();
        // Worst later set against the first; range is the widest set's.
        let diff = medians[1..]
            .iter()
            .map(|&b| report::worse_by(def, medians[0], b).abs())
            .fold(0.0, f64::max);
        let range = per_set
            .iter()
            .map(|v| stats::rel_range(v))
            .fold(0.0, f64::max);
        let bound = def.bound;
        let verdict = if diff > bound {
            all_ok = false;
            "FAIL"
        } else if diff > bound / 2.0 {
            "ok (above half the bound)"
        } else {
            "ok"
        };
        println!(
            "{workload:<12} {metric:<15} {:>12.4} {:>12.4} {:>7.2}% {:>7.2}% {:>7.2}%  {verdict}",
            medians[0],
            medians[1],
            diff * 100.0,
            range * 100.0,
            bound * 100.0
        );
    }
    Ok(all_ok)
}
