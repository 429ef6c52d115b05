//! Running experiments and searching for maximum throughput.
//!
//! Reproduces the paper's methodology (§8.1): offered load is increased
//! until the median request completion time exceeds 10 ms, and the
//! highest rate that stays under it is the system's maximum throughput.

use canopus::{CanopusConfig, CanopusMsg};
use canopus_sim::Dur;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::cluster::{Clients, Cluster, ClusterBuilder};
use crate::latency::LatencyRecorder;
use crate::open_loop::OpenLoopClient;
use crate::protocol::Protocol;
use crate::spec::{DeploymentSpec, LoadSpec};

/// The outcome of one measured run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Offered load (requests/second, whole deployment).
    pub offered: f64,
    /// Achieved completion rate over the measured window.
    pub achieved: f64,
    /// Median completion time across all requests.
    pub median: Option<Dur>,
    /// 95th percentile completion time.
    pub p95: Option<Dur>,
    /// Mean completion time.
    pub mean: Option<Dur>,
    /// Median for writes only.
    pub write_median: Option<Dur>,
    /// Median for reads only.
    pub read_median: Option<Dur>,
    /// Whether every protocol node made progress.
    pub healthy: bool,
}

impl RunResult {
    /// Whether this point is below the paper's 10 ms saturation knee and
    /// the system kept up with the offered load.
    ///
    /// The write median is checked separately: in systems that serve reads
    /// locally (ZooKeeper) a read-heavy mix keeps the combined median low
    /// even after the write path has collapsed, which would otherwise
    /// report absurd "sustained" rates.
    pub fn is_sustainable(&self, limit: Dur) -> bool {
        self.healthy
            && self.achieved >= 0.75 * self.offered
            && self.median.is_some_and(|m| m <= limit)
            && self.write_median.is_none_or(|m| m <= limit * 3)
    }
}

impl<P: Protocol> Cluster<P> {
    /// Runs a cluster driven by [`Clients::OpenLoop`]`(load)` through
    /// `load`'s warmup and measured window and collects the client
    /// recorders into a [`RunResult`].
    pub fn measure(&mut self, load: &LoadSpec) -> RunResult {
        self.sim.run_for(load.warmup + load.duration);
        let mut writes = LatencyRecorder::default();
        let mut reads = LatencyRecorder::default();
        let mut rng = SmallRng::seed_from_u64(0xA77E);
        for &c in &self.clients {
            let client = self.sim.node::<OpenLoopClient<P>>(c);
            writes.merge(&client.writes, &mut rng);
            reads.merge(&client.reads, &mut rng);
        }
        let mut total = writes.clone();
        total.merge(&reads, &mut rng);
        let nodes: Vec<&P::Node> = self.nodes.iter().map(|&n| self.node(n)).collect();
        RunResult {
            offered: load.total_rate,
            achieved: total.completed() as f64 / load.duration.as_secs_f64(),
            median: total.median(),
            p95: total.percentile(95.0),
            mean: total.mean(),
            write_median: writes.median(),
            read_median: reads.median(),
            healthy: P::healthy(&nodes),
        }
    }
}

/// Runs a deployment of protocol `P` under the paper's open-loop client
/// model on the simulator and measures it.
pub fn run<P: Protocol>(
    spec: &DeploymentSpec,
    load: &LoadSpec,
    cfg: P::Config,
    seed: u64,
) -> RunResult {
    ClusterBuilder::<P>::new(spec, seed)
        .config(cfg)
        .clients(Clients::OpenLoop(load.clone()))
        .sim()
        .measure(load)
}

/// The search's first offered rate (requests/second, whole deployment).
const START_RATE: f64 = 100_000.0;

/// The search stops once the knee is bracketed this tightly: the lowest
/// rate found not sustained is at most 2 % above the highest sustained.
const RESOLUTION: f64 = 1.02;

/// Doublings tried before the search stops bracketing (100 k/s × 2¹²
/// ≈ 410 M/s, far past any modelled deployment's knee).
const MAX_DOUBLINGS: u32 = 12;

/// What a throughput search ran: every probe in the order it ran, and the
/// two that bracket the knee.
#[derive(Debug)]
pub struct SearchResult<T> {
    latency_limit: Dur,
    probes: Vec<T>,
    best: Option<usize>,
    above: Option<usize>,
}

impl<T: AsRef<RunResult>> SearchResult<T> {
    /// Every probe, in the order the search ran it (not in offered load).
    pub fn probes(&self) -> &[T] {
        &self.probes
    }

    /// The highest sustained probe (§8.1's "maximum throughput"), or
    /// `None` when the first probe did not sustain.
    pub fn best(&self) -> Option<&T> {
        self.best.map(|i| &self.probes[i])
    }

    /// The lowest probe that did not sustain: the knee lies between
    /// [`best`](Self::best) and it, and its offered load is at most 2 %
    /// above `best`'s. `None` when every doubling sustained.
    pub fn above(&self) -> Option<&T> {
        self.above.map(|i| &self.probes[i])
    }

    /// Max throughput: the highest achieved rate among the sustained
    /// probes, or `None` when none sustained. This need not be
    /// [`best`](Self::best)'s: a probe sustains at 75 % of its offered
    /// load, and past a WAN knee a higher offered rate can achieve less.
    pub fn max_throughput(&self) -> Option<f64> {
        self.probes
            .iter()
            .map(AsRef::as_ref)
            .filter(|r| r.is_sustainable(self.latency_limit))
            .map(|r| r.achieved)
            .reduce(f64::max)
    }
}

impl AsRef<RunResult> for RunResult {
    fn as_ref(&self) -> &RunResult {
        self
    }
}

/// The paper's §8.1 search for maximum throughput: the highest offered
/// rate whose probe [sustains](RunResult::is_sustainable) under
/// `latency_limit` (10 ms in one datacenter, 500 ms across the WAN).
///
/// It doubles the offered rate from 100 k/s until a probe does not
/// sustain, then bisects that bracket geometrically until its ends are
/// within 2 % of each other. `probe(rate)` runs one measurement at
/// `rate`; it may return anything that carries a [`RunResult`].
pub fn find_max_throughput<T: AsRef<RunResult>>(
    latency_limit: Dur,
    mut probe: impl FnMut(f64) -> T,
) -> SearchResult<T> {
    let mut search = SearchResult {
        latency_limit,
        probes: Vec::new(),
        best: None,
        above: None,
    };
    let mut try_rate = |search: &mut SearchResult<T>, rate: f64| {
        let result = probe(rate);
        let sustained = result.as_ref().is_sustainable(latency_limit);
        search.probes.push(result);
        let index = Some(search.probes.len() - 1);
        if sustained {
            search.best = index;
        } else {
            search.above = index;
        }
        sustained
    };
    let (mut lo, mut hi) = (START_RATE, START_RATE);
    for _ in 0..=MAX_DOUBLINGS {
        if !try_rate(&mut search, hi) {
            break;
        }
        lo = hi;
        hi *= 2.0;
    }
    if search.best.is_none() || search.above.is_none() {
        return search;
    }
    while hi / lo > RESOLUTION {
        let mid = (lo * hi).sqrt();
        if try_rate(&mut search, mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    search
}

/// Identity and health check used by tests: same seed twice ⇒ identical
/// measurements (whole-stack determinism).
pub fn deterministic_check(
    spec: &DeploymentSpec,
    load: &LoadSpec,
    cfg: CanopusConfig,
    seed: u64,
) -> bool {
    let a = run::<CanopusMsg>(spec, load, cfg.clone(), seed);
    let b = run::<CanopusMsg>(spec, load, cfg, seed);
    a.achieved == b.achieved && a.median == b.median && a.p95 == b.p95
}
