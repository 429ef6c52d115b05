//! The shared chaos scenario catalog.
//!
//! PR 2's chaos suite defined its fault scenarios inline in
//! `tests/chaos.rs`; this module extracts them so the simulator suite,
//! the live-TCP suite (`tests/live_chaos.rs`), and the examples all draw
//! from one catalog. Scenarios are parameterized by:
//!
//! * a [`ChaosTopology`] — how many super-leaves/racks and nodes per
//!   group the deployment's [`DeploymentSpec`] has (the simulator suite
//!   uses 3 × 3, the live suite a lighter 2 × 3), and
//! * a [`ChaosTimeline`] — when faults land, heal, and when the
//!   convergence probes begin. Virtual-time runs use the tight PR 2
//!   schedule; wall-clock runs use a stretched schedule matched to the
//!   relaxed live timeouts (see `crate::live`).
//!
//! The interior instants of multi-event scenarios (a mid-window restart,
//! the churn cadence, the flap period) are derived as fixed fractions of
//! the fault window so that the simulator timeline reproduces PR 2's
//! tuned schedule *exactly* (preserving its trace-hash regressions) while
//! the live timeline scales the same shape to real seconds.

use std::collections::BTreeSet;

use canopus_sim::fault::{FaultEvent, FaultPlan};
use canopus_sim::{Dur, NodeId, Time};

use crate::history::ChaosReport;
use crate::spec::DeploymentSpec;

/// Node placement the scenarios cut along: `groups` super-leaves of
/// `per_group` nodes, ids dense and group-major (node `g * per_group + i`).
#[derive(Copy, Clone, Debug)]
pub struct ChaosTopology {
    /// Number of super-leaves/racks.
    pub groups: u32,
    /// Protocol nodes per super-leaf.
    pub per_group: u32,
}

impl ChaosTopology {
    /// The groups of `spec`: one per rack/datacenter.
    pub fn of(spec: &DeploymentSpec) -> Self {
        ChaosTopology {
            groups: spec.group_count() as u32,
            per_group: spec.per_group() as u32,
        }
    }

    /// The members of super-leaf `g`.
    pub fn leaf(&self, g: u32) -> Vec<NodeId> {
        (0..self.per_group)
            .map(|i| NodeId(g * self.per_group + i))
            .collect()
    }

    /// The members of several super-leaves.
    pub fn leaves(&self, gs: impl IntoIterator<Item = u32>) -> Vec<NodeId> {
        gs.into_iter().flat_map(|g| self.leaf(g)).collect()
    }

    /// Total protocol nodes.
    pub fn node_count(&self) -> usize {
        (self.groups * self.per_group) as usize
    }
}

/// The phase instants of one chaos run, as offsets from its start.
#[derive(Copy, Clone, Debug)]
pub struct ChaosTimeline {
    /// First fault lands.
    pub fault_at: Dur,
    /// Network fully heals.
    pub heal_at: Dur,
    /// Clients move to fresh probe keys (the convergence phase).
    pub probe_at: Dur,
    /// Clients stop issuing operations.
    pub stop_at: Dur,
    /// Total run length (quiesce margin after `stop_at`).
    pub run_for: Dur,
}

impl ChaosTimeline {
    /// PR 2's virtual-time schedule: fault 200 ms, heal 900 ms, probes
    /// 1100 ms, stop 1800 ms, verdict at 2100 ms.
    pub fn sim_default() -> Self {
        ChaosTimeline {
            fault_at: Dur::millis(200),
            heal_at: Dur::millis(900),
            probe_at: Dur::millis(1100),
            stop_at: Dur::millis(1800),
            run_for: Dur::millis(2100),
        }
    }

    /// The fault window.
    pub fn window(&self) -> Dur {
        self.heal_at - self.fault_at
    }

    /// `probe_at` as an absolute instant of a run started at [`Time::ZERO`].
    pub fn converge_after(&self) -> Time {
        Time::ZERO + self.probe_at
    }
}

/// A named fault plan plus its per-protocol convergence exemptions.
pub struct ChaosScenario {
    /// Scenario name for reports and test output.
    pub name: &'static str,
    /// The fault schedule.
    pub plan: FaultPlan,
    /// Trusted nodes whose clients are excused from the convergence check
    /// for the protocol named ([`crate::Protocol::NAME`]; safety
    /// is still enforced for them). A closure so
    /// scenarios can bind the exemption to the node the plan actually
    /// impairs in the given topology.
    pub exempt: Box<dyn Fn(&str) -> BTreeSet<NodeId>>,
}

fn no_exemptions() -> Box<dyn Fn(&str) -> BTreeSet<NodeId>> {
    Box::new(|_| BTreeSet::new())
}

/// One whole super-leaf cut off from all the others, then healed.
pub fn superleaf_partition(topo: &ChaosTopology, t: &ChaosTimeline) -> ChaosScenario {
    ChaosScenario {
        name: "superleaf_partition",
        plan: FaultPlan::new()
            .at(
                t.fault_at,
                FaultEvent::CutGroups {
                    a: topo.leaf(0),
                    b: topo.leaves(1..topo.groups),
                },
            )
            .at(t.heal_at, FaultEvent::HealAll),
        exempt: no_exemptions(),
    }
}

/// A majority split from a single-super-leaf minority along group
/// boundaries (identical to [`superleaf_partition`] when only two groups
/// exist).
pub fn majority_minority_split(topo: &ChaosTopology, t: &ChaosTimeline) -> ChaosScenario {
    ChaosScenario {
        name: "majority_minority_split",
        plan: FaultPlan::new()
            .at(
                t.fault_at,
                FaultEvent::CutGroups {
                    a: topo.leaves(0..topo.groups - 1),
                    b: topo.leaf(topo.groups - 1),
                },
            )
            .at(t.heal_at, FaultEvent::HealAll),
        exempt: no_exemptions(),
    }
}

/// The bootstrap leader (node 0: Raft/Zab leader, a Canopus super-leaf
/// member, an EPaxos command leader) crashes mid-round under load and
/// restarts late in the fault window.
pub fn leader_crash_mid_round(_topo: &ChaosTopology, t: &ChaosTimeline) -> ChaosScenario {
    let w = t.window();
    ChaosScenario {
        name: "leader_crash_mid_round",
        plan: FaultPlan::new()
            .at(t.fault_at + w / 14, FaultEvent::Crash(NodeId(0)))
            .at(t.fault_at + (w * 6) / 7, FaultEvent::Restart(NodeId(0)))
            .at(t.heal_at, FaultEvent::HealAll),
        exempt: no_exemptions(),
    }
}

/// One node crash-restarts three times in quick succession.
pub fn crash_restart_churn(_topo: &ChaosTopology, t: &ChaosTimeline) -> ChaosScenario {
    let w = t.window();
    ChaosScenario {
        name: "crash_restart_churn",
        plan: FaultPlan::new()
            .at(t.fault_at, FaultEvent::Crash(NodeId(1)))
            .then((w * 2) / 7, FaultEvent::Restart(NodeId(1)))
            .repeat(2, (w * 3) / 7)
            .at(t.fault_at + (w * 17) / 14, FaultEvent::HealAll),
        exempt: no_exemptions(),
    }
}

/// Global background loss plus a heavily impaired sender (asymmetric:
/// only one node's outbound traffic is extra-lossy), then healed.
pub fn asymmetric_loss(topo: &ChaosTopology, t: &ChaosTimeline) -> ChaosScenario {
    let impaired = NodeId(topo.per_group + 1);
    ChaosScenario {
        name: "asymmetric_loss",
        plan: FaultPlan::new()
            .at(t.fault_at, FaultEvent::SetLoss(0.12))
            .at(
                t.fault_at,
                FaultEvent::SetNodeOutLoss {
                    node: impaired,
                    loss: 0.35,
                },
            )
            .at(t.heal_at, FaultEvent::HealAll),
        exempt: Box::new(move |protocol| {
            // Canopus may tombstone the impaired node if every heartbeat in
            // a detection window drops; tombstoned nodes stay excluded
            // until a rejoin path exists (ROADMAP), so its client is
            // excused from convergence.
            if protocol == "canopus" {
                BTreeSet::from([impaired])
            } else {
                BTreeSet::new()
            }
        }),
    }
}

/// The leaf-0 ↔ leaf-1 links flap until the final heal.
pub fn link_flapping(topo: &ChaosTopology, t: &ChaosTimeline) -> ChaosScenario {
    ChaosScenario {
        name: "link_flapping",
        plan: FaultPlan::new()
            .at(
                t.fault_at,
                FaultEvent::FlapLink {
                    a: topo.leaf(0),
                    b: topo.leaf(1),
                    period: (t.window() * 3) / 35,
                },
            )
            .at(t.heal_at, FaultEvent::HealAll),
        exempt: no_exemptions(),
    }
}

/// One node is cut off from everyone (its clients included), then healed.
pub fn node_isolated(_topo: &ChaosTopology, t: &ChaosTimeline) -> ChaosScenario {
    ChaosScenario {
        name: "node_isolated",
        plan: FaultPlan::new()
            .at(t.fault_at, FaultEvent::IsolateNode(NodeId(2)))
            .at(t.heal_at, FaultEvent::HealAll),
        exempt: Box::new(|protocol| {
            // An isolated Canopus node is tombstoned by its super-leaf
            // peers and stays excluded (no rejoin path yet).
            if protocol == "canopus" {
                BTreeSet::from([NodeId(2)])
            } else {
                BTreeSet::new()
            }
        }),
    }
}

/// A super-leaf partition followed, after the network heals, by a
/// crash-restart of the bootstrap node — the two classic timelines
/// stacked into one run. Originally built for the batched/pipelined
/// Canopus configuration only; since catalog v2 it is part of
/// [`all_scenarios`], so every protocol sweep exercises the stacked
/// faults (the catalog pin below versions that change).
pub fn partition_then_crash_restart(topo: &ChaosTopology, t: &ChaosTimeline) -> ChaosScenario {
    let w = t.window();
    ChaosScenario {
        name: "partition_then_crash_restart",
        plan: FaultPlan::new()
            .at(
                t.fault_at,
                FaultEvent::CutGroups {
                    a: topo.leaf(0),
                    b: topo.leaves(1..topo.groups),
                },
            )
            .at(t.fault_at + w / 2, FaultEvent::HealAll)
            .at(t.fault_at + (w * 4) / 7, FaultEvent::Crash(NodeId(0)))
            .at(t.fault_at + (w * 6) / 7, FaultEvent::Restart(NodeId(0)))
            .at(t.heal_at, FaultEvent::HealAll),
        exempt: no_exemptions(),
    }
}

/// The background loss of [`asymmetric_loss`] alone: 12 % on every link
/// for the fault window, with no sender impaired beyond it.
pub fn uniform_loss(_topo: &ChaosTopology, t: &ChaosTimeline) -> ChaosScenario {
    ChaosScenario {
        name: "uniform_loss",
        plan: FaultPlan::new()
            .at(t.fault_at, FaultEvent::SetLoss(0.12))
            .at(t.heal_at, FaultEvent::HealAll),
        exempt: no_exemptions(),
    }
}

/// Two back-to-back partitions along *different* super-leaf boundaries:
/// the first super-leaf alone, healed, then the last one alone, so the
/// side that is cut off shifts mid-window.
pub fn shifting_partition(topo: &ChaosTopology, t: &ChaosTimeline) -> ChaosScenario {
    let w = t.window();
    ChaosScenario {
        name: "shifting_partition",
        plan: FaultPlan::new()
            .at(
                t.fault_at,
                FaultEvent::CutGroups {
                    a: topo.leaf(0),
                    b: topo.leaves(1..topo.groups),
                },
            )
            .at(t.fault_at + w / 2, FaultEvent::HealAll)
            .at(
                t.fault_at + (w * 4) / 7,
                FaultEvent::CutGroups {
                    a: topo.leaves(0..topo.groups - 1),
                    b: topo.leaf(topo.groups - 1),
                },
            )
            .at(t.heal_at, FaultEvent::HealAll),
        exempt: no_exemptions(),
    }
}

/// The seeds a chaos suite sweeps: `base + 1 ..= base + n`, where `n` is
/// `release_default` in a release build and a tenth of it (at least one)
/// in a debug build — plain `cargo test --workspace` spot-checks, `cargo
/// test --release --test <suite>` is the acceptance sweep. The environment
/// variable `env_var` overrides `n`: `ci` for the fixed CI set (at most
/// four), `extended` for three times the release sweep, or a number.
pub fn seed_sweep(env_var: &str, base: u64, release_default: u64) -> Vec<u64> {
    let n = match std::env::var(env_var).as_deref() {
        Ok("ci") => release_default.min(4),
        Ok("extended") => release_default * 3,
        Ok(other) => other.parse().unwrap_or(release_default),
        _ if cfg!(debug_assertions) => release_default.div_ceil(10),
        _ => release_default,
    };
    (1..=n).map(|i| base + i).collect()
}

/// The bar every swept run is held to: no violation, and more than
/// `min_ops` cleanly completed operations (a run that commits next to
/// nothing proves nothing). Panics with the run's coordinates and `dump()`
/// — every node's flight-recorder tail — so forensics start from
/// structured consensus events instead of a bare assert.
#[track_caller]
pub fn assert_verdict(
    report: &ChaosReport,
    protocol: &str,
    scenario: &str,
    seed: u64,
    min_ops: u64,
    dump: impl Fn() -> String,
) {
    assert!(
        report.ok(),
        "{protocol} / {scenario} / seed {seed:#x}: {} ok, {} timed out, violations: {:#?}\n{}",
        report.ops_ok,
        report.ops_timed_out,
        report.violations,
        dump()
    );
    assert!(
        report.ops_ok > min_ops,
        "{protocol} / {scenario} / seed {seed:#x}: suspiciously little progress ({} ops)\n{}",
        report.ops_ok,
        dump()
    );
}

/// Version of the scenario catalog. Bumped whenever [`all_scenarios`]
/// changes membership or any scenario's schedule changes — the pinned
/// catalog hash below (and the trace-hash pins in the chaos suites) are
/// valid only for a specific version.
///
/// * v1 — PR 2's seven-scenario catalog.
/// * v2 — folds `partition_then_crash_restart` into the sweep; adds two
///   named extras outside it.
/// * v3 — the two extras are renamed `uniform_loss` and
///   `shifting_partition` and folded into the sweep, their schedules
///   unchanged.
pub const CATALOG_VERSION: u32 = 3;

/// Every scenario in the per-protocol sweep catalog.
pub fn all_scenarios(topo: &ChaosTopology, t: &ChaosTimeline) -> Vec<ChaosScenario> {
    vec![
        superleaf_partition(topo, t),
        majority_minority_split(topo, t),
        leader_crash_mid_round(topo, t),
        crash_restart_churn(topo, t),
        asymmetric_loss(topo, t),
        link_flapping(topo, t),
        node_isolated(topo, t),
        partition_then_crash_restart(topo, t),
        uniform_loss(topo, t),
        shifting_partition(topo, t),
    ]
}

/// A stable fingerprint of the catalog's names and fault schedules for
/// the default sim topology/timeline: FNV-1a over each scenario's name
/// and rendered event timeline. Pinned by a test so membership or
/// schedule drift forces an explicit [`CATALOG_VERSION`] bump.
pub fn catalog_fingerprint(topo: &ChaosTopology, t: &ChaosTimeline) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for sc in all_scenarios(topo, t) {
        eat(sc.name.as_bytes());
        for (at, action) in sc.plan.timeline(Time::ZERO, t.run_for) {
            eat(format!("@{}:{action:?}", at.as_millis()).as_bytes());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopus_sim::fault::FaultAction;

    /// The parameterized catalog must reproduce PR 2's hand-written sim
    /// schedule exactly — the chaos suite's trace hashes depend on it.
    #[test]
    fn sim_defaults_reproduce_pr2_schedule() {
        let topo = ChaosTopology::of(&DeploymentSpec::paper_single_dc(3));
        let t = ChaosTimeline::sim_default();

        let crash = leader_crash_mid_round(&topo, &t);
        let tl = crash.plan.timeline(Time::ZERO, t.run_for);
        assert_eq!(tl[0].0, Time::ZERO + Dur::millis(250), "crash at 250 ms");
        assert_eq!(tl[1].0, Time::ZERO + Dur::millis(800), "restart at 800 ms");

        let churn = crash_restart_churn(&topo, &t);
        let times: Vec<u64> = churn
            .plan
            .timeline(Time::ZERO, t.run_for)
            .iter()
            .map(|(at, _)| at.as_millis())
            .collect();
        assert_eq!(times, vec![200, 400, 500, 700, 800, 1000, 1050]);

        let flap = link_flapping(&topo, &t);
        let tl = flap.plan.timeline(Time::ZERO, t.run_for);
        assert_eq!(tl[0].0, Time::ZERO + Dur::millis(200));
        assert_eq!(tl[1].0, Time::ZERO + Dur::millis(260), "60 ms flap period");

        let loss = asymmetric_loss(&topo, &t);
        assert!(loss
            .plan
            .timeline(Time::ZERO, t.run_for)
            .iter()
            .any(|(_, a)| matches!(a, FaultAction::SetNodeOutLoss(NodeId(4), _))));
    }

    /// The catalog is versioned: any change to sweep membership or a
    /// scenario's fault schedule must bump [`CATALOG_VERSION`] and re-pin
    /// this fingerprint (and re-derive the chaos suites' trace hashes).
    ///
    /// Re-pinned from `0x22bf_b69b_05bf_f154` (v2) for v3: the two
    /// scenarios outside the sweep were renamed and folded into
    /// [`all_scenarios`], in the position they were hashed in before. The
    /// fingerprint hashes names; with the old two names the v3 catalog
    /// gives the v2 value, so no schedule moved.
    #[test]
    fn catalog_v3_fingerprint_is_pinned() {
        assert_eq!(CATALOG_VERSION, 3);
        let topo = ChaosTopology::of(&DeploymentSpec::paper_single_dc(3));
        let t = ChaosTimeline::sim_default();
        assert_eq!(
            catalog_fingerprint(&topo, &t),
            0xf575_3216_16aa_863c,
            "catalog drifted: bump CATALOG_VERSION and re-pin"
        );
    }

    #[test]
    fn topology_groups_are_dense_and_group_major() {
        let topo = ChaosTopology {
            groups: 2,
            per_group: 3,
        };
        assert_eq!(topo.leaf(1), vec![NodeId(3), NodeId(4), NodeId(5)]);
        assert_eq!(topo.leaves(0..2).len(), 6);
        assert_eq!(topo.node_count(), 6);
    }
}
