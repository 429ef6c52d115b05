//! A geo-replicated append-only ledger — the paper's motivating
//! application class (§1: "geo-replicated database systems ... and private
//! blockchains that continuously add records to a distributed ledger").
//!
//! Three datacenters from the paper's Table 1 (Ireland, California,
//! Virginia) each host a three-node super-leaf. Every datacenter appends
//! ledger records concurrently; pipelined Canopus cycles (§7.1) keep
//! throughput high despite the 133 ms worst-case RTT, and every node ends
//! with the identical ledger.
//!
//! Run with: `cargo run --release --example geo_ledger -p canopus-harness`

use bytes::Bytes;
use canopus::{CanopusConfig, CanopusMsg, CanopusNode, EmulationTable, LotShape};
use canopus_kv::{ClientRequest, Op};
use canopus_net::{ClosFabric, LinkParams, Topology, WanMatrix};
use canopus_sim::{impl_process_any, Context, Dur, NodeId, Process, Simulation, Timer};

/// A client that appends ledger records at a steady rate. Each record is a
/// `Put` to a fresh key derived from (site, sequence) — an append-only
/// log embedded in the kv API.
struct LedgerWriter {
    target: NodeId,
    site: u64,
    appended: u64,
    confirmed: u64,
    max_records: u64,
    interval: Dur,
}

impl Process<CanopusMsg> for LedgerWriter {
    fn on_start(&mut self, ctx: &mut Context<'_, CanopusMsg>) {
        ctx.set_timer(self.interval, 0);
    }
    fn on_timer(&mut self, _t: Timer, ctx: &mut Context<'_, CanopusMsg>) {
        if self.appended < self.max_records {
            let record = format!("site{}-block{}", self.site, self.appended);
            ctx.send(
                self.target,
                CanopusMsg::Request(ClientRequest {
                    client: ctx.id(),
                    op_id: self.appended,
                    op: Op::Put {
                        key: self.site << 32 | self.appended,
                        value: Bytes::from(record.into_bytes()),
                    },
                }),
            );
            self.appended += 1;
            ctx.set_timer(self.interval, 0);
        }
    }
    fn on_message(&mut self, _f: NodeId, msg: CanopusMsg, _ctx: &mut Context<'_, CanopusMsg>) {
        if matches!(msg, CanopusMsg::Reply(_)) {
            self.confirmed += 1;
        }
    }
    impl_process_any!();
}

fn main() {
    const PER_DC: usize = 3;
    const SITES: usize = 3;
    const RECORDS_PER_SITE: u64 = 200;

    let wan = WanMatrix::paper_sites(SITES);
    println!("== deploying over {} datacenters ==", SITES);
    for a in wan.sites() {
        for b in wan.sites() {
            if a < b {
                println!(
                    "  {} <-> {}: {} RTT",
                    wan.name(a),
                    wan.name(b),
                    wan.rtt(a, b)
                );
            }
        }
    }

    let mut topo = Topology::multi_dc(wan, PER_DC, LinkParams::default());
    let shape = LotShape::flat(SITES as u16);
    let membership: Vec<Vec<NodeId>> = (0..SITES)
        .map(|s| {
            (0..PER_DC)
                .map(|i| NodeId((s * PER_DC + i) as u32))
                .collect()
        })
        .collect();
    let table = EmulationTable::new(shape, membership);

    // One ledger writer per datacenter, colocated with its super-leaf.
    let mut writer_slots = Vec::new();
    for s in 0..SITES {
        let anchor = NodeId((s * PER_DC) as u32);
        writer_slots.push(topo.add_node(topo.rack_of(anchor)));
    }

    let mut sim = Simulation::new(ClosFabric::new(topo), 7);
    let cfg = CanopusConfig::wide_area(); // 5 ms batches, 64 cycles in flight
    for i in 0..(SITES * PER_DC) as u32 {
        sim.add_node(Box::new(CanopusNode::new(
            NodeId(i),
            table.clone(),
            cfg.clone(),
            7,
        )));
    }
    let mut writers = Vec::new();
    for (s, &slot) in writer_slots.iter().enumerate() {
        let id = sim.add_node(Box::new(LedgerWriter {
            target: NodeId((s * PER_DC) as u32),
            site: s as u64,
            appended: 0,
            confirmed: 0,
            max_records: RECORDS_PER_SITE,
            interval: Dur::millis(10),
        }));
        assert_eq!(id, slot);
        writers.push(id);
    }

    println!(
        "\nappending {} records per site at 100 records/s/site ...",
        RECORDS_PER_SITE
    );
    sim.run_for(Dur::secs(4));

    println!("\n== results ==");
    // Datacenters legitimately sit at slightly different commit points at
    // any instant (a DC whose farthest peer is closer completes cycles
    // sooner), so agreement is checked on the ledger *content*.
    let mut reference_digest = None;
    for i in 0..(SITES * PER_DC) as u32 {
        let node = sim.node::<CanopusNode>(NodeId(i));
        let s = node.stats();
        let digest = node.store().digest();
        println!(
            "  node {i} ({}): ledger_len={} cycles={} ledger_digest={digest:016x}",
            ["IR", "CA", "VA"][i as usize / PER_DC],
            node.store().len(),
            s.committed_cycles,
        );
        match reference_digest {
            None => reference_digest = Some(digest),
            Some(d) => assert_eq!(d, digest, "ledger diverged at node {i}"),
        }
    }
    for (s, &w) in writers.iter().enumerate() {
        let writer = sim.node::<LedgerWriter>(w);
        println!(
            "  site {s}: appended={} confirmed={}",
            writer.appended, writer.confirmed
        );
        assert_eq!(writer.confirmed, RECORDS_PER_SITE);
    }
    println!(
        "\nAll {} nodes hold the identical {}-record ledger. ✓",
        SITES * PER_DC,
        SITES as u64 * RECORDS_PER_SITE
    );
}
