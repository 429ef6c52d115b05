//! Physical placement model: datacenters, racks, and nodes.
//!
//! Canopus is a *network-aware* protocol (§3 of the paper): nodes in the
//! same rack form a super-leaf, racks talk through oversubscribed
//! aggregation links, and datacenters are joined by WAN paths. This module
//! captures exactly that placement; the [`crate::ClosFabric`] turns it into
//! message delivery times.

use canopus_sim::{Dur, NodeId};

use crate::wan::{SiteId, WanMatrix};

/// Index of a rack within a [`Topology`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RackId(pub u16);

impl RackId {
    /// The index as `usize`.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// Link rates and propagation delays of the fabric.
///
/// Defaults follow the paper's single-datacenter testbed (§8.1): 10 Gbps
/// host links, 2×10 Gbps rack uplinks (giving the stated 1.5–4.5
/// oversubscription as super-leaf size grows), and sub-100 µs intra-DC
/// latency.
#[derive(Copy, Clone, Debug)]
pub struct LinkParams {
    /// Host NIC rate, Gbit/s.
    pub nic_gbps: f64,
    /// Combined rack uplink rate (ToR → aggregation), Gbit/s.
    pub rack_uplink_gbps: f64,
    /// Per-datacenter WAN egress rate, Gbit/s.
    pub wan_egress_gbps: f64,
    /// One-way propagation between two nodes in the same rack.
    pub intra_rack_one_way: Dur,
    /// One-way propagation between racks in the same datacenter.
    pub cross_rack_one_way: Dur,
    /// Delivery delay for a node sending to itself.
    pub loopback: Dur,
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams {
            nic_gbps: 10.0,
            rack_uplink_gbps: 20.0,
            wan_egress_gbps: 5.0,
            intra_rack_one_way: Dur::micros(25),
            cross_rack_one_way: Dur::micros(75),
            loopback: Dur::micros(2),
        }
    }
}

#[derive(Clone, Debug)]
struct Rack {
    site: SiteId,
}

/// Placement of every node: which rack it sits in, which datacenter the
/// rack belongs to, and the latency matrix between datacenters.
#[derive(Clone, Debug)]
pub struct Topology {
    wan: WanMatrix,
    racks: Vec<Rack>,
    /// `node_rack[n]` = rack of node `n`; nodes are dense [`NodeId`]s.
    node_rack: Vec<RackId>,
    params: LinkParams,
}

impl Topology {
    /// Starts an empty topology over `wan` with the given link parameters.
    pub fn new(wan: WanMatrix, params: LinkParams) -> Self {
        Topology {
            wan,
            racks: Vec::new(),
            node_rack: Vec::new(),
            params,
        }
    }

    /// The paper's single-datacenter testbed: `racks` racks in one DC with
    /// `nodes_per_rack` protocol nodes each (plus, optionally, client nodes
    /// added afterwards with [`add_node`](Self::add_node)).
    pub fn single_dc(racks: usize, nodes_per_rack: usize, params: LinkParams) -> Self {
        let wan = WanMatrix::uniform(1, Dur::ZERO, params.intra_rack_one_way * 2);
        let mut t = Topology::new(wan, params);
        for _ in 0..racks {
            let rack = t.add_rack(SiteId(0));
            for _ in 0..nodes_per_rack {
                t.add_node(rack);
            }
        }
        t
    }

    /// The paper's multi-datacenter deployment: one rack per datacenter of
    /// `wan`, each holding `nodes_per_dc` nodes.
    pub fn multi_dc(wan: WanMatrix, nodes_per_dc: usize, params: LinkParams) -> Self {
        let sites: Vec<SiteId> = wan.sites().collect();
        let mut t = Topology::new(wan, params);
        for site in sites {
            let rack = t.add_rack(site);
            for _ in 0..nodes_per_dc {
                t.add_node(rack);
            }
        }
        t
    }

    /// Adds a rack in datacenter `site`, returning its id.
    pub fn add_rack(&mut self, site: SiteId) -> RackId {
        assert!(site.index() < self.wan.len(), "unknown site {site:?}");
        let id = RackId(self.racks.len() as u16);
        self.racks.push(Rack { site });
        id
    }

    /// Adds a node to `rack`. Node ids are assigned densely in call order
    /// and must match the order processes are added to the simulation.
    pub fn add_node(&mut self, rack: RackId) -> NodeId {
        assert!(rack.index() < self.racks.len(), "unknown rack {rack:?}");
        let id = NodeId(self.node_rack.len() as u32);
        self.node_rack.push(rack);
        id
    }

    /// Link parameters.
    pub fn params(&self) -> &LinkParams {
        &self.params
    }

    /// The WAN matrix.
    pub fn wan(&self) -> &WanMatrix {
        &self.wan
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.node_rack.len()
    }

    /// Total rack count.
    pub fn rack_count(&self) -> usize {
        self.racks.len()
    }

    /// Rack of a node.
    pub fn rack_of(&self, node: NodeId) -> RackId {
        self.node_rack[node.index()]
    }

    /// Datacenter of a node.
    pub fn site_of(&self, node: NodeId) -> SiteId {
        self.racks[self.rack_of(node).index()].site
    }

    /// Whether two nodes share a rack.
    pub fn same_rack(&self, a: NodeId, b: NodeId) -> bool {
        self.rack_of(a) == self.rack_of(b)
    }

    /// Whether two nodes share a datacenter.
    pub fn same_site(&self, a: NodeId, b: NodeId) -> bool {
        self.site_of(a) == self.site_of(b)
    }

    /// One-way propagation delay between two nodes, ignoring queueing.
    pub fn propagation(&self, a: NodeId, b: NodeId) -> Dur {
        if a == b {
            self.params.loopback
        } else if self.same_rack(a, b) {
            self.params.intra_rack_one_way
        } else if self.same_site(a, b) {
            self.params.cross_rack_one_way
        } else {
            self.wan.one_way(self.site_of(a), self.site_of(b))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_dc_layout() {
        let t = Topology::single_dc(3, 9, LinkParams::default());
        assert_eq!(t.node_count(), 27);
        assert_eq!(t.rack_count(), 3);
        assert_eq!(t.rack_of(NodeId(0)), RackId(0));
        assert_eq!(t.rack_of(NodeId(8)), RackId(0));
        assert_eq!(t.rack_of(NodeId(9)), RackId(1));
        assert!(t.same_rack(NodeId(0), NodeId(8)));
        assert!(!t.same_rack(NodeId(8), NodeId(9)));
        assert!(t.same_site(NodeId(0), NodeId(26)));
    }

    #[test]
    fn multi_dc_layout() {
        let t = Topology::multi_dc(WanMatrix::paper_sites(3), 3, LinkParams::default());
        assert_eq!(t.node_count(), 9);
        assert_eq!(t.rack_count(), 3);
        assert!(t.same_site(NodeId(0), NodeId(2)));
        assert!(!t.same_site(NodeId(2), NodeId(3)));
    }

    #[test]
    fn propagation_tiers() {
        let params = LinkParams::default();
        let t = Topology::multi_dc(WanMatrix::paper_sites(2), 3, params);
        // Same node.
        assert_eq!(t.propagation(NodeId(0), NodeId(0)), params.loopback);
        // Same rack.
        assert_eq!(
            t.propagation(NodeId(0), NodeId(1)),
            params.intra_rack_one_way
        );
        // Cross-DC: IR-CA is 133ms RTT -> 66.5ms one-way.
        assert_eq!(
            t.propagation(NodeId(0), NodeId(3)),
            Dur::from_millis_f64(66.5)
        );
    }

    #[test]
    fn cross_rack_same_site() {
        let params = LinkParams::default();
        let mut t = Topology::new(WanMatrix::uniform(1, Dur::ZERO, Dur::micros(100)), params);
        let r0 = t.add_rack(SiteId(0));
        let r1 = t.add_rack(SiteId(0));
        let a = t.add_node(r0);
        let b = t.add_node(r1);
        assert_eq!(t.propagation(a, b), params.cross_rack_one_way);
    }

    #[test]
    #[should_panic(expected = "unknown site")]
    fn add_rack_unknown_site_panics() {
        let mut t = Topology::single_dc(1, 1, LinkParams::default());
        t.add_rack(SiteId(5));
    }
}
