//! Wide-area latency matrices.
//!
//! The multi-datacenter experiments (§8.2, Figures 6 and 7) run over the
//! seven EC2 regions of the paper's Table 1. [`WanMatrix::paper_table1`]
//! reproduces that table exactly; arbitrary matrices can be built for other
//! deployments.

use canopus_sim::Dur;

/// Index of a datacenter (site) within a [`WanMatrix`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SiteId(pub u16);

impl SiteId {
    /// The index as `usize`.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// Symmetric matrix of round-trip times between datacenters, plus the
/// intra-datacenter RTT on the diagonal.
#[derive(Clone, Debug)]
pub struct WanMatrix {
    names: Vec<String>,
    /// Row-major RTTs; `rtt[i][j] == rtt[j][i]`.
    rtt: Vec<Vec<Dur>>,
}

impl WanMatrix {
    /// Builds a matrix from site names and a full symmetric RTT table.
    ///
    /// # Panics
    /// Panics if the table is not square, not matching `names` in size, or
    /// asymmetric.
    pub fn new(names: Vec<String>, rtt: Vec<Vec<Dur>>) -> Self {
        assert_eq!(names.len(), rtt.len(), "matrix must be square");
        for (i, row) in rtt.iter().enumerate() {
            assert_eq!(row.len(), names.len(), "matrix must be square");
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, rtt[j][i], "matrix must be symmetric ({i},{j})");
            }
        }
        WanMatrix { names, rtt }
    }

    /// A matrix where every distinct pair has the same `rtt` and the
    /// intra-site RTT is `local_rtt`. Useful for controlled experiments.
    pub fn uniform(sites: usize, rtt: Dur, local_rtt: Dur) -> Self {
        let names = (0..sites).map(|i| format!("dc{i}")).collect();
        let table = (0..sites)
            .map(|i| {
                (0..sites)
                    .map(|j| if i == j { local_rtt } else { rtt })
                    .collect()
            })
            .collect();
        WanMatrix::new(names, table)
    }

    /// The seven-datacenter latency matrix of the paper's Table 1
    /// (milliseconds, RTT). Site order: IR, CA, VA, TK, OR, SY, FF.
    pub fn paper_table1() -> Self {
        const NAMES: [&str; 7] = ["IR", "CA", "VA", "TK", "OR", "SY", "FF"];
        // Lower triangle from Table 1; diagonal is the intra-DC RTT.
        const MS: [[f64; 7]; 7] = [
            // IR     CA     VA     TK     OR     SY     FF
            [0.20, 133.0, 66.0, 243.0, 154.0, 295.0, 22.0], // IR
            [133.0, 0.20, 60.0, 113.0, 20.0, 168.0, 145.0], // CA
            [66.0, 60.0, 0.25, 145.0, 80.0, 226.0, 89.0],   // VA
            [243.0, 113.0, 145.0, 0.13, 100.0, 103.0, 226.0], // TK
            [154.0, 20.0, 80.0, 100.0, 0.26, 161.0, 156.0], // OR
            [295.0, 168.0, 226.0, 103.0, 161.0, 0.20, 322.0], // SY
            [22.0, 145.0, 89.0, 226.0, 156.0, 322.0, 0.23], // FF
        ];
        let names = NAMES.iter().map(|s| s.to_string()).collect();
        let rtt = MS
            .iter()
            .map(|row| row.iter().map(|&ms| Dur::from_millis_f64(ms)).collect())
            .collect();
        WanMatrix::new(names, rtt)
    }

    /// The first `n` sites of [`Self::paper_table1`], matching the paper's 3-, 5-,
    /// and 7-datacenter configurations.
    ///
    /// # Panics
    /// Panics if `n` is 0 or greater than 7.
    pub fn paper_sites(n: usize) -> Self {
        assert!((1..=7).contains(&n), "paper has 7 datacenters");
        let full = Self::paper_table1();
        let names = full.names[..n].to_vec();
        let rtt = full.rtt[..n].iter().map(|row| row[..n].to_vec()).collect();
        WanMatrix::new(names, rtt)
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` if there are no sites.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Name of a site.
    pub fn name(&self, site: SiteId) -> &str {
        &self.names[site.index()]
    }

    /// Round-trip time between two sites (diagonal = intra-DC RTT).
    pub fn rtt(&self, a: SiteId, b: SiteId) -> Dur {
        self.rtt[a.index()][b.index()]
    }

    /// One-way propagation delay between two sites (RTT / 2).
    pub fn one_way(&self, a: SiteId, b: SiteId) -> Dur {
        self.rtt(a, b) / 2
    }

    /// The largest RTT between any pair of distinct sites — the paper's
    /// "latency between the most widely-separated super-leaves" (§7.1),
    /// which bounds consensus-cycle completion time.
    pub fn max_rtt(&self) -> Dur {
        let mut max = Dur::ZERO;
        for i in 0..self.len() {
            for j in (i + 1)..self.len() {
                max = max.max(self.rtt(SiteId(i as u16), SiteId(j as u16)));
            }
        }
        max
    }

    /// Iterates over site ids.
    pub fn sites(&self) -> impl Iterator<Item = SiteId> {
        (0..self.len() as u16).map(SiteId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_values() {
        let m = WanMatrix::paper_table1();
        assert_eq!(m.len(), 7);
        let site = |name: &str| {
            m.sites()
                .find(|&s| m.name(s) == name)
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        assert_eq!(m.rtt(site("IR"), site("CA")), Dur::millis(133));
        assert_eq!(m.rtt(site("SY"), site("FF")), Dur::millis(322));
        assert_eq!(m.rtt(site("CA"), site("OR")), Dur::millis(20));
        assert_eq!(m.rtt(site("TK"), site("TK")), Dur::micros(130));
        // Symmetry
        assert_eq!(m.rtt(site("VA"), site("TK")), m.rtt(site("TK"), site("VA")));
    }

    #[test]
    fn max_rtt_is_sy_ff() {
        let m = WanMatrix::paper_table1();
        assert_eq!(m.max_rtt(), Dur::millis(322));
    }

    #[test]
    fn paper_sites_prefix() {
        let m3 = WanMatrix::paper_sites(3);
        assert_eq!(m3.len(), 3);
        assert_eq!(m3.name(SiteId(0)), "IR");
        assert_eq!(m3.name(SiteId(2)), "VA");
        assert_eq!(m3.rtt(SiteId(0), SiteId(1)), Dur::millis(133));
        // 3-DC max RTT is IR-CA = 133ms.
        assert_eq!(m3.max_rtt(), Dur::millis(133));
    }

    #[test]
    fn one_way_is_half_rtt() {
        let m = WanMatrix::paper_table1();
        assert_eq!(m.one_way(SiteId(0), SiteId(1)), Dur::from_millis_f64(66.5));
    }

    #[test]
    fn uniform_matrix() {
        let m = WanMatrix::uniform(4, Dur::millis(100), Dur::micros(200));
        assert_eq!(m.rtt(SiteId(0), SiteId(3)), Dur::millis(100));
        assert_eq!(m.rtt(SiteId(2), SiteId(2)), Dur::micros(200));
        assert_eq!(m.max_rtt(), Dur::millis(100));
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_matrix_rejected() {
        let _ = WanMatrix::new(
            vec!["a".into(), "b".into()],
            vec![
                vec![Dur::ZERO, Dur::millis(1)],
                vec![Dur::millis(2), Dur::ZERO],
            ],
        );
    }
}
