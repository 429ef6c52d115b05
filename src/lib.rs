//! Workspace umbrella for the Canopus reproduction.
//!
//! This root package owns the end-to-end `examples/` and the
//! cross-protocol integration suites in `tests/`; the protocol itself
//! lives in the `crates/` members. The umbrella re-exports every member
//! so scratch programs can depend on one crate:
//!
//! ```
//! use canopus_repro::canopus::LotShape;
//! assert_eq!(LotShape::flat(4).num_superleaves(), 4);
//! ```

#![warn(missing_docs)]

pub use canopus;
pub use canopus_bench;
pub use canopus_epaxos;
pub use canopus_harness;
pub use canopus_kv;
pub use canopus_net;
pub use canopus_raft;
pub use canopus_sim;
pub use canopus_zab;
