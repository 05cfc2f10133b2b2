//! # tsa-core — the overlay-maintenance protocol (`A_LDS` + `A_RANDOM`)
//!
//! The primary contribution of *"Always be Two Steps Ahead of Your Enemy"*:
//! an algorithm that rebuilds the entire overlay every two rounds, so that a
//! `(2, O(log n))`-late adversary that may churn `αn` nodes per `O(log n)`
//! rounds can never partition the network, while every node sends and
//! receives only `O(log^3 n)` messages per round.
//!
//! * [`ProtocolNode`] is the per-node state machine (Listings 3 and 4).
//! * [`MaintenanceParams`] bundles every tunable (`c`, `δ`, `τ`, `r`, …).
//! * [`Harness`] wires the protocol, an adversary and one scheduler together
//!   and produces health reports (participation, connectivity, swarm sizes,
//!   congestion); [`MaintenanceHarness`], [`AsyncMaintenanceHarness`] and
//!   [`NetMaintenanceHarness`] pick the round engine, the event engine and
//!   the loopback transport.
//!
//! Experiments should compose a harness through the `tsa-scenario` builder
//! (`Scenario::maintained_lds(n)…`); the low-level entry point it sits on is
//! [`MaintenanceHarness::assemble`]:
//!
//! ```no_run
//! use tsa_core::{MaintenanceHarness, MaintenanceParams};
//! use tsa_sim::NullAdversary;
//!
//! let params = MaintenanceParams::new(64).with_tau(4).with_replication(2);
//! let mut harness = MaintenanceHarness::assemble(
//!     params,
//!     NullAdversary,
//!     42,
//!     params.paper_churn_rules(),
//!     params.paper_lateness(),
//! );
//! harness.run_bootstrap();
//! harness.run(10);
//! let report = harness.report();
//! assert!(report.is_routable());
//! ```

#![deny(missing_docs)]

pub mod byzantine;
pub mod harness;
pub mod messages;
pub mod node;
pub mod params;
pub mod snapshot;

pub use byzantine::{ByzantineSpec, MisbehaviorKind};
pub use harness::{
    AsyncMaintenanceHarness, Harness, MaintenanceHarness, MaintenanceReport, NetMaintenanceHarness,
};
pub use messages::{MsgKind, ProtocolMsg};
pub use node::ProtocolNode;
pub use params::MaintenanceParams;
pub use snapshot::{NodeSnapshot, NodeStats};
