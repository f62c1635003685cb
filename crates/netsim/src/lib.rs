//! # dde-netsim — deterministic discrete-event network simulation
//!
//! Substrate for the Athena reproduction, substituting for the EMANE-Shim
//! emulator the paper's evaluation used (§VII). The evaluation's results
//! depend on transfer times implied by object sizes over 1 Mbps links and on
//! hop-by-hop message ordering; this crate models exactly those:
//!
//! - [`topology`] — nodes, duplex links with bandwidth / propagation latency
//!   / loss, topology builders (line, ring, star, grid, random-connected),
//!   and all-pairs shortest-path next-hop routing;
//! - [`sim`] — the seam protocols are written against: [`Protocol`]
//!   handlers per node, the [`Context`] they see, the [`Command`]s (sends
//!   to neighbors, timers) they queue;
//! - [`metrics`] — per-link and per-message-kind traffic accounting, the
//!   instrument behind the paper's Fig. 3 bandwidth comparison;
//! - [`fault`] — seeded, replayable fault timelines (node churn, link
//!   outages, partitions) the simulator applies at exact instants;
//! - [`shard`] — the event loop: FIFO links that serialize transmissions,
//!   timers, external stimuli, scheduled faults, all on one heap and one
//!   thread. Stable event keys and a counter-hash loss draw make one seed
//!   yield a byte-identical trace;
//! - [`partition`] — deterministic balanced region partitioning of a
//!   topology. Nothing executes the cut any more; it stays because the
//!   frozen `benchmark/` reports its shape.

#![deny(missing_docs)]
// Determinism guardrails (see clippy.toml and dde-lint): hashed collections
// and ambient clocks/env reads are disallowed in simulation library code.
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod fault;
pub mod metrics;
pub mod partition;
pub mod shard;
pub mod sim;
pub mod topology;

pub use fault::{FaultEvent, FaultSchedule, TimedFault};
pub use metrics::{KindCounters, Metrics};
pub use partition::Partition;
pub use shard::{EventKey, ShardedSimulator};
pub use sim::{Command, Context, MediumMode, Protocol, SendError, Simulator, WireMessage};
pub use topology::{LinkSpec, NodeId, Topology};

/// Convenient glob-import of the crate's primary types.
pub mod prelude {
    pub use crate::fault::{FaultEvent, FaultSchedule};
    pub use crate::metrics::Metrics;
    pub use crate::partition::Partition;
    pub use crate::shard::ShardedSimulator;
    pub use crate::sim::{Context, Protocol, Simulator, WireMessage};
    pub use crate::topology::{LinkSpec, NodeId, Topology};
    pub use dde_logic::time::{SimDuration, SimTime};
}
