//! # dde-net — pluggable transport layer for Athena nodes
//!
//! The paper specifies Athena (§V–§VI) as a distributed node protocol, but
//! the reproduction originally welded that protocol to `dde-netsim`'s
//! in-process discrete-event simulator. This crate puts the link layer
//! behind an injectable seam so the *same* [`dde_core::AthenaNode`] state
//! machine can run either inside the verified simulator or as a real
//! networked process:
//!
//! - [`transport`] — the [`Transport`] trait: per-node `send_to` /
//!   `local_now` / message-handler registration with typed [`NetError`]s
//!   (no panics on any input);
//! - [`frame`] — hand-rolled length-prefixed binary wire frames for
//!   [`dde_core::AthenaMsg`], including the observational attribution
//!   keys; decoding rejects truncated, oversized, and malformed frames
//!   with typed errors, never a panic;
//! - [`des`] — [`DesTransport`], the deterministic test double:
//!   `run_scenario` behind the scenario-in, report-out shape of the live
//!   backend (the DES remains the oracle);
//! - [`tcp`] — [`TcpTransport`], a production backend on `std::net`
//!   (threaded accept/reader loops, length-prefixed frames, connect
//!   retry with capped backoff — no external async runtime);
//! - [`host`] — [`NodeHost`], the live runtime that drives one
//!   `AthenaNode` over any [`Transport`] with a scaled virtual clock and
//!   a timer wheel, plus [`run_cluster_tcp_observed`], which boots a
//!   loopback cluster of node threads from a
//!   [`dde_workload::scenario::Scenario`], installs the DES engine's own
//!   schedule ([`dde_core::schedule`]), and folds per-node outcomes into a
//!   [`dde_core::RunReport`] plus per-node [`NodeTelemetry`];
//! - [`health`] — the live observability control plane: [`HealthState`]
//!   shared between host loop and transport, the [`probe_health`] client,
//!   and the [`HealthReport`] wire answer carrying a full
//!   [`dde_obs::MetricsSnapshot`]. Probes ride dedicated control frames
//!   served below the [`Transport`] handler seam, so the protocol path
//!   and the DES backend never observe them (DESIGN.md §5i).
//!
//! The DES backend is byte-deterministic; the TCP backend is not (thread
//! scheduling and wall-clock jitter reorder deliveries). What carries
//! across the boundary is the *decision-driven* invariant: for scenarios
//! whose outcomes do not race the clock, both backends produce the same
//! decision outcomes and the same per-query attributed byte totals — the
//! equivalence test in `tests/des_tcp_equivalence.rs` holds the two
//! runtimes to exactly that.

#![deny(missing_docs)]
// Determinism rules (see clippy.toml): the protocol-facing surface of this
// crate must stay as strict as the simulator's. The host module carries an
// explicit `#[expect]` where it touches the wall clock.
#![deny(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::unwrap_used,
    clippy::expect_used
)]

pub mod des;
pub mod error;
pub mod frame;
pub mod health;
pub mod host;
pub mod tcp;
pub mod transport;

pub use des::DesTransport;
pub use error::NetError;
pub use frame::{
    decode, decode_any, encode, encode_control, ControlMsg, FrameError, WireFrame, HEADER_LEN,
    MAX_PAYLOAD,
};
pub use health::{probe_health, HealthReport, HealthState};
pub use host::{
    run_cluster_tcp_observed, ClusterConfig, ClusterOutcome, HostOutcome, NodeHost, NodeTelemetry,
    VirtualClock,
};
pub use tcp::TcpTransport;
pub use transport::{MessageHandler, Transport};
