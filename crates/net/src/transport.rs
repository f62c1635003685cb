//! The [`Transport`] trait — the injectable link-layer seam.
//!
//! A transport is one node's endpoint: it knows who the node is, who its
//! neighbors are, what time it is, and how to move [`AthenaMsg`]s to
//! adjacent nodes. The Athena protocol stays hop-by-hop above this seam
//! exactly as it is inside the simulator — multi-hop forwarding is the
//! protocol's job, so `send_to` refuses non-neighbors with a typed error
//! rather than routing around the protocol.
//!
//! The entire surface is panic-free (no `unwrap`/`expect`): every failure
//! mode is a [`NetError`] the host can count and survive.

use crate::error::NetError;
use dde_core::AthenaMsg;
use dde_logic::time::SimTime;
use dde_netsim::NodeId;

/// Callback invoked by the transport for each inbound message, with the
/// sending neighbor's identity. Called from transport-owned threads, so
/// it must be `Send`; the usual implementation forwards into an `mpsc`
/// channel drained by the node's host loop.
pub type MessageHandler = Box<dyn FnMut(NodeId, AthenaMsg) + Send>;

/// One node's link-layer endpoint.
///
/// Implementations: [`crate::TcpTransport`] (real sockets, threaded
/// readers). Inside the DES the same seam exists as
/// [`dde_netsim::Context`] / [`dde_netsim::Command`] — the simulator *is*
/// the transport there, which is what keeps [`crate::DesTransport`] runs
/// byte-identical to the pre-extraction engine.
pub trait Transport: Send {
    /// The node this endpoint belongs to.
    fn local_node(&self) -> NodeId;

    /// This node's neighbors, in ascending id order.
    fn neighbors(&self) -> Vec<NodeId>;

    /// The current *protocol* time at this node. Simulated time in the
    /// DES; a scaled virtual clock over the TCP backend. Never the raw
    /// wall clock — protocol timestamps must stay in simulation units so
    /// deadlines and validity windows mean the same thing on both
    /// backends.
    fn local_now(&self) -> SimTime;

    /// Sends `msg` to the adjacent node `to`.
    ///
    /// Typed failures, no panics: [`NetError::NotNeighbor`] for a routing
    /// race, [`NetError::PeerUnavailable`] / [`NetError::Io`] for link
    /// trouble, [`NetError::Shutdown`] after [`Transport::shutdown`].
    fn send_to(&self, to: NodeId, msg: &AthenaMsg) -> Result<(), NetError>;

    /// Registers the inbound-message callback. Messages that arrive
    /// before a handler is registered are buffered and replayed to the
    /// new handler in arrival order, so registration is race-free.
    fn set_message_handler(&mut self, handler: MessageHandler);

    /// Stops all transport activity: closes connections, unblocks and
    /// joins reader threads. Idempotent; sends after shutdown return
    /// [`NetError::Shutdown`].
    fn shutdown(&mut self) -> Result<(), NetError>;
}
