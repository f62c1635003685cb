//! Athena's wire messages (§VI).
//!
//! Four message families, mirroring the paper's protocol functions:
//!
//! - [`AthenaMsg::QueryAnnounce`] — the query's Boolean expression, relayed
//!   down the origin's routing tree so that every reachable node hears it
//!   once and may prefetch (`Query_Recv` step iv);
//! - [`AthenaMsg::Request`] — a hop-by-hop object request, fetch or
//!   prefetch (`Request_Send`/`Request_Recv`);
//! - [`AthenaMsg::Data`] — the evidence object traveling back
//!   (`Data_Send`/`Data_Recv`);
//! - [`AthenaMsg::LabelShare`] — an annotated label value propagated toward
//!   the data source for reuse (§VI-D), orders of magnitude smaller than
//!   the object it replaces.

use crate::object::EvidenceObject;
use dde_logic::dnf::Dnf;
use dde_logic::label::Label;
use dde_logic::time::{SimDuration, SimTime};
use dde_naming::name::Name;
use dde_netsim::sim::WireMessage;
use dde_netsim::topology::NodeId;

/// Globally-unique query identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u64);

impl core::fmt::Display for QueryId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Whether a request is a foreground fetch or a background prefetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Foreground: forwarded hop-by-hop toward the source.
    Fetch,
    /// Background: answered from local state only, never forwarded
    /// ("prefetch requests are not forwarded", §VI-B).
    Prefetch,
}

/// One Athena protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum AthenaMsg {
    /// A decision query's expression, sent once to every reachable node
    /// along the origin's routing tree, for prefetching.
    QueryAnnounce {
        /// The query.
        qid: QueryId,
        /// The node that issued it.
        origin: NodeId,
        /// Its DNF decision logic.
        expr: Dnf,
        /// Absolute decision deadline.
        deadline_at: SimTime,
    },
    /// A request for an evidence object.
    Request {
        /// The object's content name.
        name: Name,
        /// The labels the requester wants resolved from this object (a
        /// panorama request may carry several). A node may answer with
        /// cached labels instead of data only if it can supply *all* of
        /// them — otherwise the evidence itself must travel.
        wanted: Vec<Label>,
        /// The query on whose behalf the request was made.
        qid: QueryId,
        /// The node that originated the request.
        origin: NodeId,
        /// Fetch or prefetch.
        kind: RequestKind,
    },
    /// An evidence object flowing back to requesters, or being pushed
    /// toward a query origin as a prefetch (Fig. 1's grey arrows).
    Data {
        /// The sampled object.
        object: EvidenceObject,
        /// For prefetch pushes: the query origin the object is being staged
        /// toward. `None` for ordinary request-driven replies.
        push_to: Option<NodeId>,
        /// The decision query this object is traveling for, when the
        /// sender knows it (the PIT interest or prefetch task it serves).
        /// Observational only: excluded from [`WireMessage::wire_size`],
        /// so carrying it changes no simulation outcome.
        for_query: Option<QueryId>,
    },
    /// A shared annotated label (§VI-D).
    LabelShare {
        /// The resolved label.
        label: Label,
        /// Its value.
        value: bool,
        /// When the underlying evidence was sampled.
        sampled_at: SimTime,
        /// Validity of the underlying evidence.
        validity: SimDuration,
        /// The annotator that judged the evidence (signature).
        annotator: NodeId,
        /// The object the judgment was based on.
        based_on: Name,
        /// The decision query whose annotation produced this share, when
        /// known. Observational only, like [`AthenaMsg::Data::for_query`].
        for_query: Option<QueryId>,
    },
}

/// Fixed per-message header overhead, bytes.
const HEADER_BYTES: u64 = 64;
/// Approximate wire bytes per name component.
const NAME_COMPONENT_BYTES: u64 = 12;
/// Approximate wire bytes per label reference in an announce.
const LABEL_REF_BYTES: u64 = 24;

fn name_bytes(name: &Name) -> u64 {
    HEADER_BYTES / 8 + name.len() as u64 * NAME_COMPONENT_BYTES
}

impl WireMessage for AthenaMsg {
    fn wire_size(&self) -> u64 {
        match self {
            AthenaMsg::QueryAnnounce { expr, .. } => {
                let literals: u64 = expr.terms().iter().map(|t| t.len() as u64).sum();
                HEADER_BYTES + literals * LABEL_REF_BYTES
            }
            AthenaMsg::Request { name, wanted, .. } => {
                HEADER_BYTES + name_bytes(name) + wanted.len() as u64 * LABEL_REF_BYTES
            }
            AthenaMsg::Data { object, .. } => HEADER_BYTES + name_bytes(&object.name) + object.size,
            AthenaMsg::LabelShare { based_on, .. } => HEADER_BYTES + name_bytes(based_on) + 32,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            AthenaMsg::QueryAnnounce { .. } => "announce",
            AthenaMsg::Request { .. } => "request",
            AthenaMsg::Data { .. } => "data",
            AthenaMsg::LabelShare { .. } => "label",
        }
    }

    /// Prefetch pushes ride in the background so they never delay
    /// foreground fetches on a link (§VI-A).
    fn background(&self) -> bool {
        matches!(
            self,
            AthenaMsg::Data {
                push_to: Some(_),
                ..
            }
        )
    }

    /// The decision query each message serves, for the `dde-obs` cost
    /// ledger. Synthetic re-forwarded requests (qid `u64::MAX`, see
    /// `node::reforward_request`) have no owning decision and land in the
    /// ledger's overhead bucket.
    fn attribution(&self) -> Option<u64> {
        match self {
            AthenaMsg::QueryAnnounce { qid, .. } => Some(qid.0),
            AthenaMsg::Request { qid, .. } => {
                if qid.0 == u64::MAX {
                    None
                } else {
                    Some(qid.0)
                }
            }
            AthenaMsg::Data { for_query, .. } | AthenaMsg::LabelShare { for_query, .. } => {
                for_query.map(|q| q.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dde_logic::dnf::Term;

    fn obj(size: u64) -> EvidenceObject {
        EvidenceObject {
            name: "/city/cam/n1/x".parse().unwrap(),
            covers: vec![Label::new("a")],
            size,
            source: NodeId(1),
            sampled_at: SimTime::ZERO,
            validity: SimDuration::from_secs(10),
        }
    }

    #[test]
    fn data_size_dominated_by_payload() {
        let m = AthenaMsg::Data {
            object: obj(500_000),
            push_to: None,
            for_query: None,
        };
        assert!(m.wire_size() >= 500_000);
        assert!(m.wire_size() < 500_000 + 1_000);
        assert_eq!(m.kind(), "data");
    }

    #[test]
    fn attribution_follows_the_causing_query() {
        let announce = AthenaMsg::QueryAnnounce {
            qid: QueryId(9),
            origin: NodeId(0),
            expr: Dnf::from_terms(vec![Term::all_of(["a"])]),
            deadline_at: SimTime::from_secs(60),
        };
        assert_eq!(announce.attribution(), Some(9));
        let data = AthenaMsg::Data {
            object: obj(100),
            push_to: None,
            for_query: Some(QueryId(4)),
        };
        assert_eq!(data.attribution(), Some(4));
        // A synthetic re-forwarded request has no owning decision.
        let reforward = AthenaMsg::Request {
            name: "/city/cam/n1/x".parse().unwrap(),
            wanted: vec![],
            qid: QueryId(u64::MAX),
            origin: NodeId(0),
            kind: RequestKind::Fetch,
        };
        assert_eq!(reforward.attribution(), None);
    }

    #[test]
    fn attribution_does_not_change_wire_size() {
        let without = AthenaMsg::Data {
            object: obj(500_000),
            push_to: None,
            for_query: None,
        };
        let with = AthenaMsg::Data {
            object: obj(500_000),
            push_to: None,
            for_query: Some(QueryId(1)),
        };
        assert_eq!(without.wire_size(), with.wire_size());
    }

    #[test]
    fn label_share_orders_of_magnitude_smaller_than_data() {
        let data = AthenaMsg::Data {
            object: obj(500_000),
            push_to: Some(NodeId(2)),
            for_query: None,
        };
        let label = AthenaMsg::LabelShare {
            label: Label::new("a"),
            value: true,
            sampled_at: SimTime::ZERO,
            validity: SimDuration::from_secs(10),
            annotator: NodeId(0),
            based_on: "/city/cam/n1/x".parse().unwrap(),
            for_query: None,
        };
        assert!(data.wire_size() / label.wire_size() > 100);
        assert_eq!(label.kind(), "label");
    }

    #[test]
    fn announce_size_scales_with_expression() {
        let small = AthenaMsg::QueryAnnounce {
            qid: QueryId(1),
            origin: NodeId(0),
            expr: Dnf::from_terms(vec![Term::all_of(["a"])]),
            deadline_at: SimTime::from_secs(60),
        };
        let big = AthenaMsg::QueryAnnounce {
            qid: QueryId(2),
            origin: NodeId(0),
            expr: Dnf::from_terms(vec![
                Term::all_of(["a", "b", "c", "d"]),
                Term::all_of(["e", "f", "g", "h"]),
            ]),
            deadline_at: SimTime::from_secs(60),
        };
        assert!(big.wire_size() > small.wire_size());
        assert_eq!(small.kind(), "announce");
    }

    #[test]
    fn request_size_modest() {
        let m = AthenaMsg::Request {
            name: "/city/cam/n1/x".parse().unwrap(),
            wanted: vec![Label::new("a"), Label::new("b")],
            qid: QueryId(1),
            origin: NodeId(0),
            kind: RequestKind::Fetch,
        };
        assert!(m.wire_size() < 250);
        assert_eq!(m.kind(), "request");
    }

    #[test]
    fn query_id_display() {
        assert_eq!(QueryId(7).to_string(), "q7");
    }
}
