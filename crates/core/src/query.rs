//! Per-query state at the originating node (§VI-A).
//!
//! A query is *decided* the moment its DNF evaluates to true (some course of
//! action fully supported by fresh evidence) or false (every course of
//! action ruled out). It is *missed* if its deadline passes first. Because
//! evaluation reads label values through their validity windows, previously
//! resolved labels expire back to unknown and can reopen the decision — the
//! refetch churn the baselines suffer from in Fig. 2.

use crate::msg::QueryId;
use dde_logic::dnf::{Dnf, Resolution};
use dde_logic::label::{Assignment, Label, LabelValue};
use dde_logic::time::{SimDuration, SimTime};
use dde_logic::truth::Truth;
use dde_naming::name::Name;
use std::collections::BTreeSet;

/// The decided outcome of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcome {
    /// The indexed course of action is viable.
    Viable(usize),
    /// No course of action is viable.
    Infeasible,
}

/// Lifecycle of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStatus {
    /// Awaiting evidence.
    Pending,
    /// Decided before the deadline.
    Decided {
        /// What was decided.
        outcome: QueryOutcome,
        /// When.
        at: SimTime,
    },
    /// Deadline passed while undecided.
    Missed,
}

impl QueryStatus {
    /// Whether the query reached a terminal state.
    pub fn is_final(self) -> bool {
        !matches!(self, QueryStatus::Pending)
    }
}

/// An in-flight fetch on behalf of a query.
#[derive(Debug, Clone, PartialEq)]
pub struct Outstanding {
    /// The requested object.
    pub name: Name,
    /// The labels it was requested for (a panorama fetch resolves several).
    pub wanted: Vec<Label>,
    /// When the request was issued.
    pub sent_at: SimTime,
}

/// Counters accumulated per query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCounters {
    /// Fetch requests issued into the network.
    pub requests_sent: u64,
    /// Labels learned by annotating delivered evidence.
    pub labels_from_data: u64,
    /// Labels learned from shared label values.
    pub labels_from_shares: u64,
    /// Labels learned by sampling a co-located sensor.
    pub labels_from_local: u64,
    /// Times a previously known label expired while still needed.
    pub label_expiries: u64,
}

/// The originating node's state for one decision query.
#[derive(Debug, Clone)]
pub struct QueryState {
    /// Query id.
    pub id: QueryId,
    /// The decision logic. Fixed for the query's life: the verdict memo in
    /// [`QueryState::check`] is keyed on the evidence and the clock only.
    pub expr: Dnf,
    /// When the query was issued.
    pub issued_at: SimTime,
    /// Absolute deadline.
    pub deadline_at: SimTime,
    /// Current (partial, freshness-aware) evidence. Private so that every
    /// write passes through [`QueryState::record_label`] or
    /// [`QueryState::forget_label`], which drop the verdict memo.
    assignment: Assignment,
    /// Lifecycle status.
    pub status: QueryStatus,
    /// At most one in-flight fetch at a time (sequential retrieval, §III-A).
    pub outstanding: Option<Outstanding>,
    /// Accumulated counters.
    pub counters: QueryCounters,
    /// `Some((since, through))`: the last evaluation, at `since`, found the
    /// decision undecided, and no recorded label lapses before `through`
    /// (inclusive, as in [`LabelValue::is_fresh_at`]). Every label reads the
    /// same at any instant in between, so the verdict stands until the
    /// evidence is touched.
    ///
    /// [`LabelValue::is_fresh_at`]: dde_logic::label::LabelValue::is_fresh_at
    undecided: Option<(SimTime, SimTime)>,
}

impl QueryState {
    /// Creates a pending query issued at `issued_at` with relative
    /// `deadline`.
    pub fn new(id: QueryId, expr: Dnf, issued_at: SimTime, deadline: SimDuration) -> QueryState {
        QueryState {
            id,
            expr,
            issued_at,
            deadline_at: issued_at + deadline,
            assignment: Assignment::new(),
            status: QueryStatus::Pending,
            outstanding: None,
            counters: QueryCounters::default(),
            undecided: None,
        }
    }

    /// The evidence gathered so far (fresh or lapsed).
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// Records a resolved label value and clears the outstanding fetch if it
    /// was waiting on this label. Does not itself re-check resolution — call
    /// [`QueryState::check`] after a batch of updates.
    pub fn record_label(
        &mut self,
        label: &Label,
        value: bool,
        sampled_at: SimTime,
        validity: SimDuration,
    ) {
        self.assignment
            .set(label.clone(), Truth::from(value), sampled_at, validity);
        self.undecided = None;
        if let Some(o) = &mut self.outstanding {
            o.wanted.retain(|l| l != label);
            if o.wanted.is_empty() {
                self.outstanding = None;
            }
        }
    }

    /// Drops the recorded value of `label`, returning it if present — the
    /// bookkeeping step before a lapsed label is fetched again.
    pub fn forget_label(&mut self, label: &Label) -> Option<LabelValue> {
        self.undecided = None;
        self.assignment.clear(label)
    }

    /// Re-evaluates the decision at `now`, transitioning to `Decided` or (at
    /// or past the deadline) `Missed`. Terminal states are sticky.
    ///
    /// An undecided verdict is remembered with the instant through which it
    /// holds (§III-A: a decision can only change when evidence arrives or a
    /// label's validity interval ends), so polling in between costs a few
    /// comparisons rather than a walk of the expression.
    pub fn check(&mut self, now: SimTime) -> QueryStatus {
        if self.status.is_final() {
            return self.status;
        }
        let memo_holds = self
            .undecided
            .is_some_and(|(since, through)| since <= now && now <= through);
        let resolution = if memo_holds {
            Resolution::Undecided
        } else {
            self.expr.resolution(&self.assignment, now)
        };
        match resolution {
            Resolution::Viable(i) if now <= self.deadline_at => {
                self.status = QueryStatus::Decided {
                    outcome: QueryOutcome::Viable(i),
                    at: now,
                };
            }
            Resolution::Infeasible if now <= self.deadline_at => {
                self.status = QueryStatus::Decided {
                    outcome: QueryOutcome::Infeasible,
                    at: now,
                };
            }
            _ if now >= self.deadline_at => {
                self.status = QueryStatus::Missed;
            }
            Resolution::Undecided if !memo_holds => {
                let through = self.assignment.earliest_expiry(now).unwrap_or(SimTime::MAX);
                self.undecided = Some((now, through));
            }
            _ => {}
        }
        self.status
    }

    /// Labels that can still influence the outcome at `now` (short-circuit
    /// pruning, §II-A).
    pub fn relevant_labels(&self, now: SimTime) -> BTreeSet<Label> {
        self.expr.relevant_labels(&self.assignment, now)
    }

    /// All labels of the expression still unknown (or expired) at `now` —
    /// what a *non*-decision-driven baseline keeps chasing.
    pub fn unknown_labels(&self, now: SimTime) -> BTreeSet<Label> {
        self.expr
            .labels()
            .into_iter()
            .filter(|l| !self.assignment.value_at(l, now).is_known())
            .collect()
    }

    /// Whether the outstanding fetch (if any) has been pending longer than
    /// `timeout`.
    pub fn outstanding_timed_out(&self, now: SimTime, timeout: SimDuration) -> bool {
        self.outstanding
            .as_ref()
            .is_some_and(|o| now.saturating_since(o.sent_at) > timeout)
    }

    /// Time from issue to decision, if decided.
    pub fn resolution_latency(&self) -> Option<SimDuration> {
        match self.status {
            QueryStatus::Decided { at, .. } => Some(at.saturating_since(self.issued_at)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dde_logic::dnf::Term;

    fn route_query() -> QueryState {
        QueryState::new(
            QueryId(1),
            Dnf::from_terms(vec![Term::all_of(["a", "b"]), Term::all_of(["c"])]),
            SimTime::from_secs(10),
            SimDuration::from_secs(60),
        )
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn decides_viable_on_complete_term() {
        let mut q = route_query();
        q.record_label(&Label::new("a"), true, t(12), d(100));
        assert_eq!(q.check(t(12)), QueryStatus::Pending);
        q.record_label(&Label::new("b"), true, t(14), d(100));
        let status = q.check(t(14));
        assert_eq!(
            status,
            QueryStatus::Decided {
                outcome: QueryOutcome::Viable(0),
                at: t(14)
            }
        );
        assert_eq!(q.resolution_latency(), Some(d(4)));
    }

    #[test]
    fn decides_infeasible_when_all_terms_dead() {
        let mut q = route_query();
        q.record_label(&Label::new("a"), false, t(11), d(100));
        q.record_label(&Label::new("c"), false, t(12), d(100));
        assert_eq!(
            q.check(t(12)),
            QueryStatus::Decided {
                outcome: QueryOutcome::Infeasible,
                at: t(12)
            }
        );
    }

    #[test]
    fn misses_deadline() {
        let mut q = route_query();
        assert_eq!(q.check(t(69)), QueryStatus::Pending);
        assert_eq!(q.check(t(70)), QueryStatus::Missed);
        // Sticky: late evidence does not revive it.
        q.record_label(&Label::new("c"), true, t(71), d(100));
        assert_eq!(q.check(t(71)), QueryStatus::Missed);
        assert!(q.resolution_latency().is_none());
    }

    #[test]
    fn terminal_states_sticky() {
        let mut q = route_query();
        q.record_label(&Label::new("c"), true, t(12), d(100));
        let decided = q.check(t(12));
        assert!(decided.is_final());
        // Even past deadline, stays Decided.
        assert_eq!(q.check(t(100)), decided);
    }

    #[test]
    fn expiry_reopens_pending_decision() {
        let mut q = route_query();
        // c true but with tiny validity: decided now...
        q.record_label(&Label::new("c"), true, t(12), d(2));
        assert!(matches!(q.check(t(12)), QueryStatus::Decided { .. }));
        // ...but had we not checked until expiry, it would still be pending.
        let mut q2 = route_query();
        q2.record_label(&Label::new("c"), true, t(12), d(2));
        assert_eq!(q2.check(t(20)), QueryStatus::Pending);
        assert!(q2.unknown_labels(t(20)).contains("c"));
    }

    #[test]
    fn relevant_labels_prune_dead_terms() {
        let mut q = route_query();
        q.record_label(&Label::new("a"), false, t(11), d(100));
        let rel = q.relevant_labels(t(11));
        assert_eq!(rel.len(), 1);
        assert!(rel.contains("c"));
        // Baseline view chases b too (it ignores decision structure).
        let unknown = q.unknown_labels(t(11));
        assert_eq!(unknown.len(), 2);
        assert!(unknown.contains("b"));
    }

    #[test]
    fn record_label_clears_matching_outstanding() {
        let mut q = route_query();
        q.outstanding = Some(Outstanding {
            name: "/cam/x".parse().unwrap(),
            wanted: vec![Label::new("a"), Label::new("c")],
            sent_at: t(11),
        });
        q.record_label(&Label::new("b"), true, t(12), d(100));
        assert!(q.outstanding.is_some(), "unrelated label keeps it");
        q.record_label(&Label::new("a"), true, t(13), d(100));
        assert!(
            q.outstanding.is_some(),
            "partially-satisfied multi-label fetch stays outstanding"
        );
        q.record_label(&Label::new("c"), true, t(13), d(100));
        assert!(q.outstanding.is_none());
    }

    #[test]
    fn outstanding_timeout() {
        let mut q = route_query();
        assert!(!q.outstanding_timed_out(t(100), d(5)));
        q.outstanding = Some(Outstanding {
            name: "/cam/x".parse().unwrap(),
            wanted: vec![Label::new("a")],
            sent_at: t(20),
        });
        assert!(!q.outstanding_timed_out(t(24), d(5)));
        assert!(q.outstanding_timed_out(t(26), d(5)));
    }

    #[test]
    fn decision_exactly_at_deadline_counts() {
        let mut q = route_query();
        q.record_label(&Label::new("c"), true, t(70), d(100));
        assert!(matches!(q.check(t(70)), QueryStatus::Decided { .. }));
    }
}
