//! Closing the predicted-vs-actual loop: a sink that folds the trace into
//! planner-feedback statistics.
//!
//! The §III-A planners predict an expected retrieval cost for every decision
//! query (the `expected_bytes` carried by the [`Plan`](ViewKind::Plan)
//! event). The trace also records what the retrieval *actually* cost — the
//! query-attributed [`Transmit`](ViewKind::Transmit) bytes. [`FeedbackSink`]
//! joins the two per query and aggregates completed queries into fixed-size
//! *epochs*, so a run can report how fast the adaptive estimators
//! (`dde_sched::adaptive`) shrink the prediction error.
//!
//! Like every other consumer of the trace, the fold is defined over the
//! normalized [`LedgerView`], so the live typed path and the offline JSONL
//! path ([`FeedbackSink::fold_jsonl`]) cannot drift apart.

use crate::attrib::{LedgerView, ViewKind};
use crate::event::TraceRecord;
use crate::sink::Sink;
use dde_sched::adaptive::{Ewma, LoadEstimator};
use std::collections::BTreeMap;

/// Per-query predicted-vs-actual tracking state while the query is open.
#[derive(Debug, Clone, Copy, Default)]
struct OpenQuery {
    /// Latest planner prediction, if a `plan` event was seen. Re-planning
    /// (an admission-deferred query re-gated later) replaces the estimate:
    /// the freshest prediction is the one the planner acted on.
    predicted: Option<u64>,
    /// Query-attributed bytes clocked onto links so far.
    actual: u64,
}

/// Aggregate statistics over one epoch of completed decision queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Number of completed queries folded into this epoch.
    pub queries: u64,
    /// Mean absolute prediction error, `|predicted − actual|` bytes.
    pub mean_abs_error: f64,
    /// Mean absolute error of the *bias-corrected* prediction,
    /// `|predicted × bias − actual|` bytes, where `bias` is the running
    /// EWMA of observed actual/predicted ratios at the time each query
    /// completed. This is the number that shrinks as the feedback loop
    /// converges: the raw error measures the planner's model, the
    /// corrected error measures the model *plus* what the loop has learned
    /// about its systematic miss.
    pub mean_corrected_error: f64,
    /// Mean predicted (planned expected) bytes per decision.
    pub mean_predicted_bytes: f64,
    /// Mean actual (query-attributed) bytes per decision.
    pub mean_actual_bytes: f64,
}

/// A [`Sink`] that folds the trace into planner-feedback statistics:
/// per-epoch mean `|predicted − actual|` bytes and a [`LoadEstimator`] fed
/// with each decision's actual cost.
///
/// Only queries that produced a `plan` event contribute — a query shed by
/// admission control is never planned, so it carries no prediction to score.
#[derive(Debug)]
pub struct FeedbackSink {
    epoch_len: u64,
    open: BTreeMap<u64, OpenQuery>,
    epochs: Vec<EpochStats>,
    // Running sums for the in-progress epoch.
    cur_queries: u64,
    cur_abs_error: f64,
    cur_corrected_error: f64,
    cur_predicted: f64,
    cur_actual: f64,
    load: LoadEstimator,
    bias: Ewma,
}

impl FeedbackSink {
    /// Default smoothing factor of the prediction-bias EWMA. Deliberately
    /// slower than the in-simulation estimators: the bias calibrates a
    /// *systematic* model miss, so it should average over many decisions
    /// rather than chase per-query noise.
    pub const DEFAULT_BIAS_ALPHA: f64 = 0.05;

    /// A feedback fold whose epochs close every `epoch_len` completed
    /// queries (`epoch_len` of 0 is treated as 1).
    pub fn new(epoch_len: u64) -> Self {
        Self {
            epoch_len: epoch_len.max(1),
            open: BTreeMap::new(),
            epochs: Vec::new(),
            cur_queries: 0,
            cur_abs_error: 0.0,
            cur_corrected_error: 0.0,
            cur_predicted: 0.0,
            cur_actual: 0.0,
            load: LoadEstimator::new(dde_sched::adaptive::AdaptiveConfig::default().alpha),
            bias: Ewma::new(Self::DEFAULT_BIAS_ALPHA, 1.0),
        }
    }

    /// Replaces the prediction-bias smoothing factor (default
    /// [`Self::DEFAULT_BIAS_ALPHA`]); the bias restarts at 1.0.
    #[must_use]
    pub fn with_bias_alpha(mut self, alpha: f64) -> Self {
        self.bias = Ewma::new(alpha, 1.0);
        self
    }

    /// The current multiplicative prediction-bias estimate: the EWMA of
    /// observed actual/predicted ratios, starting at 1.0 (trust the model).
    pub fn bias(&self) -> f64 {
        self.bias.value()
    }

    /// Fold one normalized record view.
    pub fn observe(&mut self, view: &LedgerView) {
        match &view.kind {
            ViewKind::Plan { expected_bytes } => {
                if let Some(q) = view.query {
                    self.open.entry(q).or_default().predicted = Some(*expected_bytes);
                }
            }
            ViewKind::Transmit { bytes, .. } => {
                if let Some(q) = view.query {
                    let open = self.open.entry(q).or_default();
                    open.actual = open.actual.saturating_add(*bytes);
                }
            }
            ViewKind::QueryResolved { .. } | ViewKind::QueryMissed => {
                if let Some(q) = view.query {
                    self.close(q);
                }
            }
            _ => {}
        }
    }

    fn close(&mut self, query: u64) {
        let Some(open) = self.open.remove(&query) else {
            return;
        };
        let Some(predicted) = open.predicted else {
            // Never planned (e.g. shed by admission control): nothing to
            // score against.
            return;
        };
        self.load.observe_decision(open.actual);
        self.cur_queries += 1;
        self.cur_abs_error += (predicted as f64 - open.actual as f64).abs();
        // Score the corrected prediction with the bias as it stood *before*
        // this observation, then fold the observation in.
        self.cur_corrected_error +=
            (predicted as f64 * self.bias.value() - open.actual as f64).abs();
        if predicted > 0 {
            self.bias.observe(open.actual as f64 / predicted as f64);
        }
        self.cur_predicted += predicted as f64;
        self.cur_actual += open.actual as f64;
        if self.cur_queries >= self.epoch_len {
            self.roll_epoch();
        }
    }

    fn roll_epoch(&mut self) {
        let n = self.cur_queries as f64;
        self.epochs.push(EpochStats {
            queries: self.cur_queries,
            mean_abs_error: self.cur_abs_error / n,
            mean_corrected_error: self.cur_corrected_error / n,
            mean_predicted_bytes: self.cur_predicted / n,
            mean_actual_bytes: self.cur_actual / n,
        });
        self.cur_queries = 0;
        self.cur_abs_error = 0.0;
        self.cur_corrected_error = 0.0;
        self.cur_predicted = 0.0;
        self.cur_actual = 0.0;
    }

    /// Close the in-progress epoch, if it holds any completed queries.
    /// Call once at end of run so a final partial epoch is not dropped.
    pub fn finish(&mut self) {
        if self.cur_queries > 0 {
            self.roll_epoch();
        }
    }

    /// Completed epochs, in completion order.
    pub fn epochs(&self) -> &[EpochStats] {
        &self.epochs
    }

    /// The load estimator fed with each completed decision's actual bytes.
    pub fn load(&self) -> &LoadEstimator {
        &self.load
    }

    /// Queries seen (planned or charged) but not yet resolved or missed.
    pub fn open_queries(&self) -> usize {
        self.open.len()
    }

    /// Fold a JSONL trace offline. Unparsable lines are skipped, mirroring
    /// the lenient path of the other offline folds.
    pub fn fold_jsonl(epoch_len: u64, trace: &str) -> Self {
        let mut sink = Self::new(epoch_len);
        for line in trace.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(view) = crate::json::parse(line)
                .ok()
                .as_ref()
                .and_then(LedgerView::from_json)
            {
                sink.observe(&view);
            }
        }
        sink.finish();
        sink
    }
}

impl Sink for FeedbackSink {
    fn record(&mut self, rec: &TraceRecord) {
        self.observe(&LedgerView::from_record(rec));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use dde_logic::time::SimTime;

    fn rec(t: u64, kind: EventKind) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_micros(t),
            node: 0,
            kind,
        }
    }

    fn run_query(sink: &mut FeedbackSink, q: u64, predicted: u64, actual: u64) {
        sink.record(&rec(
            1,
            EventKind::Plan {
                query: q,
                strategy: "lvf",
                candidates: 1,
                expected_bytes: predicted,
                rationale: String::new(),
            },
        ));
        sink.record(&rec(
            2,
            EventKind::Transmit {
                from: 0,
                to: 1,
                msg: "data",
                bytes: actual,
                background: false,
                query: Some(q),
            },
        ));
        sink.record(&rec(
            3,
            EventKind::QueryResolved {
                query: q,
                outcome: "viable",
                latency_us: 10,
            },
        ));
    }

    #[test]
    fn epochs_roll_at_epoch_len_completed_queries() {
        let mut sink = FeedbackSink::new(2);
        run_query(&mut sink, 1, 1000, 800);
        assert!(sink.epochs().is_empty());
        run_query(&mut sink, 2, 1000, 1400);
        assert_eq!(sink.epochs().len(), 1);
        let e = sink.epochs()[0];
        assert_eq!(e.queries, 2);
        assert!((e.mean_abs_error - 300.0).abs() < 1e-9);
        assert!((e.mean_actual_bytes - 1100.0).abs() < 1e-9);
        assert_eq!(sink.load().decisions(), 2);
    }

    #[test]
    fn finish_flushes_a_partial_epoch() {
        let mut sink = FeedbackSink::new(10);
        run_query(&mut sink, 1, 500, 500);
        assert!(sink.epochs().is_empty());
        sink.finish();
        assert_eq!(sink.epochs().len(), 1);
        assert_eq!(sink.epochs()[0].queries, 1);
        assert_eq!(sink.epochs()[0].mean_abs_error, 0.0);
    }

    #[test]
    fn unplanned_queries_do_not_score() {
        let mut sink = FeedbackSink::new(1);
        // Charged and missed, but never planned (shed by admission).
        sink.record(&rec(
            1,
            EventKind::Transmit {
                from: 0,
                to: 1,
                msg: "announce",
                bytes: 100,
                background: false,
                query: Some(7),
            },
        ));
        sink.record(&rec(2, EventKind::QueryMissed { query: 7 }));
        sink.finish();
        assert!(sink.epochs().is_empty());
        assert_eq!(sink.load().decisions(), 0);
        assert_eq!(sink.open_queries(), 0);
    }

    #[test]
    fn replanning_replaces_the_prediction() {
        let mut sink = FeedbackSink::new(1);
        sink.record(&rec(
            1,
            EventKind::Plan {
                query: 3,
                strategy: "lvf",
                candidates: 1,
                expected_bytes: 9_999,
                rationale: String::new(),
            },
        ));
        run_query(&mut sink, 3, 1000, 1000);
        assert_eq!(sink.epochs().len(), 1);
        assert_eq!(sink.epochs()[0].mean_abs_error, 0.0);
    }

    #[test]
    fn typed_and_jsonl_folds_agree() {
        let mut typed = FeedbackSink::new(2);
        let mut lines = String::new();
        for (q, predicted, actual) in [(1u64, 1000u64, 700u64), (2, 2000, 2600), (3, 500, 500)] {
            for r in [
                rec(
                    q * 10,
                    EventKind::Plan {
                        query: q,
                        strategy: "hybrid",
                        candidates: 2,
                        expected_bytes: predicted,
                        rationale: String::new(),
                    },
                ),
                rec(
                    q * 10 + 1,
                    EventKind::Transmit {
                        from: 0,
                        to: 1,
                        msg: "data",
                        bytes: actual,
                        background: false,
                        query: Some(q),
                    },
                ),
                rec(
                    q * 10 + 2,
                    EventKind::QueryResolved {
                        query: q,
                        outcome: "viable",
                        latency_us: 5,
                    },
                ),
            ] {
                typed.record(&r);
                r.write_jsonl(&mut lines);
                lines.push('\n');
            }
        }
        typed.finish();
        let json = FeedbackSink::fold_jsonl(2, &lines);
        assert_eq!(typed.epochs(), json.epochs());
        assert_eq!(typed.epochs().len(), 2);
    }
}
