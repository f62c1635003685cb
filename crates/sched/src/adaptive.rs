//! Online estimators and admission control for adaptive planning.
//!
//! The §III-A planners are parameterized by short-circuit probabilities
//! and per-object costs that the rest of the workspace treats as static
//! priors. This module closes the predicted-vs-actual loop: per-node
//! estimators learn those parameters online from the node's own
//! observations, and an [`AdmissionPolicy`] sheds or defers queries when
//! the *predicted* cost of admitting one exceeds a budget under overload.
//!
//! Three estimators, all exponentially weighted ([`Ewma`]):
//!
//! - [`TruthEstimator`] — short-circuit probability per
//!   *(name-prefix, condition)*: how often evidence whose name shares a
//!   prefix (by default the semantic `/city/seg/<segment>` component)
//!   annotates a given condition `true`. Feeds the planners' term-ordering
//!   ratio (§III-A) in place of the flat `prob_true_prior`.
//! - [`ReliabilityEstimator`] — per-source fetch success rate, learned
//!   from completed fetches vs. retry timeouts. Discounts unreliable
//!   providers during source selection.
//! - [`LoadEstimator`] — attributed bytes per completed decision, the
//!   same quantity PR 5's cost ledger charges. Drives the overload test
//!   in admission control.
//!
//! # Determinism
//!
//! Estimators carry no clock, no randomness, and no I/O: they are pure
//! folds over the observation stream the caller feeds them. In the
//! simulator that stream is exactly the trace-visible event sequence
//! (annotation, fetch-timeout, and data-arrival events), which the
//! engine already guarantees is a function of the seed — so adaptive runs
//! inherit byte-identical traces for free. All state
//! lives in `BTreeMap`s (no hashed state) and updates use only arithmetic on
//! finite inputs (no clock reads, no `partial_cmp` ordering).

use dde_logic::label::Label;
use dde_logic::time::SimDuration;
use std::collections::BTreeMap;

/// An exponentially weighted moving average: `v ← (1 − α)·v + α·x`.
///
/// With `α ∈ [0, 1]` and observations drawn from `[lo, hi]`, the value is
/// a convex combination of its initial value and the observations, so it
/// stays inside the convex hull of those inputs — the basis for the
/// `[0, 1]` bound on the rate estimators below.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    value: f64,
    alpha: f64,
    samples: u64,
}

impl Ewma {
    /// A new average starting at `initial` with smoothing factor `alpha`.
    ///
    /// `alpha` is clamped to `[0, 1]`; a non-finite `initial` is replaced
    /// by `0.0` so the value can never start (or become) NaN.
    pub fn new(alpha: f64, initial: f64) -> Ewma {
        Ewma {
            value: if initial.is_finite() { initial } else { 0.0 },
            alpha: alpha.clamp(0.0, 1.0),
            samples: 0,
        }
    }

    /// Folds one observation in. Non-finite observations are ignored —
    /// the estimate must never become NaN or infinite.
    pub fn observe(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.value = (1.0 - self.alpha) * self.value + self.alpha * x;
        self.samples += 1;
    }

    /// The current estimate.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// How many observations have been folded in.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// Returns the leading `components` slash-separated components of a
/// rendered name, e.g. `prefix_of("/city/seg/3_4-3_5/cam/n7", 3)` is
/// `"/city/seg/3_4-3_5"`. Names shorter than `components` are returned
/// whole. This is the estimator key that groups semantically similar
/// evidence: the workload's names put the road segment before the sensor
/// kind, so a 3-component prefix pools observations per segment.
pub fn prefix_of(name: &str, components: usize) -> &str {
    let mut seen = 0usize;
    for (i, b) in name.char_indices() {
        if b == '/' {
            if seen == components {
                return &name[..i];
            }
            seen += 1;
        }
    }
    name
}

/// Online short-circuit probability per *(name-prefix, condition)*.
///
/// Each annotation outcome (`true`/`false`) observed for a condition on
/// evidence under a given name prefix updates one [`Ewma`] seeded at the
/// run's static prior. Unseen keys fall back to that prior, so an
/// adaptive planner behaves exactly like the static one until evidence
/// arrives.
#[derive(Debug, Clone, PartialEq)]
pub struct TruthEstimator {
    alpha: f64,
    prior: f64,
    rates: BTreeMap<String, BTreeMap<Label, Ewma>>,
}

impl TruthEstimator {
    /// A new estimator: unseen keys report `prior`, updates smooth with
    /// `alpha`. The prior is clamped to `[0, 1]`.
    pub fn new(alpha: f64, prior: f64) -> TruthEstimator {
        TruthEstimator {
            alpha: alpha.clamp(0.0, 1.0),
            prior: if prior.is_finite() {
                prior.clamp(0.0, 1.0)
            } else {
                0.0
            },
            rates: BTreeMap::new(),
        }
    }

    /// Folds one annotation outcome in for `label` on evidence under
    /// `prefix`.
    pub fn observe(&mut self, prefix: &str, label: &Label, observed_true: bool) {
        let (alpha, prior) = (self.alpha, self.prior);
        self.rates
            .entry(prefix.to_string())
            .or_default()
            .entry(label.clone())
            .or_insert_with(|| Ewma::new(alpha, prior))
            .observe(if observed_true { 1.0 } else { 0.0 });
    }

    /// The estimated probability that `label` annotates `true` on
    /// evidence under `prefix`; the prior if nothing has been observed.
    /// Always finite and in `[0, 1]`.
    pub fn prob(&self, prefix: &str, label: &Label) -> f64 {
        self.rates
            .get(prefix)
            .and_then(|m| m.get(label))
            .map(|e| e.value())
            .unwrap_or(self.prior)
    }

    /// The static prior unseen keys report.
    pub fn prior(&self) -> f64 {
        self.prior
    }

    /// Number of distinct *(prefix, condition)* keys observed so far.
    pub fn keys(&self) -> usize {
        self.rates.values().map(|m| m.len()).sum()
    }
}

/// Online per-source fetch reliability.
///
/// Sources are keyed by their raw node index (`u32`), keeping this crate
/// independent of the simulator's `NodeId` type. The prior is optimistic
/// (`1.0`) to match the engine's existing source-selection default: a
/// source is presumed good until a retry timeout says otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityEstimator {
    alpha: f64,
    prior: f64,
    rates: BTreeMap<u32, Ewma>,
}

impl ReliabilityEstimator {
    /// A new estimator with smoothing `alpha` and `prior` (clamped to
    /// `[0, 1]`) for unseen sources.
    pub fn new(alpha: f64, prior: f64) -> ReliabilityEstimator {
        ReliabilityEstimator {
            alpha: alpha.clamp(0.0, 1.0),
            prior: if prior.is_finite() {
                prior.clamp(0.0, 1.0)
            } else {
                1.0
            },
            rates: BTreeMap::new(),
        }
    }

    /// Folds one fetch outcome in: `ok` is `true` for a completed fetch,
    /// `false` for a retry timeout.
    pub fn observe(&mut self, source: u32, ok: bool) {
        let (alpha, prior) = (self.alpha, self.prior);
        self.rates
            .entry(source)
            .or_insert_with(|| Ewma::new(alpha, prior))
            .observe(if ok { 1.0 } else { 0.0 });
    }

    /// The estimated fetch success rate of `source`, in `[0, 1]`.
    pub fn score(&self, source: u32) -> f64 {
        self.rates
            .get(&source)
            .map(|e| e.value())
            .unwrap_or(self.prior)
    }
}

/// Online attributed-bytes-per-decision, the ledger's per-query charge
/// folded into a single running load figure.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadEstimator {
    ewma: Ewma,
}

impl LoadEstimator {
    /// A new estimator with smoothing `alpha`. Reports `None` until the
    /// first decision completes.
    pub fn new(alpha: f64) -> LoadEstimator {
        LoadEstimator {
            ewma: Ewma::new(alpha, 0.0),
        }
    }

    /// Folds in the attributed bytes of one completed decision.
    pub fn observe_decision(&mut self, bytes: u64) {
        self.ewma.observe(bytes as f64);
    }

    /// Estimated bytes per decision, or `None` before any decision has
    /// completed. Always finite and non-negative when present.
    pub fn bytes_per_decision(&self) -> Option<f64> {
        (self.ewma.samples() > 0).then(|| self.ewma.value())
    }

    /// How many completed decisions have been folded in.
    pub fn decisions(&self) -> u64 {
        self.ewma.samples()
    }
}

/// What the admission gate decided for one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// Plan and retrieve normally.
    Admit,
    /// Re-evaluate after [`AdmissionPolicy::defer_for`]; the query keeps
    /// its original deadline, so deferral spends slack, not extra time.
    Defer,
    /// Never start retrieval: the query runs to its deadline unanswered
    /// and is counted as a deliberate shed rather than a capacity miss.
    Shed,
}

impl AdmissionVerdict {
    /// Stable lowercase name, used in trace records.
    pub fn name(self) -> &'static str {
        match self {
            AdmissionVerdict::Admit => "admit",
            AdmissionVerdict::Defer => "defer",
            AdmissionVerdict::Shed => "shed",
        }
    }
}

/// When to shed or defer a query instead of admitting it.
///
/// The gate fires only under *overload*: at least
/// [`min_active`](AdmissionPolicy::min_active) queries already in flight
/// **and** the projected in-flight load — active count × estimated bytes
/// per decision (falling back to this query's own prediction before any
/// decision has completed) — above
/// [`overload_bytes`](AdmissionPolicy::overload_bytes). An overloaded
/// node still admits cheap queries (predicted cost within
/// [`budget_bytes`](AdmissionPolicy::budget_bytes)); expensive ones are
/// deferred while
/// deadline slack and the defer allowance remain, and shed otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionPolicy {
    /// Per-query predicted-bytes budget that an overloaded node will
    /// still admit.
    pub budget_bytes: u64,
    /// Projected in-flight bytes (active × bytes-per-decision estimate)
    /// above which the node counts as overloaded.
    pub overload_bytes: u64,
    /// Overload requires at least this many queries already admitted and
    /// undecided, so a quiet node never sheds.
    pub min_active: usize,
    /// How long a deferred query waits before the gate re-evaluates it.
    pub defer_for: SimDuration,
    /// How many times one query may be deferred before the choice
    /// collapses to admit-or-shed.
    pub max_defers: u32,
}

impl Default for AdmissionPolicy {
    fn default() -> AdmissionPolicy {
        AdmissionPolicy {
            budget_bytes: 600_000,
            overload_bytes: 4_000_000,
            min_active: 4,
            defer_for: SimDuration::from_secs(10),
            max_defers: 3,
        }
    }
}

impl AdmissionPolicy {
    /// Evaluates the gate for one query.
    ///
    /// - `predicted_bytes` — the §III-A expected cost of the query's plan
    ///   under the node's current estimators;
    /// - `active` — queries already admitted and not yet decided;
    /// - `load` — the node's [`LoadEstimator`];
    /// - `slack` — time remaining until the query's deadline;
    /// - `defers_so_far` — how often this query has already been deferred.
    pub fn verdict(
        &self,
        predicted_bytes: u64,
        active: usize,
        load: &LoadEstimator,
        slack: SimDuration,
        defers_so_far: u32,
    ) -> AdmissionVerdict {
        let per_decision = load
            .bytes_per_decision()
            .unwrap_or(predicted_bytes as f64)
            .max(0.0);
        let projected = per_decision * active as f64;
        let overloaded = active >= self.min_active && projected > self.overload_bytes as f64;
        if !overloaded || predicted_bytes <= self.budget_bytes {
            AdmissionVerdict::Admit
        } else if defers_so_far < self.max_defers && slack > self.defer_for {
            AdmissionVerdict::Defer
        } else {
            AdmissionVerdict::Shed
        }
    }
}

/// Configuration for a node's adaptive planning loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// EWMA smoothing factor shared by all three estimators.
    pub alpha: f64,
    /// Name-prefix length (in components) keying the truth estimator.
    pub prefix_len: usize,
    /// Optional admission gate; `None` means learn-only (re-parameterize
    /// the planners but never shed or defer).
    pub admission: Option<AdmissionPolicy>,
}

impl Default for AdaptiveConfig {
    fn default() -> AdaptiveConfig {
        AdaptiveConfig {
            alpha: 0.25,
            prefix_len: 3,
            admission: None,
        }
    }
}

/// A node's complete adaptive state: the three estimators plus the
/// configuration they were built from.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveState {
    /// The configuration this state was built from.
    pub config: AdaptiveConfig,
    /// Short-circuit probability per (name-prefix, condition).
    pub truth: TruthEstimator,
    /// Per-source fetch success rate.
    pub reliability: ReliabilityEstimator,
    /// Attributed bytes per completed decision.
    pub load: LoadEstimator,
}

impl AdaptiveState {
    /// Builds fresh estimators. `truth_prior` seeds the truth estimator
    /// with the run's static short-circuit prior so un-observed keys plan
    /// exactly like the static planners.
    pub fn new(config: AdaptiveConfig, truth_prior: f64) -> AdaptiveState {
        AdaptiveState {
            config,
            truth: TruthEstimator::new(config.alpha, truth_prior),
            reliability: ReliabilityEstimator::new(config.alpha, 1.0),
            load: LoadEstimator::new(config.alpha),
        }
    }

    /// The truth estimate for `label` on evidence named `name` (rendered),
    /// keyed by this state's configured prefix length.
    pub fn prob_for(&self, name: &str, label: &Label) -> f64 {
        self.truth
            .prob(prefix_of(name, self.config.prefix_len), label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn label(s: &str) -> Label {
        Label::new(s)
    }

    #[test]
    fn ewma_moves_toward_observations() {
        let mut e = Ewma::new(0.5, 0.0);
        e.observe(1.0);
        assert!((e.value() - 0.5).abs() < 1e-12);
        e.observe(1.0);
        assert!((e.value() - 0.75).abs() < 1e-12);
        assert_eq!(e.samples(), 2);
    }

    #[test]
    fn ewma_rejects_non_finite_input_and_seed() {
        let mut e = Ewma::new(0.5, f64::NAN);
        assert_eq!(e.value(), 0.0);
        e.observe(f64::INFINITY);
        e.observe(f64::NAN);
        assert_eq!(e.samples(), 0);
        assert_eq!(e.value(), 0.0);
    }

    #[test]
    fn prefix_of_takes_leading_components() {
        assert_eq!(
            prefix_of("/city/seg/3_4-3_5/cam/n7", 3),
            "/city/seg/3_4-3_5"
        );
        assert_eq!(prefix_of("/city/pano/n2", 3), "/city/pano/n2");
        assert_eq!(prefix_of("/a/b", 5), "/a/b");
        assert_eq!(prefix_of("", 2), "");
    }

    #[test]
    fn truth_estimator_falls_back_to_prior_then_learns() {
        let mut t = TruthEstimator::new(0.5, 0.8);
        let l = label("flooded");
        assert!((t.prob("/city/seg/0_0-0_1", &l) - 0.8).abs() < 1e-12);
        for _ in 0..32 {
            t.observe("/city/seg/0_0-0_1", &l, false);
        }
        assert!(t.prob("/city/seg/0_0-0_1", &l) < 0.01);
        // Other prefixes are untouched.
        assert!((t.prob("/city/seg/9_9-9_8", &l) - 0.8).abs() < 1e-12);
        assert_eq!(t.keys(), 1);
    }

    #[test]
    fn reliability_is_optimistic_until_timeouts_arrive() {
        let mut r = ReliabilityEstimator::new(0.5, 1.0);
        assert_eq!(r.score(3), 1.0);
        r.observe(3, false);
        r.observe(3, false);
        assert!(r.score(3) < 0.3);
        r.observe(3, true);
        assert!(r.score(3) > 0.5);
        assert_eq!(r.score(4), 1.0);
    }

    #[test]
    fn load_estimator_reports_none_until_first_decision() {
        let mut l = LoadEstimator::new(1.0);
        assert_eq!(l.bytes_per_decision(), None);
        l.observe_decision(250_000);
        assert_eq!(l.bytes_per_decision(), Some(250_000.0));
        assert_eq!(l.decisions(), 1);
    }

    #[test]
    fn admission_admits_when_quiet_and_gates_under_overload() {
        let policy = AdmissionPolicy {
            budget_bytes: 100_000,
            overload_bytes: 1_000_000,
            min_active: 2,
            defer_for: SimDuration::from_secs(10),
            max_defers: 1,
        };
        let mut load = LoadEstimator::new(1.0);
        load.observe_decision(600_000);
        let slack = SimDuration::from_secs(60);
        // Quiet node: always admit, even over budget.
        assert_eq!(
            policy.verdict(900_000, 0, &load, slack, 0),
            AdmissionVerdict::Admit
        );
        // Overloaded (2 × 600 kB > 1 MB) but cheap: admit.
        assert_eq!(
            policy.verdict(50_000, 2, &load, slack, 0),
            AdmissionVerdict::Admit
        );
        // Overloaded and expensive with slack: defer, then shed once the
        // defer allowance is spent.
        assert_eq!(
            policy.verdict(900_000, 2, &load, slack, 0),
            AdmissionVerdict::Defer
        );
        assert_eq!(
            policy.verdict(900_000, 2, &load, slack, 1),
            AdmissionVerdict::Shed
        );
        // Overloaded, expensive, out of slack: shed immediately.
        assert_eq!(
            policy.verdict(900_000, 2, &load, SimDuration::from_secs(5), 0),
            AdmissionVerdict::Shed
        );
    }

    #[test]
    fn admission_uses_prediction_as_cold_start_load() {
        let policy = AdmissionPolicy {
            budget_bytes: 100_000,
            overload_bytes: 1_000_000,
            min_active: 2,
            defer_for: SimDuration::from_secs(10),
            max_defers: 1,
        };
        // No completed decisions yet: the query's own prediction stands in
        // for the load estimate (2 × 900 kB > 1 MB ⇒ overloaded).
        let cold = LoadEstimator::new(0.5);
        assert_eq!(
            cold.bytes_per_decision(),
            None,
            "cold start has no load estimate"
        );
        assert_eq!(
            policy.verdict(900_000, 2, &cold, SimDuration::from_secs(60), 0),
            AdmissionVerdict::Defer
        );
    }

    proptest! {
        /// The rate estimators stay in [0, 1] and finite for any alpha,
        /// prior, and observation stream.
        #[test]
        fn truth_probability_stays_bounded(
            alpha in -1.0f64..2.0,
            prior in -1.0f64..2.0,
            stream in prop::collection::vec(any::<bool>(), 0..200),
        ) {
            let mut t = TruthEstimator::new(alpha, prior);
            let l = label("x");
            for &b in &stream {
                t.observe("/p/q/r", &l, b);
                let p = t.prob("/p/q/r", &l);
                prop_assert!(p.is_finite());
                prop_assert!((0.0..=1.0).contains(&p));
            }
        }

        /// Same bound for reliability under mixed outcomes.
        #[test]
        fn reliability_stays_bounded(
            alpha in 0.0f64..1.0,
            stream in prop::collection::vec(any::<bool>(), 0..200),
        ) {
            let mut r = ReliabilityEstimator::new(alpha, 1.0);
            for &ok in &stream {
                r.observe(7, ok);
                let s = r.score(7);
                prop_assert!(s.is_finite());
                prop_assert!((0.0..=1.0).contains(&s));
            }
        }

        /// On a stationary (periodic) stream the estimator's time-average
        /// over one period converges to the stream's true rate: in the
        /// periodic steady state, summing `v' − v = α(x − v)` over a
        /// period gives mean(v) = mean(x).
        #[test]
        fn ewma_converges_to_true_rate_on_stationary_stream(
            alpha in 0.05f64..0.8,
            pattern in prop::collection::vec(any::<bool>(), 1..12),
        ) {
            let truth = pattern.iter().filter(|&&b| b).count() as f64
                / pattern.len() as f64;
            let mut t = TruthEstimator::new(alpha, 0.5);
            let l = label("x");
            let reps = 600usize;
            let mut tail = Vec::new();
            for rep in 0..reps {
                for &b in &pattern {
                    t.observe("/p/q/r", &l, b);
                    if rep == reps - 1 {
                        tail.push(t.prob("/p/q/r", &l));
                    }
                }
            }
            let mean = tail.iter().sum::<f64>() / tail.len() as f64;
            prop_assert!(
                (mean - truth).abs() < 0.02,
                "time-averaged estimate {mean} should approach true rate {truth}"
            );
        }

        /// The load estimator is finite and non-negative for any byte
        /// stream.
        #[test]
        fn load_stays_finite(
            alpha in 0.0f64..1.0,
            stream in prop::collection::vec(0u64..10_000_000, 0..100),
        ) {
            let mut load = LoadEstimator::new(alpha);
            for &b in &stream {
                load.observe_decision(b);
                let v = load.bytes_per_decision();
                prop_assert!(v.is_some_and(|v| v.is_finite() && v >= 0.0));
            }
        }
    }
}
