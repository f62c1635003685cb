//! The online estimator behind adaptive planning.
//!
//! The §III-A planners are parameterized by short-circuit probabilities
//! that the rest of the workspace treats as a static prior. This module
//! closes the predicted-vs-actual loop for that one parameter: a
//! [`TruthEstimator`] learns, per *(name-prefix, condition)*, how often
//! evidence whose name shares a prefix (the semantic `/city/seg/<segment>`
//! component) annotates a given condition `true`, and feeds the planners'
//! term-ordering ratio in place of the flat `prob_true_prior`. The
//! estimates are exponentially weighted ([`Ewma`]) with smoothing
//! [`ALPHA`], keyed by the first [`PREFIX_LEN`] name components.
//!
//! # Determinism
//!
//! The estimator carries no clock, no randomness, and no I/O: it is a pure
//! fold over the observation stream the caller feeds it. In the simulator
//! that stream is exactly the trace-visible annotation sequence, which the
//! engine already guarantees is a function of the seed — so adaptive runs
//! inherit byte-identical traces for free. All state lives in `BTreeMap`s
//! (no hashed state) and updates use only arithmetic on finite inputs (no
//! clock reads, no `partial_cmp` ordering).

use dde_logic::label::Label;
use std::collections::BTreeMap;

/// EWMA smoothing factor of the truth estimator.
pub const ALPHA: f64 = 0.25;

/// Name components that key the truth estimator: `/city/seg/<segment>`
/// pools observations per road segment.
pub const PREFIX_LEN: usize = 3;

/// An exponentially weighted moving average: `v ← (1 − α)·v + α·x`.
///
/// With `α ∈ [0, 1]` and observations drawn from `[lo, hi]`, the value is
/// a convex combination of its initial value and the observations, so it
/// stays inside the convex hull of those inputs — the basis for the
/// `[0, 1]` bound on [`TruthEstimator`]'s probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    value: f64,
    alpha: f64,
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
        }
    }

    /// Folds one observation in. Non-finite observations are ignored —
    /// the estimate must never become NaN or infinite.
    pub fn observe(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.value = (1.0 - self.alpha) * self.value + self.alpha * x;
    }

    /// The current estimate.
    pub fn value(&self) -> f64 {
        self.value
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
/// evidence updates one [`Ewma`], keyed by the evidence name's first
/// [`PREFIX_LEN`] components and seeded at the run's static prior. Unseen
/// keys fall back to that prior, so an adaptive planner behaves exactly
/// like the static one until evidence arrives.
#[derive(Debug, Clone, PartialEq)]
pub struct TruthEstimator {
    prior: f64,
    rates: BTreeMap<String, BTreeMap<Label, Ewma>>,
}

impl TruthEstimator {
    /// A new estimator: unseen keys report `prior`, clamped to `[0, 1]`.
    pub fn new(prior: f64) -> TruthEstimator {
        TruthEstimator {
            prior: if prior.is_finite() {
                prior.clamp(0.0, 1.0)
            } else {
                0.0
            },
            rates: BTreeMap::new(),
        }
    }

    /// Folds one annotation outcome in for `label` on the evidence whose
    /// rendered name is `name`.
    pub fn observe(&mut self, name: &str, label: &Label, observed_true: bool) {
        let prior = self.prior;
        self.rates
            .entry(prefix_of(name, PREFIX_LEN).to_string())
            .or_default()
            .entry(*label)
            .or_insert_with(|| Ewma::new(ALPHA, prior))
            .observe(if observed_true { 1.0 } else { 0.0 });
    }

    /// The estimated probability that `label` annotates `true` on the
    /// evidence whose rendered name is `name`; the prior if nothing has
    /// been observed under its prefix. Always finite and in `[0, 1]`.
    pub fn prob(&self, name: &str, label: &Label) -> f64 {
        self.rates
            .get(prefix_of(name, PREFIX_LEN))
            .and_then(|m| m.get(label))
            .map(|e| e.value())
            .unwrap_or(self.prior)
    }

    /// The static prior unseen keys report.
    pub fn prior(&self) -> f64 {
        self.prior
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
    }

    #[test]
    fn ewma_rejects_non_finite_input_and_seed() {
        let mut e = Ewma::new(0.5, f64::NAN);
        assert_eq!(e.value(), 0.0);
        e.observe(f64::INFINITY);
        e.observe(f64::NAN);
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
        let mut t = TruthEstimator::new(0.8);
        let l = label("flooded");
        assert!((t.prob("/city/seg/0_0-0_1/cam/n1", &l) - 0.8).abs() < 1e-12);
        for _ in 0..32 {
            t.observe("/city/seg/0_0-0_1/cam/n1", &l, false);
        }
        // Every name under the segment shares the estimate.
        assert!(t.prob("/city/seg/0_0-0_1/mic/n4", &l) < 0.01);
        // Other prefixes are untouched.
        assert!((t.prob("/city/seg/9_9-9_8/cam/n1", &l) - 0.8).abs() < 1e-12);
    }

    proptest! {
        /// The truth estimate stays in [0, 1] and finite for any prior and
        /// observation stream.
        #[test]
        fn truth_probability_stays_bounded(
            prior in -1.0f64..2.0,
            stream in prop::collection::vec(any::<bool>(), 0..200),
        ) {
            let mut t = TruthEstimator::new(prior);
            let l = label("x");
            for &b in &stream {
                t.observe("/p/q/r", &l, b);
                let p = t.prob("/p/q/r", &l);
                prop_assert!(p.is_finite());
                prop_assert!((0.0..=1.0).contains(&p));
            }
        }

        /// On a stationary (periodic) stream the average's time-mean over
        /// one period converges to the stream's true rate: in the periodic
        /// steady state, summing `v' − v = α(x − v)` over a period gives
        /// mean(v) = mean(x).
        #[test]
        fn ewma_converges_to_true_rate_on_stationary_stream(
            alpha in 0.05f64..0.8,
            pattern in prop::collection::vec(any::<bool>(), 1..12),
        ) {
            let truth = pattern.iter().filter(|&&b| b).count() as f64
                / pattern.len() as f64;
            let mut e = Ewma::new(alpha, 0.5);
            let reps = 600usize;
            let mut tail = Vec::new();
            for rep in 0..reps {
                for &b in &pattern {
                    e.observe(if b { 1.0 } else { 0.0 });
                    if rep == reps - 1 {
                        tail.push(e.value());
                    }
                }
            }
            let mean = tail.iter().sum::<f64>() / tail.len() as f64;
            prop_assert!(
                (mean - truth).abs() < 0.02,
                "time-averaged estimate {mean} should approach true rate {truth}"
            );
        }
    }
}
