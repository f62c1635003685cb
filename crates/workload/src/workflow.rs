//! Mission workflows and decision-sequence mining (§VIII).
//!
//! "Users, in many cases, adhere to prescribed workflows dictated by their
//! training, standard operating procedures, or doctrine. The workflow is a
//! flowchart of decision points … Since the structure of the flow chart is
//! known, so are the possible sequences of decision points. One can
//! therefore anticipate future decisions given current decision queries."
//!
//! Two pieces:
//!
//! - [`Doctrine`] — a ground-truth flowchart: decision templates with
//!   probabilistic transitions, used to *generate* realistic query
//!   sequences;
//! - [`WorkflowModel`] — a first-order Markov miner that learns transition
//!   statistics from observed sequences and predicts the next decision,
//!   which anticipation (`RunOptions::announce_lead` in `dde-core`) can
//!   turn into a prefetching head start.

use dde_logic::dnf::Dnf;
use dde_logic::time::SimDuration;
use rand::Rng;

/// One decision point in a workflow flowchart.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTemplate {
    /// Human-readable name ("assess-route", "select-shelter", …).
    pub name: String,
    /// The decision logic issued when this point is reached.
    pub expr: Dnf,
    /// Relative deadline for decisions of this kind.
    pub deadline: SimDuration,
}

/// A ground-truth workflow: templates plus a row-stochastic transition
/// matrix (row `i` = probabilities of the next decision after template `i`;
/// a row summing to < 1 terminates the mission with the remainder).
#[derive(Debug, Clone)]
pub struct Doctrine {
    templates: Vec<DecisionTemplate>,
    transitions: Vec<Vec<f64>>,
    start: usize,
}

impl Doctrine {
    /// Creates a doctrine.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not `n × n`, any row sums to more than 1 (+ε),
    /// any entry is negative, or `start` is out of range.
    pub fn new(
        templates: Vec<DecisionTemplate>,
        transitions: Vec<Vec<f64>>,
        start: usize,
    ) -> Doctrine {
        let n = templates.len();
        assert!(start < n, "start template out of range");
        assert_eq!(transitions.len(), n, "transition matrix must be n x n");
        for row in &transitions {
            assert_eq!(row.len(), n, "transition matrix must be n x n");
            assert!(row.iter().all(|p| *p >= 0.0), "negative probability");
            assert!(
                row.iter().sum::<f64>() <= 1.0 + 1e-9,
                "row sums to more than 1"
            );
        }
        Doctrine {
            templates,
            transitions,
            start,
        }
    }

    /// The decision templates.
    pub fn templates(&self) -> &[DecisionTemplate] {
        &self.templates
    }

    /// Samples one mission: the sequence of template indices visited,
    /// capped at `max_len`.
    pub fn sample<R: Rng>(&self, rng: &mut R, max_len: usize) -> Vec<usize> {
        let mut seq = vec![self.start];
        let mut cur = self.start;
        while seq.len() < max_len {
            let row = &self.transitions[cur];
            let mut x: f64 = rng.gen();
            let mut next = None;
            for (j, p) in row.iter().enumerate() {
                if x < *p {
                    next = Some(j);
                    break;
                }
                x -= p;
            }
            match next {
                Some(j) => {
                    seq.push(j);
                    cur = j;
                }
                None => break, // mission ends
            }
        }
        seq
    }
}

/// A first-order Markov model mined from observed decision sequences.
///
/// # Examples
///
/// ```
/// use dde_workload::workflow::WorkflowModel;
///
/// let mut model = WorkflowModel::new(3);
/// model.observe_sequence(&[0, 1, 2]);
/// model.observe_sequence(&[0, 1, 1]);
/// assert_eq!(model.predict_next(0), Some(1));
/// assert!((model.transition_prob(0, 1) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct WorkflowModel {
    n: usize,
    counts: Vec<Vec<u64>>,
}

impl WorkflowModel {
    /// Creates an empty model over `n` decision templates.
    pub fn new(n: usize) -> WorkflowModel {
        WorkflowModel {
            n,
            counts: vec![vec![0; n]; n],
        }
    }

    /// Number of templates.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the model covers zero templates.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Records one observed transition.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn observe(&mut self, from: usize, to: usize) {
        assert!(from < self.n && to < self.n, "template index out of range");
        self.counts[from][to] += 1;
    }

    /// Records every adjacent pair of an observed mission sequence.
    pub fn observe_sequence(&mut self, seq: &[usize]) {
        for w in seq.windows(2) {
            self.observe(w[0], w[1]);
        }
    }

    /// Total observations out of `from`.
    pub fn outgoing(&self, from: usize) -> u64 {
        self.counts[from].iter().sum()
    }

    /// Maximum-likelihood probability of `from → to` (0 when unobserved).
    pub fn transition_prob(&self, from: usize, to: usize) -> f64 {
        let total = self.outgoing(from);
        if total == 0 {
            0.0
        } else {
            self.counts[from][to] as f64 / total as f64
        }
    }

    /// The most likely next decision after `current`, or `None` when
    /// nothing has been observed. Ties break toward the lower index.
    pub fn predict_next(&self, current: usize) -> Option<usize> {
        let row = &self.counts[current];
        let best = row
            .iter()
            .enumerate()
            .max_by_key(|(i, c)| (**c, self.n - i));
        match best {
            Some((i, c)) if *c > 0 => Some(i),
            _ => None,
        }
    }

    /// Fraction of transitions in `sequences` whose successor the model
    /// predicts correctly (top-1).
    pub fn top1_accuracy(&self, sequences: &[Vec<usize>]) -> f64 {
        let mut total = 0u64;
        let mut correct = 0u64;
        for seq in sequences {
            for w in seq.windows(2) {
                total += 1;
                if self.predict_next(w[0]) == Some(w[1]) {
                    correct += 1;
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            correct as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dde_logic::dnf::Term;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn template(name: &str) -> DecisionTemplate {
        DecisionTemplate {
            name: name.into(),
            expr: Dnf::from_terms(vec![Term::all_of([name])]),
            deadline: SimDuration::from_secs(60),
        }
    }

    fn doctrine() -> Doctrine {
        // recon → assess (0.9) ; assess → evac (0.6) | resupply (0.3)
        // evac → end ; resupply → assess (0.8)
        Doctrine::new(
            vec![
                template("recon"),
                template("assess"),
                template("evac"),
                template("resupply"),
            ],
            vec![
                vec![0.0, 0.9, 0.0, 0.0],
                vec![0.0, 0.0, 0.6, 0.3],
                vec![0.0, 0.0, 0.0, 0.0],
                vec![0.0, 0.8, 0.0, 0.0],
            ],
            0,
        )
    }

    #[test]
    fn doctrine_sequences_follow_flowchart() {
        let d = doctrine();
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..50 {
            let seq = d.sample(&mut rng, 20);
            assert_eq!(seq[0], 0, "missions start at recon");
            for w in seq.windows(2) {
                // Only legal flowchart edges appear.
                let legal = matches!((w[0], w[1]), (0, 1) | (1, 2) | (1, 3) | (3, 1));
                assert!(legal, "illegal transition {w:?}");
            }
        }
    }

    #[test]
    fn doctrine_sample_caps_length() {
        // A self-loop never terminates on its own; the cap must.
        let d = Doctrine::new(vec![template("loop")], vec![vec![1.0]], 0);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(d.sample(&mut rng, 7).len(), 7);
    }

    #[test]
    #[should_panic(expected = "row sums to more than 1")]
    fn invalid_doctrine_rejected() {
        let _ = Doctrine::new(
            vec![template("a"), template("b")],
            vec![vec![0.9, 0.9], vec![0.0, 0.0]],
            0,
        );
    }

    #[test]
    fn model_learns_dominant_transitions() {
        let d = doctrine();
        let mut rng = SmallRng::seed_from_u64(9);
        let mut model = WorkflowModel::new(4);
        for _ in 0..200 {
            model.observe_sequence(&d.sample(&mut rng, 20));
        }
        // The dominant successors follow the doctrine.
        assert_eq!(model.predict_next(0), Some(1)); // recon → assess
        assert_eq!(model.predict_next(1), Some(2)); // assess → evac (0.6 > 0.3)
        assert_eq!(model.predict_next(3), Some(1)); // resupply → assess
        assert_eq!(model.predict_next(2), None); // evac is terminal
                                                 // Learned probabilities are close to ground truth.
        assert!((model.transition_prob(1, 2) - 0.6 / 0.9).abs() < 0.1);
    }

    #[test]
    fn accuracy_reflects_predictability() {
        let d = doctrine();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut model = WorkflowModel::new(4);
        let train: Vec<Vec<usize>> = (0..300).map(|_| d.sample(&mut rng, 20)).collect();
        for s in &train {
            model.observe_sequence(s);
        }
        let test: Vec<Vec<usize>> = (0..100).map(|_| d.sample(&mut rng, 20)).collect();
        let acc = model.top1_accuracy(&test);
        // recon→assess and resupply→assess are deterministic; assess→? is
        // predictable 2 out of 3 times: overall well above chance (1/4).
        assert!(acc > 0.7, "top-1 accuracy {acc}");
        assert!(acc < 1.0, "the branchy step cannot be perfectly predicted");
    }

    #[test]
    fn empty_model_predicts_nothing() {
        let m = WorkflowModel::new(3);
        assert_eq!(m.predict_next(1), None);
        assert_eq!(m.transition_prob(0, 1), 0.0);
        assert_eq!(m.top1_accuracy(&[vec![0, 1, 2]]), 0.0);
        assert_eq!(m.top1_accuracy(&[]), 1.0);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
    }

    proptest! {
        /// Transition probabilities out of any state form a distribution.
        #[test]
        fn learned_rows_are_stochastic(
            seqs in prop::collection::vec(
                prop::collection::vec(0usize..4, 2..10), 1..20),
        ) {
            let mut m = WorkflowModel::new(4);
            for s in &seqs {
                m.observe_sequence(s);
            }
            for from in 0..4 {
                let sum: f64 = (0..4).map(|to| m.transition_prob(from, to)).sum();
                if m.outgoing(from) > 0 {
                    prop_assert!((sum - 1.0).abs() < 1e-9);
                } else {
                    prop_assert_eq!(sum, 0.0);
                }
                // predict_next is the argmax of the row.
                if let Some(best) = m.predict_next(from) {
                    for to in 0..4 {
                        prop_assert!(
                            m.transition_prob(from, best) >= m.transition_prob(from, to)
                        );
                    }
                }
            }
        }
    }
}
