//! Retrieval items and the shared-channel model of §IV-A.
//!
//! The basic scheduling problem: `N` data objects `O_1 … O_N` must be
//! retrieved from normally-off sensors over a single bottleneck channel.
//! Retrieving `O_i` consumes bandwidth `C_i`; the sensor is activated (and
//! its measurement sampled) at retrieval start `t_i`; the measurement stays
//! fresh for the validity interval `I_i`.

use dde_logic::label::Label;
use dde_logic::meta::{ConditionMeta, Cost, Probability};
use dde_logic::time::SimDuration;

/// One evidence object to retrieve.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrievalItem {
    /// The label this object's evidence resolves.
    pub label: Label,
    /// Retrieval cost (object size in bytes).
    pub cost: Cost,
    /// Validity interval of the measurement.
    pub validity: SimDuration,
    /// Prior probability that the resolved condition is *true*.
    pub prob_true: Probability,
}

impl RetrievalItem {
    /// Creates an item with maximum-entropy truth prior.
    pub fn new(label: impl Into<Label>, cost: Cost, validity: SimDuration) -> RetrievalItem {
        RetrievalItem {
            label: label.into(),
            cost,
            validity,
            prob_true: Probability::HALF,
        }
    }

    /// Sets the truth prior.
    #[must_use]
    pub fn with_prob(mut self, p: Probability) -> RetrievalItem {
        self.prob_true = p;
        self
    }

    /// The paper's AND short-circuit efficiency `(1 - p) / C`.
    pub fn and_shortcircuit_ratio(&self) -> f64 {
        self.as_meta().and_shortcircuit_ratio()
    }

    /// View as condition metadata.
    pub fn as_meta(&self) -> ConditionMeta {
        ConditionMeta::new(self.cost, self.validity).with_prob(self.prob_true)
    }
}

/// The single bottleneck resource objects are retrieved over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Channel {
    /// Capacity in bits per second.
    pub bandwidth_bps: u64,
}

impl Channel {
    /// Creates a channel.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is zero.
    pub fn new(bandwidth_bps: u64) -> Channel {
        assert!(bandwidth_bps > 0, "channel bandwidth must be positive");
        Channel { bandwidth_bps }
    }

    /// The paper's evaluation bandwidth: 1 Mbps.
    pub fn mbps1() -> Channel {
        Channel::new(1_000_000)
    }

    /// Time to move `cost` over this channel.
    pub fn transmission_time(&self, cost: Cost) -> SimDuration {
        SimDuration::of_transmission(cost.as_bytes(), self.bandwidth_bps)
    }

    /// Total time to move a sequence of items.
    pub fn total_time<'a, I>(&self, items: I) -> SimDuration
    where
        I: IntoIterator<Item = &'a RetrievalItem>,
    {
        items.into_iter().fold(SimDuration::ZERO, |acc, it| {
            acc + self.transmission_time(it.cost)
        })
    }
}

impl Default for Channel {
    fn default() -> Self {
        Channel::mbps1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_transmission_times() {
        let ch = Channel::mbps1();
        assert_eq!(
            ch.transmission_time(Cost::from_bytes(125_000)),
            SimDuration::from_secs(1)
        );
        assert_eq!(ch.transmission_time(Cost::ZERO), SimDuration::ZERO);
        let fast = Channel::new(8_000_000);
        assert_eq!(
            fast.transmission_time(Cost::from_bytes(1_000_000)),
            SimDuration::from_secs(1)
        );
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = Channel::new(0);
    }

    #[test]
    fn total_time_sums() {
        let ch = Channel::mbps1();
        let items = vec![
            RetrievalItem::new("a", Cost::from_bytes(125_000), SimDuration::MAX),
            RetrievalItem::new("b", Cost::from_bytes(250_000), SimDuration::MAX),
        ];
        assert_eq!(ch.total_time(&items), SimDuration::from_secs(3));
    }

    #[test]
    fn item_builder() {
        let it = RetrievalItem::new("x", Cost::from_bytes(4), SimDuration::from_secs(9))
            .with_prob(Probability::new(0.25).unwrap());
        assert_eq!(it.label.as_str(), "x");
        assert_eq!(it.prob_true.value(), 0.25);
        assert!((it.and_shortcircuit_ratio() - 0.75 / 4.0).abs() < 1e-12);
    }
}
