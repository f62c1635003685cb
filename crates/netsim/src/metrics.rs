//! Traffic accounting for simulation runs.
//!
//! Fig. 3 of the paper compares *total network bandwidth consumption* across
//! retrieval schemes; these counters are the measurement instrument. Bytes
//! are counted per message kind at transmission time (lost messages still
//! consume the medium, as on a radio).

use std::collections::BTreeMap;

/// Aggregated traffic counters for a simulation run.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Messages handed to the medium.
    pub messages_sent: u64,
    /// Messages delivered to a protocol handler.
    pub messages_delivered: u64,
    /// Messages lost in transit (link loss).
    pub messages_lost: u64,
    /// Messages dropped because the destination node was down.
    pub messages_dropped: u64,
    /// Of [`Metrics::messages_dropped`], how many were attributable to an
    /// injected fault (crashed node or downed link) rather than a manually
    /// downed node. Always `<= messages_dropped`.
    pub messages_dropped_by_fault: u64,
    /// Messages purged from transmitter queues before ever being sent,
    /// because their sender crashed or their link went down. These never
    /// counted toward [`Metrics::messages_sent`], so they sit *outside* the
    /// `sent = delivered + lost + dropped` conservation identity.
    pub messages_purged_by_fault: u64,
    /// Total bytes clocked onto all links.
    pub bytes_sent: u64,
    // One entry per distinct kind *literal*, found by address so a send
    // never compares string contents. Two literals may spell one kind (the
    // compiler need not merge them); readers sum such entries by name.
    per_kind: Vec<(&'static str, KindCounters)>,
}

/// Per-message-kind counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounters {
    /// Messages of this kind sent.
    pub count: u64,
    /// Bytes of this kind sent.
    pub bytes: u64,
}

impl KindCounters {
    fn add(&mut self, other: KindCounters) {
        self.count += other.count;
        self.bytes += other.bytes;
    }
}

impl Metrics {
    /// Creates zeroed counters.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records a transmission of `bytes` tagged `kind`.
    pub fn record_send(&mut self, bytes: u64, kind: &'static str) {
        self.messages_sent += 1;
        self.bytes_sent += bytes;
        self.add_kind(kind, KindCounters { count: 1, bytes });
    }

    fn add_kind(&mut self, kind: &'static str, counters: KindCounters) {
        match self
            .per_kind
            .iter_mut()
            .find(|(k, _)| std::ptr::eq(*k, kind))
        {
            Some((_, c)) => c.add(counters),
            None => self.per_kind.push((kind, counters)),
        }
    }

    /// Counters for a message kind.
    pub fn kind(&self, kind: &str) -> KindCounters {
        let mut total = KindCounters::default();
        for (_, c) in self.per_kind.iter().filter(|(k, _)| *k == kind) {
            total.add(*c);
        }
        total
    }

    /// Iterates over `(kind, counters)` pairs in kind order.
    pub fn kinds(&self) -> impl Iterator<Item = (&'static str, KindCounters)> + '_ {
        let mut by_name: BTreeMap<&'static str, KindCounters> = BTreeMap::new();
        for (kind, c) in &self.per_kind {
            by_name.entry(kind).or_default().add(*c);
        }
        by_name.into_iter()
    }

    /// Folds another set of counters into this one. Used by the sharded
    /// simulator to aggregate per-region counters into the run totals;
    /// every counter is a sum, so the fold is order-independent.
    pub fn absorb(&mut self, other: &Metrics) {
        self.messages_sent += other.messages_sent;
        self.messages_delivered += other.messages_delivered;
        self.messages_lost += other.messages_lost;
        self.messages_dropped += other.messages_dropped;
        self.messages_dropped_by_fault += other.messages_dropped_by_fault;
        self.messages_purged_by_fault += other.messages_purged_by_fault;
        self.bytes_sent += other.bytes_sent;
        for (kind, c) in &other.per_kind {
            self.add_kind(kind, *c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut m = Metrics::new();
        m.record_send(100, "data");
        m.record_send(50, "data");
        m.record_send(10, "request");
        assert_eq!(m.messages_sent, 3);
        assert_eq!(m.bytes_sent, 160);
        assert_eq!(m.kind("data").count, 2);
        assert_eq!(m.kind("data").bytes, 150);
        assert_eq!(m.kind("nonexistent"), KindCounters::default());
    }

    #[test]
    fn absorb_sums_every_counter() {
        let mut a = Metrics::new();
        a.record_send(5, "x");
        a.messages_delivered = 1;
        a.messages_dropped = 2;
        let mut b = Metrics::new();
        b.record_send(7, "x");
        b.record_send(3, "y");
        b.messages_lost = 4;
        b.messages_purged_by_fault = 5;
        a.absorb(&b);
        assert_eq!(a.messages_sent, 3);
        assert_eq!(a.bytes_sent, 15);
        assert_eq!(a.messages_delivered, 1);
        assert_eq!(a.messages_lost, 4);
        assert_eq!(a.messages_dropped, 2);
        assert_eq!(a.messages_purged_by_fault, 5);
        assert_eq!(a.kind("x").count, 2);
        assert_eq!(a.kind("y").bytes, 3);
    }

    #[test]
    fn aggregates_sum_per_kind() {
        let mut m = Metrics::new();
        m.record_send(5, "x");
        m.record_send(7, "y");
        let total: u64 = m.kinds().map(|(_, c)| c.bytes).sum();
        assert_eq!(total, m.bytes_sent);
    }

    #[test]
    fn one_kind_spelled_by_two_literals_reads_as_one() {
        // Kinds are found by address; the same spelling at another address
        // (a second codegen unit's literal, say) must not split the kind.
        let elsewhere: &'static str = String::from("data").leak();
        let mut m = Metrics::new();
        m.record_send(5, "data");
        m.record_send(7, elsewhere);
        m.record_send(1, "ack");
        let mut other = Metrics::new();
        other.record_send(2, elsewhere);
        m.absorb(&other);
        let data = KindCounters {
            count: 3,
            bytes: 14,
        };
        assert_eq!(m.kind("data"), data);
        let ack = KindCounters { count: 1, bytes: 1 };
        assert_eq!(
            m.kinds().collect::<Vec<_>>(),
            [("ack", ack), ("data", data)]
        );
    }
}
