//! Network topologies: nodes, links, and shortest-path routing.
//!
//! The paper's evaluation (§VII) deploys ~30 Athena nodes on a Manhattan
//! grid with 1 Mbps node-to-node connections. This module provides the
//! general graph substrate: link specifications (bandwidth, propagation
//! latency, loss), common topology builders, and all-pairs next-hop routing
//! computed by breadth-first search (links are homogeneous in the paper, so
//! hop count is the routing metric).

use core::fmt;
use dde_logic::time::SimDuration;
use std::collections::VecDeque;

/// Identifier of a simulated node.
///
/// The paper's prototype identifies nodes by `IP:PORT`; the simulator uses a
/// dense index, which keeps routing tables flat arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Transmission characteristics of a (directed) link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Capacity in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub latency: SimDuration,
    /// Probability that a message is lost in transit (failure injection).
    pub loss: f64,
}

impl LinkSpec {
    /// The paper's evaluation configuration: 1 Mbps, 1 ms propagation,
    /// lossless.
    pub fn mbps1() -> LinkSpec {
        LinkSpec {
            bandwidth_bps: 1_000_000,
            latency: SimDuration::from_millis(1),
            loss: 0.0,
        }
    }

    /// A link with the given capacity in bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is zero.
    pub fn with_bandwidth(bandwidth_bps: u64) -> LinkSpec {
        assert!(bandwidth_bps > 0, "link bandwidth must be positive");
        LinkSpec {
            bandwidth_bps,
            latency: SimDuration::from_millis(1),
            loss: 0.0,
        }
    }

    /// Sets the propagation latency.
    #[must_use]
    pub fn latency(mut self, latency: SimDuration) -> LinkSpec {
        self.latency = latency;
        self
    }

    /// Sets the loss probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= loss <= 1.0`.
    #[must_use]
    pub fn loss(mut self, loss: f64) -> LinkSpec {
        assert!((0.0..=1.0).contains(&loss), "loss must be in [0,1]");
        self.loss = loss;
        self
    }

    /// Time to clock `bytes` bytes onto the medium.
    pub fn transmission_time(&self, bytes: u64) -> SimDuration {
        SimDuration::of_transmission(bytes, self.bandwidth_bps)
    }
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec::mbps1()
    }
}

/// An undirected network of nodes and links with precomputed routing.
///
/// # Examples
///
/// ```
/// use dde_netsim::topology::{LinkSpec, Topology};
///
/// let topo = Topology::line(3, LinkSpec::mbps1());
/// let (a, c) = (topo.node(0), topo.node(2));
/// assert_eq!(topo.hop_distance(a, c), Some(2));
/// assert_eq!(topo.next_hop(a, c), Some(topo.node(1)));
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    n: usize,
    // adjacency[u] = (v, spec of link u->v)
    adjacency: Vec<Vec<(NodeId, LinkSpec)>>,
    // next_hop[u][v] = first hop on a shortest u->v path (usize::MAX = unreachable)
    next_hop: Vec<Vec<usize>>,
    // dist[u][v] in hops (usize::MAX = unreachable)
    dist: Vec<Vec<usize>>,
    // link_base[u] = slot of u's first outgoing link; u's i-th adjacency
    // entry has slot link_base[u] + i. Built with the routes and emptied by
    // add_link, the only operation that moves a slot.
    link_base: Vec<usize>,
    routes_dirty: bool,
    // Fault state: crashed nodes and downed links are *physically* still
    // present (adjacency is unchanged) but excluded from routing. BTreeSet
    // with endpoints ordered (min, max) keeps iteration deterministic.
    disabled_nodes: std::collections::BTreeSet<usize>,
    disabled_links: std::collections::BTreeSet<(usize, usize)>,
}

impl Topology {
    /// Creates a topology with `n` nodes and no links.
    pub fn new(n: usize) -> Topology {
        Topology {
            n,
            adjacency: vec![Vec::new(); n],
            next_hop: Vec::new(),
            dist: Vec::new(),
            link_base: Vec::new(),
            routes_dirty: true,
            disabled_nodes: std::collections::BTreeSet::new(),
            disabled_links: std::collections::BTreeSet::new(),
        }
    }

    /// The node with index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn node(&self, i: usize) -> NodeId {
        assert!(i < self.n, "node index {i} out of range (n={})", self.n);
        NodeId(i)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.n).map(NodeId)
    }

    /// Adds an undirected link between `a` and `b` with symmetric `spec`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range, if `a == b`, or if the
    /// link already exists.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        assert!(a.0 < self.n && b.0 < self.n, "link endpoint out of range");
        assert_ne!(a, b, "self-links are not allowed");
        assert!(!self.has_link(a, b), "link {a}-{b} already exists");
        self.adjacency[a.0].push((b, spec));
        self.adjacency[b.0].push((a, spec));
        self.link_base.clear();
        self.routes_dirty = true;
    }

    /// Whether a direct link `a`–`b` exists.
    pub fn has_link(&self, a: NodeId, b: NodeId) -> bool {
        self.adjacency
            .get(a.0)
            .is_some_and(|adj| adj.iter().any(|(v, _)| *v == b))
    }

    /// The spec of the directed link `a → b`, if the nodes are adjacent.
    pub fn link(&self, a: NodeId, b: NodeId) -> Option<LinkSpec> {
        self.adjacency
            .get(a.0)?
            .iter()
            .find(|(v, _)| *v == b)
            .map(|(_, s)| *s)
    }

    /// The dense index of the directed link `a → b` in
    /// `0..directed_link_count()`, with its spec: one adjacency scan buys an
    /// engine O(1) access to everything it keeps per link. Slots follow
    /// adjacency order, are assigned when routes are built, and survive
    /// fault transitions (which never touch adjacency). `None` when the
    /// nodes are not adjacent or routes have not been built since the last
    /// [`Topology::add_link`].
    pub fn link_slot(&self, a: NodeId, b: NodeId) -> Option<(usize, LinkSpec)> {
        let base = *self.link_base.get(a.0)?;
        self.adjacency
            .get(a.0)?
            .iter()
            .enumerate()
            .find(|(_, (v, _))| *v == b)
            .map(|(i, (_, spec))| (base + i, *spec))
    }

    /// Every directed link out of `a` as `(neighbor, slot, spec)`, in
    /// adjacency order: [`Topology::link_slot`] for all of `a`'s neighbors
    /// in one walk. Empty where `link_slot` would answer `None`.
    pub fn links_from(&self, a: NodeId) -> impl Iterator<Item = (NodeId, usize, LinkSpec)> + '_ {
        let base = self.link_base.get(a.0).copied();
        self.adjacency[a.0]
            .iter()
            .enumerate()
            .filter_map(move |(i, &(to, spec))| Some((to, base? + i, spec)))
    }

    /// Neighbors of `node`.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adjacency[node.0].iter().map(|(v, _)| *v)
    }

    /// Number of directed links (twice the undirected link count).
    pub fn directed_link_count(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum()
    }

    // ---- Fault state (node churn and link outages) -------------------

    fn link_key(a: NodeId, b: NodeId) -> (usize, usize) {
        (a.0.min(b.0), a.0.max(b.0))
    }

    /// Whether `node` is enabled (not crashed). Nodes start enabled.
    pub fn is_node_enabled(&self, node: NodeId) -> bool {
        !self.disabled_nodes.contains(&node.0)
    }

    /// Enables or disables a node for routing purposes. Disabled nodes keep
    /// their physical links ([`Topology::has_link`] is unchanged) but no
    /// route traverses or terminates at them. Returns `true` if the state
    /// changed (and marks routes stale).
    pub fn set_node_enabled(&mut self, node: NodeId, enabled: bool) -> bool {
        assert!(node.0 < self.n, "node out of range");
        let changed = if enabled {
            self.disabled_nodes.remove(&node.0)
        } else {
            self.disabled_nodes.insert(node.0)
        };
        if changed {
            self.routes_dirty = true;
        }
        changed
    }

    /// Whether the physical link `a`–`b` exists *and* is currently enabled
    /// (not taken down by a fault). Does not consider endpoint node state;
    /// see [`Topology::is_link_usable`].
    pub fn is_link_enabled(&self, a: NodeId, b: NodeId) -> bool {
        self.has_link(a, b) && !self.disabled_links.contains(&Self::link_key(a, b))
    }

    /// Enables or disables the undirected link `a`–`b`. Returns `true` if
    /// the state changed (and marks routes stale).
    ///
    /// # Panics
    ///
    /// Panics if the physical link does not exist.
    pub fn set_link_enabled(&mut self, a: NodeId, b: NodeId, enabled: bool) -> bool {
        assert!(self.has_link(a, b), "no physical link {a}-{b}");
        let key = Self::link_key(a, b);
        let changed = if enabled {
            self.disabled_links.remove(&key)
        } else {
            self.disabled_links.insert(key)
        };
        if changed {
            self.routes_dirty = true;
        }
        changed
    }

    /// Whether traffic can currently flow `a → b`: the link exists, is
    /// enabled, and both endpoints are enabled.
    pub fn is_link_usable(&self, a: NodeId, b: NodeId) -> bool {
        self.is_link_enabled(a, b) && self.is_node_enabled(a) && self.is_node_enabled(b)
    }

    /// Whether any fault state (disabled node or link) is active.
    pub fn has_fault_state(&self) -> bool {
        !self.disabled_nodes.is_empty() || !self.disabled_links.is_empty()
    }

    /// Neighbors of `node` reachable over currently-usable links.
    pub fn neighbors_up(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adjacency[node.0]
            .iter()
            .map(|(v, _)| *v)
            .filter(move |&v| self.is_link_usable(node, v))
    }

    /// Recomputes the all-pairs next-hop tables. Called automatically by the
    /// routing queries; exposed for callers that want to pay the cost
    /// eagerly.
    pub fn rebuild_routes(&mut self) {
        let n = self.n;
        let mut next_hop = vec![vec![usize::MAX; n]; n];
        let mut dist = vec![vec![usize::MAX; n]; n];
        // BFS from every destination, walking predecessors toward sources,
        // gives each source its first hop toward that destination. With
        // homogeneous links (the paper's setting) hop count is the metric;
        // ties break toward the lowest-numbered neighbor for determinism.
        // Crashed nodes and downed links are excluded, so routes always
        // detour around active faults (or report unreachable).
        for dst in 0..n {
            if !self.is_node_enabled(NodeId(dst)) {
                continue;
            }
            let mut q = VecDeque::new();
            dist[dst][dst] = 0;
            next_hop[dst][dst] = dst;
            q.push_back(dst);
            while let Some(u) = q.pop_front() {
                let mut nbrs: Vec<usize> = self.adjacency[u].iter().map(|(v, _)| v.0).collect();
                nbrs.sort_unstable();
                for v in nbrs {
                    if dist[v][dst] == usize::MAX && self.is_link_usable(NodeId(v), NodeId(u)) {
                        dist[v][dst] = dist[u][dst] + 1;
                        next_hop[v][dst] = u;
                        q.push_back(v);
                    }
                }
            }
        }
        self.next_hop = next_hop;
        self.dist = dist;
        self.link_base = self
            .adjacency
            .iter()
            .scan(0, |next, adj| {
                let base = *next;
                *next += adj.len();
                Some(base)
            })
            .collect();
        self.routes_dirty = false;
    }

    fn routes(&self) -> (&Vec<Vec<usize>>, &Vec<Vec<usize>>) {
        assert!(
            !self.routes_dirty,
            "routing tables stale: call rebuild_routes() after mutating links"
        );
        (&self.next_hop, &self.dist)
    }

    /// Ensures routing tables are current (no-op when already built).
    pub fn ensure_routes(&mut self) {
        if self.routes_dirty {
            self.rebuild_routes();
        }
    }

    /// First hop on a shortest path `from → to`, or `None` when unreachable.
    /// Returns `Some(from)` when `from == to`.
    ///
    /// # Panics
    ///
    /// Panics if the routing tables are stale (mutate, then call
    /// [`Topology::rebuild_routes`]).
    pub fn next_hop(&self, from: NodeId, to: NodeId) -> Option<NodeId> {
        let (next, _) = self.routes();
        match next[from.0][to.0] {
            usize::MAX => None,
            h => Some(NodeId(h)),
        }
    }

    /// Shortest-path length in hops, or `None` when unreachable.
    pub fn hop_distance(&self, from: NodeId, to: NodeId) -> Option<usize> {
        let (_, dist) = self.routes();
        match dist[from.0][to.0] {
            usize::MAX => None,
            d => Some(d),
        }
    }

    /// The full shortest path `from → to` (inclusive), or `None` when
    /// unreachable.
    pub fn path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        let mut path = vec![from];
        let mut cur = from;
        while cur != to {
            cur = self.next_hop(cur, to)?;
            path.push(cur);
            if path.len() > self.n {
                return None; // routing loop; cannot happen with BFS tables
            }
        }
        Some(path)
    }

    /// Whether every node can reach every other node.
    pub fn is_connected(&mut self) -> bool {
        self.ensure_routes();
        if self.n == 0 {
            return true;
        }
        (1..self.n).all(|v| self.dist[0][v] != usize::MAX)
    }

    // ---- Builders ----------------------------------------------------

    /// A path topology `0 – 1 – … – (n-1)`.
    pub fn line(n: usize, spec: LinkSpec) -> Topology {
        let mut t = Topology::new(n);
        for i in 1..n {
            t.add_link(NodeId(i - 1), NodeId(i), spec);
        }
        t.rebuild_routes();
        t
    }

    /// A ring topology.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn ring(n: usize, spec: LinkSpec) -> Topology {
        assert!(n >= 3, "a ring needs at least 3 nodes");
        let mut t = Topology::new(n);
        for i in 0..n {
            t.add_link(NodeId(i), NodeId((i + 1) % n), spec);
        }
        t.rebuild_routes();
        t
    }

    /// A star with node 0 at the hub.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn star(n: usize, spec: LinkSpec) -> Topology {
        assert!(n >= 2, "a star needs at least 2 nodes");
        let mut t = Topology::new(n);
        for i in 1..n {
            t.add_link(NodeId(0), NodeId(i), spec);
        }
        t.rebuild_routes();
        t
    }

    /// A `rows × cols` grid; node `(r, c)` has index `r * cols + c` and links
    /// to its 4-neighborhood. This is the Manhattan layout of §VII.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0 || cols == 0`.
    pub fn grid(rows: usize, cols: usize, spec: LinkSpec) -> Topology {
        assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
        let mut t = Topology::new(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let here = NodeId(r * cols + c);
                if c + 1 < cols {
                    t.add_link(here, NodeId(r * cols + c + 1), spec);
                }
                if r + 1 < rows {
                    t.add_link(here, NodeId((r + 1) * cols + c), spec);
                }
            }
        }
        t.rebuild_routes();
        t
    }

    /// A connected random topology: a random spanning tree plus
    /// `extra_links` additional random links, built deterministically from
    /// `seed`.
    pub fn random_connected(n: usize, extra_links: usize, seed: u64) -> Topology {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut t = Topology::new(n);
        // Random spanning tree: connect each node i>0 to a random earlier node.
        for i in 1..n {
            let j = rng.gen_range(0..i);
            t.add_link(NodeId(i), NodeId(j), LinkSpec::mbps1());
        }
        let mut added = 0;
        let mut attempts = 0;
        while added < extra_links && attempts < extra_links * 20 && n >= 2 {
            attempts += 1;
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b && !t.has_link(NodeId(a), NodeId(b)) {
                t.add_link(NodeId(a), NodeId(b), LinkSpec::mbps1());
                added += 1;
            }
        }
        t.rebuild_routes();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn transmission_time_matches_paper_config() {
        // 1 MB over 1 Mbps = 8 seconds.
        let spec = LinkSpec::mbps1();
        assert_eq!(spec.transmission_time(1_000_000), SimDuration::from_secs(8));
        // 100 KB over 1 Mbps = 0.8 s.
        assert_eq!(
            spec.transmission_time(100_000),
            SimDuration::from_millis(800)
        );
        assert_eq!(spec.transmission_time(0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = LinkSpec::with_bandwidth(0);
    }

    #[test]
    #[should_panic(expected = "loss must be in [0,1]")]
    fn invalid_loss_rejected() {
        let _ = LinkSpec::mbps1().loss(1.5);
    }

    #[test]
    fn line_routing() {
        let t = Topology::line(5, LinkSpec::mbps1());
        assert_eq!(t.hop_distance(NodeId(0), NodeId(4)), Some(4));
        assert_eq!(t.next_hop(NodeId(0), NodeId(4)), Some(NodeId(1)));
        assert_eq!(t.next_hop(NodeId(4), NodeId(0)), Some(NodeId(3)));
        assert_eq!(t.next_hop(NodeId(2), NodeId(2)), Some(NodeId(2)));
        assert_eq!(
            t.path(NodeId(0), NodeId(3)).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
    }

    #[test]
    fn grid_routing_distances_are_manhattan() {
        let t = Topology::grid(4, 4, LinkSpec::mbps1());
        // (0,0) -> (3,3): 6 hops.
        assert_eq!(t.hop_distance(NodeId(0), NodeId(15)), Some(6));
        // neighbors of a middle node
        let mid = NodeId(5); // (1,1)
        let nbrs: Vec<_> = t.neighbors(mid).collect();
        assert_eq!(nbrs.len(), 4);
    }

    #[test]
    fn star_routes_through_hub() {
        let t = Topology::star(5, LinkSpec::mbps1());
        assert_eq!(t.next_hop(NodeId(1), NodeId(2)), Some(NodeId(0)));
        assert_eq!(t.hop_distance(NodeId(1), NodeId(2)), Some(2));
    }

    #[test]
    fn ring_takes_shorter_side() {
        let t = Topology::ring(6, LinkSpec::mbps1());
        assert_eq!(t.hop_distance(NodeId(0), NodeId(3)), Some(3));
        assert_eq!(t.hop_distance(NodeId(0), NodeId(5)), Some(1));
    }

    #[test]
    fn disconnected_nodes_unreachable() {
        let mut t = Topology::new(3);
        t.add_link(NodeId(0), NodeId(1), LinkSpec::mbps1());
        t.rebuild_routes();
        assert_eq!(t.next_hop(NodeId(0), NodeId(2)), None);
        assert_eq!(t.hop_distance(NodeId(0), NodeId(2)), None);
        assert!(t.path(NodeId(0), NodeId(2)).is_none());
        assert!(!t.is_connected());
    }

    #[test]
    fn duplicate_link_panics() {
        let mut t = Topology::new(2);
        t.add_link(NodeId(0), NodeId(1), LinkSpec::mbps1());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.add_link(NodeId(1), NodeId(0), LinkSpec::mbps1());
        }));
        assert!(r.is_err());
    }

    #[test]
    fn link_lookup() {
        let mut t = Topology::new(2);
        let spec = LinkSpec::with_bandwidth(2_000_000);
        t.add_link(NodeId(0), NodeId(1), spec);
        t.rebuild_routes();
        assert_eq!(
            t.link(NodeId(0), NodeId(1)).unwrap().bandwidth_bps,
            2_000_000
        );
        assert!(t.link(NodeId(1), NodeId(1)).is_none());
        assert_eq!(t.directed_link_count(), 2);
    }

    #[test]
    fn link_slots_are_dense_in_adjacency_order() {
        // Node 3 has no links; node 1 has three.
        let mut t = Topology::new(5);
        t.add_link(NodeId(1), NodeId(0), LinkSpec::mbps1());
        t.add_link(NodeId(1), NodeId(4), LinkSpec::with_bandwidth(2_000_000));
        t.add_link(NodeId(2), NodeId(1), LinkSpec::mbps1());
        assert_eq!(t.link_slot(NodeId(1), NodeId(0)), None, "no routes yet");
        assert_eq!(t.links_from(NodeId(1)).count(), 0, "no routes yet");
        t.rebuild_routes();
        let mut seen = vec![false; t.directed_link_count()];
        let mut expected = 0;
        for a in t.nodes() {
            for b in t.neighbors(a) {
                let (slot, spec) = t.link_slot(a, b).unwrap();
                assert_eq!(slot, expected, "{a}->{b}");
                assert_eq!(Some(spec), t.link(a, b));
                assert!(!std::mem::replace(&mut seen[slot], true));
                expected += 1;
            }
            // The one-walk form agrees, neighbor for neighbor.
            let walked: Vec<_> = t.links_from(a).collect();
            let looked_up: Vec<_> = t
                .neighbors(a)
                .map(|b| {
                    t.link_slot(a, b)
                        .map(|(slot, spec)| (b, slot, spec))
                        .unwrap()
                })
                .collect();
            assert_eq!(walked, looked_up, "{a}");
        }
        assert_eq!(expected, 6);
        assert_eq!(t.link_slot(NodeId(3), NodeId(1)), None);
        assert_eq!(t.link_slot(NodeId(0), NodeId(4)), None);
        assert_eq!(t.link_slot(NodeId(9), NodeId(0)), None);
        // Fault state leaves every slot where it was.
        let before = t.link_slot(NodeId(2), NodeId(1));
        t.set_node_enabled(NodeId(1), false);
        t.set_link_enabled(NodeId(1), NodeId(4), false);
        t.rebuild_routes();
        assert_eq!(t.link_slot(NodeId(2), NodeId(1)), before);
        // A new link moves slots: none is served until routes are rebuilt.
        t.add_link(NodeId(3), NodeId(0), LinkSpec::mbps1());
        assert_eq!(t.link_slot(NodeId(2), NodeId(1)), None);
        assert_eq!(t.links_from(NodeId(2)).count(), 0);
        t.rebuild_routes();
        assert_eq!(t.directed_link_count(), 8);
        assert!(t.link_slot(NodeId(3), NodeId(0)).is_some());
    }

    #[test]
    fn random_connected_is_connected() {
        for seed in 0..5 {
            let mut t = Topology::random_connected(20, 10, seed);
            assert!(t.is_connected(), "seed {seed} produced disconnected graph");
        }
    }

    #[test]
    fn random_topology_deterministic() {
        let a = Topology::random_connected(15, 5, 42);
        let b = Topology::random_connected(15, 5, 42);
        for u in a.nodes() {
            let na: Vec<_> = a.neighbors(u).collect();
            let nb: Vec<_> = b.neighbors(u).collect();
            assert_eq!(na, nb);
        }
    }

    proptest! {
        /// next_hop always makes strict progress toward the destination.
        #[test]
        fn next_hop_decreases_distance(seed in 0u64..50, n in 4usize..16) {
            let t = Topology::random_connected(n, n / 2, seed);
            for from in t.nodes() {
                for to in t.nodes() {
                    if from == to { continue; }
                    let hop = t.next_hop(from, to).unwrap();
                    prop_assert_eq!(
                        t.hop_distance(hop, to).unwrap() + 1,
                        t.hop_distance(from, to).unwrap()
                    );
                }
            }
        }

        /// Paths returned by `path` are real adjacency walks of the right length.
        #[test]
        fn path_is_valid_walk(seed in 0u64..20, n in 4usize..12) {
            let t = Topology::random_connected(n, 3, seed);
            for from in t.nodes() {
                for to in t.nodes() {
                    let p = t.path(from, to).unwrap();
                    prop_assert_eq!(p.len(), t.hop_distance(from, to).unwrap() + 1);
                    prop_assert_eq!(*p.first().unwrap(), from);
                    prop_assert_eq!(*p.last().unwrap(), to);
                    for w in p.windows(2) {
                        prop_assert!(t.has_link(w[0], w[1]));
                    }
                }
            }
        }

        /// Hop distance is symmetric on undirected graphs.
        #[test]
        fn distance_symmetric(seed in 0u64..20, n in 3usize..12) {
            let t = Topology::random_connected(n, 2, seed);
            for a in t.nodes() {
                for b in t.nodes() {
                    prop_assert_eq!(t.hop_distance(a, b), t.hop_distance(b, a));
                }
            }
        }
    }
}
