//! Deterministic topology partitioning — a cut nobody executes.
//!
//! A conservative parallel engine would pin each region of the topology to
//! one worker and synchronize regions with barrier windows whose width is
//! the **lookahead**: the minimum latency over any link that crosses a
//! region boundary. A message that leaves its region at time `t` cannot
//! arrive before `t + lookahead`, so every region could process all events
//! strictly before the window end without hearing from its peers.
//! [`crate::shard`] had such a mode and it never beat its own sequential
//! loop (EXPERIMENTS.md, "Threads: the verdict"); the engine no longer
//! reads a partition. This module stays because the frozen `benchmark/`
//! reports the cut's shape (`netsim.shard_regions`,
//! `netsim.shard_boundary_link_share`, `netsim.shard_lookahead_us`).
//!
//! The partition is a pure function of `(topology, region count, seed)`,
//! so a given configuration always produces the same regions.

use crate::topology::{NodeId, Topology};
use dde_logic::time::SimDuration;

/// A mapping of topology nodes onto contiguous regions, plus the
/// conservative lookahead the boundary links permit.
#[derive(Debug, Clone)]
pub struct Partition {
    region_of: Vec<u32>,
    regions: Vec<Vec<NodeId>>,
    lookahead: Option<SimDuration>,
}

impl Partition {
    /// Partitions `topology` into at most `regions` balanced regions.
    ///
    /// Nodes are laid out in BFS order from a seed-chosen start node
    /// (neighbors visited in ascending id, disconnected remainders
    /// appended in id order) and the order is cut into contiguous chunks,
    /// so regions are both balanced (sizes differ by at most one) and
    /// locality-preserving — BFS neighbors tend to land in the same chunk,
    /// which keeps boundary traffic low.
    ///
    /// The region count is clamped to the node count; asking for more
    /// regions than nodes yields one singleton region per node.
    ///
    /// # Panics
    ///
    /// Panics if the topology is empty, or if any boundary link has zero
    /// latency — zero lookahead would force zero-width windows and the
    /// conservative scheme could not advance.
    pub fn build(topology: &Topology, regions: usize, seed: u64) -> Partition {
        let n = topology.len();
        assert!(n > 0, "cannot partition an empty topology");
        let want = regions.clamp(1, n);

        // BFS layout from a seeded start.
        let start = NodeId((seed % n as u64) as usize);
        let mut order = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        let enqueue =
            |q: &mut std::collections::VecDeque<NodeId>, seen: &mut Vec<bool>, node: NodeId| {
                if !seen[node.index()] {
                    seen[node.index()] = true;
                    q.push_back(node);
                }
            };
        enqueue(&mut queue, &mut seen, start);
        // Components beyond the first are picked up in id order.
        let mut next_unseen = 0usize;
        loop {
            while let Some(node) = queue.pop_front() {
                order.push(node);
                let mut neighbors: Vec<NodeId> = topology.neighbors(node).collect();
                neighbors.sort_unstable_by_key(|n| n.index());
                for nb in neighbors {
                    enqueue(&mut queue, &mut seen, nb);
                }
            }
            while next_unseen < n && seen[next_unseen] {
                next_unseen += 1;
            }
            if next_unseen == n {
                break;
            }
            enqueue(&mut queue, &mut seen, NodeId(next_unseen));
        }
        debug_assert_eq!(order.len(), n);

        // Cut the order into `want` contiguous chunks, sizes n/want rounded
        // up for the first n % want chunks.
        let base = n / want;
        let extra = n % want;
        let mut region_of = vec![0u32; n];
        let mut region_nodes: Vec<Vec<NodeId>> = Vec::with_capacity(want);
        let mut cursor = 0usize;
        for r in 0..want {
            let size = base + usize::from(r < extra);
            let mut members: Vec<NodeId> = order[cursor..cursor + size].to_vec();
            cursor += size;
            members.sort_unstable_by_key(|n| n.index());
            for node in &members {
                region_of[node.index()] = r as u32;
            }
            region_nodes.push(members);
        }

        // Lookahead: minimum latency over links that cross a region
        // boundary. `None` when nothing crosses (single region, or
        // disconnected regions).
        let mut lookahead: Option<SimDuration> = None;
        for a in 0..n {
            let a_id = NodeId(a);
            for (b_id, spec) in topology
                .neighbors(a_id)
                .filter_map(|b| topology.link(a_id, b).map(|spec| (b, spec)))
            {
                if region_of[a] != region_of[b_id.index()] {
                    assert!(
                        spec.latency > SimDuration::ZERO,
                        "boundary link {a_id}-{b_id} has zero latency: no conservative lookahead"
                    );
                    lookahead = Some(match lookahead {
                        Some(l) => l.min(spec.latency),
                        None => spec.latency,
                    });
                }
            }
        }

        Partition {
            region_of,
            regions: region_nodes,
            lookahead,
        }
    }

    /// Number of regions.
    pub fn count(&self) -> usize {
        self.regions.len()
    }

    /// The region `node` belongs to.
    pub fn region_of(&self, node: NodeId) -> usize {
        self.region_of[node.index()] as usize
    }

    /// The full node → region map, indexed by node id.
    pub fn region_map(&self) -> &[u32] {
        &self.region_of
    }

    /// Nodes of region `r`, in ascending id order.
    pub fn nodes_in(&self, r: usize) -> &[NodeId] {
        &self.regions[r]
    }

    /// The conservative lookahead: minimum latency over boundary links, or
    /// `None` when no link crosses a region boundary (then only faults and
    /// the deadline bound the barrier window).
    pub fn lookahead(&self) -> Option<SimDuration> {
        self.lookahead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkSpec;

    fn assert_exact_cover(p: &Partition, n: usize) {
        // Every node appears in exactly one region, and region_of agrees
        // with the member lists.
        let mut seen = vec![0u32; n];
        for r in 0..p.count() {
            for node in p.nodes_in(r) {
                seen[node.index()] += 1;
                assert_eq!(p.region_of(*node), r);
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "cover: {seen:?}");
    }

    #[test]
    fn single_node_topology_yields_one_region() {
        let topo = Topology::new(1);
        let p = Partition::build(&topo, 8, 42);
        assert_eq!(p.count(), 1);
        assert_exact_cover(&p, 1);
        assert_eq!(p.lookahead(), None, "no links, no boundary");
    }

    #[test]
    fn fully_connected_topology_partitions_cleanly() {
        let n = 6;
        let mut topo = Topology::new(n);
        for a in 0..n {
            for b in (a + 1)..n {
                topo.add_link(NodeId(a), NodeId(b), LinkSpec::mbps1());
            }
        }
        for regions in [1, 2, 3, 4, 6, 9] {
            let p = Partition::build(&topo, regions, 7);
            assert_eq!(p.count(), regions.min(n));
            assert_exact_cover(&p, n);
            if p.count() > 1 {
                let l = p.lookahead().expect("fully connected has boundaries");
                assert!(l > SimDuration::ZERO, "lookahead strictly positive");
                assert_eq!(l, SimDuration::from_millis(1), "min latency is 1ms");
            }
        }
    }

    #[test]
    fn chain_topology_cuts_into_contiguous_runs() {
        let n = 10;
        let topo = Topology::line(n, LinkSpec::mbps1().latency(SimDuration::from_millis(3)));
        let p = Partition::build(&topo, 4, 0);
        assert_eq!(p.count(), 4);
        assert_exact_cover(&p, n);
        // Balanced: sizes differ by at most one.
        let sizes: Vec<usize> = (0..p.count()).map(|r| p.nodes_in(r).len()).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "sizes: {sizes:?}");
        assert_eq!(p.lookahead(), Some(SimDuration::from_millis(3)));
    }

    #[test]
    fn lookahead_is_min_over_boundary_links_only() {
        // 0-1 intra-region fast link, 1-2 boundary slow link.
        let mut topo = Topology::new(4);
        topo.add_link(
            NodeId(0),
            NodeId(1),
            LinkSpec::mbps1().latency(SimDuration::from_micros(10)),
        );
        topo.add_link(
            NodeId(1),
            NodeId(2),
            LinkSpec::mbps1().latency(SimDuration::from_millis(50)),
        );
        topo.add_link(
            NodeId(2),
            NodeId(3),
            LinkSpec::mbps1().latency(SimDuration::from_micros(20)),
        );
        let p = Partition::build(&topo, 2, 0);
        assert_exact_cover(&p, 4);
        if p.region_of(NodeId(1)) != p.region_of(NodeId(2)) {
            // BFS from node 0 puts {0,1} and {2,3} together: the only
            // boundary is the 50ms link, so the fast intra-region links
            // must not shrink the lookahead.
            assert_eq!(p.lookahead(), Some(SimDuration::from_millis(50)));
        }
    }

    #[test]
    fn more_regions_than_nodes_clamps_to_singletons() {
        let topo = Topology::line(3, LinkSpec::mbps1());
        let p = Partition::build(&topo, 8, 5);
        assert_eq!(p.count(), 3);
        assert_exact_cover(&p, 3);
        assert!(p.lookahead().is_some());
    }

    #[test]
    fn partition_is_deterministic_for_a_seed_and_varies_layout_by_seed() {
        let topo = Topology::grid(4, 4, LinkSpec::mbps1());
        let a = Partition::build(&topo, 4, 1);
        let b = Partition::build(&topo, 4, 1);
        assert_eq!(a.region_map(), b.region_map());
        // Different seeds start BFS elsewhere; the cover invariants hold
        // regardless.
        for seed in 0..8 {
            let p = Partition::build(&topo, 4, seed);
            assert_exact_cover(&p, 16);
            assert!(p.lookahead().unwrap() > SimDuration::ZERO);
        }
    }

    #[test]
    fn disconnected_topology_is_fully_covered() {
        // Two components, no links between them.
        let mut topo = Topology::new(5);
        topo.add_link(NodeId(0), NodeId(1), LinkSpec::mbps1());
        topo.add_link(NodeId(3), NodeId(4), LinkSpec::mbps1());
        let p = Partition::build(&topo, 2, 9);
        assert_exact_cover(&p, 5);
    }

    #[test]
    #[should_panic(expected = "empty topology")]
    fn empty_topology_panics() {
        let topo = Topology::new(0);
        let _ = Partition::build(&topo, 2, 0);
    }

    #[test]
    #[should_panic(expected = "zero latency")]
    fn zero_latency_boundary_link_panics() {
        let mut topo = Topology::new(2);
        topo.add_link(
            NodeId(0),
            NodeId(1),
            LinkSpec::mbps1().latency(SimDuration::ZERO),
        );
        let _ = Partition::build(&topo, 2, 0);
    }
}
