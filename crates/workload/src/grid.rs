//! The Manhattan road grid of the evaluation scenario (§VII).
//!
//! "We consider a Manhattan-like map, where road segments have a grid-like
//! layout. We divide the experimental region into a Manhattan grid given by
//! an 8 × 8 road segment network." Intersections form a lattice; a road
//! *segment* joins two adjacent intersections.

use core::fmt;
use dde_logic::label::Label;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::{BTreeMap, BinaryHeap};

/// An intersection on the grid, by (row, col).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Intersection {
    /// Row index.
    pub row: usize,
    /// Column index.
    pub col: usize,
}

impl fmt::Display for Intersection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.row, self.col)
    }
}

/// A road segment between two adjacent intersections, stored with endpoints
/// in normalized (sorted) order so each physical segment has one identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Segment {
    /// The lexicographically smaller endpoint.
    pub a: Intersection,
    /// The lexicographically larger endpoint.
    pub b: Intersection,
}

impl Segment {
    /// Creates a normalized segment.
    ///
    /// # Panics
    ///
    /// Panics if the endpoints are not grid-adjacent.
    pub fn new(x: Intersection, y: Intersection) -> Segment {
        let adjacent = (x.row == y.row && x.col.abs_diff(y.col) == 1)
            || (x.col == y.col && x.row.abs_diff(y.row) == 1);
        assert!(adjacent, "segment endpoints must be adjacent: {x} {y}");
        if x <= y {
            Segment { a: x, b: y }
        } else {
            Segment { a: y, b: x }
        }
    }

    /// The viability label for this segment, e.g. `viable/3_4-3_5`.
    pub fn label(&self) -> Label {
        Label::new(format!(
            "viable/{}_{}-{}_{}",
            self.a.row, self.a.col, self.b.row, self.b.col
        ))
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.a, self.b)
    }
}

/// A route: a sequence of adjacent intersections.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Route {
    intersections: Vec<Intersection>,
}

impl Route {
    /// Builds a route from a walk of intersections.
    ///
    /// # Panics
    ///
    /// Panics if consecutive intersections are not adjacent or fewer than 2
    /// intersections are supplied.
    pub fn new(intersections: Vec<Intersection>) -> Route {
        assert!(intersections.len() >= 2, "a route needs at least 2 points");
        for w in intersections.windows(2) {
            let _ = Segment::new(w[0], w[1]); // validates adjacency
        }
        Route { intersections }
    }

    /// The intersections along the route.
    pub fn intersections(&self) -> &[Intersection] {
        &self.intersections
    }

    /// The route's segments, in travel order.
    pub fn segments(&self) -> Vec<Segment> {
        self.intersections
            .windows(2)
            .map(|w| Segment::new(w[0], w[1]))
            .collect()
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.intersections.len() - 1
    }

    /// Routes always have at least one segment.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Origin intersection.
    pub fn origin(&self) -> Intersection {
        self.intersections[0]
    }

    /// Destination intersection.
    #[expect(
        clippy::expect_used,
        reason = "Route::new rejects routes with < 2 intersections"
    )]
    pub fn destination(&self) -> Intersection {
        *self.intersections.last().expect("non-empty")
    }
}

/// An `rows × cols` lattice of intersections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoadGrid {
    /// Intersection rows.
    pub rows: usize,
    /// Intersection columns.
    pub cols: usize,
}

impl RoadGrid {
    /// Creates a grid.
    ///
    /// # Panics
    ///
    /// Panics unless both dimensions are at least 2 (otherwise there are no
    /// segments).
    pub fn new(rows: usize, cols: usize) -> RoadGrid {
        assert!(
            rows >= 2 && cols >= 2,
            "grid needs at least 2×2 intersections"
        );
        RoadGrid { rows, cols }
    }

    /// The paper's 8 × 8 configuration.
    pub fn paper() -> RoadGrid {
        RoadGrid::new(8, 8)
    }

    /// All intersections, row-major.
    pub fn intersections(&self) -> impl Iterator<Item = Intersection> + '_ {
        let cols = self.cols;
        (0..self.rows).flat_map(move |row| (0..cols).map(move |col| Intersection { row, col }))
    }

    /// All segments (horizontal then vertical), in normalized order.
    pub fn segments(&self) -> Vec<Segment> {
        let mut out = Vec::new();
        for row in 0..self.rows {
            for col in 0..self.cols {
                let here = Intersection { row, col };
                if col + 1 < self.cols {
                    out.push(Segment::new(here, Intersection { row, col: col + 1 }));
                }
                if row + 1 < self.rows {
                    out.push(Segment::new(here, Intersection { row: row + 1, col }));
                }
            }
        }
        out
    }

    /// Neighbors of an intersection.
    pub fn neighbors(&self, i: Intersection) -> Vec<Intersection> {
        let mut out = Vec::with_capacity(4);
        if i.row > 0 {
            out.push(Intersection {
                row: i.row - 1,
                col: i.col,
            });
        }
        if i.row + 1 < self.rows {
            out.push(Intersection {
                row: i.row + 1,
                col: i.col,
            });
        }
        if i.col > 0 {
            out.push(Intersection {
                row: i.row,
                col: i.col - 1,
            });
        }
        if i.col + 1 < self.cols {
            out.push(Intersection {
                row: i.row,
                col: i.col + 1,
            });
        }
        out
    }

    /// Segments incident to an intersection — a camera at `i` can examine
    /// exactly these ("each node's data can be used to examine the node's
    /// immediate surrounding segments", §VII).
    pub fn incident_segments(&self, i: Intersection) -> Vec<Segment> {
        self.neighbors(i)
            .into_iter()
            .map(|n| Segment::new(i, n))
            .collect()
    }

    /// Manhattan distance between intersections.
    pub fn distance(&self, a: Intersection, b: Intersection) -> usize {
        a.row.abs_diff(b.row) + a.col.abs_diff(b.col)
    }

    /// Whether the intersection lies on this grid.
    pub fn contains(&self, i: Intersection) -> bool {
        i.row < self.rows && i.col < self.cols
    }

    /// Generates up to `k` *distinct* candidate routes from `origin` to
    /// `dest` by shortest-path search under randomly perturbed edge weights
    /// (each attempt draws fresh weights from `rng`). This mirrors the
    /// paper's "five candidate routes … computed and randomly selected from
    /// the underlying road segment network".
    ///
    /// # Panics
    ///
    /// Panics if `origin == dest` or either endpoint is off-grid.
    pub fn candidate_routes<R: Rng>(
        &self,
        origin: Intersection,
        dest: Intersection,
        k: usize,
        rng: &mut R,
    ) -> Vec<Route> {
        assert!(
            self.contains(origin) && self.contains(dest),
            "off-grid endpoint"
        );
        assert_ne!(origin, dest, "origin and destination must differ");
        let mut routes: Vec<Route> = Vec::new();
        let attempts = k * 6;
        for _ in 0..attempts {
            if routes.len() >= k {
                break;
            }
            let route = self.random_weight_shortest_path(origin, dest, rng);
            if !routes.contains(&route) {
                routes.push(route);
            }
        }
        routes
    }

    fn random_weight_shortest_path<R: Rng>(
        &self,
        origin: Intersection,
        dest: Intersection,
        rng: &mut R,
    ) -> Route {
        // Dijkstra with random edge weights in [1, 100].
        let mut weights: BTreeMap<(Intersection, Intersection), u64> = BTreeMap::new();
        for seg in self.segments() {
            let w = rng.gen_range(1..=100u64);
            weights.insert((seg.a, seg.b), w);
            weights.insert((seg.b, seg.a), w);
        }
        let mut dist: BTreeMap<Intersection, u64> = BTreeMap::new();
        let mut prev: BTreeMap<Intersection, Intersection> = BTreeMap::new();
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, Intersection)>> = BinaryHeap::new();
        dist.insert(origin, 0);
        heap.push(std::cmp::Reverse((0, origin)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if u == dest {
                break;
            }
            if dist.get(&u).copied().unwrap_or(u64::MAX) < d {
                continue;
            }
            let mut nbrs = self.neighbors(u);
            nbrs.shuffle(rng);
            for v in nbrs {
                let w = weights[&(u, v)];
                let nd = d + w;
                if nd < dist.get(&v).copied().unwrap_or(u64::MAX) {
                    dist.insert(v, nd);
                    prev.insert(v, u);
                    heap.push(std::cmp::Reverse((nd, v)));
                }
            }
        }
        // Reconstruct.
        let mut path = vec![dest];
        let mut cur = dest;
        while cur != origin {
            cur = prev[&cur];
            path.push(cur);
        }
        path.reverse();
        Route::new(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn i(row: usize, col: usize) -> Intersection {
        Intersection { row, col }
    }

    #[test]
    fn paper_grid_counts() {
        let g = RoadGrid::paper();
        assert_eq!(g.intersections().count(), 64);
        // 8×7 horizontal + 7×8 vertical = 112 segments.
        assert_eq!(g.segments().len(), 112);
    }

    #[test]
    fn segment_normalization_and_label() {
        let s1 = Segment::new(i(1, 2), i(1, 3));
        let s2 = Segment::new(i(1, 3), i(1, 2));
        assert_eq!(s1, s2);
        assert_eq!(s1.label().as_str(), "viable/1_2-1_3");
        assert_eq!(s1.to_string(), "(1,2)-(1,3)");
    }

    #[test]
    #[should_panic(expected = "adjacent")]
    fn diagonal_segment_rejected() {
        let _ = Segment::new(i(0, 0), i(1, 1));
    }

    #[test]
    fn neighbors_respect_boundaries() {
        let g = RoadGrid::new(3, 3);
        assert_eq!(g.neighbors(i(0, 0)).len(), 2);
        assert_eq!(g.neighbors(i(1, 1)).len(), 4);
        assert_eq!(g.neighbors(i(0, 1)).len(), 3);
        assert_eq!(g.incident_segments(i(1, 1)).len(), 4);
    }

    #[test]
    fn route_segments_and_endpoints() {
        let r = Route::new(vec![i(0, 0), i(0, 1), i(1, 1)]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.origin(), i(0, 0));
        assert_eq!(r.destination(), i(1, 1));
        let segs = r.segments();
        assert_eq!(segs[0], Segment::new(i(0, 0), i(0, 1)));
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn trivial_route_rejected() {
        let _ = Route::new(vec![i(0, 0)]);
    }

    #[test]
    fn candidate_routes_distinct_and_valid() {
        let g = RoadGrid::paper();
        let mut rng = SmallRng::seed_from_u64(7);
        let routes = g.candidate_routes(i(0, 0), i(7, 7), 5, &mut rng);
        assert_eq!(routes.len(), 5);
        for r in &routes {
            assert_eq!(r.origin(), i(0, 0));
            assert_eq!(r.destination(), i(7, 7));
            assert!(r.len() >= 14); // at least the Manhattan distance
        }
        // All distinct.
        for (x, a) in routes.iter().enumerate() {
            for b in routes.iter().skip(x + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn candidate_routes_deterministic_per_seed() {
        let g = RoadGrid::new(4, 4);
        let r1 = g.candidate_routes(i(0, 0), i(3, 3), 3, &mut SmallRng::seed_from_u64(9));
        let r2 = g.candidate_routes(i(0, 0), i(3, 3), 3, &mut SmallRng::seed_from_u64(9));
        assert_eq!(r1, r2);
    }

    #[test]
    fn adjacent_endpoints_one_segment_route() {
        let g = RoadGrid::new(2, 2);
        let mut rng = SmallRng::seed_from_u64(1);
        let routes = g.candidate_routes(i(0, 0), i(0, 1), 5, &mut rng);
        assert!(!routes.is_empty());
        assert!(routes.iter().any(|r| r.len() == 1));
    }

    proptest! {
        /// Every generated route is a valid simple-ish walk from origin to
        /// destination whose segments all lie on the grid.
        #[test]
        fn routes_are_valid_walks(seed in 0u64..30) {
            let g = RoadGrid::new(5, 5);
            let mut rng = SmallRng::seed_from_u64(seed);
            let routes = g.candidate_routes(i(0, 0), i(4, 4), 4, &mut rng);
            prop_assert!(!routes.is_empty());
            let all_segments = g.segments();
            for r in &routes {
                for s in r.segments() {
                    prop_assert!(all_segments.contains(&s));
                }
                // Dijkstra paths never repeat an intersection.
                let mut seen = r.intersections().to_vec();
                seen.sort();
                seen.dedup();
                prop_assert_eq!(seen.len(), r.intersections().len());
            }
        }
    }
}
