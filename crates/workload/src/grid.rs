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
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

    /// Neighbors of an intersection, in the order up, down, left, right.
    pub fn neighbors(&self, i: Intersection) -> Vec<Intersection> {
        let (out, len) = self.neighbor_array(i);
        out[..len].to_vec()
    }

    /// [`RoadGrid::neighbors`] without the allocation: the neighbours fill
    /// a prefix of the array, whose length is returned beside it.
    fn neighbor_array(&self, i: Intersection) -> ([Intersection; 4], usize) {
        let Intersection { row, col } = i;
        let mut out = [i; 4];
        let mut len = 0;
        for (on_grid, r, c) in [
            (row > 0, row.wrapping_sub(1), col),
            (row + 1 < self.rows, row + 1, col),
            (col > 0, row, col.wrapping_sub(1)),
            (col + 1 < self.cols, row, col + 1),
        ] {
            if on_grid {
                out[len] = Intersection { row: r, col: c };
                len += 1;
            }
        }
        (out, len)
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
    /// Every built scenario depends on the exact draws taken from `rng`, so
    /// a change here must keep them: per attempt, one `gen_range(1..=100)`
    /// weight per segment in [`RoadGrid::segments`] order, then one shuffle
    /// of each popped node's neighbours in [`RoadGrid::neighbors`] order, on
    /// a heap of `Reverse((distance, intersection))` that pops equal
    /// distances in intersection order.
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
        // Dijkstra with random edge weights in [1, 100], on arrays indexed by
        // `row * cols + col`. A segment's weight sits at its smaller
        // endpoint: in `east` if it runs to the right, in `south` if down.
        let at = |i: Intersection| i.row * self.cols + i.col;
        let n = self.rows * self.cols;
        let mut east = vec![0u64; n];
        let mut south = vec![0u64; n];
        for here in self.intersections() {
            if here.col + 1 < self.cols {
                east[at(here)] = rng.gen_range(1..=100u64);
            }
            if here.row + 1 < self.rows {
                south[at(here)] = rng.gen_range(1..=100u64);
            }
        }
        let weight = |u: Intersection, v: Intersection| {
            let table = if u.row == v.row { &east } else { &south };
            table[at(u.min(v))]
        };
        let mut dist = vec![u64::MAX; n];
        let mut prev = vec![origin; n];
        let mut heap = BinaryHeap::new();
        dist[at(origin)] = 0;
        heap.push(Reverse((0, origin)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if u == dest {
                break;
            }
            if dist[at(u)] < d {
                continue;
            }
            let (mut nbrs, len) = self.neighbor_array(u);
            nbrs[..len].shuffle(rng);
            for &v in &nbrs[..len] {
                let nd = d + weight(u, v);
                if nd < dist[at(v)] {
                    dist[at(v)] = nd;
                    prev[at(v)] = u;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        let mut path: Vec<Intersection> =
            std::iter::successors(Some(dest), |&v| (v != origin).then(|| prev[at(v)])).collect();
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
        for (rows, cols) in [(4, 4), (3, 9), (9, 3)] {
            let g = RoadGrid::new(rows, cols);
            let dest = i(rows - 1, cols - 1);
            let r1 = g.candidate_routes(i(0, 0), dest, 3, &mut SmallRng::seed_from_u64(9));
            let r2 = g.candidate_routes(i(0, 0), dest, 3, &mut SmallRng::seed_from_u64(9));
            assert!(!r1.is_empty());
            assert_eq!(r1, r2, "{rows} x {cols}");
        }
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
        /// Every generated route is a simple walk from origin to destination
        /// along grid segments, at least the Manhattan distance long, and
        /// the routes of one call are pairwise distinct, on grids whose
        /// rows and columns are drawn independently.
        #[test]
        fn routes_are_valid_walks(
            rows in 2usize..=10,
            cols in 2usize..=10,
            origin_pick in 0usize..100,
            dest_step in 0usize..100,
            seed in 0u64..1000,
        ) {
            let g = RoadGrid::new(rows, cols);
            let n = rows * cols;
            let at = |k: usize| i(k / cols, k % cols);
            let origin_k = origin_pick % n;
            let (origin, dest) = (at(origin_k), at((origin_k + 1 + dest_step % (n - 1)) % n));
            let mut rng = SmallRng::seed_from_u64(seed);
            let routes = g.candidate_routes(origin, dest, 4, &mut rng);
            prop_assert!(!routes.is_empty());
            let all_segments = g.segments();
            for r in &routes {
                prop_assert_eq!(r.origin(), origin);
                prop_assert_eq!(r.destination(), dest);
                prop_assert!(r.len() >= g.distance(origin, dest));
                for s in r.segments() {
                    prop_assert!(all_segments.contains(&s));
                }
                // Dijkstra paths never repeat an intersection.
                let mut seen = r.intersections().to_vec();
                seen.sort();
                seen.dedup();
                prop_assert_eq!(seen.len(), r.intersections().len());
            }
            for (x, a) in routes.iter().enumerate() {
                for b in routes.iter().skip(x + 1) {
                    prop_assert_ne!(a, b);
                }
            }
        }
    }
}
