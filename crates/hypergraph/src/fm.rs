//! Two-way Fiduccia–Mattheyses refinement and greedy initial bisection.
//!
//! The FM pass moves vertices between the two sides in best-gain-first
//! order, allowing negative-gain moves to escape local minima, then rolls
//! back to the best prefix seen. Balance is enforced against
//! per-constraint side limits (the multi-constraint mechanism that
//! implements the paper's time-balancing quantiles).
//!
//! # Move order
//!
//! Each step moves the unlocked vertex with the highest `(gain, -id)` among
//! those `Bisection::move_allowed` permits in the current state; the pass
//! ends when no unlocked vertex may move. Finding that vertex cheaply is
//! the whole cost of a pass, and [`refine`] does it without a lazy heap:
//!
//! * **Weight classes.** Whether a move is allowed depends only on the
//!   vertex's side, its weight vector and the current side weights. So
//!   vertices with identical weight vectors form one class (numbered once
//!   per call, in vertex order), and one `move_allowed` check answers for
//!   every vertex of a (side, class) group.
//! * **Grouped ordered selection.** Each (side, class) group keeps its
//!   unlocked vertices in an ordered set keyed `(Reverse(gain), id)`, and a
//!   second ordered set holds every non-empty group's head. A step walks
//!   the heads in key order and takes the first allowed one. That is
//!   exactly the best allowed vertex: the best allowed vertex of an allowed
//!   group is its head, and a blocked group has no allowed vertex. A
//!   blocked vertex simply stays in its set, so nothing is ever popped and
//!   re-pushed.
//! * **Incremental gains.** When `v` moves, the gain change of every other
//!   pin of each net of `v` follows from the net's pin counts before the
//!   move (the classic FM update), so no gain is recomputed from scratch.
//!
//! Ties, blocked vertices and the end of a pass therefore resolve exactly
//! as in a heap that pops `(gain, -id)` and re-offers every blocked vertex
//! after each move; the unit tests check this against such a reference.

use crate::Hypergraph;
use rand::rngs::SmallRng;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

/// Per-constraint side capacity: `limits[k][s]` is the maximum total
/// weight of constraint `k` allowed on side `s`.
pub type SideLimits = Vec<[u64; 2]>;

/// Computes side limits for a bisection where side 0 targets fraction
/// `frac` of every constraint, with `epsilon` slack plus one max vertex
/// weight of headroom (so a single heavy vertex can never wedge the
/// refinement).
pub fn side_limits(hg: &Hypergraph, frac: f64, epsilon: f64) -> SideLimits {
    let c = hg.num_constraints();
    let totals = hg.total_weights();
    let mut max_vw = vec![0u64; c];
    for v in 0..hg.num_vertices() {
        for (k, m) in max_vw.iter_mut().enumerate() {
            *m = (*m).max(hg.vertex_weight(v, k));
        }
    }
    (0..c)
        .map(|k| {
            let t = totals[k] as f64;
            let l0 = (t * frac * (1.0 + epsilon)).ceil() as u64 + max_vw[k];
            let l1 = (t * (1.0 - frac) * (1.0 + epsilon)).ceil() as u64 + max_vw[k];
            [l0, l1]
        })
        .collect()
}

/// State of a 2-way partition under refinement.
#[derive(Debug, Clone)]
pub struct Bisection {
    /// Side (0/1) of each vertex.
    pub side: Vec<u8>,
    /// Connectivity cut of the current assignment (for 2 ways this equals
    /// the plain cut: each cut net counts its weight once).
    pub cut: u64,
    /// Per-side weight for each constraint: `weights[k][s]`.
    pub weights: Vec<[u64; 2]>,
    /// `pins_on[e][s]` = pins of net `e` on side `s`.
    pins_on: Vec<[u32; 2]>,
}

impl Bisection {
    /// Builds bisection state from an assignment.
    ///
    /// # Panics
    ///
    /// Panics if `side.len() != hg.num_vertices()`.
    pub fn new(hg: &Hypergraph, side: Vec<u8>) -> Self {
        assert_eq!(side.len(), hg.num_vertices(), "assignment size mismatch");
        let c = hg.num_constraints();
        let mut weights = vec![[0u64; 2]; c];
        for (v, &s) in side.iter().enumerate() {
            for (k, w) in weights.iter_mut().enumerate() {
                w[s as usize] += hg.vertex_weight(v, k);
            }
        }
        let mut pins_on = vec![[0u32; 2]; hg.num_nets()];
        let mut cut = 0u64;
        #[allow(clippy::needless_range_loop)] // index used across several structures
        for e in 0..hg.num_nets() {
            for &p in hg.pins(e) {
                pins_on[e][side[p] as usize] += 1;
            }
            if pins_on[e][0] > 0 && pins_on[e][1] > 0 {
                cut += hg.net_weight(e);
            }
        }
        Bisection {
            side,
            cut,
            weights,
            pins_on,
        }
    }

    /// FM gain of moving vertex `v` to the other side: positive gains
    /// reduce the cut.
    fn gain(&self, hg: &Hypergraph, v: usize) -> i64 {
        let from = self.side[v] as usize;
        let to = 1 - from;
        let mut g = 0i64;
        for &e in hg.nets_of(v) {
            let w = hg.net_weight(e) as i64;
            if self.pins_on[e][from] == 1 {
                g += w; // net becomes uncut
            }
            if self.pins_on[e][to] == 0 {
                g -= w; // net becomes cut
            }
        }
        g
    }

    /// Total weight by which any side exceeds any constraint limit.
    pub fn overflow(&self, limits: &SideLimits) -> u64 {
        self.weights
            .iter()
            .zip(limits)
            .map(|(w, l)| w[0].saturating_sub(l[0]) + w[1].saturating_sub(l[1]))
            .sum()
    }

    /// Whether moving `v` is allowed: either the destination stays within
    /// every limit, or the partition is currently over-limit and the move
    /// does not increase total overflow (balance repair).
    fn move_allowed(&self, hg: &Hypergraph, v: usize, limits: &SideLimits) -> bool {
        let from = self.side[v] as usize;
        let to = 1 - from;
        let mut over_before = 0u64;
        let mut over_after = 0u64;
        let mut dest_fits = true;
        for (k, w) in self.weights.iter().enumerate() {
            let vw = hg.vertex_weight(v, k);
            let l = limits[k];
            over_before += w[from].saturating_sub(l[from]) + w[to].saturating_sub(l[to]);
            let nf = w[from] - vw;
            let nt = w[to] + vw;
            over_after += nf.saturating_sub(l[from]) + nt.saturating_sub(l[to]);
            if nt > l[to] {
                dest_fits = false;
            }
        }
        if over_before == 0 {
            dest_fits
        } else {
            over_after <= over_before
        }
    }

    /// Applies the move of `v`, updating cut, weights and pin counts.
    fn apply_move(&mut self, hg: &Hypergraph, v: usize) {
        let from = self.side[v] as usize;
        let to = 1 - from;
        for &e in hg.nets_of(v) {
            let w = hg.net_weight(e);
            let [bf, bt] = [self.pins_on[e][from], self.pins_on[e][to]];
            self.pins_on[e][from] = bf - 1;
            self.pins_on[e][to] = bt + 1;
            if bt == 0 && bf > 1 {
                self.cut += w; // net becomes cut
            }
            if bf == 1 && bt > 0 {
                self.cut -= w; // net becomes uncut
            }
        }
        for (k, w) in self.weights.iter_mut().enumerate() {
            let vw = hg.vertex_weight(v, k);
            w[from] -= vw;
            w[to] += vw;
        }
        self.side[v] = to as u8;
    }

    /// Adds to `delta` the gain change that moving `v` causes for every
    /// other unlocked pin of its nets, pushing each pin onto `touched` the
    /// first time it changes (a pin's changes all have its side's sign, so
    /// they never cancel back to zero). Must run before
    /// [`Bisection::apply_move`] moves `v`: the change follows from each
    /// net's pin counts before the move.
    fn gain_deltas(
        &self,
        hg: &Hypergraph,
        v: usize,
        locked: &[bool],
        delta: &mut [i64],
        touched: &mut Vec<usize>,
    ) {
        let from = self.side[v];
        for &e in hg.nets_of(v) {
            let w = hg.net_weight(e) as i64;
            let [bf, bt] = [
                self.pins_on[e][from as usize],
                self.pins_on[e][1 - from as usize],
            ];
            // A `from` pin gains `w` when `to` gets its first pin (moving
            // the pin no longer cuts the net) and when it becomes the last
            // `from` pin (moving it now uncuts the net). A `to` pin loses `w`
            // when it stops being the only `to` pin and when `from` empties.
            let d_from = w * (i64::from(bt == 0) + i64::from(bf == 2));
            let d_to = -w * (i64::from(bt == 1) + i64::from(bf == 1));
            if d_from == 0 && d_to == 0 {
                continue;
            }
            for &u in hg.pins(e) {
                if locked[u] {
                    continue;
                }
                let d = if self.side[u] == from { d_from } else { d_to };
                if d != 0 {
                    if delta[u] == 0 {
                        touched.push(u);
                    }
                    delta[u] += d;
                }
            }
        }
    }
}

/// Numbers the distinct vertex weight vectors in order of first
/// appearance: `class_of[v]` and the class count.
fn weight_classes(hg: &Hypergraph) -> (Vec<usize>, usize) {
    let mut ids: BTreeMap<&[u64], usize> = BTreeMap::new();
    let class_of = (0..hg.num_vertices())
        .map(|v| {
            let next = ids.len();
            *ids.entry(hg.vertex_weights(v)).or_insert(next)
        })
        .collect();
    (class_of, ids.len())
}

/// Queue key of a vertex: ascending order is best-gain-first, then
/// lowest id.
type Key = (Reverse<i64>, usize);

/// Unlocked vertices of one FM pass, grouped by (class, side) and ordered
/// by [`Key`] inside each group, plus the ordered set of group heads.
struct MoveQueue {
    group_of: Vec<usize>,
    groups: Vec<BTreeSet<Key>>,
    heads: BTreeSet<Key>,
}

impl MoveQueue {
    /// Queues every vertex `v` with gain `gain_of[v]` in group
    /// `group_of[v] < num_groups`.
    fn new(group_of: Vec<usize>, num_groups: usize, gain_of: &[i64]) -> Self {
        let mut keys = vec![Vec::new(); num_groups];
        for (v, &g) in gain_of.iter().enumerate() {
            keys[group_of[v]].push((Reverse(g), v));
        }
        let groups: Vec<BTreeSet<_>> = keys.into_iter().map(BTreeSet::from_iter).collect();
        let heads = groups.iter().filter_map(|s| s.first().copied()).collect();
        MoveQueue {
            group_of,
            groups,
            heads,
        }
    }

    /// Removes `key` from its group, or re-keys it to `new` if given,
    /// keeping the head set in step with the group's first element.
    fn update(&mut self, key: Key, new: Option<Key>) {
        let set = &mut self.groups[self.group_of[key.1]];
        let old_head = set.first().copied();
        set.remove(&key);
        if let Some(new) = new {
            set.insert(new);
        }
        let new_head = set.first().copied();
        if old_head != new_head {
            if let Some(h) = old_head {
                self.heads.remove(&h);
            }
            if let Some(h) = new_head {
                self.heads.insert(h);
            }
        }
    }
}

/// Runs `passes` FM passes, mutating `bis` in place. Returns the final cut.
pub fn refine(hg: &Hypergraph, bis: &mut Bisection, limits: &SideLimits, passes: usize) -> u64 {
    let n = hg.num_vertices();
    let (class_of, num_classes) = weight_classes(hg);
    let mut gain_of = vec![0i64; n];
    let mut delta = vec![0i64; n];
    let mut touched: Vec<usize> = Vec::new();

    for _ in 0..passes {
        // Best prefix minimizes (overflow, cut) lexicographically, so the
        // pass both repairs balance violations and improves the cut.
        let start_key = (bis.overflow(limits), bis.cut);
        let mut locked = vec![false; n];
        for (v, g) in gain_of.iter_mut().enumerate() {
            *g = bis.gain(hg, v);
        }
        // A vertex keeps its side, and so its group, until it moves and locks.
        let group_of = (0..n)
            .map(|v| 2 * class_of[v] + bis.side[v] as usize)
            .collect();
        let mut queue = MoveQueue::new(group_of, 2 * num_classes, &gain_of);

        // Move log for rollback.
        let mut log: Vec<usize> = Vec::new();
        let mut best_key = start_key;
        let mut best_len = 0usize;

        while let Some(&(Reverse(g), v)) = queue
            .heads
            .iter()
            .find(|&&(_, v)| bis.move_allowed(hg, v, limits))
        {
            debug_assert_eq!(g, bis.gain(hg, v));
            queue.update((Reverse(g), v), None);
            locked[v] = true;
            bis.gain_deltas(hg, v, &locked, &mut delta, &mut touched);
            bis.apply_move(hg, v);
            log.push(v);
            let key = (bis.overflow(limits), bis.cut);
            if key < best_key {
                best_key = key;
                best_len = log.len();
            }
            for u in touched.drain(..) {
                let old = (Reverse(gain_of[u]), u);
                gain_of[u] += std::mem::take(&mut delta[u]);
                queue.update(old, Some((Reverse(gain_of[u]), u)));
            }
        }

        // Roll back to the best prefix.
        while log.len() > best_len {
            // azul-lint: allow(unwrap-in-pipeline) loop guard: log.len() > best_len >= 0
            let v = log.pop().unwrap();
            bis.apply_move(hg, v);
        }
        debug_assert_eq!((bis.overflow(limits), bis.cut), best_key);
        if best_key >= start_key {
            break; // no improvement this pass
        }
    }
    bis.cut
}

/// Greedy BFS-grown initial bisection targeting fraction `frac` of
/// constraint-0 weight on side 0.
pub fn initial_bisect(hg: &Hypergraph, frac: f64, rng: &mut SmallRng) -> Vec<u8> {
    let n = hg.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let total0: u64 = (0..n).map(|v| hg.vertex_weight(v, 0)).sum();
    let target0 = (total0 as f64 * frac) as u64;

    let mut side = vec![1u8; n];
    let mut w0 = 0u64;
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    let start = rng.gen_range(0..n);
    queue.push_back(start);
    visited[start] = true;
    let mut scan = 0usize; // fallback cursor for disconnected graphs

    while w0 < target0 {
        let v = match queue.pop_front() {
            Some(v) => v,
            None => {
                // Jump to the next unvisited vertex.
                while scan < n && visited[scan] {
                    scan += 1;
                }
                if scan >= n {
                    break;
                }
                visited[scan] = true;
                scan
            }
        };
        side[v] = 0;
        w0 += hg.vertex_weight(v, 0);
        for &e in hg.nets_of(v) {
            let pins = hg.pins(e);
            if pins.len() > 256 {
                continue; // huge nets give no locality signal
            }
            for &u in pins {
                if !visited[u] {
                    visited[u] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    side
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;
    use rand::SeedableRng;
    use std::collections::BinaryHeap;

    /// Two dense clusters of 8 vertices joined by one bridge net.
    fn two_clusters() -> Hypergraph {
        let mut b = HypergraphBuilder::new(1);
        for _ in 0..16 {
            b.add_vertex(&[1]);
        }
        for cluster in 0..2 {
            let base = cluster * 8;
            for i in 0..8 {
                for j in (i + 1)..8 {
                    b.add_net(1, &[base + i, base + j]).unwrap();
                }
            }
        }
        b.add_net(1, &[7, 8]).unwrap(); // bridge
        b.finalize().unwrap()
    }

    #[test]
    fn fm_finds_the_bridge_cut() {
        let hg = two_clusters();
        let mut rng = SmallRng::seed_from_u64(11);
        let limits = side_limits(&hg, 0.5, 0.1);
        let mut best = u64::MAX;
        for _ in 0..4 {
            let side = initial_bisect(&hg, 0.5, &mut rng);
            let mut bis = Bisection::new(&hg, side);
            refine(&hg, &mut bis, &limits, 3);
            best = best.min(bis.cut);
        }
        assert_eq!(best, 1, "optimal cut is the single bridge net");
    }

    #[test]
    fn bisection_state_counts_cut_correctly() {
        let mut b = HypergraphBuilder::new(1);
        for _ in 0..4 {
            b.add_vertex(&[1]);
        }
        b.add_net(5, &[0, 1]).unwrap();
        b.add_net(3, &[1, 2]).unwrap();
        b.add_net(2, &[2, 3]).unwrap();
        let hg = b.finalize().unwrap();
        let bis = Bisection::new(&hg, vec![0, 0, 1, 1]);
        assert_eq!(bis.cut, 3);
        assert_eq!(bis.weights[0], [2, 2]);
    }

    #[test]
    fn gains_match_cut_deltas() {
        let hg = two_clusters();
        let mut rng = SmallRng::seed_from_u64(3);
        let side = initial_bisect(&hg, 0.5, &mut rng);
        let bis = Bisection::new(&hg, side.clone());
        for v in 0..hg.num_vertices() {
            let g = bis.gain(&hg, v);
            let mut test = bis.clone();
            let before = test.cut;
            test.apply_move(&hg, v);
            assert_eq!(
                before as i64 - test.cut as i64,
                g,
                "gain mismatch for vertex {v}"
            );
        }
    }

    #[test]
    fn move_is_involutive() {
        let hg = two_clusters();
        let bis0 = Bisection::new(&hg, vec![0; 16]);
        let mut bis = bis0.clone();
        bis.apply_move(&hg, 3);
        bis.apply_move(&hg, 3);
        assert_eq!(bis.cut, bis0.cut);
        assert_eq!(bis.side, bis0.side);
        assert_eq!(bis.weights, bis0.weights);
    }

    #[test]
    fn refinement_respects_limits() {
        let hg = two_clusters();
        let limits = side_limits(&hg, 0.5, 0.1);
        let mut rng = SmallRng::seed_from_u64(7);
        let side = initial_bisect(&hg, 0.5, &mut rng);
        let mut bis = Bisection::new(&hg, side);
        refine(&hg, &mut bis, &limits, 3);
        for (k, w) in bis.weights.iter().enumerate() {
            assert!(w[0] <= limits[k][0], "side 0 over limit");
            assert!(w[1] <= limits[k][1], "side 1 over limit");
        }
    }

    #[test]
    fn initial_bisect_hits_target_fraction() {
        let hg = two_clusters();
        let mut rng = SmallRng::seed_from_u64(9);
        let side = initial_bisect(&hg, 0.5, &mut rng);
        let w0 = side.iter().filter(|&&s| s == 0).count();
        assert!((6..=10).contains(&w0), "side 0 has {w0} of 16");
    }

    /// The lazy-heap FM pass this module used to ship, kept verbatim as the
    /// oracle for [`refine`]: each step pops the best `(gain, -id)` entry,
    /// parks balance-blocked vertices in `deferred` and re-pushes all of
    /// them with fresh gains after every accepted move.
    fn reference_refine(
        hg: &Hypergraph,
        bis: &mut Bisection,
        limits: &SideLimits,
        passes: usize,
    ) -> u64 {
        let n = hg.num_vertices();
        let mut version = vec![0u32; n];
        let mut crossed: Vec<usize> = Vec::new();

        for _ in 0..passes {
            let start_key = (bis.overflow(limits), bis.cut);
            let mut locked = vec![false; n];
            let mut heap: BinaryHeap<(i64, Reverse<usize>, u32)> = BinaryHeap::new();
            #[allow(clippy::needless_range_loop)]
            for v in 0..n {
                version[v] = version[v].wrapping_add(1);
                heap.push((bis.gain(hg, v), Reverse(v), version[v]));
            }

            let mut log: Vec<usize> = Vec::new();
            let mut best_key = start_key;
            let mut best_len = 0usize;
            let mut deferred: Vec<usize> = Vec::new();

            while let Some((g, Reverse(v), stamp)) = heap.pop() {
                if locked[v] || stamp != version[v] {
                    continue;
                }
                assert_eq!(g, bis.gain(hg, v));
                if !bis.move_allowed(hg, v, limits) {
                    deferred.push(v);
                    continue;
                }
                reference_apply_move(bis, hg, v, &mut crossed);
                locked[v] = true;
                log.push(v);
                let key = (bis.overflow(limits), bis.cut);
                if key < best_key {
                    best_key = key;
                    best_len = log.len();
                }
                for &e in &crossed {
                    for &u in hg.pins(e) {
                        if !locked[u] {
                            version[u] = version[u].wrapping_add(1);
                            heap.push((bis.gain(hg, u), Reverse(u), version[u]));
                        }
                    }
                }
                for u in deferred.drain(..) {
                    if !locked[u] {
                        version[u] = version[u].wrapping_add(1);
                        heap.push((bis.gain(hg, u), Reverse(u), version[u]));
                    }
                }
            }

            while log.len() > best_len {
                let v = log.pop().unwrap();
                reference_apply_move(bis, hg, v, &mut crossed);
            }
            assert_eq!((bis.overflow(limits), bis.cut), best_key);
            if best_key >= start_key {
                break;
            }
        }
        bis.cut
    }

    /// The move the reference pass applies: updates cut, weights and pin
    /// counts, and reports the nets whose side counts crossed a
    /// gain-relevant threshold.
    fn reference_apply_move(
        bis: &mut Bisection,
        hg: &Hypergraph,
        v: usize,
        crossed: &mut Vec<usize>,
    ) {
        let from = bis.side[v] as usize;
        let to = 1 - from;
        crossed.clear();
        for &e in hg.nets_of(v) {
            let w = hg.net_weight(e);
            let before = bis.pins_on[e];
            bis.pins_on[e][from] -= 1;
            bis.pins_on[e][to] += 1;
            let after = bis.pins_on[e];
            if before[to] == 0 && after[to] > 0 && after[from] > 0 {
                bis.cut += w;
            }
            if before[from] > 0 && after[from] == 0 && before[to] > 0 {
                bis.cut -= w;
            }
            if before[from] <= 2 || before[to] <= 1 {
                crossed.push(e);
            }
        }
        for (k, w) in bis.weights.iter_mut().enumerate() {
            let vw = hg.vertex_weight(v, k);
            w[from] -= vw;
            w[to] += vw;
        }
        bis.side[v] = to as u8;
    }

    /// A random multi-constraint hypergraph: 1–6 constraints, vertex
    /// weights 0–3 drawn partly from a small palette (so weight vectors
    /// repeat), net weights 1–3, mostly small nets plus a few wide ones.
    fn random_hypergraph(rng: &mut SmallRng) -> Hypergraph {
        let c = rng.gen_range(1..=6usize);
        let n = rng.gen_range(1..=60usize);
        let palette: Vec<Vec<u64>> = (0..rng.gen_range(1..=4usize))
            .map(|_| (0..c).map(|_| rng.gen_range(0..=3u64)).collect())
            .collect();
        let mut b = HypergraphBuilder::new(c);
        for _ in 0..n {
            let w: Vec<u64> = if rng.gen_bool(0.7) {
                palette[rng.gen_range(0..palette.len())].clone()
            } else {
                (0..c).map(|_| rng.gen_range(0..=3u64)).collect()
            };
            b.add_vertex(&w);
        }
        for _ in 0..rng.gen_range(0..=3 * n) {
            let size = if rng.gen_bool(0.1) {
                rng.gen_range(2..=n.max(2))
            } else {
                rng.gen_range(1..=4usize)
            };
            let pins: Vec<usize> = (0..size).map(|_| rng.gen_range(0..n)).collect();
            b.add_net(rng.gen_range(1..=3u64), &pins).unwrap();
        }
        b.finalize().unwrap()
    }

    #[test]
    fn refine_matches_lazy_heap_reference() {
        let mut rng = SmallRng::seed_from_u64(0xF3_2024);
        let mut over_limit_starts = 0usize;
        for case in 0..400 {
            let hg = random_hypergraph(&mut rng);
            let n = hg.num_vertices();
            let frac = [0.5, 1.0 / 3.0, 0.75][rng.gen_range(0..3usize)];
            let epsilon = [0.0, 0.02, 0.1][rng.gen_range(0..3usize)];
            let limits = side_limits(&hg, frac, epsilon);
            // A quarter of the starts pile (almost) everything on one side,
            // which usually breaks a limit and exercises balance repair.
            let side: Vec<u8> = if rng.gen_bool(0.25) {
                let heavy = rng.gen_range(0..=1u8);
                (0..n)
                    .map(|_| if rng.gen_bool(0.9) { heavy } else { 1 - heavy })
                    .collect()
            } else {
                (0..n).map(|_| rng.gen_range(0..=1u8)).collect()
            };
            let passes = rng.gen_range(1..=3usize);

            let start = Bisection::new(&hg, side);
            if start.overflow(&limits) > 0 {
                over_limit_starts += 1;
            }
            let mut expected = start.clone();
            let mut actual = start;
            let expected_cut = reference_refine(&hg, &mut expected, &limits, passes);
            let actual_cut = refine(&hg, &mut actual, &limits, passes);
            assert_eq!(actual_cut, expected_cut, "case {case}: returned cut");
            assert_eq!(actual.side, expected.side, "case {case}: sides");
            assert_eq!(actual.cut, expected.cut, "case {case}: cut");
            assert_eq!(actual.weights, expected.weights, "case {case}: weights");
        }
        assert!(
            over_limit_starts >= 40,
            "only {over_limit_starts} over-limit starts"
        );
    }

    #[test]
    fn side_limits_leave_headroom_for_heavy_vertices() {
        let mut b = HypergraphBuilder::new(1);
        b.add_vertex(&[100]);
        b.add_vertex(&[1]);
        b.add_net(1, &[0, 1]).unwrap();
        let hg = b.finalize().unwrap();
        let limits = side_limits(&hg, 0.5, 0.0);
        // The heavy vertex must fit on either side.
        assert!(limits[0][0] >= 100);
        assert!(limits[0][1] >= 100);
    }
}
