//! Structural and behavioural analysis of Petri nets.
//!
//! Provides the incidence matrix, P- and T-invariants (via Farkas
//! elimination of the incidence matrix), conservation, behavioural
//! boundedness/safeness, and the liveness levels used when verifying the
//! compiled DOCPN presentation nets.

use std::cmp::Ordering;
use std::collections::HashSet;
use std::rc::Rc;

use serde::{Deserialize, Serialize};

use crate::error::Result;
use crate::marking::Marking;
use crate::net::{PetriNet, PlaceId, TransitionId};
use crate::reachability::{CoverabilityTree, ReachabilityGraph, ReachabilityLimits};

/// The incidence matrix `C[p][t] = O(t)(p) - I(t)(p)` of a net.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IncidenceMatrix {
    rows: usize,
    cols: usize,
    /// Row-major entries, one row per place, one column per transition.
    entries: Vec<i64>,
}

impl IncidenceMatrix {
    /// Computes the incidence matrix of a net.
    pub fn of(net: &PetriNet) -> Self {
        let rows = net.place_count();
        let cols = net.transition_count();
        let mut entries = vec![0i64; rows * cols];
        for t in net.transitions() {
            for arc in net.input_arcs(t) {
                entries[arc.place.0 * cols + t.0] -= arc.weight as i64;
            }
            for arc in net.output_arcs(t) {
                entries[arc.place.0 * cols + t.0] += arc.weight as i64;
            }
        }
        IncidenceMatrix {
            rows,
            cols,
            entries,
        }
    }

    /// Number of rows (places).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (transitions).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The entry for `(place, transition)`.
    pub fn entry(&self, p: PlaceId, t: TransitionId) -> i64 {
        self.entries[p.0 * self.cols + t.0]
    }

    /// Applies the state equation `M' = M + C·x` for a firing-count vector.
    ///
    /// Returns `None` when the result would be negative in some place (the
    /// firing-count vector is not realizable from `m` in any order — note the
    /// converse does not hold in general).
    pub fn apply(&self, m: &Marking, firing_counts: &[u64]) -> Option<Marking> {
        if firing_counts.len() != self.cols || m.len() != self.rows {
            return None;
        }
        let mut out = Vec::with_capacity(self.rows);
        for p in 0..self.rows {
            let mut v = m.tokens(PlaceId(p)) as i64;
            for (t, &count) in firing_counts.iter().enumerate() {
                v += self.entries[p * self.cols + t] * count as i64;
            }
            if v < 0 {
                return None;
            }
            out.push(v as u64);
        }
        Some(Marking::new(out))
    }

    /// Transposes the matrix (used to compute T-invariants from the same
    /// kernel routine as P-invariants).
    pub fn transpose(&self) -> IncidenceMatrix {
        let mut entries = vec![0i64; self.rows * self.cols];
        for r in 0..self.rows {
            for c in 0..self.cols {
                entries[c * self.rows + r] = self.entries[r * self.cols + c];
            }
        }
        IncidenceMatrix {
            rows: self.cols,
            cols: self.rows,
            entries,
        }
    }

    /// Runs the Farkas elimination on this matrix and returns the B part of
    /// every row left in its table, in table order, skipping zero rows.
    ///
    /// Each returned `y` is a non-negative integer vector with `yᵀ·C = 0`.
    /// The set is not minimal and, on nets whose table grows past
    /// [`FARKAS_ROW_CAP`] rows, not complete either: rows past the cap are
    /// dropped after every column. A combination whose entries overflow
    /// `i64` is dropped too. For P-invariants call on the matrix itself; for
    /// T-invariants call on the transpose.
    pub fn nonnegative_kernel(&self) -> Vec<Vec<u64>> {
        // Farkas algorithm: maintain a table [D | B], D initialised to C and
        // B to the identity; eliminate one column of D at a time by forming
        // non-negative combinations of rows with opposite signs. Each row is
        // one `D ‖ B` slice, shared between the ordered table and the set
        // that deduplicates it.
        let n = self.rows;
        let m = self.cols;
        let mut table: Vec<Rc<[i64]>> = (0..n)
            .map(|i| {
                let mut row = self.entries[i * m..(i + 1) * m].to_vec();
                row.resize(m + n, 0);
                row[m + i] = 1;
                row.into()
            })
            .collect();
        let mut combined = Vec::with_capacity(m + n);

        for col in 0..m {
            let mut next = Vec::new();
            let mut positives = Vec::new();
            let mut negatives = Vec::new();
            for row in table {
                match row[col].cmp(&0) {
                    Ordering::Equal => next.push(row),
                    Ordering::Greater => positives.push(row),
                    Ordering::Less => negatives.push(row),
                }
            }
            let mut seen: HashSet<Rc<[i64]>> = next.iter().cloned().collect();
            'combine: for p in &positives {
                for q in &negatives {
                    // Rows past the cap are truncated below, so stop making
                    // them.
                    if next.len() >= FARKAS_ROW_CAP {
                        break 'combine;
                    }
                    if combine(p, q, col, &mut combined) && !seen.contains(&combined[..]) {
                        let row: Rc<[i64]> = combined.as_slice().into();
                        seen.insert(Rc::clone(&row));
                        next.push(row);
                    }
                }
            }
            next.truncate(FARKAS_ROW_CAP);
            table = next;
        }

        let mut seen = HashSet::new();
        table
            .iter()
            .map(|row| &row[m..])
            .filter(|b| b.iter().any(|&x| x != 0) && seen.insert(*b))
            .map(|b| {
                b.iter()
                    .map(|&x| u64::try_from(x).expect("B rows are non-negative combinations"))
                    .collect()
            })
            .collect()
    }
}

/// Rows the Farkas table of [`IncidenceMatrix::nonnegative_kernel`] keeps
/// after each column; later rows are dropped. It bounds the elimination on
/// nets whose table grows combinatorially, and it is fixed: another value
/// changes which invariants are returned.
pub const FARKAS_ROW_CAP: usize = 4096;

/// Writes into `out` the combination of `p` (positive in `col`) and `q`
/// (negative in `col`) that cancels `col`, divided by the greatest common
/// divisor of all its entries so the D and B parts stay consistent.
///
/// Returns `false`, leaving `out` unspecified, when an entry overflows `i64`.
fn combine(p: &[i64], q: &[i64], col: usize, out: &mut Vec<i64>) -> bool {
    let (a, b) = (p[col].unsigned_abs(), q[col].unsigned_abs());
    let g = gcd(a, b);
    let (Ok(ca), Ok(cb)) = (i64::try_from(b / g), i64::try_from(a / g)) else {
        return false;
    };
    out.clear();
    let mut divisor = 0u64;
    for (&x, &y) in p.iter().zip(q) {
        let Some(v) = ca
            .checked_mul(x)
            .zip(cb.checked_mul(y))
            .and_then(|(x, y)| x.checked_add(y))
        else {
            return false;
        };
        if v != 0 && divisor != 1 {
            divisor = gcd(divisor, v.unsigned_abs());
        }
        out.push(v);
    }
    // `divisor` divides the B part, a non-zero non-negative `i64` vector, so
    // it fits in `i64`.
    if divisor > 1 {
        let divisor = divisor as i64;
        for v in out.iter_mut() {
            *v /= divisor;
        }
    }
    true
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a.max(1)
    } else {
        gcd(b, a % b)
    }
}

#[cfg_attr(not(test), allow(dead_code))]
fn normalize(v: Vec<i64>) -> Vec<i64> {
    let g = v
        .iter()
        .filter(|&&x| x != 0)
        .fold(0u64, |acc, &x| gcd(acc, x.unsigned_abs()));
    if g <= 1 {
        v
    } else {
        v.into_iter().map(|x| x / g as i64).collect()
    }
}

/// A weighted P-invariant: `yᵀ · C = 0`, so `yᵀ · M` is constant over all
/// reachable markings.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PInvariant {
    /// Weight per place.
    pub weights: Vec<u64>,
}

/// A T-invariant: `C · x = 0`, a firing-count vector returning the net to the
/// marking it started from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TInvariant {
    /// Firing count per transition.
    pub counts: Vec<u64>,
}

/// Liveness classification of a single transition (Murata's levels, collapsed
/// to the three the scheduler cares about).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Liveness {
    /// The transition can never fire from the initial marking (dead, L0).
    Dead,
    /// The transition can fire at least once (L1) but not from every
    /// reachable marking's future.
    QuasiLive,
    /// From every reachable marking there is a continuation firing the
    /// transition (L4-live within the explored graph).
    Live,
}

/// Summary report produced by [`analyze`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// Whether the net is bounded from the initial marking.
    pub bounded: bool,
    /// Whether every place bound is ≤ 1 (the net is safe).
    pub safe: bool,
    /// The behavioural bound of each place (valid when `bounded`).
    pub place_bounds: Vec<u64>,
    /// Per-transition liveness.
    pub liveness: Vec<Liveness>,
    /// Whether any reachable marking is dead.
    pub has_deadlock: bool,
    /// Number of reachable markings explored.
    pub state_count: usize,
    /// Whether the exploration covered the full state space.
    pub exploration_complete: bool,
    /// P-invariants found: every non-zero B row of the Farkas table of the
    /// incidence matrix, in table order, truncated at [`FARKAS_ROW_CAP`]
    /// rows (see [`IncidenceMatrix::nonnegative_kernel`]). Not a basis.
    pub p_invariants: Vec<PInvariant>,
    /// T-invariants found: the same rows for the transposed incidence
    /// matrix.
    pub t_invariants: Vec<TInvariant>,
    /// Whether the net is conservative (covered by a positive P-invariant).
    pub conservative: bool,
}

/// Runs the full structural + behavioural analysis from an initial marking.
///
/// # Errors
///
/// Returns an error when the marking does not match the net. A truncated
/// exploration is reported via [`AnalysisReport::exploration_complete`]
/// rather than as an error.
pub fn analyze(
    net: &PetriNet,
    initial: &Marking,
    limits: ReachabilityLimits,
) -> Result<AnalysisReport> {
    net.check_marking(initial)?;
    let cover = CoverabilityTree::build(net, initial, limits.max_states.max(1024));
    let bounded = match &cover {
        Ok(tree) => tree.is_bounded(),
        // If the coverability tree itself blew past the limit we
        // conservatively report unbounded-unknown as unbounded=false only if
        // reachability also truncates; use reachability below.
        Err(_) => false,
    };
    let graph = ReachabilityGraph::build(net, initial, limits)?;
    let place_bounds = graph.place_bounds();
    let safe = place_bounds.iter().all(|&b| b <= 1);
    let has_deadlock = !graph.deadlocks(net).is_empty();

    let liveness = classify_liveness(net, &graph);

    let inc = IncidenceMatrix::of(net);
    let p_invariants: Vec<PInvariant> = inc
        .nonnegative_kernel()
        .into_iter()
        .map(|weights| PInvariant { weights })
        .collect();
    let t_invariants: Vec<TInvariant> = inc
        .transpose()
        .nonnegative_kernel()
        .into_iter()
        .map(|counts| TInvariant { counts })
        .collect();
    let conservative = {
        // Conservative iff some combination of P-invariants covers every
        // place with a positive weight; approximate by the component-wise sum.
        let mut covered = vec![false; net.place_count()];
        for inv in &p_invariants {
            for (i, &w) in inv.weights.iter().enumerate() {
                if w > 0 {
                    covered[i] = true;
                }
            }
        }
        !p_invariants.is_empty() && covered.iter().all(|&c| c)
    };

    Ok(AnalysisReport {
        bounded: bounded && graph.is_complete(),
        safe,
        place_bounds,
        liveness,
        has_deadlock,
        state_count: graph.state_count(),
        exploration_complete: graph.is_complete(),
        p_invariants,
        t_invariants,
        conservative,
    })
}

/// Classifies the liveness of every transition with respect to the explored
/// reachability graph.
pub fn classify_liveness(net: &PetriNet, graph: &ReachabilityGraph) -> Vec<Liveness> {
    let tc = net.transition_count();
    let fireable = graph.fireable_transitions(tc);
    // For "Live": from every reachable marking, the transition must be
    // fireable somewhere in that marking's forward closure. Compute, per
    // transition, the set of graph nodes that can reach an edge labelled t
    // (backwards closure over edges), then check it covers all nodes.
    let n = graph.state_count();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in graph.edges() {
        preds[e.to].push(e.from);
    }
    (0..tc)
        .map(|ti| {
            if !fireable[ti] {
                return Liveness::Dead;
            }
            // Seed: nodes with an outgoing edge labelled ti.
            let mut can_reach = vec![false; n];
            let mut stack: Vec<usize> = graph
                .edges()
                .iter()
                .filter(|e| e.transition.0 == ti)
                .map(|e| e.from)
                .collect();
            for &s in &stack {
                can_reach[s] = true;
            }
            while let Some(x) = stack.pop() {
                for &p in &preds[x] {
                    if !can_reach[p] {
                        can_reach[p] = true;
                        stack.push(p);
                    }
                }
            }
            if can_reach.iter().all(|&b| b) {
                Liveness::Live
            } else {
                Liveness::QuasiLive
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetBuilder;

    fn cycle() -> (PetriNet, Marking) {
        let mut b = NetBuilder::new("cycle");
        let a = b.place("a");
        let c = b.place("c");
        let t0 = b.transition("fwd");
        let t1 = b.transition("back");
        b.arc_in(a, t0, 1);
        b.arc_out(t0, c, 1);
        b.arc_in(c, t1, 1);
        b.arc_out(t1, a, 1);
        let net = b.build().unwrap();
        let m = Marking::from_pairs(net.place_count(), &[(a, 1)]);
        (net, m)
    }

    #[test]
    fn incidence_matrix_entries() {
        let (net, _) = cycle();
        let c = IncidenceMatrix::of(&net);
        let a = net.place_by_name("a").unwrap();
        let cc = net.place_by_name("c").unwrap();
        let fwd = net.transition_by_name("fwd").unwrap();
        let back = net.transition_by_name("back").unwrap();
        assert_eq!(c.entry(a, fwd), -1);
        assert_eq!(c.entry(cc, fwd), 1);
        assert_eq!(c.entry(a, back), 1);
        assert_eq!(c.entry(cc, back), -1);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
    }

    #[test]
    fn state_equation_applies() {
        let (net, m0) = cycle();
        let c = IncidenceMatrix::of(&net);
        // fire fwd once: token moves from a to c.
        let m1 = c.apply(&m0, &[1, 0]).unwrap();
        assert_eq!(m1.tokens(net.place_by_name("c").unwrap()), 1);
        // fire fwd and back once each: back to the start.
        let m2 = c.apply(&m0, &[1, 1]).unwrap();
        assert_eq!(m2, m0);
        // firing back first is not realizable: negative intermediate, but the
        // state equation only checks the net effect, which here is fine; an
        // unrealizable *net* effect must return None:
        assert!(c.apply(&m0, &[0, 2]).is_none());
        // dimension mismatch
        assert!(c.apply(&m0, &[1]).is_none());
    }

    #[test]
    fn cycle_has_p_and_t_invariants() {
        let (net, m0) = cycle();
        let report = analyze(&net, &m0, ReachabilityLimits::default()).unwrap();
        assert!(report.bounded);
        assert!(report.safe);
        assert!(!report.has_deadlock);
        assert!(report.conservative);
        assert_eq!(report.place_bounds, vec![1, 1]);
        // The single P-invariant is a+c = const; the single T-invariant is
        // fire fwd and back equally often.
        assert!(report
            .p_invariants
            .iter()
            .any(|inv| inv.weights == vec![1, 1]));
        assert!(report
            .t_invariants
            .iter()
            .any(|inv| inv.counts == vec![1, 1]));
        assert_eq!(report.liveness, vec![Liveness::Live, Liveness::Live]);
        assert!(report.exploration_complete);
    }

    #[test]
    fn dead_transition_detected() {
        let mut b = NetBuilder::new("dead-t");
        let p = b.place("p");
        let q = b.place("q");
        let live = b.transition("live");
        let dead = b.transition("dead");
        b.arc_in(p, live, 1);
        b.arc_out(live, p, 1);
        b.arc_in(q, dead, 1);
        let net = b.build().unwrap();
        let m0 = Marking::from_pairs(net.place_count(), &[(p, 1)]);
        let report = analyze(&net, &m0, ReachabilityLimits::default()).unwrap();
        assert_eq!(report.liveness[live.0], Liveness::Live);
        assert_eq!(report.liveness[dead.0], Liveness::Dead);
    }

    #[test]
    fn quasi_live_transition_detected() {
        // A net where t can fire once and then never again, while u loops.
        let mut b = NetBuilder::new("quasi");
        let once = b.place("once");
        let looped = b.place("looped");
        let t = b.transition("one-shot");
        let u = b.transition("loop");
        b.arc_in(once, t, 1);
        b.arc_out(t, looped, 1);
        b.arc_in(looped, u, 1);
        b.arc_out(u, looped, 1);
        let net = b.build().unwrap();
        let m0 = Marking::from_pairs(net.place_count(), &[(once, 1), (looped, 1)]);
        let report = analyze(&net, &m0, ReachabilityLimits::default()).unwrap();
        assert_eq!(report.liveness[t.0], Liveness::QuasiLive);
        assert_eq!(report.liveness[u.0], Liveness::Live);
    }

    #[test]
    fn unbounded_net_reported() {
        let mut b = NetBuilder::new("unbounded");
        let seed = b.place("seed");
        let sink = b.place("sink");
        let t = b.transition("spawn");
        b.read_arc(seed, t);
        b.arc_out(t, sink, 1);
        let net = b.build().unwrap();
        let m0 = Marking::from_pairs(net.place_count(), &[(seed, 1)]);
        let report = analyze(
            &net,
            &m0,
            ReachabilityLimits {
                max_states: 50,
                max_edges: 200,
            },
        )
        .unwrap();
        assert!(!report.bounded);
        assert!(!report.exploration_complete);
    }

    #[test]
    fn deadlock_reported() {
        let mut b = NetBuilder::new("dl");
        let p = b.place("p");
        let q = b.place("q");
        let t = b.transition("t");
        b.arc_in(p, t, 1);
        b.arc_out(t, q, 1);
        let net = b.build().unwrap();
        let m0 = Marking::from_pairs(net.place_count(), &[(p, 1)]);
        let report = analyze(&net, &m0, ReachabilityLimits::default()).unwrap();
        assert!(report.has_deadlock);
    }

    #[test]
    fn kernel_drops_combinations_that_overflow() {
        // Two places swapping tokens through arcs of about 2^40: cancelling
        // either column multiplies weights into about 2^81. A separate unit
        // cycle keeps one invariant of each kind.
        let mut b = NetBuilder::new("heavy");
        let a = b.place("a");
        let c = b.place("c");
        let x = b.place("x");
        let y = b.place("y");
        let t0 = b.transition("t0");
        let t1 = b.transition("t1");
        let u0 = b.transition("u0");
        let u1 = b.transition("u1");
        b.arc_in(a, t0, (1 << 40) + 1);
        b.arc_out(t0, c, (1 << 40) + 3);
        b.arc_in(c, t1, (1 << 41) + 5);
        b.arc_out(t1, a, (1 << 41) + 7);
        b.arc_in(x, u0, 1);
        b.arc_out(u0, y, 1);
        b.arc_in(y, u1, 1);
        b.arc_out(u1, x, 1);
        let net = b.build().unwrap();
        let inc = IncidenceMatrix::of(&net);

        let p = inc.nonnegative_kernel();
        assert_eq!(p, vec![vec![0, 0, 1, 1]]);
        for y in &p {
            for t in 0..inc.cols() {
                let dot: i128 = (0..inc.rows())
                    .map(|r| y[r] as i128 * inc.entry(PlaceId(r), TransitionId(t)) as i128)
                    .sum();
                assert_eq!(dot, 0, "P-invariant {y:?}");
            }
        }
        let t = inc.transpose().nonnegative_kernel();
        assert_eq!(t, vec![vec![0, 0, 1, 1]]);
        for x in &t {
            for p in 0..inc.rows() {
                let dot: i128 = (0..inc.cols())
                    .map(|c| inc.entry(PlaceId(p), TransitionId(c)) as i128 * x[c] as i128)
                    .sum();
                assert_eq!(dot, 0, "T-invariant {x:?}");
            }
        }
    }

    #[test]
    fn gcd_and_normalize() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(normalize(vec![2, 4, 6]), vec![1, 2, 3]);
        assert_eq!(normalize(vec![0, 0]), vec![0, 0]);
        assert_eq!(normalize(vec![3, 5]), vec![3, 5]);
    }

    #[test]
    fn transpose_swaps_dimensions() {
        let (net, _) = cycle();
        let c = IncidenceMatrix::of(&net);
        let t = c.transpose();
        assert_eq!(t.rows(), c.cols());
        assert_eq!(t.cols(), c.rows());
        assert_eq!(
            t.entry(PlaceId(0), TransitionId(1)),
            c.entry(PlaceId(1), TransitionId(0))
        );
    }
}
