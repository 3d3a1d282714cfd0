//! Property-based tests over the base Petri net substrate.

mod farkas_reference;

use std::ops::Range;

use dmps_petri::analysis::{IncidenceMatrix, FARKAS_ROW_CAP};
use dmps_petri::{
    Marking, NetBuilder, PetriNet, PlaceId, ReachabilityGraph, ReachabilityLimits, TransitionId,
};
use proptest::prelude::*;

/// Strategy: a random connected-ish net with `np` places, `nt` transitions and
/// random unit/weighted arcs, plus a random initial marking.
fn arb_net() -> impl Strategy<Value = (PetriNet, Marking)> {
    arb_net_sized(2..6, 1..5, 1..3)
}

/// [`arb_net`] with the place count, transition count and arc weights drawn
/// from the given ranges.
fn arb_net_sized(
    places: Range<usize>,
    transitions: Range<usize>,
    weights: Range<u64>,
) -> impl Strategy<Value = (PetriNet, Marking)> {
    (places, transitions).prop_flat_map(move |(np, nt)| {
        let arcs = proptest::collection::vec(
            (0..np, 0..nt, weights.clone(), proptest::bool::ANY),
            1..(np * nt).max(2),
        );
        let tokens = proptest::collection::vec(0u64..3, np);
        (arcs, tokens).prop_map(move |(arcs, tokens)| {
            let mut b = NetBuilder::new("prop");
            let places: Vec<_> = (0..np).map(|i| b.place(format!("p{i}"))).collect();
            let transitions: Vec<_> = (0..nt).map(|i| b.transition(format!("t{i}"))).collect();
            for (p, t, w, input) in arcs {
                if input {
                    b.arc_in(places[p], transitions[t], w);
                } else {
                    b.arc_out(transitions[t], places[p], w);
                }
            }
            let net = b.build().expect("generated net is structurally valid");
            let marking = Marking::new(tokens);
            (net, marking)
        })
    })
}

/// Whether `y` lies in the left kernel of `inc`: `yᵀ·C = 0`.
fn in_left_kernel(inc: &IncidenceMatrix, y: &[u64]) -> bool {
    (0..inc.cols()).all(|c| {
        (0..inc.rows())
            .map(|r| y[r] as i128 * inc.entry(PlaceId(r), TransitionId(c)) as i128)
            .sum::<i128>()
            == 0
    })
}

/// Asserts that the kernel returns exactly what the reference model returns,
/// order included, for P-invariants (the matrix) and T-invariants (its
/// transpose).
fn assert_kernel_matches_reference(inc: &IncidenceMatrix) {
    for matrix in [inc.clone(), inc.transpose()] {
        assert_eq!(
            matrix.nonnegative_kernel(),
            farkas_reference::nonnegative_kernel(&matrix)
        );
    }
}

proptest! {
    /// Firing conserves the state equation: M' = M + C·e_t.
    #[test]
    fn firing_respects_state_equation((net, m0) in arb_net()) {
        let inc = IncidenceMatrix::of(&net);
        for t in net.enabled_transitions(&m0) {
            let fired = net.fire(&m0, t).unwrap();
            let mut counts = vec![0u64; net.transition_count()];
            counts[t.index()] = 1;
            let predicted = inc.apply(&m0, &counts).expect("enabled firing is realizable");
            prop_assert_eq!(fired, predicted);
        }
    }

    /// A transition reported enabled always fires successfully, and one
    /// reported disabled always fails.
    #[test]
    fn enabledness_is_consistent_with_fire((net, m0) in arb_net()) {
        for t in net.transitions() {
            let fired = net.fire(&m0, t);
            prop_assert_eq!(net.enabled(&m0, t), fired.is_ok());
        }
    }

    /// Firing never creates negative token counts and changes only places
    /// adjacent to the fired transition.
    #[test]
    fn firing_only_touches_adjacent_places((net, m0) in arb_net()) {
        for t in net.enabled_transitions(&m0) {
            let fired = net.fire(&m0, t).unwrap();
            let adjacent: std::collections::HashSet<_> = net
                .preset(t)
                .into_iter()
                .chain(net.postset(t))
                .collect();
            for p in net.places() {
                if !adjacent.contains(&p) {
                    prop_assert_eq!(fired.tokens(p), m0.tokens(p));
                }
            }
        }
    }

    /// Every marking in the reachability graph is actually reachable by
    /// replaying edges, and the initial marking is node 0.
    #[test]
    fn reachability_graph_nodes_are_reachable((net, m0) in arb_net()) {
        let limits = ReachabilityLimits { max_states: 200, max_edges: 2000 };
        let g = ReachabilityGraph::build(&net, &m0, limits).unwrap();
        prop_assert_eq!(&g.markings()[0], &m0);
        for e in g.edges() {
            let from = &g.markings()[e.from];
            let to = &g.markings()[e.to];
            let fired = net.fire(from, e.transition).unwrap();
            prop_assert_eq!(&fired, to);
        }
    }

    /// P-invariants hold over every reachable marking: yᵀ·M is constant.
    #[test]
    fn p_invariants_hold_over_reachable_markings((net, m0) in arb_net()) {
        let inc = IncidenceMatrix::of(&net);
        let invariants = inc.nonnegative_kernel();
        let limits = ReachabilityLimits { max_states: 100, max_edges: 1000 };
        let g = ReachabilityGraph::build(&net, &m0, limits).unwrap();
        for weights in invariants {
            let value = |m: &Marking| -> u128 {
                weights
                    .iter()
                    .enumerate()
                    .map(|(i, &w)| w as u128 * m.tokens(PlaceId(i)) as u128)
                    .sum()
            };
            let v0 = value(&m0);
            for m in g.markings() {
                prop_assert_eq!(value(m), v0);
            }
        }
    }

    /// The Farkas kernel returns exactly what the reference model returns.
    #[test]
    fn farkas_kernel_matches_reference((net, _) in arb_net()) {
        assert_kernel_matches_reference(&IncidenceMatrix::of(&net));
    }

    /// The same on wider nets: up to 12 places × 8 transitions, arc
    /// weights 1–3.
    #[test]
    fn farkas_kernel_matches_reference_on_wider_nets((net, _) in arb_net_sized(2..13, 1..9, 1..4)) {
        assert_kernel_matches_reference(&IncidenceMatrix::of(&net));
    }

    /// Markings round-trip through serde JSON (used by the trace writer).
    #[test]
    fn marking_serde_roundtrip(tokens in proptest::collection::vec(0u64..100, 0..8)) {
        let m = Marking::new(tokens);
        let encoded = dmps_wire::to_string(&m);
        let back: Marking = dmps_wire::from_str(&encoded).unwrap();
        prop_assert_eq!(m, back);
    }
}

/// A net whose Farkas table grows past the row cap: transition `t0` turns any
/// of 65 sources into any of 65 sinks, so eliminating it makes 65 × 65 rows,
/// of which the first `FARKAS_ROW_CAP` are kept. Transition `t1` then
/// consumes from the last source and produces into the last sink. The rows
/// holding the last source were past the cap, so the rows holding the last
/// sink find no partner and are dropped.
#[test]
fn farkas_kernel_stops_at_the_row_cap() {
    const SIDE: usize = 65;
    let mut b = NetBuilder::new("cap");
    let sources: Vec<_> = (0..SIDE).map(|i| b.place(format!("src{i}"))).collect();
    let sinks: Vec<_> = (0..SIDE).map(|i| b.place(format!("sink{i}"))).collect();
    let t0 = b.transition("t0");
    let t1 = b.transition("t1");
    for (&src, &sink) in sources.iter().zip(&sinks) {
        b.arc_out(t0, src, 1);
        b.arc_in(sink, t0, 1);
    }
    b.arc_in(sources[SIDE - 1], t1, 1);
    b.arc_out(t1, sinks[SIDE - 1], 1);
    let net = b.build().unwrap();
    let inc = IncidenceMatrix::of(&net);

    const { assert!(SIDE * SIDE > FARKAS_ROW_CAP) };
    assert_kernel_matches_reference(&inc);
    let invariants = inc.nonnegative_kernel();
    // Rows are kept source-major: the first `FARKAS_ROW_CAP / SIDE` sources
    // with every sink, each set holding one row with the last sink.
    let dropped = FARKAS_ROW_CAP / SIDE;
    assert_eq!(invariants.len(), FARKAS_ROW_CAP - dropped);
    for y in &invariants {
        assert!(in_left_kernel(&inc, y), "{y:?}");
    }
}
