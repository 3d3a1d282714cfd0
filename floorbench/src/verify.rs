//! The `presentation_verify` workload: compile each document of a seeded
//! set to DOCPN, verify it and schedule it, while a cluster sits idle.
//! Set-up authors the document set from the seed and checks that every
//! document compiles.
//!
//! Untraced rounds call [`verify_presentation`] as one call. Traced rounds
//! make the same computation from the public functions it is built from,
//! each in its own span under a `docpn.verify_presentation` span, so the
//! Petri-net analysis splits into coverability, reachability, liveness and
//! invariant time.

use std::cell::OnceCell;
use std::collections::HashSet;
use std::time::{Duration, Instant};

use dmps_cluster::{Cluster, ClusterConfig};
use dmps_docpn::schedule::evaluate;
use dmps_docpn::{
    compile, verify_presentation, CompiledPresentation, TimedExecution, VerificationReport,
};
use dmps_petri::analysis::{
    classify_liveness, AnalysisReport, IncidenceMatrix, Liveness, PInvariant, TInvariant,
};
use dmps_petri::{CoverabilityTree, ReachabilityGraph, ReachabilityLimits};

use crate::docs::{document_set, Doc, Verdicts};
use crate::span::{Tracer, ROOT};
use crate::{Round, Scale};

/// Rows at which `IncidenceMatrix::nonnegative_kernel` truncates its Farkas
/// table.
const FARKAS_CAP: usize = 4096;

/// The workload's inputs.
pub struct Plan {
    seed: u64,
    /// Largest lip-sync size in the set.
    max_lipsync: usize,
    /// Documents whose Farkas table hits the row cap: traced runs count
    /// them once, outside the timed rounds.
    capped: OnceCell<u64>,
}

impl Plan {
    /// The document set for `seed`.
    pub fn new(seed: u64, scale: Scale) -> Plan {
        let max_lipsync = match scale {
            Scale::Full => 7,
            Scale::Reduced => 4,
        };
        Plan {
            seed,
            max_lipsync,
            capped: Default::default(),
        }
    }

    /// One round: author the document set and check that every document
    /// compiles, then compile, verify and schedule every document and check
    /// each result.
    pub fn round(&self, index: usize, tracer: &mut Tracer) -> Round {
        let mut out = Round::default();
        let root = tracer.open("bench.round", ROOT, index as u64);
        let cluster = Cluster::new(ClusterConfig::with_shards(4));

        let phase = tracer.open("bench.setup", root, 0);
        let started = Instant::now();
        let docs = document_set(self.seed, self.max_lipsync);
        for (i, doc) in docs.iter().enumerate() {
            out.attempted += 1;
            let t = tracer.start();
            let compiled = compile(&doc.doc, &doc.options);
            tracer.leaf("docpn.compile", phase, i as u64, t);
            if let Err(e) = compiled {
                out.fail(format!("document {i}: compile failed: {e:?}"));
            }
        }
        out.setup_s = started.elapsed().as_secs_f64();
        tracer.close(phase);

        // Per-layer figures cover the measured phase only, not the set-up
        // compiles.
        let first_span = tracer.spans().len();
        let phase = tracer.open("bench.measure", root, 0);
        let mut states = 0u64;
        let mut p_invariants = 0u64;
        let mut t_invariants = 0u64;
        for (i, doc) in docs.iter().enumerate() {
            out.attempted += 1;
            let t0 = Instant::now();
            let result = verify_one(i, doc, tracer, phase);
            let took = t0.elapsed();
            out.latency_ns.push(took.as_nanos() as u64);
            // Throughput counts compile + verify + schedule, not the checks.
            out.measure_s += took.as_secs_f64();
            out.completed += 1;
            match result.and_then(|r| check(doc, &r).map(|()| r)) {
                Ok(r) => {
                    states += r.report.analysis.state_count as u64;
                    p_invariants += r.report.analysis.p_invariants.len() as u64;
                    t_invariants += r.report.analysis.t_invariants.len() as u64;
                }
                Err(e) => out.fail(format!("document {i} ({}-{}): {e}", doc.family, doc.size)),
            }
        }
        out.rss_bytes = dmps_workload::rss::current_rss_bytes().unwrap_or(0);
        tracer.close(phase);

        let phase = tracer.open("bench.check", root, 0);
        let t = tracer.start();
        let invariants = cluster.check_invariants();
        tracer.leaf("cluster.check_invariants", phase, 0, t);
        if let Err(e) = invariants {
            out.fail(format!("cluster invariants: {e}"));
        }
        tracer.close(phase);
        tracer.close(root);

        out.counts.insert("petri.states".into(), states);
        out.counts.insert("petri.p_invariants".into(), p_invariants);
        out.counts.insert("petri.t_invariants".into(), t_invariants);
        let doc_count = docs.len().max(1) as f64;
        out.layers.insert("petri.states".into(), states as f64);
        out.layers
            .insert("petri.p_invariants".into(), p_invariants as f64);
        if tracer.enabled() {
            let capped = *self.capped.get_or_init(|| capped_docs(&docs));
            out.counts.insert("petri.capped_docs".into(), capped);
            out.layers.insert("petri.capped_docs".into(), capped as f64);
            for (name, value) in crate::span_layers(tracer.spans(), first_span) {
                // Petri and DOCPN call times are reported per document.
                let per_doc = name.starts_with("petri.") || name.starts_with("docpn.");
                let value = if per_doc && name.ends_with("_us") {
                    value / doc_count
                } else {
                    value
                };
                out.layers.insert(name, value);
            }
        }
        out
    }
}

/// Documents whose P- or T-invariant Farkas table exceeds the row cap.
fn capped_docs(docs: &[Doc]) -> u64 {
    let capped = |doc: &Doc| {
        let compiled = compile(&doc.doc, &doc.options).expect("document compiles");
        let inc = IncidenceMatrix::of(compiled.net.net());
        farkas_hits_cap(&inc) || farkas_hits_cap(&inc.transpose())
    };
    docs.iter().filter(|d| capped(d)).count() as u64
}

/// Compile + verify + schedule one document.
fn verify_one(i: usize, doc: &Doc, tracer: &mut Tracer, parent: u32) -> Result<Verified, String> {
    let id = i as u64;
    let t = tracer.start();
    let compiled = compile(&doc.doc, &doc.options);
    tracer.leaf("docpn.compile", parent, id, t);
    let compiled = compiled.map_err(|e| format!("compile: {e:?}"))?;
    let report = if tracer.enabled() {
        let span = tracer.open("docpn.verify_presentation", parent, id);
        let report = verify_in_parts(&compiled, tracer, span, id);
        tracer.close(span);
        report
    } else {
        verify_presentation(&compiled).map_err(|e| format!("verify: {e:?}"))
    }?;
    let t = tracer.start();
    let execution = TimedExecution::run_to_completion(&compiled.net, &compiled.initial);
    tracer.leaf("docpn.execute", parent, id, t);
    let execution = execution.map_err(|e| format!("execute: {e:?}"))?;
    let t = tracer.start();
    let schedule = evaluate(&compiled, &execution, Duration::ZERO);
    tracer.leaf("docpn.schedule", parent, id, t);
    let schedule = schedule.map_err(|e| format!("schedule: {e:?}"))?;
    Ok(Verified {
        compiled,
        report,
        completed: execution.completed(),
        on_schedule: schedule.on_schedule() && schedule.deadline_misses == 0,
    })
}

/// What one document's compile, verification and schedule produced.
struct Verified {
    /// The compiled net.
    compiled: CompiledPresentation,
    /// The verification report.
    report: VerificationReport,
    /// Whether the timed run completed.
    completed: bool,
    /// Whether it stayed on schedule with no deadline miss.
    on_schedule: bool,
}

/// `verify_presentation` rebuilt from the public Petri and DOCPN functions
/// it is made of, each call in its own span under `parent`.
pub fn verify_in_parts(
    compiled: &CompiledPresentation,
    tracer: &mut Tracer,
    parent: u32,
    id: u64,
) -> Result<VerificationReport, String> {
    let net = compiled.net.net();
    let initial = &compiled.initial;
    let limits = ReachabilityLimits::default();
    net.check_marking(initial)
        .map_err(|e| format!("marking: {e:?}"))?;

    let t = tracer.start();
    let cover = CoverabilityTree::build(net, initial, limits.max_states.max(1024));
    let cover_bounded = cover.map(|tree| tree.is_bounded()).unwrap_or(false);
    tracer.leaf("petri.coverability", parent, id, t);

    let t = tracer.start();
    let graph = ReachabilityGraph::build(net, initial, limits);
    let graph = graph.map_err(|e| format!("reachability: {e:?}"))?;
    let place_bounds = graph.place_bounds();
    let has_deadlock = !graph.deadlocks(net).is_empty();
    tracer.leaf("petri.reachability", parent, id, t);

    let t = tracer.start();
    let liveness = classify_liveness(net, &graph);
    tracer.leaf("petri.liveness", parent, id, t);

    let t = tracer.start();
    let inc = IncidenceMatrix::of(net);
    let p_invariants: Vec<PInvariant> = inc
        .nonnegative_kernel()
        .into_iter()
        .map(|weights| PInvariant { weights })
        .collect();
    tracer.leaf("petri.p_invariants", parent, id, t);

    let t = tracer.start();
    let t_invariants: Vec<TInvariant> = inc
        .transpose()
        .nonnegative_kernel()
        .into_iter()
        .map(|counts| TInvariant { counts })
        .collect();
    tracer.leaf("petri.t_invariants", parent, id, t);

    let mut covered = vec![false; net.place_count()];
    for inv in &p_invariants {
        for (i, &w) in inv.weights.iter().enumerate() {
            covered[i] |= w > 0;
        }
    }
    let conservative = !p_invariants.is_empty() && covered.iter().all(|&c| c);
    let analysis = AnalysisReport {
        bounded: cover_bounded && graph.is_complete(),
        safe: place_bounds.iter().all(|&b| b <= 1),
        place_bounds,
        liveness,
        has_deadlock,
        state_count: graph.state_count(),
        exploration_complete: graph.is_complete(),
        p_invariants,
        t_invariants,
        conservative,
    };

    let t = tracer.start();
    let execution = TimedExecution::run_to_completion(&compiled.net, initial);
    tracer.leaf("docpn.execute", parent, id, t);
    let execution = execution.map_err(|e| format!("execute: {e:?}"))?;

    let all_sync_points_fire_once = compiled.sync_points.iter().all(|sp| {
        execution
            .firings()
            .iter()
            .filter(|f| f.transition == sp.transition)
            .count()
            == 1
    });
    let mut schedule_matches_timeline = true;
    let mut max_deviation = Duration::ZERO;
    for (&media, &start_t) in &compiled.media_start_transition {
        let ideal = compiled
            .ideal_start(media)
            .map_err(|e| format!("timeline: {e:?}"))?;
        match execution.firing_of(start_t) {
            Some(f) => {
                let deviation = f.at.abs_diff(ideal);
                max_deviation = max_deviation.max(deviation);
                schedule_matches_timeline &= deviation.is_zero();
            }
            None => {
                schedule_matches_timeline = false;
                max_deviation = Duration::MAX;
            }
        }
    }
    Ok(VerificationReport {
        bounded: analysis.bounded,
        safe: analysis.safe,
        all_sync_points_fire_once,
        schedule_matches_timeline,
        reaches_completion: !execution.token_entries(compiled.done_place).is_empty(),
        max_deviation,
        analysis,
    })
}

/// Checks one verified document against its recorded verdicts and every
/// returned invariant against the incidence matrix.
fn check(doc: &Doc, v: &Verified) -> Result<(), String> {
    let a = &v.report.analysis;
    let got = Verdicts {
        bounded: v.report.bounded,
        safe: v.report.safe,
        has_deadlock: a.has_deadlock,
        dead_transitions: a.liveness.iter().filter(|l| **l == Liveness::Dead).count(),
        valid: v.report.is_valid(),
        on_schedule: v.completed && v.on_schedule,
    };
    if got != doc.expect {
        return Err(format!("verdicts {got:?} != recorded {:?}", doc.expect));
    }
    let inc = IncidenceMatrix::of(v.compiled.net.net());
    for (k, inv) in a.p_invariants.iter().enumerate() {
        for c in 0..inc.cols() {
            let dot: i64 = (0..inc.rows())
                .map(|r| {
                    inv.weights[r] as i64
                        * inc.entry(dmps_petri::PlaceId(r), dmps_petri::TransitionId(c))
                })
                .sum();
            if dot != 0 {
                return Err(format!("P-invariant {k}: (yT C)[{c}] = {dot}"));
            }
        }
    }
    for (k, inv) in a.t_invariants.iter().enumerate() {
        for r in 0..inc.rows() {
            let dot: i64 = (0..inc.cols())
                .map(|c| {
                    inc.entry(dmps_petri::PlaceId(r), dmps_petri::TransitionId(c))
                        * inv.counts[c] as i64
                })
                .sum();
            if dot != 0 {
                return Err(format!("T-invariant {k}: (C x)[{r}] = {dot}"));
            }
        }
    }
    Ok(())
}

/// Whether the Farkas elimination of `nonnegative_kernel` on `inc` grows its
/// table past the row cap. Row order and deduplication follow
/// `analysis.rs` exactly up to the first truncation, which is all this
/// needs to see.
pub fn farkas_hits_cap(inc: &IncidenceMatrix) -> bool {
    let (n, m) = (inc.rows(), inc.cols());
    type Row = (Vec<i64>, Vec<i64>);
    let mut table: Vec<Row> = (0..n)
        .map(|i| {
            let d = (0..m)
                .map(|j| inc.entry(dmps_petri::PlaceId(i), dmps_petri::TransitionId(j)))
                .collect();
            let mut b = vec![0i64; n];
            b[i] = 1;
            (d, b)
        })
        .collect();
    for col in 0..m {
        let mut next: Vec<Row> = table.iter().filter(|r| r.0[col] == 0).cloned().collect();
        let mut seen: HashSet<Row> = next.iter().cloned().collect();
        let positives: Vec<&Row> = table.iter().filter(|r| r.0[col] > 0).collect();
        let negatives: Vec<&Row> = table.iter().filter(|r| r.0[col] < 0).collect();
        for p in &positives {
            for q in &negatives {
                let (a, b) = (p.0[col], -q.0[col]);
                let g = gcd(a as u64, b as u64) as i64;
                let (ca, cb) = (b / g, a / g);
                let d: Vec<i64> = p.0.iter().zip(&q.0).map(|(x, y)| ca * x + cb * y).collect();
                let bv: Vec<i64> = p.1.iter().zip(&q.1).map(|(x, y)| ca * x + cb * y).collect();
                let row = normalize_row(d, bv);
                if seen.insert(row.clone()) {
                    next.push(row);
                }
            }
        }
        if next.len() > FARKAS_CAP {
            return true;
        }
        table = next;
    }
    false
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a.max(1)
    } else {
        gcd(b, a % b)
    }
}

fn normalize_row(d: Vec<i64>, b: Vec<i64>) -> (Vec<i64>, Vec<i64>) {
    let g = d
        .iter()
        .chain(&b)
        .filter(|&&x| x != 0)
        .fold(0u64, |acc, &x| gcd(acc, x.unsigned_abs()));
    if g <= 1 {
        (d, b)
    } else {
        let g = g as i64;
        (
            d.into_iter().map(|x| x / g).collect(),
            b.into_iter().map(|x| x / g).collect(),
        )
    }
}
