//! # floorbench
//!
//! One benchmark for the DMPS floor-control plane and its presentation
//! verifier. Four workloads, each driven only through public calls:
//!
//! * `campus_storm` — closed-loop batched ingest on an unreplicated cluster;
//! * `paced_lecture` — an open loop at a fixed offered rate on a replicated
//!   cluster with a large enrolled population and concurrent reads;
//! * `failover_drill` — closed loop on a replicated cluster under rolling
//!   crashes and corruption;
//! * `presentation_verify` — compile, verify and schedule a seeded set of
//!   presentation documents (DOCPN and Petri-net analysis).
//!
//! A run repeats its workload in rounds (fresh cluster, set-up, measured
//! phase, output checks) and reports medians over rounds. Set-up times and
//! closed-loop rates are scaled to a reference host speed, which a probe
//! (see [`host`]) measures around every round. With tracing on, untraced
//! and traced rounds alternate: end-to-end figures come from the untraced
//! rounds, per-layer figures from the traced ones, and their ratio is the
//! tracing overhead. See `README.md` for the metric definitions.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod docs;
pub mod host;
pub mod span;
pub mod stats;
pub mod verify;

use std::collections::BTreeMap;
use std::time::Instant;

use span::{Span, Tracer};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop batched ingest, unreplicated.
    CampusStorm,
    /// Open loop at a fixed rate, replicated, with reads.
    PacedLecture,
    /// Closed loop under rolling crashes and faults, replicated.
    FailoverDrill,
    /// Compile + verify + schedule presentation documents.
    PresentationVerify,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::CampusStorm,
        Workload::PacedLecture,
        Workload::FailoverDrill,
        Workload::PresentationVerify,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CampusStorm => "campus_storm",
            Workload::PacedLecture => "paced_lecture",
            Workload::FailoverDrill => "failover_drill",
            Workload::PresentationVerify => "presentation_verify",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark's own, or a reduced one for its tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports.
    Full,
    /// Small inputs that exercise every path and check in well under a
    /// second per round.
    Reduced,
}

/// End-to-end metrics every run reports, with their units. Decision
/// latencies are printed but not among them: see README.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics every traced run reports, with their units. A layer a
/// workload does not exercise reads 0. The `bench.*` figures and
/// `cluster.failover_ms` are client-side figures of the run's untraced
/// rounds, too unsteady on a shared host to gate.
pub const PER_LAYER: [(&str, &str); 68] = [
    ("gateway.submit_us.p50", "us"),
    ("gateway.submit_us.p99", "us"),
    ("gateway.batch_ops", "ops"),
    ("gateway.recv_wait_us", "us"),
    ("gateway.read_us.p50", "us"),
    ("gateway.read_us.p99", "us"),
    ("directory.create_group_us.p50", "us"),
    ("directory.create_group_us.p99", "us"),
    ("directory.register_member_us.p50", "us"),
    ("directory.register_member_us.p99", "us"),
    ("directory.join_group_us.p50", "us"),
    ("directory.join_group_us.p99", "us"),
    ("directory.invite_us.p50", "us"),
    ("queue.peak", "count"),
    ("queue.sheds", "count"),
    ("worker.drain_batch_mean", "count"),
    ("worker.commit_us.p50", "us"),
    ("worker.commit_us.p99", "us"),
    ("worker.with_stall_us.p99", "us"),
    ("shard.append_us.p50", "us"),
    ("shard.checkpoint_pause_us.p99", "us"),
    ("shard.checkpoint_pause_us.max", "us"),
    ("shard.checkpoints", "count"),
    ("shard.delta_bytes_per_group", "B"),
    ("shard.state_bytes_per_group", "B"),
    ("shard.dedup_hits", "count"),
    ("replication.acks_per_commit", "ratio"),
    ("replication.follower_read_ratio", "ratio"),
    ("replication.retransmits", "count"),
    ("replication.resyncs", "count"),
    ("replication.catch_up_lag_max", "count"),
    ("fault.partitions", "count"),
    ("fault.fenced_appends", "count"),
    ("fault.checksum_failures", "count"),
    ("fault.repairs", "count"),
    ("cluster.crash_us", "us"),
    ("cluster.recover_us", "us"),
    ("cluster.partition_heal_us", "us"),
    ("cluster.resubmits", "count"),
    ("cluster.failover_ms", "ms"),
    ("docpn.compile_us", "us"),
    ("docpn.execute_us", "us"),
    ("docpn.verify_child_cover", "ratio"),
    ("petri.coverability_us", "us"),
    ("petri.reachability_us", "us"),
    ("petri.liveness_us", "us"),
    ("petri.p_invariants_us", "us"),
    ("petri.t_invariants_us", "us"),
    ("petri.states", "count"),
    ("petri.p_invariants", "count"),
    ("petri.capped_docs", "count"),
    ("bench.decision_p50_us", "us"),
    ("bench.decision_p99_us", "us"),
    ("bench.late_ms", "ms"),
    ("bench.error_rate", "ratio"),
    ("self_share.bench", "ratio"),
    ("self_share.gateway", "ratio"),
    ("self_share.directory", "ratio"),
    ("self_share.cluster", "ratio"),
    ("self_share.docpn", "ratio"),
    ("self_share.petri", "ratio"),
    ("overhead.setup_s", "ratio"),
    ("overhead.ops_per_s", "ratio"),
    ("overhead.decision_p50_us", "ratio"),
    ("overhead.decision_p99_us", "ratio"),
    ("overhead.rss_peak_mb", "ratio"),
    ("overhead.read_p99_us", "ratio"),
    ("overhead.failover_ms", "ratio"),
];

/// What one round (fresh state, set-up, measured phase, checks) produced.
#[derive(Debug, Default, Clone)]
pub struct Round {
    /// The first round of a run, which warms allocator and caches: it is
    /// checked like every round but left out of the figures.
    pub warmup: bool,
    /// Whether spans were recorded in this round.
    pub traced: bool,
    /// Set-up wall time (groups created and seats enrolled, or documents
    /// authored and compiled).
    pub setup_s: f64,
    /// Measured-phase wall time.
    pub measure_s: f64,
    /// Whether the offered rate, not the processor, set how long the
    /// measured phase took (open loop). Its rate is then not scaled.
    pub open_loop: bool,
    /// How much slower than the reference speed the host ran this round,
    /// estimated by the probe in [`host`].
    pub slowdown: f64,
    /// Operations (or documents) decided in the measured phase.
    pub completed: u64,
    /// Per operation (or document): due time to decision, in ns.
    pub latency_ns: Vec<u64>,
    /// `session_view` latencies under concurrent writes, in ns.
    pub read_ns: Vec<u64>,
    /// How late the open-loop generator sent each op, in ns.
    pub late_ns: Vec<u64>,
    /// Crash or partition to the first decision served on that shard, ns.
    pub failover_ns: Vec<u64>,
    /// Resident set at the end of the measured phase, in bytes.
    pub rss_bytes: u64,
    /// Peak resident set of the process so far (VmHWM) at the end of the
    /// round, in bytes.
    pub rss_peak_bytes: u64,
    /// Operations, reads or documents attempted.
    pub attempted: u64,
    /// Of those, failed: shed, mismatched, erroring after the retry budget,
    /// unanswered, or (documents) failing any check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// Counts that must repeat exactly for one seed: ops by outcome, state
    /// bytes, reachable states, invariants.
    pub counts: BTreeMap<String, u64>,
    /// Per-layer figures read from the program's own counters (and, for
    /// traced rounds, derived from this round's spans).
    pub layers: BTreeMap<String, f64>,
}

const ERROR_CAP: usize = 16;

impl Round {
    /// Records a failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < ERROR_CAP {
            self.errors.push(why);
        }
    }
}

/// How one run is configured.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Wall time the rounds should fill.
    pub seconds: f64,
    /// Alternate traced and untraced rounds and report per-layer figures.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

/// The outcome of a run.
pub struct Report {
    /// The options it ran with.
    pub options: Options,
    /// Every round, in order.
    pub rounds: Vec<Round>,
    /// Spans of the traced rounds.
    pub spans: Vec<Span>,
    /// End-to-end metrics over the untraced rounds.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Workload-specific user-visible figures over the untraced rounds
    /// (printed, not gated; see README).
    pub extra: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Operations attempted over all rounds.
    pub fn attempted(&self) -> u64 {
        self.rounds.iter().map(|r| r.attempted).sum()
    }

    /// Operations failed over all rounds.
    pub fn failed(&self) -> u64 {
        self.rounds.iter().map(|r| r.failed).sum()
    }

    /// Whether every check of every round passed.
    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.attempted() > 0
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics` (end-to-end, or per-layer when traced).
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = if self.options.trace {
            PER_LAYER
                .iter()
                .map(|(name, unit)| metric_json(name, self.per_layer[name], unit))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|(name, unit)| metric_json(name, self.end_to_end[name], unit))
                .collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted(),
            self.failed(),
            metrics.join(", ")
        )
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// Runs a warm-up round, then rounds of `one_round` until `seconds` are
/// filled (at least `min_rounds`, alternating traced rounds when tracing).
fn run_rounds(
    options: &Options,
    min_rounds: usize,
    tracer: &mut Tracer,
    mut one_round: impl FnMut(usize, &mut Tracer) -> Round,
) -> Vec<Round> {
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let min_rounds = 1 + if options.trace {
        min_rounds.max(2) * 2
    } else {
        min_rounds
    };
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let per_round = if rounds.is_empty() {
            0.0
        } else {
            elapsed / rounds.len() as f64
        };
        if rounds.len() >= min_rounds && elapsed + per_round > options.seconds {
            break;
        }
        let index = rounds.len();
        let traced = options.trace && index.is_multiple_of(2) && index > 0;
        tracer.set_enabled(traced);
        // The warm-up round is left out of the figures, so it needs no probe;
        // without one, the peak RSS after it is the workload's own.
        let warmup = index == 0;
        let probe_before = (!warmup).then(host::probe_s);
        let mut round = one_round(index, tracer);
        round.warmup = warmup;
        round.traced = traced;
        round.rss_peak_bytes = dmps_workload::rss::peak_rss_bytes().unwrap_or(0);
        if let Some(before) = probe_before {
            round.slowdown = host::slowdown(before, host::probe_s());
        }
        rounds.push(round);
    }
    tracer.set_enabled(false);
    rounds
}

/// Runs one workload and derives its metrics.
pub fn run(options: Options) -> Report {
    let mut tracer = Tracer::new(false);
    let rounds = match options.workload {
        Workload::PresentationVerify => {
            let plan = verify::Plan::new(options.seed, options.scale);
            run_rounds(&options, 3, &mut tracer, |i, t| plan.round(i, t))
        }
        w => {
            let plan = cluster::Plan::new(w, options.seed, options.scale);
            let trace = plan.trace();
            run_rounds(&options, 3, &mut tracer, |i, t| plan.round(&trace, i, t))
        }
    };
    let spans = tracer.spans().to_vec();
    summarize(options, rounds, spans)
}

fn pick(rounds: &[Round], traced: bool) -> Vec<&Round> {
    rounds
        .iter()
        .filter(|r| !r.warmup && r.traced == traced)
        .collect()
}

fn per_round(rounds: &[&Round], f: impl Fn(&Round) -> Option<f64>) -> f64 {
    let values: Vec<f64> = rounds.iter().filter_map(|r| f(r)).collect();
    stats::median(&values)
}

fn quantile_us(samples: &[u64], q: f64) -> Option<f64> {
    stats::quantile(samples, q).map(|ns| ns as f64 / 1e3)
}

/// A round's measured-phase rate as measured, in ops (or documents) per
/// second.
fn rate(r: &Round) -> f64 {
    r.completed as f64 / r.measure_s.max(1e-9)
}

/// End-to-end and workload-specific figures over a set of rounds. Set-up
/// time and the rate of a closed loop are scaled to the reference host
/// speed; the `_unscaled` figures are as measured.
fn figures(rounds: &[&Round]) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    m.insert(
        "setup_s",
        per_round(rounds, |r| Some(r.setup_s / r.slowdown)),
    );
    m.insert(
        "ops_per_s",
        per_round(rounds, |r| {
            Some(if r.open_loop {
                rate(r)
            } else {
                rate(r) * r.slowdown
            })
        }),
    );
    m.insert("setup_unscaled_s", per_round(rounds, |r| Some(r.setup_s)));
    m.insert("ops_per_s_unscaled", per_round(rounds, |r| Some(rate(r))));
    m.insert("host_slowdown", per_round(rounds, |r| Some(r.slowdown)));
    m.insert(
        "decision_p50_us",
        per_round(rounds, |r| quantile_us(&r.latency_ns, 0.50)),
    );
    m.insert(
        "decision_p99_us",
        per_round(rounds, |r| quantile_us(&r.latency_ns, 0.99)),
    );
    m.insert(
        "rss_mb",
        per_round(rounds, |r| Some(r.rss_bytes as f64 / 1e6)),
    );
    m.insert(
        "read_p50_us",
        per_round(rounds, |r| quantile_us(&r.read_ns, 0.50)),
    );
    m.insert(
        "read_p99_us",
        per_round(rounds, |r| quantile_us(&r.read_ns, 0.99)),
    );
    m.insert(
        "late_ms",
        per_round(rounds, |r| quantile_us(&r.late_ns, 0.99).map(|us| us / 1e3)),
    );
    let failovers: Vec<u64> = rounds
        .iter()
        .flat_map(|r| r.failover_ns.iter().copied())
        .collect();
    m.insert(
        "failover_ms",
        quantile_us(&failovers, 0.5).map_or(0.0, |us| us / 1e3),
    );
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    m.insert("error_rate", failed as f64 / attempted.max(1) as f64);
    m
}

fn summarize(options: Options, rounds: Vec<Round>, spans: Vec<Span>) -> Report {
    let untraced = figures(&pick(&rounds, false));
    // The peak while the process holds one round's state: later rounds
    // only add allocator reuse, which depends on how many rounds fit.
    let rss_peak_mb = rounds.first().map_or(0, |r| r.rss_peak_bytes) as f64 / 1e6;

    let mut end_to_end = BTreeMap::new();
    for (name, _) in END_TO_END {
        let value = if name == "rss_peak_mb" {
            rss_peak_mb
        } else {
            untraced[name]
        };
        end_to_end.insert(name, value);
    }
    let mut extra = BTreeMap::new();
    for name in [
        "setup_unscaled_s",
        "ops_per_s_unscaled",
        "host_slowdown",
        "decision_p50_us",
        "decision_p99_us",
        "read_p50_us",
        "read_p99_us",
        "late_ms",
        "failover_ms",
        "error_rate",
    ] {
        extra.insert(name, untraced[name]);
    }
    if options.workload == Workload::PresentationVerify {
        extra.insert("verify_p50_ms", untraced["decision_p50_us"] / 1e3);
        extra.insert("verify_docs_per_s", untraced["ops_per_s"]);
    }

    let mut per_layer = BTreeMap::new();
    if options.trace {
        let traced_rounds = pick(&rounds, true);
        let traced = figures(&traced_rounds);
        for (name, _) in PER_LAYER {
            let value = if let Some(e2e) = name.strip_prefix("overhead.") {
                let base = if e2e == "rss_peak_mb" { "rss_mb" } else { e2e };
                if untraced[base] > 0.0 {
                    traced[base] / untraced[base]
                } else {
                    0.0
                }
            } else {
                match name {
                    "bench.decision_p50_us" => untraced["decision_p50_us"],
                    "bench.decision_p99_us" => untraced["decision_p99_us"],
                    "bench.late_ms" => untraced["late_ms"],
                    "bench.error_rate" => untraced["error_rate"],
                    "cluster.failover_ms" => untraced["failover_ms"],
                    _ => per_round(&traced_rounds, |r| r.layers.get(name).copied()),
                }
            };
            per_layer.insert(name, value);
        }
        let round_ns: u64 = span::durations(&spans, "bench.round").iter().sum();
        for (layer, own) in span::layer_self_ns(&spans) {
            let key = format!("self_share.{layer}");
            if let Some((name, _)) = PER_LAYER.iter().find(|(n, _)| *n == key) {
                per_layer.insert(name, own as f64 / round_ns.max(1) as f64);
            }
        }
    }
    Report {
        options,
        rounds,
        spans,
        end_to_end,
        extra,
        per_layer,
    }
}

/// Per-layer figures derived from the spans recorded since index `from`
/// (one round): call-time quantiles of the gateway, directory and cluster
/// calls, summed DOCPN and Petri call time (µs), and how much of
/// `docpn.verify_presentation` its child calls cover.
pub fn span_layers(all: &[Span], from: usize) -> BTreeMap<String, f64> {
    let spans = &all[from..];
    let mut m = BTreeMap::new();
    let us = |ns: u64| ns as f64 / 1e3;
    let mut quantiles = |key: &str, samples: Vec<u64>, p99: bool| {
        if let Some((p50, high)) = stats::p50_p99(&samples) {
            m.insert(format!("{key}.p50"), us(p50));
            if p99 {
                m.insert(format!("{key}.p99"), us(high));
            }
        }
    };
    let mut submits = span::durations(spans, "gateway.submit_batch");
    submits.extend(span::durations(spans, "gateway.submit_session_batch"));
    quantiles("gateway.submit_us", submits, true);
    for call in ["create_group", "register_member", "join_group"] {
        let samples = span::durations(spans, &format!("directory.{call}"));
        quantiles(&format!("directory.{call}_us"), samples, true);
    }
    let mut invites: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.name == "directory.invite" || s.name == "directory.respond_invitation" {
            *invites.entry(s.id).or_insert(0) += s.duration_ns();
        }
    }
    quantiles(
        "directory.invite_us",
        invites.into_values().collect(),
        false,
    );
    for (key, call) in [
        ("cluster.crash_us", "cluster.crash_shard"),
        ("cluster.recover_us", "cluster.recover_shard"),
        ("cluster.partition_heal_us", "cluster.heal_shard_partition"),
    ] {
        if let Some(p50) = stats::quantile(&span::durations(spans, call), 0.5) {
            m.insert(key.to_string(), us(p50));
        }
    }
    for call in [
        "docpn.compile",
        "docpn.execute",
        "petri.coverability",
        "petri.reachability",
        "petri.liveness",
        "petri.p_invariants",
        "petri.t_invariants",
    ] {
        let total: u64 = span::durations(spans, call).iter().sum();
        if total > 0 {
            m.insert(format!("{call}_us"), us(total));
        }
    }
    let verify_ns: u64 = span::durations(spans, "docpn.verify_presentation")
        .iter()
        .sum();
    if verify_ns > 0 {
        let child_ns: u64 = spans
            .iter()
            .filter(|s| {
                s.parent != span::ROOT && all[s.parent as usize].name == "docpn.verify_presentation"
            })
            .map(Span::duration_ns)
            .sum();
        m.insert(
            "docpn.verify_child_cover".into(),
            child_ns as f64 / verify_ns as f64,
        );
    }
    m
}
