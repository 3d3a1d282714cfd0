//! Every workload at reduced size through every output check, plus the
//! determinism of the counts one seed must reproduce exactly.

use std::collections::BTreeMap;

use dmps_docpn::{compile, verify_presentation};
use dmps_petri::analysis::IncidenceMatrix;
use floorbench::docs::document_set;
use floorbench::span::Tracer;
use floorbench::verify::{farkas_hits_cap, verify_in_parts};
use floorbench::{run, Options, Report, Scale, Workload, END_TO_END, PER_LAYER};

fn reduced(workload: Workload, seed: u64, trace: bool) -> Report {
    run(Options {
        workload,
        seed,
        seconds: 0.01,
        trace,
        scale: Scale::Reduced,
    })
}

fn assert_clean(report: &Report) {
    let errors: Vec<&String> = report.rounds.iter().flat_map(|r| &r.errors).collect();
    assert!(
        report.correct(),
        "{}: {} of {} failed: {errors:?}",
        report.options.workload.name(),
        report.failed(),
        report.attempted()
    );
}

#[test]
fn every_workload_passes_its_checks_at_reduced_size() {
    for workload in Workload::ALL {
        let report = reduced(workload, 5, false);
        assert_clean(&report);
        for r in report.rounds.iter().filter(|r| !r.warmup) {
            assert!(r.slowdown.is_finite() && r.slowdown > 0.0, "{r:?}");
        }
        let line = report.json_line();
        for (name, unit) in END_TO_END {
            let value = report.end_to_end[name];
            assert!(
                value.is_finite() && value > 0.0,
                "{}: {name} = {value}",
                workload.name()
            );
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{line}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{line}");
        }
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    for workload in Workload::ALL {
        let report = reduced(workload, 6, true);
        assert_clean(&report);
        assert!(report.rounds.iter().any(|r| r.traced));
        assert!(report.rounds.iter().any(|r| !r.traced));
        for (name, _) in PER_LAYER {
            let value = report.per_layer[name];
            assert!(value.is_finite() && value >= 0.0, "{name} = {value}");
        }
        let p = &report.per_layer;
        assert!(p["self_share.bench"] > 0.0);
        assert!(p["bench.decision_p50_us"] > 0.0);
        assert!(p["bench.decision_p99_us"] > 0.0);
        assert!(p["overhead.ops_per_s"] > 0.0);
        match workload {
            Workload::PresentationVerify => {
                assert!(p["petri.reachability_us"] > 0.0);
                assert!(p["petri.states"] > 0.0);
                assert!(
                    p["docpn.verify_child_cover"] >= 0.9,
                    "child spans cover {} of verify_presentation",
                    p["docpn.verify_child_cover"]
                );
            }
            w => {
                assert!(p["gateway.submit_us.p50"] > 0.0, "{}", w.name());
                assert!(p["directory.join_group_us.p50"] > 0.0, "{}", w.name());
                assert!(p["worker.commit_us.p50"] > 0.0, "{}", w.name());
                assert!(p["shard.state_bytes_per_group"] > 0.0, "{}", w.name());
            }
        }
        if workload == Workload::FailoverDrill {
            // The drill injects no leader partitions (see `Client::closed`).
            assert_eq!(p["fault.partitions"], 0.0);
            assert!(p["fault.checksum_failures"] > 0.0);
            assert!(p["fault.repairs"] > 0.0);
            assert!(p["cluster.recover_us"] > 0.0);
            assert!(p["cluster.resubmits"] > 0.0);
            assert!(report.extra["failover_ms"] > 0.0);
        }
        if workload == Workload::PacedLecture {
            assert!(p["replication.follower_read_ratio"] > 0.0);
            assert!(p["gateway.read_us.p50"] > 0.0);
        }
    }
}

/// The counts of the first round of each kind: one seed must reproduce
/// them exactly.
fn counts(report: &Report) -> Vec<BTreeMap<String, u64>> {
    let mut out = Vec::new();
    for traced in [false, true] {
        if let Some(r) = report.rounds.iter().find(|r| r.traced == traced) {
            out.push(r.counts.clone());
        }
    }
    out
}

#[test]
fn one_seed_run_twice_gives_identical_counts() {
    for workload in Workload::ALL {
        let a = reduced(workload, 9, true);
        let b = reduced(workload, 9, true);
        assert_clean(&a);
        assert_clean(&b);
        let (ca, cb) = (counts(&a), counts(&b));
        assert_eq!(ca, cb, "{}", workload.name());
        assert!(!ca[0].is_empty());
        // Every round of a run replays the same inputs.
        for r in &a.rounds {
            let first = a.rounds.iter().find(|f| f.traced == r.traced).unwrap();
            assert_eq!(r.counts, first.counts, "{}", workload.name());
        }
    }
}

#[test]
fn verification_in_parts_matches_verify_presentation() {
    let mut tracer = Tracer::new(false);
    for doc in document_set(3, 4) {
        let compiled = compile(&doc.doc, &doc.options).unwrap();
        let whole = verify_presentation(&compiled).unwrap();
        let parts = verify_in_parts(&compiled, &mut tracer, floorbench::span::ROOT, 0).unwrap();
        assert_eq!(whole, parts, "{}", doc.doc.name());
    }
}

#[test]
fn farkas_cap_is_detected_on_the_largest_lipsync_only() {
    let docs = document_set(4, 7);
    let capped: Vec<(usize, bool)> = docs
        .iter()
        .filter(|d| d.family == "lipsync" && d.size >= 5)
        .map(|d| {
            let compiled = compile(&d.doc, &d.options).unwrap();
            let inc = IncidenceMatrix::of(compiled.net.net());
            (
                d.size,
                farkas_hits_cap(&inc) || farkas_hits_cap(&inc.transpose()),
            )
        })
        .collect();
    for (size, hit) in capped {
        assert_eq!(hit, size >= 7, "lipsync {size}");
    }
}

#[test]
fn benchmark_json_names_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "missing {entry}");
    }
    let declared = json.matches("\"name\":").count();
    assert_eq!(
        declared,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
