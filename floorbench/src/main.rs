//! Command line: `floorbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`.
//!
//! Prints a human-readable report and, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits non-zero when
//! any output check failed. Traced runs also write their spans to
//! `floorbench/out/`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use floorbench::{cluster, run, Options, Report, Scale, Workload, END_TO_END, PER_LAYER};

/// A run that has not finished by then is stuck (an unanswered decision
/// blocks the client thread); it is reported as failed.
const WATCHDOG: Duration = Duration::from_secs(170);

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: floorbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse() -> Result<Options, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in args.chunks(2) {
        let value = pair.get(1).ok_or_else(usage)?;
        match pair[0].as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(Options {
        workload: workload.ok_or_else(usage)?,
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        trace: trace.ok_or_else(usage)?,
        scale: Scale::Full,
    })
}

fn host_line(options: &Options) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let shape = match options.workload {
        Workload::PresentationVerify => "idle cluster of 4 shards".to_string(),
        w => {
            let plan = cluster::Plan::new(w, options.seed, options.scale);
            let rate = plan.paced.map_or("closed loop".to_string(), |p| {
                format!("offered {} ops/s", p.rate)
            });
            format!(
                "{} shards, {} followers each, {rate}",
                plan.shards, plan.replicas
            )
        }
    };
    format!("host: {nproc} CPUs available, {shape}, replica link simulated on the virtual clock")
}

fn print_report(report: &Report) {
    let o = &report.options;
    println!(
        "workload {} seed {} trace {}",
        o.workload.name(),
        o.seed,
        u8::from(o.trace)
    );
    println!("{}", host_line(o));
    let untraced = report
        .rounds
        .iter()
        .filter(|r| !r.traced && !r.warmup)
        .count();
    println!(
        "rounds: {} ({untraced} untraced, 1 warm-up)",
        report.rounds.len()
    );
    for (name, unit) in END_TO_END {
        println!("  {name:<22} {:>14.3} {unit}", report.end_to_end[name]);
    }
    for (name, value) in &report.extra {
        println!("  {name:<22} {value:>14.3}");
    }
    if o.trace {
        for (name, unit) in PER_LAYER {
            println!("  {name:<34} {:>14.3} {unit}", report.per_layer[name]);
        }
    }
    for (i, r) in report.rounds.iter().enumerate() {
        let (p50, p99) = floorbench::stats::p50_p99(&r.latency_ns).unwrap_or((0, 0));
        println!(
            "  round {i}{}: setup {:.3}s measure {:.3}s slowdown {:.3} ops {} p50 {:.1}us p99 {:.1}us",
            if r.warmup {
                " (warm-up)"
            } else if r.traced {
                " (traced)"
            } else {
                ""
            },
            r.setup_s,
            r.measure_s,
            r.slowdown,
            r.completed,
            p50 as f64 / 1e3,
            p99 as f64 / 1e3
        );
    }
    for r in &report.rounds {
        for e in &r.errors {
            println!("  error: {e}");
        }
    }
}

fn write_spans(report: &Report) {
    let o = &report.options;
    let path = PathBuf::from("floorbench/out").join(format!(
        "{}-seed{}-spans.tsv",
        o.workload.name(),
        o.seed
    ));
    if let Err(e) = floorbench::span::write_tsv(&path, &report.spans) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let options = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // Detached on purpose: it only acts when the run never returns, and the
    // process exit ends it otherwise.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
        eprintln!("run did not finish within {}s", WATCHDOG.as_secs());
        std::process::exit(3);
    });
    let report = run(options);
    print_report(&report);
    if options.trace {
        write_spans(&report);
    }
    println!("{}", report.json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
