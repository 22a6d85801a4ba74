//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <sim-cell|serve-ingest|serve-query|ring-ingest>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs come from the `oc-trace` preset-A generator seeded with
//! `--seed`. With `--trace 0` the run reports every end-to-end metric of
//! `BENCHMARK.json`; with `--trace 1` every per-layer metric, from a
//! traced run whose spans it writes to `perfbench/out/`. Every run checks the
//! served or simulated results against an offline recompute and gates
//! on self-consistency; the last stdout line is the JSON result. See
//! `perfbench/README.md` for the workloads and metrics.

mod child;
mod hist;
mod ingest;
mod input;
mod layers;
mod procfs;
mod query;
mod report;
mod ring;
mod sim;
mod span;

use report::Report;
use span::Tracer;
use std::process::ExitCode;
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = ["sim-cell", "serve-ingest", "serve-query", "ring-ingest"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; known: {}",
            WORKLOADS.join(" ")
        ));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    oc_cluster::run_child_if_node();
    if std::env::args().nth(1).as_deref() == Some(child::CHILD_FLAG) {
        child::run_child();
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let epoch = Instant::now();
    let mut tr = Tracer::new(args.trace, epoch);
    let mut rep = Report::new(args.trace);
    println!(
        "perfbench {} seed {} seconds {} trace {} on {} cores",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report::nproc()
    );
    if args.trace {
        rep.metric("bench.span_cost_ns", Tracer::calibrate(epoch), "ns");
    }
    let ran = match args.workload.as_str() {
        "sim-cell" => sim::run(&args, &mut rep, &mut tr),
        "serve-ingest" => ingest::run(&args, &mut rep, &mut tr),
        "serve-query" => query::run(&args, &mut rep, &mut tr),
        _ => ring::run(&args, &mut rep, &mut tr),
    };
    if let Err(e) = ran {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    if args.trace {
        rep.check(tr.inconsistent == 0, || {
            format!(
                "{} spans have a child whose self time exceeds them",
                tr.inconsistent
            )
        });
        let path = std::path::PathBuf::from("perfbench/out")
            .join(format!("{}-seed{}.spans.tsv", args.workload, args.seed));
        match tr.write_tsv(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    rep.finish();
    ExitCode::SUCCESS
}
