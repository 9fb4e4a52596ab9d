//! Live-daemon benchmark for `taflocd`.
//!
//! ```text
//! livebench --workload locate|refresh|sense --seed N --seconds S --trace 0|1 --tmp DIR
//! ```
//!
//! Each run spawns `taflocd` children on fresh data dirs under `--tmp`,
//! drives one workload over loopback TCP from at most two client threads,
//! checks every reply against an in-process replay, and prints one metric
//! per line followed by a single JSON result line. `--trace 1` adds an
//! in-process replay of the workload's inputs through each layer's public
//! entry points and reports per-layer metrics instead of end-to-end ones.

mod checks;
mod daemon;
mod inputs;
mod layers;
mod locate;
mod refresh;
mod sense;
mod setup;
mod stats;
mod trace;

use setup::{Outcome, RunArgs};
use std::path::PathBuf;

/// End-to-end metrics in the result line, measured on every workload by the
/// untraced run. The `op_*` metrics are the workload's own operation: a
/// `locate` round trip, a `measure-refs` + `refresh` cycle, or a live
/// `ingest` batch (with `op_per_s` counting admitted samples). Tail
/// percentiles (`locate_p99_us`, `ingest_p99_us`) are printed with their
/// sample counts but left out: on a 2-core box their run-to-run spread is
/// wider than any bound a regression gate could use.
const END_TO_END: &[&str] =
    &["setup_s", "op_per_s", "op_p50_ms", "op_p90_ms", "locate_p50_us", "loc_err_m", "peak_rss_mb"];

fn parse_args() -> Result<(String, RunArgs), String> {
    let mut workload = String::new();
    let mut args = RunArgs {
        tmp: PathBuf::from("livebench/tmp"),
        seed: 1,
        seconds: 10.0,
        trace: false,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad(()))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad(()))?,
            "--trace" => args.trace = value != "0",
            "--tmp" => args.tmp = PathBuf::from(&value),
            "--spans" => args.spans = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload, args))
}

fn main() {
    let (workload, mut args) = parse_args().unwrap_or_else(|e| {
        eprintln!("livebench: {e}");
        std::process::exit(2);
    });
    println!(
        "livebench workload={} seed={} seconds={} trace={}",
        workload, args.seed, args.seconds, args.trace as u8
    );
    args.tmp = args.tmp.join(format!("run-{}", std::process::id()));
    let run: fn(&RunArgs) -> Outcome = match workload.as_str() {
        "locate" => locate::run,
        "refresh" => refresh::run,
        "sense" => sense::run,
        other => {
            eprintln!("livebench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    // A panic unwinds through every `Daemon` (killing its child and deleting
    // its data dir) before the run dir itself is removed here.
    let outcome = std::panic::catch_unwind(|| run(&args));
    let _ = std::fs::remove_dir_all(&args.tmp);
    let Ok(mut outcome) = outcome else {
        eprintln!("livebench: the {workload} workload panicked");
        std::process::exit(1);
    };
    // Printed, not in the result line: it is 0 on a healthy run, and the
    // result line carries `attempted` and `failed` themselves.
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.report.add("failed_frac", failed_frac, "ratio", outcome.attempted as usize);
    let names = if args.trace {
        for (name, value, unit) in std::mem::take(&mut outcome.layers) {
            outcome.report.add(&name, value, unit, 1);
        }
        layers::PER_LAYER
    } else {
        END_TO_END
    };
    let correct = outcome.failures.is_empty();
    println!("{}", outcome.report.result_line(names, correct, outcome.attempted, outcome.failed));
    if !correct {
        std::process::exit(1);
    }
}
