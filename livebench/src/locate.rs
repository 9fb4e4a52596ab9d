//! `locate`: the read path. Two persistent connections (one v1, one v2) send
//! single `locate` requests closed loop; no refresh, no ingest.

use crate::checks::{self, Fix};
use crate::inputs::{dist, Rng, SiteInputs};
use crate::setup::{self, Outcome, RunArgs, SITE};
use crate::stats::{required_quantile, windowed_quantile, windowed_rate};
use std::time::{Duration, Instant};
use tafloc_serve::maintenance::MaintenancePolicy;
use tafloc_serve::wire::WireVersion;

/// Distinct pre-generated queries; connections cycle through them.
const QUERIES: usize = 4096;

/// What one client connection recorded.
#[derive(Default)]
pub struct Conn {
    pub fixes: Vec<Fix>,
    /// (seconds into the run, round trip µs) per reply.
    pub rtt_us: Vec<(f64, f64)>,
    /// Client time between the previous reply and the next send.
    pub gap_us: Vec<f64>,
    pub err_m: f64,
    pub attempted: u64,
    pub failed: u64,
}

pub fn queries(inputs: &SiteInputs, seed: u64, day: f64) -> (Vec<usize>, Vec<Vec<f64>>) {
    let mut rng = Rng::new(seed);
    let cells: Vec<usize> = (0..QUERIES).map(|_| rng.below(inputs.cells())).collect();
    let ys = cells
        .iter()
        .enumerate()
        .map(|(i, &c)| inputs.snapshot(day, c, (seed << 24) ^ i as u64))
        .collect();
    (cells, ys)
}

/// Sends `locate` closed loop until `until`, cycling from query `first` in
/// steps of `stride`.
pub fn closed_loop(
    live: &crate::daemon::Daemon,
    version: WireVersion,
    ys: &[Vec<f64>],
    cells: &[usize],
    centres: &[(f64, f64)],
    (first, stride): (usize, usize),
    (start, until): (Instant, Instant),
) -> Conn {
    let mut client = live.connect(version);
    let mut conn = Conn::default();
    let mut k = first;
    let mut last_done = Instant::now();
    while Instant::now() < until {
        let q = k % ys.len();
        k += stride;
        let t0 = Instant::now();
        conn.gap_us.push((t0 - last_done).as_secs_f64() * 1e6);
        conn.attempted += 1;
        match client.locate(SITE, &ys[q]) {
            Ok((cell, x, y, v)) => {
                last_done = Instant::now();
                let at = (last_done - start).as_secs_f64();
                conn.rtt_us.push((at, (last_done - t0).as_secs_f64() * 1e6));
                conn.err_m += dist((x, y), centres[cells[q]]);
                conn.fixes.push(Fix { query: q as u32, cell: cell as u32, version: v });
            }
            Err(e) => {
                conn.failed += 1;
                eprintln!("locate failed: {e}");
                break;
            }
        }
    }
    conn
}

pub fn run(args: &RunArgs) -> Outcome {
    let (tmp, seed, seconds) = (&args.tmp, args.seed, args.seconds);
    let inputs = SiteInputs::paper();
    let (cells, ys) = queries(&inputs, seed, 0.0);
    let policy = MaintenancePolicy { auto_refresh: false, ..Default::default() };
    let live = setup::setup(tmp, &inputs, policy, &[]);
    let expected: Vec<usize> =
        ys.iter().map(|y| live.system.localize(y).expect("in-process localize").cell).collect();

    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let versions = [WireVersion::V1Json, WireVersion::V2Binary];
    let conns: Vec<Conn> = std::thread::scope(|s| {
        let handles: Vec<_> = versions
            .iter()
            .enumerate()
            .map(|(t, &v)| {
                let (live, ys, cells, centres) = (&live.daemon, &ys, &cells, &inputs.centres);
                s.spawn(move || closed_loop(live, v, ys, cells, centres, (t, 2), (start, until)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();

    let mut out = Outcome::default();
    let fixes: Vec<Fix> = conns.iter().flat_map(|c| c.fixes.iter().copied()).collect();
    out.check(
        "locate.fixes_match_replay",
        checks::fixes_match(&fixes, |_, q| expected[q as usize]),
    );
    out.check("locate.version_unchanged", checks::single_version(&fixes, 0));
    out.attempted = conns.iter().map(|c| c.attempted).sum();
    out.failed = conns.iter().map(|c| c.failed).sum();

    let n = fixes.len();
    let timed: Vec<(f64, f64)> = conns.iter().flat_map(|c| c.rtt_us.iter().copied()).collect();
    let mut rtt: Vec<f64> = timed.iter().map(|&(_, us)| us).collect();
    let mut gap: Vec<f64> = conns.iter().flat_map(|c| c.gap_us.iter().copied()).collect();
    let err: f64 = conns.iter().map(|c| c.err_m).sum::<f64>() / n.max(1) as f64;
    let done: Vec<(f64, f64)> = timed.iter().map(|&(t, _)| (t, 1.0)).collect();
    let r = &mut out.report;
    r.add("locate_rps", n as f64 / elapsed, "req/s", n);
    r.add("locate_p99_us", required_quantile("locate rtt", &mut rtt, 0.99), "us", n);
    r.add("locate_p50_us", windowed_quantile("locate rtt", &timed, 0.5, seconds), "us", n);
    r.add("loc_err_m", err, "m", n);
    r.add("op_per_s", windowed_rate(&done, seconds), "1/s", n);
    r.add("op_p50_ms", windowed_quantile("locate rtt", &timed, 0.5, seconds) / 1e3, "ms", n);
    r.add("op_p90_ms", windowed_quantile("locate rtt", &timed, 0.9, seconds) / 1e3, "ms", n);
    for (c, tag) in conns.iter().zip(["v1", "v2"]) {
        let mut v: Vec<f64> = c.rtt_us.iter().map(|&(_, us)| us).collect();
        out.layers.push((
            format!("client.{tag}.rtt_p50_us"),
            required_quantile("rtt", &mut v, 0.5),
            "us",
        ));
    }
    out.layers.push(("gen.late_p99_us".into(), required_quantile("gap", &mut gap, 0.99), "us"));
    let system = live.system.clone();
    setup::finish(live, &mut out, "locate");
    if args.trace {
        let surveys = crate::refresh::surveys(&inputs, 8);
        let li = crate::layers::LayerInputs::new(&inputs, seed, &system, &ys, &surveys);
        out.layers.extend(crate::layers::run(&li, tmp, args.spans.as_deref()));
    }
    out
}
