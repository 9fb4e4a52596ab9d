//! `refresh`: the paper's Fig. 4 quantity on the live system. A survey
//! connection (v2) sends, per simulated day, `measure-refs` then `refresh`
//! back to back on a 48-link x 400-cell site; a second connection (v1) sends
//! `locate` open loop at a fixed rate throughout, each timed from its due
//! time. Afterwards the same days are replayed in-process and every reply is
//! checked against the replay.

use crate::checks::{self, Fix};
use crate::inputs::{dist, SiteInputs};
use crate::setup::{self, Outcome, RunArgs, SITE};
use crate::stats::{required_quantile, windowed_quantile};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use taf_linalg::Matrix;
use taf_rfsim::campaign;
use tafloc_core::system::{ReconstructionGuard, SolverCache, TafLoc};
use tafloc_serve::maintenance::MaintenancePolicy;
use tafloc_serve::protocol::{Request, Response};
use tafloc_serve::wire::WireVersion;

/// Open-loop locate rate (req/s), far below the read path's capacity.
pub const LOCATE_RATE: f64 = 1000.0;

/// Upper bound on simulated days one run can survey.
const MAX_DAYS: usize = 600;

/// Days the traced replay solves.
const TRACED_DAYS: usize = 24;

/// Refreshes every run completes, even past its deadline. The `op_*`
/// metrics are taken over exactly these first days, so every run times the
/// same solves (the later days' iteration counts differ) and the p90 always
/// has ten samples beyond it.
const MIN_REFRESHES: usize = 200;

/// One day's survey: fresh reference columns and an empty-room snapshot.
pub struct Survey {
    pub day: f64,
    pub columns: Matrix,
    pub empty: Vec<f64>,
}

/// Surveys for days `1..=days` at the site's reference cells: the
/// simulator's deterministic measurement campaign, so every seed refreshes
/// the same database the same way and the seed only moves the readers.
pub fn surveys(inputs: &SiteInputs, days: usize) -> Vec<Survey> {
    (1..=days)
        .map(|d| {
            let day = d as f64;
            Survey {
                day,
                columns: campaign::measure_columns(&inputs.world, day, &inputs.ref_cells, 20),
                empty: campaign::empty_snapshot(&inputs.world, day, 20),
            }
        })
        .collect()
}

/// One refresh as the survey connection saw it.
struct Refreshed {
    ms: f64,
    /// Seconds into the run at which the `refreshed` reply arrived.
    done_s: f64,
    iterations: usize,
    converged: bool,
    version: u64,
}

/// Replays `days` through `TafLoc` exactly as `Site::refresh` runs them:
/// cached solve, guard, adopt, apply. Calls `visit(version, system)` for
/// version 0 and after every refresh.
pub fn replay(
    system: &TafLoc,
    days: &[Survey],
    mut visit: impl FnMut(u64, &TafLoc),
) -> Vec<(usize, bool)> {
    let mut system = system.clone();
    let mut cache = SolverCache::new();
    let guard = ReconstructionGuard::default();
    visit(0, &system);
    let mut solves = Vec::with_capacity(days.len());
    for (i, s) in days.iter().enumerate() {
        let rec = system.reconstruct_db_cached(&s.columns, &s.empty, &mut cache).expect("solve");
        solves.push((rec.iterations, rec.converged));
        if system.validate_reconstruction(&rec, &s.columns, &guard).is_err() {
            break; // the daemon would have rejected it too; the check reports the gap
        }
        cache.adopt(&rec);
        system.apply_reconstruction(rec, &s.empty).expect("apply");
        visit(i as u64 + 1, &system);
    }
    solves
}

/// What the survey connection recorded.
#[derive(Default)]
struct SurveyLoop {
    refreshes: Vec<Refreshed>,
    /// Round trip of each request, `measure-refs` and `refresh` alike.
    rtt_us: Vec<f64>,
    attempted: u64,
    failed: u64,
}

fn survey_loop(
    daemon: &crate::daemon::Daemon,
    days: &[Survey],
    (start, until): (Instant, Instant),
) -> SurveyLoop {
    let mut client = daemon.connect(WireVersion::V2Binary);
    let mut o = SurveyLoop::default();
    for s in days {
        if Instant::now() >= until && o.refreshes.len() >= MIN_REFRESHES {
            break;
        }
        let refs = Request::MeasureRefs {
            site: SITE.into(),
            day: s.day,
            columns: s.columns.clone(),
            empty: s.empty.clone(),
        };
        let t0 = Instant::now();
        o.attempted += 1;
        let accepted = client.call_ok(&refs);
        let t1 = Instant::now();
        o.rtt_us.push((t1 - t0).as_secs_f64() * 1e6);
        let reply = accepted.and_then(|_| {
            o.attempted += 1;
            client.call_ok(&Request::Refresh { site: SITE.into() })
        });
        o.rtt_us.push(t1.elapsed().as_secs_f64() * 1e6);
        match reply {
            Ok(Response::Refreshed { iterations, converged, version, .. }) => {
                o.refreshes.push(Refreshed {
                    ms: t0.elapsed().as_secs_f64() * 1e3,
                    done_s: start.elapsed().as_secs_f64(),
                    iterations,
                    converged,
                    version,
                })
            }
            other => {
                o.failed += 1;
                eprintln!("refresh failed: {other:?}");
                break;
            }
        }
    }
    o
}

/// What the open-loop locate connection recorded.
#[derive(Default)]
struct OpenLoop {
    fixes: Vec<Fix>,
    /// From the request's due time to its reply.
    latency_us: Vec<(f64, f64)>,
    /// From the actual send to the reply.
    rtt_us: Vec<f64>,
    late_us: Vec<f64>,
    err_m: f64,
    attempted: u64,
    failed: u64,
}

fn open_loop(
    daemon: &crate::daemon::Daemon,
    ys: &[Vec<f64>],
    cells: &[usize],
    centres: &[(f64, f64)],
    start: Instant,
    done: &AtomicBool,
) -> OpenLoop {
    let mut client = daemon.connect(WireVersion::V1Json);
    let mut o = OpenLoop::default();
    let period = Duration::from_secs_f64(1.0 / LOCATE_RATE);
    for k in 0.. {
        let due = start + period * k as u32;
        // The survey thread ends the loop; the cap only guards a survey
        // thread that died without saying so.
        if done.load(Ordering::Acquire) || due > start + Duration::from_secs(150) {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        o.late_us.push((sent - due).as_secs_f64() * 1e6);
        let q = k % ys.len();
        o.attempted += 1;
        match client.locate(SITE, &ys[q]) {
            Ok((cell, x, y, v)) => {
                let at = (due - start).as_secs_f64();
                o.latency_us.push((at, due.elapsed().as_secs_f64() * 1e6));
                o.rtt_us.push(sent.elapsed().as_secs_f64() * 1e6);
                o.err_m += dist((x, y), centres[cells[q]]);
                o.fixes.push(Fix { query: q as u32, cell: cell as u32, version: v });
            }
            Err(e) => {
                o.failed += 1;
                eprintln!("locate failed: {e}");
                break;
            }
        }
    }
    o
}

pub fn run(args: &RunArgs) -> Outcome {
    let (tmp, seed, seconds) = (&args.tmp, args.seed, args.seconds);
    let inputs = SiteInputs::large();
    let days = surveys(&inputs, MAX_DAYS);
    let (cells, ys) = crate::locate::queries(&inputs, seed, 0.0);
    let policy = MaintenancePolicy { auto_refresh: false, ..Default::default() };
    let live = setup::setup(tmp, &inputs, policy, &[]);
    let cost_before = site_cost(&live.daemon);

    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let done = AtomicBool::new(false);
    let (survey, reads) = std::thread::scope(|s| {
        let survey = s.spawn(|| {
            let r = survey_loop(&live.daemon, &days, (start, until));
            done.store(true, Ordering::Release);
            r
        });
        let reads = s.spawn(|| open_loop(&live.daemon, &ys, &cells, &inputs.centres, start, &done));
        (survey.join().expect("survey thread"), reads.join().expect("locate thread"))
    });
    let elapsed = start.elapsed().as_secs_f64();
    let cost = site_cost(&live.daemon) - cost_before;

    let refreshes = &survey.refreshes;
    let mut out = Outcome::default();
    let versions: Vec<u64> = refreshes.iter().map(|r| r.version).collect();
    out.check("refresh.one_version_per_day", checks::one_version_per_step(0, &versions));
    // Replay the surveyed days, checking every fix against the system the
    // daemon served at the fix's version.
    let mut fixes = reads.fixes.clone();
    fixes.sort_by_key(|f| f.version);
    let mut fix_check = Ok(());
    let mut next = 0;
    let replayed = replay(&live.system, &days[..refreshes.len()], |version, system| {
        let end = next + fixes[next..].iter().take_while(|f| f.version == version).count();
        let r = checks::fixes_match(&fixes[next..end], |_, q| {
            system.localize(&ys[q as usize]).expect("localize").cell
        });
        if fix_check.is_ok() {
            fix_check = r;
        }
        next = end;
    });
    if next != fixes.len() {
        fix_check = Err(format!("{} fixes carry a version never published", fixes.len() - next));
    }
    out.check("refresh.fixes_match_replay", fix_check);
    let live_solves: Vec<(usize, bool)> =
        refreshes.iter().map(|r| (r.iterations, r.converged)).collect();
    out.check("refresh.solves_match_replay", checks::same_solves(&live_solves, &replayed));
    let iters: Vec<String> = live_solves.iter().take(8).map(|s| s.0.to_string()).collect();
    println!("refresh iterations (first days): {}", iters.join(", "));

    out.attempted = survey.attempted + reads.attempted;
    out.failed = survey.failed + reads.failed;
    let n = refreshes.len();
    let mut ms: Vec<f64> = refreshes.iter().map(|r| r.ms).collect();
    let first_ms: Vec<f64> = ms.iter().take(TRACED_DAYS).copied().collect();
    let mut lat: Vec<f64> = reads.latency_us.iter().map(|&(_, us)| us).collect();
    let mut late = reads.late_us.clone();
    let nl = lat.len();
    let r = &mut out.report;
    r.add("refresh_ms_p50", required_quantile("refresh", &mut ms, 0.5), "ms", n);
    r.add("refresh_ms_p90", required_quantile("refresh", &mut ms, 0.9), "ms", n);
    r.add("survey_links", cost as f64 / n.max(1) as f64, "count/refresh", n);
    let p50 = windowed_quantile("locate latency", &reads.latency_us, 0.5, elapsed);
    r.add("locate_p50_us", p50, "us", nl);
    r.add("locate_p99_us", required_quantile("locate latency", &mut lat, 0.99), "us", nl);
    r.add("loc_err_m", reads.err_m / nl.max(1) as f64, "m", nl);
    let gated = &refreshes[..MIN_REFRESHES.min(n)];
    let mut gated_ms: Vec<f64> = gated.iter().map(|r| r.ms).collect();
    let ng = gated.len();
    let gated_s = gated.last().map_or(f64::NAN, |r| r.done_s);
    r.add("op_per_s", ng as f64 / gated_s, "1/s", ng);
    r.add("op_p50_ms", required_quantile("refresh", &mut gated_ms, 0.5), "ms", ng);
    r.add("op_p90_ms", required_quantile("refresh", &mut gated_ms, 0.9), "ms", ng);
    let (mut v1, mut v2) = (reads.rtt_us.clone(), survey.rtt_us.clone());
    out.layers.push(("client.v1.rtt_p50_us".into(), required_quantile("rtt", &mut v1, 0.5), "us"));
    out.layers.push(("client.v2.rtt_p50_us".into(), required_quantile("rtt", &mut v2, 0.5), "us"));
    out.layers.push(("gen.late_p99_us".into(), required_quantile("late", &mut late, 0.99), "us"));
    let system = live.system.clone();
    setup::finish(live, &mut out, "locate");
    if args.trace {
        let li = crate::layers::LayerInputs::new(&inputs, seed, &system, &ys, &days[..TRACED_DAYS]);
        out.layers.extend(crate::layers::run(&li, tmp, args.spans.as_deref()));
        let solve = out.layers.iter().find(|l| l.0 == "core.solve_ms").map_or(f64::NAN, |l| l.1);
        // Compare like with like: the live refreshes of the replayed days.
        let p50 = crate::stats::median(&first_ms);
        println!(
            "core.solve_ms is {:.0}% of the live refresh_ms_p50 over the same {TRACED_DAYS} days",
            100.0 * solve / p50
        );
    }
    out
}

/// Link measurements the site's surveys have paid so far (`actual_cost`).
pub fn site_cost(daemon: &crate::daemon::Daemon) -> u64 {
    daemon.stats().sites.iter().find(|s| s.site == SITE).map_or(0, |s| s.actual_cost)
}
