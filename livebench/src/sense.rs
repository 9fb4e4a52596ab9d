//! `sense`: the write path. A gateway connection (v2) streams live `ingest`
//! batches closed loop, each followed by a `locate-stream`; a survey
//! connection (v1) sends one reference-capture batch per reference slot per
//! simulated day, then polls until the daemon publishes the refresh that
//! round triggers (planner on, `--budget 50`, refresh on every completed
//! round).

use crate::checks::{self, Admission};
use crate::inputs::{dist, Rng, SiteInputs};
use crate::setup::{self, Outcome, RunArgs, SITE};
use crate::stats::{required_quantile, windowed_quantile, windowed_rate};
use std::time::{Duration, Instant};
use tafloc_core::monitor::MonitorConfig;
use tafloc_ingest::LinkSample;
use tafloc_serve::client::{Client, IngestOutcome};
use tafloc_serve::maintenance::MaintenancePolicy;
use tafloc_serve::protocol::{Request, Response};
use tafloc_serve::wire::WireVersion;

/// Seconds of 1 Hz samples per live batch: 10 links x 26 s = 260 samples.
pub const BATCH_S: f64 = 26.0;
/// Distinct live batches; the gateway cycles through them with rising
/// timestamps.
const POOL: usize = 2048;
/// Seconds of samples per reference-capture batch.
const CAPTURE_S: f64 = 12.0;
/// Simulated days between survey rounds: small, so the database barely
/// drifts away from the day-0 live stream however many rounds a run gets
/// through, and `loc_err_m` does not depend on the machine's speed.
pub const DAY_STEP: f64 = 0.001;
/// Upper bound on survey rounds one run can send (about 37 fit in a second).
const MAX_DAYS: usize = 1500;
/// How long a round may take to publish before it counts as failed.
const PUBLISH_TIMEOUT: Duration = Duration::from_secs(5);

/// Per-link batch budget the planner spends each round.
pub const BUDGET: &str = "50";

/// The site policy: refresh after every completed capture round.
pub fn policy() -> MaintenancePolicy {
    MaintenancePolicy {
        interval_ms: 20,
        auto_refresh: true,
        breach_streak: 1,
        // Validation rejects 0; any drift at all breaches this.
        monitor: MonitorConfig { error_threshold_db: 1e-6, min_interval_days: 0.0 },
        ..Default::default()
    }
}

/// Seeded inputs: live batches `(cell, samples)` and per-day capture rounds.
pub struct Inputs {
    pub live: Vec<(usize, Vec<LinkSample>)>,
    pub rounds: Vec<Vec<Vec<LinkSample>>>,
}

pub fn inputs(site: &SiteInputs, seed: u64, days: usize) -> Inputs {
    let mut rng = Rng::new(seed ^ 0xC0FFEE);
    let live = (0..POOL)
        .map(|_| {
            let cell = rng.below(site.cells());
            (cell, site.raw(0.0, cell, BATCH_S, rng.next_u64()))
        })
        .collect();
    let rounds = (1..=days)
        .map(|d| {
            site.ref_cells
                .iter()
                .map(|&cell| site.raw(d as f64 * DAY_STEP, cell, CAPTURE_S, rng.next_u64()))
                .collect()
        })
        .collect();
    Inputs { live, rounds }
}

/// Live batch `b`: pool entry `b % POOL`, shifted so timestamps rise.
pub fn live_batch(pool: &[(usize, Vec<LinkSample>)], b: usize) -> (usize, Vec<LinkSample>) {
    let (cell, samples) = &pool[b % pool.len()];
    let offset = b as f64 * BATCH_S;
    (*cell, samples.iter().map(|s| LinkSample::new(s.link, s.t_s + offset, s.rss_dbm)).collect())
}

#[derive(Default)]
struct Counts {
    admission: Admission,
    attempted: u64,
    failed: u64,
}

impl Counts {
    fn ingest(
        &mut self,
        client: &mut Client,
        ref_cell: Option<usize>,
        day: f64,
        samples: Vec<LinkSample>,
    ) -> bool {
        let n = samples.len() as u64;
        self.attempted += 1;
        self.admission.offered += n;
        match client.try_ingest(SITE, ref_cell, day, samples) {
            Ok(IngestOutcome::Ingested(_)) => {
                self.admission.admitted += n;
                true
            }
            Ok(IngestOutcome::Overloaded { reason, .. }) => {
                self.failed += 1;
                if reason == "rejected" {
                    self.admission.rejected += n;
                } else {
                    self.admission.deferred += n;
                }
                false
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("ingest failed: {e}");
                false
            }
        }
    }
}

#[derive(Default)]
struct Gateway {
    counts: Counts,
    admitted_live: u64,
    /// (seconds into the run, round trip µs, samples admitted) per batch.
    ingest: Vec<(f64, f64, f64)>,
    /// (seconds into the run, round trip µs) per `locate-stream`.
    locate_us: Vec<(f64, f64)>,
    gap_us: Vec<f64>,
    err_m: f64,
    fixes: usize,
}

fn gateway(
    daemon: &crate::daemon::Daemon,
    pool: &[(usize, Vec<LinkSample>)],
    centres: &[(f64, f64)],
    (start, until): (Instant, Instant),
) -> Gateway {
    let mut client = daemon.connect(WireVersion::V2Binary);
    let mut g = Gateway::default();
    let mut last_done = Instant::now();
    let mut b = 0;
    while Instant::now() < until {
        let (cell, samples) = live_batch(pool, b);
        b += 1;
        let n = samples.len() as u64;
        let t0 = Instant::now();
        g.gap_us.push((t0 - last_done).as_secs_f64() * 1e6);
        if !g.counts.ingest(&mut client, None, 0.0, samples) {
            break;
        }
        let t1 = Instant::now();
        let at = (t1 - start).as_secs_f64();
        g.ingest.push((at, (t1 - t0).as_secs_f64() * 1e6, n as f64));
        g.admitted_live += n;
        g.counts.attempted += 1;
        match client.locate_stream(SITE) {
            Ok((_, x, y, _)) => {
                last_done = Instant::now();
                let at = (last_done - start).as_secs_f64();
                g.locate_us.push((at, (last_done - t1).as_secs_f64() * 1e6));
                g.err_m += dist((x, y), centres[cell]);
                g.fixes += 1;
            }
            Err(e) => {
                g.counts.failed += 1;
                eprintln!("locate-stream failed: {e}");
                break;
            }
        }
    }
    g
}

#[derive(Default)]
struct Surveyor {
    counts: Counts,
    versions: Vec<u64>,
    lag_ms: Vec<f64>,
    rtt_us: Vec<f64>,
}

fn site_version(client: &mut Client) -> Option<u64> {
    match client.call_ok(&Request::ListSites) {
        Ok(Response::Sites { sites }) => sites.iter().find(|s| s.site == SITE).map(|s| s.version),
        _ => None,
    }
}

fn surveyor(
    daemon: &crate::daemon::Daemon,
    rounds: &[Vec<Vec<LinkSample>>],
    until: Instant,
) -> Surveyor {
    let mut client = daemon.connect(WireVersion::V1Json);
    let mut s = Surveyor::default();
    let mut version = 0;
    'days: for (i, round) in rounds.iter().enumerate() {
        if Instant::now() >= until {
            break;
        }
        let day = (i + 1) as f64 * DAY_STEP;
        for (k, samples) in round.iter().enumerate() {
            let t0 = Instant::now();
            if !s.counts.ingest(&mut client, Some(k), day, samples.clone()) {
                break 'days;
            }
            s.rtt_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        let acked = Instant::now();
        loop {
            s.counts.attempted += 1;
            let t0 = Instant::now();
            let Some(v) = site_version(&mut client) else {
                s.counts.failed += 1;
                break 'days;
            };
            s.rtt_us.push(t0.elapsed().as_secs_f64() * 1e6);
            if v > version {
                s.lag_ms.push(acked.elapsed().as_secs_f64() * 1e3);
                s.versions.push(v);
                version = v;
                break;
            }
            if acked.elapsed() > PUBLISH_TIMEOUT {
                s.counts.failed += 1;
                eprintln!("round {} never published a new version", i + 1);
                break 'days;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }
    s
}

pub fn run(args: &RunArgs) -> Outcome {
    let (tmp, seed, seconds) = (&args.tmp, args.seed, args.seconds);
    let site = SiteInputs::paper();
    let inp = inputs(&site, seed, MAX_DAYS);
    let live = setup::setup(tmp, &site, policy(), &["--budget", BUDGET]);
    let cost_before = crate::refresh::site_cost(&live.daemon);

    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let (g, s) = std::thread::scope(|sc| {
        let g = sc.spawn(|| gateway(&live.daemon, &inp.live, &site.centres, (start, until)));
        let s = sc.spawn(|| surveyor(&live.daemon, &inp.rounds, until));
        (g.join().expect("gateway thread"), s.join().expect("survey thread"))
    });
    let elapsed = start.elapsed().as_secs_f64();
    // Let an in-flight maintenance tick settle before reading the counters.
    std::thread::sleep(Duration::from_millis(50));
    let stats = live.daemon.stats();
    let row = stats.sites.iter().find(|r| r.site == SITE).expect("site row");
    let server = stats.shards.iter().fold(Admission::default(), |a, sh| Admission {
        offered: a.offered + sh.offered_samples,
        admitted: a.admitted + sh.admitted_samples,
        deferred: a.deferred + sh.deferred_samples,
        rejected: a.rejected + sh.rejected_samples,
    });
    let client = Admission {
        offered: g.counts.admission.offered + s.counts.admission.offered,
        admitted: g.counts.admission.admitted + s.counts.admission.admitted,
        deferred: g.counts.admission.deferred + s.counts.admission.deferred,
        rejected: g.counts.admission.rejected + s.counts.admission.rejected,
    };

    let mut out = Outcome::default();
    out.check("sense.admission_conserved", checks::admission_conserved(client, server));
    out.check("sense.one_version_per_day", checks::one_version_per_step(0, &s.versions));
    out.check(
        "sense.no_unsurveyed_publish",
        checks::zero(
            "versions published after the last round",
            row.version.saturating_sub(s.versions.last().copied().unwrap_or(0)),
        ),
    );
    out.check(
        "sense.refresh_rejections",
        checks::zero("refresh_rejections", row.refresh_rejections),
    );
    out.check("sense.persist_failures", checks::zero("persist_failures", row.persist_failures));

    out.attempted = g.counts.attempted + s.counts.attempted;
    out.failed = g.counts.failed + s.counts.failed;
    let days = s.versions.len();
    let cost = row.actual_cost - cost_before;
    println!(
        "surveys paid {cost} of {} full-survey link measurements over {days} rounds",
        row.full_survey_cost
    );
    let ing_t: Vec<(f64, f64)> = g.ingest.iter().map(|&(t, us, _)| (t, us)).collect();
    let done: Vec<(f64, f64)> = g.ingest.iter().map(|&(t, _, n)| (t, n)).collect();
    let mut ing: Vec<f64> = ing_t.iter().map(|&(_, us)| us).collect();
    let mut loc: Vec<f64> = g.locate_us.iter().map(|&(_, us)| us).collect();
    let (mut lag, mut gap) = (s.lag_ms.clone(), g.gap_us.clone());
    let (ni, nl) = (ing.len(), loc.len());
    let r = &mut out.report;
    r.add("ingest_sps", g.admitted_live as f64 / elapsed, "samples/s", ni);
    r.add("ingest_p50_us", required_quantile("ingest", &mut ing, 0.5), "us", ni);
    r.add("ingest_p99_us", required_quantile("ingest", &mut ing, 0.99), "us", ni);
    r.add("publish_lag_ms_p50", required_quantile("publish lag", &mut lag, 0.5), "ms", days);
    r.add("survey_links", cost as f64 / days.max(1) as f64, "count/refresh", days);
    r.add("locate_p99_us", required_quantile("locate-stream", &mut loc, 0.99), "us", nl);
    r.add(
        "locate_p50_us",
        windowed_quantile("locate-stream", &g.locate_us, 0.5, seconds),
        "us",
        nl,
    );
    r.add("loc_err_m", g.err_m / g.fixes.max(1) as f64, "m", g.fixes);
    r.add("op_per_s", windowed_rate(&done, seconds), "1/s", ni);
    r.add("op_p50_ms", windowed_quantile("ingest", &ing_t, 0.5, seconds) / 1e3, "ms", ni);
    r.add("op_p90_ms", windowed_quantile("ingest", &ing_t, 0.9, seconds) / 1e3, "ms", ni);
    let mut v1 = s.rtt_us.clone();
    let mut v2: Vec<f64> = ing.iter().chain(&loc).copied().collect();
    out.layers.push(("client.v1.rtt_p50_us".into(), required_quantile("rtt", &mut v1, 0.5), "us"));
    out.layers.push(("client.v2.rtt_p50_us".into(), required_quantile("rtt", &mut v2, 0.5), "us"));
    out.layers.push(("gen.late_p99_us".into(), required_quantile("gap", &mut gap, 0.99), "us"));
    let pushback = (server.deferred + server.rejected) as f64 / server.offered.max(1) as f64;
    out.layers.push(("shard.pushback_frac".into(), pushback, "ratio"));
    let system = live.system.clone();
    setup::finish(live, &mut out, "locate-stream");
    if args.trace {
        let (_, ys) = crate::locate::queries(&site, seed, 0.0);
        let surveys = crate::refresh::surveys(&site, 8);
        let li = crate::layers::LayerInputs::new(&site, seed, &system, &ys, &surveys);
        // The live gate's pushback is the one that matters here.
        let replayed = crate::layers::run(&li, tmp, args.spans.as_deref());
        out.layers.extend(replayed.into_iter().filter(|l| l.0 != "shard.pushback_frac"));
    }
    out
}
