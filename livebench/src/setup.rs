//! Set-up shared by every workload, and what a run hands back.

use crate::daemon::Daemon;
use crate::inputs::SiteInputs;
use crate::stats::Report;
use std::path::Path;
use std::time::Instant;
use tafloc_core::system::TafLoc;
use tafloc_serve::maintenance::MaintenancePolicy;
use tafloc_serve::protocol::{Request, Response};
use tafloc_serve::wire::WireVersion;

/// The one site every workload serves.
pub const SITE: &str = "bench";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 25;

/// A daemon serving [`SITE`], plus an in-process copy of what it serves.
pub struct Live {
    pub daemon: Daemon,
    /// Bit-identical to the daemon's version-0 system (rebuilt from the
    /// same snapshot the daemon decoded).
    pub system: TafLoc,
    /// Seconds from spawning `taflocd` to `add-site` acknowledged, per set-up.
    pub setup_s: Vec<f64>,
}

/// Spawns `taflocd`, calibrates, and registers the site — [`SETUPS`] times,
/// keeping the last daemon. Only the last one serves the workload; the
/// others exist so `setup_s` is a median rather than one sample.
pub fn setup(tmp: &Path, inputs: &SiteInputs, policy: MaintenancePolicy, extra: &[&str]) -> Live {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut phases: [Vec<f64>; 3] = Default::default();
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let daemon = Daemon::spawn(&tmp.join(format!("daemon-{i}")), extra);
        let t1 = Instant::now();
        let system = inputs.calibrate();
        let t2 = Instant::now();
        let snapshot = system.snapshot();
        let mut admin = daemon.connect(WireVersion::V2Binary);
        let request = Request::AddSite {
            site: SITE.to_string(),
            snapshot: Box::new(snapshot.clone()),
            day: 0.0,
            policy: Some(policy),
        };
        match admin.call_ok(&request) {
            Ok(Response::SiteAdded { .. }) => {}
            other => panic!("add-site failed: {other:?}"),
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        for (phase, d) in phases.iter_mut().zip([t1 - t0, t2 - t1, t2.elapsed()]) {
            phase.push(d.as_secs_f64() * 1e3);
        }
        drop(admin);
        if i + 1 < SETUPS {
            daemon.shutdown();
            continue;
        }
        let [spawn, calibrate, add] = phases.map(|p| crate::stats::median(&p));
        println!(
            "set-up split (median ms): spawn {spawn:.3}, calibrate {calibrate:.3}, add-site {add:.3}"
        );
        let system = TafLoc::from_snapshot(snapshot).expect("snapshot round trip");
        return Live { daemon, system, setup_s };
    }
    unreachable!("SETUPS > 0")
}

/// Command-line settings of one run.
pub struct RunArgs {
    pub tmp: std::path::PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes its raw spans, if anywhere.
    pub spans: Option<std::path::PathBuf>,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub report: Report,
    /// Operations sent.
    pub attempted: u64,
    /// Errors, `overloaded` replies and timeouts.
    pub failed: u64,
    /// Failed correctness checks; the run fails unless this is empty.
    pub failures: Vec<String>,
    /// Per-layer metrics: the client and server splits only the live run
    /// can give, plus the traced replay's when tracing is on.
    pub layers: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, result: Result<(), String>) {
        match result {
            Ok(()) => println!("check {name}: ok"),
            Err(e) => {
                println!("check {name}: FAILED: {e}");
                self.failures.push(format!("{name}: {e}"));
            }
        }
    }
}

/// Peak RSS and the server-side locate histogram, read before shutdown.
pub fn finish(live: Live, out: &mut Outcome, locate_endpoint: &str) {
    let rss = live.daemon.peak_rss_mb();
    out.report.add("peak_rss_mb", rss, "MiB", 1);
    let stats = live.daemon.stats();
    if let Some(e) = stats.endpoints.iter().find(|e| e.endpoint == locate_endpoint) {
        out.layers.push(("server.stats.locate_p99_us".into(), e.p99_us as f64, "us"));
    }
    let setup = crate::stats::median(&live.setup_s);
    out.report.add("setup_s", setup, "s", live.setup_s.len());
    live.daemon.shutdown();
}
