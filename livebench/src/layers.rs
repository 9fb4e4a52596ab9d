//! The traced replay: the workload's seeded inputs pushed in-process through
//! each layer's public entry point, one span per call. Run once with spans
//! off and once with spans on; the difference is the tracing overhead.

use crate::inputs::SiteInputs;
use crate::refresh::Survey;
use crate::setup::SITE;
use crate::stats::median;
use crate::trace::Tracer;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use taf_linalg::Matrix;
use taf_plan::{PlanInputs, PlanPolicy, Planner, PlannerConfig};
use tafloc_core::system::{ReconstructionGuard, SolverCache, TafLoc};
use tafloc_ingest::{IngestConfig, Ingestor, LinkSample};
use tafloc_serve::journal::{Journal, JournalConfig, JournalRecord};
use tafloc_serve::maintenance::MaintenancePolicy;
use tafloc_serve::protocol::{Request, Response};
use tafloc_serve::server::{dispatch, Server, ServerConfig};
use tafloc_serve::shard::{AdmissionConfig, AdmissionGate, Admit};
use tafloc_serve::site::Site;
use tafloc_serve::store::SiteStore;
use tafloc_serve::wire::{self, v1, v2, WireVersion};

/// Calls per layer for the cheap entry points.
const CALLS: usize = 2000;
/// Journal records appended (each followed by an fsync).
const JOURNAL_RECORDS: usize = 40;
/// Snapshot saves.
const SAVES: usize = 10;
/// Repeats of each linear-algebra kernel.
const KERNEL_REPS: usize = 2000;

/// Live batches and capture rounds the replay feeds through ingest.
const BATCHES: usize = 200;
const ROUNDS: usize = 4;

/// Seeded inputs of the replay; generated before anything is timed.
pub struct LayerInputs<'a> {
    pub system: &'a TafLoc,
    pub queries: &'a [Vec<f64>],
    pub surveys: &'a [Survey],
    pub batches: Vec<Vec<LinkSample>>,
    pub rounds: Vec<Vec<Vec<LinkSample>>>,
    pub budget: usize,
}

impl<'a> LayerInputs<'a> {
    /// The workload's queries and surveys, plus live batches and capture
    /// rounds drawn from the same seed as the `sense` workload draws them.
    pub fn new(
        site: &SiteInputs,
        seed: u64,
        system: &'a TafLoc,
        queries: &'a [Vec<f64>],
        surveys: &'a [Survey],
    ) -> Self {
        let sense = crate::sense::inputs(site, seed, ROUNDS);
        LayerInputs {
            system,
            queries,
            surveys,
            batches: (0..BATCHES).map(|b| crate::sense::live_batch(&sense.live, b).1).collect(),
            rounds: sense.rounds,
            budget: crate::sense::BUDGET.parse().expect("budget"),
        }
    }
}

/// Counts and sizes the replay measures directly (not from spans).
#[derive(Default)]
struct Counts {
    writes: [(usize, usize); 2],
    ingest_bytes: f64,
    record_bytes: f64,
    snapshot_bytes: f64,
    dropped_frac: f64,
    pushback_frac: f64,
    solve_iters: Vec<usize>,
    warm: usize,
    max_iter_stops: usize,
    links_per_plan: f64,
}

/// `Write` that counts the calls it receives.
#[derive(Default)]
pub struct CountingWriter {
    pub writes: usize,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// `write` calls one `located` reply and one `locate` request cost in
/// `version` framing, through the daemon's own writers.
pub fn writes_per_message(version: WireVersion, y: &[f64]) -> (usize, usize) {
    let reply = Response::Located { cell: 1, x: 0.3, y: 0.9, distance_db: 1.5, version: 1 };
    let mut w = CountingWriter::default();
    wire::write_response(&mut w, &reply, version).expect("write reply");
    let per_reply = w.writes;
    let mut w = CountingWriter::default();
    wire::write_request(&mut w, &Request::Locate { site: SITE.into(), y: y.to_vec() }, version)
        .expect("write request");
    (per_reply, w.writes)
}

fn wal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| rd.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

fn replay(t: &mut Tracer, li: &LayerInputs, tmp: &Path) -> Counts {
    let mut c = Counts::default();
    let _ = std::fs::remove_dir_all(tmp);
    std::fs::create_dir_all(tmp).expect("replay dir");
    let sys = li.system;
    let queries = &li.queries[..CALLS.min(li.queries.len())];
    let fixes: Vec<_> = queries.iter().map(|y| sys.localize(y).expect("localize")).collect();

    // wire: codecs and write counts.
    c.writes = [
        writes_per_message(WireVersion::V1Json, &queries[0]),
        writes_per_message(WireVersion::V2Binary, &queries[0]),
    ];
    t.span("replay.wire", 0, |t| {
        let mut buf = Vec::with_capacity(512);
        for (i, (y, fix)) in queries.iter().zip(&fixes).enumerate() {
            let req = Request::Locate { site: SITE.into(), y: y.clone() };
            let reply = Response::Located {
                cell: fix.cell,
                x: fix.point.x,
                y: fix.point.y,
                distance_db: fix.best_distance,
                version: 0,
            };
            t.span("wire.v1.locate_codec", i as u64, |_| {
                buf.clear();
                v1::encode_request(&req, &mut buf);
                let r = v1::decode_request(std::str::from_utf8(&buf).unwrap()).expect("v1 request");
                buf.clear();
                v1::encode_response(&reply, &mut buf);
                let p = v1::decode_response(std::str::from_utf8(&buf).unwrap()).expect("v1 reply");
                std::hint::black_box((r, p));
            });
            t.span("wire.v2.locate_codec", i as u64, |_| {
                buf.clear();
                v2::encode_request(&req, &mut buf);
                let r = v2::decode_request(&buf).expect("v2 request");
                buf.clear();
                v2::encode_response(&reply, &mut buf);
                let p = v2::decode_response(&buf).expect("v2 reply");
                std::hint::black_box((r, p));
            });
        }
        let mut bytes = 0usize;
        for (i, samples) in li.batches.iter().enumerate() {
            let req = Request::Ingest {
                site: SITE.into(),
                ref_cell: None,
                day: 0.0,
                samples: samples.clone(),
            };
            buf.clear();
            v2::encode_request(&req, &mut buf);
            bytes += buf.len();
            t.span("wire.v2.ingest_decode", i as u64, |_| {
                std::hint::black_box(v2::decode_request(&buf).expect("v2 ingest"));
            });
        }
        c.ingest_bytes = bytes as f64 / li.batches.len() as f64;
    });

    // server: dispatch on an in-process context (never accepts a connection).
    let policy = MaintenancePolicy { auto_refresh: false, manual_tick: true, ..Default::default() };
    let server =
        Server::bind("127.0.0.1:0", ServerConfig { default_policy: policy, ..Default::default() })
            .expect("bind");
    server.add_site(SITE, sys.clone(), 0.0).expect("add site");
    let ctx = Arc::clone(server.ctx());
    t.span("replay.server", 0, |t| {
        for (i, y) in queries.iter().enumerate() {
            let req = Request::Locate { site: SITE.into(), y: y.clone() };
            let r = t.span("server.dispatch.locate", i as u64, |_| dispatch(req, &ctx));
            assert!(matches!(r, Response::Located { .. }), "dispatch locate: {r:?}");
        }
        for (i, samples) in li.batches.iter().enumerate() {
            let req = Request::Ingest {
                site: SITE.into(),
                ref_cell: None,
                day: 0.0,
                samples: samples.clone(),
            };
            let r = t.span("server.dispatch.ingest", i as u64, |_| dispatch(req, &ctx));
            assert!(matches!(r, Response::Ingested { .. }), "dispatch ingest: {r:?}");
        }
    });
    ctx.registry.stop_maintenance();
    drop(server);

    // core: the matcher.
    t.span("replay.core.localize", 0, |t| {
        for (i, y) in queries.iter().enumerate() {
            t.span("core.localize", i as u64, |_| {
                std::hint::black_box(sys.localize(y).expect("localize"))
            });
        }
    });

    // shard: the admission gate.
    let gate = AdmissionGate::new(0, AdmissionConfig::default());
    t.span("replay.shard", 0, |t| {
        for (i, samples) in li.batches.iter().enumerate() {
            t.span("shard.admit", i as u64, |_| match gate.admit(SITE, samples.len()) {
                Admit::Granted(permit) => drop(permit),
                _ => panic!("an idle gate pushed back"),
            });
        }
    });
    let gs = gate.stats(1);
    c.pushback_frac =
        (gs.deferred_samples + gs.rejected_samples) as f64 / gs.offered_samples.max(1) as f64;

    // ingest: the live window.
    let ingest = Ingestor::new(
        IngestConfig::default(),
        sys.db().num_links(),
        sys.db().num_links().clamp(1, 8),
    )
    .expect("ingestor");
    let (mut total, mut accepted) = (0u64, 0u64);
    t.span("replay.ingest", 0, |t| {
        for (i, samples) in li.batches.iter().enumerate() {
            let report = t.span("ingest.apply_batch", i as u64, |_| ingest.apply_batch(samples));
            total += report.total();
            accepted += report.accepted;
            t.span("ingest.assemble", i as u64, |_| {
                std::hint::black_box(ingest.assemble(sys.empty_rss()).expect("assemble"))
            });
        }
    });
    c.dropped_frac = (total - accepted) as f64 / total.max(1) as f64;

    // journal: capture batches and surveys, each appended then synced.
    let jdir = tmp.join("journal");
    let (journal, _) = Journal::open(&jdir, "bench", JournalConfig::default(), 0).expect("journal");
    let records: Vec<JournalRecord> = li
        .rounds
        .iter()
        .enumerate()
        .flat_map(|(d, round)| {
            round.iter().enumerate().map(move |(k, s)| JournalRecord::RefBatch {
                ref_slot: k,
                day: d as f64 + 1.0,
                samples: s.clone(),
            })
        })
        .chain(li.surveys.iter().map(|s| JournalRecord::Survey {
            day: s.day,
            columns: (0..s.columns.cols()).map(|k| s.columns.col(k)).collect(),
            empty: s.empty.clone(),
        }))
        .take(JOURNAL_RECORDS)
        .collect();
    let before = wal_bytes(&jdir);
    t.span("replay.journal", 0, |t| {
        for (i, rec) in records.iter().enumerate() {
            t.span("journal.append", i as u64, |_| journal.append(rec).expect("append"));
            t.span("journal.sync", i as u64, |_| journal.sync().expect("sync"));
        }
    });
    c.record_bytes = (wal_bytes(&jdir) - before) as f64 / records.len() as f64;
    drop(journal);

    // store: snapshot persistence.
    let store = SiteStore::open(tmp.join("store")).expect("store");
    let persisted = Site::new(SITE, sys.clone(), 0.0, policy).expect("site").to_persisted();
    let mut path = None;
    t.span("replay.store", 0, |t| {
        for i in 0..SAVES {
            path = Some(t.span("store.save", i as u64, |_| store.save(&persisted).expect("save")));
        }
    });
    c.snapshot_bytes = path.and_then(|p| std::fs::metadata(p).ok()).map_or(0.0, |m| m.len() as f64);

    // core and site: each day's surveys solved exactly as `Site::refresh`
    // solves them (cached solve, guard, adopt, apply), then the same day
    // through `Site::refresh` itself (journal, planner and store attached,
    // as in the daemon). The refresh's self time is its span minus the
    // paired solve; pairing each day keeps both under the same machine load.
    let guard = ReconstructionGuard::default();
    let mut system = sys.clone();
    let mut cache = SolverCache::new();
    let mut confidence = Vec::new();
    let planner = PlannerConfig::new(li.budget, PlanPolicy::UncertaintyGreedy);
    let (sj, _) =
        Journal::open(&tmp.join("site"), "bench", JournalConfig::default(), 0).expect("journal");
    let site = Site::new(SITE, sys.clone(), 0.0, policy)
        .and_then(|s| s.with_planning(planner))
        .map(|s| s.with_journal(Arc::new(sj)))
        .and_then(|s| {
            s.with_persistence(Arc::new(SiteStore::open(tmp.join("site")).expect("store")))
        })
        .expect("site");
    t.span("replay.refresh", 0, |t| {
        for (i, s) in li.surveys.iter().enumerate() {
            let req = i as u64;
            c.warm += cache.has_warm() as usize;
            let rec = t.span("core.solve", req, |_| {
                system.reconstruct_db_cached(&s.columns, &s.empty, &mut cache).expect("solve")
            });
            c.solve_iters.push(rec.iterations);
            c.max_iter_stops += !rec.converged as usize;
            t.span("core.validate", req, |_| {
                system.validate_reconstruction(&rec, &s.columns, &guard).expect("guard")
            });
            confidence = system
                .reference_cells()
                .iter()
                .map(|&k| rec.diagnostics.cell_confidence[k])
                .collect();
            cache.adopt(&rec);
            t.span("core.apply", req, |_| {
                system.apply_reconstruction(rec, &s.empty).expect("apply")
            });
            site.ingest_refs(s.day, s.columns.clone(), s.empty.clone()).expect("measure-refs");
            let (report, _) = t.span("site.refresh", req, |_| site.refresh().expect("refresh"));
            assert_eq!(
                report.iterations, c.solve_iters[i],
                "Site::refresh and the replay diverged"
            );
        }
    });
    let capture = Site::new(SITE, sys.clone(), 0.0, policy)
        .and_then(|s| s.with_planning(planner))
        .expect("site");
    t.span("replay.site.promote", 0, |t| {
        for (d, round) in li.rounds.iter().enumerate() {
            for (k, samples) in round.iter().enumerate() {
                capture.ingest_samples(Some(k), d as f64 + 1.0, samples).expect("capture");
            }
            let promoted = t.span("site.promote", d as u64, |_| {
                capture.promote_ref_captures().expect("promote")
            });
            assert!(promoted, "a complete capture round must promote");
            capture.refresh().expect("refresh after promotion");
        }
    });

    // plan: the measurement planner on the last refresh's confidence.
    let planner = Planner::new(planner).expect("planner");
    let health = ingest.link_statuses();
    let n_refs = sys.reference_cells().len();
    let mut links = 0usize;
    t.span("replay.plan", 0, |t| {
        for i in 0..CALLS {
            let inputs = PlanInputs {
                epoch: i as u64 + 1,
                n_refs,
                link_health: &health,
                confidence: Some(&confidence),
                last_surveyed: None,
            };
            links += t
                .span("plan.plan", i as u64, |_| planner.plan(&inputs).expect("plan"))
                .planned_cost;
        }
    });
    c.links_per_plan = links as f64 / CALLS as f64;

    // linalg: the kernels at the refresh shapes.
    let a = Matrix::from_fn(48, 8, |i, j| 1.0 + ((i * 7 + j * 3) % 11) as f64 * 0.1);
    let b = Matrix::from_fn(8, 400, |i, j| 1.0 + ((i * 5 + j) % 13) as f64 * 0.1);
    let tall = Matrix::from_fn(400, 8, |i, j| 1.0 + ((i * 3 + j * 11) % 17) as f64 * 0.1);
    let mut spd = tall.gram();
    for i in 0..8 {
        spd[(i, i)] += 1.0;
    }
    t.span("replay.linalg", 0, |t| {
        for i in 0..KERNEL_REPS {
            t.span("linalg.matmul", i as u64, |_| {
                std::hint::black_box(a.matmul(&b).expect("matmul"))
            });
            t.span("linalg.gram", i as u64, |_| std::hint::black_box(tall.gram()));
            t.span("linalg.cholesky", i as u64, |_| {
                std::hint::black_box(spd.cholesky().expect("spd"))
            });
        }
    });
    let _ = std::fs::remove_dir_all(tmp);
    c
}

/// Per-layer metric names, in report order.
pub const PER_LAYER: &[&str] = &[
    "wire.v1.writes_per_reply",
    "wire.v2.writes_per_reply",
    "wire.v1.writes_per_request",
    "wire.v2.writes_per_request",
    "wire.v1.locate_codec_us",
    "wire.v2.locate_codec_us",
    "wire.v2.ingest_decode_us",
    "wire.v2.ingest_bytes",
    "client.v1.rtt_p50_us",
    "client.v2.rtt_p50_us",
    "server.dispatch.locate_us",
    "server.dispatch.ingest_us",
    "server.stats.locate_p99_us",
    "shard.admit_us",
    "shard.pushback_frac",
    "journal.append_us",
    "journal.sync_us",
    "journal.record_bytes",
    "store.save_ms",
    "store.snapshot_bytes",
    "site.refresh_self_ms",
    "site.promote_us",
    "ingest.apply_batch_us",
    "ingest.dropped_frac",
    "ingest.assemble_us",
    "core.localize_us",
    "core.solve_ms",
    "core.solve_iters",
    "core.solve_ms_per_iter",
    "core.warm_frac",
    "core.max_iter_stops",
    "core.validate_us",
    "core.apply_us",
    "plan.plan_us",
    "plan.links_per_plan",
    "linalg.matmul_gflops",
    "linalg.gram_gflops",
    "linalg.cholesky_us",
    "gen.late_p99_us",
    "trace.overhead_frac",
];

/// Replays `li` with spans off, then on, and reports every per-layer
/// metric the replay yields (the live-only ones come from the caller).
pub fn run(
    li: &LayerInputs,
    tmp: &Path,
    spans_out: Option<&Path>,
) -> Vec<(String, f64, &'static str)> {
    let t0 = Instant::now();
    replay(&mut Tracer::new(false), li, &tmp.join("replay"));
    let off = t0.elapsed().as_secs_f64();
    let mut t = Tracer::new(true);
    let t0 = Instant::now();
    let c = replay(&mut t, li, &tmp.join("replay"));
    let on = t0.elapsed().as_secs_f64();
    t.print_summary();
    if let Some(path) = spans_out {
        t.write_tsv(path).expect("write spans");
    }

    let med = |name: &str| median(&t.durations_us(name));
    let solve_ms: Vec<f64> = t.durations_us("core.solve").iter().map(|us| us / 1e3).collect();
    let refresh_self: Vec<f64> = t
        .durations_us("site.refresh")
        .iter()
        .zip(&solve_ms)
        .map(|(site_us, solve)| site_us / 1e3 - solve)
        .collect();
    let iters: usize = c.solve_iters.iter().sum();
    let solves = c.solve_iters.len();
    let gflops = |flops: f64, name: &str| flops / (med(name) * 1e3);
    vec![
        ("wire.v1.writes_per_reply".into(), c.writes[0].0 as f64, "count"),
        ("wire.v2.writes_per_reply".into(), c.writes[1].0 as f64, "count"),
        ("wire.v1.writes_per_request".into(), c.writes[0].1 as f64, "count"),
        ("wire.v2.writes_per_request".into(), c.writes[1].1 as f64, "count"),
        ("wire.v1.locate_codec_us".into(), med("wire.v1.locate_codec"), "us"),
        ("wire.v2.locate_codec_us".into(), med("wire.v2.locate_codec"), "us"),
        ("wire.v2.ingest_decode_us".into(), med("wire.v2.ingest_decode"), "us"),
        ("wire.v2.ingest_bytes".into(), c.ingest_bytes, "bytes"),
        ("server.dispatch.locate_us".into(), med("server.dispatch.locate"), "us"),
        ("server.dispatch.ingest_us".into(), med("server.dispatch.ingest"), "us"),
        ("shard.admit_us".into(), med("shard.admit"), "us"),
        ("shard.pushback_frac".into(), c.pushback_frac, "ratio"),
        ("journal.append_us".into(), med("journal.append"), "us"),
        ("journal.sync_us".into(), med("journal.sync"), "us"),
        ("journal.record_bytes".into(), c.record_bytes, "bytes"),
        ("store.save_ms".into(), med("store.save") / 1e3, "ms"),
        ("store.snapshot_bytes".into(), c.snapshot_bytes, "bytes"),
        ("site.refresh_self_ms".into(), median(&refresh_self), "ms"),
        ("site.promote_us".into(), med("site.promote"), "us"),
        ("ingest.apply_batch_us".into(), med("ingest.apply_batch"), "us"),
        ("ingest.dropped_frac".into(), c.dropped_frac, "ratio"),
        ("ingest.assemble_us".into(), med("ingest.assemble"), "us"),
        ("core.localize_us".into(), med("core.localize"), "us"),
        ("core.solve_ms".into(), median(&solve_ms), "ms"),
        ("core.solve_iters".into(), iters as f64 / solves as f64, "count"),
        ("core.solve_ms_per_iter".into(), solve_ms.iter().sum::<f64>() / iters.max(1) as f64, "ms"),
        ("core.warm_frac".into(), c.warm as f64 / solves as f64, "ratio"),
        ("core.max_iter_stops".into(), c.max_iter_stops as f64, "count"),
        ("core.validate_us".into(), med("core.validate"), "us"),
        ("core.apply_us".into(), med("core.apply"), "us"),
        ("plan.plan_us".into(), med("plan.plan"), "us"),
        ("plan.links_per_plan".into(), c.links_per_plan, "count"),
        // Flops computed from the shapes, not counted by the kernels.
        (
            "linalg.matmul_gflops".into(),
            gflops(2.0 * 48.0 * 8.0 * 400.0, "linalg.matmul"),
            "GFLOP/s",
        ),
        ("linalg.gram_gflops".into(), gflops(2.0 * 400.0 * 8.0 * 8.0, "linalg.gram"), "GFLOP/s"),
        ("linalg.cholesky_us".into(), med("linalg.cholesky"), "us"),
        ("trace.overhead_frac".into(), (on - off) / off, "ratio"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_writer_counts_each_write_call() {
        let mut w = CountingWriter::default();
        w.write_all(b"abc").unwrap();
        w.write_all(b"").unwrap();
        w.flush().unwrap();
        assert_eq!(w.writes, 1);
        // v1 builds the whole line first and writes it once.
        assert_eq!(writes_per_message(WireVersion::V1Json, &[-50.0, -48.0]), (1, 1));
        let (reply, request) = writes_per_message(WireVersion::V2Binary, &[-50.0, -48.0]);
        assert!(reply >= 1 && request >= 1);
    }
}
