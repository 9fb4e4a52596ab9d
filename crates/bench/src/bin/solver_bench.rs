//! LoLi-IR solver wall time on the problem `taflocd` solves on every database
//! refresh, across thread counts, recorded to `BENCH_solver.json`.
//!
//! The problem is built the way the live benchmark's `refresh` workload
//! builds it: the simulated 12 m square with 48 links and 400 cells (world
//! seed 7), calibrated by `TafLoc`, refreshed with the day-1 survey, and then
//! solved for the day-2 survey through `TafLoc::reconstruct_db_cached` under
//! the default `TafLocConfig`. That solve carries everything the daemon's
//! does: the LRR prior, the grid location graph, the link graph, the
//! empty-room offsets, and a distortion mask that leaves most smoothness
//! edges partial. Two modes per thread count:
//!
//! * **cold** — the solver cache holds no accepted solution: SVD seed and a
//!   full descent. On the refresh campaign this is also what a day-to-day
//!   refresh costs, because yesterday's solution loses the seed comparison to
//!   the fresh SVD seed (`warm_start` is false on every day).
//! * **warm** — the cache holds the accepted solution of this same survey:
//!   the least work a solve can do (SVD seed, both seed objectives, one
//!   sweep). It shows that warm seeding still takes effect.
//!
//! Each phase reports min/median/max wall time over its repeats on a reused
//! workspace. `scripts/bench_gate.sh` gates on the cold 1-thread min, the
//! least noisy of the three on a shared machine. Within a mode the output is
//! bit-identical across thread counts (cross-checked here). `rayon` is an
//! in-tree serial stub (stubs/README.md), so rows with more than one thread
//! measure dispatch overhead, not scaling; `threads_available` and
//! `oversubscribed` record the machine.
//!
//! Usage: `cargo run --release -p taf-bench --bin solver_bench [--quick] [--out PATH]`

use std::time::Instant;
use taf_bench::perf;
use taf_rfsim::{campaign, World, WorldConfig};
use taf_testkit::json::Json;
use tafloc_core::db::FingerprintDb;
use tafloc_core::loli_ir::Reconstruction;
use tafloc_core::mask::detect_distorted;
use tafloc_core::system::{SolverCache, TafLoc, TafLocConfig};

/// Samples averaged into each surveyed reference column, as in the refresh
/// campaign.
const SURVEY_SAMPLES: usize = 20;

/// The timed survey's day; day 1's refresh is applied before it.
const DAY: f64 = 2.0;

struct Phase {
    mode: &'static str,
    threads: usize,
    /// Wall times of the repeats, ascending.
    samples_ms: Vec<f64>,
    rec: Reconstruction,
}

impl Phase {
    fn min_ms(&self) -> f64 {
        self.samples_ms[0]
    }
}

fn main() {
    let args = perf::BenchArgs::from_env();
    let repeats = if args.quick { 3 } else { 5 };

    let world = World::new(WorldConfig { num_links: 48, ..WorldConfig::square_area(12.0) }, 7);
    let x0 = campaign::full_calibration(&world, 0.0, 50);
    let e0 = campaign::empty_snapshot(&world, 0.0, 50);
    let db = FingerprintDb::from_world(x0, &world).expect("world-consistent db");
    let mut system =
        TafLoc::calibrate(TafLocConfig::default(), db, e0).expect("calibration succeeds");
    let refs = system.reference_cells().to_vec();
    let survey = |day: f64| {
        (
            campaign::measure_columns(&world, day, &refs, SURVEY_SAMPLES),
            campaign::empty_snapshot(&world, day, SURVEY_SAMPLES),
        )
    };
    let (cols, empty) = survey(DAY - 1.0);
    system.update(&cols, &empty).expect("day-1 refresh");
    let (cols, empty) = survey(DAY);
    let (m, n) = system.db().rss().shape();
    let rank = system.config().loli.rank;
    let max_iters = system.config().loli.max_iters;
    let prior = system.lrr().predict(&cols).expect("prior");
    let distortion = detect_distorted(&prior, &empty, system.config().distortion_threshold_db)
        .expect("distortion mask");
    let distortion_density = distortion.count() as f64 / (m * n) as f64;

    let threads_available = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "solver_bench: {m} links x {n} cells, {} reference cells, rank {rank}, distortion \
         density {distortion_density:.3}, {repeats} repeats/pool, {threads_available} hardware \
         thread(s)",
        refs.len()
    );

    // The warm seed: this survey's solution, adopted the way the daemon
    // adopts a guard-accepted refresh. Not timed.
    let seed = system.reconstruct_db(&cols, &empty).expect("seed solve");
    assert!(seed.converged, "seed solve must converge before it may seed anything");

    let thread_counts: &[usize] = if cfg!(feature = "parallel") { &[1, 2, 4] } else { &[1] };
    let mut phases: Vec<Phase> = Vec::new();
    // `results` must stay ordered cold-1-thread first: downstream tooling
    // (scripts/bench_gate.sh) reads the first entry as the canonical number.
    for mode in ["cold", "warm"] {
        let mut reference: Option<(Vec<f64>, usize)> = None;
        for &threads in thread_counts {
            let mut cache = SolverCache::new();
            // One timed solve on a reused workspace: steady-state iterations
            // allocate nothing, so the clock measures arithmetic.
            let mut solve = || {
                if mode == "warm" {
                    cache.adopt(&seed);
                } else {
                    cache.invalidate();
                }
                let t0 = Instant::now();
                let rec = system.reconstruct_db_cached(&cols, &empty, &mut cache).expect("solve");
                (t0.elapsed().as_secs_f64() * 1e3, rec)
            };
            let mut run = || {
                let _warmup = solve();
                let mut samples = Vec::with_capacity(repeats);
                let mut last = None;
                for _ in 0..repeats {
                    let (ms, rec) = solve();
                    samples.push(ms);
                    last = Some(rec);
                }
                (samples, last.expect("at least one repeat"))
            };
            #[cfg(feature = "parallel")]
            let (mut samples_ms, rec) = {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("pool builds");
                pool.install(&mut run)
            };
            #[cfg(not(feature = "parallel"))]
            let (mut samples_ms, rec) = run();

            // The determinism contract, cross-checked where the numbers are
            // made: within a mode, every pool must produce the same bits.
            let got = (rec.matrix.as_slice().to_vec(), rec.iterations);
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(
                    want, &got,
                    "thread count {threads} changed the {mode} reconstruction"
                ),
            }
            assert_eq!(rec.warm_start, mode == "warm", "{mode} phase used the wrong seed");
            samples_ms.sort_by(f64::total_cmp);
            let phase = Phase { mode, threads, samples_ms, rec };
            println!(
                "  {mode:>4} @ {threads} thread(s): min {:.3} / median {:.3} / max {:.3} ms, \
                 {} iters ({:.3} ms/iter at the min){}",
                phase.min_ms(),
                phase.samples_ms[repeats / 2],
                phase.samples_ms[repeats - 1],
                phase.rec.iterations,
                phase.min_ms() / phase.rec.iterations as f64,
                if threads > threads_available { "  [oversubscribed]" } else { "" }
            );
            phases.push(phase);
        }
    }

    let one_thread = |mode: &str| {
        phases.iter().find(|p| p.mode == mode && p.threads == 1).expect("1-thread phase ran")
    };
    let (cold_1t, warm_1t) = (one_thread("cold"), one_thread("warm"));
    let max_threads = *thread_counts.last().expect("non-empty");
    let max_thread_speedup = phases
        .iter()
        .find(|p| p.mode == "cold" && p.threads == max_threads)
        .map(|p| cold_1t.min_ms() / p.min_ms())
        .expect("max-thread cold phase ran");
    println!(
        "  warm re-solve: {} iters vs {} cold",
        warm_1t.rec.iterations, cold_1t.rec.iterations
    );

    let results: Vec<Json> = phases
        .iter()
        .map(|p| {
            let trace = &p.rec.objective_trace;
            let objective = *trace.last().expect("non-empty trace");
            // The solver stops when (prev - f).abs() <= tol * prev.abs().max(1);
            // report the same normalized delta so readers can see how far from
            // the tolerance a max-iters run ended.
            let final_rel_delta = match trace.len() {
                0 | 1 => 0.0,
                len => (trace[len - 2] - objective).abs() / trace[len - 2].abs().max(1.0),
            };
            let ms = |v: f64| Json::Num(perf::round_ms(v));
            Json::Obj(vec![
                ("mode".into(), Json::Str(p.mode.into())),
                ("threads".into(), Json::Num(p.threads as f64)),
                ("oversubscribed".into(), Json::Bool(p.threads > threads_available)),
                ("min_ms".into(), ms(p.min_ms())),
                ("median_ms".into(), ms(p.samples_ms[repeats / 2])),
                ("max_ms".into(), ms(p.samples_ms[repeats - 1])),
                ("ms_per_iter".into(), ms(p.min_ms() / p.rec.iterations as f64)),
                ("iterations".into(), Json::Num(p.rec.iterations as f64)),
                ("converged".into(), Json::Bool(p.rec.converged)),
                ("warm_start".into(), Json::Bool(p.rec.warm_start)),
                (
                    "stop_reason".into(),
                    Json::Str(if p.rec.converged { "converged" } else { "max_iters" }.into()),
                ),
                ("objective".into(), Json::Num(objective)),
                ("final_rel_delta".into(), Json::Num(final_rel_delta)),
                ("speedup_vs_1_thread".into(), ms(one_thread(p.mode).min_ms() / p.min_ms())),
            ])
        })
        .collect();

    let report = Json::Obj(vec![
        ("bench".into(), Json::Str("solver".into())),
        ("quick".into(), Json::Bool(args.quick)),
        ("threads_available".into(), Json::Num(threads_available as f64)),
        (
            "problem".into(),
            Json::Obj(vec![
                ("site".into(), Json::Str("square_area(12.0), 48 links, world seed 7".into())),
                ("links".into(), Json::Num(m as f64)),
                ("cells".into(), Json::Num(n as f64)),
                ("ref_cells".into(), Json::Num(refs.len() as f64)),
                ("day".into(), Json::Num(DAY)),
                ("distortion_density".into(), Json::Num(perf::round_ms(distortion_density))),
                ("rank".into(), Json::Num(rank as f64)),
                ("max_iters".into(), Json::Num(max_iters as f64)),
                ("repeats".into(), Json::Num(repeats as f64)),
            ]),
        ),
        ("cold_iterations".into(), Json::Num(cold_1t.rec.iterations as f64)),
        ("warm_iterations".into(), Json::Num(warm_1t.rec.iterations as f64)),
        ("max_thread_speedup".into(), Json::Num(perf::round_ms(max_thread_speedup))),
        ("peak_rss_kb".into(), perf::peak_rss_json()),
        ("results".into(), Json::Arr(results)),
    ]);
    let path = perf::write_bench_json("solver", &report, args.out.as_deref());
    println!("wrote {}", path.display());
}
