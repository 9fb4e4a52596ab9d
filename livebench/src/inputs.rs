//! Seeded inputs. Everything a run sends is generated here, on the main
//! thread and before timing starts (`taf_rfsim::World` is not `Sync`); the
//! client threads only ever see plain vectors.

use taf_rfsim::{campaign, stream, StreamConfig, World, WorldConfig};
use tafloc_core::db::FingerprintDb;
use tafloc_core::system::{TafLoc, TafLocConfig};
use tafloc_ingest::LinkSample;

/// The simulated building is part of each workload's definition; the run
/// seed draws everything measured in it (query cells, sample noise).
const WORLD_SEED: u64 = 7;

/// Samples averaged into one noisy snapshot (per link, at 1 Hz).
const SNAPSHOT_SAMPLES_S: f64 = 10.0;

/// A building plus the calibration survey that seeds its database.
pub struct SiteInputs {
    pub world: World,
    db: FingerprintDb,
    empty: Vec<f64>,
    /// Reference cells `TafLoc::calibrate` selects (known before timing).
    pub ref_cells: Vec<usize>,
    /// Cell centres, for the distance from each fix to the truth.
    pub centres: Vec<(f64, f64)>,
}

impl SiteInputs {
    pub fn new(config: WorldConfig) -> SiteInputs {
        let world = World::new(config, WORLD_SEED);
        let x0 = campaign::full_calibration(&world, 0.0, 50);
        let empty = campaign::empty_snapshot(&world, 0.0, 50);
        let db = FingerprintDb::from_world(x0, &world).expect("world-consistent db");
        let ref_cells = TafLoc::calibrate(TafLocConfig::default(), db.clone(), empty.clone())
            .expect("calibration")
            .reference_cells()
            .to_vec();
        let centres = (0..world.num_cells())
            .map(|c| {
                let p = world.grid().cell_center(c);
                (p.x, p.y)
            })
            .collect();
        SiteInputs { world, db, empty, ref_cells, centres }
    }

    /// The paper's deployment: 10 links x 96 cells.
    pub fn paper() -> SiteInputs {
        SiteInputs::new(WorldConfig::paper_default())
    }

    /// A 12 m square with 48 links: 48 x 400, the solver bench shape.
    pub fn large() -> SiteInputs {
        SiteInputs::new(WorldConfig { num_links: 48, ..WorldConfig::square_area(12.0) })
    }

    /// Calibrates the system from the pre-generated survey (the part of
    /// set-up that is not input generation).
    pub fn calibrate(&self) -> TafLoc {
        TafLoc::calibrate(TafLocConfig::default(), self.db.clone(), self.empty.clone())
            .expect("calibration")
    }

    /// A noisy averaged snapshot with a person at `cell` on `day`.
    pub fn snapshot(&self, day: f64, cell: usize, stream_seed: u64) -> Vec<f64> {
        let cfg = StreamConfig { duration_s: SNAPSHOT_SAMPLES_S, ..Default::default() };
        average(&stream::stream_at_cell(&self.world, day, cell, &cfg, stream_seed), self.links())
    }

    /// Raw samples of a person standing at `cell` for `duration_s` seconds.
    pub fn raw(&self, day: f64, cell: usize, duration_s: f64, stream_seed: u64) -> Vec<LinkSample> {
        let cfg = StreamConfig { duration_s, ..Default::default() };
        stream::stream_at_cell(&self.world, day, cell, &cfg, stream_seed)
            .into_iter()
            .map(|s| LinkSample::new(s.link, s.t_s, s.rss_dbm))
            .collect()
    }

    pub fn links(&self) -> usize {
        self.world.num_links()
    }

    pub fn cells(&self) -> usize {
        self.world.num_cells()
    }
}

fn average(samples: &[taf_rfsim::RawSample], links: usize) -> Vec<f64> {
    let mut sum = vec![0.0; links];
    let mut n = vec![0usize; links];
    for s in samples {
        sum[s.link] += s.rss_dbm;
        n[s.link] += 1;
    }
    sum.iter().zip(&n).map(|(s, &n)| s / n.max(1) as f64).collect()
}

/// splitmix64: the seeded source of every choice a workload makes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_0F7A_F10C)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Euclidean distance between a fix and a cell centre.
pub fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
}
