//! LoLi-IR: the **Lo**w-rank + **Li**near-representation **I**terative
//! **R**efinement solver — TafLoc's fingerprint-matrix reconstruction.
//!
//! # The objective
//!
//! Writing the reconstruction as `X̂ = L·Rᵀ` (`L: M x r`, `R: N x r`), LoLi-IR
//! minimizes
//!
//! ```text
//! f(L, R) =   λ (‖L‖²_F + ‖R‖²_F)                      — low-rank factors (P1)
//!           + ‖B ∘ (L·Rᵀ − X_I)‖²_F                     — fit fresh measurements
//!           + μ ‖L·Rᵀ − X_R·Z‖²_F                       — LRR prior (P2)
//!           + α Σ_{(j,j') ∈ G} ‖w_{jj'} ∘ (x̂_j − x̂_{j'})‖²        — continuity (P3)
//!           + β Σ_{(i,i') ∈ H} ‖w_{ii'} ∘ (x̂_i − x̂_{i'} − δ_{ii'}·1)‖²  — similarity (P3)
//! ```
//!
//! where `G` is the location graph (grid-adjacent cells), `H` the link graph
//! (geometrically adjacent links), `w` restricts each edge to the entries flagged
//! as *largely distorted* (the paper's `X_D`), and `δ_{ii'} = e_i − e_{i'}`
//! aligns the empty-room baselines of two links before comparing them.
//!
//! # The algorithm
//!
//! The poster says the non-convex problem is solved by obtaining `L` and `R` "in
//! an alternatively iterative manner" after an SVD initialization. Concretely:
//!
//! 1. Initialize `L, R` from the truncated SVD of the LRR prediction `X_R·Z`
//!    (or of the row-mean-filled observations when no prior is given).
//! 2. **L-step** — Gauss-Seidel over rows: solving for row `l_i` with everything
//!    else fixed is an `r x r` ridge system (Cholesky), because the data, prior
//!    and similarity terms are all quadratic in `l_i`.
//! 3. **R-step** — Gauss-Seidel over columns, symmetric.
//! 4. Evaluate `f`; stop when the relative decrease falls below `tol`.
//!
//! Because every block solve is exact, the objective is monotonically
//! non-increasing — a property the tests assert.
//!
//! # Parallelism and determinism
//!
//! Two rows couple in the L-step only through a similarity edge (and two
//! columns in the R-step only through a continuity edge), so each sweep is run
//! as a *colored* Gauss-Seidel pass: a deterministic greedy coloring of the
//! link (resp. location) graph partitions the rows (columns) into classes with
//! no intra-class edges, classes are visited in fixed order, and the
//! independent solves inside a class fan out across the rayon pool (behind the
//! `parallel` feature). Each solve writes only its own [`SolverWorkspace`]
//! scratch slot; results are scattered back serially in index order, which
//! makes the output bit-identical at any thread count — including the serial
//! build. Exact block solves in any order keep the objective monotone.
//!
//! Steady-state iterations are allocation-free when the caller reuses a
//! [`SolverWorkspace`] via [`reconstruct_with`].

use crate::error::TaflocError;
use crate::mask::Mask;
use crate::operators::NeighborGraph;
use crate::Result;
use serde::{Deserialize, Serialize};
use taf_linalg::decomp::cholesky::solve_in_place;
use taf_linalg::{LinalgError, Matrix};

#[cfg(feature = "parallel")]
use rayon::prelude::*;

/// Estimated fused-multiply-add count below which a class of block solves runs
/// inline: at small sizes the fork/join overhead exceeds the solve cost, and
/// staying serial also keeps steady-state iterations allocation-free.
const PAR_MIN_FLOPS: usize = 1 << 16;

/// LoLi-IR hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoliIrConfig {
    /// Factor rank `r` of `X̂ = L·Rᵀ`.
    pub rank: usize,
    /// Ridge weight `λ` on the factors (must be `> 0`; keeps every inner system
    /// positive definite).
    pub lambda: f64,
    /// Weight `μ` of the LRR prior term.
    pub mu: f64,
    /// Weight `α` of the continuity term (location graph).
    pub alpha: f64,
    /// Weight `β` of the similarity term (link graph).
    pub beta: f64,
    /// Maximum outer (L-step + R-step) iterations.
    pub max_iters: usize,
    /// Relative objective-decrease stopping tolerance.
    pub tol: f64,
    /// Adaptive stopping: the relative decrease must stay below `tol` for this
    /// many *consecutive* iterations before the solve is declared converged.
    /// `1` reproduces the classic single-hit rule; larger values guard against
    /// declaring victory on one coincidentally-flat iteration of a solve that
    /// is still moving (the failure mode that made refreshes silently burn the
    /// whole `max_iters` budget instead: the tolerance was never *held*).
    #[serde(default = "default_stall_iters")]
    pub stall_iters: usize,
    /// Anderson-style acceleration: after each sweep, extrapolate the factors
    /// along the last step direction with a secant-estimated coefficient and
    /// keep the extrapolated point only if it lowers the objective. Safeguarded
    /// by that re-evaluation, so the objective trace stays monotone; off by
    /// default because the extra objective evaluation only pays for itself on
    /// slow geometric convergence (cold starts on large problems).
    #[serde(default)]
    pub accelerate: bool,
    /// Test-only fault-injection hook: a constant bias (dB) added to every
    /// entry of the reconstructed matrix after the solve. `0.0` (the default,
    /// and the only sane production value) is a strict no-op. The regression
    /// harness (`taf-testkit`) sets this to verify its accuracy gates detect
    /// a corrupted reconstruction — see the mutation check in that crate.
    #[serde(default)]
    pub debug_bias_db: f64,
}

fn default_stall_iters() -> usize {
    1
}

impl Default for LoliIrConfig {
    fn default() -> Self {
        LoliIrConfig {
            rank: 8,
            lambda: 1e-2,
            mu: 1.0,
            alpha: 0.05,
            beta: 0.05,
            max_iters: 60,
            tol: 1e-6,
            stall_iters: default_stall_iters(),
            accelerate: false,
            debug_bias_db: 0.0,
        }
    }
}

impl LoliIrConfig {
    fn validate(&self) -> Result<()> {
        if self.rank == 0 {
            return Err(TaflocError::InvalidConfig {
                field: "rank",
                reason: "must be >= 1".into(),
            });
        }
        if !(self.lambda > 0.0) {
            return Err(TaflocError::InvalidConfig {
                field: "lambda",
                reason: format!("must be > 0, got {}", self.lambda),
            });
        }
        for (name, v) in [("mu", self.mu), ("alpha", self.alpha), ("beta", self.beta)] {
            if v < 0.0 || !v.is_finite() {
                return Err(TaflocError::InvalidConfig {
                    field: name,
                    reason: format!("must be finite and >= 0, got {v}"),
                });
            }
        }
        if self.max_iters == 0 {
            return Err(TaflocError::InvalidConfig {
                field: "max_iters",
                reason: "must be >= 1".into(),
            });
        }
        if self.stall_iters == 0 {
            return Err(TaflocError::InvalidConfig {
                field: "stall_iters",
                reason: "must be >= 1".into(),
            });
        }
        if !self.debug_bias_db.is_finite() {
            return Err(TaflocError::InvalidConfig {
                field: "debug_bias_db",
                reason: format!("must be finite, got {}", self.debug_bias_db),
            });
        }
        Ok(())
    }
}

/// Inputs to one reconstruction.
///
/// Borrowed so that the caller (typically [`crate::system::TafLoc`]) can reuse the
/// graphs and masks across updates.
#[derive(Debug, Clone, Copy)]
pub struct ReconstructionProblem<'a> {
    /// Measured values `X_I` (`M x N`); only entries where `mask` is true are read.
    pub observed: &'a Matrix,
    /// Observation mask `B`.
    pub mask: &'a Mask,
    /// LRR prior `X_R·Z` (`M x N`), if available.
    pub lrr_prior: Option<&'a Matrix>,
    /// Location graph for the continuity term (`N` vertices).
    pub location_graph: Option<&'a NeighborGraph>,
    /// Link graph for the similarity term (`M` vertices).
    pub link_graph: Option<&'a NeighborGraph>,
    /// Per-link empty-room RSS `e` (for the cross-link baseline offsets `δ`);
    /// zeros assumed when absent.
    pub empty_rss: Option<&'a [f64]>,
    /// Largely-distorted entry mask `X_D`'s support; when present, the
    /// continuity/similarity penalties only act where *both* endpoint entries of
    /// an edge are distorted. When absent, they act everywhere.
    pub distortion: Option<&'a Mask>,
}

impl<'a> ReconstructionProblem<'a> {
    /// Minimal problem: observations + mask only (pure matrix completion).
    pub fn completion_only(observed: &'a Matrix, mask: &'a Mask) -> Self {
        ReconstructionProblem {
            observed,
            mask,
            lrr_prior: None,
            location_graph: None,
            link_graph: None,
            empty_rss: None,
            distortion: None,
        }
    }

    fn validate(&self) -> Result<()> {
        let shape = self.observed.shape();
        if self.mask.shape() != shape {
            return Err(TaflocError::DimensionMismatch {
                op: "LoLi-IR(mask)",
                expected: shape,
                actual: self.mask.shape(),
            });
        }
        if self.mask.count() == 0 {
            return Err(TaflocError::InvalidConfig {
                field: "mask",
                reason: "no observed entries".into(),
            });
        }
        if let Some(p) = self.lrr_prior {
            if p.shape() != shape {
                return Err(TaflocError::DimensionMismatch {
                    op: "LoLi-IR(prior)",
                    expected: shape,
                    actual: p.shape(),
                });
            }
        }
        if let Some(g) = self.location_graph {
            if g.len() != shape.1 {
                return Err(TaflocError::DimensionMismatch {
                    op: "LoLi-IR(location_graph)",
                    expected: (shape.1, 1),
                    actual: (g.len(), 1),
                });
            }
        }
        if let Some(h) = self.link_graph {
            if h.len() != shape.0 {
                return Err(TaflocError::DimensionMismatch {
                    op: "LoLi-IR(link_graph)",
                    expected: (shape.0, 1),
                    actual: (h.len(), 1),
                });
            }
        }
        if let Some(e) = self.empty_rss {
            if e.len() != shape.0 {
                return Err(TaflocError::DimensionMismatch {
                    op: "LoLi-IR(empty_rss)",
                    expected: (shape.0, 1),
                    actual: (e.len(), 1),
                });
            }
        }
        if let Some(d) = self.distortion {
            if d.shape() != shape {
                return Err(TaflocError::DimensionMismatch {
                    op: "LoLi-IR(distortion)",
                    expected: shape,
                    actual: d.shape(),
                });
            }
        }
        Ok(())
    }
}

/// Output of a LoLi-IR run.
#[derive(Debug, Clone)]
pub struct Reconstruction {
    /// The reconstructed matrix `X̂ = L·Rᵀ`.
    pub matrix: Matrix,
    /// Left factor `L` (`M x r`).
    pub l: Matrix,
    /// Right factor `R` (`N x r`).
    pub r: Matrix,
    /// Objective value after initialization and after each outer iteration.
    pub objective_trace: Vec<f64>,
    /// Number of outer iterations performed.
    pub iterations: usize,
    /// Whether the relative-decrease tolerance was held for
    /// [`LoliIrConfig::stall_iters`] consecutive iterations.
    pub converged: bool,
    /// Whether this solve was seeded from a [`WarmState`] (false for the SVD
    /// cold start, including when a supplied warm state was rejected for
    /// shape mismatch or non-finite values).
    pub warm_start: bool,
    /// Per-cell/per-link reconstruction confidence derived from the final
    /// factors — the signal an adaptive-sensing planner consumes.
    pub diagnostics: ReconstructionDiagnostics,
}

/// The previous solution `(L, R)`, carried between solves so a steady-state
/// refresh resumes where the last one stopped instead of paying a cold SVD
/// start and a full iteration burn.
///
/// This is the paper's P2 insight turned into solver state: the localization
/// model `Z` is stable across time, so consecutive refreshes solve nearly the
/// same problem and the previous factors are an excellent initial iterate.
/// `Z` itself rides along in `TafLoc`'s LRR model (it parameterizes the prior
/// `X_R·Z`, not the iterate), and the per-row Cholesky scratch factors are
/// reused through the [`SolverWorkspace`]; the warm state proper is just the
/// factor pair. Build one from an *accepted* reconstruction with
/// [`WarmState::from_reconstruction`] — a rejected or rolled-back solve must
/// never seed the next one (see `SolverCache` in the system layer).
#[derive(Debug, Clone)]
pub struct WarmState {
    l: Matrix,
    r: Matrix,
}

impl WarmState {
    /// Captures the factor pair of a finished solve.
    pub fn from_reconstruction(rec: &Reconstruction) -> Self {
        WarmState { l: rec.l.clone(), r: rec.r.clone() }
    }

    /// Rebuilds a warm state from a previously captured factor pair (the
    /// persistence path). Returns `None` when the pair cannot have come from
    /// one solve: mismatched ranks or any non-finite entry.
    pub fn from_parts(l: Matrix, r: Matrix) -> Option<Self> {
        if l.cols() != r.cols() || l.has_non_finite() || r.has_non_finite() {
            return None;
        }
        Some(WarmState { l, r })
    }

    /// Left factor `L` (`links x rank`).
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Right factor `R` (`cells x rank`).
    pub fn r(&self) -> &Matrix {
        &self.r
    }

    /// `(links, cells, rank)` this state can seed.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.l.rows(), self.r.rows(), self.l.cols())
    }

    /// A warm state is usable only when every entry is finite.
    pub fn is_finite(&self) -> bool {
        !self.l.has_non_finite() && !self.r.has_non_finite()
    }
}

/// Per-cell reconstruction confidence, computed from the final `(L, R)`
/// factors after the solve.
///
/// Three ingredients, all deterministic functions of the solution:
///
/// * **residual** — RMS misfit (dB) between `X̂` and the observed entries,
///   per location cell (column) and per link (row). A cell whose observed
///   entries the solver could not fit is a cell whose unobserved entries
///   should not be trusted either.
/// * **leverage** — the ridge leverage score
///   `h_j = r_jᵀ (RᵀR + λI)⁻¹ r_j ∈ [0, 1)` of each cell's factor row. High
///   leverage means the cell's column occupies a direction of factor space
///   that few other columns share, so little information is borrowed from
///   them and the completion rests on thin evidence.
/// * **coverage** — the fraction of the cell's entries that were observed.
///
/// They combine into `cell_confidence ∈ [0, 1]`: high when a well-observed
/// column was fit closely in a well-supported direction, low for unobserved
/// or poorly-fit or high-leverage columns. Only the *ordering* is consumed
/// by the planner, so the exact blend matters less than its monotonicity in
/// each ingredient.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconstructionDiagnostics {
    /// Per-cell RMS residual (dB) over the cell's observed entries; cells
    /// with no observed entry take the global RMS residual.
    pub cell_rms_residual_db: Vec<f64>,
    /// Per-cell ridge leverage score in `[0, 1]`.
    pub cell_leverage: Vec<f64>,
    /// Observed entries per cell.
    pub cell_observed: Vec<usize>,
    /// Combined per-cell confidence in `[0, 1]` (higher = more trusted).
    pub cell_confidence: Vec<f64>,
    /// Per-link RMS residual (dB) over the link's observed entries; links
    /// with no observed entry take the global RMS residual.
    pub link_rms_residual_db: Vec<f64>,
    /// Global RMS residual (dB) over every observed entry.
    pub rms_residual_db: f64,
}

/// Weight of the coverage floor in the confidence blend: a fully unobserved
/// cell keeps this fraction of the coverage term, so residual and leverage
/// still order the unobserved cells among themselves.
const CONFIDENCE_COVERAGE_FLOOR: f64 = 0.15;

/// Computes [`ReconstructionDiagnostics`] for the final factors. Runs once
/// per solve, after the iteration loop; it may allocate (the iteration loop
/// may not) but reuses the workspace's `gram` and scratch slot 0 for the
/// `r x r` leverage solves.
fn compute_diagnostics(
    problem: &ReconstructionProblem<'_>,
    config: &LoliIrConfig,
    rf: &Matrix,
    ws: &mut SolverWorkspace,
) -> Result<ReconstructionDiagnostics> {
    let (m, n) = problem.observed.shape();
    let r = rf.cols();
    let SolverWorkspace { scratch, sweep: SweepBuffers { gram, .. }, xh, .. } = ws;

    // Residuals of the reconstruction against the observed entries. `xh`
    // holds the final `L·Rᵀ` (the last objective evaluation wrote it).
    let mut cell_sq = vec![0.0f64; n];
    let mut cell_observed = vec![0usize; n];
    let mut link_sq = vec![0.0f64; m];
    let mut link_observed = vec![0usize; m];
    let mut total_sq = 0.0f64;
    let mut total_count = 0usize;
    for (i, j) in problem.mask.true_positions() {
        let d = xh[(i, j)] - problem.observed[(i, j)];
        cell_sq[j] += d * d;
        cell_observed[j] += 1;
        link_sq[i] += d * d;
        link_observed[i] += 1;
        total_sq += d * d;
        total_count += 1;
    }
    let rms_residual_db = (total_sq / total_count.max(1) as f64).sqrt();
    let cell_rms_residual_db: Vec<f64> = (0..n)
        .map(|j| {
            if cell_observed[j] > 0 {
                (cell_sq[j] / cell_observed[j] as f64).sqrt()
            } else {
                rms_residual_db
            }
        })
        .collect();
    let link_rms_residual_db: Vec<f64> = (0..m)
        .map(|i| {
            if link_observed[i] > 0 {
                (link_sq[i] / link_observed[i] as f64).sqrt()
            } else {
                rms_residual_db
            }
        })
        .collect();

    // Ridge leverage scores h_j = r_jᵀ (RᵀR + λI)⁻¹ r_j via one Cholesky of
    // the r x r gram (reusing workspace buffers sized by `ensure`).
    rf.gram_into(gram)?;
    let s = &mut scratch[0];
    for a in 0..r {
        for b in 0..r {
            s.lhs[(a, b)] = gram[(a, b)] + config.lambda * f64::from(a == b);
        }
    }
    s.lhs.cholesky_into(&mut s.chol)?;
    let mut cell_leverage = Vec::with_capacity(n);
    for j in 0..n {
        s.sol.copy_from_slice(rf.row(j));
        solve_in_place(&s.chol, &mut s.sol)?;
        let h: f64 = taf_linalg::dot(rf.row(j), &s.sol);
        cell_leverage.push(h.clamp(0.0, 1.0));
    }

    let cell_confidence: Vec<f64> = (0..n)
        .map(|j| {
            let coverage = cell_observed[j] as f64 / m.max(1) as f64;
            let coverage_term =
                CONFIDENCE_COVERAGE_FLOOR + (1.0 - CONFIDENCE_COVERAGE_FLOOR) * coverage;
            let fit_term = 1.0 / (1.0 + cell_rms_residual_db[j]);
            let support_term = 1.0 - cell_leverage[j];
            (coverage_term * fit_term * support_term).clamp(0.0, 1.0)
        })
        .collect();

    Ok(ReconstructionDiagnostics {
        cell_rms_residual_db,
        cell_leverage,
        cell_observed,
        cell_confidence,
        link_rms_residual_db,
        rms_residual_db,
    })
}

/// Pre-resolved edge lists: for each undirected edge, the indices of the "active"
/// coordinates (where both endpoint entries are distorted).
struct EdgeSets {
    /// Location edges `(j, j', active links)`.
    location: Vec<(usize, usize, Vec<usize>)>,
    /// Link edges `(i, i', active cells)`.
    link: Vec<(usize, usize, Vec<usize>)>,
}

fn build_edge_sets(problem: &ReconstructionProblem<'_>) -> EdgeSets {
    let (m, n) = problem.observed.shape();
    let active = |i: usize, j: usize| problem.distortion.map_or(true, |d| d.get(i, j));

    let mut location = Vec::new();
    if let Some(g) = problem.location_graph {
        for v in 0..n {
            for &u in g.neighbors(v) {
                if u > v {
                    let links: Vec<usize> =
                        (0..m).filter(|&i| active(i, v) && active(i, u)).collect();
                    if !links.is_empty() {
                        location.push((v, u, links));
                    }
                }
            }
        }
    }
    let mut link = Vec::new();
    if let Some(h) = problem.link_graph {
        for v in 0..m {
            for &u in h.neighbors(v) {
                if u > v {
                    let cells: Vec<usize> =
                        (0..n).filter(|&j| active(v, j) && active(u, j)).collect();
                    if !cells.is_empty() {
                        link.push((v, u, cells));
                    }
                }
            }
        }
    }
    EdgeSets { location, link }
}

/// Reusable scratch for one in-flight `r x r` block solve.
///
/// One slot is leased per row/column of the color class currently being
/// solved; the slot owns every buffer the solve needs, so running a class in
/// parallel requires no allocation and no shared mutable state.
#[derive(Debug)]
struct RowScratch {
    /// Normal-equation matrix (`r x r`).
    lhs: Matrix,
    /// Cholesky factor of `lhs` (`r x r`).
    chol: Matrix,
    /// Right-hand side.
    rhs: Vec<f64>,
    /// Solution (seeded from `rhs`, solved in place).
    sol: Vec<f64>,
    /// Edge direction buffer (`r_j − r_{j'}` resp. `l_i − l_{i'}`).
    dir: Vec<f64>,
    /// Failure raised by this slot's solve, if any (checked at scatter time).
    status: Option<LinalgError>,
}

impl RowScratch {
    fn new(r: usize) -> Self {
        RowScratch {
            lhs: Matrix::zeros(r, r),
            chol: Matrix::zeros(r, r),
            rhs: vec![0.0; r],
            sol: vec![0.0; r],
            dir: vec![0.0; r],
            status: None,
        }
    }
}

/// Preallocated buffers for [`reconstruct_with`].
///
/// A workspace can be reused across solves of any shape: buffers grow when the
/// problem does and are reused verbatim otherwise, which makes steady-state
/// solver iterations allocation-free. `SolverWorkspace::new()` itself
/// allocates nothing — buffers appear on first use.
#[derive(Debug, Default)]
pub struct SolverWorkspace {
    scratch: Vec<RowScratch>,
    sweep: SweepBuffers,
    xh: Matrix,
    trace: Vec<f64>,
    /// Pre-sweep factor snapshots for the acceleration step (sized only when
    /// `accelerate` is on).
    prev_l: Matrix,
    prev_r: Matrix,
    /// Second `m x n` product buffer so a rejected extrapolation can be
    /// discarded without recomputing `L·Rᵀ` (sized only when `accelerate` on).
    xh_alt: Matrix,
}

/// What every block solve of one half-sweep reads, built once per
/// half-sweep from the factor held fixed (`R` in the L-step, `L` in the
/// R-step).
#[derive(Debug, Default)]
struct SweepBuffers {
    /// `RᵀR` in the L-step, `LᵀL` in the R-step.
    gram: Matrix,
    /// Closed-form accumulator for the fully-active location edges of one
    /// L-step: `α Σ (r_j − r_{j'})(r_j − r_{j'})ᵀ` (lower triangle).
    loc_lhs: Matrix,
    /// Closed-form accumulator for the fully-active link edges of one R-step:
    /// `β Σ (l_i − l_{i'})(l_i − l_{i'})ᵀ` (lower triangle).
    link_lhs: Matrix,
    /// Right-hand-side companion of `link_lhs`: `β Σ δ_{ii'} (l_i − l_{i'})`.
    link_rhs: Vec<f64>,
    /// Per location edge, for the R-step: `α Σ_{i∈S_e} l_i l_iᵀ` over the
    /// edge's active links, one full symmetric `r x r` block per edge.
    loc_gram: Vec<f64>,
    /// Per link edge, for the L-step: `β Σ_{j∈C_e} r_j r_jᵀ` over the edge's
    /// active cells, one `r x r` block per edge…
    link_gram: Vec<f64>,
    /// …and `β Σ_{j∈C_e} r_j`, one length-`r` block per edge.
    link_sum: Vec<f64>,
    /// Prior right-hand sides: `P·R` (`m x r`) for the L-step…
    prior_l: Matrix,
    /// …and `Lᵀ·P` (`r x n`) for the R-step.
    prior_r: Matrix,
}

impl SolverWorkspace {
    /// Creates an empty workspace; buffers are allocated lazily by the solver.
    pub fn new() -> Self {
        SolverWorkspace::default()
    }

    /// Grows the buffers to fit an `m x n` rank-`r` problem with `edges`; a
    /// no-op (and allocation-free) when they already fit.
    fn ensure(
        &mut self,
        (m, n, r): (usize, usize, usize),
        edges: &EdgeSets,
        max_iters: usize,
        accelerate: bool,
    ) {
        let slots = m.max(n);
        let slots_fit =
            self.scratch.len() >= slots && self.scratch.first().is_some_and(|s| s.rhs.len() == r);
        if !slots_fit {
            self.scratch = (0..slots).map(|_| RowScratch::new(r)).collect();
        }
        let b = &mut self.sweep;
        for sq in [&mut b.gram, &mut b.loc_lhs, &mut b.link_lhs] {
            if sq.shape() != (r, r) {
                *sq = Matrix::zeros(r, r);
            }
        }
        b.link_rhs.resize(r, 0.0);
        b.loc_gram.resize(edges.location.len() * r * r, 0.0);
        b.link_gram.resize(edges.link.len() * r * r, 0.0);
        b.link_sum.resize(edges.link.len() * r, 0.0);
        if b.prior_l.shape() != (m, r) {
            b.prior_l = Matrix::zeros(m, r);
        }
        if b.prior_r.shape() != (r, n) {
            b.prior_r = Matrix::zeros(r, n);
        }
        if self.xh.shape() != (m, n) {
            self.xh = Matrix::zeros(m, n);
        }
        if accelerate {
            if self.prev_l.shape() != (m, r) {
                self.prev_l = Matrix::zeros(m, r);
            }
            if self.prev_r.shape() != (n, r) {
                self.prev_r = Matrix::zeros(n, r);
            }
            if self.xh_alt.shape() != (m, n) {
                self.xh_alt = Matrix::zeros(m, n);
            }
        }
        self.trace.clear();
        self.trace.reserve(max_iters + 1);
    }
}

/// Deterministic greedy coloring: vertices are visited in index order and take
/// the smallest color absent among their already-colored neighbors, so the
/// classes depend only on the edge list — never on thread count. Vertices
/// joined by an edge never share a class, hence every block solve within a
/// class is independent and may run concurrently.
fn color_classes(
    n_vertices: usize,
    edges: impl Iterator<Item = (usize, usize)>,
) -> Vec<Vec<usize>> {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n_vertices];
    for (u, v) in edges {
        adj[u].push(v);
        adj[v].push(u);
    }
    let mut color = vec![usize::MAX; n_vertices];
    let mut classes: Vec<Vec<usize>> = Vec::new();
    for v in 0..n_vertices {
        let c = (0..=classes.len())
            .find(|&c| !adj[v].iter().any(|&u| color[u] == c))
            .expect("a free color always exists");
        if c == classes.len() {
            classes.push(Vec::new());
        }
        color[v] = c;
        classes[c].push(v);
    }
    classes
}

/// Cross-link empty-room baseline offset `δ_{ii'} = e_i − e_{i'}`.
fn baseline_delta(problem: &ReconstructionProblem<'_>, i: usize, i2: usize) -> f64 {
    problem.empty_rss.map_or(0.0, |e| e[i] - e[i2])
}

/// The fixed structure of one solve, built once and walked by every sweep:
/// the edge lists, the observed entries and edge incidences as index lists,
/// and the color classes of both half-sweeps.
struct Sweeps<'a> {
    problem: &'a ReconstructionProblem<'a>,
    config: &'a LoliIrConfig,
    /// Weight of the prior term: `config.mu`, or zero without a prior.
    mu: f64,
    edges: EdgeSets,
    /// Observed column indices per row (CSR-style; replaces per-entry mask probes).
    row_obs: Vec<Vec<usize>>,
    /// Observed row indices per column.
    col_obs: Vec<Vec<usize>>,
    /// Link edges incident to each row (fully-active and not).
    row_edges: Vec<Vec<usize>>,
    /// Location edges with a *partial* active set containing each row; the
    /// fully-active ones are folded into `loc_lhs` once per sweep.
    row_loc_edges: Vec<Vec<usize>>,
    /// Location edges incident to each column (fully-active and not).
    col_edges: Vec<Vec<usize>>,
    /// Link edges with a *partial* active set containing each column; the
    /// fully-active ones are folded into `link_lhs`/`link_rhs` once per sweep.
    col_link_edges: Vec<Vec<usize>>,
    /// Color classes of the L-step (rows) and R-step (columns).
    row_classes: Vec<Vec<usize>>,
    col_classes: Vec<Vec<usize>>,
    /// Whether some location (resp. link) edge is fully active, with its
    /// term switched on.
    has_full_loc: bool,
    has_full_link: bool,
}

impl<'a> Sweeps<'a> {
    fn new(problem: &'a ReconstructionProblem<'a>, config: &'a LoliIrConfig) -> Self {
        let (m, n) = problem.observed.shape();
        // The LRR term only exists when a prior was supplied; otherwise its
        // weight in the normal equations must vanish too (a bare `mu * RᵀR` on
        // the left-hand side with no matching right-hand side would shrink X̂
        // toward zero).
        let mu = if problem.lrr_prior.is_some() { config.mu } else { 0.0 };
        let edges = build_edge_sets(problem);

        let mut row_obs: Vec<Vec<usize>> = vec![Vec::new(); m];
        let mut col_obs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, j) in problem.mask.true_positions() {
            row_obs[i].push(j);
            col_obs[j].push(i);
        }

        // Both smoothness terms depend on *both* factors: a similarity edge
        // (i, i') constrains rows i, i' of L and every active column of R; a
        // continuity edge (j, j') constrains columns j, j' of R and every
        // active row of L. For each block solve to be an exact minimization
        // (and the objective therefore monotone), every term touching the
        // variable must enter its normal equations — so the edges are indexed
        // from all four directions. The "every active row/column" directions
        // list only the *partial* edges; the fully-active ones enter through
        // the shared closed-form accumulators.
        let mut row_edges: Vec<Vec<usize>> = vec![Vec::new(); m];
        let mut col_link_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (k, (i, i2, cells)) in edges.link.iter().enumerate() {
            row_edges[*i].push(k);
            row_edges[*i2].push(k);
            if cells.len() < n {
                for &j in cells {
                    col_link_edges[j].push(k);
                }
            }
        }
        let mut col_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut row_loc_edges: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (k, (j, j2, links)) in edges.location.iter().enumerate() {
            col_edges[*j].push(k);
            col_edges[*j2].push(k);
            if links.len() < m {
                for &i in links {
                    row_loc_edges[i].push(k);
                }
            }
        }

        // A row's solve reads other L rows only through similarity edges (and
        // a column's solve reads other R rows only through continuity edges),
        // so two rows/columns may be solved concurrently iff no edge joins
        // them — exactly what a proper coloring guarantees. When the coupling
        // term is off, everything is independent and one class covers the
        // whole half-sweep.
        let row_classes = if config.beta > 0.0 {
            color_classes(m, edges.link.iter().map(|(u, v, _)| (*u, *v)))
        } else {
            vec![(0..m).collect()]
        };
        let col_classes = if config.alpha > 0.0 {
            color_classes(n, edges.location.iter().map(|(u, v, _)| (*u, *v)))
        } else {
            vec![(0..n).collect()]
        };
        let has_full_loc =
            config.alpha > 0.0 && edges.location.iter().any(|(_, _, links)| links.len() == m);
        let has_full_link =
            config.beta > 0.0 && edges.link.iter().any(|(_, _, cells)| cells.len() == n);
        Sweeps {
            problem,
            config,
            mu,
            edges,
            row_obs,
            col_obs,
            row_edges,
            row_loc_edges,
            col_edges,
            col_link_edges,
            row_classes,
            col_classes,
            has_full_loc,
            has_full_link,
        }
    }

    /// The prior, when its term is on.
    fn prior(&self) -> Option<&'a Matrix> {
        self.problem.lrr_prior.filter(|_| self.mu > 0.0)
    }

    /// Evaluates the LoLi-IR objective at `(L, R)`, writing `L·Rᵀ` into `xh`.
    fn objective(&self, l: &Matrix, rf: &Matrix, xh: &mut Matrix) -> Result<f64> {
        let (problem, config) = (self.problem, self.config);
        l.matmul_nt_into(rf, xh)?;
        let mut f = config.lambda * (l.frobenius_norm().powi(2) + rf.frobenius_norm().powi(2));
        for (i, j) in problem.mask.true_positions() {
            let d = xh[(i, j)] - problem.observed[(i, j)];
            f += d * d;
        }
        if let Some(p) = self.prior() {
            let mut s = 0.0;
            for (a, b) in xh.as_slice().iter().zip(p.as_slice()) {
                let d = a - b;
                s += d * d;
            }
            f += self.mu * s;
        }
        if config.alpha > 0.0 {
            for (j, j2, links) in &self.edges.location {
                for &i in links {
                    let d = xh[(i, *j)] - xh[(i, *j2)];
                    f += config.alpha * d * d;
                }
            }
        }
        if config.beta > 0.0 {
            for (i, i2, cells) in &self.edges.link {
                let off = baseline_delta(problem, *i, *i2);
                for &j in cells {
                    let d = xh[(*i, j)] - xh[(*i2, j)] - off;
                    f += config.beta * d * d;
                }
            }
        }
        Ok(f)
    }

    /// L-step: a colored Gauss-Seidel pass over the rows of `l`, `rf` fixed.
    fn l_step(&self, l: &mut Matrix, rf: &Matrix, ws: &mut SolverWorkspace) -> Result<()> {
        let (m, n) = (l.rows(), rf.rows());
        let r = rf.cols();
        let config = self.config;
        let b = &mut ws.sweep;
        rf.gram_into(&mut b.gram)?;
        if config.beta > 0.0 {
            edge_grams(
                &self.edges.link,
                rf,
                config.beta,
                &b.gram,
                &mut b.link_gram,
                &mut b.link_sum,
            );
        }
        if self.has_full_loc {
            b.loc_lhs.as_mut_slice().fill(0.0);
            let dir = &mut ws.scratch[0].dir;
            for (j, j2, links) in &self.edges.location {
                if links.len() == m {
                    for (dv, (&a, &c)) in dir.iter_mut().zip(rf.row(*j).iter().zip(rf.row(*j2))) {
                        *dv = a - c;
                    }
                    rank1_update(b.loc_lhs.as_mut_slice(), dir, config.alpha);
                }
            }
        }
        if let Some(p) = self.prior() {
            p.matmul_into(rf, &mut b.prior_l)?;
        }
        for class in &self.row_classes {
            let big = class.len() > 1 && class.len() * n * r * r >= PAR_MIN_FLOPS;
            let ctx = StepCtx { sw: self, l, rf, b: &ws.sweep };
            run_tasks(&mut ws.scratch[..class.len()], big, |k, s| solve_l_row(&ctx, class[k], s));
            for (k, &i) in class.iter().enumerate() {
                let s = &mut ws.scratch[k];
                if let Some(e) = s.status.take() {
                    return Err(e.into());
                }
                l.set_row(i, &s.sol).expect("row length r");
            }
        }
        Ok(())
    }

    /// R-step: a colored Gauss-Seidel pass over the rows of `rf` (the columns
    /// of `X̂`), `l` fixed.
    fn r_step(&self, l: &Matrix, rf: &mut Matrix, ws: &mut SolverWorkspace) -> Result<()> {
        let (m, n) = (l.rows(), rf.rows());
        let r = l.cols();
        let config = self.config;
        let b = &mut ws.sweep;
        l.gram_into(&mut b.gram)?;
        if config.alpha > 0.0 {
            edge_grams(&self.edges.location, l, config.alpha, &b.gram, &mut b.loc_gram, &mut []);
        }
        if self.has_full_link {
            b.link_lhs.as_mut_slice().fill(0.0);
            b.link_rhs.fill(0.0);
            let dir = &mut ws.scratch[0].dir;
            for (i, i2, cells) in &self.edges.link {
                if cells.len() == n {
                    for (dv, (&a, &c)) in dir.iter_mut().zip(l.row(*i).iter().zip(l.row(*i2))) {
                        *dv = a - c;
                    }
                    rank1_update(b.link_lhs.as_mut_slice(), dir, config.beta);
                    let w = config.beta * baseline_delta(self.problem, *i, *i2);
                    if w != 0.0 {
                        taf_linalg::axpy_slice(&mut b.link_rhs, w, dir);
                    }
                }
            }
        }
        if let Some(p) = self.prior() {
            l.matmul_tn_into(p, &mut b.prior_r)?;
        }
        for class in &self.col_classes {
            let big = class.len() > 1 && class.len() * m * r * r >= PAR_MIN_FLOPS;
            let ctx = StepCtx { sw: self, l, rf, b: &ws.sweep };
            run_tasks(&mut ws.scratch[..class.len()], big, |k, s| solve_r_col(&ctx, class[k], s));
            for (k, &j) in class.iter().enumerate() {
                let s = &mut ws.scratch[k];
                if let Some(e) = s.status.take() {
                    return Err(e.into());
                }
                rf.set_row(j, &s.sol).expect("row length r");
            }
        }
        Ok(())
    }
}

/// Shared read-only inputs for the block solves of one color class: the
/// solve's structure, both factors (the rows being solved belong to other
/// classes' solves only through these reads), and the half-sweep's buffers.
struct StepCtx<'a> {
    sw: &'a Sweeps<'a>,
    l: &'a Matrix,
    rf: &'a Matrix,
    b: &'a SweepBuffers,
}

/// Factors `s.lhs` and solves for `s.rhs` into `s.sol`, recording any failure
/// in `s.status` (parallel workers cannot early-return an error themselves).
fn finish_solve(s: &mut RowScratch) {
    match s.lhs.cholesky_into(&mut s.chol) {
        Ok(()) => {
            s.sol.copy_from_slice(&s.rhs);
            if let Err(e) = solve_in_place(&s.chol, &mut s.sol) {
                s.status = Some(e);
            }
        }
        Err(e) => s.status = Some(e),
    }
}

/// Adds one smoothness edge to a block solve: the edge's Gram block `g` (full
/// symmetric `r x r`) to the lower triangle of `s.lhs`, and `g·other` to
/// `s.rhs`, where `other` is the fixed factor row of the edge's other endpoint.
fn add_edge_gram(s: &mut RowScratch, g: &[f64], other: &[f64]) {
    let r = other.len();
    for (a, ga) in g.chunks_exact(r).enumerate() {
        for (o, &x) in s.lhs.row_mut(a)[..=a].iter_mut().zip(ga) {
            *o += x;
        }
        s.rhs[a] += taf_linalg::dot(ga, other);
    }
}

/// Builds and solves the `r x r` ridge system for row `l_i` entirely inside
/// `s`. Factor rows read through `ctx.l` belong to other color classes, so
/// every solve in a class is independent of its siblings.
///
/// Only the lower triangle of `s.lhs` is written — the Cholesky factorization
/// reads nothing else. Sums over many entries arrive precomputed: `μ RᵀR` for
/// the prior, the shared `loc_lhs` for fully-active continuity edges, and the
/// per-sweep `link_gram`/`link_sum` blocks for every similarity edge, which
/// enter as a Gram block plus a Gram matrix-vector product with the other
/// endpoint's row.
fn solve_l_row(ctx: &StepCtx<'_>, i: usize, s: &mut RowScratch) {
    let (sw, b) = (ctx.sw, ctx.b);
    let r = b.gram.rows();
    s.status = None;
    for a in 0..r {
        for c in 0..=a {
            s.lhs[(a, c)] = sw.config.lambda * f64::from(a == c) + sw.mu * b.gram[(a, c)];
        }
    }
    if sw.has_full_loc {
        for a in 0..r {
            for c in 0..=a {
                s.lhs[(a, c)] += b.loc_lhs[(a, c)];
            }
        }
    }
    s.rhs.fill(0.0);
    // Data term: Σ_j B_ij (r_jᵀ l_i − x_ij)².
    for &j in &sw.row_obs[i] {
        let rj = ctx.rf.row(j);
        rank1_update(s.lhs.as_mut_slice(), rj, 1.0);
        taf_linalg::axpy_slice(&mut s.rhs, sw.problem.observed[(i, j)], rj);
    }
    // LRR prior: μ ‖R l_i − p_i‖² — right-hand side μ (P·R)_i.
    if sw.prior().is_some() {
        taf_linalg::axpy_slice(&mut s.rhs, sw.mu, b.prior_l.row(i));
    }
    // Similarity edges incident to row i (other endpoint held fixed):
    // β Σ_{j∈C_e} (r_jᵀ l_i − r_jᵀ l_other − off)², whose normal equations
    // are G_e l_i = G_e l_other + off·Σ β r_j.
    if sw.config.beta > 0.0 {
        for &k in &sw.row_edges[i] {
            let (u, v, _) = &sw.edges.link[k];
            let (other, off) = if *u == i {
                (*v, baseline_delta(sw.problem, *u, *v))
            } else {
                (*u, -baseline_delta(sw.problem, *u, *v))
            };
            add_edge_gram(s, &b.link_gram[k * r * r..(k + 1) * r * r], ctx.l.row(other));
            taf_linalg::axpy_slice(&mut s.rhs, off, &b.link_sum[k * r..(k + 1) * r]);
        }
    }
    // Continuity edges whose *partial* active-link set contains row i:
    // α (l_iᵀ (r_j − r_{j'}))² — quadratic in l_i with direction
    // d = r_j − r_{j'} and zero target. (Fully-active ones came in via
    // `loc_lhs` above.)
    if sw.config.alpha > 0.0 {
        for &k in &sw.row_loc_edges[i] {
            let (j, j2, _) = &sw.edges.location[k];
            for (dv, (&x, &y)) in s.dir.iter_mut().zip(ctx.rf.row(*j).iter().zip(ctx.rf.row(*j2))) {
                *dv = x - y;
            }
            rank1_update(s.lhs.as_mut_slice(), &s.dir, sw.config.alpha);
        }
    }
    finish_solve(s);
}

/// Builds and solves the `r x r` ridge system for column `r_j` inside `s`;
/// symmetric counterpart of [`solve_l_row`] (lower-triangle `lhs`, every sum
/// over many entries precomputed once per sweep).
fn solve_r_col(ctx: &StepCtx<'_>, j: usize, s: &mut RowScratch) {
    let (sw, b) = (ctx.sw, ctx.b);
    let r = b.gram.rows();
    s.status = None;
    for a in 0..r {
        for c in 0..=a {
            s.lhs[(a, c)] = sw.config.lambda * f64::from(a == c) + sw.mu * b.gram[(a, c)];
        }
    }
    s.rhs.fill(0.0);
    // Fully-active similarity edges: one shared accumulator pair per sweep.
    if sw.has_full_link {
        for a in 0..r {
            for c in 0..=a {
                s.lhs[(a, c)] += b.link_lhs[(a, c)];
            }
        }
        taf_linalg::axpy_slice(&mut s.rhs, 1.0, &b.link_rhs);
    }
    for &i in &sw.col_obs[j] {
        let li = ctx.l.row(i);
        rank1_update(s.lhs.as_mut_slice(), li, 1.0);
        taf_linalg::axpy_slice(&mut s.rhs, sw.problem.observed[(i, j)], li);
    }
    // LRR prior right-hand side μ (LᵀP)_{·j}.
    if sw.prior().is_some() {
        for (a, v) in s.rhs.iter_mut().enumerate() {
            *v += sw.mu * b.prior_r[(a, j)];
        }
    }
    // Continuity edges incident to column j: α Σ_{i∈S_e} (l_iᵀ r_j − l_iᵀ r_other)²,
    // whose normal equations are G_e r_j = G_e r_other.
    if sw.config.alpha > 0.0 {
        for &k in &sw.col_edges[j] {
            let (u, v, _) = &sw.edges.location[k];
            let other = if *u == j { *v } else { *u };
            add_edge_gram(s, &b.loc_gram[k * r * r..(k + 1) * r * r], ctx.rf.row(other));
        }
    }
    // Similarity edges whose *partial* active-cell set contains column j:
    // β ((l_i − l_{i'})ᵀ r_j − δ_{ii'})² — quadratic in r_j with
    // direction d = l_i − l_{i'} and target δ. (Fully-active ones came in via
    // `link_closed` above.)
    if sw.config.beta > 0.0 {
        for &k in &sw.col_link_edges[j] {
            let (i, i2, _) = &sw.edges.link[k];
            for (dv, (&x, &y)) in s.dir.iter_mut().zip(ctx.l.row(*i).iter().zip(ctx.l.row(*i2))) {
                *dv = x - y;
            }
            rank1_update(s.lhs.as_mut_slice(), &s.dir, sw.config.beta);
            let w = sw.config.beta * baseline_delta(sw.problem, *i, *i2);
            if w != 0.0 {
                for (a, &dv) in s.rhs.iter_mut().zip(&s.dir) {
                    *a += w * dv;
                }
            }
        }
    }
    finish_solve(s);
}

/// Runs one color class of independent block solves, fanning out to the rayon
/// pool when the class is big enough. The serial fallback (and the serial
/// build) visits the same slots with identical arithmetic, so results are
/// bit-identical at any thread count.
fn run_tasks<F>(tasks: &mut [RowScratch], big: bool, f: F)
where
    F: Fn(usize, &mut RowScratch) + Sync + Send,
{
    #[cfg(feature = "parallel")]
    if big && rayon::current_num_threads() > 1 {
        tasks.par_iter_mut().enumerate().for_each(|(k, s)| f(k, s));
        return;
    }
    let _ = big;
    for (k, s) in tasks.iter_mut().enumerate() {
        f(k, s);
    }
}

/// Runs LoLi-IR on a reconstruction problem.
///
/// Convenience wrapper around [`reconstruct_with`] with a fresh workspace;
/// callers solving repeatedly should hold a [`SolverWorkspace`] and call
/// [`reconstruct_with`] to skip the per-call buffer allocations.
pub fn reconstruct(
    problem: &ReconstructionProblem<'_>,
    config: &LoliIrConfig,
) -> Result<Reconstruction> {
    reconstruct_with(problem, config, &mut SolverWorkspace::new())
}

/// Runs LoLi-IR reusing the caller's [`SolverWorkspace`], always cold-started.
///
/// Steady-state iterations perform no heap allocation — every buffer lives in
/// the workspace. The result is bit-identical for a given problem regardless
/// of thread count: rows/columns are partitioned into graph-coloring classes
/// solved class by class (a colored Gauss-Seidel sweep), and within a class
/// each solve writes only its own scratch slot before a serial, index-ordered
/// scatter back into the factor.
pub fn reconstruct_with(
    problem: &ReconstructionProblem<'_>,
    config: &LoliIrConfig,
    ws: &mut SolverWorkspace,
) -> Result<Reconstruction> {
    reconstruct_warm(problem, config, ws, None)
}

/// Runs LoLi-IR, seeding the iterate from `warm` when one is supplied.
///
/// A usable warm state (matching `(links, cells, rank)` shape, all entries
/// finite) replaces the truncated-SVD initialization with the previous
/// solution; an unusable one falls back to the cold start — bit-identical to
/// [`reconstruct_with`] — rather than erroring, so callers can pass whatever
/// they have and check [`Reconstruction::warm_start`] afterwards. Warm or
/// cold, every iterate-improvement property is unchanged (exact block solves,
/// monotone objective, bit-identical output at any thread count); only the
/// starting point differs, which is what lets a steady-state refresh stop
/// after a handful of iterations instead of re-earning the whole solution.
pub fn reconstruct_warm(
    problem: &ReconstructionProblem<'_>,
    config: &LoliIrConfig,
    ws: &mut SolverWorkspace,
    warm: Option<&WarmState>,
) -> Result<Reconstruction> {
    config.validate()?;
    problem.validate()?;

    let (m, n) = problem.observed.shape();
    let r = config.rank.min(m).min(n);
    let sweeps = Sweeps::new(problem, config);
    ws.ensure((m, n, r), &sweeps.edges, config.max_iters, config.accelerate);

    // ------------------------------------------------------------------
    // Initialization. The cold start is the truncated SVD of the prior (or of
    // a filled observation). A usable warm state (matching shape, finite) is
    // a *candidate*, not a mandate: the current problem may have drifted far
    // from the one that produced it, leaving the old solution a worse start
    // than the SVD of the fresh prior. Both seeds are scored by the actual
    // objective and the lower one wins — a stale warm state can therefore
    // never make a solve slower to converge than the cold start, while a
    // fresh one skips most of the descent.
    // ------------------------------------------------------------------
    let svd = match problem.lrr_prior {
        Some(p) => p.svd()?,
        None => fill_from_observed(problem.observed, problem.mask).svd()?,
    }
    .truncate(r);
    let cold_l = Matrix::from_fn(m, r, |i, k| svd.u[(i, k)] * svd.sigma[k].sqrt());
    let cold_r = Matrix::from_fn(n, r, |j, k| svd.v[(j, k)] * svd.sigma[k].sqrt());
    let seed = warm.filter(|w| w.shape() == (m, n, r) && w.is_finite());
    let warm_start = match seed {
        None => false,
        Some(w) => {
            let f_warm = sweeps.objective(&w.l, &w.r, &mut ws.xh)?;
            let f_cold = sweeps.objective(&cold_l, &cold_r, &mut ws.xh)?;
            // Strict `<` (false on NaN) so ties and garbage go cold.
            f_warm < f_cold
        }
    };
    let (mut l, mut rf) = if warm_start {
        let w = seed.expect("warm_start implies a seed");
        (w.l.clone(), w.r.clone())
    } else {
        (cold_l, cold_r)
    };

    let f0 = sweeps.objective(&l, &rf, &mut ws.xh)?;
    ws.trace.push(f0);
    let mut converged = false;
    let mut iterations = 0;
    let mut stall = 0usize;
    for iter in 0..config.max_iters {
        iterations = iter + 1;
        if config.accelerate {
            ws.prev_l.as_mut_slice().copy_from_slice(l.as_slice());
            ws.prev_r.as_mut_slice().copy_from_slice(rf.as_slice());
        }
        sweeps.l_step(&mut l, &rf, ws)?;
        sweeps.r_step(&l, &mut rf, ws)?;

        let mut f = sweeps.objective(&l, &rf, &mut ws.xh)?;
        if !f.is_finite() {
            return Err(TaflocError::SolverFailure {
                solver: "loli-ir",
                reason: format!("objective became non-finite at iteration {iterations}"),
            });
        }

        // Anderson-style (secant/Aitken) acceleration: when the last two
        // decrements look geometric with ratio ρ < 1, the fixed point lies
        // roughly θ = ρ/(1−ρ) step lengths ahead — extrapolate both factors
        // and keep the result only if the objective actually drops, so the
        // trace stays monotone no matter how wrong the estimate is.
        if config.accelerate && ws.trace.len() >= 2 {
            let f1 = *ws.trace.last().expect("trace seeded");
            let f2 = ws.trace[ws.trace.len() - 2];
            let (d1, d2) = (f1 - f, f2 - f1);
            if d1 > 0.0 && d2 > d1 {
                let rho = d1 / d2;
                let theta = (rho / (1.0 - rho)).clamp(0.0, MAX_ACCEL_THETA);
                if theta > 0.0 {
                    for (cand, &cur) in ws.prev_l.as_mut_slice().iter_mut().zip(l.as_slice().iter())
                    {
                        *cand = cur + theta * (cur - *cand);
                    }
                    for (cand, &cur) in
                        ws.prev_r.as_mut_slice().iter_mut().zip(rf.as_slice().iter())
                    {
                        *cand = cur + theta * (cur - *cand);
                    }
                    let SolverWorkspace { prev_l, prev_r, xh_alt, .. } = &mut *ws;
                    let f_acc = sweeps.objective(prev_l, prev_r, xh_alt)?;
                    if f_acc.is_finite() && f_acc < f {
                        std::mem::swap(&mut l, &mut ws.prev_l);
                        std::mem::swap(&mut rf, &mut ws.prev_r);
                        std::mem::swap(&mut ws.xh, &mut ws.xh_alt);
                        f = f_acc;
                    }
                }
            }
        }

        let prev = *ws.trace.last().expect("trace seeded");
        ws.trace.push(f);
        // Adaptive stopping: the tolerance must *hold* for `stall_iters`
        // consecutive iterations, not merely be grazed once.
        if (prev - f).abs() <= config.tol * prev.abs().max(1.0) {
            stall += 1;
            if stall >= config.stall_iters {
                converged = true;
                break;
            }
        } else {
            stall = 0;
        }
    }

    // `ws.xh` already holds `L·Rᵀ` for the final factors — the last objective
    // evaluation wrote it — so publishing is a straight copy. Diagnostics are
    // computed first, from the same final state (and before the debug bias,
    // which corrupts only the published matrix).
    let diagnostics = compute_diagnostics(problem, config, &rf, ws)?;
    let mut matrix = ws.xh.clone();
    if config.debug_bias_db != 0.0 {
        // Fault-injection hook (see `LoliIrConfig::debug_bias_db`): corrupt
        // the published reconstruction without touching the solve itself.
        for v in matrix.as_mut_slice() {
            *v += config.debug_bias_db;
        }
    }
    if matrix.has_non_finite() {
        return Err(TaflocError::SolverFailure {
            solver: "loli-ir",
            reason: "reconstruction contains non-finite values".into(),
        });
    }
    Ok(Reconstruction {
        matrix,
        l,
        r: rf,
        objective_trace: ws.trace.clone(),
        iterations,
        converged,
        warm_start,
        diagnostics,
    })
}

/// Ceiling on the acceleration extrapolation coefficient: θ = 2 already
/// triples the step; anything larger trusts two noisy decrements too much and
/// mostly burns the safeguard evaluation.
const MAX_ACCEL_THETA: f64 = 2.0;

/// Fills one full symmetric `r x r` block of `grams` per edge with
/// `w Σ_{t∈active} f_t f_tᵀ` over the rows `f_t` of `factor` (the edge's
/// share of a block solve's left-hand side), and — when `sums` is non-empty —
/// one length-`r` block per edge with `w Σ_{t∈active} f_t`. A fully-active
/// edge's Gram block is `w·full_gram` (`full_gram = FᵀF`), copied instead of
/// summed. Both endpoints of an edge read the same blocks, so each sum is
/// formed once per sweep rather than once per endpoint.
fn edge_grams(
    edges: &[(usize, usize, Vec<usize>)],
    factor: &Matrix,
    w: f64,
    full_gram: &Matrix,
    grams: &mut [f64],
    sums: &mut [f64],
) {
    let r = factor.cols();
    for (k, (_, _, active)) in edges.iter().enumerate() {
        let g = &mut grams[k * r * r..(k + 1) * r * r];
        if active.len() == factor.rows() {
            for (o, &x) in g.iter_mut().zip(full_gram.as_slice()) {
                *o = w * x;
            }
        } else {
            g.fill(0.0);
            for &t in active {
                rank1_update(g, factor.row(t), w);
            }
            for a in 0..r {
                for c in 0..a {
                    g[c * r + a] = g[a * r + c];
                }
            }
        }
        if let Some(sum) = sums.get_mut(k * r..(k + 1) * r) {
            sum.fill(0.0);
            for &t in active {
                taf_linalg::axpy_slice(sum, w, factor.row(t));
            }
        }
    }
}

/// `lhs += w · v·vᵀ` for a symmetric `r x r` accumulator — lower triangle
/// only, via contiguous row slices. Every consumer (the blocked Cholesky and
/// the solve that follows) reads only the lower triangle, so skipping the
/// mirrored upper half cuts the dominant per-entry cost of the block solves
/// almost in half.
fn rank1_update(lhs: &mut [f64], v: &[f64], w: f64) {
    let r = v.len();
    debug_assert_eq!(lhs.len(), r * r);
    for a in 0..r {
        let wa = w * v[a];
        let row = &mut lhs[a * r..a * r + a + 1];
        for (o, &vb) in row.iter_mut().zip(v) {
            *o += wa * vb;
        }
    }
}

/// Fills unobserved entries with the row mean of the observed ones (global mean
/// fallback) — the no-prior initialization target.
fn fill_from_observed(observed: &Matrix, mask: &Mask) -> Matrix {
    let (m, n) = observed.shape();
    let mut global_sum = 0.0;
    let mut global_cnt = 0usize;
    for (i, j) in mask.true_positions() {
        global_sum += observed[(i, j)];
        global_cnt += 1;
    }
    let global_mean = if global_cnt > 0 { global_sum / global_cnt as f64 } else { 0.0 };
    Matrix::from_fn(m, n, |i, j| {
        if mask.get(i, j) {
            observed[(i, j)]
        } else {
            let mut s = 0.0;
            let mut c = 0usize;
            for jj in 0..n {
                if mask.get(i, jj) {
                    s += observed[(i, jj)];
                    c += 1;
                }
            }
            if c > 0 {
                s / c as f64
            } else {
                global_mean
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smooth rank-2 ground truth resembling RSS structure (values ~ -50).
    fn ground_truth() -> Matrix {
        Matrix::from_fn(6, 12, |i, j| {
            -50.0
                - 3.0 * (0.4 * i as f64 + 0.2 * j as f64).sin()
                - 2.0 * (0.3 * j as f64 - 0.5 * i as f64).cos()
        })
    }

    fn column_mask(truth: &Matrix, cols: &[usize]) -> Mask {
        Mask::from_columns(truth.rows(), truth.cols(), cols).unwrap()
    }

    #[test]
    fn completion_with_prior_recovers_truth() {
        let truth = ground_truth();
        let mask = column_mask(&truth, &[0, 3, 7, 11]);
        // A perfect prior: the solver should stay close to it and fit observations.
        let problem = ReconstructionProblem {
            observed: &truth,
            mask: &mask,
            lrr_prior: Some(&truth),
            location_graph: None,
            link_graph: None,
            empty_rss: None,
            distortion: None,
        };
        let rec = reconstruct(&problem, &LoliIrConfig::default()).unwrap();
        let err = rec.matrix.sub(&truth).unwrap().map(f64::abs).mean();
        assert!(err < 0.5, "mean abs error {err}");
    }

    #[test]
    fn objective_monotonically_non_increasing() {
        let truth = ground_truth();
        let mask = column_mask(&truth, &[1, 5, 9]);
        let noisy_prior = truth.map(|v| v + 0.8 * (v * 17.0).sin());
        let g = NeighborGraph::new(12, (0..11).map(|j| (j, j + 1)));
        let h = NeighborGraph::new(6, (0..5).map(|i| (i, i + 1)));
        let problem = ReconstructionProblem {
            observed: &truth,
            mask: &mask,
            lrr_prior: Some(&noisy_prior),
            location_graph: Some(&g),
            link_graph: Some(&h),
            empty_rss: None,
            distortion: None,
        };
        let cfg = LoliIrConfig { max_iters: 25, tol: 0.0, ..Default::default() };
        let rec = reconstruct(&problem, &cfg).unwrap();
        for w in rec.objective_trace.windows(2) {
            assert!(
                w[1] <= w[0] * (1.0 + 1e-10) + 1e-9,
                "objective increased: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn converges_and_reports_trace() {
        let truth = ground_truth();
        let mask = column_mask(&truth, &[0, 4, 8]);
        let problem = ReconstructionProblem {
            observed: &truth,
            mask: &mask,
            lrr_prior: Some(&truth),
            location_graph: None,
            link_graph: None,
            empty_rss: None,
            distortion: None,
        };
        let rec = reconstruct(&problem, &LoliIrConfig::default()).unwrap();
        assert!(rec.converged, "no convergence in {} iters", rec.iterations);
        assert_eq!(rec.objective_trace.len(), rec.iterations + 1);
        assert_eq!(rec.l.shape(), (6, 6));
        assert_eq!(rec.r.shape(), (12, 6));
    }

    #[test]
    fn no_prior_pure_completion_runs() {
        let truth = ground_truth();
        // Scattered observations (60%).
        let mut mask = Mask::trues(6, 12);
        for k in 0..72 {
            if k % 5 < 2 {
                mask.set(k / 12, k % 12, false);
            }
        }
        let problem = ReconstructionProblem::completion_only(&truth, &mask);
        let cfg = LoliIrConfig { rank: 3, mu: 0.0, alpha: 0.0, beta: 0.0, ..Default::default() };
        let rec = reconstruct(&problem, &cfg).unwrap();
        let err = rec.matrix.sub(&truth).unwrap().map(f64::abs).mean();
        assert!(err < 1.5, "pure completion err {err}");
    }

    #[test]
    fn smoothness_terms_help_with_bad_prior() {
        // Corrupt the prior in the unobserved region with rough noise; the
        // continuity term should pull the reconstruction back toward smoothness.
        let truth = ground_truth();
        let mask = column_mask(&truth, &[0, 6, 11]);
        let rough_prior = Matrix::from_fn(6, 12, |i, j| {
            truth[(i, j)] + if (i + j) % 2 == 0 { 2.0 } else { -2.0 }
        });
        let g = NeighborGraph::new(12, (0..11).map(|j| (j, j + 1)));
        let h = NeighborGraph::new(6, (0..5).map(|i| (i, i + 1)));

        let base = ReconstructionProblem {
            observed: &truth,
            mask: &mask,
            lrr_prior: Some(&rough_prior),
            location_graph: None,
            link_graph: None,
            empty_rss: None,
            distortion: None,
        };
        let with_graphs =
            ReconstructionProblem { location_graph: Some(&g), link_graph: Some(&h), ..base };
        let cfg_plain = LoliIrConfig { alpha: 0.0, beta: 0.0, rank: 6, ..Default::default() };
        let cfg_smooth = LoliIrConfig { alpha: 0.8, beta: 0.8, rank: 6, ..Default::default() };
        let plain = reconstruct(&base, &cfg_plain).unwrap();
        let smooth = reconstruct(&with_graphs, &cfg_smooth).unwrap();
        let err = |m: &Matrix| m.sub(&truth).unwrap().map(f64::abs).mean();
        assert!(
            err(&smooth.matrix) < err(&plain.matrix),
            "smoothness should help: {} vs {}",
            err(&smooth.matrix),
            err(&plain.matrix)
        );
    }

    #[test]
    fn empty_rss_offsets_align_links() {
        // Two links whose rows differ by a constant baseline offset: with
        // empty_rss supplied, the similarity term must NOT flatten that offset.
        let base_row: Vec<f64> = (0..8).map(|j| -(5.0 + (0.5 * j as f64).sin())).collect();
        let truth = Matrix::from_fn(2, 8, |i, j| base_row[j] - 40.0 - 10.0 * i as f64);
        let mask = Mask::from_columns(2, 8, &[0, 4]).unwrap();
        let h = NeighborGraph::new(2, [(0, 1)]);
        let empty = [-40.0, -50.0];
        let problem = ReconstructionProblem {
            observed: &truth,
            mask: &mask,
            lrr_prior: Some(&truth),
            location_graph: None,
            link_graph: Some(&h),
            empty_rss: Some(&empty),
            distortion: None,
        };
        let cfg = LoliIrConfig { beta: 5.0, rank: 2, ..Default::default() };
        let rec = reconstruct(&problem, &cfg).unwrap();
        let err = rec.matrix.sub(&truth).unwrap().map(f64::abs).mean();
        assert!(err < 0.5, "offset-aware similarity should preserve truth, err {err}");
    }

    #[test]
    fn distortion_mask_restricts_edges() {
        let truth = ground_truth();
        let mask = column_mask(&truth, &[0, 6]);
        let g = NeighborGraph::new(12, (0..11).map(|j| (j, j + 1)));
        // No entry distorted -> graphs contribute nothing; objective equals the
        // no-graph objective at the same factors (compare traces' first entries).
        let none_distorted = Mask::falses(6, 12);
        let with = ReconstructionProblem {
            observed: &truth,
            mask: &mask,
            lrr_prior: Some(&truth),
            location_graph: Some(&g),
            link_graph: None,
            empty_rss: None,
            distortion: Some(&none_distorted),
        };
        let without = ReconstructionProblem {
            observed: &truth,
            mask: &mask,
            lrr_prior: Some(&truth),
            location_graph: None,
            link_graph: None,
            empty_rss: None,
            distortion: None,
        };
        let cfg = LoliIrConfig { alpha: 10.0, ..Default::default() };
        let a = reconstruct(&with, &cfg).unwrap();
        let b = reconstruct(&without, &cfg).unwrap();
        assert!((a.objective_trace[0] - b.objective_trace[0]).abs() < 1e-9);
    }

    /// A 4 x 3 cell grid: cell `c` sits at `(c % 4, c / 4)`, joined to its
    /// right and lower neighbours.
    fn grid_4x3() -> NeighborGraph {
        NeighborGraph::new(
            12,
            (0..12usize).flat_map(|c| {
                [(c % 4 < 3).then_some((c, c + 1)), (c / 4 < 2).then_some((c, c + 4))]
                    .into_iter()
                    .flatten()
            }),
        )
    }

    /// The shape of the daemon's refresh problem in miniature: 6 links x 12
    /// cells, a grid location graph, a link chain, per-link empty-room
    /// offsets, and a distortion mask that leaves most edges *partial*.
    /// Links 0-1 and cells 0-1 are fully distorted, so each graph also keeps
    /// one fully-active edge. `seed` draws the rest of the mask and the
    /// offsets.
    struct PartialParts {
        truth: Matrix,
        mask: Mask,
        prior: Matrix,
        g: NeighborGraph,
        h: NeighborGraph,
        empty: Vec<f64>,
        distortion: Mask,
    }

    impl PartialParts {
        fn new(seed: u64) -> Self {
            let truth = ground_truth();
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut distortion = Mask::falses(6, 12);
            for i in 0..6 {
                for j in 0..12 {
                    distortion.set(i, j, i < 2 || j < 2 || next() % 2 == 0);
                }
            }
            let empty = (0..6).map(|i| -40.0 - 2.0 * i as f64 - (next() % 7) as f64).collect();
            PartialParts {
                mask: column_mask(&truth, &[1, 5, 9]),
                prior: truth.map(|v| v + 0.8 * (v * 17.0).sin()),
                truth,
                g: grid_4x3(),
                h: NeighborGraph::new(6, (0..5).map(|i| (i, i + 1))),
                empty,
                distortion,
            }
        }

        fn problem(&self) -> ReconstructionProblem<'_> {
            ReconstructionProblem {
                observed: &self.truth,
                mask: &self.mask,
                lrr_prior: Some(&self.prior),
                location_graph: Some(&self.g),
                link_graph: Some(&self.h),
                empty_rss: Some(&self.empty),
                distortion: Some(&self.distortion),
            }
        }
    }

    #[test]
    fn partial_distortion_objective_monotonically_non_increasing() {
        let parts = PartialParts::new(1);
        let problem = parts.problem();
        let edges = build_edge_sets(&problem);
        let partial = |sets: &[(usize, usize, Vec<usize>)], full: usize| {
            sets.iter().filter(|(_, _, active)| active.len() < full).count()
        };
        assert!(
            partial(&edges.location, 6) > 0 && partial(&edges.location, 6) < edges.location.len()
        );
        assert!(partial(&edges.link, 12) > 0 && partial(&edges.link, 12) < edges.link.len());
        let cfg =
            LoliIrConfig { alpha: 0.5, beta: 0.5, max_iters: 25, tol: 0.0, ..Default::default() };
        let rec = reconstruct(&problem, &cfg).unwrap();
        for w in rec.objective_trace.windows(2) {
            assert!(
                w[1] <= w[0] * (1.0 + 1e-10) + 1e-9,
                "objective increased: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    /// Central-difference gradient of the objective with respect to row `i`
    /// of `L` (`of_l`) or of `R`. The objective is quadratic in one row, so
    /// the quotient is exact up to rounding.
    fn row_gradient(
        sweeps: &Sweeps<'_>,
        l: &Matrix,
        rf: &Matrix,
        of_l: bool,
        i: usize,
    ) -> Vec<f64> {
        let h = 1e-3;
        let mut xh = Matrix::zeros(l.rows(), rf.rows());
        let mut f_at = |a: usize, delta: f64| {
            let (mut l2, mut r2) = (l.clone(), rf.clone());
            let target = if of_l { &mut l2 } else { &mut r2 };
            target[(i, a)] += delta;
            sweeps.objective(&l2, &r2, &mut xh).unwrap()
        };
        (0..l.cols()).map(|a| (f_at(a, h) - f_at(a, -h)) / (2.0 * h)).collect()
    }

    fn max_abs(v: &[f64]) -> f64 {
        v.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// First-order check of the block solves. After an L-step, every row of
    /// its last color class was solved with all other rows at their final
    /// values, so the objective's gradient with respect to that row must
    /// vanish; likewise for the last column class after an R-step. Any wrong
    /// term in a block's normal equations leaves a gradient of the size of
    /// that term.
    fn assert_block_solves_are_stationary(parts: &PartialParts, cfg: &LoliIrConfig) {
        let problem = parts.problem();
        let sweeps = Sweeps::new(&problem, cfg);
        let (m, n) = problem.observed.shape();
        let r = cfg.rank.min(m).min(n);
        let mut ws = SolverWorkspace::new();
        ws.ensure((m, n, r), &sweeps.edges, cfg.max_iters, false);
        // A generic, far-from-stationary starting point.
        let mut l = Matrix::from_fn(m, r, |i, k| -3.0 + (1.3 * i as f64 + 0.7 * k as f64).sin());
        let mut rf = Matrix::from_fn(n, r, |j, k| 2.0 + (0.9 * j as f64 - 1.1 * k as f64).cos());

        let rows = sweeps.row_classes.last().unwrap().clone();
        let before: Vec<f64> =
            rows.iter().map(|&i| max_abs(&row_gradient(&sweeps, &l, &rf, true, i))).collect();
        sweeps.l_step(&mut l, &rf, &mut ws).unwrap();
        for (&i, scale) in rows.iter().zip(&before) {
            let g = max_abs(&row_gradient(&sweeps, &l, &rf, true, i));
            assert!(g <= 1e-6 * scale, "row {i}: gradient {g} after its solve (was {scale})");
        }

        let cols = sweeps.col_classes.last().unwrap().clone();
        let before: Vec<f64> =
            cols.iter().map(|&j| max_abs(&row_gradient(&sweeps, &l, &rf, false, j))).collect();
        sweeps.r_step(&l, &mut rf, &mut ws).unwrap();
        for (&j, scale) in cols.iter().zip(&before) {
            let g = max_abs(&row_gradient(&sweeps, &l, &rf, false, j));
            assert!(g <= 1e-6 * scale, "column {j}: gradient {g} after its solve (was {scale})");
        }
    }

    #[test]
    fn block_solves_zero_the_block_gradient() {
        let cfg = LoliIrConfig { alpha: 0.5, beta: 0.5, ..Default::default() };
        assert_block_solves_are_stationary(&PartialParts::new(1), &cfg);
    }

    proptest::proptest! {
        /// Over random distortion masks, empty-room offsets and term weights:
        /// the objective never rises, and every last-class block solve is a
        /// stationary point of its block.
        #[test]
        fn partial_masks_keep_monotone_and_stationary(
            seed in 0u64..1_000_000,
            alpha in 0.01..2.0f64,
            beta in 0.01..2.0f64,
        ) {
            let parts = PartialParts::new(seed);
            let cfg = LoliIrConfig { alpha, beta, max_iters: 10, tol: 0.0, ..Default::default() };
            let rec = reconstruct(&parts.problem(), &cfg).unwrap();
            for w in rec.objective_trace.windows(2) {
                proptest::prop_assert!(w[1] <= w[0] * (1.0 + 1e-10) + 1e-9, "{} -> {}", w[0], w[1]);
            }
            assert_block_solves_are_stationary(&parts, &cfg);
        }
    }

    #[test]
    fn validates_config_and_problem() {
        let truth = ground_truth();
        let mask = column_mask(&truth, &[0]);
        let p = ReconstructionProblem::completion_only(&truth, &mask);
        let bad = LoliIrConfig { rank: 0, ..Default::default() };
        assert!(reconstruct(&p, &bad).is_err());
        let bad = LoliIrConfig { lambda: 0.0, ..Default::default() };
        assert!(reconstruct(&p, &bad).is_err());
        let bad = LoliIrConfig { mu: -1.0, ..Default::default() };
        assert!(reconstruct(&p, &bad).is_err());
        let bad = LoliIrConfig { max_iters: 0, ..Default::default() };
        assert!(reconstruct(&p, &bad).is_err());

        let wrong_mask = Mask::trues(2, 2);
        let p = ReconstructionProblem::completion_only(&truth, &wrong_mask);
        assert!(reconstruct(&p, &LoliIrConfig::default()).is_err());
        let empty_mask = Mask::falses(6, 12);
        let p = ReconstructionProblem::completion_only(&truth, &empty_mask);
        assert!(reconstruct(&p, &LoliIrConfig::default()).is_err());
    }

    #[test]
    fn debug_bias_shifts_output_only() {
        let truth = ground_truth();
        let mask = column_mask(&truth, &[0, 4, 8]);
        let problem = ReconstructionProblem {
            observed: &truth,
            mask: &mask,
            lrr_prior: Some(&truth),
            location_graph: None,
            link_graph: None,
            empty_rss: None,
            distortion: None,
        };
        let clean = reconstruct(&problem, &LoliIrConfig::default()).unwrap();
        let cfg = LoliIrConfig { debug_bias_db: 3.0, ..Default::default() };
        let biased = reconstruct(&problem, &cfg).unwrap();
        let shift = biased.matrix.sub(&clean.matrix).unwrap();
        assert!(shift.iter().all(|v| (v - 3.0).abs() < 1e-12), "bias must be exactly +3 dB");
        // The solve itself is untouched: traces agree bit for bit.
        assert_eq!(clean.objective_trace, biased.objective_trace);
        let bad = LoliIrConfig { debug_bias_db: f64::NAN, ..Default::default() };
        assert!(reconstruct(&problem, &bad).is_err());
    }

    #[test]
    fn rank_clamped_to_dimensions() {
        let truth = ground_truth(); // 6 x 12
        let mask = column_mask(&truth, &[0, 5, 11]);
        let problem = ReconstructionProblem {
            observed: &truth,
            mask: &mask,
            lrr_prior: Some(&truth),
            location_graph: None,
            link_graph: None,
            empty_rss: None,
            distortion: None,
        };
        let cfg = LoliIrConfig { rank: 99, ..Default::default() };
        let rec = reconstruct(&problem, &cfg).unwrap();
        assert_eq!(rec.l.cols(), 6);
    }

    #[test]
    fn coloring_is_proper_and_deterministic() {
        // Chain 0-1-2-3-4 plus a chord 0-2: needs 3 colors at vertex 2.
        let edges = [(0usize, 1usize), (1, 2), (2, 3), (3, 4), (0, 2)];
        let classes = color_classes(5, edges.iter().copied());
        // Every vertex appears exactly once.
        let mut seen = vec![0usize; 5];
        for class in &classes {
            for &v in class {
                seen[v] += 1;
            }
        }
        assert_eq!(seen, vec![1; 5]);
        // No edge inside a class.
        for class in &classes {
            for &(u, v) in &edges {
                assert!(
                    !(class.contains(&u) && class.contains(&v)),
                    "edge ({u},{v}) inside class {class:?}"
                );
            }
        }
        // Deterministic: a second run is identical.
        assert_eq!(classes, color_classes(5, edges.iter().copied()));
        // Edge-free graph collapses to a single class in index order.
        assert_eq!(color_classes(4, std::iter::empty()), vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        let truth = ground_truth();
        let mask = column_mask(&truth, &[1, 5, 9]);
        let noisy_prior = truth.map(|v| v + 0.8 * (v * 17.0).sin());
        let g = NeighborGraph::new(12, (0..11).map(|j| (j, j + 1)));
        let h = NeighborGraph::new(6, (0..5).map(|i| (i, i + 1)));
        let problem = ReconstructionProblem {
            observed: &truth,
            mask: &mask,
            lrr_prior: Some(&noisy_prior),
            location_graph: Some(&g),
            link_graph: Some(&h),
            empty_rss: None,
            distortion: None,
        };
        let cfg = LoliIrConfig { max_iters: 10, tol: 0.0, ..Default::default() };
        let fresh = reconstruct(&problem, &cfg).unwrap();
        let mut ws = SolverWorkspace::new();
        // Warm the workspace on a different problem shape first, then solve the
        // real one twice: a dirty, resized workspace must not leak state.
        let small_mask = Mask::trues(3, 4);
        let small = Matrix::from_fn(3, 4, |i, j| -(40.0 + i as f64 + j as f64));
        let small_problem = ReconstructionProblem::completion_only(&small, &small_mask);
        reconstruct_with(&small_problem, &LoliIrConfig { rank: 2, ..cfg }, &mut ws).unwrap();
        for _ in 0..2 {
            let reused = reconstruct_with(&problem, &cfg, &mut ws).unwrap();
            assert_eq!(fresh.matrix.as_slice(), reused.matrix.as_slice());
            assert_eq!(fresh.l.as_slice(), reused.l.as_slice());
            assert_eq!(fresh.r.as_slice(), reused.r.as_slice());
            assert_eq!(fresh.objective_trace, reused.objective_trace);
        }
    }

    #[test]
    fn diagnostics_rank_observed_columns_above_unobserved() {
        let truth = ground_truth();
        let observed_cols = [0usize, 3, 7, 11];
        let mask = column_mask(&truth, &observed_cols);
        let problem = ReconstructionProblem {
            observed: &truth,
            mask: &mask,
            lrr_prior: Some(&truth),
            location_graph: None,
            link_graph: None,
            empty_rss: None,
            distortion: None,
        };
        let rec = reconstruct(&problem, &LoliIrConfig::default()).unwrap();
        let d = &rec.diagnostics;
        assert_eq!(d.cell_confidence.len(), 12);
        assert_eq!(d.cell_rms_residual_db.len(), 12);
        assert_eq!(d.cell_leverage.len(), 12);
        assert_eq!(d.cell_observed.len(), 12);
        assert_eq!(d.link_rms_residual_db.len(), 6);
        assert!(d.rms_residual_db.is_finite());
        for j in 0..12 {
            assert!((0.0..=1.0).contains(&d.cell_confidence[j]), "{}", d.cell_confidence[j]);
            assert!((0.0..=1.0).contains(&d.cell_leverage[j]));
            assert_eq!(d.cell_observed[j], if observed_cols.contains(&j) { 6 } else { 0 });
        }
        // Every observed column must outrank every unobserved one: the
        // coverage term alone separates 6/6 from 0/6 observed entries.
        let min_observed =
            observed_cols.iter().map(|&j| d.cell_confidence[j]).fold(f64::INFINITY, f64::min);
        let max_unobserved = (0..12)
            .filter(|j| !observed_cols.contains(j))
            .map(|j| d.cell_confidence[j])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            min_observed > max_unobserved,
            "observed {min_observed} must beat unobserved {max_unobserved}"
        );
        // Deterministic: a second identical solve reproduces them bit for bit.
        let again = reconstruct(&problem, &LoliIrConfig::default()).unwrap();
        assert_eq!(*d, again.diagnostics);
    }

    #[test]
    fn diagnostics_unaffected_by_debug_bias() {
        let truth = ground_truth();
        let mask = column_mask(&truth, &[0, 4, 8]);
        let problem = ReconstructionProblem {
            observed: &truth,
            mask: &mask,
            lrr_prior: Some(&truth),
            location_graph: None,
            link_graph: None,
            empty_rss: None,
            distortion: None,
        };
        let clean = reconstruct(&problem, &LoliIrConfig::default()).unwrap();
        let cfg = LoliIrConfig { debug_bias_db: 3.0, ..Default::default() };
        let biased = reconstruct(&problem, &cfg).unwrap();
        assert_eq!(clean.diagnostics, biased.diagnostics);
    }

    #[test]
    fn fill_from_observed_uses_row_means() {
        let obs = Matrix::from_rows(&[&[2.0, 0.0, 4.0], &[0.0, 0.0, 0.0]]).unwrap();
        let mut mask = Mask::falses(2, 3);
        mask.set(0, 0, true);
        mask.set(0, 2, true);
        let filled = fill_from_observed(&obs, &mask);
        assert_eq!(filled[(0, 1)], 3.0); // row mean of {2, 4}
        assert_eq!(filled[(1, 0)], 3.0); // global mean fallback
        assert_eq!(filled[(0, 0)], 2.0);
    }

    fn smoothed_problem_parts() -> (Matrix, Mask, Matrix, NeighborGraph, NeighborGraph) {
        let truth = ground_truth();
        let mask = column_mask(&truth, &[1, 5, 9]);
        let noisy_prior = truth.map(|v| v + 0.8 * (v * 17.0).sin());
        let g = NeighborGraph::new(12, (0..11).map(|j| (j, j + 1)));
        let h = NeighborGraph::new(6, (0..5).map(|i| (i, i + 1)));
        (truth, mask, noisy_prior, g, h)
    }

    #[test]
    fn stall_iters_demands_sustained_tolerance() {
        let (truth, mask, prior, g, h) = smoothed_problem_parts();
        let problem = ReconstructionProblem {
            observed: &truth,
            mask: &mask,
            lrr_prior: Some(&prior),
            location_graph: Some(&g),
            link_graph: Some(&h),
            empty_rss: None,
            distortion: None,
        };
        let quick = LoliIrConfig { max_iters: 200, tol: 1e-6, ..Default::default() };
        let patient = LoliIrConfig { stall_iters: 4, ..quick };
        let one = reconstruct(&problem, &quick).unwrap();
        let four = reconstruct(&problem, &patient).unwrap();
        assert!(one.converged && four.converged);
        // The counter resets on any non-small decrement, so holding the
        // tolerance for four consecutive iterations costs at least three more.
        assert!(
            four.iterations >= one.iterations + 3,
            "stall_iters=4 stopped after {} iterations, stall_iters=1 after {}",
            four.iterations,
            one.iterations
        );
        // The tail of the longer trace keeps honoring the tolerance.
        for w in four.objective_trace[one.iterations..].windows(2) {
            assert!((w[0] - w[1]).abs() <= quick.tol * w[0].abs().max(1.0) + 1e-9);
        }
    }

    #[test]
    fn stall_iters_zero_is_rejected() {
        let cfg = LoliIrConfig { stall_iters: 0, ..Default::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn accelerate_preserves_monotonicity_and_fixed_point() {
        let (truth, mask, prior, g, h) = smoothed_problem_parts();
        let problem = ReconstructionProblem {
            observed: &truth,
            mask: &mask,
            lrr_prior: Some(&prior),
            location_graph: Some(&g),
            link_graph: Some(&h),
            empty_rss: None,
            distortion: None,
        };
        let plain_cfg = LoliIrConfig { max_iters: 600, tol: 1e-7, ..Default::default() };
        let accel_cfg = LoliIrConfig { accelerate: true, ..plain_cfg };
        let plain = reconstruct(&problem, &plain_cfg).unwrap();
        let accel = reconstruct(&problem, &accel_cfg).unwrap();
        assert!(plain.converged && accel.converged);
        // The safeguard only ever accepts an extrapolation that lowers the
        // objective, so the trace stays monotone exactly like the plain run.
        for w in accel.objective_trace.windows(2) {
            assert!(
                w[1] <= w[0] * (1.0 + 1e-10) + 1e-9,
                "accelerated objective increased: {} -> {}",
                w[0],
                w[1]
            );
        }
        assert!(
            accel.iterations <= plain.iterations,
            "acceleration took {} iterations vs {} plain",
            accel.iterations,
            plain.iterations
        );
        let err = accel.matrix.sub(&plain.matrix).unwrap().map(f64::abs).mean();
        assert!(err < 1e-2, "accelerated fixed point drifted {err} dB from the plain one");
    }
}
