//! Singular value decomposition via one-sided Jacobi rotations.
//!
//! One-sided Jacobi is slower asymptotically than Golub–Kahan bidiagonalization but
//! is simple, numerically robust, and more than fast enough at fingerprint-matrix
//! scale (tens of links x hundreds of grids). It is used to
//!
//! * initialize the LoLi-IR factors (`X̂ = L·Rᵀ` from the truncated SVD of the LRR
//!   estimate), and
//! * implement the singular-value-thresholding (SVT) matrix-completion baseline,
//!   i.e. the poster's pure rank-minimization formulation.

use crate::{LinalgError, Matrix, Result};

/// Maximum number of Jacobi sweeps before reporting non-convergence.
const MAX_SWEEPS: usize = 100;

/// Relative off-diagonal tolerance for declaring a column pair orthogonal.
/// Loose enough that rotations driven purely by floating-point noise (which can
/// cycle forever on nearly rank-deficient matrices) are skipped, tight enough
/// for ~1e-9-accurate singular triplets.
const ORTHO_TOL: f64 = 1e-11;

/// Thin singular value decomposition `A = U·diag(σ)·Vᵀ`.
///
/// `U` is `m x k`, `σ` has length `k`, `V` is `n x k`, with `k = min(m, n)` and the
/// singular values sorted in non-increasing order.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, one per column.
    pub u: Matrix,
    /// Singular values, non-increasing.
    pub sigma: Vec<f64>,
    /// Right singular vectors, one per column.
    pub v: Matrix,
}

impl Matrix {
    /// Computes the thin SVD by one-sided Jacobi.
    ///
    /// Returns [`LinalgError::EmptyInput`] for an empty matrix and
    /// [`LinalgError::NoConvergence`] if the sweep budget is exhausted (which does
    /// not happen for finite input at our scale, but is reported rather than
    /// silently accepted).
    pub fn svd(&self) -> Result<Svd> {
        if self.is_empty() {
            return Err(LinalgError::EmptyInput { op: "Matrix::svd" });
        }
        if self.rows() >= self.cols() {
            svd_tall(self)
        } else {
            // svd(A) from svd(Aᵀ): swap U and V.
            let Svd { u, sigma, v } = svd_tall(&self.transpose())?;
            Ok(Svd { u: v, sigma, v: u })
        }
    }
}

/// One-sided Jacobi on a tall (or square) matrix: orthogonalize the columns of a
/// working copy `W = A·V`; at convergence `W`'s columns are `σ_j·u_j`.
fn svd_tall(a: &Matrix) -> Result<Svd> {
    let (m, n) = a.shape();
    debug_assert!(m >= n);
    // Tall-skinny fast path: factor A = Q·R first (thin m x n Q, built from
    // the stored Householder reflectors), then run Jacobi on the n x n
    // triangle R. Each rotation then touches n entries per column instead of
    // m, which shrinks the sweep cost from O(m·n²) to O(n³), and
    // A = (Q·U_R)·Σ·Vᵀ gives the thin factors up to rounding.
    if m >= 2 * n {
        let qr = a.qr()?;
        let inner = svd_tall(qr.r())?;
        let u = qr.q().matmul(&inner.u)?;
        return Ok(Svd { u, sigma: inner.sigma, v: inner.v });
    }
    // Column-major working copies: row `p` of `wt` is column `p` of `W`, and
    // likewise for `vt` and `V`, so every rotation streams two contiguous
    // slices. The sums and updates run in the same order as on `W` itself.
    let mut wt = a.transpose();
    let mut vt = Matrix::identity(n);

    // Columns whose squared norm falls below this are numerically zero: rotating
    // them against healthy columns computes angles that underflow to zero (a
    // no-op), which would cycle forever. They correspond to zero singular values
    // and can be left alone.
    let norm_sq_floor = (f64::EPSILON * a.frobenius_norm()).powi(2);

    let mut converged = false;
    for _sweep in 0..MAX_SWEEPS {
        let mut rotated = false;
        for p in 0..n {
            for q in (p + 1)..n {
                let (wp, wq) = two_rows(&mut wt, p, q);
                let mut app = 0.0;
                let mut aqq = 0.0;
                let mut apq = 0.0;
                for (&xp, &xq) in wp.iter().zip(wq.iter()) {
                    app += xp * xp;
                    aqq += xq * xq;
                    apq += xp * xq;
                }
                // Skip pairs that are already orthogonal relative to their size,
                // and pairs involving a (numerically) zero column — rotating
                // against noise cycles forever without improving the factors.
                let scale = (app * aqq).sqrt();
                if apq == 0.0
                    || apq.abs() <= ORTHO_TOL * scale
                    || app <= norm_sq_floor
                    || aqq <= norm_sq_floor
                {
                    continue;
                }
                // Jacobi rotation that zeroes the (p,q) entry of WᵀW.
                let zeta = (aqq - app) / (2.0 * apq);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                if t == 0.0 {
                    // Angle underflowed; the pair is as orthogonal as f64 allows.
                    continue;
                }
                rotated = true;
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                rotate(wp, wq, c, s);
                let (vp, vq) = two_rows(&mut vt, p, q);
                rotate(vp, vq, c, s);
            }
        }
        if !rotated {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(LinalgError::NoConvergence { algorithm: "jacobi-svd", iterations: MAX_SWEEPS });
    }

    // Extract singular values and normalize U's columns.
    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<f64> =
        (0..n).map(|j| wt.row(j).iter().map(|x| x * x).sum::<f64>().sqrt()).collect();
    order.sort_by(|&x, &y| norms[y].partial_cmp(&norms[x]).expect("finite norms"));

    let mut u = Matrix::zeros(m, n);
    let mut vv = Matrix::zeros(n, n);
    let mut sigma = Vec::with_capacity(n);
    for (k, &j) in order.iter().enumerate() {
        let s = norms[j];
        sigma.push(s);
        for (i, &x) in wt.row(j).iter().enumerate() {
            u[(i, k)] = if s > 0.0 { x / s } else { 0.0 };
        }
        for (i, &x) in vt.row(j).iter().enumerate() {
            vv[(i, k)] = x;
        }
    }
    Ok(Svd { u, sigma, v: vv })
}

/// Mutable views of rows `p < q` of `mat`.
fn two_rows(mat: &mut Matrix, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
    let len = mat.cols();
    let (head, tail) = mat.as_mut_slice().split_at_mut(q * len);
    (&mut head[p * len..(p + 1) * len], &mut tail[..len])
}

/// Plane rotation of the pair `(x, y)`: `x ← c·x − s·y`, `y ← s·x + c·y`.
fn rotate(x: &mut [f64], y: &mut [f64], c: f64, s: f64) {
    for (xp, xq) in x.iter_mut().zip(y.iter_mut()) {
        let (a, b) = (*xp, *xq);
        *xp = c * a - s * b;
        *xq = s * a + c * b;
    }
}

impl Svd {
    /// Number of singular values retained.
    pub fn len(&self) -> usize {
        self.sigma.len()
    }

    /// `true` when no singular values are stored.
    pub fn is_empty(&self) -> bool {
        self.sigma.is_empty()
    }

    /// Rebuilds `U·diag(σ)·Vᵀ`.
    pub fn reconstruct(&self) -> Matrix {
        let us = Matrix::from_fn(self.u.rows(), self.len(), |i, j| self.u[(i, j)] * self.sigma[j]);
        us.matmul_nt(&self.v).expect("svd factor shapes agree")
    }

    /// Keeps only the `k` largest singular triplets (clamped to the available count).
    pub fn truncate(&self, k: usize) -> Svd {
        let k = k.min(self.len());
        Svd {
            u: self.u.submatrix(0, self.u.rows(), 0, k).expect("in range"),
            sigma: self.sigma[..k].to_vec(),
            v: self.v.submatrix(0, self.v.rows(), 0, k).expect("in range"),
        }
    }

    /// Numerical rank relative to the largest singular value.
    pub fn rank(&self, tol: f64) -> usize {
        match self.sigma.first() {
            None => 0,
            Some(&0.0) => 0,
            Some(&s0) => self.sigma.iter().take_while(|&&s| s > tol * s0).count(),
        }
    }

    /// Nuclear norm `Σ σ_i` (the convex surrogate of rank the poster's
    /// `min rank(X̂)` formulation relaxes to).
    pub fn nuclear_norm(&self) -> f64 {
        self.sigma.iter().sum()
    }

    /// Applies soft-thresholding `σ_i ← max(σ_i − τ, 0)` and rebuilds the matrix —
    /// the shrinkage step of singular value thresholding.
    pub fn shrink(&self, tau: f64) -> Matrix {
        let kept: Vec<usize> = (0..self.len()).filter(|&i| self.sigma[i] > tau).collect();
        if kept.is_empty() {
            return Matrix::zeros(self.u.rows(), self.v.rows());
        }
        let us = Matrix::from_fn(self.u.rows(), kept.len(), |i, j| {
            self.u[(i, kept[j])] * (self.sigma[kept[j]] - tau)
        });
        let vs = self.v.select_cols(&kept).expect("kept indices in range");
        us.matmul_nt(&vs).expect("svd factor shapes agree")
    }

    /// Energy fraction captured by the top `k` singular values
    /// (`Σ_{i<k} σ_i² / Σ σ_i²`); `1.0` for a zero matrix.
    pub fn energy_fraction(&self, k: usize) -> f64 {
        let total: f64 = self.sigma.iter().map(|s| s * s).sum();
        if total == 0.0 {
            return 1.0;
        }
        let head: f64 = self.sigma.iter().take(k).map(|s| s * s).sum();
        head / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[3.0, 2.0, 2.0], &[2.0, 3.0, -2.0]]).unwrap()
    }

    #[test]
    fn known_singular_values() {
        // Classic example: singular values are 5 and 3.
        let svd = sample().svd().unwrap();
        assert!((svd.sigma[0] - 5.0).abs() < 1e-9, "{:?}", svd.sigma);
        assert!((svd.sigma[1] - 3.0).abs() < 1e-9, "{:?}", svd.sigma);
    }

    #[test]
    fn reconstruction_tall_and_wide() {
        let wide = sample();
        assert!(wide.svd().unwrap().reconstruct().approx_eq(&wide, 1e-9));
        let tall = wide.transpose();
        assert!(tall.svd().unwrap().reconstruct().approx_eq(&tall, 1e-9));
    }

    #[test]
    fn factors_are_orthonormal() {
        let svd = sample().transpose().svd().unwrap();
        let k = svd.len();
        assert!(svd.u.gram().approx_eq(&Matrix::identity(k), 1e-9));
        assert!(svd.v.gram().approx_eq(&Matrix::identity(k), 1e-9));
    }

    #[test]
    fn sigma_sorted_non_increasing() {
        let a = Matrix::from_fn(6, 4, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
        let svd = a.svd().unwrap();
        for w in svd.sigma.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn rank_of_low_rank_matrix() {
        // rank-1: outer product.
        let a = crate::ops::outer(&[1.0, 2.0, 3.0], &[4.0, 5.0]);
        let svd = a.svd().unwrap();
        assert_eq!(svd.rank(1e-9), 1);
    }

    #[test]
    fn truncate_keeps_best_approximation() {
        let a =
            Matrix::from_rows(&[&[10.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 0.1]]).unwrap();
        let t = a.svd().unwrap().truncate(1);
        assert_eq!(t.len(), 1);
        let back = t.reconstruct();
        assert!((back[(0, 0)] - 10.0).abs() < 1e-9);
        assert!(back[(1, 1)].abs() < 1e-9);
    }

    #[test]
    fn truncate_clamps() {
        let svd = sample().svd().unwrap();
        assert_eq!(svd.truncate(99).len(), 2);
    }

    #[test]
    fn nuclear_norm_and_energy() {
        let a = Matrix::from_diag(&[3.0, 4.0]);
        let svd = a.svd().unwrap();
        assert!((svd.nuclear_norm() - 7.0).abs() < 1e-9);
        assert!((svd.energy_fraction(1) - 16.0 / 25.0).abs() < 1e-9);
        assert!((svd.energy_fraction(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shrink_soft_thresholds() {
        let a = Matrix::from_diag(&[5.0, 1.0]);
        let shrunk = a.svd().unwrap().shrink(2.0);
        // 5 -> 3, 1 -> dropped.
        let svd2 = shrunk.svd().unwrap();
        assert!((svd2.sigma[0] - 3.0).abs() < 1e-9);
        assert!(svd2.sigma[1].abs() < 1e-9);
    }

    #[test]
    fn shrink_everything_gives_zero() {
        let z = sample().svd().unwrap().shrink(100.0);
        assert_eq!(z.shape(), (2, 3));
        assert_eq!(z.max_abs(), 0.0);
    }

    #[test]
    fn zero_matrix_svd() {
        let svd = Matrix::zeros(3, 2).svd().unwrap();
        assert_eq!(svd.rank(1e-9), 0);
        assert!(svd.sigma.iter().all(|&s| s == 0.0));
        assert!(svd.reconstruct().approx_eq(&Matrix::zeros(3, 2), 1e-12));
        assert_eq!(svd.energy_fraction(1), 1.0);
    }

    #[test]
    fn empty_rejected() {
        assert!(Matrix::zeros(0, 0).svd().is_err());
    }

    #[test]
    fn tall_skinny_qr_path_is_a_valid_svd() {
        // 40x5 triggers the QR-preprocessing branch (m >= 2n).
        let a = Matrix::from_fn(40, 5, |i, j| ((i * 13 + j * 7) % 17) as f64 / 17.0 - 0.4);
        let svd = a.svd().unwrap();
        assert!(svd.reconstruct().approx_eq(&a, 1e-9));
        assert!(svd.u.gram().approx_eq(&Matrix::identity(5), 1e-9));
        assert!(svd.v.gram().approx_eq(&Matrix::identity(5), 1e-9));
        for w in svd.sigma.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        // Singular values must agree with the direct (square-ish) path on AᵀA.
        let sum_sq: f64 = svd.sigma.iter().map(|s| s * s).sum();
        assert!((a.gram().trace().unwrap() - sum_sq).abs() < 1e-8);
    }

    #[test]
    fn tall_skinny_rank_deficient() {
        // Two identical columns; m >= 2n path with rank 1.
        let a = Matrix::from_fn(12, 2, |i, _| i as f64 + 1.0);
        let svd = a.svd().unwrap();
        assert_eq!(svd.rank(1e-9), 1);
        assert!(svd.reconstruct().approx_eq(&a, 1e-9));
    }

    #[test]
    fn singular_values_match_eigenvalues_of_gram() {
        let a = Matrix::from_fn(5, 3, |i, j| (i as f64 - j as f64) / (1.0 + i as f64 + j as f64));
        let svd = a.svd().unwrap();
        let gram = a.gram();
        // σ_i² must be eigenvalues of AᵀA; check via the characteristic property
        // tr(AᵀA) = Σ σ_i².
        let sum_sq: f64 = svd.sigma.iter().map(|s| s * s).sum();
        assert!((gram.trace().unwrap() - sum_sq).abs() < 1e-9);
    }
}
