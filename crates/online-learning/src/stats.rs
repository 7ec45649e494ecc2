//! Normal-equation sufficient statistics for recursive least squares.
//!
//! A `λ = 1` RLS history is fully described by the normal-equation
//! sufficient statistics `A = Σ xxᵀ`, `b = Σ x·y` and the sample count `n`:
//! the estimator's state after any permutation of those updates is the ridge
//! solution `(A₀ + A) w = b`, where `A₀ = I / INITIAL_COVARIANCE_SCALE` is
//! the implicit prior encoded by the initial covariance `P₀`.  Because the
//! statistics are plain sums, merging two of them is element-wise addition —
//! **exact, associative and commutative** — which is what lets a fleet of
//! per-user online learners be folded back into one shared base model
//! (federated-style) with the guarantee that the merged refit equals a batch
//! fit over the concatenated data.
//!
//! With forgetting (`λ < 1`) the estimator state is *not* representable this
//! way (old samples are discounted), so per-user deltas are accumulated at
//! observation time ([`RlsStats::observe`]) rather than recovered from the
//! forgetting estimator afterwards; [`RlsStats::from_estimator`] is exact
//! only for `λ = 1` histories and documents that contract.

use serde::Serialize;

use crate::linalg::solve;
use crate::rls::RecursiveLeastSquares;
use crate::traits::OnlineRegressor;

/// Normal-equation sufficient statistics of a least-squares fit:
/// `a = Σ xxᵀ`, `b = Σ x·y`, `n` samples.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RlsStats {
    /// Scatter matrix `Σ xxᵀ` (row-major, flat `dim × dim`, kept symmetric).
    /// Flat storage keeps a statistic at two heap allocations: recorders are
    /// created per user lease at fleet scale, where a nested `dim + 1`-vector
    /// matrix shows up in the serving profile.
    a: Vec<f64>,
    /// Cross moment `Σ x·y`.
    b: Vec<f64>,
    /// Number of observations accumulated.
    n: u64,
}

impl RlsStats {
    /// Empty statistics for `dim` features.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn zero(dim: usize) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        Self { a: vec![0.0; dim * dim], b: vec![0.0; dim], n: 0 }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.b.len()
    }

    /// Number of observations accumulated.
    pub fn samples(&self) -> u64 {
        self.n
    }

    /// Whether no observation has been accumulated yet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Accumulates one observation: `a += xxᵀ`, `b += x·y`, `n += 1`.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimension.
    pub fn observe(&mut self, x: &[f64], y: f64) {
        assert_eq!(x.len(), self.dim(), "feature dimension mismatch");
        for (row, &xi) in self.a.chunks_exact_mut(x.len()).zip(x) {
            for (entry, &xj) in row.iter_mut().zip(x) {
                *entry += xi * xj;
            }
        }
        for (bi, &xi) in self.b.iter_mut().zip(x) {
            *bi += xi * y;
        }
        self.n += 1;
    }

    /// Merges another statistic into this one — element-wise addition, so the
    /// operation is exact, associative and commutative: however a fleet's
    /// per-user statistics are partitioned and in whatever order they are
    /// folded, the sums (and therefore the refit) describe the concatenated
    /// data.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn merge(&mut self, other: &RlsStats) {
        assert_eq!(self.dim(), other.dim(), "merge requires equal feature dimensions");
        for (entry, &value) in self.a.iter_mut().zip(&other.a) {
            *entry += value;
        }
        for (bi, &value) in self.b.iter_mut().zip(&other.b) {
            *bi += value;
        }
        self.n += other.n;
    }

    /// Refits a [`RecursiveLeastSquares`] estimator from the statistics: the
    /// weights solve the regularised normal equations `(A₀ + A) w = b` with
    /// the same prior `A₀ = I / INITIAL_COVARIANCE_SCALE` the estimator
    /// starts from, and the covariance is restored as `P = (A₀ + A)⁻¹`, so
    /// the result matches a fresh estimator fed the same observations with
    /// `λ = 1` updates (up to floating-point rounding) and keeps adapting
    /// from that state at the requested runtime `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is outside `(0, 1]` or the statistics are not
    /// finite (the ridge prior makes `A₀ + A` positive definite for any
    /// finite data, so the solve cannot otherwise fail).
    pub fn refit(&self, lambda: f64) -> RecursiveLeastSquares {
        let dim = self.dim();
        let prior = 1.0 / RecursiveLeastSquares::INITIAL_COVARIANCE_SCALE;
        let mut regularised: Vec<Vec<f64>> =
            self.a.chunks_exact(dim).map(|row| row.to_vec()).collect();
        for (i, row) in regularised.iter_mut().enumerate() {
            row[i] += prior;
        }
        let weights =
            solve(&regularised, &self.b).expect("ridge-regularised normal equations are solvable");
        // P = (A₀ + A)⁻¹, column by column through the same solver; the
        // result is symmetrised so refit → to-stats round trips stay stable.
        let mut p = vec![vec![0.0; dim]; dim];
        for col in 0..dim {
            let mut unit = vec![0.0; dim];
            unit[col] = 1.0;
            let column =
                solve(&regularised, &unit).expect("ridge-regularised inverse column is solvable");
            for (row, value) in column.into_iter().enumerate() {
                p[row][col] = value;
            }
        }
        symmetrise(&mut p);
        RecursiveLeastSquares::from_fitted_state(weights, p, lambda, self.n as usize)
    }

    /// Recovers the sufficient statistics from a fitted estimator:
    /// `A = P⁻¹ − A₀`, `b = P⁻¹ w`, `n` = samples seen.
    ///
    /// Exact (up to floating-point rounding) only when every update in the
    /// estimator's history ran with `λ = 1` — the design-time pretraining
    /// path.  A forgetting history discounts old samples, which no sum of
    /// raw outer products can represent; callers tracking runtime (`λ < 1`)
    /// learners should accumulate deltas with [`RlsStats::observe`] at
    /// update time instead.
    ///
    /// # Panics
    ///
    /// Panics if the estimator's covariance is singular to working precision
    /// (cannot happen for states produced by `λ = 1` updates from the
    /// standard prior).
    pub fn from_estimator(rls: &RecursiveLeastSquares) -> Self {
        let dim = rls.input_dim();
        let p = rls.covariance();
        let prior = 1.0 / RecursiveLeastSquares::INITIAL_COVARIANCE_SCALE;
        // Information matrix P⁻¹, column by column.
        let mut information = vec![vec![0.0; dim]; dim];
        for col in 0..dim {
            let mut unit = vec![0.0; dim];
            unit[col] = 1.0;
            let column = solve(p, &unit).expect("estimator covariance is invertible");
            for (row, value) in column.into_iter().enumerate() {
                information[row][col] = value;
            }
        }
        symmetrise(&mut information);
        let b: Vec<f64> = information
            .iter()
            .map(|row| row.iter().zip(rls.weights()).map(|(entry, w)| entry * w).sum())
            .collect();
        let mut a: Vec<f64> = Vec::with_capacity(dim * dim);
        for (i, row) in information.iter().enumerate() {
            for (j, &value) in row.iter().enumerate() {
                a.push(if i == j { value - prior } else { value });
            }
        }
        Self { a, b, n: rls.samples_seen() as u64 }
    }

    /// Approximate in-memory footprint of the statistics, in bytes.
    pub fn approx_bytes(&self) -> usize {
        let dim = self.dim();
        (dim * dim + dim) * std::mem::size_of::<f64>() + std::mem::size_of::<u64>()
    }
}

/// Forces exact symmetry on a numerically near-symmetric matrix.
fn symmetrise(m: &mut [Vec<f64>]) {
    for i in 0..m.len() {
        let (head, tail) = m.split_at_mut(i);
        let row_i = &mut tail[0];
        for (j, row_j) in head.iter_mut().enumerate() {
            let mean = 0.5 * (row_i[j] + row_j[i]);
            row_i[j] = mean;
            row_j[i] = mean;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, n: usize) -> Vec<(Vec<f64>, f64)> {
        (0..n)
            .map(|i| {
                let k = i as u64 + seed;
                let x = vec![((k * 37) % 101) as f64 / 101.0, ((k * 61) % 89) as f64 / 89.0, 1.0];
                let y = 2.5 * x[0] - 0.75 * x[1] + 0.3 + ((k % 7) as f64 - 3.0) * 0.01;
                (x, y)
            })
            .collect()
    }

    fn batch_fit(data: &[(Vec<f64>, f64)]) -> RecursiveLeastSquares {
        let mut rls = RecursiveLeastSquares::new(3, 1.0);
        for (x, y) in data {
            rls.update_retaining(x, *y);
        }
        rls
    }

    #[test]
    fn refit_matches_sequential_batch_fit() {
        let data = stream(3, 240);
        let mut stats = RlsStats::zero(3);
        for (x, y) in &data {
            stats.observe(x, *y);
        }
        let refit = stats.refit(1.0);
        let sequential = batch_fit(&data);
        assert_eq!(refit.samples_seen(), sequential.samples_seen());
        for (a, b) in refit.weights().iter().zip(sequential.weights()) {
            assert!((a - b).abs() < 1e-9, "refit weight {a} vs sequential {b}");
        }
    }

    #[test]
    fn merge_of_partitions_refits_like_concatenation() {
        let data = stream(11, 300);
        let mut left = RlsStats::zero(3);
        let mut right = RlsStats::zero(3);
        for (i, (x, y)) in data.iter().enumerate() {
            if i % 2 == 0 { &mut left } else { &mut right }.observe(x, *y);
        }
        let mut merged = left.clone();
        merged.merge(&right);
        assert_eq!(merged.samples(), 300);
        let sequential = batch_fit(&data);
        for (a, b) in merged.refit(1.0).weights().iter().zip(sequential.weights()) {
            assert!((a - b).abs() < 1e-9, "merged refit {a} vs concatenated fit {b}");
        }
        // Commutativity of the statistics themselves is exact (bit level):
        // element-wise `x + y` equals `y + x` in IEEE 754.
        let mut flipped = right.clone();
        flipped.merge(&left);
        assert_eq!(flipped, merged);
    }

    #[test]
    fn from_estimator_round_trips_a_lambda_one_history() {
        let data = stream(29, 180);
        let sequential = batch_fit(&data);
        let recovered = RlsStats::from_estimator(&sequential);
        assert_eq!(recovered.samples(), 180);
        let refit = recovered.refit(0.97);
        assert_eq!(refit.lambda(), 0.97);
        for (a, b) in refit.weights().iter().zip(sequential.weights()) {
            assert!((a - b).abs() < 1e-9, "round-tripped weight {a} vs original {b}");
        }
    }

    #[test]
    fn empty_stats_refit_to_the_prior_state() {
        let refit = RlsStats::zero(4).refit(1.0);
        let fresh = RecursiveLeastSquares::new(4, 1.0);
        assert_eq!(refit.samples_seen(), 0);
        assert!(refit.weights().iter().all(|&w| w == 0.0));
        for (row_a, row_b) in refit.covariance().iter().zip(fresh.covariance()) {
            for (a, b) in row_a.iter().zip(row_b) {
                assert!((a - b).abs() < 1e-6 * RecursiveLeastSquares::INITIAL_COVARIANCE_SCALE);
            }
        }
    }

    #[test]
    fn approx_bytes_counts_the_scatter_matrix() {
        let stats = RlsStats::zero(9);
        assert_eq!(stats.approx_bytes(), (81 + 9) * 8 + 8);
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn observe_rejects_wrong_dimension() {
        RlsStats::zero(3).observe(&[1.0], 1.0);
    }

    #[test]
    #[should_panic(expected = "equal feature dimensions")]
    fn merge_rejects_wrong_dimension() {
        RlsStats::zero(3).merge(&RlsStats::zero(2));
    }
}
