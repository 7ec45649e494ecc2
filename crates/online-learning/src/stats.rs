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
use crate::serialize_fields;

/// Normal-equation sufficient statistics of a least-squares fit over `D`
/// features: `a = Σ xxᵀ`, `b = Σ x·y`, `n` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct RlsStats<const D: usize> {
    /// Scatter matrix `Σ xxᵀ`, kept symmetric.
    pub(crate) a: [[f64; D]; D],
    /// Cross moment `Σ x·y`.
    pub(crate) b: [f64; D],
    /// Number of observations accumulated.
    pub(crate) n: u64,
}

impl<const D: usize> RlsStats<D> {
    /// Empty statistics.
    ///
    /// # Panics
    ///
    /// Panics if `D` is zero.
    pub fn zero() -> Self {
        assert!(D > 0, "feature dimension must be positive");
        Self { a: [[0.0; D]; D], b: [0.0; D], n: 0 }
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
    pub fn observe(&mut self, x: &[f64; D], y: f64) {
        for (row, &xi) in self.a.iter_mut().zip(x) {
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
    pub fn merge(&mut self, other: &RlsStats<D>) {
        for (row, other_row) in self.a.iter_mut().zip(&other.a) {
            for (entry, &value) in row.iter_mut().zip(other_row) {
                *entry += value;
            }
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
    pub fn refit(&self, lambda: f64) -> RecursiveLeastSquares<D> {
        let prior = 1.0 / RecursiveLeastSquares::<D>::INITIAL_COVARIANCE_SCALE;
        let mut regularised = self.a;
        for (i, row) in regularised.iter_mut().enumerate() {
            row[i] += prior;
        }
        let regularised = rows(&regularised);
        let weights =
            solve(&regularised, &self.b).expect("ridge-regularised normal equations are solvable");
        // P = (A₀ + A)⁻¹, column by column through the same solver; the
        // result is symmetrised so refit → to-stats round trips stay stable.
        let mut p = inverse_columns(&regularised, "ridge-regularised inverse column is solvable");
        symmetrise(&mut p);
        RecursiveLeastSquares::from_fitted_state(array(&weights), p, lambda, self.n as usize)
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
    pub fn from_estimator(rls: &RecursiveLeastSquares<D>) -> Self {
        let prior = 1.0 / RecursiveLeastSquares::<D>::INITIAL_COVARIANCE_SCALE;
        // Information matrix P⁻¹, column by column.
        let mut a = inverse_columns(&rows(rls.covariance()), "estimator covariance is invertible");
        symmetrise(&mut a);
        let b = a.map(|row| row.iter().zip(rls.weights()).map(|(entry, w)| entry * w).sum());
        for (i, row) in a.iter_mut().enumerate() {
            row[i] -= prior;
        }
        Self { a, b, n: rls.samples_seen() as u64 }
    }

    /// Approximate in-memory footprint of the statistics, in bytes.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

impl<const D: usize> Serialize for RlsStats<D> {
    fn serialize_json(&self, out: &mut String) {
        serialize_fields(&[("a", &self.a), ("b", &self.b), ("n", &self.n)], out);
    }
}

/// A matrix as the nested vectors [`solve`] takes.
fn rows<const D: usize>(m: &[[f64; D]; D]) -> Vec<Vec<f64>> {
    m.iter().map(|row| row.to_vec()).collect()
}

/// A solver result as an array.
fn array<const D: usize>(v: &[f64]) -> [f64; D] {
    std::array::from_fn(|i| v[i])
}

/// `m⁻¹`, one [`solve`] per unit column.
fn inverse_columns<const D: usize>(m: &[Vec<f64>], singular: &str) -> [[f64; D]; D] {
    let mut inverse = [[0.0; D]; D];
    for col in 0..D {
        let mut unit = [0.0; D];
        unit[col] = 1.0;
        let column = solve(m, &unit).expect(singular);
        for (row, value) in inverse.iter_mut().zip(column) {
            row[col] = value;
        }
    }
    inverse
}

/// Forces exact symmetry on a numerically near-symmetric matrix.
fn symmetrise<const D: usize>(m: &mut [[f64; D]; D]) {
    for i in 0..D {
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

    fn stream(seed: u64, n: usize) -> Vec<([f64; 3], f64)> {
        (0..n)
            .map(|i| {
                let k = i as u64 + seed;
                let x = [((k * 37) % 101) as f64 / 101.0, ((k * 61) % 89) as f64 / 89.0, 1.0];
                let y = 2.5 * x[0] - 0.75 * x[1] + 0.3 + ((k % 7) as f64 - 3.0) * 0.01;
                (x, y)
            })
            .collect()
    }

    fn batch_fit(data: &[([f64; 3], f64)]) -> RecursiveLeastSquares<3> {
        let mut rls = RecursiveLeastSquares::new(1.0);
        for (x, y) in data {
            rls.update_retaining(x, *y);
        }
        rls
    }

    #[test]
    fn refit_matches_sequential_batch_fit() {
        let data = stream(3, 240);
        let mut stats = RlsStats::<3>::zero();
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
        let mut left = RlsStats::<3>::zero();
        let mut right = RlsStats::<3>::zero();
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
        let refit = RlsStats::<4>::zero().refit(1.0);
        let fresh = RecursiveLeastSquares::<4>::new(1.0);
        assert_eq!(refit.samples_seen(), 0);
        assert!(refit.weights().iter().all(|&w| w == 0.0));
        for (row_a, row_b) in refit.covariance().iter().zip(fresh.covariance()) {
            for (a, b) in row_a.iter().zip(row_b) {
                assert!(
                    (a - b).abs() < 1e-6 * RecursiveLeastSquares::<4>::INITIAL_COVARIANCE_SCALE
                );
            }
        }
    }

    #[test]
    fn approx_bytes_counts_the_scatter_matrix() {
        let stats = RlsStats::<9>::zero();
        assert_eq!(stats.approx_bytes(), (81 + 9) * 8 + 8);
    }
}
