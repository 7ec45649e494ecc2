//! Test-only reference for [`super::RecursiveLeastSquares`],
//! [`super::AdaptiveForgettingRls`] and [`crate::stats::RlsStats`]: the
//! `Vec<Vec<f64>>` estimators and the flat-vector statistics that the
//! fixed-size arrays replaced, with their three fresh vectors per update.
//! Their arithmetic is the specification the fixed-size types must match bit
//! for bit; the property tests below compare the two on random streams at
//! `λ = 0.97` and `λ = 1`, on input scales that drive the covariance to its
//! floor, and through the sufficient-statistics merge and refit.

use super::COVARIANCE_FLOOR;
use crate::linalg::solve;

const INITIAL_COVARIANCE_SCALE: f64 = 1e4;

#[derive(Debug, Clone)]
struct ReferenceRls {
    weights: Vec<f64>,
    p: Vec<Vec<f64>>,
    lambda: f64,
    samples: usize,
}

impl ReferenceRls {
    fn new(dim: usize, lambda: f64) -> Self {
        let p = (0..dim)
            .map(|i| {
                (0..dim).map(|j| if i == j { INITIAL_COVARIANCE_SCALE } else { 0.0 }).collect()
            })
            .collect();
        Self { weights: vec![0.0; dim], p, lambda, samples: 0 }
    }

    fn predict(&self, x: &[f64]) -> f64 {
        self.weights.iter().zip(x).map(|(w, xi)| w * xi).sum()
    }

    fn update(&mut self, x: &[f64], y: f64) {
        let lambda = self.lambda;
        self.update_with_lambda(x, y, lambda);
    }

    fn update_retaining(&mut self, x: &[f64], y: f64) {
        self.update_with_lambda(x, y, 1.0);
    }

    fn update_with_lambda(&mut self, x: &[f64], y: f64, lambda: f64) {
        let dim = x.len();
        let px: Vec<f64> = (0..dim).map(|i| (0..dim).map(|j| self.p[i][j] * x[j]).sum()).collect();
        let denom = lambda + x.iter().zip(&px).map(|(xi, pxi)| xi * pxi).sum::<f64>();
        let gain: Vec<f64> = px.iter().map(|v| v / denom).collect();
        let prediction: f64 = self.weights.iter().zip(x).map(|(w, xi)| w * xi).sum();
        let error = y - prediction;
        for (w, g) in self.weights.iter_mut().zip(&gain) {
            *w += g * error;
        }
        let xt_p: Vec<f64> =
            (0..dim).map(|j| (0..dim).map(|i| x[i] * self.p[i][j]).sum()).collect();
        for (p_row, g) in self.p.iter_mut().zip(&gain) {
            for (p_entry, xp) in p_row.iter_mut().zip(&xt_p) {
                *p_entry = (*p_entry - g * xp) / lambda;
            }
        }
        for i in 0..dim {
            self.p[i][i] = self.p[i][i].max(COVARIANCE_FLOOR);
        }
        self.samples += 1;
    }
}

#[derive(Debug, Clone)]
struct ReferenceAdaptive {
    inner: ReferenceRls,
    lambda_floor: f64,
    lambda_ceiling: f64,
    current_lambda: f64,
    error_ema: f64,
    target_ema: f64,
    ema_alpha: f64,
}

impl ReferenceAdaptive {
    fn new(dim: usize, lambda_floor: f64, lambda_ceiling: f64) -> Self {
        Self {
            inner: ReferenceRls::new(dim, lambda_ceiling),
            lambda_floor,
            lambda_ceiling,
            current_lambda: lambda_ceiling,
            error_ema: 0.0,
            target_ema: 1e-9,
            ema_alpha: 0.1,
        }
    }

    fn update(&mut self, x: &[f64], y: f64) {
        let prediction = self.inner.predict(x);
        let error = y - prediction;
        self.error_ema = (1.0 - self.ema_alpha) * self.error_ema + self.ema_alpha * error * error;
        self.target_ema = (1.0 - self.ema_alpha) * self.target_ema + self.ema_alpha * y * y;
        let normalised = (self.error_ema / self.target_ema.max(1e-12)).min(1.0);
        self.current_lambda = (self.lambda_ceiling
            - (self.lambda_ceiling - self.lambda_floor) * normalised.sqrt())
        .clamp(self.lambda_floor, self.lambda_ceiling);
        let lambda = self.current_lambda;
        self.inner.update_with_lambda(x, y, lambda);
    }
}

/// The flat-vector sufficient statistics: `a` is `Σ xxᵀ` row-major.
#[derive(Debug, Clone)]
struct ReferenceStats {
    a: Vec<f64>,
    b: Vec<f64>,
    n: u64,
}

impl ReferenceStats {
    fn zero(dim: usize) -> Self {
        Self { a: vec![0.0; dim * dim], b: vec![0.0; dim], n: 0 }
    }

    fn observe(&mut self, x: &[f64], y: f64) {
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

    fn merge(&mut self, other: &ReferenceStats) {
        for (entry, &value) in self.a.iter_mut().zip(&other.a) {
            *entry += value;
        }
        for (bi, &value) in self.b.iter_mut().zip(&other.b) {
            *bi += value;
        }
        self.n += other.n;
    }

    fn refit(&self, lambda: f64) -> ReferenceRls {
        let dim = self.b.len();
        let prior = 1.0 / INITIAL_COVARIANCE_SCALE;
        let mut regularised: Vec<Vec<f64>> =
            self.a.chunks_exact(dim).map(|row| row.to_vec()).collect();
        for (i, row) in regularised.iter_mut().enumerate() {
            row[i] += prior;
        }
        let weights = solve(&regularised, &self.b).expect("solvable");
        let mut p = vec![vec![0.0; dim]; dim];
        for col in 0..dim {
            let mut unit = vec![0.0; dim];
            unit[col] = 1.0;
            let column = solve(&regularised, &unit).expect("solvable");
            for (row, value) in column.into_iter().enumerate() {
                p[row][col] = value;
            }
        }
        symmetrise(&mut p);
        ReferenceRls { weights, p, lambda, samples: self.n as usize }
    }

    fn from_estimator(rls: &ReferenceRls) -> Self {
        let dim = rls.weights.len();
        let prior = 1.0 / INITIAL_COVARIANCE_SCALE;
        let mut information = vec![vec![0.0; dim]; dim];
        for col in 0..dim {
            let mut unit = vec![0.0; dim];
            unit[col] = 1.0;
            let column = solve(&rls.p, &unit).expect("invertible");
            for (row, value) in column.into_iter().enumerate() {
                information[row][col] = value;
            }
        }
        symmetrise(&mut information);
        let b: Vec<f64> = information
            .iter()
            .map(|row| row.iter().zip(&rls.weights).map(|(entry, w)| entry * w).sum())
            .collect();
        let mut a: Vec<f64> = Vec::with_capacity(dim * dim);
        for (i, row) in information.iter().enumerate() {
            for (j, &value) in row.iter().enumerate() {
                a.push(if i == j { value - prior } else { value });
            }
        }
        Self { a, b, n: rls.samples as u64 }
    }
}

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

mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::super::{AdaptiveForgettingRls, RecursiveLeastSquares};
    use super::*;
    use crate::stats::RlsStats;

    /// Input scales: unit features, and two that drive the covariance
    /// diagonal below [`COVARIANCE_FLOOR`] within a few updates.
    const SCALES: [f64; 3] = [1.0, 1e3, 1e5];

    /// Samples of `D` features drawn from `pool` (32 values per sample),
    /// scaled by `scale`, with the target a noisy linear function of them.
    fn stream<const D: usize>(pool: &[f64], scale: f64) -> Vec<([f64; D], f64)> {
        pool.chunks_exact(32)
            .map(|row| {
                let x: [f64; D] = std::array::from_fn(|i| row[i] * scale);
                let y =
                    x.iter().enumerate().map(|(i, v)| v * (i as f64 - 1.5)).sum::<f64>() + row[31];
                (x, y)
            })
            .collect()
    }

    fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
        values.into_iter().map(f64::to_bits).collect()
    }

    fn same_estimator<const D: usize>(
        fixed: &RecursiveLeastSquares<D>,
        reference: &ReferenceRls,
    ) -> bool {
        bits(fixed.weights().iter().copied()) == bits(reference.weights.iter().copied())
            && bits(fixed.covariance().iter().flatten().copied())
                == bits(reference.p.iter().flatten().copied())
            && fixed.samples_seen() == reference.samples
            && fixed.lambda().to_bits() == reference.lambda.to_bits()
    }

    fn same_stats<const D: usize>(fixed: &RlsStats<D>, reference: &ReferenceStats) -> bool {
        bits(fixed.a.iter().flatten().copied()) == bits(reference.a.iter().copied())
            && bits(fixed.b.iter().copied()) == bits(reference.b.iter().copied())
            && fixed.n == reference.n
    }

    fn smallest_diagonal(reference: &ReferenceRls) -> f64 {
        (0..reference.p.len()).map(|i| reference.p[i][i]).fold(f64::INFINITY, f64::min)
    }

    /// Streams the samples through both estimators with forgetting factor
    /// `lambda`, alternating forgetting and retaining updates when `mixed`;
    /// they must agree after every update and in every prediction.  Returns
    /// whether the covariance reached its floor.
    fn estimators_match<const D: usize>(
        pool: &[f64],
        scale: f64,
        lambda: f64,
        mixed: bool,
    ) -> Result<bool, TestCaseError> {
        let mut fixed = RecursiveLeastSquares::<D>::new(lambda);
        let mut reference = ReferenceRls::new(D, lambda);
        let mut floored = false;
        for (i, (x, y)) in stream::<D>(pool, scale).iter().enumerate() {
            prop_assert_eq!(fixed.predict(x).to_bits(), reference.predict(x).to_bits());
            if mixed && i % 3 == 2 {
                prop_assert!(fixed.update_retaining(x, *y));
                reference.update_retaining(x, *y);
            } else {
                prop_assert!(fixed.update(x, *y));
                reference.update(x, *y);
            }
            prop_assert!(same_estimator(&fixed, &reference), "D = {D}, update {i}");
            floored |= smallest_diagonal(&reference) == COVARIANCE_FLOOR;
        }
        Ok(floored)
    }

    fn adaptive_matches<const D: usize>(pool: &[f64], scale: f64) -> Result<(), TestCaseError> {
        let mut fixed = AdaptiveForgettingRls::<D>::new(0.9, 0.995);
        let mut reference = ReferenceAdaptive::new(D, 0.9, 0.995);
        for (x, y) in stream::<D>(pool, scale) {
            prop_assert!(fixed.update(&x, y));
            reference.update(&x, y);
            prop_assert_eq!(fixed.current_lambda().to_bits(), reference.current_lambda.to_bits());
            prop_assert_eq!(fixed.error_ema.to_bits(), reference.error_ema.to_bits());
            prop_assert_eq!(fixed.target_ema.to_bits(), reference.target_ema.to_bits());
            prop_assert!(same_estimator(&fixed.inner, &reference.inner), "D = {D}");
        }
        Ok(())
    }

    /// Observes `pool` split in two, merges, refits and converts back: every
    /// sum, the sample count and the refit estimator match the reference.
    fn stats_match<const D: usize>(pool: &[f64], scale: f64) -> Result<(), TestCaseError> {
        let samples = stream::<D>(pool, scale);
        let (mut left, mut right) = (RlsStats::<D>::zero(), RlsStats::<D>::zero());
        let (mut ref_left, mut ref_right) = (ReferenceStats::zero(D), ReferenceStats::zero(D));
        for (i, (x, y)) in samples.iter().enumerate() {
            if i % 2 == 0 {
                left.observe(x, *y);
                ref_left.observe(x, *y);
            } else {
                right.observe(x, *y);
                ref_right.observe(x, *y);
            }
        }
        left.merge(&right);
        ref_left.merge(&ref_right);
        prop_assert!(same_stats(&left, &ref_left), "D = {D}: merged sums differ");
        let (refit, ref_refit) = (left.refit(0.97), ref_left.refit(0.97));
        prop_assert!(same_estimator(&refit, &ref_refit), "D = {D}: refits differ");

        // A λ = 1 history converts back to statistics the same way.
        let mut fitted = RecursiveLeastSquares::<D>::new(1.0);
        let mut ref_fitted = ReferenceRls::new(D, 1.0);
        for (x, y) in &samples {
            fitted.update_retaining(x, *y);
            ref_fitted.update_retaining(x, *y);
        }
        let (recovered, ref_recovered) =
            (RlsStats::from_estimator(&fitted), ReferenceStats::from_estimator(&ref_fitted));
        prop_assert!(same_stats(&recovered, &ref_recovered), "D = {D}: recovered sums differ");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn fixed_estimator_matches_reference_bit_for_bit(
            pool in vec(-2.0f64..2.0, 32 * 48),
            scale in 0usize..3,
            forgetting in 0usize..2,
            mixed in 0usize..2,
        ) {
            let lambda = [1.0, 0.97][forgetting];
            let mixed = mixed == 1;
            let scale = SCALES[scale];
            let floored = estimators_match::<9>(&pool, scale, lambda, mixed)?;
            prop_assert!(floored || scale < 1e5, "scale {scale} must reach the floor");
            estimators_match::<4>(&pool, scale, lambda, mixed)?;
            estimators_match::<1>(&pool, scale, lambda, mixed)?;
        }

        #[test]
        fn fixed_adaptive_estimator_matches_reference_bit_for_bit(
            pool in vec(-2.0f64..2.0, 32 * 48),
            scale in 0usize..3,
        ) {
            adaptive_matches::<4>(&pool, SCALES[scale])?;
            adaptive_matches::<9>(&pool, SCALES[scale])?;
        }

        #[test]
        fn fixed_stats_match_reference_bit_for_bit(
            pool in vec(-2.0f64..2.0, 32 * 40),
            scale in 0usize..2,
        ) {
            stats_match::<9>(&pool, SCALES[scale])?;
            stats_match::<4>(&pool, SCALES[scale])?;
        }
    }
}
