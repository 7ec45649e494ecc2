//! Recursive least squares with exponential and adaptive forgetting.
//!
//! The paper's online performance and power models (Section III-B, references
//! \[12\] and \[30\]) are recursive-least-squares estimators: a linear model whose
//! coefficients are refreshed after every observation with `O(d²)` work, where
//! `d` is the number of selected hardware counters.  Two variants are
//! provided:
//!
//! * [`RecursiveLeastSquares`] — classic RLS with a fixed exponential
//!   forgetting factor `λ ∈ (0, 1]`.
//! * [`AdaptiveForgettingRls`] — a stabilized adaptive forgetting factor in
//!   the spirit of STAFF ("Stabilized Adaptive Forgetting Factor", DAC 2018):
//!   the factor shrinks when prediction errors spike (workload change → adapt
//!   fast) and recovers toward its ceiling when errors are small (steady state
//!   → keep memory, avoid covariance wind-up).  Figure 2's frame-time model
//!   uses it; the online-IL policy runs the fixed-factor estimator.

use serde::{Deserialize, Serialize};

use crate::traits::OnlineRegressor;

/// Classic recursive least squares with exponential forgetting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecursiveLeastSquares {
    weights: Vec<f64>,
    /// Inverse correlation matrix `P`.
    p: Vec<Vec<f64>>,
    lambda: f64,
    samples: usize,
    /// Lower bound applied to the diagonal of `P` after every update.
    p_floor: f64,
}

impl RecursiveLeastSquares {
    /// Default lower bound on the diagonal of the covariance `P`.
    ///
    /// Without a floor, a long run of `λ = 1` (or weakly exciting) updates
    /// drives `P → 0` and with it the adaptation gain: the estimator goes
    /// *dead* and can no longer track a workload change, and numerical
    /// round-off can even push diagonal entries negative, destabilising the
    /// update.  The floor keeps a minimum adaptation gain alive.  The default
    /// is small enough to be bit-transparent for every realistic run in this
    /// repository (design-time pretraining leaves `P` orders of magnitude
    /// above it) while still catching covariance collapse in marathon runs;
    /// [`RecursiveLeastSquares::with_covariance_floor`] raises it for serving
    /// lanes that must stay responsive forever.
    pub const DEFAULT_COVARIANCE_FLOOR: f64 = 1e-9;

    /// Scale of the initial covariance `P₀ = INITIAL_COVARIANCE_SCALE · I`.
    ///
    /// A large diagonal encodes an almost-uninformative prior on the weights:
    /// RLS with `P₀ = c·I` is exactly ridge regression with penalty `1/c`, so
    /// this constant is also the (tiny) implicit ridge prior
    /// `A₀ = I / INITIAL_COVARIANCE_SCALE` that the sufficient-statistics
    /// conversions in [`crate::stats`] must account for.  One named constant
    /// keeps [`RecursiveLeastSquares::new`], [`RecursiveLeastSquares::reset`]
    /// and those conversions from drifting apart.
    pub const INITIAL_COVARIANCE_SCALE: f64 = 1e4;

    /// Creates an RLS estimator for `dim` features with forgetting factor `lambda`.
    ///
    /// `lambda = 1.0` never forgets; values around `0.95–0.99` are typical for
    /// tracking workload phase changes.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or `lambda` is outside `(0, 1]`.
    pub fn new(dim: usize, lambda: f64) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        assert!(lambda > 0.0 && lambda <= 1.0, "forgetting factor must be in (0, 1]");
        Self {
            weights: vec![0.0; dim],
            p: Self::scaled_identity(dim, Self::INITIAL_COVARIANCE_SCALE),
            lambda,
            samples: 0,
            p_floor: Self::DEFAULT_COVARIANCE_FLOOR,
        }
    }

    /// Returns the estimator with the covariance-diagonal lower bound replaced.
    ///
    /// `floor = 0.0` disables the bound (the seed behaviour); larger values
    /// guarantee a minimum adaptation gain after arbitrarily long runs.
    ///
    /// # Panics
    ///
    /// Panics if `floor` is negative or not finite.
    #[must_use]
    pub fn with_covariance_floor(mut self, floor: f64) -> Self {
        assert!(floor.is_finite() && floor >= 0.0, "covariance floor must be finite and >= 0");
        self.p_floor = floor;
        self
    }

    /// The covariance-diagonal lower bound in use.
    pub fn covariance_floor(&self) -> f64 {
        self.p_floor
    }

    /// Smallest diagonal entry of the covariance `P` (a proxy for how much
    /// adaptation gain the estimator has left).
    pub fn min_p_diagonal(&self) -> f64 {
        (0..self.weights.len()).map(|i| self.p[i][i]).fold(f64::INFINITY, f64::min)
    }

    fn scaled_identity(dim: usize, scale: f64) -> Vec<Vec<f64>> {
        (0..dim)
            .map(|i| (0..dim).map(|j| if i == j { scale } else { 0.0 }).collect())
            .collect()
    }

    /// The current weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The inverse correlation matrix `P` (row-major, `dim × dim`).
    ///
    /// Read-only: the sufficient-statistics conversions
    /// ([`crate::stats::RlsStats`]) recover `A = P⁻¹ − A₀` from it.
    pub fn covariance(&self) -> &[Vec<f64>] {
        &self.p
    }

    /// Rebuilds an estimator from externally computed fitted state (the
    /// sufficient-statistics refit path); keeps the default covariance floor.
    pub(crate) fn from_fitted_state(
        weights: Vec<f64>,
        p: Vec<Vec<f64>>,
        lambda: f64,
        samples: usize,
    ) -> Self {
        assert!(!weights.is_empty(), "feature dimension must be positive");
        assert!(lambda > 0.0 && lambda <= 1.0, "forgetting factor must be in (0, 1]");
        Self { weights, p, lambda, samples, p_floor: Self::DEFAULT_COVARIANCE_FLOOR }
    }

    /// The forgetting factor currently in use.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Returns the estimator with its runtime forgetting factor replaced,
    /// keeping weights, covariance and sample count.
    ///
    /// Design-time bootstrapping batch-fits with `λ = 1`
    /// ([`RecursiveLeastSquares::update_retaining`]), so the fitted state is
    /// independent of the configured factor; this lets a shared artifact store
    /// pretrain one estimator and hand out clones tuned to each policy's
    /// runtime forgetting factor.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is outside `(0, 1]`.
    #[must_use]
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        assert!(lambda > 0.0 && lambda <= 1.0, "forgetting factor must be in (0, 1]");
        self.lambda = lambda;
        self
    }

    /// Resets the estimator to its initial state, keeping the dimensionality.
    pub fn reset(&mut self) {
        let dim = self.weights.len();
        self.weights = vec![0.0; dim];
        self.p = Self::scaled_identity(dim, Self::INITIAL_COVARIANCE_SCALE);
        self.samples = 0;
    }

    /// One RLS update that does not discount past data (`λ = 1`), regardless of
    /// the configured forgetting factor.
    ///
    /// Design-time bootstrapping feeds the estimator thousands of samples; with
    /// the runtime forgetting factor applied, everything but the last
    /// `≈ 1/(1-λ)` of them would be washed out and the "pretrained" model would
    /// describe only the final profile it saw. Batch-fitting with `λ = 1` keeps
    /// every sample; runtime updates via [`OnlineRegressor::update`] then apply
    /// the configured factor for tracking.
    pub fn update_retaining(&mut self, x: &[f64], y: f64) {
        let _ = self.update_with_lambda(x, y, 1.0);
    }

    /// One RLS update with an explicit forgetting factor (used by the adaptive
    /// variant); returns the a-priori prediction error.
    fn update_with_lambda(&mut self, x: &[f64], y: f64, lambda: f64) -> f64 {
        assert_eq!(x.len(), self.weights.len(), "feature dimension mismatch");
        let dim = x.len();
        // P x
        let px: Vec<f64> = (0..dim).map(|i| (0..dim).map(|j| self.p[i][j] * x[j]).sum()).collect();
        let denom = lambda + x.iter().zip(&px).map(|(xi, pxi)| xi * pxi).sum::<f64>();
        let gain: Vec<f64> = px.iter().map(|v| v / denom).collect();
        let prediction: f64 = self.weights.iter().zip(x).map(|(w, xi)| w * xi).sum();
        let error = y - prediction;
        for (w, g) in self.weights.iter_mut().zip(&gain) {
            *w += g * error;
        }
        // P = (P - gain * x^T * P) / lambda
        let xt_p: Vec<f64> =
            (0..dim).map(|j| (0..dim).map(|i| x[i] * self.p[i][j]).sum()).collect();
        for (p_row, g) in self.p.iter_mut().zip(&gain) {
            for (p_entry, xp) in p_row.iter_mut().zip(&xt_p) {
                *p_entry = (*p_entry - g * xp) / lambda;
            }
        }
        // Floor the covariance diagonal: `f64::max` leaves every entry above
        // the floor bit-identical, so the bound only acts on collapsed (or
        // numerically negative) directions.
        for i in 0..dim {
            self.p[i][i] = self.p[i][i].max(self.p_floor);
        }
        self.samples += 1;
        error
    }
}

impl OnlineRegressor for RecursiveLeastSquares {
    fn update(&mut self, x: &[f64], y: f64) {
        let lambda = self.lambda;
        let _ = self.update_with_lambda(x, y, lambda);
    }

    fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.weights.len(), "feature dimension mismatch");
        self.weights.iter().zip(x).map(|(w, xi)| w * xi).sum()
    }

    fn input_dim(&self) -> usize {
        self.weights.len()
    }

    fn samples_seen(&self) -> usize {
        self.samples
    }
}

/// RLS with a stabilized adaptive forgetting factor.
///
/// The forgetting factor is decreased proportionally to the normalised
/// magnitude of recent prediction errors and pulled back toward
/// `lambda_ceiling` when the model is tracking well, bounded below by
/// `lambda_floor` to avoid instability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveForgettingRls {
    inner: RecursiveLeastSquares,
    lambda_floor: f64,
    lambda_ceiling: f64,
    current_lambda: f64,
    /// Exponential moving average of the squared prediction error.
    error_ema: f64,
    /// Exponential moving average of the squared target, for normalisation.
    target_ema: f64,
    ema_alpha: f64,
}

impl AdaptiveForgettingRls {
    /// Creates an adaptive-forgetting RLS estimator for `dim` features with the
    /// forgetting factor constrained to `[lambda_floor, lambda_ceiling]`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or the bounds are not
    /// `0 < lambda_floor <= lambda_ceiling <= 1`.
    pub fn new(dim: usize, lambda_floor: f64, lambda_ceiling: f64) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        assert!(
            lambda_floor > 0.0 && lambda_floor <= lambda_ceiling && lambda_ceiling <= 1.0,
            "require 0 < lambda_floor <= lambda_ceiling <= 1"
        );
        Self {
            inner: RecursiveLeastSquares::new(dim, lambda_ceiling),
            lambda_floor,
            lambda_ceiling,
            current_lambda: lambda_ceiling,
            error_ema: 0.0,
            target_ema: 1e-9,
            ema_alpha: 0.1,
        }
    }

    /// The forgetting factor used for the most recent update.
    pub fn current_lambda(&self) -> f64 {
        self.current_lambda
    }
}

impl OnlineRegressor for AdaptiveForgettingRls {
    fn update(&mut self, x: &[f64], y: f64) {
        // Use the a-priori error from the previous state to set the factor.
        let prediction = self.inner.predict(x);
        let error = y - prediction;
        self.error_ema = (1.0 - self.ema_alpha) * self.error_ema + self.ema_alpha * error * error;
        self.target_ema = (1.0 - self.ema_alpha) * self.target_ema + self.ema_alpha * y * y;
        let normalised = (self.error_ema / self.target_ema.max(1e-12)).min(1.0);
        // Large normalised error -> forget faster (smaller lambda).
        self.current_lambda = (self.lambda_ceiling
            - (self.lambda_ceiling - self.lambda_floor) * normalised.sqrt())
        .clamp(self.lambda_floor, self.lambda_ceiling);
        let lambda = self.current_lambda;
        let _ = self.inner.update_with_lambda(x, y, lambda);
    }

    fn predict(&self, x: &[f64]) -> f64 {
        self.inner.predict(x)
    }

    fn input_dim(&self) -> usize {
        self.inner.input_dim()
    }

    fn samples_seen(&self) -> usize {
        self.inner.samples_seen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stationary_stream(n: usize) -> Vec<(Vec<f64>, f64)> {
        (0..n)
            .map(|i| {
                let x = vec![(i % 17) as f64 / 17.0, ((i * 7) % 13) as f64 / 13.0, 1.0];
                let y = 2.0 * x[0] - 1.5 * x[1] + 0.75;
                (x, y)
            })
            .collect()
    }

    #[test]
    fn rls_recovers_stationary_linear_model() {
        let mut rls = RecursiveLeastSquares::new(3, 1.0);
        for (x, y) in stationary_stream(300) {
            rls.update(&x, y);
        }
        let w = rls.weights();
        assert!((w[0] - 2.0).abs() < 1e-3);
        assert!((w[1] + 1.5).abs() < 1e-3);
        assert!((w[2] - 0.75).abs() < 1e-3);
        assert_eq!(rls.samples_seen(), 300);
        assert_eq!(rls.input_dim(), 3);
    }

    #[test]
    fn forgetting_tracks_abrupt_change_faster_than_no_forgetting() {
        let mut forgetting = RecursiveLeastSquares::new(2, 0.9);
        let mut remembering = RecursiveLeastSquares::new(2, 1.0);
        // Phase 1: y = x.
        for i in 0..300 {
            let x = vec![(i % 10) as f64, 1.0];
            let y = x[0];
            forgetting.update(&x, y);
            remembering.update(&x, y);
        }
        // Phase 2: y = 3x + 2.
        for i in 0..40 {
            let x = vec![(i % 10) as f64, 1.0];
            let y = 3.0 * x[0] + 2.0;
            forgetting.update(&x, y);
            remembering.update(&x, y);
        }
        let probe = vec![5.0, 1.0];
        let target = 17.0;
        let err_forgetting = (forgetting.predict(&probe) - target).abs();
        let err_remembering = (remembering.predict(&probe) - target).abs();
        assert!(
            err_forgetting < err_remembering,
            "forgetting RLS ({err_forgetting}) should adapt faster than lambda=1 ({err_remembering})"
        );
    }

    #[test]
    fn adaptive_factor_shrinks_lambda_on_change() {
        let mut adaptive = AdaptiveForgettingRls::new(2, 0.85, 0.995);
        for i in 0..200 {
            let x = vec![(i % 10) as f64, 1.0];
            adaptive.update(&x, x[0]);
        }
        let settled_lambda = adaptive.current_lambda();
        // Abrupt change in the relationship.
        for i in 0..10 {
            let x = vec![(i % 10) as f64, 1.0];
            adaptive.update(&x, 5.0 * x[0] + 10.0);
        }
        let changed_lambda = adaptive.current_lambda();
        assert!(
            changed_lambda < settled_lambda,
            "lambda should drop after a workload change ({settled_lambda} -> {changed_lambda})"
        );
        assert!(changed_lambda >= 0.85 && settled_lambda <= 0.995);
    }

    #[test]
    fn adaptive_converges_like_plain_rls_when_stationary() {
        let mut adaptive = AdaptiveForgettingRls::new(3, 0.9, 1.0);
        for (x, y) in stationary_stream(400) {
            adaptive.update(&x, y);
        }
        assert!((adaptive.predict(&[0.5, 0.5, 1.0]) - (2.0 * 0.5 - 1.5 * 0.5 + 0.75)).abs() < 0.02);
        assert_eq!(adaptive.samples_seen(), 400);
    }

    #[test]
    fn reset_clears_state() {
        let mut rls = RecursiveLeastSquares::new(2, 0.98);
        rls.update(&[1.0, 1.0], 5.0);
        assert!(rls.samples_seen() == 1 && rls.weights().iter().any(|&w| w != 0.0));
        rls.reset();
        assert_eq!(rls.samples_seen(), 0);
        assert!(rls.weights().iter().all(|&w| w == 0.0));
    }

    #[test]
    fn reset_restores_initial_covariance_and_keeps_tuning() {
        // `reset()` must return to exactly the `new()` state for the same
        // tuning: the covariance back at `INITIAL_COVARIANCE_SCALE · I`,
        // weights and sample count zeroed — while `lambda` and a raised
        // covariance floor survive.  (The initial scale used to be a literal
        // duplicated across `new` and `reset`, which could silently drift.)
        let floor = 1e-3;
        let mut rls = RecursiveLeastSquares::new(3, 0.93).with_covariance_floor(floor);
        for (x, y) in stationary_stream(50) {
            rls.update(&x, y);
        }
        rls.reset();
        assert_eq!(rls.lambda(), 0.93, "reset keeps the forgetting factor");
        assert_eq!(rls.covariance_floor(), floor, "reset keeps the covariance floor");
        assert_eq!(rls.samples_seen(), 0);
        assert!(rls.weights().iter().all(|&w| w == 0.0));
        for (i, row) in rls.covariance().iter().enumerate() {
            for (j, &entry) in row.iter().enumerate() {
                let expected =
                    if i == j { RecursiveLeastSquares::INITIAL_COVARIANCE_SCALE } else { 0.0 };
                assert_eq!(entry, expected, "P[{i}][{j}] must be back at the initial prior");
            }
        }
    }

    #[test]
    fn with_lambda_keeps_fitted_state() {
        let mut rls = RecursiveLeastSquares::new(3, 1.0);
        for (x, y) in stationary_stream(100) {
            rls.update_retaining(&x, y);
        }
        let retuned = rls.clone().with_lambda(0.95);
        assert_eq!(retuned.weights(), rls.weights());
        assert_eq!(retuned.samples_seen(), rls.samples_seen());
        assert_eq!(retuned.lambda(), 0.95);
    }

    #[test]
    fn covariance_floor_keeps_long_run_adaptation_alive() {
        // Marathon λ=1 run: without a floor the covariance collapses toward
        // zero and the estimator goes dead; with a floor it keeps a minimum
        // adaptation gain and can still track a late workload change.
        let floor = 1e-3;
        let mut floored = RecursiveLeastSquares::new(2, 1.0).with_covariance_floor(floor);
        let mut dead = RecursiveLeastSquares::new(2, 1.0).with_covariance_floor(0.0);
        for i in 0..300_000usize {
            let x = vec![(i % 10) as f64 / 10.0, 1.0];
            let y = x[0];
            floored.update(&x, y);
            dead.update(&x, y);
        }
        assert!(floored.min_p_diagonal() >= floor, "floor must hold after the marathon");
        assert!(dead.min_p_diagonal() < floor, "unfloored covariance should have collapsed");
        // Late regime change: y = 3x + 2.
        for i in 0..5_000usize {
            let x = vec![(i % 10) as f64 / 10.0, 1.0];
            let y = 3.0 * x[0] + 2.0;
            floored.update(&x, y);
            dead.update(&x, y);
        }
        let probe = vec![0.5, 1.0];
        let target = 3.5;
        let err_floored = (floored.predict(&probe) - target).abs();
        let err_dead = (dead.predict(&probe) - target).abs();
        assert!(
            err_floored < err_dead,
            "floored RLS ({err_floored}) must out-adapt the collapsed one ({err_dead})"
        );
        assert!(
            err_floored < 0.5,
            "floored RLS should re-converge after the change ({err_floored})"
        );
    }

    #[test]
    fn default_floor_is_bit_transparent_for_short_runs() {
        // The default floor is far below where P sits after realistic sample
        // counts, so results match the unfloored seed behaviour bit for bit.
        let mut with_default = RecursiveLeastSquares::new(3, 1.0);
        let mut without = RecursiveLeastSquares::new(3, 1.0).with_covariance_floor(0.0);
        for (x, y) in stationary_stream(2_000) {
            with_default.update(&x, y);
            without.update(&x, y);
        }
        assert_eq!(
            with_default.covariance_floor(),
            RecursiveLeastSquares::DEFAULT_COVARIANCE_FLOOR
        );
        for (a, b) in with_default.weights().iter().zip(without.weights()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(with_default.min_p_diagonal() > RecursiveLeastSquares::DEFAULT_COVARIANCE_FLOOR);
    }

    #[test]
    #[should_panic(expected = "covariance floor")]
    fn rejects_negative_floor() {
        let _ = RecursiveLeastSquares::new(2, 1.0).with_covariance_floor(-1.0);
    }

    #[test]
    #[should_panic(expected = "forgetting factor")]
    fn rejects_invalid_lambda() {
        let _ = RecursiveLeastSquares::new(2, 0.0);
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn rejects_dimension_mismatch() {
        let mut rls = RecursiveLeastSquares::new(2, 0.99);
        rls.update(&[1.0], 1.0);
    }
}
