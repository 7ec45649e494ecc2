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
//!
//! The feature dimension `D` is a compile-time constant: the weights are a
//! `[f64; D]` and the covariance a `[[f64; D]; D]`, so an update or a
//! prediction touches no heap.  Every sum folds its terms in input order from
//! `-0.0`, exactly as `Iterator::sum` does.
//!
//! Both estimators reject an observation whose features or target are not
//! finite: one NaN would otherwise spread through the covariance and poison
//! the model for good.  A rejected update leaves the state untouched, is
//! counted, and is reported to the caller.

use serde::Serialize;

use crate::serialize_fields;

#[cfg(test)]
mod reference;

/// Classic recursive least squares with exponential forgetting over `D`
/// features.
#[derive(Debug, Clone, PartialEq)]
pub struct RecursiveLeastSquares<const D: usize> {
    weights: [f64; D],
    /// Inverse correlation matrix `P`.
    p: [[f64; D]; D],
    lambda: f64,
    samples: usize,
    /// Updates rejected because the features or the target were not finite.
    rejected: usize,
}

/// Lower bound applied to the diagonal of the covariance `P` after every
/// update.
///
/// Without a floor, a long run of `λ = 1` (or weakly exciting) updates
/// drives `P → 0` and with it the adaptation gain: the estimator goes
/// *dead* and can no longer track a workload change, and numerical
/// round-off can even push diagonal entries negative, destabilising the
/// update.  The floor keeps a minimum adaptation gain alive.  It is small
/// enough to be bit-transparent for every realistic run in this repository
/// (design-time pretraining leaves `P` orders of magnitude above it) while
/// still catching covariance collapse in marathon runs.
const COVARIANCE_FLOOR: f64 = 1e-9;

/// `Σ aᵢ·bᵢ`, folded in index order from `-0.0`.
fn dot<const D: usize>(a: &[f64; D], b: &[f64; D]) -> f64 {
    a.iter().zip(b).fold(-0.0, |sum, (x, y)| sum + x * y)
}

impl<const D: usize> RecursiveLeastSquares<D> {
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

    /// Creates an RLS estimator with forgetting factor `lambda`.
    ///
    /// `lambda = 1.0` never forgets; values around `0.95–0.99` are typical for
    /// tracking workload phase changes.
    ///
    /// # Panics
    ///
    /// Panics if `D` is zero or `lambda` is outside `(0, 1]`.
    pub fn new(lambda: f64) -> Self {
        assert!(D > 0, "feature dimension must be positive");
        assert!(lambda > 0.0 && lambda <= 1.0, "forgetting factor must be in (0, 1]");
        Self { weights: [0.0; D], p: Self::initial_covariance(), lambda, samples: 0, rejected: 0 }
    }

    fn initial_covariance() -> [[f64; D]; D] {
        std::array::from_fn(|i| {
            std::array::from_fn(|j| if i == j { Self::INITIAL_COVARIANCE_SCALE } else { 0.0 })
        })
    }

    /// The current weight vector.
    pub fn weights(&self) -> &[f64; D] {
        &self.weights
    }

    /// The inverse correlation matrix `P`.
    ///
    /// Read-only: the sufficient-statistics conversions
    /// ([`crate::stats::RlsStats`]) recover `A = P⁻¹ − A₀` from it.
    pub fn covariance(&self) -> &[[f64; D]; D] {
        &self.p
    }

    /// Rebuilds an estimator from externally computed fitted state (the
    /// sufficient-statistics refit path).
    pub(crate) fn from_fitted_state(
        weights: [f64; D],
        p: [[f64; D]; D],
        lambda: f64,
        samples: usize,
    ) -> Self {
        Self { p, weights, samples, ..Self::new(lambda) }
    }

    /// The forgetting factor currently in use.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Number of updates the model has absorbed so far.
    pub fn samples_seen(&self) -> usize {
        self.samples
    }

    /// Number of updates rejected because the features or the target were
    /// not finite.
    pub fn rejected_updates(&self) -> usize {
        self.rejected
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

    /// Resets the estimator to its initial state, keeping the forgetting
    /// factor.
    pub fn reset(&mut self) {
        *self = Self::new(self.lambda);
    }

    /// Incorporates one observation `(x, y)` with the configured forgetting
    /// factor.  Returns `false`, counts the sample and changes nothing else
    /// when `x` or `y` is not finite.
    pub fn update(&mut self, x: &[f64; D], y: f64) -> bool {
        let admitted = self.admit(x, y);
        if admitted {
            self.update_with_lambda(x, y, self.lambda);
        }
        admitted
    }

    /// One RLS update that does not discount past data (`λ = 1`), regardless of
    /// the configured forgetting factor; rejects a non-finite sample like
    /// [`RecursiveLeastSquares::update`].
    ///
    /// Design-time bootstrapping feeds the estimator thousands of samples; with
    /// the runtime forgetting factor applied, everything but the last
    /// `≈ 1/(1-λ)` of them would be washed out and the "pretrained" model would
    /// describe only the final profile it saw. Batch-fitting with `λ = 1` keeps
    /// every sample; runtime updates via [`RecursiveLeastSquares::update`] then
    /// apply the configured factor for tracking.
    pub fn update_retaining(&mut self, x: &[f64; D], y: f64) -> bool {
        let admitted = self.admit(x, y);
        if admitted {
            self.update_with_lambda(x, y, 1.0);
        }
        admitted
    }

    /// Predicts the target for the feature vector `x`.
    pub fn predict(&self, x: &[f64; D]) -> f64 {
        dot(&self.weights, x)
    }

    /// Whether `(x, y)` may enter the model; counts a rejection.
    fn admit(&mut self, x: &[f64; D], y: f64) -> bool {
        let finite = y.is_finite() && x.iter().all(|v| v.is_finite());
        self.rejected += usize::from(!finite);
        finite
    }

    /// One RLS update with an explicit forgetting factor (the adaptive
    /// variant passes its current one).
    fn update_with_lambda(&mut self, x: &[f64; D], y: f64, lambda: f64) {
        let px: [f64; D] = std::array::from_fn(|i| dot(&self.p[i], x));
        let denom = lambda + dot(x, &px);
        let gain = px.map(|v| v / denom);
        let error = y - self.predict(x);
        for (w, g) in self.weights.iter_mut().zip(&gain) {
            *w += g * error;
        }
        // xᵀP, accumulated row by row: column `j` still folds
        // `x[0]·P[0][j] + x[1]·P[1][j] + …` in row order from `-0.0`.
        let mut xt_p = [-0.0; D];
        for (p_row, &xi) in self.p.iter().zip(x) {
            for (acc, entry) in xt_p.iter_mut().zip(p_row) {
                *acc += xi * entry;
            }
        }
        // P = (P - gain * xᵀP) / lambda
        for (p_row, g) in self.p.iter_mut().zip(&gain) {
            for (p_entry, xp) in p_row.iter_mut().zip(&xt_p) {
                *p_entry = (*p_entry - g * xp) / lambda;
            }
        }
        // Floor the covariance diagonal: `f64::max` leaves every entry above
        // the floor bit-identical, so the bound only acts on collapsed (or
        // numerically negative) directions.
        for (i, p_row) in self.p.iter_mut().enumerate() {
            p_row[i] = p_row[i].max(COVARIANCE_FLOOR);
        }
        self.samples += 1;
    }
}

/// Weight of the newest squared error and target in the adaptive variant's
/// moving averages.
const ERROR_EMA_ALPHA: f64 = 0.1;

/// RLS with a stabilized adaptive forgetting factor.
///
/// The forgetting factor is decreased proportionally to the normalised
/// magnitude of recent prediction errors and pulled back toward
/// `lambda_ceiling` when the model is tracking well, bounded below by
/// `lambda_floor` to avoid instability.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveForgettingRls<const D: usize> {
    inner: RecursiveLeastSquares<D>,
    lambda_floor: f64,
    lambda_ceiling: f64,
    current_lambda: f64,
    /// Exponential moving average of the squared prediction error.
    error_ema: f64,
    /// Exponential moving average of the squared target, for normalisation.
    target_ema: f64,
}

impl<const D: usize> AdaptiveForgettingRls<D> {
    /// Creates an adaptive-forgetting RLS estimator with the forgetting
    /// factor constrained to `[lambda_floor, lambda_ceiling]`.
    ///
    /// # Panics
    ///
    /// Panics if `D` is zero or the bounds are not
    /// `0 < lambda_floor <= lambda_ceiling <= 1`.
    pub fn new(lambda_floor: f64, lambda_ceiling: f64) -> Self {
        assert!(
            lambda_floor > 0.0 && lambda_floor <= lambda_ceiling && lambda_ceiling <= 1.0,
            "require 0 < lambda_floor <= lambda_ceiling <= 1"
        );
        Self {
            inner: RecursiveLeastSquares::new(lambda_ceiling),
            lambda_floor,
            lambda_ceiling,
            current_lambda: lambda_ceiling,
            error_ema: 0.0,
            target_ema: 1e-9,
        }
    }

    /// The forgetting factor used for the most recent update.
    pub fn current_lambda(&self) -> f64 {
        self.current_lambda
    }

    /// Number of updates the model has absorbed so far.
    pub fn samples_seen(&self) -> usize {
        self.inner.samples_seen()
    }

    /// Number of updates rejected because the features or the target were
    /// not finite.
    pub fn rejected_updates(&self) -> usize {
        self.inner.rejected_updates()
    }

    /// Predicts the target for the feature vector `x`.
    pub fn predict(&self, x: &[f64; D]) -> f64 {
        self.inner.predict(x)
    }

    /// Incorporates one observation `(x, y)`, first moving the forgetting
    /// factor by the a-priori error.  Returns `false`, counts the sample and
    /// leaves the error averages, the factor and the model untouched when
    /// `x` or `y` is not finite.
    pub fn update(&mut self, x: &[f64; D], y: f64) -> bool {
        if !self.inner.admit(x, y) {
            return false;
        }
        // Use the a-priori error from the previous state to set the factor.
        let error = y - self.inner.predict(x);
        self.error_ema = (1.0 - ERROR_EMA_ALPHA) * self.error_ema + ERROR_EMA_ALPHA * error * error;
        self.target_ema = (1.0 - ERROR_EMA_ALPHA) * self.target_ema + ERROR_EMA_ALPHA * y * y;
        let normalised = (self.error_ema / self.target_ema.max(1e-12)).min(1.0);
        // Large normalised error -> forget faster (smaller lambda).
        self.current_lambda = (self.lambda_ceiling
            - (self.lambda_ceiling - self.lambda_floor) * normalised.sqrt())
        .clamp(self.lambda_floor, self.lambda_ceiling);
        self.inner.update_with_lambda(x, y, self.current_lambda);
        true
    }
}

impl<const D: usize> Serialize for RecursiveLeastSquares<D> {
    fn serialize_json(&self, out: &mut String) {
        serialize_fields(
            &[
                ("weights", &self.weights),
                ("p", &self.p),
                ("lambda", &self.lambda),
                ("samples", &self.samples),
                ("rejected", &self.rejected),
            ],
            out,
        );
    }
}

impl<const D: usize> Serialize for AdaptiveForgettingRls<D> {
    fn serialize_json(&self, out: &mut String) {
        serialize_fields(
            &[
                ("inner", &self.inner),
                ("lambda_floor", &self.lambda_floor),
                ("lambda_ceiling", &self.lambda_ceiling),
                ("current_lambda", &self.current_lambda),
                ("error_ema", &self.error_ema),
                ("target_ema", &self.target_ema),
            ],
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stationary_stream(n: usize) -> Vec<([f64; 3], f64)> {
        (0..n)
            .map(|i| {
                let x = [(i % 17) as f64 / 17.0, ((i * 7) % 13) as f64 / 13.0, 1.0];
                let y = 2.0 * x[0] - 1.5 * x[1] + 0.75;
                (x, y)
            })
            .collect()
    }

    #[test]
    fn rls_recovers_stationary_linear_model() {
        let mut rls = RecursiveLeastSquares::<3>::new(1.0);
        for (x, y) in stationary_stream(300) {
            assert!(rls.update(&x, y));
        }
        let w = rls.weights();
        assert!((w[0] - 2.0).abs() < 1e-3);
        assert!((w[1] + 1.5).abs() < 1e-3);
        assert!((w[2] - 0.75).abs() < 1e-3);
        assert_eq!(rls.samples_seen(), 300);
        assert_eq!(rls.rejected_updates(), 0);
    }

    #[test]
    fn forgetting_tracks_abrupt_change_faster_than_no_forgetting() {
        let mut forgetting = RecursiveLeastSquares::<2>::new(0.9);
        let mut remembering = RecursiveLeastSquares::<2>::new(1.0);
        // Phase 1: y = x.
        for i in 0..300 {
            let x = [(i % 10) as f64, 1.0];
            let y = x[0];
            forgetting.update(&x, y);
            remembering.update(&x, y);
        }
        // Phase 2: y = 3x + 2.
        for i in 0..40 {
            let x = [(i % 10) as f64, 1.0];
            let y = 3.0 * x[0] + 2.0;
            forgetting.update(&x, y);
            remembering.update(&x, y);
        }
        let probe = [5.0, 1.0];
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
        let mut adaptive = AdaptiveForgettingRls::<2>::new(0.85, 0.995);
        for i in 0..200 {
            let x = [(i % 10) as f64, 1.0];
            adaptive.update(&x, x[0]);
        }
        let settled_lambda = adaptive.current_lambda();
        // Abrupt change in the relationship.
        for i in 0..10 {
            let x = [(i % 10) as f64, 1.0];
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
        let mut adaptive = AdaptiveForgettingRls::<3>::new(0.9, 1.0);
        for (x, y) in stationary_stream(400) {
            adaptive.update(&x, y);
        }
        assert!((adaptive.predict(&[0.5, 0.5, 1.0]) - (2.0 * 0.5 - 1.5 * 0.5 + 0.75)).abs() < 0.02);
        assert_eq!(adaptive.samples_seen(), 400);
    }

    #[test]
    fn reset_clears_state() {
        let mut rls = RecursiveLeastSquares::<2>::new(0.98);
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
        // weights and sample count zeroed — while `lambda` survives.
        let mut rls = RecursiveLeastSquares::<3>::new(0.93);
        for (x, y) in stationary_stream(50) {
            rls.update(&x, y);
        }
        rls.reset();
        assert_eq!(rls, RecursiveLeastSquares::new(0.93));
        assert_eq!(rls.lambda(), 0.93, "reset keeps the forgetting factor");
        for (i, row) in rls.covariance().iter().enumerate() {
            for (j, &entry) in row.iter().enumerate() {
                let expected =
                    if i == j { RecursiveLeastSquares::<3>::INITIAL_COVARIANCE_SCALE } else { 0.0 };
                assert_eq!(entry, expected, "P[{i}][{j}] must be back at the initial prior");
            }
        }
    }

    #[test]
    fn with_lambda_keeps_fitted_state() {
        let mut rls = RecursiveLeastSquares::<3>::new(1.0);
        for (x, y) in stationary_stream(100) {
            rls.update_retaining(&x, y);
        }
        let retuned = rls.clone().with_lambda(0.95);
        assert_eq!(retuned.weights(), rls.weights());
        assert_eq!(retuned.samples_seen(), rls.samples_seen());
        assert_eq!(retuned.lambda(), 0.95);
    }

    /// NaN and ±∞, once in a feature and once in the target, against both
    /// estimators and both update paths: each is refused, counted and leaves
    /// every bit of the state as it was.
    #[test]
    fn non_finite_samples_are_rejected_and_counted() {
        let mut rls = RecursiveLeastSquares::<3>::new(0.97);
        let mut adaptive = AdaptiveForgettingRls::<3>::new(0.9, 0.995);
        for (x, y) in stationary_stream(20) {
            rls.update(&x, y);
            adaptive.update(&x, y);
        }
        let (rls_before, adaptive_before) = (rls.clone(), adaptive.clone());
        let mut bad_samples = Vec::new();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            bad_samples.push(([0.5, bad, 1.0], 1.0));
            bad_samples.push(([0.5, 0.5, 1.0], bad));
        }
        for (x, y) in &bad_samples {
            assert!(!rls.update(x, *y));
            assert!(!rls.update_retaining(x, *y));
            assert!(!adaptive.update(x, *y));
        }
        let bits = |rls: &RecursiveLeastSquares<3>| {
            let p = rls.covariance().iter().flatten();
            p.chain(rls.weights()).map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(&rls), bits(&rls_before));
        assert_eq!(rls.samples_seen(), rls_before.samples_seen());
        assert_eq!(rls.rejected_updates(), 2 * bad_samples.len());
        assert_eq!(bits(&adaptive.inner), bits(&adaptive_before.inner));
        assert_eq!(adaptive.error_ema.to_bits(), adaptive_before.error_ema.to_bits());
        assert_eq!(adaptive.target_ema.to_bits(), adaptive_before.target_ema.to_bits());
        assert_eq!(adaptive.current_lambda().to_bits(), adaptive_before.current_lambda().to_bits());
        assert_eq!(adaptive.rejected_updates(), bad_samples.len());
        // The next finite sample is applied as usual.
        assert!(rls.update(&[0.5, 0.5, 1.0], 0.5));
        assert_eq!(rls.samples_seen(), rls_before.samples_seen() + 1);
    }

    /// Smallest diagonal entry of the covariance `P` (a proxy for how much
    /// adaptation gain the estimator has left).
    fn smallest_p_diagonal<const D: usize>(rls: &RecursiveLeastSquares<D>) -> f64 {
        (0..D).map(|i| rls.p[i][i]).fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn covariance_floor_keeps_long_run_adaptation_alive() {
        // Marathon λ=1 run on large, orthogonal inputs: `P` shrinks as
        // `1 / (n · 1000²)` and crosses the floor after about a thousand
        // updates, so by the end the unfloored gain would be 20x smaller.
        // With the floor the diagonal stops there, and a late workload change
        // is still tracked.
        let scale = 1000.0;
        let input = |i: usize| [if i % 2 == 0 { scale } else { -scale }, scale];
        let mut rls = RecursiveLeastSquares::<2>::new(1.0);
        for i in 0..20_000usize {
            let x = input(i);
            rls.update(&x, x[0] / scale);
            assert!(smallest_p_diagonal(&rls) >= COVARIANCE_FLOOR, "floor must hold at update {i}");
        }
        assert_eq!(
            smallest_p_diagonal(&rls),
            COVARIANCE_FLOOR,
            "the marathon must reach the floor"
        );
        // Late regime change: y = 3u + 2 for the unit-scale input u.
        let target = |x: &[f64; 2]| 3.0 * x[0] / scale + 2.0 * x[1] / scale;
        let probe = input(0);
        let before = (rls.predict(&probe) - target(&probe)).abs();
        for i in 0..5_000usize {
            let x = input(i);
            rls.update(&x, target(&x));
        }
        let after = (rls.predict(&probe) - target(&probe)).abs();
        assert!(after < 0.05 * before, "floored RLS should re-converge: {before} -> {after}");
    }

    #[test]
    fn default_floor_is_bit_transparent_for_short_runs() {
        // The floor is far below where P sits after realistic sample counts.
        // `f64::max` returns an entry above the floor unchanged, so a run that
        // keeps every diagonal entry above it matches the unfloored update
        // bit for bit.
        let mut rls = RecursiveLeastSquares::<3>::new(1.0);
        for (x, y) in stationary_stream(2_000) {
            rls.update(&x, y);
            assert!(smallest_p_diagonal(&rls) > COVARIANCE_FLOOR);
        }
    }

    #[test]
    #[should_panic(expected = "forgetting factor")]
    fn rejects_invalid_lambda() {
        let _ = RecursiveLeastSquares::<2>::new(0.0);
    }

    #[test]
    #[should_panic(expected = "feature dimension must be positive")]
    fn rejects_zero_dimension() {
        let _ = RecursiveLeastSquares::<0>::new(0.5);
    }
}
