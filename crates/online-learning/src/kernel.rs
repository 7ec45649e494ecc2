//! Kernel ridge regression with an RBF kernel.
//!
//! Section III-C of the paper describes a support-vector-regression latency
//! model for NoCs (Qian et al.).  Kernel ridge regression with a radial basis
//! function kernel spans the same hypothesis space (smooth nonlinear functions
//! of a few features) while training via a single linear solve, which keeps
//! the implementation dependency free and deterministic; the NoC experiments
//! use it as the drop-in equivalent of the paper's SVR model.

use serde::Serialize;

use crate::linalg;

/// RBF-kernel ridge regression ("SVR-style" nonlinear regressor).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct KernelRidgeRegression {
    gamma: f64,
    lambda: f64,
    support: Vec<Vec<f64>>,
    alphas: Vec<f64>,
    fitted: bool,
}

impl KernelRidgeRegression {
    /// Creates an unfitted model.
    ///
    /// `gamma` is the RBF kernel width (`k(x, y) = exp(-gamma·‖x−y‖²)`), `lambda`
    /// the ridge regularisation strength.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is not strictly positive or `lambda` is negative.
    pub fn new(gamma: f64, lambda: f64) -> Self {
        assert!(gamma > 0.0, "kernel width must be positive");
        assert!(lambda >= 0.0, "regularisation must be non-negative");
        Self { gamma, lambda, support: Vec::new(), alphas: Vec::new(), fitted: false }
    }

    /// Creates and fits in one call.
    pub fn fitted(xs: &[Vec<f64>], ys: &[f64], gamma: f64, lambda: f64) -> Self {
        let mut model = Self::new(gamma, lambda);
        model.fit(xs, ys);
        model
    }

    /// Number of stored support points (equals the training-set size).
    pub fn support_count(&self) -> usize {
        self.support.len()
    }

    fn kernel(&self, a: &[f64], b: &[f64]) -> f64 {
        (-self.gamma * linalg::squared_distance(a, b)).exp()
    }

    /// Fits the model to the dataset: every sample becomes a support point.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset or a sample/target count mismatch.
    pub fn fit(&mut self, xs: &[Vec<f64>], ys: &[f64]) {
        assert!(!xs.is_empty(), "cannot fit on an empty dataset");
        assert_eq!(xs.len(), ys.len(), "sample/target count mismatch");
        let n = xs.len();
        let mut gram = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in i..n {
                let k = self.kernel(&xs[i], &xs[j]);
                gram[i][j] = k;
                gram[j][i] = k;
            }
            gram[i][i] += self.lambda.max(1e-10);
        }
        self.alphas = linalg::solve(&gram, ys).unwrap_or_else(|| vec![0.0; n]);
        self.support = xs.to_vec();
        self.fitted = true;
    }

    /// Predicts the target for the feature vector `x`.
    ///
    /// # Panics
    ///
    /// Panics before the first `fit`.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert!(self.fitted, "predict called before fit");
        self.support.iter().zip(&self.alphas).map(|(s, a)| a * self.kernel(s, x)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_training_points_with_small_lambda() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 5.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0]).sin() + 2.0).collect();
        let model = KernelRidgeRegression::fitted(&xs, &ys, 2.0, 1e-8);
        for (x, &y) in xs.iter().zip(&ys) {
            assert!((model.predict(x) - y).abs() < 1e-3);
        }
        assert_eq!(model.support_count(), 20);
    }

    #[test]
    fn captures_nonlinear_function_better_than_linear_baseline() {
        use crate::linear::RidgeRegression;
        let xs: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 10.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 1.3).sin() * 3.0).collect();
        let kernel = KernelRidgeRegression::fitted(&xs, &ys, 1.0, 1e-6);
        let linear = RidgeRegression::fitted(&xs, &ys, 1e-6);
        let kernel_err: f64 =
            xs.iter().zip(&ys).map(|(x, y)| (kernel.predict(x) - y).abs()).sum::<f64>();
        let linear_err: f64 =
            xs.iter().zip(&ys).map(|(x, y)| (linear.predict(x) - y).abs()).sum::<f64>();
        assert!(kernel_err < linear_err / 5.0, "kernel {kernel_err} vs linear {linear_err}");
    }

    #[test]
    fn heavier_regularisation_smooths_predictions() {
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        // Alternating targets: an interpolator will oscillate, a regularised model won't.
        let ys: Vec<f64> = (0..30).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let wiggly = KernelRidgeRegression::fitted(&xs, &ys, 5.0, 1e-9);
        let smooth = KernelRidgeRegression::fitted(&xs, &ys, 5.0, 50.0);
        let range = |m: &KernelRidgeRegression| {
            let preds: Vec<f64> = xs.iter().map(|x| m.predict(x)).collect();
            preds.iter().cloned().fold(f64::MIN, f64::max)
                - preds.iter().cloned().fold(f64::MAX, f64::min)
        };
        assert!(range(&smooth) < range(&wiggly));
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn predict_before_fit_panics() {
        let model = KernelRidgeRegression::new(1.0, 0.1);
        let _ = model.predict(&[0.0]);
    }

    #[test]
    #[should_panic(expected = "kernel width")]
    fn rejects_nonpositive_gamma() {
        let _ = KernelRidgeRegression::new(0.0, 0.1);
    }
}
