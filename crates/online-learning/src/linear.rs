//! Batch ridge regression.
//!
//! The offline IL policies of the paper's references use plain linear and
//! regression-tree models; ridge regression is the workhorse used to fit
//! power/performance models from design-time profiling data and to fit the
//! explicit-NMPC control surface.

use serde::Serialize;

use crate::linalg;

/// Linear model fit by ridge-regularised least squares (with intercept).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RidgeRegression {
    weights: Vec<f64>,
    intercept: f64,
    lambda: f64,
    fitted: bool,
}

impl RidgeRegression {
    /// Creates an unfitted ridge regressor with regularisation strength `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda >= 0.0, "regularisation strength must be non-negative");
        Self { weights: Vec::new(), intercept: 0.0, lambda, fitted: false }
    }

    /// Fitted coefficient vector (empty before the first `fit`).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Fitted intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Whether `fit` has been called.
    pub fn is_fitted(&self) -> bool {
        self.fitted
    }

    /// Convenience constructor that fits immediately.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`RidgeRegression::fit`].
    pub fn fitted(xs: &[Vec<f64>], ys: &[f64], lambda: f64) -> Self {
        let mut model = Self::new(lambda);
        model.fit(xs, ys);
        model
    }

    /// Fits the model to the dataset.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset, a sample/target count mismatch, a zero
    /// feature dimension or a ragged feature matrix.
    pub fn fit(&mut self, xs: &[Vec<f64>], ys: &[f64]) {
        assert!(!xs.is_empty(), "cannot fit on an empty dataset");
        assert_eq!(xs.len(), ys.len(), "sample/target count mismatch");
        let dim = xs[0].len();
        assert!(dim > 0, "feature dimension must be positive");
        assert!(xs.iter().all(|x| x.len() == dim), "ragged feature matrix");

        // Normal equations on [x, 1].
        let aug = dim + 1;
        let mut xtx = vec![vec![0.0; aug]; aug];
        let mut xty = vec![0.0; aug];
        for (x, &y) in xs.iter().zip(ys) {
            for a in 0..aug {
                let xa = if a < dim { x[a] } else { 1.0 };
                xty[a] += xa * y;
                for b in 0..aug {
                    let xb = if b < dim { x[b] } else { 1.0 };
                    xtx[a][b] += xa * xb;
                }
            }
        }
        for (d, row) in xtx.iter_mut().enumerate().take(dim) {
            row[d] += self.lambda;
        }
        let solution = linalg::solve(&xtx, &xty).unwrap_or_else(|| {
            // Severely rank-deficient data: fall back to predicting the mean.
            let mut v = vec![0.0; aug];
            v[dim] = ys.iter().sum::<f64>() / ys.len() as f64;
            v
        });
        self.weights = solution[..dim].to_vec();
        self.intercept = solution[dim];
        self.fitted = true;
    }

    /// Predicts the target for the feature vector `x`.
    ///
    /// # Panics
    ///
    /// Panics before the first `fit` or on a feature-dimension mismatch.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert!(self.fitted, "predict called before fit");
        assert_eq!(x.len(), self.weights.len(), "feature dimension mismatch");
        self.intercept + linalg::dot(&self.weights, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_linear_function() {
        let xs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, (i * i % 7) as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x[0] - 2.0 * x[1] + 5.0).collect();
        let model = RidgeRegression::fitted(&xs, &ys, 1e-9);
        assert!((model.weights()[0] - 3.0).abs() < 1e-6);
        assert!((model.weights()[1] + 2.0).abs() < 1e-6);
        assert!((model.intercept() - 5.0).abs() < 1e-5);
        assert!((model.predict(&[10.0, 3.0]) - (30.0 - 6.0 + 5.0)).abs() < 1e-5);
    }

    #[test]
    fn regularisation_shrinks_weights() {
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 10.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 4.0 * x[0]).collect();
        let loose = RidgeRegression::fitted(&xs, &ys, 1e-9);
        let tight = RidgeRegression::fitted(&xs, &ys, 100.0);
        assert!(tight.weights()[0].abs() < loose.weights()[0].abs());
    }

    #[test]
    fn degenerate_data_falls_back_to_mean() {
        // All-identical samples make X^T X singular even with the intercept column.
        let xs = vec![vec![0.0, 0.0]; 10];
        let ys = vec![2.0; 10];
        let model = RidgeRegression::fitted(&xs, &ys, 0.0);
        assert!((model.predict(&[0.0, 0.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn predict_before_fit_panics() {
        let model = RidgeRegression::new(0.1);
        let _ = model.predict(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn fit_empty_panics() {
        let mut model = RidgeRegression::new(0.1);
        model.fit(&[], &[]);
    }
}
