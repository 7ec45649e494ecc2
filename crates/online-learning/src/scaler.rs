//! Feature standardisation.
//!
//! Hardware counters span wildly different magnitudes (instruction counts in
//! the hundreds of millions next to utilizations in `[0, 1]`), so every model
//! that uses gradient descent or distance computations first standardises its
//! inputs.  [`StandardScaler`] supports both batch fitting and incremental
//! (online) updates so it can run inside the adaptive models.

use serde::{Deserialize, Serialize};

/// Online/batch standard scaler (per-feature z-score normalisation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StandardScaler {
    count: f64,
    mean: Vec<f64>,
    m2: Vec<f64>,
    /// Per-feature standard deviation, refreshed by every observation so
    /// that transforming takes no square root.
    std: Vec<f64>,
}

impl StandardScaler {
    /// Creates a scaler for `dim` features.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        Self { count: 0.0, mean: vec![0.0; dim], m2: vec![0.0; dim], std: vec![1.0; dim] }
    }

    /// Creates and fits a scaler from a batch of samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or ragged.
    pub fn fitted(samples: &[Vec<f64>]) -> Self {
        assert!(!samples.is_empty(), "cannot fit a scaler on an empty dataset");
        let mut scaler = Self::new(samples[0].len());
        for s in samples {
            scaler.observe(s);
        }
        scaler
    }

    /// Number of features.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Number of observations absorbed.
    pub fn samples_seen(&self) -> usize {
        self.count as usize
    }

    /// Absorbs one observation (Welford update).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn observe(&mut self, x: &[f64]) {
        assert_eq!(x.len(), self.dim(), "feature dimension mismatch");
        self.count += 1.0;
        for (i, &xi) in x.iter().enumerate() {
            let delta = xi - self.mean[i];
            self.mean[i] += delta / self.count;
            self.m2[i] += delta * (xi - self.mean[i]);
        }
        let count = self.count;
        for (std, &m2) in self.std.iter_mut().zip(&self.m2) {
            *std = if count < 2.0 {
                1.0
            } else {
                let var = m2 / (count - 1.0);
                if var < 1e-18 {
                    1.0
                } else {
                    var.sqrt()
                }
            };
        }
    }

    /// Per-feature mean.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Per-feature standard deviation (1.0 for features with no variance yet,
    /// so that transforming is always well defined).
    pub fn std(&self) -> &[f64] {
        &self.std
    }

    /// Standardises a feature vector.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        let mut z = vec![0.0; self.dim()];
        self.transform_into(x, &mut z);
        z
    }

    /// Standardises `x` into `z`, which may be a fixed-width row.
    ///
    /// # Panics
    ///
    /// Panics if either slice is not [`StandardScaler::dim`] wide.
    pub fn transform_into(&self, x: &[f64], z: &mut [f64]) {
        assert!(x.len() == self.dim() && z.len() == self.dim(), "feature dimension mismatch");
        for (((z, v), mean), std) in z.iter_mut().zip(x).zip(&self.mean).zip(&self.std) {
            *z = (v - mean) / std;
        }
    }

    /// Inverse of [`StandardScaler::transform`].
    pub fn inverse_transform(&self, z: &[f64]) -> Vec<f64> {
        assert_eq!(z.len(), self.dim(), "feature dimension mismatch");
        z.iter()
            .zip(&self.std)
            .zip(&self.mean)
            .map(|((v, std), mean)| v * std + mean)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardises_to_zero_mean_unit_variance() {
        let samples: Vec<Vec<f64>> =
            (0..100).map(|i| vec![i as f64, 1000.0 + 2.0 * i as f64]).collect();
        let scaler = StandardScaler::fitted(&samples);
        let transformed: Vec<Vec<f64>> = samples.iter().map(|s| scaler.transform(s)).collect();
        for d in 0..2 {
            let mean: f64 =
                transformed.iter().map(|t| t[d]).sum::<f64>() / transformed.len() as f64;
            let var: f64 = transformed.iter().map(|t| (t[d] - mean).powi(2)).sum::<f64>()
                / (transformed.len() - 1) as f64;
            assert!(mean.abs() < 1e-9);
            assert!((var - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn roundtrip_inverse() {
        let samples: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 * 3.0, -(i as f64)]).collect();
        let scaler = StandardScaler::fitted(&samples);
        let x = vec![7.5, -2.5];
        let back = scaler.inverse_transform(&scaler.transform(&x));
        assert!((back[0] - x[0]).abs() < 1e-9 && (back[1] - x[1]).abs() < 1e-9);
    }

    #[test]
    fn constant_feature_keeps_unit_std() {
        let samples = vec![vec![5.0], vec![5.0], vec![5.0]];
        let scaler = StandardScaler::fitted(&samples);
        assert_eq!(scaler.std(), vec![1.0]);
        assert_eq!(scaler.transform(&[5.0]), vec![0.0]);
    }

    #[test]
    fn online_matches_batch() {
        let samples: Vec<Vec<f64>> = (0..50).map(|i| vec![(i * i) as f64 % 13.0]).collect();
        let batch = StandardScaler::fitted(&samples);
        let mut online = StandardScaler::new(1);
        for s in &samples {
            online.observe(s);
        }
        assert!((batch.mean()[0] - online.mean()[0]).abs() < 1e-12);
        assert!((batch.std()[0] - online.std()[0]).abs() < 1e-12);
        assert_eq!(online.samples_seen(), 50);
    }
}
