//! Skin-temperature estimation and sensor selection.
//!
//! Device skin temperature cannot be measured directly in production phones,
//! so it is *estimated* from internal sensors (die thermistors, power rails).
//! The paper (Section III-A, references \[26\]–\[28\]) describes machine-learning
//! estimators coupled with DVFS and greedy sensor-selection algorithms that
//! decide which internal sensors feed the estimator.  This module implements
//! both: a ridge-regression skin estimator trained from logged sensor/skin
//! pairs, and greedy forward sensor selection that maximises estimation
//! accuracy under a sensor-count budget.

use serde::Serialize;

use crate::linalg;

/// Linear (ridge-regression) estimator of skin temperature from internal sensors.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SkinTemperatureEstimator {
    weights: Vec<f64>,
    bias: f64,
    selected: Vec<usize>,
}

impl SkinTemperatureEstimator {
    /// Fits the estimator on `samples` of internal-sensor readings and the matching
    /// `skin_c` ground truth, using only the sensor indices in `selected`.
    ///
    /// Ridge regularisation (`lambda`) keeps the fit well behaved when sensors are
    /// strongly correlated, which they always are on a small die.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty, lengths mismatch, or `selected` is empty or
    /// out of range.
    pub fn fit(samples: &[Vec<f64>], skin_c: &[f64], selected: &[usize], lambda: f64) -> Self {
        assert!(!samples.is_empty(), "need at least one training sample");
        assert_eq!(samples.len(), skin_c.len(), "sample/label count mismatch");
        assert!(!selected.is_empty(), "need at least one selected sensor");
        let dims = samples[0].len();
        assert!(selected.iter().all(|&i| i < dims), "selected sensor index out of range");

        let k = selected.len();
        // Build the (k+1)x(k+1) normal equations including a bias column.
        let mut xtx = vec![vec![0.0; k + 1]; k + 1];
        let mut xty = vec![0.0; k + 1];
        for (x, &y) in samples.iter().zip(skin_c) {
            let mut row = Vec::with_capacity(k + 1);
            for &i in selected {
                row.push(x[i]);
            }
            row.push(1.0);
            for a in 0..=k {
                for b in 0..=k {
                    xtx[a][b] += row[a] * row[b];
                }
                xty[a] += row[a] * y;
            }
        }
        for (d, row) in xtx.iter_mut().enumerate().take(k) {
            row[d] += lambda.max(0.0);
        }
        let solution = linalg::solve(&xtx, &xty).unwrap_or_else(|| vec![0.0; k + 1]);
        let (weights, bias) = solution.split_at(k);
        Self { weights: weights.to_vec(), bias: bias[0], selected: selected.to_vec() }
    }

    /// Estimates skin temperature (°C) from a full internal-sensor vector.
    ///
    /// # Panics
    ///
    /// Panics if the sensor vector is shorter than the largest selected index.
    pub fn estimate(&self, sensors: &[f64]) -> f64 {
        let mut t = self.bias;
        for (w, &idx) in self.weights.iter().zip(&self.selected) {
            t += w * sensors[idx];
        }
        t
    }

    /// Indices of the internal sensors used by the estimator.
    pub fn selected_sensors(&self) -> &[usize] {
        &self.selected
    }

    /// Root-mean-square estimation error over a labelled dataset.
    pub fn rmse(&self, samples: &[Vec<f64>], skin_c: &[f64]) -> f64 {
        assert_eq!(samples.len(), skin_c.len(), "sample/label count mismatch");
        if samples.is_empty() {
            return 0.0;
        }
        let sse: f64 = samples
            .iter()
            .zip(skin_c)
            .map(|(x, &y)| {
                let e = self.estimate(x) - y;
                e * e
            })
            .sum();
        (sse / samples.len() as f64).sqrt()
    }
}

/// Result of greedy forward sensor selection.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SensorSelection {
    /// Chosen sensor indices, in the order they were added.
    pub sensors: Vec<usize>,
    /// Cross-validated RMSE after each greedy addition (same length as `sensors`).
    pub rmse_per_step: Vec<f64>,
}

impl SensorSelection {
    /// Greedily selects up to `budget` sensors that minimise skin-estimation RMSE.
    ///
    /// At every step the sensor whose addition reduces the training RMSE the most
    /// is added; ties favour lower sensor indices so that selection is
    /// deterministic.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or `budget` is zero.
    pub fn greedy(samples: &[Vec<f64>], skin_c: &[f64], budget: usize, lambda: f64) -> Self {
        assert!(!samples.is_empty(), "need training data for sensor selection");
        assert!(budget > 0, "sensor budget must be positive");
        let dims = samples[0].len();
        let budget = budget.min(dims);
        let mut chosen: Vec<usize> = Vec::new();
        let mut rmse_per_step = Vec::new();
        for _ in 0..budget {
            let mut best: Option<(usize, f64)> = None;
            for candidate in 0..dims {
                if chosen.contains(&candidate) {
                    continue;
                }
                let mut trial = chosen.clone();
                trial.push(candidate);
                let est = SkinTemperatureEstimator::fit(samples, skin_c, &trial, lambda);
                let rmse = est.rmse(samples, skin_c);
                let better = match best {
                    None => true,
                    Some((_, best_rmse)) => rmse < best_rmse - 1e-12,
                };
                if better {
                    best = Some((candidate, rmse));
                }
            }
            let (idx, rmse) = best.expect("at least one candidate sensor must exist");
            chosen.push(idx);
            rmse_per_step.push(rmse);
        }
        Self { sensors: chosen, rmse_per_step }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;

    /// Synthetic dataset: skin temperature is a known linear function of sensors 0
    /// and 2, sensor 1 is pure noise, sensor 3 duplicates sensor 0.
    fn dataset(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let die = rng.gen_range(35.0..85.0);
            let noise_sensor = rng.gen_range(0.0..1.0);
            let pcb = rng.gen_range(30.0..60.0);
            let dup = die + rng.gen_range(-0.5..0.5);
            let skin = 0.35 * die + 0.25 * pcb + 8.0 + rng.gen_range(-0.2..0.2);
            xs.push(vec![die, noise_sensor, pcb, dup]);
            ys.push(skin);
        }
        (xs, ys)
    }

    #[test]
    fn estimator_recovers_linear_relationship() {
        let (xs, ys) = dataset(400, 1);
        let est = SkinTemperatureEstimator::fit(&xs, &ys, &[0, 2], 1e-6);
        assert!(est.rmse(&xs, &ys) < 0.5);
        // Prediction on a fresh point is close to the generating function.
        let skin = est.estimate(&[70.0, 0.3, 45.0, 70.0]);
        let expected = 0.35 * 70.0 + 0.25 * 45.0 + 8.0;
        assert!((skin - expected).abs() < 1.0, "estimate {skin} vs expected {expected}");
    }

    #[test]
    fn greedy_selection_prefers_informative_sensors() {
        let (xs, ys) = dataset(400, 2);
        let sel = SensorSelection::greedy(&xs, &ys, 2, 1e-6);
        assert_eq!(sel.sensors.len(), 2);
        // The noise sensor (index 1) must not be selected ahead of the informative ones.
        assert!(!sel.sensors.contains(&1), "noise sensor selected: {:?}", sel.sensors);
        // RMSE improves (or at least does not get worse) with each added sensor.
        for w in sel.rmse_per_step.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
    }

    #[test]
    fn selection_budget_is_respected_and_capped() {
        let (xs, ys) = dataset(100, 3);
        let sel = SensorSelection::greedy(&xs, &ys, 10, 1e-6);
        assert_eq!(sel.sensors.len(), 4, "budget larger than sensor count is capped");
        let sel1 = SensorSelection::greedy(&xs, &ys, 1, 1e-6);
        assert_eq!(sel1.sensors.len(), 1);
    }

    #[test]
    fn rmse_of_perfect_estimator_is_zero() {
        let xs = vec![vec![1.0], vec![2.0], vec![3.0]];
        let ys = vec![2.0, 4.0, 6.0];
        let est = SkinTemperatureEstimator::fit(&xs, &ys, &[0], 0.0);
        assert!(est.rmse(&xs, &ys) < 1e-9);
        assert_eq!(est.selected_sensors(), &[0]);
    }

    #[test]
    #[should_panic(expected = "at least one training sample")]
    fn fit_rejects_empty_dataset() {
        let _ = SkinTemperatureEstimator::fit(&[], &[], &[0], 0.0);
    }
}
