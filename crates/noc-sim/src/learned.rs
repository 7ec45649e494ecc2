//! Learned (SVR-style) NoC latency model.
//!
//! Following the hybrid approach of Qian et al. (cited as \[34\] in the paper),
//! the learned model takes the *analytical* latency estimate as one of its
//! features, together with the traffic description, and regresses the residual
//! structure the closed-form model misses (burstiness near saturation, pattern
//! asymmetries).  The regressor is an RBF kernel ridge model, the
//! deterministic equivalent of support vector regression provided by
//! [`soclearn_online_learning`].

use serde::{Deserialize, Serialize};
use soclearn_online_learning::kernel::KernelRidgeRegression;
use soclearn_online_learning::scaler::StandardScaler;
use soclearn_online_learning::traits::Regressor;

use crate::analytical::AnalyticalLatencyModel;
use crate::simulator::{MeshConfig, NocSimulator, TrafficPattern};

/// SVR-style latency model trained against simulator measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SvrLatencyModel {
    mesh: MeshConfig,
    pattern: TrafficPattern,
    scaler: StandardScaler,
    regressor: KernelRidgeRegression,
    training_rates: Vec<f64>,
}

impl SvrLatencyModel {
    /// Trains a latency model for one mesh/pattern combination.
    ///
    /// `training_rates` are the injection rates to simulate for training data;
    /// `cycles` is the simulated length per rate.
    ///
    /// # Panics
    ///
    /// Panics if `training_rates` is empty.
    pub fn train(
        mesh: MeshConfig,
        pattern: TrafficPattern,
        training_rates: &[f64],
        cycles: u64,
        seed: u64,
    ) -> Self {
        assert!(!training_rates.is_empty(), "need at least one training injection rate");
        let analytical = AnalyticalLatencyModel::new(mesh, pattern);
        let mut sim = NocSimulator::new(mesh, pattern, seed);
        let mut features = Vec::new();
        let mut targets = Vec::new();
        for &rate in training_rates {
            let stats = sim.run(rate, cycles);
            features.push(Self::raw_features(&analytical, mesh, rate));
            targets.push(stats.avg_latency_cycles);
        }
        let scaler = StandardScaler::fitted(&features);
        let scaled: Vec<Vec<f64>> = features.iter().map(|f| scaler.transform(f)).collect();
        let regressor = KernelRidgeRegression::fitted(&scaled, &targets, 0.5, 1e-4);
        Self { mesh, pattern, scaler, regressor, training_rates: training_rates.to_vec() }
    }

    fn raw_features(analytical: &AnalyticalLatencyModel, mesh: MeshConfig, rate: f64) -> Vec<f64> {
        vec![
            rate,
            mesh.nodes() as f64,
            analytical.average_hops(),
            analytical.link_utilization(rate),
            analytical.latency_cycles(rate),
        ]
    }

    /// Predicts average latency (cycles) at an injection rate.
    pub fn predict_latency(&self, injection_rate: f64) -> f64 {
        let analytical = AnalyticalLatencyModel::new(self.mesh, self.pattern);
        let f = Self::raw_features(&analytical, self.mesh, injection_rate);
        self.regressor.predict(&self.scaler.transform(&f))
    }

    /// Injection rates the model was trained on.
    pub fn training_rates(&self) -> &[f64] {
        &self.training_rates
    }

    /// Mesh the model was trained for.
    pub fn mesh(&self) -> MeshConfig {
        self.mesh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learned_model_fits_training_points() {
        let mesh = MeshConfig::new(4, 4);
        let rates = [0.01, 0.03, 0.05, 0.07, 0.09, 0.11];
        let model = SvrLatencyModel::train(mesh, TrafficPattern::Uniform, &rates, 20_000, 3);
        let mut sim = NocSimulator::new(mesh, TrafficPattern::Uniform, 3);
        for &rate in &rates {
            let measured = sim.run(rate, 20_000).avg_latency_cycles;
            let predicted = model.predict_latency(rate);
            let rel = (measured - predicted).abs() / measured;
            assert!(rel < 0.25, "rate {rate}: {predicted:.1} vs {measured:.1}");
        }
    }

    #[test]
    fn learned_model_interpolates_better_than_analytical_near_saturation() {
        let mesh = MeshConfig::new(4, 4);
        let rates = [0.02, 0.05, 0.08, 0.11, 0.14];
        let model = SvrLatencyModel::train(mesh, TrafficPattern::Uniform, &rates, 30_000, 7);
        let analytical = AnalyticalLatencyModel::new(mesh, TrafficPattern::Uniform);
        // Evaluate at an unseen, moderately loaded rate.
        let test_rate = 0.095;
        let mut sim = NocSimulator::new(mesh, TrafficPattern::Uniform, 99);
        let measured = sim.run(test_rate, 30_000).avg_latency_cycles;
        let learned_err = (model.predict_latency(test_rate) - measured).abs();
        let analytical_err = (analytical.latency_cycles(test_rate) - measured).abs();
        assert!(
            learned_err <= analytical_err * 1.2,
            "learned error {learned_err:.1} should not be much worse than analytical {analytical_err:.1}"
        );
    }

    #[test]
    fn accessors_report_training_setup() {
        let mesh = MeshConfig::new(4, 4);
        let rates = [0.02, 0.06];
        let model = SvrLatencyModel::train(mesh, TrafficPattern::Hotspot, &rates, 5_000, 1);
        assert_eq!(model.training_rates(), &rates);
        assert_eq!(model.mesh(), mesh);
    }

    #[test]
    #[should_panic(expected = "at least one training injection rate")]
    fn rejects_empty_training_set() {
        let _ =
            SvrLatencyModel::train(MeshConfig::new(4, 4), TrafficPattern::Uniform, &[], 1000, 1);
    }
}
