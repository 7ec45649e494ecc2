//! Section III-C — NoC latency models (analytical vs learned vs simulation).
//!
//! For each mesh size the injection rate is swept from light load toward
//! saturation; the queueing simulator provides the ground truth while the
//! analytical M/D/1 model and the SVR-style learned model predict the same
//! points.  The reproduction demonstrates the claim that the learned model
//! (which uses the analytical estimate as a feature) tracks the simulator at
//! least as well as the closed-form model alone.

use serde::Serialize;
use soclearn_noc_sim::{
    AnalyticalLatencyModel, MeshConfig, NocSimulator, SvrLatencyModel, TrafficPattern,
};

use super::ExperimentScale;

/// One measurement point of the NoC study.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct NocModelRow {
    /// Mesh side length (meshes are square).
    pub mesh: usize,
    /// Offered injection rate, packets per node per cycle.
    pub injection_rate: f64,
    /// Latency measured by the queueing simulator, cycles.
    pub simulated: f64,
    /// Latency predicted by the analytical model, cycles.
    pub analytical: f64,
    /// Latency predicted by the learned (SVR-style) model, cycles.
    pub learned: f64,
}

/// The full NoC model-comparison result.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct NocModelsResult {
    /// All measurement points.
    pub rows: Vec<NocModelRow>,
    /// Mean absolute percentage error of the analytical model.
    pub analytical_mape: f64,
    /// Mean absolute percentage error of the learned model.
    pub learned_mape: f64,
}

impl NocModelsResult {
    /// Renders the result as a table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    format!("{0}x{0}", r.mesh),
                    format!("{:.3}", r.injection_rate),
                    format!("{:.1}", r.simulated),
                    format!("{:.1}", r.analytical),
                    format!("{:.1}", r.learned),
                ]
            })
            .collect();
        crate::report::render_table(
            &format!(
                "NoC latency models (analytical MAPE {:.1}%, learned MAPE {:.1}%)",
                self.analytical_mape, self.learned_mape
            ),
            &["Mesh", "Injection rate", "Simulated", "Analytical", "Learned"],
            &rows,
        )
    }
}

/// Regenerates the NoC latency-model comparison.
pub fn noc_latency_models(scale: ExperimentScale) -> NocModelsResult {
    let cycles = scale.noc_cycles();
    let mut rows = Vec::new();
    for &mesh_side in &[4usize, 6] {
        let mesh = MeshConfig::new(mesh_side, mesh_side);
        let train_rates = [0.01, 0.03, 0.05, 0.07, 0.09, 0.12];
        let test_rates = [0.02, 0.04, 0.06, 0.08, 0.10];
        let learned =
            SvrLatencyModel::train(mesh, TrafficPattern::Uniform, &train_rates, cycles, 7);
        let analytical = AnalyticalLatencyModel::new(mesh, TrafficPattern::Uniform);
        let mut sim = NocSimulator::new(mesh, TrafficPattern::Uniform, 99);
        for &rate in &test_rates {
            let stats = sim.run(rate, cycles);
            rows.push(NocModelRow {
                mesh: mesh_side,
                injection_rate: rate,
                simulated: stats.avg_latency_cycles,
                analytical: analytical.latency_cycles(rate),
                learned: learned.predict_latency(rate),
            });
        }
    }
    let mape = |f: &dyn Fn(&NocModelRow) -> f64| -> f64 {
        100.0 * rows.iter().map(|r| ((f(r) - r.simulated) / r.simulated).abs()).sum::<f64>()
            / rows.len() as f64
    };
    let analytical_mape = mape(&|r| r.analytical);
    let learned_mape = mape(&|r| r.learned);
    NocModelsResult { rows, analytical_mape, learned_mape }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learned_model_is_competitive_with_analytical() {
        let result = noc_latency_models(ExperimentScale::Quick);
        assert_eq!(result.rows.len(), 10);
        assert!(result.learned_mape < 25.0, "learned MAPE {:.1}% too high", result.learned_mape);
        assert!(
            result.learned_mape <= result.analytical_mape + 5.0,
            "learned model ({:.1}%) should be competitive with the analytical model ({:.1}%)",
            result.learned_mape,
            result.analytical_mape
        );
        assert!(result.render().contains("Injection rate"));
    }
}
