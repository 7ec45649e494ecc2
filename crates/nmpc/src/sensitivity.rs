//! Learned sensitivity models of the GPU subsystem.
//!
//! The NMPC formulation never touches the simulator internals: it works purely
//! through *sensitivity models* that predict how frame time and GPU power
//! react to the control knobs (frequency, active slices) for the currently
//! observed workload.  The models are recursive-least-squares estimators over
//! hand-crafted features (Section III-B of the paper), bootstrapped offline
//! and refreshed after every frame.  A frame whose telemetry is not finite is
//! refused and counted by the models, not learned from.

use serde::Serialize;
use soclearn_gpu_sim::{GpuConfig, GpuPlatform, GpuSimulator};
use soclearn_online_learning::rls::RecursiveLeastSquares;
use soclearn_workloads::graphics::FrameDemand;

/// Number of features of the frame-time model.
pub const TIME_FEATURE_DIM: usize = 4;
/// Number of features of the power model.
pub const POWER_FEATURE_DIM: usize = 4;

/// RLS sensitivity models for frame time and GPU power.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GpuSensitivityModel {
    time_model: RecursiveLeastSquares<TIME_FEATURE_DIM>,
    power_model: RecursiveLeastSquares<POWER_FEATURE_DIM>,
}

impl GpuSensitivityModel {
    /// Creates untrained models with the given forgetting factor.
    pub fn new(forgetting_factor: f64) -> Self {
        Self {
            time_model: RecursiveLeastSquares::new(forgetting_factor),
            power_model: RecursiveLeastSquares::new(forgetting_factor),
        }
    }

    /// Feature vector of the frame-time model for a workload/configuration pair.
    ///
    /// `work_cycles` and `memory_accesses` describe the upcoming frame (usually an
    /// exponentially weighted estimate of recent frames).
    pub fn time_features(
        platform: &GpuPlatform,
        work_cycles: f64,
        memory_accesses: f64,
        config: GpuConfig,
    ) -> [f64; TIME_FEATURE_DIM] {
        let f_ghz = platform.frequency(config) / 1e9;
        let slices = config.active_slices as f64;
        [
            work_cycles / 1e9 / (slices * f_ghz),
            work_cycles / 1e9 / f_ghz,
            memory_accesses / 1e8,
            1.0,
        ]
    }

    /// Feature vector of the power model for a configuration and busy fraction.
    pub fn power_features(
        platform: &GpuPlatform,
        config: GpuConfig,
        utilization: f64,
    ) -> [f64; POWER_FEATURE_DIM] {
        let f_ghz = platform.frequency(config) / 1e9;
        let slices = config.active_slices as f64;
        [slices * f_ghz * f_ghz * f_ghz * utilization.max(0.05), slices, f_ghz, 1.0]
    }

    /// Number of observations absorbed by the frame-time model.
    pub fn samples_seen(&self) -> usize {
        self.time_model.samples_seen()
    }

    /// Observations the two models refused because a feature or the target
    /// was not finite.
    pub fn rejected_updates(&self) -> usize {
        self.time_model.rejected_updates() + self.power_model.rejected_updates()
    }

    /// Updates both models from an executed frame; each model refuses a
    /// non-finite observation on its own.
    // The argument list mirrors the raw per-frame telemetry tuple; bundling it
    // into a struct would just move the same seven fields one level down.
    #[allow(clippy::too_many_arguments)]
    pub fn observe(
        &mut self,
        platform: &GpuPlatform,
        demand_work_cycles: f64,
        demand_memory_accesses: f64,
        config: GpuConfig,
        frame_time_s: f64,
        utilization: f64,
        gpu_power_w: f64,
    ) {
        let tf = Self::time_features(platform, demand_work_cycles, demand_memory_accesses, config);
        self.time_model.update(&tf, frame_time_s);
        let pf = Self::power_features(platform, config, utilization);
        self.power_model.update(&pf, gpu_power_w);
    }

    /// Bootstraps the models offline by sweeping representative frame demands over
    /// every configuration of the platform, exactly like the design-time profiling
    /// pass the paper assumes.
    pub fn pretrain(&mut self, simulator: &GpuSimulator, demands: &[FrameDemand], deadline_s: f64) {
        let platform = simulator.platform().clone();
        for demand in demands {
            for config in platform.configs() {
                let mut sweep_sim = simulator.clone();
                sweep_sim.reset();
                let result = sweep_sim.render_frame(demand, config, deadline_s);
                // Batch fit: no forgetting at design time, otherwise only the
                // last ≈1/(1-λ) sweep points would survive into deployment
                // (runtime observe() keeps the forgetting path for tracking).
                let tf = Self::time_features(
                    &platform,
                    demand.work_cycles,
                    demand.memory_accesses,
                    config,
                );
                self.time_model.update_retaining(&tf, result.frame_time_s);
                let pf = Self::power_features(&platform, config, result.counters.utilization);
                self.power_model.update_retaining(&pf, result.counters.gpu_power_w);
            }
        }
    }

    /// Predicted frame time (seconds) for a workload estimate at a configuration.
    pub fn predict_frame_time_s(
        &self,
        platform: &GpuPlatform,
        work_cycles: f64,
        memory_accesses: f64,
        config: GpuConfig,
    ) -> f64 {
        let f = Self::time_features(platform, work_cycles, memory_accesses, config);
        self.time_model.predict(&f).max(1e-5)
    }

    /// Predicted GPU power (watts) at a configuration and utilization.
    pub fn predict_gpu_power_w(
        &self,
        platform: &GpuPlatform,
        config: GpuConfig,
        utilization: f64,
    ) -> f64 {
        let f = Self::power_features(platform, config, utilization);
        self.power_model.predict(&f).max(0.01)
    }

    /// Predicted GPU energy (joules) of one frame period at a configuration, given
    /// the workload estimate and the frame deadline.
    pub fn predict_frame_energy_j(
        &self,
        platform: &GpuPlatform,
        work_cycles: f64,
        memory_accesses: f64,
        config: GpuConfig,
        deadline_s: f64,
    ) -> f64 {
        let time = self.predict_frame_time_s(platform, work_cycles, memory_accesses, config);
        let period = time.max(deadline_s);
        let utilization = (time / period).min(1.0);
        let power = self.predict_gpu_power_w(platform, config, utilization);
        power * period
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soclearn_workloads::graphics::GraphicsWorkload;

    fn pretrained() -> (GpuSensitivityModel, GpuSimulator, GraphicsWorkload) {
        let workload = GraphicsWorkload::nenamark2(120, 3);
        let sim = GpuSimulator::new(GpuPlatform::gen9_like());
        let mut model = GpuSensitivityModel::new(0.98);
        let sample: Vec<FrameDemand> = workload.frames().iter().step_by(10).cloned().collect();
        model.pretrain(&sim, &sample, workload.frame_deadline_s());
        (model, sim, workload)
    }

    #[test]
    fn frame_time_predictions_track_the_simulator() {
        let (model, sim, workload) = pretrained();
        let platform = sim.platform().clone();
        let mut errors = Vec::new();
        for demand in workload.frames().iter().skip(1).step_by(7) {
            for config in [GpuConfig::new(1, 2), GpuConfig::new(2, 4), GpuConfig::new(3, 7)] {
                let mut s = sim.clone();
                s.reset();
                let actual =
                    s.render_frame(demand, config, workload.frame_deadline_s()).frame_time_s;
                let predicted = model.predict_frame_time_s(
                    &platform,
                    demand.work_cycles,
                    demand.memory_accesses,
                    config,
                );
                errors.push((predicted - actual).abs() / actual);
            }
        }
        let mape = 100.0 * errors.iter().sum::<f64>() / errors.len() as f64;
        assert!(mape < 10.0, "frame-time prediction error {mape:.1}% too high");
    }

    #[test]
    fn predicted_time_decreases_with_frequency_and_slices() {
        let (model, sim, workload) = pretrained();
        let platform = sim.platform().clone();
        let demand = &workload.frames()[5];
        let slow = model.predict_frame_time_s(
            &platform,
            demand.work_cycles,
            demand.memory_accesses,
            GpuConfig::new(1, 0),
        );
        let fast = model.predict_frame_time_s(
            &platform,
            demand.work_cycles,
            demand.memory_accesses,
            GpuConfig::new(3, 7),
        );
        assert!(fast < slow);
    }

    #[test]
    fn predicted_power_increases_with_frequency() {
        let (model, sim, _) = pretrained();
        let platform = sim.platform().clone();
        let low = model.predict_gpu_power_w(&platform, GpuConfig::new(2, 1), 0.9);
        let high = model.predict_gpu_power_w(&platform, GpuConfig::new(2, 7), 0.9);
        assert!(high > low);
    }

    /// A NaN frame time and an infinite power reading leave both models'
    /// predictions bit for bit where they were; the next finite frame is
    /// learned as usual.
    #[test]
    fn non_finite_frame_telemetry_is_refused() {
        let (mut model, sim, workload) = pretrained();
        let platform = sim.platform().clone();
        let demand = &workload.frames()[3];
        let config = GpuConfig::new(2, 4);
        let (work, memory) = (demand.work_cycles, demand.memory_accesses);
        let predictions = |m: &GpuSensitivityModel| {
            let time = m.predict_frame_time_s(&platform, work, memory, config);
            (time.to_bits(), m.predict_gpu_power_w(&platform, config, 0.8).to_bits())
        };
        let before = model.clone();
        model.observe(&platform, work, memory, config, f64::NAN, 0.8, f64::INFINITY);
        assert_eq!(model.rejected_updates(), 2);
        assert_eq!(model.samples_seen(), before.samples_seen());
        assert_eq!(predictions(&model), predictions(&before));
        model.observe(&platform, work, memory, config, 0.01, 0.8, 1.5);
        assert_eq!(model.samples_seen(), before.samples_seen() + 1);
        assert_eq!(model.rejected_updates(), 2);
    }

    #[test]
    fn energy_prediction_is_finite_and_positive_everywhere() {
        let (model, sim, workload) = pretrained();
        let platform = sim.platform().clone();
        let demand = &workload.frames()[0];
        for config in platform.configs() {
            let e = model.predict_frame_energy_j(
                &platform,
                demand.work_cycles,
                demand.memory_accesses,
                config,
                workload.frame_deadline_s(),
            );
            assert!(e.is_finite() && e > 0.0);
        }
    }
}
