//! Explicit NMPC: regression approximation of the NMPC control surface.
//!
//! Solving the slow-rate constrained optimisation online is too expensive for
//! firmware.  Explicit NMPC moves the optimisation offline: the control law is
//! sampled over a grid of workload states, and two small ridge-regression
//! models (one per knob) are fitted to the sampled solutions.  At run time the
//! controller evaluates the regressors — a handful of multiply-accumulates —
//! plus the same fast-rate DVFS correction as the full controller.

use serde::Serialize;
use soclearn_gpu_sim::{FrameResult, GpuConfig, GpuController, GpuPlatform};
use soclearn_online_learning::linear::RidgeRegression;

use crate::controller::{MultiRateNmpcController, NmpcSettings};
use crate::sensitivity::GpuSensitivityModel;

/// Explicit (regression-approximated) NMPC controller.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExplicitNmpcController {
    freq_regressor: RidgeRegression,
    slice_regressor: RidgeRegression,
    settings: NmpcSettings,
    work_estimate: f64,
    memory_estimate: f64,
    current: Option<GpuConfig>,
    frames_since_plan: usize,
    /// Number of grid points the control surface was sampled at.
    samples: usize,
}

impl ExplicitNmpcController {
    /// Builds the explicit controller by sampling the full NMPC control law over a
    /// grid of workload states.
    ///
    /// `work_range` and `memory_range` bound the grid (cycles and accesses per
    /// frame); `grid` points are sampled per axis.
    ///
    /// # Panics
    ///
    /// Panics if `grid < 2` or the ranges are not positive and increasing.
    pub fn from_nmpc(
        platform: &GpuPlatform,
        model: &GpuSensitivityModel,
        settings: NmpcSettings,
        deadline_s: f64,
        work_range: (f64, f64),
        memory_range: (f64, f64),
        grid: usize,
    ) -> Self {
        assert!(grid >= 2, "need at least a 2x2 sampling grid");
        assert!(work_range.0 > 0.0 && work_range.1 > work_range.0, "invalid work range");
        assert!(memory_range.0 >= 0.0 && memory_range.1 > memory_range.0, "invalid memory range");

        let mut features = Vec::new();
        let mut freq_targets = Vec::new();
        let mut slice_targets = Vec::new();
        for i in 0..grid {
            for j in 0..grid {
                let work =
                    work_range.0 + (work_range.1 - work_range.0) * i as f64 / (grid - 1) as f64;
                let memory = memory_range.0
                    + (memory_range.1 - memory_range.0) * j as f64 / (grid - 1) as f64;
                // Reuse the full controller's planning step as the "exact" NMPC law.
                let mut exact = MultiRateNmpcController::new(model.clone(), settings);
                exact.set_workload_estimate(work, memory);
                let solution = exact.plan_for_test(platform, deadline_s);
                features.push(Self::state_features(work, memory, deadline_s));
                freq_targets.push(solution.freq_idx as f64);
                slice_targets.push(solution.active_slices as f64);
            }
        }
        let freq_regressor = RidgeRegression::fitted(&features, &freq_targets, 1e-6);
        let slice_regressor = RidgeRegression::fitted(&features, &slice_targets, 1e-6);
        Self {
            freq_regressor,
            slice_regressor,
            settings,
            work_estimate: 0.0,
            memory_estimate: 0.0,
            current: None,
            frames_since_plan: 0,
            samples: grid * grid,
        }
    }

    /// Number of sampled control-law points the regressors were fitted to.
    pub fn sample_count(&self) -> usize {
        self.samples
    }

    fn state_features(work: f64, memory: f64, deadline_s: f64) -> Vec<f64> {
        let w = work / 1e9;
        let m = memory / 1e7;
        let d = deadline_s * 1e3;
        vec![w, w * w, m, w * m, d, w / d.max(1e-6)]
    }

    /// Evaluates the explicit control law for a workload state.
    pub fn evaluate(
        &self,
        platform: &GpuPlatform,
        work: f64,
        memory: f64,
        deadline_s: f64,
    ) -> GpuConfig {
        let f = Self::state_features(work, memory, deadline_s);
        let freq = self
            .freq_regressor
            .predict(&f)
            .round()
            .clamp(0.0, (platform.level_count() - 1) as f64);
        let slices = self
            .slice_regressor
            .predict(&f)
            .round()
            .clamp(1.0, platform.max_slices() as f64);
        GpuConfig::new(slices as u32, freq as usize)
    }

    fn fast_correction(
        &self,
        platform: &GpuPlatform,
        planned: GpuConfig,
        previous: &FrameResult,
        deadline_s: f64,
    ) -> GpuConfig {
        let mut config = planned;
        let max_idx = platform.level_count() - 1;
        let ratio = previous.frame_time_s / deadline_s;
        if previous.missed_deadline || ratio > self.settings.deadline_margin {
            config.freq_idx = (config.freq_idx + 1).min(max_idx);
        } else if ratio < 0.6 * self.settings.deadline_margin && config.freq_idx > 0 {
            config.freq_idx -= 1;
        }
        config
    }
}

impl GpuController for ExplicitNmpcController {
    fn name(&self) -> &str {
        "explicit-nmpc"
    }

    fn decide(
        &mut self,
        platform: &GpuPlatform,
        previous: Option<&FrameResult>,
        frame_index: usize,
        deadline_s: f64,
    ) -> GpuConfig {
        if let Some(prev) = previous {
            let alpha = self.settings.work_ema_alpha;
            if self.work_estimate <= 0.0 {
                self.work_estimate = prev.counters.busy_cycles;
                self.memory_estimate = prev.counters.memory_accesses;
            } else {
                self.work_estimate =
                    (1.0 - alpha) * self.work_estimate + alpha * prev.counters.busy_cycles;
                self.memory_estimate =
                    (1.0 - alpha) * self.memory_estimate + alpha * prev.counters.memory_accesses;
            }
        } else {
            self.current = None;
            self.frames_since_plan = 0;
        }

        let need_plan = self.current.is_none()
            || frame_index == 0
            || self.frames_since_plan >= self.settings.slow_period_frames;
        let planned = if need_plan && self.work_estimate > 0.0 {
            self.frames_since_plan = 0;
            self.evaluate(platform, self.work_estimate, self.memory_estimate, deadline_s)
        } else if let Some(current) = self.current {
            current
        } else {
            platform.max_config()
        };
        self.frames_since_plan += 1;

        let config = match previous {
            Some(prev) if !need_plan => self.fast_correction(platform, planned, prev, deadline_s),
            _ => planned,
        };
        self.current = Some(config);
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soclearn_gpu_sim::{GpuSimulator, UtilizationGovernor};
    use soclearn_workloads::graphics::GraphicsWorkload;

    fn pretrained_model(workload: &GraphicsWorkload) -> GpuSensitivityModel {
        let sim = GpuSimulator::new(GpuPlatform::gen9_like());
        let mut model = GpuSensitivityModel::new(0.98);
        let sample: Vec<_> = workload.frames().iter().step_by(12).cloned().collect();
        model.pretrain(&sim, &sample, workload.frame_deadline_s());
        model
    }

    fn explicit_for(workload: &GraphicsWorkload) -> ExplicitNmpcController {
        let platform = GpuPlatform::gen9_like();
        let model = pretrained_model(workload);
        let works: Vec<f64> = workload.frames().iter().map(|f| f.work_cycles).collect();
        let mems: Vec<f64> = workload.frames().iter().map(|f| f.memory_accesses).collect();
        let wmin = works.iter().cloned().fold(f64::MAX, f64::min) * 0.8;
        let wmax = works.iter().cloned().fold(f64::MIN, f64::max) * 1.2;
        let mmin = mems.iter().cloned().fold(f64::MAX, f64::min) * 0.8;
        let mmax = mems.iter().cloned().fold(f64::MIN, f64::max) * 1.2;
        ExplicitNmpcController::from_nmpc(
            &platform,
            &model,
            NmpcSettings::default(),
            workload.frame_deadline_s(),
            (wmin, wmax),
            (mmin, mmax),
            8,
        )
    }

    #[test]
    fn explicit_law_matches_full_nmpc_on_grid_interior() {
        let workload = GraphicsWorkload::figure5_suite(200, 13).remove(6); // JungleRun
        let platform = GpuPlatform::gen9_like();
        let model = pretrained_model(&workload);
        let explicit = explicit_for(&workload);
        let mut exact = MultiRateNmpcController::new(model, NmpcSettings::default());
        let deadline = workload.frame_deadline_s();
        let mut close = 0;
        let mut total = 0;
        for demand in workload.frames().iter().step_by(9) {
            exact.set_workload_estimate(demand.work_cycles, demand.memory_accesses);
            let exact_cfg = exact.plan_for_test(&platform, deadline);
            let approx_cfg =
                explicit.evaluate(&platform, demand.work_cycles, demand.memory_accesses, deadline);
            total += 1;
            if (exact_cfg.freq_idx as i64 - approx_cfg.freq_idx as i64).abs() <= 1
                && exact_cfg.active_slices.abs_diff(approx_cfg.active_slices) <= 1
            {
                close += 1;
            }
        }
        let rate = close as f64 / total as f64;
        assert!(rate > 0.8, "explicit law should approximate NMPC (close rate {rate:.2})");
    }

    #[test]
    fn explicit_nmpc_saves_energy_with_negligible_performance_loss() {
        let workload = GraphicsWorkload::figure5_suite(250, 17).remove(7); // SharkDash
        let mut explicit = explicit_for(&workload);
        let mut baseline = UtilizationGovernor::new();
        let mut sim = GpuSimulator::new(GpuPlatform::gen9_like());
        let explicit_run = sim.run_workload(&workload, &mut explicit);
        let baseline_run = sim.run_workload(&workload, &mut baseline);
        let saving = 1.0 - explicit_run.gpu_energy_j / baseline_run.gpu_energy_j;
        assert!(saving > 0.1, "explicit NMPC should save GPU energy ({:.1}%)", saving * 100.0);
        let overhead = explicit_run.performance_overhead(workload.frame_deadline_s());
        assert!(overhead < 0.05, "performance overhead {overhead:.3} should be negligible");
    }

    #[test]
    fn package_savings_are_smaller_than_gpu_savings() {
        // Figure 5's shape: PKG and PKG+DRAM savings are diluted by the constant
        // CPU/uncore/DRAM background power.
        let workload = GraphicsWorkload::figure5_suite(200, 19).remove(0); // 3DMarkIceStorm
        let mut explicit = explicit_for(&workload);
        let mut baseline = UtilizationGovernor::new();
        let mut sim = GpuSimulator::new(GpuPlatform::gen9_like());
        let e = sim.run_workload(&workload, &mut explicit);
        let b = sim.run_workload(&workload, &mut baseline);
        let gpu_saving = 1.0 - e.gpu_energy_j / b.gpu_energy_j;
        let pkg_saving = 1.0 - e.package_energy_j / b.package_energy_j;
        let pkg_dram_saving = 1.0 - e.package_dram_energy_j / b.package_dram_energy_j;
        assert!(gpu_saving > pkg_saving, "GPU saving {gpu_saving:.3} vs PKG {pkg_saving:.3}");
        assert!(pkg_saving >= pkg_dram_saving - 0.02);
    }

    #[test]
    #[should_panic(expected = "sampling grid")]
    fn rejects_degenerate_grid() {
        let workload = GraphicsWorkload::figure5_suite(50, 1).remove(1);
        let model = pretrained_model(&workload);
        let _ = ExplicitNmpcController::from_nmpc(
            &GpuPlatform::gen9_like(),
            &model,
            NmpcSettings::default(),
            1.0 / 60.0,
            (1e9, 2e9),
            (1e6, 2e6),
            1,
        );
    }
}
