//! Multi-rate NMPC controller.

use serde::Serialize;
use soclearn_gpu_sim::{FrameResult, GpuConfig, GpuController, GpuPlatform};

use crate::sensitivity::GpuSensitivityModel;

/// Tunable parameters of the multi-rate controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct NmpcSettings {
    /// Slow-rate period: the slice/DVFS plan is recomputed every this many frames.
    pub slow_period_frames: usize,
    /// Fraction of the deadline the predicted frame time must stay below
    /// (safety margin for prediction error).
    pub deadline_margin: f64,
    /// Exponential-moving-average factor for the workload estimate.
    pub work_ema_alpha: f64,
    /// Penalty (in joules) charged per slice change when ranking candidate plans,
    /// discouraging needless power-gating churn.
    pub slice_change_penalty_j: f64,
}

impl Default for NmpcSettings {
    fn default() -> Self {
        Self {
            slow_period_frames: 8,
            deadline_margin: 0.88,
            work_ema_alpha: 0.25,
            slice_change_penalty_j: 5.0e-3,
        }
    }
}

/// The multi-rate NMPC controller: slow-rate constrained optimisation over the
/// sensitivity models plus a fast-rate DVFS correction loop.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MultiRateNmpcController {
    model: GpuSensitivityModel,
    settings: NmpcSettings,
    work_estimate: f64,
    memory_estimate: f64,
    current: Option<GpuConfig>,
    frames_since_plan: usize,
}

impl MultiRateNmpcController {
    /// Creates a controller around (typically pretrained) sensitivity models.
    pub fn new(model: GpuSensitivityModel, settings: NmpcSettings) -> Self {
        Self {
            model,
            settings,
            work_estimate: 0.0,
            memory_estimate: 0.0,
            current: None,
            frames_since_plan: 0,
        }
    }

    /// Access to the sensitivity models (e.g. to inspect prediction quality).
    pub fn model(&self) -> &GpuSensitivityModel {
        &self.model
    }

    /// The slow-rate plan: minimise predicted energy subject to the predicted
    /// frame time staying within the margin-scaled deadline.  Falls back to the
    /// fastest configuration when no candidate satisfies the constraint.
    fn plan(&self, platform: &GpuPlatform, deadline_s: f64) -> GpuConfig {
        let budget = deadline_s * self.settings.deadline_margin;
        let mut best: Option<(GpuConfig, f64)> = None;
        let mut fastest: Option<(GpuConfig, f64)> = None;
        for config in platform.configs() {
            let time = self.model.predict_frame_time_s(
                platform,
                self.work_estimate,
                self.memory_estimate,
                config,
            );
            if fastest.as_ref().map_or(true, |&(_, t)| time < t) {
                fastest = Some((config, time));
            }
            if time > budget {
                continue;
            }
            let mut energy = self.model.predict_frame_energy_j(
                platform,
                self.work_estimate,
                self.memory_estimate,
                config,
                deadline_s,
            );
            if let Some(current) = self.current {
                let slice_changes = current.active_slices.abs_diff(config.active_slices) as f64;
                energy += slice_changes * self.settings.slice_change_penalty_j;
            }
            if best.as_ref().map_or(true, |&(_, e)| energy < e) {
                best = Some((config, energy));
            }
        }
        best.or(fastest).map(|(c, _)| c).unwrap_or_else(|| platform.max_config())
    }

    /// Fast-rate correction: adjust only the DVFS level in response to the last
    /// frame's timing, keeping the slice plan untouched.
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

impl GpuController for MultiRateNmpcController {
    fn name(&self) -> &str {
        "nmpc-multirate"
    }

    fn decide(
        &mut self,
        platform: &GpuPlatform,
        previous: Option<&FrameResult>,
        frame_index: usize,
        deadline_s: f64,
    ) -> GpuConfig {
        if let Some(prev) = previous {
            // Refresh the workload estimate and the sensitivity models.
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
            self.model.observe(
                platform,
                prev.counters.busy_cycles,
                prev.counters.memory_accesses,
                prev.config,
                prev.gpu_busy_s,
                prev.counters.utilization,
                prev.counters.gpu_power_w,
            );
        } else {
            self.current = None;
            self.frames_since_plan = 0;
        }

        let need_plan = self.current.is_none()
            || frame_index == 0
            || self.frames_since_plan >= self.settings.slow_period_frames;
        let planned = if need_plan && self.work_estimate > 0.0 {
            self.frames_since_plan = 0;
            self.plan(platform, deadline_s)
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

impl MultiRateNmpcController {
    /// Runs the slow-rate planning step for externally injected workload
    /// estimates.  Used by explicit-NMPC construction and by tests.
    pub fn plan_for_test(&self, platform: &GpuPlatform, deadline_s: f64) -> GpuConfig {
        self.plan(platform, deadline_s)
    }

    /// Overrides the internal workload estimate (explicit-NMPC construction).
    pub fn set_workload_estimate(&mut self, work_cycles: f64, memory_accesses: f64) {
        self.work_estimate = work_cycles;
        self.memory_estimate = memory_accesses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensitivity::GpuSensitivityModel;
    use soclearn_gpu_sim::{GpuSimulator, UtilizationGovernor};
    use soclearn_workloads::graphics::GraphicsWorkload;

    fn pretrained_controller(workload: &GraphicsWorkload) -> MultiRateNmpcController {
        let sim = GpuSimulator::new(GpuPlatform::gen9_like());
        let mut model = GpuSensitivityModel::new(0.98);
        let sample: Vec<_> = workload.frames().iter().step_by(12).cloned().collect();
        model.pretrain(&sim, &sample, workload.frame_deadline_s());
        MultiRateNmpcController::new(model, NmpcSettings::default())
    }

    #[test]
    fn nmpc_meets_deadlines_with_low_miss_rate() {
        let workload = GraphicsWorkload::figure5_suite(200, 5).remove(7); // SharkDash
        let mut controller = pretrained_controller(&workload);
        let mut sim = GpuSimulator::new(GpuPlatform::gen9_like());
        let run = sim.run_workload(&workload, &mut controller);
        assert!(
            run.deadline_miss_rate < 0.12,
            "NMPC miss rate {:.3} too high",
            run.deadline_miss_rate
        );
    }

    #[test]
    fn nmpc_saves_gpu_energy_versus_baseline_governor() {
        for (idx, min_saving) in [(7usize, 0.12), (3usize, 0.02)] {
            let workload = GraphicsWorkload::figure5_suite(250, 9).remove(idx);
            let mut nmpc = pretrained_controller(&workload);
            let mut baseline = UtilizationGovernor::new();
            let mut sim = GpuSimulator::new(GpuPlatform::gen9_like());
            let nmpc_run = sim.run_workload(&workload, &mut nmpc);
            let base_run = sim.run_workload(&workload, &mut baseline);
            let saving = 1.0 - nmpc_run.gpu_energy_j / base_run.gpu_energy_j;
            assert!(
                saving > min_saving,
                "{}: NMPC should save at least {:.1}% GPU energy, got {:.1}%",
                workload.name(),
                min_saving * 100.0,
                saving * 100.0
            );
            // The energy saving must not come from dropping frames wholesale.
            assert!(nmpc_run.deadline_miss_rate < base_run.deadline_miss_rate + 0.1);
        }
    }

    #[test]
    fn slow_rate_planning_limits_slice_churn() {
        let workload = GraphicsWorkload::figure5_suite(200, 11).remove(4); // FruitNinja
        let mut controller = pretrained_controller(&workload);
        let mut sim = GpuSimulator::new(GpuPlatform::gen9_like());
        let run = sim.run_workload(&workload, &mut controller);
        let slice_changes = run
            .frame_results
            .windows(2)
            .filter(|w| w[0].config.active_slices != w[1].config.active_slices)
            .count();
        assert!(
            slice_changes <= run.frames / NmpcSettings::default().slow_period_frames + 2,
            "slice changes ({slice_changes}) should be bounded by the slow-rate period"
        );
    }

    #[test]
    fn falls_back_to_fastest_config_when_infeasible() {
        // A workload far beyond the GPU's capability: the controller should pick the
        // fastest configuration rather than panic or stall.
        let heavy = GraphicsWorkload::new(
            "stress",
            60.0,
            vec![soclearn_workloads::graphics::FrameDemand::new(50.0e9, 0.95, 1.0e8); 30],
        );
        let mut controller = pretrained_controller(&heavy);
        let mut sim = GpuSimulator::new(GpuPlatform::gen9_like());
        let run = sim.run_workload(&heavy, &mut controller);
        let last = run.frame_results.last().unwrap();
        assert_eq!(last.config.freq_idx, GpuPlatform::gen9_like().level_count() - 1);
        assert_eq!(last.config.active_slices, GpuPlatform::gen9_like().max_slices());
    }
}
