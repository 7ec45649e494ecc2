//! GPU power-management controller interface and baseline governors.
//!
//! The explicit-NMPC controller of the paper is compared against a
//! "state-of-the-art algorithm for multi-variable power management": a
//! utilization-driven governor that keeps every slice powered and scales
//! frequency to track a utilization set-point (the standard race-to-idle
//! behaviour of production GPU governors).  That baseline lives here, next to
//! the [`GpuController`] trait that the NMPC crate implements.

use serde::Serialize;

use crate::platform::{GpuConfig, GpuPlatform};
use crate::simulator::FrameResult;

/// A frame-granularity GPU power-management controller.
pub trait GpuController {
    /// Short, human-readable controller name used in experiment reports.
    fn name(&self) -> &str;

    /// Chooses the configuration for the upcoming frame.
    ///
    /// `previous` is the result of the last rendered frame (`None` for the first
    /// frame of a workload), `deadline_s` the per-frame deadline implied by the
    /// workload's FPS target.
    fn decide(
        &mut self,
        platform: &GpuPlatform,
        previous: Option<&FrameResult>,
        frame_index: usize,
        deadline_s: f64,
    ) -> GpuConfig;
}

/// Baseline governor: all slices always powered, DVFS driven by utilization
/// thresholds exactly like an interactive/ondemand CPU governor.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct UtilizationGovernor {
    current_freq_idx: usize,
}

impl UtilizationGovernor {
    /// Raise frequency when utilization exceeds this threshold.
    const UP_THRESHOLD: f64 = 0.90;
    /// Lower frequency when utilization falls below this threshold.
    const DOWN_THRESHOLD: f64 = 0.40;

    /// Creates the governor with the conventional 90% / 40% thresholds used by
    /// production drivers (biased toward responsiveness over energy).
    pub fn new() -> Self {
        Self { current_freq_idx: 0 }
    }
}

impl Default for UtilizationGovernor {
    fn default() -> Self {
        Self::new()
    }
}

impl GpuController for UtilizationGovernor {
    fn name(&self) -> &str {
        "baseline-utilization"
    }

    fn decide(
        &mut self,
        platform: &GpuPlatform,
        previous: Option<&FrameResult>,
        _frame_index: usize,
        _deadline_s: f64,
    ) -> GpuConfig {
        let max_idx = platform.level_count() - 1;
        match previous {
            None => {
                // Start at the top to avoid a slow first frame, like production drivers.
                self.current_freq_idx = max_idx;
            }
            Some(prev) => {
                let util = prev.counters.utilization;
                if (prev.missed_deadline || util > Self::UP_THRESHOLD)
                    && self.current_freq_idx < max_idx
                {
                    self.current_freq_idx += 1;
                } else if util < Self::DOWN_THRESHOLD && self.current_freq_idx > 0 {
                    self.current_freq_idx -= 1;
                }
            }
        }
        GpuConfig::new(platform.max_slices(), self.current_freq_idx)
    }
}

/// Reference controller that always runs every slice at maximum frequency.
///
/// Used in tests and as the performance upper bound in experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct MaxPerformanceController;

impl GpuController for MaxPerformanceController {
    fn name(&self) -> &str {
        "max-performance"
    }

    fn decide(
        &mut self,
        platform: &GpuPlatform,
        _previous: Option<&FrameResult>,
        _frame_index: usize,
        _deadline_s: f64,
    ) -> GpuConfig {
        platform.max_config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::GpuPlatform;
    use crate::simulator::GpuSimulator;
    use soclearn_workloads::graphics::GraphicsWorkload;

    #[test]
    fn governor_tracks_utilization() {
        let platform = GpuPlatform::gen9_like();
        let mut sim = GpuSimulator::new(platform.clone());
        let mut governor = UtilizationGovernor::new();
        // Light workload: the governor should end up well below the maximum level.
        let light = GraphicsWorkload::figure5_suite(200, 3).remove(7); // SharkDash
        let run = sim.run_workload(&light, &mut governor);
        let final_level = run.frame_results.last().unwrap().config.freq_idx;
        assert!(final_level < platform.level_count() - 1);
        // And it never powers down slices.
        assert!(run
            .frame_results
            .iter()
            .all(|f| f.config.active_slices == platform.max_slices()));
    }

    #[test]
    fn governor_raises_frequency_under_load() {
        let platform = GpuPlatform::gen9_like();
        let mut sim = GpuSimulator::new(platform);
        let mut governor = UtilizationGovernor::new();
        let heavy = GraphicsWorkload::figure5_suite(200, 3).remove(5); // GFXBench-trex
        let run = sim.run_workload(&heavy, &mut governor);
        let mean_level: f64 =
            run.frame_results.iter().map(|f| f.config.freq_idx as f64).sum::<f64>()
                / run.frames as f64;
        assert!(mean_level > 3.0, "heavy workload should keep the governor at high levels");
    }

    #[test]
    fn trait_is_object_safe() {
        let mut boxed: Box<dyn GpuController> = Box::new(UtilizationGovernor::new());
        let platform = GpuPlatform::gen9_like();
        let c = boxed.decide(&platform, None, 0, 1.0 / 30.0);
        assert!(platform.is_valid(c));
    }
}
