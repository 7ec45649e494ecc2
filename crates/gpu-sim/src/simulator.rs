//! Frame-level GPU simulation.

use serde::Serialize;
use soclearn_workloads::graphics::{FrameDemand, GraphicsWorkload};

use crate::controller::GpuController;
use crate::counters::GpuFrameCounters;
use crate::platform::{GpuConfig, GpuPlatform};

/// Fraction of memory time that cannot be hidden behind shader execution.
const MEMORY_EXPOSURE: f64 = 0.5;

/// Outcome of rendering a single frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FrameResult {
    /// Configuration the frame rendered at.
    pub config: GpuConfig,
    /// Time spent actually rendering (busy time plus transition stalls), seconds.
    pub frame_time_s: f64,
    /// Frame period charged to the frame: the deadline if the GPU finished early
    /// (it idles until the next vsync), otherwise the frame time itself.
    pub period_s: f64,
    /// Whether the frame missed its deadline.
    pub missed_deadline: bool,
    /// Time the GPU was busy rendering, seconds.
    pub gpu_busy_s: f64,
    /// GPU energy over the frame period, joules.
    pub gpu_energy_j: f64,
    /// Package energy (GPU + CPU/uncore base) over the period, joules.
    pub package_energy_j: f64,
    /// DRAM energy over the period, joules.
    pub dram_energy_j: f64,
    /// Counters observed during the frame.
    pub counters: GpuFrameCounters,
}

impl FrameResult {
    /// Package plus DRAM energy, joules (the paper's "PKG+DRAM" column).
    pub fn package_dram_energy_j(&self) -> f64 {
        self.package_energy_j + self.dram_energy_j
    }
}

/// Aggregate statistics of running a whole workload under one controller.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkloadRun {
    /// Name of the controller that produced the run.
    pub controller: String,
    /// Name of the workload.
    pub workload: String,
    /// Number of frames rendered.
    pub frames: usize,
    /// Total GPU energy, joules.
    pub gpu_energy_j: f64,
    /// Total package energy, joules.
    pub package_energy_j: f64,
    /// Total package + DRAM energy, joules.
    pub package_dram_energy_j: f64,
    /// Fraction of frames that missed their deadline.
    pub deadline_miss_rate: f64,
    /// Average frame time, seconds.
    pub avg_frame_time_s: f64,
    /// Achieved frames per second (based on charged periods).
    pub achieved_fps: f64,
    /// Per-frame results (kept for model training and plotting).
    pub frame_results: Vec<FrameResult>,
}

impl WorkloadRun {
    /// Relative performance loss versus always meeting the deadline exactly:
    /// mean excess frame time beyond the deadline, as a fraction of the deadline.
    pub fn performance_overhead(&self, deadline_s: f64) -> f64 {
        if self.frame_results.is_empty() {
            return 0.0;
        }
        let excess: f64 = self
            .frame_results
            .iter()
            .map(|f| (f.frame_time_s - deadline_s).max(0.0))
            .sum::<f64>();
        excess / (deadline_s * self.frame_results.len() as f64)
    }
}

/// Frame-based integrated-GPU simulator.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GpuSimulator {
    platform: GpuPlatform,
    last_config: Option<GpuConfig>,
}

impl GpuSimulator {
    /// Creates a simulator for the given platform.
    pub fn new(platform: GpuPlatform) -> Self {
        Self { platform, last_config: None }
    }

    /// The platform description.
    pub fn platform(&self) -> &GpuPlatform {
        &self.platform
    }

    /// Forgets the previous configuration (no transition cost on the next frame).
    pub fn reset(&mut self) {
        self.last_config = None;
    }

    /// Predicts the rendering (busy) time of a frame at a configuration without
    /// accounting for transition costs or mutating state.
    pub fn predict_busy_time_s(&self, demand: &FrameDemand, config: GpuConfig) -> f64 {
        assert!(self.platform.is_valid(config), "invalid GPU configuration {config}");
        let freq = self.platform.frequency(config);
        let slices = config.active_slices as f64;
        let per_slice_cycles = demand.work_cycles
            * (demand.parallel_fraction / slices + (1.0 - demand.parallel_fraction));
        let compute_s = per_slice_cycles / (freq * self.platform.ops_per_cycle_per_slice());
        let memory_s = demand.memory_accesses / self.platform.memory_accesses_per_s();
        compute_s + MEMORY_EXPOSURE * memory_s
    }

    /// Renders one frame at the given configuration against a deadline.
    ///
    /// Transition costs are charged when the configuration differs from the
    /// previous frame's configuration: changing the slice count stalls rendering
    /// for the (long) slice transition time and costs wake/gate energy, while a
    /// DVFS change costs only the (short) DVFS transition time.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the deadline is not positive.
    pub fn render_frame(
        &mut self,
        demand: &FrameDemand,
        config: GpuConfig,
        deadline_s: f64,
    ) -> FrameResult {
        assert!(self.platform.is_valid(config), "invalid GPU configuration {config}");
        assert!(deadline_s > 0.0, "frame deadline must be positive");

        let mut transition_time_s = 0.0;
        let mut transition_energy_j = 0.0;
        if let Some(prev) = self.last_config {
            if prev.active_slices != config.active_slices {
                let changed = prev.active_slices.abs_diff(config.active_slices) as f64;
                transition_time_s += self.platform.slice_transition_time_s();
                transition_energy_j += changed * self.platform.slice_transition_energy_j();
            }
            if prev.freq_idx != config.freq_idx {
                transition_time_s += self.platform.dvfs_transition_time_s();
            }
        }

        let busy_s = self.predict_busy_time_s(demand, config);
        let frame_time_s = busy_s + transition_time_s;
        let missed_deadline = frame_time_s > deadline_s;
        let period_s = frame_time_s.max(deadline_s);
        let idle_s = (period_s - frame_time_s).max(0.0);

        let freq = self.platform.frequency(config);
        let slices = config.active_slices as f64;
        let p_slice_active = self.platform.slice_power().power(
            self.platform.vf_curve(),
            freq,
            1.0,
            self.platform.nominal_temp_c(),
        );
        let p_active = slices * p_slice_active;
        let p_idle = p_active * self.platform.idle_power_fraction();
        let gpu_energy_j =
            p_active * (busy_s + transition_time_s) + p_idle * idle_s + transition_energy_j;
        let package_energy_j = gpu_energy_j + self.platform.package_base_power_w() * period_s;
        let dram_energy_j = demand.memory_accesses * self.platform.dram_energy_per_access_j()
            + self.platform.dram_background_power_w() * period_s;

        let counters = GpuFrameCounters {
            busy_cycles: demand.work_cycles,
            frequency_hz: freq,
            active_slices: config.active_slices,
            utilization: (frame_time_s / period_s).min(1.0),
            memory_accesses: demand.memory_accesses,
            frame_time_s,
            gpu_power_w: gpu_energy_j / period_s,
        };

        self.last_config = Some(config);
        FrameResult {
            config,
            frame_time_s,
            period_s,
            missed_deadline,
            gpu_busy_s: busy_s,
            gpu_energy_j,
            package_energy_j,
            dram_energy_j,
            counters,
        }
    }

    /// Runs an entire workload under a controller and aggregates the results.
    pub fn run_workload(
        &mut self,
        workload: &GraphicsWorkload,
        controller: &mut dyn GpuController,
    ) -> WorkloadRun {
        self.reset();
        let deadline = workload.frame_deadline_s();
        let mut frame_results = Vec::with_capacity(workload.len());
        let mut prev: Option<FrameResult> = None;
        for (index, demand) in workload.frames().iter().enumerate() {
            let config = controller.decide(&self.platform, prev.as_ref(), index, deadline);
            let result = self.render_frame(demand, config, deadline);
            prev = Some(result);
            frame_results.push(result);
        }
        let frames = frame_results.len();
        let gpu_energy_j: f64 = frame_results.iter().map(|f| f.gpu_energy_j).sum();
        let package_energy_j: f64 = frame_results.iter().map(|f| f.package_energy_j).sum();
        let package_dram_energy_j: f64 =
            frame_results.iter().map(|f| f.package_dram_energy_j()).sum();
        let misses = frame_results.iter().filter(|f| f.missed_deadline).count();
        let avg_frame_time_s =
            frame_results.iter().map(|f| f.frame_time_s).sum::<f64>() / frames.max(1) as f64;
        let total_period: f64 = frame_results.iter().map(|f| f.period_s).sum();
        WorkloadRun {
            controller: controller.name().to_owned(),
            workload: workload.name().to_owned(),
            frames,
            gpu_energy_j,
            package_energy_j,
            package_dram_energy_j,
            deadline_miss_rate: misses as f64 / frames.max(1) as f64,
            avg_frame_time_s,
            achieved_fps: frames as f64 / total_period.max(1e-12),
            frame_results,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{MaxPerformanceController, UtilizationGovernor};

    fn frame() -> FrameDemand {
        FrameDemand::new(5.0e9, 0.9, 2.0e7)
    }

    #[test]
    fn more_slices_and_higher_frequency_render_faster() {
        let sim = GpuSimulator::new(GpuPlatform::gen9_like());
        let f = frame();
        let slow = sim.predict_busy_time_s(&f, GpuConfig::new(1, 0));
        let more_slices = sim.predict_busy_time_s(&f, GpuConfig::new(3, 0));
        let faster_clock = sim.predict_busy_time_s(&f, GpuConfig::new(1, 7));
        assert!(more_slices < slow);
        assert!(faster_clock < slow);
    }

    #[test]
    fn slice_scaling_is_sublinear_for_imperfect_parallelism() {
        let sim = GpuSimulator::new(GpuPlatform::gen9_like());
        let f = FrameDemand::new(6.0e9, 0.7, 1.0e7);
        let one = sim.predict_busy_time_s(&f, GpuConfig::new(1, 4));
        let three = sim.predict_busy_time_s(&f, GpuConfig::new(3, 4));
        let speedup = one / three;
        assert!(speedup > 1.0 && speedup < 3.0);
    }

    #[test]
    fn deadline_handling_and_idle_power() {
        let mut sim = GpuSimulator::new(GpuPlatform::gen9_like());
        let light = FrameDemand::new(1.0e9, 0.9, 5.0e6);
        let result = sim.render_frame(&light, GpuConfig::new(3, 7), 1.0 / 30.0);
        assert!(!result.missed_deadline);
        assert!((result.period_s - 1.0 / 30.0).abs() < 1e-12, "early finish waits for vsync");
        assert!(result.counters.utilization < 1.0);
        // A heavy frame at the lowest operating point misses its deadline.
        let heavy = FrameDemand::new(20.0e9, 0.9, 5.0e7);
        let result = sim.render_frame(&heavy, GpuConfig::new(1, 0), 1.0 / 60.0);
        assert!(result.missed_deadline);
        assert!((result.period_s - result.frame_time_s).abs() < 1e-12);
    }

    #[test]
    fn running_slower_but_meeting_deadline_saves_gpu_energy() {
        // The core premise of the paper's GPU experiments: racing to idle at peak
        // frequency wastes energy compared to the slowest configuration that still
        // meets the frame deadline.
        let mut sim = GpuSimulator::new(GpuPlatform::gen9_like());
        let demand = FrameDemand::new(2.5e9, 0.9, 1.5e7);
        let deadline = 1.0 / 30.0;
        let fast = sim.render_frame(&demand, GpuConfig::new(3, 7), deadline);
        sim.reset();
        let eco = sim.render_frame(&demand, GpuConfig::new(3, 3), deadline);
        assert!(!fast.missed_deadline && !eco.missed_deadline);
        assert!(
            eco.gpu_energy_j < fast.gpu_energy_j,
            "eco {} J should beat race-to-idle {} J",
            eco.gpu_energy_j,
            fast.gpu_energy_j
        );
    }

    #[test]
    fn transition_costs_are_charged_once_per_change() {
        let mut sim = GpuSimulator::new(GpuPlatform::gen9_like());
        let demand = frame();
        let deadline = 1.0 / 30.0;
        let first = sim.render_frame(&demand, GpuConfig::new(3, 4), deadline);
        // Same config again: no transition stall.
        let second = sim.render_frame(&demand, GpuConfig::new(3, 4), deadline);
        assert!((first.frame_time_s - second.frame_time_s).abs() < 1e-12);
        // Slice change: longer frame time than a pure DVFS change.
        let slice_change = sim.render_frame(&demand, GpuConfig::new(2, 4), deadline);
        let dvfs_change = sim.render_frame(&demand, GpuConfig::new(2, 5), deadline);
        let slice_overhead = slice_change.frame_time_s - second.frame_time_s;
        assert!(slice_overhead > 0.0);
        assert!(dvfs_change.frame_time_s < slice_change.frame_time_s);
    }

    #[test]
    fn package_and_dram_energy_include_base_power() {
        let mut sim = GpuSimulator::new(GpuPlatform::gen9_like());
        let result = sim.render_frame(&frame(), GpuConfig::new(2, 4), 1.0 / 30.0);
        assert!(result.package_energy_j > result.gpu_energy_j);
        assert!(result.dram_energy_j > 0.0);
        assert!(result.package_dram_energy_j() > result.package_energy_j);
    }

    #[test]
    fn run_workload_aggregates_consistently() {
        let workload = GraphicsWorkload::figure5_suite(120, 5).remove(1); // AngryBirds
        let mut sim = GpuSimulator::new(GpuPlatform::gen9_like());
        let mut governor = UtilizationGovernor::new();
        let run = sim.run_workload(&workload, &mut governor);
        assert_eq!(run.frames, 120);
        assert_eq!(run.frame_results.len(), 120);
        let sum: f64 = run.frame_results.iter().map(|f| f.gpu_energy_j).sum();
        assert!((sum - run.gpu_energy_j).abs() < 1e-9);
        assert!(run.achieved_fps > 0.0);
        assert!(run.deadline_miss_rate <= 0.2, "baseline governor should mostly hold FPS");
    }

    #[test]
    fn max_performance_controller_never_misses_on_feasible_workloads() {
        let workload = GraphicsWorkload::figure5_suite(100, 7).remove(7); // SharkDash (light)
        let mut sim = GpuSimulator::new(GpuPlatform::gen9_like());
        let mut max = MaxPerformanceController;
        let run = sim.run_workload(&workload, &mut max);
        assert_eq!(run.deadline_miss_rate, 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid GPU configuration")]
    fn rejects_invalid_config() {
        let mut sim = GpuSimulator::new(GpuPlatform::gen9_like());
        let _ = sim.render_frame(&frame(), GpuConfig::new(0, 0), 1.0 / 30.0);
    }
}
