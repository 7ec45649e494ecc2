//! GPU platform description and configuration space.

use serde::Serialize;
use soclearn_power_thermal::power::{ClusterPowerParams, VoltageFrequencyCurve};

/// One point in the GPU's control space: how many slices are powered and which
/// DVFS level the domain runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct GpuConfig {
    /// Number of powered (non-gated) slices, `1..=max_slices`.
    pub active_slices: u32,
    /// Index into the platform's frequency table.
    pub freq_idx: usize,
}

impl GpuConfig {
    /// Creates a configuration from raw values.
    pub fn new(active_slices: u32, freq_idx: usize) -> Self {
        Self { active_slices, freq_idx }
    }
}

impl std::fmt::Display for GpuConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(slices={}, f{})", self.active_slices, self.freq_idx)
    }
}

/// Static description of the simulated integrated GPU and its package.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GpuPlatform {
    freqs_hz: Vec<f64>,
    max_slices: u32,
    slice_power: ClusterPowerParams,
    vf: VoltageFrequencyCurve,
    /// Fraction of peak slice power drawn while a powered slice idles (clock gated).
    idle_power_fraction: f64,
    /// Energy cost of waking or gating one slice, in joules.
    slice_transition_energy_j: f64,
    /// Time cost of changing the number of active slices, in seconds.
    slice_transition_time_s: f64,
    /// Time cost of a DVFS change, in seconds (hardware-assisted, fast).
    dvfs_transition_time_s: f64,
    /// Constant package power outside the GPU (CPU cores, uncore, display), in watts.
    package_base_power_w: f64,
    /// DRAM background power, in watts.
    dram_background_power_w: f64,
    /// Energy per external memory access, in joules.
    dram_energy_per_access_j: f64,
    /// Effective memory bandwidth available to the GPU, accesses per second.
    memory_accesses_per_s: f64,
    /// Shader operations each slice retires per clock cycle (EU count × SIMD width).
    ops_per_cycle_per_slice: f64,
    /// Nominal GPU temperature used by the leakage model, °C.
    nominal_temp_c: f64,
}

impl GpuPlatform {
    /// A Gen-9-like integrated GPU: three slices and eight DVFS levels from
    /// 300 MHz to 1.15 GHz.
    pub fn gen9_like() -> Self {
        Self {
            freqs_hz: vec![0.30e9, 0.40e9, 0.55e9, 0.70e9, 0.85e9, 0.95e9, 1.05e9, 1.15e9],
            max_slices: 3,
            slice_power: ClusterPowerParams::gpu_slice(),
            vf: VoltageFrequencyCurve::integrated_gpu(),
            idle_power_fraction: 0.25,
            slice_transition_energy_j: 2.0e-3,
            slice_transition_time_s: 0.5e-3,
            dvfs_transition_time_s: 50.0e-6,
            package_base_power_w: 1.4,
            dram_background_power_w: 0.45,
            dram_energy_per_access_j: 20e-9,
            memory_accesses_per_s: 8.0e9,
            ops_per_cycle_per_slice: 64.0,
            nominal_temp_c: 55.0,
        }
    }

    /// DVFS frequency table in Hz.
    pub fn frequencies(&self) -> &[f64] {
        &self.freqs_hz
    }

    /// Number of DVFS levels.
    pub fn level_count(&self) -> usize {
        self.freqs_hz.len()
    }

    /// Maximum number of slices.
    pub fn max_slices(&self) -> u32 {
        self.max_slices
    }

    /// Whether the configuration is valid for this platform.
    pub fn is_valid(&self, config: GpuConfig) -> bool {
        config.active_slices >= 1
            && config.active_slices <= self.max_slices
            && config.freq_idx < self.freqs_hz.len()
    }

    /// Frequency in Hz selected by the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn frequency(&self, config: GpuConfig) -> f64 {
        assert!(self.is_valid(config), "invalid GPU configuration {config}");
        self.freqs_hz[config.freq_idx]
    }

    /// Enumerates every valid configuration (slices-major order).
    pub fn configs(&self) -> Vec<GpuConfig> {
        let mut out = Vec::new();
        for slices in 1..=self.max_slices {
            for freq_idx in 0..self.freqs_hz.len() {
                out.push(GpuConfig::new(slices, freq_idx));
            }
        }
        out
    }

    /// Total number of configurations.
    pub fn config_count(&self) -> usize {
        self.max_slices as usize * self.freqs_hz.len()
    }

    /// The highest-performance configuration.
    pub fn max_config(&self) -> GpuConfig {
        GpuConfig::new(self.max_slices, self.freqs_hz.len() - 1)
    }

    /// Power-model parameters of one slice.
    pub fn slice_power(&self) -> &ClusterPowerParams {
        &self.slice_power
    }

    /// Voltage–frequency curve of the GPU domain.
    pub fn vf_curve(&self) -> &VoltageFrequencyCurve {
        &self.vf
    }

    /// Fraction of active power a powered-but-idle slice draws.
    pub fn idle_power_fraction(&self) -> f64 {
        self.idle_power_fraction
    }

    /// Energy cost of one slice wake/gate transition, joules.
    pub fn slice_transition_energy_j(&self) -> f64 {
        self.slice_transition_energy_j
    }

    /// Time cost of changing the active slice count, seconds.
    pub fn slice_transition_time_s(&self) -> f64 {
        self.slice_transition_time_s
    }

    /// Time cost of a DVFS transition, seconds.
    pub fn dvfs_transition_time_s(&self) -> f64 {
        self.dvfs_transition_time_s
    }

    /// Constant package power outside the GPU, watts.
    pub fn package_base_power_w(&self) -> f64 {
        self.package_base_power_w
    }

    /// DRAM background power, watts.
    pub fn dram_background_power_w(&self) -> f64 {
        self.dram_background_power_w
    }

    /// Energy per external memory access, joules.
    pub fn dram_energy_per_access_j(&self) -> f64 {
        self.dram_energy_per_access_j
    }

    /// Effective memory bandwidth in accesses per second.
    pub fn memory_accesses_per_s(&self) -> f64 {
        self.memory_accesses_per_s
    }

    /// Shader operations each slice retires per clock cycle.
    pub fn ops_per_cycle_per_slice(&self) -> f64 {
        self.ops_per_cycle_per_slice
    }

    /// Nominal GPU temperature used for leakage, °C.
    pub fn nominal_temp_c(&self) -> f64 {
        self.nominal_temp_c
    }
}

impl Default for GpuPlatform {
    fn default() -> Self {
        Self::gen9_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen9_has_24_configs() {
        let p = GpuPlatform::gen9_like();
        assert_eq!(p.level_count(), 8);
        assert_eq!(p.max_slices(), 3);
        assert_eq!(p.config_count(), 24);
        assert_eq!(p.configs().len(), 24);
        assert!(p.configs().iter().all(|&c| p.is_valid(c)));
    }

    #[test]
    fn validity_checks() {
        let p = GpuPlatform::gen9_like();
        assert!(p.is_valid(GpuConfig::new(1, 0)));
        assert!(!p.is_valid(GpuConfig::new(0, 0)), "zero slices is invalid");
        assert!(!p.is_valid(GpuConfig::new(4, 0)), "too many slices");
        assert!(!p.is_valid(GpuConfig::new(3, 8)), "frequency index out of range");
        assert_eq!(p.frequency(p.max_config()), 1.15e9);
    }

    #[test]
    fn frequencies_sorted() {
        let p = GpuPlatform::gen9_like();
        assert!(p.frequencies().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn slice_transitions_cost_more_than_dvfs() {
        let p = GpuPlatform::gen9_like();
        assert!(p.slice_transition_time_s() > p.dvfs_transition_time_s());
        assert!(p.slice_transition_energy_j() > 0.0);
    }
}
