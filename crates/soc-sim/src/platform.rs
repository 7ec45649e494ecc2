//! Platform description: clusters, DVFS tables and the configuration space.

use serde::Serialize;
use soclearn_power_thermal::power::{ClusterPowerParams, VoltageFrequencyCurve};

/// The two CPU cluster types of a big.LITTLE SoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ClusterKind {
    /// Low-power in-order cluster (Cortex-A7 class).
    Little,
    /// High-performance out-of-order cluster (Cortex-A15 class).
    Big,
}

impl ClusterKind {
    /// Both cluster kinds.
    pub const ALL: [ClusterKind; 2] = [ClusterKind::Little, ClusterKind::Big];
}

/// One point in the per-cluster DVFS configuration space.
///
/// The indices refer to the frequency tables of the [`SocPlatform`] in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct DvfsConfig {
    /// Index into the LITTLE cluster frequency table.
    pub little_idx: usize,
    /// Index into the big cluster frequency table.
    pub big_idx: usize,
}

impl DvfsConfig {
    /// Creates a configuration from raw indices.
    pub fn new(little_idx: usize, big_idx: usize) -> Self {
        Self { little_idx, big_idx }
    }
}

impl std::fmt::Display for DvfsConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(L{}, B{})", self.little_idx, self.big_idx)
    }
}

/// Static description of the simulated heterogeneous platform.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SocPlatform {
    little_freqs_hz: Vec<f64>,
    big_freqs_hz: Vec<f64>,
    little_power: ClusterPowerParams,
    big_power: ClusterPowerParams,
    little_vf: VoltageFrequencyCurve,
    big_vf: VoltageFrequencyCurve,
    /// Energy cost of one external DRAM access, in joules.
    dram_energy_per_access_j: f64,
    /// Background (always-on) power of the memory subsystem and rails, in watts.
    background_power_w: f64,
    /// DRAM access latency in nanoseconds (frequency independent).
    dram_latency_ns: f64,
    /// L2 hit latency in core cycles.
    l2_latency_cycles: f64,
    /// Branch misprediction penalty in core cycles.
    branch_penalty_cycles: f64,
    /// Cores per cluster.
    cores_per_cluster: u32,
}

impl SocPlatform {
    /// The default platform: an Exynos 5422 / Odroid-XU3 class big.LITTLE SoC
    /// with five LITTLE and eight big frequency levels (40 configurations).
    pub fn odroid_xu3() -> Self {
        Self {
            little_freqs_hz: vec![0.6e9, 0.8e9, 1.0e9, 1.2e9, 1.4e9],
            big_freqs_hz: vec![0.6e9, 0.8e9, 1.0e9, 1.2e9, 1.4e9, 1.6e9, 1.8e9, 2.0e9],
            little_power: ClusterPowerParams::odroid_little(),
            big_power: ClusterPowerParams::odroid_big(),
            little_vf: VoltageFrequencyCurve::odroid_little(),
            big_vf: VoltageFrequencyCurve::odroid_big(),
            dram_energy_per_access_j: 18e-9,
            background_power_w: 0.35,
            dram_latency_ns: 120.0,
            l2_latency_cycles: 21.0,
            branch_penalty_cycles: 15.0,
            cores_per_cluster: 4,
        }
    }

    /// A reduced platform (three LITTLE and four big levels) used to keep
    /// exhaustive-search experiments and property tests fast.
    pub fn small() -> Self {
        let mut p = Self::odroid_xu3();
        p.little_freqs_hz = vec![0.6e9, 1.0e9, 1.4e9];
        p.big_freqs_hz = vec![0.6e9, 1.0e9, 1.5e9, 2.0e9];
        p
    }

    /// Frequency table of the requested cluster, in Hz.
    pub fn frequencies(&self, cluster: ClusterKind) -> &[f64] {
        match cluster {
            ClusterKind::Little => &self.little_freqs_hz,
            ClusterKind::Big => &self.big_freqs_hz,
        }
    }

    /// Number of DVFS levels of the requested cluster.
    pub fn level_count(&self, cluster: ClusterKind) -> usize {
        self.frequencies(cluster).len()
    }

    /// Frequency in Hz selected by `config` for the requested cluster.
    ///
    /// # Panics
    ///
    /// Panics if the configuration indexes outside the frequency tables.
    pub fn frequency(&self, cluster: ClusterKind, config: DvfsConfig) -> f64 {
        match cluster {
            ClusterKind::Little => self.little_freqs_hz[config.little_idx],
            ClusterKind::Big => self.big_freqs_hz[config.big_idx],
        }
    }

    /// Power-model parameters of the requested cluster.
    pub fn power_params(&self, cluster: ClusterKind) -> &ClusterPowerParams {
        match cluster {
            ClusterKind::Little => &self.little_power,
            ClusterKind::Big => &self.big_power,
        }
    }

    /// Voltage–frequency curve of the requested cluster.
    pub fn vf_curve(&self, cluster: ClusterKind) -> &VoltageFrequencyCurve {
        match cluster {
            ClusterKind::Little => &self.little_vf,
            ClusterKind::Big => &self.big_vf,
        }
    }

    /// Number of cores in each cluster.
    pub fn cores_per_cluster(&self) -> u32 {
        self.cores_per_cluster
    }

    /// Energy per external DRAM access in joules.
    pub fn dram_energy_per_access_j(&self) -> f64 {
        self.dram_energy_per_access_j
    }

    /// Always-on background power (memory subsystem, rails) in watts.
    pub fn background_power_w(&self) -> f64 {
        self.background_power_w
    }

    /// DRAM access latency in nanoseconds.
    pub fn dram_latency_ns(&self) -> f64 {
        self.dram_latency_ns
    }

    /// L2 hit latency in core cycles.
    pub fn l2_latency_cycles(&self) -> f64 {
        self.l2_latency_cycles
    }

    /// Branch misprediction penalty in core cycles.
    pub fn branch_penalty_cycles(&self) -> f64 {
        self.branch_penalty_cycles
    }

    /// Whether the configuration indexes valid entries of both frequency tables.
    pub fn is_valid(&self, config: DvfsConfig) -> bool {
        config.little_idx < self.little_freqs_hz.len() && config.big_idx < self.big_freqs_hz.len()
    }

    /// Total number of supported DVFS configurations.
    pub fn config_count(&self) -> usize {
        self.little_freqs_hz.len() * self.big_freqs_hz.len()
    }

    /// Enumerates every supported configuration (LITTLE-major order).
    pub fn configs(&self) -> Vec<DvfsConfig> {
        let mut out = Vec::with_capacity(self.config_count());
        for little_idx in 0..self.little_freqs_hz.len() {
            for big_idx in 0..self.big_freqs_hz.len() {
                out.push(DvfsConfig::new(little_idx, big_idx));
            }
        }
        out
    }

    /// Flat index of a configuration, usable as a class label or table index.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid for this platform.
    pub fn config_index(&self, config: DvfsConfig) -> usize {
        assert!(self.is_valid(config), "invalid DVFS configuration {config}");
        config.little_idx * self.big_freqs_hz.len() + config.big_idx
    }

    /// Inverse of [`SocPlatform::config_index`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= config_count()`.
    pub fn config_from_index(&self, index: usize) -> DvfsConfig {
        assert!(index < self.config_count(), "configuration index out of range");
        DvfsConfig::new(index / self.big_freqs_hz.len(), index % self.big_freqs_hz.len())
    }

    /// Configurations reachable from `config` by moving each cluster's frequency by
    /// at most `radius` levels (the local candidate neighbourhood used by the
    /// online-IL runtime Oracle), LITTLE level outermost, both ascending.  The
    /// walk always yields `config` itself and allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `config` is not a configuration of this platform.
    pub fn neighbourhood(
        &self,
        config: DvfsConfig,
        radius: usize,
    ) -> impl Iterator<Item = DvfsConfig> {
        assert!(self.is_valid(config), "invalid DVFS configuration {config}");
        let around = |idx: usize, levels: usize| {
            idx.saturating_sub(radius)..idx.saturating_add(radius).saturating_add(1).min(levels)
        };
        let big = around(config.big_idx, self.big_freqs_hz.len());
        around(config.little_idx, self.little_freqs_hz.len())
            .flat_map(move |little| big.clone().map(move |big| DvfsConfig::new(little, big)))
    }

    /// The highest-performance configuration (both clusters at maximum frequency).
    pub fn max_config(&self) -> DvfsConfig {
        DvfsConfig::new(self.little_freqs_hz.len() - 1, self.big_freqs_hz.len() - 1)
    }

    /// The lowest-power configuration (both clusters at minimum frequency).
    pub fn min_config(&self) -> DvfsConfig {
        DvfsConfig::new(0, 0)
    }
}

impl Default for SocPlatform {
    fn default() -> Self {
        Self::odroid_xu3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odroid_platform_has_40_configs() {
        let p = SocPlatform::odroid_xu3();
        assert_eq!(p.level_count(ClusterKind::Little), 5);
        assert_eq!(p.level_count(ClusterKind::Big), 8);
        assert_eq!(p.config_count(), 40);
        assert_eq!(p.configs().len(), 40);
    }

    #[test]
    fn config_index_roundtrip() {
        let p = SocPlatform::odroid_xu3();
        for (i, c) in p.configs().into_iter().enumerate() {
            assert_eq!(p.config_index(c), i);
            assert_eq!(p.config_from_index(i), c);
        }
    }

    #[test]
    fn frequencies_are_sorted_ascending() {
        let p = SocPlatform::odroid_xu3();
        for cluster in ClusterKind::ALL {
            let f = p.frequencies(cluster);
            assert!(f.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn neighbourhood_respects_bounds_and_contains_self() {
        let p = SocPlatform::odroid_xu3();
        let corner = p.min_config();
        let n: Vec<_> = p.neighbourhood(corner, 1).collect();
        assert!(n.contains(&corner));
        assert_eq!(n.len(), 4, "corner has a 2x2 neighbourhood");
        let middle = DvfsConfig::new(2, 4);
        assert_eq!(p.neighbourhood(middle, 1).count(), 9);
        assert_eq!(p.neighbourhood(middle, 0).collect::<Vec<_>>(), vec![middle]);
    }

    /// The walk yields what the filtered double loop over level offsets it
    /// replaced collected, in the same order, for every centre and radius.
    #[test]
    fn neighbourhood_keeps_the_offset_loop_order() {
        let p = SocPlatform::odroid_xu3();
        let levels = |kind| p.level_count(kind) as isize;
        for centre in p.configs() {
            for radius in 0..4isize {
                let mut expected = Vec::new();
                for dl in -radius..=radius {
                    for db in -radius..=radius {
                        let li = centre.little_idx as isize + dl;
                        let bi = centre.big_idx as isize + db;
                        if (0..levels(ClusterKind::Little)).contains(&li)
                            && (0..levels(ClusterKind::Big)).contains(&bi)
                        {
                            expected.push(DvfsConfig::new(li as usize, bi as usize));
                        }
                    }
                }
                let walked: Vec<_> = p.neighbourhood(centre, radius as usize).collect();
                assert_eq!(walked, expected, "centre {centre}, radius {radius}");
            }
        }
    }

    #[test]
    fn min_max_configs_are_valid_extremes() {
        let p = SocPlatform::odroid_xu3();
        assert!(p.is_valid(p.max_config()));
        assert!(p.is_valid(p.min_config()));
        assert_eq!(p.frequency(ClusterKind::Big, p.max_config()), 2.0e9);
        assert_eq!(p.frequency(ClusterKind::Big, p.min_config()), 0.6e9);
        assert!(!p.is_valid(DvfsConfig::new(99, 0)));
    }

    #[test]
    fn small_platform_is_smaller() {
        let p = SocPlatform::small();
        assert!(p.config_count() < SocPlatform::odroid_xu3().config_count());
    }

    #[test]
    #[should_panic(expected = "invalid DVFS configuration")]
    fn config_index_rejects_invalid() {
        let p = SocPlatform::odroid_xu3();
        let _ = p.config_index(DvfsConfig::new(5, 0));
    }
}
