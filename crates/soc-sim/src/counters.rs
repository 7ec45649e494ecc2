//! Per-snippet performance counters (Table I of the paper).
//!
//! At the end of every snippet the runtime collects the counter set listed in
//! Table I; these are the only inputs available to the learned models and
//! policies at run time.  The struct below mirrors that table exactly and adds
//! the conversions (normalised feature vectors) that the learning crates use.

use serde::Serialize;

/// The counter values collected during one snippet (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct SnippetCounters {
    /// Instructions retired during the snippet.
    pub instructions_retired: f64,
    /// Total CPU cycles consumed (both clusters).
    pub cpu_cycles_total: f64,
    /// Branch mispredictions per core.
    pub branch_mispredictions_per_core: f64,
    /// Level-2 cache misses (total).
    pub l2_cache_misses: f64,
    /// Data memory accesses (loads and stores).
    pub data_memory_accesses: f64,
    /// Non-cacheable external memory requests (DRAM traffic).
    pub external_memory_requests: f64,
    /// Average LITTLE cluster utilization in `[0, 1]`.
    pub little_cluster_utilization: f64,
    /// Average big cluster utilization in `[0, 1]`.
    pub big_cluster_utilization: f64,
    /// Total chip power consumption during the snippet, in watts.
    pub total_chip_power_w: f64,
}

impl SnippetCounters {
    /// Number of features produced by [`SnippetCounters::feature_vector`].
    pub const FEATURE_DIM: usize = 9;

    /// Names of the features, aligned with [`SnippetCounters::feature_vector`].
    pub const FEATURE_NAMES: [&'static str; Self::FEATURE_DIM] = [
        "instructions_retired",
        "cpu_cycles_total",
        "branch_mispredictions_per_core",
        "l2_cache_misses",
        "data_memory_accesses",
        "external_memory_requests",
        "little_cluster_utilization",
        "big_cluster_utilization",
        "total_chip_power_w",
    ];

    /// Raw counters as a feature vector in the order of [`SnippetCounters::FEATURE_NAMES`].
    pub fn feature_vector(&self) -> Vec<f64> {
        vec![
            self.instructions_retired,
            self.cpu_cycles_total,
            self.branch_mispredictions_per_core,
            self.l2_cache_misses,
            self.data_memory_accesses,
            self.external_memory_requests,
            self.little_cluster_utilization,
            self.big_cluster_utilization,
            self.total_chip_power_w,
        ]
    }

    /// Scale-free feature vector used by the learned policies: rates per
    /// kilo-instruction and utilizations, which transfer across snippets of
    /// different lengths and across applications.
    pub fn normalized_features(&self) -> [f64; Self::NORMALIZED_FEATURE_DIM] {
        let kilo_instructions = (self.instructions_retired / 1000.0).max(1e-9);
        [
            self.cpu_cycles_total / self.instructions_retired.max(1.0),
            self.branch_mispredictions_per_core / kilo_instructions,
            self.l2_cache_misses / kilo_instructions,
            self.data_memory_accesses / self.instructions_retired.max(1.0),
            self.external_memory_requests / kilo_instructions,
            self.little_cluster_utilization,
            self.big_cluster_utilization,
            self.total_chip_power_w,
        ]
    }

    /// Number of features produced by [`SnippetCounters::normalized_features`].
    pub const NORMALIZED_FEATURE_DIM: usize = 8;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SnippetCounters {
        SnippetCounters {
            instructions_retired: 1e8,
            cpu_cycles_total: 2.2e8,
            branch_mispredictions_per_core: 1.5e5,
            l2_cache_misses: 4.0e5,
            data_memory_accesses: 2.5e7,
            external_memory_requests: 2.0e5,
            little_cluster_utilization: 0.12,
            big_cluster_utilization: 0.85,
            total_chip_power_w: 3.4,
        }
    }

    #[test]
    fn feature_vector_matches_table_one_width() {
        let c = sample();
        let f = c.feature_vector();
        assert_eq!(f.len(), SnippetCounters::FEATURE_DIM);
        assert_eq!(f.len(), SnippetCounters::FEATURE_NAMES.len());
        assert_eq!(f[0], c.instructions_retired);
        assert_eq!(f[8], c.total_chip_power_w);
    }

    #[test]
    fn normalized_features_are_scale_free() {
        let c = sample();
        let mut doubled = c;
        doubled.instructions_retired *= 2.0;
        doubled.cpu_cycles_total *= 2.0;
        doubled.branch_mispredictions_per_core *= 2.0;
        doubled.l2_cache_misses *= 2.0;
        doubled.data_memory_accesses *= 2.0;
        doubled.external_memory_requests *= 2.0;
        let a = c.normalized_features();
        let b = doubled.normalized_features();
        assert_eq!(a.len(), SnippetCounters::NORMALIZED_FEATURE_DIM);
        for (x, y) in a.iter().zip(&b) {
            assert!(
                (x - y).abs() < 1e-9,
                "normalised features should not depend on snippet length"
            );
        }
    }

    #[test]
    fn default_is_all_zero_and_safe() {
        let c = SnippetCounters::default();
        assert_eq!(c.feature_vector().iter().sum::<f64>(), 0.0);
        // Normalisation must not divide by zero.
        let n = c.normalized_features();
        assert!(n.iter().all(|v| v.is_finite()));
    }
}
