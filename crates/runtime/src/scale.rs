//! Experiment scaling knobs shared by tests, examples and the serving runtime.

use serde::Serialize;

/// How much work an experiment should do.
///
/// The scale is part of every [`crate::ArtifactStore`] key: artifacts built at
/// `Quick` scale are never served to a `Full`-scale experiment and vice versa.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ExperimentScale {
    /// Reduced workload sizes; suitable for unit/integration tests.
    Quick,
    /// Full workload sizes used by the examples and by `perfbench`.
    Full,
}

impl ExperimentScale {
    /// Number of snippets to keep per benchmark (caps the sequence length).
    pub fn snippets_per_benchmark(&self) -> usize {
        match self {
            ExperimentScale::Quick => 10,
            ExperimentScale::Full => usize::MAX,
        }
    }

    /// Number of frames per graphics workload.
    pub fn frames_per_workload(&self) -> usize {
        match self {
            ExperimentScale::Quick => 120,
            ExperimentScale::Full => 600,
        }
    }

    /// Simulated cycles per NoC measurement point.
    pub fn noc_cycles(&self) -> u64 {
        match self {
            ExperimentScale::Quick => 10_000,
            ExperimentScale::Full => 40_000,
        }
    }
}
