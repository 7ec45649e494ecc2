//! Snippet-level workload descriptions.
//!
//! A snippet is a fixed-instruction-count segment of an application.  Its
//! profile captures *intrinsic* characteristics that do not depend on the
//! hardware configuration: how memory bound it is, how well it exploits
//! instruction-level parallelism, how many threads it spawns, and so on.  The
//! SoC simulator turns a profile plus a DVFS configuration into execution
//! time, energy and the Table I performance counters.

use serde::Serialize;

/// Coarse phase classification of a snippet.
///
/// Real applications alternate between compute-dominated and memory-dominated
/// phases; governors and learned policies exploit exactly this structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum SnippetPhase {
    /// Arithmetic/logic dominated, scales well with core frequency.
    Compute,
    /// Dominated by off-chip memory traffic, largely frequency insensitive.
    Memory,
    /// Control-flow heavy with many hard-to-predict branches.
    Branchy,
    /// Balanced mix of compute and memory.
    Mixed,
}

impl SnippetPhase {
    /// All phases, useful for iteration in tests and generators.
    pub const ALL: [SnippetPhase; 4] =
        [SnippetPhase::Compute, SnippetPhase::Memory, SnippetPhase::Branchy, SnippetPhase::Mixed];
}

/// Intrinsic, hardware-independent description of one snippet.
///
/// All rates are expressed per executed instruction so that they can be
/// combined with the fixed snippet instruction count.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SnippetProfile {
    /// Number of instructions in the snippet.
    pub instructions: u64,
    /// Coarse phase classification.
    pub phase: SnippetPhase,
    /// Fraction of instructions that access data memory (loads + stores), in `[0, 1]`.
    pub memory_access_fraction: f64,
    /// L2 cache misses per kilo-instruction (MPKI).
    pub l2_mpki: f64,
    /// Fraction of L2 misses that go to external DRAM (the rest hit on-chip caches
    /// of other clusters), in `[0, 1]`.
    pub external_memory_fraction: f64,
    /// Branch mispredictions per kilo-instruction.
    pub branch_misprediction_pki: f64,
    /// Available instruction-level parallelism; effective issue width the core can
    /// sustain for this snippet (1.0 = purely serial dependencies).
    pub ilp: f64,
    /// Number of software threads the snippet runs with.
    pub thread_count: u32,
    /// Fraction of the snippet's work that is parallelisable across threads, in `[0, 1]`
    /// (Amdahl's law parallel fraction).
    pub parallel_fraction: f64,
}

impl SnippetProfile {
    /// Creates a snippet profile, clamping all fractional fields to valid ranges.
    ///
    /// # Panics
    ///
    /// Panics if `instructions` is zero or `thread_count` is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        instructions: u64,
        phase: SnippetPhase,
        memory_access_fraction: f64,
        l2_mpki: f64,
        external_memory_fraction: f64,
        branch_misprediction_pki: f64,
        ilp: f64,
        thread_count: u32,
        parallel_fraction: f64,
    ) -> Self {
        assert!(instructions > 0, "snippet must contain at least one instruction");
        assert!(thread_count > 0, "snippet must run with at least one thread");
        Self {
            instructions,
            phase,
            memory_access_fraction: memory_access_fraction.clamp(0.0, 1.0),
            l2_mpki: l2_mpki.max(0.0),
            external_memory_fraction: external_memory_fraction.clamp(0.0, 1.0),
            branch_misprediction_pki: branch_misprediction_pki.max(0.0),
            ilp: ilp.clamp(0.25, 8.0),
            thread_count,
            parallel_fraction: parallel_fraction.clamp(0.0, 1.0),
        }
    }

    /// A conservative single-threaded compute-bound profile, handy as a default
    /// in tests and examples.
    pub fn compute_bound(instructions: u64) -> Self {
        Self::new(instructions, SnippetPhase::Compute, 0.18, 0.4, 0.3, 1.5, 1.9, 1, 0.0)
    }

    /// A memory-bound profile with a high external-memory miss rate.
    pub fn memory_bound(instructions: u64) -> Self {
        Self::new(instructions, SnippetPhase::Memory, 0.42, 14.0, 0.8, 3.0, 1.1, 1, 0.0)
    }

    /// A near-idle profile: a short, serially-dependent housekeeping snippet
    /// with minimal memory traffic, as produced by an application waiting on
    /// input.  Workload generators skew towards this profile to model idle
    /// phases between bursts.
    pub fn idle(instructions: u64) -> Self {
        Self::new(instructions, SnippetPhase::Branchy, 0.08, 0.1, 0.2, 6.0, 0.6, 1, 0.0)
    }

    /// Returns the profile with its instruction count replaced (the
    /// perturbation operators' instruction-scaling hook).
    ///
    /// # Panics
    ///
    /// Panics if `instructions` is zero.
    #[must_use]
    pub fn with_instructions(mut self, instructions: u64) -> Self {
        assert!(instructions > 0, "snippet must contain at least one instruction");
        self.instructions = instructions;
        self
    }

    /// Memory intensity in `[0, 1]`: how strongly execution time is expected to be
    /// dominated by off-chip memory rather than core cycles.
    ///
    /// This is a derived, dimensionless indicator used by workload generators and
    /// by feature engineering in the learned models; it is not itself a counter.
    pub fn memory_intensity(&self) -> f64 {
        let miss_traffic = (self.l2_mpki * self.external_memory_fraction) / 30.0;
        (0.6 * miss_traffic + 0.4 * self.memory_access_fraction).clamp(0.0, 1.0)
    }

    /// Total L2 cache misses expected for this snippet.
    pub fn l2_misses(&self) -> f64 {
        self.l2_mpki * (self.instructions as f64 / 1000.0)
    }

    /// Total external (DRAM) memory requests expected for this snippet.
    pub fn external_memory_requests(&self) -> f64 {
        self.l2_misses() * self.external_memory_fraction
    }

    /// Total branch mispredictions expected for this snippet.
    pub fn branch_mispredictions(&self) -> f64 {
        self.branch_misprediction_pki * (self.instructions as f64 / 1000.0)
    }

    /// Total data-memory accesses expected for this snippet.
    pub fn data_memory_accesses(&self) -> f64 {
        self.memory_access_fraction * self.instructions as f64
    }

    /// Speedup over a single thread when `threads` hardware contexts are available,
    /// according to Amdahl's law with this snippet's parallel fraction.
    pub fn amdahl_speedup(&self, threads: u32) -> f64 {
        let threads = threads.max(1).min(self.thread_count) as f64;
        let p = self.parallel_fraction;
        1.0 / ((1.0 - p) + p / threads)
    }
}

impl Default for SnippetProfile {
    fn default() -> Self {
        Self::compute_bound(crate::SNIPPET_INSTRUCTIONS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamps_fractions() {
        let p = SnippetProfile::new(1000, SnippetPhase::Mixed, 1.5, -3.0, 2.0, -1.0, 100.0, 2, 1.4);
        assert_eq!(p.memory_access_fraction, 1.0);
        assert_eq!(p.l2_mpki, 0.0);
        assert_eq!(p.external_memory_fraction, 1.0);
        assert_eq!(p.branch_misprediction_pki, 0.0);
        assert_eq!(p.ilp, 8.0);
        assert_eq!(p.parallel_fraction, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one instruction")]
    fn rejects_zero_instructions() {
        let _ = SnippetProfile::new(0, SnippetPhase::Compute, 0.1, 1.0, 0.5, 1.0, 1.0, 1, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn rejects_zero_threads() {
        let _ = SnippetProfile::new(10, SnippetPhase::Compute, 0.1, 1.0, 0.5, 1.0, 1.0, 0, 0.0);
    }

    #[test]
    fn memory_bound_has_higher_memory_intensity_than_compute_bound() {
        let c = SnippetProfile::compute_bound(1_000_000);
        let m = SnippetProfile::memory_bound(1_000_000);
        assert!(m.memory_intensity() > c.memory_intensity());
    }

    #[test]
    fn idle_profile_is_light_on_memory_and_ilp() {
        let idle = SnippetProfile::idle(5_000_000);
        assert!(
            idle.memory_intensity() < SnippetProfile::compute_bound(5_000_000).memory_intensity()
        );
        assert!(idle.ilp < 1.0);
        let rescaled = idle.clone().with_instructions(10_000_000);
        assert_eq!(rescaled.instructions, 10_000_000);
        assert_eq!(rescaled.ilp, idle.ilp);
    }

    #[test]
    fn derived_counts_scale_with_instructions() {
        let small = SnippetProfile::memory_bound(1_000_000);
        let large = SnippetProfile::memory_bound(10_000_000);
        assert!((large.l2_misses() / small.l2_misses() - 10.0).abs() < 1e-9);
        assert!((large.data_memory_accesses() / small.data_memory_accesses() - 10.0).abs() < 1e-9);
        assert!(
            (large.branch_mispredictions() / small.branch_mispredictions() - 10.0).abs() < 1e-9
        );
    }

    #[test]
    fn amdahl_speedup_bounded_by_thread_count() {
        let p = SnippetProfile::new(1000, SnippetPhase::Mixed, 0.2, 1.0, 0.5, 1.0, 2.0, 4, 0.9);
        let s4 = p.amdahl_speedup(4);
        let s8 = p.amdahl_speedup(8); // capped at the snippet's own thread count
        assert!(s4 > 1.0 && s4 < 4.0);
        assert!((s4 - s8).abs() < 1e-12);
        assert!(p.amdahl_speedup(1) == 1.0);
    }
}
