//! Oracle policy construction.
//!
//! Section IV-A1 of the DAC 2020 paper constructs an *Oracle* offline: each
//! snippet of every training application is executed at every configuration
//! supported by the SoC, and the configuration optimising the target objective
//! (energy, energy-delay product or performance-per-watt) is recorded.  The
//! Oracle is too large to store or compute at run time, which is exactly why
//! the imitation-learning policy approximates it — but it is the reference
//! every experiment normalises against (Table II, Figures 3 and 4).
//!
//! This crate provides:
//!
//! * [`OracleSearch`] — the per-snippet exhaustive search primitive, and
//!   [`OracleSearch::execute_each`], the Oracle over a snippet stream,
//! * [`OracleRun`] — Oracle execution of a snippet sequence (the denominator
//!   of every "normalised energy" number),
//! * [`Demonstration`] / [`collect_demonstrations`] — the (state, optimal
//!   action) pairs used to train imitation-learning policies,
//! * [`OraclePolicy`] — a [`DvfsPolicy`] wrapper replaying precomputed Oracle
//!   decisions through the policy interface.
//!
//! # Example
//!
//! ```
//! use soclearn_oracle::{OracleObjective, OracleSearch};
//! use soclearn_soc_sim::{SocPlatform, SocSimulator};
//! use soclearn_workloads::SnippetProfile;
//!
//! let sim = SocSimulator::new(SocPlatform::odroid_xu3());
//! let search = OracleSearch::new(OracleObjective::Energy);
//! let (best, execution) = search.best_config(&sim, &SnippetProfile::memory_bound(100_000_000));
//! assert!(sim.platform().is_valid(best));
//! assert!(execution.energy_j > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::Serialize;
use soclearn_soc_sim::{
    DvfsConfig, DvfsPolicy, PolicyDecision, SnippetExecution, SocPlatform, SocSimulator,
};
use soclearn_workloads::SnippetProfile;

#[cfg(test)]
mod reference;

/// Objective the Oracle optimises when ranking configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum OracleObjective {
    /// Minimise energy per snippet (the paper's primary objective).
    Energy,
    /// Minimise the energy-delay product.
    EnergyDelayProduct,
    /// Maximise instructions per joule.
    PerformancePerWatt,
}

impl OracleObjective {
    /// Scalar score of an execution under this objective; lower is better.
    pub fn score(&self, execution: &SnippetExecution) -> f64 {
        match self {
            OracleObjective::Energy => execution.energy_j,
            OracleObjective::EnergyDelayProduct => execution.energy_delay_product(),
            OracleObjective::PerformancePerWatt => -execution.instructions_per_joule(),
        }
    }
}

/// Exhaustive per-snippet configuration search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct OracleSearch {
    objective: OracleObjective,
}

impl OracleSearch {
    /// Creates a search for the given objective.
    pub fn new(objective: OracleObjective) -> Self {
        Self { objective }
    }

    /// The objective being optimised.
    pub fn objective(&self) -> OracleObjective {
        self.objective
    }

    /// Evaluates every configuration of the platform for this snippet and returns
    /// the best one together with its (hypothetical) execution result.
    ///
    /// The sweep streams the executions of
    /// [`SocSimulator::for_each_config`] through a running argmin in
    /// [`SocPlatform::configs`] order: a later configuration replaces the
    /// best only with a strictly lower score, so ties go to the earliest
    /// (the first-best-wins rule every Oracle in this repository uses), and
    /// no execution but the best is kept.
    ///
    /// # Panics
    ///
    /// Panics if the platform has no configuration.
    pub fn best_config(
        &self,
        sim: &SocSimulator,
        profile: &SnippetProfile,
    ) -> (DvfsConfig, SnippetExecution) {
        let mut best: Option<(f64, SnippetExecution)> = None;
        sim.for_each_config(profile, |execution| {
            let score = self.objective.score(&execution);
            let improves = best.as_ref().map_or(true, |(best_score, _)| score < *best_score);
            if improves {
                best = Some((score, execution));
            }
        });
        let (_, best) = best.expect("a platform has at least one configuration");
        (best.config, best)
    }

    /// Runs the Oracle over a snippet stream: for each profile in order,
    /// [`OracleSearch::best_config`] at `sim`'s current thermal state, then
    /// [`SocSimulator::commit_snippet`] of the winner (so the thermal state
    /// evolves as it would under the Oracle), then `visit` of the winning
    /// execution.  [`OracleRun::execute`], [`collect_demonstrations`] and
    /// the serving driver's Oracle reference share this loop.
    pub fn execute_each<'a>(
        &self,
        sim: &mut SocSimulator,
        profiles: impl IntoIterator<Item = &'a SnippetProfile>,
        mut visit: impl FnMut(SnippetExecution),
    ) {
        for profile in profiles {
            let (_, execution) = self.best_config(sim, profile);
            sim.commit_snippet(&execution);
            visit(execution);
        }
    }
}

/// Result of executing a snippet sequence under the Oracle policy.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OracleRun {
    /// Objective the Oracle optimised.
    pub objective: OracleObjective,
    /// Per-snippet optimal configurations.
    pub decisions: Vec<DvfsConfig>,
    /// Per-snippet execution results at the optimal configurations.
    pub executions: Vec<SnippetExecution>,
    /// Total energy of the run, joules.
    pub total_energy_j: f64,
    /// Total execution time of the run, seconds.
    pub total_time_s: f64,
}

impl OracleRun {
    /// Executes the snippet sequence with per-snippet exhaustive search, committing
    /// each optimal decision to the simulator (so thermal state evolves as it would
    /// under the Oracle).
    pub fn execute(
        sim: &mut SocSimulator,
        profiles: &[SnippetProfile],
        objective: OracleObjective,
    ) -> Self {
        let mut executions = Vec::with_capacity(profiles.len());
        OracleSearch::new(objective).execute_each(sim, profiles, |execution| {
            executions.push(execution);
        });
        let decisions = executions.iter().map(|e| e.config).collect();
        let total_energy_j = executions.iter().map(|e| e.energy_j).sum();
        let total_time_s = executions.iter().map(|e| e.time_s).sum();
        Self { objective, decisions, executions, total_energy_j, total_time_s }
    }
}

/// One imitation-learning demonstration: the state observed after a snippet and
/// the Oracle-optimal configuration for the following snippet.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Demonstration {
    /// Normalised counter features observed while the previous snippet executed.
    pub features: Vec<f64>,
    /// Configuration the previous snippet executed at.
    pub previous_config: DvfsConfig,
    /// Oracle-optimal configuration for the upcoming snippet.
    pub action: DvfsConfig,
}

/// Collects imitation-learning demonstrations by running the Oracle over a
/// snippet sequence.
///
/// The state for deciding snippet `i` is the counter vector observed while
/// snippet `i-1` executed (at its Oracle configuration), exactly matching the
/// information available to a runtime policy.  The first snippet has no
/// predecessor and is skipped.
pub fn collect_demonstrations(
    sim: &mut SocSimulator,
    profiles: &[SnippetProfile],
    objective: OracleObjective,
) -> Vec<Demonstration> {
    let mut demonstrations = Vec::new();
    let mut previous: Option<SnippetExecution> = None;
    OracleSearch::new(objective).execute_each(sim, profiles, |execution| {
        if let Some(prev) = &previous {
            demonstrations.push(Demonstration {
                features: prev.counters.normalized_features(),
                previous_config: prev.config,
                action: execution.config,
            });
        }
        previous = Some(execution);
    });
    demonstrations
}

/// A [`DvfsPolicy`] that replays precomputed Oracle decisions by snippet index,
/// so "the Oracle" runs through the same interface as every learned policy.
/// The experiments normalise against [`OracleRun`] totals instead; the serving
/// driver's tests replay it to check that the Oracle agrees with itself.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OraclePolicy {
    decisions: Vec<DvfsConfig>,
    fallback: DvfsConfig,
}

impl OraclePolicy {
    /// Creates a policy replaying `decisions[i]` for snippet `i`; indices beyond the
    /// precomputed range fall back to `fallback`.
    pub fn new(decisions: Vec<DvfsConfig>, fallback: DvfsConfig) -> Self {
        Self { decisions, fallback }
    }

    /// Creates the policy from an [`OracleRun`].
    pub fn from_run(run: &OracleRun, fallback: DvfsConfig) -> Self {
        Self::new(run.decisions.clone(), fallback)
    }

    /// The replayed decisions.
    pub fn decisions(&self) -> &[DvfsConfig] {
        &self.decisions
    }
}

impl DvfsPolicy for OraclePolicy {
    fn name(&self) -> &str {
        "oracle"
    }

    fn decide(&mut self, platform: &SocPlatform, decision: PolicyDecision<'_>) -> DvfsConfig {
        let config = self.decisions.get(decision.snippet_index).copied().unwrap_or(self.fallback);
        assert!(platform.is_valid(config), "oracle decision invalid for platform");
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soclearn_soc_sim::SnippetCounters;
    use soclearn_workloads::{BenchmarkSuite, SuiteKind};

    fn small_sim() -> SocSimulator {
        SocSimulator::new(SocPlatform::small())
    }

    #[test]
    fn oracle_beats_or_matches_every_fixed_configuration() {
        let mut sim = small_sim();
        let suite = BenchmarkSuite::generate(SuiteKind::MiBench, 5);
        let profiles: Vec<_> = suite.benchmarks()[1].snippets().to_vec();
        let oracle = OracleRun::execute(&mut sim, &profiles, OracleObjective::Energy);
        for config in SocPlatform::small().configs() {
            let mut fixed_sim = small_sim();
            let results = fixed_sim.execute_sequence(&profiles, config);
            let fixed_energy: f64 = results.iter().map(|r| r.energy_j).sum();
            assert!(
                oracle.total_energy_j <= fixed_energy * 1.0001,
                "oracle {} J should not exceed fixed {config} {} J",
                oracle.total_energy_j,
                fixed_energy
            );
        }
    }

    #[test]
    fn objective_changes_the_chosen_configuration() {
        let sim = small_sim();
        let memory = SnippetProfile::memory_bound(100_000_000);
        let energy_best = OracleSearch::new(OracleObjective::Energy).best_config(&sim, &memory).0;
        let edp_best = OracleSearch::new(OracleObjective::EnergyDelayProduct)
            .best_config(&sim, &memory)
            .0;
        // EDP weights delay, so it must never pick a lower big frequency than the
        // pure-energy objective for the same snippet.
        assert!(edp_best.big_idx >= energy_best.big_idx);
    }

    #[test]
    fn demonstrations_align_states_and_actions() {
        let mut sim = small_sim();
        let suite = BenchmarkSuite::generate(SuiteKind::Cortex, 3);
        let profiles: Vec<_> = suite.benchmarks()[0].snippets().to_vec();
        let demos = collect_demonstrations(&mut sim, &profiles, OracleObjective::Energy);
        assert_eq!(demos.len(), profiles.len() - 1);
        assert!(demos
            .iter()
            .all(|d| d.features.len() == SnippetCounters::NORMALIZED_FEATURE_DIM));
        assert!(demos.iter().all(|d| SocPlatform::small().is_valid(d.action)));
    }

    #[test]
    fn demonstrations_follow_the_oracle_run() {
        let suite = BenchmarkSuite::generate(SuiteKind::Parsec, 4);
        let profiles: Vec<_> = suite.benchmarks()[0].snippets().to_vec();
        let run = OracleRun::execute(&mut small_sim(), &profiles, OracleObjective::Energy);
        let demos = collect_demonstrations(&mut small_sim(), &profiles, OracleObjective::Energy);
        assert_eq!(demos.len(), run.decisions.len() - 1);
        for (i, demo) in demos.iter().enumerate() {
            assert_eq!(demo.features, run.executions[i].counters.normalized_features());
            assert_eq!(demo.previous_config, run.decisions[i]);
            assert_eq!(demo.action, run.decisions[i + 1]);
        }
    }

    #[test]
    fn oracle_policy_replays_decisions() {
        let mut sim = small_sim();
        let profiles = vec![
            SnippetProfile::compute_bound(100_000_000),
            SnippetProfile::memory_bound(100_000_000),
        ];
        let run = OracleRun::execute(&mut sim, &profiles, OracleObjective::Energy);
        let platform = SocPlatform::small();
        let mut policy = OraclePolicy::from_run(&run, platform.min_config());
        let counters = SnippetCounters::default();
        for (i, expected) in run.decisions.iter().enumerate() {
            let got =
                policy.decide(&platform, PolicyDecision::new(&counters, platform.min_config(), i));
            assert_eq!(got, *expected);
        }
        // Out-of-range index falls back.
        let fallback =
            policy.decide(&platform, PolicyDecision::new(&counters, platform.min_config(), 99));
        assert_eq!(fallback, platform.min_config());
        assert_eq!(policy.name(), "oracle");
    }

    #[test]
    fn memory_bound_oracle_prefers_lower_big_frequency_than_compute_bound() {
        let sim = SocSimulator::new(SocPlatform::odroid_xu3());
        let search = OracleSearch::new(OracleObjective::Energy);
        let compute = search.best_config(&sim, &SnippetProfile::compute_bound(100_000_000)).0;
        let memory = search.best_config(&sim, &SnippetProfile::memory_bound(100_000_000)).0;
        assert!(memory.big_idx < compute.big_idx);
    }
}
