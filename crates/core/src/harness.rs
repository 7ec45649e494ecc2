//! Shared policy-evaluation harness.
//!
//! Every CPU-side experiment follows the same loop: a policy observes the
//! counters of the snippet that just executed, picks the configuration for the
//! next snippet, the simulator executes it, and the outcome is fed back to the
//! policy.  [`run_policy`] implements that loop once so the Oracle, governors,
//! IL policies and RL agents are all measured under identical conditions.

use serde::Serialize;
use soclearn_soc_sim::{
    DvfsConfig, DvfsPolicy, PolicyDecision, SnippetCounters, SocPlatform, SocSimulator,
};
use soclearn_workloads::ApplicationSequence;

/// Outcome of one snippet under the harness.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SnippetRecord {
    /// Index of the snippet in the sequence.
    pub index: usize,
    /// Benchmark the snippet belongs to.
    pub benchmark: String,
    /// Configuration chosen by the policy.
    pub config: DvfsConfig,
    /// Energy of the snippet, joules.
    pub energy_j: f64,
    /// Execution time of the snippet, seconds.
    pub time_s: f64,
}

/// Aggregated result of running one policy over a sequence.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HarnessReport {
    /// Name of the policy that produced the run.
    pub policy: String,
    /// Per-snippet records in execution order.
    pub records: Vec<SnippetRecord>,
    /// Total energy over the sequence, joules.
    pub total_energy_j: f64,
    /// Total execution time over the sequence, seconds.
    pub total_time_s: f64,
}

impl HarnessReport {
    /// Total energy of the records belonging to one benchmark.
    pub fn energy_of(&self, benchmark: &str) -> f64 {
        self.records
            .iter()
            .filter(|r| r.benchmark == benchmark)
            .map(|r| r.energy_j)
            .sum()
    }

    /// The chosen configurations in execution order.
    pub fn decisions(&self) -> Vec<DvfsConfig> {
        self.records.iter().map(|r| r.config).collect()
    }

    /// Cumulative execution time after each snippet (useful for time-axis plots
    /// such as Figure 3).
    pub fn cumulative_time_s(&self) -> Vec<f64> {
        let mut acc = 0.0;
        self.records
            .iter()
            .map(|r| {
                acc += r.time_s;
                acc
            })
            .collect()
    }
}

/// Runs `policy` over `sequence` on a fresh simulator for `platform`.
///
/// The policy starts from the platform's maximum configuration (as a real
/// system would after boot) and receives [`DvfsPolicy::observe_outcome`] after
/// every snippet.
pub fn run_policy(
    platform: &SocPlatform,
    policy: &mut dyn DvfsPolicy,
    sequence: &ApplicationSequence,
) -> HarnessReport {
    let mut sim = SocSimulator::new(platform.clone());
    let mut counters = SnippetCounters::default();
    let mut config = platform.max_config();
    let mut records = Vec::with_capacity(sequence.len());
    for snippet in sequence.snippets() {
        config = policy.decide(platform, PolicyDecision::new(&counters, config, snippet.index));
        let result = sim.execute_snippet(&snippet.profile, config);
        policy.observe_outcome(result.energy_j, result.time_s);
        counters = result.counters;
        records.push(SnippetRecord {
            index: snippet.index,
            benchmark: snippet.benchmark.clone(),
            config,
            energy_j: result.energy_j,
            time_s: result.time_s,
        });
    }
    HarnessReport {
        policy: policy.name().to_owned(),
        total_energy_j: records.iter().map(|r| r.energy_j).sum(),
        total_time_s: records.iter().map(|r| r.time_s).sum(),
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soclearn_governors::{OndemandGovernor, PerformanceGovernor};
    use soclearn_workloads::{BenchmarkSuite, SuiteKind};

    fn sequence() -> ApplicationSequence {
        let suite = BenchmarkSuite::generate(SuiteKind::MiBench, 2);
        ApplicationSequence::from_benchmarks(suite.benchmarks().iter().take(2))
    }

    #[test]
    fn harness_accounts_every_snippet() {
        let platform = SocPlatform::odroid_xu3();
        let seq = sequence();
        let mut governor = OndemandGovernor::new(&platform);
        let report = run_policy(&platform, &mut governor, &seq);
        assert_eq!(report.records.len(), seq.len());
        assert_eq!(report.policy, "ondemand");
        let sum: f64 = report.records.iter().map(|r| r.energy_j).sum();
        assert!((sum - report.total_energy_j).abs() < 1e-9);
        let cumulative = report.cumulative_time_s();
        assert_eq!(cumulative.len(), seq.len());
        assert!((cumulative.last().unwrap() - report.total_time_s).abs() < 1e-9);
    }

    #[test]
    fn per_benchmark_energy_partitions_the_total() {
        let platform = SocPlatform::odroid_xu3();
        let seq = sequence();
        let mut governor = PerformanceGovernor;
        let report = run_policy(&platform, &mut governor, &seq);
        let per_benchmark: f64 = seq.benchmark_names().iter().map(|b| report.energy_of(b)).sum();
        assert!((per_benchmark - report.total_energy_j).abs() < 1e-9);
        assert_eq!(report.energy_of("not-a-benchmark"), 0.0);
    }
}
