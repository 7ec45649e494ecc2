//! Ablation studies of the online-IL policy.
//!
//! * **A1 — aggregation-buffer size**: the paper states that a buffer of about
//!   100 entries achieves close to 100% adaptation accuracy at under 20 KB of
//!   storage.  [`buffer_ablation`] sweeps the buffer size and reports
//!   adaptation quality (energy versus the Oracle) and memory footprint.
//! * **A2 — controller decision overhead**: every policy family is timed on the
//!   same decision stream to substantiate the firmware-implementability
//!   argument (IL and explicit NMPC must be orders of magnitude cheaper than
//!   exhaustive search).  One pass's mean moved by up to 2x between runs of
//!   one binary, so each policy is timed over [`OVERHEAD_PASSES`] passes, each
//!   on a fresh policy, and reported as the median pass with the fastest and
//!   slowest.  The level can still move between processes, so comparing two
//!   builds takes several runs of each.

use std::time::Instant;

use serde::Serialize;
use soclearn_governors::OndemandGovernor;
use soclearn_imitation::OnlineIlConfig;
use soclearn_oracle::{OracleObjective, OracleRun};
use soclearn_rl::QTableAgent;
use soclearn_runtime::{profiles_of, scaled_suite, sequence_of, shared_artifacts};
use soclearn_soc_sim::{DvfsPolicy, PolicyDecision, SnippetCounters, SocPlatform, SocSimulator};
use soclearn_workloads::SuiteKind;

use super::ExperimentScale;
use crate::harness::run_policy;

/// One row of the buffer-size ablation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BufferAblationRow {
    /// Aggregation-buffer capacity (entries).
    pub buffer_capacity: usize,
    /// Energy of the adapted policy normalised to the Oracle.
    pub normalized_energy: f64,
    /// Peak buffer storage in bytes.
    pub peak_buffer_bytes: usize,
    /// Number of policy re-training events during the run.
    pub policy_updates: usize,
}

/// Regenerates the aggregation-buffer ablation (A1).
pub fn buffer_ablation(scale: ExperimentScale, capacities: &[usize]) -> Vec<BufferAblationRow> {
    let platform = SocPlatform::odroid_xu3();
    let artifacts = shared_artifacts(&platform, scale);
    let mut benchmarks = scaled_suite(SuiteKind::Cortex, scale);
    benchmarks.extend(scaled_suite(SuiteKind::Parsec, scale));
    let profiles = profiles_of(&benchmarks);
    let sequence = sequence_of(&benchmarks, SuiteKind::Cortex);
    let mut oracle_sim = SocSimulator::new(platform.clone());
    let oracle = OracleRun::execute(&mut oracle_sim, &profiles, OracleObjective::Energy);

    capacities
        .iter()
        .map(|&capacity| {
            let mut policy = artifacts.online_policy(OnlineIlConfig {
                buffer_capacity: capacity,
                ..OnlineIlConfig::default()
            });
            let report = run_policy(&platform, &mut policy, &sequence);
            let stats = policy.stats();
            BufferAblationRow {
                buffer_capacity: capacity,
                normalized_energy: report.total_energy_j / oracle.total_energy_j,
                // The peak footprint is one full buffer of feature/label pairs.
                peak_buffer_bytes: capacity
                    * (soclearn_imitation::features::POLICY_FEATURE_DIM
                        * std::mem::size_of::<f64>()
                        + 2 * std::mem::size_of::<usize>()),
                policy_updates: stats.policy_updates,
            }
        })
        .collect()
}

/// Timed passes over the counter stream per policy in [`overhead_ablation`].
pub const OVERHEAD_PASSES: usize = 7;

/// One row of the decision-overhead ablation.  A pass's latency is its mean
/// decision latency over the whole counter stream.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OverheadRow {
    /// Policy name.
    pub policy: String,
    /// Median pass's decision latency in nanoseconds.
    pub median_decision_ns: f64,
    /// Fastest pass's decision latency in nanoseconds.
    pub min_decision_ns: f64,
    /// Slowest pass's decision latency in nanoseconds.
    pub max_decision_ns: f64,
}

/// Regenerates the controller-overhead ablation (A2).
pub fn overhead_ablation(scale: ExperimentScale) -> Vec<OverheadRow> {
    let platform = SocPlatform::odroid_xu3();
    let artifacts = shared_artifacts(&platform, scale);
    let benchmarks = scaled_suite(SuiteKind::Cortex, scale);
    let profiles = profiles_of(&benchmarks);

    // Pre-compute the counter stream once (identical inputs for every policy).
    let sim = SocSimulator::new(platform.clone());
    let counter_stream: Vec<SnippetCounters> = profiles
        .iter()
        .map(|p| sim.evaluate_snippet(p, platform.max_config()).counters)
        .collect();

    let policies: [&dyn Fn() -> Box<dyn DvfsPolicy>; 4] = [
        &|| Box::new(OndemandGovernor::new(&platform)),
        &|| Box::new(artifacts.tree_policy.clone()),
        &|| Box::new(artifacts.online_policy(OnlineIlConfig::default())),
        &|| Box::new(QTableAgent::new(&platform)),
    ];

    policies
        .iter()
        .map(|fresh| {
            let mut passes = [0.0; OVERHEAD_PASSES];
            for pass in &mut passes {
                let mut policy = fresh();
                let start = Instant::now();
                let mut config = platform.max_config();
                for (i, counters) in counter_stream.iter().enumerate() {
                    config = policy.decide(&platform, PolicyDecision::new(counters, config, i));
                    policy.observe_outcome(0.5, 0.05);
                }
                *pass = start.elapsed().as_nanos() as f64 / counter_stream.len().max(1) as f64;
            }
            passes.sort_by(f64::total_cmp);
            OverheadRow {
                policy: fresh().name().to_owned(),
                median_decision_ns: passes[OVERHEAD_PASSES / 2],
                min_decision_ns: passes[0],
                max_decision_ns: passes[OVERHEAD_PASSES - 1],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_buffers_stay_under_the_paper_storage_bound() {
        let rows = buffer_ablation(ExperimentScale::Quick, &[10, 50, 100]);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.normalized_energy > 0.95 && row.normalized_energy < 2.0);
        }
        let hundred = rows.iter().find(|r| r.buffer_capacity == 100).unwrap();
        assert!(
            hundred.peak_buffer_bytes < 20_000,
            "100-entry buffer should stay under 20 KB ({} B)",
            hundred.peak_buffer_bytes
        );
        // Smaller buffers flush (and therefore retrain) at least as often.
        let ten = rows.iter().find(|r| r.buffer_capacity == 10).unwrap();
        assert!(ten.policy_updates >= hundred.policy_updates);
    }

    #[test]
    fn decision_overhead_is_firmware_scale() {
        let rows = overhead_ablation(ExperimentScale::Quick);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(
                row.median_decision_ns < 5_000_000.0,
                "{} decision latency {} ns is not firmware-plausible",
                row.policy,
                row.median_decision_ns
            );
            assert!(row.min_decision_ns <= row.median_decision_ns);
            assert!(row.median_decision_ns <= row.max_decision_ns);
        }
        // The simple governor must be the cheapest of the learned policies by a wide
        // margin — this is the complexity ordering the paper argues from.
        let governor = rows.iter().find(|r| r.policy == "ondemand").unwrap();
        let online_il = rows.iter().find(|r| r.policy == "online-il").unwrap();
        assert!(governor.median_decision_ns < online_il.median_decision_ns);
    }
}
