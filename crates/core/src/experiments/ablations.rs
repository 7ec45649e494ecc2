//! Ablation studies of the online-IL policy.
//!
//! * **A1 — aggregation-buffer size**: the paper states that a buffer of about
//!   100 entries achieves close to 100% adaptation accuracy at under 20 KB of
//!   storage.  [`buffer_ablation`] sweeps the buffer size and reports
//!   adaptation quality (energy versus the Oracle) and memory footprint.
//! * **A2 — controller decision overhead**: every policy family is timed on the
//!   same decision stream to substantiate the firmware-implementability
//!   argument (IL and explicit NMPC must be orders of magnitude cheaper than
//!   exhaustive search).

use std::time::Instant;

use serde::{Deserialize, Serialize};
use soclearn_governors::OndemandGovernor;
use soclearn_imitation::OnlineIlConfig;
use soclearn_rl::{QTableAgent, RlConfig};
use soclearn_soc_sim::{DvfsPolicy, PolicyDecision, SnippetCounters, SocPlatform, SocSimulator};
use soclearn_workloads::SuiteKind;

use super::helpers::{experiment_artifacts, profiles_of, scaled_suite, sequence_of};
use super::ExperimentScale;
use crate::harness::run_policy;

/// One row of the buffer-size ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    let artifacts = experiment_artifacts(&platform, scale);
    let mut benchmarks = scaled_suite(SuiteKind::Cortex, scale);
    benchmarks.extend(scaled_suite(SuiteKind::Parsec, scale));
    let profiles = profiles_of(&benchmarks);
    let sequence = sequence_of(&benchmarks, SuiteKind::Cortex);
    let oracle = artifacts.oracle_run(&profiles);

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

/// One row of the decision-overhead ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverheadRow {
    /// Policy name.
    pub policy: String,
    /// Mean decision latency in nanoseconds.
    pub mean_decision_ns: f64,
}

/// Regenerates the controller-overhead ablation (A2).
pub fn overhead_ablation(scale: ExperimentScale) -> Vec<OverheadRow> {
    let platform = SocPlatform::odroid_xu3();
    let artifacts = experiment_artifacts(&platform, scale);
    let benchmarks = scaled_suite(SuiteKind::Cortex, scale);
    let profiles = profiles_of(&benchmarks);

    // Pre-compute the counter stream once (identical inputs for every policy).
    let sim = SocSimulator::new(platform.clone());
    let counter_stream: Vec<SnippetCounters> = profiles
        .iter()
        .map(|p| sim.evaluate_snippet(p, platform.max_config()).counters)
        .collect();

    let mut policies: Vec<Box<dyn DvfsPolicy>> = vec![
        Box::new(OndemandGovernor::new(&platform)),
        Box::new(artifacts.tree_policy.clone()),
        Box::new(artifacts.online_policy(OnlineIlConfig::default())),
        Box::new(QTableAgent::new(&platform, RlConfig::default())),
    ];

    policies
        .iter_mut()
        .map(|policy| {
            let start = Instant::now();
            let mut config = platform.max_config();
            for (i, counters) in counter_stream.iter().enumerate() {
                config = policy.decide(&platform, PolicyDecision::new(counters, config, i));
                policy.observe_outcome(0.5, 0.05);
            }
            let elapsed = start.elapsed();
            OverheadRow {
                policy: policy.name().to_owned(),
                mean_decision_ns: elapsed.as_nanos() as f64 / counter_stream.len().max(1) as f64,
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
                row.mean_decision_ns < 5_000_000.0,
                "{} decision latency {} ns is not firmware-plausible",
                row.policy,
                row.mean_decision_ns
            );
        }
        // The simple governor must be the cheapest of the learned policies by a wide
        // margin — this is the complexity ordering the paper argues from.
        let governor = rows.iter().find(|r| r.policy == "ondemand").unwrap();
        let online_il = rows.iter().find(|r| r.policy == "online-il").unwrap();
        assert!(governor.mean_decision_ns < online_il.mean_decision_ns);
    }
}
