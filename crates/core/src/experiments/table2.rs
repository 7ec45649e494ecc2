//! Table II — energy of an offline IL policy normalised to the Oracle.
//!
//! The policy is trained on Mi-Bench-like applications only and then evaluated
//! per application on Mi-Bench, Cortex and PARSEC-like suites.  The paper
//! reports ratios of ≈1.00 on the training suite, 1.09–1.13 on Cortex and
//! 1.47–1.86 on PARSEC; the reproduction should show the same ordering
//! (training suite ≈ Oracle, unseen suites progressively worse).

use serde::Serialize;
use soclearn_oracle::{OracleObjective, OracleRun};
use soclearn_runtime::{scaled_suite, sequence_of, shared_artifacts};
use soclearn_soc_sim::{SocPlatform, SocSimulator};
use soclearn_workloads::SuiteKind;

use super::ExperimentScale;
use crate::harness::run_policy;

/// One row of the reproduced Table II.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Table2Row {
    /// Suite the application belongs to.
    pub suite: String,
    /// Application name.
    pub benchmark: String,
    /// Energy of the offline IL policy normalised to the Oracle (1.0 = optimal).
    pub normalized_energy: f64,
}

/// The reproduced Table II.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Table2Result {
    /// Per-application rows in suite order.
    pub rows: Vec<Table2Row>,
}

impl Table2Result {
    /// Mean normalised energy of one suite.
    pub fn suite_mean(&self, suite: &str) -> f64 {
        let values: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.suite == suite)
            .map(|r| r.normalized_energy)
            .collect();
        if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        }
    }

    /// Renders the table in the same layout as the paper.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.suite.clone(),
                    r.benchmark.clone(),
                    crate::report::ratio(r.normalized_energy),
                ]
            })
            .collect();
        crate::report::render_table(
            "Table II: energy normalised to the Oracle (offline IL trained on Mi-Bench)",
            &["Suite", "Benchmark", "Normalized energy"],
            &rows,
        )
    }
}

/// Regenerates Table II.
pub fn offline_il_generalization(scale: ExperimentScale) -> Table2Result {
    let platform = SocPlatform::odroid_xu3();
    let artifacts = shared_artifacts(&platform, scale);

    let mut rows = Vec::new();
    for suite_kind in SuiteKind::ALL {
        let benchmarks = scaled_suite(suite_kind, scale);
        for (name, snippets) in &benchmarks {
            // Evaluate per application, exactly like the paper's table.
            let single = vec![(name.clone(), snippets.clone())];
            let sequence = sequence_of(&single, suite_kind);
            let mut policy = artifacts.tree_policy.clone();
            let report = run_policy(&platform, &mut policy, &sequence);
            let mut oracle_sim = SocSimulator::new(platform.clone());
            let oracle = OracleRun::execute(&mut oracle_sim, snippets, OracleObjective::Energy);
            rows.push(Table2Row {
                suite: suite_kind.name().to_owned(),
                benchmark: name.clone(),
                normalized_energy: report.total_energy_j / oracle.total_energy_j,
            });
        }
    }
    Table2Result { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_shows_the_generalisation_gap() {
        let result = offline_il_generalization(ExperimentScale::Quick);
        assert!(!result.rows.is_empty());
        let mibench = result.suite_mean("Mi-Bench");
        let cortex = result.suite_mean("Cortex");
        let parsec = result.suite_mean("PARSEC");
        assert!(mibench < 1.15, "training-suite energy should be near the Oracle ({mibench:.2})");
        assert!(
            parsec > mibench,
            "unseen PARSEC ({parsec:.2}) should be worse than the training suite ({mibench:.2})"
        );
        assert!(cortex >= mibench * 0.98, "Cortex should not beat the training suite materially");
        // Every ratio is at least (numerically) the Oracle.
        assert!(result.rows.iter().all(|r| r.normalized_energy > 0.98));
        let rendered = result.render();
        assert!(rendered.contains("Normalized energy"));
    }
}
