//! Figure 4 — per-benchmark energy of online-IL and RL normalised to the Oracle.
//!
//! Both policies are bootstrapped offline on the Mi-Bench-like suite; the
//! Mi-Bench applications are then replayed (the "offline" group of the figure)
//! followed by the Cortex and PARSEC applications (the "online" group), with
//! both policies adapting continuously.  The paper reports online-IL staying
//! at ≈1.0× the Oracle everywhere while RL reaches up to 1.4×.

use serde::Serialize;
use soclearn_imitation::OnlineIlConfig;
use soclearn_oracle::{OracleObjective, OracleRun};
use soclearn_rl::QTableAgent;
use soclearn_runtime::{scaled_suite, sequence_of, shared_artifacts};
use soclearn_soc_sim::{DvfsPolicy, SocPlatform, SocSimulator};
use soclearn_workloads::SuiteKind;

use super::ExperimentScale;
use crate::harness::run_policy;

/// One bar group of Figure 4.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig4Row {
    /// Application name.
    pub benchmark: String,
    /// Whether the application was part of the offline training set.
    pub offline_group: bool,
    /// Energy of online-IL normalised to the Oracle.
    pub online_il: f64,
    /// Energy of the RL agent normalised to the Oracle.
    pub rl: f64,
}

/// The reproduced Figure 4.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig4Result {
    /// Per-application rows (Mi-Bench first, then Cortex and PARSEC).
    pub rows: Vec<Fig4Row>,
}

impl Fig4Result {
    /// Maximum normalised energy reached by each policy.
    pub fn worst_case(&self) -> (f64, f64) {
        let il = self.rows.iter().map(|r| r.online_il).fold(0.0, f64::max);
        let rl = self.rows.iter().map(|r| r.rl).fold(0.0, f64::max);
        (il, rl)
    }

    /// Renders the figure's data as a table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.benchmark.clone(),
                    if r.offline_group { "offline" } else { "online" }.to_owned(),
                    crate::report::ratio(r.online_il),
                    crate::report::ratio(r.rl),
                ]
            })
            .collect();
        crate::report::render_table(
            "Figure 4: energy normalised to the Oracle",
            &["Benchmark", "Group", "Online-IL", "RL"],
            &rows,
        )
    }
}

/// Regenerates Figure 4.
pub fn energy_comparison(scale: ExperimentScale) -> Fig4Result {
    let platform = SocPlatform::odroid_xu3();
    let artifacts = shared_artifacts(&platform, scale);

    let mut online_il: Box<dyn DvfsPolicy> = Box::new(
        artifacts.online_policy(OnlineIlConfig { buffer_capacity: 15, neighbourhood_radius: 2 }),
    );
    let mut rl: Box<dyn DvfsPolicy> = Box::new(QTableAgent::new(&platform));

    let mut rows = Vec::new();
    for suite_kind in SuiteKind::ALL {
        let benchmarks = scaled_suite(suite_kind, scale);
        for (name, snippets) in &benchmarks {
            let single = vec![(name.clone(), snippets.clone())];
            let sequence = sequence_of(&single, suite_kind);
            // Policies keep their adapted state across applications, exactly as in
            // the paper's continuous run.
            let il_report = run_policy(&platform, online_il.as_mut(), &sequence);
            let rl_report = run_policy(&platform, rl.as_mut(), &sequence);
            let mut oracle_sim = SocSimulator::new(platform.clone());
            let oracle = OracleRun::execute(&mut oracle_sim, snippets, OracleObjective::Energy);
            rows.push(Fig4Row {
                benchmark: name.clone(),
                offline_group: suite_kind == SuiteKind::MiBench,
                online_il: il_report.total_energy_j / oracle.total_energy_j,
                rl: rl_report.total_energy_j / oracle.total_energy_j,
            });
        }
    }
    Fig4Result { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_il_stays_closer_to_oracle_than_rl() {
        let result = energy_comparison(ExperimentScale::Quick);
        assert_eq!(result.rows.len(), 16, "ten Mi-Bench + four Cortex + two PARSEC apps");
        let il_mean: f64 =
            result.rows.iter().map(|r| r.online_il).sum::<f64>() / result.rows.len() as f64;
        let rl_mean: f64 = result.rows.iter().map(|r| r.rl).sum::<f64>() / result.rows.len() as f64;
        assert!(
            il_mean < rl_mean,
            "online-IL mean ({il_mean:.2}) should beat RL mean ({rl_mean:.2})"
        );
        let (il_worst, rl_worst) = result.worst_case();
        // At quick scale each application is only a handful of snippets, so the
        // adaptation transient right after the suite switch dominates the worst
        // case; it must still stay bounded.
        assert!(il_worst < 2.0, "worst case IL {il_worst:.2} (RL worst {rl_worst:.2})");
        assert!(il_mean < 1.30, "online-IL should track the Oracle closely ({il_mean:.2})");
        assert!(result.render().contains("Online-IL"));
    }
}
