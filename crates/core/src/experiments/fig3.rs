//! Figure 3 — convergence of online-IL and RL to the Oracle's big-cluster
//! frequency decisions while a sequence of unseen applications executes.
//!
//! Both policies start from their offline bootstrap (Mi-Bench-like training)
//! and adapt while Cortex- and PARSEC-like applications run back to back.  The
//! paper shows online-IL reaching ≈100% accuracy within ~6 s (about 4% of the
//! sequence) while RL fails to converge within the whole 150 s run.

use serde::Serialize;
use soclearn_imitation::OnlineIlConfig;
use soclearn_oracle::{OracleObjective, OracleRun};
use soclearn_rl::QTableAgent;
use soclearn_runtime::{profiles_of, scaled_suite, sequence_of, shared_artifacts};
use soclearn_soc_sim::{SocPlatform, SocSimulator};
use soclearn_workloads::SuiteKind;

use super::ExperimentScale;
use crate::harness::run_policy;

/// Accuracy-over-time series of one policy.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ConvergenceSeries {
    /// Policy name.
    pub policy: String,
    /// Cumulative execution time after each snippet, seconds.
    pub time_s: Vec<f64>,
    /// Windowed accuracy (fraction of the last [`ACCURACY_WINDOW`] decisions
    /// whose big-cluster frequency matches the Oracle) after each snippet.
    pub accuracy: Vec<f64>,
    /// Time at which the accuracy over a full window first reaches 90%, if
    /// ever.
    pub time_to_90_percent_s: Option<f64>,
}

/// The reproduced Figure 3.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig3Result {
    /// Online-IL convergence series.
    pub online_il: ConvergenceSeries,
    /// RL convergence series.
    pub rl: ConvergenceSeries,
    /// Total execution time of the Oracle over the sequence, seconds.
    pub sequence_time_s: f64,
}

/// Decisions in the sliding window [`ConvergenceSeries::accuracy`] averages.
pub const ACCURACY_WINDOW: usize = 10;

fn windowed_accuracy(matches: &[bool], window: usize) -> Vec<f64> {
    (0..matches.len())
        .map(|i| {
            let start = i.saturating_sub(window - 1);
            let slice = &matches[start..=i];
            slice.iter().filter(|&&m| m).count() as f64 / slice.len() as f64
        })
        .collect()
}

fn series_for(
    name: &str,
    decisions: &[soclearn_soc_sim::DvfsConfig],
    oracle: &[soclearn_soc_sim::DvfsConfig],
    time_s: Vec<f64>,
) -> ConvergenceSeries {
    let matches: Vec<bool> =
        decisions.iter().zip(oracle).map(|(d, o)| d.big_idx == o.big_idx).collect();
    let accuracy = windowed_accuracy(&matches, ACCURACY_WINDOW);
    // Before the window fills, one lucky first decision reads as 100%.
    let time_to_90_percent_s = accuracy
        .iter()
        .enumerate()
        .skip(ACCURACY_WINDOW - 1)
        .find(|&(_, &a)| a >= 0.9)
        .map(|(i, _)| time_s[i]);
    ConvergenceSeries { policy: name.to_owned(), time_s, accuracy, time_to_90_percent_s }
}

/// Regenerates Figure 3.
pub fn convergence_comparison(scale: ExperimentScale) -> Fig3Result {
    let platform = SocPlatform::odroid_xu3();
    let artifacts = shared_artifacts(&platform, scale);

    // The adaptation sequence: Cortex followed by PARSEC applications.
    let mut benchmarks = scaled_suite(SuiteKind::Cortex, scale);
    benchmarks.extend(scaled_suite(SuiteKind::Parsec, scale));
    let profiles = profiles_of(&benchmarks);
    let sequence = sequence_of(&benchmarks, SuiteKind::Cortex);

    let mut oracle_sim = SocSimulator::new(platform.clone());
    let oracle = OracleRun::execute(&mut oracle_sim, &profiles, OracleObjective::Energy);

    let mut online_il =
        artifacts.online_policy(OnlineIlConfig { buffer_capacity: 15, neighbourhood_radius: 2 });
    let il_report = run_policy(&platform, &mut online_il, &sequence);

    let mut rl = QTableAgent::new(&platform);
    let rl_report = run_policy(&platform, &mut rl, &sequence);

    Fig3Result {
        online_il: series_for(
            "online-il",
            &il_report.decisions(),
            &oracle.decisions,
            il_report.cumulative_time_s(),
        ),
        rl: series_for(
            "rl",
            &rl_report.decisions(),
            &oracle.decisions,
            rl_report.cumulative_time_s(),
        ),
        sequence_time_s: oracle.total_time_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_il_converges_faster_and_higher_than_rl() {
        let result = convergence_comparison(ExperimentScale::Quick);
        let il_final = *result.online_il.accuracy.last().unwrap();
        let rl_final = *result.rl.accuracy.last().unwrap();
        let il_mean: f64 =
            result.online_il.accuracy.iter().sum::<f64>() / result.online_il.accuracy.len() as f64;
        let rl_mean: f64 = result.rl.accuracy.iter().sum::<f64>() / result.rl.accuracy.len() as f64;
        assert!(
            il_mean > rl_mean,
            "online-IL mean accuracy ({il_mean:.2}) should exceed RL ({rl_mean:.2})"
        );
        assert!(il_final >= rl_final, "final accuracy: IL {il_final:.2} vs RL {rl_final:.2}");
        // Online-IL reaches high accuracy at some point in the run; RL typically
        // does not within this window.
        assert!(
            result.online_il.accuracy.iter().any(|&a| a >= 0.9),
            "online-IL should reach 90% accuracy during the sequence"
        );
        assert_eq!(result.online_il.time_s.len(), result.online_il.accuracy.len());
        assert!(result.sequence_time_s > 0.0);
    }

    #[test]
    fn time_to_90_percent_counts_only_full_windows() {
        use soclearn_soc_sim::DvfsConfig;
        // Three matches, seven misses, then fifteen matches: the partial
        // windows at the start read 100%, the first full one 30%, and the
        // window ending at decision 18 is the first full one at 90%.
        let oracle = vec![DvfsConfig::new(0, 3); 25];
        let decisions: Vec<DvfsConfig> = (0..25)
            .map(|i| if (3..10).contains(&i) { DvfsConfig::new(0, 1) } else { oracle[i] })
            .collect();
        let time_s: Vec<f64> = (1..=25).map(|i| f64::from(i) * 0.5).collect();
        let series = series_for("probe", &decisions, &oracle, time_s.clone());
        assert_eq!(series.accuracy[0], 1.0);
        assert_eq!(series.accuracy[ACCURACY_WINDOW - 1], 0.3);
        assert_eq!(series.time_to_90_percent_s, Some(time_s[18]));
    }

    #[test]
    fn windowed_accuracy_is_well_formed() {
        let acc = windowed_accuracy(&[true, false, true, true], 2);
        assert_eq!(acc, vec![1.0, 0.5, 0.5, 1.0]);
    }
}
