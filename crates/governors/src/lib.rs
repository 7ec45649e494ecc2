//! Baseline operating-system DVFS governors.
//!
//! The paper's introduction points out that production frequency governors
//! (ondemand, interactive) "increase (or decrease) operating frequency of
//! cores when the utilization of the cores goes above (or below) a predefined
//! threshold" and that these heuristics "leave considerable room for
//! improvement".  This crate implements those heuristics behind the shared
//! [`DvfsPolicy`] interface so they can be compared against the Oracle, the
//! imitation-learning policies and the RL baselines in every experiment.
//!
//! # Example
//!
//! ```
//! use soclearn_governors::OndemandGovernor;
//! use soclearn_soc_sim::{DvfsPolicy, PolicyDecision, SnippetCounters, SocPlatform};
//!
//! let platform = SocPlatform::odroid_xu3();
//! let mut governor = OndemandGovernor::new(&platform);
//! let counters = SnippetCounters { big_cluster_utilization: 0.97, ..Default::default() };
//! let next = governor.decide(&platform, PolicyDecision::new(&counters, platform.min_config(), 0));
//! assert!(next.big_idx > 0, "high utilization must raise the big-cluster frequency");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::Serialize;
use soclearn_soc_sim::{ClusterKind, DvfsConfig, DvfsPolicy, PolicyDecision, SocPlatform};

/// Linux-style *ondemand* governor: jump to maximum frequency when utilization
/// exceeds the up-threshold, step down one level when it falls below the
/// down-threshold.  Each cluster is controlled independently.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OndemandGovernor;

impl OndemandGovernor {
    /// Utilization above which a cluster jumps to its maximum frequency.
    const UP_THRESHOLD: f64 = 0.85;
    /// Utilization below which a cluster steps down one level.
    const DOWN_THRESHOLD: f64 = 0.40;

    /// Creates the governor with 85% / 40% thresholds.  It keeps no state:
    /// each decision starts from the configuration the snippet ran at.
    pub fn new(_platform: &SocPlatform) -> Self {
        Self
    }
}

impl DvfsPolicy for OndemandGovernor {
    fn name(&self) -> &str {
        "ondemand"
    }

    fn decide(&mut self, platform: &SocPlatform, decision: PolicyDecision<'_>) -> DvfsConfig {
        let mut next = decision.current_config;
        let max_little = platform.level_count(ClusterKind::Little) - 1;
        let max_big = platform.level_count(ClusterKind::Big) - 1;

        let little_util = decision.counters.little_cluster_utilization;
        let big_util = decision.counters.big_cluster_utilization;

        if big_util > Self::UP_THRESHOLD {
            next.big_idx = max_big;
        } else if big_util < Self::DOWN_THRESHOLD && next.big_idx > 0 {
            next.big_idx -= 1;
        }
        if little_util > Self::UP_THRESHOLD {
            next.little_idx = max_little;
        } else if little_util < Self::DOWN_THRESHOLD && next.little_idx > 0 {
            next.little_idx -= 1;
        }
        next
    }
}

/// Android-style *interactive* governor: ramps up aggressively (two levels at a
/// time) on load, and decays slowly (one level after several quiet snippets).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct InteractiveGovernor {
    up_threshold: f64,
    down_threshold: f64,
    quiet_snippets: usize,
    quiet_needed: usize,
}

impl InteractiveGovernor {
    /// Creates the governor with 85% / 50% thresholds and a two-snippet decay delay.
    pub fn new() -> Self {
        Self { up_threshold: 0.85, down_threshold: 0.50, quiet_snippets: 0, quiet_needed: 2 }
    }
}

impl Default for InteractiveGovernor {
    fn default() -> Self {
        Self::new()
    }
}

impl DvfsPolicy for InteractiveGovernor {
    fn name(&self) -> &str {
        "interactive"
    }

    fn decide(&mut self, platform: &SocPlatform, decision: PolicyDecision<'_>) -> DvfsConfig {
        let mut next = decision.current_config;
        let max_little = platform.level_count(ClusterKind::Little) - 1;
        let max_big = platform.level_count(ClusterKind::Big) - 1;
        let big_util = decision.counters.big_cluster_utilization;
        let little_util = decision.counters.little_cluster_utilization;

        if big_util > self.up_threshold {
            next.big_idx = (next.big_idx + 2).min(max_big);
            self.quiet_snippets = 0;
        } else if big_util < self.down_threshold {
            self.quiet_snippets += 1;
            if self.quiet_snippets >= self.quiet_needed && next.big_idx > 0 {
                next.big_idx -= 1;
                self.quiet_snippets = 0;
            }
        } else {
            self.quiet_snippets = 0;
        }

        if little_util > self.up_threshold {
            next.little_idx = (next.little_idx + 2).min(max_little);
        } else if little_util < self.down_threshold && next.little_idx > 0 {
            next.little_idx -= 1;
        }
        next
    }
}

/// *performance* governor: always the maximum configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct PerformanceGovernor;

impl DvfsPolicy for PerformanceGovernor {
    fn name(&self) -> &str {
        "performance"
    }

    fn decide(&mut self, platform: &SocPlatform, _decision: PolicyDecision<'_>) -> DvfsConfig {
        platform.max_config()
    }
}

/// *powersave* governor: always the minimum configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct PowersaveGovernor;

impl DvfsPolicy for PowersaveGovernor {
    fn name(&self) -> &str {
        "powersave"
    }

    fn decide(&mut self, platform: &SocPlatform, _decision: PolicyDecision<'_>) -> DvfsConfig {
        platform.min_config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soclearn_soc_sim::{SnippetCounters, SocSimulator};
    use soclearn_workloads::SnippetProfile;

    fn counters(big_util: f64, little_util: f64) -> SnippetCounters {
        SnippetCounters {
            big_cluster_utilization: big_util,
            little_cluster_utilization: little_util,
            ..Default::default()
        }
    }

    #[test]
    fn ondemand_jumps_to_max_on_high_utilization() {
        let platform = SocPlatform::odroid_xu3();
        let mut g = OndemandGovernor::new(&platform);
        let c = counters(0.99, 0.2);
        let next = g.decide(&platform, PolicyDecision::new(&c, DvfsConfig::new(2, 3), 0));
        assert_eq!(next.big_idx, platform.level_count(ClusterKind::Big) - 1);
        assert!(next.little_idx <= 2);
    }

    #[test]
    fn ondemand_steps_down_when_idle() {
        let platform = SocPlatform::odroid_xu3();
        let mut g = OndemandGovernor::new(&platform);
        let c = counters(0.1, 0.05);
        let next = g.decide(&platform, PolicyDecision::new(&c, DvfsConfig::new(3, 6), 0));
        assert_eq!(next.big_idx, 5);
        assert_eq!(next.little_idx, 2);
        // At the floor it stays put.
        let next = g.decide(&platform, PolicyDecision::new(&c, platform.min_config(), 1));
        assert_eq!(next, platform.min_config());
    }

    #[test]
    fn interactive_ramps_faster_than_it_decays() {
        let platform = SocPlatform::odroid_xu3();
        let mut g = InteractiveGovernor::new();
        let busy = counters(0.95, 0.1);
        let idle = counters(0.1, 0.1);
        let up = g.decide(&platform, PolicyDecision::new(&busy, DvfsConfig::new(0, 2), 0));
        assert_eq!(up.big_idx, 4, "interactive ramps two levels at once");
        // One idle snippet is not enough to decay.
        let hold = g.decide(&platform, PolicyDecision::new(&idle, up, 1));
        assert_eq!(hold.big_idx, up.big_idx);
        let down = g.decide(&platform, PolicyDecision::new(&idle, hold, 2));
        assert_eq!(down.big_idx, up.big_idx - 1);
    }

    #[test]
    fn static_governors_pin_extremes() {
        let platform = SocPlatform::odroid_xu3();
        let c = counters(0.5, 0.5);
        let mut perf = PerformanceGovernor;
        let mut save = PowersaveGovernor;
        assert_eq!(
            perf.decide(&platform, PolicyDecision::new(&c, platform.min_config(), 0)),
            platform.max_config()
        );
        assert_eq!(
            save.decide(&platform, PolicyDecision::new(&c, platform.max_config(), 0)),
            platform.min_config()
        );
        assert_eq!(perf.name(), "performance");
        assert_eq!(save.name(), "powersave");
    }

    #[test]
    fn performance_governor_uses_more_energy_than_ondemand_on_memory_bound_work() {
        // Sanity check of the premise "heuristics leave room for improvement":
        // racing at maximum frequency on memory-bound work wastes energy.
        let platform = SocPlatform::odroid_xu3();
        let profiles: Vec<_> = (0..10).map(|_| SnippetProfile::memory_bound(100_000_000)).collect();

        let run = |policy: &mut dyn DvfsPolicy| -> f64 {
            let mut sim = SocSimulator::new(platform.clone());
            let mut config = platform.min_config();
            let mut counters = SnippetCounters::default();
            let mut total = 0.0;
            for (i, p) in profiles.iter().enumerate() {
                config = policy.decide(&platform, PolicyDecision::new(&counters, config, i));
                let result = sim.execute_snippet(p, config);
                counters = result.counters;
                total += result.energy_j;
            }
            total
        };
        let mut ondemand = OndemandGovernor::new(&platform);
        let mut performance = PerformanceGovernor;
        let e_ondemand = run(&mut ondemand);
        let e_performance = run(&mut performance);
        assert!(
            e_ondemand < e_performance,
            "ondemand ({e_ondemand} J) should beat performance ({e_performance} J) on memory-bound work"
        );
    }
}
