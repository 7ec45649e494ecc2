//! The policy interface shared by every resource-management approach.
//!
//! Governors, the Oracle, imitation-learning policies and reinforcement-
//! learning agents all implement [`DvfsPolicy`]: after every snippet the
//! runtime hands the policy the counters observed under the *current*
//! configuration and asks which configuration the *next* snippet should run
//! at.  Keeping the trait here (in the simulator crate) lets every policy
//! crate depend on it without depending on each other.

use serde::Serialize;

use crate::counters::SnippetCounters;
use crate::platform::{DvfsConfig, SocPlatform};

/// Context handed to a policy when it must pick the next configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyDecision<'a> {
    /// Counters observed while the previous snippet executed.
    pub counters: &'a SnippetCounters,
    /// Configuration the previous snippet executed at.
    pub current_config: DvfsConfig,
    /// Index of the upcoming snippet within the running sequence.
    pub snippet_index: usize,
}

/// A dynamic resource-management policy choosing per-cluster DVFS levels.
pub trait DvfsPolicy {
    /// Short, human-readable policy name used in experiment reports.
    fn name(&self) -> &str;

    /// Chooses the configuration for the next snippet.
    ///
    /// Implementations must return a configuration that is valid for `platform`.
    fn decide(&mut self, platform: &SocPlatform, decision: PolicyDecision<'_>) -> DvfsConfig;

    /// Gives the policy the outcome of its previous decision (energy in joules and
    /// execution time in seconds).  Learning policies use this to adapt; static
    /// governors ignore it.  The default implementation does nothing.
    fn observe_outcome(&mut self, _energy_j: f64, _time_s: f64) {}
}

impl<'a> PolicyDecision<'a> {
    /// Convenience constructor.
    pub fn new(
        counters: &'a SnippetCounters,
        current_config: DvfsConfig,
        snippet_index: usize,
    ) -> Self {
        Self { counters, current_config, snippet_index }
    }
}

/// A trivial policy that always returns the same configuration; useful as a
/// baseline ("userspace governor") and in tests.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FixedConfigPolicy {
    config: DvfsConfig,
    name: String,
}

impl FixedConfigPolicy {
    /// Creates a policy pinned to `config`.
    pub fn new(config: DvfsConfig) -> Self {
        Self { config, name: format!("fixed{config}") }
    }

    /// The pinned configuration.
    pub fn config(&self) -> DvfsConfig {
        self.config
    }
}

impl DvfsPolicy for FixedConfigPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, platform: &SocPlatform, _decision: PolicyDecision<'_>) -> DvfsConfig {
        assert!(platform.is_valid(self.config), "pinned configuration is invalid for the platform");
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::SocPlatform;

    #[test]
    fn trait_is_object_safe_and_fixed_policy_works() {
        let platform = SocPlatform::odroid_xu3();
        let mut policy: Box<dyn DvfsPolicy> =
            Box::new(FixedConfigPolicy::new(DvfsConfig::new(1, 2)));
        let counters = SnippetCounters::default();
        let decision = PolicyDecision::new(&counters, platform.min_config(), 0);
        assert_eq!(policy.decide(&platform, decision), DvfsConfig::new(1, 2));
        assert!(policy.name().starts_with("fixed"));
        policy.observe_outcome(1.0, 0.1);
    }

    #[test]
    #[should_panic(expected = "invalid for the platform")]
    fn fixed_policy_rejects_invalid_config() {
        let platform = SocPlatform::odroid_xu3();
        let mut policy = FixedConfigPolicy::new(DvfsConfig::new(40, 40));
        let counters = SnippetCounters::default();
        let _ = policy.decide(&platform, PolicyDecision::new(&counters, platform.min_config(), 0));
    }
}
