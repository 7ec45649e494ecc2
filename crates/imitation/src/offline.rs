//! Offline imitation-learning policy.
//!
//! The offline policy approximates the Oracle with two supervised classifiers,
//! one per control knob (LITTLE-cluster frequency level and big-cluster
//! frequency level), trained on Oracle demonstrations collected at design
//! time.  Decision-tree and neural-network variants are provided, mirroring
//! the models used by the paper's references \[18\] and \[13\].

use serde::Serialize;
use soclearn_online_learning::mlp::{Mlp, MlpBuilder};
use soclearn_online_learning::scaler::StandardScaler;
use soclearn_online_learning::tree::DecisionTreeClassifier;
use soclearn_oracle::Demonstration;
use soclearn_soc_sim::{ClusterKind, DvfsConfig, DvfsPolicy, PolicyDecision, SocPlatform};

use crate::features::{policy_features, with_config_terms, POLICY_FEATURE_DIM};

/// Hidden units of each policy network.
pub const POLICY_HIDDEN_UNITS: usize = 24;

/// A policy network: one hidden layer over the policy features, one class
/// per frequency level of its cluster.
pub type PolicyNetwork = Mlp<POLICY_FEATURE_DIM, POLICY_HIDDEN_UNITS>;

/// Which supervised model backs the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum PolicyModelKind {
    /// CART decision trees (cheap, piecewise-constant, used by the offline IL
    /// literature).
    Tree,
    /// Small neural networks trained by back-propagation (required by the online
    /// IL methodology, which updates the policy incrementally).
    Mlp,
}

#[derive(Debug, Clone, PartialEq, Serialize)]
enum KnobModel {
    Tree(DecisionTreeClassifier),
    Mlp(Box<PolicyNetwork>),
}

impl KnobModel {
    fn predict(&self, x: &[f64]) -> usize {
        match self {
            KnobModel::Tree(t) => t.predict_class(x),
            KnobModel::Mlp(m) => m.predict_class(x),
        }
    }
}

/// Offline IL policy: one classifier per DVFS knob.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OfflineIlPolicy {
    kind: PolicyModelKind,
    scaler: StandardScaler,
    little_model: KnobModel,
    big_model: KnobModel,
    name: String,
}

impl OfflineIlPolicy {
    /// Trains the policy from Oracle demonstrations.
    ///
    /// # Panics
    ///
    /// Panics if `demonstrations` is empty.
    pub fn train(
        platform: &SocPlatform,
        demonstrations: &[Demonstration],
        kind: PolicyModelKind,
    ) -> Self {
        assert!(!demonstrations.is_empty(), "need at least one demonstration to train a policy");
        let raw: Vec<Vec<f64>> = demonstrations
            .iter()
            .map(|d| with_config_terms(platform, &d.features, d.previous_config).to_vec())
            .collect();
        let scaler = StandardScaler::fitted(&raw);
        let xs: Vec<Vec<f64>> = raw.iter().map(|f| scaler.transform(f)).collect();
        let little_labels: Vec<usize> =
            demonstrations.iter().map(|d| d.action.little_idx).collect();
        let big_labels: Vec<usize> = demonstrations.iter().map(|d| d.action.big_idx).collect();

        let little_classes = platform.level_count(ClusterKind::Little);
        let big_classes = platform.level_count(ClusterKind::Big);
        let (little_model, big_model) = match kind {
            PolicyModelKind::Tree => {
                let fit = |labels: &[usize], classes| {
                    KnobModel::Tree(DecisionTreeClassifier::fitted(&xs, labels, classes))
                };
                (fit(&little_labels, little_classes), fit(&big_labels, big_classes))
            }
            PolicyModelKind::Mlp => {
                let mut little: PolicyNetwork =
                    MlpBuilder::new(little_classes).learning_rate(0.02).seed(17).build();
                let mut big: PolicyNetwork =
                    MlpBuilder::new(big_classes).learning_rate(0.02).seed(23).build();
                little.fit(&xs, &little_labels);
                big.fit(&xs, &big_labels);
                (KnobModel::Mlp(Box::new(little)), KnobModel::Mlp(Box::new(big)))
            }
        };
        Self {
            kind,
            scaler,
            little_model,
            big_model,
            name: match kind {
                PolicyModelKind::Tree => "offline-il-tree".to_owned(),
                PolicyModelKind::Mlp => "offline-il-mlp".to_owned(),
            },
        }
    }

    /// The model family backing this policy.
    pub fn kind(&self) -> PolicyModelKind {
        self.kind
    }

    /// Predicts a configuration from a raw (unscaled) policy feature vector.
    pub fn predict_from_features(&self, platform: &SocPlatform, features: &[f64]) -> DvfsConfig {
        let mut x = [0.0; POLICY_FEATURE_DIM];
        self.scaler.transform_into(features, &mut x);
        let little =
            self.little_model.predict(&x).min(platform.level_count(ClusterKind::Little) - 1);
        let big = self.big_model.predict(&x).min(platform.level_count(ClusterKind::Big) - 1);
        DvfsConfig::new(little, big)
    }

    /// Consumes the policy and returns the pieces the online-IL policy needs to
    /// keep adapting (scaler plus the two MLPs).
    ///
    /// # Panics
    ///
    /// Panics if the policy is tree-backed; only MLP policies can be updated by
    /// back-propagation online.
    pub fn into_mlp_parts(self) -> (StandardScaler, PolicyNetwork, PolicyNetwork) {
        match (self.little_model, self.big_model) {
            (KnobModel::Mlp(little), KnobModel::Mlp(big)) => (self.scaler, *little, *big),
            _ => panic!("only MLP-backed policies can be adapted online"),
        }
    }
}

impl DvfsPolicy for OfflineIlPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, platform: &SocPlatform, decision: PolicyDecision<'_>) -> DvfsConfig {
        let features = policy_features(platform, decision.counters, decision.current_config);
        self.predict_from_features(platform, &features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soclearn_oracle::{collect_demonstrations, OracleObjective, OracleRun};
    use soclearn_soc_sim::{SnippetCounters, SocSimulator};
    use soclearn_workloads::{ApplicationSequence, BenchmarkSuite, SuiteKind};

    fn demos(platform: &SocPlatform) -> Vec<Demonstration> {
        let suite = BenchmarkSuite::generate(SuiteKind::MiBench, 13);
        let seq = ApplicationSequence::from_benchmarks(suite.benchmarks().iter().take(4));
        let profiles: Vec<_> = seq.snippets().iter().map(|s| s.profile.clone()).collect();
        let mut sim = SocSimulator::new(platform.clone());
        collect_demonstrations(&mut sim, &profiles, OracleObjective::Energy)
    }

    #[test]
    fn tree_policy_reproduces_training_actions_mostly() {
        let platform = SocPlatform::small();
        let demonstrations = demos(&platform);
        let policy = OfflineIlPolicy::train(&platform, &demonstrations, PolicyModelKind::Tree);
        let correct = demonstrations
            .iter()
            .filter(|d| {
                let mut f = d.features.to_vec();
                f.push(d.previous_config.little_idx as f64 / 2.0);
                f.push(d.previous_config.big_idx as f64 / 3.0);
                let predicted = policy.predict_from_features(&platform, &f);
                predicted.big_idx == d.action.big_idx
            })
            .count();
        let accuracy = correct as f64 / demonstrations.len() as f64;
        assert!(accuracy > 0.8, "training accuracy {accuracy} too low");
    }

    #[test]
    fn mlp_policy_trains_and_predicts_valid_configs() {
        let platform = SocPlatform::small();
        let demonstrations = demos(&platform);
        let mut policy = OfflineIlPolicy::train(&platform, &demonstrations, PolicyModelKind::Mlp);
        assert_eq!(policy.kind(), PolicyModelKind::Mlp);
        let counters = SnippetCounters::default();
        let config =
            policy.decide(&platform, PolicyDecision::new(&counters, platform.min_config(), 0));
        assert!(platform.is_valid(config));
    }

    #[test]
    fn trained_policy_energy_is_close_to_oracle_on_training_workload() {
        // The essence of Table II's "Mi-Bench column": on the training suite the IL
        // policy should be within a few percent of the Oracle.
        let platform = SocPlatform::small();
        let suite = BenchmarkSuite::generate(SuiteKind::MiBench, 13);
        let seq = ApplicationSequence::from_benchmarks(suite.benchmarks().iter().take(4));
        let profiles: Vec<_> = seq.snippets().iter().map(|s| s.profile.clone()).collect();

        let mut sim = SocSimulator::new(platform.clone());
        let demonstrations = collect_demonstrations(&mut sim, &profiles, OracleObjective::Energy);
        let mut policy = OfflineIlPolicy::train(&platform, &demonstrations, PolicyModelKind::Tree);

        let mut oracle_sim = SocSimulator::new(platform.clone());
        let oracle = OracleRun::execute(&mut oracle_sim, &profiles, OracleObjective::Energy);

        let mut policy_sim = SocSimulator::new(platform.clone());
        let mut config = platform.max_config();
        let mut counters = SnippetCounters::default();
        let mut policy_energy = 0.0;
        for (i, p) in profiles.iter().enumerate() {
            config = policy.decide(&platform, PolicyDecision::new(&counters, config, i));
            let r = policy_sim.execute_snippet(p, config);
            counters = r.counters;
            policy_energy += r.energy_j;
        }
        let ratio = policy_energy / oracle.total_energy_j;
        assert!(
            ratio < 1.12,
            "offline IL on its training suite should be near the Oracle (ratio {ratio})"
        );
    }

    #[test]
    fn into_mlp_parts_roundtrip_and_tree_panics() {
        let platform = SocPlatform::small();
        let demonstrations = demos(&platform);
        let policy = OfflineIlPolicy::train(&platform, &demonstrations, PolicyModelKind::Mlp);
        let (_scaler, little, big) = policy.into_mlp_parts();
        assert_eq!(little.output_dim(), platform.level_count(ClusterKind::Little));
        assert_eq!(big.output_dim(), platform.level_count(ClusterKind::Big));
    }

    #[test]
    #[should_panic(expected = "only MLP-backed policies")]
    fn tree_policy_cannot_become_online() {
        let platform = SocPlatform::small();
        let demonstrations = demos(&platform);
        let policy = OfflineIlPolicy::train(&platform, &demonstrations, PolicyModelKind::Tree);
        let _ = policy.into_mlp_parts();
    }

    #[test]
    #[should_panic(expected = "at least one demonstration")]
    fn rejects_empty_training_set() {
        let platform = SocPlatform::small();
        let _ = OfflineIlPolicy::train(&platform, &[], PolicyModelKind::Tree);
    }
}
