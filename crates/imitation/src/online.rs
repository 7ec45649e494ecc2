//! Model-guided online imitation learning.
//!
//! The online-IL policy (Section IV-A3 of the paper) keeps adapting after
//! deployment:
//!
//! 1. after every snippet the online power and performance models (RLS with
//!    forgetting) are updated from the observed counters,
//! 2. before every decision the models estimate the energy of candidate
//!    configurations in a local neighbourhood of the current configuration,
//!    reusing the observed counters across candidates,
//! 3. the best candidate becomes the runtime approximation of the Oracle; the
//!    pair (state, best candidate) is appended to an aggregation buffer,
//! 4. when the buffer is full the policy network is re-trained by
//!    back-propagation on its contents and the buffer is cleared.
//!
//! The buffer size trades adaptation accuracy against memory: the paper
//! reports that ~100 entries give close to 100% accuracy at under 20 KB of
//! storage, which the [`OnlineIlStats::buffer_bytes`] accounting reproduces.

use std::sync::Arc;

use serde::Serialize;
use soclearn_online_learning::rls::RecursiveLeastSquares;
use soclearn_online_learning::scaler::StandardScaler;
use soclearn_online_learning::stats::RlsStats;
use soclearn_soc_sim::{ClusterKind, DvfsConfig, DvfsPolicy, PolicyDecision, SocPlatform};

use crate::features::{
    policy_features, CandidateFeatureBasis, CANDIDATE_FEATURE_DIM, POLICY_FEATURE_DIM,
};
use crate::offline::{OfflineIlPolicy, PolicyNetwork};

/// One aggregated state: the scaled policy features of a decision.
type StateRow = [f64; POLICY_FEATURE_DIM];

/// An online power or time model over the candidate features.
pub type CandidateModel = RecursiveLeastSquares<CANDIDATE_FEATURE_DIM>;

/// Sufficient statistics of a [`CandidateModel`]'s observations.
pub type CandidateStats = RlsStats<CANDIDATE_FEATURE_DIM>;

/// Tunable parameters of the online-IL methodology: the two the paper
/// studies.  The model warm-up, the retraining epochs and the models'
/// forgetting factor are fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct OnlineIlConfig {
    /// Number of (state, label) pairs aggregated before the policy is re-trained.
    pub buffer_capacity: usize,
    /// Radius (in DVFS levels per cluster) of the candidate neighbourhood.
    pub neighbourhood_radius: usize,
}

impl Default for OnlineIlConfig {
    fn default() -> Self {
        Self { buffer_capacity: 100, neighbourhood_radius: 1 }
    }
}

/// Number of model updates required before the analytical models are
/// trusted to supervise the policy.
const MODEL_WARMUP: usize = 5;

/// Back-propagation epochs over the buffer at each policy update.
const UPDATE_EPOCHS: usize = 8;

/// Forgetting factor of the online power and time models.
const FORGETTING_FACTOR: f64 = 0.97;

/// Runtime statistics of an online-IL policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct OnlineIlStats {
    /// Total number of decisions taken.
    pub decisions: usize,
    /// Decisions where the policy already agreed with the runtime Oracle label.
    pub agreements: usize,
    /// Number of policy re-training events (buffer flushes).
    pub policy_updates: usize,
    /// Approximate storage footprint of the aggregation buffer, in bytes.
    pub buffer_bytes: usize,
    /// Online power or time model updates the models rejected because the
    /// observed features or the target were not finite (each model counts
    /// once).
    pub skipped_model_updates: usize,
    /// Decisions whose scaled policy features were not finite, so their
    /// (state, label) pair was kept out of the aggregation buffer.
    pub skipped_aggregations: usize,
}

impl OnlineIlStats {
    /// Fraction of decisions that agreed with the runtime Oracle label.
    pub fn agreement_rate(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.agreements as f64 / self.decisions as f64
        }
    }
}

/// Bootstraps a pair of (power, time) candidate models from design-time data,
/// exactly as the paper constructs them offline before deployment: every
/// profile is evaluated at every configuration of the platform (one batched
/// sweep per profile) and the resulting (counters, power, time) observations
/// seed the RLS models.
///
/// The fit is a batch fit (`λ = 1`, no forgetting), otherwise only the last
/// `≈ 1/(1-λ)` of the sweep would survive into deployment.  The **time model
/// regresses time per kilo-instruction**, not absolute time, so the fit is
/// scale-free: snippets of any instruction count share one model.
///
/// Returned models are `λ = 1` estimators; wrap them for runtime use via
/// [`OnlineIlPolicy::install_pretrained_models`] (a shared artifact store can
/// pretrain once and hand out clones to many policies).
pub fn pretrain_candidate_models(
    sim: &soclearn_soc_sim::SocSimulator,
    profiles: &[soclearn_workloads::SnippetProfile],
) -> (CandidateModel, CandidateModel) {
    let mut power_model = CandidateModel::new(1.0);
    let mut time_model = CandidateModel::new(1.0);
    for profile in profiles {
        // Evaluate the profile once at every configuration, then train the models
        // on every (observation point, candidate) pair so they learn exactly the
        // extrapolation they are asked to perform at run time.
        let results = sim.evaluate_all_configs(profile);
        for observed in &results {
            let basis =
                CandidateFeatureBasis::new(sim.platform(), &observed.counters, observed.config);
            for target in &results {
                let f = basis.features(sim.platform(), target.config);
                power_model.update_retaining(&f, target.avg_power_w);
                time_model.update_retaining(&f, target.time_s / basis.kilo_instructions());
            }
        }
    }
    (power_model, time_model)
}

/// The policy's feature scaler and its two networks.  They change only when
/// the aggregation buffer fills and back-propagation retrains them, so
/// copies of a policy share one group until they retrain.
#[derive(Debug, Clone, PartialEq)]
struct PolicyNetworks {
    scaler: StandardScaler,
    little_mlp: PolicyNetwork,
    big_mlp: PolicyNetwork,
}

impl PolicyNetworks {
    /// Approximate resident footprint in bytes: the scaler's count, mean,
    /// M2 and cached standard deviation, and both networks' parameters.
    fn bytes(&self) -> usize {
        let f = std::mem::size_of::<f64>();
        let scaler = (3 * self.scaler.dim() + 1) * f;
        scaler + (self.little_mlp.param_count() + self.big_mlp.param_count()) * f
    }
}

/// The model-guided online imitation-learning policy.
#[derive(Debug, PartialEq)]
pub struct OnlineIlPolicy {
    /// Shared with every clone until this policy or the clone retrains
    /// (`Arc::make_mut` in [`OnlineIlPolicy::retrain_from_buffer`]).
    networks: Arc<PolicyNetworks>,
    power_model: CandidateModel,
    time_model: CandidateModel,
    buffer: Vec<(StateRow, DvfsConfig)>,
    config: OnlineIlConfig,
    stats: OnlineIlStats,
    last_time_s: Option<f64>,
    /// Optional sufficient-statistics recorder for the tiered model store:
    /// when enabled, every online model update also accumulates its raw
    /// `(x, y)` observation into `(power, time)` [`RlsStats`], so a fleet can
    /// later merge per-user deltas back into a shared base exactly (the
    /// runtime models themselves run with forgetting and are not mergeable).
    delta_stats: Option<(CandidateStats, CandidateStats)>,
}

/// A clone shares the scaler and both networks with the original until
/// either of them retrains, which gives the retraining policy a private
/// copy and leaves the other's networks as they were.  It copies the
/// online models, the statistics and the buffer, keeping the buffer's full
/// capacity, so a copy (a fleet lease's first decision clones the shared
/// prototype) aggregates without allocating until it retrains.
impl Clone for OnlineIlPolicy {
    fn clone(&self) -> Self {
        let mut buffer = Vec::with_capacity(self.config.buffer_capacity);
        buffer.extend_from_slice(&self.buffer);
        Self {
            networks: Arc::clone(&self.networks),
            power_model: self.power_model.clone(),
            time_model: self.time_model.clone(),
            buffer,
            config: self.config,
            stats: self.stats,
            last_time_s: self.last_time_s,
            delta_stats: self.delta_stats.clone(),
        }
    }
}

impl OnlineIlPolicy {
    /// Builds the online policy from an MLP-backed offline policy.
    ///
    /// # Panics
    ///
    /// Panics if the offline policy is tree-backed (see
    /// [`OfflineIlPolicy::into_mlp_parts`]).
    pub fn from_offline(offline: OfflineIlPolicy, config: OnlineIlConfig) -> Self {
        let (scaler, little_mlp, big_mlp) = offline.into_mlp_parts();
        Self {
            networks: Arc::new(PolicyNetworks { scaler, little_mlp, big_mlp }),
            power_model: CandidateModel::new(FORGETTING_FACTOR),
            time_model: CandidateModel::new(FORGETTING_FACTOR),
            buffer: Vec::with_capacity(config.buffer_capacity),
            config,
            stats: OnlineIlStats::default(),
            last_time_s: None,
            delta_stats: None,
        }
    }

    /// Bootstraps the online power and performance models from design-time data
    /// (see [`pretrain_candidate_models`]), replacing any prior model state.
    pub fn pretrain_models(
        &mut self,
        sim: &soclearn_soc_sim::SocSimulator,
        profiles: &[soclearn_workloads::SnippetProfile],
    ) {
        let (power, time) = pretrain_candidate_models(sim, profiles);
        self.install_pretrained_models(power, time);
    }

    /// Installs externally pretrained (batch-fitted, `λ = 1`) power and time
    /// candidate models, switching them to the runtime forgetting factor.
    /// Lets a process-wide artifact store pretrain the models once and share
    /// clones across many policy instances.
    pub fn install_pretrained_models(
        &mut self,
        power_model: CandidateModel,
        time_model: CandidateModel,
    ) {
        self.power_model = power_model.with_lambda(FORGETTING_FACTOR);
        self.time_model = time_model.with_lambda(FORGETTING_FACTOR);
    }

    /// Current runtime statistics.
    pub fn stats(&self) -> OnlineIlStats {
        self.stats
    }

    /// Starts accumulating normal-equation sufficient statistics
    /// (`Σxxᵀ`, `Σxy`, `n`) for every subsequent applied online model update,
    /// one [`RlsStats`] pair for the (power, time) models.  The tiered model
    /// store enables this on per-user copies so their deltas can be
    /// fleet-merged back into the shared base exactly; recording costs one
    /// extra `O(d²)` accumulation per update and ~1.3 KB of state.
    pub fn enable_stats_recording(&mut self) {
        self.delta_stats = Some((RlsStats::zero(), RlsStats::zero()));
    }

    /// Whether [`OnlineIlPolicy::enable_stats_recording`] is active.
    pub fn stats_recording_enabled(&self) -> bool {
        self.delta_stats.is_some()
    }

    /// Takes the recorded (power, time) sufficient statistics, leaving fresh
    /// zeroed recorders in place (recording stays enabled).  Returns `None`
    /// when recording was never enabled.
    pub fn take_recorded_stats(&mut self) -> Option<(CandidateStats, CandidateStats)> {
        self.delta_stats.replace((RlsStats::zero(), RlsStats::zero()))
    }

    /// Approximate resident footprint of one policy instance in bytes: the
    /// scaler, both policy networks, both online RLS models, the aggregation
    /// buffer's filled rows ([`OnlineIlStats::buffer_bytes`], the paper's
    /// accounting) and any delta-statistics recorder.  This is the per-user
    /// cost a naive "full copy per user" personalization scheme would pay,
    /// and the denominator of the tiered store's bytes/user gauge.
    pub fn model_bytes(&self) -> usize {
        self.networks.bytes() + self.online_model_bytes() + self.stats.buffer_bytes
    }

    /// What this policy holds on its own: the online models, any
    /// delta-statistics recorder and the aggregation buffer's whole
    /// allocation (a clone reserves `buffer_capacity` rows up front), plus
    /// the scaler and networks only once no other policy shares them (a
    /// clone owns its networks after it retrains).  What a fleet lease costs
    /// on top of the shared base.
    pub fn owned_bytes(&self) -> usize {
        let networks =
            if Arc::strong_count(&self.networks) == 1 { self.networks.bytes() } else { 0 };
        let buffer = self.buffer.capacity() * std::mem::size_of::<(StateRow, DvfsConfig)>();
        networks + self.online_model_bytes() + buffer
    }

    /// Bytes of both online RLS models and any delta-statistics recorder.
    fn online_model_bytes(&self) -> usize {
        // Each RLS model: the `d × d` covariance plus the weight vector.
        let models = 2
            * (CANDIDATE_FEATURE_DIM * CANDIDATE_FEATURE_DIM + CANDIDATE_FEATURE_DIM)
            * std::mem::size_of::<f64>();
        let deltas = self
            .delta_stats
            .as_ref()
            .map(|(p, t)| p.approx_bytes() + t.approx_bytes())
            .unwrap_or(0);
        models + deltas
    }

    /// The configuration parameters the policy was created with.
    pub fn config(&self) -> OnlineIlConfig {
        self.config
    }

    /// Predicted energy (joules) of a candidate given a precomputed feature
    /// basis: power prediction times (per-kilo-instruction time prediction
    /// scaled back to absolute seconds).
    fn estimate_energy_with(
        &self,
        platform: &SocPlatform,
        basis: &CandidateFeatureBasis,
        candidate: DvfsConfig,
    ) -> f64 {
        let f = basis.features(platform, candidate);
        let power = self.power_model.predict(&f).max(0.05);
        let time = (self.time_model.predict(&f) * basis.kilo_instructions()).max(1e-4);
        power * time
    }

    /// Predicted energy (joules) of running the previously observed workload at the
    /// candidate configuration, according to the online models.
    pub fn estimate_energy(
        &self,
        platform: &SocPlatform,
        counters: &soclearn_soc_sim::SnippetCounters,
        observed: DvfsConfig,
        candidate: DvfsConfig,
    ) -> f64 {
        let basis = CandidateFeatureBasis::new(platform, counters, observed);
        self.estimate_energy_with(platform, &basis, candidate)
    }

    /// Policy-network prediction from an already-scaled feature vector.
    fn prediction_from_scaled(&self, platform: &SocPlatform, x: &StateRow) -> DvfsConfig {
        let PolicyNetworks { little_mlp, big_mlp, .. } = &*self.networks;
        let little = little_mlp.predict_class(x).min(platform.level_count(ClusterKind::Little) - 1);
        let big = big_mlp.predict_class(x).min(platform.level_count(ClusterKind::Big) - 1);
        DvfsConfig::new(little, big)
    }

    /// Appends one (state, label) pair to the aggregation buffer and
    /// re-trains when it fills.  A state row with a non-finite entry is
    /// counted and dropped: back-propagating it would turn a whole input
    /// column of the first layer NaN, after which ReLU zeroes every hidden
    /// unit and the network proposes one configuration whatever its input.
    fn aggregate(&mut self, scaled: StateRow, label: DvfsConfig) {
        if !scaled.iter().all(|v| v.is_finite()) {
            self.stats.skipped_aggregations += 1;
            return;
        }
        self.stats.buffer_bytes +=
            std::mem::size_of::<StateRow>() + 2 * std::mem::size_of::<usize>();
        self.buffer.push((scaled, label));
        if self.buffer.len() >= self.config.buffer_capacity {
            self.retrain_from_buffer();
        }
    }

    /// Back-propagation over the buffer.  The two networks share no state, so
    /// training the LITTLE one over every epoch and then the big one equals
    /// interleaving them sample by sample.  Networks still shared with a
    /// clone are copied first, so a retrain changes no other policy's.
    fn retrain_from_buffer(&mut self) {
        let networks = Arc::make_mut(&mut self.networks);
        let little = self.buffer.iter().map(|(x, label)| (x, label.little_idx));
        networks.little_mlp.train_classification_epochs(little, UPDATE_EPOCHS);
        let big = self.buffer.iter().map(|(x, label)| (x, label.big_idx));
        networks.big_mlp.train_classification_epochs(big, UPDATE_EPOCHS);
        self.buffer.clear();
        self.stats.policy_updates += 1;
        self.stats.buffer_bytes = 0;
    }
}

impl DvfsPolicy for OnlineIlPolicy {
    fn name(&self) -> &str {
        "online-il"
    }

    fn decide(&mut self, platform: &SocPlatform, decision: PolicyDecision<'_>) -> DvfsConfig {
        let counters = decision.counters;
        let current = decision.current_config;
        let basis = CandidateFeatureBasis::new(platform, counters, current);

        // 1. Update the online power/performance models with the snippet that just
        //    executed under `current`.  The time model regresses time per
        //    kilo-instruction so the fit is independent of snippet length.
        //    A model refuses (and the policy counts) a non-finite observation,
        //    which would poison it for good; only applied updates are
        //    recorded as deltas.
        if counters.instructions_retired > 0.0 {
            let observed = basis.features(platform, current);
            let power = counters.total_chip_power_w;
            let power_applied = self.power_model.update(&observed, power);
            let time = self.last_time_s.take().map(|t| t / basis.kilo_instructions());
            let time_applied = time.map(|y| self.time_model.update(&observed, y));
            self.stats.skipped_model_updates +=
                usize::from(!power_applied) + usize::from(time_applied == Some(false));
            if let Some((power_stats, time_stats)) = &mut self.delta_stats {
                if power_applied {
                    power_stats.observe(&observed, power);
                }
                if let (Some(y), Some(true)) = (time, time_applied) {
                    time_stats.observe(&observed, y);
                }
            }
        }

        // 2. Policy proposal.  The scaled features are computed once and
        //    reused for the aggregation push in step 4.
        let features = policy_features(platform, counters, current);
        let mut scaled = [0.0; POLICY_FEATURE_DIM];
        self.networks.scaler.transform_into(&features, &mut scaled);
        let proposal = self.prediction_from_scaled(platform, &scaled);

        // 3. Runtime Oracle approximation over the local candidate neighbourhood,
        //    walked in place, then the proposal if the walk did not pass it.
        //    The feature basis is shared across candidates and each candidate
        //    is scored exactly once.
        let label = if counters.instructions_retired > 0.0
            && self.power_model.samples_seen() >= MODEL_WARMUP
            && self.time_model.samples_seen() >= MODEL_WARMUP
        {
            let mut best = (proposal, f64::INFINITY);
            let mut score = |candidate| {
                let energy = self.estimate_energy_with(platform, &basis, candidate);
                if energy < best.1 {
                    best = (candidate, energy);
                }
            };
            let mut proposal_scored = false;
            for candidate in platform.neighbourhood(current, self.config.neighbourhood_radius) {
                proposal_scored |= candidate == proposal;
                score(candidate);
            }
            if !proposal_scored {
                score(proposal);
            }
            best.0
        } else {
            proposal
        };

        // 4. Aggregate the supervision and re-train when the buffer fills up.
        self.stats.decisions += 1;
        if label == proposal {
            self.stats.agreements += 1;
        }
        self.aggregate(scaled, label);

        proposal
    }

    fn observe_outcome(&mut self, _energy_j: f64, time_s: f64) {
        self.last_time_s = Some(time_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::PolicyModelKind;
    use soclearn_oracle::{collect_demonstrations, OracleObjective, OracleRun};
    use soclearn_soc_sim::{SnippetCounters, SocSimulator};
    use soclearn_workloads::{ApplicationSequence, BenchmarkSuite, SuiteKind};

    /// Design-time state shared by the tests below (the artifact-store pattern
    /// applied at unit-test scope): training profiles, the offline MLP policy
    /// and the batch-pretrained candidate models, built once per test binary.
    struct SharedTraining {
        offline: OfflineIlPolicy,
        power: CandidateModel,
        time: CandidateModel,
    }

    fn shared_training(platform: &SocPlatform) -> &'static SharedTraining {
        static CELL: std::sync::OnceLock<SharedTraining> = std::sync::OnceLock::new();
        assert_eq!(*platform, SocPlatform::small(), "shared fixture is built for small()");
        CELL.get_or_init(|| {
            let suite = BenchmarkSuite::generate(SuiteKind::MiBench, 21);
            let seq = ApplicationSequence::from_benchmarks(suite.benchmarks().iter().take(4));
            let profiles: Vec<_> = seq.snippets().iter().map(|s| s.profile.clone()).collect();
            let mut sim = SocSimulator::new(platform.clone());
            let demos = collect_demonstrations(&mut sim, &profiles, OracleObjective::Energy);
            let offline = OfflineIlPolicy::train(platform, &demos, PolicyModelKind::Mlp);
            let (power, time) =
                pretrain_candidate_models(&SocSimulator::new(platform.clone()), &profiles);
            SharedTraining { offline, power, time }
        })
    }

    fn trained_online_policy(platform: &SocPlatform, config: OnlineIlConfig) -> OnlineIlPolicy {
        let shared = shared_training(platform);
        let mut online = OnlineIlPolicy::from_offline(shared.offline.clone(), config);
        online.install_pretrained_models(shared.power.clone(), shared.time.clone());
        online
    }

    /// Serves the first 48 unseen snippets on the Odroid-XU3, whose 5- and
    /// 8-level clusters are the serving network shapes, with a buffer of 6,
    /// so the networks retrain eight times.  The offline policy and the
    /// candidate models come from two MiBench applications.  The constants
    /// were recorded with the layer-generic network this one replaced: any
    /// change to the networks' arithmetic, the DAgger rows or the scaler
    /// moves at least one of them.
    #[test]
    fn odroid_decision_stream_is_pinned() {
        let platform = SocPlatform::odroid_xu3();
        let suite = BenchmarkSuite::generate(SuiteKind::MiBench, 21);
        let seq = ApplicationSequence::from_benchmarks(suite.benchmarks().iter().take(2));
        let profiles: Vec<_> = seq.snippets().iter().map(|s| s.profile.clone()).collect();
        let mut sim = SocSimulator::new(platform.clone());
        let demos = collect_demonstrations(&mut sim, &profiles, OracleObjective::Energy);
        let offline = OfflineIlPolicy::train(&platform, &demos, PolicyModelKind::Mlp);
        let mut online = OnlineIlPolicy::from_offline(
            offline,
            OnlineIlConfig { buffer_capacity: 6, ..OnlineIlConfig::default() },
        );
        online.pretrain_models(&SocSimulator::new(platform.clone()), &profiles);

        let served: Vec<_> = unseen_profiles().into_iter().take(48).collect();
        let (energy, decisions) = run_policy(&platform, &mut online, &served);
        let fnv = |h: u64, word: u64| (h ^ word).wrapping_mul(0x0100_0000_01b3);
        let levels = decisions.iter().flat_map(|d| [d.little_idx as u64, d.big_idx as u64]);
        let decision_hash = levels.fold(0xcbf2_9ce4_8422_2325, fnv);
        // The bits of both networks' raw outputs on one probe pin their
        // final weights, not only the decisions they led to.
        let probe: [f64; POLICY_FEATURE_DIM] = std::array::from_fn(|i| i as f64 * 0.3 - 1.2);
        let mut weight_hash = 0xcbf2_9ce4_8422_2325;
        for net in [&online.networks.little_mlp, &online.networks.big_mlp] {
            weight_hash = net.forward(&probe).iter().map(|v| v.to_bits()).fold(weight_hash, fnv);
        }
        let stats = online.stats();
        assert_eq!(stats.policy_updates, 8);
        assert_eq!(stats.agreements, 10);
        assert_eq!(decision_hash, 0x58d6_abf7_8f45_36ab);
        assert_eq!(energy.to_bits(), 0x4030_6a27_ff06_537d, "{energy}");
        assert_eq!(weight_hash, 0x38c9_666f_6e5c_2ad0, "{weight_hash:#018x}");
    }

    /// Oracle run over [`unseen_profiles`], computed once per test binary.
    fn unseen_oracle(platform: &SocPlatform) -> &'static OracleRun {
        static CELL: std::sync::OnceLock<OracleRun> = std::sync::OnceLock::new();
        assert_eq!(*platform, SocPlatform::small(), "shared fixture is built for small()");
        CELL.get_or_init(|| {
            let mut sim = SocSimulator::new(platform.clone());
            OracleRun::execute(&mut sim, &unseen_profiles(), OracleObjective::Energy)
        })
    }

    /// Runs a policy over a snippet sequence and returns (energy, per-step decisions).
    fn run_policy(
        platform: &SocPlatform,
        policy: &mut dyn DvfsPolicy,
        profiles: &[soclearn_workloads::SnippetProfile],
    ) -> (f64, Vec<DvfsConfig>) {
        let mut sim = SocSimulator::new(platform.clone());
        let mut counters = SnippetCounters::default();
        let mut config = platform.max_config();
        let mut total = 0.0;
        let mut decisions = Vec::new();
        for (i, p) in profiles.iter().enumerate() {
            config = policy.decide(platform, PolicyDecision::new(&counters, config, i));
            let r = sim.execute_snippet(p, config);
            policy.observe_outcome(r.energy_j, r.time_s);
            counters = r.counters;
            total += r.energy_j;
            decisions.push(config);
        }
        (total, decisions)
    }

    fn unseen_profiles() -> Vec<soclearn_workloads::SnippetProfile> {
        let parsec = BenchmarkSuite::generate(SuiteKind::Parsec, 33);
        let cortex = BenchmarkSuite::generate(SuiteKind::Cortex, 33);
        let seq = ApplicationSequence::from_benchmarks(
            cortex.benchmarks().iter().chain(parsec.benchmarks().iter()),
        );
        seq.snippets().iter().map(|s| s.profile.clone()).collect()
    }

    /// A clone shares its original's networks until one of them retrains,
    /// and a retrain copies them first: a clone that retrains leaves the
    /// original's networks bit-unchanged, the original then decides exactly
    /// as a twin that was never cloned, and the original's own retrains do
    /// not reach a clone that never ran.
    #[test]
    fn a_retraining_clone_leaves_the_original_untouched() {
        let platform = SocPlatform::small();
        let config = OnlineIlConfig { buffer_capacity: 6, ..OnlineIlConfig::default() };
        let mut original = trained_online_policy(&platform, config);
        let mut twin = trained_online_policy(&platform, config);
        let profiles = unseen_profiles();
        let (head, tail) = profiles.split_at(20);
        // `Debug` prints every float in its shortest round-trip form, sign of
        // zero included, so equal strings mean equal bits.
        let snapshot = format!("{:?}", original.networks);

        let mut clone = original.clone();
        let idle = original.clone();
        run_policy(&platform, &mut clone, head);
        assert_eq!(clone.stats().policy_updates, 3);
        assert_ne!(format!("{:?}", clone.networks), snapshot, "the clone's retrains moved its own");
        assert_eq!(format!("{:?}", original.networks), snapshot);

        let (energy, decisions) = run_policy(&platform, &mut original, tail);
        let (twin_energy, twin_decisions) = run_policy(&platform, &mut twin, tail);
        assert!(original.stats().policy_updates > 0);
        assert_eq!(decisions, twin_decisions);
        assert_eq!(energy.to_bits(), twin_energy.to_bits());
        assert_eq!(format!("{:?}", original.networks), format!("{:?}", twin.networks));
        assert_eq!(format!("{:?}", idle.networks), snapshot);
    }

    #[test]
    fn online_policy_beats_frozen_offline_policy_on_unseen_suite() {
        let platform = SocPlatform::small();
        let profiles = unseen_profiles();

        // Frozen offline policy as the non-adaptive reference.
        let mut frozen = shared_training(&platform).offline.clone();

        let mut online = trained_online_policy(
            &platform,
            OnlineIlConfig { buffer_capacity: 20, ..OnlineIlConfig::default() },
        );

        let (frozen_energy, _) = run_policy(&platform, &mut frozen, &profiles);
        let (online_energy, _) = run_policy(&platform, &mut online, &profiles);

        let oracle = unseen_oracle(&platform);

        let frozen_ratio = frozen_energy / oracle.total_energy_j;
        let online_ratio = online_energy / oracle.total_energy_j;
        assert!(
            online_ratio < frozen_ratio,
            "online IL ({online_ratio:.3}) should beat the frozen offline policy ({frozen_ratio:.3})"
        );
        assert!(online_ratio < 1.25, "online IL should end up near the Oracle ({online_ratio:.3})");
        assert!(online.stats().policy_updates > 0, "the policy must actually re-train online");
    }

    #[test]
    fn oracle_accuracy_exceeds_frozen_policy() {
        // The Figure 3 claim: with online adaptation the policy's big-cluster
        // frequency decisions agree with the true Oracle far more often than the
        // frozen offline policy does on workloads outside the training suite.
        let platform = SocPlatform::small();
        let mut online = trained_online_policy(
            &platform,
            OnlineIlConfig { buffer_capacity: 15, ..OnlineIlConfig::default() },
        );
        let profiles = unseen_profiles();
        let (_, online_decisions) = run_policy(&platform, &mut online, &profiles);

        let mut frozen = shared_training(&platform).offline.clone();
        let (_, frozen_decisions) = run_policy(&platform, &mut frozen, &profiles);

        let oracle = unseen_oracle(&platform);

        let accuracy = |decisions: &[DvfsConfig]| {
            decisions
                .iter()
                .zip(&oracle.decisions)
                .filter(|(d, o)| d.big_idx == o.big_idx)
                .count() as f64
                / decisions.len() as f64
        };
        let online_acc = accuracy(&online_decisions);
        let frozen_acc = accuracy(&frozen_decisions);
        assert!(
            online_acc > frozen_acc,
            "online IL accuracy ({online_acc:.2}) should exceed the frozen policy ({frozen_acc:.2})"
        );
        assert!(
            online_acc > 0.5,
            "adapted policy should usually match the Oracle ({online_acc:.2})"
        );
        assert!(online.stats().agreement_rate() > 0.0);
    }

    #[test]
    fn pretrained_models_can_be_shared_across_policies() {
        // An artifact store pretrains once and installs clones; the result must
        // match a policy that pretrained its own models.
        let platform = SocPlatform::small();
        let suite = BenchmarkSuite::generate(SuiteKind::MiBench, 21);
        let seq = ApplicationSequence::from_benchmarks(suite.benchmarks().iter().take(4));
        let profiles: Vec<_> = seq.snippets().iter().map(|s| s.profile.clone()).collect();
        let mut sim = SocSimulator::new(platform.clone());
        let demos = collect_demonstrations(&mut sim, &profiles, OracleObjective::Energy);
        let offline = OfflineIlPolicy::train(&platform, &demos, PolicyModelKind::Mlp);

        let config = OnlineIlConfig::default();
        let mut direct = OnlineIlPolicy::from_offline(offline.clone(), config);
        direct.pretrain_models(&SocSimulator::new(platform.clone()), &profiles);

        let (power, time) =
            pretrain_candidate_models(&SocSimulator::new(platform.clone()), &profiles);
        let mut shared = OnlineIlPolicy::from_offline(offline, config);
        shared.install_pretrained_models(power, time);

        assert_eq!(direct, shared);
    }

    #[test]
    fn buffer_respects_capacity_and_stays_under_20kb() {
        let platform = SocPlatform::small();
        let config = OnlineIlConfig::default();
        let mut online = trained_online_policy(&platform, config);
        let profiles = unseen_profiles();
        let mut max_bytes = 0usize;
        let mut sim = SocSimulator::new(platform.clone());
        let mut counters = SnippetCounters::default();
        let mut current = platform.max_config();
        for (i, p) in profiles.iter().enumerate() {
            current = online.decide(&platform, PolicyDecision::new(&counters, current, i));
            let r = sim.execute_snippet(p, current);
            online.observe_outcome(r.energy_j, r.time_s);
            counters = r.counters;
            max_bytes = max_bytes.max(online.stats().buffer_bytes);
            assert!(online.buffer.len() < config.buffer_capacity);
        }
        assert!(max_bytes > 0);
        assert!(max_bytes < 20_000, "paper reports <20 KB buffer overhead, got {max_bytes}");
    }

    #[test]
    fn recorded_stats_mirror_model_updates() {
        let platform = SocPlatform::small();
        let mut online = trained_online_policy(&platform, OnlineIlConfig::default());
        assert!(!online.stats_recording_enabled());
        assert_eq!(online.take_recorded_stats(), None);
        online.enable_stats_recording();
        let profiles: Vec<_> = unseen_profiles().into_iter().take(30).collect();
        let steps = profiles.len();
        let (_, _) = run_policy(&platform, &mut online, &profiles);
        let (power, time) = online.take_recorded_stats().expect("recording enabled");
        // Decision 0 sees zero counters (no model update); every later decision
        // updates both models, the time model from the previous outcome.
        assert_eq!(power.samples(), steps as u64 - 1);
        assert_eq!(time.samples(), steps as u64 - 1);
        // Taking leaves fresh zeroed recorders in place.
        let (power2, _) = online.take_recorded_stats().expect("still enabled");
        assert!(power2.is_empty());
        assert!(online.model_bytes() > 0);
    }

    #[test]
    fn retrain_matches_interleaved_per_sample_training() {
        let platform = SocPlatform::small();
        let config = OnlineIlConfig { buffer_capacity: 15, ..OnlineIlConfig::default() };
        let mut online = trained_online_policy(&platform, config);
        let profiles: Vec<_> = unseen_profiles().into_iter().take(40).collect();
        let (_, _) = run_policy(&platform, &mut online, &profiles);
        assert_eq!(online.stats().policy_updates, 2);
        assert!(!online.buffer.is_empty());

        let (mut little, mut big) =
            (online.networks.little_mlp.clone(), online.networks.big_mlp.clone());
        for _ in 0..UPDATE_EPOCHS {
            for (x, label) in &online.buffer {
                let _ = little.train_classification(x, label.little_idx);
                let _ = big.train_classification(x, label.big_idx);
            }
        }
        online.retrain_from_buffer();
        // `Debug` prints every float in its shortest round-trip form, sign of
        // zero included, so equal strings mean equal bits.
        assert_eq!(format!("{:?}", online.networks.little_mlp), format!("{little:?}"));
        assert_eq!(format!("{:?}", online.networks.big_mlp), format!("{big:?}"));
    }

    #[test]
    fn one_nan_counter_leaves_models_and_networks_healthy() {
        let platform = SocPlatform::small();
        let config = OnlineIlConfig { buffer_capacity: 15, ..OnlineIlConfig::default() };
        let mut online = trained_online_policy(&platform, config);
        let mut sim = SocSimulator::new(platform.clone());
        let mut counters = SnippetCounters::default();
        let mut current = platform.max_config();
        for (i, p) in unseen_profiles().iter().take(80).enumerate() {
            if i == 20 {
                counters.total_chip_power_w = f64::NAN;
            }
            current = online.decide(&platform, PolicyDecision::new(&counters, current, i));
            let r = sim.execute_snippet(p, current);
            online.observe_outcome(r.energy_j, r.time_s);
            counters = r.counters;
        }

        let stats = online.stats();
        assert_eq!(stats.skipped_model_updates, 1, "only the power update at decision 20");
        assert_eq!(stats.skipped_aggregations, 1, "only the NaN state row");
        assert!(stats.policy_updates >= 4, "the networks re-trained after the NaN");
        // `estimate_energy` clamps a NaN power to its floor, so ask the models.
        let basis = CandidateFeatureBasis::new(&platform, &counters, current);
        for candidate in platform.configs() {
            let f = basis.features(&platform, candidate);
            assert!(online.power_model.predict(&f).is_finite(), "power model stays finite");
            assert!(online.time_model.predict(&f).is_finite(), "time model stays finite");
        }
        // A poisoned first layer makes a network ignore its input.
        let (zeros, ones) = ([0.0; POLICY_FEATURE_DIM], [1.0; POLICY_FEATURE_DIM]);
        for net in [&online.networks.little_mlp, &online.networks.big_mlp] {
            let (a, b) = (net.forward(&zeros), net.forward(&ones));
            assert!(a.iter().chain(&b).all(|v| v.is_finite()));
            assert_ne!(a, b, "network output must still depend on its input");
        }
    }

    #[test]
    fn energy_estimates_track_candidate_frequency_for_compute_work() {
        let platform = SocPlatform::small();
        let mut online = trained_online_policy(&platform, OnlineIlConfig::default());
        // Warm the models with compute-bound observations at several configs.
        let mut sim = SocSimulator::new(platform.clone());
        let profile = soclearn_workloads::SnippetProfile::compute_bound(100_000_000);
        let mut counters = SnippetCounters::default();
        let mut current = platform.max_config();
        for (i, &config) in platform
            .configs()
            .iter()
            .cycle()
            .take(30)
            .collect::<Vec<_>>()
            .iter()
            .enumerate()
        {
            current = *config;
            let decision = PolicyDecision::new(&counters, current, i);
            let _ = online.decide(&platform, decision);
            let r = sim.execute_snippet(&profile, current);
            online.observe_outcome(r.energy_j, r.time_s);
            counters = r.counters;
        }
        // After warm-up the model-estimated energies should be finite and positive
        // for every candidate.
        for config in platform.configs() {
            let e = online.estimate_energy(&platform, &counters, current, config);
            assert!(e.is_finite() && e > 0.0);
        }
    }
}
