//! Process-wide memoisation of design-time training artifacts.
//!
//! Every experiment in the seed repository re-ran the full design-time
//! pipeline — Oracle demonstration collection over the training suite,
//! offline policy training, online-model bootstrapping — once per experiment
//! function.  The [`ArtifactStore`] makes that pipeline once-per-process:
//!
//! * [`ArtifactStore::get_or_build`] memoises whole [`TrainingArtifacts`]
//!   keyed by *(platform fingerprint, [`ExperimentScale`])* behind a
//!   `OnceLock`-per-key, so concurrent callers block on a single build instead
//!   of racing duplicate ones;
//! * [`TrainingArtifacts::online_policy`] hands out online-IL policies whose
//!   power/performance models were pretrained **once** and cloned per policy,
//!   bit-identical to per-policy pretraining;
//! * [`ArtifactStore::noc_model`] memoises the learned NoC latency models
//!   keyed by *(mesh, traffic pattern, training-rate bits, training cycles)*.
//!   SVR-NoC is trained offline and queried at run time, so every NoC
//!   session with the same training setup shares one model, trained once
//!   with [`EXPERIMENT_SEED`].  The heterogeneous generator draws three
//!   such setups (a 4×4 mesh under uniform, hotspot and transpose traffic),
//!   so a fleet of any size trains three models.
//!
//! The Oracle runs the experiments normalise against are not stored: each
//! experiment runs [`soclearn_oracle::OracleRun::execute`] on a fresh
//! simulator, and no claim example asks for the same run twice.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use soclearn_imitation::{
    pretrain_candidate_models, CandidateModel, OfflineIlPolicy, OnlineIlConfig, OnlineIlPolicy,
    PolicyModelKind,
};
use soclearn_noc_sim::{MeshConfig, SvrLatencyModel, TrafficPattern};
use soclearn_oracle::{collect_demonstrations, OracleObjective};
use soclearn_soc_sim::{SocPlatform, SocSimulator};
use soclearn_workloads::{ApplicationSequence, BenchmarkSuite, SnippetProfile, SuiteKind};

use crate::scale::ExperimentScale;
use crate::substrate::NocSessionSpec;

/// Deterministic seed used by every experiment for workload generation, and
/// by [`ArtifactStore::noc_model`] to train the design-time NoC models.
pub const EXPERIMENT_SEED: u64 = 2020;

/// Builds a benchmark suite and truncates every benchmark to the scale's snippet
/// budget.
pub fn scaled_suite(kind: SuiteKind, scale: ExperimentScale) -> Vec<(String, Vec<SnippetProfile>)> {
    let suite = BenchmarkSuite::generate(kind, EXPERIMENT_SEED);
    suite
        .benchmarks()
        .iter()
        .map(|b| {
            let n = b.snippets().len().min(scale.snippets_per_benchmark());
            (b.name().to_owned(), b.snippets()[..n].to_vec())
        })
        .collect()
}

/// Concatenates benchmarks into the profile sequence used by the harness.
pub fn profiles_of(benchmarks: &[(String, Vec<SnippetProfile>)]) -> Vec<SnippetProfile> {
    benchmarks.iter().flat_map(|(_, s)| s.iter().cloned()).collect()
}

/// Builds an [`ApplicationSequence`] with provenance from scaled benchmarks.
pub fn sequence_of(
    benchmarks: &[(String, Vec<SnippetProfile>)],
    kind: SuiteKind,
) -> ApplicationSequence {
    let mut seq = ApplicationSequence::new();
    for (name, snippets) in benchmarks {
        let benchmark = soclearn_workloads::Benchmark::new(name.clone(), kind, snippets.clone());
        seq.push_benchmark(&benchmark);
    }
    seq
}

/// Design-time artefacts shared by the IL experiments: the Mi-Bench-like
/// training profiles, the offline policies trained on their Oracle
/// demonstrations and the pretrained online candidate models.
pub struct TrainingArtifacts {
    /// The platform everything is trained for.
    pub platform: SocPlatform,
    /// Training profiles (Mi-Bench-like, truncated to scale).
    pub training_profiles: Vec<SnippetProfile>,
    /// Offline tree policy (used for Table II).
    pub tree_policy: OfflineIlPolicy,
    /// Offline MLP policy (basis of the online-IL policy).
    pub mlp_policy: OfflineIlPolicy,
    /// Online candidate models, batch-pretrained once (`λ = 1`) and cloned into
    /// every policy handed out by [`TrainingArtifacts::online_policy`].
    pretrained_power: CandidateModel,
    pretrained_time: CandidateModel,
}

impl TrainingArtifacts {
    /// Collects demonstrations on the Mi-Bench-like suite, trains both offline
    /// policies and pretrains the online candidate models.
    ///
    /// Prefer [`ArtifactStore::get_or_build`] (or
    /// [`shared_artifacts`]) over calling this directly: the store makes the
    /// build once-per-process.
    pub fn build(platform: SocPlatform, scale: ExperimentScale) -> Self {
        let training = scaled_suite(SuiteKind::MiBench, scale);
        let training_profiles = profiles_of(&training);
        let demos = collect_demonstrations(
            &mut SocSimulator::new(platform.clone()),
            &training_profiles,
            OracleObjective::Energy,
        );
        let tree_policy = OfflineIlPolicy::train(&platform, &demos, PolicyModelKind::Tree);
        let mlp_policy = OfflineIlPolicy::train(&platform, &demos, PolicyModelKind::Mlp);
        // Bootstrapping over a subset keeps construction fast without hurting
        // model quality (the profiles are highly redundant).
        let subset: Vec<SnippetProfile> = training_profiles.iter().step_by(4).cloned().collect();
        let (pretrained_power, pretrained_time) =
            pretrain_candidate_models(&SocSimulator::new(platform.clone()), &subset);
        Self {
            platform,
            training_profiles,
            tree_policy,
            mlp_policy,
            pretrained_power,
            pretrained_time,
        }
    }

    /// Builds the online-IL policy: the offline MLP policy plus clones of the
    /// pretrained power/performance models, switched to the runtime
    /// forgetting factor.  Bit-identical to pretraining per policy.
    pub fn online_policy(&self, config: OnlineIlConfig) -> OnlineIlPolicy {
        let mut online = OnlineIlPolicy::from_offline(self.mlp_policy.clone(), config);
        online
            .install_pretrained_models(self.pretrained_power.clone(), self.pretrained_time.clone());
        online
    }

    /// The batch-pretrained (`λ = 1`) online candidate models `(power, time)`.
    ///
    /// These are the tiered model store's merge anchor: because they were
    /// fitted with `λ = 1` updates, their exact sufficient statistics can be
    /// recovered (`RlsStats::from_estimator`) and per-user deltas folded in
    /// with an exact, associative merge.
    pub fn pretrained_models(&self) -> (&CandidateModel, &CandidateModel) {
        (&self.pretrained_power, &self.pretrained_time)
    }
}

/// Store key: platform JSON fingerprint plus experiment scale.
type ArtifactKey = (String, ExperimentScale);
/// One build slot: concurrent requesters block on the `OnceLock` of their key.
type ArtifactCell = Arc<OnceLock<Arc<TrainingArtifacts>>>;

/// Learned NoC model key: everything the SVR training reads from a session,
/// with the training rates as exact bit patterns.
#[derive(Clone, PartialEq, Eq, Hash)]
struct NocModelKey {
    mesh: MeshConfig,
    pattern: TrafficPattern,
    train_rates: Vec<u64>,
    train_cycles: u64,
}
/// One training slot, shared like an [`ArtifactCell`].
type NocModelCell = Arc<OnceLock<Arc<SvrLatencyModel>>>;

/// Process-wide store of [`TrainingArtifacts`], keyed by *(platform
/// fingerprint, scale)*, and of the learned NoC latency models
/// ([`ArtifactStore::noc_model`]).
///
/// Each key owns a `OnceLock`: the first caller builds, concurrent callers for
/// the same key block until that build finishes and then share the same `Arc`.
/// Distinct keys build independently (the map lock is only held to fetch the
/// cell, never during a build).
pub struct ArtifactStore {
    cells: Mutex<HashMap<ArtifactKey, ArtifactCell>>,
    builds: AtomicUsize,
    noc_models: Mutex<HashMap<NocModelKey, NocModelCell>>,
    noc_trainings: AtomicUsize,
}

impl ArtifactStore {
    /// Creates an empty store (tests; production code uses [`ArtifactStore::global`]).
    pub fn new() -> Self {
        Self {
            cells: Mutex::new(HashMap::new()),
            builds: AtomicUsize::new(0),
            noc_models: Mutex::new(HashMap::new()),
            noc_trainings: AtomicUsize::new(0),
        }
    }

    /// The process-wide store.
    pub fn global() -> &'static ArtifactStore {
        static GLOBAL: OnceLock<ArtifactStore> = OnceLock::new();
        GLOBAL.get_or_init(ArtifactStore::new)
    }

    /// Returns the artifacts for `(platform, scale)`, building them exactly
    /// once per store however many threads ask.
    pub fn get_or_build(
        &self,
        platform: &SocPlatform,
        scale: ExperimentScale,
    ) -> Arc<TrainingArtifacts> {
        let key = (serde_json::to_string(platform).expect("platform serialises to JSON"), scale);
        // Fetch (or create) the key's cell under the map lock, then build
        // outside it: the lock is never held while `build` runs.
        let cell = Arc::clone(
            self.cells
                .lock()
                .expect("artifact store lock")
                .entry(key)
                .or_insert_with(|| Arc::new(OnceLock::new())),
        );
        Arc::clone(cell.get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(TrainingArtifacts::build(platform.clone(), scale))
        }))
    }

    /// Number of artifact builds the store has actually executed.
    pub fn builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// The design-time learned latency model for a NoC session's mesh,
    /// traffic pattern, training rates and training cycles, trained once per
    /// store with [`EXPERIMENT_SEED`] however many sessions and threads ask.
    /// The session's own `seed` and query windows do not select the model.
    pub fn noc_model(&self, session: &NocSessionSpec) -> Arc<SvrLatencyModel> {
        let key = NocModelKey {
            mesh: session.mesh,
            pattern: session.pattern,
            train_rates: session.train_rates.iter().map(|rate| rate.to_bits()).collect(),
            train_cycles: session.train_cycles,
        };
        let cell = Arc::clone(
            self.noc_models
                .lock()
                .expect("artifact store lock")
                .entry(key)
                .or_insert_with(|| Arc::new(OnceLock::new())),
        );
        Arc::clone(cell.get_or_init(|| {
            self.noc_trainings.fetch_add(1, Ordering::Relaxed);
            Arc::new(SvrLatencyModel::train(
                session.mesh,
                session.pattern,
                &session.train_rates,
                session.train_cycles,
                EXPERIMENT_SEED,
            ))
        }))
    }

    /// Number of learned NoC models the store has actually trained.
    pub fn noc_models_trained(&self) -> usize {
        self.noc_trainings.load(Ordering::Relaxed)
    }

    /// Number of distinct [`TrainingArtifacts`] keys the store has seen.
    pub fn len(&self) -> usize {
        self.cells.lock().expect("artifact store lock").len()
    }

    /// Whether the store has seen no [`TrainingArtifacts`] keys yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for ArtifactStore {
    fn default() -> Self {
        Self::new()
    }
}

/// Shorthand for `ArtifactStore::global().get_or_build(platform, scale)` — the
/// entry point the experiment harness uses.
pub fn shared_artifacts(platform: &SocPlatform, scale: ExperimentScale) -> Arc<TrainingArtifacts> {
    ArtifactStore::global().get_or_build(platform, scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use soclearn_soc_sim::DvfsPolicy;

    #[test]
    fn store_builds_once_per_key() {
        let store = ArtifactStore::new();
        let platform = SocPlatform::small();
        let a = store.get_or_build(&platform, ExperimentScale::Quick);
        let b = store.get_or_build(&platform, ExperimentScale::Quick);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.builds(), 1);
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
    }

    #[test]
    fn distinct_platforms_get_distinct_artifacts() {
        let store = ArtifactStore::new();
        let a = store.get_or_build(&SocPlatform::small(), ExperimentScale::Quick);
        let b = store.get_or_build(&SocPlatform::odroid_xu3(), ExperimentScale::Quick);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(store.builds(), 2);
        assert_eq!(store.len(), 2);
        assert_ne!(a.platform, b.platform);
    }

    #[test]
    fn artifacts_match_an_unshared_build() {
        let store = ArtifactStore::new();
        let platform = SocPlatform::small();
        let shared = store.get_or_build(&platform, ExperimentScale::Quick);
        let unshared = TrainingArtifacts::build(platform.clone(), ExperimentScale::Quick);
        assert_eq!(shared.training_profiles, unshared.training_profiles);
        assert_eq!(shared.tree_policy, unshared.tree_policy);
        assert_eq!(shared.mlp_policy, unshared.mlp_policy);
        // Policies handed out by both artifact sets are bit-identical.
        let a = shared.online_policy(OnlineIlConfig::default());
        let b = unshared.online_policy(OnlineIlConfig::default());
        assert_eq!(a, b);
        assert_eq!(a.name(), "online-il");
    }

    #[test]
    fn concurrent_get_or_build_shares_one_build() {
        let store = Arc::new(ArtifactStore::new());
        let platform = SocPlatform::small();
        let results: Vec<Arc<TrainingArtifacts>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let store = Arc::clone(&store);
                    let platform = platform.clone();
                    s.spawn(move || store.get_or_build(&platform, ExperimentScale::Quick))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
        });
        assert_eq!(store.builds(), 1, "all threads must share one build");
        for pair in results.windows(2) {
            assert!(Arc::ptr_eq(&pair[0], &pair[1]));
        }
    }
}
