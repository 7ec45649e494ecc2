//! Process-wide memoisation of design-time training artifacts.
//!
//! Every experiment in the seed repository re-ran the full design-time
//! pipeline — Oracle demonstration collection over the training suite,
//! offline policy training, online-model bootstrapping — once per experiment
//! function, and then re-ran the Oracle over the same evaluation sequences to
//! normalise its numbers.  The [`ArtifactStore`] makes all of that
//! once-per-process:
//!
//! * [`ArtifactStore::get_or_build`] memoises whole [`TrainingArtifacts`]
//!   keyed by *(platform fingerprint, [`ExperimentScale`])* behind a
//!   `OnceLock`-per-key, so concurrent callers block on a single build instead
//!   of racing duplicate ones;
//! * [`TrainingArtifacts::oracle_run`] memoises Oracle runs per exact profile
//!   sequence, with the per-snippet Oracle answers shared through one
//!   [`SweepCache`];
//! * [`TrainingArtifacts::online_policy`] hands out online-IL policies whose
//!   power/performance models were pretrained **once** and cloned per policy,
//!   bit-identical to per-policy pretraining.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use soclearn_imitation::{
    pretrain_candidate_models, OfflineIlPolicy, OnlineIlConfig, OnlineIlPolicy, PolicyModelKind,
};
use soclearn_online_learning::rls::RecursiveLeastSquares;
use soclearn_oracle::{OracleObjective, OracleRun};
use soclearn_soc_sim::{SocPlatform, SocSimulator};
use soclearn_workloads::{ApplicationSequence, BenchmarkSuite, SnippetProfile, SuiteKind};

use crate::scale::ExperimentScale;
use crate::sweep::{profile_bits, SweepCache, SweepEngine};

/// Deterministic seed used by every experiment for workload generation.
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

/// Exact identity of a profile sequence, the Oracle-run memo key.
#[derive(Clone, PartialEq, Eq, Hash)]
struct ProfilesKey(Vec<[u64; 9]>);

impl ProfilesKey {
    fn of(profiles: &[SnippetProfile]) -> Self {
        Self(profiles.iter().map(profile_bits).collect())
    }
}

/// Design-time artefacts shared by the IL experiments: Oracle demonstrations
/// from the Mi-Bench-like training suite, the trained offline policies, the
/// pretrained online candidate models, and the caches that keep re-derived
/// quantities (Oracle runs, per-snippet Oracle answers) once-per-process.
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
    pretrained_power: RecursiveLeastSquares,
    pretrained_time: RecursiveLeastSquares,
    /// Sweep memo shared by every engine derived from these artifacts.
    sweep_cache: Arc<SweepCache>,
    /// Memoised Oracle runs keyed by exact profile sequence.
    oracle_runs: Mutex<HashMap<ProfilesKey, Arc<OracleRun>>>,
    /// Scale the artifacts were built at (telemetry label).
    scale: ExperimentScale,
    /// Wall-clock seconds the design-time build took.
    build_wall_s: f64,
    /// Oracle-run memo effectiveness counters.
    oracle_memo_hits: AtomicUsize,
    oracle_memo_misses: AtomicUsize,
}

impl TrainingArtifacts {
    /// Collects demonstrations on the Mi-Bench-like suite, trains both offline
    /// policies and pretrains the online candidate models.
    ///
    /// Prefer [`ArtifactStore::get_or_build`] (or
    /// [`shared_artifacts`]) over calling this directly: the store makes the
    /// build once-per-process.
    pub fn build(platform: SocPlatform, scale: ExperimentScale) -> Self {
        let build_started = std::time::Instant::now();
        let training = scaled_suite(SuiteKind::MiBench, scale);
        let training_profiles = profiles_of(&training);
        let sweep_cache = Arc::new(SweepCache::new());
        let mut engine = SweepEngine::with_cache(platform.clone(), Arc::clone(&sweep_cache));
        let demos = engine.collect_demonstrations(&training_profiles, OracleObjective::Energy);
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
            sweep_cache,
            oracle_runs: Mutex::new(HashMap::new()),
            scale,
            build_wall_s: build_started.elapsed().as_secs_f64(),
            oracle_memo_hits: AtomicUsize::new(0),
            oracle_memo_misses: AtomicUsize::new(0),
        }
    }

    /// Wall-clock seconds the design-time build took.
    pub fn build_seconds(&self) -> f64 {
        self.build_wall_s
    }

    /// The scale the artifacts were built at.
    pub fn scale(&self) -> ExperimentScale {
        self.scale
    }

    /// Publishes build/memo telemetry into an observability registry: the
    /// design-time build duration, Oracle-memo effectiveness and the shared
    /// sweep cache's per-shard statistics, labelled by scale.
    pub fn publish_stats(&self, registry: &soclearn_telemetry::TelemetryRegistry) {
        let scale = self.scale.label();
        let labels: [(&str, &str); 1] = [("scale", scale)];
        registry.gauge("artifact_build_seconds", &labels).set(self.build_wall_s);
        registry
            .gauge("artifact_oracle_memo_hits", &labels)
            .set(self.oracle_memo_hits.load(Ordering::Relaxed) as f64);
        registry
            .gauge("artifact_oracle_memo_misses", &labels)
            .set(self.oracle_memo_misses.load(Ordering::Relaxed) as f64);
        registry
            .gauge("artifact_oracle_runs_cached", &labels)
            .set(self.oracle_runs_cached() as f64);
        self.sweep_cache.publish_stats(registry);
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
    pub fn pretrained_models(&self) -> (&RecursiveLeastSquares, &RecursiveLeastSquares) {
        (&self.pretrained_power, &self.pretrained_time)
    }

    /// A fresh sweep engine (ambient thermal state) sharing this artifact set's
    /// sweep cache.
    pub fn sweep_engine(&self) -> SweepEngine {
        SweepEngine::with_cache(self.platform.clone(), Arc::clone(&self.sweep_cache))
    }

    /// The sweep cache shared by every engine derived from these artifacts.
    pub fn sweep_cache(&self) -> &Arc<SweepCache> {
        &self.sweep_cache
    }

    /// Runs the Oracle over a profile sequence, memoised per exact sequence:
    /// the second request for the same profiles returns the stored run, and
    /// even the first request shares per-snippet Oracle answers with every
    /// other Oracle run through the sweep cache.
    pub fn oracle_run(&self, profiles: &[SnippetProfile]) -> Arc<OracleRun> {
        let key = ProfilesKey::of(profiles);
        if let Some(run) = self.oracle_runs.lock().expect("oracle memo lock").get(&key) {
            self.oracle_memo_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(run);
        }
        self.oracle_memo_misses.fetch_add(1, Ordering::Relaxed);
        let mut engine = self.sweep_engine();
        let run = Arc::new(engine.oracle_run(profiles, OracleObjective::Energy));
        let mut memo = self.oracle_runs.lock().expect("oracle memo lock");
        Arc::clone(memo.entry(key).or_insert(run))
    }

    /// Number of memoised Oracle runs.
    pub fn oracle_runs_cached(&self) -> usize {
        self.oracle_runs.lock().expect("oracle memo lock").len()
    }
}

/// Store key: platform JSON fingerprint plus experiment scale.
type ArtifactKey = (String, ExperimentScale);
/// One build slot: concurrent requesters block on the `OnceLock` of their key.
type ArtifactCell = Arc<OnceLock<Arc<TrainingArtifacts>>>;

/// Process-wide store of [`TrainingArtifacts`], keyed by *(platform
/// fingerprint, scale)*.
///
/// Each key owns a `OnceLock`: the first caller builds, concurrent callers for
/// the same key block until that build finishes and then share the same `Arc`.
/// Distinct keys build independently (the map lock is only held to fetch the
/// cell, never during a build).
pub struct ArtifactStore {
    cells: Mutex<HashMap<ArtifactKey, ArtifactCell>>,
    builds: AtomicUsize,
}

impl ArtifactStore {
    /// Creates an empty store (tests; production code uses [`ArtifactStore::global`]).
    pub fn new() -> Self {
        Self { cells: Mutex::new(HashMap::new()), builds: AtomicUsize::new(0) }
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

    /// Number of distinct keys the store has seen.
    pub fn len(&self) -> usize {
        self.cells.lock().expect("artifact store lock").len()
    }

    /// Whether the store has seen no keys yet.
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
    fn oracle_runs_are_memoised_and_reference_equal() {
        let store = ArtifactStore::new();
        let platform = SocPlatform::small();
        let artifacts = store.get_or_build(&platform, ExperimentScale::Quick);
        let profiles: Vec<SnippetProfile> =
            artifacts.training_profiles.iter().take(6).cloned().collect();
        let first = artifacts.oracle_run(&profiles);
        let second = artifacts.oracle_run(&profiles);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(artifacts.oracle_runs_cached(), 1);

        // And the memoised run equals a reference computation.
        let mut sim = SocSimulator::new(platform.clone());
        let reference = OracleRun::execute(&mut sim, &profiles, OracleObjective::Energy);
        assert_eq!(*first, reference);
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
