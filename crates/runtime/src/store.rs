//! Tiered per-user model store: copy-on-write personalization at fleet scale.
//!
//! The paper's premise is *per-user* online learning, but a million users
//! cannot each own a full policy copy (two `d × d` RLS covariances, two MLPs,
//! a scaler — a few tens of KB each).  The [`TieredModelStore`] makes
//! personalization affordable with three tiers:
//!
//! * **Tier 0 — shared base.** One immutable, `Arc`'d `BaseTier` per store:
//!   the batch-pretrained policy prototype plus the cumulative `λ = 1`
//!   sufficient statistics ([`CandidateStats`]) its analytical models refit from.
//!   A lease only holds the `Arc` until its first CPU decision, so users that
//!   never make one (GPU- or NoC-only sessions) cost zero per-user bytes.
//! * **Tier 1 — copy-on-write per-user deltas.** A lease's first
//!   [`DvfsPolicy::decide`] copies the base prototype's per-user state (its
//!   two RLS models, zeroed delta statistics, counters and an empty buffer)
//!   and shares its scaler and policy networks, which the user owns only
//!   once its buffer fills and retrains them.  From then on the user adapts
//!   privately, with every model update also recorded as raw sufficient
//!   statistics.
//! * **Tier 2 — pending merge pool.** When a lease completes, its recorded
//!   per-user stats are folded into one accumulated `(power, time)` pair
//!   (`O(1)` memory however many users complete) and the copy is dropped.
//!   Every [`TieredModelStore::merge_every`] diverged completions — and once
//!   at run end — the pool is fleet-merged into the base: cumulative stats
//!   absorb the pool (exact, associative merge) and the base's analytical
//!   models are refit into a new base generation, counted by
//!   [`ModelStoreStats::merge_rounds`].  Because the merge operates on
//!   sufficient statistics, the merged base equals a batch fit over
//!   pretraining plus every recorded user observation to floating-point
//!   rounding, regardless of completion order or worker count
//!   (the *low-order bits* can differ across completion orders — f64 addition
//!   is not associative — so personalized runs are byte-compared only at one
//!   worker, whose completions follow its serving order).
//!
//! Only the **analytical models** (power/time RLS) are federated; per-user
//! MLP adaptation lives and dies with the lease — there is no exact merge for
//! back-propagated weights, and the paper's model-guided supervision means the
//! analytical models are what carry cross-user knowledge.
//!
//! Peak resident model memory is `resident copies × copy bytes`, where a
//! copy is charged for what the lease holds on its own (its buffer's whole
//! allocation, and the networks only after it retrains), and resident
//! copies is bounded by in-flight leases (≈ the driver's worker count), not
//! by the user population — which is how a fleet stays under 10% of one
//! full per-user copy in amortized bytes/user (asserted by the scenarios
//! crate's fleet-scale store invariant at 10⁴ users, and at 10⁶ users
//! nightly, together with a bound of one resident copy per worker).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use soclearn_imitation::{CandidateStats, OnlineIlConfig, OnlineIlPolicy};
use soclearn_soc_sim::{DvfsConfig, DvfsPolicy, PolicyDecision, SocPlatform};
use soclearn_telemetry::{ObservedMutex, TelemetryRegistry};

use crate::artifacts::TrainingArtifacts;

/// Tier 0: the shared, immutable base model generation.
struct BaseTier {
    /// Ready-to-clone policy whose analytical models are the refit of
    /// `power_stats` / `time_stats` wrapped in the store's runtime config.
    /// Its networks are shared by every later generation, and by each lease
    /// until that lease retrains.
    prototype: OnlineIlPolicy,
    /// Cumulative `λ = 1` sufficient statistics: pretraining plus every
    /// fleet-merged user observation.
    power_stats: CandidateStats,
    /// Time-model counterpart of `power_stats`.
    time_stats: CandidateStats,
}

/// Tier 2: per-user deltas folded into one accumulated pair on completion.
struct PendingPool {
    power: CandidateStats,
    time: CandidateStats,
    /// Diverged completions folded since the last fleet merge.
    completions: usize,
}

/// Lease lifecycle: shared (tier 0) until the first decision, then a
/// private copy (tier 1) until drop.
enum LeaseState {
    Shared {
        base: Arc<BaseTier>,
    },
    Diverged {
        policy: Box<OnlineIlPolicy>,
    },
    /// Transient placeholder during state swaps and after drop.
    Released,
}

/// Point-in-time accounting snapshot of a [`TieredModelStore`].
#[derive(Debug, Clone, PartialEq)]
pub struct ModelStoreStats {
    /// Leases handed out (one per user served with personalization).
    pub users_leased: u64,
    /// Users whose first decision materialized a private copy.
    pub deltas_materialized: u64,
    /// Private copies currently resident (in-flight leases).
    pub resident_copies: usize,
    /// High-water mark of concurrently resident private copies.
    pub peak_resident_copies: usize,
    /// Fleet merges folded into the base so far, which is also the base's
    /// generation (0 = the pristine pretrained base).
    pub merge_rounds: u64,
    /// Per-user observations (power + time) absorbed by fleet merges.
    pub merged_samples: u64,
    /// Resident bytes of one full policy copy (the naive per-user cost),
    /// [`OnlineIlPolicy::model_bytes`] of the base prototype.
    pub full_copy_bytes: usize,
    /// Largest observed footprint a single lease held on its own
    /// ([`OnlineIlPolicy::owned_bytes`]): its online models, delta
    /// statistics and the buffer's whole allocation, plus its networks once
    /// it retrained.
    pub peak_copy_bytes: usize,
}

impl ModelStoreStats {
    /// Peak resident personalization memory: concurrent private copies at
    /// their largest observed footprint (the base tier is shared and the
    /// pending pool is `O(1)`, two stats pairs).
    pub fn peak_resident_bytes(&self) -> usize {
        self.peak_resident_copies * self.peak_copy_bytes
    }

    /// Peak personalization bytes amortized over every user served.
    pub fn bytes_per_user(&self) -> f64 {
        if self.users_leased == 0 {
            0.0
        } else {
            self.peak_resident_bytes() as f64 / self.users_leased as f64
        }
    }

    /// `bytes_per_user` as a fraction of one full per-user policy copy — the
    /// fleet-scale store invariant asserts this stays below 0.10.
    pub fn copy_fraction_per_user(&self) -> f64 {
        if self.full_copy_bytes == 0 {
            0.0
        } else {
            self.bytes_per_user() / self.full_copy_bytes as f64
        }
    }
}

/// Shared per-(platform, scale) tiered model store; see the module docs.
pub struct TieredModelStore {
    config: OnlineIlConfig,
    merge_every: usize,
    full_copy_bytes: usize,
    base: ObservedMutex<Arc<BaseTier>>,
    pending: ObservedMutex<PendingPool>,
    /// Delta materializations per scenario family (lease-time labels — no
    /// per-user audit set, so the table stays `O(families)` at 10⁶ users).
    families: ObservedMutex<HashMap<String, u64>>,
    users_leased: AtomicU64,
    deltas_materialized: AtomicU64,
    resident_copies: AtomicUsize,
    peak_resident_copies: AtomicUsize,
    merge_rounds: AtomicU64,
    merged_samples: AtomicU64,
    peak_copy_bytes: AtomicUsize,
}

impl TieredModelStore {
    /// Default number of diverged completions between fleet merges: frequent
    /// enough that a draining fleet's base keeps absorbing user knowledge,
    /// rare enough that refitting (two `d³` solves) stays invisible next to
    /// serving work.
    pub const DEFAULT_MERGE_EVERY: usize = 64;

    /// Builds a store over `artifacts`' shared base: the policy prototype is
    /// [`TrainingArtifacts::online_policy`] for `config`, and the cumulative
    /// statistics start as the exact sufficient statistics of the
    /// batch-pretrained (`λ = 1`) candidate models.
    ///
    /// # Panics
    ///
    /// Panics if `merge_every` is zero.
    pub fn new(artifacts: &TrainingArtifacts, config: OnlineIlConfig, merge_every: usize) -> Self {
        assert!(merge_every > 0, "merge cadence must be positive");
        let prototype = artifacts.online_policy(config);
        let (power, time) = artifacts.pretrained_models();
        let power_stats = CandidateStats::from_estimator(power);
        let time_stats = CandidateStats::from_estimator(time);
        let full_copy_bytes = prototype.model_bytes();
        Self {
            config,
            merge_every,
            full_copy_bytes,
            base: ObservedMutex::new(
                "model_store_base",
                Arc::new(BaseTier { prototype, power_stats, time_stats }),
            ),
            pending: ObservedMutex::new(
                "model_store_pending",
                PendingPool {
                    power: CandidateStats::zero(),
                    time: CandidateStats::zero(),
                    completions: 0,
                },
            ),
            families: ObservedMutex::new("model_store_families", HashMap::new()),
            users_leased: AtomicU64::new(0),
            deltas_materialized: AtomicU64::new(0),
            resident_copies: AtomicUsize::new(0),
            peak_resident_copies: AtomicUsize::new(0),
            merge_rounds: AtomicU64::new(0),
            merged_samples: AtomicU64::new(0),
            peak_copy_bytes: AtomicUsize::new(0),
        }
    }

    /// Convenience constructor with the default merge cadence.
    pub fn with_defaults(artifacts: &TrainingArtifacts, config: OnlineIlConfig) -> Self {
        Self::new(artifacts, config, Self::DEFAULT_MERGE_EVERY)
    }

    /// The runtime configuration every leased policy runs with.
    pub fn config(&self) -> OnlineIlConfig {
        self.config
    }

    /// Diverged completions between fleet merges.
    pub fn merge_every(&self) -> usize {
        self.merge_every
    }

    /// Leases a personalized policy for one user: it holds the shared base
    /// until the user's first decision copies it.  Dropping the lease
    /// (scenario completion) returns its recorded deltas to the merge pool.
    /// `family` labels the per-family materialization table (pass an
    /// interned `Arc<str>` to make the lease allocation-free).
    pub fn lease(self: &Arc<Self>, family: impl Into<Arc<str>>) -> TieredPolicy {
        self.users_leased.fetch_add(1, Ordering::Relaxed);
        let base = Arc::clone(&self.base.lock());
        TieredPolicy {
            store: Arc::clone(self),
            family: family.into(),
            state: LeaseState::Shared { base },
        }
    }

    /// Clones the base tier's cumulative `(power, time)` sufficient
    /// statistics — what the merge-law tests compare against batch fits.
    pub fn base_stats(&self) -> (CandidateStats, CandidateStats) {
        let base = self.base.lock();
        (base.power_stats.clone(), base.time_stats.clone())
    }

    /// Point-in-time accounting snapshot.
    pub fn snapshot(&self) -> ModelStoreStats {
        ModelStoreStats {
            users_leased: self.users_leased.load(Ordering::Relaxed),
            deltas_materialized: self.deltas_materialized.load(Ordering::Relaxed),
            resident_copies: self.resident_copies.load(Ordering::Relaxed),
            peak_resident_copies: self.peak_resident_copies.load(Ordering::Relaxed),
            merge_rounds: self.merge_rounds.load(Ordering::Relaxed),
            merged_samples: self.merged_samples.load(Ordering::Relaxed),
            full_copy_bytes: self.full_copy_bytes,
            peak_copy_bytes: self.peak_copy_bytes.load(Ordering::Relaxed),
        }
    }

    /// Per-family delta-materialization counts, sorted by family name.
    pub fn family_materializations(&self) -> Vec<(String, u64)> {
        let mut rows: Vec<(String, u64)> =
            self.families.lock().iter().map(|(k, v)| (k.clone(), *v)).collect();
        rows.sort();
        rows
    }

    /// Fleet-merges any pending per-user statistics into the base regardless
    /// of the merge cadence; the driver calls this at run end so completed
    /// users' knowledge is never stranded in the pool.  Returns `true` if a
    /// merge actually happened.
    pub fn finish_run(&self) -> bool {
        let taken = {
            let mut pool = self.pending.lock();
            self.take_pool_if(&mut pool, |pool| !pool.power.is_empty() || !pool.time.is_empty())
        };
        match taken {
            Some((power, time)) => {
                self.fold_into_base(power, time);
                true
            }
            None => false,
        }
    }

    /// Observe the store's lock contention in `registry` (base swap, pending
    /// pool and family table sites).
    pub fn attach_contention(&self, registry: &Arc<TelemetryRegistry>) {
        self.base.attach(registry);
        self.pending.attach(registry);
        self.families.attach(registry);
    }

    /// Publishes the store's accounting into a metrics registry.
    pub fn publish_stats(&self, registry: &TelemetryRegistry) {
        let stats = self.snapshot();
        registry.gauge("model_store_users_leased", &[]).set(stats.users_leased as f64);
        registry
            .gauge("model_store_deltas_materialized", &[])
            .set(stats.deltas_materialized as f64);
        registry
            .gauge("model_store_resident_copies", &[])
            .set(stats.resident_copies as f64);
        registry
            .gauge("model_store_peak_resident_copies", &[])
            .set(stats.peak_resident_copies as f64);
        registry.gauge("model_store_merge_rounds", &[]).set(stats.merge_rounds as f64);
        registry
            .gauge("model_store_merged_samples", &[])
            .set(stats.merged_samples as f64);
        registry
            .gauge("model_store_full_copy_bytes", &[])
            .set(stats.full_copy_bytes as f64);
        registry.gauge("model_store_bytes_per_user", &[]).set(stats.bytes_per_user());
        for (family, count) in self.family_materializations() {
            registry
                .gauge("model_store_family_deltas", &[("family", family.as_str())])
                .set(count as f64);
        }
    }

    /// Records a materialization (first decision of a lease).
    fn note_materialized(&self, family: &str, copy_bytes: usize) {
        self.deltas_materialized.fetch_add(1, Ordering::Relaxed);
        let resident = self.resident_copies.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_resident_copies.fetch_max(resident, Ordering::Relaxed);
        self.peak_copy_bytes.fetch_max(copy_bytes, Ordering::Relaxed);
        let mut families = self.families.lock();
        // Entry-API insertion would clone the family name on every call; all
        // but the first lease of a family take the alloc-free path.
        match families.get_mut(family) {
            Some(count) => *count += 1,
            None => {
                families.insert(family.to_owned(), 1);
            }
        }
    }

    /// Folds one completed lease's recorded deltas into the pending pool and
    /// triggers a fleet merge when the cadence is reached.
    fn release_diverged(&self, stats: Option<(CandidateStats, CandidateStats)>, copy_bytes: usize) {
        self.resident_copies.fetch_sub(1, Ordering::Relaxed);
        self.peak_copy_bytes.fetch_max(copy_bytes, Ordering::Relaxed);
        let taken = {
            let mut pool = self.pending.lock();
            if let Some((power, time)) = stats {
                pool.power.merge(&power);
                pool.time.merge(&time);
            }
            pool.completions += 1;
            let due = pool.completions >= self.merge_every;
            self.take_pool_if(&mut pool, |_| due)
        };
        if let Some((power, time)) = taken {
            self.fold_into_base(power, time);
        }
    }

    /// Swaps the pool's accumulated stats out (resetting the completion
    /// count) when `predicate` holds, keeping the pending lock scope tight.
    fn take_pool_if(
        &self,
        pool: &mut PendingPool,
        predicate: impl Fn(&PendingPool) -> bool,
    ) -> Option<(CandidateStats, CandidateStats)> {
        if !predicate(pool) {
            return None;
        }
        let power = std::mem::replace(&mut pool.power, CandidateStats::zero());
        let time = std::mem::replace(&mut pool.time, CandidateStats::zero());
        pool.completions = 0;
        Some((power, time))
    }

    /// The fleet merge: absorb `(power, time)` deltas into the cumulative
    /// base statistics, refit the analytical models at `λ = 1` and publish a
    /// new base generation.  Exact by the [`CandidateStats::merge`] law; concurrent
    /// merges serialize on the base lock and compose (each folds its
    /// delta into whatever cumulative state it finds).
    fn fold_into_base(&self, power: CandidateStats, time: CandidateStats) {
        let mut slot = self.base.lock();
        let mut power_stats = slot.power_stats.clone();
        let mut time_stats = slot.time_stats.clone();
        power_stats.merge(&power);
        time_stats.merge(&time);
        let mut prototype = slot.prototype.clone();
        prototype.install_pretrained_models(power_stats.refit(1.0), time_stats.refit(1.0));
        *slot = Arc::new(BaseTier { prototype, power_stats, time_stats });
        self.merge_rounds.fetch_add(1, Ordering::Relaxed);
        self.merged_samples
            .fetch_add(power.samples() + time.samples(), Ordering::Relaxed);
    }
}

/// A per-user personalized policy leased from a [`TieredModelStore`];
/// copy-on-write over the shared base, returning its deltas on drop.
pub struct TieredPolicy {
    store: Arc<TieredModelStore>,
    family: Arc<str>,
    state: LeaseState,
}

impl TieredPolicy {
    /// Switches a still-shared lease to a private copy of the base
    /// prototype that records its model updates as sufficient statistics.
    /// The copy shares the prototype's networks until it retrains them.
    fn materialize(&mut self) {
        if let LeaseState::Shared { base } = &self.state {
            let mut policy = base.prototype.clone();
            policy.enable_stats_recording();
            self.store.note_materialized(&self.family, policy.owned_bytes());
            self.state = LeaseState::Diverged { policy: Box::new(policy) };
        }
    }
}

impl DvfsPolicy for TieredPolicy {
    fn name(&self) -> &str {
        "online-il-tiered"
    }

    fn decide(&mut self, platform: &SocPlatform, decision: PolicyDecision<'_>) -> DvfsConfig {
        // Copy at the first decision, not at lease time: every user that
        // decides once goes on to update its models, while users without a
        // CPU segment never reach this call and never pay for a copy.
        self.materialize();
        let LeaseState::Diverged { policy } = &mut self.state else {
            unreachable!("lease used after release");
        };
        policy.decide(platform, decision)
    }

    fn observe_outcome(&mut self, energy_j: f64, time_s: f64) {
        if let LeaseState::Diverged { policy } = &mut self.state {
            policy.observe_outcome(energy_j, time_s);
        }
    }
}

impl Drop for TieredPolicy {
    fn drop(&mut self) {
        match std::mem::replace(&mut self.state, LeaseState::Released) {
            LeaseState::Diverged { mut policy } => {
                let copy_bytes = policy.owned_bytes();
                self.store.release_diverged(policy.take_recorded_stats(), copy_bytes);
            }
            // A user who never decided never owned resident state.
            LeaseState::Shared { .. } | LeaseState::Released => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ExperimentScale;
    use crate::ArtifactStore;
    use soclearn_soc_sim::SnippetCounters;
    use soclearn_workloads::SnippetProfile;

    fn quick_artifacts() -> Arc<TrainingArtifacts> {
        ArtifactStore::global().get_or_build(&SocPlatform::small(), ExperimentScale::Quick)
    }

    /// Runs one policy over `profiles` (the unit-test serving loop).
    fn run_lease(
        platform: &SocPlatform,
        policy: &mut dyn DvfsPolicy,
        profiles: &[SnippetProfile],
    ) -> Vec<DvfsConfig> {
        let mut sim = soclearn_soc_sim::SocSimulator::new(platform.clone());
        let mut counters = SnippetCounters::default();
        let mut config = platform.max_config();
        let mut decisions = Vec::new();
        for (i, p) in profiles.iter().enumerate() {
            config = policy.decide(platform, PolicyDecision::new(&counters, config, i));
            let r = sim.execute_snippet(p, config);
            policy.observe_outcome(r.energy_j, r.time_s);
            counters = r.counters;
            decisions.push(config);
        }
        decisions
    }

    #[test]
    fn cow_lease_matches_an_eager_private_copy_bit_for_bit() {
        let platform = SocPlatform::small();
        let artifacts = quick_artifacts();
        let config = OnlineIlConfig { buffer_capacity: 15, ..OnlineIlConfig::default() };
        let store = Arc::new(TieredModelStore::with_defaults(&artifacts, config));
        let profiles: Vec<SnippetProfile> =
            artifacts.training_profiles.iter().take(20).cloned().collect();

        let mut lease = store.lease("training");
        assert_eq!(store.snapshot().resident_copies, 0, "leasing alone copies nothing");
        let cow_decisions = run_lease(&platform, &mut lease, &profiles);
        assert_eq!(store.snapshot().resident_copies, 1, "deciding must have materialized a copy");
        drop(lease);

        let mut eager = artifacts.online_policy(config);
        let eager_decisions = run_lease(&platform, &mut eager, &profiles);
        assert_eq!(cow_decisions, eager_decisions, "COW must be decision-transparent");

        let stats = store.snapshot();
        assert_eq!(stats.users_leased, 1);
        assert_eq!(stats.deltas_materialized, 1);
        assert_eq!(stats.resident_copies, 0, "drop must release the copy");
        assert_eq!(stats.peak_resident_copies, 1);
        assert!(stats.full_copy_bytes > 0 && stats.peak_copy_bytes >= stats.full_copy_bytes);
    }

    /// A lease owns its networks only once it retrains them, so retrained
    /// leases leave the base's untouched: after they drop (before any merge
    /// refits the base), a new lease decides exactly as one from a fresh
    /// store, from its first decision on.
    #[test]
    fn retrained_leases_leave_the_base_networks_untouched() {
        let platform = SocPlatform::small();
        let artifacts = quick_artifacts();
        let config = OnlineIlConfig { buffer_capacity: 6, ..OnlineIlConfig::default() };
        let profiles: Vec<SnippetProfile> =
            artifacts.training_profiles.iter().take(24).cloned().collect();
        let store = Arc::new(TieredModelStore::new(&artifacts, config, 1_000));
        for user in 0..3 {
            let mut lease = store.lease("retrained");
            run_lease(&platform, &mut lease, &profiles[user..]);
        }
        assert_eq!(store.snapshot().merge_rounds, 0, "no merge refit the base");
        let fresh = Arc::new(TieredModelStore::new(&artifacts, config, 1_000));
        let after = run_lease(&platform, &mut store.lease("next"), &profiles[..20]);
        let reference = run_lease(&platform, &mut fresh.lease("next"), &profiles[..20]);
        assert_eq!(after[0], reference[0], "first decision");
        assert_eq!(after, reference);
    }

    /// A lease is charged for what it holds on its own: its online models,
    /// delta statistics and buffer while it shares the base's networks, and
    /// the networks too once it retrains them.
    #[test]
    fn a_lease_is_charged_for_its_networks_only_once_it_retrains() {
        let platform = SocPlatform::small();
        let artifacts = quick_artifacts();
        let config = OnlineIlConfig { buffer_capacity: 15, ..OnlineIlConfig::default() };
        let store = Arc::new(TieredModelStore::with_defaults(&artifacts, config));
        let profiles: Vec<SnippetProfile> =
            artifacts.training_profiles.iter().take(20).cloned().collect();
        run_lease(&platform, &mut store.lease("short"), &profiles[..14]);
        let shared = store.snapshot();
        assert!(shared.peak_copy_bytes > 0);
        assert!(shared.peak_copy_bytes < shared.full_copy_bytes, "{shared:?}");
        run_lease(&platform, &mut store.lease("retrained"), &profiles);
        let owned = store.snapshot();
        assert!(owned.peak_copy_bytes > owned.full_copy_bytes, "{owned:?}");
    }

    /// A lease that never decides (a user with no CPU segment) stays on the
    /// shared base: no copy, nothing to merge.
    #[test]
    fn undiverged_lease_serves_shared_and_costs_nothing() {
        let artifacts = quick_artifacts();
        let store =
            Arc::new(TieredModelStore::with_defaults(&artifacts, OnlineIlConfig::default()));
        drop(store.lease("idle"));
        assert!(!store.finish_run(), "a lease without decisions has no deltas to merge");
        let stats = store.snapshot();
        assert_eq!(stats.users_leased, 1);
        assert_eq!(stats.deltas_materialized, 0);
        assert_eq!(stats.peak_resident_copies, 0);
        assert_eq!(stats.peak_resident_bytes(), 0);
        assert_eq!(stats.merge_rounds, 0, "nothing to merge");
    }

    #[test]
    fn fleet_merge_equals_batch_fit_over_pretraining_plus_user_deltas() {
        let platform = SocPlatform::small();
        let artifacts = quick_artifacts();
        let config = OnlineIlConfig { buffer_capacity: 15, ..OnlineIlConfig::default() };
        // merge_every = 2: two completions trigger one mid-run merge, the
        // remainder is folded by finish_run.
        let store = Arc::new(TieredModelStore::new(&artifacts, config, 2));
        let profiles: Vec<SnippetProfile> =
            artifacts.training_profiles.iter().take(12).cloned().collect();

        // Reference: accumulate the same per-user deltas by hand.
        let (power0, time0) = store.base_stats();
        let mut expected_power = power0;
        let mut expected_time = time0;
        for user in 0..3 {
            let mut lease = store.lease(format!("user-{user}").as_str());
            run_lease(&platform, &mut lease, &profiles);
            drop(lease);
            let mut reference = artifacts.online_policy(config);
            reference.enable_stats_recording();
            run_lease(&platform, &mut reference, &profiles);
            let (dp, dt) = reference.take_recorded_stats().expect("recording enabled");
            expected_power.merge(&dp);
            expected_time.merge(&dt);
        }
        assert!(store.finish_run() || store.snapshot().merge_rounds > 0);
        let (merged_power, merged_time) = store.base_stats();
        assert_eq!(merged_power.samples(), expected_power.samples());
        assert_eq!(merged_time.samples(), expected_time.samples());
        // Weights of the merged-base refit match the batch fit within 1e-9.
        let (mp, mt) = (merged_power.refit(1.0), merged_time.refit(1.0));
        let (ep, et) = (expected_power.refit(1.0), expected_time.refit(1.0));
        let merged_w = mp.weights().iter().chain(mt.weights());
        let expected_w = ep.weights().iter().chain(et.weights());
        for (a, b) in merged_w.zip(expected_w) {
            assert!((a - b).abs() < 1e-9, "merged base {a} vs batch fit {b}");
        }
        let stats = store.snapshot();
        assert!(stats.merge_rounds >= 1);
        assert!(stats.merged_samples > 0);
        assert_eq!(store.family_materializations().len(), 3);
    }

    #[test]
    fn merged_base_serves_subsequent_leases() {
        let platform = SocPlatform::small();
        let artifacts = quick_artifacts();
        let config = OnlineIlConfig { buffer_capacity: 15, ..OnlineIlConfig::default() };
        let store = Arc::new(TieredModelStore::new(&artifacts, config, 1));
        let profiles: Vec<SnippetProfile> =
            artifacts.training_profiles.iter().take(10).cloned().collect();
        let mut first = store.lease("gen0");
        run_lease(&platform, &mut first, &profiles);
        drop(first); // merge_every = 1 → immediate fleet merge
        assert!(store.snapshot().merge_rounds >= 1);
        // The next lease is served off the merged generation and still works.
        let mut second = store.lease("gen1");
        let decisions = run_lease(&platform, &mut second, &profiles);
        assert_eq!(decisions.len(), profiles.len());
        drop(second);
        let stats = store.snapshot();
        assert_eq!(stats.deltas_materialized, 2);
        assert_eq!(stats.resident_copies, 0);
    }
}
