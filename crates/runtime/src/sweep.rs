//! Memoised Oracle answers.
//!
//! Every Oracle reference in this repository asks the same question — *"which
//! supported DVFS configuration is best for this snippet under this
//! objective, and what does the snippet do there?"* — and answering it means
//! evaluating the snippet at all 40 configurations.  This module provides the
//! serving-grade primitive:
//!
//! * [`SweepEngine`] answers it with one sweep ([`OracleSearch::best_config`],
//!   a running argmin over the per-level tables of
//!   [`soclearn_soc_sim::SocSimulator::for_each_config`]), and
//! * [`SweepCache`] memoises the answer — the winning [`SnippetExecution`],
//!   128 B inline — behind an LRU keyed by the objective, the snippet's exact
//!   feature bits, the thermal state and the platform, so repeated snippets
//!   (many users running the same applications) are answered from memory.
//!   The serving driver's Oracle reference is its only production caller;
//!   experiments and the design-time build ask [`soclearn_oracle`] directly.
//!
//! Since the search runs on per-level tables, a hit is no cheaper than the
//! search.  On one thread of a 2-core x86-64 host (release build, the
//! driver's engine configuration, thermal commits subtracted, medians of
//! four runs), one Energy question on the ODROID-XU3 platform cost
//! 0.62–0.66 µs when the shared shards held its answer (a 3,554-answer
//! working set), 0.58–0.64 µs as an uncached [`OracleSearch::best_config`]
//! and 1.30–1.36 µs as a cold miss: the search plus the cache's own
//! bookkeeping (L1 and shard probes, LRU inserts, evictions, batch
//! publication).
//!
//! Cached answers are **bit-identical** to an uncached search: the key is the
//! exact bit pattern of every profile field plus both cluster temperatures,
//! so a hit can only occur for a search that would have produced the very
//! same floats.
//!
//! A key is hashed once, when it is built, with the fixed-key
//! `DefaultHasher::new()`; the shard and every map that holds the key reuse
//! that hash.  A fixed key is safe here: even keys that all collide cost at
//! most a longer probe in one shard of 256 entries or one L1 of 512, because
//! those capacity bounds cap every map.  A per-process random key (what
//! `HashMap` uses by default) would instead put a key in a different shard in
//! every process, so per-shard counts and evictions would differ between two
//! runs of the same seed.
//!
//! The cache is **lock-striped**: entries live in [`SweepCache::DEFAULT_SHARDS`]
//! independently-mutexed segments selected by the key's hash, so concurrent
//! workers hitting different snippets no longer serialise on one global mutex.
//!
//! On top of the shared shards sits an optional **per-worker L1 warm tier**
//! ([`SweepEngine::with_warm_l1`]): a thread-private LRU view of the shared
//! cache.  Warm-path hits are answered with **zero lock acquisitions**;
//! L1 misses probe the shared shards once (one lock) and fill the private
//! tier; shared misses are computed locally and published back to the shards
//! in batches (one lock per touched shard per batch) so other workers still
//! deduplicate against this worker's answers.  Keys are exact bit patterns,
//! so every tier answers bit-identically to a fresh search — the
//! `prop_invariants` suite holds any interleaving of fills and publishes to
//! the shared-path reference.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use soclearn_telemetry::ObservedMutex;

use soclearn_oracle::{OracleObjective, OracleRun, OracleSearch};
use soclearn_soc_sim::{DvfsConfig, SnippetExecution, SocPlatform, SocSimulator};
use soclearn_workloads::{SnippetPhase, SnippetProfile};

/// Number of packed key words describing one snippet profile.
const PROFILE_KEY_WORDS: usize = 9;

/// The fields that identify one Oracle question, in the order they are
/// hashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SweepQuestion {
    /// Registry id of the platform the sweep ran on.
    platform_id: u32,
    /// Objective the answer optimises.
    objective: OracleObjective,
    /// Bit patterns of every profile field.
    profile: [u64; PROFILE_KEY_WORDS],
    /// Bit patterns of the big and LITTLE cluster temperatures.
    temps: [u64; 2],
}

/// Exact identity of one Oracle question, with its hash computed once.
///
/// The hash picks the key's shard and, through [`KeyHasher`], its bucket in
/// every map that holds it, so a lookup hashes the ~100-byte question once
/// however many maps it touches.
#[derive(Debug, Clone, Copy)]
struct SweepKey {
    /// `DefaultHasher::new()` over `question`.
    hash: u64,
    question: SweepQuestion,
}

impl SweepKey {
    /// The key of asking for `profile`'s best configuration under
    /// `objective` from `sim`'s current thermal state.
    fn new(
        platform_id: u32,
        objective: OracleObjective,
        profile: &SnippetProfile,
        sim: &SocSimulator,
    ) -> Self {
        let question = SweepQuestion {
            platform_id,
            objective,
            profile: profile_bits(profile),
            temps: [sim.big_temperature_c().to_bits(), sim.little_temperature_c().to_bits()],
        };
        let mut hasher = DefaultHasher::new();
        question.hash(&mut hasher);
        Self { hash: hasher.finish(), question }
    }
}

impl PartialEq for SweepKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.question == other.question
    }
}

impl Eq for SweepKey {}

impl Hash for SweepKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The [`Hasher`] of the maps keyed by [`SweepKey`]: it returns the key's
/// stored hash rotated by half a word.  The shard was chosen by the hash's
/// low bits (`hash % shards`), which are therefore equal for every key in
/// one shard; the map's buckets come from the low bits of what this returns
/// and its control tags from the top seven, so the rotation hands both to
/// bits the shard choice left free.
#[derive(Debug, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("a SweepKey hashes as its stored u64");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }
}

/// A map keyed by [`SweepKey`]s, bucketed by their stored hashes.
type KeyMap<V> = HashMap<SweepKey, V, BuildHasherDefault<KeyHasher>>;

fn phase_code(phase: SnippetPhase) -> u64 {
    match phase {
        SnippetPhase::Compute => 0,
        SnippetPhase::Memory => 1,
        SnippetPhase::Branchy => 2,
        SnippetPhase::Mixed => 3,
    }
}

/// Exact bit-pattern identity of a snippet profile, the profile words of a
/// sweep key.
fn profile_bits(profile: &SnippetProfile) -> [u64; PROFILE_KEY_WORDS] {
    [
        profile.instructions,
        phase_code(profile.phase),
        profile.memory_access_fraction.to_bits(),
        profile.l2_mpki.to_bits(),
        profile.external_memory_fraction.to_bits(),
        profile.branch_misprediction_pki.to_bits(),
        profile.ilp.to_bits(),
        u64::from(profile.thread_count),
        profile.parallel_fraction.to_bits(),
    ]
}

/// Hit/miss counters of a [`SweepCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to evaluate the simulator.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl SweepCacheStats {
    /// Fraction of lookups answered from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Counters of one worker's private L1 warm tier
/// ([`SweepEngine::with_warm_l1`]); aggregated across workers in the driver's
/// run telemetry via [`SweepL1Stats::merge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepL1Stats {
    /// Lookups answered from the private tier with **zero** lock acquisitions.
    pub hits: u64,
    /// L1 misses answered by the shared shards (one shard lock, fills the L1).
    pub shared_hits: u64,
    /// Lookups that had to evaluate the simulator (counted once, here; the
    /// shared shard counted the same event as its own miss during the probe).
    pub misses: u64,
    /// Private entries evicted to respect the L1 capacity bound.
    pub evictions: u64,
    /// Batches of locally-computed answers pushed back to the shared shards.
    pub publishes: u64,
    /// Entries currently resident in the private tier.
    pub entries: usize,
}

impl SweepL1Stats {
    /// Fraction of lookups answered without touching any lock.
    pub fn warm_hit_rate(&self) -> f64 {
        let total = self.hits + self.shared_hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulates another worker's counters into this one.
    pub fn merge(&mut self, other: &SweepL1Stats) {
        self.hits += other.hits;
        self.shared_hits += other.shared_hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.publishes += other.publishes;
        self.entries += other.entries;
    }
}

/// A batch of locally-computed answers headed for the shared shards.
type SweepBatch = Vec<(SweepKey, SnippetExecution)>;

/// A worker-private warm tier over the shared [`SweepCache`]: an unlocked LRU
/// map plus a buffer of locally-computed answers awaiting batch publication.
#[derive(Debug)]
struct SweepL1 {
    entries: KeyMap<(u64, SnippetExecution)>,
    /// Recency index, same scheme as [`SweepShard::order`].
    order: BTreeMap<u64, SweepKey>,
    tick: u64,
    capacity: usize,
    publish_every: usize,
    /// Locally-computed answers not yet pushed to the shared shards.
    pending: SweepBatch,
    hits: u64,
    shared_hits: u64,
    misses: u64,
    evictions: u64,
    publishes: u64,
}

impl SweepL1 {
    fn new(capacity: usize, publish_every: usize) -> Self {
        assert!(capacity > 0, "L1 capacity must be positive");
        assert!(publish_every > 0, "L1 publish interval must be positive");
        Self {
            entries: KeyMap::with_capacity_and_hasher(capacity, Default::default()),
            order: BTreeMap::new(),
            tick: 0,
            capacity,
            publish_every,
            pending: Vec::with_capacity(publish_every),
            hits: 0,
            shared_hits: 0,
            misses: 0,
            evictions: 0,
            publishes: 0,
        }
    }

    fn get(&mut self, key: &SweepKey) -> Option<SnippetExecution> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(key)?;
        let old_tick = entry.0;
        entry.0 = tick;
        let best = entry.1;
        self.order.remove(&old_tick);
        self.order.insert(tick, *key);
        self.hits += 1;
        Some(best)
    }

    fn insert(&mut self, key: SweepKey, best: SnippetExecution) {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut occupied) => {
                let old_tick = occupied.get().0;
                occupied.get_mut().0 = tick;
                self.order.remove(&old_tick);
                self.order.insert(tick, key);
            }
            std::collections::hash_map::Entry::Vacant(vacant) => {
                vacant.insert((tick, best));
                self.order.insert(tick, key);
                if self.entries.len() > self.capacity {
                    if let Some((_, oldest_key)) = self.order.pop_first() {
                        self.entries.remove(&oldest_key);
                        self.evictions += 1;
                    }
                }
            }
        }
    }

    fn stats(&self) -> SweepL1Stats {
        SweepL1Stats {
            hits: self.hits,
            shared_hits: self.shared_hits,
            misses: self.misses,
            evictions: self.evictions,
            publishes: self.publishes,
            entries: self.entries.len(),
        }
    }
}

/// One lock-striped segment of the cache: an independent LRU map.
#[derive(Debug, Default)]
struct SweepShard {
    /// Oracle answers plus the logical timestamp of their last use.
    entries: KeyMap<(u64, SnippetExecution)>,
    /// Recency index: last-use tick → key.  Ticks are unique (allocated under
    /// the shard lock), so the first entry is always the least recently used
    /// and eviction is `O(log n)` instead of a full map scan.
    order: BTreeMap<u64, SweepKey>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Thread-safe LRU memo of Oracle answers (the best [`SnippetExecution`] per
/// objective, snippet, thermal state and platform), shareable between many
/// [`SweepEngine`]s (and therefore many worker threads) via `Arc`.
///
/// Internally the cache is split into lock-striped shards (the key's hash
/// picks a mutexed segment), so workers serving different snippets contend on
/// different locks and driver throughput scales with the worker count.
#[derive(Debug)]
pub struct SweepCache {
    shards: Vec<ObservedMutex<SweepShard>>,
    /// Registered platform fingerprints; index = platform id.
    platforms: ObservedMutex<Vec<String>>,
    capacity_per_shard: usize,
}

impl SweepCache {
    /// Default number of resident answers (one [`SnippetExecution`], 128 B,
    /// each).
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Default number of lock-striped shards.
    pub const DEFAULT_SHARDS: usize = 16;

    /// Creates a cache with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a cache bounded to `capacity` resident answers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_shards(capacity, Self::DEFAULT_SHARDS)
    }

    /// Creates a cache with an explicit shard count (`1` reproduces the old
    /// single-mutex behaviour, whose global capacity bound the eviction test
    /// relies on).
    ///
    /// The capacity bound is enforced **per shard** (`capacity / shards`,
    /// rounded up), so the whole cache holds at most ≈ `capacity` answers —
    /// but a shard whose hash bucket runs hot can evict entries while the
    /// cache as a whole is below `capacity` (unlike the single-mutex LRU,
    /// which only evicted at the global bound).  Working sets near the
    /// capacity limit should size the cache with headroom or drop to one
    /// shard.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `shards` is zero.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "sweep cache capacity must be positive");
        assert!(shards > 0, "sweep cache needs at least one shard");
        Self {
            shards: (0..shards)
                .map(|_| ObservedMutex::new("sweep_cache_shard", SweepShard::default()))
                .collect(),
            platforms: ObservedMutex::new("sweep_cache_platforms", Vec::new()),
            capacity_per_shard: capacity.div_ceil(shards),
        }
    }

    /// Observe the cache's lock contention in `registry`: all shard mutexes
    /// aggregate under the `sweep_cache_shard` site and the platform
    /// registry under `sweep_cache_platforms`. The driver calls this when a
    /// run starts with observability attached; un-instrumented runs pay one
    /// relaxed atomic add per lock.
    pub fn attach_contention(&self, registry: &soclearn_telemetry::TelemetryRegistry) {
        for shard in &self.shards {
            shard.attach(registry);
        }
        self.platforms.attach(registry);
    }

    /// Index of the shard responsible for `key`.
    fn shard_index(&self, key: &SweepKey) -> usize {
        (key.hash as usize) % self.shards.len()
    }

    /// The shard responsible for `key`.
    fn shard_of(&self, key: &SweepKey) -> &ObservedMutex<SweepShard> {
        &self.shards[self.shard_index(key)]
    }

    /// Current hit/miss statistics, aggregated over all shards.
    pub fn stats(&self) -> SweepCacheStats {
        let mut stats = SweepCacheStats::default();
        for shard in &self.shards {
            let shard = shard.lock();
            stats.hits += shard.hits;
            stats.misses += shard.misses;
            stats.evictions += shard.evictions;
            stats.entries += shard.entries.len();
        }
        stats
    }

    /// Per-shard hit/miss/eviction statistics, indexed by shard. Exposes the
    /// lock-striping balance ([`SweepCache::stats`] is the sum over this).
    pub fn shard_stats(&self) -> Vec<SweepCacheStats> {
        self.shards
            .iter()
            .map(|shard| {
                let shard = shard.lock();
                SweepCacheStats {
                    hits: shard.hits,
                    misses: shard.misses,
                    evictions: shard.evictions,
                    entries: shard.entries.len(),
                }
            })
            .collect()
    }

    /// Registers (or looks up) a platform and returns its stable id.
    fn platform_id(&self, platform: &SocPlatform) -> u32 {
        let fingerprint = serde_json::to_string(platform).expect("platform serialises");
        let mut platforms = self.platforms.lock();
        if let Some(idx) = platforms.iter().position(|p| *p == fingerprint) {
            idx as u32
        } else {
            platforms.push(fingerprint);
            (platforms.len() - 1) as u32
        }
    }

    /// Returns the cached answer for `key`, or evaluates `compute` and caches
    /// its result, evicting the least-recently-used entry of the key's shard
    /// when full.
    fn get_or_compute<F>(&self, key: SweepKey, compute: F) -> SnippetExecution
    where
        F: FnOnce() -> SnippetExecution,
    {
        let shard_lock = self.shard_of(&key);
        {
            let mut guard = shard_lock.lock();
            let shard = &mut *guard;
            shard.tick += 1;
            let tick = shard.tick;
            if let Some(entry) = shard.entries.get_mut(&key) {
                let old_tick = entry.0;
                entry.0 = tick;
                let best = entry.1;
                shard.order.remove(&old_tick);
                shard.order.insert(tick, key);
                shard.hits += 1;
                return best;
            }
            shard.misses += 1;
        }
        // Evaluate outside the lock: a miss must not serialise other workers.
        let best = compute();
        let mut guard = shard_lock.lock();
        let shard = &mut *guard;
        shard.tick += 1;
        let tick = shard.tick;
        match shard.entries.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut occupied) => {
                // A racing worker inserted the same key while we evaluated;
                // keep its (identical) result resident and refresh recency.
                let old_tick = occupied.get().0;
                occupied.get_mut().0 = tick;
                shard.order.remove(&old_tick);
                shard.order.insert(tick, key);
            }
            std::collections::hash_map::Entry::Vacant(vacant) => {
                vacant.insert((tick, best));
                shard.order.insert(tick, key);
                if shard.entries.len() > self.capacity_per_shard {
                    // Evict the least recently used entry (smallest tick, and
                    // never the one just inserted since its tick is newest).
                    if let Some((_, oldest_key)) = shard.order.pop_first() {
                        shard.entries.remove(&oldest_key);
                        shard.evictions += 1;
                    }
                }
            }
        }
        best
    }

    /// Looks `key` up in its shared shard without computing on miss: the L1
    /// fill path.  A hit refreshes recency and counts as a shard hit; a miss
    /// counts as a shard miss (the caller computes locally and later
    /// [`SweepCache::publish`]es, which therefore does **not** count again).
    fn probe(&self, key: &SweepKey) -> Option<SnippetExecution> {
        let mut guard = self.shard_of(key).lock();
        let shard = &mut *guard;
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(entry) = shard.entries.get_mut(key) {
            let old_tick = entry.0;
            entry.0 = tick;
            let best = entry.1;
            shard.order.remove(&old_tick);
            shard.order.insert(tick, *key);
            shard.hits += 1;
            Some(best)
        } else {
            shard.misses += 1;
            None
        }
    }

    /// Batch-inserts locally-computed answers, locking each touched shard once
    /// per batch.  Keys already resident (a racing worker published first)
    /// keep their resident value — keys are exact, so the values are
    /// bit-identical anyway — and only have their recency refreshed.
    fn publish(&self, batch: SweepBatch) {
        let mut groups: HashMap<usize, SweepBatch> = HashMap::new();
        for (key, best) in batch {
            groups.entry(self.shard_index(&key)).or_default().push((key, best));
        }
        for (index, group) in groups {
            let mut guard = self.shards[index].lock();
            let shard = &mut *guard;
            for (key, best) in group {
                shard.tick += 1;
                let tick = shard.tick;
                match shard.entries.entry(key) {
                    std::collections::hash_map::Entry::Occupied(mut occupied) => {
                        let old_tick = occupied.get().0;
                        occupied.get_mut().0 = tick;
                        shard.order.remove(&old_tick);
                        shard.order.insert(tick, key);
                    }
                    std::collections::hash_map::Entry::Vacant(vacant) => {
                        vacant.insert((tick, best));
                        shard.order.insert(tick, key);
                        if shard.entries.len() > self.capacity_per_shard {
                            if let Some((_, oldest_key)) = shard.order.pop_first() {
                                shard.entries.remove(&oldest_key);
                                shard.evictions += 1;
                            }
                        }
                    }
                }
            }
        }
    }
}

impl Default for SweepCache {
    fn default() -> Self {
        Self::new()
    }
}

/// A [`SocSimulator`] wrapped with memoised Oracle answers.
///
/// The engine owns the (mutable, thermally evolving) simulator of one serving
/// lane; the cache behind it may be private or shared across lanes.  Every
/// Oracle question goes through [`SweepEngine::best`], so any snippet the
/// process has already answered under the same objective at the same thermal
/// state is answered from memory, bit-identically to a fresh search.
#[derive(Debug)]
pub struct SweepEngine {
    sim: SocSimulator,
    cache: Arc<SweepCache>,
    platform_id: u32,
    /// Optional private warm tier; `RefCell` because the engine is a
    /// per-worker object (`Send`, deliberately not `Sync` once attached).
    l1: Option<RefCell<SweepL1>>,
}

impl SweepEngine {
    /// Default capacity of the per-worker warm tier (answers).
    pub const DEFAULT_L1_CAPACITY: usize = 512;

    /// Default number of locally-computed answers buffered before a batch is
    /// published back to the shared shards.
    pub const DEFAULT_L1_PUBLISH_EVERY: usize = 32;

    /// Creates an engine with a private cache.
    pub fn new(platform: SocPlatform) -> Self {
        Self::with_cache(platform, Arc::new(SweepCache::new()))
    }

    /// Creates an engine backed by a shared cache.
    pub fn with_cache(platform: SocPlatform, cache: Arc<SweepCache>) -> Self {
        let platform_id = cache.platform_id(&platform);
        Self { sim: SocSimulator::new(platform), cache, platform_id, l1: None }
    }

    /// Attaches a private L1 warm tier: `capacity` resident answers served with
    /// zero lock acquisitions, and locally-computed answers published back to
    /// the shared shards every `publish_every` misses (plus whenever
    /// [`SweepEngine::flush_l1`] runs).  Answers stay bit-identical to the
    /// shared path — keys are the same exact bit patterns in every tier.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `publish_every` is zero.
    pub fn with_warm_l1(mut self, capacity: usize, publish_every: usize) -> Self {
        self.l1 = Some(RefCell::new(SweepL1::new(capacity, publish_every)));
        self
    }

    /// Counters of the private warm tier, or `None` if no L1 is attached.
    pub fn l1_stats(&self) -> Option<SweepL1Stats> {
        self.l1.as_ref().map(|cell| cell.borrow().stats())
    }

    /// Publishes any locally-computed answers still buffered in the private
    /// tier back to the shared shards, so later runs (and other workers)
    /// deduplicate against everything this engine computed.  The driver calls
    /// this when a worker drains; no-op without an L1 or with an empty buffer.
    pub fn flush_l1(&self) {
        let Some(cell) = &self.l1 else { return };
        let mut l1 = cell.borrow_mut();
        if l1.pending.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut l1.pending);
        l1.publishes += 1;
        drop(l1);
        self.cache.publish(batch);
    }

    /// The underlying simulator (thermal state, accumulated energy/time).
    pub fn sim(&self) -> &SocSimulator {
        &self.sim
    }

    /// The cache backing this engine.
    pub fn cache(&self) -> &Arc<SweepCache> {
        &self.cache
    }

    /// Resets the simulator (thermal state and accumulators), keeping the cache.
    pub fn reset(&mut self) {
        self.sim.reset();
    }

    /// The best configuration for the snippet under `objective` at the
    /// simulator's current thermal state, with its execution, served from the
    /// cache when possible; nothing is committed.  A miss computes exactly
    /// [`OracleSearch::best_config`].
    ///
    /// With an attached L1 ([`SweepEngine::with_warm_l1`]) the lookup is
    /// tiered: private map (zero locks) → shared shard (one lock, fills the
    /// L1) → local search (no lock held while computing; the answer is
    /// buffered and batch-published).  All tiers answer bit-identically.
    pub fn best(
        &self,
        objective: OracleObjective,
        profile: &SnippetProfile,
    ) -> (DvfsConfig, SnippetExecution) {
        let best = self.lookup(objective, profile);
        (best.config, best)
    }

    /// The winning execution behind [`SweepEngine::best`].
    fn lookup(&self, objective: OracleObjective, profile: &SnippetProfile) -> SnippetExecution {
        let key = SweepKey::new(self.platform_id, objective, profile, &self.sim);
        let search = || OracleSearch::new(objective).best_config(&self.sim, profile).1;
        let Some(cell) = &self.l1 else {
            return self.cache.get_or_compute(key, search);
        };
        if let Some(best) = cell.borrow_mut().get(&key) {
            return best;
        }
        if let Some(best) = self.cache.probe(&key) {
            let mut l1 = cell.borrow_mut();
            l1.shared_hits += 1;
            l1.insert(key, best);
            return best;
        }
        // Shared miss (counted by the probe): search with no lock held.
        let best = search();
        let mut l1 = cell.borrow_mut();
        l1.misses += 1;
        l1.insert(key, best);
        l1.pending.push((key, best));
        if l1.pending.len() >= l1.publish_every {
            let batch = std::mem::take(&mut l1.pending);
            l1.publishes += 1;
            drop(l1);
            self.cache.publish(batch);
        }
        best
    }

    /// Oracle execution of a snippet sequence through the cache; equivalent to
    /// [`OracleRun::execute`] on a simulator in the engine's thermal state.
    pub fn oracle_run(
        &mut self,
        profiles: &[SnippetProfile],
        objective: OracleObjective,
    ) -> OracleRun {
        let mut decisions = Vec::with_capacity(profiles.len());
        let mut executions = Vec::with_capacity(profiles.len());
        for profile in profiles {
            let (best, execution) = self.best(objective, profile);
            self.sim.commit_snippet(&execution);
            decisions.push(best);
            executions.push(execution);
        }
        let total_energy_j = executions.iter().map(|e| e.energy_j).sum();
        let total_time_s = executions.iter().map(|e| e.time_s).sum();
        OracleRun { objective, decisions, executions, total_energy_j, total_time_s }
    }

    /// The Oracle's configuration per snippet, in order: the `decisions` of
    /// [`SweepEngine::oracle_run`] over the same profiles, with the same
    /// lookups and thermal commits, but no executions or totals kept.  Takes
    /// any borrowed snippet stream, so a mixed scenario's CPU segments feed
    /// it in place.
    pub fn oracle_decisions<'a>(
        &mut self,
        profiles: impl IntoIterator<Item = &'a SnippetProfile>,
        objective: OracleObjective,
    ) -> Vec<DvfsConfig> {
        profiles
            .into_iter()
            .map(|profile| {
                let (best, execution) = self.best(objective, profile);
                self.sim.commit_snippet(&execution);
                best
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENERGY: OracleObjective = OracleObjective::Energy;

    fn profiles() -> Vec<SnippetProfile> {
        vec![
            SnippetProfile::compute_bound(100_000_000),
            SnippetProfile::memory_bound(100_000_000),
            SnippetProfile::compute_bound(50_000_000),
        ]
    }

    /// An uncached Oracle search on a fresh simulator.
    fn fresh_best(
        platform: &SocPlatform,
        objective: OracleObjective,
        profile: &SnippetProfile,
    ) -> (DvfsConfig, SnippetExecution) {
        OracleSearch::new(objective).best_config(&SocSimulator::new(platform.clone()), profile)
    }

    fn assert_bit_identical(a: (DvfsConfig, SnippetExecution), b: (DvfsConfig, SnippetExecution)) {
        assert_eq!(a, b);
        assert_eq!(a.1.energy_j.to_bits(), b.1.energy_j.to_bits());
        assert_eq!(a.1.time_s.to_bits(), b.1.time_s.to_bits());
    }

    #[test]
    fn cached_answers_are_bit_identical_to_uncached_search() {
        let platform = SocPlatform::small();
        let engine = SweepEngine::new(platform.clone());
        for profile in &profiles() {
            for _ in 0..2 {
                let answer = engine.best(ENERGY, profile);
                assert_bit_identical(answer, fresh_best(&platform, ENERGY, profile));
            }
        }
        let stats = engine.cache().stats();
        assert_eq!(stats.misses, 3, "one miss per distinct profile");
        assert_eq!(stats.hits, 3, "one hit per repeated question");
        assert!(stats.hit_rate() > 0.49);
    }

    #[test]
    fn objective_is_part_of_the_key() {
        let platform = SocPlatform::small();
        let engine = SweepEngine::new(platform.clone());
        let profile = SnippetProfile::memory_bound(100_000_000);
        for objective in [ENERGY, OracleObjective::EnergyDelayProduct] {
            let answer = engine.best(objective, &profile);
            assert_bit_identical(answer, fresh_best(&platform, objective, &profile));
        }
        let stats = engine.cache().stats();
        assert_eq!((stats.misses, stats.hits), (2, 0), "each objective asks its own question");
    }

    #[test]
    fn thermal_state_is_part_of_the_key() {
        let platform = SocPlatform::small();
        let mut engine = SweepEngine::new(platform);
        let profile = SnippetProfile::compute_bound(100_000_000);
        let cold = engine.best(ENERGY, &profile);
        // Heat the chip; the same snippet must now be searched again, not
        // served from the cold-state entry.
        engine.oracle_run(&vec![profile.clone(); 20], ENERGY);
        let hot = engine.best(ENERGY, &profile);
        assert!(hot.1.energy_j != cold.1.energy_j, "leakage must reflect the hotter die");
        assert_bit_identical(hot, OracleSearch::new(ENERGY).best_config(engine.sim(), &profile));
        assert!(engine.cache().stats().misses >= 2);
    }

    #[test]
    fn oracle_run_through_the_engine_matches_the_reference() {
        let platform = SocPlatform::small();
        let seq = profiles();
        let mut reference_sim = SocSimulator::new(platform.clone());
        let reference = OracleRun::execute(&mut reference_sim, &seq, ENERGY);

        let mut engine = SweepEngine::new(platform.clone());
        let first = engine.oracle_run(&seq, ENERGY);
        engine.reset();
        let second = engine.oracle_run(&seq, ENERGY);

        assert_eq!(first, reference);
        assert_eq!(second, reference, "cache-served rerun must be bit-identical");
        let stats = engine.cache().stats();
        assert!(stats.hits >= seq.len() as u64, "second run should be served from cache");
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let platform = SocPlatform::small();
        // One shard so the capacity bound is global and the eviction count is
        // exact; the sharded default spreads the bound across segments.
        let cache = Arc::new(SweepCache::with_shards(2, 1));
        let engine = SweepEngine::with_cache(platform, Arc::clone(&cache));
        for instructions in [1_000_000u64, 2_000_000, 3_000_000, 4_000_000] {
            let _ = engine.best(ENERGY, &SnippetProfile::compute_bound(instructions));
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.misses, 4);
    }

    #[test]
    fn sharded_cache_matches_single_shard_results() {
        let platform = SocPlatform::small();
        let sharded = SweepEngine::with_cache(platform.clone(), Arc::new(SweepCache::new()));
        let single = SweepEngine::with_cache(platform, Arc::new(SweepCache::with_shards(4096, 1)));
        for instructions in [10_000_000u64, 20_000_000, 30_000_000, 10_000_000] {
            let profile = SnippetProfile::compute_bound(instructions);
            let a = sharded.best(ENERGY, &profile);
            let b = single.best(ENERGY, &profile);
            assert_bit_identical(a, b);
        }
        assert_eq!(sharded.cache().shard_stats().len(), SweepCache::DEFAULT_SHARDS);
        let (a, b) = (sharded.cache().stats(), single.cache().stats());
        assert_eq!((a.hits, a.misses), (b.hits, b.misses));
        assert_eq!(a.entries, 3);
    }

    #[test]
    fn sharded_cache_is_consistent_under_concurrent_access() {
        let platform = SocPlatform::small();
        let cache = Arc::new(SweepCache::new());
        let profiles: Vec<SnippetProfile> =
            (1..=8).map(|i| SnippetProfile::compute_bound(i * 5_000_000)).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                let platform = platform.clone();
                let profiles = &profiles;
                scope.spawn(move || {
                    let engine = SweepEngine::with_cache(platform, cache);
                    for profile in profiles {
                        let _ = engine.best(ENERGY, profile);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.entries, 8);
        assert_eq!(stats.hits + stats.misses, 32);
        assert!(stats.misses >= 8, "every distinct profile misses at least once");
    }

    #[test]
    fn warm_l1_is_bit_transparent_to_the_shared_path() {
        let platform = SocPlatform::small();
        let shared = SweepEngine::new(platform.clone());
        let warm = SweepEngine::new(platform).with_warm_l1(64, 4);
        for profile in profiles().iter().cycle().take(9) {
            let a = shared.best(ENERGY, profile);
            let b = warm.best(ENERGY, profile);
            assert_bit_identical(a, b);
        }
        let stats = warm.l1_stats().expect("L1 attached");
        assert_eq!(stats.misses, 3, "one search per distinct profile");
        assert_eq!(stats.hits, 6, "repeats served lock-free from the L1");
        assert_eq!(stats.shared_hits, 0, "nothing was resident in the shared tier first");
        assert!(stats.warm_hit_rate() > 0.6);
    }

    #[test]
    fn warm_l1_publishes_batches_and_fills_from_the_shared_shards() {
        let platform = SocPlatform::small();
        let cache = Arc::new(SweepCache::new());
        let writer =
            SweepEngine::with_cache(platform.clone(), Arc::clone(&cache)).with_warm_l1(64, 2);
        let seq = profiles();
        for profile in &seq {
            let _ = writer.best(ENERGY, profile);
        }
        // publish_every = 2: the first batch went out mid-run, the third
        // answer is still buffered until the flush.
        assert_eq!(cache.stats().entries, 2);
        writer.flush_l1();
        assert_eq!(cache.stats().entries, 3, "flush publishes the remainder");
        assert_eq!(writer.l1_stats().unwrap().publishes, 2);

        // A second worker on the same shared cache is warmed by the first
        // worker's published answers: shared hits, no searches.
        let reader = SweepEngine::with_cache(platform, Arc::clone(&cache)).with_warm_l1(64, 2);
        for profile in &seq {
            let _ = reader.best(ENERGY, profile);
            let _ = reader.best(ENERGY, profile);
        }
        let stats = reader.l1_stats().unwrap();
        assert_eq!(stats.misses, 0, "everything was published by the writer");
        assert_eq!(stats.shared_hits, 3);
        assert_eq!(stats.hits, 3, "repeats served from the freshly filled L1");
    }

    #[test]
    fn warm_l1_eviction_respects_capacity() {
        let platform = SocPlatform::small();
        let engine = SweepEngine::new(platform).with_warm_l1(2, 64);
        for instructions in [1_000_000u64, 2_000_000, 3_000_000, 4_000_000] {
            let _ = engine.best(ENERGY, &SnippetProfile::compute_bound(instructions));
        }
        let stats = engine.l1_stats().unwrap();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.misses, 4);
    }

    #[test]
    fn distinct_platforms_do_not_share_entries() {
        let cache = Arc::new(SweepCache::new());
        let (small, odroid) = (SocPlatform::small(), SocPlatform::odroid_xu3());
        let on_small = SweepEngine::with_cache(small.clone(), Arc::clone(&cache));
        let on_odroid = SweepEngine::with_cache(odroid.clone(), Arc::clone(&cache));
        let profile = SnippetProfile::compute_bound(100_000_000);
        let a = on_small.best(ENERGY, &profile);
        let b = on_odroid.best(ENERGY, &profile);
        assert_eq!(cache.stats().misses, 2);
        assert_bit_identical(a, fresh_best(&small, ENERGY, &profile));
        assert_bit_identical(b, fresh_best(&odroid, ENERGY, &profile));
    }
}
