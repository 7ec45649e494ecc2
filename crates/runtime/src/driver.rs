//! Multi-worker scenario driver: many independent users, one platform.
//!
//! The paper frames the learned policy as a *runtime* resource manager; this
//! driver is the serving harness that stresses it like one.  Each scenario is
//! one independent "user" — an [`ApplicationSequence`] executed on a private
//! [`SocSimulator`] under a private policy instance — and a pool of
//! `std::thread` workers drains a [`ScenarioSource`] concurrently.  The source
//! may be a pre-materialised slice ([`SliceSource`]) or a streaming generator
//! that manufactures users on demand, so fleet-scale workloads never need to
//! be materialised up front.  With an Oracle reference
//! ([`ScenarioDriver::with_oracle_reference`]) each worker also runs the
//! exhaustive Oracle over every scenario's CPU snippets on a second
//! simulator of its own and scores each CPU decision against it.
//!
//! The driver has two entry points, both taking a per-scenario
//! [`SubstratePolicies`] factory (wrap a lone CPU policy in
//! [`SubstratePolicies::cpu_only`]): [`ScenarioDriver::run_stream_mixed`]
//! drains the source and returns the aggregated telemetry, and
//! [`ScenarioDriver::run_recorded_mixed`] additionally captures a
//! per-decision [`DecisionRecord`] stream per scenario, which the
//! `soclearn-scenarios` trace layer serialises into replayable JSONL traces.
//!
//! The driver aggregates serving telemetry: decision throughput
//! (decisions/second of clock time), a per-decision policy-latency sketch,
//! total simulated energy/time, per-substrate lanes and per-worker counts.
//! All timestamps read the driver's [`Clock`] — a real wall clock by
//! default, or a shared virtual clock ([`ScenarioDriver::with_clock`]) under
//! which the duration and throughput are computed against discrete-event
//! time and become deterministic functions of the scenario stream.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use soclearn_oracle::{OracleObjective, OracleSearch};
use soclearn_soc_sim::{DvfsConfig, PolicyDecision, SnippetCounters, SocPlatform, SocSimulator};
use soclearn_workloads::{ApplicationSequence, SnippetProfile};

use crate::clock::Clock;
use crate::obs::Observability;
use soclearn_telemetry::{QuantileSketch, Span};

use crate::substrate::{
    DecisionKind, GpuAdapter, NocModel, SubstrateDecision, SubstratePolicies, SubstrateRecord,
    SubstrateWork,
};
use crate::sweep::{SweepCache, SweepL1Stats};

/// One independent user: a named sequence of substrate segments to serve end
/// to end.  Pure-CPU scenarios (the original serving path) are a single
/// [`SubstrateWork::Cpu`] segment; heterogeneous users interleave CPU, GPU
/// and NoC segments.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (reported in telemetry breakdowns and error messages).
    pub name: String,
    /// The substrate segments the user executes, in order.
    pub segments: Vec<SubstrateWork>,
}

impl ScenarioSpec {
    /// Creates a pure-CPU scenario from raw profiles.
    pub fn new(name: impl Into<String>, profiles: Vec<SnippetProfile>) -> Self {
        Self { name: name.into(), segments: vec![SubstrateWork::Cpu(profiles)] }
    }

    /// Creates a scenario from explicit substrate segments.
    pub fn with_segments(name: impl Into<String>, segments: Vec<SubstrateWork>) -> Self {
        Self { name: name.into(), segments }
    }

    /// Creates a pure-CPU scenario from an application sequence.
    pub fn from_sequence(name: impl Into<String>, sequence: &ApplicationSequence) -> Self {
        Self::new(name, sequence.snippets().iter().map(|s| s.profile.clone()).collect())
    }

    /// The CPU snippet stream across all CPU segments, in execution order,
    /// borrowed from the segments.
    fn cpu_snippets(&self) -> impl Iterator<Item = &SnippetProfile> {
        self.segments.iter().flat_map(|segment| match segment {
            SubstrateWork::Cpu(profiles) => profiles.as_slice(),
            _ => &[],
        })
    }

    /// Total number of decisions serving this scenario will produce.
    pub fn decision_count(&self) -> usize {
        self.segments.iter().map(SubstrateWork::decision_count).sum()
    }

    /// Substrates this scenario exercises, in canonical order.
    pub fn kinds(&self) -> Vec<DecisionKind> {
        DecisionKind::ALL
            .into_iter()
            .filter(|kind| self.segments.iter().any(|segment| segment.kind() == *kind))
            .collect()
    }
}

/// Queueing timestamps of one served scenario, on the source's timeline.
///
/// All fields are nanoseconds **relative to the source's epoch** (the instant
/// its first scenario was claimed), never absolute clock readings — that keeps
/// the stamps a pure function of the arrival schedule and the decisions'
/// simulated service times, bit-deterministic at any worker count even though
/// the shared virtual clock itself interleaves concurrent advances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueStamp {
    /// When the scenario arrived (its scheduled admission offset).
    pub arrival_ns: u64,
    /// When its service began: the arrival, or later if the scenario's user
    /// was still busy with an earlier arrival (FIFO head-of-line wait).
    pub start_ns: u64,
    /// When its service completed (`start_ns + service_ns`).
    pub completion_ns: u64,
    /// Simulated service duration (per-decision `time_s`, dilation applied).
    pub service_ns: u64,
}

impl QueueStamp {
    /// Time in system: queueing wait plus service.
    pub fn sojourn_ns(&self) -> u64 {
        self.completion_ns.saturating_sub(self.arrival_ns)
    }

    /// Head-of-line queueing delay before service began.
    pub fn delay_ns(&self) -> u64 {
        self.start_ns.saturating_sub(self.arrival_ns)
    }
}

/// A stream of scenarios served by the driver's worker pool.
///
/// Workers call [`ScenarioSource::next_scenario`] until it returns `None`; the
/// source must hand out each scenario exactly once (across all workers) with a
/// stable index, so telemetry and recordings stay attributable no matter which
/// worker claimed which user.  Implementations may block inside
/// `next_scenario` to model arrival schedules — the claiming worker waits, the
/// others keep serving.
pub trait ScenarioSource: Sync {
    /// Claims the next scenario, or `None` once the stream is exhausted.
    fn next_scenario(&self) -> Option<(usize, ScenarioSpec)>;

    /// Reports that scenario `index` finished serving after `service_ns` of
    /// simulated service time, and asks the source to place it on the queueing
    /// timeline.  Called by the driver only in service-time mode
    /// ([`ScenarioDriver::with_service_time`]); the default implementation
    /// models no queue and returns `None`.  Queue-aware sources (the fleet
    /// source's per-user FIFO model) return the scenario's [`QueueStamp`],
    /// which the driver folds into its sojourn/queue-delay telemetry and the
    /// recorded trace.
    fn scenario_served(&self, _index: usize, _service_ns: u64) -> Option<QueueStamp> {
        None
    }
}

/// [`ScenarioSource`] over a pre-materialised slice, claiming scenarios in
/// index order, so the slice path and the streaming path are one code path.
pub struct SliceSource<'a> {
    scenarios: &'a [ScenarioSpec],
    next: AtomicUsize,
}

impl<'a> SliceSource<'a> {
    /// Wraps a slice of scenarios.
    pub fn new(scenarios: &'a [ScenarioSpec]) -> Self {
        Self { scenarios, next: AtomicUsize::new(0) }
    }
}

impl ScenarioSource for SliceSource<'_> {
    fn next_scenario(&self) -> Option<(usize, ScenarioSpec)> {
        let index = self.next.fetch_add(1, Ordering::Relaxed);
        self.scenarios.get(index).map(|spec| (index, spec.clone()))
    }
}

/// Everything observed while serving one decision, captured by
/// [`ScenarioDriver::run_recorded_mixed`].  The field set is exactly what a
/// deterministic replay needs: the snippet, the chosen configuration, the
/// thermal state the decision was made at, and the telemetry the simulator
/// produced.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Index of the snippet within its scenario.
    pub index: usize,
    /// The snippet that executed.
    pub profile: SnippetProfile,
    /// Configuration the policy chose.
    pub config: DvfsConfig,
    /// Big-cluster temperature (°C) when the snippet started.
    pub big_temp_c: f64,
    /// LITTLE-cluster temperature (°C) when the snippet started.
    pub little_temp_c: f64,
    /// Energy of the snippet, joules.
    pub energy_j: f64,
    /// Execution time of the snippet, seconds.
    pub time_s: f64,
    /// Counters observed while the snippet executed.
    pub counters: SnippetCounters,
}

/// Per-scenario recording of one [`ScenarioDriver::run_recorded_mixed`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRecord {
    /// Stable scenario index assigned by the source.
    pub index: usize,
    /// Scenario name.
    pub name: String,
    /// Name of the policy that served the scenario.
    pub policy: String,
    /// Decisions whose big-cluster level matched the Oracle reference, when
    /// the driver ran with one.
    pub oracle_matches: Option<usize>,
    /// Queueing timestamps, when the driver ran in service-time mode against
    /// a queue-aware source.
    pub queue: Option<QueueStamp>,
    /// The kind-tagged per-decision records in execution order.
    pub decisions: Vec<SubstrateRecord>,
}

/// Per-substrate slice of the serving telemetry (cross-substrate energy
/// accounting of a heterogeneous fleet).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubstrateTelemetry {
    /// The substrate these totals cover.
    pub kind: DecisionKind,
    /// Decisions served on this substrate.
    pub decisions: usize,
    /// Simulated energy on this substrate, joules.
    pub energy_j: f64,
    /// Simulated execution time on this substrate, seconds.
    pub time_s: f64,
}

impl SubstrateTelemetry {
    /// Empty totals for `kind`.
    pub fn empty(kind: DecisionKind) -> Self {
        Self { kind, decisions: 0, energy_j: 0.0, time_s: 0.0 }
    }

    /// One empty lane per [`DecisionKind`], in canonical order.
    pub fn lanes() -> [SubstrateTelemetry; 3] {
        [
            SubstrateTelemetry::empty(DecisionKind::Cpu),
            SubstrateTelemetry::empty(DecisionKind::Gpu),
            SubstrateTelemetry::empty(DecisionKind::Noc),
        ]
    }
}

/// Per-worker slice of the aggregated telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerTelemetry {
    /// Worker index in `0..workers`.
    pub worker: usize,
    /// Scenarios this worker served.
    pub scenarios: usize,
    /// Decisions this worker served.
    pub decisions: usize,
    /// Decisions whose big-cluster level matched the Oracle reference.
    pub oracle_matches: usize,
}

/// Aggregated serving telemetry of one driver run.
#[derive(Debug, Clone, PartialEq)]
pub struct DriverTelemetry {
    /// Scenarios served.
    pub scenarios: usize,
    /// Total policy decisions served.
    pub decisions: usize,
    /// Total simulated energy, joules: each scenario's decisions summed in
    /// serving order, the scenarios folded in index order, so the bits are
    /// the same at any worker count (as are `simulated_time_s` and the
    /// per-lane energy and time).
    pub total_energy_j: f64,
    /// Total simulated execution time, seconds.
    pub simulated_time_s: f64,
    /// Duration of the run on the driver's [`Clock`], seconds.  Real elapsed
    /// time under the default wall clock; the span of virtual time the run
    /// covered (e.g. the arrival schedule's length) under a virtual clock.
    pub wall_seconds: f64,
    /// Serving throughput: decisions per clock second (wall or virtual).
    pub decisions_per_second: f64,
    /// Per-decision policy latency distribution, nanoseconds (all zero under
    /// a virtual clock, see [`ScenarioDriver::with_clock`]).
    pub latency: QuantileSketch,
    /// Clock time spent serving across all workers (per-decision simulated
    /// time with the dilation applied), seconds: the integer nanoseconds
    /// every decision spent, summed exactly and converted once, so the bits
    /// are the same at any worker count.  Zero unless the driver runs in
    /// service-time mode ([`ScenarioDriver::with_service_time`]).
    pub service_time_s: f64,
    /// Per-scenario sojourn times (queueing wait + service) on the source's
    /// queueing timeline.  Populated only when a queue-aware source returns
    /// [`QueueStamp`]s; sketch merges are order-independent, so this field is
    /// bit-deterministic at any worker count.
    pub sojourn: QuantileSketch,
    /// Per-scenario head-of-line queueing delays (time between arrival and
    /// service start).  Same population rules as
    /// [`DriverTelemetry::sojourn`].
    pub queue_delay: QuantileSketch,
    /// Fraction of **CPU** decisions whose big-cluster level matched the
    /// Oracle reference; `None` when the driver ran without an Oracle
    /// reference.  (The Oracle sweeps DVFS configurations, so only CPU
    /// decisions are scored.)
    pub oracle_agreement: Option<f64>,
    /// NoC monitoring windows whose measured average latency exceeded their
    /// session's `latency_budget_cycles`: how often the NoC latency model
    /// let through a rate that broke the budget.
    pub noc_budget_violations: usize,
    /// Always all-zero: the Oracle reference asks the Oracle directly and
    /// runs no sweep-cache tier.  The benchmark under `perfbench/` still
    /// reads `l1.hits`; the field goes with the sweep cache.
    pub l1: SweepL1Stats,
    /// Per-substrate decision/energy/time breakdown, canonical order
    /// (cross-substrate energy accounting of a heterogeneous fleet), folded
    /// like `total_energy_j`.
    pub substrates: [SubstrateTelemetry; 3],
    /// Per-worker counts, indexed by worker.
    pub workers: Vec<WorkerTelemetry>,
    /// Tiered model store accounting (deltas materialized, resident copies,
    /// fleet-merge counters); `None` unless the driver ran with
    /// [`ScenarioDriver::with_personalization`].  The snapshot is taken after
    /// the run's final fleet merge.
    pub model_store: Option<crate::store::ModelStoreStats>,
}

/// Runs many independent scenario "users" concurrently on a worker pool.
pub struct ScenarioDriver {
    platform: SocPlatform,
    workers: usize,
    /// Never read or written while serving (see [`ScenarioDriver::cache`]).
    cache: Arc<SweepCache>,
    oracle_reference: Option<OracleObjective>,
    /// Time source for run duration and per-decision latency stamps.
    clock: Clock,
    /// Service-time mode: each decision advances the clock by its simulated
    /// `time_s` scaled by this dilation factor.
    service_dilation: Option<f64>,
    /// Observability plane: metrics registry + span flight recorder. `None`
    /// (the default) instruments nothing and costs nothing on the hot path.
    obs: Option<Observability>,
    /// Tiered model store for per-user personalization: the driver final-
    /// merges it at run end and reports its accounting.
    personalization: Option<Arc<crate::store::TieredModelStore>>,
}

impl ScenarioDriver {
    /// Creates a driver with `workers` threads serving `platform`.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(platform: SocPlatform, workers: usize) -> Self {
        assert!(workers > 0, "driver needs at least one worker");
        Self {
            platform,
            workers,
            cache: Arc::new(SweepCache::new()),
            oracle_reference: None,
            clock: Clock::wall(),
            service_dilation: None,
            obs: None,
            personalization: None,
        }
    }

    /// Attaches a tiered per-user model store: policy factories should lease
    /// from this store (the driver does not replace them), and in exchange
    /// the driver fleet-merges any pending per-user deltas at run end,
    /// reports the store's accounting in
    /// [`DriverTelemetry::model_store`] and publishes its metrics into the
    /// observability plane.
    ///
    /// Note on determinism: the merged base's low-order float bits depend on
    /// lease completion order (f64 addition is not associative across
    /// workers), so personalized runs are excluded from byte-compare
    /// determinism gates; the 1e-9 merge law is what holds at any worker
    /// count.
    #[must_use]
    pub fn with_personalization(mut self, store: Arc<crate::store::TieredModelStore>) -> Self {
        self.personalization = Some(store);
        self
    }

    /// The attached tiered model store, when personalization is on.
    pub fn personalization(&self) -> Option<&Arc<crate::store::TieredModelStore>> {
        self.personalization.as_ref()
    }

    /// Publishes serving telemetry into an [`Observability`] plane: per-run,
    /// per-worker, per-substrate-lane and per-policy counters plus latency /
    /// sojourn / queue-delay distributions into the registry, and per-scenario
    /// spans into the span recorder.  The driver records spans **only** for
    /// scenarios with [`QueueStamp`]s, derived from the schedule-relative
    /// stamps (one track per scenario index), so the recorded span multiset
    /// is bit-deterministic at any worker count.
    #[must_use]
    pub fn with_observability(mut self, obs: Observability) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The observability plane, when one was attached.
    pub fn observability(&self) -> Option<&Observability> {
        self.obs.as_ref()
    }

    /// Replaces the driver's time source (default: a wall clock).
    ///
    /// With a [`Clock::virtual_clock`] the run duration, throughput and the
    /// latency sketch are computed against **virtual time**: the duration
    /// is the span of virtual time the run covered (advanced by whoever waits
    /// on the clock — e.g. a fleet source pacing arrivals), and per-decision
    /// latencies are recorded as zero — decisions are instantaneous in
    /// discrete-event time, and concurrent workers advancing the shared clock
    /// between two reads must not register as phantom latency — so the whole
    /// telemetry struct is a deterministic function of the scenario stream.
    /// Share the same clock with the scenario source so both observe one
    /// timeline.
    #[must_use]
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// The driver's time source.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Switches the driver into **service-time mode**: after each decision the
    /// worker spends the decision's simulated execution time on the driver's
    /// clock — `time_s × time_dilation`, via [`Clock::advance_ns`] — so under
    /// a virtual clock decisions are no longer served in zero virtual time and
    /// the run's duration, throughput and utilisation reflect the load the
    /// decisions actually put on the fleet.  (Under a wall clock the advance
    /// is a no-op: real time already passes while the work runs.)
    ///
    /// `time_dilation` scales simulated seconds into clock seconds: `1.0`
    /// models the SoCs serving in real time, `60.0` stretches each simulated
    /// second into a virtual minute (an easy way to saturate a fleet), values
    /// below one compress.  In this mode the driver also reports each served
    /// scenario back to its source ([`ScenarioSource::scenario_served`]);
    /// queue-aware sources return [`QueueStamp`]s, which feed the sojourn and
    /// queue-delay sketches and the recorded trace.
    ///
    /// # Panics
    ///
    /// Panics if `time_dilation` is not finite and positive.
    #[must_use]
    pub fn with_service_time(mut self, time_dilation: f64) -> Self {
        assert!(
            time_dilation.is_finite() && time_dilation > 0.0,
            "time dilation must be finite and positive, got {time_dilation}"
        );
        self.service_dilation = Some(time_dilation);
        self
    }

    /// Scores every CPU decision against the Oracle of the same scenario
    /// under `objective`.  Each worker keeps a second [`SocSimulator`] for
    /// the reference, reset for each scenario as the serving one is, and runs
    /// [`OracleSearch::execute_each`] over the scenario's CPU snippets on it:
    /// the reference is [`soclearn_oracle::OracleRun::execute`]'s decisions
    /// on a fresh simulator, bit for bit.  Nothing is memoised: the search
    /// reads per-level tables, so a cached answer cost no less than the
    /// search and a cold miss about twice it.
    #[must_use]
    pub fn with_oracle_reference(mut self, objective: OracleObjective) -> Self {
        self.oracle_reference = Some(objective);
        self
    }

    /// Replaces the driver's sweep cache.  Serving never reads or writes it:
    /// the Oracle reference asks the Oracle directly, so a warm cache changes
    /// no decision, figure or timing path.  The method stays because the
    /// benchmark under `perfbench/` builds against it; it goes with the
    /// sweep cache.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<SweepCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The driver's sweep cache.  Serving never reads or writes it, so its
    /// statistics do not move during a run; kept, like
    /// [`ScenarioDriver::with_cache`], for the benchmark.
    pub fn cache(&self) -> &Arc<SweepCache> {
        &self.cache
    }

    /// Serves every scenario the source yields and returns the aggregated
    /// telemetry.  `make_policies` is called once per scenario (from the
    /// worker thread that claimed it) with the scenario index and spec, so
    /// every user gets an independent [`SubstratePolicies`] bundle: its CPU
    /// DVFS policy, GPU controller and NoC latency model.
    pub fn run_stream_mixed<S, F>(&self, source: &S, make_policies: F) -> DriverTelemetry
    where
        S: ScenarioSource + ?Sized,
        F: Fn(usize, &ScenarioSpec) -> SubstratePolicies + Sync,
    {
        self.run_inner(source, &make_policies, false).0
    }

    /// Like [`ScenarioDriver::run_stream_mixed`], but additionally records
    /// every decision (snippet/frame/window, chosen config, telemetry) per
    /// scenario, sorted by scenario index.  The recording is what the trace
    /// layer in `soclearn-scenarios` serialises and replays; serving is
    /// exact, so a replay reproduces the records bit-for-bit.
    pub fn run_recorded_mixed<S, F>(
        &self,
        source: &S,
        make_policies: F,
    ) -> (DriverTelemetry, Vec<ScenarioRecord>)
    where
        S: ScenarioSource + ?Sized,
        F: Fn(usize, &ScenarioSpec) -> SubstratePolicies + Sync,
    {
        let (telemetry, mut records) = self.run_inner(source, &make_policies, true);
        records.sort_by_key(|r| r.index);
        (telemetry, records)
    }

    fn run_inner<S, F>(
        &self,
        source: &S,
        make_policies: &F,
        record: bool,
    ) -> (DriverTelemetry, Vec<ScenarioRecord>)
    where
        S: ScenarioSource + ?Sized,
        F: Fn(usize, &ScenarioSpec) -> SubstratePolicies + Sync,
    {
        let started_ns = self.clock.now_ns();
        // With an observability plane attached, the personalization store's
        // shared locks are contention-observed so worker-scaling stalls show
        // up as named lock sites in the registry.
        if let (Some(obs), Some(store)) = (&self.obs, &self.personalization) {
            store.attach_contention(&obs.registry);
        }
        let run_totals = Mutex::new(RunTotals::default());
        let mut worker_slots: Vec<WorkerSlot> = std::thread::scope(|scope| {
            let run_totals = &run_totals;
            let handles: Vec<_> = (0..self.workers)
                .map(|worker| {
                    scope.spawn(move || {
                        self.serve(worker, source, make_policies, record, run_totals)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("driver worker panicked")).collect()
        });
        // Service-time queueing: the run's span is the queueing timeline's
        // horizon — the latest completion stamp — which is a pure function of
        // the arrival schedule and the simulated service times, so
        // `wall_seconds` is bit-stable at any worker count.  Reading the
        // shared virtual clock instead would pick up whichever worker's
        // `advance_ns` interleaving happened to run last.  Without stamps
        // (no queue-aware source) the clock reading remains the only
        // timeline, as before.
        let stamped_horizon_ns = worker_slots.iter().map(|slot| slot.max_completion_ns).max();
        let wall_seconds = match stamped_horizon_ns {
            Some(horizon_ns) if horizon_ns > 0 => horizon_ns as f64 / 1e9,
            _ => self.clock.seconds_since(started_ns),
        };

        worker_slots.sort_by_key(|slot| slot.telemetry.worker);
        let mut latency = QuantileSketch::new();
        let mut sojourn = QuantileSketch::new();
        let mut queue_delay = QuantileSketch::new();
        let mut workers = Vec::with_capacity(worker_slots.len());
        let mut records = Vec::new();
        let mut service_ns = 0u64;
        let mut noc_budget_violations = 0;
        for slot in worker_slots {
            latency.merge(&slot.latency);
            sojourn.merge(&slot.sojourn);
            queue_delay.merge(&slot.queue_delay);
            noc_budget_violations += slot.noc_budget_violations;
            workers.push(slot.telemetry);
            records.extend(slot.records);
            service_ns = service_ns.saturating_add(slot.service_ns);
        }
        let decisions: usize = workers.iter().map(|w| w.decisions).sum();
        let matches: usize = workers.iter().map(|w| w.oracle_matches).sum();
        let totals = run_totals.into_inner().expect("run totals lock").finish();
        let cpu_decisions = totals.lanes[DecisionKind::Cpu.lane()].decisions;
        // All leases are dropped (workers joined), so the final fleet merge
        // folds every completed user's deltas before the snapshot is taken.
        let model_store = self.personalization.as_ref().map(|store| {
            store.finish_run();
            store.snapshot()
        });
        let telemetry = DriverTelemetry {
            scenarios: workers.iter().map(|w| w.scenarios).sum(),
            decisions,
            total_energy_j: totals.energy_j,
            simulated_time_s: totals.time_s,
            wall_seconds,
            decisions_per_second: decisions as f64 / wall_seconds.max(1e-9),
            latency,
            service_time_s: service_ns as f64 / 1e9,
            sojourn,
            queue_delay,
            oracle_agreement: self.oracle_reference.map(|_| {
                if cpu_decisions == 0 {
                    0.0
                } else {
                    matches as f64 / cpu_decisions as f64
                }
            }),
            noc_budget_violations,
            l1: SweepL1Stats::default(),
            substrates: totals.lanes,
            workers,
            model_store,
        };
        if let Some(obs) = &self.obs {
            Self::publish_run(obs, &telemetry);
            if let Some(store) = &self.personalization {
                store.publish_stats(&obs.registry);
            }
        }
        (telemetry, records)
    }

    /// Folds one run's aggregated telemetry into the observability plane:
    /// run/lane/worker counters, throughput gauges, and the merged latency /
    /// sojourn / queue-delay sketches (one merge per run, so the
    /// per-decision hot path stays untouched).  Counters and sketches add up
    /// every run that shares the plane; the `driver_*` gauges are set, so
    /// they describe the last run that published into it.
    fn publish_run(obs: &Observability, telemetry: &DriverTelemetry) {
        let reg = &obs.registry;
        reg.counter("driver_runs_total", &[]).inc();
        reg.counter("driver_scenarios_total", &[]).add(telemetry.scenarios as u64);
        for lane in &telemetry.substrates {
            reg.counter("driver_decisions_total", &[("substrate", lane.kind.label())])
                .add(lane.decisions as u64);
        }
        reg.counter("driver_noc_budget_violations_total", &[])
            .add(telemetry.noc_budget_violations as u64);
        for worker in &telemetry.workers {
            reg.counter("driver_worker_decisions_total", &[("worker", &worker.worker.to_string())])
                .add(worker.decisions as u64);
        }
        if let Some(agreement) = telemetry.oracle_agreement {
            reg.gauge("driver_oracle_agreement", &[]).set(agreement);
        }
        reg.gauge("driver_decisions_per_second", &[])
            .set(telemetry.decisions_per_second);
        reg.gauge("driver_wall_seconds", &[]).set(telemetry.wall_seconds);
        reg.gauge("driver_service_time_seconds", &[]).set(telemetry.service_time_s);
        reg.gauge("driver_total_energy_joules", &[]).set(telemetry.total_energy_j);
        reg.sketch("driver_policy_latency_ns", &[]).merge(&telemetry.latency);
        if telemetry.sojourn.count() > 0 {
            reg.sketch("driver_sojourn_ns", &[]).merge(&telemetry.sojourn);
            reg.sketch("driver_queue_delay_ns", &[]).merge(&telemetry.queue_delay);
        }
    }

    /// Worker loop: claim scenarios until the source drains.
    fn serve<S, F>(
        &self,
        worker: usize,
        source: &S,
        make_policies: &F,
        record: bool,
        run_totals: &Mutex<RunTotals>,
    ) -> WorkerSlot
    where
        S: ScenarioSource + ?Sized,
        F: Fn(usize, &ScenarioSpec) -> SubstratePolicies + Sync,
    {
        let mut slot = WorkerSlot {
            telemetry: WorkerTelemetry { worker, scenarios: 0, decisions: 0, oracle_matches: 0 },
            latency: QuantileSketch::new(),
            sojourn: QuantileSketch::new(),
            queue_delay: QuantileSketch::new(),
            records: Vec::new(),
            service_ns: 0,
            max_completion_ns: 0,
            noc_budget_violations: 0,
        };
        // One CPU simulator per worker, reset for each scenario: a reset
        // simulator equals a fresh one, and building one costs more than
        // resetting it.  The Oracle reference keeps a second one, reset the
        // same way.
        let mut sim = SocSimulator::new(self.platform.clone());
        let mut oracle_sim =
            self.oracle_reference.map(|_| SocSimulator::new(self.platform.clone()));

        while let Some((index, scenario)) = source.next_scenario() {
            // In service-time mode later arrivals of the same user block on
            // this scenario's queue stamp, so a panic while serving must
            // still stamp it (with the service accumulated so far) before
            // propagating at join — otherwise the whole run hangs in the
            // queue model's condvar instead of failing.  `AssertUnwindSafe`
            // is sound here: on the unwind path the worker's state is only
            // handed back to `resume_unwind`, never reused.
            let mut service_ns = 0u64;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.serve_scenario(
                    index,
                    &scenario,
                    source,
                    make_policies,
                    record,
                    run_totals,
                    &mut slot,
                    &mut sim,
                    &mut oracle_sim,
                    &mut service_ns,
                );
            }));
            if let Err(panic) = outcome {
                if self.service_dilation.is_some() {
                    source.scenario_served(index, service_ns);
                }
                std::panic::resume_unwind(panic);
            }
        }
        slot
    }

    /// Serves one claimed scenario end to end, accumulating into `slot`.
    #[allow(clippy::too_many_arguments)]
    fn serve_scenario<S, F>(
        &self,
        index: usize,
        scenario: &ScenarioSpec,
        source: &S,
        make_policies: &F,
        record: bool,
        run_totals: &Mutex<RunTotals>,
        slot: &mut WorkerSlot,
        sim: &mut SocSimulator,
        oracle_sim: &mut Option<SocSimulator>,
        service_ns: &mut u64,
    ) where
        S: ScenarioSource + ?Sized,
        F: Fn(usize, &ScenarioSpec) -> SubstratePolicies + Sync,
    {
        let mut policies = make_policies(index, scenario);
        let policy_name = (record || self.obs.is_some()).then(|| {
            // Pure-CPU scenarios keep the bare CPU policy name (the original
            // trace vocabulary); mixed scenarios compose the per-substrate
            // labels so the record names the whole bundle.
            let mut name = policies.cpu.name().to_owned();
            for kind in scenario.kinds() {
                match kind {
                    DecisionKind::Cpu => {}
                    DecisionKind::Gpu => name = format!("{name}+{}", policies.gpu.label()),
                    DecisionKind::Noc => name = format!("{name}+{}", policies.noc.label()),
                }
            }
            name
        });

        let oracle_decisions = self
            .oracle_reference
            .zip(oracle_sim.as_mut())
            .map(|(objective, oracle_sim)| oracle_reference(objective, oracle_sim, scenario));

        // The CPU simulator starts each scenario fresh; its thermal state
        // carries across CPU segments, exactly as it did when scenarios were
        // one snippet stream.
        sim.reset();
        // One GPU adapter per scenario, created at the first GPU segment:
        // DVFS/slice transition state and the controller's workload estimate
        // carry across that scenario's GPU segments.
        let mut gpu_adapter: Option<GpuAdapter> = None;
        let mut totals = ScenarioTotals::default();
        let mut scenario_matches = 0usize;
        let mut decisions = record.then(|| Vec::with_capacity(scenario.decision_count()));
        let mut counters = SnippetCounters::default();
        let mut config = self.platform.max_config();
        // Global decision ordinal (record index) and the CPU-only ordinal
        // that indexes the Oracle reference.
        let mut ordinal = 0usize;
        let mut cpu_ordinal = 0usize;
        for segment in &scenario.segments {
            match segment {
                SubstrateWork::Cpu(profiles) => {
                    for profile in profiles {
                        // Virtual clock: decisions are instantaneous in
                        // discrete-event time — reading the shared counter
                        // around `decide` would pick up *other* workers'
                        // arrival advances as phantom latency.
                        let decision_started_ns =
                            (!self.clock.is_virtual()).then(|| self.clock.now_ns());
                        config = policies.cpu.decide(
                            &self.platform,
                            PolicyDecision::new(&counters, config, cpu_ordinal),
                        );
                        slot.latency.record(match decision_started_ns {
                            Some(started_ns) => self.clock.now_ns().saturating_sub(started_ns),
                            None => 0,
                        });
                        let big_temp_c = sim.big_temperature_c();
                        let little_temp_c = sim.little_temperature_c();
                        let result = sim.execute_snippet(profile, config);
                        policies.cpu.observe_outcome(result.energy_j, result.time_s);
                        counters = result.counters;
                        if let Some(reference) = &oracle_decisions {
                            if reference[cpu_ordinal].big_idx == config.big_idx {
                                slot.telemetry.oracle_matches += 1;
                                scenario_matches += 1;
                            }
                        }
                        let decision = DecisionRecord {
                            index: ordinal,
                            profile: profile.clone(),
                            config,
                            big_temp_c,
                            little_temp_c,
                            energy_j: result.energy_j,
                            time_s: result.time_s,
                            counters: result.counters,
                        };
                        self.account_decision(service_ns, &mut totals, &decision);
                        if let Some(decisions) = &mut decisions {
                            decisions.push(SubstrateRecord::Cpu(decision));
                        }
                        ordinal += 1;
                        cpu_ordinal += 1;
                    }
                }
                SubstrateWork::Gpu(session) => {
                    let adapter =
                        gpu_adapter.get_or_insert_with(|| GpuAdapter::new(&policies.gpu, session));
                    for demand in &session.frames {
                        let decision_started_ns =
                            (!self.clock.is_virtual()).then(|| self.clock.now_ns());
                        let decision = adapter.serve_frame(demand, session.deadline_s(), ordinal);
                        slot.latency.record(match decision_started_ns {
                            Some(started_ns) => self.clock.now_ns().saturating_sub(started_ns),
                            None => 0,
                        });
                        self.account_decision(service_ns, &mut totals, &decision);
                        if let Some(decisions) = &mut decisions {
                            decisions.push(SubstrateRecord::Gpu(decision));
                        }
                        ordinal += 1;
                    }
                }
                SubstrateWork::Noc(session) => {
                    let model = NocModel::build(&policies.noc, session);
                    for (window, &offered_rate) in session.query_rates.iter().enumerate() {
                        let decision_started_ns =
                            (!self.clock.is_virtual()).then(|| self.clock.now_ns());
                        let decision = model.serve_window(session, window, offered_rate, ordinal);
                        slot.latency.record(match decision_started_ns {
                            Some(started_ns) => self.clock.now_ns().saturating_sub(started_ns),
                            None => 0,
                        });
                        if decision.measured_latency_cycles > session.latency_budget_cycles {
                            slot.noc_budget_violations += 1;
                        }
                        self.account_decision(service_ns, &mut totals, &decision);
                        if let Some(decisions) = &mut decisions {
                            decisions.push(SubstrateRecord::Noc(decision));
                        }
                        ordinal += 1;
                    }
                }
            }
        }
        slot.telemetry.scenarios += 1;
        slot.telemetry.decisions += ordinal;
        slot.service_ns = slot.service_ns.saturating_add(*service_ns);
        run_totals.lock().expect("run totals lock").complete(index, totals);
        // Service-time mode: hand the scenario's service duration back to
        // the source, which places it on the queueing timeline (FIFO
        // behind earlier arrivals of the same user).
        let queue = self.service_dilation.and_then(|_| source.scenario_served(index, *service_ns));
        if let Some(stamp) = &queue {
            slot.sojourn.record(stamp.sojourn_ns());
            slot.queue_delay.record(stamp.delay_ns());
            slot.max_completion_ns = slot.max_completion_ns.max(stamp.completion_ns);
        }
        if let Some(obs) = &self.obs {
            let policy = policy_name.as_deref().unwrap_or_default();
            obs.registry
                .counter("driver_policy_decisions_total", &[("policy", policy)])
                .add(ordinal as u64);
            if let Some(stamp) = &queue {
                // Arrival→start→completion spans derived from the
                // schedule-relative stamps, one track per scenario index —
                // bit-deterministic at any worker count.
                let track = index as u64;
                obs.spans.record(
                    Span::new("queue_wait", "queue", track, stamp.arrival_ns, stamp.delay_ns())
                        .with_arg("user", &scenario.name),
                );
                obs.spans.record(
                    Span::new("serve", "driver", track, stamp.start_ns, stamp.service_ns)
                        .with_arg("user", &scenario.name)
                        .with_arg("policy", policy),
                );
            }
        }
        if let Some(decisions) = decisions {
            slot.records.push(ScenarioRecord {
                index,
                name: scenario.name.clone(),
                policy: policy_name.unwrap_or_default(),
                oracle_matches: oracle_decisions.as_ref().map(|_| scenario_matches),
                queue,
                decisions,
            });
        }
    }

    /// Folds one served decision (any substrate) into its scenario's totals
    /// and, in service-time mode, spends its simulated time on the driver's
    /// clock.
    fn account_decision<D: SubstrateDecision>(
        &self,
        service_ns: &mut u64,
        totals: &mut ScenarioTotals,
        decision: &D,
    ) {
        if let Some(dilation) = self.service_dilation {
            // Serving spends virtual time: each decision's simulated
            // execution time (dilated) passes on the driver's clock.
            // Integer nanoseconds keep the per-scenario totals exact
            // and order-independent.
            let decision_ns = (decision.service_time_s().max(0.0) * dilation * 1e9).round() as u64;
            *service_ns = service_ns.saturating_add(decision_ns);
            self.clock.advance_ns(decision_ns);
        }
        totals.energy_j += decision.energy_j();
        totals.time_s += decision.service_time_s();
        let lane = &mut totals.lanes[decision.kind().lane()];
        lane.decisions += 1;
        lane.energy_j += decision.energy_j();
        lane.time_s += decision.service_time_s();
    }
}

/// The Oracle's configuration for each CPU snippet of `scenario`, in order,
/// from `sim` reset to a fresh simulator's state: the decisions of
/// [`soclearn_oracle::OracleRun::execute`] over the same snippets.
fn oracle_reference(
    objective: OracleObjective,
    sim: &mut SocSimulator,
    scenario: &ScenarioSpec,
) -> Vec<DvfsConfig> {
    sim.reset();
    let mut decisions = Vec::with_capacity(scenario.decision_count());
    OracleSearch::new(objective).execute_each(sim, scenario.cpu_snippets(), |execution| {
        decisions.push(execution.config);
    });
    decisions
}

/// One served scenario's simulated energy and time, overall and per
/// substrate lane (with the lane's decision count); also the run's, summed
/// over scenarios.
#[derive(Debug, Clone, Copy)]
struct ScenarioTotals {
    energy_j: f64,
    time_s: f64,
    /// One lane per [`DecisionKind`], canonical order.
    lanes: [SubstrateTelemetry; 3],
}

impl Default for ScenarioTotals {
    fn default() -> Self {
        Self { energy_j: 0.0, time_s: 0.0, lanes: SubstrateTelemetry::lanes() }
    }
}

impl ScenarioTotals {
    fn add(&mut self, scenario: &ScenarioTotals) {
        self.energy_j += scenario.energy_j;
        self.time_s += scenario.time_s;
        for (run, scenario) in self.lanes.iter_mut().zip(&scenario.lanes) {
            run.decisions += scenario.decisions;
            run.energy_j += scenario.energy_j;
            run.time_s += scenario.time_s;
        }
    }
}

/// The run's energy, time and lane counts, folded from each scenario's
/// subtotals in scenario-index order as the scenarios complete, so their bits
/// do not depend on which worker served which scenario.  Only completions
/// that overtake the oldest scenario still in flight are held, until it
/// completes: when the source hands out indices from 0 in order, as
/// [`SliceSource`] and the scenarios crate's fleet source do, that is about
/// one per worker while sessions are of about one length, and as many as
/// complete during the longest session when they are not.
#[derive(Default)]
struct RunTotals {
    /// The index the fold adds next.
    next: usize,
    /// Completed scenarios waiting for an earlier index.
    waiting: BTreeMap<usize, ScenarioTotals>,
    sum: ScenarioTotals,
}

impl RunTotals {
    fn complete(&mut self, index: usize, totals: ScenarioTotals) {
        if index != self.next {
            self.waiting.insert(index, totals);
            return;
        }
        self.sum.add(&totals);
        self.next += 1;
        while let Some(totals) = self.waiting.remove(&self.next) {
            self.sum.add(&totals);
            self.next += 1;
        }
    }

    /// Adds whatever still waits (a source whose indices have gaps) in
    /// index order.
    fn finish(mut self) -> ScenarioTotals {
        for totals in self.waiting.values() {
            self.sum.add(totals);
        }
        self.sum
    }
}

/// Everything one worker brings back from its serve loop.
struct WorkerSlot {
    telemetry: WorkerTelemetry,
    latency: QuantileSketch,
    sojourn: QuantileSketch,
    queue_delay: QuantileSketch,
    records: Vec<ScenarioRecord>,
    /// Clock nanoseconds this worker's decisions spent in service-time mode.
    service_ns: u64,
    /// Latest queueing-timeline completion stamp this worker observed; the
    /// run's `wall_seconds` is the maximum across workers.
    max_completion_ns: u64,
    /// NoC windows this worker served over their latency budget.
    noc_budget_violations: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::{FrameDemand, GpuSessionSpec};
    use soclearn_governors::OndemandGovernor;
    use soclearn_oracle::{OraclePolicy, OracleRun};

    fn scenarios(n: usize) -> Vec<ScenarioSpec> {
        (0..n)
            .map(|i| {
                ScenarioSpec::new(
                    format!("user-{i}"),
                    vec![
                        SnippetProfile::compute_bound(50_000_000),
                        SnippetProfile::memory_bound(50_000_000),
                        SnippetProfile::compute_bound(50_000_000),
                    ],
                )
            })
            .collect()
    }

    #[test]
    fn driver_serves_every_scenario_and_decision() {
        let platform = SocPlatform::small();
        let driver = ScenarioDriver::new(platform.clone(), 4);
        let specs = scenarios(8);
        let telemetry = driver.run_stream_mixed(&SliceSource::new(&specs), |_, _| {
            SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform)))
        });
        assert_eq!(telemetry.scenarios, 8);
        assert_eq!(telemetry.decisions, 24);
        assert_eq!(telemetry.latency.count(), 24);
        assert!(telemetry.total_energy_j > 0.0);
        assert!(telemetry.simulated_time_s > 0.0);
        assert!(telemetry.decisions_per_second > 0.0);
        assert!(telemetry.oracle_agreement.is_none());
        assert_eq!(telemetry.workers.len(), 4);
        let per_worker: usize = telemetry.workers.iter().map(|w| w.decisions).sum();
        assert_eq!(per_worker, telemetry.decisions);
    }

    #[test]
    fn oracle_replay_policy_scores_perfect_agreement() {
        let platform = SocPlatform::small();
        let specs = scenarios(3);
        let driver =
            ScenarioDriver::new(platform.clone(), 4).with_oracle_reference(OracleObjective::Energy);
        let telemetry = driver.run_stream_mixed(&SliceSource::new(&specs), |_, spec| {
            let SubstrateWork::Cpu(profiles) = &spec.segments[0] else {
                unreachable!("pure-CPU scenarios");
            };
            let mut sim = SocSimulator::new(platform.clone());
            let run = OracleRun::execute(&mut sim, profiles, OracleObjective::Energy);
            SubstratePolicies::cpu_only(Box::new(OraclePolicy::from_run(
                &run,
                platform.min_config(),
            )))
        });
        assert_eq!(telemetry.oracle_agreement, Some(1.0));
    }

    #[test]
    fn oracle_reference_equals_the_oracle_run() {
        let platform = SocPlatform::small();
        let mixed = ScenarioSpec::with_segments(
            "mixed",
            vec![
                SubstrateWork::Cpu(vec![
                    SnippetProfile::compute_bound(80_000_000),
                    SnippetProfile::memory_bound(60_000_000),
                ]),
                SubstrateWork::Gpu(GpuSessionSpec::new(
                    vec![FrameDemand::new(2.0e9, 0.9, 3.0e7)],
                    30.0,
                )),
                SubstrateWork::Cpu(vec![SnippetProfile::compute_bound(40_000_000)]),
            ],
        );
        let profiles: Vec<SnippetProfile> = mixed.cpu_snippets().cloned().collect();
        let mut fresh = SocSimulator::new(platform.clone());
        let run = OracleRun::execute(&mut fresh, &profiles, OracleObjective::Energy);
        // A simulator that already served something: the reference resets it.
        let mut sim = SocSimulator::new(platform.clone());
        sim.execute_snippet(&SnippetProfile::compute_bound(90_000_000), platform.max_config());
        let decisions = oracle_reference(OracleObjective::Energy, &mut sim, &mixed);
        assert_eq!(decisions, run.decisions);
        assert_eq!(sim.big_temperature_c().to_bits(), fresh.big_temperature_c().to_bits());
        assert_eq!(sim.little_temperature_c().to_bits(), fresh.little_temperature_c().to_bits());
    }

    #[test]
    fn recorded_run_captures_every_decision() {
        let platform = SocPlatform::small();
        let specs = scenarios(4);
        let driver =
            ScenarioDriver::new(platform.clone(), 2).with_oracle_reference(OracleObjective::Energy);
        let (telemetry, records) = driver.run_recorded_mixed(&SliceSource::new(&specs), |_, _| {
            SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform)))
        });
        assert_eq!(records.len(), 4);
        // Sorted by scenario index regardless of worker interleaving.
        for (i, record) in records.iter().enumerate() {
            assert_eq!(record.index, i);
            assert_eq!(record.name, format!("user-{i}"));
            assert_eq!(record.policy, "ondemand");
            assert_eq!(record.decisions.len(), 3);
            assert!(record.oracle_matches.is_some());
        }
        let recorded_energy: f64 = records
            .iter()
            .flat_map(|r| r.decisions.iter().map(SubstrateDecision::energy_j))
            .sum();
        assert!((recorded_energy - telemetry.total_energy_j).abs() < 1e-9);
        let matches: usize = records.iter().filter_map(|r| r.oracle_matches).sum();
        let agreement = telemetry.oracle_agreement.expect("reference was requested");
        assert!((agreement - matches as f64 / telemetry.decisions as f64).abs() < 1e-12);
    }

    #[test]
    fn recorded_decisions_replay_bit_identically() {
        let platform = SocPlatform::small();
        let specs = scenarios(2);
        let driver = ScenarioDriver::new(platform.clone(), 2);
        let (_, records) = driver.run_recorded_mixed(&SliceSource::new(&specs), |_, _| {
            SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform)))
        });
        for record in &records {
            let mut sim = SocSimulator::new(platform.clone());
            for decision in &record.decisions {
                let decision = decision.as_cpu().expect("pure-CPU scenario");
                assert_eq!(sim.big_temperature_c().to_bits(), decision.big_temp_c.to_bits());
                let replayed = sim.execute_snippet(&decision.profile, decision.config);
                assert_eq!(replayed.energy_j.to_bits(), decision.energy_j.to_bits());
                assert_eq!(replayed.time_s.to_bits(), decision.time_s.to_bits());
            }
        }
    }

    #[test]
    fn service_time_mode_spends_virtual_time_serving() {
        let platform = SocPlatform::small();
        let specs = scenarios(4);
        let clock = Clock::virtual_clock();
        let driver = ScenarioDriver::new(platform.clone(), 1)
            .with_clock(clock.clone())
            .with_service_time(1.0);
        let telemetry = driver.run_stream_mixed(&SliceSource::new(&specs), |_, _| {
            SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform)))
        });
        // Decisions are no longer instantaneous: the run's virtual span covers
        // the simulated service time.
        assert!(telemetry.service_time_s > 0.0);
        assert!(
            (telemetry.service_time_s - telemetry.simulated_time_s).abs()
                < 1e-6 * telemetry.simulated_time_s.max(1.0),
            "dilation 1.0 must spend one virtual second per simulated second"
        );
        assert!(telemetry.wall_seconds >= telemetry.service_time_s * (1.0 - 1e-9));
        assert_eq!(clock.now_ns(), (telemetry.wall_seconds * 1e9).round() as u64);
        // No queue-aware source: the sojourn sketches stay empty.
        assert_eq!(telemetry.sojourn.count(), 0);
        assert_eq!(telemetry.queue_delay.count(), 0);
    }

    #[test]
    fn service_time_dilation_scales_the_virtual_span() {
        let platform = SocPlatform::small();
        let specs = scenarios(2);
        let run = |dilation: f64| {
            ScenarioDriver::new(platform.clone(), 1)
                .with_clock(Clock::virtual_clock())
                .with_service_time(dilation)
                .run_stream_mixed(&SliceSource::new(&specs), |_, _| {
                    SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform)))
                })
        };
        let (base, stretched) = (run(1.0), run(60.0));
        assert_eq!(base.decisions, stretched.decisions);
        let ratio = stretched.service_time_s / base.service_time_s;
        assert!((ratio - 60.0).abs() < 1e-6, "dilation must scale busy time, got {ratio}");
        assert!(stretched.wall_seconds > base.wall_seconds * 50.0);
    }

    #[test]
    fn without_service_time_records_have_no_queue_stamps() {
        let platform = SocPlatform::small();
        let specs = scenarios(2);
        let driver = ScenarioDriver::new(platform.clone(), 1);
        let (telemetry, records) = driver.run_recorded_mixed(&SliceSource::new(&specs), |_, _| {
            SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform)))
        });
        assert_eq!(telemetry.service_time_s, 0.0);
        assert!(records.iter().all(|r| r.queue.is_none()));
    }

    #[test]
    fn queue_stamp_durations_are_consistent() {
        let stamp =
            QueueStamp { arrival_ns: 100, start_ns: 250, completion_ns: 400, service_ns: 150 };
        assert_eq!(stamp.sojourn_ns(), 300);
        assert_eq!(stamp.delay_ns(), 150);
        assert_eq!(stamp.sojourn_ns(), stamp.delay_ns() + stamp.service_ns);
    }
}
