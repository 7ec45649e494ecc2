//! Fleet-scale stress serving: stream generated users into the driver.
//!
//! [`FleetSource`] adapts a [`ScenarioGenerator`] into the driver's streaming
//! [`ScenarioSource`]: users are manufactured on demand as workers claim them
//! (never materialised up front) and released according to an
//! [`ArrivalSchedule`] — constant spacing, bursts, a ramp, a sinusoidal
//! diurnal cycle or Markov-modulated calm/storm traffic — so the serving
//! stack is exercised under realistic admission patterns, not just a
//! pre-loaded queue.  [`FleetStress`] wraps the whole loop and aggregates
//! *fleet* telemetry on top of the driver's: per-family decision counts,
//! energy and oracle agreement, plus energy deltas against baseline governor
//! fleets over the identical scenario stream.
//!
//! Arrival pacing and telemetry share one [`Clock`]: real time by default, or
//! — via [`FleetStress::with_clock`] / [`FleetSource::with_clock`] — a
//! virtual discrete-event clock under which waiting for an arrival *advances*
//! time instead of sleeping, compressing a 24 h diurnal schedule into the
//! milliseconds the decisions take to serve, with deterministic virtual-time
//! telemetry.
//!
//! With [`FleetStress::with_queueing`] the fleet additionally spends
//! *service* time on that clock: each decision's simulated `time_s` (scaled
//! by a time-dilation factor) passes in virtual time, and arrivals are
//! round-robined onto per-user FIFO servers so an arrival that lands while
//! its user is busy queues behind it.  The resulting sojourn/queueing-delay/
//! backlog/utilisation telemetry ([`QueueReport`], the queueing fields of
//! [`FamilyTelemetry`]) is computed from schedule-relative [`QueueStamp`]s in
//! scenario-index order — bit-deterministic at any worker count.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

use soclearn_governors::{InteractiveGovernor, OndemandGovernor};
use soclearn_oracle::OracleObjective;
use soclearn_runtime::obs::{Observability, ObservedMutex, Span, TelemetryRegistry};
use soclearn_runtime::{
    Clock, DecisionKind, DriverTelemetry, ModelStoreStats, QuantileSketch, QueueStamp,
    ScenarioDriver, ScenarioRecord, ScenarioSource, ScenarioSpec, SubstrateDecision,
    SubstratePolicies, TieredModelStore,
};
use soclearn_soc_sim::{DvfsPolicy, SocPlatform};

use crate::generator::ScenarioGenerator;

/// When each generated user becomes available to the worker pool.
///
/// Schedules are expressed in *clock* time: under the default wall clock the
/// source really paces arrivals (jitter bounded by the OS sleep overshoot —
/// the exact remaining duration is slept, with no fixed polling quantum),
/// while under [`Clock::virtual_clock`] the same schedule plays out in
/// discrete-event time, so a multi-day schedule compresses to however long
/// the decisions take to serve.  [`ArrivalSchedule::Immediate`] (the default
/// for tests and CI) admits everyone up front.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalSchedule {
    /// Every user is available immediately.
    Immediate,
    /// One user every `interval`.
    Constant {
        /// Spacing between arrivals.
        interval: Duration,
    },
    /// `burst` users arrive together, then a `gap` of silence.
    Bursty {
        /// Users per burst.
        burst: usize,
        /// Pause between bursts.
        gap: Duration,
    },
    /// Arrival spacing shrinks linearly from `start` to `end` over the fleet —
    /// a load ramp.
    Ramp {
        /// Spacing at the first arrival.
        start: Duration,
        /// Spacing at the last arrival.
        end: Duration,
    },
    /// Day/night load cycle: arrival spacing oscillates sinusoidally between
    /// `peak` (the densest spacing, at phase zero) and `off_peak` (the
    /// sparsest, half a `period` later), with the phase driven by the arrival
    /// time itself.  A 24 h `period` reproduces a diurnal fleet; under a
    /// virtual clock the whole day runs in milliseconds.
    Diurnal {
        /// Length of one full load cycle (e.g. 24 h).
        period: Duration,
        /// Arrival spacing at the start/peak of the cycle (the busy phase).
        peak: Duration,
        /// Arrival spacing half a period in (the quiet phase).
        off_peak: Duration,
    },
    /// Markov-modulated arrivals: a two-state (calm/storm) chain advances one
    /// step per arrival, staying in its state with probability `persistence`
    /// and flipping otherwise.  Calm arrivals are spaced `calm` apart, storm
    /// arrivals `storm` apart; the state sequence is a pure function of
    /// `seed`, so the schedule is deterministic.  Long chains with calm
    /// spacings of minutes model multi-day traffic with bursty episodes.
    Markov {
        /// Spacing between arrivals in the calm state.
        calm: Duration,
        /// Spacing between arrivals in the storm state.
        storm: Duration,
        /// Probability of staying in the current state at each arrival
        /// (clamped to `[0, 1]`).
        persistence: f64,
        /// Seed of the deterministic state sequence.
        seed: u64,
    },
}

/// SplitMix64 step: the deterministic stream behind [`ArrivalSchedule::Markov`].
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ArrivalSchedule {
    /// Offset from the run start at which user `index` of `total` arrives.
    ///
    /// A pure function of the schedule and `index` — that purity is what the
    /// fleet determinism guarantees rest on.  `Immediate`, `Constant`,
    /// `Bursty` and `Ramp` are closed-form O(1); the self-referential
    /// schedules (`Diurnal`, whose spacing depends on the arrival time
    /// itself, and `Markov`, whose state chain advances per arrival) cost
    /// O(`index`) float steps from scratch — an [`ArrivalPlan`] memoises the
    /// prefix so a fleet that queries every arrival pays O(n) total instead
    /// of O(n²).
    pub fn arrival_offset(&self, index: usize, total: usize) -> Duration {
        match *self {
            ArrivalSchedule::Immediate => Duration::ZERO,
            ArrivalSchedule::Constant { interval } => interval * index as u32,
            ArrivalSchedule::Bursty { burst, gap } => gap * (index / burst.max(1)) as u32,
            ArrivalSchedule::Ramp { start, end } => {
                // Arithmetic series of the linearly interpolated spacing
                // sequence: sum of start + (end-start)·(i/n) for i < index.
                let n = total.max(2) as f64 - 1.0;
                let k = index as f64;
                let slope = (end.as_secs_f64() - start.as_secs_f64()) / n;
                Duration::from_secs_f64(k * start.as_secs_f64() + slope * (k * (k - 1.0) / 2.0))
            }
            ArrivalSchedule::Diurnal { .. } | ArrivalSchedule::Markov { .. } => {
                let mut state = CumulativeState::new(*self);
                for _ in 0..index {
                    state.step(self);
                }
                Duration::from_secs_f64(state.offset_s)
            }
        }
    }

    /// Whether offsets must be computed by stepping a recurrence (so an
    /// [`ArrivalPlan`] memoises them) rather than in closed form.
    fn is_cumulative(&self) -> bool {
        matches!(self, ArrivalSchedule::Diurnal { .. } | ArrivalSchedule::Markov { .. })
    }
}

/// Stepping state of the self-referential schedules: the arrival offset plus,
/// for `Markov`, the chain's rng stream and current phase.  One [`step`]
/// advances exactly one arrival, so a memoised prefix walk performs the float
/// operations in the identical order as the from-scratch loop — the two are
/// bit-equal by construction.
///
/// [`step`]: CumulativeState::step
#[derive(Debug, Clone, Copy)]
struct CumulativeState {
    offset_s: f64,
    rng: u64,
    stormy: bool,
}

impl CumulativeState {
    fn new(schedule: ArrivalSchedule) -> Self {
        let rng = match schedule {
            ArrivalSchedule::Markov { seed, .. } => seed,
            _ => 0,
        };
        Self { offset_s: 0.0, rng, stormy: false }
    }

    fn step(&mut self, schedule: &ArrivalSchedule) {
        match *schedule {
            ArrivalSchedule::Diurnal { period, peak, off_peak } => {
                let period_s = period.as_secs_f64().max(1e-9);
                let peak_s = peak.as_secs_f64();
                let off_s = off_peak.as_secs_f64();
                let phase = self.offset_s / period_s * std::f64::consts::TAU;
                // cos = 1 at phase zero -> the dense `peak` spacing.
                self.offset_s += off_s + (peak_s - off_s) * (1.0 + phase.cos()) / 2.0;
            }
            ArrivalSchedule::Markov { calm, storm, persistence, .. } => {
                let stay = persistence.clamp(0.0, 1.0);
                let u = splitmix64(&mut self.rng) as f64 / u64::MAX as f64;
                if u > stay {
                    self.stormy = !self.stormy;
                }
                self.offset_s += if self.stormy { storm } else { calm }.as_secs_f64();
            }
            _ => unreachable!("only cumulative schedules step"),
        }
    }
}

/// Memoised arrival offsets of one schedule over one fleet: O(1) for the
/// closed-form schedules and O(1) amortised for the self-referential ones
/// (`Diurnal`, `Markov`), against O(`index`) per query on the bare
/// [`ArrivalSchedule::arrival_offset`].
///
/// Every offset is **bit-identical** to `arrival_offset(index, total)`: the
/// plan extends a cached prefix by stepping the same recurrence in the same
/// order, it never re-associates the float accumulation.  Queries may arrive
/// from any thread in any index order (the cache sits behind a mutex), which
/// is exactly how a multi-worker [`FleetSource`] drains a fleet.
pub struct ArrivalPlan {
    schedule: ArrivalSchedule,
    total: usize,
    /// Offsets of indices `0..cached.offsets_s.len()` plus the stepping state
    /// to extend the prefix; only populated for cumulative schedules.
    cached: Mutex<PlanCache>,
}

struct PlanCache {
    offsets_s: Vec<f64>,
    state: CumulativeState,
}

impl ArrivalPlan {
    /// Plans `schedule` over a fleet of `total` users.
    pub fn new(schedule: ArrivalSchedule, total: usize) -> Self {
        Self {
            schedule,
            total,
            cached: Mutex::new(PlanCache {
                offsets_s: vec![0.0],
                state: CumulativeState::new(schedule),
            }),
        }
    }

    /// The schedule this plan memoises.
    pub fn schedule(&self) -> &ArrivalSchedule {
        &self.schedule
    }

    /// Offset at which user `index` arrives; bit-identical to
    /// `self.schedule().arrival_offset(index, total)` at any query order.
    pub fn offset(&self, index: usize) -> Duration {
        if !self.schedule.is_cumulative() {
            return self.schedule.arrival_offset(index, self.total);
        }
        let mut cache = self.cached.lock().expect("arrival plan lock");
        while cache.offsets_s.len() <= index {
            let mut state = cache.state;
            state.step(&self.schedule);
            cache.state = state;
            let offset_s = state.offset_s;
            cache.offsets_s.push(offset_s);
        }
        Duration::from_secs_f64(cache.offsets_s[index])
    }
}

/// Service-time queueing of a fleet: how arrivals map to users and how
/// simulated decision time turns into clock time.
///
/// With queueing enabled ([`FleetStress::with_queueing`] /
/// [`FleetSource::with_queueing`]), arrival `i` belongs to user
/// `i % user_slots` and each user is a single FIFO server: an arrival that
/// lands while its user is still serving an earlier arrival waits in the
/// user's queue.  `time_dilation` scales each decision's simulated `time_s`
/// into clock time (see [`ScenarioDriver::with_service_time`]); `1.0` models
/// the SoCs serving in real time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueingConfig {
    /// Simulated-seconds → clock-seconds scale of each decision's service.
    pub time_dilation: f64,
    /// Number of users the arrivals are round-robined onto (each user is one
    /// FIFO server).
    pub user_slots: usize,
}

impl QueueingConfig {
    /// Creates a queueing configuration.
    ///
    /// # Panics
    ///
    /// Panics if `time_dilation` is not finite and positive or `user_slots`
    /// is zero.
    pub fn new(time_dilation: f64, user_slots: usize) -> Self {
        assert!(
            time_dilation.is_finite() && time_dilation > 0.0,
            "time dilation must be finite and positive, got {time_dilation}"
        );
        assert!(user_slots > 0, "queueing needs at least one user slot");
        Self { time_dilation, user_slots }
    }
}

/// Pure reference of the per-user FIFO discipline: places job `i` (arriving at
/// `arrivals[i]`, needing `service_ns[i]` of service, belonging to user
/// `i % user_slots`) on the queueing timeline.
///
/// Service starts at the later of the job's arrival and its user's previous
/// completion; completion is start plus service.  All integer nanoseconds, so
/// the stamps are exactly what the concurrent queue model inside
/// [`FleetSource`] produces for the same inputs — the property suite holds
/// the two to this definition.
///
/// # Panics
///
/// Panics if the slice lengths differ, `user_slots` is zero, or `arrivals`
/// is not non-decreasing (arrival schedules are monotone by construction).
pub fn fifo_stamps(arrivals: &[u64], service_ns: &[u64], user_slots: usize) -> Vec<QueueStamp> {
    assert_eq!(arrivals.len(), service_ns.len(), "one service duration per arrival");
    assert!(user_slots > 0, "queueing needs at least one user slot");
    assert!(arrivals.windows(2).all(|w| w[0] <= w[1]), "arrivals must be non-decreasing");
    let mut user_free = vec![0u64; user_slots];
    arrivals
        .iter()
        .zip(service_ns)
        .enumerate()
        .map(|(i, (&arrival_ns, &service))| {
            let free = &mut user_free[i % user_slots];
            let start_ns = arrival_ns.max(*free);
            let completion_ns = start_ns.saturating_add(service);
            *free = completion_ns;
            QueueStamp { arrival_ns, start_ns, completion_ns, service_ns: service }
        })
        .collect()
}

/// The concurrent per-user FIFO bookkeeping behind a queue-aware
/// [`FleetSource`].
///
/// Arrivals register their scheduled offset at claim time; when the driver
/// reports a scenario served ([`ScenarioSource::scenario_served`]) the model
/// stamps it — waiting, if necessary, until the same user's previous arrival
/// has been stamped, so per-user chains are computed in FIFO order no matter
/// which worker finishes simulating first.  Stamps are relative to the
/// source's epoch and use only schedule offsets and service durations, never
/// the shared clock's racy reading, so they are bit-deterministic at any
/// worker count (the math is exactly [`fifo_stamps`]).
///
/// State is **sparse**: only claimed-but-unstamped arrivals are resident
/// (plus two words per user slot), so the model's memory is
/// O(`user_slots` + in-flight jobs) instead of O(total fleet size) — the
/// difference between a 10⁶-user fleet costing megabytes and costing the
/// handful of entries the worker pool actually has open.
struct QueueModel {
    user_slots: usize,
    state: ObservedMutex<QueueModelState>,
    stamped_cond: Condvar,
}

struct QueueModelState {
    /// Scheduled arrival offsets of claimed-but-not-yet-stamped jobs; an
    /// entry is removed when its stamp consumes it.
    arrivals: HashMap<usize, u64>,
    /// Next unstamped position in each user's FIFO chain: job `i` of user
    /// `i % slots` sits at chain position `i / slots`.
    next_ordinal: Vec<u64>,
    /// Completion of each user's most recently stamped job.
    user_free_ns: Vec<u64>,
    /// High-water mark of concurrently resident (claimed, unstamped)
    /// arrivals — the model's peak in-flight footprint.
    peak_resident: usize,
}

impl QueueModel {
    fn new(user_slots: usize) -> Self {
        Self {
            user_slots,
            state: ObservedMutex::new(
                "fleet_queue_model",
                QueueModelState {
                    arrivals: HashMap::new(),
                    next_ordinal: vec![0; user_slots],
                    user_free_ns: vec![0; user_slots],
                    peak_resident: 0,
                },
            ),
            stamped_cond: Condvar::new(),
        }
    }

    /// Observe the model's lock (the `fleet_queue_model` site) in `registry`:
    /// a stamp blocked on its FIFO predecessor shows up as lock wait time, so
    /// cross-worker stamp serialization is measurable, not folklore.
    fn attach_contention(&self, registry: &TelemetryRegistry) {
        self.state.attach(registry);
    }

    fn register_arrival(&self, index: usize, arrival_ns: u64) {
        let mut state = self.state.lock();
        state.arrivals.insert(index, arrival_ns);
        let resident = state.arrivals.len();
        state.peak_resident = state.peak_resident.max(resident);
    }

    /// Peak number of concurrently resident (claimed, unstamped) arrivals.
    fn peak_resident(&self) -> usize {
        self.state.lock().peak_resident
    }

    /// Stamps job `index` after `service_ns` of service.  Blocks until the
    /// same user's previous job has been stamped; never deadlocks, because
    /// the job with the lowest unstamped chain position in every user chain
    /// depends on nothing and its worker always reaches this call.
    fn stamp(&self, index: usize, service_ns: u64) -> QueueStamp {
        let user = index % self.user_slots;
        let ordinal = (index / self.user_slots) as u64;
        let guard = self.state.lock();
        // Blocked-on-predecessor time is recorded as wait at the
        // `fleet_queue_model` site (the condvar reacquisition counts as a new
        // timed acquisition), so FIFO-chain stalls are attributable.
        let mut state = self
            .state
            .wait_while(guard, &self.stamped_cond, |state| state.next_ordinal[user] != ordinal);
        let arrival_ns =
            state.arrivals.remove(&index).expect("scenario was claimed before being served");
        let start_ns = arrival_ns.max(state.user_free_ns[user]);
        let completion_ns = start_ns.saturating_add(service_ns);
        state.user_free_ns[user] = completion_ns;
        state.next_ordinal[user] = ordinal + 1;
        self.stamped_cond.notify_all();
        QueueStamp { arrival_ns, start_ns, completion_ns, service_ns }
    }
}

/// Streaming [`ScenarioSource`] over a [`ScenarioGenerator`]: scenario `i` is
/// generated when (and only when) a worker claims it, after its scheduled
/// arrival time has passed.
///
/// A source is **single use**: once its `users` scenarios have been claimed
/// (by one `run_stream_mixed` call) it stays drained, and its arrival clock
/// starts at the first claim.  Build a fresh `FleetSource` for every run — the
/// generator behind it is cheap to share via `Arc` and produces the identical
/// fleet each time.
///
/// Workers claim scenarios in index order through one atomic counter.
/// Arrival offsets never decrease with index for any [`ArrivalSchedule`], so
/// the next claim is always the earliest pending arrival.
///
/// Arrivals are paced on the source's [`Clock`] (wall by default): the
/// claiming worker waits until the scenario's scheduled offset.  Under a wall
/// clock that wait sleeps the exact remaining duration; under a shared
/// virtual clock it *advances* virtual time to the arrival instant, so
/// multi-day schedules drain as fast as the workers can serve.
pub struct FleetSource {
    generator: Arc<ScenarioGenerator>,
    users: usize,
    /// Memoised schedule: claims query arrival offsets out of order from many
    /// workers, so the O(1)-amortised plan replaces per-claim O(index) walks.
    plan: ArrivalPlan,
    clock: Clock,
    /// Next scenario index to claim.
    next: AtomicUsize,
    started_ns: OnceLock<u64>,
    queueing: Option<QueueModel>,
}

impl FleetSource {
    /// Creates a source serving `users` scenarios from `generator`.
    pub fn new(generator: Arc<ScenarioGenerator>, users: usize, schedule: ArrivalSchedule) -> Self {
        Self {
            generator,
            users,
            plan: ArrivalPlan::new(schedule, users),
            clock: Clock::wall(),
            next: AtomicUsize::new(0),
            started_ns: OnceLock::new(),
            queueing: None,
        }
    }

    /// Enables the per-user FIFO queue model: arrival `i` belongs to user
    /// `i % user_slots`, and [`ScenarioSource::scenario_served`] returns
    /// [`QueueStamp`]s on the source's timeline (nanoseconds relative to the
    /// first claim).  Pair with [`ScenarioDriver::with_service_time`], which
    /// is what makes the driver report service durations back — without it
    /// the queue model sits idle.
    ///
    /// # Panics
    ///
    /// Panics if `user_slots` is zero.
    #[must_use]
    pub fn with_queueing(mut self, user_slots: usize) -> Self {
        assert!(user_slots > 0, "queueing needs at least one user slot");
        self.queueing = Some(QueueModel::new(user_slots));
        self
    }

    /// Replaces the source's time source (default: a wall clock).  Share the
    /// same clock with the driver so telemetry is computed on the timeline
    /// the arrivals were paced on.
    #[must_use]
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// The generator behind the source.
    pub fn generator(&self) -> &ScenarioGenerator {
        &self.generator
    }

    /// Users this source will admit in total.
    pub fn users(&self) -> usize {
        self.users
    }

    /// Observe the queue model's lock contention in `registry` (the
    /// `fleet_queue_model` site).  No-op unless
    /// [`FleetSource::with_queueing`] enabled the model.
    pub fn attach_contention(&self, registry: &TelemetryRegistry) {
        if let Some(queue) = &self.queueing {
            queue.attach_contention(registry);
        }
    }

    /// Peak number of concurrently resident (claimed, unstamped) arrivals in
    /// the queue model — the in-flight footprint the sparse state paid for.
    /// `None` unless [`FleetSource::with_queueing`] enabled the model.
    pub fn queue_peak_resident(&self) -> Option<usize> {
        self.queueing.as_ref().map(|queue| queue.peak_resident())
    }
}

impl ScenarioSource for FleetSource {
    fn next_scenario(&self) -> Option<(usize, ScenarioSpec)> {
        let index = self.next.fetch_add(1, Ordering::Relaxed);
        if index >= self.users {
            return None;
        }
        let due_ns = self.plan.offset(index).as_nanos() as u64;
        let started_ns = *self.started_ns.get_or_init(|| self.clock.now_ns());
        // Generate before registering the arrival: once an index is
        // registered, same-user successors will wait on its queue stamp, so
        // nothing that can panic (the generator) may run between registration
        // and the driver's panic-guarded serve loop.
        let spec = self.generator.scenario(index);
        if let Some(queue) = &self.queueing {
            // The stamp uses the schedule-relative offset, not the clock
            // reading: queueing telemetry must stay a pure function of the
            // schedule and the service times, at any worker count.
            queue.register_arrival(index, due_ns);
        }
        self.clock.wait_until_ns(started_ns.saturating_add(due_ns));
        Some((index, spec))
    }

    fn scenario_served(&self, index: usize, service_ns: u64) -> Option<QueueStamp> {
        let queue = self.queueing.as_ref()?;
        let stamp = queue.stamp(index, service_ns);
        // Pull the shared clock forward to the completion instant (an
        // absolute, deterministic target), so the run's virtual span covers
        // the service tail after the last arrival.
        let started_ns = self.started_ns.get().copied().unwrap_or(0);
        self.clock.wait_until_ns(started_ns.saturating_add(stamp.completion_ns));
        Some(stamp)
    }
}

/// Per-family slice of a fleet run.
///
/// The queueing fields (`service_s`, `busy_fraction`, `mean_sojourn_s`,
/// `p95_sojourn_s`) are zero unless the fleet ran with
/// [`FleetStress::with_queueing`].
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyTelemetry {
    /// Family name.
    pub family: String,
    /// Scenarios served from this family.
    pub scenarios: usize,
    /// Decisions served.
    pub decisions: usize,
    /// Simulated energy, joules.
    pub energy_j: f64,
    /// Simulated time, seconds.
    pub time_s: f64,
    /// Clock time the family's scenarios spent in service (dilation applied),
    /// seconds.
    pub service_s: f64,
    /// Fraction of the fleet's server capacity this family kept busy:
    /// `service_s / (user_slots × span)`.  Summed over all families this is
    /// the fleet utilisation.
    pub busy_fraction: f64,
    /// Mean time in system (queueing wait + service) of the family's
    /// arrivals, seconds.  Exact (from the sojourn sketch's integer sum).
    pub mean_sojourn_s: f64,
    /// 95th-percentile sojourn of the family's arrivals, seconds (from the
    /// sojourn sketch: ≈3.2% relative-error bound, fixed memory).
    pub p95_sojourn_s: f64,
    /// Mergeable per-family sojourn distribution; empty unless the fleet ran
    /// with queueing.  O(1) memory however many arrivals the family served.
    pub sojourn: QuantileSketch,
    /// Decisions per substrate, indexed by [`DecisionKind::lane`]
    /// (`[cpu, gpu, noc]`); sums to `decisions`.
    pub substrate_decisions: [usize; 3],
    /// Energy per substrate, joules, indexed like `substrate_decisions`;
    /// sums to `energy_j`.  The cross-substrate energy split of the family.
    pub substrate_energy_j: [f64; 3],
    /// Fraction of **CPU** decisions matching the Oracle reference, when
    /// scored (the Oracle speaks DVFS only, so GPU/NoC decisions are neither
    /// scored nor counted in the denominator).
    pub oracle_agreement: Option<f64>,
}

/// Fleet-level queueing telemetry, aggregated from the per-scenario
/// [`QueueStamp`]s in scenario-index order — so every field is
/// bit-deterministic at any worker count under a virtual clock.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueReport {
    /// User slots the arrivals were round-robined onto.
    pub user_slots: usize,
    /// Arrivals placed on the queueing timeline.
    pub arrivals: usize,
    /// Span of the queueing timeline: first arrival to last completion,
    /// seconds.
    pub span_s: f64,
    /// Total service time across all arrivals, seconds.
    pub total_service_s: f64,
    /// Fleet utilisation: `total_service_s / (user_slots × span_s)` — the
    /// busy fraction of the fleet's server capacity.
    pub utilisation: f64,
    /// Arrival rate over the span, arrivals per second.
    pub arrival_rate_per_s: f64,
    /// Mean time in system (queueing wait + service), seconds.
    pub mean_sojourn_s: f64,
    /// Median sojourn, seconds.
    pub p50_sojourn_s: f64,
    /// 95th-percentile sojourn, seconds.
    pub p95_sojourn_s: f64,
    /// 99th-percentile sojourn, seconds.
    pub p99_sojourn_s: f64,
    /// Mean head-of-line queueing delay (arrival to service start), seconds.
    pub mean_queue_delay_s: f64,
    /// Time-average number of arrivals in the system (Little's `L`).
    pub mean_backlog: f64,
    /// Deepest any single user's queue got (arrivals of one user
    /// simultaneously in the system, the one in service included).
    pub max_queue_depth: usize,
    /// Mergeable sojourn distribution the percentile fields are read from.
    /// Fixed memory regardless of arrival count; merge reports from sharded
    /// fleets with [`QuantileSketch::merge`].
    pub sojourn: QuantileSketch,
    /// Mergeable head-of-line queueing-delay distribution.
    pub delay: QuantileSketch,
}

impl QueueReport {
    /// Aggregates the stamps of a recorded fleet run (records in scenario
    /// index order).  Returns `None` if no record carries a stamp.
    ///
    /// One streaming pass with **fixed memory per user**: sojourn/delay
    /// distributions accumulate into [`QuantileSketch`]es (percentiles carry
    /// the sketch's ≈3.2% relative-error bound; means, utilisation and
    /// Little's-law backlog stay exact from integer sums), and the per-user
    /// backlog chains drain their departed prefix as arrivals stream by, so
    /// each user holds only its currently-in-system completions.
    pub fn from_records(records: &[ScenarioRecord], user_slots: usize) -> Option<Self> {
        let mut sojourn = QuantileSketch::new();
        let mut delay = QuantileSketch::new();
        let mut first_arrival = u64::MAX;
        let mut last_completion = 0u64;
        let mut total_service_ns = 0u64;
        // Deepest per-user backlog: how many of a user's earlier arrivals
        // were still in the system (completion strictly after the arrival
        // instant) when each arrival landed, the arriving one included.
        // Records arrive in scenario-index order, so per user both arrivals
        // and FIFO completions are non-decreasing: departed jobs form a
        // prefix of the chain and can be dropped for good.
        let mut per_user: Vec<VecDeque<u64>> = vec![VecDeque::new(); user_slots];
        let mut max_queue_depth = 0usize;
        for record in records {
            let Some(stamp) = record.queue else { continue };
            first_arrival = first_arrival.min(stamp.arrival_ns);
            last_completion = last_completion.max(stamp.completion_ns);
            total_service_ns += stamp.service_ns;
            sojourn.record(stamp.sojourn_ns());
            delay.record(stamp.delay_ns());
            let chain = &mut per_user[record.index % user_slots];
            while chain.front().is_some_and(|&completion| completion <= stamp.arrival_ns) {
                chain.pop_front();
            }
            max_queue_depth = max_queue_depth.max(1 + chain.len());
            chain.push_back(stamp.completion_ns);
        }
        if sojourn.count() == 0 {
            return None;
        }
        let span_ns = last_completion.saturating_sub(first_arrival).max(1);
        let n = sojourn.count() as f64;
        let span_s = span_ns as f64 / 1e9;
        Some(Self {
            user_slots,
            arrivals: sojourn.count() as usize,
            span_s,
            total_service_s: total_service_ns as f64 / 1e9,
            utilisation: total_service_ns as f64 / (user_slots as f64 * span_ns as f64),
            arrival_rate_per_s: n / span_s,
            mean_sojourn_s: sojourn.sum_ns() as f64 / n / 1e9,
            p50_sojourn_s: sojourn.quantile_ns(0.50) as f64 / 1e9,
            p95_sojourn_s: sojourn.quantile_ns(0.95) as f64 / 1e9,
            p99_sojourn_s: sojourn.quantile_ns(0.99) as f64 / 1e9,
            mean_queue_delay_s: delay.sum_ns() as f64 / n / 1e9,
            mean_backlog: sojourn.sum_ns() as f64 / span_ns as f64,
            max_queue_depth,
            sojourn,
            delay,
        })
    }
}

/// Aggregated outcome of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Policy family the fleet served.
    pub policy: String,
    /// Driver-level telemetry (throughput, latency histogram, cache stats).
    pub telemetry: DriverTelemetry,
    /// Per-family breakdown, in generator family order.
    pub families: Vec<FamilyTelemetry>,
    /// Fleet-level queueing telemetry; `None` unless the fleet ran with
    /// [`FleetStress::with_queueing`].
    pub queueing: Option<QueueReport>,
    /// The raw per-scenario recordings (trace-layer input).
    pub records: Vec<ScenarioRecord>,
}

impl FleetReport {
    /// Looks up a family's slice by name.
    pub fn family(&self, name: &str) -> Option<&FamilyTelemetry> {
        self.families.iter().find(|f| f.family == name)
    }
}

/// Energy comparison of one policy fleet against a baseline fleet over the
/// identical scenario stream.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyEnergyDelta {
    /// Family name.
    pub family: String,
    /// Policy fleet energy, joules.
    pub policy_energy_j: f64,
    /// Baseline fleet energy, joules.
    pub baseline_energy_j: f64,
}

impl FamilyEnergyDelta {
    /// Policy energy as a fraction of the baseline (`< 1` means the policy
    /// saved energy).
    pub fn ratio(&self) -> f64 {
        self.policy_energy_j / self.baseline_energy_j.max(1e-12)
    }
}

/// Lightweight outcome of a non-recording fleet drain ([`FleetStress::drain`]).
///
/// Everything a fleet-scale capacity check needs — decisions served, the
/// simulated span, queueing utilisation, sojourn, the sparse queue model's
/// in-flight footprint and the model store's accounting — without
/// materialising a single [`ScenarioRecord`], so fleets of 10⁵–10⁶ users run
/// in O(`user_slots` + in-flight) memory.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetDrainReport {
    /// Users drained.
    pub users: usize,
    /// User slots the arrivals were round-robined onto (0 if queueing off).
    pub user_slots: usize,
    /// Decisions served.
    pub decisions: usize,
    /// Simulated span of the run (stamped queueing horizon under queueing,
    /// otherwise the clock reading), seconds.
    pub span_s: f64,
    /// Fleet utilisation: service time over `user_slots × span` (0 if
    /// queueing off).
    pub utilisation: f64,
    /// Mean sojourn (queueing wait + service) from the driver's sketch,
    /// seconds (0 if queueing off).
    pub mean_sojourn_s: f64,
    /// Peak concurrently in-flight (claimed, unstamped) arrivals in the
    /// sparse queue model.
    pub queue_peak_resident: usize,
    /// Estimated peak queueing state, bytes per fleet user: the in-flight
    /// map (≈48 B/resident entry) and the per-slot FIFO words (32 B/slot),
    /// over `users`.  The point of the sparse model is that this shrinks as
    /// the fleet grows.
    pub queue_bytes_per_user: f64,
    /// Tiered model store accounting after the run's final fleet merge;
    /// `None` unless the fleet ran with [`FleetStress::with_personalization`].
    pub model_store: Option<ModelStoreStats>,
}

/// The closed-loop fleet harness: a generator, a user count, a worker pool and
/// an arrival schedule, runnable against any policy factory.
pub struct FleetStress {
    platform: SocPlatform,
    generator: Arc<ScenarioGenerator>,
    users: usize,
    workers: usize,
    schedule: ArrivalSchedule,
    clock: Clock,
    oracle_reference: Option<OracleObjective>,
    queueing: Option<QueueingConfig>,
    obs: Option<Observability>,
    personalization: Option<Arc<TieredModelStore>>,
    /// Interned per-family lease labels, populated when personalization is
    /// attached so each lease clones an `Arc<str>` instead of formatting a
    /// family name — measurable at 10⁵+ leases per drain.
    family_labels: Vec<Arc<str>>,
}

impl FleetStress {
    /// Creates a fleet harness.
    ///
    /// # Panics
    ///
    /// Panics if `users` or `workers` is zero.
    pub fn new(
        platform: SocPlatform,
        generator: ScenarioGenerator,
        users: usize,
        workers: usize,
    ) -> Self {
        assert!(users > 0, "fleet needs at least one user");
        assert!(workers > 0, "fleet needs at least one worker");
        Self {
            platform,
            generator: Arc::new(generator),
            users,
            workers,
            schedule: ArrivalSchedule::Immediate,
            clock: Clock::wall(),
            oracle_reference: None,
            queueing: None,
            obs: None,
            personalization: None,
            family_labels: Vec::new(),
        }
    }

    /// Enables tiered per-user personalization: the store is attached to the
    /// underlying [`ScenarioDriver`] (final fleet merge + accounting in
    /// [`DriverTelemetry::model_store`] / [`FleetDrainReport::model_store`]),
    /// and [`FleetStress::personalized_policy`] leases per-user policies from
    /// it with the scenario's family as the materialization label.  Governor
    /// baseline fleets ([`FleetStress::run_against_governors`]) never lease,
    /// so they stay unpersonalized for a fair comparison.
    #[must_use]
    pub fn with_personalization(mut self, store: Arc<TieredModelStore>) -> Self {
        self.personalization = Some(store);
        self.family_labels =
            self.generator.families().iter().map(|f| Arc::from(f.name())).collect();
        self
    }

    /// The attached tiered model store, when personalization is on.
    pub fn personalization(&self) -> Option<&Arc<TieredModelStore>> {
        self.personalization.as_ref()
    }

    /// Leases a personalized policy for scenario `index` from the attached
    /// store, labelled with the scenario's generator family — the CPU policy
    /// the factory passed to [`FleetStress::run`] / [`FleetStress::drain`]
    /// wraps in [`SubstratePolicies::cpu_only`] when personalization is on.
    ///
    /// # Panics
    ///
    /// Panics if [`FleetStress::with_personalization`] was not called.
    pub fn personalized_policy(&self, index: usize) -> Box<dyn DvfsPolicy + Send> {
        let store = self
            .personalization
            .as_ref()
            .expect("personalized_policy requires with_personalization");
        let family = Arc::clone(&self.family_labels[self.generator.family_index_of(index)]);
        Box::new(store.lease(family))
    }

    /// Publishes fleet telemetry into an [`Observability`] plane: the plane
    /// is also handed to the underlying [`ScenarioDriver`], so one handle
    /// collects driver counters, per-family sketches, queueing gauges and
    /// spans.  Span determinism follows the driver's contract: under the
    /// virtual clock spans are derived from schedule-relative stamps (or
    /// arrival offsets when queueing is off), so the recorded span multiset
    /// is bit-identical at any worker count.
    #[must_use]
    pub fn with_observability(mut self, obs: Observability) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Sets the arrival schedule (default: everyone immediately).
    #[must_use]
    pub fn with_schedule(mut self, schedule: ArrivalSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Replaces the harness's time source (default: a wall clock).  The same
    /// clock drives arrival pacing *and* the driver's telemetry, so under
    /// [`Clock::virtual_clock`] a fleet spanning simulated days completes in
    /// milliseconds and reports its throughput against virtual time.
    ///
    /// Determinism under a virtual clock: the per-family telemetry and the
    /// recorded decision stream are aggregated in scenario-index order, so
    /// they are bit-identical across same-seed runs at **any** worker count;
    /// the driver-level totals sum per-worker slices, so they are bit-stable
    /// only with one worker (scenario→worker assignment races otherwise).
    #[must_use]
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Scores every decision against an Oracle reference under `objective`.
    #[must_use]
    pub fn with_oracle_reference(mut self, objective: OracleObjective) -> Self {
        self.oracle_reference = Some(objective);
        self
    }

    /// Enables **service-time queueing**: the driver spends each decision's
    /// simulated `time_s` (scaled by `config.time_dilation`) on the fleet's
    /// clock, and arrivals are round-robined onto `config.user_slots` FIFO
    /// users — an arrival that lands while its user is still serving an
    /// earlier one waits, producing real queueing-delay, backlog and
    /// utilisation telemetry ([`FleetReport::queueing`], plus the queueing
    /// fields of [`FamilyTelemetry`] and the driver's sojourn sketches).
    ///
    /// Under a virtual clock the whole queueing timeline is simulated in
    /// milliseconds and — because stamps are computed from schedule offsets
    /// and service durations only, in per-user FIFO order — the per-family
    /// telemetry, the queue report and the recorded stamps are bit-identical
    /// at **any** worker count, and so is the driver-level `wall_seconds`,
    /// which is the latest completion stamp.  Under a wall clock,
    /// completions pace real time: the run sleeps until each scenario's
    /// virtual completion instant.
    #[must_use]
    pub fn with_queueing(mut self, config: QueueingConfig) -> Self {
        self.queueing = Some(config);
        self
    }

    /// The generator users are drawn from.
    pub fn generator(&self) -> &ScenarioGenerator {
        &self.generator
    }

    /// The driver and arrival source one fleet run serves through: the
    /// harness's clock, Oracle reference, queueing and observability settings
    /// applied to both.
    fn driver_and_source(&self) -> (ScenarioDriver, FleetSource) {
        let mut driver =
            ScenarioDriver::new(self.platform.clone(), self.workers).with_clock(self.clock.clone());
        if let Some(objective) = self.oracle_reference {
            driver = driver.with_oracle_reference(objective);
        }
        if let Some(queueing) = self.queueing {
            driver = driver.with_service_time(queueing.time_dilation);
        }
        if let Some(obs) = &self.obs {
            driver = driver.with_observability(obs.clone());
        }
        if let Some(store) = &self.personalization {
            driver = driver.with_personalization(Arc::clone(store));
        }
        let mut source = FleetSource::new(Arc::clone(&self.generator), self.users, self.schedule)
            .with_clock(self.clock.clone());
        if let Some(queueing) = self.queueing {
            source = source.with_queueing(queueing.user_slots);
        }
        if let Some(obs) = &self.obs {
            source.attach_contention(&obs.registry);
        }
        (driver, source)
    }

    /// Streams the fleet through a [`ScenarioDriver`] serving the
    /// per-substrate policy bundle from `make_policies` (wrap a lone CPU
    /// policy in [`SubstratePolicies::cpu_only`]), recording every decision
    /// and aggregating per-family telemetry.  CPU DVFS, GPU power management
    /// and NoC latency throttling all route through the same worker pool,
    /// and the report's [`FamilyTelemetry::substrate_energy_j`] carries the
    /// cross-substrate energy split.
    pub fn run<F>(&self, make_policies: F) -> FleetReport
    where
        F: Fn(usize, &ScenarioSpec) -> SubstratePolicies + Sync,
    {
        let (driver, source) = self.driver_and_source();
        let (telemetry, records) = driver.run_recorded_mixed(&source, &make_policies);
        let queueing = self
            .queueing
            .and_then(|config| QueueReport::from_records(&records, config.user_slots));

        let mut families: Vec<FamilyTelemetry> = self
            .generator
            .families()
            .iter()
            .map(|f| FamilyTelemetry {
                family: f.name(),
                scenarios: 0,
                decisions: 0,
                energy_j: 0.0,
                time_s: 0.0,
                service_s: 0.0,
                busy_fraction: 0.0,
                mean_sojourn_s: 0.0,
                p95_sojourn_s: 0.0,
                sojourn: QuantileSketch::new(),
                substrate_decisions: [0; 3],
                substrate_energy_j: [0.0; 3],
                oracle_agreement: None,
            })
            .collect();
        let mut matches = vec![0usize; families.len()];
        let mut scored = vec![false; families.len()];
        for record in &records {
            let slot = self.generator.family_index_of(record.index);
            let family = &mut families[slot];
            family.scenarios += 1;
            family.decisions += record.decisions.len();
            for decision in &record.decisions {
                let lane = decision.kind().lane();
                family.substrate_decisions[lane] += 1;
                family.substrate_energy_j[lane] += decision.energy_j();
                family.energy_j += decision.energy_j();
                family.time_s += decision.service_time_s();
            }
            if let Some(stamp) = &record.queue {
                family.service_s += stamp.service_ns as f64 / 1e9;
                family.sojourn.record(stamp.sojourn_ns());
            }
            if let Some(m) = record.oracle_matches {
                matches[slot] += m;
                scored[slot] = true;
            }
        }
        for ((family, &matched), &scored) in families.iter_mut().zip(&matches).zip(&scored) {
            let cpu_decisions = family.substrate_decisions[DecisionKind::Cpu.lane()];
            if scored && cpu_decisions > 0 {
                family.oracle_agreement = Some(matched as f64 / cpu_decisions as f64);
            }
        }
        if let Some(report) = &queueing {
            for family in families.iter_mut() {
                family.busy_fraction =
                    family.service_s / (report.user_slots as f64 * report.span_s);
                if family.sojourn.count() > 0 {
                    family.mean_sojourn_s = family.sojourn.mean_ns() / 1e9;
                    family.p95_sojourn_s = family.sojourn.quantile_ns(0.95) as f64 / 1e9;
                }
            }
        }
        let policy = records.first().map(|r| r.policy.clone()).unwrap_or_default();
        if let Some(obs) = &self.obs {
            self.publish_fleet(obs, &policy, &families, queueing.as_ref(), &records);
        }
        FleetReport { policy, telemetry, families, queueing, records }
    }

    /// Drains the fleet **without recording**: streams every user through the
    /// driver exactly like [`FleetStress::run`], but keeps no per-scenario
    /// records, no per-family breakdown and no [`QueueReport`] — the run's
    /// memory stays O(`user_slots` + in-flight) however large the fleet.
    /// This is the capacity path the fleet-scale invariants drive at 10⁴
    /// users in every test run and at 10⁶ users nightly; use
    /// [`FleetStress::run`] when you need traces, family telemetry or
    /// byte-deterministic queue reports.
    pub fn drain<F>(&self, make_policies: F) -> FleetDrainReport
    where
        F: Fn(usize, &ScenarioSpec) -> SubstratePolicies + Sync,
    {
        let (driver, source) = self.driver_and_source();
        let telemetry = driver.run_stream_mixed(&source, make_policies);
        let user_slots = self.queueing.map(|q| q.user_slots).unwrap_or(0);
        let peak = source.queue_peak_resident().unwrap_or(0);
        let span_s = telemetry.wall_seconds;
        let utilisation = if user_slots > 0 && span_s > 0.0 {
            telemetry.service_time_s / (user_slots as f64 * span_s)
        } else {
            0.0
        };
        let mean_sojourn_s =
            if telemetry.sojourn.count() > 0 { telemetry.sojourn.mean_ns() / 1e9 } else { 0.0 };
        let state_bytes = peak as f64 * 48.0 + user_slots as f64 * 32.0;
        FleetDrainReport {
            users: self.users,
            user_slots,
            decisions: telemetry.decisions,
            span_s,
            utilisation,
            mean_sojourn_s,
            queue_peak_resident: peak,
            queue_bytes_per_user: state_bytes / self.users.max(1) as f64,
            model_store: telemetry.model_store,
        }
    }

    /// Folds one fleet run into the observability plane: per-family counters
    /// and sojourn sketches (labelled by family and policy so baseline
    /// governor fleets don't collide with the policy fleet), fleet-level
    /// queueing gauges, and — when the run produced no queue stamps but ran
    /// under the virtual clock — deterministic zero-duration arrival spans
    /// derived from the arrival plan.  (Queueing runs get their richer
    /// arrival→start→completion spans from the driver's stamp path instead.)
    fn publish_fleet(
        &self,
        obs: &Observability,
        policy: &str,
        families: &[FamilyTelemetry],
        queueing: Option<&QueueReport>,
        records: &[ScenarioRecord],
    ) {
        let reg = &obs.registry;
        for family in families {
            let labels: [(&str, &str); 2] =
                [("family", family.family.as_str()), ("policy", policy)];
            reg.counter("fleet_scenarios_total", &labels).add(family.scenarios as u64);
            reg.counter("fleet_decisions_total", &labels).add(family.decisions as u64);
            reg.gauge("fleet_energy_joules", &labels).set(family.energy_j);
            if family.sojourn.count() > 0 {
                reg.sketch("fleet_sojourn_ns", &labels).merge(&family.sojourn);
            }
        }
        if let Some(report) = queueing {
            let labels: [(&str, &str); 1] = [("policy", policy)];
            reg.gauge("queue_utilisation", &labels).set(report.utilisation);
            reg.gauge("queue_mean_backlog", &labels).set(report.mean_backlog);
            reg.gauge("queue_max_depth", &labels).set(report.max_queue_depth as f64);
            reg.gauge("queue_arrival_rate_per_s", &labels).set(report.arrival_rate_per_s);
            reg.sketch("queue_sojourn_ns", &labels).merge(&report.sojourn);
            reg.sketch("queue_delay_ns", &labels).merge(&report.delay);
        } else if self.clock.is_virtual() {
            // No stamps to derive spans from: mark each arrival as an
            // instant event at its schedule offset — a pure function of
            // `(schedule, index, users)`, bit-deterministic at any worker
            // count.
            let plan = ArrivalPlan::new(self.schedule, self.users);
            for record in records {
                let due_ns = plan.offset(record.index).as_nanos() as u64;
                obs.spans.record(
                    Span::new("arrival", "fleet", record.index as u64, due_ns, 0)
                        .with_arg("user", &record.name),
                );
            }
        }
    }

    /// Runs the policy fleet from `make_policies`, then two all-governor
    /// baseline fleets over the identical scenario stream — *ondemand* and
    /// *interactive* on the CPU, each paired with the GPU utilisation
    /// governor and the analytical NoC latency model (the per-substrate
    /// governor baselines) — and returns the three reports together with
    /// per-family energy deltas of the policy against each governor (in the
    /// order `[vs-ondemand, vs-interactive]`).  Deltas compare total
    /// cross-substrate energy per family.
    pub fn run_against_governors<F>(
        &self,
        make_policies: F,
    ) -> (FleetReport, [FleetReport; 2], [Vec<FamilyEnergyDelta>; 2])
    where
        F: Fn(usize, &ScenarioSpec) -> SubstratePolicies + Sync,
    {
        let policy_report = self.run(make_policies);
        let platform = self.platform.clone();
        let ondemand = self
            .run(|_, _| SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform))));
        let interactive =
            self.run(|_, _| SubstratePolicies::cpu_only(Box::new(InteractiveGovernor::new())));
        let deltas = [&ondemand, &interactive].map(|baseline| {
            policy_report
                .families
                .iter()
                .zip(&baseline.families)
                .map(|(p, b)| FamilyEnergyDelta {
                    family: p.family.clone(),
                    policy_energy_j: p.energy_j,
                    baseline_energy_j: b.energy_j,
                })
                .collect()
        });
        (policy_report, [ondemand, interactive], deltas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soclearn_runtime::SliceSource;
    use std::time::Instant;

    fn generator() -> ScenarioGenerator {
        ScenarioGenerator::standard(21, 6)
    }

    #[test]
    fn arrival_schedules_are_monotone() {
        let schedules = [
            ArrivalSchedule::Immediate,
            ArrivalSchedule::Constant { interval: Duration::from_millis(2) },
            ArrivalSchedule::Bursty { burst: 3, gap: Duration::from_millis(4) },
            ArrivalSchedule::Ramp {
                start: Duration::from_millis(4),
                end: Duration::from_millis(1),
            },
            ArrivalSchedule::Diurnal {
                period: Duration::from_secs(60),
                peak: Duration::from_millis(5),
                off_peak: Duration::from_secs(2),
            },
            ArrivalSchedule::Markov {
                calm: Duration::from_secs(1),
                storm: Duration::from_millis(10),
                persistence: 0.8,
                seed: 7,
            },
        ];
        for schedule in schedules {
            let offsets: Vec<Duration> = (0..10).map(|i| schedule.arrival_offset(i, 10)).collect();
            assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "{schedule:?} not monotone");
        }
        // A ramp tightens its spacing.
        let ramp = ArrivalSchedule::Ramp {
            start: Duration::from_millis(4),
            end: Duration::from_millis(1),
        };
        let early = ramp.arrival_offset(1, 10) - ramp.arrival_offset(0, 10);
        let late = ramp.arrival_offset(9, 10) - ramp.arrival_offset(8, 10);
        assert!(late < early, "ramp spacing must shrink ({early:?} -> {late:?})");
        // Bursts arrive together.
        let bursty = ArrivalSchedule::Bursty { burst: 3, gap: Duration::from_millis(4) };
        assert_eq!(bursty.arrival_offset(0, 10), bursty.arrival_offset(2, 10));
        assert!(bursty.arrival_offset(3, 10) > bursty.arrival_offset(2, 10));
    }

    #[test]
    fn arrival_plan_is_bitwise_equal_to_the_reference_at_any_query_order() {
        let schedules = [
            ArrivalSchedule::Immediate,
            ArrivalSchedule::Constant { interval: Duration::from_millis(2) },
            ArrivalSchedule::Bursty { burst: 3, gap: Duration::from_millis(4) },
            ArrivalSchedule::Ramp {
                start: Duration::from_millis(4),
                end: Duration::from_millis(1),
            },
            ArrivalSchedule::Diurnal {
                period: Duration::from_secs(60),
                peak: Duration::from_millis(5),
                off_peak: Duration::from_secs(2),
            },
            ArrivalSchedule::Markov {
                calm: Duration::from_secs(1),
                storm: Duration::from_millis(10),
                persistence: 0.8,
                seed: 7,
            },
        ];
        let total = 200;
        for schedule in schedules {
            let plan = ArrivalPlan::new(schedule, total);
            // Query backwards first (worst case for a prefix cache), then
            // forwards, then randomly-ish; every answer must equal the pure
            // reference to the bit, including the Duration's nanosecond part.
            for index in (0..total).rev() {
                assert_eq!(
                    plan.offset(index),
                    schedule.arrival_offset(index, total),
                    "{schedule:?} diverges at reverse query {index}"
                );
            }
            for index in 0..total {
                assert_eq!(plan.offset(index), schedule.arrival_offset(index, total));
            }
            for index in [97, 3, 150, 0, 199, 42] {
                assert_eq!(plan.offset(index), schedule.arrival_offset(index, total));
            }
        }
    }

    #[test]
    fn cumulative_schedules_stay_linear_through_the_plan() {
        // 20k diurnal arrivals: the memoised plan answers the full fleet in
        // well under a second where the O(n²) reference walk would not.
        let schedule = ArrivalSchedule::Diurnal {
            period: Duration::from_secs(24 * 3_600),
            peak: Duration::from_millis(50),
            off_peak: Duration::from_secs(30),
        };
        let total = 20_000;
        let plan = ArrivalPlan::new(schedule, total);
        let started = Instant::now();
        let mut last = Duration::ZERO;
        for index in 0..total {
            last = plan.offset(index);
        }
        assert!(last > Duration::ZERO);
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "memoised plan must be O(n) over the fleet, took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn diurnal_schedule_breathes_with_its_period() {
        // Dense at the cycle start, sparse half a period in, dense again a
        // full period later — and a pure function of the index.
        let diurnal = ArrivalSchedule::Diurnal {
            period: Duration::from_secs(24 * 3_600),
            peak: Duration::from_secs(60),
            off_peak: Duration::from_secs(7_200),
        };
        let offsets: Vec<f64> =
            (0..150).map(|i| diurnal.arrival_offset(i, 150).as_secs_f64()).collect();
        let first_gap = offsets[1] - offsets[0];
        assert!((first_gap - 60.0).abs() < 1.0, "phase-zero spacing is the peak interval");
        let widest = offsets.windows(2).map(|w| w[1] - w[0]).fold(0.0, f64::max);
        assert!(widest > 3_600.0, "the quiet phase must spread arrivals out ({widest:.0}s)");
        assert!(
            offsets.last().unwrap() > &86_400.0,
            "150 arrivals span more than one simulated day"
        );
        assert_eq!(
            diurnal.arrival_offset(17, 40),
            diurnal.arrival_offset(17, 40),
            "offsets are pure"
        );
    }

    #[test]
    fn markov_schedule_is_seed_deterministic_and_two_paced() {
        let markov = |seed| ArrivalSchedule::Markov {
            calm: Duration::from_secs(600),
            storm: Duration::from_secs(5),
            persistence: 0.85,
            seed,
        };
        let a: Vec<Duration> = (0..50).map(|i| markov(3).arrival_offset(i, 50)).collect();
        let b: Vec<Duration> = (0..50).map(|i| markov(3).arrival_offset(i, 50)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(
            a,
            (0..50).map(|i| markov(4).arrival_offset(i, 50)).collect::<Vec<_>>(),
            "different seeds must differ"
        );
        // Both regimes appear: some gaps are calm-sized, some storm-sized.
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
        assert!(gaps.iter().any(|&g| (g - 600.0).abs() < 1e-6), "calm spacing present");
        assert!(gaps.iter().any(|&g| (g - 5.0).abs() < 1e-6), "storm spacing present");
    }

    #[test]
    fn virtual_clock_compresses_hour_scale_schedules() {
        // An hour of constant spacing drains in far under a second, telemetry
        // is computed against virtual time, and the virtual clock ends at the
        // last arrival's offset.
        let platform = SocPlatform::small();
        let generator = Arc::new(ScenarioGenerator::standard(5, 3));
        let clock = Clock::virtual_clock();
        let source = FleetSource::new(
            Arc::clone(&generator),
            7,
            ArrivalSchedule::Constant { interval: Duration::from_secs(600) },
        )
        .with_clock(clock.clone());
        let driver = ScenarioDriver::new(platform.clone(), 2).with_clock(clock.clone());
        let wall = Instant::now();
        let telemetry = driver.run_stream_mixed(&source, |_, _| {
            SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform)))
        });
        assert!(wall.elapsed() < Duration::from_secs(1), "virtual hour must not take an hour");
        assert_eq!(telemetry.scenarios, 7);
        // Six 10-minute gaps of virtual time elapsed.
        assert!(telemetry.wall_seconds >= 3_600.0, "virtual span {:.0}s", telemetry.wall_seconds);
        assert!(clock.now_ns() >= 3_600 * 1_000_000_000);
        // Virtual-time throughput: decisions over the simulated hour.
        let expected = telemetry.decisions as f64 / telemetry.wall_seconds;
        assert!((telemetry.decisions_per_second - expected).abs() < 1e-9);
    }

    #[test]
    fn virtual_fleet_reports_are_bit_identical_with_one_worker() {
        let run = || {
            FleetStress::new(SocPlatform::small(), generator(), 6, 1)
                .with_schedule(ArrivalSchedule::Diurnal {
                    period: Duration::from_secs(24 * 3_600),
                    peak: Duration::from_secs(300),
                    off_peak: Duration::from_secs(4 * 3_600),
                })
                .with_clock(Clock::virtual_clock())
                .run(|_, _| {
                    SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(
                        &SocPlatform::small(),
                    )))
                })
        };
        let (a, b) = (run(), run());
        assert_eq!(a.telemetry.wall_seconds.to_bits(), b.telemetry.wall_seconds.to_bits());
        assert_eq!(
            a.telemetry.decisions_per_second.to_bits(),
            b.telemetry.decisions_per_second.to_bits()
        );
        assert_eq!(a.telemetry.total_energy_j.to_bits(), b.telemetry.total_energy_j.to_bits());
        assert_eq!(a.telemetry.latency, b.telemetry.latency, "virtual latencies are deterministic");
        assert_eq!(a.records, b.records);
        assert_eq!(a.families, b.families);
    }

    #[test]
    fn fifo_stamps_respect_the_queue_discipline() {
        // Two users (slots), interleaved arrivals: user 0 gets jobs 0 and 2,
        // user 1 gets jobs 1 and 3.  Job 2 arrives while user 0 still serves
        // job 0, so it queues; job 3 arrives after user 1 went idle.
        let arrivals = [0, 5, 10, 100];
        let services = [50, 20, 30, 40];
        let stamps = fifo_stamps(&arrivals, &services, 2);
        assert_eq!(stamps[0].start_ns, 0);
        assert_eq!(stamps[0].completion_ns, 50);
        assert_eq!(stamps[1].start_ns, 5);
        assert_eq!(stamps[1].completion_ns, 25);
        // Job 2 (user 0) waited for job 0: start at 50, not 10.
        assert_eq!(stamps[2].start_ns, 50);
        assert_eq!(stamps[2].delay_ns(), 40);
        assert_eq!(stamps[2].sojourn_ns(), 70);
        // Job 3 (user 1) found its user idle: no delay.
        assert_eq!(stamps[3].start_ns, 100);
        assert_eq!(stamps[3].delay_ns(), 0);
        // One slot: everything is one FIFO chain.
        let single = fifo_stamps(&arrivals, &services, 1);
        assert_eq!(single[3].start_ns, 100); // 0+50+20+30 = 100 exactly
        assert_eq!(single[2].start_ns, 70);
    }

    #[test]
    fn queueing_fleet_reports_are_bit_identical_at_any_worker_count() {
        let run = |workers| {
            FleetStress::new(SocPlatform::small(), generator(), 12, workers)
                .with_schedule(ArrivalSchedule::Constant { interval: Duration::from_millis(40) })
                .with_clock(Clock::virtual_clock())
                .with_queueing(QueueingConfig::new(1.0, 3))
                .run(|_, _| {
                    SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(
                        &SocPlatform::small(),
                    )))
                })
        };
        let reference = run(1);
        let queueing = reference.queueing.as_ref().expect("queueing was enabled");
        assert!(queueing.utilisation > 0.0);
        assert_eq!(queueing.arrivals, 12);
        for workers in [2, 4] {
            let report = run(workers);
            assert_eq!(report.families, reference.families, "{workers} workers");
            assert_eq!(report.queueing, reference.queueing, "{workers} workers");
            assert_eq!(report.records, reference.records, "{workers} workers");
            assert_eq!(report.telemetry.sojourn, reference.telemetry.sojourn);
            assert_eq!(report.telemetry.queue_delay, reference.telemetry.queue_delay);
        }
    }

    #[test]
    fn queueing_stamps_obey_the_pure_fifo_reference() {
        let users = 10;
        let slots = 2;
        let schedule = ArrivalSchedule::Constant { interval: Duration::from_millis(25) };
        let report = FleetStress::new(SocPlatform::small(), generator(), users, 4)
            .with_schedule(schedule)
            .with_clock(Clock::virtual_clock())
            .with_queueing(QueueingConfig::new(2.0, slots))
            .run(|_, _| {
                SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&SocPlatform::small())))
            });
        let stamps: Vec<_> = report
            .records
            .iter()
            .map(|r| r.queue.expect("queueing stamps every record"))
            .collect();
        let arrivals: Vec<u64> = (0..users)
            .map(|i| schedule.arrival_offset(i, users).as_nanos() as u64)
            .collect();
        let services: Vec<u64> = stamps.iter().map(|s| s.service_ns).collect();
        assert_eq!(stamps, fifo_stamps(&arrivals, &services, slots));
        // Dilation 2.0: service is twice the simulated time, to rounding.
        let simulated: f64 = report
            .records
            .iter()
            .flat_map(|r| r.decisions.iter().map(SubstrateDecision::service_time_s))
            .sum();
        let service: f64 = services.iter().sum::<u64>() as f64 / 1e9;
        assert!((service - 2.0 * simulated).abs() < 1e-6 * service.max(1.0));
    }

    /// Queueing slots of the fleet-scale invariants.  Arrivals go to slot
    /// `index % slots` and the generator deals families in a fixed rotation,
    /// so a slot count the family count divides (16 with four families)
    /// would pin every slot to one family.
    const FLEET_SLOTS: usize = 17;

    /// A constant-rate simulated week of `users` arrivals on the virtual
    /// clock, queued onto [`FLEET_SLOTS`] users.
    fn week_long_fleet(generator: ScenarioGenerator, users: usize, workers: usize) -> FleetStress {
        let week_s = 7.0 * 86_400.0;
        FleetStress::new(SocPlatform::small(), generator, users, workers)
            .with_schedule(ArrivalSchedule::Constant {
                interval: Duration::from_secs_f64(week_s / users as f64),
            })
            .with_clock(Clock::virtual_clock())
            .with_queueing(QueueingConfig::new(1.0, FLEET_SLOTS))
    }

    /// The capacity invariants of a week-long fleet drained without
    /// recording: every user served, the whole week simulated, and queueing
    /// state that tracks in-flight work rather than the fleet.
    fn assert_queue_model_state_stays_sparse(users: usize) {
        let workers = 4;
        let report =
            week_long_fleet(ScenarioGenerator::standard(2020, 2), users, workers).drain(|_, _| {
                SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&SocPlatform::small())))
            });
        assert_eq!(report.users, users);
        assert_eq!(report.user_slots, FLEET_SLOTS);
        assert!(report.decisions >= users, "{} decisions for {users} users", report.decisions);
        assert!(report.utilisation > 0.0);
        assert!(report.mean_sojourn_s > 0.0);
        assert!(
            report.span_s >= 6.0 * 86_400.0,
            "simulated span {:.2} days is short of the week",
            report.span_s / 86_400.0
        );
        assert!(report.queue_peak_resident >= 1);
        assert!(report.queue_peak_resident <= users, "resident arrivals are bounded by the fleet");
        // The sparse model only holds claimed-but-unstamped jobs: the
        // in-flight set stays near the worker count, far below the dense
        // per-job vectors the old model kept.
        assert!(
            report.queue_peak_resident <= 2 * workers + FLEET_SLOTS,
            "peak resident ({}) must track in-flight work, not fleet size",
            report.queue_peak_resident
        );
        assert!(
            report.queue_bytes_per_user < 1000.0,
            "queue state {:.1} bytes/user",
            report.queue_bytes_per_user
        );
    }

    #[test]
    fn queue_model_state_stays_sparse() {
        assert_queue_model_state_stays_sparse(10_000);
    }

    #[test]
    #[ignore = "10⁶ users: run with --release -- --ignored"]
    fn queue_model_state_stays_sparse_at_a_million_users() {
        assert_queue_model_state_stays_sparse(1_000_000);
    }

    /// The store invariants of a week-long fleet of 8-snippet personalized
    /// sessions: copy-on-write memory stays a small fraction of a per-user
    /// copy, real workloads diverge, and the federated merge folds their
    /// deltas into new base generations.
    fn assert_personalized_fleet_reports_store_accounting(users: usize) {
        use soclearn_runtime::{shared_artifacts, ExperimentScale, OnlineIlConfig};
        let artifacts = shared_artifacts(&SocPlatform::small(), ExperimentScale::Quick);
        // One merge per ~64 in-flight generations keeps federation live
        // without refitting and republishing the base every 64 completions.
        let merge_every = (users / 64).max(64);
        let store =
            Arc::new(TieredModelStore::new(&artifacts, OnlineIlConfig::default(), merge_every));
        let fleet = week_long_fleet(ScenarioGenerator::standard(2020, 8), users, 2)
            .with_personalization(Arc::clone(&store));
        let report = fleet.drain(|i, _| SubstratePolicies::cpu_only(fleet.personalized_policy(i)));
        assert!(report.decisions > 0);
        let stats = report.model_store.expect("personalized drain must report store stats");
        assert_eq!(stats.users_leased, users as u64);
        assert!(stats.deltas_materialized > 0, "real workloads must diverge");
        assert!(stats.merge_rounds >= 1, "finish_run must fold pending deltas into the base");
        assert!(stats.base_version >= 1);
        assert!(
            (stats.peak_resident_copies as usize) < users,
            "resident copies ({}) are bounded by in-flight leases, not the fleet",
            stats.peak_resident_copies
        );
        assert!(
            stats.copy_fraction_per_user() < 0.10,
            "personalization costs {:.4} of a full copy per user",
            stats.copy_fraction_per_user()
        );
        let families = store.family_materializations();
        assert!(!families.is_empty(), "materializations are attributed per family");
        let attributed: u64 = families.iter().map(|(_, n)| n).sum();
        assert_eq!(attributed, stats.deltas_materialized);
    }

    #[test]
    fn personalized_fleet_reports_store_accounting() {
        assert_personalized_fleet_reports_store_accounting(10_000);
    }

    #[test]
    #[ignore = "10⁶ users: run with --release -- --ignored"]
    fn personalized_fleet_reports_store_accounting_at_a_million_users() {
        assert_personalized_fleet_reports_store_accounting(1_000_000);
    }

    /// Leases copy the base at their first CPU decision, so users whose
    /// scenarios have no CPU segment (the GPU- and NoC-only families) are
    /// leased but never materialize a copy.
    #[test]
    fn only_cpu_users_materialize_a_copy() {
        use soclearn_runtime::{shared_artifacts, ExperimentScale, OnlineIlConfig};
        let platform = SocPlatform::small();
        let artifacts = shared_artifacts(&platform, ExperimentScale::Quick);
        let store =
            Arc::new(TieredModelStore::with_defaults(&artifacts, OnlineIlConfig::default()));
        let users = 14;
        let fleet = FleetStress::new(platform, ScenarioGenerator::heterogeneous(5, 6), users, 2)
            .with_clock(Clock::virtual_clock())
            .with_personalization(Arc::clone(&store));
        let report = fleet.drain(|i, _| SubstratePolicies::cpu_only(fleet.personalized_policy(i)));

        let generator = fleet.generator();
        let mut expected: Vec<(String, u64)> = Vec::new();
        for index in 0..users {
            if !generator.scenario(index).kinds().contains(&DecisionKind::Cpu) {
                continue;
            }
            let family = generator.families()[generator.family_index_of(index)].name();
            match expected.iter_mut().find(|(name, _)| *name == family) {
                Some((_, count)) => *count += 1,
                None => expected.push((family, 1)),
            }
        }
        expected.sort();
        let cpu_users: u64 = expected.iter().map(|(_, count)| count).sum();

        let stats = report.model_store.expect("personalized drain must report store stats");
        assert_eq!(stats.users_leased, users as u64);
        assert_eq!(stats.deltas_materialized, cpu_users);
        assert!(stats.deltas_materialized < stats.users_leased, "GPU/NoC users must not copy");
        let families = store.family_materializations();
        assert_eq!(families, expected);
        for family in ["graphics-burst", "mesh-monitor"] {
            assert!(families.iter().all(|(name, _)| name != family), "{family} materialized");
        }
    }

    #[test]
    fn drain_matches_the_recording_path() {
        let make = || {
            FleetStress::new(SocPlatform::small(), generator(), 12, 2)
                .with_schedule(ArrivalSchedule::Constant { interval: Duration::from_millis(10) })
                .with_clock(Clock::virtual_clock())
                .with_queueing(QueueingConfig::new(1.0, 3))
        };
        let recorded = make().run(|_, _| {
            SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&SocPlatform::small())))
        });
        let drained = make().drain(|_, _| {
            SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&SocPlatform::small())))
        });
        let queueing = recorded.queueing.expect("queueing was enabled");
        assert_eq!(drained.decisions, recorded.telemetry.decisions);
        assert_eq!(drained.span_s.to_bits(), recorded.telemetry.wall_seconds.to_bits());
        // Same definition (service over slots × span), same stamps.
        assert!((drained.utilisation - queueing.utilisation).abs() < 1e-12);
    }

    #[test]
    fn mixed_fleet_reports_the_cross_substrate_energy_split() {
        let platform = SocPlatform::small();
        let fleet =
            FleetStress::new(platform.clone(), ScenarioGenerator::heterogeneous(5, 8), 7, 2)
                .with_clock(Clock::virtual_clock());
        let report = fleet
            .run(|_, _| SubstratePolicies::learned(Box::new(OndemandGovernor::new(&platform))));
        assert_eq!(report.families.len(), 7);
        assert_eq!(report.telemetry.scenarios, 7);

        let graphics = report.family("graphics-burst").expect("gpu family served");
        assert_eq!(graphics.substrate_decisions[DecisionKind::Cpu.lane()], 0);
        assert!(graphics.substrate_decisions[DecisionKind::Gpu.lane()] > 0);
        assert!(graphics.substrate_energy_j[DecisionKind::Gpu.lane()] > 0.0);
        assert!(graphics.oracle_agreement.is_none(), "no CPU decisions to score");

        let mesh = report.family("mesh-monitor").expect("noc family served");
        assert!(mesh.substrate_decisions[DecisionKind::Noc.lane()] > 0);
        assert!(mesh.substrate_energy_j[DecisionKind::Noc.lane()] > 0.0);

        let hetero = report.family("hetero-pipeline").expect("mixed family served");
        assert!(hetero.substrate_decisions.iter().all(|&d| d > 0), "all three substrates served");
        let split_sum: f64 = hetero.substrate_energy_j.iter().sum();
        assert!(
            (split_sum - hetero.energy_j).abs() <= 1e-12 * hetero.energy_j.abs().max(1.0),
            "substrate split must account for the family total"
        );

        // Pure-CPU families keep all energy in the CPU lane.
        let cpu = report.family("bursty-compute").expect("cpu family served");
        assert_eq!(cpu.substrate_decisions[DecisionKind::Gpu.lane()], 0);
        assert_eq!(cpu.substrate_energy_j[DecisionKind::Cpu.lane()], cpu.energy_j);

        // Driver-level lanes agree with the family aggregation.
        let lane_total: f64 = report.telemetry.substrates.iter().map(|l| l.energy_j).sum();
        assert!((lane_total - report.telemetry.total_energy_j).abs() <= 1e-9 * lane_total.max(1.0));
    }

    #[test]
    fn panicking_policy_fails_fast_instead_of_hanging_the_queue() {
        // A worker panic mid-scenario must still stamp the claimed arrival
        // (unblocking FIFO successors of the same user) and then propagate —
        // this test hanging, rather than failing, is the regression.
        let result = std::panic::catch_unwind(|| {
            FleetStress::new(SocPlatform::small(), generator(), 8, 2)
                .with_clock(Clock::virtual_clock())
                .with_queueing(QueueingConfig::new(1.0, 2))
                .run(|index, _| {
                    assert!(index != 1, "policy exploded");
                    SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(
                        &SocPlatform::small(),
                    )))
                })
        });
        assert!(result.is_err(), "the worker panic must propagate to the caller");
    }

    #[test]
    fn fleet_source_streams_the_generator_exactly() {
        let platform = SocPlatform::small();
        let generator = Arc::new(generator());
        let source = FleetSource::new(Arc::clone(&generator), 8, ArrivalSchedule::Immediate);
        let driver = ScenarioDriver::new(platform.clone(), 3);
        let telemetry = driver.run_stream_mixed(&source, |_, _| {
            SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform)))
        });
        assert_eq!(telemetry.scenarios, 8);
        let expected: usize = (0..8).map(|i| generator.scenario(i).decision_count()).sum();
        assert_eq!(telemetry.decisions, expected);
    }

    #[test]
    fn streaming_matches_materialised_serving() {
        // The streamed fleet and the same scenarios pre-materialised must
        // produce identical simulated telemetry (single worker: bit-exact).
        let platform = SocPlatform::small();
        let generator = Arc::new(generator());
        let driver = ScenarioDriver::new(platform.clone(), 1);
        let source = FleetSource::new(Arc::clone(&generator), 6, ArrivalSchedule::Immediate);
        let streamed = driver.run_stream_mixed(&source, |_, _| {
            SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform)))
        });
        let materialised: Vec<ScenarioSpec> = generator.scenarios(6);
        let sliced = driver.run_stream_mixed(&SliceSource::new(&materialised), |_, _| {
            SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform)))
        });
        assert_eq!(streamed.decisions, sliced.decisions);
        assert_eq!(streamed.total_energy_j.to_bits(), sliced.total_energy_j.to_bits());
        assert_eq!(streamed.simulated_time_s.to_bits(), sliced.simulated_time_s.to_bits());
    }

    #[test]
    fn fleet_report_partitions_by_family() {
        let platform = SocPlatform::small();
        let fleet = FleetStress::new(platform.clone(), generator(), 8, 2)
            .with_oracle_reference(OracleObjective::Energy);
        let report = fleet
            .run(|_, _| SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform))));
        assert_eq!(report.policy, "ondemand");
        assert_eq!(report.families.len(), 4);
        // 8 users round-robin over 4 families = 2 scenarios each.
        for family in &report.families {
            assert_eq!(family.scenarios, 2, "family {}", family.family);
            assert!(family.decisions > 0);
            assert!(family.energy_j > 0.0);
            let agreement = family.oracle_agreement.expect("oracle reference was on");
            assert!((0.0..=1.0).contains(&agreement));
        }
        let total: f64 = report.families.iter().map(|f| f.energy_j).sum();
        assert!((total - report.telemetry.total_energy_j).abs() < 1e-9);
        assert!(report.family("bursty-compute").is_some());
        assert_eq!(report.records.len(), 8);
    }

    #[test]
    fn governor_comparison_covers_every_family() {
        let platform = SocPlatform::small();
        let fleet = FleetStress::new(platform.clone(), generator(), 4, 2);
        let (report, [ondemand, interactive], deltas) = fleet.run_against_governors(|_, _| {
            SubstratePolicies::cpu_only(Box::new(soclearn_soc_sim::FixedConfigPolicy::new(
                platform.min_config(),
            )))
        });
        assert_eq!(report.families.len(), 4);
        assert_eq!(ondemand.policy, "ondemand");
        assert_eq!(interactive.policy, "interactive");
        for delta_set in &deltas {
            assert_eq!(delta_set.len(), 4);
            for delta in delta_set {
                assert!(delta.policy_energy_j > 0.0 && delta.baseline_energy_j > 0.0);
                assert!(delta.ratio() > 0.0);
            }
        }
    }

    #[test]
    fn scheduled_arrivals_actually_pace_the_stream() {
        let platform = SocPlatform::small();
        let generator = Arc::new(ScenarioGenerator::standard(5, 3));
        let source = FleetSource::new(
            Arc::clone(&generator),
            4,
            ArrivalSchedule::Constant { interval: Duration::from_millis(8) },
        );
        let driver = ScenarioDriver::new(platform.clone(), 2);
        let started = Instant::now();
        let telemetry = driver.run_stream_mixed(&source, |_, _| {
            SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform)))
        });
        assert_eq!(telemetry.scenarios, 4);
        // The last user is only admitted at 3 * 8 ms.
        assert!(started.elapsed() >= Duration::from_millis(24));
    }
}
