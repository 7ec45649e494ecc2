//! Timers the benchmark wraps around the program's public seams.
//!
//! Nothing here reaches inside the serving stack: [`Timed`] wraps a CPU
//! `DvfsPolicy`, [`TracedSource`] wraps a `ScenarioSource`, and the workloads
//! time their policy factories with [`Layers::make`].  The decide timer (two
//! clock reads per call) and the claim timer (one per claim) run in every
//! timed round; everything in [`Layers`] runs only in the traced run, so
//! untraced end-to-end numbers never pay for it.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use soclearn_governors::OndemandGovernor;
use soclearn_imitation::{OnlineIlPolicy, OnlineIlStats};
use soclearn_runtime::{QueueStamp, ScenarioSource, ScenarioSpec, SubstrateWork, TieredPolicy};
use soclearn_soc_sim::{DvfsConfig, DvfsPolicy, PolicyDecision, SocPlatform};

/// Nanoseconds since `start`, saturated into a `u64`.
pub fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Call count and summed duration of one timed seam.
#[derive(Default)]
pub struct Acc {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Acc {
    pub fn add(&self, ns: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn total_s(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Mean duration per call in microseconds (0 when never called).
    pub fn mean_us(&self) -> f64 {
        match self.calls() {
            0 => 0.0,
            calls => self.ns.load(Ordering::Relaxed) as f64 / calls as f64 / 1e3,
        }
    }
}

/// Per-layer accumulators of a traced run.
#[derive(Default)]
pub struct Layers {
    /// Every CPU-policy `decide` call.
    pub decide: Acc,
    /// The `decide` calls during which the online-IL policy retrained.
    pub retrain: Acc,
    /// Policy factory calls (one per scenario).
    pub make: Acc,
    /// `ScenarioSource::next_scenario` calls that yielded a scenario.
    pub claim: Acc,
    /// `ScenarioSource::scenario_served` calls.
    pub stamp: Acc,
    /// Summed simulated sojourn of the stamped scenarios, nanoseconds.
    pub sojourn_ns: AtomicU64,
    /// Online-IL decisions and oracle-label agreements, from the policies'
    /// own statistics when they are dropped.
    pub il_decisions: AtomicU64,
    pub il_agreements: AtomicU64,
    /// Per worker thread: first claim start and drained-source return.
    workers: Mutex<HashMap<ThreadId, (Instant, Option<Instant>)>>,
}

impl Layers {
    /// Times one policy factory call.
    pub fn make<T>(&self, make: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let made = make();
        self.make.add(ns_since(started));
        made
    }

    /// Summed busy time of every worker thread: from its first claim to the
    /// claim that found the source drained.
    pub fn worker_busy_s(&self) -> f64 {
        let workers = self.workers.lock().expect("worker table lock");
        workers
            .values()
            .filter_map(|(start, end)| end.map(|end| end.duration_since(*start).as_secs_f64()))
            .sum()
    }
}

thread_local! {
    /// The scenario this worker thread claimed last, and when it began
    /// claiming it.
    static CLAIMED: Cell<Option<(usize, Instant)>> = const { Cell::new(None) };
}

/// The fastest host time each piece of work took over all timed rounds.
///
/// Every round serves the same inputs, so call `j` of scenario `i`, and
/// scenario `i` as a whole, are the same work in every round.  The shared
/// host slows a core down by up to about 2x for stretches from milliseconds
/// to minutes; a piece of work's minimum over rounds is its cost when the
/// host did not slow it down, while any figure pooled over whole rounds
/// follows how much of the run the host happened to spend slowed.
pub struct Fastest {
    /// Per scenario, per CPU `decide` call in call order: nanoseconds.
    decide_ns: Vec<Box<[AtomicU32]>>,
    /// Per scenario: from the start of its claim to the start of its
    /// worker's next claim, nanoseconds.
    scenario_ns: Vec<AtomicU64>,
}

impl Fastest {
    /// Slots for scenarios with `cpu_decisions[i]` CPU decisions each.
    pub fn new(cpu_decisions: &[usize]) -> Self {
        Self {
            decide_ns: cpu_decisions
                .iter()
                .map(|&n| (0..n).map(|_| AtomicU32::new(u32::MAX)).collect())
                .collect(),
            scenario_ns: cpu_decisions.iter().map(|_| AtomicU64::new(u64::MAX)).collect(),
        }
    }

    fn record_decides(&self, index: usize, latencies: &[u32]) {
        for (slot, &ns) in self.decide_ns[index].iter().zip(latencies) {
            slot.fetch_min(ns, Ordering::Relaxed);
        }
    }

    /// Ends this thread's previous scenario at `now`, and starts the one it
    /// just claimed, if any.
    fn claimed(&self, now: Instant, claimed: Option<usize>) {
        if let Some((index, started)) = CLAIMED.take() {
            let ns = u64::try_from(now.duration_since(started).as_nanos()).unwrap_or(u64::MAX);
            self.scenario_ns[index].fetch_min(ns, Ordering::Relaxed);
        }
        CLAIMED.set(claimed.map(|index| (index, now)));
    }

    /// The fastest time of every CPU `decide` call, nanoseconds.
    pub fn decide_ns(&self) -> Vec<u32> {
        self.decide_ns
            .iter()
            .flat_map(|calls| calls.iter().map(|ns| ns.load(Ordering::Relaxed)))
            .collect()
    }

    /// Summed fastest time of every scenario, seconds.
    pub fn scenario_total_s(&self) -> f64 {
        self.scenario_ns.iter().map(|ns| ns.load(Ordering::Relaxed) as f64).sum::<f64>() / 1e9
    }
}

/// What the benchmark shares with every wrapped policy and source.
pub struct Probe {
    /// Fastest-time slots, filled by the untraced timed rounds only.
    pub fastest: Option<Fastest>,
    /// Per-layer accumulators; `None` outside the traced run.
    pub layers: Option<Layers>,
}

impl Probe {
    /// A probe that neither keeps fastest times nor traces layers.
    pub fn plain() -> Arc<Self> {
        Arc::new(Self { fastest: None, layers: None })
    }

    pub fn fastest(fastest: Fastest) -> Arc<Self> {
        Arc::new(Self { fastest: Some(fastest), layers: None })
    }

    pub fn traced() -> Arc<Self> {
        Arc::new(Self { fastest: None, layers: Some(Layers::default()) })
    }
}

/// CPU policies whose online-IL statistics the traced run can read.
pub trait IlStats {
    fn il_stats(&self) -> Option<OnlineIlStats> {
        None
    }
}

impl IlStats for OnlineIlPolicy {
    fn il_stats(&self) -> Option<OnlineIlStats> {
        Some(self.stats())
    }
}

// A tiered lease does not expose its private copy's statistics; its sessions
// are shorter than the retrain buffer, so it never retrains anyway.
impl IlStats for TieredPolicy {}
impl IlStats for OndemandGovernor {}

/// Number of CPU decisions serving `spec` will take.
pub fn cpu_decisions(spec: &ScenarioSpec) -> usize {
    spec.segments
        .iter()
        .map(|segment| match segment {
            SubstrateWork::Cpu(profiles) => profiles.len(),
            _ => 0,
        })
        .sum()
}

/// A CPU policy whose `decide` calls are timed.  Latencies are buffered per
/// policy and handed to the probe when the policy is dropped, so the timer
/// takes no lock on the decision path.
pub struct Timed<P: IlStats> {
    inner: P,
    /// The scenario this policy serves.
    index: usize,
    latencies: Vec<u32>,
    probe: Arc<Probe>,
}

impl<P: DvfsPolicy + IlStats + Send + 'static> Timed<P> {
    /// Boxes `inner` behind the timer for scenario `index`; `spec` sizes the
    /// latency buffer.
    pub fn boxed(
        inner: P,
        index: usize,
        spec: &ScenarioSpec,
        probe: &Arc<Probe>,
    ) -> Box<dyn DvfsPolicy + Send> {
        Box::new(Self {
            inner,
            index,
            latencies: Vec::with_capacity(cpu_decisions(spec)),
            probe: Arc::clone(probe),
        })
    }
}

impl<P: DvfsPolicy + IlStats> DvfsPolicy for Timed<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, platform: &SocPlatform, decision: PolicyDecision<'_>) -> DvfsConfig {
        let Some(layers) = &self.probe.layers else {
            let started = Instant::now();
            let config = self.inner.decide(platform, decision);
            self.latencies.push(u32::try_from(ns_since(started)).unwrap_or(u32::MAX));
            return config;
        };
        let updates = |policy: &P| policy.il_stats().map(|stats| stats.policy_updates);
        let before = updates(&self.inner);
        let started = Instant::now();
        let config = self.inner.decide(platform, decision);
        let ns = ns_since(started);
        layers.decide.add(ns);
        if before.is_some() && updates(&self.inner) != before {
            layers.retrain.add(ns);
        }
        config
    }

    fn observe_outcome(&mut self, energy_j: f64, time_s: f64) {
        self.inner.observe_outcome(energy_j, time_s);
    }
}

impl<P: IlStats> Drop for Timed<P> {
    fn drop(&mut self) {
        if let (Some(layers), Some(stats)) = (&self.probe.layers, self.inner.il_stats()) {
            layers.il_decisions.fetch_add(stats.decisions as u64, Ordering::Relaxed);
            layers.il_agreements.fetch_add(stats.agreements as u64, Ordering::Relaxed);
        }
        if let Some(fastest) = &self.probe.fastest {
            fastest.record_decides(self.index, &self.latencies);
        }
    }
}

/// A scenario source whose claims and completion stamps are timed in the
/// traced run.  Outside it a claim only ends the worker's previous scenario
/// in the probe's fastest times, where it keeps them.
pub struct TracedSource<'a, S> {
    inner: S,
    probe: &'a Probe,
}

impl<'a, S: ScenarioSource> TracedSource<'a, S> {
    pub fn new(inner: S, probe: &'a Probe) -> Self {
        Self { inner, probe }
    }
}

impl<S: ScenarioSource> ScenarioSource for TracedSource<'_, S> {
    fn next_scenario(&self) -> Option<(usize, ScenarioSpec)> {
        let Some(layers) = &self.probe.layers else {
            let Some(fastest) = &self.probe.fastest else {
                return self.inner.next_scenario();
            };
            let started = Instant::now();
            let claimed = self.inner.next_scenario();
            fastest.claimed(started, claimed.as_ref().map(|(index, _)| *index));
            return claimed;
        };
        let started = Instant::now();
        let thread = std::thread::current().id();
        layers
            .workers
            .lock()
            .expect("worker table lock")
            .entry(thread)
            .or_insert((started, None));
        let claimed = self.inner.next_scenario();
        match &claimed {
            Some(_) => layers.claim.add(ns_since(started)),
            None => {
                let mut workers = layers.workers.lock().expect("worker table lock");
                if let Some(entry) = workers.get_mut(&thread) {
                    entry.1 = Some(Instant::now());
                }
            }
        }
        claimed
    }

    fn scenario_served(&self, index: usize, service_ns: u64) -> Option<QueueStamp> {
        let Some(layers) = &self.probe.layers else {
            return self.inner.scenario_served(index, service_ns);
        };
        let started = Instant::now();
        let stamp = self.inner.scenario_served(index, service_ns);
        layers.stamp.add(ns_since(started));
        if let Some(stamp) = &stamp {
            layers.sojourn_ns.fetch_add(stamp.sojourn_ns(), Ordering::Relaxed);
        }
        stamp
    }
}

/// The `q`-quantile of decide latencies, in microseconds.
///
/// The clock ticks in whole nanoseconds, so many calls tie on one value; the
/// tied block is spread uniformly over its 1 ns tick (the grouped-data
/// quantile), which keeps the estimate continuous instead of snapping to the
/// tick grid.
pub fn quantile_us(latencies: &mut [u32], q: f64) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    let n = latencies.len();
    let target = q * n as f64;
    let rank = (target.ceil() as usize).clamp(1, n) - 1;
    let (_, &mut value, _) = latencies.select_nth_unstable(rank);
    let below = latencies.iter().filter(|&&ns| ns < value).count();
    let tied = latencies.iter().filter(|&&ns| ns == value).count();
    let within = ((target - below as f64) / tied as f64).clamp(0.0, 1.0);
    (f64::from(value) - 0.5 + within) / 1e3
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
