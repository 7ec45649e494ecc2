//! The four workloads, each built to load one layer of the serving stack.
//!
//! Every workload is served by one process-wide `ScenarioDriver` run per
//! round, on the paper's ODROID-XU3 platform, with as many workers as the
//! host has cores.  A round always serves the same inputs, so its simulated
//! outputs (decision counts, energy, oracle agreement) are known after the
//! first recorded round and every later round is checked against them.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use soclearn_governors::OndemandGovernor;
use soclearn_gpu_sim::{FrameResult, GpuController, GpuSimulator};
use soclearn_nmpc::{GpuSensitivityModel, MultiRateNmpcController, NmpcSettings};
use soclearn_noc_sim::SvrLatencyModel;
use soclearn_oracle::OracleObjective;
use soclearn_runtime::{
    replay_noc_window, sequence_of, Clock, DecisionKind, DecisionRecord, DriverTelemetry,
    ExperimentScale, GpuPlatform, GpuReplayer, GpuServing, Observability, OnlineIlConfig,
    ScenarioDriver, ScenarioRecord, ScenarioSource, ScenarioSpec, SliceSource, SubstrateDecision,
    SubstratePolicies, SubstrateRecord, SubstrateWork, SweepCache, SweepCacheStats, SweepEngine,
    TieredModelStore, TrainingArtifacts,
};
use soclearn_scenarios::{ArrivalSchedule, FleetSource, ScenarioGenerator};
use soclearn_soc_sim::{SocPlatform, SocSimulator};
use soclearn_workloads::{BenchmarkSuite, SnippetProfile, SuiteKind};

use crate::instrument::{cpu_decisions, ns_since, Acc, Probe, Timed, TracedSource};

/// Online-IL configuration of every CPU lane that serves online-IL: the
/// defaults with the serving buffer, retraining every 15 decisions.
fn il_config() -> OnlineIlConfig {
    OnlineIlConfig { buffer_capacity: 15, ..OnlineIlConfig::default() }
}
/// Simulated span of the personalization fleet's arrival schedule.
const WEEK_S: f64 = 7.0 * 24.0 * 3600.0;
/// Per-user FIFO servers of the personalization fleet.  Arrival `i` goes to
/// slot `i % USER_SLOTS` and belongs to family `i % 4`, so a slot count
/// divisible by the family count would pin each slot to one family and
/// overload the slots of the heaviest; a prime count mixes the families.
pub const USER_SLOTS: usize = 17;
/// Utilisation the personalization fleet's offered load is calibrated to.
const TARGET_UTILISATION: f64 = 0.8;
/// Suite draws per paper suite in `il_adapt`.
const SUITE_DRAWS: u64 = 8;
/// Scenarios the traced run's layer probes re-execute.
const PROBE_SCENARIOS: usize = 256;
/// Snippets the uncached sweep probe evaluates.
const PROBE_SWEEPS: usize = 2000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    IlAdapt,
    FleetPersonalize,
    SweepCold,
    HeteroEnmpc,
}

impl Kind {
    pub const ALL: [Kind; 4] =
        [Kind::IlAdapt, Kind::FleetPersonalize, Kind::SweepCold, Kind::HeteroEnmpc];

    pub fn name(self) -> &'static str {
        match self {
            Kind::IlAdapt => "il_adapt",
            Kind::FleetPersonalize => "fleet_personalize",
            Kind::SweepCold => "sweep_cold",
            Kind::HeteroEnmpc => "hetero_enmpc",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// Whether the CPU lane is served by online-IL (else by the governor).
    pub fn imitation(self) -> bool {
        matches!(self, Kind::IlAdapt | Kind::FleetPersonalize)
    }

    /// Whether the driver scores every decision against the Energy oracle.
    pub fn oracle_reference(self) -> bool {
        matches!(self, Kind::IlAdapt | Kind::SweepCold)
    }
}

/// Input size: `Full` is what the benchmark measures, `Tiny` the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// What one round must serve, derived from the inputs alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Expected {
    pub scenarios: usize,
    /// Decisions per lane, in `DecisionKind::ALL` order.
    pub lanes: [usize; 3],
    /// Scenarios with CPU work (each costs one oracle run when referenced).
    pub cpu_scenarios: usize,
    /// GPU sessions (each pretrains one NMPC model) and NoC segments (each
    /// trains one SVR).
    pub gpu_sessions: usize,
    pub noc_segments: usize,
}

impl Expected {
    fn add(&mut self, spec: &ScenarioSpec) {
        self.scenarios += 1;
        let mut has_cpu = false;
        let mut has_gpu = false;
        for segment in &spec.segments {
            self.lanes[segment.kind().lane()] += segment.decision_count();
            match segment {
                SubstrateWork::Cpu(_) => has_cpu = true,
                SubstrateWork::Gpu(_) => has_gpu = true,
                SubstrateWork::Noc(_) => self.noc_segments += 1,
            }
        }
        self.cpu_scenarios += usize::from(has_cpu);
        self.gpu_sessions += usize::from(has_gpu);
    }
}

/// One served round.
pub struct Round {
    /// Host seconds from the first claim to the drained driver (plus the
    /// operator's registry export where observability is attached).
    pub host_s: f64,
    pub telemetry: DriverTelemetry,
    /// This round's delta of the shared sweep cache's counters.
    pub sweep: SweepCacheStats,
    /// Registry export: duration (s) and exported series, where attached.
    pub export: Option<(f64, usize)>,
    /// Per-scenario recordings (recorded rounds only), sorted by index.
    pub records: Vec<ScenarioRecord>,
}

/// A set-up workload, ready to serve rounds.
pub struct Workload {
    pub kind: Kind,
    pub platform: SocPlatform,
    pub workers: usize,
    pub expected: Expected,
    artifacts: Option<Arc<TrainingArtifacts>>,
    /// Pre-generated users (every workload but the fleet).
    specs: Vec<ScenarioSpec>,
    /// The fleet's streaming generator, its size and interned family labels.
    generator: Option<Arc<ScenarioGenerator>>,
    users: usize,
    families: Vec<Arc<str>>,
    /// `il_adapt`'s shared sweep cache, warmed during set-up.
    cache: Arc<SweepCache>,
    /// The fleet's service-time dilation, calibrated during set-up.
    dilation: f64,
}

impl Workload {
    /// Builds the workload from its seed and serves one warm-up round: the
    /// training artifacts, the generated users and the warm-up together are
    /// the benchmark's set-up cost.
    pub fn setup(kind: Kind, seed: u64, scale: Scale, workers: usize) -> Self {
        let platform = SocPlatform::odroid_xu3();
        let artifact_scale = match scale {
            Scale::Full => ExperimentScale::Full,
            Scale::Tiny => ExperimentScale::Quick,
        };
        let artifacts = kind
            .imitation()
            .then(|| Arc::new(TrainingArtifacts::build(platform.clone(), artifact_scale)));
        let mut specs = Vec::new();
        let mut generator = None;
        let mut users = 0;
        match kind {
            Kind::IlAdapt => {
                let users = match scale {
                    Scale::Full => 150,
                    Scale::Tiny => 3,
                };
                specs = suite_users(seed, users, artifact_scale);
            }
            Kind::FleetPersonalize => {
                users = match scale {
                    Scale::Full => 20_000,
                    Scale::Tiny => 200,
                };
                generator = Some(Arc::new(ScenarioGenerator::standard(seed, 8)));
            }
            Kind::SweepCold => {
                let count = match scale {
                    Scale::Full => 3_000,
                    Scale::Tiny => 40,
                };
                specs = ScenarioGenerator::standard(seed, 40).scenarios(count);
            }
            Kind::HeteroEnmpc => {
                let count = match scale {
                    Scale::Full => 490,
                    Scale::Tiny => 14,
                };
                specs = ScenarioGenerator::heterogeneous(seed, 12).scenarios(count);
            }
        }
        let mut expected = Expected::default();
        match &generator {
            Some(generator) => (0..users).for_each(|i| expected.add(&generator.scenario(i))),
            None => specs.iter().for_each(|spec| expected.add(spec)),
        }
        let families = generator
            .as_ref()
            .map(|g| g.families().iter().map(|f| Arc::from(f.name())).collect())
            .unwrap_or_default();
        let mut workload = Self {
            kind,
            platform,
            workers,
            expected,
            artifacts,
            specs,
            generator,
            users,
            families,
            cache: Arc::new(SweepCache::new()),
            dilation: 1.0,
        };
        // Warm-up: fills il_adapt's sweep cache, and gives the fleet the
        // simulated service time its arrival load is calibrated against.
        let warm_up = workload.round(&Probe::plain(), false);
        if kind == Kind::FleetPersonalize {
            let service_s = warm_up.telemetry.simulated_time_s.max(1e-9);
            workload.dilation = TARGET_UTILISATION * USER_SLOTS as f64 * WEEK_S / service_s;
        }
        workload
    }

    /// Serves one round of the workload's inputs; `record` keeps every
    /// decision for the output checks and the layer probes.
    pub fn round(&self, probe: &Arc<Probe>, record: bool) -> Round {
        let platform = &self.platform;
        let make =
            |make: &dyn Fn() -> Box<dyn soclearn_soc_sim::DvfsPolicy + Send>| match &probe.layers {
                Some(layers) => layers.make(make),
                None => make(),
            };
        match self.kind {
            Kind::IlAdapt => {
                let artifacts = self.artifacts.as_ref().expect("il_adapt builds artifacts");
                let driver = ScenarioDriver::new(platform.clone(), self.workers)
                    .with_cache(Arc::clone(&self.cache))
                    .with_oracle_reference(OracleObjective::Energy);
                let source = TracedSource::new(SliceSource::new(&self.specs), probe);
                self.serve(&driver, &source, record, None, &|index, spec| {
                    SubstratePolicies::cpu_only(make(&|| {
                        Timed::boxed(artifacts.online_policy(il_config()), index, spec, probe)
                    }))
                })
            }
            Kind::SweepCold => {
                // A fresh driver owns a fresh sweep cache: every round is cold.
                let driver = ScenarioDriver::new(platform.clone(), self.workers)
                    .with_oracle_reference(OracleObjective::Energy);
                let source = TracedSource::new(SliceSource::new(&self.specs), probe);
                self.serve(&driver, &source, record, None, &|index, spec| {
                    SubstratePolicies::cpu_only(make(&|| {
                        Timed::boxed(OndemandGovernor::new(platform), index, spec, probe)
                    }))
                })
            }
            Kind::HeteroEnmpc => {
                let obs = Observability::new();
                let driver = ScenarioDriver::new(platform.clone(), self.workers)
                    .with_clock(Clock::virtual_clock())
                    .with_observability(obs.clone());
                let source = TracedSource::new(SliceSource::new(&self.specs), probe);
                self.serve(&driver, &source, record, Some(&obs), &|index, spec| {
                    SubstratePolicies::learned(make(&|| {
                        Timed::boxed(OndemandGovernor::new(platform), index, spec, probe)
                    }))
                })
            }
            Kind::FleetPersonalize => {
                let artifacts = self.artifacts.as_ref().expect("the fleet builds artifacts");
                let generator = self.generator.as_ref().expect("the fleet streams users");
                // Merge cadence scaled to the fleet, as the fleet harness does.
                let merge_every = (self.users / 64).max(64);
                let store = Arc::new(TieredModelStore::new(artifacts, il_config(), merge_every));
                let obs = Observability::new();
                let clock = Clock::virtual_clock();
                let interval = Duration::from_secs_f64(WEEK_S / self.users as f64);
                let fleet = FleetSource::new(
                    Arc::clone(generator),
                    self.users,
                    ArrivalSchedule::Constant { interval },
                )
                .with_queueing(USER_SLOTS)
                .with_clock(clock.clone());
                fleet.attach_contention(&obs.registry);
                let source = TracedSource::new(fleet, probe);
                let driver = ScenarioDriver::new(platform.clone(), self.workers)
                    .with_clock(clock)
                    .with_service_time(self.dilation)
                    .with_observability(obs.clone())
                    .with_personalization(Arc::clone(&store));
                self.serve(&driver, &source, record, Some(&obs), &|index, spec| {
                    let family = &self.families[generator.family_index_of(index)];
                    SubstratePolicies::cpu_only(make(&|| {
                        Timed::boxed(store.lease(Arc::clone(family)), index, spec, probe)
                    }))
                })
            }
        }
    }

    /// Runs the driver once over `source`, timing it on the host clock.
    fn serve<S: ScenarioSource>(
        &self,
        driver: &ScenarioDriver,
        source: &S,
        record: bool,
        obs: Option<&Observability>,
        make: &(dyn Fn(usize, &ScenarioSpec) -> SubstratePolicies + Sync),
    ) -> Round {
        let cache = driver.cache();
        let before = cache.stats();
        let started = Instant::now();
        let (telemetry, records) = if record {
            driver.run_recorded_mixed(source, make)
        } else {
            (driver.run_stream_mixed(source, make), Vec::new())
        };
        // The operator scrapes the registry once per drained fleet.
        let export = obs.map(|obs| {
            let export_started = Instant::now();
            let snapshot = obs.snapshot();
            black_box(snapshot.to_prometheus().len());
            let series = snapshot.counters.len()
                + snapshot.gauges.len()
                + snapshot.histograms.len()
                + snapshot.sketches.len();
            (ns_since(export_started) as f64 / 1e9, series)
        });
        let host_s = started.elapsed().as_secs_f64();
        let after = cache.stats();
        let sweep = SweepCacheStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
            entries: after.entries,
        };
        Round { host_s, telemetry, sweep, export, records }
    }

    /// The generated user behind scenario `index`.
    fn spec(&self, index: usize) -> ScenarioSpec {
        match &self.generator {
            Some(generator) => generator.scenario(index),
            None => self.specs[index].clone(),
        }
    }

    /// CPU decisions of every scenario, in index order.
    pub fn cpu_decisions(&self) -> Vec<usize> {
        (0..self.expected.scenarios).map(|index| cpu_decisions(&self.spec(index))).collect()
    }

    /// Scores the recorded CPU decisions against a fresh Energy-oracle run
    /// of each scenario — what the driver's oracle reference scores, so it
    /// is recomputed the same way for workloads served without one.
    pub fn oracle_score(&self, records: &[ScenarioRecord]) -> OracleScore {
        let mut engine = SweepEngine::new(self.platform.clone());
        let mut score = OracleScore::default();
        for record in records {
            let cpu: Vec<_> = record.decisions.iter().filter_map(SubstrateRecord::as_cpu).collect();
            if cpu.is_empty() {
                continue;
            }
            let profiles: Vec<SnippetProfile> = cpu.iter().map(|d| d.profile.clone()).collect();
            engine.reset();
            let run = engine.oracle_run(&profiles, OracleObjective::Energy);
            score.matches += cpu
                .iter()
                .zip(&run.decisions)
                .filter(|(decision, oracle)| decision.config.big_idx == oracle.big_idx)
                .count();
            score.decisions += cpu.len();
            score.energy_j += cpu.iter().map(|d| d.energy_j).sum::<f64>();
            score.oracle_energy_j += run.total_energy_j;
        }
        score
    }

    /// Times each layer the driver calls but the benchmark cannot wrap, by
    /// re-executing the recorded decisions of the first scenarios through
    /// the layers' public entry points.
    ///
    /// The CPU-lane probes run on as many threads as the driver has workers,
    /// each taking every `workers`-th scenario, so they meet the contention
    /// the driver's workers meet.  Their oracle engines are configured like
    /// the driver's (one shared default sweep cache behind default per-worker
    /// tiers): the cold pass starts from an empty cache, as a fresh-cache
    /// round does; the warm pass repeats the same scenarios on the cache the
    /// cold pass left.
    pub fn layer_probes(&self, records: &[ScenarioRecord]) -> LayerProbes {
        let probes = LayerProbes::default();
        let sample = &records[..records.len().min(PROBE_SCENARIOS)];
        let cpu_runs: Vec<Vec<&DecisionRecord>> = sample
            .iter()
            .map(|record| record.decisions.iter().filter_map(SubstrateRecord::as_cpu).collect())
            .filter(|cpu: &Vec<_>| !cpu.is_empty())
            .collect();
        let cache = Arc::new(SweepCache::new());
        std::thread::scope(|scope| {
            for worker in 0..self.workers {
                let (cache, probes, cpu_runs) = (&cache, &probes, &cpu_runs);
                let platform = self.platform.clone();
                let workers = self.workers;
                scope.spawn(move || {
                    let mine: Vec<_> = cpu_runs.iter().skip(worker).step_by(workers).collect();
                    let profiles: Vec<Vec<SnippetProfile>> = mine
                        .iter()
                        .map(|cpu| cpu.iter().map(|decision| decision.profile.clone()).collect())
                        .collect();
                    let mut engine = SweepEngine::with_cache(platform.clone(), Arc::clone(cache))
                        .with_warm_l1(
                            SweepEngine::DEFAULT_L1_CAPACITY,
                            SweepEngine::DEFAULT_L1_PUBLISH_EVERY,
                        );
                    for acc in [&probes.oracle_cold, &probes.oracle_warm] {
                        for scenario in &profiles {
                            engine.reset();
                            let started = Instant::now();
                            black_box(engine.oracle_run(scenario, OracleObjective::Energy));
                            acc.add(ns_since(started));
                        }
                    }
                    let mut sweeps_left = PROBE_SWEEPS / workers;
                    for cpu in mine {
                        let mut sim = SocSimulator::new(platform.clone());
                        for decision in cpu {
                            let started = Instant::now();
                            black_box(sim.execute_snippet(&decision.profile, decision.config));
                            probes.execute.add(ns_since(started));
                        }
                        for decision in cpu.iter().take(sweeps_left) {
                            let started = Instant::now();
                            black_box(sim.evaluate_all_configs(&decision.profile));
                            probes.evaluate_all.add(ns_since(started));
                        }
                        sweeps_left = sweeps_left.saturating_sub(cpu.len());
                    }
                });
            }
        });
        for record in sample {
            let gpu: Vec<_> = record.decisions.iter().filter_map(SubstrateRecord::as_gpu).collect();
            if !gpu.is_empty() {
                let mut replayer = GpuReplayer::new();
                for frame in &gpu {
                    let started = Instant::now();
                    black_box(replayer.replay_frame(frame));
                    probes.gpu_render.add(ns_since(started));
                }
                self.probe_nmpc(&gpu, &probes);
            }
            for segment in &self.spec(record.index).segments {
                if let SubstrateWork::Noc(session) = segment {
                    let started = Instant::now();
                    black_box(SvrLatencyModel::train(
                        session.mesh,
                        session.pattern,
                        &session.train_rates,
                        session.train_cycles,
                        session.seed,
                    ));
                    probes.svr_train.add(ns_since(started));
                }
            }
            for window in record.decisions.iter().filter_map(SubstrateRecord::as_noc) {
                let started = Instant::now();
                black_box(replay_noc_window(window));
                probes.noc_window.add(ns_since(started));
            }
        }
        probes
    }

    /// Rebuilds a scenario's NMPC controller the way the driver's GPU lane
    /// does (pretrained on every `stride`-th frame of the session), times its
    /// pretraining and decisions on the recorded frames, and counts decisions
    /// that differ from the recording.
    fn probe_nmpc(&self, frames: &[&soclearn_runtime::GpuDecisionRecord], probes: &LayerProbes) {
        let GpuServing::Nmpc { forgetting_factor, pretrain_stride } = GpuServing::nmpc() else {
            unreachable!("GpuServing::nmpc is the NMPC variant");
        };
        let platform = GpuPlatform::gen9_like();
        let mut sim = GpuSimulator::new(platform.clone());
        let deadline_s = frames[0].deadline_s;
        let sample: Vec<_> = frames
            .iter()
            .step_by(pretrain_stride.max(1))
            .map(|frame| frame.demand)
            .collect();
        let started = Instant::now();
        let mut model = GpuSensitivityModel::new(forgetting_factor);
        model.pretrain(&sim, &sample, deadline_s);
        let mut controller = MultiRateNmpcController::new(model, NmpcSettings::default());
        probes.nmpc_pretrain.add(ns_since(started));
        let mut previous: Option<FrameResult> = None;
        for (index, frame) in frames.iter().enumerate() {
            let started = Instant::now();
            let config = controller.decide(&platform, previous.as_ref(), index, deadline_s);
            probes.nmpc_decide.add(ns_since(started));
            if config != frame.config {
                probes.nmpc_mismatches.fetch_add(1, Ordering::Relaxed);
            }
            previous = Some(sim.render_frame(&frame.demand, config, deadline_s));
        }
    }
}

/// CPU decisions of a recorded round scored against the Energy oracle.
#[derive(Debug, Default)]
pub struct OracleScore {
    pub decisions: usize,
    /// Decisions whose big-cluster level matched the oracle's.
    pub matches: usize,
    /// Simulated CPU energy of the served and of the oracle decisions.
    pub energy_j: f64,
    pub oracle_energy_j: f64,
}

impl OracleScore {
    pub fn agreement(&self) -> f64 {
        self.matches as f64 / self.decisions.max(1) as f64
    }
}

/// Mean per-call times of the layer probes.
#[derive(Default)]
pub struct LayerProbes {
    pub oracle_cold: Acc,
    pub oracle_warm: Acc,
    pub execute: Acc,
    pub evaluate_all: Acc,
    pub gpu_render: Acc,
    pub nmpc_pretrain: Acc,
    pub nmpc_decide: Acc,
    /// Recorded GPU decisions the rebuilt controller did not reproduce.
    pub nmpc_mismatches: AtomicUsize,
    pub svr_train: Acc,
    pub noc_window: Acc,
}

impl LayerProbes {
    /// Host seconds the probed layers explain for one round of `expected`:
    /// simulator execution, the oracle reference (warm cache for `il_adapt`,
    /// cold for `sweep_cold`) and the GPU/NoC controllers.
    pub fn explained_s(&self, kind: Kind, expected: &Expected) -> f64 {
        let oracle_us = match kind {
            Kind::IlAdapt => self.oracle_warm.mean_us(),
            Kind::SweepCold => self.oracle_cold.mean_us(),
            Kind::FleetPersonalize | Kind::HeteroEnmpc => 0.0,
        };
        let us = expected.lanes[DecisionKind::Cpu.lane()] as f64 * self.execute.mean_us()
            + expected.cpu_scenarios as f64 * oracle_us
            + expected.lanes[DecisionKind::Gpu.lane()] as f64
                * (self.gpu_render.mean_us() + self.nmpc_decide.mean_us())
            + expected.gpu_sessions as f64 * self.nmpc_pretrain.mean_us()
            + expected.lanes[DecisionKind::Noc.lane()] as f64 * self.noc_window.mean_us()
            + expected.noc_segments as f64 * self.svr_train.mean_us();
        us / 1e6
    }
}

/// `users` online-IL users replaying Full-scale paper suites.  The workload
/// seed draws `SUITE_DRAWS` Mi-Bench, Cortex and PARSEC suites each; user `u`
/// replays draw `u` modulo their number.  The draws are new to the policy
/// (its training suite is Mi-Bench at the experiment seed), and together
/// they still fit the default sweep cache.
fn suite_users(seed: u64, users: usize, scale: ExperimentScale) -> Vec<ScenarioSpec> {
    let kinds = [SuiteKind::MiBench, SuiteKind::Cortex, SuiteKind::Parsec];
    let sequences: Vec<_> = (0..SUITE_DRAWS)
        .flat_map(|draw| kinds.map(|kind| (draw, kind)))
        .map(|(draw, kind)| {
            let suite_seed = seed.wrapping_mul(SUITE_DRAWS).wrapping_add(draw);
            let benchmarks: Vec<(String, Vec<SnippetProfile>)> =
                BenchmarkSuite::generate(kind, suite_seed)
                    .benchmarks()
                    .iter()
                    .map(|b| {
                        let n = b.snippets().len().min(scale.snippets_per_benchmark());
                        (b.name().to_owned(), b.snippets()[..n].to_vec())
                    })
                    .collect();
            sequence_of(&benchmarks, kind)
        })
        .collect();
    (0..users)
        .map(|user| {
            ScenarioSpec::from_sequence(format!("user-{user}"), &sequences[user % sequences.len()])
        })
        .collect()
}

/// Total simulated energy of recorded scenarios, summed in index order.
pub fn recorded_energy_j(records: &[ScenarioRecord]) -> f64 {
    records
        .iter()
        .flat_map(|r| r.decisions.iter().map(SubstrateDecision::energy_j))
        .sum()
}
