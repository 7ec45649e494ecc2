//! Substrate-generic serving decisions: CPU DVFS, GPU power states and NoC
//! latency management behind one interface.
//!
//! The paper manages three hardware substrates with one online-learning
//! framework, but the serving stack grew up CPU-only.  This module is the
//! abstraction that fixes that: a scenario is a sequence of
//! [`SubstrateWork`] segments (CPU snippet streams, GPU frame sessions, NoC
//! monitoring windows), every served decision is captured as a kind-tagged
//! [`SubstrateRecord`], and the [`SubstrateDecision`] trait exposes the
//! fields every substrate shares — kind, energy and service time — so
//! telemetry, traces and fleet aggregation never need to know which
//! substrate produced a decision.
//!
//! The execution adapters live here too: [`GpuServing`] routes a GPU frame
//! session through either the baseline utilization governor or the paper's
//! multi-rate NMPC controller (sensitivity models pretrained per scenario, so
//! serving stays a pure function of the scenario stream), and [`NocServing`]
//! answers NoC monitoring windows with either the closed-form analytical
//! latency model or the learned SVR model, trained once at design time per
//! mesh, traffic pattern and training setup ([`ArtifactStore::noc_model`])
//! and only queried at run time.  Both adapters are deterministic: a scenario's
//! decisions depend only on its spec, never on worker interleaving.

use std::sync::Arc;

use soclearn_gpu_sim::{FrameResult, GpuSimulator};
pub use soclearn_gpu_sim::{GpuConfig, GpuController, GpuPlatform, UtilizationGovernor};
use soclearn_nmpc::{GpuSensitivityModel, MultiRateNmpcController, NmpcSettings};
use soclearn_noc_sim::{AnalyticalLatencyModel, NocSimulator, NocStats, SvrLatencyModel};
pub use soclearn_noc_sim::{MeshConfig, TrafficPattern};
use soclearn_soc_sim::DvfsPolicy;
pub use soclearn_workloads::graphics::FrameDemand;
use soclearn_workloads::SnippetProfile;

use crate::artifacts::ArtifactStore;
use crate::driver::DecisionRecord;

/// Which hardware substrate a decision managed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecisionKind {
    /// Big/LITTLE CPU DVFS (the original serving path).
    Cpu,
    /// Integrated-GPU slice count and frequency.
    Gpu,
    /// Network-on-chip injection throttling.
    Noc,
}

impl DecisionKind {
    /// All kinds, in canonical (telemetry array) order.
    pub const ALL: [DecisionKind; 3] = [DecisionKind::Cpu, DecisionKind::Gpu, DecisionKind::Noc];

    /// Stable lowercase label used in traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            DecisionKind::Cpu => "cpu",
            DecisionKind::Gpu => "gpu",
            DecisionKind::Noc => "noc",
        }
    }

    /// Index into per-substrate telemetry arrays (canonical order).
    pub fn lane(self) -> usize {
        match self {
            DecisionKind::Cpu => 0,
            DecisionKind::Gpu => 1,
            DecisionKind::Noc => 2,
        }
    }
}

/// Substrate-agnostic view of one serving decision.
///
/// Implemented by every per-substrate record type, so telemetry aggregation
/// and fleet reports handle mixed-substrate scenarios without matching on the
/// concrete record.
pub trait SubstrateDecision {
    /// The substrate this decision managed.
    fn kind(&self) -> DecisionKind;

    /// Energy attributed to the decision, joules.
    fn energy_j(&self) -> f64;

    /// Simulated service time of the decision, seconds (what service-time
    /// mode spends on the driver's clock).
    fn service_time_s(&self) -> f64;
}

/// A GPU frame-rendering session inside a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSessionSpec {
    /// Per-frame demand trace of the session.
    pub frames: Vec<FrameDemand>,
    /// FPS target implying the per-frame deadline.
    pub fps_target: f64,
}

impl GpuSessionSpec {
    /// Creates a GPU session.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty or `fps_target` is not strictly positive.
    pub fn new(frames: Vec<FrameDemand>, fps_target: f64) -> Self {
        assert!(!frames.is_empty(), "a GPU session needs at least one frame");
        assert!(fps_target > 0.0, "FPS target must be positive");
        Self { frames, fps_target }
    }

    /// Per-frame deadline in seconds.
    pub fn deadline_s(&self) -> f64 {
        1.0 / self.fps_target
    }
}

/// A NoC latency-management session: a sequence of monitoring windows at
/// offered injection rates, throttled to keep predicted latency under budget.
#[derive(Debug, Clone, PartialEq)]
pub struct NocSessionSpec {
    /// Mesh dimensions.
    pub mesh: MeshConfig,
    /// Traffic pattern.
    pub pattern: TrafficPattern,
    /// Base seed of the segment; each decision derives its own simulator seed
    /// from it, so decisions replay independently.
    pub seed: u64,
    /// Injection rates simulated to train the learned latency model.  With
    /// `mesh`, `pattern` and `train_cycles` they select the design-time model
    /// ([`ArtifactStore::noc_model`]); sessions that agree on all four share
    /// one model.
    pub train_rates: Vec<f64>,
    /// Simulated cycles per training rate (part of the model's key, like
    /// `train_rates`).
    pub train_cycles: u64,
    /// Offered injection rates, one monitoring window (= one decision) each.
    pub query_rates: Vec<f64>,
    /// Simulated cycles per monitoring window.
    pub query_cycles: u64,
    /// Average-latency budget (cycles) the throttler keeps predictions under.
    pub latency_budget_cycles: f64,
}

impl NocSessionSpec {
    /// Validates the session invariants the adapters rely on.
    ///
    /// # Panics
    ///
    /// Panics if any rate list is empty, any rate is outside `(0, 1]`, or a
    /// cycle count is zero.
    pub fn validate(&self) {
        assert!(!self.train_rates.is_empty(), "need training rates");
        assert!(!self.query_rates.is_empty(), "need query rates");
        assert!(self.train_cycles > 0 && self.query_cycles > 0, "cycle counts must be positive");
        for &rate in self.train_rates.iter().chain(&self.query_rates) {
            assert!(rate > 0.0 && rate <= 1.0, "injection rates must be in (0, 1], got {rate}");
        }
    }
}

/// One segment of a scenario: a contiguous run of decisions on one substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum SubstrateWork {
    /// A CPU snippet stream served by a [`DvfsPolicy`].
    Cpu(Vec<SnippetProfile>),
    /// A GPU frame session served by a [`GpuController`].
    Gpu(GpuSessionSpec),
    /// A NoC monitoring session served by a latency model.
    Noc(NocSessionSpec),
}

impl SubstrateWork {
    /// The substrate this segment runs on.
    pub fn kind(&self) -> DecisionKind {
        match self {
            SubstrateWork::Cpu(_) => DecisionKind::Cpu,
            SubstrateWork::Gpu(_) => DecisionKind::Gpu,
            SubstrateWork::Noc(_) => DecisionKind::Noc,
        }
    }

    /// Number of decisions serving this segment will produce.
    pub fn decision_count(&self) -> usize {
        match self {
            SubstrateWork::Cpu(profiles) => profiles.len(),
            SubstrateWork::Gpu(session) => session.frames.len(),
            SubstrateWork::Noc(session) => session.query_rates.len(),
        }
    }
}

/// Everything observed while serving one GPU frame.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuDecisionRecord {
    /// Decision ordinal within its scenario.
    pub index: usize,
    /// The frame demand that rendered.
    pub demand: FrameDemand,
    /// Per-frame deadline, seconds.
    pub deadline_s: f64,
    /// Configuration the controller chose.
    pub config: GpuConfig,
    /// Package + DRAM energy over the frame period, joules.
    pub energy_j: f64,
    /// Frame time, seconds.
    pub time_s: f64,
    /// Average GPU power over the frame, watts.
    pub gpu_power_w: f64,
    /// GPU utilization over the frame period.
    pub utilization: f64,
    /// Whether the frame met its deadline.
    pub deadline_met: bool,
}

impl SubstrateDecision for GpuDecisionRecord {
    fn kind(&self) -> DecisionKind {
        DecisionKind::Gpu
    }

    fn energy_j(&self) -> f64 {
        self.energy_j
    }

    fn service_time_s(&self) -> f64 {
        self.time_s
    }
}

/// Everything observed while serving one NoC monitoring window.
#[derive(Debug, Clone, PartialEq)]
pub struct NocDecisionRecord {
    /// Decision ordinal within its scenario.
    pub index: usize,
    /// Mesh dimensions of the window.
    pub mesh: MeshConfig,
    /// Traffic pattern of the window.
    pub pattern: TrafficPattern,
    /// Simulator seed of this window (derived from the segment seed, so the
    /// window replays independently of its neighbours).
    pub seed: u64,
    /// Simulated cycles of the window.
    pub cycles: u64,
    /// Offered injection rate before throttling.
    pub offered_rate: f64,
    /// Injection rate the throttler admitted (the "configuration chosen").
    pub injection_rate: f64,
    /// Model-predicted average latency at the admitted rate, cycles.
    pub predicted_latency_cycles: f64,
    /// Analytical-model latency at the admitted rate, cycles.
    pub analytical_latency_cycles: f64,
    /// Measured average latency of the simulated window, cycles.
    pub measured_latency_cycles: f64,
    /// Packets delivered in the window.
    pub packets_delivered: usize,
    /// Modelled NoC energy of the window, joules.
    pub energy_j: f64,
    /// Duration of the window, seconds.
    pub time_s: f64,
}

impl SubstrateDecision for NocDecisionRecord {
    fn kind(&self) -> DecisionKind {
        DecisionKind::Noc
    }

    fn energy_j(&self) -> f64 {
        self.energy_j
    }

    fn service_time_s(&self) -> f64 {
        self.time_s
    }
}

impl SubstrateDecision for DecisionRecord {
    fn kind(&self) -> DecisionKind {
        DecisionKind::Cpu
    }

    fn energy_j(&self) -> f64 {
        self.energy_j
    }

    fn service_time_s(&self) -> f64 {
        self.time_s
    }
}

/// One kind-tagged serving decision of a (possibly mixed-substrate) scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum SubstrateRecord {
    /// A CPU DVFS decision.
    Cpu(DecisionRecord),
    /// A GPU frame decision.
    Gpu(GpuDecisionRecord),
    /// A NoC monitoring-window decision.
    Noc(NocDecisionRecord),
}

impl SubstrateRecord {
    /// The CPU record, if this is a CPU decision.
    pub fn as_cpu(&self) -> Option<&DecisionRecord> {
        match self {
            SubstrateRecord::Cpu(record) => Some(record),
            _ => None,
        }
    }

    /// The GPU record, if this is a GPU decision.
    pub fn as_gpu(&self) -> Option<&GpuDecisionRecord> {
        match self {
            SubstrateRecord::Gpu(record) => Some(record),
            _ => None,
        }
    }

    /// The NoC record, if this is a NoC decision.
    pub fn as_noc(&self) -> Option<&NocDecisionRecord> {
        match self {
            SubstrateRecord::Noc(record) => Some(record),
            _ => None,
        }
    }

    /// Decision ordinal within the scenario.
    pub fn index(&self) -> usize {
        match self {
            SubstrateRecord::Cpu(record) => record.index,
            SubstrateRecord::Gpu(record) => record.index,
            SubstrateRecord::Noc(record) => record.index,
        }
    }
}

impl SubstrateDecision for SubstrateRecord {
    fn kind(&self) -> DecisionKind {
        match self {
            SubstrateRecord::Cpu(record) => record.kind(),
            SubstrateRecord::Gpu(record) => record.kind(),
            SubstrateRecord::Noc(record) => record.kind(),
        }
    }

    fn energy_j(&self) -> f64 {
        match self {
            SubstrateRecord::Cpu(record) => record.energy_j(),
            SubstrateRecord::Gpu(record) => record.energy_j(),
            SubstrateRecord::Noc(record) => record.energy_j(),
        }
    }

    fn service_time_s(&self) -> f64 {
        match self {
            SubstrateRecord::Cpu(record) => record.service_time_s(),
            SubstrateRecord::Gpu(record) => record.service_time_s(),
            SubstrateRecord::Noc(record) => record.service_time_s(),
        }
    }
}

/// How GPU segments are served.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GpuServing {
    /// Baseline utilization governor (all slices powered, threshold DVFS) —
    /// the per-substrate governor baseline.
    Governor,
    /// Multi-rate NMPC over RLS sensitivity models, pretrained per scenario
    /// on a strided sample of the session's own frames.
    Nmpc {
        /// RLS forgetting factor of the sensitivity models.
        forgetting_factor: f64,
        /// Pretraining samples every `stride`-th frame of the session.
        pretrain_stride: usize,
    },
}

impl GpuServing {
    /// The paper's multi-rate NMPC with its default hyper-parameters.
    pub fn nmpc() -> Self {
        GpuServing::Nmpc { forgetting_factor: 0.98, pretrain_stride: 12 }
    }

    /// Short policy label used in composed record names.
    pub fn label(&self) -> &'static str {
        match self {
            GpuServing::Governor => "gpu-governor",
            GpuServing::Nmpc { .. } => "gpu-nmpc",
        }
    }
}

/// How NoC segments are served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NocServing {
    /// Closed-form M/D/1 analytical latency model — the per-substrate
    /// governor baseline.
    Analytical,
    /// Learned SVR latency model, trained once at design time per mesh,
    /// traffic pattern, training rates and training cycles
    /// ([`ArtifactStore::noc_model`]) and shared by every segment with that
    /// setup.
    Learned,
}

impl NocServing {
    /// Short policy label used in composed record names.
    pub fn label(&self) -> &'static str {
        match self {
            NocServing::Analytical => "noc-analytical",
            NocServing::Learned => "noc-svr",
        }
    }
}

/// The per-scenario policy bundle: one policy per substrate.
///
/// Produced once per scenario by the driver's policy factory; segments of
/// each kind are served by the matching member.  Pure-CPU scenarios only
/// exercise `cpu`, so [`SubstratePolicies::cpu_only`] is the drop-in wrapper
/// for the original CPU-only factories.
pub struct SubstratePolicies {
    /// Policy serving CPU segments.
    pub cpu: Box<dyn DvfsPolicy + Send>,
    /// Controller serving GPU segments.
    pub gpu: GpuServing,
    /// Latency model serving NoC segments.
    pub noc: NocServing,
}

impl SubstratePolicies {
    /// Wraps a CPU policy with the per-substrate governor baselines (GPU
    /// utilization governor, analytical NoC model).
    pub fn cpu_only(cpu: Box<dyn DvfsPolicy + Send>) -> Self {
        Self { cpu, gpu: GpuServing::Governor, noc: NocServing::Analytical }
    }

    /// Wraps a CPU policy with the learned controllers on the other
    /// substrates (multi-rate NMPC, SVR latency model).
    pub fn learned(cpu: Box<dyn DvfsPolicy + Send>) -> Self {
        Self { cpu, gpu: GpuServing::nmpc(), noc: NocServing::Learned }
    }
}

/// Golden-ratio increment shared with the generator's seed mixing.
const SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Derives the independent simulator seed of NoC decision `ordinal` within a
/// segment seeded `seed` (splitmix64 finaliser, so neighbouring ordinals land
/// far apart).
pub fn noc_decision_seed(seed: u64, ordinal: u64) -> u64 {
    let mut z = seed ^ ordinal.wrapping_add(1).wrapping_mul(SEED_MIX);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// NoC clock frequency used to convert monitoring-window cycles to seconds.
pub const NOC_CLOCK_HZ: f64 = 1.0e9;
/// First-order link energy per packet-hop, joules (4-flit packets).
pub const NOC_ENERGY_PER_HOP_J: f64 = 5.0e-12;
/// First-order router energy per delivered packet, joules.
pub const NOC_ENERGY_PER_PACKET_J: f64 = 2.0e-12;
/// Throttle ladder: fractions of the offered rate the NoC manager may admit.
const NOC_THROTTLE_STEPS: [f64; 4] = [1.0, 0.75, 0.5, 0.25];

/// Serves GPU segments of one scenario: a private simulator plus a
/// controller, both living for the whole scenario so DVFS/slice transition
/// costs and the controller's workload estimate carry across segments.
pub(crate) struct GpuAdapter {
    platform: GpuPlatform,
    sim: GpuSimulator,
    controller: Box<dyn GpuController + Send>,
    previous: Option<FrameResult>,
    frame_index: usize,
}

impl GpuAdapter {
    /// Builds the adapter for a scenario whose first GPU segment is `spec`.
    ///
    /// NMPC serving pretrains the sensitivity models on a strided sample of
    /// that segment's frames — the design-time profiling pass the paper
    /// assumes, kept per-scenario so serving stays a pure function of the
    /// scenario stream.
    pub(crate) fn new(serving: &GpuServing, spec: &GpuSessionSpec) -> Self {
        let platform = GpuPlatform::gen9_like();
        let sim = GpuSimulator::new(platform.clone());
        let controller: Box<dyn GpuController + Send> = match *serving {
            GpuServing::Governor => Box::new(UtilizationGovernor::new()),
            GpuServing::Nmpc { forgetting_factor, pretrain_stride } => {
                let mut model = GpuSensitivityModel::new(forgetting_factor);
                let sample: Vec<FrameDemand> =
                    spec.frames.iter().step_by(pretrain_stride.max(1)).cloned().collect();
                model.pretrain(&sim, &sample, spec.deadline_s());
                Box::new(MultiRateNmpcController::new(model, NmpcSettings::default()))
            }
        };
        Self { platform, sim, controller, previous: None, frame_index: 0 }
    }

    /// Serves one frame: controller decides, simulator renders, and the
    /// decision is recorded.
    pub(crate) fn serve_frame(
        &mut self,
        demand: &FrameDemand,
        deadline_s: f64,
        ordinal: usize,
    ) -> GpuDecisionRecord {
        let config = self.controller.decide(
            &self.platform,
            self.previous.as_ref(),
            self.frame_index,
            deadline_s,
        );
        let result = self.sim.render_frame(demand, config, deadline_s);
        self.frame_index += 1;
        let record = GpuDecisionRecord {
            index: ordinal,
            demand: *demand,
            deadline_s,
            config,
            energy_j: result.package_dram_energy_j(),
            time_s: result.frame_time_s,
            gpu_power_w: result.counters.gpu_power_w,
            utilization: result.counters.utilization,
            deadline_met: !result.missed_deadline,
        };
        self.previous = Some(result);
        record
    }
}

/// The latency model answering one NoC segment's monitoring windows.
pub(crate) enum NocModel {
    Analytical(AnalyticalLatencyModel),
    Learned(Arc<SvrLatencyModel>),
}

impl NocModel {
    /// Builds the segment's model; learned serving takes the design-time SVR
    /// for the segment's training setup from the process-wide store.
    pub(crate) fn build(serving: &NocServing, spec: &NocSessionSpec) -> Self {
        spec.validate();
        match serving {
            NocServing::Analytical => {
                NocModel::Analytical(AnalyticalLatencyModel::new(spec.mesh, spec.pattern))
            }
            NocServing::Learned => NocModel::Learned(ArtifactStore::global().noc_model(spec)),
        }
    }

    fn predict(&self, rate: f64) -> f64 {
        match self {
            NocModel::Analytical(model) => model.latency_cycles(rate),
            NocModel::Learned(model) => model.predict_latency(rate),
        }
    }

    /// Serves one monitoring window: throttles the offered rate until the
    /// model predicts the latency budget holds, then simulates the window at
    /// the admitted rate on an independently seeded simulator.
    pub(crate) fn serve_window(
        &self,
        spec: &NocSessionSpec,
        window: usize,
        offered_rate: f64,
        ordinal: usize,
    ) -> NocDecisionRecord {
        let mut admitted = offered_rate * NOC_THROTTLE_STEPS[NOC_THROTTLE_STEPS.len() - 1];
        let mut predicted = self.predict(admitted);
        for &step in &NOC_THROTTLE_STEPS {
            let candidate = offered_rate * step;
            let latency = self.predict(candidate);
            if latency <= spec.latency_budget_cycles {
                admitted = candidate;
                predicted = latency;
                break;
            }
        }
        let analytical = AnalyticalLatencyModel::new(spec.mesh, spec.pattern);
        let seed = noc_decision_seed(spec.seed, window as u64);
        let (stats, energy_j) =
            simulate_noc_window(spec.mesh, spec.pattern, seed, admitted, spec.query_cycles);
        NocDecisionRecord {
            index: ordinal,
            mesh: spec.mesh,
            pattern: spec.pattern,
            seed,
            cycles: spec.query_cycles,
            offered_rate,
            injection_rate: admitted,
            predicted_latency_cycles: predicted,
            analytical_latency_cycles: analytical.latency_cycles(admitted),
            measured_latency_cycles: stats.avg_latency_cycles,
            packets_delivered: stats.packets_delivered,
            energy_j,
            time_s: spec.query_cycles as f64 / NOC_CLOCK_HZ,
        }
    }
}

/// Sequentially re-renders one scenario's recorded GPU frames (used by trace
/// replay).  The GPU simulator carries DVFS/slice transition state across
/// frames, so replay must process a scenario's GPU decisions in recorded
/// order on one fresh simulator — which this type owns.
pub struct GpuReplayer {
    sim: GpuSimulator,
}

/// What replaying one recorded GPU frame reproduced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuReplayOutcome {
    /// Package + DRAM energy over the frame period, joules.
    pub energy_j: f64,
    /// Frame time, seconds.
    pub time_s: f64,
    /// Average GPU power over the frame, watts.
    pub gpu_power_w: f64,
    /// GPU utilization over the frame period.
    pub utilization: f64,
    /// Whether the frame met its deadline.
    pub deadline_met: bool,
}

impl GpuReplayer {
    /// Fresh simulator on the serving platform.
    pub fn new() -> Self {
        Self { sim: GpuSimulator::new(GpuPlatform::gen9_like()) }
    }

    /// Re-renders one recorded frame at its recorded configuration, or
    /// returns `None` if the serving platform has no such configuration (an
    /// edited recording).
    pub fn replay_frame(&mut self, record: &GpuDecisionRecord) -> Option<GpuReplayOutcome> {
        if !self.sim.platform().is_valid(record.config) {
            return None;
        }
        let result = self.sim.render_frame(&record.demand, record.config, record.deadline_s);
        Some(GpuReplayOutcome {
            energy_j: result.package_dram_energy_j(),
            time_s: result.frame_time_s,
            gpu_power_w: result.counters.gpu_power_w,
            utilization: result.counters.utilization,
            deadline_met: !result.missed_deadline,
        })
    }
}

impl Default for GpuReplayer {
    fn default() -> Self {
        Self::new()
    }
}

/// Recomputes the simulated outcome of one recorded NoC window (used by
/// trace replay): same mesh, pattern, per-decision seed and admitted rate
/// must reproduce the measured latency, delivery count and energy bit for
/// bit.
pub fn replay_noc_window(record: &NocDecisionRecord) -> (f64, usize, f64) {
    let (stats, energy_j) = simulate_noc_window(
        record.mesh,
        record.pattern,
        record.seed,
        record.injection_rate,
        record.cycles,
    );
    (stats.avg_latency_cycles, stats.packets_delivered, energy_j)
}

/// Simulates one NoC window on a fresh simulator and prices its delivered
/// packets: the one path serving and replay share, so they cannot drift.
fn simulate_noc_window(
    mesh: MeshConfig,
    pattern: TrafficPattern,
    seed: u64,
    rate: f64,
    cycles: u64,
) -> (NocStats, f64) {
    let stats = NocSimulator::new(mesh, pattern, seed).run(rate, cycles);
    let energy_j = stats.packets_delivered as f64
        * (stats.avg_hops * NOC_ENERGY_PER_HOP_J + NOC_ENERGY_PER_PACKET_J);
    (stats, energy_j)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noc_spec(seed: u64) -> NocSessionSpec {
        NocSessionSpec {
            mesh: MeshConfig::new(4, 4),
            pattern: TrafficPattern::Uniform,
            seed,
            train_rates: vec![0.02, 0.05, 0.09, 0.13],
            train_cycles: 4_000,
            query_rates: vec![0.04, 0.16],
            query_cycles: 3_000,
            latency_budget_cycles: 25.0,
        }
    }

    #[test]
    fn noc_windows_are_deterministic_and_replayable() {
        let spec = noc_spec(9);
        let model = NocModel::build(&NocServing::Learned, &spec);
        let a = model.serve_window(&spec, 0, 0.16, 5);
        let b = NocModel::build(&NocServing::Learned, &spec).serve_window(&spec, 0, 0.16, 5);
        assert_eq!(a, b, "serving a window twice must be bit-identical");
        let (latency, delivered, energy) = replay_noc_window(&a);
        assert_eq!(latency.to_bits(), a.measured_latency_cycles.to_bits());
        assert_eq!(delivered, a.packets_delivered);
        assert_eq!(energy.to_bits(), a.energy_j.to_bits());

        // A session that differs only in its seed shares the design-time
        // model, so the throttler decides identically at the same offered
        // rate; the window itself still simulates from its own seed.
        let other_spec = noc_spec(10);
        let other = NocModel::build(&NocServing::Learned, &other_spec);
        let (NocModel::Learned(shared), NocModel::Learned(theirs)) = (&model, &other) else {
            panic!("learned serving must build the learned model");
        };
        assert!(Arc::ptr_eq(shared, theirs), "the session seed must not select the model");
        let c = other.serve_window(&other_spec, 0, 0.16, 5);
        assert_eq!(c.predicted_latency_cycles.to_bits(), a.predicted_latency_cycles.to_bits());
        assert_eq!(c.injection_rate.to_bits(), a.injection_rate.to_bits());
        assert_eq!((a.seed, c.seed), (noc_decision_seed(9, 0), noc_decision_seed(10, 0)));
        let (latency, delivered, energy) = replay_noc_window(&c);
        assert_eq!(latency.to_bits(), c.measured_latency_cycles.to_bits());
        assert_eq!(delivered, c.packets_delivered);
        assert_eq!(energy.to_bits(), c.energy_j.to_bits());
        assert_ne!(
            c.measured_latency_cycles.to_bits(),
            a.measured_latency_cycles.to_bits(),
            "windows of different sessions must simulate different traffic"
        );
    }

    #[test]
    fn noc_throttler_admits_low_rates_and_throttles_saturating_ones() {
        let spec = noc_spec(3);
        let model = NocModel::build(&NocServing::Analytical, &spec);
        let calm = model.serve_window(&spec, 0, 0.03, 0);
        assert_eq!(calm.injection_rate.to_bits(), 0.03f64.to_bits(), "low load passes through");
        let hot = model.serve_window(&spec, 1, 0.5, 1);
        assert!(hot.injection_rate < 0.5, "saturating load must be throttled");
        assert!(
            hot.predicted_latency_cycles <= spec.latency_budget_cycles
                || hot.injection_rate <= 0.126
        );
    }

    #[test]
    fn gpu_adapter_serves_frames_deterministically() {
        let frames = vec![
            FrameDemand::new(2.0e9, 0.9, 3.0e7),
            FrameDemand::new(2.6e9, 0.9, 3.5e7),
            FrameDemand::new(1.4e9, 0.85, 2.0e7),
        ];
        let spec = GpuSessionSpec::new(frames.clone(), 30.0);
        let run = |serving: &GpuServing| {
            let mut adapter = GpuAdapter::new(serving, &spec);
            spec.frames
                .iter()
                .enumerate()
                .map(|(i, demand)| adapter.serve_frame(demand, spec.deadline_s(), i))
                .collect::<Vec<_>>()
        };
        let a = run(&GpuServing::nmpc());
        let b = run(&GpuServing::nmpc());
        assert_eq!(a, b, "NMPC serving must be deterministic");
        assert!(a.iter().all(|r| r.energy_j > 0.0 && r.time_s > 0.0));
        let governor = run(&GpuServing::Governor);
        assert_eq!(governor.len(), 3);
    }

    #[test]
    fn decision_kind_labels_round_trip() {
        for kind in DecisionKind::ALL {
            assert_eq!(DecisionKind::ALL[kind.lane()], kind);
        }
    }
}
