//! Seeded synthetic workload generation.
//!
//! The paper's central claim is that the online-IL policy adapts at runtime to
//! workloads it never saw at design time; this module is the source of those
//! never-seen workloads.  Three layers compose:
//!
//! * [`SnippetDistribution`] — a parameterised distribution over
//!   [`SnippetProfile`]s (compute-, memory-, idle- and branch-skewed presets,
//!   plus arbitrary custom ranges), with [`SnippetDistribution::blend`] to
//!   interpolate between a quiet and an active behaviour.
//! * [`PhasePattern`] — phase structure over a scenario's snippet stream:
//!   ramps, bursts, diurnal cycles and two-state Markov switching, all
//!   expressed as an intensity curve in `[0, 1]` that selects the blend point.
//! * [`Perturbation`] — operators that mutate *existing* sequences (the paper
//!   suites) into unlimited never-seen-at-design-time variants: relative
//!   feature jitter, instruction scaling, phase flips and segment shuffling.
//!
//! A [`ScenarioGenerator`] ties them together: scenario `i` of a given
//! generator is a pure function of `(seed, i)`, so a fleet source can be
//! drained from any number of worker threads in any order and still produce
//! the identical scenario set.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use soclearn_runtime::{
    FrameDemand, GpuSessionSpec, MeshConfig, NocSessionSpec, ScenarioSpec, SubstrateWork,
    TrafficPattern,
};
use soclearn_workloads::{BenchmarkSuite, SnippetPhase, SnippetProfile, SuiteKind};

/// A parameterised distribution over snippet profiles.
///
/// Every field is a closed sampling range (uniform); the phase is drawn from
/// the weighted [`SnippetDistribution::phase_mix`].  Presets cover the three
/// canonical skews, and [`SnippetDistribution::blend`] interpolates two
/// distributions for phase-structured scenarios.
#[derive(Debug, Clone, PartialEq)]
pub struct SnippetDistribution {
    /// Instruction-count range per snippet.
    pub instructions: (u64, u64),
    /// Relative weights of the `Compute`/`Memory`/`Branchy`/`Mixed` phases.
    pub phase_mix: [f64; 4],
    /// Range of the data-memory access fraction.
    pub memory_access_fraction: (f64, f64),
    /// Range of the L2 misses per kilo-instruction.
    pub l2_mpki: (f64, f64),
    /// Range of the external (DRAM) fraction of L2 misses.
    pub external_memory_fraction: (f64, f64),
    /// Range of the branch mispredictions per kilo-instruction.
    pub branch_misprediction_pki: (f64, f64),
    /// Range of the available instruction-level parallelism.
    pub ilp: (f64, f64),
    /// Range of the software thread count.
    pub thread_count: (u32, u32),
    /// Range of the Amdahl parallel fraction.
    pub parallel_fraction: (f64, f64),
}

fn sample_f64(rng: &mut ChaCha8Rng, range: (f64, f64)) -> f64 {
    if range.0 >= range.1 {
        range.0
    } else {
        rng.gen_range(range.0..range.1)
    }
}

fn sample_u64(rng: &mut ChaCha8Rng, range: (u64, u64)) -> u64 {
    if range.0 >= range.1 {
        range.0
    } else {
        rng.gen_range(range.0..range.1 + 1)
    }
}

fn sample_len(rng: &mut ChaCha8Rng, range: (usize, usize)) -> usize {
    if range.0 >= range.1 {
        range.0.max(1)
    } else {
        rng.gen_range(range.0..range.1 + 1).max(1)
    }
}

fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

impl SnippetDistribution {
    /// Compute-skewed: high ILP, light memory traffic, long snippets.
    pub fn compute_skewed() -> Self {
        Self {
            instructions: (60_000_000, 140_000_000),
            phase_mix: [0.8, 0.0, 0.1, 0.1],
            memory_access_fraction: (0.10, 0.22),
            l2_mpki: (0.2, 1.5),
            external_memory_fraction: (0.2, 0.5),
            branch_misprediction_pki: (0.5, 3.0),
            ilp: (1.8, 2.8),
            thread_count: (1, 1),
            parallel_fraction: (0.0, 0.0),
        }
    }

    /// Memory-skewed: heavy, mostly-external L2 miss traffic.
    pub fn memory_skewed() -> Self {
        Self {
            instructions: (60_000_000, 140_000_000),
            phase_mix: [0.1, 0.7, 0.0, 0.2],
            memory_access_fraction: (0.32, 0.50),
            l2_mpki: (6.0, 18.0),
            external_memory_fraction: (0.6, 0.9),
            branch_misprediction_pki: (1.5, 4.0),
            ilp: (0.9, 1.5),
            thread_count: (1, 2),
            parallel_fraction: (0.0, 0.5),
        }
    }

    /// Idle-skewed: short housekeeping snippets with minimal activity.
    pub fn idle_skewed() -> Self {
        Self {
            instructions: (5_000_000, 25_000_000),
            phase_mix: [0.2, 0.1, 0.6, 0.1],
            memory_access_fraction: (0.05, 0.12),
            l2_mpki: (0.05, 0.5),
            external_memory_fraction: (0.1, 0.4),
            branch_misprediction_pki: (4.0, 9.0),
            ilp: (0.5, 1.0),
            thread_count: (1, 1),
            parallel_fraction: (0.0, 0.0),
        }
    }

    /// Branch-skewed: control-flow heavy kernels with poor speculation.
    pub fn branchy_skewed() -> Self {
        Self {
            instructions: (40_000_000, 110_000_000),
            phase_mix: [0.2, 0.1, 0.6, 0.1],
            memory_access_fraction: (0.15, 0.28),
            l2_mpki: (0.8, 3.0),
            external_memory_fraction: (0.3, 0.6),
            branch_misprediction_pki: (6.0, 14.0),
            ilp: (0.9, 1.5),
            thread_count: (1, 1),
            parallel_fraction: (0.0, 0.0),
        }
    }

    /// Draws one profile from the distribution.
    pub fn sample(&self, rng: &mut ChaCha8Rng) -> SnippetProfile {
        let total: f64 = self.phase_mix.iter().sum();
        let mut draw = rng.gen_range(0.0..total.max(1e-12));
        let mut phase = SnippetPhase::Mixed;
        for (weight, candidate) in self.phase_mix.iter().zip(SnippetPhase::ALL) {
            if draw < *weight {
                phase = candidate;
                break;
            }
            draw -= weight;
        }
        let threads = if self.thread_count.0 >= self.thread_count.1 {
            self.thread_count.0
        } else {
            rng.gen_range(self.thread_count.0..self.thread_count.1 + 1)
        };
        SnippetProfile::new(
            sample_u64(rng, self.instructions).max(1),
            phase,
            sample_f64(rng, self.memory_access_fraction),
            sample_f64(rng, self.l2_mpki),
            sample_f64(rng, self.external_memory_fraction),
            sample_f64(rng, self.branch_misprediction_pki),
            sample_f64(rng, self.ilp),
            threads.max(1),
            sample_f64(rng, self.parallel_fraction),
        )
    }

    /// Linear interpolation between two distributions at `t ∈ [0, 1]`
    /// (`t = 0` is `self`, `t = 1` is `other`), the primitive behind
    /// phase-structured scenarios.
    pub fn blend(&self, other: &Self, t: f64) -> Self {
        let t = t.clamp(0.0, 1.0);
        let blend_f = |a: (f64, f64), b: (f64, f64)| (lerp(a.0, b.0, t), lerp(a.1, b.1, t));
        let blend_u = |a: (u64, u64), b: (u64, u64)| {
            (lerp(a.0 as f64, b.0 as f64, t) as u64, lerp(a.1 as f64, b.1 as f64, t) as u64)
        };
        let mut phase_mix = [0.0; 4];
        for (out, (a, b)) in phase_mix.iter_mut().zip(self.phase_mix.iter().zip(&other.phase_mix)) {
            *out = lerp(*a, *b, t);
        }
        Self {
            instructions: blend_u(self.instructions, other.instructions),
            phase_mix,
            memory_access_fraction: blend_f(
                self.memory_access_fraction,
                other.memory_access_fraction,
            ),
            l2_mpki: blend_f(self.l2_mpki, other.l2_mpki),
            external_memory_fraction: blend_f(
                self.external_memory_fraction,
                other.external_memory_fraction,
            ),
            branch_misprediction_pki: blend_f(
                self.branch_misprediction_pki,
                other.branch_misprediction_pki,
            ),
            ilp: blend_f(self.ilp, other.ilp),
            thread_count: (
                self.thread_count.0.min(other.thread_count.0),
                self.thread_count.1.max(other.thread_count.1),
            ),
            parallel_fraction: blend_f(self.parallel_fraction, other.parallel_fraction),
        }
    }
}

/// Phase structure of a generated scenario, expressed as an intensity curve in
/// `[0, 1]` over the snippet index.  The intensity selects the blend point
/// between the family's quiet and active distributions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhasePattern {
    /// Constant intensity.
    Constant(f64),
    /// Linear ramp from `from` to `to` over the scenario.
    Ramp {
        /// Intensity at the first snippet.
        from: f64,
        /// Intensity at the last snippet.
        to: f64,
    },
    /// Square-wave bursts: `duty` fraction of each `period` runs at `high`
    /// intensity, the rest at `low`.
    Burst {
        /// Burst period in snippets.
        period: usize,
        /// Fraction of the period spent at `high`, in `[0, 1]`.
        duty: f64,
        /// Quiet intensity.
        low: f64,
        /// Burst intensity.
        high: f64,
    },
    /// Sinusoidal day/night cycle over the scenario.
    Diurnal {
        /// Number of full cycles over the scenario.
        cycles: f64,
        /// Trough intensity.
        low: f64,
        /// Peak intensity.
        high: f64,
    },
    /// Two-state Markov chain: stay in the current state with probability
    /// `persistence`, otherwise flip between `low` and `high`.
    Markov {
        /// Probability of staying in the current state per snippet.
        persistence: f64,
        /// Quiet-state intensity.
        low: f64,
        /// Active-state intensity.
        high: f64,
    },
}

impl PhasePattern {
    /// Intensity of snippet `index` of `len`, advancing `state` (the Markov
    /// phase bit) as a side effect.
    fn intensity(&self, index: usize, len: usize, rng: &mut ChaCha8Rng, state: &mut bool) -> f64 {
        let frac = if len <= 1 { 0.0 } else { index as f64 / (len - 1) as f64 };
        match *self {
            PhasePattern::Constant(v) => v,
            PhasePattern::Ramp { from, to } => lerp(from, to, frac),
            PhasePattern::Burst { period, duty, low, high } => {
                let pos = index % period.max(1);
                if (pos as f64) < duty * period.max(1) as f64 {
                    high
                } else {
                    low
                }
            }
            PhasePattern::Diurnal { cycles, low, high } => {
                let wave = (frac * cycles * std::f64::consts::TAU).sin() * 0.5 + 0.5;
                lerp(low, high, wave)
            }
            PhasePattern::Markov { persistence, low, high } => {
                if !rng.gen_bool(persistence.clamp(0.0, 1.0)) {
                    *state = !*state;
                }
                if *state {
                    high
                } else {
                    low
                }
            }
        }
    }
}

/// One synthetic scenario family: a quiet and an active snippet distribution
/// bridged by a phase pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySpec {
    /// Family name (scenario names are `"{name}-{index}"`).
    pub name: String,
    /// Distribution at intensity 0.
    pub quiet: SnippetDistribution,
    /// Distribution at intensity 1.
    pub active: SnippetDistribution,
    /// Intensity curve over the scenario.
    pub pattern: PhasePattern,
    /// Range of scenario lengths in snippets.
    pub snippets: (usize, usize),
}

impl FamilySpec {
    /// Generates the family's scenario for `rng`.
    fn generate(&self, rng: &mut ChaCha8Rng) -> Vec<SnippetProfile> {
        let len = if self.snippets.0 >= self.snippets.1 {
            self.snippets.0
        } else {
            rng.gen_range(self.snippets.0..self.snippets.1 + 1)
        }
        .max(1);
        let mut markov_state = false;
        (0..len)
            .map(|i| {
                let t = self.pattern.intensity(i, len, rng, &mut markov_state);
                self.quiet.blend(&self.active, t).sample(rng)
            })
            .collect()
    }
}

/// Mutation operators turning an existing snippet sequence into a
/// never-seen-at-design-time variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Perturbation {
    /// Relative jitter applied to every float feature (`0.1` = ±10%).
    pub relative_jitter: f64,
    /// Uniform instruction-count scaling range.
    pub instruction_scale: (f64, f64),
    /// Probability of re-labelling a snippet's coarse phase.
    pub phase_flip_prob: f64,
    /// Shuffle the order of fixed-size snippet segments.
    pub shuffle_segments: bool,
}

impl Perturbation {
    /// A moderate default: ±15% feature jitter, 0.5–2× instruction scaling,
    /// 10% phase flips, segment shuffling on.
    pub fn moderate() -> Self {
        Self {
            relative_jitter: 0.15,
            instruction_scale: (0.5, 2.0),
            phase_flip_prob: 0.1,
            shuffle_segments: true,
        }
    }

    /// Applies the operators to a sequence, deterministically for a given rng
    /// state.
    pub fn apply(&self, profiles: &[SnippetProfile], rng: &mut ChaCha8Rng) -> Vec<SnippetProfile> {
        let jitter = |rng: &mut ChaCha8Rng, v: f64| {
            if self.relative_jitter <= 0.0 {
                v
            } else {
                v * (1.0 + rng.gen_range(-self.relative_jitter..self.relative_jitter))
            }
        };
        let mut out: Vec<SnippetProfile> = profiles
            .iter()
            .map(|p| {
                let scale = sample_f64(rng, self.instruction_scale).max(1e-3);
                let phase = if self.phase_flip_prob > 0.0 && rng.gen_bool(self.phase_flip_prob) {
                    SnippetPhase::ALL[rng.gen_range(0..SnippetPhase::ALL.len())]
                } else {
                    p.phase
                };
                SnippetProfile::new(
                    ((p.instructions as f64 * scale) as u64).max(1),
                    phase,
                    jitter(rng, p.memory_access_fraction),
                    jitter(rng, p.l2_mpki),
                    jitter(rng, p.external_memory_fraction),
                    jitter(rng, p.branch_misprediction_pki),
                    jitter(rng, p.ilp),
                    p.thread_count,
                    jitter(rng, p.parallel_fraction),
                )
            })
            .collect();
        if self.shuffle_segments && out.len() > 4 {
            // Fisher–Yates over 4-snippet segments, preserving local phase
            // structure while scrambling the application-level order.
            let segments = out.len() / 4;
            for i in (1..segments).rev() {
                let j = rng.gen_range(0..i + 1);
                if i != j {
                    for k in 0..4 {
                        out.swap(i * 4 + k, j * 4 + k);
                    }
                }
            }
        }
        out
    }
}

/// Parameterised GPU rendering sessions: per-frame demand ranges plus the
/// target frame rate whose period is the per-frame deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphicsSpec {
    /// Family name (scenario names are `"{name}-{index}"`).
    pub name: String,
    /// Range of session lengths in frames.
    pub frames: (usize, usize),
    /// Per-frame GPU work range, cycles.
    pub work_cycles: (f64, f64),
    /// Per-frame Amdahl parallel-fraction range.
    pub parallel_fraction: (f64, f64),
    /// Per-frame memory-access range.
    pub memory_accesses: (f64, f64),
    /// Target frame rate; `1 / fps` is the per-frame deadline.
    pub target_fps: f64,
}

impl GraphicsSpec {
    /// A 30 FPS mixed-intensity rendering preset, sessions around `decisions`
    /// frames long (±25%).
    pub fn rendering(decisions: usize) -> Self {
        let d = decisions.max(4);
        Self {
            name: "graphics-burst".to_owned(),
            frames: (d * 3 / 4, d * 5 / 4),
            work_cycles: (6.0e8, 2.4e9),
            parallel_fraction: (0.70, 0.95),
            memory_accesses: (1.0e7, 6.0e7),
            target_fps: 30.0,
        }
    }

    /// Draws one rendering session.
    fn generate(&self, rng: &mut ChaCha8Rng) -> GpuSessionSpec {
        let len = sample_len(rng, self.frames);
        let frames = (0..len)
            .map(|_| {
                FrameDemand::new(
                    sample_f64(rng, self.work_cycles),
                    sample_f64(rng, self.parallel_fraction),
                    sample_f64(rng, self.memory_accesses),
                )
            })
            .collect();
        GpuSessionSpec::new(frames, self.target_fps)
    }
}

/// Parameterised NoC monitoring sessions: a mesh, candidate traffic patterns
/// and per-window offered-rate ranges.
///
/// A recorded trace replays only meshes of at most
/// [`MAX_REPLAY_MESH_NODES`](crate::trace::MAX_REPLAY_MESH_NODES) nodes
/// (32 × 32) and windows of at most
/// [`MAX_REPLAY_WINDOW_CYCLES`](crate::trace::MAX_REPLAY_WINDOW_CYCLES)
/// cycles (10⁶); [`Trace::from_jsonl`](crate::Trace::from_jsonl) rejects a
/// decision past either cap.  [`MeshSpec::monitoring`] uses 4 × 4 and 2,000.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshSpec {
    /// Family name (scenario names are `"{name}-{index}"`).
    pub name: String,
    /// Mesh dimensions `(width, height)`.
    pub mesh: (usize, usize),
    /// Traffic patterns a session may run (one is drawn per scenario).
    pub patterns: Vec<TrafficPattern>,
    /// Range of session lengths in monitoring windows.
    pub windows: (usize, usize),
    /// Per-window offered injection-rate range, packets/node/cycle.
    pub offered_rate: (f64, f64),
    /// Injection rates the latency model trains on.
    pub train_rates: Vec<f64>,
    /// Simulated cycles per training run.
    pub train_cycles: u64,
    /// Simulated cycles per monitoring window.
    pub window_cycles: u64,
    /// Latency budget the throttling policy enforces, cycles.
    pub latency_budget_cycles: f64,
}

impl MeshSpec {
    /// A 4×4-mesh monitoring preset, sessions around `decisions` windows long
    /// (±25%).
    pub fn monitoring(decisions: usize) -> Self {
        let d = decisions.max(2);
        Self {
            name: "mesh-monitor".to_owned(),
            mesh: (4, 4),
            patterns: vec![
                TrafficPattern::Uniform,
                TrafficPattern::Hotspot,
                TrafficPattern::Transpose,
            ],
            windows: (d * 3 / 4, d * 5 / 4),
            offered_rate: (0.02, 0.30),
            train_rates: vec![0.02, 0.05, 0.09, 0.14],
            train_cycles: 4_000,
            window_cycles: 2_000,
            latency_budget_cycles: 30.0,
        }
    }

    /// Draws one monitoring session.
    fn generate(&self, rng: &mut ChaCha8Rng) -> NocSessionSpec {
        let pattern = self.patterns[rng.gen_range(0..self.patterns.len().max(1))];
        let len = sample_len(rng, self.windows);
        let query_rates = (0..len).map(|_| sample_f64(rng, self.offered_rate)).collect();
        NocSessionSpec {
            mesh: MeshConfig::new(self.mesh.0, self.mesh.1),
            pattern,
            seed: rng.gen_range(0..u64::MAX),
            train_rates: self.train_rates.clone(),
            train_cycles: self.train_cycles,
            query_rates,
            query_cycles: self.window_cycles,
            latency_budget_cycles: self.latency_budget_cycles,
        }
    }
}

/// A heterogeneous user: CPU phases interleaved with a GPU rendering burst
/// and a closing NoC monitoring window, the mixed-substrate analogue of a
/// [`FamilySpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct HeterogeneousSpec {
    /// Family name (scenario names are `"{name}-{index}"`).
    pub name: String,
    /// The CPU phases (the inner spec's own name is unused).
    pub cpu: FamilySpec,
    /// The GPU rendering burst between the CPU phases.
    pub graphics: GraphicsSpec,
    /// The NoC monitoring window closing the session.
    pub mesh: MeshSpec,
}

impl HeterogeneousSpec {
    /// Draws one CPU → GPU → CPU → NoC session.
    fn generate(&self, rng: &mut ChaCha8Rng) -> Vec<SubstrateWork> {
        let profiles = self.cpu.generate(rng);
        let split = (profiles.len() / 2).max(1);
        let (front, back) = profiles.split_at(split.min(profiles.len()));
        let mut segments = vec![
            SubstrateWork::Cpu(front.to_vec()),
            SubstrateWork::Gpu(self.graphics.generate(rng)),
        ];
        if !back.is_empty() {
            segments.push(SubstrateWork::Cpu(back.to_vec()));
        }
        segments.push(SubstrateWork::Noc(self.mesh.generate(rng)));
        segments
    }
}

/// A scenario family the generator can draw users from.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioFamily {
    /// Fully synthetic scenarios from a [`FamilySpec`] (boxed: the spec holds
    /// two full distributions, far larger than the other variant).
    Synthetic(Box<FamilySpec>),
    /// Perturbed variants of a paper suite's concatenated applications.
    PerturbedSuite {
        /// Which paper suite to mutate.
        kind: SuiteKind,
        /// Snippets kept per benchmark before perturbation (bounds run time).
        snippets_per_benchmark: usize,
        /// The mutation operators.
        perturbation: Perturbation,
    },
    /// GPU rendering users: every decision is a frame served by the GPU
    /// power controller.
    Graphics(GraphicsSpec),
    /// NoC monitoring users: every decision is a mesh monitoring window
    /// served by the latency-throttling policy.
    Mesh(MeshSpec),
    /// Heterogeneous users interleaving CPU phases with a GPU burst and a
    /// NoC monitoring window (boxed: the spec holds three full sub-specs).
    Heterogeneous(Box<HeterogeneousSpec>),
}

impl ScenarioFamily {
    /// The family's display name.
    pub fn name(&self) -> String {
        match self {
            ScenarioFamily::Synthetic(spec) => spec.name.clone(),
            ScenarioFamily::PerturbedSuite { kind, .. } => {
                format!("perturbed-{}", kind.name().to_lowercase())
            }
            ScenarioFamily::Graphics(spec) => spec.name.clone(),
            ScenarioFamily::Mesh(spec) => spec.name.clone(),
            ScenarioFamily::Heterogeneous(spec) => spec.name.clone(),
        }
    }
}

/// Mixing constant for per-scenario seed derivation (splitmix64's increment).
const SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Deterministic, seeded scenario generator over a set of families.
///
/// Scenario `i` is a pure function of `(seed, i)` — the rng is re-derived per
/// scenario — so any number of threads can generate disjoint index ranges (or
/// the same indices, redundantly) and agree bit-for-bit on every profile.
/// Families are assigned round-robin: scenario `i` belongs to family
/// `i % families.len()`.
#[derive(Debug, Clone)]
pub struct ScenarioGenerator {
    seed: u64,
    families: Vec<ScenarioFamily>,
    /// Pre-truncated base sequences of the `PerturbedSuite` families (indexed
    /// like `families`, `None` for synthetic ones): suite generation is a pure
    /// function of `(kind, seed)`, so it runs once here instead of once per
    /// scenario claim on the worker hot path.
    perturbed_bases: Vec<Option<Vec<SnippetProfile>>>,
}

impl ScenarioGenerator {
    /// Creates a generator over `families`.
    ///
    /// # Panics
    ///
    /// Panics if `families` is empty.
    pub fn new(seed: u64, families: Vec<ScenarioFamily>) -> Self {
        assert!(!families.is_empty(), "generator needs at least one scenario family");
        let perturbed_bases = families
            .iter()
            .map(|family| match family {
                ScenarioFamily::Synthetic(_)
                | ScenarioFamily::Graphics(_)
                | ScenarioFamily::Mesh(_)
                | ScenarioFamily::Heterogeneous(_) => None,
                ScenarioFamily::PerturbedSuite { kind, snippets_per_benchmark, .. } => {
                    let suite = BenchmarkSuite::generate(*kind, seed);
                    Some(
                        suite
                            .benchmarks()
                            .iter()
                            .flat_map(|b| {
                                b.snippets().iter().take(*snippets_per_benchmark).cloned()
                            })
                            .collect(),
                    )
                }
            })
            .collect();
        Self { seed, families, perturbed_bases }
    }

    /// The default four-family mix used by the generalisation experiment and
    /// the fleet-stress example: bursty compute, Markov-phased memory,
    /// diurnal mixed and perturbed-Cortex, each scenario `snippets` long
    /// (±25% for the synthetic families).
    pub fn standard(seed: u64, snippets: usize) -> Self {
        let len = (snippets.max(4) * 3 / 4, snippets.max(4) * 5 / 4);
        Self::new(
            seed,
            vec![
                ScenarioFamily::Synthetic(Box::new(FamilySpec {
                    name: "bursty-compute".to_owned(),
                    quiet: SnippetDistribution::idle_skewed(),
                    active: SnippetDistribution::compute_skewed(),
                    pattern: PhasePattern::Burst { period: 6, duty: 0.5, low: 0.1, high: 1.0 },
                    snippets: len,
                })),
                ScenarioFamily::Synthetic(Box::new(FamilySpec {
                    name: "phased-memory".to_owned(),
                    quiet: SnippetDistribution::compute_skewed(),
                    active: SnippetDistribution::memory_skewed(),
                    pattern: PhasePattern::Markov { persistence: 0.8, low: 0.0, high: 1.0 },
                    snippets: len,
                })),
                ScenarioFamily::Synthetic(Box::new(FamilySpec {
                    name: "diurnal-mixed".to_owned(),
                    quiet: SnippetDistribution::idle_skewed(),
                    active: SnippetDistribution::branchy_skewed()
                        .blend(&SnippetDistribution::memory_skewed(), 0.5),
                    pattern: PhasePattern::Diurnal { cycles: 1.5, low: 0.1, high: 0.9 },
                    snippets: len,
                })),
                ScenarioFamily::PerturbedSuite {
                    kind: SuiteKind::Cortex,
                    snippets_per_benchmark: (snippets / 4).max(2),
                    perturbation: Perturbation::moderate(),
                },
            ],
        )
    }

    /// The heterogeneous seven-family mix: the four [`standard`] families plus
    /// GPU rendering users, NoC monitoring users and mixed CPU→GPU→CPU→NoC
    /// sessions.  Scenario `i` stays a pure function of `(seed, i)`, so mixed
    /// fleets replay bit-identically at any worker count.
    ///
    /// [`standard`]: ScenarioGenerator::standard
    pub fn heterogeneous(seed: u64, snippets: usize) -> Self {
        let mut families = Self::standard(seed, snippets).families;
        families.push(ScenarioFamily::Graphics(GraphicsSpec::rendering(snippets)));
        families.push(ScenarioFamily::Mesh(MeshSpec::monitoring(snippets / 2)));
        families.push(ScenarioFamily::Heterogeneous(Box::new(HeterogeneousSpec {
            name: "hetero-pipeline".to_owned(),
            cpu: FamilySpec {
                name: "hetero-cpu".to_owned(),
                quiet: SnippetDistribution::idle_skewed(),
                active: SnippetDistribution::compute_skewed(),
                pattern: PhasePattern::Ramp { from: 0.2, to: 1.0 },
                snippets: (snippets.max(4) * 3 / 4, snippets.max(4) * 5 / 4),
            },
            graphics: GraphicsSpec {
                frames: ((snippets / 3).max(2), (snippets / 2).max(3)),
                ..GraphicsSpec::rendering(snippets)
            },
            mesh: MeshSpec {
                windows: ((snippets / 4).max(1), (snippets / 3).max(2)),
                ..MeshSpec::monitoring(snippets)
            },
        })));
        Self::new(seed, families)
    }

    /// The families scenarios are drawn from.
    pub fn families(&self) -> &[ScenarioFamily] {
        &self.families
    }

    /// Index (into [`ScenarioGenerator::families`]) of the family scenario
    /// `index` belongs to.
    pub fn family_index_of(&self, index: usize) -> usize {
        index % self.families.len()
    }

    /// Generates scenario `index`: deterministic per `(seed, index)`,
    /// independent of call order and calling thread.
    pub fn scenario(&self, index: usize) -> ScenarioSpec {
        let family_idx = self.family_index_of(index);
        let family = &self.families[family_idx];
        let mut rng =
            ChaCha8Rng::seed_from_u64(self.seed ^ (index as u64 + 1).wrapping_mul(SEED_MIX));
        let name = format!("{}-{index}", family.name());
        match family {
            ScenarioFamily::Synthetic(spec) => ScenarioSpec::new(name, spec.generate(&mut rng)),
            ScenarioFamily::PerturbedSuite { perturbation, .. } => {
                let base = self.perturbed_bases[family_idx]
                    .as_ref()
                    .expect("perturbed family has a precomputed base");
                ScenarioSpec::new(name, perturbation.apply(base, &mut rng))
            }
            ScenarioFamily::Graphics(spec) => {
                ScenarioSpec::with_segments(name, vec![SubstrateWork::Gpu(spec.generate(&mut rng))])
            }
            ScenarioFamily::Mesh(spec) => {
                ScenarioSpec::with_segments(name, vec![SubstrateWork::Noc(spec.generate(&mut rng))])
            }
            ScenarioFamily::Heterogeneous(spec) => {
                ScenarioSpec::with_segments(name, spec.generate(&mut rng))
            }
        }
    }

    /// Generates the first `count` scenarios.
    pub fn scenarios(&self, count: usize) -> Vec<ScenarioSpec> {
        (0..count).map(|i| self.scenario(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributions_have_the_advertised_skews() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mean_intensity = |d: &SnippetDistribution, rng: &mut ChaCha8Rng| {
            (0..200).map(|_| d.sample(rng).memory_intensity()).sum::<f64>() / 200.0
        };
        let compute = mean_intensity(&SnippetDistribution::compute_skewed(), &mut rng);
        let memory = mean_intensity(&SnippetDistribution::memory_skewed(), &mut rng);
        let idle = mean_intensity(&SnippetDistribution::idle_skewed(), &mut rng);
        assert!(memory > compute, "memory skew ({memory}) must exceed compute ({compute})");
        assert!(idle < compute, "idle skew ({idle}) must be lightest ({compute})");
        let idle_len: u64 = (0..50)
            .map(|_| SnippetDistribution::idle_skewed().sample(&mut rng).instructions)
            .sum();
        let compute_len: u64 = (0..50)
            .map(|_| SnippetDistribution::compute_skewed().sample(&mut rng).instructions)
            .sum();
        assert!(idle_len < compute_len, "idle snippets are short");
    }

    #[test]
    fn blend_endpoints_recover_the_inputs() {
        let a = SnippetDistribution::compute_skewed();
        let b = SnippetDistribution::memory_skewed();
        assert_eq!(a.blend(&b, 0.0).l2_mpki, a.l2_mpki);
        assert_eq!(a.blend(&b, 1.0).l2_mpki, b.l2_mpki);
        let mid = a.blend(&b, 0.5);
        assert!(mid.l2_mpki.0 > a.l2_mpki.0 && mid.l2_mpki.0 < b.l2_mpki.0);
    }

    #[test]
    fn patterns_produce_their_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut state = false;
        let ramp = PhasePattern::Ramp { from: 0.0, to: 1.0 };
        assert_eq!(ramp.intensity(0, 11, &mut rng, &mut state), 0.0);
        assert_eq!(ramp.intensity(10, 11, &mut rng, &mut state), 1.0);
        let burst = PhasePattern::Burst { period: 4, duty: 0.5, low: 0.1, high: 0.9 };
        assert_eq!(burst.intensity(0, 8, &mut rng, &mut state), 0.9);
        assert_eq!(burst.intensity(3, 8, &mut rng, &mut state), 0.1);
        let diurnal = PhasePattern::Diurnal { cycles: 1.0, low: 0.0, high: 1.0 };
        let values: Vec<f64> =
            (0..20).map(|i| diurnal.intensity(i, 20, &mut rng, &mut state)).collect();
        assert!(values.iter().cloned().fold(0.0, f64::max) > 0.9);
        assert!(values.iter().cloned().fold(1.0, f64::min) < 0.1);
        // Markov switching visits both states over a long run.
        let markov = PhasePattern::Markov { persistence: 0.7, low: 0.0, high: 1.0 };
        let values: Vec<f64> =
            (0..100).map(|i| markov.intensity(i, 100, &mut rng, &mut state)).collect();
        assert!(values.contains(&0.0) && values.contains(&1.0));
    }

    #[test]
    fn generator_is_deterministic_per_seed_and_index() {
        let g = ScenarioGenerator::standard(7, 12);
        let a = g.scenario(5);
        let b = g.scenario(5);
        assert_eq!(a, b);
        // Out-of-order and repeated generation agree with in-order generation.
        let in_order = g.scenarios(8);
        for i in (0..8).rev() {
            assert_eq!(g.scenario(i), in_order[i]);
        }
        let other_seed = ScenarioGenerator::standard(8, 12);
        assert_ne!(other_seed.scenario(5), a);
    }

    #[test]
    fn families_rotate_round_robin() {
        let g = ScenarioGenerator::standard(3, 8);
        assert_eq!(g.families().len(), 4);
        assert_eq!(g.family_index_of(0), 0);
        assert_eq!(g.family_index_of(5), 1);
        assert_eq!(g.families()[g.family_index_of(3)].name(), "perturbed-cortex");
        assert!(g.scenario(3).name.starts_with("perturbed-cortex-"));
        assert!(g.scenario(0).name.starts_with("bursty-compute-"));
    }

    #[test]
    fn heterogeneous_mix_spans_all_substrates_deterministically() {
        use soclearn_runtime::DecisionKind;

        let g = ScenarioGenerator::heterogeneous(9, 12);
        assert_eq!(g.families().len(), 7);
        assert_eq!(g.families()[g.family_index_of(4)].name(), "graphics-burst");
        assert_eq!(g.families()[g.family_index_of(5)].name(), "mesh-monitor");
        assert_eq!(g.families()[g.family_index_of(6)].name(), "hetero-pipeline");

        let graphics = g.scenario(4);
        assert_eq!(graphics.kinds(), vec![DecisionKind::Gpu]);
        assert!(graphics.decision_count() >= 2);

        let mesh = g.scenario(5);
        assert_eq!(mesh.kinds(), vec![DecisionKind::Noc]);

        let hetero = g.scenario(6);
        assert_eq!(
            hetero.kinds(),
            vec![DecisionKind::Cpu, DecisionKind::Gpu, DecisionKind::Noc],
            "mixed sessions interleave all three substrates"
        );
        assert!(hetero.segments.len() >= 3, "CPU → GPU → CPU → NoC interleaving");

        // Purity: the same (seed, index) regenerates bit-identically, out of
        // order; a different seed diverges.
        assert_eq!(g.scenario(6), hetero);
        assert_eq!(g.scenario(4), graphics);
        assert_ne!(ScenarioGenerator::heterogeneous(10, 12).scenario(6), hetero);

        // CPU-only families are untouched by the extension.
        let standard = ScenarioGenerator::standard(9, 12);
        for i in 0..4 {
            // Same family list prefix; indices map differently (7 vs 4
            // families), so compare by regenerating family 0 scenarios.
            assert_eq!(standard.families()[i].name(), g.families()[i].name());
        }
        assert_eq!(standard.scenario(0), g.scenario(0), "family 0, index 0 coincide");
    }

    #[test]
    fn perturbation_changes_but_resembles_the_original() {
        let suite = BenchmarkSuite::generate(SuiteKind::Cortex, 1);
        let base: Vec<SnippetProfile> =
            suite.benchmarks()[0].snippets().iter().take(12).cloned().collect();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mutated = Perturbation::moderate().apply(&base, &mut rng);
        assert_eq!(mutated.len(), base.len());
        assert_ne!(mutated, base, "perturbation must actually mutate");
        // Feature jitter is bounded, so aggregate memory character survives.
        let mean = |v: &[SnippetProfile]| {
            v.iter().map(|p| p.memory_intensity()).sum::<f64>() / v.len() as f64
        };
        let (orig, new) = (mean(&base), mean(&mutated));
        assert!((orig - new).abs() / orig < 0.5, "perturbed mean intensity {new} vs {orig}");
    }

    #[test]
    fn perturbation_is_deterministic_per_rng_seed() {
        let base = vec![SnippetProfile::compute_bound(50_000_000); 8];
        let mut rng_a = ChaCha8Rng::seed_from_u64(11);
        let mut rng_b = ChaCha8Rng::seed_from_u64(11);
        let p = Perturbation::moderate();
        assert_eq!(p.apply(&base, &mut rng_a), p.apply(&base, &mut rng_b));
    }
}
