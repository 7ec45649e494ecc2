//! Graphics (frame-based) workloads for the integrated-GPU experiments.
//!
//! Section IV-B and Figure 5 of the paper evaluate explicit NMPC on ten
//! Android graphics benchmarks, and Figure 2 demonstrates online frame-time
//! prediction on the Nenamark2 benchmark.  Those workloads are reproduced here
//! as synthetic per-frame demand traces: each frame carries an amount of GPU
//! work (cycles), a fraction of that work that parallelises across GPU slices,
//! and a memory-traffic count.  Scene changes are modelled as slow sinusoidal
//! drift plus burst events so that predictive controllers have real dynamics
//! to track.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// GPU work demanded by a single frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FrameDemand {
    /// Total GPU cycles of work in the frame (across all execution units, at
    /// perfect parallel efficiency).
    pub work_cycles: f64,
    /// Fraction of the work that scales across GPU slices, in `[0, 1]`.
    pub parallel_fraction: f64,
    /// Number of external memory accesses issued while rendering the frame.
    pub memory_accesses: f64,
}

impl FrameDemand {
    /// Creates a frame demand, clamping the parallel fraction into `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `work_cycles` is not strictly positive.
    pub fn new(work_cycles: f64, parallel_fraction: f64, memory_accesses: f64) -> Self {
        assert!(work_cycles > 0.0, "a frame must demand positive work");
        Self {
            work_cycles,
            parallel_fraction: parallel_fraction.clamp(0.0, 1.0),
            memory_accesses: memory_accesses.max(0.0),
        }
    }
}

/// A sequence of frame demands (one entry per displayed frame).
pub type FrameTrace = Vec<FrameDemand>;

/// A named frame-based graphics workload with an FPS target.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GraphicsWorkload {
    name: String,
    fps_target: f64,
    frames: FrameTrace,
}

/// Static description used to synthesise each named workload.
#[derive(Debug, Clone, Copy)]
struct GraphicsSpec {
    name: &'static str,
    fps_target: f64,
    /// Mean work per frame in giga-cycles.
    mean_gcycles: f64,
    /// Relative amplitude of the slow scene-complexity drift.
    drift: f64,
    /// Relative standard deviation of frame-to-frame noise.
    noise: f64,
    /// Probability of a burst (scene change) frame.
    burst_prob: f64,
    parallel_fraction: f64,
    /// Memory accesses per cycle of work.
    mem_per_cycle: f64,
}

impl GraphicsWorkload {
    /// Creates a workload from parts.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty or `fps_target` is not strictly positive.
    pub fn new(name: impl Into<String>, fps_target: f64, frames: FrameTrace) -> Self {
        assert!(fps_target > 0.0, "FPS target must be positive");
        assert!(!frames.is_empty(), "a graphics workload needs at least one frame");
        Self { name: name.into(), fps_target, frames }
    }

    /// Workload name (matches the labels of Figure 5).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Target frames per second for this workload.
    pub fn fps_target(&self) -> f64 {
        self.fps_target
    }

    /// Frame deadline in seconds implied by the FPS target.
    pub fn frame_deadline_s(&self) -> f64 {
        1.0 / self.fps_target
    }

    /// The per-frame demand trace.
    pub fn frames(&self) -> &[FrameDemand] {
        &self.frames
    }

    /// Number of frames in the trace.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the trace is empty (never true for generated workloads).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Generates the ten graphics workloads evaluated in Figure 5 of the paper.
    ///
    /// Workloads differ in average load (how close the GPU must run to its peak
    /// to meet the FPS target), variability and memory traffic, which is what
    /// produces the wide spread of achievable energy savings (5%–58%).
    pub fn figure5_suite(frames_per_workload: usize, seed: u64) -> Vec<GraphicsWorkload> {
        assert!(frames_per_workload > 0, "need at least one frame per workload");
        Self::figure5_specs()
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                Self::synthesize(spec, frames_per_workload, seed.wrapping_add(i as u64))
            })
            .collect()
    }

    /// Generates a Nenamark2-like trace for the Figure 2 frame-time-prediction
    /// experiment: moderate load with pronounced scene drift.
    pub fn nenamark2(frames: usize, seed: u64) -> GraphicsWorkload {
        let spec = GraphicsSpec {
            name: "Nenamark2",
            fps_target: 60.0,
            mean_gcycles: 1.5,
            drift: 0.35,
            noise: 0.05,
            burst_prob: 0.02,
            parallel_fraction: 0.88,
            mem_per_cycle: 0.015,
        };
        Self::synthesize(&spec, frames, seed)
    }

    fn synthesize(spec: &GraphicsSpec, frames: usize, seed: u64) -> GraphicsWorkload {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA5A5_5A5A_DEAD_BEEF);
        let mut trace = Vec::with_capacity(frames);
        for i in 0..frames {
            let phase = i as f64 / frames.max(1) as f64 * std::f64::consts::TAU * 3.0;
            let drift = 1.0 + spec.drift * phase.sin();
            let noise = 1.0 + rng.gen_range(-spec.noise..spec.noise);
            let burst = if rng.gen_bool(spec.burst_prob) { rng.gen_range(1.3..1.8) } else { 1.0 };
            let work = spec.mean_gcycles * 1e9 * drift * noise * burst;
            let mem = work * spec.mem_per_cycle * (1.0 + rng.gen_range(-0.1..0.1));
            trace.push(FrameDemand::new(work, spec.parallel_fraction, mem));
        }
        GraphicsWorkload::new(spec.name, spec.fps_target, trace)
    }

    fn figure5_specs() -> Vec<GraphicsSpec> {
        vec![
            GraphicsSpec {
                name: "3DMarkIceStorm",
                fps_target: 30.0,
                mean_gcycles: 4.2,
                drift: 0.20,
                noise: 0.06,
                burst_prob: 0.03,
                parallel_fraction: 0.92,
                mem_per_cycle: 0.020,
            },
            GraphicsSpec {
                name: "AngryBirds",
                fps_target: 60.0,
                mean_gcycles: 1.9,
                drift: 0.06,
                noise: 0.03,
                burst_prob: 0.01,
                parallel_fraction: 0.80,
                mem_per_cycle: 0.012,
            },
            GraphicsSpec {
                name: "AngryBots",
                fps_target: 30.0,
                mean_gcycles: 3.0,
                drift: 0.18,
                noise: 0.06,
                burst_prob: 0.03,
                parallel_fraction: 0.85,
                mem_per_cycle: 0.016,
            },
            GraphicsSpec {
                name: "EpicCitadel",
                fps_target: 30.0,
                mean_gcycles: 3.4,
                drift: 0.22,
                noise: 0.07,
                burst_prob: 0.04,
                parallel_fraction: 0.90,
                mem_per_cycle: 0.018,
            },
            GraphicsSpec {
                name: "FruitNinja",
                fps_target: 60.0,
                mean_gcycles: 1.2,
                drift: 0.15,
                noise: 0.05,
                burst_prob: 0.02,
                parallel_fraction: 0.82,
                mem_per_cycle: 0.012,
            },
            GraphicsSpec {
                name: "GFXBench-trex",
                fps_target: 30.0,
                mean_gcycles: 4.5,
                drift: 0.15,
                noise: 0.05,
                burst_prob: 0.02,
                parallel_fraction: 0.93,
                mem_per_cycle: 0.022,
            },
            GraphicsSpec {
                name: "JungleRun",
                fps_target: 60.0,
                mean_gcycles: 1.4,
                drift: 0.25,
                noise: 0.06,
                burst_prob: 0.03,
                parallel_fraction: 0.86,
                mem_per_cycle: 0.014,
            },
            GraphicsSpec {
                name: "SharkDash",
                fps_target: 60.0,
                mean_gcycles: 0.7,
                drift: 0.30,
                noise: 0.05,
                burst_prob: 0.02,
                parallel_fraction: 0.84,
                mem_per_cycle: 0.010,
            },
            GraphicsSpec {
                name: "TheChase",
                fps_target: 30.0,
                mean_gcycles: 3.8,
                drift: 0.20,
                noise: 0.06,
                burst_prob: 0.03,
                parallel_fraction: 0.91,
                mem_per_cycle: 0.020,
            },
            GraphicsSpec {
                name: "VendettaMark",
                fps_target: 30.0,
                mean_gcycles: 2.8,
                drift: 0.28,
                noise: 0.07,
                burst_prob: 0.04,
                parallel_fraction: 0.88,
                mem_per_cycle: 0.017,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_suite_has_ten_named_workloads() {
        let suite = GraphicsWorkload::figure5_suite(200, 9);
        assert_eq!(suite.len(), 10);
        let names: Vec<&str> = suite.iter().map(|w| w.name()).collect();
        assert!(names.contains(&"AngryBirds"));
        assert!(names.contains(&"SharkDash"));
        assert!(names.contains(&"GFXBench-trex"));
        assert!(suite.iter().all(|w| w.len() == 200));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = GraphicsWorkload::figure5_suite(100, 3);
        let b = GraphicsWorkload::figure5_suite(100, 3);
        assert_eq!(a, b);
        let c = GraphicsWorkload::figure5_suite(100, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn frame_demands_are_positive_and_clamped() {
        for w in GraphicsWorkload::figure5_suite(150, 11) {
            for f in w.frames() {
                assert!(f.work_cycles > 0.0);
                assert!((0.0..=1.0).contains(&f.parallel_fraction));
                assert!(f.memory_accesses >= 0.0);
            }
        }
    }

    #[test]
    fn nenamark_trace_has_visible_drift() {
        let w = GraphicsWorkload::nenamark2(600, 2);
        let works: Vec<f64> = w.frames().iter().map(|f| f.work_cycles).collect();
        let max = works.iter().cloned().fold(f64::MIN, f64::max);
        let min = works.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min > 1.3, "scene drift should modulate frame work noticeably");
        assert_eq!(w.fps_target(), 60.0);
        assert!((w.frame_deadline_s() - 1.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive work")]
    fn frame_demand_rejects_nonpositive_work() {
        let _ = FrameDemand::new(0.0, 0.5, 10.0);
    }
}
