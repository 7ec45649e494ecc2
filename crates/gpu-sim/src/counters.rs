//! Per-frame GPU performance counters.
//!
//! The paper's GPU performance and sensitivity models (Sections III-B and
//! IV-B) take a small subset of the available counters as input; these are the
//! equivalents exposed by the simulator after every frame.

use serde::Serialize;

/// Counters observed while rendering one frame.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct GpuFrameCounters {
    /// GPU cycles spent doing useful work (across all active slices).
    pub busy_cycles: f64,
    /// GPU frequency the frame rendered at, Hz.
    pub frequency_hz: f64,
    /// Number of active (powered) slices.
    pub active_slices: u32,
    /// GPU busy fraction of the frame period, in `[0, 1]`.
    pub utilization: f64,
    /// External memory accesses issued during the frame.
    pub memory_accesses: f64,
    /// Frame rendering time, seconds.
    pub frame_time_s: f64,
    /// GPU power averaged over the frame period, watts.
    pub gpu_power_w: f64,
}

impl GpuFrameCounters {
    /// Number of entries in [`GpuFrameCounters::feature_vector`].
    pub const FEATURE_DIM: usize = 5;

    /// Feature vector used by the online frame-time and sensitivity models:
    /// work per frame, reciprocal frequency, slice reciprocal, memory traffic
    /// and utilization.  The reciprocals make the frame-time relationship close
    /// to linear, which is what lets RLS track it accurately.
    pub fn feature_vector(&self) -> Vec<f64> {
        vec![
            self.busy_cycles / 1e9,
            1e9 / self.frequency_hz.max(1.0),
            1.0 / self.active_slices.max(1) as f64,
            self.memory_accesses / 1e7,
            self.utilization,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_vector_has_documented_width_and_is_finite() {
        let c = GpuFrameCounters {
            busy_cycles: 4.2e9,
            frequency_hz: 0.7e9,
            active_slices: 2,
            utilization: 0.8,
            memory_accesses: 6.0e7,
            frame_time_s: 0.02,
            gpu_power_w: 3.1,
        };
        let f = c.feature_vector();
        assert_eq!(f.len(), GpuFrameCounters::FEATURE_DIM);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn default_counters_do_not_produce_nan_features() {
        let f = GpuFrameCounters::default().feature_vector();
        assert!(f.iter().all(|v| v.is_finite()));
    }
}
