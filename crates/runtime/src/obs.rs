//! Observability plane re-export: the [`soclearn_telemetry`] registry, span
//! recorder and exporters, bundled as one [`Observability`] handle that the
//! driver and the fleet harness accept.
//!
//! The handle is two `Arc`s — cloning is cheap, and every layer that gets a
//! clone publishes into the same registry and span ring. Layers that are
//! not handed an `Observability` instrument nothing and pay nothing.

use std::sync::Arc;

pub use soclearn_telemetry::{
    sorted_quantile_ns, validate_prometheus, Counter, Gauge, MetricId, MetricsSnapshot,
    ObservedMutex, QuantileSketch, SketchCell, Span, SpanRecorder, TelemetryRegistry,
};

/// Shared handle on the observability plane: one metrics registry plus one
/// bounded span flight recorder. Pass clones to
/// [`ScenarioDriver::with_observability`](crate::ScenarioDriver::with_observability)
/// and friends; snapshot or export at the end of a run.
#[derive(Debug, Clone)]
pub struct Observability {
    /// The shared metrics registry.
    pub registry: Arc<TelemetryRegistry>,
    /// The shared span flight recorder.
    pub spans: Arc<SpanRecorder>,
}

impl Default for Observability {
    fn default() -> Self {
        Self::new()
    }
}

impl Observability {
    /// A fresh plane with an empty span ring. The span ring's
    /// own lock is contention-observed in the registry from birth (the
    /// `span_ring` site), so the flight recorder can never become an
    /// invisible serialization point.
    pub fn new() -> Self {
        let registry = Arc::new(TelemetryRegistry::new());
        let spans = Arc::new(SpanRecorder::default());
        spans.attach_contention(&registry);
        Self { registry, spans }
    }

    /// Deterministic snapshot of every registered metric. Refreshes
    /// `spans_dropped_total` first, so ring overflow is always visible in
    /// the export.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.spans.publish_stats(&self.registry);
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_plane() {
        let obs = Observability::new();
        let other = obs.clone();
        obs.registry.counter("shared_total", &[]).add(2);
        other.registry.counter("shared_total", &[]).inc();
        assert_eq!(obs.snapshot().counter("shared_total", &[]), Some(3));
        other.spans.record(Span::new("s", "t", 0, 0, 5));
        assert_eq!(obs.spans.len(), 1);
    }
}
