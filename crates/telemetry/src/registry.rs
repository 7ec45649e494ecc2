//! Lock-cheap metrics registry.
//!
//! Hot paths hold an [`Arc`] handle to a [`Counter`], [`Gauge`] or
//! [`SketchCell`] and update it directly — counters and gauges are single
//! atomic ops, sketch cells take an uncontended per-metric mutex.
//! The registry's own mutex is touched only when a handle is looked up
//! (at attach time, once per scenario for the driver's per-policy decision
//! counter, and at run end) and at snapshot time, so instrumenting a hot
//! loop costs one atomic add per event. Snapshots are sorted by metric
//! identity, so the export is deterministic regardless of registration or
//! update interleaving.

use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::sketch::QuantileSketch;

/// A metric's identity: name plus sorted `key=value` labels.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetricId {
    /// Metric name, e.g. `driver_decisions_total`.
    pub name: String,
    /// Label pairs, sorted by key at construction.
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    /// Build an id; labels are sorted so `[("a","1"),("b","2")]` and
    /// `[("b","2"),("a","1")]` are the same metric.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        Self { name: name.to_string(), labels }
    }
}

/// Monotonic counter backed by a relaxed atomic.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins floating-point gauge (f64 bits in an atomic).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A [`QuantileSketch`] behind an uncontended per-metric mutex, with a
/// mutex-free side channel for zero-valued samples.
///
/// The zero channel exists for the contention observers: an uncontended lock
/// acquisition records a zero wait with one relaxed atomic add
/// ([`SketchCell::record_zero`]) instead of taking the sketch mutex — on a
/// hot site shared by many workers the cell's own mutex would otherwise
/// become the very serialization point it measures.  Deferred zeros are
/// folded into every [`SketchCell::snapshot`], so exports still see one
/// sample per event.
#[derive(Debug, Default)]
pub struct SketchCell {
    sketch: Mutex<QuantileSketch>,
    zeros: AtomicU64,
}

impl SketchCell {
    /// Record one value.
    pub fn record(&self, ns: u64) {
        self.sketch.lock().expect("sketch lock poisoned").record(ns);
    }

    /// Record one zero-valued sample with a single relaxed atomic add (no
    /// mutex). Folded into [`SketchCell::snapshot`].
    pub fn record_zero(&self) {
        self.zeros.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` zero-valued samples (relaxed, no mutex).
    pub fn record_zero_n(&self, n: u64) {
        if n > 0 {
            self.zeros.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Fold a locally-accumulated sketch in (one lock per batch, the
    /// preferred hot-path shape: accumulate per-worker, merge at the end).
    pub fn merge(&self, other: &QuantileSketch) {
        self.sketch.lock().expect("sketch lock poisoned").merge(other);
    }

    /// Snapshot the current sketch, deferred zero samples included.
    pub fn snapshot(&self) -> QuantileSketch {
        let mut sketch = self.sketch.lock().expect("sketch lock poisoned").clone();
        sketch.record_n(0, self.zeros.load(Ordering::Relaxed));
        sketch
    }
}

/// One registered metric (shared handle).
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Sketch(Arc<SketchCell>),
}

/// Metrics registry. Cloneable handles come out of the `counter` / `gauge` /
/// `sketch` accessors; re-registering the same `(name, labels)`
/// returns the existing handle, so any layer can look up a metric without
/// threading handles through APIs.
#[derive(Debug, Default)]
pub struct TelemetryRegistry {
    metrics: Mutex<HashMap<MetricId, Metric>>,
}

impl TelemetryRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The metric registered as `(name, labels)`, registering `make()` first
    /// if there is none.
    fn get_or_register(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let id = MetricId::new(name, labels);
        let mut metrics = self.metrics.lock().expect("registry lock poisoned");
        metrics.entry(id).or_insert_with(make).clone()
    }

    /// Get or register a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.get_or_register(name, labels, || Metric::Counter(Arc::default())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name} already registered as {other:?}"),
        }
    }

    /// Get or register a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.get_or_register(name, labels, || Metric::Gauge(Arc::default())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name} already registered as {other:?}"),
        }
    }

    /// Get or register a quantile sketch.
    pub fn sketch(&self, name: &str, labels: &[(&str, &str)]) -> Arc<SketchCell> {
        match self.get_or_register(name, labels, || Metric::Sketch(Arc::default())) {
            Metric::Sketch(s) => s,
            other => panic!("metric {name} already registered as {other:?}"),
        }
    }

    /// Deterministic point-in-time snapshot: metrics sorted by
    /// `(name, labels)` regardless of registration order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut sketches = Vec::new();
        for (id, metric) in self.metrics.lock().expect("registry lock poisoned").iter() {
            match metric {
                Metric::Counter(c) => counters.push((id.clone(), c.get())),
                Metric::Gauge(g) => gauges.push((id.clone(), g.get())),
                Metric::Sketch(s) => sketches.push((id.clone(), s.snapshot())),
            }
        }
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        sketches.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot { counters, gauges, histograms: Vec::new(), sketches }
    }
}

/// Deterministic point-in-time view of every registered metric, sorted by
/// identity. Produced by [`TelemetryRegistry::snapshot`]; consumed by the
/// exporters in [`crate::export`].
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// `(id, value)` for every counter.
    pub counters: Vec<(MetricId, u64)>,
    /// `(id, value)` for every gauge.
    pub gauges: Vec<(MetricId, f64)>,
    /// Always empty: every distribution is a sketch.  Only the benchmark
    /// under `perfbench/` reads it (its length); the field goes with that
    /// benchmark's next change.
    pub histograms: Vec<Infallible>,
    /// `(id, sketch)` for every quantile sketch.
    pub sketches: Vec<(MetricId, QuantileSketch)>,
}

impl MetricsSnapshot {
    /// Total number of metrics in the snapshot.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.sketches.len()
    }

    /// True when no metrics were registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value of a counter by name/labels, if registered.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let id = MetricId::new(name, labels);
        self.counters.iter().find(|(i, _)| *i == id).map(|(_, v)| *v)
    }

    /// Value of a gauge by name/labels, if registered.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let id = MetricId::new(name, labels);
        self.gauges.iter().find(|(i, _)| *i == id).map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn handles_are_shared_across_lookups() {
        let reg = TelemetryRegistry::new();
        let a = reg.counter("hits_total", &[("shard", "0")]);
        let b = reg.counter("hits_total", &[("shard", "0")]);
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(reg.snapshot().counter("hits_total", &[("shard", "0")]), Some(4));
    }

    #[test]
    fn label_order_is_canonicalised() {
        let reg = TelemetryRegistry::new();
        reg.counter("m", &[("b", "2"), ("a", "1")]).inc();
        assert_eq!(reg.snapshot().counter("m", &[("a", "1"), ("b", "2")]), Some(1));
    }

    #[test]
    fn snapshot_order_is_deterministic() {
        let reg = TelemetryRegistry::new();
        reg.counter("zz", &[]).inc();
        reg.counter("aa", &[("k", "2")]).inc();
        reg.counter("aa", &[("k", "1")]).inc();
        reg.gauge("mid", &[]).set(1.5);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(id, _)| id.name.as_str()).collect();
        assert_eq!(names, ["aa", "aa", "zz"]);
        assert_eq!(snap.counters[0].0.labels[0].1, "1");
        assert_eq!(snap.len(), 4);
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let reg = Arc::new(TelemetryRegistry::new());
        let mut handles = Vec::new();
        for w in 0..4 {
            let reg = Arc::clone(&reg);
            handles.push(thread::spawn(move || {
                let c = reg.counter("work_total", &[]);
                let s = reg.sketch("latency_ns", &[("worker", &w.to_string())]);
                for i in 0..1000u64 {
                    c.inc();
                    s.record(i);
                }
            }));
        }
        for h in handles {
            h.join().expect("worker panicked");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("work_total", &[]), Some(4000));
        assert_eq!(snap.sketches.len(), 4);
        assert!(snap.sketches.iter().all(|(_, s)| s.count() == 1000));
    }
}
