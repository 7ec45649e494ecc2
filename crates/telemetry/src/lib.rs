//! `soclearn-telemetry` — the fleet observability plane.
//!
//! Before this crate existed, every layer of the serving stack rolled its own
//! telemetry: the driver hand-summed per-worker structs, the fleet harness
//! sorted whole sojourn vectors to take percentiles, and the sweep cache
//! exposed one aggregated counter struct — three divergent paths, none of
//! them exportable, and all of the quantile math O(n) in the number of
//! arrivals (the recorded blocker on million-user fleets).  This crate
//! replaces them with one plane, in five layers:
//!
//! 1. [`Clock`] — the time seam (moved here from `soclearn-runtime`, which
//!    re-exports it at the old paths): wall time or a shared virtual
//!    discrete-event counter.  Arrival pacing, run durations and decision
//!    latencies read a `Clock`, so a virtual clock plays a multi-day
//!    schedule out in the milliseconds its decisions take to serve.
//! 2. The mergeable aggregate — [`QuantileSketch`] (log-linear HDR-style
//!    buckets with a documented relative-error bound), which holds every
//!    distribution the plane records: policy latencies, sojourns, queue
//!    delays and lock waits.  It is fixed-memory and its
//!    [`QuantileSketch::merge`] is **associative and commutative** (integer
//!    bucket adds), so shards aggregated in any order produce bit-identical
//!    results — the property that makes million-user fleet telemetry O(1)
//!    per user.
//! 3. [`TelemetryRegistry`] — a lock-cheap metrics registry of
//!    [`Counter`]s, [`Gauge`]s and sketches.  Handles are `Arc`s
//!    updated with atomics; the registry mutex is touched only at
//!    registration and snapshot time.  [`MetricsSnapshot`] exports to a
//!    deterministic JSON document and to the Prometheus text exposition
//!    format (with [`validate_prometheus`] as the lint CI gates on).
//! 4. [`SpanRecorder`] — a bounded flight-recorder ring buffer of
//!    [`Span`]s, exported as chrome://tracing JSON.  Span timestamps come
//!    from schedule-relative queue stamps or arrival offsets, never from a
//!    clock reading, and the export sorts spans by content, so a
//!    virtual-clock run dumps byte-identical traces at any worker count (as
//!    long as the ring never overflows — overflow is counted, never silent,
//!    and exported as the `spans_dropped_total` counter).
//! 5. Contention profiling — [`ObservedMutex`] gives every shared lock a
//!    named site recording acquisitions, wait and hold time into registry
//!    sketches, so where a fleet run serializes is read straight from the
//!    registry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod contention;
pub mod export;
pub mod registry;
pub mod sketch;
pub mod span;

pub use clock::Clock;
pub use contention::ObservedMutex;
pub use export::validate_prometheus;
pub use registry::{Counter, Gauge, MetricId, MetricsSnapshot, SketchCell, TelemetryRegistry};
pub use sketch::{sorted_quantile_ns, QuantileSketch};
pub use span::{Span, SpanRecorder};
