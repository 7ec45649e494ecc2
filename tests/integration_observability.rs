//! Integration tests of the observability plane: sketch/histogram merge
//! laws and observed-lock accounting invariants (property-based),
//! virtual-clock span-dump determinism across worker counts, and the
//! exporters (metrics JSON parses, Prometheus exposition lints, the fleet's
//! lock sites are named).

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use soclearn_core::prelude::*;
use soclearn_runtime::obs::{validate_prometheus, MetricId, ObservedMutex, TelemetryRegistry};
use soclearn_runtime::LatencyHistogram;
use soclearn_scenarios::{json, sorted_quantile_ns};

/// Durations spanning the sketch's exact range (< 32 ns), the log-linear
/// range and the multi-second tail: a selector byte picks the band, the raw
/// magnitude is folded into it (the offline proptest shim has no
/// `prop_oneof`).
fn durations_strategy() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec((0u8..3, 0u64..10_000_000_000), 0..64).prop_map(|raw| {
        raw.into_iter()
            .map(|(band, v)| match band {
                0 => v % 64,
                1 => 64 + v % 1_000_000,
                _ => v,
            })
            .collect()
    })
}

fn sketch_of(values: &[u64]) -> QuantileSketch {
    let mut sketch = QuantileSketch::new();
    for &v in values {
        sketch.record(v);
    }
    sketch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sketch merge is associative bit-for-bit: any merge tree over the same
    /// shards yields the identical sketch, so fleet aggregation order (and
    /// therefore worker count) can never show in exported quantiles.
    #[test]
    fn sketch_merge_is_associative(
        a in durations_strategy(),
        b in durations_strategy(),
        c in durations_strategy(),
    ) {
        let (sa, sb, sc) = (sketch_of(&a), sketch_of(&b), sketch_of(&c));
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        let mut right_tail = sb.clone();
        right_tail.merge(&sc);
        let mut right = sa.clone();
        right.merge(&right_tail);
        prop_assert!(left == right, "(a+b)+c != a+(b+c)");
        // Commutes too: aggregation is a free-for-all multiset union.
        let mut swapped = sb;
        swapped.merge(&sa);
        swapped.merge(&sc);
        prop_assert!(left == swapped, "merge is not commutative");
    }

    /// Merging per-shard sketches then taking a quantile matches recording
    /// the concatenation directly (exactly — merge is element-wise), and both
    /// stay within the sketch's relative-error bound of the exact
    /// `sorted_quantile_ns` ceiling-rank answer.
    #[test]
    fn merge_then_quantile_matches_concat_within_bound(
        a in durations_strategy(),
        b in durations_strategy(),
        q in 0.0f64..=1.0,
    ) {
        let mut merged = sketch_of(&a);
        merged.merge(&sketch_of(&b));
        let mut concat = a.clone();
        concat.extend_from_slice(&b);
        prop_assert!(merged == sketch_of(&concat), "merged parts != recorded concatenation");
        if !concat.is_empty() {
            concat.sort_unstable();
            let exact = sorted_quantile_ns(&concat, q);
            let approx = merged.quantile_ns(q);
            // The sketch returns the floor of the bucket holding the
            // ceiling-rank value; buckets are at most 1/32 wide relative to
            // their floor.
            prop_assert!(approx <= exact, "sketch {} above exact {}", approx, exact);
            prop_assert!(
                exact - approx <= exact / 16 + 1,
                "sketch {} too far below exact {}",
                approx,
                exact
            );
        }
    }

    /// The fixed-bucket latency histogram obeys the same merge laws.
    #[test]
    fn histogram_merge_is_associative(
        a in durations_strategy(),
        b in durations_strategy(),
        c in durations_strategy(),
    ) {
        let hist_of = |values: &[u64]| {
            let mut h = LatencyHistogram::new();
            for &v in values {
                h.record(v);
            }
            h
        };
        let mut left = hist_of(&a);
        left.merge(&hist_of(&b));
        left.merge(&hist_of(&c));
        let mut tail = hist_of(&b);
        tail.merge(&hist_of(&c));
        let mut right = hist_of(&a);
        right.merge(&tail);
        prop_assert!(left.buckets() == right.buckets(), "histogram merge not associative");
        prop_assert!(left.count() == right.count(), "histogram counts diverged");
        let mut concat = a.clone();
        concat.extend_from_slice(&b);
        concat.extend_from_slice(&c);
        concat.sort_unstable();
        let from_sorted = LatencyHistogram::from_sorted_ns(&concat);
        prop_assert!(
            left.buckets() == from_sorted.buckets(),
            "from_sorted_ns != merged parts"
        );
    }

    /// Observed-lock accounting is exact for any mix of pre-attach and
    /// post-attach locks: the acquisition counter sees every acquisition,
    /// the snapshotted wait sketch has exactly one sample per acquisition,
    /// and the hold sketch has exactly one sample per contended acquisition
    /// (none here — the sequence is single-threaded, so nothing ever
    /// blocks).
    #[test]
    fn observed_lock_accounting_is_exact(pre in 0u64..8, post in 0u64..16) {
        let registry = TelemetryRegistry::new();
        let lock = ObservedMutex::new("prop_site", 0u64);
        for _ in 0..pre {
            drop(lock.lock());
        }
        lock.attach(&registry);
        for _ in 0..post {
            *lock.lock() += 1;
        }
        let total = pre + post;
        let snap = registry.snapshot();
        prop_assert!(
            snap.counter("lock_acquisitions_total", &[("site", "prop_site")]) == Some(total),
            "acquisition counter must see every acquisition"
        );
        prop_assert!(
            snap.counter("lock_contended_total", &[("site", "prop_site")]) == Some(0),
            "single-threaded sequence must never contend"
        );
        let wait = snap
            .sketches
            .iter()
            .find(|(id, _)| id.name == "lock_wait_ns")
            .expect("wait sketch registered on attach");
        prop_assert!(wait.1.count() == total, "one wait sample per acquisition");
        prop_assert!(wait.1.sum_ns() == 0, "uncontended waits are zero samples");
        let hold = snap
            .sketches
            .iter()
            .find(|(id, _)| id.name == "lock_hold_ns")
            .expect("hold sketch registered on attach");
        prop_assert!(hold.1.count() == 0, "hold samples come only from contention");
    }

    /// Per-site wait sketches from independently attached registries merge
    /// associatively and commutatively, with counts adding — fleet-level
    /// aggregation of contention sites cannot depend on merge order.
    #[test]
    fn site_sketches_merge_associatively(
        a in 0u64..12,
        b in 0u64..12,
        c in 0u64..12,
    ) {
        let wait_sketch_of = |locks: u64| {
            let registry = TelemetryRegistry::new();
            let lock = ObservedMutex::new("merge_site", ());
            lock.attach(&registry);
            for _ in 0..locks {
                drop(lock.lock());
            }
            let snap = registry.snapshot();
            snap.sketches
                .iter()
                .find(|(id, _)| id.name == "lock_wait_ns")
                .expect("wait sketch registered")
                .1
                .clone()
        };
        let (sa, sb, sc) = (wait_sketch_of(a), wait_sketch_of(b), wait_sketch_of(c));
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        let mut tail = sb.clone();
        tail.merge(&sc);
        let mut right = sa.clone();
        right.merge(&tail);
        prop_assert!(left == right, "site sketch merge is not associative");
        let mut swapped = sc;
        swapped.merge(&sb);
        swapped.merge(&sa);
        prop_assert!(left == swapped, "site sketch merge is not commutative");
        prop_assert!(left.count() == a + b + c, "merged counts must add");
    }
}

/// Wait and hold samples are wall-clock measurements taken strictly inside
/// the run: with `n` threads hammering one attached site, every per-site
/// total is bounded by `n` times the enclosing wall span (hold ⊆ wall), and
/// the hold sketch counts exactly the contended acquisitions.
#[test]
fn lock_waits_and_holds_fit_inside_the_wall_span() {
    const THREADS: u64 = 4;
    const LOCKS_PER_THREAD: u64 = 300;
    let registry = TelemetryRegistry::new();
    let lock = Arc::new(ObservedMutex::new("walled", 0u64));
    lock.attach(&registry);
    let wall_start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..LOCKS_PER_THREAD {
                    let mut guard = lock.lock();
                    *guard += 1;
                    std::hint::black_box(&mut *guard);
                }
            });
        }
    });
    let wall_ns = wall_start.elapsed().as_nanos();
    assert_eq!(*lock.lock(), THREADS * LOCKS_PER_THREAD);

    let snap = registry.snapshot();
    let acquisitions = snap
        .counter("lock_acquisitions_total", &[("site", "walled")])
        .expect("acquisition counter");
    assert_eq!(acquisitions, THREADS * LOCKS_PER_THREAD + 1);
    let contended = snap
        .counter("lock_contended_total", &[("site", "walled")])
        .expect("contended counter");
    let wait = &snap
        .sketches
        .iter()
        .find(|(id, _)| id.name == "lock_wait_ns")
        .expect("wait sketch")
        .1;
    let hold = &snap
        .sketches
        .iter()
        .find(|(id, _)| id.name == "lock_hold_ns")
        .expect("hold sketch")
        .1;
    assert_eq!(wait.count(), acquisitions, "one wait sample per acquisition");
    assert_eq!(hold.count(), contended, "one hold sample per contended acquisition");
    // Each thread's waits and holds happen sequentially inside the wall
    // span, so the cross-thread totals are bounded by THREADS * wall.
    let budget = wall_ns * u128::from(THREADS);
    assert!(wait.sum_ns() <= budget, "total wait {} exceeds {}", wait.sum_ns(), budget);
    assert!(hold.sum_ns() <= budget, "total hold {} exceeds {}", hold.sum_ns(), budget);
}

/// A small deterministic queueing fleet on the virtual clock, instrumented
/// through a fresh observability plane.
fn instrumented_queueing_run(workers: usize) -> (Observability, FleetReport) {
    let platform = SocPlatform::small();
    let obs = Observability::new();
    let report =
        FleetStress::new(platform.clone(), ScenarioGenerator::standard(2020, 6), 18, workers)
            .with_schedule(ArrivalSchedule::Diurnal {
                period: Duration::from_secs(24 * 3_600),
                peak: Duration::from_secs(30 * 60),
                off_peak: Duration::from_secs(4 * 3_600),
            })
            .with_clock(Clock::virtual_clock())
            .with_queueing(QueueingConfig::new(3_600.0, 2))
            .with_observability(obs.clone())
            .run(|_, _| SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform))));
    (obs, report)
}

fn chrome_trace_of(obs: &Observability) -> Vec<u8> {
    assert_eq!(obs.spans.dropped(), 0, "flight recorder must not overflow in this test");
    let mut out = Vec::new();
    obs.spans.export_chrome_trace(&mut out).expect("chrome trace renders");
    out
}

/// The acceptance gate: virtual-clock span dumps are byte-identical at 1, 2
/// and 4 workers — spans are derived from schedule-relative queue stamps and
/// sorted by content, so worker interleaving cannot reach the bytes.
#[test]
fn span_dump_bit_identical_across_worker_counts() {
    let (obs1, report1) = instrumented_queueing_run(1);
    let (obs2, report2) = instrumented_queueing_run(2);
    let (obs4, report4) = instrumented_queueing_run(4);
    let dump1 = chrome_trace_of(&obs1);
    assert!(!dump1.is_empty() && !obs1.spans.is_empty(), "queueing run must record spans");
    assert_eq!(dump1, chrome_trace_of(&obs2), "1-worker and 2-worker span dumps diverged");
    assert_eq!(dump1, chrome_trace_of(&obs4), "1-worker and 4-worker span dumps diverged");
    // The sketch-backed queue percentiles share the determinism guarantee.
    let q1 = report1.queueing.expect("queueing on");
    let q2 = report2.queueing.expect("queueing on");
    let q4 = report4.queueing.expect("queueing on");
    assert_eq!(q1.sojourn, q2.sojourn);
    assert_eq!(q1.sojourn, q4.sojourn);
    assert_eq!(q1.p95_sojourn_s.to_bits(), q4.p95_sojourn_s.to_bits());
}

/// Same-configuration reruns reproduce the span dump bit-for-bit (the CI
/// determinism gate runs the `fleet_stress` flavour of this).
#[test]
fn span_dump_reproduces_across_runs() {
    let (first, _) = instrumented_queueing_run(4);
    let (second, _) = instrumented_queueing_run(4);
    assert_eq!(chrome_trace_of(&first), chrome_trace_of(&second));
}

/// Both text exporters hold up on a real instrumented run: the metrics JSON
/// parses with the workspace JSON parser and carries the driver counters, the
/// fleet's own lock site is registered by name, and the Prometheus exposition
/// passes the format lint.
#[test]
fn exporters_parse_and_lint() {
    let (obs, report) = instrumented_queueing_run(4);
    let snapshot = obs.snapshot();
    assert!(!snapshot.is_empty(), "instrumented run must register metrics");

    let json_text = snapshot.to_json();
    let parsed = json::parse(&json_text).expect("metrics JSON parses");
    let root = match &parsed {
        json::JsonValue::Object(map) => map,
        other => panic!("metrics root must be an object, got {other:?}"),
    };
    assert!(root.contains_key("counters"), "metrics JSON must carry a counters section");
    assert_eq!(
        snapshot.counter("driver_runs_total", &[]),
        Some(1),
        "the fleet run must publish through the registry"
    );
    let decisions: u64 = snapshot
        .counter("driver_decisions_total", &[("substrate", "cpu")])
        .expect("cpu decision counter registered");
    assert_eq!(decisions as usize, report.telemetry.decisions);
    assert_eq!(
        snapshot.counter("spans_dropped_total", &[]),
        Some(0),
        "the flight-recorder drop counter must be exported and zero"
    );
    // Every claim and stamp takes the queue model's lock, so the site must
    // register under its own name with real acquisitions and a wait sketch.
    let site = [("site", "fleet_queue_model")];
    let acquisitions = snapshot
        .counter("lock_acquisitions_total", &site)
        .expect("queue-model lock site registered");
    assert!(acquisitions > 0, "the queue model's lock was never taken");
    let wait_id = MetricId::new("lock_wait_ns", &site);
    let wait = &snapshot
        .sketches
        .iter()
        .find(|(id, _)| *id == wait_id)
        .expect("queue-model wait sketch registered")
        .1;
    assert_eq!(wait.count(), acquisitions, "one wait sample per acquisition");

    let prometheus = snapshot.to_prometheus();
    validate_prometheus(&prometheus).expect("Prometheus exposition lints");
}

/// Every lock site the serving stack names registers in the registry of a
/// run that takes it, with one wait sample per acquisition: the model
/// store's base, pending pool and family table, the fleet queue model and the
/// span ring.  (The Oracle reference takes no lock: it asks the Oracle
/// directly.)
#[test]
fn every_named_lock_site_registers() {
    let platform = SocPlatform::small();
    let artifacts = shared_artifacts(&platform, ExperimentScale::Quick);
    let store = Arc::new(TieredModelStore::with_defaults(&artifacts, OnlineIlConfig::default()));
    let obs = Observability::new();
    let fleet = FleetStress::new(platform.clone(), ScenarioGenerator::standard(2020, 6), 8, 1)
        .with_schedule(ArrivalSchedule::Constant { interval: Duration::from_secs(60) })
        .with_clock(Clock::virtual_clock())
        .with_queueing(QueueingConfig::new(1.0, 2))
        .with_oracle_reference(OracleObjective::Energy)
        .with_observability(obs.clone())
        .with_personalization(Arc::clone(&store));
    fleet.run(|i, _| SubstratePolicies::cpu_only(fleet.personalized_policy(i)));

    let snapshot = obs.snapshot();
    for site in [
        "model_store_base",
        "model_store_pending",
        "model_store_families",
        "fleet_queue_model",
        "span_ring",
    ] {
        let labels = [("site", site)];
        let acquisitions = snapshot.counter("lock_acquisitions_total", &labels).unwrap_or(0);
        assert!(acquisitions > 0, "lock site {site} registered no acquisition");
        let wait_id = MetricId::new("lock_wait_ns", &labels);
        let waits = snapshot
            .sketches
            .iter()
            .find(|(id, _)| *id == wait_id)
            .map_or(0, |(_, wait)| wait.count());
        assert_eq!(waits, acquisitions, "{site}: one wait sample per acquisition");
    }
}
