//! Integration tests of service-time queueing in the virtual clock: Little's
//! law consistency of the queue bookkeeping, utilisation tracking offered
//! load from underload through saturation, bit-identical queueing telemetry
//! at any worker count, and the trace layer — the committed v1, v2 and v3
//! golden fixtures still replaying bit-identically next to the queue-stamp
//! round trip.

use std::time::Duration;

use soclearn_core::prelude::*;
use soclearn_scenarios::trace::TRACE_VERSION;

fn platform() -> SocPlatform {
    SocPlatform::small()
}

fn generator() -> ScenarioGenerator {
    ScenarioGenerator::standard(2020, 6)
}

/// Runs a queueing fleet of `users` single-slot arrivals spaced `interval`
/// apart on a virtual clock and returns its report.
fn constant_rate_fleet(users: usize, workers: usize, interval: Duration) -> FleetReport {
    FleetStress::new(platform(), generator(), users, workers)
        .with_schedule(ArrivalSchedule::Constant { interval })
        .with_clock(Clock::virtual_clock())
        .with_queueing(QueueingConfig::new(1.0, 1))
        .run(|_, _| SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform()))))
}

/// Mean service time per scenario, probed from an immediate-admission fleet.
fn mean_service_s(users: usize) -> f64 {
    let report = FleetStress::new(platform(), generator(), users, 2)
        .with_clock(Clock::virtual_clock())
        .with_queueing(QueueingConfig::new(1.0, 1))
        .run(|_, _| SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform()))));
    let queueing = report.queueing.expect("queueing was enabled");
    queueing.total_service_s / queueing.arrivals as f64
}

/// Little's law as a consistency lock on the stamp bookkeeping: the
/// time-average number in system, integrated independently from the
/// arrival/completion events, must equal both the reported `mean_backlog`
/// and `arrival_rate × mean_sojourn`.
#[test]
fn littles_law_holds_on_a_constant_rate_fleet() {
    let users = 24;
    let interval = Duration::from_secs_f64(mean_service_s(users) * 1.5);
    let report = constant_rate_fleet(users, 2, interval);
    let queueing = report.queueing.expect("queueing was enabled");

    // Independent event-sweep integration of N(t) over the span.
    let stamps: Vec<QueueStamp> = report
        .records
        .iter()
        .map(|r| r.queue.expect("every record is stamped"))
        .collect();
    let mut events: Vec<(u64, i64)> = Vec::new();
    for stamp in &stamps {
        events.push((stamp.arrival_ns, 1));
        events.push((stamp.completion_ns, -1));
    }
    events.sort_unstable();
    let first_arrival = stamps.iter().map(|s| s.arrival_ns).min().unwrap();
    let last_completion = stamps.iter().map(|s| s.completion_ns).max().unwrap();
    let mut in_system = 0i64;
    let mut weighted_ns = 0u128;
    let mut previous = first_arrival;
    for (at, delta) in events {
        weighted_ns += u128::from(at - previous) * in_system.max(0) as u128;
        in_system += delta;
        previous = at;
    }
    let span_ns = last_completion - first_arrival;
    let integrated_backlog = weighted_ns as f64 / span_ns as f64;

    let little = queueing.arrival_rate_per_s * queueing.mean_sojourn_s;
    assert!(
        (integrated_backlog - queueing.mean_backlog).abs() < 1e-9 * queueing.mean_backlog.max(1.0),
        "event-integrated backlog {integrated_backlog} vs reported {}",
        queueing.mean_backlog
    );
    assert!(
        (little - queueing.mean_backlog).abs() < 1e-6 * queueing.mean_backlog.max(1.0),
        "L = λW violated: λW = {little}, L = {}",
        queueing.mean_backlog
    );
    assert!(queueing.mean_backlog > 0.0);
}

/// Pushing the same fleet harder never lowers utilisation.
#[test]
fn utilisation_is_monotone_in_offered_load() {
    let users = 20;
    let mean_service = mean_service_s(users);
    let utilisations: Vec<f64> = [8.0, 4.0, 2.0, 1.0, 0.5]
        .iter()
        .map(|&spacing| {
            let interval = Duration::from_secs_f64(mean_service * spacing);
            let report = constant_rate_fleet(users, 2, interval);
            report.queueing.expect("queueing was enabled").utilisation
        })
        .collect();
    for pair in utilisations.windows(2) {
        assert!(pair[1] >= pair[0] - 1e-12, "utilisation fell while load rose: {utilisations:?}");
    }
    assert!(*utilisations.first().unwrap() < *utilisations.last().unwrap());
}

/// Underload: utilisation matches the offered load within 5% and arrivals
/// barely queue.  Saturation: utilisation ≥ 0.95 and the queueing delay grows
/// as the backlog builds.
#[test]
fn utilisation_tracks_offered_load_from_underload_to_saturation() {
    let users = 40;
    let mean_service = mean_service_s(users);

    // Underloaded: arrivals spaced six mean services apart.
    let interval = Duration::from_secs_f64(mean_service * 6.0);
    let report = constant_rate_fleet(users, 2, interval);
    let queueing = report.queueing.as_ref().expect("queueing was enabled");
    let offered_load = queueing.total_service_s / (users as f64 * interval.as_secs_f64());
    let relative = (queueing.utilisation - offered_load).abs() / offered_load;
    assert!(
        relative < 0.05,
        "underloaded utilisation {:.4} must track offered load {:.4} (off by {:.1}%)",
        queueing.utilisation,
        offered_load,
        relative * 100.0
    );
    assert!(
        queueing.mean_queue_delay_s < 0.05 * mean_service,
        "an underloaded fleet must not queue: mean delay {:.6}s vs mean service {:.6}s",
        queueing.mean_queue_delay_s,
        mean_service
    );
    // Near-zero sojourn: time in system is essentially the service itself.
    assert!(queueing.mean_sojourn_s < 1.1 * queueing.total_service_s / users as f64);

    // Saturated: arrivals ten times faster than the server drains.
    let interval = Duration::from_secs_f64(mean_service / 10.0);
    let report = constant_rate_fleet(users, 2, interval);
    let queueing = report.queueing.as_ref().expect("queueing was enabled");
    assert!(
        queueing.utilisation >= 0.95,
        "a saturated fleet must be busy: utilisation {:.4}",
        queueing.utilisation
    );
    let delays: Vec<f64> = report
        .records
        .iter()
        .map(|r| r.queue.expect("stamped").delay_ns() as f64 / 1e9)
        .collect();
    let quarter = users / 4;
    let early: f64 = delays[..quarter].iter().sum::<f64>() / quarter as f64;
    let late: f64 = delays[users - quarter..].iter().sum::<f64>() / quarter as f64;
    assert!(
        late > early * 2.0,
        "queueing delay must grow under saturation: early {early:.4}s, late {late:.4}s"
    );
    assert!(queueing.max_queue_depth > 1, "saturation must build a backlog");
    assert!(queueing.p99_sojourn_s >= queueing.p50_sojourn_s);
}

/// The whole queueing telemetry surface — per-family aggregates, the queue
/// report, the recorded stamps, the driver's sojourn sketches — is
/// bit-identical across 1, 2 and 4 workers on the virtual clock.
#[test]
fn queueing_telemetry_is_bit_identical_across_worker_counts() {
    let run = |workers| {
        FleetStress::new(platform(), generator(), 16, workers)
            .with_schedule(ArrivalSchedule::Markov {
                calm: Duration::from_millis(400),
                storm: Duration::from_millis(5),
                persistence: 0.8,
                seed: 11,
            })
            .with_clock(Clock::virtual_clock())
            .with_queueing(QueueingConfig::new(1.0, 4))
            .with_oracle_reference(OracleObjective::Energy)
            .run(|_, _| SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform()))))
    };
    let reference = run(1);
    for workers in [2, 4] {
        let report = run(workers);
        assert_eq!(report.records, reference.records, "{workers} workers");
        assert_eq!(report.queueing, reference.queueing, "{workers} workers");
        for (a, b) in report.families.iter().zip(&reference.families) {
            assert_eq!(a.family, b.family);
            assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits(), "family {}", a.family);
            assert_eq!(a.service_s.to_bits(), b.service_s.to_bits(), "family {}", a.family);
            assert_eq!(a.busy_fraction.to_bits(), b.busy_fraction.to_bits(), "family {}", a.family);
            assert_eq!(
                a.mean_sojourn_s.to_bits(),
                b.mean_sojourn_s.to_bits(),
                "family {}",
                a.family
            );
            assert_eq!(a.p95_sojourn_s.to_bits(), b.p95_sojourn_s.to_bits(), "family {}", a.family);
        }
        assert_eq!(report.telemetry.sojourn, reference.telemetry.sojourn, "{workers} workers");
        assert_eq!(
            report.telemetry.queue_delay, reference.telemetry.queue_delay,
            "{workers} workers"
        );
        // With queueing stamps present, wall_seconds derives from the
        // deterministic max-completion horizon, not the racy shared clock —
        // bit-stable at any worker count.
        assert_eq!(
            report.telemetry.wall_seconds.to_bits(),
            reference.telemetry.wall_seconds.to_bits(),
            "{workers} workers: wall_seconds must come from the stamp horizon"
        );
        // And the serialised v2 traces are byte-identical — the property the
        // CI determinism gate checks end to end.
        assert_eq!(
            Trace::from_records(&report.records).to_jsonl(),
            Trace::from_records(&reference.records).to_jsonl()
        );
    }
    // The family busy fractions decompose the fleet utilisation.
    let queueing = reference.queueing.expect("queueing was enabled");
    let summed: f64 = reference.families.iter().map(|f| f.busy_fraction).sum();
    assert!((summed - queueing.utilisation).abs() < 1e-9);
}

/// Claiming arrivals in index order behind every queueing fleet reproduces the
/// pure per-user FIFO reference exactly, at 1, 2 and 4 workers: feeding the
/// recorded arrival/service sequences through [`fifo_stamps`] yields the very
/// stamps the fleet recorded, and the aggregated `QueueReport` is identical
/// across worker counts.
#[test]
fn fleet_stamps_match_the_fifo_reference_at_any_worker_count() {
    let user_slots = 3;
    let run = |workers| {
        FleetStress::new(platform(), generator(), 30, workers)
            .with_schedule(ArrivalSchedule::Bursty { burst: 5, gap: Duration::from_millis(120) })
            .with_clock(Clock::virtual_clock())
            .with_queueing(QueueingConfig::new(1.0, user_slots))
            .run(|_, _| SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform()))))
    };
    let reference = run(1);
    for workers in [1, 2, 4] {
        let report = run(workers);
        let stamps: Vec<QueueStamp> = report
            .records
            .iter()
            .map(|r| r.queue.expect("queueing stamps every record"))
            .collect();
        let arrivals: Vec<u64> = stamps.iter().map(|s| s.arrival_ns).collect();
        let services: Vec<u64> = stamps.iter().map(|s| s.service_ns).collect();
        assert!(
            arrivals.windows(2).all(|w| w[0] <= w[1]),
            "{workers} workers: the fleet must admit arrivals in schedule order"
        );
        let expected = fifo_stamps(&arrivals, &services, user_slots);
        assert_eq!(stamps, expected, "{workers} workers diverged from the FIFO reference");
        assert_eq!(report.queueing, reference.queueing, "{workers} workers");
        assert_eq!(report.records, reference.records, "{workers} workers");
    }
}

/// The committed v1 golden trace still parses and replays bit-identically
/// under the v3 code — pinning backward compatibility instead of implying it.
#[test]
fn golden_v1_trace_still_replays_bit_identically() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/trace_v1.jsonl");
    let jsonl = std::fs::read_to_string(path).expect("committed golden fixture exists");
    assert!(jsonl.starts_with("{\"format\":\"soclearn-trace\",\"version\":1"));
    let trace = Trace::from_jsonl(&jsonl).expect("v1 golden trace parses");
    assert_eq!(trace.scenarios.len(), 2);
    assert_eq!(trace.scenarios[0].name, "golden-alpha");
    let platform = platform();
    for scenario in &trace.scenarios {
        assert!(scenario.queue.is_none(), "v1 traces carry no queue stamps");
        let report = replay(scenario, &platform);
        assert!(
            report.bit_identical,
            "golden v1 replay of {} diverged at {:?}",
            scenario.name, report.first_divergence
        );
    }
    // Re-encoding upgrades to the current version and still round-trips.
    assert_eq!(TRACE_VERSION, 3);
    let upgraded = trace.to_jsonl();
    assert!(upgraded.starts_with("{\"format\":\"soclearn-trace\",\"version\":3"));
    assert_eq!(Trace::from_jsonl(&upgraded).expect("upgraded trace parses"), trace);
}

/// The committed v2 golden trace — queue stamps, kind-less CPU decision lines
/// — still parses and replays bit-identically under the v3 code.
#[test]
fn golden_v2_trace_still_replays_bit_identically() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/trace_v2.jsonl");
    let jsonl = std::fs::read_to_string(path).expect("committed golden fixture exists");
    assert!(jsonl.starts_with("{\"format\":\"soclearn-trace\",\"version\":2"));
    let trace = Trace::from_jsonl(&jsonl).expect("v2 golden trace parses");
    assert_eq!(trace.scenarios.len(), 2);
    assert!(trace.scenarios[0].name.starts_with("bursty-compute-"));
    let platform = platform();
    for scenario in &trace.scenarios {
        assert!(scenario.queue.is_some(), "the v2 fixture was recorded with queueing");
        let report = replay(scenario, &platform);
        assert!(
            report.bit_identical,
            "golden v2 replay of {} diverged at {:?}",
            scenario.name, report.first_divergence
        );
    }
    // Re-encoding upgrades to v3 (kind-tagged decisions) and round-trips,
    // with the queue stamps intact.
    let upgraded = trace.to_jsonl();
    assert!(upgraded.starts_with("{\"format\":\"soclearn-trace\",\"version\":3"));
    assert!(upgraded.contains("\"kind\":\"cpu\""));
    let reparsed = Trace::from_jsonl(&upgraded).expect("upgraded trace parses");
    assert_eq!(reparsed, trace);
    assert_eq!(
        reparsed.scenarios[0].queue, trace.scenarios[0].queue,
        "queue stamps survive the upgrade bit-for-bit"
    );
}

/// The committed v3 golden trace — a six-user mixed fleet
/// (`fleet_stress --substrates all --virtual-clock --users 6`) with CPU, GPU
/// and NoC decision lines — parses, replays bit-identically on the
/// Odroid-XU3 platform it was recorded on, and re-encodes to the committed
/// bytes.
#[test]
fn golden_v3_trace_replays_and_reencodes_byte_for_byte() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/trace_v3.jsonl");
    let jsonl = std::fs::read_to_string(path).expect("committed golden fixture exists");
    assert!(jsonl.starts_with("{\"format\":\"soclearn-trace\",\"version\":3"));
    let trace = Trace::from_jsonl(&jsonl).expect("v3 golden trace parses");
    assert_eq!(trace.scenarios.len(), 6);
    let decisions = trace.scenarios.iter().flat_map(|s| &s.decisions);
    for kind in DecisionKind::ALL {
        assert!(decisions.clone().any(|d| d.kind() == kind), "the fixture has {kind:?} lines");
    }
    let platform = SocPlatform::odroid_xu3();
    for scenario in &trace.scenarios {
        let report = replay(scenario, &platform);
        assert!(
            report.bit_identical,
            "golden v3 replay of {} diverged at {:?}",
            scenario.name, report.first_divergence
        );
    }
    assert_eq!(trace.to_jsonl(), jsonl, "re-encoding reproduces the committed bytes");
}

/// v2 round trip over a queueing fleet: encode → decode → replay, with the
/// queue stamps surviving the codec exactly.
#[test]
fn v2_queueing_trace_round_trips_and_replays() {
    let report = FleetStress::new(platform(), generator(), 8, 2)
        .with_schedule(ArrivalSchedule::Constant { interval: Duration::from_millis(50) })
        .with_clock(Clock::virtual_clock())
        .with_queueing(QueueingConfig::new(1.0, 2))
        .run(|_, _| SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform()))));
    let trace = Trace::from_records(&report.records);
    assert!(trace.scenarios.iter().all(|s| s.queue.is_some()), "queueing stamps every scenario");

    let encoded = trace.to_jsonl();
    let decoded = Trace::from_jsonl(&encoded).expect("v2 trace parses");
    assert_eq!(decoded, trace);
    assert_eq!(decoded.to_jsonl(), encoded, "re-encoding is byte-stable");

    let platform = platform();
    for (scenario, record) in decoded.scenarios.iter().zip(&report.records) {
        assert_eq!(scenario.queue, record.queue, "stamps survive the codec bit-for-bit");
        let report = replay(scenario, &platform);
        assert!(
            report.bit_identical,
            "replay of {} diverged at {:?}",
            scenario.name, report.first_divergence
        );
    }
}
