//! Integration tests of the `soclearn-scenarios` subsystem: generator
//! determinism across threads, trace record → replay bit-identity through the
//! JSONL encoding, streaming-source parity with the pre-materialised driver
//! path, the virtual-clock fleet path (a full simulated day of diurnal
//! arrivals must drain in under a second of wall time with deterministic
//! telemetry), and online-IL against the production governors on generated
//! families it never saw at design time.

use std::time::{Duration, Instant};

use soclearn_core::prelude::*;
use soclearn_scenarios::Trace;

#[test]
fn generator_is_deterministic_across_threads() {
    let reference: Vec<ScenarioSpec> = ScenarioGenerator::standard(77, 8).scenarios(12);
    let worker_views: Vec<Vec<ScenarioSpec>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|worker| {
                scope.spawn(move || {
                    let generator = ScenarioGenerator::standard(77, 8);
                    // Each thread generates in a different order.
                    let mut indices: Vec<usize> = (0..12).collect();
                    if worker % 2 == 1 {
                        indices.reverse();
                    }
                    let mut out = vec![None; 12];
                    for i in indices {
                        out[i] = Some(generator.scenario(i));
                    }
                    out.into_iter().map(Option::unwrap).collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    for view in worker_views {
        assert_eq!(view, reference, "every thread must see the identical scenario set");
    }
}

#[test]
fn trace_record_replay_round_trip_is_bit_identical() {
    let platform = SocPlatform::small();
    let generator = ScenarioGenerator::standard(13, 6);
    let scenarios = generator.scenarios(6);
    let driver =
        ScenarioDriver::new(platform.clone(), 3).with_oracle_reference(OracleObjective::Energy);
    let (telemetry, records) = driver.run_recorded_mixed(&SliceSource::new(&scenarios), |_, _| {
        SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform)))
    });
    assert_eq!(records.len(), 6);

    // Serialise → parse: the decoded trace equals the recorded one exactly.
    let trace = Trace::from_records(&records);
    let decoded = Trace::from_jsonl(&trace.to_jsonl()).expect("trace parses");
    assert_eq!(decoded, trace);

    // Replay each decoded scenario: bit-identical telemetry, and the summed
    // energy reproduces the driver's total.
    let mut replayed_energy = 0.0;
    for scenario in &decoded.scenarios {
        let report = replay(scenario, &platform);
        assert!(
            report.bit_identical,
            "replay of {} diverged at {:?}",
            scenario.name, report.first_divergence
        );
        replayed_energy += report.total_energy_j;
    }
    assert!((replayed_energy - telemetry.total_energy_j).abs() < 1e-9);
}

#[test]
fn streaming_driver_matches_the_materialised_path() {
    let platform = SocPlatform::small();
    let generator = std::sync::Arc::new(ScenarioGenerator::standard(5, 6));
    let materialised = generator.scenarios(8);
    // One worker: deterministic claiming order, so totals must be bit-exact.
    let driver = ScenarioDriver::new(platform.clone(), 1);
    let sliced = driver.run_stream_mixed(&SliceSource::new(&materialised), |_, _| {
        SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform)))
    });
    let source = FleetSource::new(std::sync::Arc::clone(&generator), 8, ArrivalSchedule::Immediate);
    let streamed = driver.run_stream_mixed(&source, |_, _| {
        SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform)))
    });
    assert_eq!(streamed.scenarios, sliced.scenarios);
    assert_eq!(streamed.decisions, sliced.decisions);
    assert_eq!(streamed.total_energy_j.to_bits(), sliced.total_energy_j.to_bits());
    assert_eq!(streamed.simulated_time_s.to_bits(), sliced.simulated_time_s.to_bits());

    // Multi-worker: same scenario/decision counts, energies equal up to
    // summation order.
    let driver = ScenarioDriver::new(platform.clone(), 4);
    let source = FleetSource::new(std::sync::Arc::clone(&generator), 8, ArrivalSchedule::Immediate);
    let concurrent = driver.run_stream_mixed(&source, |_, _| {
        SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform)))
    });
    assert_eq!(concurrent.scenarios, sliced.scenarios);
    assert_eq!(concurrent.decisions, sliced.decisions);
    assert!((concurrent.total_energy_j - sliced.total_energy_j).abs() < 1e-9);
}

/// Long-horizon regression: a diurnal arrival schedule spanning more than 24
/// simulated hours completes in well under a second of wall time on the
/// virtual clock, and a same-seed rerun reproduces the per-family telemetry
/// and the recorded decision stream bit-for-bit (the aggregations are in
/// scenario-index order, so this holds at any worker count).
#[test]
fn day_long_diurnal_fleet_compresses_to_subsecond_wall_time() {
    let day = |_| {
        FleetStress::new(SocPlatform::small(), ScenarioGenerator::standard(2020, 6), 36, 4)
            .with_schedule(ArrivalSchedule::Diurnal {
                period: Duration::from_secs(24 * 3_600),
                peak: Duration::from_secs(600),
                off_peak: Duration::from_secs(3 * 3_600),
            })
            .with_clock(Clock::virtual_clock())
            .run(|_, _| {
                SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&SocPlatform::small())))
            })
    };
    let wall = Instant::now();
    let reference = day(0);
    let elapsed = wall.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "a simulated day must not take {:.2}s of wall time",
        elapsed.as_secs_f64()
    );
    assert!(
        reference.telemetry.wall_seconds >= 24.0 * 3_600.0,
        "the schedule must span a full simulated day, got {:.1}h",
        reference.telemetry.wall_seconds / 3_600.0
    );
    assert_eq!(reference.telemetry.scenarios, 36);
    assert_eq!(reference.families.len(), 4);

    // Same-seed rerun: per-family aggregates and the recorded stream match
    // the reference bit-for-bit.
    let rerun = day(1);
    assert_eq!(rerun.telemetry.wall_seconds.to_bits(), reference.telemetry.wall_seconds.to_bits());
    for (a, b) in rerun.families.iter().zip(&reference.families) {
        assert_eq!(a.family, b.family);
        assert_eq!(a.scenarios, b.scenarios);
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits(), "family {} energy", a.family);
        assert_eq!(a.time_s.to_bits(), b.time_s.to_bits(), "family {} time", a.family);
    }
    assert_eq!(rerun.records, reference.records);
    // The recorded traces are byte-identical, which is what the CI
    // determinism gate checks end to end through the fleet_stress example.
    assert_eq!(
        Trace::from_records(&rerun.records).to_jsonl(),
        Trace::from_records(&reference.records).to_jsonl()
    );
}

/// Online-IL, bootstrapped on the Mi-Bench-like training suite, must use less
/// energy than both production governors on at least one generated family,
/// served as `fleet_stress` serves it.
#[test]
fn online_il_beats_both_governors_on_a_generated_family() {
    let platform = SocPlatform::odroid_xu3();
    let artifacts = shared_artifacts(&platform, ExperimentScale::Quick);
    let il_config = OnlineIlConfig { buffer_capacity: 15, neighbourhood_radius: 2 };
    let fleet = FleetStress::new(platform, ScenarioGenerator::standard(2020, 10), 12, 2);
    let (_, _, [vs_ondemand, vs_interactive]) = fleet.run_against_governors(|_, _| {
        SubstratePolicies::cpu_only(Box::new(artifacts.online_policy(il_config)))
    });
    assert_eq!(vs_ondemand.len(), 4, "the standard generator has four families");
    assert_eq!(vs_interactive.len(), 4);
    let il_wins = vs_ondemand
        .iter()
        .zip(&vs_interactive)
        .filter(|(od, ia)| od.ratio() < 1.0 && ia.ratio() < 1.0)
        .count();
    assert!(
        il_wins >= 1,
        "online-IL should beat both governors on some family:\n{vs_ondemand:?}\n{vs_interactive:?}"
    );
}
