//! Integration tests of the `soclearn-runtime` serving subsystem: cached
//! Oracle answers must be bit-identical to per-call evaluation, the artifact
//! store must be deterministic across threads, and the scenario driver's
//! telemetry must be sane under a real multi-worker load.

use std::sync::Arc;

use soclearn_core::experiments::{offline_il_generalization, ExperimentScale};
use soclearn_core::prelude::*;
use soclearn_runtime::{scaled_suite, sequence_of, ArtifactStore};

#[test]
fn sweep_engine_matches_per_call_evaluation_bit_for_bit() {
    let platform = SocPlatform::odroid_xu3();
    let mut engine = SweepEngine::new(platform.clone());
    let reference = SocSimulator::new(platform.clone());
    let profiles = [
        SnippetProfile::compute_bound(100_000_000),
        SnippetProfile::memory_bound(100_000_000),
        SnippetProfile::compute_bound(100_000_000), // repeat → served from cache
    ];
    let objectives = [
        OracleObjective::Energy,
        OracleObjective::EnergyDelayProduct,
        OracleObjective::PerformancePerWatt,
    ];
    for objective in objectives {
        let before = engine.cache().stats();
        for profile in &profiles {
            let (config, execution) = engine.best(objective, profile);
            // The answer is the argmin over one evaluate_snippet call per
            // configuration.
            let per_call: Vec<_> = platform
                .configs()
                .into_iter()
                .map(|config| reference.evaluate_snippet(profile, config))
                .collect();
            let fresh = per_call[OracleSearch::new(objective).best_index(&per_call)];
            assert_eq!(config, fresh.config);
            assert_eq!(execution.energy_j.to_bits(), fresh.energy_j.to_bits());
            assert_eq!(execution.time_s.to_bits(), fresh.time_s.to_bits());
            assert_eq!(execution.counters, fresh.counters);
        }
        let after = engine.cache().stats();
        assert_eq!(after.misses - before.misses, 2, "{objective:?}: two distinct profiles");
        assert_eq!(after.hits - before.hits, 1, "{objective:?}: the repeated profile must hit");
    }

    // Oracle runs through the engine equal the reference implementation.
    for objective in objectives {
        let mut oracle_sim = SocSimulator::new(platform.clone());
        let reference_run = OracleRun::execute(&mut oracle_sim, &profiles, objective);
        engine.reset();
        let engine_run = engine.oracle_run(&profiles, objective);
        assert_eq!(engine_run, reference_run);
    }
}

#[test]
fn artifact_store_is_deterministic_across_threads() {
    let store = Arc::new(ArtifactStore::new());
    let platform = SocPlatform::small();
    let artifacts: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let store = Arc::clone(&store);
                let platform = platform.clone();
                scope.spawn(move || store.get_or_build(&platform, ExperimentScale::Quick))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("builder thread panicked"))
            .collect()
    });
    assert_eq!(store.builds(), 1, "six threads must share a single build");
    for other in &artifacts[1..] {
        assert!(Arc::ptr_eq(&artifacts[0], other));
    }
    // The shared build equals an isolated one, policy-for-policy.
    let isolated = TrainingArtifacts::build(platform, ExperimentScale::Quick);
    assert_eq!(artifacts[0].tree_policy, isolated.tree_policy);
    assert_eq!(artifacts[0].mlp_policy, isolated.mlp_policy);
    assert_eq!(
        artifacts[0].online_policy(OnlineIlConfig::default()),
        isolated.online_policy(OnlineIlConfig::default())
    );
}

#[test]
fn experiments_stay_deterministic_through_the_shared_store() {
    // Two invocations share the process-wide store (the second reuses every
    // artifact and memoised Oracle run) and must produce identical rows.
    let first = offline_il_generalization(ExperimentScale::Quick);
    let second = offline_il_generalization(ExperimentScale::Quick);
    assert_eq!(first, second);
}

#[test]
fn scenario_driver_telemetry_is_sane_under_four_workers() {
    let platform = SocPlatform::small();
    let artifacts = shared_artifacts(&platform, ExperimentScale::Quick);

    // Eight users across the three suites, several of them identical so the
    // shared sweep cache has something to deduplicate.
    let scenarios: Vec<ScenarioSpec> = (0..8)
        .map(|user| {
            let kind = match user % 3 {
                0 => SuiteKind::MiBench,
                1 => SuiteKind::Cortex,
                _ => SuiteKind::Parsec,
            };
            let benchmarks = scaled_suite(kind, ExperimentScale::Quick);
            let sequence = sequence_of(&benchmarks, kind);
            ScenarioSpec::from_sequence(format!("user-{user}"), &sequence)
        })
        .collect();
    let expected_decisions: usize = scenarios.iter().map(|s| s.decision_count()).sum();

    let driver = ScenarioDriver::new(platform.clone(), 4)
        .with_cache(Arc::clone(artifacts.sweep_cache()))
        .with_oracle_reference(OracleObjective::Energy);
    let telemetry = driver.run_stream_mixed(&SliceSource::new(&scenarios), |_, _| {
        SubstratePolicies::cpu_only(Box::new(
            artifacts
                .online_policy(OnlineIlConfig { buffer_capacity: 15, ..OnlineIlConfig::default() }),
        ))
    });

    assert_eq!(telemetry.scenarios, scenarios.len());
    assert_eq!(telemetry.decisions, expected_decisions);
    assert_eq!(telemetry.latency.count() as usize, expected_decisions);
    assert_eq!(telemetry.workers.len(), 4);
    assert_eq!(telemetry.workers.iter().map(|w| w.decisions).sum::<usize>(), telemetry.decisions);
    assert!(telemetry.total_energy_j > 0.0);
    assert!(telemetry.simulated_time_s > 0.0);
    assert!(telemetry.wall_seconds > 0.0);
    assert!(telemetry.decisions_per_second > 0.0);
    assert!(telemetry.latency.mean_ns() > 0.0);
    assert!(telemetry.latency.max_ns() >= telemetry.latency.mean_ns() as u64);
    let agreement = telemetry.oracle_agreement.expect("oracle reference requested");
    assert!(
        (0.0..=1.0).contains(&agreement) && agreement > 0.1,
        "pretrained online-IL should agree with the Oracle more than rarely ({agreement:.2})"
    );
    assert!(telemetry.cache.hits > 0, "repeated users must be served from the shared sweep cache");
}
