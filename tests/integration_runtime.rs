//! Integration tests of the `soclearn-runtime` serving subsystem: cached
//! Oracle answers must be bit-identical to per-call evaluation, the artifact
//! store must be deterministic across threads, and the scenario driver's
//! telemetry must be sane under a real multi-worker load.

use std::sync::Arc;

use soclearn_core::experiments::{offline_il_generalization, ExperimentScale};
use soclearn_core::prelude::*;
use soclearn_runtime::{scaled_suite, sequence_of, ArtifactStore, SweepCacheStats};

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
            // The answer is the first-best argmin over one evaluate_snippet
            // call per configuration, in configuration order.
            let fresh =
                platform
                    .configs()
                    .into_iter()
                    .map(|config| reference.evaluate_snippet(profile, config))
                    .reduce(|best, next| {
                        if objective.score(&next) < objective.score(&best) {
                            next
                        } else {
                            best
                        }
                    })
                    .expect("the platform has configurations");
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
    // Two invocations share the process-wide store (the second reuses the
    // trained artifacts and runs its own Oracle) and must produce identical
    // rows.
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

    let driver =
        ScenarioDriver::new(platform.clone(), 4).with_oracle_reference(OracleObjective::Energy);
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

/// The sweep cache's bookkeeping on a cold fleet with more distinct Oracle
/// answers than the cache holds: one worker serves 120 generated users of 40
/// never-repeating snippets against the Energy Oracle, so every shard fills
/// and evicts, then serves the same users in reverse order, so which answers
/// are still resident (the hits) depends on the LRU order. The figures were
/// recorded from the cache that hashed each key once per map or shard
/// lookup; a change to how a key is hashed or stored must keep every one.
#[test]
fn cold_fleet_sweep_cache_bookkeeping_is_pinned() {
    let platform = SocPlatform::odroid_xu3();
    let specs = ScenarioGenerator::standard(1, 40).scenarios(120);
    let reversed: Vec<ScenarioSpec> = specs.iter().rev().cloned().collect();
    let driver =
        ScenarioDriver::new(platform.clone(), 1).with_oracle_reference(OracleObjective::Energy);
    let serve = |specs: &[ScenarioSpec]| {
        driver.run_stream_mixed(&SliceSource::new(specs), |_, _| {
            SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform)))
        })
    };
    let cold = serve(&specs);
    let warm = serve(&reversed);
    let stats =
        |hits, misses, evictions, entries| SweepCacheStats { hits, misses, evictions, entries };
    assert_eq!((cold.decisions, warm.decisions), (4787, 4787));
    assert_eq!(cold.cache, stats(0, 4787, 691, 4096));
    assert_eq!(warm.cache, stats(4093, 694, 694, 4096));
    assert_eq!(driver.cache().stats(), stats(4093, 5481, 1385, 4096));
    let l1 = |shared_hits, misses, publishes| SweepL1Stats {
        hits: 0,
        shared_hits,
        misses,
        evictions: 4275,
        publishes,
        entries: 512,
    };
    assert_eq!(cold.l1, l1(0, 4787, 150));
    assert_eq!(warm.l1, l1(4093, 694, 22));
    let shards: Vec<_> = driver.cache().shard_stats();
    let recorded = [
        (255, 339, 83),
        (256, 298, 42),
        (256, 348, 92),
        (256, 382, 126),
        (256, 314, 58),
        (256, 374, 118),
        (256, 358, 102),
        (256, 344, 88),
        (256, 286, 30),
        (256, 366, 110),
        (256, 406, 150),
        (255, 335, 79),
        (256, 374, 118),
        (256, 328, 72),
        (255, 303, 47),
        (256, 326, 70),
    ];
    assert_eq!(shards.len(), recorded.len());
    for (index, (shard, &(hits, misses, evictions))) in shards.iter().zip(&recorded).enumerate() {
        assert_eq!(*shard, stats(hits, misses, evictions, 256), "shard {index}");
    }
}
