//! Integration tests of the `soclearn-runtime` serving subsystem: cached
//! Oracle answers must be bit-identical to per-call evaluation, the artifact
//! store must be deterministic across threads, the scenario driver's
//! telemetry must be sane under a real multi-worker load, and its Oracle
//! reference must keep its recorded figures at any worker count.

use std::sync::Arc;

use soclearn_core::experiments::{offline_il_generalization, ExperimentScale};
use soclearn_core::prelude::*;
use soclearn_runtime::{scaled_suite, sequence_of, ArtifactStore, SweepCacheStats};

/// The CPU snippets of a scenario, in execution order.
fn cpu_profiles(spec: &ScenarioSpec) -> Vec<SnippetProfile> {
    spec.segments
        .iter()
        .flat_map(|segment| match segment {
            SubstrateWork::Cpu(profiles) => profiles.clone(),
            _ => Vec::new(),
        })
        .collect()
}

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

    // Eight users across the three suites.
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
    let (telemetry, records) = driver.run_recorded_mixed(&SliceSource::new(&scenarios), |_, _| {
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
    // The agreement is the recorded decisions scored against a fresh
    // `OracleRun::execute` of each scenario.
    let (mut matches, mut cpu_decisions) = (0usize, 0usize);
    for record in &records {
        let cpu: Vec<_> = record.decisions.iter().filter_map(SubstrateRecord::as_cpu).collect();
        let profiles: Vec<SnippetProfile> = cpu.iter().map(|d| d.profile.clone()).collect();
        let mut sim = SocSimulator::new(platform.clone());
        let run = OracleRun::execute(&mut sim, &profiles, OracleObjective::Energy);
        matches += cpu
            .iter()
            .zip(&run.decisions)
            .filter(|(d, o)| d.config.big_idx == o.big_idx)
            .count();
        cpu_decisions += cpu.len();
    }
    assert_eq!(agreement.to_bits(), (matches as f64 / cpu_decisions as f64).to_bits());
}

/// The driver's Oracle reference on a cold fleet: one ondemand governor per
/// user, 120 generated users of 40 never-repeating snippets, scored against
/// the Energy Oracle.  The figures were recorded on one worker when the
/// reference was served through the sweep cache; asking the Oracle directly
/// must keep every one at any worker count, and a warm cache passed through
/// `with_cache` must change nothing, itself included.
#[test]
fn oracle_reference_figures_are_pinned_at_any_worker_count() {
    const MATCHES: usize = 266;
    /// 266 / 4,787.
    const AGREEMENT_BITS: u64 = 0x3fac_734c_86fa_9945;
    const ENERGY_BITS: u64 = 0x4092_acdd_a097_ea86;
    let platform = SocPlatform::odroid_xu3();
    let specs = ScenarioGenerator::standard(1, 40).scenarios(120);
    let warm = Arc::new(SweepCache::new());
    let mut engine = SweepEngine::with_cache(platform.clone(), Arc::clone(&warm));
    for spec in &specs {
        engine.reset();
        engine.oracle_run(&cpu_profiles(spec), OracleObjective::Energy);
    }
    let warm_stats = warm.stats();
    for workers in [1, 2, 4] {
        for cache in [None, Some(&warm)] {
            let mut driver = ScenarioDriver::new(platform.clone(), workers)
                .with_oracle_reference(OracleObjective::Energy);
            if let Some(cache) = cache {
                driver = driver.with_cache(Arc::clone(cache));
            }
            let (telemetry, records) = driver
                .run_recorded_mixed(&SliceSource::new(&specs), |_, _| {
                    SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform)))
                });
            let case = format!("{workers} workers, warm cache {}", cache.is_some());
            assert_eq!(telemetry.decisions, 4787, "{case}");
            assert_eq!(
                telemetry.oracle_agreement.map(f64::to_bits),
                Some(AGREEMENT_BITS),
                "{case}"
            );
            let matches: usize = records.iter().filter_map(|r| r.oracle_matches).sum();
            assert_eq!(matches, MATCHES, "{case}");
            let worker_matches: usize = telemetry.workers.iter().map(|w| w.oracle_matches).sum();
            assert_eq!(worker_matches, MATCHES, "{case}");
            // Each worker sums the energy of the users it claimed, so the
            // telemetry total's last bits depend on the claim order past
            // one worker; the records summed in index order do not.
            let energy = records
                .iter()
                .flat_map(|r| r.decisions.iter().map(SubstrateDecision::energy_j))
                .fold(0.0, |sum, energy| sum + energy);
            assert_eq!(energy.to_bits(), ENERGY_BITS, "{case}");
            if workers == 1 {
                assert_eq!(telemetry.total_energy_j.to_bits(), ENERGY_BITS, "{case}");
            }
            assert_eq!(telemetry.l1, SweepL1Stats::default(), "{case}");
        }
    }
    assert_eq!(warm.stats(), warm_stats, "serving must not read the cache");
}

/// The sweep cache's bookkeeping on a cold fleet with more distinct Oracle
/// answers than the cache holds, driven the way the benchmark's Oracle probes
/// drive it: per pass, one engine on the shared cache behind the default warm
/// L1 runs the Energy Oracle over each of 120 generated users of 40
/// never-repeating snippets (reset per user) and flushes its L1 at the end.
/// The first pass fills and evicts every shard; the second serves the same
/// users in reverse order, so which answers are still resident (the hits)
/// depends on the LRU order. The figures were recorded from the cache that
/// hashed each key once per map or shard lookup, when the serving driver ran
/// exactly these passes; a change to how a key is hashed or stored must keep
/// every one.
#[test]
fn cold_fleet_sweep_cache_bookkeeping_is_pinned() {
    let platform = SocPlatform::odroid_xu3();
    let scenarios: Vec<Vec<SnippetProfile>> = ScenarioGenerator::standard(1, 40)
        .scenarios(120)
        .iter()
        .map(cpu_profiles)
        .collect();
    let cache = Arc::new(SweepCache::new());
    let pass = |order: &mut dyn Iterator<Item = &Vec<SnippetProfile>>| {
        let before = cache.stats();
        let mut engine = SweepEngine::with_cache(platform.clone(), Arc::clone(&cache))
            .with_warm_l1(SweepEngine::DEFAULT_L1_CAPACITY, SweepEngine::DEFAULT_L1_PUBLISH_EVERY);
        let mut decisions = 0;
        for profiles in order {
            engine.reset();
            decisions += engine.oracle_run(profiles, OracleObjective::Energy).decisions.len();
        }
        engine.flush_l1();
        let after = cache.stats();
        let delta = SweepCacheStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
            entries: after.entries,
        };
        (decisions, delta, engine.l1_stats().expect("L1 attached"))
    };
    let (cold_decisions, cold, cold_l1) = pass(&mut scenarios.iter());
    let (warm_decisions, warm, warm_l1) = pass(&mut scenarios.iter().rev());
    let stats =
        |hits, misses, evictions, entries| SweepCacheStats { hits, misses, evictions, entries };
    assert_eq!((cold_decisions, warm_decisions), (4787, 4787));
    assert_eq!(cold, stats(0, 4787, 691, 4096));
    assert_eq!(warm, stats(4093, 694, 694, 4096));
    assert_eq!(cache.stats(), stats(4093, 5481, 1385, 4096));
    let l1 = |shared_hits, misses, publishes| SweepL1Stats {
        hits: 0,
        shared_hits,
        misses,
        evictions: 4275,
        publishes,
        entries: 512,
    };
    assert_eq!(cold_l1, l1(0, 4787, 150));
    assert_eq!(warm_l1, l1(4093, 694, 22));
    let shards: Vec<_> = cache.shard_stats();
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
