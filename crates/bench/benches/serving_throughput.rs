//! Serving throughput of the multi-worker scenario driver.
//!
//! Measures decision throughput of the runtime serving path — many independent
//! users driven concurrently against one platform — the scaling from one
//! worker to a pool, and the effect of sweep-cache lock striping (one global
//! mutex vs the default sharded cache) on that scaling.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use soclearn_core::prelude::*;
use soclearn_runtime::{scaled_suite, sequence_of};

fn scenarios(users: usize) -> Vec<ScenarioSpec> {
    (0..users)
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
        .collect()
}

fn serve(platform: &SocPlatform, specs: &[ScenarioSpec], workers: usize) -> usize {
    let artifacts = shared_artifacts(platform, ExperimentScale::Quick);
    let driver =
        ScenarioDriver::new(platform.clone(), workers).with_cache(artifacts.sweep_cache().clone());
    let telemetry = driver.run_stream_mixed(&SliceSource::new(specs), |_, _| {
        SubstratePolicies::cpu_only(Box::new(
            artifacts
                .online_policy(OnlineIlConfig { buffer_capacity: 15, ..OnlineIlConfig::default() }),
        ))
    });
    telemetry.decisions
}

fn bench(c: &mut Criterion) {
    let platform = SocPlatform::odroid_xu3();
    let specs = scenarios(12);

    // Headline: throughput at 1 vs 4 workers over the same 12 users.
    for workers in [1usize, 4] {
        let artifacts = shared_artifacts(&platform, ExperimentScale::Quick);
        let driver = ScenarioDriver::new(platform.clone(), workers)
            .with_cache(artifacts.sweep_cache().clone())
            .with_oracle_reference(OracleObjective::Energy);
        let telemetry = driver.run_stream_mixed(&SliceSource::new(&specs), |_, _| {
            SubstratePolicies::cpu_only(Box::new(artifacts.online_policy(OnlineIlConfig {
                buffer_capacity: 15,
                ..OnlineIlConfig::default()
            })))
        });
        println!(
            "{} worker(s): {} users, {} decisions, {:.0} decisions/s, mean latency {:.1} us, oracle agreement {:.0}%, cache hit rate {:.0}%",
            workers,
            telemetry.scenarios,
            telemetry.decisions,
            telemetry.decisions_per_second,
            telemetry.latency.mean_ns() / 1e3,
            telemetry.oracle_agreement.unwrap_or(0.0) * 100.0,
            telemetry.cache.hit_rate() * 100.0
        );
    }
    println!();

    // Lock-striping before/after: the same 12-user fleet at 4 workers with
    // the oracle reference on (every decision hits the shared cache), served
    // once through a single-mutex cache (the pre-sharding behaviour) and once
    // through the default sharded cache.
    for (label, shards) in [("single-mutex", 1usize), ("sharded", SweepCache::DEFAULT_SHARDS)] {
        let cache = Arc::new(SweepCache::with_shards(SweepCache::DEFAULT_CAPACITY, shards));
        let artifacts = shared_artifacts(&platform, ExperimentScale::Quick);
        let driver = ScenarioDriver::new(platform.clone(), 4)
            .with_cache(cache)
            .with_oracle_reference(OracleObjective::Energy);
        // Warm pass populates the cache; the timed pass is steady-state.
        let _ = driver.run_stream_mixed(&SliceSource::new(&specs), |_, _| {
            SubstratePolicies::cpu_only(Box::new(artifacts.online_policy(OnlineIlConfig {
                buffer_capacity: 15,
                ..OnlineIlConfig::default()
            })))
        });
        let telemetry = driver.run_stream_mixed(&SliceSource::new(&specs), |_, _| {
            SubstratePolicies::cpu_only(Box::new(artifacts.online_policy(OnlineIlConfig {
                buffer_capacity: 15,
                ..OnlineIlConfig::default()
            })))
        });
        println!(
            "cache {label} ({} shard(s)): {:.0} decisions/s steady-state at 4 workers, {:.0}% hit rate",
            driver.cache().shard_count(),
            telemetry.decisions_per_second,
            telemetry.cache.hit_rate() * 100.0
        );
    }
    println!();

    let mut group = c.benchmark_group("serving_throughput");
    group.sample_size(10);
    group.bench_function("online_il_12_users_4_workers", |bencher| {
        bencher.iter(|| black_box(serve(&platform, &specs, 4)))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
