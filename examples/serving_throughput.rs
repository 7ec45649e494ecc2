//! Serving throughput: many users, one SoC runtime.
//!
//! Spawns a pool of worker threads that serve independent application-sequence
//! "users" with policies built from the process-wide artifact store, and
//! prints the serving telemetry: decision throughput, per-decision latency,
//! energy, policy-vs-oracle agreement and sweep-cache statistics.
//!
//! ```text
//! cargo run --release --example serving_throughput
//! ```

use soclearn_core::prelude::*;
use soclearn_core::report::render_table;
use soclearn_runtime::DriverTelemetry;

/// Builds one user's scenario: a suite-specific application mix.
fn scenario_for(user: usize, scale: ExperimentScale) -> ScenarioSpec {
    let kind = match user % 3 {
        0 => SuiteKind::MiBench,
        1 => SuiteKind::Cortex,
        _ => SuiteKind::Parsec,
    };
    let benchmarks = soclearn_runtime::scaled_suite(kind, scale);
    let sequence = soclearn_runtime::sequence_of(&benchmarks, kind);
    ScenarioSpec::from_sequence(format!("user-{user}-{}", kind.name()), &sequence)
}

fn telemetry_row(policy: &str, t: &DriverTelemetry) -> Vec<String> {
    vec![
        policy.to_owned(),
        format!("{}", t.scenarios),
        format!("{}", t.decisions),
        format!("{:.0}", t.decisions_per_second),
        format!("{:.1}", t.latency.mean_ns() / 1e3),
        format!("{:.1}", t.latency.quantile_upper_bound_ns(0.99) as f64 / 1e3),
        format!("{:.1}", t.total_energy_j),
        t.oracle_agreement.map_or("-".to_owned(), |a| format!("{:.0}%", a * 100.0)),
        format!("{:.0}%", t.cache.hit_rate() * 100.0),
    ]
}

fn main() {
    let platform = SocPlatform::odroid_xu3();
    let scale = ExperimentScale::Quick;
    // One worker per host core, at most four.
    let workers = std::thread::available_parallelism().map_or(1, |cores| cores.get()).min(4);
    let users = 12;

    // Design-time artifacts are built once per process and shared by every
    // policy instance the drivers hand out below.
    let artifacts = shared_artifacts(&platform, scale);
    println!(
        "Serving {} users on {} workers ({} DVFS configurations, {} training snippets)\n",
        users,
        workers,
        platform.config_count(),
        artifacts.training_profiles.len()
    );

    let scenarios: Vec<ScenarioSpec> = (0..users).map(|u| scenario_for(u, scale)).collect();

    // Online-IL users: every policy shares the pretrained artifacts.
    let il_driver = ScenarioDriver::new(platform.clone(), workers)
        .with_cache(artifacts.sweep_cache().clone())
        .with_oracle_reference(OracleObjective::Energy);
    let il = il_driver.run_stream_mixed(&SliceSource::new(&scenarios), |_, _| {
        SubstratePolicies::cpu_only(Box::new(
            artifacts
                .online_policy(OnlineIlConfig { buffer_capacity: 15, neighbourhood_radius: 2 }),
        ))
    });

    // RL baseline users: per-user exploration seeds, same serving harness.
    let rl_driver = ScenarioDriver::new(platform.clone(), workers)
        .with_cache(artifacts.sweep_cache().clone())
        .with_oracle_reference(OracleObjective::Energy);
    let rl = rl_driver.run_stream_mixed(&SliceSource::new(&scenarios), |user, _| {
        SubstratePolicies::cpu_only(Box::new(QTableAgent::new(
            &platform,
            RlConfig { seed: 1000 + user as u64 },
        )))
    });

    // Governor users: the zero-learning baseline.
    let gov_driver = ScenarioDriver::new(platform.clone(), workers)
        .with_cache(artifacts.sweep_cache().clone())
        .with_oracle_reference(OracleObjective::Energy);
    let gov = gov_driver.run_stream_mixed(&SliceSource::new(&scenarios), |_, _| {
        SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform)))
    });

    println!(
        "{}",
        render_table(
            "Serving telemetry per policy family",
            &[
                "Policy",
                "Users",
                "Decisions",
                "Decisions/s",
                "Mean lat (us)",
                "p99 lat (us)",
                "Energy (J)",
                "Oracle agree",
                "Cache hits",
            ],
            &[
                telemetry_row("online-il", &il),
                telemetry_row("rl-qtable", &rl),
                telemetry_row("ondemand", &gov),
            ]
        )
    );

    let cache = artifacts.sweep_cache().stats();
    println!(
        "Shared sweep cache: {} entries, {} hits / {} misses ({:.0}% hit rate)",
        cache.entries,
        cache.hits,
        cache.misses,
        cache.hit_rate() * 100.0
    );
    println!(
        "Online-IL agreement {:.0}% vs RL {:.0}% — the paper's Figure 3 gap, at serving scale.",
        il.oracle_agreement.unwrap_or(0.0) * 100.0,
        rl.oracle_agreement.unwrap_or(0.0) * 100.0
    );
}
