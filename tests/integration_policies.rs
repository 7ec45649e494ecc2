//! Integration tests of the individual policy families against the simulator,
//! exercising the public API the way a downstream user would.

use soclearn_core::harness::run_policy;
use soclearn_core::prelude::*;

fn mibench_sequence(take: usize) -> ApplicationSequence {
    let suite = BenchmarkSuite::generate(SuiteKind::MiBench, 17);
    ApplicationSequence::from_benchmarks(suite.benchmarks().iter().take(take))
}

#[test]
fn offline_il_tree_and_mlp_policies_agree_on_training_data_quality() {
    let platform = SocPlatform::odroid_xu3();
    let seq = mibench_sequence(3);
    let profiles: Vec<SnippetProfile> = seq.snippets().iter().map(|s| s.profile.clone()).collect();
    let mut sim = SocSimulator::new(platform.clone());
    let demos = collect_demonstrations(&mut sim, &profiles, OracleObjective::Energy);
    let mut oracle_sim = SocSimulator::new(platform.clone());
    let oracle = OracleRun::execute(&mut oracle_sim, &profiles, OracleObjective::Energy);

    for kind in [PolicyModelKind::Tree, PolicyModelKind::Mlp] {
        let mut policy = OfflineIlPolicy::train(&platform, &demos, kind);
        let report = run_policy(&platform, &mut policy, &seq);
        let ratio = report.total_energy_j / oracle.total_energy_j;
        assert!(
            ratio < 1.2,
            "{:?} policy should be near the Oracle on its training workload ({ratio:.2})",
            kind
        );
    }
}

#[test]
fn governors_rank_as_expected_on_compute_heavy_work() {
    // On compute-bound work racing to idle is energy-efficient, so the
    // performance governor must not be dramatically worse than ondemand, while
    // powersave pays a big energy *and* runtime penalty.
    let platform = SocPlatform::odroid_xu3();
    let suite = BenchmarkSuite::generate(SuiteKind::MiBench, 23);
    let seq = ApplicationSequence::from_benchmarks(suite.benchmarks().iter().skip(5).take(2)); // SHA, Blowfish
    let run = |p: &mut dyn DvfsPolicy| run_policy(&platform, p, &seq);

    let perf = run(&mut PerformanceGovernor);
    let save = run(&mut PowersaveGovernor);
    let ondemand = run(&mut OndemandGovernor::new(&platform));

    assert!(perf.total_time_s < save.total_time_s, "performance must be fastest");
    assert!(ondemand.total_time_s < save.total_time_s * 1.01);
    assert!(
        perf.total_energy_j < save.total_energy_j,
        "race-to-idle should beat powersave on compute-bound work ({} vs {})",
        perf.total_energy_j,
        save.total_energy_j
    );
}

#[test]
fn online_il_keeps_improving_when_the_workload_shifts_twice() {
    // Mi-Bench -> PARSEC -> Mi-Bench: the adaptive policy must handle returning to
    // the original distribution (no catastrophic forgetting of the whole space).
    let platform = SocPlatform::odroid_xu3();
    let mibench = BenchmarkSuite::generate(SuiteKind::MiBench, 29);
    let parsec = BenchmarkSuite::generate(SuiteKind::Parsec, 29);
    let mut seq = ApplicationSequence::new();
    seq.push_benchmark(&mibench.benchmarks()[0]);
    seq.push_benchmark(&parsec.benchmarks()[0]);
    seq.push_benchmark(&mibench.benchmarks()[1]);
    let profiles: Vec<SnippetProfile> = seq.snippets().iter().map(|s| s.profile.clone()).collect();

    let train: Vec<SnippetProfile> = mibench
        .benchmarks()
        .iter()
        .take(3)
        .flat_map(|b| b.snippets().iter().cloned())
        .collect();
    let mut sim = SocSimulator::new(platform.clone());
    let demos = collect_demonstrations(&mut sim, &train, OracleObjective::Energy);
    let offline = OfflineIlPolicy::train(&platform, &demos, PolicyModelKind::Mlp);
    let mut online = OnlineIlPolicy::from_offline(
        offline,
        OnlineIlConfig { buffer_capacity: 20, neighbourhood_radius: 2 },
    );
    online.pretrain_models(&SocSimulator::new(platform.clone()), &train);

    let report = run_policy(&platform, &mut online, &seq);
    let mut oracle_sim = SocSimulator::new(platform.clone());
    let oracle = OracleRun::execute(&mut oracle_sim, &profiles, OracleObjective::Energy);
    let ratio = report.total_energy_j / oracle.total_energy_j;
    assert!(ratio < 1.35, "online IL should stay near the Oracle across shifts ({ratio:.2})");
    assert!(online.stats().policy_updates >= 1);
}

#[test]
fn rl_agents_learn_something_but_remain_worse_than_online_il() {
    let platform = SocPlatform::odroid_xu3();
    let cortex = BenchmarkSuite::generate(SuiteKind::Cortex, 31);
    let seq = ApplicationSequence::from_benchmarks(cortex.benchmarks().iter().take(3));
    let profiles: Vec<SnippetProfile> = seq.snippets().iter().map(|s| s.profile.clone()).collect();

    let mut oracle_sim = SocSimulator::new(platform.clone());
    let oracle = OracleRun::execute(&mut oracle_sim, &profiles, OracleObjective::Energy);

    let mibench = BenchmarkSuite::generate(SuiteKind::MiBench, 31);
    let train: Vec<SnippetProfile> = mibench
        .benchmarks()
        .iter()
        .take(3)
        .flat_map(|b| b.snippets().iter().cloned())
        .collect();
    let mut sim = SocSimulator::new(platform.clone());
    let demos = collect_demonstrations(&mut sim, &train, OracleObjective::Energy);
    let offline = OfflineIlPolicy::train(&platform, &demos, PolicyModelKind::Mlp);
    let mut online = OnlineIlPolicy::from_offline(
        offline,
        OnlineIlConfig { buffer_capacity: 20, neighbourhood_radius: 2 },
    );
    online.pretrain_models(&SocSimulator::new(platform.clone()), &train);

    let il = run_policy(&platform, &mut online, &seq);
    let mut qtable = QTableAgent::new(&platform, RlConfig::default());
    let rl = run_policy(&platform, &mut qtable, &seq);

    let il_ratio = il.total_energy_j / oracle.total_energy_j;
    let rl_ratio = rl.total_energy_j / oracle.total_energy_j;
    assert!(il_ratio < rl_ratio, "online IL ({il_ratio:.2}) should beat RL ({rl_ratio:.2})");
    assert!(rl_ratio < 2.5, "RL should still be within a sane bound ({rl_ratio:.2})");
}
