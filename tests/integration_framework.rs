//! Cross-crate integration tests of the full framework (Figure 1): analytical
//! models, policies and simulators working together through the public API.

use soclearn_core::harness::run_policy;
use soclearn_core::prelude::*;

fn sequence(kinds: &[SuiteKind], seed: u64, take: usize) -> ApplicationSequence {
    let mut seq = ApplicationSequence::new();
    for &kind in kinds {
        let suite = BenchmarkSuite::generate(kind, seed);
        for b in suite.benchmarks().iter().take(take) {
            seq.push_benchmark(b);
        }
    }
    seq
}

#[test]
fn every_policy_family_runs_through_the_same_harness() {
    let platform = SocPlatform::odroid_xu3();
    let seq = sequence(&[SuiteKind::MiBench], 3, 2);
    let profiles: Vec<SnippetProfile> = seq.snippets().iter().map(|s| s.profile.clone()).collect();

    // Train the IL policies from Oracle demonstrations.
    let mut sim = SocSimulator::new(platform.clone());
    let demos = collect_demonstrations(&mut sim, &profiles, OracleObjective::Energy);
    let offline = OfflineIlPolicy::train(&platform, &demos, PolicyModelKind::Mlp);
    let mut online = OnlineIlPolicy::from_offline(offline.clone(), OnlineIlConfig::default());
    online.pretrain_models(&SocSimulator::new(platform.clone()), &profiles);

    let mut policies: Vec<Box<dyn DvfsPolicy>> = vec![
        Box::new(PerformanceGovernor),
        Box::new(PowersaveGovernor),
        Box::new(OndemandGovernor::new(&platform)),
        Box::new(InteractiveGovernor::new()),
        Box::new(offline),
        Box::new(online),
        Box::new(QTableAgent::new(&platform, RlConfig::default())),
    ];

    let mut names = Vec::new();
    for policy in policies.iter_mut() {
        let report = run_policy(&platform, policy.as_mut(), &seq);
        assert_eq!(report.records.len(), seq.len(), "{} skipped snippets", report.policy);
        assert!(report.total_energy_j > 0.0 && report.total_time_s > 0.0);
        assert!(
            report.records.iter().all(|r| platform.is_valid(r.config)),
            "{} produced an invalid configuration",
            report.policy
        );
        names.push(report.policy);
    }
    names.sort();
    names.dedup();
    assert_eq!(names.len(), 7, "every policy reports a distinct name: {names:?}");
}

#[test]
fn oracle_is_the_lower_energy_envelope_of_all_policies() {
    let platform = SocPlatform::odroid_xu3();
    let seq = sequence(&[SuiteKind::MiBench, SuiteKind::Cortex], 5, 1);
    let profiles: Vec<SnippetProfile> = seq.snippets().iter().map(|s| s.profile.clone()).collect();
    let mut oracle_sim = SocSimulator::new(platform.clone());
    let oracle = OracleRun::execute(&mut oracle_sim, &profiles, OracleObjective::Energy);

    let mut policies: Vec<Box<dyn DvfsPolicy>> = vec![
        Box::new(PerformanceGovernor),
        Box::new(PowersaveGovernor),
        Box::new(OndemandGovernor::new(&platform)),
    ];
    for policy in policies.iter_mut() {
        let report = run_policy(&platform, policy.as_mut(), &seq);
        assert!(
            oracle.total_energy_j <= report.total_energy_j * 1.001,
            "oracle ({}) beaten by {} ({})",
            oracle.total_energy_j,
            report.policy,
            report.total_energy_j
        );
    }
}

#[test]
fn thermal_state_couples_policy_decisions_to_leakage() {
    // Running the same workload hot (after a long busy period) must cost more
    // energy than running it cold, because leakage depends on temperature.
    let platform = SocPlatform::odroid_xu3();
    let suite = BenchmarkSuite::generate(SuiteKind::MiBench, 9);
    let profiles: Vec<SnippetProfile> = suite.benchmarks()[0].snippets().to_vec();

    let mut cold = SocSimulator::new(platform.clone());
    let cold_energy: f64 = cold
        .execute_sequence(&profiles, platform.max_config())
        .iter()
        .map(|r| r.energy_j)
        .sum();

    let mut hot = SocSimulator::new(platform.clone());
    // Heat the chip up first.
    for _ in 0..200 {
        hot.execute_snippet(&SnippetProfile::compute_bound(100_000_000), platform.max_config());
    }
    let hot_energy: f64 = hot
        .execute_sequence(&profiles, platform.max_config())
        .iter()
        .map(|r| r.energy_j)
        .sum();
    assert!(hot_energy > cold_energy, "hot {hot_energy} J should exceed cold {cold_energy} J");
}

#[test]
fn gpu_pipeline_runs_end_to_end_with_all_controllers() {
    let platform = GpuPlatform::gen9_like();
    let workload = GraphicsWorkload::figure5_suite(150, 4).remove(2);
    let deadline = workload.frame_deadline_s();

    let mut model = GpuSensitivityModel::new(0.98);
    let sim = GpuSimulator::new(platform.clone());
    let sample: Vec<_> = workload.frames().iter().step_by(10).cloned().collect();
    model.pretrain(&sim, &sample, deadline);

    let nmpc = MultiRateNmpcController::new(model.clone(), NmpcSettings::default());
    let explicit = ExplicitNmpcController::from_nmpc(
        &platform,
        &model,
        NmpcSettings::default(),
        deadline,
        (1.0e9, 6.0e9),
        (1.0e6, 1.0e8),
        6,
    );

    let mut controllers: Vec<Box<dyn GpuController>> =
        vec![Box::new(UtilizationGovernor::new()), Box::new(nmpc), Box::new(explicit)];
    let mut sim = GpuSimulator::new(platform);
    for controller in controllers.iter_mut() {
        let run = sim.run_workload(&workload, controller.as_mut());
        assert_eq!(run.frames, workload.len());
        assert!(run.gpu_energy_j > 0.0);
        assert!(run.package_energy_j > run.gpu_energy_j);
        assert!(run.deadline_miss_rate < 0.25, "{} misses too often", run.controller);
    }
}
