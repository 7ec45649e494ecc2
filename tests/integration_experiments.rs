//! Integration tests over the experiment harness: every table/figure
//! reproduction runs end to end at quick scale and exhibits the paper's
//! qualitative shape.

use soclearn_core::experiments::{
    buffer_ablation, convergence_comparison, energy_comparison, enmpc_savings,
    frame_time_prediction, noc_latency_models, offline_il_generalization, overhead_ablation,
    ExperimentScale,
};

#[test]
fn table2_fig3_fig4_share_a_consistent_story() {
    // Offline IL degrades on unseen suites (Table II)...
    let table2 = offline_il_generalization(ExperimentScale::Quick);
    let gap = table2.suite_mean("PARSEC") - table2.suite_mean("Mi-Bench");
    assert!(gap > 0.05, "Table II generalisation gap too small ({gap:.3})");

    // ...online IL closes most of that gap (Figure 4)...
    let fig4 = energy_comparison(ExperimentScale::Quick);
    let online_group_mean: f64 = {
        let rows: Vec<_> = fig4.rows.iter().filter(|r| !r.offline_group).collect();
        rows.iter().map(|r| r.online_il).sum::<f64>() / rows.len() as f64
    };
    assert!(
        online_group_mean < table2.suite_mean("PARSEC"),
        "online IL ({online_group_mean:.2}) should improve on the frozen policy's PARSEC mean ({:.2})",
        table2.suite_mean("PARSEC")
    );

    // ...and it converges toward the Oracle while RL lags (Figure 3).
    let fig3 = convergence_comparison(ExperimentScale::Quick);
    let il_mean: f64 =
        fig3.online_il.accuracy.iter().sum::<f64>() / fig3.online_il.accuracy.len() as f64;
    let rl_mean: f64 = fig3.rl.accuracy.iter().sum::<f64>() / fig3.rl.accuracy.len() as f64;
    assert!(il_mean > rl_mean);
}

#[test]
fn gpu_experiments_reproduce_figure2_and_figure5_shapes() {
    let fig2 = frame_time_prediction(ExperimentScale::Quick);
    assert!(fig2.mape_percent < 5.0, "Figure 2 error {:.2}%", fig2.mape_percent);

    let fig5 = enmpc_savings(ExperimentScale::Quick);
    let (gpu, pkg, _pkg_dram) = fig5.averages();
    assert!(gpu > 0.08 && gpu < 0.6, "average GPU saving {gpu:.2} outside plausible range");
    assert!(pkg < gpu, "PKG savings are diluted by CPU/uncore base power");
    assert!(fig5.mean_performance_overhead() < 0.05);
}

#[test]
fn noc_models_and_ablations_run_end_to_end() {
    let noc = noc_latency_models(ExperimentScale::Quick);
    assert!(noc.rows.len() >= 10);
    assert!(noc.learned_mape < 30.0);

    let buffers = buffer_ablation(ExperimentScale::Quick, &[25, 100]);
    assert_eq!(buffers.len(), 2);
    assert!(buffers.iter().all(|r| r.peak_buffer_bytes < 80_000));

    let overhead = overhead_ablation(ExperimentScale::Quick);
    assert!(overhead.iter().any(|r| r.policy == "online-il"));
    assert!(overhead.iter().all(|r| r.min_decision_ns > 0.0));
}

#[test]
fn experiment_results_serialize_to_json() {
    // Result structs are machine-readable: each serialises to JSON through its
    // `Serialize` derive (the vendored serde_json shim only encodes).
    let table2 = offline_il_generalization(ExperimentScale::Quick);
    let json = serde_json::to_string(&table2).expect("serialize Table II");
    assert!(json.contains("normalized_energy"));

    let fig5 = enmpc_savings(ExperimentScale::Quick);
    let json = serde_json::to_string(&fig5).expect("serialize Figure 5");
    assert!(json.contains("gpu_saving"));
}
