//! Ablation studies: aggregation-buffer size versus adaptation quality (A1) and
//! per-decision runtime overhead of every policy family (A2).
//!
//! ```text
//! cargo run --release --example online_il_ablation
//! ```

use soclearn_core::experiments::{buffer_ablation, overhead_ablation, ExperimentScale};
use soclearn_core::report::{render_table, si};

fn main() {
    let rows = buffer_ablation(ExperimentScale::Full, &[10, 25, 50, 100, 200, 400]);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.buffer_capacity.to_string(),
                format!("{:.3}", r.normalized_energy),
                format!("{} B", r.peak_buffer_bytes),
                r.policy_updates.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "A1: aggregation-buffer size vs adaptation quality",
            &["Buffer entries", "Energy vs Oracle", "Peak storage", "Policy updates"],
            &table
        )
    );
    println!("Paper reference: ~100 entries give close to 100% accuracy at < 20 KB.\n");

    let rows = overhead_ablation(ExperimentScale::Full);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.policy.clone(), si(r.mean_decision_ns / 1e9, "s")])
        .collect();
    println!(
        "{}",
        render_table("A2: mean decision latency per policy", &["Policy", "Latency"], &table)
    );
}
