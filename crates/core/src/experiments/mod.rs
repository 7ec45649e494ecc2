//! Reproduction of every table and figure in the paper's evaluation.
//!
//! Each sub-module regenerates one experiment and returns a serialisable
//! result struct whose rows mirror what the paper reports; the runnable
//! examples print these rows.  Every experiment accepts an
//! [`ExperimentScale`] so the same code path runs as a fast test (`Quick`)
//! or at full fidelity (`Full`, what the examples use).
//!
//! | Experiment | Paper reference | Module |
//! |---|---|---|
//! | Offline-IL generalisation gap | Table II | [`table2`] |
//! | Online frame-time prediction | Figure 2 | [`fig2`] |
//! | Online-IL vs RL convergence | Figure 3 | [`fig3`] |
//! | Online-IL vs RL energy | Figure 4 | [`fig4`] |
//! | Explicit-NMPC energy savings | Figure 5 | [`fig5`] |
//! | NoC latency models | Section III-C | [`noc`] |
//! | Buffer-size (A1) and decision-overhead (A2) ablations | Sections IV-A3 / IV-B | [`ablations`] |

pub mod ablations;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod helpers;
pub mod noc;
pub mod table2;

/// Re-export of the experiment scaling knob, which now lives in
/// [`soclearn_runtime`] because it is part of every artifact-store key.
pub use soclearn_runtime::ExperimentScale;

pub use ablations::{buffer_ablation, overhead_ablation, BufferAblationRow, OverheadRow};
pub use fig2::{frame_time_prediction, Fig2Result};
pub use fig3::{convergence_comparison, Fig3Result};
pub use fig4::{energy_comparison, Fig4Result, Fig4Row};
pub use fig5::{enmpc_savings, Fig5Result, Fig5Row};
pub use noc::{noc_latency_models, NocModelRow, NocModelsResult};
pub use table2::{offline_il_generalization, Table2Result, Table2Row};
