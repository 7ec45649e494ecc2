//! Online and offline learning substrate for SoC resource management.
//!
//! Section III of the DAC 2020 paper builds its runtime models out of a small
//! set of machine-learning primitives that are cheap enough to run in an OS
//! governor or firmware.  This crate implements from scratch — no external ML
//! dependency — the ones a reproduced claim runs:
//!
//! * recursive least squares with fixed forgetting (the online-IL power and
//!   time models, the GPU sensitivity model) and with adaptive forgetting
//!   (Figure 2's frame-time model), plus their mergeable sufficient
//!   statistics;
//! * ridge regression (the explicit-NMPC control surface);
//! * a shallow neural-network classifier trained by back-propagation and a
//!   decision-tree classifier (the imitation-learning policies);
//! * RBF kernel ridge regression (the SVR-style NoC latency model);
//! * a feature scaler and the MAPE metric.
//!
//! # Example: tracking a drifting linear relationship online
//!
//! ```
//! use soclearn_online_learning::rls::RecursiveLeastSquares;
//!
//! let mut rls = RecursiveLeastSquares::<2>::new(0.98);
//! for i in 0..200 {
//!     let x = [i as f64 / 100.0, 1.0];
//!     let y = 3.0 * x[0] + 0.5;
//!     rls.update(&x, y);
//! }
//! let pred = rls.predict(&[1.5, 1.0]);
//! assert!((pred - 5.0).abs() < 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::Serialize;

pub mod kernel;
pub mod linalg;
pub mod linear;
pub mod metrics;
pub mod mlp;
pub mod rls;
pub mod scaler;
pub mod stats;
pub mod tree;

pub use kernel::KernelRidgeRegression;
pub use linear::RidgeRegression;
pub use mlp::{Mlp, MlpBuilder};
pub use rls::{AdaptiveForgettingRls, RecursiveLeastSquares};
pub use scaler::StandardScaler;
pub use stats::RlsStats;
pub use tree::DecisionTreeClassifier;

/// Writes `fields` as one JSON object: the shim `Serialize` derive rejects
/// generic types, so the compile-time-sized models write their fields by hand.
pub(crate) fn serialize_fields(fields: &[(&str, &dyn Serialize)], out: &mut String) {
    out.push('{');
    for (i, (name, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        name.serialize_json(out);
        out.push(':');
        value.serialize_json(out);
    }
    out.push('}');
}
