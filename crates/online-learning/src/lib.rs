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
//! use soclearn_online_learning::traits::OnlineRegressor;
//!
//! let mut rls = RecursiveLeastSquares::new(2, 0.98);
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

pub mod kernel;
pub mod linalg;
pub mod linear;
pub mod metrics;
pub mod mlp;
pub mod rls;
pub mod scaler;
pub mod stats;
pub mod traits;
pub mod tree;

pub use kernel::KernelRidgeRegression;
pub use linear::RidgeRegression;
pub use mlp::{Activation, Mlp, MlpBuilder};
pub use rls::{AdaptiveForgettingRls, RecursiveLeastSquares};
pub use scaler::StandardScaler;
pub use stats::RlsStats;
pub use traits::{Classifier, OnlineRegressor, Regressor};
pub use tree::DecisionTreeClassifier;
