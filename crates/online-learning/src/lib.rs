//! Online and offline learning substrate for SoC resource management.
//!
//! Section III of the DAC 2020 paper builds its runtime models out of a small
//! set of machine-learning primitives that are cheap enough to run in an OS
//! governor or firmware: recursive least squares with (adaptive) forgetting,
//! linear/ridge regression, shallow neural networks trained by
//! back-propagation, regression trees and kernel (SVR-style) regression.
//! This crate implements all of them from scratch — no external ML
//! dependency — with a uniform feature-vector interface so the policy
//! crates can mix and match models.
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
pub use tree::{DecisionTreeClassifier, RegressionTree};
