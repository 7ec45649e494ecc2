//! Power, thermal and skin-temperature models for mobile heterogeneous SoCs.
//!
//! Section III-A of the DAC 2020 paper surveys the modelling substrate that
//! every resource-management policy in the framework relies on:
//!
//! * analytical **power models** that map voltage, frequency and utilization to
//!   cluster power consumption ([`power`]),
//! * **RC thermal networks** that predict hotspot temperatures from power
//!   traces and allow computing sustainable power budgets ([`thermal`]),
//! * **power–temperature fixed point** existence and stability analysis
//!   ([`fixed_point`]),
//! * **skin-temperature estimation** from internal sensors, including greedy
//!   sensor selection ([`skin`]).
//!
//! The paper's evaluations use on-board sensors of commercial phones and
//! boards; this crate substitutes a calibrated analytical model with the same
//! interfaces (power in → temperatures out) so the control experiments can
//! exercise identical code paths.
//!
//! # Example
//!
//! ```
//! use soclearn_power_thermal::power::{ClusterPowerParams, VoltageFrequencyCurve};
//!
//! let vf = VoltageFrequencyCurve::new(0.9, 0.25, 2.0e9);
//! let big = ClusterPowerParams::odroid_big();
//! let p = big.power(&vf, 1.8e9, 0.9, 55.0);
//! assert!(p > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fixed_point;
pub(crate) mod linalg;
pub mod power;
pub mod skin;
pub mod thermal;

pub use fixed_point::{FixedPointAnalysis, FixedPointError};
pub use power::{ClusterPowerParams, OperatingPoint, PowerBreakdown, VoltageFrequencyCurve};
pub use skin::{SensorSelection, SkinTemperatureEstimator};
pub use thermal::{RcThermalModel, ThermalNode};
