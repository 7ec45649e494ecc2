//! Power–temperature fixed-point existence and stability analysis.
//!
//! Because leakage power grows with temperature, and temperature grows with
//! power, the SoC's thermal trajectory is governed by a feedback loop.  The
//! *thermal fixed point* (Bhat et al., ACM TECS 2017, cited as \[25\] in the
//! paper) is the steady-state temperature reached under a given workload once
//! this loop settles.  This module finds the fixed point of the composed map
//!
//! ```text
//! T  ↦  SteadyState( P_workload + P_leakage(T) )
//! ```
//!
//! by fixed-point iteration, and classifies its stability through the spectral
//! radius of the numerically estimated Jacobian of the map at the fixed point.

use serde::{Deserialize, Serialize};

use crate::linalg;
use crate::thermal::RcThermalModel;

/// Errors returned by the fixed-point analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FixedPointError {
    /// The iteration diverged above the configured temperature ceiling, meaning a
    /// thermal runaway: no safe fixed point exists for this workload.
    ThermalRunaway {
        /// Temperature (°C) at which the iteration was abandoned.
        reached_c: f64,
    },
    /// The iteration did not converge within the iteration budget.
    NotConverged {
        /// Residual (maximum absolute temperature change) at the last iteration.
        residual: f64,
    },
    /// The thermal network is degenerate (singular conductance matrix).
    DegenerateNetwork,
    /// A power vector the analysis evaluated, or the steady state it drove,
    /// held a NaN or an infinity.
    NonFinite,
}

impl std::fmt::Display for FixedPointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FixedPointError::ThermalRunaway { reached_c } => {
                write!(
                    f,
                    "thermal runaway: temperature exceeded {reached_c:.1} °C without settling"
                )
            }
            FixedPointError::NotConverged { residual } => {
                write!(f, "fixed-point iteration did not converge (residual {residual:.3} °C)")
            }
            FixedPointError::DegenerateNetwork => write!(f, "thermal network is degenerate"),
            FixedPointError::NonFinite => {
                write!(f, "non-finite power or temperature in the fixed-point map")
            }
        }
    }
}

impl std::error::Error for FixedPointError {}

/// Result of a successful fixed-point analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FixedPointAnalysis {
    /// Fixed-point temperature of every thermal node, °C.
    pub temperatures_c: Vec<f64>,
    /// Total power (workload + leakage) at the fixed point, W.
    pub total_power_w: f64,
    /// Spectral-radius estimate of the temperature-update map's Jacobian at the
    /// fixed point.  Values below 1 indicate a stable (attracting) fixed point.
    /// When the Jacobian's infinity norm (a cheap upper bound on the radius) is
    /// already below 1 it is reported directly; otherwise the value comes from
    /// power iteration.
    pub spectral_radius: f64,
    /// Number of fixed-point iterations performed.
    pub iterations: usize,
}

impl FixedPointAnalysis {
    /// Whether the fixed point is stable (attracting).
    pub fn is_stable(&self) -> bool {
        self.spectral_radius < 1.0
    }

    /// Hottest node temperature at the fixed point, °C.
    pub fn peak_temperature_c(&self) -> f64 {
        self.temperatures_c.iter().cloned().fold(f64::MIN, f64::max)
    }

    /// Computes the thermal fixed point for a thermal model and a
    /// temperature-dependent power function.
    ///
    /// `power_of_temperature` maps the current node temperatures to per-node power
    /// (workload power plus temperature-dependent leakage).
    ///
    /// # Errors
    ///
    /// Returns [`FixedPointError::ThermalRunaway`] if temperatures exceed
    /// `runaway_limit_c`, [`FixedPointError::NotConverged`] if the iteration budget
    /// is exhausted, [`FixedPointError::DegenerateNetwork`] for a singular
    /// thermal network, and [`FixedPointError::NonFinite`] as soon as any
    /// evaluated power vector (the Jacobian probes included) or steady state
    /// holds a NaN or an infinity.
    pub fn compute<F>(
        model: &RcThermalModel,
        mut power_of_temperature: F,
        runaway_limit_c: f64,
    ) -> Result<Self, FixedPointError>
    where
        F: FnMut(&[f64]) -> Vec<f64>,
    {
        const MAX_ITERS: usize = 500;
        const TOLERANCE_C: f64 = 1e-6;

        let n = model.node_count();
        let mut temps = vec![model.ambient_c(); n];
        let mut iterations = 0;
        let mut residual = f64::INFINITY;
        for _ in 0..MAX_ITERS {
            iterations += 1;
            let (_, next) = Self::map(model, &mut power_of_temperature, &temps)?;
            residual = next.iter().zip(&temps).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
            temps = next;
            if temps.iter().any(|&t| t > runaway_limit_c) {
                return Err(FixedPointError::ThermalRunaway { reached_c: runaway_limit_c });
            }
            if residual < TOLERANCE_C {
                break;
            }
        }
        if residual >= TOLERANCE_C {
            return Err(FixedPointError::NotConverged { residual });
        }

        // Numerical Jacobian of the map T -> steady_state(power(T)) at the fixed point.
        let eps = 0.01;
        let mut jac = vec![vec![0.0; n]; n];
        let (base_power, base) = Self::map(model, &mut power_of_temperature, &temps)?;
        for j in 0..n {
            let mut perturbed = temps.clone();
            perturbed[j] += eps;
            let (_, mapped) = Self::map(model, &mut power_of_temperature, &perturbed)?;
            for i in 0..n {
                jac[i][j] = (mapped[i] - base[i]) / eps;
            }
        }
        // The infinity norm bounds the spectral radius from above, so when it is
        // already below 1 the fixed point is provably stable and the power
        // iteration can be skipped; otherwise the norm is inconclusive (it can
        // exceed 1 for a stable map) and the iterative estimate decides.
        let norm_bound = linalg::inf_norm(&jac);
        let spectral_radius =
            if norm_bound < 1.0 { norm_bound } else { linalg::spectral_radius(&jac, 200) };
        let total_power_w = base_power.iter().sum();

        Ok(Self { temperatures_c: temps, total_power_w, spectral_radius, iterations })
    }

    /// One application of the map: the power at `temps` and the steady state
    /// it drives.  Non-finite values are rejected here because nothing
    /// downstream would catch them: `f64::max` drops a NaN residual, and no
    /// comparison against the runaway limit holds for NaN.
    fn map<F>(
        model: &RcThermalModel,
        power_of_temperature: &mut F,
        temps: &[f64],
    ) -> Result<(Vec<f64>, Vec<f64>), FixedPointError>
    where
        F: FnMut(&[f64]) -> Vec<f64>,
    {
        let power = power_of_temperature(temps);
        if !power.iter().all(|p| p.is_finite()) {
            return Err(FixedPointError::NonFinite);
        }
        let next = model.steady_state(&power).ok_or(FixedPointError::DegenerateNetwork)?;
        if !next.iter().all(|t| t.is_finite()) {
            return Err(FixedPointError::NonFinite);
        }
        Ok((power, next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::{ClusterPowerParams, VoltageFrequencyCurve};

    fn leaky_power(workload_w: [f64; 4]) -> impl FnMut(&[f64]) -> Vec<f64> {
        // Leakage grows mildly with each node's own temperature.
        move |temps: &[f64]| {
            temps
                .iter()
                .zip(workload_w.iter())
                .map(|(&t, &w)| w + 0.004 * w.max(0.1) * (t - 25.0).max(0.0))
                .collect()
        }
    }

    #[test]
    fn finds_stable_fixed_point_for_moderate_load() {
        let model = RcThermalModel::mobile_soc(25.0);
        let fp = FixedPointAnalysis::compute(&model, leaky_power([2.5, 0.4, 1.2, 0.0]), 150.0)
            .expect("fixed point should exist");
        assert!(fp.is_stable());
        assert!(fp.peak_temperature_c() > 30.0 && fp.peak_temperature_c() < 120.0);
        assert!(fp.total_power_w > 4.0);
        assert!(fp.iterations >= 2);
    }

    #[test]
    fn fixed_point_matches_long_simulation_with_real_power_model() {
        let model = RcThermalModel::mobile_soc(25.0);
        let big = ClusterPowerParams::odroid_big();
        let little = ClusterPowerParams::odroid_little();
        let gpu = ClusterPowerParams::gpu_slice();
        let vf_big = VoltageFrequencyCurve::odroid_big();
        let vf_little = VoltageFrequencyCurve::odroid_little();
        let vf_gpu = VoltageFrequencyCurve::integrated_gpu();
        let power_fn = |temps: &[f64]| {
            vec![
                big.power(&vf_big, 1.8e9, 0.9, temps[0]),
                little.power(&vf_little, 1.0e9, 0.5, temps[1]),
                gpu.power(&vf_gpu, 0.6e9, 0.6, temps[2]),
                0.0,
            ]
        };
        let fp = FixedPointAnalysis::compute(&model, power_fn, 200.0).expect("stable point");
        // Now simulate the coupled dynamics and confirm convergence to the same point.
        let mut sim = RcThermalModel::mobile_soc(25.0);
        for _ in 0..300_000 {
            let p = power_fn(sim.temperatures());
            sim.step(&p);
        }
        for (a, b) in sim.temperatures().iter().zip(&fp.temperatures_c) {
            assert!((a - b).abs() < 0.5, "simulated {a} vs fixed point {b}");
        }
    }

    #[test]
    fn runaway_detected_for_unbounded_leakage() {
        let model = RcThermalModel::mobile_soc(25.0);
        // Pathological leakage that doubles power for every 10 degrees of heating.
        let power_fn = |temps: &[f64]| {
            temps.iter().map(|&t| 5.0 * (1.0 + 0.4 * (t - 25.0).max(0.0))).collect()
        };
        let err = FixedPointAnalysis::compute(&model, power_fn, 130.0).unwrap_err();
        assert!(matches!(
            err,
            FixedPointError::ThermalRunaway { .. } | FixedPointError::NotConverged { .. }
        ));
    }

    #[test]
    fn zero_power_fixed_point_is_ambient() {
        let model = RcThermalModel::mobile_soc(20.0);
        let fp = FixedPointAnalysis::compute(&model, |_t| vec![0.0; 4], 100.0).unwrap();
        assert!(fp.temperatures_c.iter().all(|&t| (t - 20.0).abs() < 1e-6));
        assert_eq!(fp.total_power_w, 0.0);
        assert!(fp.is_stable());
    }

    #[test]
    fn non_finite_power_is_an_error() {
        let model = RcThermalModel::mobile_soc(25.0);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let result = FixedPointAnalysis::compute(&model, |_t| vec![1.0, bad, 0.5, 0.0], 150.0);
            assert_eq!(result, Err(FixedPointError::NonFinite), "power {bad}");
        }
        // Finite along the whole iteration, NaN only at the Jacobian's
        // probes (+0.01 °C on one node).
        let model = RcThermalModel::mobile_soc(20.0);
        let probe_only = |temps: &[f64]| {
            if temps.iter().any(|&t| t > 20.005) {
                vec![f64::NAN; 4]
            } else {
                vec![0.0; 4]
            }
        };
        let result = FixedPointAnalysis::compute(&model, probe_only, 100.0);
        assert_eq!(result, Err(FixedPointError::NonFinite));
        assert!(FixedPointError::NonFinite.to_string().contains("non-finite"));
    }

    #[test]
    fn error_display_is_informative() {
        let e = FixedPointError::ThermalRunaway { reached_c: 130.0 };
        assert!(e.to_string().contains("thermal runaway"));
        let e = FixedPointError::NotConverged { residual: 2.0 };
        assert!(e.to_string().contains("did not converge"));
        assert!(FixedPointError::DegenerateNetwork.to_string().contains("degenerate"));
    }
}
