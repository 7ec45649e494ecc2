//! Analytical cluster power models.
//!
//! Power of a CPU/GPU cluster is modelled the way the mobile-SoC literature
//! referenced by the paper does (Bhat et al., Gupta et al.):
//!
//! ```text
//! P = P_dyn + P_leak
//! P_dyn  = C_eff · V² · f · u          (switching power, utilization scaled)
//! P_leak = n_active · (k1 · V + k2 · V · T)   (temperature-dependent leakage)
//! ```
//!
//! where `V` follows the platform's voltage–frequency curve, `u` is the
//! cluster utilization in `[0, 1]` and `T` is the cluster temperature in °C.

use serde::Serialize;

/// Voltage–frequency operating curve of a voltage domain.
///
/// Voltage rises linearly from `v_min` at (near) zero frequency to
/// `v_min + v_range` at `f_max`, which is a good first-order fit of published
/// Exynos 5422 and Intel Gen-9 DVFS tables.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct VoltageFrequencyCurve {
    v_min: f64,
    v_range: f64,
    f_max: f64,
}

impl VoltageFrequencyCurve {
    /// Creates a curve with minimum voltage `v_min` (V), additional voltage
    /// swing `v_range` (V) reached at `f_max` (Hz).
    ///
    /// # Panics
    ///
    /// Panics if any argument is not strictly positive.
    pub fn new(v_min: f64, v_range: f64, f_max: f64) -> Self {
        assert!(v_min > 0.0 && v_range > 0.0 && f_max > 0.0, "curve parameters must be positive");
        Self { v_min, v_range, f_max }
    }

    /// Curve used for the big (Cortex-A15-class) cluster of the simulated platform.
    pub fn odroid_big() -> Self {
        Self::new(0.90, 0.45, 2.0e9)
    }

    /// Curve used for the LITTLE (Cortex-A7-class) cluster.
    pub fn odroid_little() -> Self {
        Self::new(0.90, 0.30, 1.4e9)
    }

    /// Curve used for the integrated GPU voltage domain.
    pub fn integrated_gpu() -> Self {
        Self::new(0.65, 0.45, 1.15e9)
    }

    /// Operating voltage at frequency `f` (clamped to the curve's range).
    pub fn voltage(&self, f: f64) -> f64 {
        let ratio = (f / self.f_max).clamp(0.0, 1.0);
        self.v_min + self.v_range * ratio
    }

    /// Maximum frequency supported by the curve, in Hz.
    pub fn f_max(&self) -> f64 {
        self.f_max
    }
}

/// Decomposition of a power estimate into its dynamic and leakage parts.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct PowerBreakdown {
    /// Switching (dynamic) power in watts.
    pub dynamic_w: f64,
    /// Leakage (static) power in watts.
    pub leakage_w: f64,
}

impl PowerBreakdown {
    /// Total power in watts.
    pub fn total_w(&self) -> f64 {
        self.dynamic_w + self.leakage_w
    }
}

/// Calibration constants of one cluster's power model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ClusterPowerParams {
    /// Effective switched capacitance in farads (per core at full utilization).
    pub c_eff: f64,
    /// Number of cores in the cluster.
    pub cores: u32,
    /// Leakage coefficient proportional to voltage (W/V per core).
    pub leak_v: f64,
    /// Leakage coefficient proportional to voltage × temperature (W/(V·°C) per core).
    pub leak_vt: f64,
    /// Uncore/idle power of the cluster that is paid whenever it is powered (W).
    pub uncore_w: f64,
}

impl ClusterPowerParams {
    /// Parameters resembling the Exynos 5422 big (A15) cluster.
    pub fn odroid_big() -> Self {
        Self { c_eff: 6.0e-10, cores: 4, leak_v: 0.06, leak_vt: 0.0015, uncore_w: 0.12 }
    }

    /// Parameters resembling the Exynos 5422 LITTLE (A7) cluster.
    pub fn odroid_little() -> Self {
        Self { c_eff: 1.1e-10, cores: 4, leak_v: 0.015, leak_vt: 0.0004, uncore_w: 0.05 }
    }

    /// Parameters resembling a Gen-9 class integrated GPU slice.
    pub fn gpu_slice() -> Self {
        Self { c_eff: 1.6e-9, cores: 1, leak_v: 0.10, leak_vt: 0.0030, uncore_w: 0.08 }
    }

    /// Power consumed by the cluster at frequency `f` (Hz), utilization `u`
    /// (`[0, 1]`, averaged over the cluster's cores) and temperature `temp_c` (°C).
    pub fn power(&self, curve: &VoltageFrequencyCurve, f: f64, u: f64, temp_c: f64) -> f64 {
        self.power_breakdown(curve, f, u, temp_c).total_w()
    }

    /// Like [`ClusterPowerParams::power`] but returns the dynamic/leakage split.
    pub fn power_breakdown(
        &self,
        curve: &VoltageFrequencyCurve,
        f: f64,
        u: f64,
        temp_c: f64,
    ) -> PowerBreakdown {
        self.operating_point(curve, f, temp_c).breakdown(u)
    }

    /// The utilization-independent part of [`ClusterPowerParams::power`] at
    /// frequency `f` and temperature `temp_c`, for callers that price many
    /// utilizations at one operating point.
    pub fn operating_point(
        &self,
        curve: &VoltageFrequencyCurve,
        f: f64,
        temp_c: f64,
    ) -> OperatingPoint {
        let v = curve.voltage(f);
        let cores = self.cores as f64;
        OperatingPoint {
            switching_w: self.c_eff * v * v * f,
            cores,
            uncore_w: self.uncore_w,
            leakage_w: cores * (self.leak_v * v + self.leak_vt * v * temp_c.max(0.0)),
        }
    }

    /// Energy in joules for running at the given operating point for `duration_s` seconds.
    pub fn energy(
        &self,
        curve: &VoltageFrequencyCurve,
        f: f64,
        u: f64,
        temp_c: f64,
        duration_s: f64,
    ) -> f64 {
        self.power(curve, f, u, temp_c) * duration_s.max(0.0)
    }
}

/// One cluster's power at a fixed frequency and temperature, as a function
/// of utilization alone ([`ClusterPowerParams::operating_point`]).
///
/// `switching_w` is the left-associative prefix `c_eff · V · V · f` of the
/// dynamic-power product, so [`OperatingPoint::power`] multiplies the same
/// operands in the same order as a full evaluation and returns the
/// same bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// `c_eff · V · V · f`, watts at full utilization of one core.
    switching_w: f64,
    /// Cores in the cluster.
    cores: f64,
    /// Uncore/idle power of the cluster, watts.
    uncore_w: f64,
    /// Leakage power of the whole cluster, watts.
    leakage_w: f64,
}

impl OperatingPoint {
    /// Total cluster power at utilization `u` (clamped to `[0, 1]`).
    pub fn power(&self, u: f64) -> f64 {
        self.breakdown(u).total_w()
    }

    fn breakdown(&self, u: f64) -> PowerBreakdown {
        let u = u.clamp(0.0, 1.0);
        let dynamic = self.switching_w * u * self.cores + self.uncore_w;
        PowerBreakdown { dynamic_w: dynamic, leakage_w: self.leakage_w }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn voltage_monotonic_in_frequency() {
        let vf = VoltageFrequencyCurve::odroid_big();
        let mut prev = 0.0;
        for step in 0..=10 {
            let f = step as f64 / 10.0 * vf.f_max();
            let v = vf.voltage(f);
            assert!(v >= prev);
            prev = v;
        }
        assert!((vf.voltage(vf.f_max() * 2.0) - vf.voltage(vf.f_max())).abs() < 1e-12);
    }

    #[test]
    fn power_increases_with_frequency_and_utilization() {
        let vf = VoltageFrequencyCurve::odroid_big();
        let p = ClusterPowerParams::odroid_big();
        let low = p.power(&vf, 0.6e9, 0.5, 50.0);
        let high_f = p.power(&vf, 2.0e9, 0.5, 50.0);
        let high_u = p.power(&vf, 0.6e9, 1.0, 50.0);
        assert!(high_f > low);
        assert!(high_u > low);
    }

    #[test]
    fn power_is_superlinear_in_frequency() {
        // Because V rises with f, doubling f should more than double dynamic power.
        let vf = VoltageFrequencyCurve::odroid_big();
        let p = ClusterPowerParams::odroid_big();
        let d1 = p.power_breakdown(&vf, 1.0e9, 1.0, 50.0).dynamic_w - p.uncore_w;
        let d2 = p.power_breakdown(&vf, 2.0e9, 1.0, 50.0).dynamic_w - p.uncore_w;
        assert!(d2 > 2.0 * d1);
    }

    #[test]
    fn leakage_grows_with_temperature() {
        let vf = VoltageFrequencyCurve::odroid_big();
        let p = ClusterPowerParams::odroid_big();
        let cold = p.power_breakdown(&vf, 1.4e9, 0.5, 30.0).leakage_w;
        let hot = p.power_breakdown(&vf, 1.4e9, 0.5, 85.0).leakage_w;
        assert!(hot > cold);
    }

    #[test]
    fn big_cluster_burns_more_than_little_at_same_point() {
        let big = ClusterPowerParams::odroid_big();
        let little = ClusterPowerParams::odroid_little();
        let pb = big.power(&VoltageFrequencyCurve::odroid_big(), 1.4e9, 0.8, 60.0);
        let pl = little.power(&VoltageFrequencyCurve::odroid_little(), 1.4e9, 0.8, 60.0);
        assert!(pb > 2.0 * pl);
    }

    #[test]
    fn realistic_magnitudes() {
        // Big cluster flat out should land in the single-digit-watt range that the
        // Odroid-XU3 power sensors report.
        let big = ClusterPowerParams::odroid_big();
        let p = big.power(&VoltageFrequencyCurve::odroid_big(), 2.0e9, 1.0, 70.0);
        assert!(p > 2.0 && p < 10.0, "big cluster peak power {p} W out of expected range");
        let little = ClusterPowerParams::odroid_little();
        let pl = little.power(&VoltageFrequencyCurve::odroid_little(), 1.4e9, 1.0, 70.0);
        assert!(pl > 0.1 && pl < 1.5, "LITTLE cluster peak power {pl} W out of expected range");
    }

    #[test]
    fn energy_scales_with_duration_and_clamps_negative() {
        let vf = VoltageFrequencyCurve::odroid_big();
        let p = ClusterPowerParams::odroid_big();
        let e1 = p.energy(&vf, 1.0e9, 0.7, 50.0, 1.0);
        let e2 = p.energy(&vf, 1.0e9, 0.7, 50.0, 2.0);
        assert!((e2 - 2.0 * e1).abs() < 1e-9);
        assert_eq!(p.energy(&vf, 1.0e9, 0.7, 50.0, -1.0), 0.0);
    }
}
