//! Queueing-theory analytical NoC latency model.
//!
//! The model treats every link as an M/D/1 queue: packets arrive with the
//! per-link rate implied by the traffic pattern and are served in a fixed
//! number of cycles.  End-to-end latency is the sum over the average path of
//! per-hop service, router delay and queueing wait.  This is the class of
//! model the paper's Section III-C describes as accurate in steady state but
//! hard to generalise across configurations — exactly the gap the learned
//! model fills.

use serde::Serialize;

use crate::simulator::{MeshConfig, TrafficPattern};

/// Closed-form latency estimator for a mesh NoC.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AnalyticalLatencyModel {
    mesh: MeshConfig,
    pattern: TrafficPattern,
    packet_service_cycles: f64,
    router_delay_cycles: f64,
}

impl AnalyticalLatencyModel {
    /// Creates a model matching the simulator's default service and router delays.
    pub fn new(mesh: MeshConfig, pattern: TrafficPattern) -> Self {
        Self { mesh, pattern, packet_service_cycles: 4.0, router_delay_cycles: 1.0 }
    }

    /// Average hop count implied by the traffic pattern.
    pub fn average_hops(&self) -> f64 {
        match self.pattern {
            TrafficPattern::Uniform | TrafficPattern::Hotspot => self.mesh.average_hops_uniform(),
            TrafficPattern::Transpose => {
                // Transpose traffic travels |x-y| in both dimensions; approximate with
                // the uniform mean which is close for square meshes.
                self.mesh.average_hops_uniform()
            }
        }
    }

    /// Estimated utilization of an average link at the given injection rate.
    ///
    /// Each packet occupies `avg_hops` links for `service` cycles; the mesh has
    /// roughly `4·N` usable links but XY routing concentrates traffic on the
    /// central bisection, captured by a concentration factor.
    pub fn link_utilization(&self, injection_rate: f64) -> f64 {
        let nodes = self.mesh.nodes() as f64;
        let concentration = match self.pattern {
            TrafficPattern::Uniform => 1.3,
            TrafficPattern::Hotspot => 2.6,
            TrafficPattern::Transpose => 1.8,
        };
        let offered_link_load =
            injection_rate * nodes * self.average_hops() / (4.0 * nodes) * concentration;
        (offered_link_load * self.packet_service_cycles).min(0.999)
    }

    /// Predicted average end-to-end latency in cycles at the given injection rate.
    ///
    /// # Panics
    ///
    /// Panics if the injection rate is not positive.
    pub fn latency_cycles(&self, injection_rate: f64) -> f64 {
        assert!(injection_rate > 0.0, "injection rate must be positive");
        let hops = self.average_hops();
        let rho = self.link_utilization(injection_rate);
        // M/D/1 mean waiting time: rho * s / (2 (1 - rho)).
        let wait = rho * self.packet_service_cycles / (2.0 * (1.0 - rho));
        hops * (self.packet_service_cycles + self.router_delay_cycles + wait)
    }

    /// Injection rate at which the model predicts saturation (busiest link at the
    /// given utilization threshold).
    pub fn saturation_rate(&self, utilization_threshold: f64) -> f64 {
        let mut low = 1e-4;
        let mut high = 1.0;
        for _ in 0..60 {
            let mid = 0.5 * (low + high);
            if self.link_utilization(mid) < utilization_threshold {
                low = mid;
            } else {
                high = mid;
            }
        }
        0.5 * (low + high)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::NocSimulator;

    #[test]
    fn latency_monotonic_in_injection_rate() {
        let model = AnalyticalLatencyModel::new(MeshConfig::new(4, 4), TrafficPattern::Uniform);
        let mut prev = 0.0;
        for step in 1..=12 {
            let rate = step as f64 * 0.01;
            let l = model.latency_cycles(rate);
            assert!(l > prev);
            prev = l;
        }
    }

    #[test]
    fn zero_load_latency_matches_hop_delay() {
        let model = AnalyticalLatencyModel::new(MeshConfig::new(4, 4), TrafficPattern::Uniform);
        let l = model.latency_cycles(1e-4);
        let expected = model.average_hops() * 5.0;
        assert!((l - expected).abs() / expected < 0.05);
    }

    #[test]
    fn analytical_tracks_simulation_at_low_and_medium_load() {
        let mesh = MeshConfig::new(4, 4);
        let model = AnalyticalLatencyModel::new(mesh, TrafficPattern::Uniform);
        let mut sim = NocSimulator::new(mesh, TrafficPattern::Uniform, 11);
        for &rate in &[0.01, 0.04, 0.08] {
            let measured = sim.run(rate, 30_000).avg_latency_cycles;
            let predicted = model.latency_cycles(rate);
            let rel_err = (measured - predicted).abs() / measured;
            assert!(
                rel_err < 0.35,
                "rate {rate}: predicted {predicted:.1} vs measured {measured:.1} (err {rel_err:.2})"
            );
        }
    }

    #[test]
    fn hotspot_saturates_earlier_than_uniform() {
        let mesh = MeshConfig::new(6, 6);
        let uniform = AnalyticalLatencyModel::new(mesh, TrafficPattern::Uniform);
        let hotspot = AnalyticalLatencyModel::new(mesh, TrafficPattern::Hotspot);
        assert!(hotspot.saturation_rate(0.9) < uniform.saturation_rate(0.9));
    }

    #[test]
    fn utilization_clamped_below_one() {
        let model = AnalyticalLatencyModel::new(MeshConfig::new(8, 8), TrafficPattern::Uniform);
        assert!(model.link_utilization(1.0) < 1.0);
        assert!(model.latency_cycles(1.0).is_finite());
    }
}
