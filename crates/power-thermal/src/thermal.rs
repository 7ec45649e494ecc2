//! Compact RC thermal network model.
//!
//! The thermal state of the SoC is modelled as a lumped RC network with one
//! node per thermal hotspot (big cluster, LITTLE cluster, GPU, skin, ...).
//! The continuous dynamics `C·dT/dt = -G·(T - T_amb) + P` are discretised with
//! a forward-Euler step, giving the standard state-space form used by the
//! paper's references (Bhat et al., TVLSI 2017):
//!
//! ```text
//! T[k+1] = A·T[k] + B·P[k] + (I - A)·T_amb
//! ```
//!
//! `A`, the diagonal of `B` and the ambient inflow `g_amb·T_amb` are constants
//! of the network, so [`RcThermalModel::new`] computes them once and a step
//! only evaluates the recurrence, in place, with no allocation.  Each entry is
//! the expression the per-step construction used, so the trajectory keeps
//! its bits.
//!
//! The same model supports temperature prediction, steady-state (thermal fixed
//! point) computation and sustainable power-budget queries.

use serde::Serialize;

use crate::linalg;

#[cfg(test)]
mod reference;

/// Identification of a thermal node in the network.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ThermalNode {
    /// Human-readable node name (e.g. `"big"`, `"gpu"`, `"skin"`).
    pub name: String,
    /// Thermal capacitance in J/°C.
    pub capacitance: f64,
    /// Thermal conductance to ambient in W/°C.
    pub conductance_to_ambient: f64,
}

impl ThermalNode {
    /// Creates a node description.
    ///
    /// # Panics
    ///
    /// Panics if capacitance or conductance is not strictly positive.
    pub fn new(name: impl Into<String>, capacitance: f64, conductance_to_ambient: f64) -> Self {
        assert!(capacitance > 0.0, "thermal capacitance must be positive");
        assert!(conductance_to_ambient > 0.0, "conductance must be positive");
        Self { name: name.into(), capacitance, conductance_to_ambient }
    }
}

/// Discrete-time lumped RC thermal model of the SoC and device skin.
///
/// Equality and serialization cover the network and its temperatures; the
/// step coefficients derived from the network and the step's spare buffer
/// are left out.
#[derive(Debug, Clone)]
pub struct RcThermalModel {
    nodes: Vec<ThermalNode>,
    /// Conductance between node pairs, `g[i][j]` in W/°C (symmetric, zero diagonal).
    coupling: Vec<Vec<f64>>,
    ambient_c: f64,
    step_s: f64,
    temperatures: Vec<f64>,
    /// `A`, row-major (`n × n`).
    state: Vec<f64>,
    /// The diagonal of `B`: `step_s / C_i`.
    input: Vec<f64>,
    /// Each node's conductance to ambient times the ambient temperature, W.
    ambient_inflow: Vec<f64>,
    /// Where a step writes the next temperatures before swapping them in.
    next: Vec<f64>,
}

impl PartialEq for RcThermalModel {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes
            && self.coupling == other.coupling
            && self.ambient_c == other.ambient_c
            && self.step_s == other.step_s
            && self.temperatures == other.temperatures
    }
}

impl Serialize for RcThermalModel {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"nodes\":");
        self.nodes.serialize_json(out);
        out.push_str(",\"coupling\":");
        self.coupling.serialize_json(out);
        out.push_str(",\"ambient_c\":");
        self.ambient_c.serialize_json(out);
        out.push_str(",\"step_s\":");
        self.step_s.serialize_json(out);
        out.push_str(",\"temperatures\":");
        self.temperatures.serialize_json(out);
        out.push('}');
    }
}

impl RcThermalModel {
    /// Builds a thermal model from node descriptions and a symmetric coupling matrix.
    ///
    /// # Panics
    ///
    /// Panics if the coupling matrix is not `n×n`, if the time step is not
    /// positive, or if `nodes` is empty.
    pub fn new(
        nodes: Vec<ThermalNode>,
        coupling: Vec<Vec<f64>>,
        ambient_c: f64,
        step_s: f64,
    ) -> Self {
        let n = nodes.len();
        assert!(n > 0, "thermal model needs at least one node");
        assert!(step_s > 0.0, "time step must be positive");
        assert_eq!(coupling.len(), n, "coupling matrix must be square");
        assert!(coupling.iter().all(|r| r.len() == n), "coupling matrix must be square");
        let mut model = Self {
            nodes,
            coupling,
            ambient_c,
            step_s,
            temperatures: vec![ambient_c; n],
            state: Vec::new(),
            input: Vec::new(),
            ambient_inflow: Vec::new(),
            next: vec![ambient_c; n],
        };
        model.state = model.state_matrix().concat();
        model.input = model.nodes.iter().map(|node| step_s / node.capacitance).collect();
        model.ambient_inflow =
            model.nodes.iter().map(|node| node.conductance_to_ambient * ambient_c).collect();
        model
    }

    /// A four-node model (big, LITTLE, GPU, skin) calibrated to produce the
    /// temperature ranges reported for passively cooled mobile platforms.
    pub fn mobile_soc(ambient_c: f64) -> Self {
        let nodes = vec![
            ThermalNode::new("big", 6.0, 0.25),
            ThermalNode::new("little", 4.0, 0.20),
            ThermalNode::new("gpu", 5.0, 0.22),
            ThermalNode::new("skin", 60.0, 0.9),
        ];
        // Die nodes couple to each other and (more weakly) to the skin.
        let coupling = vec![
            vec![0.0, 0.30, 0.25, 0.10],
            vec![0.30, 0.0, 0.20, 0.08],
            vec![0.25, 0.20, 0.0, 0.09],
            vec![0.10, 0.08, 0.09, 0.0],
        ];
        Self::new(nodes, coupling, ambient_c, 0.1)
    }

    /// Node descriptions, in state order.
    pub fn nodes(&self) -> &[ThermalNode] {
        &self.nodes
    }

    /// Number of thermal nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Index of the node with the given name.
    pub fn node_index(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.name == name)
    }

    /// Ambient temperature in °C.
    pub fn ambient_c(&self) -> f64 {
        self.ambient_c
    }

    /// Discretisation step in seconds.
    pub fn step_s(&self) -> f64 {
        self.step_s
    }

    /// Current node temperatures in °C.
    pub fn temperatures(&self) -> &[f64] {
        &self.temperatures
    }

    /// Resets all node temperatures to ambient.
    pub fn reset(&mut self) {
        for t in &mut self.temperatures {
            *t = self.ambient_c;
        }
    }

    /// The discrete state matrix `A` (temperature-to-temperature map over one step).
    // The i≠j cross-coupling structure reads most clearly with explicit
    // matrix indices.
    #[allow(clippy::needless_range_loop)]
    pub fn state_matrix(&self) -> Vec<Vec<f64>> {
        let n = self.node_count();
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            let ci = self.nodes[i].capacitance;
            let mut total_g = self.nodes[i].conductance_to_ambient;
            for j in 0..n {
                if i != j {
                    total_g += self.coupling[i][j];
                    a[i][j] = self.step_s * self.coupling[i][j] / ci;
                }
            }
            a[i][i] = 1.0 - self.step_s * total_g / ci;
        }
        a
    }

    /// The discrete input matrix `B` (power-to-temperature map over one step, diagonal).
    pub fn input_matrix(&self) -> Vec<Vec<f64>> {
        let n = self.node_count();
        let mut b = vec![vec![0.0; n]; n];
        for (i, row) in b.iter_mut().enumerate() {
            row[i] = self.step_s / self.nodes[i].capacitance;
        }
        b
    }

    /// Advances the thermal state by one step under the given per-node power (W).
    ///
    /// Returns the new temperatures, `A·T + B·(P + g_amb·T_amb)` row by row.
    /// Coupled terms already reference the other nodes' temperatures, and
    /// `A`'s diagonal subtracts the full conductance sum, so the only pull
    /// toward ambient left to add is the ambient conductance's inflow.
    ///
    /// # Panics
    ///
    /// Panics if `power_w.len()` does not match the number of nodes.
    pub fn step(&mut self, power_w: &[f64]) -> &[f64] {
        let n = self.node_count();
        assert_eq!(power_w.len(), n, "one power entry per node required");
        let rows = self.state.chunks_exact(n);
        let inputs = self.input.iter().zip(&self.ambient_inflow).zip(power_w);
        for ((next, row), ((b, inflow), p)) in self.next.iter_mut().zip(rows).zip(inputs) {
            let t: f64 = row.iter().zip(&self.temperatures).map(|(aij, temp)| aij * temp).sum();
            *next = t + b * (p + inflow);
        }
        std::mem::swap(&mut self.temperatures, &mut self.next);
        &self.temperatures
    }

    /// Simulates `steps` steps under constant power and returns the trajectory of
    /// the hottest node at every step.
    pub fn simulate_constant_power(&mut self, power_w: &[f64], steps: usize) -> Vec<f64> {
        (0..steps)
            .map(|_| {
                self.step(power_w);
                self.temperatures.iter().cloned().fold(f64::MIN, f64::max)
            })
            .collect()
    }

    /// Predicts the temperature vector `horizon` steps ahead under constant power
    /// without mutating the model state.
    pub fn predict(&self, power_w: &[f64], horizon: usize) -> Vec<f64> {
        let mut clone = self.clone();
        for _ in 0..horizon {
            clone.step(power_w);
        }
        clone.temperatures
    }

    /// Steady-state temperatures under constant per-node power, i.e. the thermal
    /// fixed point `T* = A·T* + B·P + (I-A)·T_amb`, solved exactly.
    ///
    /// Returns `None` if the network is degenerate (singular `I - A`).
    // The i≠j cross-coupling structure reads most clearly with explicit
    // matrix indices.
    #[allow(clippy::needless_range_loop)]
    pub fn steady_state(&self, power_w: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(power_w.len(), self.node_count(), "one power entry per node required");
        // Solve G_total · (T - T_amb·1) = P  in the continuous domain:
        // conductance matrix L where L[i][i] = g_amb_i + sum_j g_ij, L[i][j] = -g_ij.
        let n = self.node_count();
        let mut l = vec![vec![0.0; n]; n];
        for i in 0..n {
            let mut diag = self.nodes[i].conductance_to_ambient;
            for j in 0..n {
                if i != j {
                    diag += self.coupling[i][j];
                    l[i][j] = -self.coupling[i][j];
                }
            }
            l[i][i] = diag;
        }
        let delta = linalg::solve(&l, power_w)?;
        Some(delta.into_iter().map(|d| d + self.ambient_c).collect())
    }

    /// Maximum total power (uniformly scaled from the given power distribution)
    /// that keeps the named node's steady-state temperature below `limit_c`.
    ///
    /// This is the "power budget" primitive that thermal governors use to throttle
    /// frequency before a violation happens.  Returns `None` for an unknown node
    /// or a degenerate network.
    pub fn sustainable_power_budget(
        &self,
        node: &str,
        power_shape: &[f64],
        limit_c: f64,
    ) -> Option<f64> {
        let idx = self.node_index(node)?;
        let base = self.steady_state(power_shape)?;
        let rise = base[idx] - self.ambient_c;
        if rise <= 0.0 {
            return Some(f64::INFINITY);
        }
        let allowed_rise = (limit_c - self.ambient_c).max(0.0);
        let scale = allowed_rise / rise;
        Some(power_shape.iter().sum::<f64>() * scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> RcThermalModel {
        RcThermalModel::mobile_soc(25.0)
    }

    #[test]
    fn starts_at_ambient_and_heats_up() {
        let mut m = model();
        assert!(m.temperatures().iter().all(|&t| (t - 25.0).abs() < 1e-12));
        let p = [3.0, 0.5, 1.5, 0.0];
        let traj = m.simulate_constant_power(&p, 500);
        assert!(traj.last().unwrap() > &30.0, "die should heat well above ambient");
        // Monotone non-decreasing hottest-node trajectory under constant power.
        for w in traj.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
    }

    #[test]
    fn converges_to_steady_state() {
        let mut m = model();
        let p = [2.5, 0.4, 1.0, 0.0];
        let ss = m.steady_state(&p).unwrap();
        for _ in 0..200_000 {
            m.step(&p);
        }
        for (sim, exact) in m.temperatures().iter().zip(&ss) {
            assert!((sim - exact).abs() < 0.05, "simulated {sim} vs exact {exact}");
        }
    }

    #[test]
    fn zero_power_stays_at_ambient() {
        let mut m = model();
        let traj = m.simulate_constant_power(&[0.0; 4], 100);
        assert!(traj.iter().all(|&t| (t - 25.0).abs() < 1e-9));
        let ss = m.steady_state(&[0.0; 4]).unwrap();
        assert!(ss.iter().all(|&t| (t - 25.0).abs() < 1e-9));
    }

    #[test]
    fn skin_is_cooler_than_die() {
        let m = model();
        let ss = m.steady_state(&[3.0, 0.6, 1.5, 0.0]).unwrap();
        let skin = ss[m.node_index("skin").unwrap()];
        let big = ss[m.node_index("big").unwrap()];
        assert!(skin < big, "skin ({skin}) should stay cooler than the die ({big})");
        assert!(skin > m.ambient_c(), "skin still heats above ambient");
    }

    #[test]
    fn predict_does_not_mutate() {
        let m = model();
        let before = m.temperatures().to_vec();
        let ahead = m.predict(&[3.0, 0.5, 1.0, 0.0], 50);
        assert_eq!(m.temperatures(), &before[..]);
        assert!(ahead[0] > before[0]);
    }

    #[test]
    fn power_budget_scales_with_limit() {
        let m = model();
        let shape = [2.0, 0.5, 1.0, 0.0];
        let tight = m.sustainable_power_budget("big", &shape, 60.0).unwrap();
        let loose = m.sustainable_power_budget("big", &shape, 85.0).unwrap();
        assert!(loose > tight);
        assert!(m.sustainable_power_budget("nonexistent", &shape, 60.0).is_none());
    }

    #[test]
    fn higher_ambient_raises_steady_state() {
        let cold = RcThermalModel::mobile_soc(15.0);
        let hot = RcThermalModel::mobile_soc(35.0);
        let p = [2.0, 0.3, 1.0, 0.0];
        let c = cold.steady_state(&p).unwrap()[0];
        let h = hot.steady_state(&p).unwrap()[0];
        assert!((h - c - 20.0).abs() < 1e-6, "ambient shift should translate steady state");
    }
}
