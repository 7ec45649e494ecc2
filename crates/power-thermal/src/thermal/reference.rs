//! Test-only reference for [`super::RcThermalModel::step`]: the first step,
//! which rebuilt the state matrix `A` and allocated two vectors on every
//! call.  Its arithmetic is the specification the in-place step must match
//! bit for bit; the property test below compares the two on random networks
//! and random power sequences.

use super::{RcThermalModel, ThermalNode};

/// The first model: the network and its temperatures, nothing precomputed.
struct ReferenceThermalModel {
    nodes: Vec<ThermalNode>,
    coupling: Vec<Vec<f64>>,
    ambient_c: f64,
    step_s: f64,
    temperatures: Vec<f64>,
}

impl ReferenceThermalModel {
    fn new(nodes: Vec<ThermalNode>, coupling: Vec<Vec<f64>>, ambient_c: f64, step_s: f64) -> Self {
        let temperatures = vec![ambient_c; nodes.len()];
        Self { nodes, coupling, ambient_c, step_s, temperatures }
    }

    #[allow(clippy::needless_range_loop)]
    fn state_matrix(&self) -> Vec<Vec<f64>> {
        let n = self.nodes.len();
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

    fn step(&mut self, power_w: &[f64]) -> Vec<f64> {
        assert_eq!(power_w.len(), self.nodes.len(), "one power entry per node required");
        let a = self.state_matrix();
        let n = self.nodes.len();
        let mut next = vec![0.0; n];
        for i in 0..n {
            let mut t: f64 =
                a[i].iter().zip(&self.temperatures).map(|(aij, temp)| aij * temp).sum();
            let total_g: f64 = self.nodes[i].conductance_to_ambient;
            t += self.step_s / self.nodes[i].capacitance * (power_w[i] + total_g * self.ambient_c);
            next[i] = t;
        }
        self.temperatures = next.clone();
        next
    }
}

mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;

    /// A random network of `n` nodes: capacitances, ambient conductances and
    /// a symmetric coupling matrix with a zero diagonal.
    // The symmetric fill writes both triangles, which reads most clearly
    // with explicit matrix indices.
    #[allow(clippy::needless_range_loop)]
    fn network(
        n: usize,
        draws: &[(f64, f64)],
        couplings: &[f64],
    ) -> (Vec<ThermalNode>, Vec<Vec<f64>>) {
        let nodes = draws[..n]
            .iter()
            .enumerate()
            .map(|(i, &(c, g))| ThermalNode::new(format!("n{i}"), c, g))
            .collect();
        let mut coupling = vec![vec![0.0; n]; n];
        let mut next = couplings.iter().cycle();
        for i in 0..n {
            for j in i + 1..n {
                let g = *next.next().expect("cycled");
                coupling[i][j] = g;
                coupling[j][i] = g;
            }
        }
        (nodes, coupling)
    }

    fn assert_same_bits(model: &[f64], reference: &[f64], step: usize) {
        assert_eq!(model.len(), reference.len());
        for (node, (a, b)) in model.iter().zip(reference).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "step {step}, node {node}: {a} vs {b}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The in-place step matches the allocating one in every
        /// temperature bit, step after step, on random networks under
        /// random power sequences (negative power included).
        #[test]
        fn in_place_step_matches_reference_bit_for_bit(
            n in 1usize..7,
            draws in vec((0.5f64..80.0, 0.01f64..1.5), 6),
            couplings in vec(0.0f64..0.6, 15),
            ambient_c in -10.0f64..45.0,
            step_s in 0.001f64..0.2,
            powers in vec(vec(-1.0f64..8.0, 6), 1..200),
        ) {
            let (nodes, coupling) = network(n, &draws, &couplings);
            let mut model = RcThermalModel::new(nodes.clone(), coupling.clone(), ambient_c, step_s);
            let mut reference = ReferenceThermalModel::new(nodes, coupling, ambient_c, step_s);
            for (step, power) in powers.iter().enumerate() {
                let expected = reference.step(&power[..n]);
                assert_same_bits(model.step(&power[..n]), &expected, step);
                assert_same_bits(model.temperatures(), &expected, step);
            }
        }

        /// The same on the four-node mobile network the simulator uses, over
        /// a long run that heats it far from ambient, with `predict` and a
        /// reset on the way.
        #[test]
        fn mobile_network_matches_reference_bit_for_bit(
            ambient_c in 15.0f64..40.0,
            powers in vec((0.0f64..7.0, 0.0f64..1.5, 0.0f64..4.0), 1..400),
        ) {
            let mut model = RcThermalModel::mobile_soc(ambient_c);
            let mut reference = ReferenceThermalModel::new(
                model.nodes.clone(),
                model.coupling.clone(),
                ambient_c,
                model.step_s(),
            );
            for (step, &(big, little, gpu)) in powers.iter().enumerate() {
                let power = [big, little, gpu, 0.0];
                let mut ahead = ReferenceThermalModel::new(
                    model.nodes.clone(),
                    model.coupling.clone(),
                    ambient_c,
                    model.step_s(),
                );
                ahead.temperatures = reference.temperatures.clone();
                let mut predicted = ahead.temperatures.clone();
                for _ in 0..3 {
                    predicted = ahead.step(&power);
                }
                assert_same_bits(&model.predict(&power, 3), &predicted, step);
                let expected = reference.step(&power);
                assert_same_bits(model.step(&power), &expected, step);
            }
            model.reset();
            prop_assert_eq!(model, RcThermalModel::mobile_soc(ambient_c));
        }
    }
}
