//! Test-only reference for [`super::Mlp`]: the `Vec<Vec<f64>>` network with a
//! fresh heap vector per layer, delta and softmax that the flat layout
//! replaced.  Its arithmetic is the specification the flat network must match
//! bit for bit; the property tests below compare the two on random shapes,
//! activations and data.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use super::Activation;

#[derive(Debug, Clone)]
struct Layer {
    /// `weights[o][i]` maps input `i` to output `o`.
    weights: Vec<Vec<f64>>,
    biases: Vec<f64>,
}

impl Layer {
    fn new(inputs: usize, outputs: usize, rng: &mut ChaCha8Rng) -> Self {
        let scale = (2.0 / (inputs + outputs) as f64).sqrt();
        let weights = (0..outputs)
            .map(|_| (0..inputs).map(|_| rng.gen_range(-scale..scale)).collect())
            .collect();
        Self { weights, biases: vec![0.0; outputs] }
    }

    fn forward(&self, input: &[f64]) -> Vec<f64> {
        self.weights
            .iter()
            .zip(&self.biases)
            .map(|(row, b)| b + row.iter().zip(input).map(|(w, x)| w * x).sum::<f64>())
            .collect()
    }
}

/// The reference network, built from the same parameters as
/// [`super::MlpBuilder`].
#[derive(Debug, Clone)]
pub(super) struct ReferenceMlp {
    layers: Vec<Layer>,
    activation: Activation,
    learning_rate: f64,
    l2: f64,
    output_dim: usize,
}

impl ReferenceMlp {
    pub(super) fn new(
        sizes: &[usize],
        activation: Activation,
        learning_rate: f64,
        l2: f64,
        seed: u64,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let layers = sizes.windows(2).map(|w| Layer::new(w[0], w[1], &mut rng)).collect();
        Self { layers, activation, learning_rate, l2, output_dim: sizes[sizes.len() - 1] }
    }

    /// Every weight (row-major, layer after layer) followed by every bias.
    pub(super) fn parameters(&self) -> Vec<f64> {
        let weights = self.layers.iter().flat_map(|l| l.weights.iter().flatten());
        let biases = self.layers.iter().flat_map(|l| &l.biases);
        weights.chain(biases).copied().collect()
    }

    pub(super) fn forward(&self, x: &[f64]) -> Vec<f64> {
        self.forward_trace(x).pop().unwrap_or_default()
    }

    pub(super) fn probabilities(&self, x: &[f64]) -> Vec<f64> {
        softmax(&self.forward(x))
    }

    pub(super) fn predict_class(&self, x: &[f64]) -> usize {
        super::argmax(&self.forward(x))
    }

    /// `outputs[0]` is the input vector, `outputs[i]` the post-activation
    /// output of layer `i-1` (the last entry is pre-softmax / linear).
    fn forward_trace(&self, x: &[f64]) -> Vec<Vec<f64>> {
        let mut outputs: Vec<Vec<f64>> = Vec::with_capacity(self.layers.len() + 1);
        outputs.push(x.to_vec());
        for (idx, layer) in self.layers.iter().enumerate() {
            let mut z = layer.forward(outputs.last().expect("at least the input is present"));
            let is_last = idx + 1 == self.layers.len();
            if !is_last {
                for v in &mut z {
                    *v = self.activation.apply(*v);
                }
            }
            outputs.push(z);
        }
        outputs
    }

    pub(super) fn train_regression(&mut self, x: &[f64], target: &[f64]) -> f64 {
        assert_eq!(target.len(), self.output_dim, "target dimension mismatch");
        let trace = self.forward_trace(x);
        let prediction = trace.last().expect("forward produces outputs");
        let delta: Vec<f64> = prediction.iter().zip(target).map(|(p, t)| p - t).collect();
        let loss = delta.iter().map(|d| d * d).sum::<f64>() / delta.len() as f64;
        self.backpropagate(&trace, delta);
        loss
    }

    pub(super) fn train_classification(&mut self, x: &[f64], label: usize) -> f64 {
        assert!(label < self.output_dim, "label out of range");
        let trace = self.forward_trace(x);
        let logits = trace.last().expect("forward produces outputs");
        let probs = softmax(logits);
        let loss = -(probs[label].max(1e-12)).ln();
        let mut delta = probs;
        delta[label] -= 1.0;
        self.backpropagate(&trace, delta);
        loss
    }

    fn backpropagate(&mut self, trace: &[Vec<f64>], mut delta: Vec<f64>) {
        let lr = self.learning_rate;
        for layer_idx in (0..self.layers.len()).rev() {
            let input = &trace[layer_idx];
            let mut next_delta = vec![0.0; input.len()];
            {
                let layer = &self.layers[layer_idx];
                for (o, d) in delta.iter().enumerate() {
                    for (i, nd) in next_delta.iter_mut().enumerate() {
                        *nd += layer.weights[o][i] * d;
                    }
                }
            }
            if layer_idx > 0 {
                for (nd, out) in next_delta.iter_mut().zip(&trace[layer_idx]) {
                    *nd *= self.activation.derivative_from_output(*out);
                }
            }
            let layer = &mut self.layers[layer_idx];
            for (o, d) in delta.iter().enumerate() {
                for (i, &inp) in input.iter().enumerate() {
                    let grad = d * inp + self.l2 * layer.weights[o][i];
                    layer.weights[o][i] -= lr * grad;
                }
                layer.biases[o] -= lr * d;
            }
            delta = next_delta;
        }
    }
}

fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|v| (v - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum.max(1e-300)).collect()
}

mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::super::{Mlp, MlpBuilder};
    use super::*;
    use crate::traits::Classifier;

    /// A random network: `(sizes, activation, learning rate, l2, seed)`.
    type NetSpec = (Vec<usize>, Activation, f64, f64, u64);

    /// 0–2 hidden layers, every width in 1–32, each activation, and SGD
    /// parameters from the ranges the policy crates use.
    fn net_spec() -> impl Strategy<Value = NetSpec> {
        (vec(1usize..=32, 2..=4), 0usize..3, 0.005f64..0.2, 0.0f64..1e-3, 0u64..1_000_000).prop_map(
            |(sizes, act, lr, l2, seed)| {
                let act = [Activation::Relu, Activation::Sigmoid, Activation::Tanh][act];
                (sizes, act, lr, l2, seed)
            },
        )
    }

    /// Samples drawn from `pool`, cut to the network's input width.
    fn samples(pool: &[f64], width: usize, count: usize) -> Vec<Vec<f64>> {
        pool.chunks_exact(32).take(count).map(|row| row[..width].to_vec()).collect()
    }

    fn build(spec: &NetSpec) -> (Mlp, ReferenceMlp) {
        let (sizes, act, lr, l2, seed) = spec;
        let (inputs, outputs) = (sizes[0], sizes[sizes.len() - 1]);
        let flat = MlpBuilder::new(inputs, outputs)
            .hidden_layers(&sizes[1..sizes.len() - 1])
            .activation(*act)
            .learning_rate(*lr)
            .l2(*l2)
            .seed(*seed)
            .build();
        (flat, ReferenceMlp::new(sizes, *act, *lr, *l2, *seed))
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn flat_parameters(net: &Mlp) -> Vec<f64> {
        net.weights.iter().chain(&net.biases).copied().collect()
    }

    /// Parameters, raw outputs, probabilities and predicted classes of both
    /// networks agree bit for bit on every probe input.
    fn same_network(flat: &Mlp, reference: &ReferenceMlp, probes: &[Vec<f64>]) -> bool {
        bits(&flat_parameters(flat)) == bits(&reference.parameters())
            && probes.iter().all(|x| {
                bits(&flat.forward(x)) == bits(&reference.forward(x))
                    && bits(&flat.probabilities(x)) == bits(&reference.probabilities(x))
                    && flat.predict_class(x) == reference.predict_class(x)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn flat_classification_matches_reference_bit_for_bit(
            spec in net_spec(),
            pool in vec(-3.0f64..3.0, 32 * 12),
            labels in vec(0usize..64, 12),
            count in 1usize..=12,
        ) {
            let (mut flat, mut reference) = build(&spec);
            let xs = samples(&pool, spec.0[0], count);
            let classes = flat.output_dim();
            prop_assert!(same_network(&flat, &reference, &xs), "freshly built nets differ");
            for _ in 0..3 {
                for (x, label) in xs.iter().zip(&labels) {
                    let flat_loss = flat.train_classification(x, label % classes);
                    let reference_loss = reference.train_classification(x, label % classes);
                    prop_assert_eq!(flat_loss.to_bits(), reference_loss.to_bits());
                }
            }
            prop_assert!(same_network(&flat, &reference, &xs), "diverged after per-sample training");
        }

        #[test]
        fn flat_regression_matches_reference_bit_for_bit(
            spec in net_spec(),
            pool in vec(-3.0f64..3.0, 32 * 12),
            targets in vec(-5.0f64..5.0, 32 * 12),
            count in 1usize..=12,
        ) {
            let (mut flat, mut reference) = build(&spec);
            let xs = samples(&pool, spec.0[0], count);
            let ys = samples(&targets, flat.output_dim(), count);
            for _ in 0..3 {
                for (x, y) in xs.iter().zip(&ys) {
                    let flat_loss = flat.train_regression(x, y);
                    let reference_loss = reference.train_regression(x, y);
                    prop_assert_eq!(flat_loss.to_bits(), reference_loss.to_bits());
                }
            }
            prop_assert!(same_network(&flat, &reference, &xs), "diverged after regression training");
        }

        #[test]
        fn batch_epochs_match_reference_per_sample_loop(
            spec in net_spec(),
            pool in vec(-3.0f64..3.0, 32 * 12),
            labels in vec(0usize..64, 12),
            count in 1usize..=12,
            epochs in 0usize..=6,
        ) {
            let (mut flat, mut reference) = build(&spec);
            let xs = samples(&pool, spec.0[0], count);
            let classes = flat.output_dim();
            let labels: Vec<usize> = labels[..count].iter().map(|l| l % classes).collect();
            flat.train_classification_epochs(
                xs.iter().map(Vec::as_slice).zip(labels.iter().copied()),
                epochs,
            );
            for _ in 0..epochs {
                for (x, &label) in xs.iter().zip(&labels) {
                    let _ = reference.train_classification(x, label);
                }
            }
            prop_assert_eq!(flat.updates(), epochs * count);
            prop_assert!(same_network(&flat, &reference, &xs), "batch path diverged");
        }
    }

    #[test]
    fn classifier_fit_matches_reference_epochs() {
        let spec = (vec![3, 5, 4], Activation::Relu, 0.05, 1e-5, 3);
        let (mut flat, mut reference) = build(&spec);
        let xs: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64 * 0.1, (i % 3) as f64, -(i as f64).sin()])
            .collect();
        let labels: Vec<usize> = (0..20).map(|i| i % 4).collect();
        flat.fit(&xs, &labels);
        for _ in 0..30 {
            for (x, &label) in xs.iter().zip(&labels) {
                let _ = reference.train_classification(x, label);
            }
        }
        assert!(same_network(&flat, &reference, &xs));
    }
}
