//! Multi-layer perceptron trained by back-propagation.
//!
//! The online-IL policy of the paper (Section IV-A3) is "represented as a
//! neural network and ... updated using the back-propagation algorithm".  The
//! networks involved are tiny — a handful of hidden units over at most a dozen
//! counter features — so a straightforward dense implementation with
//! stochastic gradient descent is faithful to the original and fast enough to
//! be called once per snippet.
//!
//! The network is a classifier (softmax output, cross-entropy loss); the
//! policy crates use it to pick discrete frequency levels.
//!
//! # Layout
//!
//! Every weight lives in one row-major buffer, layer after layer: weight
//! `(o, i)` of a layer with `n` inputs sits at `offset + o * n + i`.  The
//! biases are concatenated the same way.  A forward pass writes each layer's
//! outputs into a buffer laid out like the biases, so a layer's input is the
//! block just before its own, and back-propagation keeps its deltas in a
//! second buffer of that layout.  Both buffers form a per-thread workspace:
//! a training batch ([`Mlp::train_classification_epochs`]) borrows it once,
//! and inference ([`Classifier::predict_class`]) never touches the heap.
//! The workspace cannot live in the network, because one shared network
//! serves predictions on many threads at once.
//!
//! # Bit-identity contract
//!
//! Training and prediction produce the same bits as the textbook
//! `Vec<Vec<f64>>` formulation (one heap vector per layer, delta and
//! softmax), kept as a test-only reference that property tests compare
//! against.  That holds because the floating-point operations run in the
//! same order:
//!
//! - initial weights are drawn outputs outer, inputs inner;
//! - each output's pre-activation is
//!   `b + row.iter().zip(input).map(|(w, x)| w * x).sum::<f64>()`.  The
//!   standard library's float `Sum` folds from `-0.0`, so a hand-rolled loop
//!   starting at `0.0` would flip the sign of all-zero sums;
//! - back-propagated deltas accumulate output by output from `0.0`, and the
//!   delta below the input layer, which nothing reads, is not computed;
//! - nothing is reassociated for SIMD and nothing is fused into FMA.

use std::cell::RefCell;
use std::ops::Range;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::traits::Classifier;

#[cfg(test)]
mod reference;

/// Hidden-layer activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    fn apply(&self, v: f64) -> f64 {
        match self {
            Activation::Relu => v.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-v).exp()),
            Activation::Tanh => v.tanh(),
        }
    }

    fn derivative_from_output(&self, out: f64) -> f64 {
        match self {
            Activation::Relu => {
                if out > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => out * (1.0 - out),
            Activation::Tanh => 1.0 - out * out,
        }
    }
}

/// Builder for [`Mlp`] networks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpBuilder {
    input_dim: usize,
    hidden: Vec<usize>,
    output_dim: usize,
    activation: Activation,
    learning_rate: f64,
    l2: f64,
    seed: u64,
}

impl MlpBuilder {
    /// Starts a builder for a network with the given input and output widths.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(input_dim: usize, output_dim: usize) -> Self {
        assert!(input_dim > 0 && output_dim > 0, "network dimensions must be positive");
        Self {
            input_dim,
            hidden: vec![16],
            output_dim,
            activation: Activation::Relu,
            learning_rate: 0.01,
            l2: 1e-5,
            seed: 7,
        }
    }

    /// Sets the hidden-layer widths (may be empty for a linear model).
    pub fn hidden_layers(mut self, hidden: &[usize]) -> Self {
        assert!(hidden.iter().all(|&h| h > 0), "hidden layer widths must be positive");
        self.hidden = hidden.to_vec();
        self
    }

    /// Sets the hidden activation function.
    pub fn activation(mut self, activation: Activation) -> Self {
        self.activation = activation;
        self
    }

    /// Sets the SGD learning rate.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not strictly positive.
    pub fn learning_rate(mut self, rate: f64) -> Self {
        assert!(rate > 0.0, "learning rate must be positive");
        self.learning_rate = rate;
        self
    }

    /// Sets the L2 weight-decay strength.
    pub fn l2(mut self, l2: f64) -> Self {
        assert!(l2 >= 0.0, "weight decay must be non-negative");
        self.l2 = l2;
        self
    }

    /// Sets the RNG seed used for weight initialisation.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the network.
    pub fn build(self) -> Mlp {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut sizes = vec![self.input_dim];
        sizes.extend_from_slice(&self.hidden);
        sizes.push(self.output_dim);
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        let mut weights = Vec::new();
        let mut bias_offset = 0;
        for pair in sizes.windows(2) {
            let (inputs, outputs) = (pair[0], pair[1]);
            layers.push(LayerShape { inputs, outputs, weight_offset: weights.len(), bias_offset });
            let scale = (2.0 / (inputs + outputs) as f64).sqrt();
            weights.extend((0..inputs * outputs).map(|_| rng.gen_range(-scale..scale)));
            bias_offset += outputs;
        }
        Mlp {
            layers,
            weights,
            biases: vec![0.0; bias_offset],
            activation: self.activation,
            learning_rate: self.learning_rate,
            l2: self.l2,
            updates: 0,
        }
    }
}

/// Where one dense layer's parameters sit in the network's flat buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct LayerShape {
    inputs: usize,
    outputs: usize,
    /// Start of the layer's `outputs × inputs` row-major weight block.
    weight_offset: usize,
    /// Start of the layer's bias block, which is also where its outputs and
    /// deltas sit in the workspace.
    bias_offset: usize,
}

impl LayerShape {
    fn weights(&self) -> Range<usize> {
        self.weight_offset..self.weight_offset + self.inputs * self.outputs
    }

    fn biases(&self) -> Range<usize> {
        self.bias_offset..self.bias_offset + self.outputs
    }

    /// Where the previous layer's outputs, this layer's input, sit in the
    /// workspace (meaningless for the first layer, whose input is the sample).
    fn previous(&self) -> Range<usize> {
        self.bias_offset - self.inputs..self.bias_offset
    }
}

/// A dense feed-forward network trained with stochastic gradient descent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<LayerShape>,
    /// Every layer's weights, row-major, layer after layer.
    weights: Vec<f64>,
    /// Every layer's biases, layer after layer.
    biases: Vec<f64>,
    activation: Activation,
    learning_rate: f64,
    l2: f64,
    updates: usize,
}

/// Per-layer outputs and deltas of one forward/backward pass, both laid out
/// like the network's biases.  Sized for the largest network the thread has
/// used.
struct Workspace {
    activations: Vec<f64>,
    deltas: Vec<f64>,
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> =
        const { RefCell::new(Workspace { activations: Vec::new(), deltas: Vec::new() }) };
}

/// Runs `f` on this thread's workspace, grown to at least `len` entries.
fn with_workspace<R>(len: usize, f: impl FnOnce(&mut Workspace) -> R) -> R {
    WORKSPACE.with(|cell| {
        let mut ws = cell.borrow_mut();
        if ws.activations.len() < len {
            ws.activations.resize(len, 0.0);
            ws.deltas.resize(len, 0.0);
        }
        f(&mut ws)
    })
}

impl Mlp {
    /// Number of inputs the network expects.
    pub fn input_dim(&self) -> usize {
        self.layers[0].inputs
    }

    /// Number of outputs the network produces.
    pub fn output_dim(&self) -> usize {
        self.output_layer().outputs
    }

    fn output_layer(&self) -> LayerShape {
        self.layers[self.layers.len() - 1]
    }

    /// Number of gradient updates applied so far.
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// Total number of trainable parameters (weights and biases), for
    /// model-footprint accounting.
    pub fn param_count(&self) -> usize {
        self.weights.len() + self.biases.len()
    }

    /// Raw network outputs (pre-softmax for classification use).
    ///
    /// # Panics
    ///
    /// Panics on input dimension mismatch.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        self.with_outputs(x, <[f64]>::to_vec)
    }

    /// Softmax of the network outputs, usable as class probabilities.
    pub fn probabilities(&self, x: &[f64]) -> Vec<f64> {
        let mut probs = self.forward(x);
        softmax_in_place(&mut probs);
        probs
    }

    /// Runs a forward pass on this thread's workspace and hands `f` the raw
    /// outputs.
    fn with_outputs<R>(&self, x: &[f64], f: impl FnOnce(&[f64]) -> R) -> R {
        with_workspace(self.biases.len(), |ws| {
            self.forward_into(x, &mut ws.activations);
            f(&ws.activations[self.output_layer().biases()])
        })
    }

    /// Writes every layer's (post-activation) outputs into `activations`;
    /// the last layer's block holds the raw network outputs.
    fn forward_into(&self, x: &[f64], activations: &mut [f64]) {
        assert_eq!(x.len(), self.input_dim(), "input dimension mismatch");
        let last = self.layers.len() - 1;
        for (l, layer) in self.layers.iter().enumerate() {
            let (before, rest) = activations.split_at_mut(layer.bias_offset);
            let input = if l == 0 { x } else { &before[layer.previous()] };
            let rows = self.weights[layer.weights()].chunks_exact(layer.inputs);
            for ((z, row), b) in rest.iter_mut().zip(rows).zip(&self.biases[layer.biases()]) {
                let v = b + row.iter().zip(input).map(|(w, x)| w * x).sum::<f64>();
                *z = if l == last { v } else { self.activation.apply(v) };
            }
        }
    }

    /// One SGD step of softmax cross-entropy toward the class `label`; returns the
    /// cross-entropy loss before the update.
    ///
    /// # Panics
    ///
    /// Panics if `label >= output_dim` or on input dimension mismatch.
    pub fn train_classification(&mut self, x: &[f64], label: usize) -> f64 {
        with_workspace(self.biases.len(), |ws| self.classification_step(ws, x, label))
    }

    /// `epochs` passes of [`Mlp::train_classification`] over the
    /// `(x, label)` samples, in order, on one workspace.  The updates equal,
    /// bit for bit, calling `train_classification` on each sample in turn.
    ///
    /// # Panics
    ///
    /// Panics on a label `>= output_dim` or an input dimension mismatch.
    pub fn train_classification_epochs<'a, I>(&mut self, samples: I, epochs: usize)
    where
        I: IntoIterator<Item = (&'a [f64], usize)> + Clone,
    {
        with_workspace(self.biases.len(), |ws| {
            for _ in 0..epochs {
                for (x, label) in samples.clone() {
                    let _ = self.classification_step(ws, x, label);
                }
            }
        })
    }

    fn classification_step(&mut self, ws: &mut Workspace, x: &[f64], label: usize) -> f64 {
        assert!(label < self.output_dim(), "label out of range");
        self.forward_into(x, &mut ws.activations);
        let out = self.output_layer().biases();
        let delta = &mut ws.deltas[out.clone()];
        delta.copy_from_slice(&ws.activations[out]);
        softmax_in_place(delta);
        let loss = -(delta[label].max(1e-12)).ln();
        delta[label] -= 1.0;
        self.backpropagate(x, ws);
        loss
    }

    /// Backpropagates the output-layer error signal (dL/dz for the last
    /// layer's pre-activation, in the last block of `ws.deltas`) of the
    /// forward pass of `x` in `ws.activations`, and applies one SGD update.
    fn backpropagate(&mut self, x: &[f64], ws: &mut Workspace) {
        let lr = self.learning_rate;
        for (l, layer) in self.layers.iter().enumerate().rev() {
            let (below, rest) = ws.deltas.split_at_mut(layer.bias_offset);
            let delta = &rest[..layer.outputs];
            let input = if l == 0 { x } else { &ws.activations[layer.previous()] };
            let weights = &mut self.weights[layer.weights()];
            if l > 0 {
                // Propagate through this layer's weights before updating them,
                // then through the activation of the layer below.
                let next = &mut below[layer.previous()];
                next.fill(0.0);
                for (row, d) in weights.chunks_exact(layer.inputs).zip(delta) {
                    for (nd, w) in next.iter_mut().zip(row) {
                        *nd += w * d;
                    }
                }
                for (nd, out) in next.iter_mut().zip(input) {
                    *nd *= self.activation.derivative_from_output(*out);
                }
            }
            let rows = weights.chunks_exact_mut(layer.inputs);
            for ((row, d), b) in rows.zip(delta).zip(&mut self.biases[layer.biases()]) {
                for (w, inp) in row.iter_mut().zip(input) {
                    let grad = d * inp + self.l2 * *w;
                    *w -= lr * grad;
                }
                *b -= lr * d;
            }
        }
        self.updates += 1;
    }
}

fn softmax_in_place(values: &mut [f64]) {
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for v in values.iter_mut() {
        *v = (*v - max).exp();
    }
    let sum: f64 = values.iter().sum();
    for v in values.iter_mut() {
        *v /= sum.max(1e-300);
    }
}

impl Classifier for Mlp {
    fn fit(&mut self, xs: &[Vec<f64>], labels: &[usize]) {
        assert_eq!(xs.len(), labels.len(), "sample/label count mismatch");
        assert!(!xs.is_empty(), "cannot fit on an empty dataset");
        const EPOCHS: usize = 30;
        let samples = xs.iter().map(Vec::as_slice).zip(labels.iter().copied());
        self.train_classification_epochs(samples, EPOCHS);
    }

    fn predict_class(&self, x: &[f64]) -> usize {
        self.with_outputs(x, argmax)
    }

    fn scores(&self, x: &[f64]) -> Vec<f64> {
        self.probabilities(x)
    }

    fn class_count(&self) -> usize {
        self.output_dim()
    }
}

/// Index of the maximum element (first one on ties); 0 for an empty slice.
pub fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in values.iter().enumerate().skip(1) {
        if v > values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_xor_classification() {
        let xs = [vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]];
        let labels = [0usize, 1, 1, 0];
        // XOR training can land in a bad basin for an unlucky initialisation; the
        // test requires that at least one of a few fixed seeds learns it exactly,
        // which is how the policy crates use the network (they pick a fixed seed
        // that works and keep it).
        let learned = (0..6u64).any(|seed| {
            let mut net = MlpBuilder::new(2, 2)
                .hidden_layers(&[12])
                .activation(Activation::Tanh)
                .learning_rate(0.05)
                .l2(0.0)
                .seed(seed)
                .build();
            for _ in 0..4000 {
                for (x, &l) in xs.iter().zip(&labels) {
                    net.train_classification(x, l);
                }
            }
            let p = net.probabilities(&xs[0]);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            xs.iter().map(|x| net.predict_class(x)).collect::<Vec<_>>() == labels
        });
        assert!(learned, "XOR should be learnable with one hidden layer for some seed");
    }

    #[test]
    fn classifier_fit_separates_simple_clusters() {
        let mut xs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let offset = i as f64 * 0.01;
            xs.push(vec![1.0 + offset, 1.0 - offset]);
            labels.push(0usize);
            xs.push(vec![-1.0 - offset, -1.0 + offset]);
            labels.push(1usize);
            xs.push(vec![1.0 + offset, -1.0 - offset]);
            labels.push(2usize);
        }
        let mut net =
            MlpBuilder::new(2, 3).hidden_layers(&[12]).learning_rate(0.05).seed(5).build();
        net.fit(&xs, &labels);
        let correct = xs.iter().zip(&labels).filter(|(x, &l)| net.predict_class(x) == l).count();
        assert!(correct as f64 / xs.len() as f64 > 0.95, "accuracy {}/{}", correct, xs.len());
        assert_eq!(net.class_count(), 3);
    }

    #[test]
    fn cross_entropy_decreases_during_training() {
        let mut net = MlpBuilder::new(1, 2).hidden_layers(&[4]).learning_rate(0.1).seed(9).build();
        let first = net.train_classification(&[1.0], 1);
        let mut last = first;
        for _ in 0..200 {
            last = net.train_classification(&[1.0], 1);
        }
        assert!(last < first * 0.5, "loss should fall: {first} -> {last}");
    }

    #[test]
    fn training_activations_differ_but_all_learn_sign_task() {
        for act in [Activation::Relu, Activation::Sigmoid, Activation::Tanh] {
            let mut net = MlpBuilder::new(1, 2)
                .hidden_layers(&[6])
                .activation(act)
                .learning_rate(0.1)
                .seed(11)
                .build();
            for _ in 0..500 {
                net.train_classification(&[1.0], 1);
                net.train_classification(&[-1.0], 0);
            }
            assert_eq!(net.predict_class(&[2.0]), 1, "{act:?}");
            assert_eq!(net.predict_class(&[-2.0]), 0, "{act:?}");
        }
    }

    #[test]
    fn argmax_handles_edges() {
        assert_eq!(argmax(&[]), 0);
        assert_eq!(argmax(&[1.0]), 0);
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[2.0, 2.0]), 0);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_label() {
        let mut net = MlpBuilder::new(1, 2).build();
        net.train_classification(&[0.0], 5);
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn rejects_bad_input_width() {
        let net = MlpBuilder::new(3, 2).build();
        let _ = net.forward(&[0.0]);
    }
}

#[cfg(test)]
mod gradcheck_tests {
    use super::*;

    #[test]
    fn numerical_gradient_check() {
        let net = MlpBuilder::new(2, 2)
            .hidden_layers(&[3])
            .activation(Activation::Tanh)
            .learning_rate(1.0)
            .l2(0.0)
            .seed(13)
            .build();
        let x = [0.7, -0.4];
        let label = 1usize;
        let loss_of = |n: &Mlp| -> f64 {
            let p = n.probabilities(&x);
            -(p[label].max(1e-12)).ln()
        };
        // numerical gradient for a hidden-layer weight and an output-layer weight
        for (li, o, i) in [(0usize, 1usize, 0usize), (1usize, 0usize, 2usize)] {
            let layer = net.layers[li];
            let w = layer.weight_offset + o * layer.inputs + i;
            let eps = 1e-6;
            let mut plus = net.clone();
            plus.weights[w] += eps;
            let mut minus = net.clone();
            minus.weights[w] -= eps;
            let num_grad = (loss_of(&plus) - loss_of(&minus)) / (2.0 * eps);
            // analytic: apply one update with lr=1 and measure weight change = -grad
            let mut updated = net.clone();
            updated.train_classification(&x, label);
            let ana_grad = net.weights[w] - updated.weights[w];
            println!("layer {li} w[{o}][{i}]: numerical {num_grad:.6} analytic {ana_grad:.6}");
            assert!((num_grad - ana_grad).abs() < 1e-4, "layer {li}: {num_grad} vs {ana_grad}");
        }
        let _ = net;
    }
}
