//! Multi-layer perceptron trained by back-propagation.
//!
//! The online-IL policy of the paper (Section IV-A3) is "represented as a
//! neural network and ... updated using the back-propagation algorithm".  The
//! networks involved are tiny — a couple of dozen hidden units over at most a
//! dozen counter features — so a straightforward dense implementation with
//! stochastic gradient descent is faithful to the original and fast enough to
//! be called once per snippet.
//!
//! The network is a classifier (softmax output, cross-entropy loss) with one
//! hidden layer; the policy crates use it to pick discrete frequency levels.
//!
//! # Layout
//!
//! The input and hidden widths are compile-time constants, `Mlp<IN, HIDDEN>`,
//! and the class count is set when the network is built.  Hidden unit `h`
//! owns the weight row `[f64; IN]` at `hidden[h]`, class `o` the row
//! `[f64; HIDDEN]` at `output[o]`, and each layer keeps its biases beside its
//! rows.  A forward pass holds the hidden activations, and back-propagation
//! the hidden deltas, in `[f64; HIDDEN]` arrays on the stack, so every loop
//! over inputs or hidden units runs to a compile-time bound and unrolls.
//! Only the class scores have a run-time length: a training batch
//! ([`Mlp::train_classification_epochs`]) keeps them in one vector, and
//! inference ([`Classifier::predict_class`]) keeps a running argmax instead,
//! so it never touches the heap.
//!
//! # Bit-identity contract
//!
//! Training and prediction produce the same bits as the textbook
//! `Vec<Vec<f64>>` formulation (one heap vector per layer, delta and
//! softmax), kept as a test-only reference that property tests compare
//! against.  That holds because the floating-point operations run in the
//! same order:
//!
//! - initial weights are drawn from one ChaCha8 stream, the hidden rows
//!   first, outputs outer and inputs inner;
//! - each unit's pre-activation is `b + Σ w·x`, the sum folded in input order
//!   from `-0.0`, which is what the standard library's float `Sum` does.  A
//!   fold from `0.0` would flip the sign of all-zero sums.  Both layers
//!   compute four rows per pass, each with its own accumulator, which
//!   changes no row's order;
//! - the hidden deltas accumulate output by output from `0.0`, each class's
//!   row read before that class's update; the delta below the input layer,
//!   which nothing reads, is not computed;
//! - each weight steps as `w -= lr · (δ·x + l2·w)`, evaluated as written:
//!   nothing is reassociated for SIMD and nothing is fused into FMA.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::traits::Classifier;

#[cfg(test)]
mod reference;

/// Rows of a layer whose pre-activations one pass of [`affine`] accumulates
/// side by side.
const ROW_BLOCK: usize = 4;

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
    classes: usize,
    activation: Activation,
    learning_rate: f64,
    l2: f64,
    seed: u64,
}

impl MlpBuilder {
    /// Starts a builder for a classifier over `classes` classes.  The input
    /// and hidden widths are the type parameters of the [`Mlp`] that
    /// [`MlpBuilder::build`] returns.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is zero.
    pub fn new(classes: usize) -> Self {
        assert!(classes > 0, "network dimensions must be positive");
        Self { classes, activation: Activation::Relu, learning_rate: 0.01, l2: 1e-5, seed: 7 }
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

    /// Builds a network with `IN` inputs and `HIDDEN` hidden units.
    ///
    /// # Panics
    ///
    /// Panics if either width is zero.
    pub fn build<const IN: usize, const HIDDEN: usize>(self) -> Mlp<IN, HIDDEN> {
        assert!(IN > 0 && HIDDEN > 0, "network dimensions must be positive");
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut hidden = [[0.0; IN]; HIDDEN];
        draw_rows(&mut rng, &mut hidden, HIDDEN);
        let mut output = vec![[0.0; HIDDEN]; self.classes];
        draw_rows(&mut rng, &mut output, self.classes);
        Mlp {
            hidden,
            hidden_biases: [0.0; HIDDEN],
            output,
            output_biases: vec![0.0; self.classes],
            activation: self.activation,
            learning_rate: self.learning_rate,
            l2: self.l2,
            updates: 0,
        }
    }
}

/// A one-hidden-layer classifier with `IN` inputs and `HIDDEN` hidden units,
/// trained with stochastic gradient descent.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp<const IN: usize, const HIDDEN: usize> {
    /// `hidden[h][i]` maps input `i` to hidden unit `h`.
    hidden: [[f64; IN]; HIDDEN],
    hidden_biases: [f64; HIDDEN],
    /// `output[o][h]` maps hidden unit `h` to class `o`.
    output: Vec<[f64; HIDDEN]>,
    output_biases: Vec<f64>,
    activation: Activation,
    learning_rate: f64,
    l2: f64,
    updates: usize,
}

/// Draws a layer's initial weights row by row, uniform in `±√(2 / (N +
/// outputs))` (Glorot).
fn draw_rows<const N: usize>(rng: &mut ChaCha8Rng, rows: &mut [[f64; N]], outputs: usize) {
    let scale = (2.0 / (N + outputs) as f64).sqrt();
    for w in rows.iter_mut().flatten() {
        *w = rng.gen_range(-scale..scale);
    }
}

/// `Σ w·x` folded in input order from `-0.0`, as the float `Sum` does.
#[inline(always)]
fn dot<const N: usize>(w: &[f64; N], x: &[f64; N]) -> f64 {
    w.iter().zip(x).fold(-0.0, |acc, (w, x)| acc + w * x)
}

/// `b + Σ w·x` for every row and its bias, [`ROW_BLOCK`] rows per pass with
/// one accumulator each, handed to `visit` in row order.
#[inline(always)]
fn affine<const N: usize>(
    rows: &[[f64; N]],
    biases: &[f64],
    x: &[f64; N],
    mut visit: impl FnMut(usize, f64),
) {
    let blocks = rows.chunks_exact(ROW_BLOCK).zip(biases.chunks_exact(ROW_BLOCK));
    for (block, (rows, biases)) in blocks.enumerate() {
        let mut acc = [-0.0; ROW_BLOCK];
        for (i, x) in x.iter().enumerate() {
            for (a, row) in acc.iter_mut().zip(rows) {
                *a += row[i] * x;
            }
        }
        for (k, (a, b)) in acc.into_iter().zip(biases).enumerate() {
            visit(block * ROW_BLOCK + k, b + a);
        }
    }
    let full = rows.len() - rows.len() % ROW_BLOCK;
    for (r, (row, b)) in rows.iter().zip(biases).enumerate().skip(full) {
        visit(r, b + dot(row, x));
    }
}

/// One SGD step on a weight row: `w -= lr · (delta · x + l2 · w)`.
#[inline(always)]
fn descend<const N: usize>(row: &mut [f64; N], delta: f64, input: &[f64; N], lr: f64, l2: f64) {
    for (w, x) in row.iter_mut().zip(input) {
        let grad = delta * x + l2 * *w;
        *w -= lr * grad;
    }
}

/// `x` as an `N`-wide row.
///
/// # Panics
///
/// Panics if `x` does not have `N` entries.
fn as_row<const N: usize>(x: &[f64]) -> &[f64; N] {
    x.try_into().expect("input dimension mismatch")
}

impl<const IN: usize, const HIDDEN: usize> Mlp<IN, HIDDEN> {
    /// Number of classes the network scores.
    pub fn output_dim(&self) -> usize {
        self.output.len()
    }

    /// Number of gradient updates applied so far.
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// Total number of trainable parameters (weights and biases), for
    /// model-footprint accounting.
    pub fn param_count(&self) -> usize {
        HIDDEN * (IN + 1) + self.output_dim() * (HIDDEN + 1)
    }

    /// Raw network outputs (pre-softmax class scores).
    pub fn forward(&self, x: &[f64; IN]) -> Vec<f64> {
        let mut scores = Vec::with_capacity(self.output_dim());
        self.each_score(&self.hidden_layer(x), |_, v| scores.push(v));
        scores
    }

    /// Softmax of the network outputs, usable as class probabilities.
    pub fn probabilities(&self, x: &[f64; IN]) -> Vec<f64> {
        let mut probs = self.forward(x);
        softmax_in_place(&mut probs);
        probs
    }

    /// The hidden layer's activations for `x`.
    fn hidden_layer(&self, x: &[f64; IN]) -> [f64; HIDDEN] {
        let mut out = [0.0; HIDDEN];
        affine(&self.hidden, &self.hidden_biases, x, |h, v| out[h] = self.activation.apply(v));
        out
    }

    /// Hands `visit` each class's raw score from the hidden activations, in
    /// class order.
    #[inline(always)]
    fn each_score(&self, hidden: &[f64; HIDDEN], visit: impl FnMut(usize, f64)) {
        affine(&self.output, &self.output_biases, hidden, visit);
    }

    /// One SGD step of softmax cross-entropy toward the class `label`; returns
    /// the cross-entropy loss before the update.
    ///
    /// # Panics
    ///
    /// Panics if `label >= output_dim`.
    pub fn train_classification(&mut self, x: &[f64; IN], label: usize) -> f64 {
        self.classification_step(x, label, &mut vec![0.0; self.output_dim()])
    }

    /// `epochs` passes of [`Mlp::train_classification`] over the
    /// `(x, label)` samples, in order, sharing one class-score buffer.  The
    /// updates equal, bit for bit, calling `train_classification` on each
    /// sample in turn.
    ///
    /// # Panics
    ///
    /// Panics on a label `>= output_dim`.
    pub fn train_classification_epochs<'a, I>(&mut self, samples: I, epochs: usize)
    where
        I: IntoIterator<Item = (&'a [f64; IN], usize)> + Clone,
    {
        let mut delta = vec![0.0; self.output_dim()];
        for _ in 0..epochs {
            for (x, label) in samples.clone() {
                let _ = self.classification_step(x, label, &mut delta);
            }
        }
    }

    /// The SGD step behind [`Mlp::train_classification`]; `delta` has one
    /// entry per class.
    fn classification_step(&mut self, x: &[f64; IN], label: usize, delta: &mut [f64]) -> f64 {
        assert!(label < self.output_dim(), "label out of range");
        let hidden = self.hidden_layer(x);
        self.each_score(&hidden, |o, v| delta[o] = v);
        softmax_in_place(delta);
        let loss = -(delta[label].max(1e-12)).ln();
        delta[label] -= 1.0;

        // Propagate through each class's weights before updating them, then
        // through the hidden activation.
        let (lr, l2) = (self.learning_rate, self.l2);
        let mut hidden_delta = [0.0; HIDDEN];
        let output = self.output.iter_mut().zip(&mut self.output_biases);
        for ((row, b), d) in output.zip(&*delta) {
            for (nd, w) in hidden_delta.iter_mut().zip(&*row) {
                *nd += w * d;
            }
            descend(row, *d, &hidden, lr, l2);
            *b -= lr * d;
        }
        for (nd, out) in hidden_delta.iter_mut().zip(&hidden) {
            *nd *= self.activation.derivative_from_output(*out);
        }
        let rows = self.hidden.iter_mut().zip(&mut self.hidden_biases);
        for ((row, b), d) in rows.zip(&hidden_delta) {
            descend(row, *d, x, lr, l2);
            *b -= lr * d;
        }
        self.updates += 1;
        loss
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

/// The shim `Serialize` derive rejects generic types, so the network writes
/// its JSON object by hand, one field per parameter block.
impl<const IN: usize, const HIDDEN: usize> Serialize for Mlp<IN, HIDDEN> {
    fn serialize_json(&self, out: &mut String) {
        let fields: [(&str, &dyn Serialize); 8] = [
            ("hidden", &self.hidden),
            ("hidden_biases", &self.hidden_biases),
            ("output", &self.output),
            ("output_biases", &self.output_biases),
            ("activation", &self.activation),
            ("learning_rate", &self.learning_rate),
            ("l2", &self.l2),
            ("updates", &self.updates),
        ];
        out.push('{');
        for (i, (name, value)) in fields.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            name.serialize_json(out);
            out.push(':');
            value.serialize_json(out);
        }
        out.push('}');
    }
}

/// A marker, as `Deserialize` is in the shim: nothing deserializes a network.
impl<'de, const IN: usize, const HIDDEN: usize> Deserialize<'de> for Mlp<IN, HIDDEN> {}

impl<const IN: usize, const HIDDEN: usize> Classifier for Mlp<IN, HIDDEN> {
    /// # Panics
    ///
    /// Panics on a count mismatch, an empty dataset, a row that is not `IN`
    /// wide or a label `>= output_dim`.
    fn fit(&mut self, xs: &[Vec<f64>], labels: &[usize]) {
        assert_eq!(xs.len(), labels.len(), "sample/label count mismatch");
        assert!(!xs.is_empty(), "cannot fit on an empty dataset");
        const EPOCHS: usize = 30;
        let rows: Vec<&[f64; IN]> = xs.iter().map(|x| as_row(x)).collect();
        self.train_classification_epochs(rows.iter().copied().zip(labels.iter().copied()), EPOCHS);
    }

    /// The first class with the highest score, kept as a running argmax over
    /// the scores as they are computed.
    fn predict_class(&self, x: &[f64]) -> usize {
        let mut best = (0, f64::NAN);
        self.each_score(&self.hidden_layer(as_row(x)), |o, v| {
            if o == 0 || v > best.1 {
                best = (o, v);
            }
        });
        best.0
    }

    fn scores(&self, x: &[f64]) -> Vec<f64> {
        self.probabilities(as_row(x))
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
        let xs = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]];
        let labels = [0usize, 1, 1, 0];
        // XOR training can land in a bad basin for an unlucky initialisation; the
        // test requires that at least one of a few fixed seeds learns it exactly,
        // which is how the policy crates use the network (they pick a fixed seed
        // that works and keep it).
        let learned = (0..6u64).any(|seed| {
            let mut net: Mlp<2, 12> = MlpBuilder::new(2)
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
        let mut net: Mlp<2, 12> = MlpBuilder::new(3).learning_rate(0.05).seed(5).build();
        net.fit(&xs, &labels);
        let correct = xs.iter().zip(&labels).filter(|(x, &l)| net.predict_class(x) == l).count();
        assert!(correct as f64 / xs.len() as f64 > 0.95, "accuracy {}/{}", correct, xs.len());
        assert_eq!(net.class_count(), 3);
    }

    #[test]
    fn cross_entropy_decreases_during_training() {
        let mut net: Mlp<1, 4> = MlpBuilder::new(2).learning_rate(0.1).seed(9).build();
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
            let mut net: Mlp<1, 6> =
                MlpBuilder::new(2).activation(act).learning_rate(0.1).seed(11).build();
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
        let mut net: Mlp<1, 4> = MlpBuilder::new(2).build();
        net.train_classification(&[0.0], 5);
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn rejects_bad_input_width() {
        let net: Mlp<3, 4> = MlpBuilder::new(2).build();
        let _ = net.predict_class(&[0.0]);
    }

    #[test]
    fn serializes_every_parameter_block() {
        let net: Mlp<2, 1> = MlpBuilder::new(2).seed(3).build();
        let mut json = String::new();
        net.serialize_json(&mut json);
        let w = |v: f64| v.to_string();
        let expected = format!(
            "{{\"hidden\":[[{},{}]],\"hidden_biases\":[0],\"output\":[[{}],[{}]],\
             \"output_biases\":[0,0],\"activation\":\"Relu\",\"learning_rate\":0.01,\
             \"l2\":0.00001,\"updates\":0}}",
            w(net.hidden[0][0]),
            w(net.hidden[0][1]),
            w(net.output[0][0]),
            w(net.output[1][0]),
        );
        assert_eq!(json, expected);
    }
}

#[cfg(test)]
mod gradcheck_tests {
    use super::*;

    /// Weight `(o, i)` of the hidden layer (layer 0) or the output layer.
    fn weight(net: &mut Mlp<2, 3>, layer: usize, o: usize, i: usize) -> &mut f64 {
        if layer == 0 {
            &mut net.hidden[o][i]
        } else {
            &mut net.output[o][i]
        }
    }

    #[test]
    fn numerical_gradient_check() {
        let net: Mlp<2, 3> = MlpBuilder::new(2)
            .activation(Activation::Tanh)
            .learning_rate(1.0)
            .l2(0.0)
            .seed(13)
            .build();
        let x = [0.7, -0.4];
        let label = 1usize;
        let loss_of = |n: &Mlp<2, 3>| -> f64 {
            let p = n.probabilities(&x);
            -(p[label].max(1e-12)).ln()
        };
        // analytic: apply one update with lr=1 and measure weight change = -grad
        let mut updated = net.clone();
        updated.train_classification(&x, label);
        // numerical gradient for a hidden-layer weight and an output-layer weight
        for (li, o, i) in [(0usize, 1usize, 0usize), (1usize, 0usize, 2usize)] {
            let eps = 1e-6;
            let mut plus = net.clone();
            *weight(&mut plus, li, o, i) += eps;
            let mut minus = net.clone();
            *weight(&mut minus, li, o, i) -= eps;
            let num_grad = (loss_of(&plus) - loss_of(&minus)) / (2.0 * eps);
            let ana_grad = *weight(&mut net.clone(), li, o, i) - *weight(&mut updated, li, o, i);
            println!("layer {li} w[{o}][{i}]: numerical {num_grad:.6} analytic {ana_grad:.6}");
            assert!((num_grad - ana_grad).abs() < 1e-4, "layer {li}: {num_grad} vs {ana_grad}");
        }
    }
}
