//! CART-style decision-tree classifier.
//!
//! The offline IL work the paper builds on (\[18\], \[19\]) uses tree
//! models for the control policy because they are cheap to evaluate in an OS
//! governor.  This module provides a classification tree with Gini splits,
//! depth- and leaf-size-limited to keep the memory footprint firmware
//! friendly.

use serde::Serialize;

#[derive(Debug, Clone, PartialEq, Serialize)]
enum Node {
    Leaf {
        /// Per-class training counts.
        value: Vec<f64>,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    fn evaluate<'a>(&'a self, x: &[f64]) -> &'a [f64] {
        match self {
            Node::Leaf { value } => value,
            Node::Split { feature, threshold, left, right } => {
                if x[*feature] <= *threshold {
                    left.evaluate(x)
                } else {
                    right.evaluate(x)
                }
            }
        }
    }

    fn leaves(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { left, right, .. } => left.leaves() + right.leaves(),
        }
    }
}

/// Maximum tree depth.
const MAX_DEPTH: usize = 10;
/// Minimum number of samples required to attempt a split.
const MIN_SAMPLES_SPLIT: usize = 3;

/// Candidate split thresholds for a feature: midpoints between consecutive
/// distinct sorted values.
fn candidate_thresholds(values: &mut Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    values.dedup();
    values.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect()
}

/// CART classification tree with Gini-impurity splits, at most 10 levels
/// deep, splitting only nodes of at least 3 samples.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DecisionTreeClassifier {
    classes: usize,
    root: Option<Node>,
}

impl DecisionTreeClassifier {
    /// Creates an unfitted classifier distinguishing `classes` labels.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is zero.
    pub fn new(classes: usize) -> Self {
        assert!(classes > 0, "need at least one class");
        Self { classes, root: None }
    }

    /// Creates and fits in one call.
    pub fn fitted(xs: &[Vec<f64>], labels: &[usize], classes: usize) -> Self {
        let mut tree = Self::new(classes);
        tree.fit(xs, labels);
        tree
    }

    /// Number of leaves in the fitted tree.
    pub fn leaf_count(&self) -> usize {
        self.root.as_ref().map_or(0, Node::leaves)
    }

    /// Fits the tree to feature vectors and class labels.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset, a sample/label count mismatch or a label
    /// `>= classes`.
    pub fn fit(&mut self, xs: &[Vec<f64>], labels: &[usize]) {
        assert!(!xs.is_empty(), "cannot fit on an empty dataset");
        assert_eq!(xs.len(), labels.len(), "sample/label count mismatch");
        assert!(labels.iter().all(|&l| l < self.classes), "label out of range");
        let indices: Vec<usize> = (0..xs.len()).collect();
        self.root = Some(self.build(xs, labels, &indices, 0));
    }

    /// Predicts the class label of `x`: the class with the most training
    /// samples in the leaf `x` falls in.
    pub fn predict_class(&self, x: &[f64]) -> usize {
        let scores = self.scores(x);
        scores
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Per-class training counts of the leaf `x` falls in.
    fn scores(&self, x: &[f64]) -> Vec<f64> {
        self.root.as_ref().expect("predict called before fit").evaluate(x).to_vec()
    }

    fn class_counts(&self, labels: &[usize], indices: &[usize]) -> Vec<f64> {
        let mut counts = vec![0.0; self.classes];
        for &i in indices {
            counts[labels[i]] += 1.0;
        }
        counts
    }

    fn gini(counts: &[f64]) -> f64 {
        let total: f64 = counts.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        1.0 - counts.iter().map(|c| (c / total) * (c / total)).sum::<f64>()
    }

    // `feature` is a column index into the row-major sample matrix; there is
    // no column iterator to replace it with.
    #[allow(clippy::needless_range_loop)]
    fn build(&self, xs: &[Vec<f64>], labels: &[usize], indices: &[usize], depth: usize) -> Node {
        let counts = self.class_counts(labels, indices);
        let node_gini = Self::gini(&counts);
        if depth >= MAX_DEPTH || indices.len() < MIN_SAMPLES_SPLIT || node_gini < 1e-12 {
            return Node::Leaf { value: counts };
        }
        let dims = xs[0].len();
        let total = indices.len() as f64;
        let mut best: Option<(usize, f64, f64)> = None;
        for feature in 0..dims {
            let mut values: Vec<f64> = indices.iter().map(|&i| xs[i][feature]).collect();
            for threshold in candidate_thresholds(&mut values) {
                let mut left = vec![0.0; self.classes];
                let mut right = vec![0.0; self.classes];
                for &i in indices {
                    if xs[i][feature] <= threshold {
                        left[labels[i]] += 1.0;
                    } else {
                        right[labels[i]] += 1.0;
                    }
                }
                let ln: f64 = left.iter().sum();
                let rn: f64 = right.iter().sum();
                if ln < 1.0 || rn < 1.0 {
                    continue;
                }
                let weighted = ln / total * Self::gini(&left) + rn / total * Self::gini(&right);
                if best.as_ref().map_or(true, |&(_, _, b)| weighted < b - 1e-12) {
                    best = Some((feature, threshold, weighted));
                }
            }
        }
        match best {
            Some((feature, threshold, weighted)) if weighted < node_gini - 1e-12 => {
                let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                    indices.iter().partition(|&&i| xs[i][feature] <= threshold);
                Node::Split {
                    feature,
                    threshold,
                    left: Box::new(self.build(xs, labels, &left_idx, depth + 1)),
                    right: Box::new(self.build(xs, labels, &right_idx, depth + 1)),
                }
            }
            _ => Node::Leaf { value: counts },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifier_separates_quadrants() {
        let mut xs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                let x = i as f64 / 10.0 - 0.5 + 0.01;
                let y = j as f64 / 10.0 - 0.5 + 0.01;
                xs.push(vec![x, y]);
                labels.push(match (x > 0.0, y > 0.0) {
                    (true, true) => 0usize,
                    (true, false) => 1,
                    (false, true) => 2,
                    (false, false) => 3,
                });
            }
        }
        let tree = DecisionTreeClassifier::fitted(&xs, &labels, 4);
        let correct = xs.iter().zip(&labels).filter(|(x, &l)| tree.predict_class(x) == l).count();
        assert!(correct as f64 / xs.len() as f64 > 0.98);
        assert!(tree.leaf_count() >= 4);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let xs = vec![vec![1.0], vec![2.0], vec![3.0]];
        let labels = vec![1usize, 1, 1];
        let tree = DecisionTreeClassifier::fitted(&xs, &labels, 3);
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.predict_class(&[100.0]), 1);
    }

    #[test]
    fn scores_reflect_training_distribution() {
        let xs = vec![vec![0.0], vec![0.1], vec![0.2], vec![1.0]];
        let labels = vec![0usize, 0, 0, 1];
        let tree = DecisionTreeClassifier::fitted(&xs, &labels, 2);
        let scores = tree.scores(&[0.05]);
        assert_eq!(scores.len(), 2);
        assert!(scores[0] > scores[1]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn classifier_rejects_out_of_range_labels() {
        let mut tree = DecisionTreeClassifier::new(2);
        tree.fit(&[vec![0.0]], &[5]);
    }
}
