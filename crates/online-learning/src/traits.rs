//! Common model interfaces shared by the learning primitives.

/// A regression model trained in one shot from a batch of samples.
pub trait Regressor {
    /// Fits the model to the dataset.
    ///
    /// Implementations should panic on dimension mismatches between `xs` and `ys`,
    /// since that always indicates a programming error in the caller.
    fn fit(&mut self, xs: &[Vec<f64>], ys: &[f64]);

    /// Predicts the target for the feature vector `x`.
    fn predict(&self, x: &[f64]) -> f64;
}

/// A multi-class classifier over feature vectors.
pub trait Classifier {
    /// Fits the classifier to feature vectors and class labels.
    fn fit(&mut self, xs: &[Vec<f64>], labels: &[usize]);

    /// Predicts the class label of `x`.
    fn predict_class(&self, x: &[f64]) -> usize;

    /// Per-class scores (higher is more likely); the argmax is the prediction.
    fn scores(&self, x: &[f64]) -> Vec<f64>;

    /// Number of classes the classifier distinguishes.
    fn class_count(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traits must stay object safe: policies store heterogeneous models
    /// behind `Box<dyn …>`.
    #[test]
    fn traits_are_object_safe() {
        fn _takes_batch(_: &dyn Regressor) {}
        fn _takes_classifier(_: &dyn Classifier) {}
    }
}
