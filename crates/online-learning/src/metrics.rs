//! Prediction-error metric: the mean absolute percentage error that Figure 2
//! reports for the online frame-time model.

/// Mean absolute percentage error, in percent.  Targets with magnitude below
/// `1e-12` are skipped to avoid division blow-ups; if every target is skipped the
/// result is zero.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn mape(predictions: &[f64], targets: &[f64]) -> f64 {
    assert_eq!(predictions.len(), targets.len(), "length mismatch");
    assert!(!predictions.is_empty(), "cannot compute a metric over zero samples");
    let mut total = 0.0;
    let mut counted = 0usize;
    for (p, t) in predictions.iter().zip(targets) {
        if t.abs() > 1e-12 {
            total += ((p - t) / t).abs();
            counted += 1;
        }
    }
    if counted == 0 {
        0.0
    } else {
        100.0 * total / counted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let y = [1.0, 2.0, 3.0];
        assert_eq!(mape(&y, &y), 0.0);
    }

    #[test]
    fn known_values() {
        let p = [1.0, 2.0, 3.0];
        let t = [2.0, 2.0, 5.0];
        assert!((mape(&p, &t) - 100.0 * (0.5 + 0.0 + 0.4) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn mape_skips_zero_targets() {
        assert_eq!(mape(&[1.0, 5.0], &[0.0, 5.0]), 0.0 + 0.0);
        assert_eq!(mape(&[1.0], &[0.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = mape(&[1.0], &[1.0, 2.0]);
    }
}
