//! Power-of-two latency histogram (moved here from the runtime driver so the
//! fleet, driver and exporters all share one mergeable implementation).

/// Number of power-of-two latency buckets (1 ns up to ~3 simulated days, so
/// the same histogram covers nanosecond policy latencies and hour-scale
/// virtual-time sojourns).
const LATENCY_BUCKETS: usize = 48;

/// Power-of-two histogram of nanosecond durations (per-decision policy
/// latencies, queueing sojourns and delays).
///
/// Bucket `i` counts samples whose duration was in `[2^i, 2^(i+1))`
/// nanoseconds; the last bucket absorbs everything slower. Like
/// [`QuantileSketch`](crate::QuantileSketch), `merge` is element-wise
/// integer addition — associative and commutative — so per-worker
/// histograms folded in any order are bit-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; LATENCY_BUCKETS],
    count: u64,
    /// Running sum of recorded durations.  `u128` like
    /// [`QuantileSketch`](crate::QuantileSketch)'s sum: day-scale virtual
    /// sojourns (~2^47 ns) over fleet-scale counts (10⁶+) overflow 2^64,
    /// which would silently corrupt `mean_ns` in release mode.
    sum_ns: u128,
    max_ns: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self { buckets: [0; LATENCY_BUCKETS], count: 0, sum_ns: 0, max_ns: 0 }
    }

    /// Build a histogram from a slice of values. Recording is
    /// order-insensitive; the name mirrors `sorted_quantile_ns`, whose exact
    /// sorted-vector call sites this replaces.
    pub fn from_sorted_ns(sorted: &[u64]) -> Self {
        let mut hist = Self::new();
        for &ns in sorted {
            hist.record(ns);
        }
        hist
    }

    /// Records one decision latency.
    pub fn record(&mut self, latency_ns: u64) {
        let bucket = (u64::BITS - latency_ns.max(1).leading_zeros() - 1) as usize;
        self.buckets[bucket.min(LATENCY_BUCKETS - 1)] += 1;
        self.count += 1;
        self.sum_ns += latency_ns as u128;
        self.max_ns = self.max_ns.max(latency_ns);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of recorded decisions.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Largest recorded latency in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Upper bound of the latency at quantile `q ∈ [0, 1]`: the edge of the
    /// quantile's bucket, clamped to the recorded maximum, since an edge can
    /// lie above every sample in its bucket.
    ///
    /// The last bucket has no finite edge (it absorbs everything slower than
    /// `2^47` ns), so quantiles landing there report the recorded maximum.
    pub fn quantile_upper_bound_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                let edge = if i + 1 < LATENCY_BUCKETS { 1u64 << (i + 1) } else { u64::MAX };
                return edge.min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Per-bucket counts, for rendering.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_histogram_is_well_formed() {
        let mut h = LatencyHistogram::new();
        for ns in [1u64, 2, 3, 1000, 1_000_000, 0] {
            h.record(ns);
        }
        assert_eq!(h.count(), 6);
        assert!(h.mean_ns() > 0.0);
        assert_eq!(h.max_ns(), 1_000_000);
        assert!(h.quantile_upper_bound_ns(0.5) <= h.quantile_upper_bound_ns(1.0));
        let mut other = LatencyHistogram::new();
        other.record(7);
        other.merge(&h);
        assert_eq!(other.count(), 7);
        assert_eq!(other.buckets().iter().sum::<u64>(), 7);
    }

    #[test]
    fn quantile_bound_never_exceeds_the_recorded_maximum() {
        // 9 ns sits in the [8, 16) bucket: its edge, 16, overstates the p99.
        let h = LatencyHistogram::from_sorted_ns(&[5, 9]);
        assert_eq!(h.quantile_upper_bound_ns(0.99), 9);
        assert_eq!(h.quantile_upper_bound_ns(0.5), 8, "an edge below the maximum stays");
        // A virtual-clock run records zero-length decisions.
        let zeros = LatencyHistogram::from_sorted_ns(&[0, 0, 0]);
        assert_eq!(zeros.quantile_upper_bound_ns(0.99), 0);
    }

    #[test]
    fn sum_does_not_wrap_at_day_scale_times_million_counts() {
        // Regression: with a u64 sum, 10⁶ day-scale durations (86 400 s =
        // ~2^46.3 ns each, ~2^66.2 ns total) wrap modulo 2^64 and `mean_ns`
        // comes out ~4.3 days short.  The u128 sum keeps the mean exact.
        let day_ns: u64 = 86_400_000_000_000;
        let counts = 1_000_000u64;
        let mut h = LatencyHistogram::new();
        for _ in 0..counts {
            h.record(day_ns);
        }
        assert_eq!(h.count(), counts);
        assert_eq!(h.mean_ns(), day_ns as f64, "mean must be exactly one day");
        // And merging two such histograms keeps the total exact too.
        let mut merged = h.clone();
        merged.merge(&h);
        assert_eq!(merged.count(), 2 * counts);
        assert_eq!(merged.mean_ns(), day_ns as f64);
    }

    #[test]
    fn from_sorted_ns_matches_merge_of_parts() {
        let all: Vec<u64> = (0..1000u64).map(|i| i * 31 + 5).collect();
        let direct = LatencyHistogram::from_sorted_ns(&all);
        let mut merged = LatencyHistogram::from_sorted_ns(&all[..400]);
        merged.merge(&LatencyHistogram::from_sorted_ns(&all[400..]));
        assert_eq!(direct, merged);
    }
}
