//! Fixed-memory mergeable quantile sketch over `u64` nanosecond values.
//!
//! [`QuantileSketch`] is an HDR/DDSketch-style log-linear histogram: values
//! below [`SUBBUCKETS`] land in exact unit buckets, larger values land in
//! buckets whose width is `2^(e-SUB_BITS)` for magnitude `e`, so every
//! bucket spans a relative range of at most `1/SUBBUCKETS` (≈3.2%).
//! Quantile estimates therefore carry a *relative* error bound of
//! `1/SUBBUCKETS` regardless of how many values were recorded, while
//! count/sum/min/max are tracked exactly (means stay exact — callers that
//! assert Little's law to 1e-9 keep passing).
//!
//! The whole sketch is a fixed `BUCKETS`-long array of `u64` counts plus
//! four scalars: memory is O(1) in the number of recorded values, and
//! [`QuantileSketch::merge`] is element-wise integer addition — associative
//! and commutative — so per-shard sketches aggregated in any order produce
//! bit-identical results. That pair of properties (fixed memory, ordering-
//! insensitive merge) is what lets a million-user fleet keep per-family
//! latency quantiles without ever materialising a sojourn vector.

/// Number of linear sub-buckets per power-of-two magnitude (`2^SUB_BITS`).
const SUB_BITS: u32 = 5;
/// Sub-bucket count; also the bound below which values are recorded exactly.
pub const SUBBUCKETS: u64 = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUBBUCKETS as usize;

/// Exact order statistic over pre-sorted nanosecond durations: the value at
/// quantile `q ∈ [0, 1]` by the ceiling-rank rule (`rank = ceil(q * len)`,
/// 1-based, clamped) that [`QuantileSketch::quantile_ns`] approximates.
/// Returns 0 for an empty slice.
pub fn sorted_quantile_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Bucket index for a value. Values below [`SUBBUCKETS`] map to themselves
/// (exact); larger values map log-linearly with `SUB_BITS` bits of mantissa.
fn bucket_of(value_ns: u64) -> usize {
    if value_ns < SUBBUCKETS {
        value_ns as usize
    } else {
        let e = 63 - value_ns.leading_zeros();
        let sub = (value_ns >> (e - SUB_BITS)) & (SUBBUCKETS - 1);
        ((e - SUB_BITS + 1) as usize) * SUBBUCKETS as usize + sub as usize
    }
}

/// Smallest value that lands in bucket `index` (inverse of [`bucket_of`]).
fn bucket_floor(index: usize) -> u64 {
    if index < SUBBUCKETS as usize {
        index as u64
    } else {
        let e = (index / SUBBUCKETS as usize - 1) as u32 + SUB_BITS;
        let sub = (index % SUBBUCKETS as usize) as u64;
        (SUBBUCKETS + sub) << (e - SUB_BITS)
    }
}

/// Fixed-memory log-linear quantile sketch with an associative `merge`.
///
/// Relative error of any quantile estimate is bounded by `1/SUBBUCKETS`
/// (≈3.2%); count, sum, min and max are exact. See the module docs for the
/// memory and merge-law guarantees.
#[derive(Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self { counts: Box::new([0; BUCKETS]), count: 0, sum_ns: 0, min_ns: u64::MAX, max_ns: 0 }
    }

    /// Build a sketch from an already-sorted slice of values. Sortedness is
    /// not required for correctness (recording is order-insensitive); the
    /// name mirrors [`sorted_quantile_ns`], whose call sites this replaces.
    pub fn from_sorted_ns(sorted: &[u64]) -> Self {
        let mut sketch = Self::new();
        for &v in sorted {
            sketch.record(v);
        }
        sketch
    }

    /// Record one value.
    pub fn record(&mut self, value_ns: u64) {
        self.record_n(value_ns, 1);
    }

    /// Record `n` occurrences of a value in one update.
    pub fn record_n(&mut self, value_ns: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_of(value_ns)] += n;
        self.count += n;
        self.sum_ns += value_ns as u128 * n as u128;
        self.min_ns = self.min_ns.min(value_ns);
        self.max_ns = self.max_ns.max(value_ns);
    }

    /// Fold another sketch into this one. Element-wise integer addition:
    /// associative, commutative, and `merge(empty)` is the identity, so any
    /// aggregation tree over shards yields bit-identical results.
    pub fn merge(&mut self, other: &Self) {
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of recorded values (exact).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (exact).
    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// Smallest recorded value, or 0 when empty (exact).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Largest recorded value (exact).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Exact mean of recorded values, or 0.0 when empty.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Quantile estimate using the same ceiling-rank rule as the exact
    /// [`sorted_quantile_ns`] (`rank = ceil(q * count)`, 1-based, clamped):
    /// the returned value is the floor of the bucket containing that rank,
    /// clamped into `[min, max]`, so it is within a `1/SUBBUCKETS` relative
    /// factor of the exact order statistic. Returns 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(i).clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }
}

impl std::fmt::Debug for QuantileSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantileSketch")
            .field("count", &self.count)
            .field("min_ns", &self.min_ns())
            .field("p50_ns", &self.quantile_ns(0.50))
            .field("p99_ns", &self.quantile_ns(0.99))
            .field("max_ns", &self.max_ns)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_floor_inverts_bucket_of() {
        for v in [0u64, 1, 31, 32, 33, 63, 64, 1000, 1 << 20, u64::MAX / 2, u64::MAX] {
            let b = bucket_of(v);
            let floor = bucket_floor(b);
            assert!(floor <= v, "floor {floor} above value {v}");
            assert_eq!(bucket_of(floor), b, "floor of bucket {b} maps elsewhere");
            // Relative width bound: the bucket floor is within 1/SUBBUCKETS.
            if v >= SUBBUCKETS {
                assert!((v - floor) as f64 <= v as f64 / SUBBUCKETS as f64);
            } else {
                assert_eq!(floor, v);
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut s = QuantileSketch::new();
        for v in 0..SUBBUCKETS {
            s.record(v);
        }
        assert_eq!(s.quantile_ns(0.5), SUBBUCKETS / 2 - 1);
        assert_eq!(s.min_ns(), 0);
        assert_eq!(s.max_ns(), SUBBUCKETS - 1);
    }

    #[test]
    fn quantiles_track_exact_within_relative_bound() {
        let values: Vec<u64> = (0..10_000u64).map(|i| i * 37 + 11).collect();
        let s = QuantileSketch::from_sorted_ns(&values);
        for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let approx = s.quantile_ns(q);
            let err = exact.abs_diff(approx) as f64;
            assert!(
                err <= exact as f64 / SUBBUCKETS as f64 + 1.0,
                "q={q}: exact {exact} vs sketch {approx}"
            );
        }
    }

    #[test]
    fn merge_is_associative_and_matches_concat() {
        let a: Vec<u64> = (0..500u64).map(|i| i * i + 3).collect();
        let b: Vec<u64> = (0..300u64).map(|i| i * 7919).collect();
        let c: Vec<u64> = (0..200u64).map(|i| 1 << (i % 40)).collect();

        let sa = QuantileSketch::from_sorted_ns(&a);
        let sb = QuantileSketch::from_sorted_ns(&b);
        let sc = QuantileSketch::from_sorted_ns(&c);

        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);

        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);

        assert_eq!(left, right, "merge must be associative");

        let mut concat: Vec<u64> = Vec::new();
        concat.extend(&a);
        concat.extend(&b);
        concat.extend(&c);
        let direct = QuantileSketch::from_sorted_ns(&concat);
        assert_eq!(left, direct, "merge must equal recording the concatenation");
    }

    #[test]
    fn mean_is_exact() {
        let mut s = QuantileSketch::new();
        s.record(1);
        s.record(2);
        s.record(4);
        assert_eq!(s.mean_ns(), 7.0 / 3.0);
        assert_eq!(s.sum_ns(), 7);
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn empty_sketch_is_identity_and_zeroed() {
        let empty = QuantileSketch::new();
        assert_eq!(empty.quantile_ns(0.5), 0);
        assert_eq!(empty.min_ns(), 0);
        let mut s = QuantileSketch::from_sorted_ns(&[5, 10, 20]);
        let before = s.clone();
        s.merge(&empty);
        assert_eq!(s, before, "merging the empty sketch must be the identity");
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = QuantileSketch::new();
        a.record_n(123_456, 5);
        let mut b = QuantileSketch::new();
        for _ in 0..5 {
            b.record(123_456);
        }
        assert_eq!(a, b);
    }
}
