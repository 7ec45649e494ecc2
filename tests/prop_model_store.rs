//! Property-based tests of the RLS sufficient-statistics form and the tiered
//! copy-on-write model store built on it: the fleet-merge algebra (commutes
//! bit-for-bit, associates to rounding, refits to the batch solution) and the
//! transparency of copy-on-write leases at any worker count.

use std::sync::Arc;

use proptest::prelude::*;
use soclearn_core::prelude::*;
use soclearn_online_learning::stats::RlsStats;
use soclearn_runtime::{SliceSource, TieredModelStore};

const DIM: usize = 4;

/// Bounded, well-scaled regression samples; at least `DIM + 1` of them so the
/// ridge prior never dominates the fit.
fn samples_strategy() -> impl Strategy<Value = Vec<(Vec<f64>, f64)>> {
    proptest::collection::vec(
        (proptest::collection::vec(-2.0f64..2.0, DIM..=DIM), -5.0f64..5.0),
        DIM + 1..24,
    )
}

fn stats_of(samples: &[(Vec<f64>, f64)]) -> RlsStats<DIM> {
    let mut stats = RlsStats::zero();
    for (x, y) in samples {
        stats.observe(x.as_slice().try_into().expect("DIM features"), *y);
    }
    stats
}

fn max_weight_gap(a: &RlsStats<DIM>, b: &RlsStats<DIM>) -> f64 {
    let (fa, fb) = (a.refit(1.0), b.refit(1.0));
    fa.weights()
        .iter()
        .zip(fb.weights())
        .map(|(wa, wb)| (wa - wb).abs())
        .fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fleet merge is a commutative monoid action on sufficient stats:
    /// `a ⊕ b == b ⊕ a` bit-for-bit (IEEE addition commutes exactly), and
    /// `(a ⊕ b) ⊕ c` agrees with `a ⊕ (b ⊕ c)` to rounding — so the merged
    /// base is independent of which worker's deltas fold in first.
    #[test]
    fn merge_commutes_exactly_and_associates_to_rounding(
        a in samples_strategy(),
        b in samples_strategy(),
        c in samples_strategy(),
    ) {
        let (sa, sb, sc) = (stats_of(&a), stats_of(&b), stats_of(&c));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba, "merge must commute bit-for-bit");

        let mut ab_c = ab.clone();
        ab_c.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut a_bc = sa.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c.samples(), a_bc.samples());
        let gap = max_weight_gap(&ab_c, &a_bc);
        prop_assert!(gap < 1e-9, "associativity gap {gap} exceeds 1e-9");
    }

    /// Refitting the merge of per-partition stats equals fitting the whole
    /// batch at once, however the samples are split — the exactness claim
    /// behind federating per-user deltas instead of shipping models.
    #[test]
    fn merged_refit_matches_the_batch_fit(
        samples in samples_strategy(),
        splits in proptest::collection::vec(0usize..100, 1..4),
    ) {
        let whole = stats_of(&samples);
        // Cut the sample list at pseudo-random, strategy-chosen points.
        let mut cuts: Vec<usize> = splits.iter().map(|s| s % (samples.len() + 1)).collect();
        cuts.sort_unstable();
        let mut merged = RlsStats::zero();
        let mut start = 0usize;
        for cut in cuts.into_iter().chain(std::iter::once(samples.len())) {
            merged.merge(&stats_of(&samples[start..cut.max(start)]));
            start = cut.max(start);
        }
        prop_assert_eq!(merged.samples(), whole.samples());
        let gap = max_weight_gap(&merged, &whole);
        prop_assert!(gap < 1e-9, "partitioned fit diverged from the batch fit by {gap}");
    }
}

proptest! {
    // Each case serves a small fleet four times through real drivers, so the
    // case budget stays small; the artifact pipeline is memoised per process.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Copy-on-write leases are transparent: a fleet leasing from one
    /// `TieredModelStore` records bit-identical per-scenario decisions to a
    /// fleet of eager private policy copies, at 1, 2 and 4 workers alike.
    /// (Merges are disabled via a huge threshold — mid-run base refreshes are
    /// deliberately order-dependent and excluded from byte-compare gates.)
    #[test]
    fn cow_leases_are_transparent_at_any_worker_count(seed in 0u64..1_000) {
        let platform = SocPlatform::small();
        let artifacts = shared_artifacts(&platform, ExperimentScale::Quick);
        let config = OnlineIlConfig { buffer_capacity: 15, ..OnlineIlConfig::default() };
        let scenarios = ScenarioGenerator::standard(seed, 2).scenarios(3);

        let eager_driver = ScenarioDriver::new(platform.clone(), 1);
        let (_, eager) = eager_driver.run_recorded_mixed(&SliceSource::new(&scenarios), |_, _| {
            SubstratePolicies::cpu_only(Box::new(artifacts.online_policy(config)))
        });
        let mut eager = eager;
        eager.sort_by_key(|r| r.index);

        for workers in [1usize, 2, 4] {
            let store = Arc::new(TieredModelStore::new(&artifacts, config, usize::MAX));
            let driver = ScenarioDriver::new(platform.clone(), workers);
            let (_, mut records) =
                driver.run_recorded_mixed(&SliceSource::new(&scenarios), |_, _| {
                    SubstratePolicies::cpu_only(Box::new(store.lease("prop")))
                });
            records.sort_by_key(|r| r.index);
            prop_assert_eq!(records.len(), eager.len());
            for (leased, private) in records.iter().zip(&eager) {
                prop_assert_eq!(
                    &leased.decisions, &private.decisions,
                    "scenario {} diverged between a lease ({} workers) and a private copy",
                    leased.name, workers
                );
            }
        }
    }
}
