//! Property-based tests of the core invariants, using `proptest` to explore
//! the workload/configuration space far beyond the hand-written cases.

use proptest::prelude::*;
use soclearn_core::prelude::*;
use soclearn_online_learning::rls::RecursiveLeastSquares;
use soclearn_online_learning::scaler::StandardScaler;
use soclearn_online_learning::traits::OnlineRegressor;
use soclearn_power_thermal::RcThermalModel;
use soclearn_soc_sim::ClusterKind;
use soclearn_workloads::SnippetPhase;

/// One clock operation of the concurrent-interleaving property: spend time
/// serving (`advance_ns`) or jump to an absolute deadline (`wait_until_ns`).
#[derive(Debug, Clone, Copy)]
enum ClockOp {
    Advance(u64),
    WaitUntil(u64),
}

fn clock_ops_strategy() -> impl Strategy<Value = Vec<ClockOp>> {
    proptest::collection::vec((0u8..2, 0u64..5_000_000_000), 1..48).prop_map(|raw| {
        raw.into_iter()
            .map(
                |(advance, amount)| {
                    if advance == 1 {
                        ClockOp::Advance(amount)
                    } else {
                        ClockOp::WaitUntil(amount)
                    }
                },
            )
            .collect()
    })
}

/// Strategy producing arbitrary-but-valid snippet profiles.
fn snippet_strategy() -> impl Strategy<Value = SnippetProfile> {
    (
        1u64..=200_000_000,
        0usize..4,
        0.0f64..=0.6,
        0.0f64..=20.0,
        0.0f64..=1.0,
        0.0f64..=10.0,
        0.5f64..=4.0,
        1u32..=4,
        0.0f64..=1.0,
    )
        .prop_map(|(instr, phase, mem, mpki, ext, branch, ilp, threads, par)| {
            let phase = SnippetPhase::ALL[phase];
            SnippetProfile::new(instr, phase, mem, mpki, ext, branch, ilp, threads, par)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Energy, time, power and the counters stay physical for every profile and
    /// every configuration of the platform.
    #[test]
    fn execution_results_are_physical(profile in snippet_strategy(), config_idx in 0usize..40) {
        let platform = SocPlatform::odroid_xu3();
        let sim = SocSimulator::new(platform.clone());
        let config = platform.config_from_index(config_idx % platform.config_count());
        let r = sim.evaluate_snippet(&profile, config);
        prop_assert!(r.time_s > 0.0 && r.time_s.is_finite());
        prop_assert!(r.energy_j > 0.0 && r.energy_j.is_finite());
        prop_assert!((r.energy_j / r.time_s - r.avg_power_w).abs() < 1e-6);
        prop_assert!(r.counters.big_cluster_utilization >= 0.0 && r.counters.big_cluster_utilization <= 1.0);
        prop_assert!(r.counters.little_cluster_utilization >= 0.0 && r.counters.little_cluster_utilization <= 1.0);
        prop_assert!(r.counters.instructions_retired >= profile.instructions as f64);
    }

    /// Raising only the big-cluster frequency never slows a snippet down.
    #[test]
    fn execution_time_is_monotone_in_big_frequency(profile in snippet_strategy(), little in 0usize..5) {
        let platform = SocPlatform::odroid_xu3();
        let sim = SocSimulator::new(platform.clone());
        let mut previous = f64::INFINITY;
        for big in 0..platform.level_count(ClusterKind::Big) {
            let r = sim.evaluate_snippet(&profile, DvfsConfig::new(little, big));
            prop_assert!(r.time_s <= previous * (1.0 + 1e-9));
            previous = r.time_s;
        }
    }

    /// The Oracle's exhaustive search is never beaten by any single configuration.
    #[test]
    fn oracle_search_is_optimal(profile in snippet_strategy()) {
        let platform = SocPlatform::small();
        let sim = SocSimulator::new(platform.clone());
        let search = OracleSearch::new(OracleObjective::Energy);
        let (best, best_exec) = search.best_config(&sim, &profile);
        prop_assert!(platform.is_valid(best));
        for config in platform.configs() {
            let r = sim.evaluate_snippet(&profile, config);
            prop_assert!(best_exec.energy_j <= r.energy_j * (1.0 + 1e-12));
        }
    }

    /// The neighbourhood primitive always contains the centre and never leaves the
    /// valid configuration space.
    #[test]
    fn neighbourhood_is_valid_and_contains_centre(little in 0usize..5, big in 0usize..8, radius in 0usize..4) {
        let platform = SocPlatform::odroid_xu3();
        let centre = DvfsConfig::new(little, big);
        let neighbours = platform.neighbourhood(centre, radius);
        prop_assert!(neighbours.contains(&centre));
        prop_assert!(neighbours.iter().all(|&c| platform.is_valid(c)));
        let expected_max = (2 * radius + 1) * (2 * radius + 1);
        prop_assert!(neighbours.len() <= expected_max);
    }

    /// The RC thermal model never produces temperatures below ambient under
    /// non-negative power, and its steady state is reached monotonically from
    /// ambient for constant input.
    #[test]
    fn thermal_model_stays_above_ambient(p_big in 0.0f64..6.0, p_little in 0.0f64..1.5, p_gpu in 0.0f64..5.0) {
        let mut model = RcThermalModel::mobile_soc(25.0);
        for _ in 0..2_000 {
            let temps = model.step(&[p_big, p_little, p_gpu, 0.0]);
            prop_assert!(temps.iter().all(|&t| t >= 25.0 - 1e-9));
            prop_assert!(temps.iter().all(|&t| t < 500.0));
        }
    }

    /// The standard scaler's transform/inverse-transform round-trips arbitrary
    /// finite samples.
    #[test]
    fn scaler_roundtrip(samples in proptest::collection::vec(proptest::collection::vec(-1e6f64..1e6, 3), 2..40)) {
        let scaler = StandardScaler::fitted(&samples);
        for s in &samples {
            let back = scaler.inverse_transform(&scaler.transform(s));
            for (a, b) in s.iter().zip(&back) {
                prop_assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()));
            }
        }
    }

    /// RLS predictions remain finite for any bounded data stream (no covariance
    /// blow-up), even with aggressive forgetting.
    #[test]
    fn rls_stays_finite(stream in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0, -100.0f64..100.0), 1..200)) {
        let mut rls = RecursiveLeastSquares::new(3, 0.9);
        for (a, b, y) in &stream {
            rls.update(&[*a, *b, 1.0], *y);
            let p = rls.predict(&[*a, *b, 1.0]);
            prop_assert!(p.is_finite());
        }
        prop_assert!(rls.weights().iter().all(|w| w.is_finite()));
    }

    /// Virtual time never moves backwards, no matter how concurrent workers
    /// interleave `advance_ns` (serving) and `wait_until_ns` (arrival) calls
    /// on the shared clock: every observer sees a non-decreasing sequence of
    /// readings, and the final reading covers every absolute wait target.
    #[test]
    fn virtual_clock_is_monotone_under_concurrent_interleavings(
        ops in clock_ops_strategy(),
        threads in 2usize..5,
    ) {
        let clock = Clock::virtual_clock();
        let observations: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|worker| {
                    let clock = clock.clone();
                    let ops = ops.clone();
                    scope.spawn(move || {
                        let mut seen = vec![clock.now_ns()];
                        // Each worker walks the op list from its own offset, so
                        // the threads genuinely interleave different calls.
                        for op in ops.iter().cycle().skip(worker).take(ops.len()) {
                            match op {
                                ClockOp::Advance(delta) => {
                                    seen.push(clock.advance_ns(*delta));
                                }
                                ClockOp::WaitUntil(deadline) => {
                                    clock.wait_until_ns(*deadline);
                                    seen.push(clock.now_ns());
                                }
                            }
                        }
                        seen
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("clock worker panicked")).collect()
        });
        for seen in &observations {
            prop_assert!(
                seen.windows(2).all(|w| w[0] <= w[1]),
                "a worker observed time moving backwards: {seen:?}"
            );
        }
        let final_ns = clock.now_ns();
        for op in &ops {
            if let ClockOp::WaitUntil(deadline) = op {
                prop_assert!(final_ns >= *deadline, "final {final_ns} missed deadline {deadline}");
            }
        }
    }

    /// The FIFO queue discipline produces sane stamps for arbitrary monotone
    /// arrival sequences and service durations: service never starts before
    /// arrival, sojourns are at least the service (never negative), and each
    /// user's services neither overlap nor idle while work is waiting.
    #[test]
    fn fifo_queue_stamps_are_sane_for_arbitrary_loads(
        raw in proptest::collection::vec((0u64..1_000_000_000, 0u64..400_000_000), 1..60),
        user_slots in 1usize..5,
    ) {
        let mut arrivals: Vec<u64> = raw.iter().map(|(a, _)| *a).collect();
        arrivals.sort_unstable();
        let services: Vec<u64> = raw.iter().map(|(_, s)| *s).collect();
        let stamps = fifo_stamps(&arrivals, &services, user_slots);
        prop_assert!(stamps.len() == arrivals.len());
        let mut user_previous: Vec<Option<QueueStamp>> = vec![None; user_slots];
        for (i, stamp) in stamps.iter().enumerate() {
            prop_assert!(stamp.arrival_ns == arrivals[i]);
            prop_assert!(stamp.start_ns >= stamp.arrival_ns, "service before arrival at {i}");
            prop_assert!(stamp.completion_ns == stamp.start_ns + stamp.service_ns);
            prop_assert!(stamp.sojourn_ns() >= stamp.service_ns, "negative wait at {i}");
            prop_assert!(stamp.sojourn_ns() == stamp.delay_ns() + stamp.service_ns);
            match user_previous[i % user_slots] {
                None => prop_assert!(stamp.start_ns == stamp.arrival_ns),
                Some(previous) => {
                    // FIFO: no overlap with the same user's previous job, and
                    // work-conserving: the server takes the next job at the
                    // later of its arrival and the previous completion.
                    prop_assert!(stamp.start_ns >= previous.completion_ns);
                    prop_assert!(
                        stamp.start_ns == stamp.arrival_ns.max(previous.completion_ns)
                    );
                }
            }
            user_previous[i % user_slots] = Some(*stamp);
        }
    }

    /// The per-worker L1 warm tier is bit-transparent: for any interleaving of
    /// L1 fills, shared-shard fills, batched publishes and explicit flushes —
    /// across two L1 engines racing on one shared cache, at any tiny
    /// capacity/publish cadence, under any objective — every answer is
    /// bit-identical to the plain shared-shard path and to a fresh search.
    #[test]
    fn worker_l1_sweeps_are_bit_transparent_under_any_interleaving(
        profiles in proptest::collection::vec(snippet_strategy(), 1..4),
        ops in proptest::collection::vec((0usize..8, 0usize..3, 0u8..3), 1..24),
        capacity in 1usize..6,
        publish_every in 1usize..5,
    ) {
        let objectives = [
            OracleObjective::Energy,
            OracleObjective::EnergyDelayProduct,
            OracleObjective::PerformancePerWatt,
        ];
        let platform = SocPlatform::small();
        let sim = SocSimulator::new(platform.clone());
        let shared = std::sync::Arc::new(SweepCache::new());
        let plain = SweepEngine::with_cache(platform.clone(), std::sync::Arc::new(SweepCache::new()));
        let warm = SweepEngine::with_cache(platform.clone(), std::sync::Arc::clone(&shared))
            .with_warm_l1(capacity, publish_every);
        let peer = SweepEngine::with_cache(platform, std::sync::Arc::clone(&shared))
            .with_warm_l1(capacity, publish_every);
        for (pick, objective, action) in ops {
            let profile = &profiles[pick % profiles.len()];
            let objective = objectives[objective];
            let expected = plain.best(objective, profile);
            // Ground truth: the uncached search answers identically too.
            let fresh = OracleSearch::new(objective).best_config(&sim, profile);
            for answer in [warm.best(objective, profile), peer.best(objective, profile), fresh] {
                prop_assert!(answer == expected);
                prop_assert!(answer.1.energy_j.to_bits() == expected.1.energy_j.to_bits());
                prop_assert!(answer.1.time_s.to_bits() == expected.1.time_s.to_bits());
            }
            match action {
                1 => warm.flush_l1(),
                2 => peer.flush_l1(),
                _ => {}
            }
        }
        let stats = warm.l1_stats().expect("warm engine has an L1");
        let peer_stats = peer.l1_stats().expect("peer engine has an L1");
        prop_assert!(stats.hits + stats.shared_hits + stats.misses > 0);
        prop_assert!(stats.entries <= capacity && peer_stats.entries <= capacity);
    }

    /// GPU frame rendering is physical for every configuration and any plausible
    /// frame demand.
    #[test]
    fn gpu_frames_are_physical(work in 1.0e8f64..2.0e10, par in 0.0f64..1.0, mem in 0.0f64..1.0e8, cfg in 0usize..24) {
        let platform = GpuPlatform::gen9_like();
        let mut sim = GpuSimulator::new(platform.clone());
        let config = platform.configs()[cfg % platform.config_count()];
        let demand = soclearn_workloads::graphics::FrameDemand::new(work, par, mem);
        let r = sim.render_frame(&demand, config, 1.0 / 30.0);
        prop_assert!(r.frame_time_s > 0.0 && r.frame_time_s.is_finite());
        prop_assert!(r.gpu_energy_j > 0.0);
        prop_assert!(r.package_energy_j >= r.gpu_energy_j);
        prop_assert!(r.period_s >= r.frame_time_s - 1e-12);
        prop_assert!(r.counters.utilization <= 1.0 + 1e-12);
    }
}
