//! Machine-readable perf snapshot: the CI entry point behind `BENCH_*.json`.
//!
//! Runs the quick-scale serving and scenario-generation benchmarks (the same
//! workloads as the `serving_throughput` and `scenario_gen` criterion benches,
//! condensed to best-of-N wall timings) plus a virtual-clock fleet compression
//! measurement, and writes one JSON summary:
//!
//! ```text
//! cargo run --release --example bench_snapshot            # writes BENCH_4.json
//! cargo run --release --example bench_snapshot -- out.json
//! ```
//!
//! CI's `bench-snapshot` job runs this against the committed baseline and
//! fails if `serving.steady_state_decisions_per_s` drops more than 25 % below
//! it, so throughput regressions on the serving hot path are caught at PR
//! time instead of living only in prose.  Numbers are best-of-3 to damp
//! runner noise; the JSON layout is flat key/value per section so the gate
//! can read it with any JSON parser.
//!
//! The `observability` section reruns the steady-state fleet with the metrics
//! registry attached (the acceptance gate wants that number within 5 % of the
//! plain one) and microbenches raw registry ops; the instrumented runs'
//! registry snapshot itself is written next to the output as
//! `<stem>.metrics.json` and uploaded by CI alongside `BENCH_4.json`.
//!
//! The `contention` section (schema 5) turns the flat 1/2/4-worker scaling
//! numbers into a diagnosis: the Amdahl-fitted serial fraction behind
//! `scaling_efficiency_4w` (one source of truth for both numbers), the
//! measured per-lock-site wait shares from the contention sketches, and the
//! instrumented-vs-plain overhead the gate bounds at 5 %.  The full
//! critical-path report of the saturated queueing drain is written next to
//! the output as `<stem>.bottleneck.json` and uploaded as a CI artifact.
//!
//! The `fleet_1m` section (schema 6) is the capacity benchmark of the
//! non-recording drain path: a simulated week of constant-rate arrivals —
//! 10⁵ users by default, 10⁶ when `BENCH_FLEET_USERS=1000000` — through the
//! event-calendar scheduler and the sparse queue model, reporting users/s
//! drained, wall time and peak queueing state bytes per user.  The 1/2/4-
//! worker scaling runs behind `queueing_full` now serve through the
//! per-worker L1 warm tier; `scaling_efficiency_4w` and the re-fitted serial
//! fraction are what CI's `scaling-gate` ratchets.
//!
//! The `model_store` section (schema 7) measures tiered copy-on-write
//! personalization: a users ladder (10⁴ and 10⁵ by default, the top rung
//! overridable with `BENCH_STORE_USERS`) of online-IL fleets drained twice —
//! once with a private policy copy per user (the shared-model baseline), once
//! leasing from one `TieredModelStore` — reporting decisions/s for both
//! sides, peak personalization bytes per user, and that figure as a fraction
//! of one full per-user copy.  CI gates the top rung: the copy fraction must
//! stay under 10 % and personalized throughput within 10 % of the baseline.

use std::fmt::Write as _;
use std::time::Instant;

use soclearn_core::prelude::*;
use soclearn_runtime::{scaled_suite, sequence_of, SubstratePolicies};
use soclearn_scenarios::Trace;
use std::time::Duration;

/// Schema version of the snapshot format (2: added the `queueing` section;
/// 3: added the `multi_substrate` section; 4: added the `observability` and
/// `queueing_full` sections; 5: added the `contention` section — the
/// Amdahl-fitted serial fraction behind `scaling_efficiency_4w`, the measured
/// per-site lock-wait shares, and the instrumented-vs-plain overhead the gate
/// bounds at 5 %; 6: added the `fleet_1m` capacity section and the per-worker
/// L1 warm-tier fields in `queueing_full`, derived `queueing_full.users` from
/// the measured spec list instead of hand-carrying it, and made the scaling
/// numbers core-aware — `scaling_efficiency_4w` is now the fraction of
/// *achievable* speedup (`speedup / min(workers, host_cores)`) and
/// `serial_fraction` only accumulates evidence from points with more than one
/// effective core, so core-starved runners stop reading as 97 %-serial code;
/// 7: added the `model_store` section — the copy-on-write personalization
/// ladder with its shared-vs-personalized throughput ratio and bytes-per-user
/// accounting, and the fixed-vs-adaptive forgetting verdict;
/// 8: dropped that settled verdict, which ablation A3 in `soclearn-core` reproduces).
const SCHEMA: u32 = 8;
/// Timed repetitions per measurement; the best (max throughput / min time)
/// is reported.
const REPS: usize = 3;
/// Saturation factor of the queueing measurement: arrivals land this many
/// times faster than the single server drains (drives the interval, the log
/// line and the snapshot's `offered_load` field).
const OFFERED_LOAD: f64 = 8.0;

fn serving_users(users: usize, scale: ExperimentScale) -> Vec<ScenarioSpec> {
    (0..users)
        .map(|user| {
            let kind = match user % 3 {
                0 => SuiteKind::MiBench,
                1 => SuiteKind::Cortex,
                _ => SuiteKind::Parsec,
            };
            let benchmarks = scaled_suite(kind, scale);
            let sequence = sequence_of(&benchmarks, kind);
            ScenarioSpec::from_sequence(format!("user-{user}"), &sequence)
        })
        .collect()
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_4.json".to_owned());
    let platform = SocPlatform::odroid_xu3();
    let users = 12;
    let workers = 4;
    let specs = serving_users(users, ExperimentScale::Quick);

    // Serving: the online-IL fleet of the serving_throughput bench.  The cold
    // pass runs on a driver with a *fresh* sweep cache (the artifact store's
    // cache is already warm from pretraining, so routing the cold pass through
    // it would measure steady state twice); the steady-state passes share the
    // artifact cache and are best-of-REPS — the number the CI perf gate
    // thresholds.
    let artifacts = shared_artifacts(&platform, ExperimentScale::Quick);
    let make_policy = |_: usize, _: &ScenarioSpec| {
        SubstratePolicies::cpu_only(Box::new(
            artifacts
                .online_policy(OnlineIlConfig { buffer_capacity: 15, ..OnlineIlConfig::default() }),
        ))
    };
    let cold_driver = ScenarioDriver::new(platform.clone(), workers)
        .with_oracle_reference(OracleObjective::Energy);
    let cold = cold_driver.run_stream_mixed(&SliceSource::new(&specs), make_policy);
    let driver = ScenarioDriver::new(platform.clone(), workers)
        .with_cache(artifacts.sweep_cache().clone())
        .with_oracle_reference(OracleObjective::Energy);
    let steady = (0..REPS)
        .map(|_| driver.run_stream_mixed(&SliceSource::new(&specs), make_policy))
        .max_by(|a, b| a.decisions_per_second.total_cmp(&b.decisions_per_second))
        .expect("at least one steady-state rep");
    println!(
        "serving: {} users x {} workers, cold {:.0} decisions/s, steady-state {:.0} decisions/s, \
         mean latency {:.1} us, cache hit rate {:.0}%",
        users,
        workers,
        cold.decisions_per_second,
        steady.decisions_per_second,
        steady.latency.mean_ns() / 1e3,
        steady.cache.hit_rate() * 100.0
    );

    // Scenario generation + trace codec, as in the scenario_gen bench.
    let generator = ScenarioGenerator::standard(2020, 12);
    let gen_count = 200;
    let mut gen_seconds = f64::INFINITY;
    let mut snippets = 0usize;
    for _ in 0..REPS {
        let start = Instant::now();
        let scenarios = generator.scenarios(gen_count);
        gen_seconds = gen_seconds.min(start.elapsed().as_secs_f64());
        snippets = scenarios.iter().map(|s| s.decision_count()).sum();
    }
    let scenarios_per_s = gen_count as f64 / gen_seconds;
    let small = SocPlatform::small();
    let trace_driver = ScenarioDriver::new(small.clone(), 2);
    let (_, records) = trace_driver
        .run_recorded_mixed(&SliceSource::new(&generator.scenarios(8)), |_, _| {
            SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&small)))
        });
    let trace = Trace::from_records(&records);
    let jsonl = trace.to_jsonl();
    let encode_seconds = (0..REPS)
        .map(|_| time_of(|| trace.to_jsonl().len()))
        .fold(f64::INFINITY, f64::min);
    let decode_seconds = (0..REPS)
        .map(|_| time_of(|| Trace::from_jsonl(&jsonl).expect("trace parses").scenarios.len()))
        .fold(f64::INFINITY, f64::min);
    println!(
        "scenario_gen: {:.0} scenarios/s ({} snippets), trace encode {:.1} MB/s, decode {:.1} MB/s",
        scenarios_per_s,
        snippets,
        jsonl.len() as f64 / encode_seconds / 1e6,
        jsonl.len() as f64 / decode_seconds / 1e6
    );

    // Virtual-clock compression: a day-plus diurnal fleet on the discrete-event
    // clock; simulated span over wall time is the compression ratio.
    let mut fleet_wall_seconds = f64::INFINITY;
    let mut report = None;
    for _ in 0..REPS {
        let fleet = FleetStress::new(small.clone(), ScenarioGenerator::standard(2020, 6), 36, 4)
            .with_schedule(ArrivalSchedule::Diurnal {
                period: Duration::from_secs(24 * 3_600),
                peak: Duration::from_secs(600),
                off_peak: Duration::from_secs(3 * 3_600),
            })
            .with_clock(Clock::virtual_clock());
        let start = Instant::now();
        let r =
            fleet.run(|_, _| SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&small))));
        fleet_wall_seconds = fleet_wall_seconds.min(start.elapsed().as_secs_f64());
        report = Some(r);
    }
    let report = report.expect("at least one virtual fleet rep");
    let simulated_hours = report.telemetry.wall_seconds / 3_600.0;
    println!(
        "virtual_fleet: {:.1} simulated hours ({} decisions) in {:.1} ms wall — {:.0}x compression",
        simulated_hours,
        report.telemetry.decisions,
        fleet_wall_seconds * 1e3,
        report.telemetry.wall_seconds / fleet_wall_seconds.max(1e-9)
    );

    // Mixed-substrate serving: the heterogeneous seven-family fleet (CPU DVFS,
    // GPU rendering bursts, NoC monitoring windows and interleaved sessions)
    // with the learned per-substrate policies, on the virtual clock.  Reports
    // fleet decision throughput and the cross-substrate energy split — the
    // numbers the heterogeneous serving path is gated on.
    let mut mixed_wall_seconds = f64::INFINITY;
    let mut mixed_report = None;
    for _ in 0..REPS {
        let fleet =
            FleetStress::new(small.clone(), ScenarioGenerator::heterogeneous(2020, 8), 21, 4)
                .with_clock(Clock::virtual_clock());
        let start = Instant::now();
        let r =
            fleet.run(|_, _| SubstratePolicies::learned(Box::new(OndemandGovernor::new(&small))));
        mixed_wall_seconds = mixed_wall_seconds.min(start.elapsed().as_secs_f64());
        mixed_report = Some(r);
    }
    let mixed = mixed_report.expect("at least one mixed-substrate rep");
    let mixed_decisions_per_s = mixed.telemetry.decisions as f64 / mixed_wall_seconds.max(1e-9);
    let lanes = &mixed.telemetry.substrates;
    println!(
        "multi_substrate: {} decisions (cpu {}, gpu {}, noc {}) in {:.1} ms wall — {:.0} decisions/s, \
         energy split {:.2} J / {:.4} J / {:.6} J",
        mixed.telemetry.decisions,
        lanes[0].decisions,
        lanes[1].decisions,
        lanes[2].decisions,
        mixed_wall_seconds * 1e3,
        mixed_decisions_per_s,
        lanes[0].energy_j,
        lanes[1].energy_j,
        lanes[2].energy_j,
    );

    // Service-time queueing: a saturated single-user constant-rate fleet on
    // the virtual clock.  The mean per-scenario service time is probed from
    // an immediate-admission run, then arrivals land OFFERED_LOAD times
    // faster than the server drains — utilisation must pin near 1 and a
    // backlog must build, which the CI gate asserts alongside the perf
    // numbers.
    let queue_users = 24;
    let probe =
        FleetStress::new(small.clone(), ScenarioGenerator::standard(2020, 6), queue_users, 4)
            .with_clock(Clock::virtual_clock())
            .with_queueing(QueueingConfig::new(1.0, 1))
            .run(|_, _| SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&small))));
    let probe_queue = probe.queueing.expect("queueing was enabled");
    let mean_service_s = probe_queue.total_service_s / probe_queue.arrivals as f64;
    let saturated =
        FleetStress::new(small.clone(), ScenarioGenerator::standard(2020, 6), queue_users, 4)
            .with_schedule(ArrivalSchedule::Constant {
                interval: Duration::from_secs_f64(mean_service_s / OFFERED_LOAD),
            })
            .with_clock(Clock::virtual_clock())
            .with_queueing(QueueingConfig::new(1.0, 1))
            .run(|_, _| SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&small))));
    let queueing = saturated.queueing.expect("queueing was enabled");
    println!(
        "queueing: {} arrivals at {OFFERED_LOAD}x the drain rate — utilisation {:.3}, \
         mean delay {:.1} ms, p95 sojourn {:.1} ms, max queue depth {}",
        queueing.arrivals,
        queueing.utilisation,
        queueing.mean_queue_delay_s * 1e3,
        queueing.p95_sojourn_s * 1e3,
        queueing.max_queue_depth,
    );

    // Observability overhead: the identical steady-state serving fleet with
    // the metrics registry and span recorder attached — the acceptance gate
    // wants this within 5 % of the plain steady-state number — plus raw
    // registry op throughput (one relaxed atomic add per counter op, one
    // mutex-guarded bucket add per sketch record).  Each side owns its OWN
    // sweep cache: the instrumented driver attaches contention observers to
    // its cache's locks, and an attached lock bills observer cost to every
    // later user of that cache, so sharing one cache would tax the plain
    // side too and understate the overhead.  One untimed run per side warms
    // both caches to steady state, then the timed reps alternate
    // plain/instrumented so machine-load drift (±5 % on minute scales here)
    // cancels within each back-to-back pair; the gate number is the median
    // per-pair overhead.
    let obs = Observability::new();
    let plain_driver = ScenarioDriver::new(platform.clone(), workers)
        .with_oracle_reference(OracleObjective::Energy);
    let obs_driver = ScenarioDriver::new(platform.clone(), workers)
        .with_oracle_reference(OracleObjective::Energy)
        .with_observability(obs.clone());
    let _ = plain_driver.run_stream_mixed(&SliceSource::new(&specs), make_policy);
    let _ = obs_driver.run_stream_mixed(&SliceSource::new(&specs), make_policy);
    let pairs = REPS + 2;
    let mut pair_overheads = Vec::with_capacity(pairs);
    let mut steady_obs: Option<DriverTelemetry> = None;
    for _ in 0..pairs {
        let plain = plain_driver.run_stream_mixed(&SliceSource::new(&specs), make_policy);
        let instrumented = obs_driver.run_stream_mixed(&SliceSource::new(&specs), make_policy);
        pair_overheads
            .push((1.0 - instrumented.decisions_per_second / plain.decisions_per_second) * 100.0);
        let better = steady_obs.as_ref().is_none()
            || steady_obs.as_ref().is_some_and(|best: &DriverTelemetry| {
                instrumented.decisions_per_second > best.decisions_per_second
            });
        if better {
            steady_obs = Some(instrumented);
        }
    }
    let steady_obs = steady_obs.expect("at least one instrumented steady-state rep");
    pair_overheads.sort_by(f64::total_cmp);
    let overhead_pct = pair_overheads[pair_overheads.len() / 2];
    let counter = obs.registry.counter("bench_registry_ops_total", &[]);
    let counter_ops = 10_000_000u64;
    let counter_seconds = time_of(|| {
        for _ in 0..counter_ops {
            counter.inc();
        }
    });
    let sketch = obs.registry.sketch("bench_registry_sketch_ns", &[]);
    let sketch_ops = 1_000_000u64;
    let sketch_seconds = time_of(|| {
        for i in 0..sketch_ops {
            sketch.record(i);
        }
    });
    println!(
        "observability: steady-state with metrics {:.0} decisions/s ({:+.2}% vs plain), \
         counter {:.0} Mops/s, sketch {:.0} Mops/s",
        steady_obs.decisions_per_second,
        -overhead_pct,
        counter_ops as f64 / counter_seconds / 1e6,
        sketch_ops as f64 / sketch_seconds / 1e6,
    );

    // Full-scale re-profile (owed since PR 5): Full-length benchmark suites
    // through the full serving stack (online-IL + oracle reference + shared
    // sweep cache) at 1/2/4 workers — quick-scale runs are bounded by thread
    // spawn over 640-decision streams, so worker scaling is measured on the
    // longer streams — plus a saturated Full-size queueing drain.  Everything
    // here runs instrumented through the shared registry.
    let full_specs = serving_users(users, ExperimentScale::Full);
    let full_driver = |full_workers: usize| {
        ScenarioDriver::new(platform.clone(), full_workers)
            .with_cache(artifacts.sweep_cache().clone())
            .with_oracle_reference(OracleObjective::Energy)
            .with_observability(obs.clone())
    };
    // One warm-up pass heats the shared sweep cache for the Full-length
    // streams, so every measured worker count sees the same steady state.
    full_driver(workers).run_stream_mixed(&SliceSource::new(&full_specs), make_policy);
    let mut full_dps = [0.0f64; 3];
    let mut full_decisions = 0usize;
    let mut full_l1 = SweepL1Stats::default();
    for (slot, full_workers) in [1usize, 2, 4].into_iter().enumerate() {
        let driver = full_driver(full_workers);
        let telemetry = (0..REPS)
            .map(|_| driver.run_stream_mixed(&SliceSource::new(&full_specs), make_policy))
            .max_by(|a, b| a.decisions_per_second.total_cmp(&b.decisions_per_second))
            .expect("at least one full-scale rep");
        full_dps[slot] = telemetry.decisions_per_second;
        full_decisions = telemetry.decisions;
        full_l1 = telemetry.l1;
    }
    // The Amdahl fit is the single source of truth for worker-scaling
    // numbers: `scaling_efficiency_4w` below and the bottleneck artifact's
    // `amdahl` section both read this fit, so they can never disagree.  The
    // fit is core-aware: each point is scored against min(workers, host
    // cores), so a core-starved runner (the 1-core class that measured
    // "0.97 serial fraction" before schema 6) no longer reads as serial code
    // — scaling_efficiency_4w is the fraction of *achievable* scaling
    // realised, and serial_fraction only accumulates evidence from points
    // with real parallelism available.
    let host_cores = std::thread::available_parallelism()
        .map(|cores| cores.get() as u32)
        .unwrap_or(1);
    let amdahl = AmdahlFit::from_throughputs_on(
        host_cores,
        &[(1, full_dps[0]), (2, full_dps[1]), (4, full_dps[2])],
    )
    .expect("full-scale measurement includes a positive 1-worker baseline");
    let full_queue_users = 96;
    let full_queue_start = Instant::now();
    let full_queue_report =
        FleetStress::new(small.clone(), ScenarioGenerator::standard(2020, 6), full_queue_users, 4)
            .with_schedule(ArrivalSchedule::Constant {
                interval: Duration::from_secs_f64(mean_service_s / OFFERED_LOAD),
            })
            .with_clock(Clock::virtual_clock())
            .with_queueing(QueueingConfig::new(1.0, 1))
            .with_observability(obs.clone())
            .run(|_, _| SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&small))));
    let full_queue_wall_ms = full_queue_start.elapsed().as_secs_f64() * 1e3;
    let full_queue = full_queue_report.queueing.clone().expect("queueing was enabled");
    println!(
        "queueing_full: {} full-scale decisions — {:.0} / {:.0} / {:.0} decisions/s at 1/2/4 \
         workers ({:.0}% of achievable scaling, L1 warm hit rate {:.0}%); {} saturated arrivals \
         drained in {:.1} ms wall, utilisation {:.3}, p95 sojourn {:.1} ms",
        full_decisions,
        full_dps[0],
        full_dps[1],
        full_dps[2],
        amdahl.scaling_efficiency * 100.0,
        full_l1.warm_hit_rate() * 100.0,
        full_queue.arrivals,
        full_queue_wall_ms,
        full_queue.utilisation,
        full_queue.p95_sojourn_s * 1e3,
    );

    // Fleet capacity: a simulated week of constant-rate arrivals drained
    // through the non-recording path — the event-calendar scheduler feeding
    // the sparse queue model, no per-scenario records — at 10⁵ users by
    // default (BENCH_FLEET_USERS=1000000 for the full 10⁶-user drain).  The
    // headline numbers are users/s drained, wall time for the week, and peak
    // queueing+calendar state in bytes per user, which must *shrink* as the
    // fleet grows.
    let fleet_users: usize = std::env::var("BENCH_FLEET_USERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    let week_s = 7.0 * 24.0 * 3_600.0;
    let fleet_slots = 16;
    let fleet_1m =
        FleetStress::new(small.clone(), ScenarioGenerator::standard(2020, 2), fleet_users, workers)
            .with_schedule(ArrivalSchedule::Constant {
                interval: Duration::from_secs_f64(week_s / fleet_users as f64),
            })
            .with_clock(Clock::virtual_clock())
            .with_queueing(QueueingConfig::new(1.0, fleet_slots))
            .drain(|_, _| SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&small))));
    println!(
        "fleet_1m: {} users over {:.1} simulated days drained in {:.2} s wall — {:.0} users/s, \
         {:.0} decisions/s, peak {} in flight, {:.1} queue-state bytes/user",
        fleet_1m.users,
        fleet_1m.span_s / 86_400.0,
        fleet_1m.elapsed_s,
        fleet_1m.users_per_s,
        fleet_1m.decisions_per_s,
        fleet_1m.queue_peak_resident,
        fleet_1m.queue_bytes_per_user,
    );

    // Tiered model store: copy-on-write personalization at fleet scale.  Each
    // ladder rung drains the same constant-rate week of online-IL users twice
    // — every user with a private full policy copy (the shared-model
    // baseline), then leasing from one TieredModelStore — so the throughput
    // ratio isolates the store's lease/replay/merge overhead and the store's
    // own accounting yields peak personalization bytes per user.  Resident
    // copies are bounded by in-flight leases (the slots), not the fleet, so
    // the per-user fraction of a full copy *shrinks* as the rung grows — the
    // top rung is what CI gates (< 10 % of a copy, throughput within 10 %).
    let store_users_top: usize = std::env::var("BENCH_STORE_USERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    let store_ladder: Vec<usize> = if store_users_top > 10_000 {
        vec![10_000, store_users_top]
    } else {
        vec![store_users_top]
    };
    let artifacts_small = shared_artifacts(&small, ExperimentScale::Quick);
    let store_config = OnlineIlConfig { buffer_capacity: 15, ..OnlineIlConfig::default() };
    struct StoreRung {
        users: usize,
        decisions: usize,
        shared_dps: f64,
        personal_dps: f64,
        ratio: f64,
        stats: ModelStoreStats,
    }
    let mut store_rungs: Vec<StoreRung> = Vec::new();
    for &rung_users in &store_ladder {
        // Standard-length (8-snippet) streams, not the stub scenarios of the
        // fleet_1m capacity drain: the gate measures steady-state serving,
        // and per-lease fixed costs (materialization, delta bookkeeping, the
        // drop-time stats fold) amortize over a user's decisions the way they
        // would in a real session.  One worker: the gated quantity is the
        // per-decision serving overhead of personalization, and a single
        // stream measures it without the scheduler noise of a timeshared
        // worker pool (parallel capacity is the fleet_1m section's job).
        let make_fleet = || {
            FleetStress::new(small.clone(), ScenarioGenerator::standard(2020, 8), rung_users, 1)
                .with_schedule(ArrivalSchedule::Constant {
                    interval: Duration::from_secs_f64(week_s / rung_users as f64),
                })
                .with_clock(Clock::virtual_clock())
                .with_queueing(QueueingConfig::new(1.0, fleet_slots))
        };
        // The ratio is a CI gate, so it is measured as a paired design: each
        // rep times a back-to-back shared/personalized drain pair (fresh
        // store per pair) and contributes one ratio, and the gate takes the
        // median over the pairs.  Machine-load drift on shared runners moves
        // on second-to-minute scales, so it cancels inside a pair where
        // per-arm best-of across minutes does not; alternating which arm
        // runs first cancels cache- and allocator-warmth order bias too.
        // Two extra pairs over the default REPS buy the median its majority.
        let store_reps = REPS + 2;
        let mut shared: Option<FleetDrainReport> = None;
        let mut personalized: Option<FleetDrainReport> = None;
        let mut pair_ratios = Vec::with_capacity(store_reps);
        for rep in 0..store_reps {
            // Merge cadence scaled to the rung: folding every 64 completions
            // (the per-process default) would refit and republish the base
            // 1.5k times across a 10⁵-user drain; one merge per ~64 in-flight
            // generations keeps federation live without the republish churn.
            let merge_every = (rung_users / 64).max(64);
            let run_shared = || {
                make_fleet().drain(|_, _| {
                    SubstratePolicies::cpu_only(Box::new(
                        artifacts_small.online_policy(store_config),
                    ))
                })
            };
            let run_personalized = || {
                let store = std::sync::Arc::new(TieredModelStore::new(
                    &artifacts_small,
                    store_config,
                    merge_every,
                ));
                let fleet = make_fleet().with_personalization(std::sync::Arc::clone(&store));
                fleet.drain(|i, _| SubstratePolicies::cpu_only(fleet.personalized_policy(i)))
            };
            let (shared_rep, personal_rep) = if rep % 2 == 0 {
                let s = run_shared();
                (s, run_personalized())
            } else {
                let p = run_personalized();
                (run_shared(), p)
            };
            pair_ratios.push(personal_rep.decisions_per_s / shared_rep.decisions_per_s.max(1e-9));
            let shared_better =
                shared.as_ref().map_or(true, |b| shared_rep.decisions_per_s > b.decisions_per_s);
            if shared_better {
                shared = Some(shared_rep);
            }
            let personal_better = personalized
                .as_ref()
                .map_or(true, |b| personal_rep.decisions_per_s > b.decisions_per_s);
            if personal_better {
                personalized = Some(personal_rep);
            }
        }
        let shared = shared.expect("at least one shared-baseline rep");
        let personalized = personalized.expect("at least one personalized rep");
        pair_ratios.sort_by(f64::total_cmp);
        let ratio = pair_ratios[pair_ratios.len() / 2];
        let stats = personalized
            .model_store
            .clone()
            .expect("a personalized drain reports store accounting");
        println!(
            "model_store: {} users — shared {:.0} decisions/s, personalized {:.0} decisions/s \
             (pair ratios {:?} → {:.0}%), {} deltas, peak {} copies resident, {:.0} B/user \
             ({:.2}% of a {} KB copy), {} merge rounds",
            rung_users,
            shared.decisions_per_s,
            personalized.decisions_per_s,
            pair_ratios.iter().map(|r| (r * 100.0).round() as i64).collect::<Vec<_>>(),
            ratio * 100.0,
            stats.deltas_materialized,
            stats.peak_resident_copies,
            stats.bytes_per_user(),
            stats.copy_fraction_per_user() * 100.0,
            stats.full_copy_bytes / 1024,
            stats.merge_rounds,
        );
        store_rungs.push(StoreRung {
            users: rung_users,
            decisions: personalized.decisions,
            shared_dps: shared.decisions_per_s,
            personal_dps: personalized.decisions_per_s,
            ratio,
            stats,
        });
    }
    let store_top = store_rungs.last().expect("the store ladder has at least one rung");

    // The instrumented runs' own registry, exported next to the snapshot.
    artifacts.publish_stats(&obs.registry);
    let metrics_snapshot = obs.snapshot();
    assert!(
        metrics_snapshot.counter("driver_runs_total", &[]).unwrap_or(0) > 0,
        "instrumented runs must publish through the registry"
    );

    // The measured bottleneck diagnosis of the saturated Full-size queueing
    // drain: per-slot timelines and the critical path from its stamps, span
    // kinds from the flight recorder, lock-site wait shares from the
    // contention sketches, and the Amdahl fit above.  Written next to the
    // snapshot as `<stem>.bottleneck.json` and uploaded by CI.
    let bottleneck = full_queue_report
        .bottleneck_report()
        .expect("queueing_full stamps every record")
        .with_span_kinds(&obs.spans.sorted_spans())
        .with_lock_sites(&metrics_snapshot)
        .with_amdahl(amdahl.clone());
    let lock_sites: Vec<_> = bottleneck.sites.iter().filter(|s| s.kind == "lock").collect();
    let top_lock_site = bottleneck
        .top_lock_site()
        .map(|s| s.site.clone())
        .unwrap_or_else(|| "-".to_owned());
    println!(
        "contention: serial fraction {:.3} (scaling efficiency {:.0}% of achievable at 4 workers \
         on {} cores{}), overhead {:+.2}%, top lock site {} ({} lock sites measured)",
        amdahl.serial_fraction,
        amdahl.scaling_efficiency * 100.0,
        host_cores,
        if amdahl.core_limited { ", core-limited" } else { "" },
        -overhead_pct,
        top_lock_site,
        lock_sites.len(),
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": {SCHEMA},");
    let _ = writeln!(json, "  \"bench\": \"bench_snapshot\",");
    let _ = writeln!(json, "  \"scale\": \"quick\",");
    let _ = writeln!(json, "  \"serving\": {{");
    let _ = writeln!(json, "    \"users\": {users},");
    let _ = writeln!(json, "    \"workers\": {workers},");
    let _ = writeln!(json, "    \"decisions\": {},", steady.decisions);
    let _ = writeln!(json, "    \"cold_decisions_per_s\": {:.1},", cold.decisions_per_second);
    let _ =
        writeln!(json, "    \"steady_state_decisions_per_s\": {:.1},", steady.decisions_per_second);
    let _ = writeln!(json, "    \"mean_latency_us\": {:.3},", steady.latency.mean_ns() / 1e3);
    let _ = writeln!(json, "    \"cache_hit_rate\": {:.4}", steady.cache.hit_rate());
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"scenario_gen\": {{");
    let _ = writeln!(json, "    \"scenarios_per_s\": {scenarios_per_s:.1},");
    let _ = writeln!(json, "    \"snippets\": {snippets},");
    let _ = writeln!(
        json,
        "    \"trace_encode_mb_per_s\": {:.1},",
        jsonl.len() as f64 / encode_seconds / 1e6
    );
    let _ = writeln!(
        json,
        "    \"trace_decode_mb_per_s\": {:.1}",
        jsonl.len() as f64 / decode_seconds / 1e6
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"virtual_fleet\": {{");
    let _ = writeln!(json, "    \"simulated_hours\": {simulated_hours:.2},");
    let _ = writeln!(json, "    \"decisions\": {},", report.telemetry.decisions);
    let _ = writeln!(json, "    \"wall_ms\": {:.2}", fleet_wall_seconds * 1e3);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"multi_substrate\": {{");
    let _ = writeln!(json, "    \"decisions\": {},", mixed.telemetry.decisions);
    let _ = writeln!(json, "    \"cpu_decisions\": {},", lanes[0].decisions);
    let _ = writeln!(json, "    \"gpu_decisions\": {},", lanes[1].decisions);
    let _ = writeln!(json, "    \"noc_decisions\": {},", lanes[2].decisions);
    let _ = writeln!(json, "    \"decisions_per_s\": {mixed_decisions_per_s:.1},");
    let _ = writeln!(json, "    \"cpu_energy_j\": {:.6},", lanes[0].energy_j);
    let _ = writeln!(json, "    \"gpu_energy_j\": {:.6},", lanes[1].energy_j);
    let _ = writeln!(json, "    \"noc_energy_j\": {:.9},", lanes[2].energy_j);
    let _ = writeln!(json, "    \"wall_ms\": {:.2}", mixed_wall_seconds * 1e3);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"queueing\": {{");
    let _ = writeln!(json, "    \"arrivals\": {},", queueing.arrivals);
    let _ = writeln!(json, "    \"user_slots\": {},", queueing.user_slots);
    let _ = writeln!(json, "    \"offered_load\": {OFFERED_LOAD:.1},");
    let _ = writeln!(json, "    \"utilisation\": {:.4},", queueing.utilisation);
    let _ =
        writeln!(json, "    \"mean_queue_delay_ms\": {:.2},", queueing.mean_queue_delay_s * 1e3);
    let _ = writeln!(json, "    \"p95_sojourn_ms\": {:.2},", queueing.p95_sojourn_s * 1e3);
    let _ = writeln!(json, "    \"max_queue_depth\": {}", queueing.max_queue_depth);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"observability\": {{");
    let _ = writeln!(
        json,
        "    \"steady_state_decisions_per_s_with_metrics\": {:.1},",
        steady_obs.decisions_per_second
    );
    let _ = writeln!(json, "    \"overhead_pct\": {overhead_pct:.2},");
    let _ =
        writeln!(json, "    \"counter_ops_per_s\": {:.0},", counter_ops as f64 / counter_seconds);
    let _ =
        writeln!(json, "    \"sketch_records_per_s\": {:.0},", sketch_ops as f64 / sketch_seconds);
    let _ = writeln!(json, "    \"registry_metrics\": {}", metrics_snapshot.len());
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"queueing_full\": {{");
    let _ = writeln!(json, "    \"users\": {},", full_specs.len());
    let _ = writeln!(json, "    \"decisions\": {full_decisions},");
    let _ = writeln!(json, "    \"decisions_per_s_1w\": {:.1},", full_dps[0]);
    let _ = writeln!(json, "    \"decisions_per_s_2w\": {:.1},", full_dps[1]);
    let _ = writeln!(json, "    \"decisions_per_s_4w\": {:.1},", full_dps[2]);
    let _ = writeln!(json, "    \"scaling_efficiency_4w\": {:.4},", amdahl.scaling_efficiency);
    let _ = writeln!(json, "    \"serial_fraction\": {:.4},", amdahl.serial_fraction);
    let _ = writeln!(json, "    \"host_cores\": {host_cores},");
    let _ = writeln!(json, "    \"core_limited\": {},", amdahl.core_limited);
    let _ = writeln!(json, "    \"l1_warm_hit_rate\": {:.4},", full_l1.warm_hit_rate());
    let _ = writeln!(json, "    \"l1_hits\": {},", full_l1.hits);
    let _ = writeln!(json, "    \"l1_publishes\": {},", full_l1.publishes);
    let _ = writeln!(json, "    \"queue_arrivals\": {},", full_queue.arrivals);
    let _ = writeln!(json, "    \"queue_utilisation\": {:.4},", full_queue.utilisation);
    let _ =
        writeln!(json, "    \"queue_mean_delay_ms\": {:.2},", full_queue.mean_queue_delay_s * 1e3);
    let _ = writeln!(json, "    \"queue_p95_sojourn_ms\": {:.2},", full_queue.p95_sojourn_s * 1e3);
    let _ = writeln!(json, "    \"queue_max_depth\": {},", full_queue.max_queue_depth);
    let _ = writeln!(json, "    \"queue_wall_ms\": {full_queue_wall_ms:.2}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"fleet_1m\": {{");
    let _ = writeln!(json, "    \"users\": {},", fleet_1m.users);
    let _ = writeln!(json, "    \"user_slots\": {},", fleet_1m.user_slots);
    let _ = writeln!(json, "    \"workers\": {workers},");
    let _ = writeln!(json, "    \"decisions\": {},", fleet_1m.decisions);
    let _ = writeln!(json, "    \"simulated_days\": {:.2},", fleet_1m.span_s / 86_400.0);
    let _ = writeln!(json, "    \"wall_s\": {:.3},", fleet_1m.elapsed_s);
    let _ = writeln!(json, "    \"users_per_s\": {:.1},", fleet_1m.users_per_s);
    let _ = writeln!(json, "    \"decisions_per_s\": {:.1},", fleet_1m.decisions_per_s);
    let _ = writeln!(json, "    \"utilisation\": {:.6},", fleet_1m.utilisation);
    let _ = writeln!(json, "    \"mean_sojourn_ms\": {:.3},", fleet_1m.mean_sojourn_s * 1e3);
    let _ = writeln!(json, "    \"queue_peak_resident\": {},", fleet_1m.queue_peak_resident);
    let _ = writeln!(json, "    \"queue_bytes_per_user\": {:.2}", fleet_1m.queue_bytes_per_user);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"model_store\": {{");
    let _ = writeln!(json, "    \"ladder\": [");
    for (i, rung) in store_rungs.iter().enumerate() {
        let comma = if i + 1 < store_rungs.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      {{\"users\": {}, \"decisions\": {}, \"shared_decisions_per_s\": {:.1}, \
             \"personalized_decisions_per_s\": {:.1}, \"throughput_ratio\": {:.4}, \
             \"bytes_per_user\": {:.1}, \"copy_fraction_per_user\": {:.6}, \
             \"deltas_materialized\": {}, \"merge_rounds\": {}}}{comma}",
            rung.users,
            rung.decisions,
            rung.shared_dps,
            rung.personal_dps,
            rung.ratio,
            rung.stats.bytes_per_user(),
            rung.stats.copy_fraction_per_user(),
            rung.stats.deltas_materialized,
            rung.stats.merge_rounds,
        );
    }
    let _ = writeln!(json, "    ],");
    let _ = writeln!(json, "    \"users\": {},", store_top.users);
    let _ = writeln!(json, "    \"decisions\": {},", store_top.decisions);
    let _ = writeln!(json, "    \"shared_decisions_per_s\": {:.1},", store_top.shared_dps);
    let _ = writeln!(json, "    \"personalized_decisions_per_s\": {:.1},", store_top.personal_dps);
    let _ = writeln!(json, "    \"throughput_ratio\": {:.4},", store_top.ratio);
    let _ = writeln!(json, "    \"users_leased\": {},", store_top.stats.users_leased);
    let _ = writeln!(json, "    \"shared_decisions\": {},", store_top.stats.shared_decisions);
    let _ = writeln!(json, "    \"deltas_materialized\": {},", store_top.stats.deltas_materialized);
    let _ =
        writeln!(json, "    \"peak_resident_copies\": {},", store_top.stats.peak_resident_copies);
    let _ = writeln!(json, "    \"peak_copy_bytes\": {},", store_top.stats.peak_copy_bytes);
    let _ = writeln!(json, "    \"full_copy_bytes\": {},", store_top.stats.full_copy_bytes);
    let _ = writeln!(json, "    \"bytes_per_user\": {:.1},", store_top.stats.bytes_per_user());
    let _ = writeln!(
        json,
        "    \"copy_fraction_per_user\": {:.6},",
        store_top.stats.copy_fraction_per_user()
    );
    let _ = writeln!(json, "    \"merge_rounds\": {},", store_top.stats.merge_rounds);
    let _ = writeln!(json, "    \"merged_samples\": {},", store_top.stats.merged_samples);
    let _ = writeln!(json, "    \"base_version\": {}", store_top.stats.base_version);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"contention\": {{");
    let _ = writeln!(json, "    \"serial_fraction\": {:.4},", amdahl.serial_fraction);
    let _ = writeln!(json, "    \"scaling_efficiency_4w\": {:.4},", amdahl.scaling_efficiency);
    let _ = writeln!(json, "    \"host_cores\": {host_cores},");
    let _ = writeln!(json, "    \"core_limited\": {},", amdahl.core_limited);
    let _ = writeln!(json, "    \"overhead_pct\": {overhead_pct:.2},");
    let _ = writeln!(json, "    \"top_lock_site\": \"{top_lock_site}\",");
    let _ = writeln!(json, "    \"lock_sites\": [");
    for (i, site) in lock_sites.iter().enumerate() {
        let comma = if i + 1 < lock_sites.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      {{\"site\": \"{}\", \"samples\": {}, \"contended\": {}, \
             \"wait_ns\": {}, \"share\": {:.4}}}{comma}",
            site.site, site.samples, site.contended, site.wait_ns, site.share
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("snapshot directory is creatable");
        }
    }
    std::fs::write(&out_path, &json).expect("snapshot file writes");
    let metrics_path = out_path
        .strip_suffix(".json")
        .map(|stem| format!("{stem}.metrics.json"))
        .unwrap_or_else(|| format!("{out_path}.metrics.json"));
    std::fs::write(&metrics_path, metrics_snapshot.to_json()).expect("metrics file writes");
    let bottleneck_path = out_path
        .strip_suffix(".json")
        .map(|stem| format!("{stem}.bottleneck.json"))
        .unwrap_or_else(|| format!("{out_path}.bottleneck.json"));
    std::fs::write(&bottleneck_path, bottleneck.to_json()).expect("bottleneck file writes");
    println!("\nWrote {out_path}, {metrics_path} and {bottleneck_path}.");
}

/// Seconds one call takes (the result is black-holed through `println`-free
/// volatile read semantics of `std::hint::black_box`).
fn time_of<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_secs_f64()
}
