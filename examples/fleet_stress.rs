//! Fleet-scale stress serving of generated, never-seen workloads.
//!
//! Streams a fleet of generated users — bursty compute, Markov-phased memory,
//! diurnal mixes and perturbed paper suites — into the multi-worker
//! `ScenarioDriver`, serving online-IL policies from the shared artifact
//! store next to ondemand/interactive governor fleets over the identical
//! scenario stream.  Afterwards the run's trace is serialised to JSONL,
//! parsed back and replayed on a fresh simulator to prove bit-identical
//! reproduction, and the online-IL run is diffed against the governor run on
//! the same user.
//!
//! ```text
//! cargo run --release --example fleet_stress
//! cargo run --release --example fleet_stress -- --virtual-clock --queueing --trace-out fleet.jsonl
//! ```
//!
//! `--virtual-clock` swaps the default bursty millisecond schedule for a 24 h
//! sinusoidal diurnal arrival cycle driven by a shared virtual clock: the
//! simulated day-plus of arrivals drains in milliseconds and the recorded
//! trace is a deterministic function of the seed — CI runs this twice and
//! byte-compares the `--trace-out` files.
//!
//! `--queueing` additionally spends each decision's simulated time on the
//! clock (time-dilated) and round-robins arrivals onto per-user FIFO servers,
//! so the run reports real queueing telemetry — per-family busy fractions and
//! sojourn percentiles, fleet utilisation, backlog depth — and a second
//! Markov calm/storm fleet breaks sojourns down by traffic regime.  With
//! `--trace-out` the trace then carries the v2 queue stamps.
//!
//! `--users N` and `--workers N` override the fleet size and the worker pool
//! — the determinism gates run the same workload at `--workers 1/2/4` and
//! byte-compare every artifact, and the calendar gate drains a 10⁴-user
//! queueing fleet twice.
//!
//! `--personalize` serves the online-IL fleet from a [`TieredModelStore`]
//! instead of handing every user a private policy copy: users lease the
//! shared base, copy-on-write materialize a delta on their first divergent
//! update, and their RLS sufficient statistics are federated back into the
//! base.  The run then prints the store's accounting — bytes per user against
//! a full per-user copy, merge rounds, base version — and a per-family
//! delta-materialization table.  Merged base weights depend on completion
//! order at the floating-point level, so `--personalize` is not combined with
//! the byte-compare determinism gates.
//!
//! `--substrates all` swaps the CPU-only generator for the heterogeneous
//! seven-family mix — CPU DVFS scenarios, GPU eNMPC rendering sessions and
//! learned-NoC latency windows, interleaved inside single scenarios — served
//! by the full learned bundle (online-IL + eNMPC + SVR) against per-substrate
//! governor baselines (utilisation-governed GPU, analytical NoC).  The
//! recorded trace is then format v3 and still replays bit-identically.
//!
//! Observability: `--metrics-out PATH` writes the run's metrics registry as a
//! JSON snapshot, `--prom-out PATH` writes (and lints) the Prometheus text
//! exposition, and `--spans-out PATH` dumps the recorded spans as
//! chrome://tracing JSON.  Span dumps require `--virtual-clock` — under the
//! virtual clock every span is derived from schedule-relative stamps, so two
//! runs produce byte-identical dumps at any worker count (CI byte-compares
//! them), whereas wall-clock spans are live profiling data.
//!
//! `--bottleneck-out PATH` (requires `--virtual-clock --queueing`) writes the
//! run's critical-path diagnosis: per-user busy/blocked/idle timelines, the
//! longest back-to-back service chain, and attributed wait per serialization
//! site.  The report derives only from schedule-relative queue stamps and the
//! deterministic span dump, so its bytes are identical at any worker count —
//! CI runs it twice and byte-compares.  `--obs-summary` prints a one-screen
//! digest of the registry instead: top counters, sketch percentiles and the
//! measured lock-site wait table (live wall-clock data, varies run to run).

use std::time::{Duration, Instant};

use soclearn_core::prelude::*;
use soclearn_core::report::render_table;
use soclearn_scenarios::{ArrivalPlan, Trace};

/// Dilation of the queueing demo: one simulated second of service occupies
/// one virtual hour, so diurnal peak-phase arrivals (30 min apart) queue
/// behind multi-hour scenarios while off-peak arrivals find idle users.
const QUEUE_DILATION: f64 = 3_600.0;
/// Users the queueing arrivals are round-robined onto.
const QUEUE_SLOTS: usize = 2;

fn main() {
    let mut virtual_clock = false;
    let mut queueing = false;
    let mut substrates_all = false;
    let mut personalize = false;
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut prom_out: Option<String> = None;
    let mut spans_out: Option<String> = None;
    let mut bottleneck_out: Option<String> = None;
    let mut obs_summary = false;
    let mut users_override: Option<usize> = None;
    let mut workers_override: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--virtual-clock" => virtual_clock = true,
            "--queueing" => queueing = true,
            "--personalize" => personalize = true,
            "--users" => {
                let value = args.next().expect("--users needs a count");
                users_override =
                    Some(value.parse().expect("--users needs a positive integer count"));
            }
            "--workers" => {
                let value = args.next().expect("--workers needs a count");
                workers_override =
                    Some(value.parse().expect("--workers needs a positive integer count"));
            }
            "--substrates" => {
                match args.next().expect("--substrates needs a value (all|cpu)").as_str() {
                    "all" => substrates_all = true,
                    "cpu" => substrates_all = false,
                    other => panic!("unknown --substrates value {other:?} (try all or cpu)"),
                }
            }
            "--trace-out" => {
                trace_out = Some(args.next().expect("--trace-out needs a file path"));
            }
            "--metrics-out" => {
                metrics_out = Some(args.next().expect("--metrics-out needs a file path"));
            }
            "--prom-out" => {
                prom_out = Some(args.next().expect("--prom-out needs a file path"));
            }
            "--spans-out" => {
                spans_out = Some(args.next().expect("--spans-out needs a file path"));
            }
            "--bottleneck-out" => {
                bottleneck_out = Some(args.next().expect("--bottleneck-out needs a file path"));
            }
            "--obs-summary" => obs_summary = true,
            other => panic!(
                "unknown argument {other:?} (try --virtual-clock, --queueing, --personalize, \
                 --users N, --workers N, --substrates all, --trace-out PATH, --metrics-out PATH, \
                 --prom-out PATH, --spans-out PATH, --bottleneck-out PATH, --obs-summary)"
            ),
        }
    }
    if spans_out.is_some() {
        // Wall-clock spans are live profiling data whose timestamps depend on
        // scheduler interleaving; only virtual-clock spans (derived from
        // schedule-relative queue stamps) dump byte-identically across runs.
        assert!(
            virtual_clock,
            "--spans-out needs --virtual-clock: wall-clock span timestamps are \
             nondeterministic, only virtual-time spans dump reproducibly"
        );
    }
    if bottleneck_out.is_some() {
        // The report's deterministic core is built from queue stamps, and
        // only virtual-clock stamps (plus the span dump they derive) are a
        // pure function of the workload.
        assert!(
            virtual_clock && queueing,
            "--bottleneck-out needs --virtual-clock --queueing: the critical-path \
             report is reconstructed from deterministic queue stamps"
        );
    }

    let platform = SocPlatform::odroid_xu3();
    let scale = ExperimentScale::Quick;
    let users = users_override.unwrap_or(if virtual_clock { 24 } else { 12 });
    let workers = workers_override.unwrap_or(4);
    assert!(users > 0, "--users needs a positive count");
    assert!(workers > 0, "--workers needs a positive count");

    let artifacts = shared_artifacts(&platform, scale);
    let generator = if substrates_all {
        ScenarioGenerator::heterogeneous(2020, 10)
    } else {
        ScenarioGenerator::standard(2020, 10)
    };
    println!(
        "Streaming {} users over {} generated families{} into {} workers ({})\n",
        users,
        generator.families().len(),
        if substrates_all { " (CPU + GPU + NoC substrates)" } else { "" },
        workers,
        if virtual_clock { "24 h diurnal arrivals on a virtual clock" } else { "bursty arrivals" }
    );

    let schedule = if virtual_clock {
        ArrivalSchedule::Diurnal {
            period: Duration::from_secs(24 * 3_600),
            peak: Duration::from_secs(30 * 60),
            off_peak: Duration::from_secs(4 * 3_600),
        }
    } else {
        ArrivalSchedule::Bursty { burst: 4, gap: Duration::from_millis(5) }
    };
    let mut fleet = FleetStress::new(platform.clone(), generator, users, workers)
        .with_schedule(schedule)
        .with_oracle_reference(OracleObjective::Energy);
    if virtual_clock {
        fleet = fleet.with_clock(Clock::virtual_clock());
    }
    if queueing {
        // With each simulated second dilated to a virtual hour, a wall clock
        // would really sleep until every completion instant — hours of real
        // time.  Queueing in this example is a virtual-clock demo.
        assert!(
            virtual_clock,
            "--queueing needs --virtual-clock: dilation {QUEUE_DILATION}x would sleep for \
             real hours on the wall clock"
        );
        fleet = fleet.with_queueing(QueueingConfig::new(QUEUE_DILATION, QUEUE_SLOTS));
    }
    let obs = Observability::new();
    fleet = fleet.with_observability(obs.clone());
    let il_config = OnlineIlConfig {
        buffer_capacity: 15,
        neighbourhood_radius: 2,
        ..OnlineIlConfig::default()
    };
    let store = personalize
        .then(|| std::sync::Arc::new(TieredModelStore::with_defaults(&artifacts, il_config)));
    if let Some(store) = &store {
        fleet = fleet.with_personalization(std::sync::Arc::clone(store));
    }
    let wall = Instant::now();
    let online_il = |i: usize, _: &ScenarioSpec| -> Box<dyn DvfsPolicy + Send> {
        if store.is_some() {
            fleet.personalized_policy(i)
        } else {
            Box::new(artifacts.online_policy(il_config))
        }
    };
    let (il, [ondemand, interactive], [vs_ondemand, vs_interactive]) = if substrates_all {
        // The learned bundle: online-IL on the CPU, explicit NMPC on the GPU,
        // the SVR latency model on the NoC; governor fleets keep the
        // per-substrate baselines (utilisation governor, analytical model).
        fleet.run_against_governors(|i, s| SubstratePolicies::learned(online_il(i, s)))
    } else {
        fleet.run_against_governors(|i, s| SubstratePolicies::cpu_only(online_il(i, s)))
    };
    if virtual_clock {
        println!(
            "Virtual clock: {:.1} simulated hours of arrivals served in {:.0} ms of wall time.\n",
            il.telemetry.wall_seconds / 3_600.0,
            wall.elapsed().as_secs_f64() * 1e3,
        );
    }

    // Per-family fleet telemetry: online-IL energy against both governor
    // fleets plus oracle agreement.
    let rows: Vec<Vec<String>> = il
        .families
        .iter()
        .zip(vs_ondemand.iter().zip(&vs_interactive))
        .map(|(family, (od, ia))| {
            vec![
                family.family.clone(),
                format!("{}", family.scenarios),
                format!("{}", family.decisions),
                format!("{:.1}", family.energy_j),
                format!("{:+.1}%", (od.ratio() - 1.0) * 100.0),
                format!("{:+.1}%", (ia.ratio() - 1.0) * 100.0),
                family.oracle_agreement.map_or("-".to_owned(), |a| format!("{:.0}%", a * 100.0)),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Fleet telemetry per generated family (online-IL fleet)",
            &[
                "Family",
                "Users",
                "Decisions",
                "IL energy (J)",
                "vs ondemand",
                "vs interactive",
                "Oracle agree",
            ],
            &rows
        )
    );
    if virtual_clock {
        println!(
            "Serving: {} decisions over {:.1} simulated hours ({:.2} decisions per virtual second)",
            il.telemetry.decisions,
            il.telemetry.wall_seconds / 3_600.0,
            il.telemetry.decisions_per_second,
        );
    } else {
        println!(
            "Serving: {:.0} decisions/s, mean latency {:.1} us, p99 {:.1} us, tail max {:.1} us",
            il.telemetry.decisions_per_second,
            il.telemetry.latency.mean_ns() / 1e3,
            il.telemetry.latency.quantile_upper_bound_ns(0.99) as f64 / 1e3,
            il.telemetry.latency.max_ns() as f64 / 1e3,
        );
    }
    println!(
        "Fleet energy: online-IL {:.1} J, ondemand {:.1} J, interactive {:.1} J\n",
        il.telemetry.total_energy_j,
        ondemand.telemetry.total_energy_j,
        interactive.telemetry.total_energy_j,
    );

    if let Some(store) = &store {
        print_store_tables(store, &il);
    }

    if substrates_all {
        // Cross-substrate energy accounting: the learned bundle's lanes next
        // to the governor-baseline fleet over the identical stream.
        let lane_rows: Vec<Vec<String>> = il
            .telemetry
            .substrates
            .iter()
            .zip(&ondemand.telemetry.substrates)
            .map(|(lane, base)| {
                vec![
                    format!("{:?}", lane.kind).to_lowercase(),
                    format!("{}", lane.decisions),
                    format!("{:.2}", lane.energy_j),
                    format!("{:.2}", base.energy_j),
                    format!("{:.2} s", lane.time_s),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                "Per-substrate serving (learned bundle vs governor baselines)",
                &["Substrate", "Decisions", "Learned (J)", "Governor (J)", "Sim time"],
                &lane_rows
            )
        );
    }

    if queueing {
        print_queueing_tables(&il, &platform, workers);
    }

    // Trace record → JSONL → parse → replay: the whole fleet, bit for bit.
    let trace = Trace::from_records(&il.records);
    let jsonl = trace.to_jsonl();
    if let Some(path) = &trace_out {
        std::fs::write(path, &jsonl).expect("trace file writes");
        println!("Wrote the online-IL fleet trace to {path}.");
    }
    let decoded = Trace::from_jsonl(&jsonl).expect("recorded trace parses");
    assert_eq!(decoded, trace, "JSONL round trip must be lossless");
    let mut replayed = 0usize;
    for scenario in &decoded.scenarios {
        let report = replay(scenario, &platform);
        assert!(
            report.bit_identical,
            "replay of {} diverged at decision {:?}",
            scenario.name, report.first_divergence
        );
        replayed += report.decisions;
    }
    println!(
        "Trace: {} scenarios, {} decisions, {} KB JSONL — replay reproduced all {} decisions bit-identically.",
        decoded.scenarios.len(),
        replayed,
        jsonl.len() / 1024,
        replayed,
    );

    // Diff the online-IL and ondemand runs of the same generated user.
    let il_user = &decoded.scenarios[0];
    let governor_trace = Trace::from_records(&ondemand.records);
    let diff = TraceDiff::between(il_user, &governor_trace.scenarios[0]);
    println!("Diff on {}: {}", il_user.name, diff.render("online-il", "ondemand"));

    // Observability exports: the shared registry as a JSON snapshot and/or a
    // linted Prometheus exposition, plus the virtual-time span flight
    // recorder as chrome://tracing JSON.
    artifacts.publish_stats(&obs.registry);
    let snapshot = obs.snapshot();
    if let Some(path) = &metrics_out {
        std::fs::write(path, snapshot.to_json()).expect("metrics file writes");
        println!("Wrote {} metrics to {path}.", snapshot.len());
    }
    if let Some(path) = &prom_out {
        let text = snapshot.to_prometheus();
        soclearn_runtime::obs::validate_prometheus(&text).expect("Prometheus exposition lints");
        std::fs::write(path, text).expect("prometheus file writes");
        println!("Wrote the linted Prometheus exposition to {path}.");
    }
    if let Some(path) = &spans_out {
        assert_eq!(obs.spans.dropped(), 0, "span ring overflowed; raise the recorder capacity");
        let mut trace_json = Vec::new();
        obs.spans.export_chrome_trace(&mut trace_json).expect("span export renders");
        std::fs::write(path, trace_json).expect("span file writes");
        println!("Wrote {} virtual-time spans to {path}.", obs.spans.len());
    }
    if let Some(path) = &bottleneck_out {
        // Deterministic sections only (stamps + the sorted span dump): no
        // lock-site or Amdahl measurement, so the bytes are identical at any
        // worker count and CI can byte-compare two runs.
        let report = il
            .bottleneck_report()
            .expect("--queueing stamps every record")
            .with_span_kinds(&obs.spans.sorted_spans());
        let mut json = Vec::new();
        report.write_json(&mut json).expect("bottleneck report renders");
        std::fs::write(path, json).expect("bottleneck file writes");
        let top_site =
            report.sites.first().map(|s| s.site.clone()).unwrap_or_else(|| "-".to_owned());
        println!(
            "Bottleneck: avg parallelism {:.2} on {} users; top serialization site \
             {top_site}; wrote the critical-path report to {path}.",
            report.avg_parallelism,
            report.slots.len(),
        );
    }
    if obs_summary {
        print_obs_summary(&snapshot, &il);
    }

    let il_wins = vs_ondemand
        .iter()
        .zip(&vs_interactive)
        .filter(|(od, ia)| od.ratio() < 1.0 && ia.ratio() < 1.0)
        .count();
    println!(
        "\nOnline-IL used less energy than BOTH governors on {il_wins}/{} generated families.",
        il.families.len()
    );
}

/// Renders `--personalize`: the tiered store's accounting (copy-on-write
/// memory against a naive full-copy-per-user fleet, federated merge volume)
/// and the per-family delta-materialization table.
fn print_store_tables(store: &TieredModelStore, il: &FleetReport) {
    let stats = il
        .telemetry
        .model_store
        .as_ref()
        .expect("a personalized fleet reports model-store accounting");
    let leased = stats.users_leased.max(1);
    let rows: Vec<Vec<String>> = store
        .family_materializations()
        .into_iter()
        .map(|(family, deltas)| {
            vec![
                family,
                format!("{deltas}"),
                format!("{:.1}%", deltas as f64 / leased as f64 * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Delta materializations per generated family (copy-on-write leases)",
            &["Family", "Deltas", "Of fleet"],
            &rows
        )
    );
    println!(
        "Model store: {} users leased, {} shared decisions, {} deltas materialized, \
         peak {} resident copies.",
        stats.users_leased,
        stats.shared_decisions,
        stats.deltas_materialized,
        stats.peak_resident_copies,
    );
    println!(
        "Memory: {:.0} B/user amortized vs {} KB full per-user copy ({:.2}% of a copy); \
         peak resident {} KB.",
        stats.bytes_per_user(),
        stats.full_copy_bytes / 1024,
        stats.copy_fraction_per_user() * 100.0,
        stats.peak_resident_bytes() / 1024,
    );
    println!(
        "Federation: {} merge rounds absorbed {} observations; base at version {}.\n",
        stats.merge_rounds, stats.merged_samples, stats.base_version,
    );
}

/// A sketch quantile (the `QueueReport` ceiling-rank rule) in virtual minutes.
fn sojourn_quantile_min(sketch: &QuantileSketch, q: f64) -> f64 {
    sketch.quantile_ns(q) as f64 / 1e9 / 60.0
}

/// Renders `--obs-summary`: the run's registry and contention digest on one
/// screen — the top counters, the busiest duration sketches' percentiles, and
/// attributed wait per serialization site (the schedule's FIFO queue from the
/// stamps, when queueing ran, next to the measured lock sites).
fn print_obs_summary(snapshot: &soclearn_runtime::obs::MetricsSnapshot, il: &FleetReport) {
    let label_suffix = |id: &soclearn_runtime::obs::MetricId| {
        if id.labels.is_empty() {
            String::new()
        } else {
            let pairs: Vec<String> = id.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("{{{}}}", pairs.join(","))
        }
    };

    let mut counters: Vec<_> = snapshot.counters.iter().collect();
    counters.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let rows: Vec<Vec<String>> = counters
        .iter()
        .take(8)
        .map(|(id, value)| vec![format!("{}{}", id.name, label_suffix(id)), value.to_string()])
        .collect();
    println!("{}", render_table("Top counters", &["Counter", "Value"], &rows));

    let mut sketches: Vec<_> = snapshot
        .sketches
        .iter()
        .filter(|(id, sketch)| sketch.count() > 0 && !id.name.starts_with("lock_"))
        .collect();
    sketches.sort_by(|a, b| b.1.count().cmp(&a.1.count()).then_with(|| a.0.cmp(&b.0)));
    let rows: Vec<Vec<String>> = sketches
        .iter()
        .take(8)
        .map(|(id, sketch)| {
            vec![
                format!("{}{}", id.name, label_suffix(id)),
                sketch.count().to_string(),
                format!("{:.1}", sketch.quantile_ns(0.50) as f64 / 1e3),
                format!("{:.1}", sketch.quantile_ns(0.95) as f64 / 1e3),
                format!("{:.1}", sketch.quantile_ns(0.99) as f64 / 1e3),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Busiest duration sketches (microseconds)",
            &["Sketch", "Samples", "p50", "p95", "p99"],
            &rows
        )
    );

    let report = il
        .bottleneck_report()
        .unwrap_or_else(|| BottleneckReport::from_stamps(&[]))
        .with_lock_sites(snapshot);
    let rows: Vec<Vec<String>> = report
        .sites
        .iter()
        .map(|site| {
            vec![
                site.site.clone(),
                site.kind.clone(),
                site.samples.to_string(),
                site.contended.to_string(),
                format!("{:.1}", site.wait_ns as f64 / 1e3),
                format!("{:.1}", site.p99_wait_ns as f64 / 1e3),
                format!("{:.1}%", site.share * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Attributed wait per serialization site (waits in microseconds)",
            &["Site", "Kind", "Samples", "Contended", "Total wait", "p99 wait", "Share of kind"],
            &rows
        )
    );
}

/// The queueing tables of a `--queueing` run: the main fleet's per-family
/// busy/sojourn breakdown, then a Markov calm/storm fleet whose sojourn
/// percentiles split by the traffic regime each arrival landed in.
fn print_queueing_tables(il: &FleetReport, platform: &SocPlatform, workers: usize) {
    let queue = il.queueing.as_ref().expect("--queueing enables the queue model");
    let rows: Vec<Vec<String>> = il
        .families
        .iter()
        .map(|family| {
            vec![
                family.family.clone(),
                format!("{:.1} min", family.service_s / 60.0),
                format!("{:.1}%", family.busy_fraction * 100.0),
                format!("{:.1} min", family.mean_sojourn_s / 60.0),
                format!("{:.1} min", family.p95_sojourn_s / 60.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Service-time queueing per family (virtual minutes)",
            &["Family", "Service", "Busy fraction", "Mean sojourn", "p95 sojourn"],
            &rows
        )
    );
    println!(
        "Queueing: {} arrivals on {} users — utilisation {:.1}%, mean delay {:.1} min, \
         mean backlog {:.2}, max queue depth {}\n",
        queue.arrivals,
        queue.user_slots,
        queue.utilisation * 100.0,
        queue.mean_queue_delay_s / 60.0,
        queue.mean_backlog,
        queue.max_queue_depth,
    );

    // Markov calm/storm fleet: the same queueing model under two-regime
    // traffic; sojourns split by the regime each arrival landed in.
    let markov_users = 48;
    let schedule = ArrivalSchedule::Markov {
        calm: Duration::from_secs(2 * 3_600),
        storm: Duration::from_secs(60),
        persistence: 0.9,
        seed: 7,
    };
    let report = FleetStress::new(
        platform.clone(),
        ScenarioGenerator::standard(2021, 10),
        markov_users,
        workers,
    )
    .with_schedule(schedule)
    .with_clock(Clock::virtual_clock())
    .with_queueing(QueueingConfig::new(QUEUE_DILATION, 2))
    .run(|_, _| SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(platform))));
    // The memoised plan answers the per-record offset queries below in one
    // linear pass instead of replaying the Markov chain from scratch for
    // every record (2 × O(index) walks each).
    let plan = ArrivalPlan::new(schedule, markov_users);
    // Per-regime sojourn percentiles come from fixed-memory mergeable
    // sketches — no sorted per-regime vectors, however many arrivals land.
    let (mut calm, mut storm) = (QuantileSketch::new(), QuantileSketch::new());
    for record in &report.records {
        let stamp = record.queue.expect("queueing stamps every record");
        // Classify by the inter-arrival gap that admitted this user: storm
        // arrivals follow their predecessor within the storm spacing.
        let gap_s = if record.index == 0 {
            f64::INFINITY
        } else {
            (plan.offset(record.index) - plan.offset(record.index - 1)).as_secs_f64()
        };
        if gap_s <= 60.0 { &mut storm } else { &mut calm }.record(stamp.sojourn_ns());
    }
    let markov_queue = report.queueing.as_ref().expect("queueing was enabled");
    let regime_rows: Vec<Vec<String>> = [("calm", &calm), ("storm", &storm)]
        .into_iter()
        .filter(|(_, sojourns)| sojourns.count() > 0)
        .map(|(regime, sojourns)| {
            vec![
                regime.to_owned(),
                format!("{}", sojourns.count()),
                format!("{:.1} min", sojourn_quantile_min(sojourns, 0.50)),
                format!("{:.1} min", sojourn_quantile_min(sojourns, 0.95)),
                format!("{:.1} min", sojourn_quantile_min(sojourns, 0.99)),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Markov calm-vs-storm sojourn percentiles (ondemand fleet, virtual minutes)",
            &["Regime", "Arrivals", "p50", "p95", "p99"],
            &regime_rows
        )
    );
    println!(
        "Markov fleet: utilisation {:.1}%, max queue depth {} — storms queue, calm drains.\n",
        markov_queue.utilisation * 100.0,
        markov_queue.max_queue_depth,
    );
}
