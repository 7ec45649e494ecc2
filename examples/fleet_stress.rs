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
//! A malformed command line exits with status 2, printing a one-line reason
//! and the usage line to stderr.
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
//! (default: the host's cores, at most 4) — the determinism gates run the
//! same workload at `--workers 1/2/4` and byte-compare every artifact, and
//! the fleet-scale gate drains a 10⁴-user queueing fleet twice.
//!
//! `--personalize` serves the online-IL fleet from a [`TieredModelStore`]
//! instead of handing every user a private policy copy: users lease the
//! shared base, copy it on their first CPU decision, and their RLS
//! sufficient statistics are federated back into the base.  The run then
//! prints the store's accounting — bytes per user against a full per-user
//! copy, merge rounds, base version — and a per-family
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
//! `--obs-summary` prints a one-screen digest of the registry: top counters,
//! sketch percentiles and the measured wait per lock site (live wall-clock
//! data, varies run to run).

use std::time::{Duration, Instant};

use soclearn_core::prelude::*;
use soclearn_core::report::{render_table, si};
use soclearn_scenarios::{ArrivalPlan, Trace};

/// Dilation of the queueing demo: one simulated second of service occupies
/// one virtual hour, so diurnal peak-phase arrivals (30 min apart) queue
/// behind multi-hour scenarios while off-peak arrivals find idle users.
const QUEUE_DILATION: f64 = 3_600.0;
/// Users the queueing arrivals are round-robined onto.
const QUEUE_SLOTS: usize = 2;

/// Printed after every flag error.
const USAGE: &str = "usage: fleet_stress [--virtual-clock] [--queueing] [--personalize] \
                     [--users N] [--workers N] [--substrates all|cpu] [--trace-out PATH] \
                     [--metrics-out PATH] [--prom-out PATH] [--spans-out PATH] \
                     [--obs-summary]";

/// The parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    virtual_clock: bool,
    queueing: bool,
    substrates_all: bool,
    personalize: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    prom_out: Option<String>,
    spans_out: Option<String>,
    obs_summary: bool,
    users: Option<usize>,
    workers: Option<usize>,
}

impl Args {
    /// Parses the flags that follow the program name.  A missing value, a
    /// count that is not a positive integer, an unknown flag or value, and a
    /// flag combination the run cannot honour are each an `Err` carrying a
    /// one-line message.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut parsed = Self::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--virtual-clock" => parsed.virtual_clock = true,
                "--queueing" => parsed.queueing = true,
                "--personalize" => parsed.personalize = true,
                "--obs-summary" => parsed.obs_summary = true,
                "--users" => parsed.users = Some(positive_count(&flag, &value()?)?),
                "--workers" => parsed.workers = Some(positive_count(&flag, &value()?)?),
                "--substrates" => {
                    parsed.substrates_all = match value()?.as_str() {
                        "all" => true,
                        "cpu" => false,
                        other => {
                            return Err(format!(
                                "unknown --substrates value {other:?} (try all or cpu)"
                            ))
                        }
                    }
                }
                "--trace-out" => parsed.trace_out = Some(value()?),
                "--metrics-out" => parsed.metrics_out = Some(value()?),
                "--prom-out" => parsed.prom_out = Some(value()?),
                "--spans-out" => parsed.spans_out = Some(value()?),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        // Wall-clock spans are live profiling data whose timestamps depend on
        // scheduler interleaving; only virtual-clock spans (derived from
        // schedule-relative queue stamps) dump byte-identically across runs.
        if parsed.spans_out.is_some() && !parsed.virtual_clock {
            return Err("--spans-out needs --virtual-clock: wall-clock span timestamps are \
                        nondeterministic, only virtual-time spans dump reproducibly"
                .to_owned());
        }
        // With each simulated second dilated to a virtual hour, a wall clock
        // would really sleep until every completion instant — hours of real
        // time.  Queueing in this example is a virtual-clock demo.
        if parsed.queueing && !parsed.virtual_clock {
            return Err(format!(
                "--queueing needs --virtual-clock: dilation {QUEUE_DILATION}x would sleep for \
                 real hours on the wall clock"
            ));
        }
        Ok(parsed)
    }
}

/// `value` as the positive integer count `flag` needs.
fn positive_count(flag: &str, value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(count) if count > 0 => Ok(count),
        _ => Err(format!("{flag} needs a positive integer count, got {value:?}")),
    }
}

fn main() {
    let Args {
        virtual_clock,
        queueing,
        substrates_all,
        personalize,
        trace_out,
        metrics_out,
        prom_out,
        spans_out,
        obs_summary,
        users,
        workers,
    } = Args::parse(std::env::args().skip(1)).unwrap_or_else(|message| {
        eprintln!("fleet_stress: {message}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    });

    let platform = SocPlatform::odroid_xu3();
    let scale = ExperimentScale::Quick;
    let users = users.unwrap_or(if virtual_clock { 24 } else { 12 });
    let workers = workers.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, |cores| cores.get()).min(4)
    });

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
        fleet = fleet.with_queueing(QueueingConfig::new(QUEUE_DILATION, QUEUE_SLOTS));
    }
    let obs = Observability::new();
    fleet = fleet.with_observability(obs.clone());
    let il_config = OnlineIlConfig { buffer_capacity: 15, neighbourhood_radius: 2 };
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
                    si(lane.energy_j, "J"),
                    si(base.energy_j, "J"),
                    si(lane.time_s, "s"),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                "Per-substrate serving (learned bundle vs governor baselines)",
                &["Substrate", "Decisions", "Learned energy", "Governor energy", "Sim time"],
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
    if obs_summary {
        print_obs_summary(&snapshot);
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
        "Model store: {} users leased, {} deltas materialized, peak {} resident copies.",
        stats.users_leased, stats.deltas_materialized, stats.peak_resident_copies,
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
/// the measured wait per lock site, read from the `lock_wait_ns{site}`
/// sketches and `lock_contended_total{site}` counters.
fn print_obs_summary(snapshot: &soclearn_runtime::obs::MetricsSnapshot) {
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

    // Lock sites, most total wait first.
    let mut sites: Vec<(&str, &QuantileSketch)> = snapshot
        .sketches
        .iter()
        .filter(|(id, _)| id.name == "lock_wait_ns")
        .filter_map(|(id, wait)| {
            let site = id.labels.iter().find(|(k, _)| k == "site")?;
            Some((site.1.as_str(), wait))
        })
        .collect();
    sites.sort_by(|a, b| b.1.sum_ns().cmp(&a.1.sum_ns()).then_with(|| a.0.cmp(b.0)));
    let total_wait_ns: u128 = sites.iter().map(|(_, wait)| wait.sum_ns()).sum();
    let rows: Vec<Vec<String>> = sites
        .iter()
        .map(|&(site, wait)| {
            let contended = snapshot.counter("lock_contended_total", &[("site", site)]);
            let share =
                if total_wait_ns > 0 { wait.sum_ns() as f64 / total_wait_ns as f64 } else { 0.0 };
            vec![
                site.to_owned(),
                wait.count().to_string(),
                contended.unwrap_or(0).to_string(),
                format!("{:.1}", wait.sum_ns() as f64 / 1e3),
                format!("{:.1}", wait.quantile_ns(0.99) as f64 / 1e3),
                format!("{:.1}%", share * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Measured wait per lock site (microseconds)",
            &["Site", "Samples", "Contended", "Total wait", "p99 wait", "Share"],
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn bad_flags_are_errors_not_panics() {
        for line in [
            "--users abc",
            "--users 0",
            "--users -3",
            "--workers",
            "--workers 2.5",
            "--substrates gpu",
            "--substrates",
            "--trace-out",
            "--bogus",
            "--spans-out x.json",
            "--queueing",
        ] {
            let error = parse(line).expect_err(line);
            assert!(!error.is_empty() && !error.contains('\n'), "{line}: {error:?}");
        }
    }

    #[test]
    fn every_ci_flag_set_parses() {
        for line in [
            "",
            "--virtual-clock --queueing --workers 4 --trace-out trace-n.jsonl",
            "--substrates all --virtual-clock --workers 2 --trace-out hetero-n.jsonl",
            "--virtual-clock --queueing --workers 1 --spans-out spans-ref.json \
             --metrics-out metrics-ref.json --prom-out prom-ref.txt --obs-summary",
            "--virtual-clock --queueing --workers 4 --users 10000 --trace-out scale-a.jsonl",
            "--personalize --users 1000",
            "--substrates cpu --personalize --virtual-clock --workers 1",
        ] {
            if let Err(error) = parse(line) {
                panic!("{line:?} must parse: {error}");
            }
        }
        let args =
            parse("--virtual-clock --queueing --workers 4 --users 10000 --trace-out scale-a.jsonl")
                .expect("valid flags");
        assert_eq!(
            args,
            Args {
                virtual_clock: true,
                queueing: true,
                users: Some(10_000),
                workers: Some(4),
                trace_out: Some("scale-a.jsonl".to_owned()),
                ..Args::default()
            }
        );
    }
}
