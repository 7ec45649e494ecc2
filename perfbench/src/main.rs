//! soclearn serving benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]
//! ```
//!
//! The run sets the workload up several times (the median is `setup_s`),
//! serves rounds of the same inputs for `--seconds`, then serves one recorded
//! reference round that the output checks compare against.  `--trace 0`
//! reports the end-to-end metrics; `--trace 1` interleaves untraced and
//! traced rounds and reports the per-layer metrics instead.  The last line of
//! standard output is the JSON result.

mod instrument;
mod workloads;

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use soclearn_runtime::{DecisionKind, SubstrateRecord};
use soclearn_scenarios::{replay, ScenarioTrace};

use instrument::{peak_rss_mb, quantile_us, Fastest, Probe};
use workloads::{
    recorded_energy_j, Kind, LayerProbes, OracleScore, Round, Scale, Workload, USER_SLOTS,
};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Relative tolerance of an energy total summed in another order.
const SUMMATION_TOLERANCE: f64 = 1e-9;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace, mut scale) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            "--scale" => {
                scale = Some(match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(format!("--scale must be full or tiny, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: scale.unwrap_or(Scale::Full),
    })
}

/// Named metrics in output order: `(name, value, unit)`.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Correctness tally: scenarios attempted and scenarios whose output check
/// failed.
#[derive(Default)]
struct Checks {
    attempted: usize,
    failed: usize,
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Decisions per host second over `rounds`.
fn throughput(rounds: &[Round]) -> f64 {
    let decisions: usize = rounds.iter().map(|r| r.telemetry.decisions).sum();
    let seconds: f64 = rounds.iter().map(|r| r.host_s).sum();
    decisions as f64 / seconds.max(1e-9)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= SUMMATION_TOLERANCE * a.abs().max(b.abs())
}

/// Checks one timed round against the reference round: exact decision counts
/// per lane and, where serving is deterministic, the same energy up to
/// summation order and the same oracle agreement.
fn check_round(workload: &Workload, round: &Round, reference: &Round, checks: &mut Checks) {
    let expected = &workload.expected;
    let telemetry = &round.telemetry;
    let lanes = telemetry.substrates.map(|lane| lane.decisions);
    let mut ok = telemetry.scenarios == expected.scenarios && lanes == expected.lanes;
    // Personalized fleets merge the shared model at completion counts that
    // depend on thread timing, so their decisions (and energy) may differ.
    if workload.kind != Kind::FleetPersonalize {
        ok &= close(telemetry.total_energy_j, reference.telemetry.total_energy_j);
        ok &= telemetry.oracle_agreement == reference.telemetry.oracle_agreement;
    }
    checks.attempted += expected.scenarios;
    if !ok {
        eprintln!("perfbench: round output differs from the reference round");
        checks.failed += expected.scenarios;
    }
}

/// Checks the recorded reference round: every scenario served once, the
/// recorded energy equal to the driver's total, and — in the traced run —
/// every scenario replaying bit-identically on fresh simulators.
fn check_reference(workload: &Workload, reference: &Round, replay_all: bool, checks: &mut Checks) {
    let expected = workload.expected.scenarios;
    checks.attempted += expected;
    let records = &reference.records;
    let served = records.iter().enumerate().filter(|(i, r)| r.index == *i).count();
    checks.failed += expected.saturating_sub(served);
    if !close(recorded_energy_j(records), reference.telemetry.total_energy_j) {
        eprintln!("perfbench: recorded energy differs from the driver's total");
        checks.failed += 1;
    }
    if replay_all {
        let diverged = records
            .iter()
            .filter(|record| {
                !replay(&ScenarioTrace::from(*record), &workload.platform).bit_identical
            })
            .count();
        if diverged > 0 {
            eprintln!("perfbench: {diverged} scenarios did not replay bit-identically");
        }
        checks.failed += diverged;
    }
}

/// End-to-end metrics of the untraced run, from each scenario's and each
/// `decide` call's fastest time over the timed rounds.  Throughput is one
/// round's decisions over the workers' share of the summed scenario times,
/// so it leaves out the idle tail of a round's drain.
fn end_to_end(
    workload: &Workload,
    fastest: &Fastest,
    setup_s: &[f64],
    rss_mb: f64,
    score: &OracleScore,
) -> Metrics {
    let mut metrics = Metrics::default();
    let decisions = workload.expected.lanes.iter().sum::<usize>() as f64;
    let round_s = fastest.scenario_total_s() / workload.workers as f64;
    metrics.push("decisions_per_s", decisions / round_s.max(1e-9), "decisions/s");
    let mut decide_ns = fastest.decide_ns();
    metrics.push("decide_p50_us", quantile_us(&mut decide_ns, 0.50), "us");
    metrics.push("decide_p99_us", quantile_us(&mut decide_ns, 0.99), "us");
    metrics.push("setup_s", median(setup_s), "s");
    metrics.push("peak_rss_mb", rss_mb, "MiB");
    metrics.push("energy_vs_oracle", score.energy_j / score.oracle_energy_j, "ratio");
    metrics
}

/// Per-layer metrics of the traced run.
fn per_layer(
    workload: &Workload,
    plain: &[Round],
    traced: &[Round],
    probe: &Probe,
    reference: &Round,
    probes: &LayerProbes,
    score: &OracleScore,
) -> Metrics {
    let layers = probe.layers.as_ref().expect("the traced run has layer accumulators");
    let kind = workload.kind;
    let expected = &workload.expected;
    let n = traced.len().max(1) as f64;
    let per_round = |count: u64| count as f64 / n;
    let mean_of = |f: &dyn Fn(&Round) -> f64| traced.iter().map(f).sum::<f64>() / n;
    let decisions: f64 = traced.iter().map(|r| r.telemetry.decisions as f64).sum();

    let busy_s = layers.worker_busy_s();
    let timed_s = layers.decide.total_s()
        + layers.make.total_s()
        + layers.claim.total_s()
        + layers.stamp.total_s();
    let self_s = (busy_s - timed_s).max(0.0);
    let explained_s = probes.explained_s(kind, expected) * traced.len() as f64;

    let mut m = Metrics::default();
    m.push("scenarios.claim_us", layers.claim.mean_us(), "us");
    m.push("scenarios.claims", per_round(layers.claim.calls()), "count");
    m.push("scenarios.stamp_us", layers.stamp.mean_us(), "us");
    let stamps = layers.stamp.calls().max(1) as f64;
    let sojourn_ns = layers.sojourn_ns.load(Ordering::Relaxed) as f64;
    m.push("scenarios.sim_sojourn_mean_s", sojourn_ns / stamps / 1e9, "s");
    // Busy share of the fleet's user slots over the simulated span; only the
    // fleet spends service time.
    let utilisation = |r: &Round| match r.telemetry.service_time_s {
        0.0 => 0.0,
        service_s => service_s / (USER_SLOTS as f64 * r.telemetry.wall_seconds),
    };
    m.push("scenarios.sim_utilisation", mean_of(&utilisation), "ratio");

    m.push("runtime.policy_make_us", layers.make.mean_us(), "us");
    m.push("runtime.driver_self_us", self_s / decisions.max(1.0) * 1e6, "us");
    let l1_hits = mean_of(&|r| r.telemetry.l1.hits as f64);
    let hits = mean_of(&|r| r.sweep.hits as f64);
    let misses = mean_of(&|r| r.sweep.misses as f64);
    m.push("runtime.sweep_hits", hits, "count");
    m.push("runtime.sweep_misses", misses, "count");
    let lookups = l1_hits + hits + misses;
    m.push(
        "runtime.sweep_hit_ratio",
        if lookups > 0.0 { (l1_hits + hits) / lookups } else { 0.0 },
        "ratio",
    );
    m.push("runtime.sweep_evictions", mean_of(&|r| r.sweep.evictions as f64), "count");
    m.push("runtime.l1_hits", l1_hits, "count");
    let store = traced.last().and_then(|r| r.telemetry.model_store.clone());
    let store_field =
        |f: &dyn Fn(&soclearn_runtime::ModelStoreStats) -> f64| store.as_ref().map_or(0.0, f);
    m.push("runtime.store_materialized", store_field(&|s| s.deltas_materialized as f64), "count");
    m.push("runtime.store_merge_rounds", store_field(&|s| s.merge_rounds as f64), "count");
    m.push("runtime.store_peak_copies", store_field(&|s| s.peak_resident_copies as f64), "count");

    let (il, gov) = if kind.imitation() { (1.0, 0.0) } else { (0.0, 1.0) };
    let plain_calls = layers.decide.calls() - layers.retrain.calls();
    let plain_us = match plain_calls {
        0 => 0.0,
        calls => (layers.decide.total_s() - layers.retrain.total_s()) / calls as f64 * 1e6,
    };
    m.push("imitation.decide_us", il * layers.decide.mean_us(), "us");
    m.push("imitation.decides", il * per_round(layers.decide.calls()), "count");
    m.push("imitation.plain_decide_us", il * plain_us, "us");
    m.push("imitation.retrain_decide_us", layers.retrain.mean_us(), "us");
    m.push("imitation.retrains", per_round(layers.retrain.calls()), "count");
    let il_decisions = layers.il_decisions.load(Ordering::Relaxed);
    let il_agreements = layers.il_agreements.load(Ordering::Relaxed);
    m.push(
        "imitation.agreement_rate",
        if il_decisions > 0 { il_agreements as f64 / il_decisions as f64 } else { 0.0 },
        "ratio",
    );
    m.push("imitation.retrain_busy_pct", 100.0 * layers.retrain.total_s() / busy_s.max(1e-9), "%");
    m.push("governors.decide_us", gov * layers.decide.mean_us(), "us");

    m.push("sim.energy_j", recorded_energy_j(&reference.records), "J");
    m.push("oracle.agreement", score.agreement(), "ratio");
    m.push("oracle.run_cold_us", probes.oracle_cold.mean_us(), "us");
    m.push("oracle.run_warm_us", probes.oracle_warm.mean_us(), "us");
    m.push("soc_sim.execute_us", probes.execute.mean_us(), "us");
    m.push("soc_sim.evaluate_all_us", probes.evaluate_all.mean_us(), "us");

    let gpu: Vec<_> = reference
        .records
        .iter()
        .flat_map(|r| r.decisions.iter().filter_map(SubstrateRecord::as_gpu))
        .collect();
    let missed = gpu.iter().filter(|frame| !frame.deadline_met).count();
    m.push("gpu_sim.render_us", probes.gpu_render.mean_us(), "us");
    m.push("gpu_sim.frames", expected.lanes[DecisionKind::Gpu.lane()] as f64, "count");
    m.push("gpu_sim.deadline_miss_frac", missed as f64 / gpu.len().max(1) as f64, "ratio");
    m.push("nmpc.pretrain_us", probes.nmpc_pretrain.mean_us(), "us");
    m.push("nmpc.decide_us", probes.nmpc_decide.mean_us(), "us");
    m.push("noc_sim.svr_train_us", probes.svr_train.mean_us(), "us");
    m.push("noc_sim.window_us", probes.noc_window.mean_us(), "us");
    m.push("noc_sim.windows", expected.lanes[DecisionKind::Noc.lane()] as f64, "count");

    m.push("telemetry.export_us", mean_of(&|r| r.export.map_or(0.0, |e| e.0 * 1e6)), "us");
    m.push("telemetry.metrics", mean_of(&|r| r.export.map_or(0.0, |e| e.1 as f64)), "count");

    let (plain_dps, traced_dps) = (throughput(plain), throughput(traced));
    m.push("trace.overhead_pct", 100.0 * (plain_dps - traced_dps) / plain_dps.max(1e-9), "%");
    m.push(
        "trace.unattributed_pct",
        if self_s > 0.0 { 100.0 * (self_s - explained_s) / self_s } else { 0.0 },
        "%",
    );
    m
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"workers\": {}, \"seconds\": {}, \"trace\": {}}}",
        args.kind.name(),
        args.seed,
        workers,
        args.seconds,
        u8::from(args.trace)
    );

    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut workload = None;
    let mut rss_mb = 0.0;
    for _ in 0..reps {
        drop(workload.take());
        let started = Instant::now();
        workload = Some(Workload::setup(args.kind, args.seed, args.scale, workers));
        setup_s.push(started.elapsed().as_secs_f64());
        if setup_s.len() == 1 {
            // One set-up, which serves one round: later set-ups only add
            // allocator fragmentation, which differs from run to run.
            rss_mb = peak_rss_mb();
        }
    }
    let workload = workload.expect("at least one set-up");

    // Timed rounds.  The traced run alternates untraced and traced rounds so
    // the two throughputs see the same machine state.
    let traced_probe = Probe::traced();
    let plain_probe = Probe::fastest(Fastest::new(&workload.cpu_decisions()));
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.is_empty() || (args.trace && traced.is_empty()) || Instant::now() < deadline {
        if args.trace && traced.len() < plain.len() {
            traced.push(workload.round(&traced_probe, false));
        } else {
            plain.push(workload.round(&plain_probe, false));
        }
    }
    // Per-round figures on stderr, for judging how the host's speed moved.
    let round_s: Vec<f64> = plain.iter().chain(&traced).map(|r| r.host_s).collect();
    eprintln!(
        "perfbench: {{\"decisions\": {}, \"setup_s\": {setup_s:?}, \"round_s\": {round_s:?}, \
         \"round_decisions_per_s\": {}}}",
        workload.expected.lanes.iter().sum::<usize>(),
        throughput(&plain),
    );

    let reference = workload.round(&Probe::plain(), true);
    let mut checks = Checks::default();
    for round in plain.iter().chain(&traced) {
        check_round(&workload, round, &reference, &mut checks);
    }
    check_reference(&workload, &reference, args.trace, &mut checks);

    let score = workload.oracle_score(&reference.records);
    if workload.kind.oracle_reference()
        && reference.telemetry.oracle_agreement != Some(score.agreement())
    {
        eprintln!("perfbench: the driver's oracle agreement differs from a fresh oracle run");
        checks.failed += 1;
    }
    let metrics = if args.trace {
        let probes = workload.layer_probes(&reference.records);
        let mismatches = probes.nmpc_mismatches.load(Ordering::Relaxed);
        if mismatches > 0 {
            eprintln!("perfbench: {mismatches} recorded GPU decisions were not reproduced");
            checks.failed += mismatches;
        }
        per_layer(&workload, &plain, &traced, &traced_probe, &reference, &probes, &score)
    } else {
        let fastest = plain_probe.fastest.as_ref().expect("the timed rounds keep fastest times");
        end_to_end(&workload, fastest, &setup_s, rss_mb, &score)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        metrics.to_json()
    );
}
