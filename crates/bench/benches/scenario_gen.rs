//! Throughput of the synthetic workload generator and the trace codec.
//!
//! The fleet harness manufactures scenarios on demand from worker threads, so
//! generation must stay far cheaper than serving; this bench tracks scenarios
//! generated per second (the four-family standard mix), the perturbation
//! operators over a paper suite, and the JSONL trace encode/decode round
//! trip.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use soclearn_core::prelude::*;
use soclearn_scenarios::Trace;

fn bench(c: &mut Criterion) {
    let generator = ScenarioGenerator::standard(2020, 12);

    // Headline numbers: generation and codec throughput.
    let start = std::time::Instant::now();
    let scenarios = generator.scenarios(200);
    let gen_elapsed = start.elapsed().as_secs_f64();
    let snippets: usize = scenarios.iter().map(|s| s.decision_count()).sum();
    println!(
        "generator: 200 scenarios ({} snippets) in {:.1} ms — {:.0} scenarios/s",
        snippets,
        gen_elapsed * 1e3,
        200.0 / gen_elapsed
    );

    let platform = SocPlatform::small();
    let driver = ScenarioDriver::new(platform.clone(), 2);
    let subset = &scenarios[..8];
    let (_, records) = driver.run_recorded_mixed(&SliceSource::new(subset), |_, _| {
        SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform)))
    });
    let trace = Trace::from_records(&records);
    let jsonl = trace.to_jsonl();
    println!(
        "trace codec: {} decisions, {} KB JSONL",
        records.iter().map(|r| r.decisions.len()).sum::<usize>(),
        jsonl.len() / 1024
    );

    let mut group = c.benchmark_group("scenario_gen");
    group.sample_size(20);
    group.bench_function("generate_40_scenarios", |b| {
        b.iter(|| {
            let scenarios = generator.scenarios(40);
            black_box(scenarios.len())
        })
    });
    group.bench_function("trace_encode", |b| b.iter(|| black_box(trace.to_jsonl().len())));
    group.bench_function("trace_decode", |b| {
        b.iter(|| black_box(Trace::from_jsonl(&jsonl).expect("parses").scenarios.len()))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
