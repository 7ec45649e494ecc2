//! Mixed-substrate serving integration suite.
//!
//! Locks down the heterogeneous serving path of the runtime: a fleet that
//! interleaves CPU DVFS scenarios, GPU eNMPC rendering sessions and learned
//! NoC latency windows must
//!
//! * produce bit-identical records, per-family energy splits and serialised
//!   v3 traces at any worker count (scheduling must never leak into results),
//! * record traces that replay bit-identically without the learned models,
//! * report per-substrate governor baselines next to the learned bundle,
//! * and serve every NoC session from a design-time model trained once per
//!   mesh, traffic pattern and training setup.

use std::sync::Arc;

use soclearn_core::prelude::*;
use soclearn_runtime::EXPERIMENT_SEED;

const SEED: u64 = 77;
const SNIPPETS: usize = 8;
const USERS: usize = 14;

/// Runs the seven-family heterogeneous fleet (CPU + GPU + NoC) on the virtual
/// clock with the fully learned policy bundle.
fn mixed_report(workers: usize) -> FleetReport {
    let platform = SocPlatform::small();
    let fleet = FleetStress::new(
        platform.clone(),
        ScenarioGenerator::heterogeneous(SEED, SNIPPETS),
        USERS,
        workers,
    )
    .with_clock(Clock::virtual_clock());
    fleet.run(|_, _| SubstratePolicies::learned(Box::new(OndemandGovernor::new(&platform))))
}

#[test]
fn mixed_fleet_is_bit_identical_across_worker_counts() {
    let reference = mixed_report(1);
    assert_eq!(reference.records.len(), USERS);
    // The fleet actually exercised every substrate.
    let lanes = &reference.telemetry.substrates;
    for lane in lanes {
        assert!(lane.decisions > 0, "substrate {:?} served no decisions", lane.kind);
        assert!(lane.energy_j > 0.0, "substrate {:?} reports no energy", lane.kind);
    }
    let reference_trace = Trace::from_records(&reference.records).to_jsonl();

    for workers in [2usize, 4] {
        let report = mixed_report(workers);
        assert_eq!(
            report.records, reference.records,
            "records diverged between 1 and {workers} workers"
        );
        assert_eq!(report.families.len(), reference.families.len());
        for (family, expected) in report.families.iter().zip(&reference.families) {
            assert_eq!(family.family, expected.family);
            assert_eq!(family.substrate_decisions, expected.substrate_decisions);
            for lane in 0..3 {
                assert_eq!(
                    family.substrate_energy_j[lane].to_bits(),
                    expected.substrate_energy_j[lane].to_bits(),
                    "family {} lane {lane} energy diverged at {workers} workers",
                    family.family
                );
            }
            assert_eq!(family.energy_j.to_bits(), expected.energy_j.to_bits());
        }
        assert_eq!(
            report.telemetry.wall_seconds.to_bits(),
            reference.telemetry.wall_seconds.to_bits(),
            "virtual wall clock must not depend on the worker count"
        );
        assert_eq!(
            Trace::from_records(&report.records).to_jsonl(),
            reference_trace,
            "serialised v3 traces diverged between 1 and {workers} workers"
        );
    }
}

#[test]
fn mixed_fleet_trace_replays_bit_identically() {
    let platform = SocPlatform::small();
    let report = mixed_report(2);
    let trace = Trace::from_records(&report.records);

    // The heterogeneous generator mixes substrates inside single scenarios.
    let hetero = trace
        .scenarios
        .iter()
        .find(|s| s.name.starts_with("hetero-pipeline"))
        .expect("heterogeneous family missing from the trace");
    let kinds: Vec<DecisionKind> = hetero.decisions.iter().map(|d| d.kind()).collect();
    assert!(kinds.contains(&DecisionKind::Cpu));
    assert!(kinds.contains(&DecisionKind::Gpu));
    assert!(kinds.contains(&DecisionKind::Noc));

    // Round-trip through JSONL, then replay every scenario without the
    // learned models: the recording alone must reproduce every bit.
    let restored = Trace::from_jsonl(&trace.to_jsonl()).expect("v3 round-trip");
    assert_eq!(restored, trace);
    for scenario in &restored.scenarios {
        let outcome = replay(scenario, &platform);
        assert_eq!(outcome.decisions, scenario.decisions.len());
        assert!(
            outcome.bit_identical,
            "scenario {} diverged on replay at decision {:?}",
            scenario.name, outcome.first_divergence
        );
    }
}

#[test]
fn mixed_fleet_reports_per_substrate_governor_baselines() {
    let platform = SocPlatform::small();
    let fleet = FleetStress::new(
        platform.clone(),
        ScenarioGenerator::heterogeneous(SEED, SNIPPETS),
        USERS,
        2,
    )
    .with_clock(Clock::virtual_clock());
    let (learned, baselines, deltas) = fleet.run_against_governors(|_, _| {
        SubstratePolicies::learned(Box::new(OndemandGovernor::new(&platform)))
    });

    // The fleet label is the first record's; record 0 belongs to a pure-CPU
    // family, so it stays the bare CPU policy name, while mixed scenarios
    // carry the composed per-substrate bundle name.
    assert_eq!(learned.policy, "ondemand");
    assert!(
        learned.records.iter().any(|r| r.policy == "ondemand+gpu-nmpc+noc-svr"),
        "no record served the full learned bundle"
    );
    for (baseline, expected) in baselines.iter().zip(["ondemand", "interactive"]) {
        assert_eq!(baseline.policy, expected, "governor baselines stay pure CPU bundles");
        // The baselines serve the identical stream: same decisions per
        // substrate, governor-controlled GPU and analytical NoC energies.
        assert_eq!(baseline.telemetry.decisions, learned.telemetry.decisions);
        for (lane, learned_lane) in
            baseline.telemetry.substrates.iter().zip(&learned.telemetry.substrates)
        {
            assert_eq!(lane.decisions, learned_lane.decisions);
            assert!(lane.energy_j > 0.0);
        }
    }
    for delta_set in &deltas {
        assert_eq!(delta_set.len(), learned.families.len());
        for delta in delta_set {
            assert!(delta.policy_energy_j > 0.0 && delta.baseline_energy_j > 0.0);
            assert!(delta.ratio() > 0.0);
        }
    }
    // The driver's violation counter is a recount of the recorded NoC windows
    // against the generator's 30-cycle budget.
    let over_budget = learned
        .records
        .iter()
        .flat_map(|r| r.decisions.iter().filter_map(SubstrateRecord::as_noc))
        .filter(|w| w.measured_latency_cycles > 30.0)
        .count();
    assert_eq!(learned.telemetry.noc_budget_violations, over_budget);
}

fn noc_session(pattern: TrafficPattern, seed: u64) -> NocSessionSpec {
    NocSessionSpec {
        mesh: MeshConfig::new(4, 4),
        pattern,
        seed,
        train_rates: vec![0.02, 0.05, 0.09, 0.14],
        train_cycles: 4_000,
        query_rates: vec![0.1],
        query_cycles: 2_000,
        latency_budget_cycles: 30.0,
    }
}

#[test]
fn the_store_trains_noc_models_at_design_time() {
    let store = ArtifactStore::new();
    let uniform = store.noc_model(&noc_session(TrafficPattern::Uniform, 1));
    let reseeded = store.noc_model(&noc_session(TrafficPattern::Uniform, 2));
    assert!(Arc::ptr_eq(&uniform, &reseeded), "the session seed must not select the model");
    let reference = SvrLatencyModel::train(
        MeshConfig::new(4, 4),
        TrafficPattern::Uniform,
        &[0.02, 0.05, 0.09, 0.14],
        4_000,
        EXPERIMENT_SEED,
    );
    assert_eq!(*uniform, reference);
    let hotspot = store.noc_model(&noc_session(TrafficPattern::Hotspot, 1));
    assert_ne!(*hotspot, *uniform, "each traffic pattern trains its own model");
    assert_eq!(store.noc_models_trained(), 2);
    assert_eq!(store.builds(), 0, "NoC models are not training artifacts");
}

#[test]
fn a_fleet_trains_one_noc_model_per_design_time_setup() {
    // The heterogeneous generator draws every NoC session on one 4x4 mesh
    // with one training setup, under three traffic patterns: however many
    // sessions a fleet serves, the store trains three models.
    let store = ArtifactStore::new();
    let mut sessions = 0;
    for scenario in ScenarioGenerator::heterogeneous(1, 12).scenarios(490) {
        for segment in &scenario.segments {
            if let SubstrateWork::Noc(session) = segment {
                let _ = store.noc_model(session);
                sessions += 1;
            }
        }
    }
    assert!(sessions > 100, "only {sessions} NoC sessions drawn");
    assert_eq!(store.noc_models_trained(), 3);
}
