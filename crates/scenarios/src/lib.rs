//! `soclearn-scenarios` — synthetic workload generation, trace record/replay
//! and fleet-scale stress serving.
//!
//! The paper's central claim is that the online imitation-learning policy
//! adapts at runtime to workloads it never saw at design time.  The fixed
//! paper suites in `soclearn-workloads` cannot exercise that claim — every
//! experiment sees the same handful of applications — so this crate is the
//! workload firehose feeding the `soclearn-runtime` serving engine:
//!
//! 1. [`generator`] — a seeded **synthetic workload generator**:
//!    parameterised snippet-profile distributions (compute-, memory-,
//!    idle-skewed), phase-structured application models (ramp/burst/diurnal
//!    mixes, Markov phase switching) and perturbation operators that mutate
//!    the paper suites into unlimited never-seen-at-design-time variants.
//!    Scenario `i` is a pure function of `(seed, i)`, so fleets can be
//!    generated from any number of threads in any order, bit-identically.
//! 2. [`trace`] — a versioned **JSONL trace format** capturing per-decision
//!    profiles, chosen configs, thermal state and telemetry, with `f64`s
//!    stored as bit patterns so a parsed trace equals the recorded one
//!    exactly; [`trace::replay`] re-executes a recording on a fresh simulator
//!    and verifies bit-identical reproduction, and [`trace::TraceDiff`]
//!    compares two policy runs over the same snippet stream.
//! 3. [`stress`] — a **fleet stress harness**: [`stress::FleetSource`]
//!    streams generated users into the driver under arrival schedules
//!    (constant, bursty, 24 h diurnal cycles, Markov-modulated calm/storm
//!    traffic) and [`stress::FleetStress`] aggregates fleet
//!    telemetry — per-family oracle agreement, energy deltas against baseline
//!    governor fleets, tail latency.  Pacing and telemetry share a
//!    `soclearn_runtime::Clock`, so under a virtual clock multi-day schedules
//!    compress to milliseconds with deterministic virtual-time telemetry.
//!
//! ```
//! use soclearn_scenarios::{FleetStress, ScenarioGenerator};
//! use soclearn_governors::OndemandGovernor;
//! use soclearn_runtime::SubstratePolicies;
//! use soclearn_soc_sim::SocPlatform;
//!
//! let platform = SocPlatform::small();
//! let fleet = FleetStress::new(platform.clone(), ScenarioGenerator::standard(42, 6), 4, 2);
//! let report =
//!     fleet.run(|_, _| SubstratePolicies::cpu_only(Box::new(OndemandGovernor::new(&platform))));
//! assert_eq!(report.families.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generator;
pub mod json;
pub mod stress;
pub mod trace;

pub use generator::{
    FamilySpec, GraphicsSpec, HeterogeneousSpec, MeshSpec, Perturbation, PhasePattern,
    ScenarioFamily, ScenarioGenerator, SnippetDistribution,
};
pub use soclearn_runtime::obs::sorted_quantile_ns;
pub use stress::{
    fifo_stamps, ArrivalPlan, ArrivalSchedule, FamilyEnergyDelta, FamilyTelemetry,
    FleetDrainReport, FleetReport, FleetSource, FleetStress, QueueReport, QueueingConfig,
};
pub use trace::{replay, ReplayReport, ScenarioTrace, Trace, TraceDiff, TraceError};
