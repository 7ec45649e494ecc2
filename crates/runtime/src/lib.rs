//! `soclearn-runtime` — multi-user policy-serving runtime.
//!
//! The DAC 2020 paper positions online imitation learning as a *runtime*
//! resource manager.  This crate provides the serving infrastructure that
//! turns the one-off experiment functions of the reproduction into a
//! many-scenario runtime system, in three layers:
//!
//! 1. [`ArtifactStore`] — a process-wide memoised store of design-time
//!    [`TrainingArtifacts`] (training profiles, offline policies trained on
//!    their Oracle demonstrations, pretrained online models) keyed by
//!    *(platform fingerprint, [`ExperimentScale`])*, so the expensive
//!    design-time pipeline runs once per process no matter how many
//!    experiments, tests or serving lanes ask.
//! 2. The Oracle reference — the per-snippet exhaustive search of
//!    `soclearn-oracle`, which the driver, the experiments and the
//!    design-time build all call directly.  [`SweepEngine`] / [`SweepCache`],
//!    an LRU memo of its answers, serve none of them: the search reads
//!    per-level tables and costs no more than a cache hit.  The benchmark
//!    under `perfbench/` still builds against them.
//! 3. [`ScenarioDriver`] — a multi-worker serving harness that executes many
//!    independent application-sequence "users" concurrently and aggregates
//!    serving telemetry: decision throughput, a per-decision latency sketch,
//!    energy and policy-vs-oracle agreement.  Every
//!    timestamp reads a pluggable [`Clock`] — real wall time by default, or a
//!    shared virtual discrete-event clock that lets arrival schedules
//!    spanning simulated days collapse to milliseconds with deterministic
//!    telemetry.
//!
//! ```
//! use soclearn_runtime::{
//!     shared_artifacts, ExperimentScale, ScenarioDriver, ScenarioSpec, SliceSource,
//!     SubstratePolicies,
//! };
//! use soclearn_soc_sim::SocPlatform;
//! use soclearn_imitation::OnlineIlConfig;
//!
//! let platform = SocPlatform::small();
//! let artifacts = shared_artifacts(&platform, ExperimentScale::Quick);
//! let specs = [ScenarioSpec::new("user-0", artifacts.training_profiles.clone())];
//! let driver = ScenarioDriver::new(platform, 2);
//! let telemetry = driver.run_stream_mixed(&SliceSource::new(&specs), |_, _| {
//!     SubstratePolicies::cpu_only(Box::new(artifacts.online_policy(OnlineIlConfig::default())))
//! });
//! assert!(telemetry.decisions > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod driver;
pub mod obs;
pub mod scale;
pub mod store;
pub mod substrate;
pub mod sweep;

/// The time seam now lives in `soclearn-telemetry`; re-exported here so
/// `soclearn_runtime::clock::Clock` keeps working.
pub use soclearn_telemetry::clock;

pub use artifacts::{
    profiles_of, scaled_suite, sequence_of, shared_artifacts, ArtifactStore, TrainingArtifacts,
    EXPERIMENT_SEED,
};
pub use clock::Clock;
pub use driver::{
    DecisionRecord, DriverTelemetry, QueueStamp, ScenarioDriver, ScenarioRecord, ScenarioSource,
    ScenarioSpec, SliceSource, SubstrateTelemetry, WorkerTelemetry,
};
pub use obs::Observability;
pub use scale::ExperimentScale;
/// Re-exported so downstream crates can configure [`TieredModelStore`]
/// leases without depending on `soclearn-imitation` directly.
pub use soclearn_imitation::OnlineIlConfig;
pub use soclearn_telemetry::QuantileSketch;
pub use store::{ModelStoreStats, TieredModelStore, TieredPolicy};
pub use substrate::{
    noc_decision_seed, replay_noc_window, DecisionKind, FrameDemand, GpuConfig, GpuDecisionRecord,
    GpuPlatform, GpuReplayOutcome, GpuReplayer, GpuServing, GpuSessionSpec, MeshConfig,
    NocDecisionRecord, NocServing, NocSessionSpec, SubstrateDecision, SubstratePolicies,
    SubstrateRecord, SubstrateWork, TrafficPattern,
};
pub use sweep::{SweepCache, SweepCacheStats, SweepEngine, SweepL1Stats};
