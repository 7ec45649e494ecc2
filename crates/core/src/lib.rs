//! `soclearn-core` — online adaptive learning framework for runtime resource
//! management of heterogeneous SoCs.
//!
//! This crate is the entry point of the `soclearn` workspace, a from-scratch
//! reproduction of *"Online Adaptive Learning for Runtime Resource Management
//! of Heterogeneous SoCs"* (Mandal et al., DAC 2020).  It ties the substrate
//! crates together into the framework of the paper's Figure 1:
//!
//! * analytical models of power, temperature and performance that adapt online
//!   ([`soclearn_power_thermal`], [`soclearn_online_learning`]),
//! * model-guided resource-management policies — Oracle, offline/online
//!   imitation learning, reinforcement-learning baselines, OS governors and
//!   (explicit) NMPC for the GPU subsystem,
//! * the simulated hardware substrates they run on
//!   ([`soclearn_soc_sim`], [`soclearn_gpu_sim`], [`soclearn_noc_sim`]),
//! * and, in [`experiments`], a harness that regenerates every table and
//!   figure of the paper's evaluation.
//!
//! # Quick start
//!
//! ```
//! use soclearn_core::harness::{run_policy, HarnessReport};
//! use soclearn_core::prelude::*;
//!
//! // A tiny end-to-end run: ondemand governor over one Mi-Bench-like app.
//! let platform = SocPlatform::odroid_xu3();
//! let suite = BenchmarkSuite::generate(SuiteKind::MiBench, 1);
//! let sequence = ApplicationSequence::from_benchmarks(suite.benchmarks().iter().take(1));
//! let mut governor = OndemandGovernor::new(&platform);
//! let report: HarnessReport = run_policy(&platform, &mut governor, &sequence);
//! assert!(report.total_energy_j > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod report;

/// Convenient re-exports of the most frequently used types from every crate in
/// the workspace.
pub mod prelude {
    pub use soclearn_governors::{
        InteractiveGovernor, OndemandGovernor, PerformanceGovernor, PowersaveGovernor,
    };
    pub use soclearn_gpu_sim::{
        GpuConfig, GpuController, GpuPlatform, GpuSimulator, UtilizationGovernor, WorkloadRun,
    };
    pub use soclearn_imitation::{
        OfflineIlPolicy, OnlineIlConfig, OnlineIlPolicy, PolicyModelKind,
    };
    pub use soclearn_nmpc::{
        ExplicitNmpcController, GpuSensitivityModel, MultiRateNmpcController, NmpcSettings,
    };
    pub use soclearn_noc_sim::{
        AnalyticalLatencyModel, MeshConfig, NocSimulator, SvrLatencyModel, TrafficPattern,
    };
    pub use soclearn_oracle::{
        collect_demonstrations, OracleObjective, OraclePolicy, OracleRun, OracleSearch,
    };
    pub use soclearn_power_thermal::{
        FixedPointAnalysis, RcThermalModel, SkinTemperatureEstimator,
    };
    pub use soclearn_rl::{QTableAgent, RlConfig};
    pub use soclearn_runtime::{
        shared_artifacts, ArtifactStore, Clock, DecisionKind, DriverTelemetry, ExperimentScale,
        FrameDemand, GpuServing, GpuSessionSpec, ModelStoreStats, NocServing, NocSessionSpec,
        Observability, QuantileSketch, QueueStamp, ScenarioDriver, ScenarioSource, ScenarioSpec,
        SliceSource, SubstrateDecision, SubstratePolicies, SubstrateRecord, SubstrateTelemetry,
        SubstrateWork, SweepCache, SweepEngine, SweepL1Stats, TieredModelStore, TieredPolicy,
        TrainingArtifacts,
    };
    pub use soclearn_scenarios::{
        fifo_stamps, replay, ArrivalSchedule, FleetDrainReport, FleetReport, FleetSource,
        FleetStress, PhasePattern, QueueReport, QueueingConfig, ScenarioGenerator,
        SnippetDistribution, Trace, TraceDiff,
    };
    pub use soclearn_soc_sim::{
        DvfsConfig, DvfsPolicy, PolicyDecision, SnippetCounters, SnippetExecution, SocPlatform,
        SocSimulator,
    };
    pub use soclearn_workloads::{
        ApplicationSequence, Benchmark, BenchmarkSuite, GraphicsWorkload, SnippetProfile, SuiteKind,
    };
}

pub use harness::{run_policy, HarnessReport, SnippetRecord};
