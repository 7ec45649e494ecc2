//! Snippet execution model: time, energy, counters and thermal state.
//!
//! # One kernel, per-level tables
//!
//! Most of a snippet's evaluation depends on one cluster's DVFS level alone:
//! the big cluster's CPI, busy time, the LITTLE background cycles it implies,
//! the stalled share of its cycles and its power at the snippet's
//! temperature; the LITTLE cluster's frequency and power.  The simulator
//! computes those once per level (`BigLevel`, `LittleLevel`) and combines
//! a pair of them per configuration, so a 40-configuration sweep does 8 + 5
//! level evaluations and 40 combinations instead of 40 full evaluations.
//! [`SocSimulator::evaluate_snippet`], [`SocSimulator::evaluate_all_configs`]
//! and [`SocSimulator::for_each_config`] (the Oracle's sweep) share that one
//! kernel.
//!
//! The tables are bit-identical to evaluating each configuration in
//! full: every hoisted value is the expression the per-configuration
//! evaluation computed, with the same operands in the same order (power is
//! split at the left-associative prefix `c_eff · V · V · f`, see
//! [`OperatingPoint`]), and no operation is reassociated, fused or
//! approximated.  A test-only copy of the per-configuration evaluation
//! checks every field bit on random profiles and thermal states.

use serde::Serialize;
use soclearn_power_thermal::power::OperatingPoint;
use soclearn_power_thermal::thermal::RcThermalModel;
use soclearn_workloads::SnippetProfile;

use crate::counters::SnippetCounters;
use crate::platform::{ClusterKind, DvfsConfig, SocPlatform};

/// Fraction of a snippet's instructions that execute as OS / background work on
/// the LITTLE cluster while the application itself occupies the big cluster.
const OS_BACKGROUND_FRACTION: f64 = 0.03;

/// Fraction of an external-memory stall that cannot be hidden by out-of-order
/// execution (memory-level-parallelism overlap factor).
const MEMORY_STALL_EXPOSURE: f64 = 1.0;

/// CPI penalty multiplier of the in-order LITTLE cores relative to the big cores.
const LITTLE_CPI_FACTOR: f64 = 1.7;

/// Position of the big cluster's node in [`RcThermalModel::mobile_soc`].
const BIG_NODE: usize = 0;

/// Position of the LITTLE cluster's node in [`RcThermalModel::mobile_soc`].
const LITTLE_NODE: usize = 1;

/// Outcome of executing (or evaluating) one snippet at one DVFS configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SnippetExecution {
    /// Configuration the snippet ran at.
    pub config: DvfsConfig,
    /// Wall-clock execution time of the snippet, in seconds.
    pub time_s: f64,
    /// Total chip energy consumed by the snippet, in joules.
    pub energy_j: f64,
    /// Average chip power over the snippet, in watts.
    pub avg_power_w: f64,
    /// Average big-cluster power over the snippet, in watts.
    pub big_cluster_power_w: f64,
    /// Average LITTLE-cluster power over the snippet, in watts.
    pub little_cluster_power_w: f64,
    /// The Table I counters collected during the snippet.
    pub counters: SnippetCounters,
}

impl SnippetExecution {
    /// Energy-delay product (J·s), an alternative optimisation objective.
    pub fn energy_delay_product(&self) -> f64 {
        self.energy_j * self.time_s
    }

    /// Throughput in instructions per second.
    pub fn instructions_per_second(&self) -> f64 {
        self.counters.instructions_retired / self.time_s.max(1e-12)
    }

    /// Performance-per-watt in instructions per joule.
    pub fn instructions_per_joule(&self) -> f64 {
        self.counters.instructions_retired / self.energy_j.max(1e-12)
    }
}

/// Configuration-independent quantities of one snippet at the current thermal
/// state, computed once per evaluation or sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SnippetInvariants {
    /// `base_cpi + l2_stall_cpi` (the first two CPI terms, already summed).
    base_plus_l2_cpi: f64,
    /// Branch misprediction CPI term.
    branch_cpi: f64,
    /// DRAM stall CPI per Hz of big-cluster frequency; multiplied by `f_big`
    /// and the exposure factor per big level.
    dram_stall_coeff: f64,
    /// Application instruction count as f64.
    app_instructions: f64,
    /// OS/background instructions executed on the LITTLE cluster.
    os_instructions: f64,
    /// `threads_on_big / cores`, the big-cluster switching-capacity fraction.
    thread_frac: f64,
    /// `1 / cores`, the LITTLE-cluster single-thread capacity fraction.
    little_frac: f64,
    /// Amdahl speedup at `threads_on_big`.
    speedup: f64,
    /// Big-cluster temperature when the snippet starts, °C.
    temp_big: f64,
    /// LITTLE-cluster temperature when the snippet starts, °C.
    temp_little: f64,
    /// Total external DRAM requests of the snippet.
    external_requests: f64,
    /// Energy of the snippet's DRAM traffic, joules.
    dram_energy_j: f64,
    /// Total instructions retired (application + OS background).
    instructions_retired: f64,
    /// Branch mispredictions per active big core.
    branch_mispredictions_per_core: f64,
    /// Total L2 cache misses.
    l2_cache_misses: f64,
    /// Total data-memory accesses.
    data_memory_accesses: f64,
}

/// What one snippet does at one big-cluster level, whatever the LITTLE level.
#[derive(Debug, Clone, Copy)]
struct BigLevel {
    /// Big-cluster cycles of the application.
    cycles: f64,
    /// Big-cluster busy time, seconds.
    busy_s: f64,
    /// LITTLE-cluster cycles of the background work (its CPI follows the
    /// big cluster's).
    cycles_little: f64,
    /// `1 - dram_stall_cpi / cpi`: the share of busy cycles not stalled on
    /// DRAM.
    unstalled: f64,
    /// Big-cluster power at this level and the snippet's temperature.
    power: OperatingPoint,
}

/// What one snippet does at one LITTLE-cluster level.
#[derive(Debug, Clone, Copy)]
struct LittleLevel {
    /// LITTLE-cluster frequency, Hz.
    f: f64,
    /// LITTLE-cluster power at this level and the snippet's temperature.
    power: OperatingPoint,
}

/// Analytical simulator of a big.LITTLE SoC executing snippet workloads.
///
/// The simulator is deterministic: executing the same snippet sequence at the
/// same configurations always produces identical results, which keeps every
/// experiment in the repository reproducible.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SocSimulator {
    platform: SocPlatform,
    thermal: RcThermalModel,
    total_energy_j: f64,
    total_time_s: f64,
    snippets_executed: usize,
}

impl SocSimulator {
    /// Creates a simulator for the given platform at 25 °C ambient.
    pub fn new(platform: SocPlatform) -> Self {
        Self {
            platform,
            thermal: RcThermalModel::mobile_soc(25.0),
            total_energy_j: 0.0,
            total_time_s: 0.0,
            snippets_executed: 0,
        }
    }

    /// The platform description.
    pub fn platform(&self) -> &SocPlatform {
        &self.platform
    }

    /// Total energy consumed by all executed snippets so far, in joules.
    pub fn total_energy_j(&self) -> f64 {
        self.total_energy_j
    }

    /// Total wall-clock time of all executed snippets so far, in seconds.
    pub fn total_time_s(&self) -> f64 {
        self.total_time_s
    }

    /// Number of snippets executed (not merely evaluated) so far.
    pub fn snippets_executed(&self) -> usize {
        self.snippets_executed
    }

    /// Current big-cluster temperature in °C.
    pub fn big_temperature_c(&self) -> f64 {
        self.thermal.temperatures()[BIG_NODE]
    }

    /// Current LITTLE-cluster temperature in °C.
    pub fn little_temperature_c(&self) -> f64 {
        self.thermal.temperatures()[LITTLE_NODE]
    }

    /// Resets accumulated energy, time and the thermal state.
    pub fn reset(&mut self) {
        self.thermal.reset();
        self.total_energy_j = 0.0;
        self.total_time_s = 0.0;
        self.snippets_executed = 0;
    }

    /// Computes every configuration-independent quantity of the snippet at the
    /// current thermal state.
    #[inline]
    fn snippet_invariants(&self, profile: &SnippetProfile) -> SnippetInvariants {
        let cores = self.platform.cores_per_cluster() as f64;

        // --- Big-cluster CPI model (configuration-independent terms) ---------------
        let base_cpi = 1.0 / profile.ilp;
        let l2_hit_mpki = profile.l2_mpki * (1.0 - profile.external_memory_fraction);
        let ext_mpki = profile.l2_mpki * profile.external_memory_fraction;
        let l2_stall_cpi = l2_hit_mpki / 1000.0 * self.platform.l2_latency_cycles();
        let branch_cpi =
            profile.branch_misprediction_pki / 1000.0 * self.platform.branch_penalty_cycles();

        let app_instructions = profile.instructions as f64;
        let threads_on_big = profile.thread_count.min(self.platform.cores_per_cluster());
        let speedup = profile.amdahl_speedup(threads_on_big);
        let os_instructions = app_instructions * OS_BACKGROUND_FRACTION;

        let external_requests = profile.external_memory_requests();
        SnippetInvariants {
            base_plus_l2_cpi: base_cpi + l2_stall_cpi,
            branch_cpi,
            dram_stall_coeff: ext_mpki / 1000.0 * (self.platform.dram_latency_ns() * 1e-9),
            app_instructions,
            os_instructions,
            thread_frac: threads_on_big as f64 / cores,
            little_frac: 1.0 / cores,
            speedup,
            temp_big: self.big_temperature_c(),
            temp_little: self.little_temperature_c(),
            external_requests,
            dram_energy_j: external_requests * self.platform.dram_energy_per_access_j(),
            instructions_retired: app_instructions + os_instructions,
            branch_mispredictions_per_core: profile.branch_mispredictions()
                / threads_on_big.max(1) as f64,
            l2_cache_misses: profile.l2_misses(),
            data_memory_accesses: profile.data_memory_accesses(),
        }
    }

    /// The snippet at big-cluster level `big_idx`.
    #[inline]
    fn big_level(&self, inv: &SnippetInvariants, big_idx: usize) -> BigLevel {
        let f_big = self.platform.frequencies(ClusterKind::Big)[big_idx];
        // External misses cost a fixed latency in *time*; expressed in cycles the
        // stall grows with frequency, which is what makes memory-bound snippets
        // insensitive to DVFS.
        let dram_stall_cpi = inv.dram_stall_coeff * f_big * MEMORY_STALL_EXPOSURE;
        let cpi_big = inv.base_plus_l2_cpi + dram_stall_cpi + inv.branch_cpi;
        let cycles = inv.app_instructions * cpi_big;
        // --- LITTLE-cluster background work -----------------------------------------
        let cpi_little = cpi_big.min(4.0) * LITTLE_CPI_FACTOR;
        BigLevel {
            cycles,
            busy_s: cycles / f_big / inv.speedup,
            cycles_little: inv.os_instructions * cpi_little,
            unstalled: 1.0 - dram_stall_cpi / cpi_big,
            power: self.platform.power_params(ClusterKind::Big).operating_point(
                self.platform.vf_curve(ClusterKind::Big),
                f_big,
                inv.temp_big,
            ),
        }
    }

    /// The snippet at LITTLE-cluster level `little_idx`.
    #[inline]
    fn little_level(&self, inv: &SnippetInvariants, little_idx: usize) -> LittleLevel {
        let f = self.platform.frequencies(ClusterKind::Little)[little_idx];
        LittleLevel {
            f,
            power: self.platform.power_params(ClusterKind::Little).operating_point(
                self.platform.vf_curve(ClusterKind::Little),
                f,
                inv.temp_little,
            ),
        }
    }

    /// Combines one big and one LITTLE level into the execution at `config`.
    #[inline]
    fn execution(
        &self,
        inv: &SnippetInvariants,
        big: &BigLevel,
        little: &LittleLevel,
        config: DvfsConfig,
    ) -> SnippetExecution {
        let busy_little_s = big.cycles_little / little.f;

        // The application determines the wall time; background work overlaps it.
        let time_s = big.busy_s.max(busy_little_s).max(1e-9);

        // --- Utilizations ------------------------------------------------------------
        // Power sees the fraction of the *whole cluster's* switching capacity in use;
        // the reported counter follows what OS governors act on: the busy fraction of
        // the active cores, discounting cycles stalled on DRAM.
        let big_busy = (big.busy_s / time_s).min(1.0);
        let little_util = (busy_little_s / time_s).min(1.0);

        // --- Power and energy ---------------------------------------------------------
        let p_big = big.power.power(inv.thread_frac * big_busy);
        let p_little = little.power.power(inv.little_frac * little_util);
        let p_background = self.platform.background_power_w() + inv.dram_energy_j / time_s;
        let avg_power_w = p_big + p_little + p_background;
        let energy_j = avg_power_w * time_s;

        // --- Counters ------------------------------------------------------------------
        let counters = SnippetCounters {
            instructions_retired: inv.instructions_retired,
            cpu_cycles_total: big.cycles + big.cycles_little,
            branch_mispredictions_per_core: inv.branch_mispredictions_per_core,
            l2_cache_misses: inv.l2_cache_misses,
            data_memory_accesses: inv.data_memory_accesses,
            external_memory_requests: inv.external_requests,
            little_cluster_utilization: little_util,
            big_cluster_utilization: big_busy * big.unstalled,
            total_chip_power_w: avg_power_w,
        };

        SnippetExecution {
            config,
            time_s,
            energy_j,
            avg_power_w,
            big_cluster_power_w: p_big,
            little_cluster_power_w: p_little,
            counters,
        }
    }

    /// Evaluates the snippet at the configuration **without** committing thermal
    /// state or accumulating energy — this is the "what would happen" primitive
    /// that Oracle construction and the runtime candidate evaluation use.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid for the platform.
    pub fn evaluate_snippet(
        &self,
        profile: &SnippetProfile,
        config: DvfsConfig,
    ) -> SnippetExecution {
        assert!(self.platform.is_valid(config), "invalid DVFS configuration {config}");
        let inv = self.snippet_invariants(profile);
        let big = self.big_level(&inv, config.big_idx);
        let little = self.little_level(&inv, config.little_idx);
        self.execution(&inv, &big, &little, config)
    }

    /// Evaluates the snippet at every configuration of the platform, in
    /// [`SocPlatform::configs`] order, and hands each execution to `visit`;
    /// nothing is committed.  This is the Oracle's sweep: it builds the
    /// per-level tables once and keeps no execution it is not given.  Each
    /// execution is bit-identical to [`SocSimulator::evaluate_snippet`] at its
    /// configuration.
    pub fn for_each_config(
        &self,
        profile: &SnippetProfile,
        mut visit: impl FnMut(SnippetExecution),
    ) {
        let inv = self.snippet_invariants(profile);
        let big_levels: Vec<BigLevel> = (0..self.platform.level_count(ClusterKind::Big))
            .map(|big_idx| self.big_level(&inv, big_idx))
            .collect();
        for little_idx in 0..self.platform.level_count(ClusterKind::Little) {
            let little = self.little_level(&inv, little_idx);
            for (big_idx, big) in big_levels.iter().enumerate() {
                visit(self.execution(&inv, big, &little, DvfsConfig::new(little_idx, big_idx)));
            }
        }
    }

    /// The snippet at every configuration of the platform, in
    /// [`SocPlatform::configs`] order ([`SocSimulator::for_each_config`],
    /// collected).
    pub fn evaluate_all_configs(&self, profile: &SnippetProfile) -> Vec<SnippetExecution> {
        let mut executions = Vec::with_capacity(self.platform.config_count());
        self.for_each_config(profile, |execution| executions.push(execution));
        executions
    }

    /// Per-cluster power of an evaluated snippet, used to drive the thermal model.
    fn cluster_powers(&self, execution: &SnippetExecution) -> [f64; 4] {
        let mut powers = [0.0; 4];
        powers[BIG_NODE] = execution.big_cluster_power_w;
        powers[LITTLE_NODE] = execution.little_cluster_power_w;
        powers
    }

    /// Commits an execution that was evaluated **at the current thermal
    /// state**: accumulates its energy and time and advances the thermal model
    /// for the snippet duration.
    ///
    /// Callers that already hold the evaluation result of the configuration
    /// they are about to run (Oracle search, batched sweeps) use this to avoid
    /// re-evaluating the snippet; `execute_snippet` is exactly
    /// `evaluate_snippet` followed by `commit_snippet`.
    pub fn commit_snippet(&mut self, execution: &SnippetExecution) {
        let powers = self.cluster_powers(execution);
        let steps = (execution.time_s / self.thermal.step_s()).ceil().min(10_000.0) as usize;
        for _ in 0..steps.max(1) {
            self.thermal.step(&powers);
        }
        self.total_energy_j += execution.energy_j;
        self.total_time_s += execution.time_s;
        self.snippets_executed += 1;
    }

    /// Executes the snippet at the configuration: evaluates it, commits the energy
    /// and time, and advances the thermal model for the snippet duration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid for the platform.
    pub fn execute_snippet(
        &mut self,
        profile: &SnippetProfile,
        config: DvfsConfig,
    ) -> SnippetExecution {
        let execution = self.evaluate_snippet(profile, config);
        self.commit_snippet(&execution);
        execution
    }

    /// Executes a whole snippet sequence at a fixed configuration, returning the
    /// per-snippet results.
    pub fn execute_sequence(
        &mut self,
        profiles: &[SnippetProfile],
        config: DvfsConfig,
    ) -> Vec<SnippetExecution> {
        profiles.iter().map(|p| self.execute_snippet(p, config)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soclearn_workloads::SnippetProfile;

    fn sim() -> SocSimulator {
        SocSimulator::new(SocPlatform::odroid_xu3())
    }

    #[test]
    fn compute_bound_scales_with_frequency() {
        let s = sim();
        let snippet = SnippetProfile::compute_bound(100_000_000);
        let slow = s.evaluate_snippet(&snippet, DvfsConfig::new(0, 0));
        let fast = s.evaluate_snippet(&snippet, DvfsConfig::new(0, 7));
        // 0.6 GHz -> 2.0 GHz should speed a compute-bound snippet up by ~3x.
        let speedup = slow.time_s / fast.time_s;
        assert!(speedup > 2.5, "compute-bound speedup {speedup} too small");
    }

    #[test]
    fn memory_bound_is_frequency_insensitive() {
        let s = sim();
        let snippet = SnippetProfile::memory_bound(100_000_000);
        let slow = s.evaluate_snippet(&snippet, DvfsConfig::new(0, 0));
        let fast = s.evaluate_snippet(&snippet, DvfsConfig::new(0, 7));
        let speedup = slow.time_s / fast.time_s;
        assert!(speedup < 2.2, "memory-bound speedup {speedup} should be limited by DRAM");
    }

    #[test]
    fn optimal_energy_config_depends_on_workload() {
        let s = sim();
        let compute = SnippetProfile::compute_bound(100_000_000);
        let memory = SnippetProfile::memory_bound(100_000_000);
        let best_big = |p: &SnippetProfile| {
            (0..8)
                .min_by(|&a, &b| {
                    let ea = s.evaluate_snippet(p, DvfsConfig::new(0, a)).energy_j;
                    let eb = s.evaluate_snippet(p, DvfsConfig::new(0, b)).energy_j;
                    ea.partial_cmp(&eb).unwrap()
                })
                .unwrap()
        };
        let best_compute = best_big(&compute);
        let best_memory = best_big(&memory);
        assert!(
            best_compute > best_memory,
            "compute-bound should prefer higher frequency ({best_compute}) than memory-bound ({best_memory})"
        );
    }

    #[test]
    fn energy_and_time_are_positive_for_every_config() {
        let s = sim();
        let snippet = SnippetProfile::memory_bound(100_000_000);
        for config in s.platform().configs() {
            let r = s.evaluate_snippet(&snippet, config);
            assert!(r.time_s > 0.0 && r.energy_j > 0.0 && r.avg_power_w > 0.0);
            assert!(r.counters.big_cluster_utilization <= 1.0);
            assert!(r.counters.little_cluster_utilization <= 1.0);
            assert!((r.energy_j / r.time_s - r.avg_power_w).abs() < 1e-9);
        }
    }

    #[test]
    fn execute_accumulates_and_heats_up() {
        let mut s = sim();
        let snippet = SnippetProfile::compute_bound(100_000_000);
        let t0 = s.big_temperature_c();
        for _ in 0..20 {
            s.execute_snippet(&snippet, DvfsConfig::new(2, 7));
        }
        assert_eq!(s.snippets_executed(), 20);
        assert!(s.total_energy_j() > 0.0 && s.total_time_s() > 0.0);
        assert!(s.big_temperature_c() > t0, "running flat out should heat the big cluster");
        s.reset();
        assert_eq!(s.snippets_executed(), 0);
        assert_eq!(s.total_energy_j(), 0.0);
        assert!((s.big_temperature_c() - t0).abs() < 1e-9);
    }

    #[test]
    fn cluster_nodes_sit_at_their_named_positions() {
        let model = RcThermalModel::mobile_soc(25.0);
        assert_eq!(model.node_index("big"), Some(BIG_NODE));
        assert_eq!(model.node_index("little"), Some(LITTLE_NODE));
    }

    #[test]
    fn a_reset_simulator_equals_a_fresh_one() {
        for platform in [SocPlatform::odroid_xu3(), SocPlatform::small()] {
            let fresh = SocSimulator::new(platform.clone());
            let mut served = fresh.clone();
            for (i, config) in platform.configs().into_iter().enumerate() {
                let snippet = if i % 2 == 0 {
                    SnippetProfile::compute_bound(100_000_000)
                } else {
                    SnippetProfile::memory_bound(60_000_000)
                };
                served.execute_snippet(&snippet, config);
            }
            assert_ne!(served, fresh, "serving must change the simulator");
            served.reset();
            assert_eq!(served, fresh);
            let snippet = SnippetProfile::compute_bound(100_000_000);
            for config in platform.configs() {
                let (a, b) = (served.execute_snippet(&snippet, config), {
                    let mut twin = fresh.clone();
                    for earlier in platform.configs().into_iter().take_while(|c| *c != config) {
                        twin.execute_snippet(&snippet, earlier);
                    }
                    twin.execute_snippet(&snippet, config)
                });
                assert_eq!(a, b, "a reset simulator must serve like a fresh one at {config}");
            }
        }
    }

    #[test]
    fn evaluate_does_not_mutate() {
        let s = sim();
        let snippet = SnippetProfile::compute_bound(100_000_000);
        let before = s.clone();
        let _ = s.evaluate_snippet(&snippet, DvfsConfig::new(1, 3));
        assert_eq!(s, before);
    }

    #[test]
    fn multithreaded_snippets_run_faster_but_draw_more_power() {
        let s = sim();
        let single = SnippetProfile::new(
            100_000_000,
            soclearn_workloads::SnippetPhase::Mixed,
            0.3,
            4.0,
            0.6,
            2.0,
            1.8,
            1,
            0.0,
        );
        let quad = SnippetProfile::new(
            100_000_000,
            soclearn_workloads::SnippetPhase::Mixed,
            0.3,
            4.0,
            0.6,
            2.0,
            1.8,
            4,
            0.9,
        );
        let config = DvfsConfig::new(2, 5);
        let r1 = s.evaluate_snippet(&single, config);
        let r4 = s.evaluate_snippet(&quad, config);
        assert!(r4.time_s < r1.time_s);
        assert!(r4.avg_power_w > r1.avg_power_w);
        assert!(r4.counters.big_cluster_utilization > 0.4);
        assert!(r4.big_cluster_power_w > r1.big_cluster_power_w);
    }

    #[test]
    fn sequence_execution_matches_sum_of_snippets() {
        let mut s = sim();
        let snippets = vec![
            SnippetProfile::compute_bound(100_000_000),
            SnippetProfile::memory_bound(100_000_000),
        ];
        let results = s.execute_sequence(&snippets, DvfsConfig::new(1, 4));
        assert_eq!(results.len(), 2);
        let total: f64 = results.iter().map(|r| r.energy_j).sum();
        assert!((total - s.total_energy_j()).abs() < 1e-9);
    }

    #[test]
    fn derived_metrics_are_consistent() {
        let s = sim();
        let snippet = SnippetProfile::compute_bound(100_000_000);
        let r = s.evaluate_snippet(&snippet, DvfsConfig::new(2, 6));
        assert!(r.energy_delay_product() > 0.0);
        assert!(r.instructions_per_second() > 1e8);
        assert!(r.instructions_per_joule() > 0.0);
    }

    #[test]
    fn batched_evaluation_is_bit_identical_to_per_call() {
        let mut s = sim();
        let snippets = [
            SnippetProfile::compute_bound(100_000_000),
            SnippetProfile::memory_bound(100_000_000),
            SnippetProfile::compute_bound(37_500_000),
        ];
        // Also exercise a heated thermal state, not just ambient.
        for _ in 0..10 {
            s.execute_snippet(&snippets[0], s.platform().max_config());
        }
        let configs = s.platform().configs();
        for snippet in &snippets {
            let batched = s.evaluate_all_configs(snippet);
            assert_eq!(batched.len(), configs.len());
            for (&config, batch) in configs.iter().zip(&batched) {
                let single = s.evaluate_snippet(snippet, config);
                assert_eq!(single, *batch, "batched result differs at {config}");
                assert_eq!(single.time_s.to_bits(), batch.time_s.to_bits());
                assert_eq!(single.energy_j.to_bits(), batch.energy_j.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid DVFS configuration")]
    fn evaluate_rejects_invalid_config() {
        let s = sim();
        let snippet = SnippetProfile::compute_bound(1000);
        let _ = s.evaluate_snippet(&snippet, DvfsConfig::new(10, 10));
    }
}
