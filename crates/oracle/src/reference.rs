//! Test-only reference for the Oracle search and the simulator's snippet
//! evaluation: the first implementations, which evaluated each configuration
//! in full (`evaluate_with`, power included), collected all of them and
//! ranked the collection with `best_index`.  Their arithmetic is the
//! specification that the per-level table kernel behind
//! [`SocSimulator::evaluate_snippet`], [`SocSimulator::evaluate_all_configs`]
//! and [`OracleSearch::best_config`] must match in every bit; the property
//! tests below compare them on random profiles, on heated thermal states,
//! on both platforms and under all three objectives.

use soclearn_power_thermal::power::{ClusterPowerParams, VoltageFrequencyCurve};
use soclearn_soc_sim::{ClusterKind, DvfsConfig, SnippetCounters, SnippetExecution, SocSimulator};
use soclearn_workloads::SnippetProfile;

use super::{OracleObjective, OracleSearch};

const OS_BACKGROUND_FRACTION: f64 = 0.03;
const MEMORY_STALL_EXPOSURE: f64 = 1.0;
const LITTLE_CPI_FACTOR: f64 = 1.7;

/// The first cluster power model, in one expression.
fn power(
    params: &ClusterPowerParams,
    curve: &VoltageFrequencyCurve,
    f: f64,
    u: f64,
    t: f64,
) -> f64 {
    let u = u.clamp(0.0, 1.0);
    let v = curve.voltage(f);
    let cores = params.cores as f64;
    let dynamic = params.c_eff * v * v * f * u * cores + params.uncore_w;
    let leakage = cores * (params.leak_v * v + params.leak_vt * v * t.max(0.0));
    dynamic + leakage
}

/// The first per-configuration evaluation, configuration-independent terms
/// included, at `sim`'s current thermal state.
fn evaluate(sim: &SocSimulator, profile: &SnippetProfile, config: DvfsConfig) -> SnippetExecution {
    let platform = sim.platform();
    let cores = platform.cores_per_cluster() as f64;
    let base_cpi = 1.0 / profile.ilp;
    let l2_hit_mpki = profile.l2_mpki * (1.0 - profile.external_memory_fraction);
    let ext_mpki = profile.l2_mpki * profile.external_memory_fraction;
    let l2_stall_cpi = l2_hit_mpki / 1000.0 * platform.l2_latency_cycles();
    let branch_cpi = profile.branch_misprediction_pki / 1000.0 * platform.branch_penalty_cycles();
    let app_instructions = profile.instructions as f64;
    let threads_on_big = profile.thread_count.min(platform.cores_per_cluster());
    let speedup = profile.amdahl_speedup(threads_on_big);
    let os_instructions = app_instructions * OS_BACKGROUND_FRACTION;
    let external_requests = profile.external_memory_requests();
    let base_plus_l2_cpi = base_cpi + l2_stall_cpi;
    let dram_stall_coeff = ext_mpki / 1000.0 * (platform.dram_latency_ns() * 1e-9);
    let thread_frac = threads_on_big as f64 / cores;
    let little_frac = 1.0 / cores;
    let dram_energy_j = external_requests * platform.dram_energy_per_access_j();

    let f_big = platform.frequency(ClusterKind::Big, config);
    let f_little = platform.frequency(ClusterKind::Little, config);
    let dram_stall_cpi = dram_stall_coeff * f_big * MEMORY_STALL_EXPOSURE;
    let cpi_big = base_plus_l2_cpi + dram_stall_cpi + branch_cpi;
    let cycles_big = app_instructions * cpi_big;
    let busy_big_s = cycles_big / f_big / speedup;
    let cpi_little = cpi_big.min(4.0) * LITTLE_CPI_FACTOR;
    let cycles_little = os_instructions * cpi_little;
    let busy_little_s = cycles_little / f_little;
    let time_s = busy_big_s.max(busy_little_s).max(1e-9);
    let power_util_big = thread_frac * (busy_big_s / time_s).min(1.0);
    let power_util_little = little_frac * (busy_little_s / time_s).min(1.0);
    let dram_stall_fraction = dram_stall_cpi / cpi_big;
    let big_util = (busy_big_s / time_s).min(1.0) * (1.0 - dram_stall_fraction);
    let little_util = (busy_little_s / time_s).min(1.0);
    let p_big = power(
        platform.power_params(ClusterKind::Big),
        platform.vf_curve(ClusterKind::Big),
        f_big,
        power_util_big,
        sim.big_temperature_c(),
    );
    let p_little = power(
        platform.power_params(ClusterKind::Little),
        platform.vf_curve(ClusterKind::Little),
        f_little,
        power_util_little,
        sim.little_temperature_c(),
    );
    let p_background = platform.background_power_w() + dram_energy_j / time_s;
    let avg_power_w = p_big + p_little + p_background;
    let energy_j = avg_power_w * time_s;
    SnippetExecution {
        config,
        time_s,
        energy_j,
        avg_power_w,
        big_cluster_power_w: p_big,
        little_cluster_power_w: p_little,
        counters: SnippetCounters {
            instructions_retired: app_instructions + os_instructions,
            cpu_cycles_total: cycles_big + cycles_little,
            branch_mispredictions_per_core: profile.branch_mispredictions()
                / threads_on_big.max(1) as f64,
            l2_cache_misses: profile.l2_misses(),
            data_memory_accesses: profile.data_memory_accesses(),
            external_memory_requests: external_requests,
            little_cluster_utilization: little_util,
            big_cluster_utilization: big_util,
            total_chip_power_w: avg_power_w,
        },
    }
}

/// The first ranking: the earliest execution with the lowest score.
fn best_index(objective: OracleObjective, executions: &[SnippetExecution]) -> usize {
    let mut best = 0;
    let mut best_score = objective.score(&executions[0]);
    for (i, execution) in executions.iter().enumerate().skip(1) {
        let score = objective.score(execution);
        if score < best_score {
            best = i;
            best_score = score;
        }
    }
    best
}

/// The first Oracle search: every configuration evaluated in full,
/// collected, then ranked.
fn best_config(
    sim: &SocSimulator,
    profile: &SnippetProfile,
    objective: OracleObjective,
) -> SnippetExecution {
    let executions: Vec<SnippetExecution> = sim
        .platform()
        .configs()
        .into_iter()
        .map(|config| evaluate(sim, profile, config))
        .collect();
    executions[best_index(objective, &executions)]
}

mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;
    use soclearn_soc_sim::SocPlatform;
    use soclearn_workloads::SnippetPhase;

    use super::*;

    const OBJECTIVES: [OracleObjective; 3] = [
        OracleObjective::Energy,
        OracleObjective::EnergyDelayProduct,
        OracleObjective::PerformancePerWatt,
    ];

    type ProfileDraw = (u64, usize, f64, f64, f64, f64, f64, u32, f64);

    /// Profile fields over and past the ranges the generators use.
    fn profile() -> impl Strategy<Value = ProfileDraw> {
        (
            1u64..400_000_000,
            0usize..4,
            0.0f64..1.0,
            0.0f64..40.0,
            0.0f64..1.0,
            0.0f64..15.0,
            0.25f64..8.0,
            1u32..9,
            0.0f64..1.0,
        )
    }

    fn build(
        (instructions, phase, mem, l2, ext, branch, ilp, threads, par): ProfileDraw,
    ) -> SnippetProfile {
        SnippetProfile::new(
            instructions,
            SnippetPhase::ALL[phase],
            mem,
            l2,
            ext,
            branch,
            ilp,
            threads,
            par,
        )
    }

    /// Every field of an execution, as bits.
    fn bits(execution: &SnippetExecution) -> (DvfsConfig, [u64; 14]) {
        let c = &execution.counters;
        (
            execution.config,
            [
                execution.time_s,
                execution.energy_j,
                execution.avg_power_w,
                execution.big_cluster_power_w,
                execution.little_cluster_power_w,
                c.instructions_retired,
                c.cpu_cycles_total,
                c.branch_mispredictions_per_core,
                c.l2_cache_misses,
                c.data_memory_accesses,
                c.external_memory_requests,
                c.little_cluster_utilization,
                c.big_cluster_utilization,
                c.total_chip_power_w,
            ]
            .map(f64::to_bits),
        )
    }

    /// A simulator on `platform` heated by `heat` committed snippets, each at
    /// the configuration its index picks.
    fn heated(platform: &SocPlatform, heat: &[ProfileDraw], pick: &[usize]) -> SocSimulator {
        let mut sim = SocSimulator::new(platform.clone());
        let configs = platform.configs();
        for (draw, &k) in heat.iter().zip(pick) {
            sim.execute_snippet(&build(*draw), configs[k % configs.len()]);
        }
        sim
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// At a heated thermal state, every execution the table kernel
        /// returns (one configuration, all of them, and each objective's
        /// best) equals the first evaluation in every field bit.
        #[test]
        fn table_kernel_matches_reference_bit_for_bit(
            small in 0usize..2,
            heat in vec(profile(), 0..12),
            pick in vec(0usize..40, 12),
            probes in vec(profile(), 1..6),
        ) {
            let platform =
                if small == 1 { SocPlatform::small() } else { SocPlatform::odroid_xu3() };
            let sim = heated(&platform, &heat, &pick);
            for draw in &probes {
                let profile = build(*draw);
                let all = sim.evaluate_all_configs(&profile);
                prop_assert_eq!(all.len(), platform.config_count());
                for (config, execution) in platform.configs().into_iter().zip(&all) {
                    let expected = bits(&evaluate(&sim, &profile, config));
                    prop_assert_eq!(bits(execution), expected);
                    prop_assert_eq!(bits(&sim.evaluate_snippet(&profile, config)), expected);
                }
                for objective in OBJECTIVES {
                    let (config, best) = OracleSearch::new(objective).best_config(&sim, &profile);
                    let expected = best_config(&sim, &profile, objective);
                    prop_assert_eq!(config, expected.config);
                    prop_assert_eq!(bits(&best), bits(&expected));
                }
            }
        }

        /// Oracle runs commit each answer, so every search after the first
        /// sees a thermal state the previous answers made: the runs agree
        /// with the first search and commit in every bit, under every
        /// objective.
        #[test]
        fn oracle_runs_match_reference_bit_for_bit(
            small in 0usize..2,
            draws in vec(profile(), 1..40),
        ) {
            let platform =
                if small == 1 { SocPlatform::small() } else { SocPlatform::odroid_xu3() };
            let profiles: Vec<SnippetProfile> = draws.iter().map(|d| build(*d)).collect();
            for objective in OBJECTIVES {
                let run = crate::OracleRun::execute(
                    &mut SocSimulator::new(platform.clone()),
                    &profiles,
                    objective,
                );
                let mut sim = SocSimulator::new(platform.clone());
                for (profile, (decision, execution)) in
                    profiles.iter().zip(run.decisions.iter().zip(&run.executions))
                {
                    let expected = best_config(&sim, profile, objective);
                    prop_assert_eq!(*decision, expected.config);
                    prop_assert_eq!(bits(execution), bits(&expected));
                    sim.commit_snippet(&expected);
                }
            }
        }
    }
}
