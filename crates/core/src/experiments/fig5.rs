//! Figure 5 — energy savings of explicit NMPC over the baseline GPU governor.
//!
//! Ten graphics workloads run under both the baseline utilization governor and
//! the explicit-NMPC controller; savings are reported for the GPU alone, the
//! package (PKG) and the package plus memory (PKG+DRAM), together with the
//! performance overhead.  The paper reports GPU savings between 5% and 58%
//! (average ≈25%), PKG and PKG+DRAM savings of ≈15%, and ≈0.4% performance
//! overhead.

use serde::Serialize;
use soclearn_gpu_sim::{GpuPlatform, GpuSimulator, UtilizationGovernor};
use soclearn_nmpc::{ExplicitNmpcController, GpuSensitivityModel, NmpcSettings};
use soclearn_runtime::EXPERIMENT_SEED;
use soclearn_workloads::GraphicsWorkload;

use super::ExperimentScale;

/// Savings of one workload.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig5Row {
    /// Workload name.
    pub workload: String,
    /// GPU energy saving relative to the baseline, in `[0, 1]`.
    pub gpu_saving: f64,
    /// Package energy saving relative to the baseline.
    pub pkg_saving: f64,
    /// Package + DRAM energy saving relative to the baseline.
    pub pkg_dram_saving: f64,
    /// Performance overhead of the explicit NMPC run (mean excess frame time over
    /// the deadline, as a fraction of the deadline).
    pub performance_overhead: f64,
}

/// The reproduced Figure 5.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig5Result {
    /// Per-workload rows.
    pub rows: Vec<Fig5Row>,
}

impl Fig5Result {
    /// Average savings across workloads: (GPU, PKG, PKG+DRAM).
    pub fn averages(&self) -> (f64, f64, f64) {
        let n = self.rows.len().max(1) as f64;
        (
            self.rows.iter().map(|r| r.gpu_saving).sum::<f64>() / n,
            self.rows.iter().map(|r| r.pkg_saving).sum::<f64>() / n,
            self.rows.iter().map(|r| r.pkg_dram_saving).sum::<f64>() / n,
        )
    }

    /// Mean performance overhead across workloads.
    pub fn mean_performance_overhead(&self) -> f64 {
        self.rows.iter().map(|r| r.performance_overhead).sum::<f64>()
            / self.rows.len().max(1) as f64
    }

    /// Renders the figure's data as a table.
    pub fn render(&self) -> String {
        let mut rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.workload.clone(),
                    crate::report::percent(r.gpu_saving),
                    crate::report::percent(r.pkg_saving),
                    crate::report::percent(r.pkg_dram_saving),
                    crate::report::percent(r.performance_overhead),
                ]
            })
            .collect();
        let (gpu, pkg, pkg_dram) = self.averages();
        rows.push(vec![
            "Average".to_owned(),
            crate::report::percent(gpu),
            crate::report::percent(pkg),
            crate::report::percent(pkg_dram),
            crate::report::percent(self.mean_performance_overhead()),
        ]);
        crate::report::render_table(
            "Figure 5: energy savings of explicit NMPC vs the baseline governor",
            &["Workload", "GPU", "PKG", "PKG+DRAM", "Perf overhead"],
            &rows,
        )
    }
}

/// Regenerates Figure 5.
pub fn enmpc_savings(scale: ExperimentScale) -> Fig5Result {
    let platform = GpuPlatform::gen9_like();
    let workloads = GraphicsWorkload::figure5_suite(scale.frames_per_workload(), EXPERIMENT_SEED);

    let mut rows = Vec::new();
    for workload in &workloads {
        let deadline = workload.frame_deadline_s();

        // Design-time step: sensitivity models profiled on a thinned sample of the
        // workload, then the explicit control law fitted over the observed state range.
        let sim = GpuSimulator::new(platform.clone());
        let mut model = GpuSensitivityModel::new(0.98);
        let sample: Vec<_> = workload.frames().iter().step_by(12).cloned().collect();
        model.pretrain(&sim, &sample, deadline);

        let works: Vec<f64> = workload.frames().iter().map(|f| f.work_cycles).collect();
        let mems: Vec<f64> = workload.frames().iter().map(|f| f.memory_accesses).collect();
        let wmin = works.iter().cloned().fold(f64::MAX, f64::min) * 0.8;
        let wmax = works.iter().cloned().fold(f64::MIN, f64::max) * 1.2;
        let mmin = mems.iter().cloned().fold(f64::MAX, f64::min) * 0.8;
        let mmax = mems.iter().cloned().fold(f64::MIN, f64::max) * 1.2;
        let mut explicit = ExplicitNmpcController::from_nmpc(
            &platform,
            &model,
            NmpcSettings::default(),
            deadline,
            (wmin, wmax),
            (mmin, mmax),
            8,
        );

        let mut baseline = UtilizationGovernor::new();
        let mut sim = GpuSimulator::new(platform.clone());
        let explicit_run = sim.run_workload(workload, &mut explicit);
        let baseline_run = sim.run_workload(workload, &mut baseline);

        rows.push(Fig5Row {
            workload: workload.name().to_owned(),
            gpu_saving: 1.0 - explicit_run.gpu_energy_j / baseline_run.gpu_energy_j,
            pkg_saving: 1.0 - explicit_run.package_energy_j / baseline_run.package_energy_j,
            pkg_dram_saving: 1.0
                - explicit_run.package_dram_energy_j / baseline_run.package_dram_energy_j,
            performance_overhead: explicit_run.performance_overhead(deadline),
        });
    }
    Fig5Result { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enmpc_saves_energy_with_negligible_overhead() {
        let result = enmpc_savings(ExperimentScale::Quick);
        assert_eq!(result.rows.len(), 10);
        let (gpu, pkg, pkg_dram) = result.averages();
        assert!(gpu > 0.08, "average GPU saving {gpu:.3} should be substantial");
        assert!(gpu > pkg, "GPU savings should exceed PKG savings ({gpu:.3} vs {pkg:.3})");
        assert!(pkg >= pkg_dram - 0.02, "PKG+DRAM savings are diluted further");
        assert!(result.mean_performance_overhead() < 0.05);
        // Spread across workloads, as in the paper (5%–58%).
        let min = result.rows.iter().map(|r| r.gpu_saving).fold(f64::MAX, f64::min);
        let max = result.rows.iter().map(|r| r.gpu_saving).fold(f64::MIN, f64::max);
        assert!(max - min > 0.08, "savings should vary across workloads ({min:.2}..{max:.2})");
        assert!(result.render().contains("Average"));
    }
}
