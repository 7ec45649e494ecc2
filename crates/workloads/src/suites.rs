//! Benchmark suite generators.
//!
//! The paper trains its offline IL policy on Mi-Bench applications and
//! evaluates generalisation on CortexSuite and PARSEC applications (Table II,
//! Figures 3 and 4).  Each generator below produces a suite whose snippet
//! distribution is deliberately different from the others:
//!
//! * **Mi-Bench-like** — small embedded kernels, mostly compute bound and
//!   single threaded, with modest memory traffic.
//! * **Cortex-like** — data-analytics kernels with heavier, bursty memory
//!   traffic and longer memory phases.
//! * **PARSEC-like** — multi-threaded applications with high memory
//!   bandwidth demand and large parallel fractions.
//!
//! The distribution shift is what makes the offline IL policy degrade on the
//! unseen suites, reproducing the *shape* of Table II.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use crate::snippet::{SnippetPhase, SnippetProfile};
use crate::SNIPPET_INSTRUCTIONS;

/// Which benchmark suite a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum SuiteKind {
    /// Embedded kernels used for offline training (Mi-Bench-like).
    MiBench,
    /// Data-analytics / computer-vision kernels (CortexSuite-like).
    Cortex,
    /// Multi-threaded shared-memory applications (PARSEC-like).
    Parsec,
}

impl SuiteKind {
    /// All suite kinds in the order they appear in the paper's tables.
    pub const ALL: [SuiteKind; 3] = [SuiteKind::MiBench, SuiteKind::Cortex, SuiteKind::Parsec];

    /// Human-readable suite name as used in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            SuiteKind::MiBench => "Mi-Bench",
            SuiteKind::Cortex => "Cortex",
            SuiteKind::Parsec => "PARSEC",
        }
    }
}

impl std::fmt::Display for SuiteKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One application: a named sequence of snippets belonging to a suite.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Benchmark {
    name: String,
    suite: SuiteKind,
    snippets: Vec<SnippetProfile>,
}

impl Benchmark {
    /// Creates a benchmark from parts.
    ///
    /// # Panics
    ///
    /// Panics if `snippets` is empty.
    pub fn new(name: impl Into<String>, suite: SuiteKind, snippets: Vec<SnippetProfile>) -> Self {
        assert!(!snippets.is_empty(), "a benchmark must contain at least one snippet");
        Self { name: name.into(), suite, snippets }
    }

    /// Benchmark name (matches the labels used in the paper's figures).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Suite the benchmark belongs to.
    pub fn suite(&self) -> SuiteKind {
        self.suite
    }

    /// The snippet sequence of this benchmark.
    pub fn snippets(&self) -> &[SnippetProfile] {
        &self.snippets
    }

    /// Total instruction count across all snippets.
    pub fn total_instructions(&self) -> u64 {
        self.snippets.iter().map(|s| s.instructions).sum()
    }

    /// Mean memory intensity across snippets (used in tests to verify the suite
    /// level distribution shift).
    pub fn mean_memory_intensity(&self) -> f64 {
        self.snippets.iter().map(|s| s.memory_intensity()).sum::<f64>() / self.snippets.len() as f64
    }
}

/// A generated benchmark suite.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BenchmarkSuite {
    kind: SuiteKind,
    benchmarks: Vec<Benchmark>,
}

/// Parameters controlling how an application's snippets are synthesised.
///
/// The paper suites are built from fixed spec tables below; external workload
/// generators (the `soclearn-scenarios` crate) construct their own specs and
/// feed them through [`BenchmarkSuite::from_specs`] to mint never-seen
/// suite-like applications from the same two-state phase machinery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppSpec {
    /// Application name (reported in figures and telemetry).
    pub name: &'static str,
    /// Number of snippets to synthesise.
    pub snippets: usize,
    /// Probability of a memory phase snippet.
    pub memory_phase_prob: f64,
    /// Baseline memory access fraction.
    pub mem_access: f64,
    /// Baseline L2 MPKI in compute phases.
    pub l2_mpki: f64,
    /// L2 MPKI multiplier in memory phases.
    pub memory_phase_mpki_mult: f64,
    /// Branch mispredictions per kilo-instruction.
    pub branch_pki: f64,
    /// Available instruction-level parallelism.
    pub ilp: f64,
    /// Software thread count.
    pub threads: u32,
    /// Amdahl parallel fraction.
    pub parallel_fraction: f64,
}

impl BenchmarkSuite {
    /// Generates the benchmark suite of the requested kind.
    ///
    /// Generation is fully deterministic for a given `(kind, seed)` pair, which
    /// keeps every experiment in the repository reproducible.
    pub fn generate(kind: SuiteKind, seed: u64) -> Self {
        let specs = match kind {
            SuiteKind::MiBench => Self::mibench_specs(),
            SuiteKind::Cortex => Self::cortex_specs(),
            SuiteKind::Parsec => Self::parsec_specs(),
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (kind as u64).wrapping_mul(0x9E37_79B9));
        let benchmarks =
            specs.iter().map(|spec| Self::generate_app(kind, spec, &mut rng)).collect();
        Self { kind, benchmarks }
    }

    /// Generates a suite from caller-provided application specs — the
    /// distribution hook workload generators use to mint suite-like
    /// applications that were never part of the paper's tables.
    ///
    /// Generation is fully deterministic for a given `(kind, specs, seed)`
    /// triple, exactly like [`BenchmarkSuite::generate`]; `kind` also selects
    /// the suite-level external-memory-fraction range.
    pub fn from_specs(kind: SuiteKind, specs: &[AppSpec], seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (kind as u64).wrapping_mul(0x9E37_79B9));
        let benchmarks =
            specs.iter().map(|spec| Self::generate_app(kind, spec, &mut rng)).collect();
        Self { kind, benchmarks }
    }

    /// Suite kind of this instance.
    pub fn kind(&self) -> SuiteKind {
        self.kind
    }

    /// Benchmarks in the suite.
    pub fn benchmarks(&self) -> &[Benchmark] {
        &self.benchmarks
    }

    /// Looks a benchmark up by name.
    pub fn benchmark(&self, name: &str) -> Option<&Benchmark> {
        self.benchmarks.iter().find(|b| b.name() == name)
    }

    /// Iterator over all snippets of all benchmarks in the suite.
    pub fn iter_snippets(&self) -> impl Iterator<Item = &SnippetProfile> + '_ {
        self.benchmarks.iter().flat_map(|b| b.snippets().iter())
    }

    fn generate_app(kind: SuiteKind, spec: &AppSpec, rng: &mut ChaCha8Rng) -> Benchmark {
        let mut snippets = Vec::with_capacity(spec.snippets);
        // Applications show phase behaviour: runs of similar snippets rather than
        // independent draws.  Model this with a simple two-state Markov chain.
        let mut in_memory_phase = rng.gen_bool(spec.memory_phase_prob);
        for _ in 0..spec.snippets {
            // Persist in the current phase with high probability.
            if rng.gen_bool(0.25) {
                in_memory_phase = rng.gen_bool(spec.memory_phase_prob);
            }
            let jitter = |rng: &mut ChaCha8Rng, v: f64, rel: f64| -> f64 {
                v * (1.0 + rng.gen_range(-rel..rel))
            };
            let (phase, mpki, mem_access) = if in_memory_phase {
                (
                    SnippetPhase::Memory,
                    jitter(rng, spec.l2_mpki * spec.memory_phase_mpki_mult, 0.3),
                    jitter(rng, (spec.mem_access * 1.5).min(0.6), 0.2),
                )
            } else if spec.branch_pki > 6.0 && rng.gen_bool(0.3) {
                (
                    SnippetPhase::Branchy,
                    jitter(rng, spec.l2_mpki, 0.3),
                    jitter(rng, spec.mem_access, 0.2),
                )
            } else {
                (
                    SnippetPhase::Compute,
                    jitter(rng, spec.l2_mpki, 0.3),
                    jitter(rng, spec.mem_access, 0.2),
                )
            };
            let external = match kind {
                SuiteKind::MiBench => rng.gen_range(0.2..0.45),
                SuiteKind::Cortex => rng.gen_range(0.45..0.75),
                SuiteKind::Parsec => rng.gen_range(0.6..0.9),
            };
            snippets.push(SnippetProfile::new(
                SNIPPET_INSTRUCTIONS,
                phase,
                mem_access,
                mpki,
                external,
                jitter(rng, spec.branch_pki, 0.25),
                jitter(rng, spec.ilp, 0.15),
                spec.threads,
                spec.parallel_fraction,
            ));
        }
        Benchmark::new(spec.name, kind, snippets)
    }

    fn mibench_specs() -> Vec<AppSpec> {
        // Names follow Figure 4's offline (training) set.
        vec![
            AppSpec {
                name: "BML",
                snippets: 24,
                memory_phase_prob: 0.10,
                mem_access: 0.16,
                l2_mpki: 0.6,
                memory_phase_mpki_mult: 6.0,
                branch_pki: 2.0,
                ilp: 2.1,
                threads: 1,
                parallel_fraction: 0.0,
            },
            AppSpec {
                name: "Dijkstra",
                snippets: 22,
                memory_phase_prob: 0.20,
                mem_access: 0.24,
                l2_mpki: 1.8,
                memory_phase_mpki_mult: 5.0,
                branch_pki: 4.5,
                ilp: 1.6,
                threads: 1,
                parallel_fraction: 0.0,
            },
            AppSpec {
                name: "FFT",
                snippets: 26,
                memory_phase_prob: 0.15,
                mem_access: 0.20,
                l2_mpki: 1.2,
                memory_phase_mpki_mult: 5.0,
                branch_pki: 1.2,
                ilp: 2.4,
                threads: 1,
                parallel_fraction: 0.0,
            },
            AppSpec {
                name: "Patricia",
                snippets: 20,
                memory_phase_prob: 0.25,
                mem_access: 0.27,
                l2_mpki: 2.2,
                memory_phase_mpki_mult: 4.0,
                branch_pki: 6.5,
                ilp: 1.4,
                threads: 1,
                parallel_fraction: 0.0,
            },
            AppSpec {
                name: "Qsort",
                snippets: 20,
                memory_phase_prob: 0.18,
                mem_access: 0.25,
                l2_mpki: 1.6,
                memory_phase_mpki_mult: 4.5,
                branch_pki: 7.5,
                ilp: 1.5,
                threads: 1,
                parallel_fraction: 0.0,
            },
            AppSpec {
                name: "SHA",
                snippets: 18,
                memory_phase_prob: 0.08,
                mem_access: 0.14,
                l2_mpki: 0.4,
                memory_phase_mpki_mult: 6.0,
                branch_pki: 1.0,
                ilp: 2.3,
                threads: 1,
                parallel_fraction: 0.0,
            },
            AppSpec {
                name: "Blowfish",
                snippets: 20,
                memory_phase_prob: 0.08,
                mem_access: 0.15,
                l2_mpki: 0.5,
                memory_phase_mpki_mult: 6.0,
                branch_pki: 1.4,
                ilp: 2.2,
                threads: 1,
                parallel_fraction: 0.0,
            },
            AppSpec {
                name: "StringSearch",
                snippets: 16,
                memory_phase_prob: 0.15,
                mem_access: 0.22,
                l2_mpki: 1.0,
                memory_phase_mpki_mult: 5.0,
                branch_pki: 8.0,
                ilp: 1.5,
                threads: 1,
                parallel_fraction: 0.0,
            },
            AppSpec {
                name: "ADPCM",
                snippets: 18,
                memory_phase_prob: 0.07,
                mem_access: 0.13,
                l2_mpki: 0.3,
                memory_phase_mpki_mult: 6.0,
                branch_pki: 1.1,
                ilp: 2.5,
                threads: 1,
                parallel_fraction: 0.0,
            },
            AppSpec {
                name: "AES",
                snippets: 18,
                memory_phase_prob: 0.09,
                mem_access: 0.16,
                l2_mpki: 0.5,
                memory_phase_mpki_mult: 6.0,
                branch_pki: 0.9,
                ilp: 2.6,
                threads: 1,
                parallel_fraction: 0.0,
            },
        ]
    }

    fn cortex_specs() -> Vec<AppSpec> {
        vec![
            AppSpec {
                name: "Kmeans",
                snippets: 28,
                memory_phase_prob: 0.45,
                mem_access: 0.34,
                l2_mpki: 6.0,
                memory_phase_mpki_mult: 3.5,
                branch_pki: 3.0,
                ilp: 1.5,
                threads: 1,
                parallel_fraction: 0.0,
            },
            AppSpec {
                name: "Spectral",
                snippets: 26,
                memory_phase_prob: 0.35,
                mem_access: 0.30,
                l2_mpki: 4.0,
                memory_phase_mpki_mult: 3.5,
                branch_pki: 2.2,
                ilp: 1.8,
                threads: 1,
                parallel_fraction: 0.0,
            },
            AppSpec {
                name: "MotionEst",
                snippets: 24,
                memory_phase_prob: 0.40,
                mem_access: 0.33,
                l2_mpki: 5.0,
                memory_phase_mpki_mult: 3.0,
                branch_pki: 3.8,
                ilp: 1.6,
                threads: 1,
                parallel_fraction: 0.0,
            },
            AppSpec {
                name: "PCA",
                snippets: 26,
                memory_phase_prob: 0.42,
                mem_access: 0.36,
                l2_mpki: 5.5,
                memory_phase_mpki_mult: 3.2,
                branch_pki: 2.5,
                ilp: 1.7,
                threads: 1,
                parallel_fraction: 0.0,
            },
        ]
    }

    fn parsec_specs() -> Vec<AppSpec> {
        vec![
            AppSpec {
                name: "Blackscholes-2T",
                snippets: 30,
                memory_phase_prob: 0.55,
                mem_access: 0.40,
                l2_mpki: 9.0,
                memory_phase_mpki_mult: 2.5,
                branch_pki: 2.0,
                ilp: 1.8,
                threads: 2,
                parallel_fraction: 0.85,
            },
            AppSpec {
                name: "Blackscholes-4T",
                snippets: 30,
                memory_phase_prob: 0.55,
                mem_access: 0.40,
                l2_mpki: 9.5,
                memory_phase_mpki_mult: 2.5,
                branch_pki: 2.0,
                ilp: 1.8,
                threads: 4,
                parallel_fraction: 0.9,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = BenchmarkSuite::generate(SuiteKind::MiBench, 7);
        let b = BenchmarkSuite::generate(SuiteKind::MiBench, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = BenchmarkSuite::generate(SuiteKind::MiBench, 7);
        let b = BenchmarkSuite::generate(SuiteKind::MiBench, 8);
        assert_ne!(a, b);
    }

    #[test]
    fn mibench_has_ten_apps_with_paper_names() {
        let s = BenchmarkSuite::generate(SuiteKind::MiBench, 1);
        assert_eq!(s.benchmarks().len(), 10);
        assert!(s.benchmark("Dijkstra").is_some());
        assert!(s.benchmark("AES").is_some());
        assert!(s.benchmark("Kmeans").is_none());
    }

    #[test]
    fn cortex_and_parsec_match_figure4_names() {
        let c = BenchmarkSuite::generate(SuiteKind::Cortex, 1);
        let p = BenchmarkSuite::generate(SuiteKind::Parsec, 1);
        assert_eq!(c.benchmarks().len(), 4);
        assert_eq!(p.benchmarks().len(), 2);
        assert!(c.benchmark("MotionEst").is_some());
        assert!(p.benchmark("Blackscholes-4T").is_some());
    }

    #[test]
    fn from_specs_is_deterministic_and_respects_the_spec() {
        let spec = AppSpec {
            name: "synthetic-analytics",
            snippets: 12,
            memory_phase_prob: 0.5,
            mem_access: 0.3,
            l2_mpki: 5.0,
            memory_phase_mpki_mult: 3.0,
            branch_pki: 2.0,
            ilp: 1.6,
            threads: 2,
            parallel_fraction: 0.7,
        };
        let a = BenchmarkSuite::from_specs(SuiteKind::Cortex, &[spec], 99);
        let b = BenchmarkSuite::from_specs(SuiteKind::Cortex, &[spec], 99);
        assert_eq!(a, b);
        assert_eq!(a.benchmarks().len(), 1);
        let bench = &a.benchmarks()[0];
        assert_eq!(bench.name(), "synthetic-analytics");
        assert_eq!(bench.snippets().len(), 12);
        assert!(bench.snippets().iter().all(|s| s.thread_count == 2));
        assert_ne!(a, BenchmarkSuite::from_specs(SuiteKind::Cortex, &[spec], 100));
    }

    #[test]
    fn suite_distribution_shift_in_memory_intensity() {
        let mean = |k| {
            let s = BenchmarkSuite::generate(k, 3);
            let v: Vec<f64> = s.benchmarks().iter().map(|b| b.mean_memory_intensity()).collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let mi = mean(SuiteKind::MiBench);
        let cx = mean(SuiteKind::Cortex);
        let pa = mean(SuiteKind::Parsec);
        assert!(mi < cx, "Mi-Bench ({mi}) should be less memory bound than Cortex ({cx})");
        assert!(cx < pa, "Cortex ({cx}) should be less memory bound than PARSEC ({pa})");
    }

    #[test]
    fn parsec_is_multithreaded() {
        let p = BenchmarkSuite::generate(SuiteKind::Parsec, 1);
        assert!(p.iter_snippets().all(|s| s.thread_count >= 2));
        let m = BenchmarkSuite::generate(SuiteKind::MiBench, 1);
        assert!(m.iter_snippets().all(|s| s.thread_count == 1));
    }

    #[test]
    fn snippets_use_fixed_instruction_count() {
        let s = BenchmarkSuite::generate(SuiteKind::Cortex, 1);
        assert!(s.iter_snippets().all(|sn| sn.instructions == SNIPPET_INSTRUCTIONS));
    }
}
