//! Feature engineering shared by the IL policies.

use soclearn_soc_sim::{ClusterKind, DvfsConfig, SnippetCounters, SocPlatform};

/// Number of features produced by [`policy_features`].
pub const POLICY_FEATURE_DIM: usize = SnippetCounters::NORMALIZED_FEATURE_DIM + 2;

/// Builds the policy input vector from the counters observed during the previous
/// snippet and the configuration it executed at.
///
/// The vector is the scale-free counter representation (rates per instruction,
/// utilizations, chip power) extended with the normalised current frequency of
/// each cluster, which tells the policy where in the configuration space it is
/// operating.
pub fn policy_features(
    platform: &SocPlatform,
    counters: &SnippetCounters,
    current: DvfsConfig,
) -> [f64; POLICY_FEATURE_DIM] {
    with_config_terms(platform, &counters.normalized_features(), current)
}

/// [`policy_features`] from already normalised counter features (an Oracle
/// demonstration's state).
pub(crate) fn with_config_terms(
    platform: &SocPlatform,
    normalized: &[f64; SnippetCounters::NORMALIZED_FEATURE_DIM],
    current: DvfsConfig,
) -> [f64; POLICY_FEATURE_DIM] {
    let little_levels = (platform.level_count(ClusterKind::Little) - 1).max(1) as f64;
    let big_levels = (platform.level_count(ClusterKind::Big) - 1).max(1) as f64;
    let config_terms =
        [current.little_idx as f64 / little_levels, current.big_idx as f64 / big_levels];
    let mut f = [0.0; POLICY_FEATURE_DIM];
    let (counter_terms, tail) = f.split_at_mut(normalized.len());
    counter_terms.copy_from_slice(normalized);
    tail.copy_from_slice(&config_terms);
    f
}

/// Features used by the online power/performance models to estimate what a
/// *candidate* configuration would do to the previously observed snippet.
///
/// The workload-dependent rates come from the counters observed while running at
/// `observed` (the paper's approximation: counters are reused across candidate
/// configurations), while the frequency terms come from the candidate.  The
/// observed big-cluster frequency appears explicitly so that a linear model can
/// separate the frequency-scaled compute cycles from the frequency-independent
/// DRAM stall cycles baked into the observed CPI — without that term the model
/// systematically mispredicts candidates slower or faster than the observation
/// point.
pub fn candidate_features(
    platform: &SocPlatform,
    counters: &SnippetCounters,
    observed: DvfsConfig,
    candidate: DvfsConfig,
) -> [f64; CANDIDATE_FEATURE_DIM] {
    CandidateFeatureBasis::new(platform, counters, observed).features(platform, candidate)
}

/// The candidate-independent half of [`candidate_features`].
///
/// At every decision the online-IL runtime scores a whole neighbourhood of
/// candidate configurations against the *same* observed counters; only the
/// frequency terms differ between candidates.  Computing the basis once and
/// instantiating it per candidate hoists the counter arithmetic out of the
/// candidate loop, and the produced vectors are bit-identical to calling
/// [`candidate_features`] per candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateFeatureBasis {
    f_obs_big_ghz: f64,
    kilo_instructions: f64,
    cpi: f64,
    ext_pki: f64,
    big_cluster_utilization: f64,
}

impl CandidateFeatureBasis {
    /// Builds the basis from the counters observed while running at `observed`.
    pub fn new(platform: &SocPlatform, counters: &SnippetCounters, observed: DvfsConfig) -> Self {
        let f_obs_big_ghz = platform.frequency(ClusterKind::Big, observed) / 1e9;
        let instructions = counters.instructions_retired.max(1.0);
        let kilo_instructions = (instructions / 1000.0).max(1e-9);
        Self {
            f_obs_big_ghz,
            kilo_instructions,
            cpi: counters.cpu_cycles_total / instructions,
            ext_pki: counters.external_memory_requests / kilo_instructions,
            big_cluster_utilization: counters.big_cluster_utilization,
        }
    }

    /// Kilo-instructions of the observed snippet; the scale factor that turns a
    /// per-kilo-instruction time prediction back into absolute seconds.
    pub fn kilo_instructions(&self) -> f64 {
        self.kilo_instructions
    }

    /// Instantiates the feature vector for one candidate configuration.
    pub fn features(
        &self,
        platform: &SocPlatform,
        candidate: DvfsConfig,
    ) -> [f64; CANDIDATE_FEATURE_DIM] {
        let f_little_ghz = platform.frequency(ClusterKind::Little, candidate) / 1e9;
        let f_big_ghz = platform.frequency(ClusterKind::Big, candidate) / 1e9;
        [
            // Frequency-scaled compute term: cycles carried over from the observation,
            // executed at the candidate's big-cluster frequency.
            self.cpi / f_big_ghz,
            // Correction term: the part of the observed CPI that was DRAM stall scales
            // with the observed frequency, letting the model subtract it back out.
            self.ext_pki * self.f_obs_big_ghz / f_big_ghz,
            // Frequency-independent memory term.
            self.ext_pki,
            // Dynamic-power proxies for both clusters (V roughly tracks f, so the
            // switching power scales like f³ to first order).
            f_big_ghz * f_big_ghz * f_big_ghz,
            f_little_ghz * f_little_ghz * f_little_ghz,
            // Linear frequency terms.
            f_big_ghz,
            f_little_ghz,
            // Occupancy of the big cluster.
            self.big_cluster_utilization,
            // Bias.
            1.0,
        ]
    }
}

/// Number of features produced by [`candidate_features`].
pub const CANDIDATE_FEATURE_DIM: usize = 9;

#[cfg(test)]
mod tests {
    use super::*;
    use soclearn_soc_sim::{SocPlatform, SocSimulator};
    use soclearn_workloads::SnippetProfile;

    #[test]
    fn policy_features_have_documented_dimension() {
        let platform = SocPlatform::odroid_xu3();
        let sim = SocSimulator::new(platform.clone());
        let r = sim
            .evaluate_snippet(&SnippetProfile::compute_bound(100_000_000), DvfsConfig::new(2, 5));
        let f = policy_features(&platform, &r.counters, r.config);
        assert_eq!(f.len(), POLICY_FEATURE_DIM);
        assert!(f.iter().all(|v| v.is_finite()));
        // The config terms are normalised to [0, 1].
        assert!(f[POLICY_FEATURE_DIM - 1] <= 1.0 && f[POLICY_FEATURE_DIM - 2] <= 1.0);
    }

    #[test]
    fn candidate_features_react_to_candidate_frequency() {
        let platform = SocPlatform::odroid_xu3();
        let sim = SocSimulator::new(platform.clone());
        let observed = DvfsConfig::new(2, 3);
        let r = sim.evaluate_snippet(&SnippetProfile::memory_bound(100_000_000), observed);
        let slow = candidate_features(&platform, &r.counters, observed, DvfsConfig::new(0, 0));
        let fast = candidate_features(&platform, &r.counters, observed, DvfsConfig::new(4, 7));
        assert_eq!(slow.len(), CANDIDATE_FEATURE_DIM);
        assert!(fast[3] > slow[3], "dynamic-power proxy must grow with candidate frequency");
        assert!(fast[0] < slow[0], "compute-time term must shrink with candidate frequency");
        // The pure memory term is workload-only, identical across candidates.
        assert_eq!(slow[2], fast[2]);
        // The stall-correction term scales inversely with the candidate frequency.
        assert!(fast[1] < slow[1]);
    }

    #[test]
    fn basis_matches_per_candidate_features_bitwise() {
        let platform = SocPlatform::odroid_xu3();
        let sim = SocSimulator::new(platform.clone());
        let observed = DvfsConfig::new(1, 4);
        let r = sim.evaluate_snippet(&SnippetProfile::memory_bound(100_000_000), observed);
        let basis = CandidateFeatureBasis::new(&platform, &r.counters, observed);
        for candidate in platform.configs() {
            let direct = candidate_features(&platform, &r.counters, observed, candidate);
            let via_basis = basis.features(&platform, candidate);
            assert_eq!(direct, via_basis);
        }
        assert!(basis.kilo_instructions() > 0.0);
    }

    #[test]
    fn default_counters_produce_finite_candidate_features() {
        let platform = SocPlatform::odroid_xu3();
        let c = DvfsConfig::new(0, 0);
        let f = candidate_features(&platform, &SnippetCounters::default(), c, c);
        assert!(f.iter().all(|v| v.is_finite()));
    }
}
