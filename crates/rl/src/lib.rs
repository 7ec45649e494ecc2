//! Reinforcement-learning baseline for SoC resource management.
//!
//! Section IV-A2 of the DAC 2020 paper discusses why reinforcement learning is
//! a poor fit for runtime resource management: table-based Q-learning needs
//! too much storage and exploration, and deep-Q approaches converge too slowly
//! for workloads that change within seconds.  Figures 3 and 4 quantify this by
//! measuring the tabular agent here, [`QTableAgent`] (Q-learning over a
//! discretised counter state), against the online-IL policy.
//!
//! The agent implements [`soclearn_soc_sim::DvfsPolicy`]; the reward is the
//! negative energy of the executed snippet, delivered through
//! [`soclearn_soc_sim::DvfsPolicy::observe_outcome`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use soclearn_online_learning::mlp::argmax;
use soclearn_soc_sim::{DvfsConfig, DvfsPolicy, PolicyDecision, SnippetCounters, SocPlatform};

/// Number of bins used when discretising utilization and memory intensity.
const STATE_BINS: usize = 4;

/// Q-learning rate α.
const LEARNING_RATE: f64 = 0.10;
/// Discount factor γ.
const DISCOUNT: f64 = 0.90;
/// Initial exploration rate ε.
const EPSILON_START: f64 = 0.6;
/// Final exploration rate after decay.
const EPSILON_END: f64 = 0.05;
/// Multiplicative ε decay applied after every decision.
const EPSILON_DECAY: f64 = 0.995;
/// Seed of the exploration RNG.
const EXPLORATION_SEED: u64 = 11;

/// Discretises the counter state into a small index usable by the Q-table.
fn discretise_state(
    platform: &SocPlatform,
    counters: &SnippetCounters,
    current: DvfsConfig,
) -> usize {
    let util_bin =
        ((counters.big_cluster_utilization * STATE_BINS as f64) as usize).min(STATE_BINS - 1);
    let kilo_instructions = (counters.instructions_retired / 1000.0).max(1e-9);
    let ext_pki = counters.external_memory_requests / kilo_instructions;
    // Memory intensity bins at roughly 2, 5 and 9 external requests per kilo-instruction.
    let mem_bin = if ext_pki < 2.0 {
        0
    } else if ext_pki < 5.0 {
        1
    } else if ext_pki < 9.0 {
        2
    } else {
        3
    };
    let config_index = platform.config_index(current);
    (config_index * STATE_BINS + util_bin) * STATE_BINS + mem_bin
}

/// Number of discrete states for a platform.
fn state_count(platform: &SocPlatform) -> usize {
    platform.config_count() * STATE_BINS * STATE_BINS
}

/// Table-based Q-learning agent over the discretised counter state.
#[derive(Debug, Clone, PartialEq)]
pub struct QTableAgent {
    q: Vec<Vec<f64>>,
    epsilon: f64,
    rng: ChaCha8Rng,
    last_state: Option<usize>,
    last_action: Option<usize>,
    pending_reward: Option<f64>,
    decisions: usize,
}

impl QTableAgent {
    /// Creates an agent for the given platform.
    pub fn new(platform: &SocPlatform) -> Self {
        Self {
            q: vec![vec![0.0; platform.config_count()]; state_count(platform)],
            epsilon: EPSILON_START,
            rng: ChaCha8Rng::seed_from_u64(EXPLORATION_SEED),
            last_state: None,
            last_action: None,
            pending_reward: None,
            decisions: 0,
        }
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of decisions taken so far.
    pub fn decisions(&self) -> usize {
        self.decisions
    }

    /// Storage footprint of the Q-table in bytes (the paper's argument against
    /// table-based RL in firmware).
    pub fn table_bytes(&self) -> usize {
        self.q.len() * self.q.first().map_or(0, Vec::len) * std::mem::size_of::<f64>()
    }
}

impl DvfsPolicy for QTableAgent {
    fn name(&self) -> &str {
        "rl-qtable"
    }

    fn decide(&mut self, platform: &SocPlatform, decision: PolicyDecision<'_>) -> DvfsConfig {
        let state = discretise_state(platform, decision.counters, decision.current_config);

        // Q-update for the previous transition once its reward has arrived.
        if let (Some(prev_state), Some(prev_action), Some(reward)) =
            (self.last_state, self.last_action, self.pending_reward.take())
        {
            let best_next = self.q[state].iter().cloned().fold(f64::MIN, f64::max);
            let target = reward + DISCOUNT * best_next;
            let entry = &mut self.q[prev_state][prev_action];
            *entry += LEARNING_RATE * (target - *entry);
        }

        // ε-greedy action selection.
        let action = if self.rng.gen_bool(self.epsilon) {
            self.rng.gen_range(0..platform.config_count())
        } else {
            argmax(&self.q[state])
        };
        self.epsilon = (self.epsilon * EPSILON_DECAY).max(EPSILON_END);
        self.last_state = Some(state);
        self.last_action = Some(action);
        self.decisions += 1;
        platform.config_from_index(action)
    }

    fn observe_outcome(&mut self, energy_j: f64, _time_s: f64) {
        // Negative energy as reward; scaled so typical snippets land around ±1.
        self.pending_reward = Some(-energy_j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soclearn_soc_sim::SocSimulator;
    use soclearn_workloads::{BenchmarkSuite, SuiteKind};

    fn run_agent(platform: &SocPlatform, agent: &mut dyn DvfsPolicy, snippets: usize) -> f64 {
        let suite = BenchmarkSuite::generate(SuiteKind::Cortex, 7);
        let profiles: Vec<_> = suite
            .benchmarks()
            .iter()
            .flat_map(|b| b.snippets().iter().cloned())
            .cycle()
            .take(snippets)
            .collect();
        let mut sim = SocSimulator::new(platform.clone());
        let mut counters = SnippetCounters::default();
        let mut config = platform.max_config();
        let mut total = 0.0;
        for (i, p) in profiles.iter().enumerate() {
            config = agent.decide(platform, PolicyDecision::new(&counters, config, i));
            let r = sim.execute_snippet(p, config);
            agent.observe_outcome(r.energy_j, r.time_s);
            counters = r.counters;
            total += r.energy_j;
        }
        total
    }

    #[test]
    fn qtable_agent_explores_then_exploits() {
        let platform = SocPlatform::small();
        let mut agent = QTableAgent::new(&platform);
        let initial_epsilon = agent.epsilon();
        let _ = run_agent(&platform, &mut agent, 150);
        assert!(agent.epsilon() < initial_epsilon);
        assert_eq!(agent.decisions(), 150);
        assert!(agent.table_bytes() > 1000, "table storage should be non-trivial");
    }

    #[test]
    fn qtable_learning_reduces_energy_over_time() {
        let platform = SocPlatform::small();
        let mut agent = QTableAgent::new(&platform);
        let early = run_agent(&platform, &mut agent, 120);
        let late = run_agent(&platform, &mut agent, 120);
        assert!(
            late < early * 1.05,
            "energy should not grow as the agent learns: early {early}, late {late}"
        );
    }

    #[test]
    fn rl_converges_slower_than_oracle_quality() {
        // The premise of Figures 3 and 4: within a realistic adaptation window the
        // RL agent stays measurably above Oracle energy.
        let platform = SocPlatform::small();
        let suite = BenchmarkSuite::generate(SuiteKind::Cortex, 7);
        let profiles: Vec<_> =
            suite.benchmarks().iter().flat_map(|b| b.snippets().iter().cloned()).collect();
        let mut oracle_sim = SocSimulator::new(platform.clone());
        let oracle = soclearn_oracle::OracleRun::execute(
            &mut oracle_sim,
            &profiles,
            soclearn_oracle::OracleObjective::Energy,
        );

        let mut agent = QTableAgent::new(&platform);
        let mut sim = SocSimulator::new(platform.clone());
        let mut counters = SnippetCounters::default();
        let mut config = platform.max_config();
        let mut rl_energy = 0.0;
        for (i, p) in profiles.iter().enumerate() {
            config = agent.decide(&platform, PolicyDecision::new(&counters, config, i));
            let r = sim.execute_snippet(p, config);
            agent.observe_outcome(r.energy_j, r.time_s);
            counters = r.counters;
            rl_energy += r.energy_j;
        }
        let ratio = rl_energy / oracle.total_energy_j;
        assert!(ratio > 1.02, "RL should remain above Oracle energy early on (ratio {ratio:.3})");
        assert!(ratio < 3.0, "but it should not be absurdly bad (ratio {ratio:.3})");
    }

    #[test]
    fn state_discretisation_is_in_range() {
        let platform = SocPlatform::odroid_xu3();
        let sim = SocSimulator::new(platform.clone());
        let profile = soclearn_workloads::SnippetProfile::memory_bound(100_000_000);
        for config in platform.configs() {
            let r = sim.evaluate_snippet(&profile, config);
            let s = discretise_state(&platform, &r.counters, config);
            assert!(s < state_count(&platform));
        }
        assert_eq!(state_count(&platform), platform.config_count() * 16);
    }
}
