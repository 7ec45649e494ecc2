//! 2-D mesh NoC queueing simulator.
//!
//! The simulator models a `W × H` mesh with dimension-ordered (XY) routing and
//! store-and-forward link queues: every link is a FIFO server that forwards
//! one packet every `packet_service_cycles`.  Packets are injected at each
//! node by a Bernoulli process and the simulator tracks per-packet end-to-end
//! latency.  This is deliberately simpler than a flit-level wormhole
//! simulator, but it reproduces the property every NoC latency model has to
//! capture: latency grows gently with injection rate until links approach
//! saturation, then explodes.
//!
//! The order of draws from the seeded generator is part of the contract,
//! because every recorded trace and trained latency model depends on it:
//! each cycle makes one Bernoulli injection draw per node in row-major order
//! (`y` outer, `x` inner); destination draws follow an injection only; and a
//! simulator keeps its generator across runs, so consecutive runs (as in
//! [`crate::SvrLatencyModel::train`]'s rates) continue one stream.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

#[cfg(test)]
mod reference;

/// Mesh dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MeshConfig {
    /// Number of columns.
    pub width: usize,
    /// Number of rows.
    pub height: usize,
}

impl MeshConfig {
    /// Creates a mesh configuration.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        Self { width, height }
    }

    /// Number of nodes in the mesh.
    pub fn nodes(&self) -> usize {
        self.width * self.height
    }

    /// Average hop count under uniform random traffic (Manhattan distance mean).
    pub fn average_hops_uniform(&self) -> f64 {
        // Mean |dx| + |dy| for independent uniform source/destination, plus one
        // ejection hop.
        let mean_abs = |n: usize| -> f64 {
            if n <= 1 {
                return 0.0;
            }
            let n = n as f64;
            (n * n - 1.0) / (3.0 * n)
        };
        mean_abs(self.width) + mean_abs(self.height) + 1.0
    }
}

/// Synthetic traffic patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrafficPattern {
    /// Every node sends to a uniformly random destination.
    Uniform,
    /// A fraction of the traffic targets a single hotspot node (the memory
    /// controller corner), the rest is uniform.
    Hotspot,
    /// Node `(x, y)` sends to node `(y, x)`.
    Transpose,
}

/// Aggregate statistics of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NocStats {
    /// Offered injection rate, packets per node per cycle.
    pub injection_rate: f64,
    /// Number of packets that reached their destination.
    pub packets_delivered: usize,
    /// Average end-to-end packet latency in cycles.
    pub avg_latency_cycles: f64,
    /// 95th-percentile latency in cycles.
    pub p95_latency_cycles: f64,
    /// Average hop count of delivered packets.
    pub avg_hops: f64,
    /// Average utilization of the busiest link, in `[0, 1]`.
    pub max_link_utilization: f64,
}

/// The mesh NoC simulator.
#[derive(Debug, Clone)]
pub struct NocSimulator {
    mesh: MeshConfig,
    pattern: TrafficPattern,
    rng: ChaCha8Rng,
    /// Cycles a link needs to forward one packet (packet length in flits).
    packet_service_cycles: u64,
    /// Router pipeline delay per hop, cycles.
    router_delay_cycles: u64,
}

impl NocSimulator {
    /// Creates a simulator with a four-flit packet service time and one-cycle
    /// router delay.
    pub fn new(mesh: MeshConfig, pattern: TrafficPattern, seed: u64) -> Self {
        Self {
            mesh,
            pattern,
            rng: ChaCha8Rng::seed_from_u64(seed),
            packet_service_cycles: 4,
            router_delay_cycles: 1,
        }
    }

    /// Mesh configuration.
    pub fn mesh(&self) -> MeshConfig {
        self.mesh
    }

    /// Traffic pattern.
    pub fn pattern(&self) -> TrafficPattern {
        self.pattern
    }

    /// Packet service time per link, cycles.
    pub fn packet_service_cycles(&self) -> u64 {
        self.packet_service_cycles
    }

    fn destination(&mut self, src_x: usize, src_y: usize) -> (usize, usize) {
        match self.pattern {
            TrafficPattern::Uniform => {
                (self.rng.gen_range(0..self.mesh.width), self.rng.gen_range(0..self.mesh.height))
            }
            TrafficPattern::Hotspot => {
                if self.rng.gen_bool(0.2) {
                    (self.mesh.width - 1, self.mesh.height - 1)
                } else {
                    (
                        self.rng.gen_range(0..self.mesh.width),
                        self.rng.gen_range(0..self.mesh.height),
                    )
                }
            }
            TrafficPattern::Transpose => (src_y % self.mesh.width, src_x % self.mesh.height),
        }
    }

    /// Runs the simulation for `cycles` cycles at the given injection rate
    /// (packets per node per cycle) and returns aggregate statistics.
    ///
    /// # Panics
    ///
    /// Panics if the injection rate is not in `(0, 1]` or `cycles` is zero.
    pub fn run(&mut self, injection_rate: f64, cycles: u64) -> NocStats {
        assert!(injection_rate > 0.0 && injection_rate <= 1.0, "injection rate must be in (0, 1]");
        assert!(cycles > 0, "simulation length must be positive");

        let MeshConfig { width, height } = self.mesh;
        // Four outgoing links per node, id `node * 4 + direction` (E, W, N, S).
        let link_count = self.mesh.nodes() * 4;
        // Earliest cycle at which each link becomes free again.
        let mut link_free_at = vec![0u64; link_count];
        let mut link_busy_cycles = vec![0u64; link_count];
        let mut latencies: Vec<u64> = Vec::new();
        let mut total_hops = 0usize;

        // Warm-up fraction: packets injected in the first 20% are simulated but not
        // counted, so queues reach steady state before measurement.
        let warmup = cycles / 5;

        for cycle in 0..cycles {
            for y in 0..height {
                for x in 0..width {
                    if !self.rng.gen_bool(injection_rate) {
                        continue;
                    }
                    let dst = self.destination(x, y);
                    if dst == (x, y) {
                        continue;
                    }
                    // Walk the XY route: along the row first, then the column.
                    let (mut at_x, mut at_y) = (x, y);
                    let mut hops = 0;
                    let mut time = cycle;
                    while (at_x, at_y) != dst {
                        let node = at_y * width + at_x;
                        let direction = if at_x < dst.0 {
                            at_x += 1;
                            0
                        } else if at_x > dst.0 {
                            at_x -= 1;
                            1
                        } else if at_y < dst.1 {
                            at_y += 1;
                            2
                        } else {
                            at_y -= 1;
                            3
                        };
                        let link = node * 4 + direction;
                        // Wait for the link to become free, then occupy it.
                        let start = time.max(link_free_at[link]);
                        let finish = start + self.packet_service_cycles;
                        link_busy_cycles[link] += self.packet_service_cycles;
                        link_free_at[link] = finish;
                        time = finish + self.router_delay_cycles;
                        hops += 1;
                    }
                    if cycle >= warmup {
                        latencies.push(time - cycle);
                        total_hops += hops;
                    }
                }
            }
        }

        let packets = latencies.len();
        // Integer latencies sum exactly, and so does an f64 accumulation while
        // the sum stays below 2^53 cycles, so this is the f64 mean.
        let avg_latency =
            if packets == 0 { 0.0 } else { latencies.iter().sum::<u64>() as f64 / packets as f64 };
        let p95 = if packets == 0 {
            0.0
        } else {
            let rank = ((packets - 1) as f64 * 0.95) as usize;
            *latencies.select_nth_unstable(rank).1 as f64
        };
        let max_util = link_busy_cycles
            .iter()
            .map(|&b| b as f64 / cycles as f64)
            .fold(0.0, f64::max)
            .min(1.0);

        NocStats {
            injection_rate,
            packets_delivered: packets,
            avg_latency_cycles: avg_latency,
            p95_latency_cycles: p95,
            avg_hops: if packets == 0 { 0.0 } else { total_hops as f64 / packets as f64 },
            max_link_utilization: max_util,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_grows_with_injection_rate() {
        let mut sim = NocSimulator::new(MeshConfig::new(4, 4), TrafficPattern::Uniform, 1);
        let low = sim.run(0.01, 20_000);
        let high = sim.run(0.10, 20_000);
        assert!(low.packets_delivered > 0 && high.packets_delivered > 0);
        assert!(
            high.avg_latency_cycles > low.avg_latency_cycles,
            "latency should rise with load: {} vs {}",
            low.avg_latency_cycles,
            high.avg_latency_cycles
        );
        assert!(high.max_link_utilization > low.max_link_utilization);
    }

    #[test]
    fn zero_load_latency_close_to_hop_delay() {
        let mut sim = NocSimulator::new(MeshConfig::new(4, 4), TrafficPattern::Uniform, 2);
        let stats = sim.run(0.002, 50_000);
        let expected = stats.avg_hops * (sim.packet_service_cycles() + 1) as f64;
        assert!(
            (stats.avg_latency_cycles - expected).abs() / expected < 0.25,
            "zero-load latency {} should be close to {}",
            stats.avg_latency_cycles,
            expected
        );
    }

    #[test]
    fn hotspot_traffic_is_slower_than_uniform() {
        let mut uniform = NocSimulator::new(MeshConfig::new(6, 6), TrafficPattern::Uniform, 3);
        let mut hotspot = NocSimulator::new(MeshConfig::new(6, 6), TrafficPattern::Hotspot, 3);
        let u = uniform.run(0.06, 20_000);
        let h = hotspot.run(0.06, 20_000);
        assert!(h.avg_latency_cycles > u.avg_latency_cycles);
    }

    #[test]
    fn bigger_mesh_has_more_hops() {
        let mut small = NocSimulator::new(MeshConfig::new(4, 4), TrafficPattern::Uniform, 4);
        let mut large = NocSimulator::new(MeshConfig::new(8, 8), TrafficPattern::Uniform, 4);
        let s = small.run(0.02, 20_000);
        let l = large.run(0.02, 20_000);
        assert!(l.avg_hops > s.avg_hops);
        assert!(
            MeshConfig::new(8, 8).average_hops_uniform()
                > MeshConfig::new(4, 4).average_hops_uniform()
        );
    }

    #[test]
    fn p95_is_at_least_average() {
        let mut sim = NocSimulator::new(MeshConfig::new(4, 4), TrafficPattern::Uniform, 5);
        let stats = sim.run(0.08, 20_000);
        assert!(stats.p95_latency_cycles >= stats.avg_latency_cycles * 0.9);
    }

    #[test]
    fn transpose_pattern_is_deterministic_destination() {
        let mut sim = NocSimulator::new(MeshConfig::new(4, 4), TrafficPattern::Transpose, 6);
        let stats = sim.run(0.05, 10_000);
        assert!(stats.packets_delivered > 0);
    }

    #[test]
    #[should_panic(expected = "injection rate")]
    fn rejects_bad_injection_rate() {
        let mut sim = NocSimulator::new(MeshConfig::new(4, 4), TrafficPattern::Uniform, 7);
        let _ = sim.run(1.5, 1000);
    }

    #[test]
    fn average_hops_formula_sane() {
        let m = MeshConfig::new(1, 1);
        assert!((m.average_hops_uniform() - 1.0).abs() < 1e-12);
        let m = MeshConfig::new(4, 4);
        assert!(m.average_hops_uniform() > 3.0 && m.average_hops_uniform() < 4.0);
    }
}
