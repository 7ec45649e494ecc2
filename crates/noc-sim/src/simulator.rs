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
//!
//! The injection draw is `gen_bool(rate)`'s comparison in integers.
//! `gen_bool` takes one `next_u64` word `x` (two keystream words) and tests
//! `(x >> 11) as f64 * 2^-53 < rate`; the simulator tests
//! `(x >> 11) < ceil(rate * 2^53)` on the same word.  For a rate in (0, 1]
//! both sides are exact, so the two decide alike on every word.

use rand::SeedableRng;
use rand::{Rng, RngCore};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

#[cfg(test)]
mod reference;

/// Mesh dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
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

/// The integer form of `gen_bool(rate)`'s threshold: see [`injects`].
/// Scaling by 2^53 and rounding up are exact for a rate in (0, 1].
fn injection_threshold(rate: f64) -> u64 {
    (rate * (1u64 << 53) as f64).ceil() as u64
}

/// Whether the `next_u64` word `x` injects a packet.  `gen_bool` tests
/// `m * 2^-53 < rate` for the integer `m = x >> 11`, which holds exactly when
/// `m < ceil(rate * 2^53)`.
fn injects(x: u64, inject_below: u64) -> bool {
    (x >> 11) < inject_below
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
        let inject_below = injection_threshold(injection_rate);

        for cycle in 0..cycles {
            for y in 0..height {
                for x in 0..width {
                    if !injects(self.rng.next_u64(), inject_below) {
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

    /// The bits of all six fields, so runs compare exactly.
    pub(super) fn bits(stats: &NocStats) -> [u64; 6] {
        [
            stats.injection_rate.to_bits(),
            stats.packets_delivered as u64,
            stats.avg_latency_cycles.to_bits(),
            stats.p95_latency_cycles.to_bits(),
            stats.avg_hops.to_bits(),
            stats.max_link_utilization.to_bits(),
        ]
    }

    /// One monitoring window per traffic pattern and rate on the serving
    /// shape (4 x 4 mesh, 2,000 cycles, a fresh simulator per window),
    /// recorded from the single-block generator and the float injection
    /// draw.
    const PINNED_WINDOWS: [(TrafficPattern, [[u64; 6]; 3]); 3] = [
        (
            TrafficPattern::Uniform,
            [
                [
                    0x3fa9_9999_9999_999a,
                    1222,
                    0x402f_35a1_4f30_2eed,
                    0x403d_0000_0000_0000,
                    0x4005_66a6_c192_39d2,
                    0x3fcc_ed91_6872_b021,
                ],
                [
                    0x3fc0_a3d7_0a3d_70a4,
                    3166,
                    0x4035_2f24_102b_fcc4,
                    0x4042_0000_0000_0000,
                    0x4005_8b3d_4a8d_577d,
                    0x3fe2_4dd2_f1a9_fbe7,
                ],
                [
                    0x3fd2_8f5c_28f5_c28f,
                    7035,
                    0x4070_f4a4_eac8_f156,
                    0x407e_7000_0000_0000,
                    0x4005_5714_7cbe_3e84,
                    0x3ff0_0000_0000_0000,
                ],
            ],
        ),
        (
            TrafficPattern::Hotspot,
            [
                [
                    0x3fa9_9999_9999_999a,
                    1221,
                    0x4030_dfeb_df4a_d9a2,
                    0x4040_0000_0000_0000,
                    0x4005_bd53_a7f0_e778,
                    0x3fe2_7ef9_db22_d0e5,
                ],
                [
                    0x3fc0_a3d7_0a3d_70a4,
                    3151,
                    0x4062_d37a_6f4d_e9bd,
                    0x408a_9000_0000_0000,
                    0x4005_e870_7117_7ac2,
                    0x3ff0_0000_0000_0000,
                ],
                [
                    0x3fd2_8f5c_28f5_c28f,
                    6948,
                    0x408a_b7fe_d22a_269d,
                    0x40ae_6c00_0000_0000,
                    0x4006_2ccd_be44_ade9,
                    0x3ff0_0000_0000_0000,
                ],
            ],
        ),
        (
            TrafficPattern::Transpose,
            [
                [
                    0x3fa9_9999_9999_999a,
                    972,
                    0x4033_e781_948b_0fcd,
                    0x4040_8000_0000_0000,
                    0x400a_a23d_1a56_6307,
                    0x3fe4_5a1c_ac08_3127,
                ],
                [
                    0x3fc0_a3d7_0a3d_70a4,
                    2514,
                    0x4078_8872_0ca0_7bd3,
                    0x4091_9000_0000_0000,
                    0x400a_971d_87d7_44a2,
                    0x3ff0_0000_0000_0000,
                ],
                [
                    0x3fd2_8f5c_28f5_c28f,
                    5544,
                    0x409f_2f67_109f_959c,
                    0x40b1_ae00_0000_0000,
                    0x400a_918c_017a_4630,
                    0x3ff0_0000_0000_0000,
                ],
            ],
        ),
    ];

    #[test]
    fn monitoring_windows_are_pinned() {
        let mesh = MeshConfig::new(4, 4);
        for (pattern, expected) in PINNED_WINDOWS {
            for (rate, expected) in [0.05, 0.13, 0.29].into_iter().zip(expected) {
                let stats = NocSimulator::new(mesh, pattern, 0xC0FFEE).run(rate, 2_000);
                assert_eq!(bits(&stats), expected, "{pattern:?} at rate {rate}");
            }
        }
    }

    /// Two runs that continue one generator, as `SvrLatencyModel::train`
    /// makes them, recorded like [`PINNED_WINDOWS`].
    #[test]
    fn training_run_sequence_is_pinned() {
        let expected = [
            [
                0x3f94_7ae1_47ae_147b,
                973,
                0x402e_ca97_0586_7230,
                0x403c_0000_0000_0000,
                0x4006_5b08_aeb3_6fd2,
                0x3fd1_0624_dd2f_1aa0,
            ],
            [
                0x3fc1_eb85_1eb8_51ec,
                6838,
                0x407a_e74a_8056_41be,
                0x40a3_a200_0000_0000,
                0x4006_6e11_38ae_4f85,
                0x3ff0_0000_0000_0000,
            ],
        ];
        let mut sim = NocSimulator::new(MeshConfig::new(4, 4), TrafficPattern::Hotspot, 42);
        for (rate, expected) in [0.02, 0.14].into_iter().zip(expected) {
            assert_eq!(bits(&sim.run(rate, 4_000)), expected, "rate {rate}");
        }
    }

    /// A generator that returns one fixed `next_u64` word.
    struct Word(u64);

    impl RngCore for Word {
        fn next_u32(&mut self) -> u32 {
            unreachable!("gen_bool draws one u64")
        }

        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn injection_threshold_decides_as_gen_bool() {
        let unit = 1.0 / (1u64 << 53) as f64;
        let mut rates = Vec::new();
        let multiples = [1, 3, 1000, (1 << 52) + 1, (1 << 53) - 1].map(|k: u64| k as f64 * unit);
        for rate in [1.0, 0.5, 0.13].into_iter().chain(multiples) {
            let rate_bits = rate.to_bits();
            rates.extend([f64::from_bits(rate_bits - 1), rate, f64::from_bits(rate_bits + 1)]);
        }
        let mut words = ChaCha8Rng::seed_from_u64(11);
        for rate in rates.into_iter().filter(|&rate| rate > 0.0 && rate <= 1.0) {
            let threshold = injection_threshold(rate);
            // The last drawn value that injects, the first that does not (if
            // any: at rate 1 every word injects), each with the low bits the
            // shift drops cleared and set, then random words.
            let mut cases: Vec<u64> = [threshold - 1, threshold]
                .into_iter()
                .filter(|&m| m < 1 << 53)
                .flat_map(|m| [m << 11, (m << 11) | 0x7ff])
                .collect();
            cases.extend((0..64).map(|_| words.next_u64()));
            for x in cases {
                assert_eq!(
                    injects(x, threshold),
                    Word(x).gen_bool(rate),
                    "rate {rate:e} ({:#x}), word {x:#x}",
                    rate.to_bits()
                );
            }
        }
    }

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
