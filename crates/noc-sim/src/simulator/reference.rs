//! Test-only reference for [`super::NocSimulator::run`]: the first loop,
//! which allocated a `Vec` of link ids per packet, kept latencies as `f64`
//! and took p95 by cloning and fully sorting them.  Its arithmetic and its
//! draw order are the specification the in-place loop must match bit for
//! bit; the property test below compares the two on random meshes, patterns,
//! seeds, rates and lengths.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use super::{MeshConfig, NocSimulator, NocStats, TrafficPattern};

/// The first simulator, with the same defaults as [`NocSimulator::new`].
struct ReferenceNocSimulator {
    mesh: MeshConfig,
    pattern: TrafficPattern,
    rng: ChaCha8Rng,
    packet_service_cycles: u64,
    router_delay_cycles: u64,
}

impl ReferenceNocSimulator {
    fn new(mesh: MeshConfig, pattern: TrafficPattern, seed: u64) -> Self {
        Self {
            mesh,
            pattern,
            rng: ChaCha8Rng::seed_from_u64(seed),
            packet_service_cycles: 4,
            router_delay_cycles: 1,
        }
    }

    fn node_index(&self, x: usize, y: usize) -> usize {
        y * self.mesh.width + x
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

    fn route(&self, src: (usize, usize), dst: (usize, usize)) -> Vec<usize> {
        let mut links = Vec::new();
        let (mut x, mut y) = src;
        while x != dst.0 {
            let dir = if dst.0 > x { 0 } else { 1 };
            links.push(self.node_index(x, y) * 4 + dir);
            if dst.0 > x {
                x += 1;
            } else {
                x -= 1;
            }
        }
        while y != dst.1 {
            let dir = if dst.1 > y { 2 } else { 3 };
            links.push(self.node_index(x, y) * 4 + dir);
            if dst.1 > y {
                y += 1;
            } else {
                y -= 1;
            }
        }
        links
    }

    fn run(&mut self, injection_rate: f64, cycles: u64) -> NocStats {
        assert!(injection_rate > 0.0 && injection_rate <= 1.0, "injection rate must be in (0, 1]");
        assert!(cycles > 0, "simulation length must be positive");

        let link_count = self.mesh.nodes() * 4;
        let mut link_free_at = vec![0u64; link_count];
        let mut link_busy_cycles = vec![0u64; link_count];
        let mut latencies: Vec<f64> = Vec::new();
        let mut total_hops = 0usize;
        let warmup = cycles / 5;

        for cycle in 0..cycles {
            for y in 0..self.mesh.height {
                for x in 0..self.mesh.width {
                    if !self.rng.gen_bool(injection_rate.min(1.0)) {
                        continue;
                    }
                    let dst = self.destination(x, y);
                    if dst == (x, y) {
                        continue;
                    }
                    let links = self.route((x, y), dst);
                    let mut time = cycle;
                    for &link in &links {
                        let start = time.max(link_free_at[link]);
                        let finish = start + self.packet_service_cycles;
                        link_busy_cycles[link] += self.packet_service_cycles;
                        link_free_at[link] = finish;
                        time = finish + self.router_delay_cycles;
                    }
                    if cycle >= warmup {
                        latencies.push((time - cycle) as f64);
                        total_hops += links.len();
                    }
                }
            }
        }

        let packets = latencies.len();
        let avg_latency =
            if packets == 0 { 0.0 } else { latencies.iter().sum::<f64>() / packets as f64 };
        let p95 = if packets == 0 {
            0.0
        } else {
            let mut sorted = latencies.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            sorted[((packets - 1) as f64 * 0.95) as usize]
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

mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;
    use crate::simulator::tests::bits;

    const PATTERNS: [TrafficPattern; 3] =
        [TrafficPattern::Uniform, TrafficPattern::Hotspot, TrafficPattern::Transpose];

    /// A rate in (0, 1]: exactly 1.0, light, near saturation, or anywhere.
    fn rate() -> impl Strategy<Value = f64> {
        (0usize..4, 0.0f64..1.0).prop_map(|(kind, unit)| match kind {
            0 => 1.0,
            1 => (1.0 - unit) * 0.05,
            2 => (1.0 - unit) * 0.3,
            _ => 1.0 - unit,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Consecutive runs on one simulator, as `SvrLatencyModel::train`
        /// makes them, so the generator carries across runs too.
        #[test]
        fn in_place_run_matches_reference_bit_for_bit(
            width in 1usize..=8,
            height in 1usize..=8,
            pattern in 0usize..3,
            seed in 0u64..u64::MAX,
            runs in vec((rate(), 1u64..=3000), 1..=3),
        ) {
            let mesh = MeshConfig::new(width, height);
            let pattern = PATTERNS[pattern];
            let mut sim = NocSimulator::new(mesh, pattern, seed);
            let mut reference = ReferenceNocSimulator::new(mesh, pattern, seed);
            for (rate, cycles) in runs {
                let stats = sim.run(rate, cycles);
                let expected = reference.run(rate, cycles);
                prop_assert_eq!(bits(&stats), bits(&expected));
                prop_assert!(sim.rng == reference.rng, "generators drifted apart");
            }
        }
    }
}
