//! An online-IL decision that does not retrain allocates nothing: the RLS
//! models, the candidate and policy features and the neighbourhood walk all
//! live on the stack, and a cloned policy keeps its buffer's capacity.  A
//! counting global allocator checks every decision of a copy of a
//! pretrained policy (the way a fleet lease serves), recording its model
//! deltas, over 120 snippets with a buffer that retrains every 15.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use soclearn_imitation::{OfflineIlPolicy, OnlineIlConfig, OnlineIlPolicy, PolicyModelKind};
use soclearn_oracle::{collect_demonstrations, OracleObjective};
use soclearn_soc_sim::{DvfsPolicy, PolicyDecision, SnippetCounters, SocPlatform, SocSimulator};
use soclearn_workloads::{ApplicationSequence, BenchmarkSuite, SuiteKind};

thread_local! {
    /// Allocations made by the current thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn a_decide_that_does_not_retrain_allocates_nothing() {
    let platform = SocPlatform::odroid_xu3();
    let suite = BenchmarkSuite::generate(SuiteKind::MiBench, 21);
    let seq = ApplicationSequence::from_benchmarks(suite.benchmarks().iter().take(2));
    let profiles: Vec<_> = seq.snippets().iter().map(|s| s.profile.clone()).collect();
    let mut sim = SocSimulator::new(platform.clone());
    let demos = collect_demonstrations(&mut sim, &profiles, OracleObjective::Energy);
    let offline = OfflineIlPolicy::train(&platform, &demos, PolicyModelKind::Mlp);
    let config = OnlineIlConfig { buffer_capacity: 15, ..OnlineIlConfig::default() };
    let mut prototype = OnlineIlPolicy::from_offline(offline, config);
    prototype.pretrain_models(&SocSimulator::new(platform.clone()), &profiles);

    let mut policy = prototype.clone();
    policy.enable_stats_recording();
    let parsec = BenchmarkSuite::generate(SuiteKind::Parsec, 33);
    let cortex = BenchmarkSuite::generate(SuiteKind::Cortex, 33);
    let seq = ApplicationSequence::from_benchmarks(
        cortex.benchmarks().iter().chain(parsec.benchmarks().iter()),
    );
    assert!(seq.snippets().len() >= 120);
    let mut sim = SocSimulator::new(platform.clone());
    let mut counters = SnippetCounters::default();
    let mut config = platform.max_config();
    let (mut plain, mut retrains) = (0, 0);
    for (i, snippet) in seq.snippets().iter().take(120).enumerate() {
        let updates = policy.stats().policy_updates;
        let before = allocations();
        config = policy.decide(&platform, PolicyDecision::new(&counters, config, i));
        let allocated = allocations() - before;
        if policy.stats().policy_updates == updates {
            assert_eq!(allocated, 0, "decision {i} allocated {allocated} times");
            plain += 1;
        } else {
            retrains += 1;
        }
        let result = sim.execute_snippet(&snippet.profile, config);
        policy.observe_outcome(result.energy_j, result.time_s);
        counters = result.counters;
    }
    assert_eq!(retrains, 120 / 15);
    assert_eq!(plain, 120 - retrains);
    let (power, time) = policy.take_recorded_stats().expect("recording is on");
    assert_eq!((power.samples(), time.samples()), (119, 119), "every update was applied");
}
