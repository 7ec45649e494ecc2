//! A fleet lease's first decision copies only per-user state and shares the
//! base's scaler and networks, and its later decisions allocate nothing
//! until it retrains.  A counting global allocator checks every decision of
//! four leases from one `TieredModelStore`, two per scenario family: each
//! user serves 20 snippets with a buffer of 15, so every lease retrains once,
//! at its fifteenth decision, and takes its own copy of the networks there.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use soclearn_runtime::{ArtifactStore, ExperimentScale, OnlineIlConfig, TieredModelStore};
use soclearn_soc_sim::{DvfsPolicy, PolicyDecision, SnippetCounters, SocPlatform, SocSimulator};

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
fn a_lease_allocates_only_its_box_and_buffer() {
    const SNIPPETS: usize = 20;
    const BUFFER: usize = 15;
    let platform = SocPlatform::odroid_xu3();
    let artifacts = ArtifactStore::global().get_or_build(&platform, ExperimentScale::Quick);
    let config = OnlineIlConfig { buffer_capacity: BUFFER, ..OnlineIlConfig::default() };
    // No fleet merge during the test: a merge refits the base, which is
    // not a decision's cost.
    let store = Arc::new(TieredModelStore::new(&artifacts, config, 1_000));
    let profiles = &artifacts.training_profiles[..SNIPPETS];
    let families: Vec<Arc<str>> = vec![Arc::from("first"), Arc::from("second")];

    let mut sim = SocSimulator::new(platform.clone());
    for (user, family) in
        [&families[0], &families[0], &families[1], &families[1]].into_iter().enumerate()
    {
        let mut lease = store.lease(Arc::clone(family));
        sim.reset();
        let mut counters = SnippetCounters::default();
        let mut current = platform.max_config();
        for (i, profile) in profiles.iter().enumerate() {
            let before = allocations();
            current = lease.decide(&platform, PolicyDecision::new(&counters, current, i));
            let allocated = allocations() - before;
            if i == 0 {
                // The box and the buffer; a family's first lease also adds
                // the family's name to the store's table, which may grow.
                let bound = if user % 2 == 0 { 4 } else { 2 };
                assert!(allocated <= bound, "user {user}'s first decision allocated {allocated}");
            } else if i + 1 != BUFFER {
                assert_eq!(allocated, 0, "user {user}'s decision {i} allocated {allocated} times");
            }
            let result = sim.execute_snippet(profile, current);
            lease.observe_outcome(result.energy_j, result.time_s);
            counters = result.counters;
        }
    }
    assert_eq!(store.snapshot().deltas_materialized, 4);
}
