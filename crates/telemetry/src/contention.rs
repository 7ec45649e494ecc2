//! The contention-observed lock wrapper, [`ObservedMutex`].
//!
//! A serving stack whose throughput stays flat as workers are added
//! serializes on shared state — but a plain `std::sync::Mutex` leaves no
//! trace of *where* the serial time goes.  The wrapper is a drop-in
//! replacement that gives every lock a **site name** and records, per site,
//! into the [`TelemetryRegistry`]:
//!
//! - `lock_acquisitions_total{site}` — one count per acquisition,
//! - `lock_contended_total{site}` — acquisitions that had to block,
//! - `lock_wait_ns{site}` — a [`QuantileSketch`](crate::QuantileSketch) of
//!   time spent waiting for the lock (uncontended grabs enter as deferred
//!   zero samples, so the snapshotted sketch count always equals the
//!   acquisition count),
//! - `lock_hold_ns{site}` — a sketch of time the lock was held by
//!   acquisitions that blocked (timing every uncontended hold would put two
//!   clock reads and a sketch update on the fast path; the contended holds
//!   are the ones that diagnose a serialization site).
//!
//! # Cost model
//!
//! Until [`ObservedMutex::attach`] connects a lock to a registry, an
//! acquisition costs **one relaxed atomic add** on top of the plain lock —
//! no `Instant::now()`, no sketch update — so the wrapper can live
//! permanently at the choke points (sweep-cache shards and platform
//! registry, model store, queue model, span ring) without taxing
//! un-instrumented runs.  Once attached, an **uncontended** acquisition
//! costs two relaxed atomic adds (the acquisition counter and the wait
//! sketch's deferred-zero channel,
//! [`SketchCell::record_zero`](crate::registry::SketchCell::record_zero)) —
//! still no clock read and no mutex beyond the lock itself.  Only a
//! **contended** acquisition, already paying a block, takes the two
//! `Instant` readings and two sketch-mutex updates.
//!
//! Wait and hold times are **wall-clock** measurements of real
//! serialization, even under the virtual clock — they feed the metrics
//! export and the human obs summary, never the byte-identical trace or span
//! dump, which derive from schedule-relative stamps only.
//!
//! # Measurement invariants (property-tested)
//!
//! For an attached site, after any sequence of acquisitions: the snapshotted
//! wait sketch count equals `lock_acquisitions_total`, the hold sketch count
//! equals `lock_contended_total`, and every recorded wait/hold is bounded by
//! the wall-clock span enclosing the acquisition (waits start before the
//! grab, holds are stamped before the enclosing span's end).  Per-site
//! sketches merge associatively like any other
//! [`QuantileSketch`](crate::QuantileSketch).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, TryLockError};
use std::time::Instant;

use crate::registry::{Counter, SketchCell, TelemetryRegistry};

/// Registry handles for one named lock site. Sites with the same name share
/// handles (the registry's get-or-register semantics), so e.g. all sixteen
/// sweep-cache shard locks aggregate under one `site="sweep_cache_shard"`.
#[derive(Debug, Clone)]
struct SiteObserver {
    acquisitions: Arc<Counter>,
    contended: Arc<Counter>,
    wait_ns: Arc<SketchCell>,
    hold_ns: Arc<SketchCell>,
}

impl SiteObserver {
    fn register(registry: &TelemetryRegistry, site: &str) -> Self {
        let labels = [("site", site)];
        Self {
            acquisitions: registry.counter("lock_acquisitions_total", &labels),
            contended: registry.counter("lock_contended_total", &labels),
            wait_ns: registry.sketch("lock_wait_ns", &labels),
            hold_ns: registry.sketch("lock_hold_ns", &labels),
        }
    }

    /// Fold `n` pre-attach acquisitions in: they carry no timing, so they
    /// enter the wait sketch as deferred zero samples, keeping the
    /// samples-equal-acquisitions invariant intact.  (They never blocked
    /// measurably, so the hold sketch — contended holds only — gets none.)
    fn fold_untimed(&self, n: u64) {
        if n == 0 {
            return;
        }
        self.acquisitions.add(n);
        self.wait_ns.record_zero_n(n);
    }
}

/// Shared site state: the name, the pre-attach acquisition tally and the
/// late-bound registry handles.
#[derive(Debug)]
struct LockSite {
    name: String,
    /// Acquisitions made before `attach`; folded into the registry counter
    /// (as untimed zero samples) at attach time.
    pending: AtomicU64,
    observer: OnceLock<SiteObserver>,
}

impl LockSite {
    fn new(name: &str) -> Self {
        Self { name: name.to_string(), pending: AtomicU64::new(0), observer: OnceLock::new() }
    }

    fn attach(&self, registry: &TelemetryRegistry) {
        let observer = SiteObserver::register(registry, &self.name);
        observer.fold_untimed(self.pending.swap(0, Ordering::Relaxed));
        // First attach wins; a second attach (same or different registry) is
        // ignored — locks are expected to be attached once, before the run.
        let _ = self.observer.set(observer);
    }

    fn acquisitions(&self) -> u64 {
        self.pending.load(Ordering::Relaxed)
            + self.observer.get().map_or(0, |o| o.acquisitions.get())
    }
}

/// A [`Mutex`] with a named contention-observation site. See the module
/// docs for the recorded metrics and the cost model.
#[derive(Debug)]
pub struct ObservedMutex<T> {
    site: LockSite,
    inner: Mutex<T>,
}

impl<T> ObservedMutex<T> {
    /// Wrap `value` in a mutex observed under `site`
    /// (e.g. `"sweep_cache_shard"`).
    pub fn new(site: &str, value: T) -> Self {
        Self { site: LockSite::new(site), inner: Mutex::new(value) }
    }

    /// Connect this lock's site to a registry. Before attachment an
    /// acquisition costs one relaxed atomic add; afterwards waits and holds
    /// are timed into the per-site sketches. First attach wins.
    pub fn attach(&self, registry: &TelemetryRegistry) {
        self.site.attach(registry);
    }

    /// The site name this lock records under.
    pub fn site(&self) -> &str {
        &self.site.name
    }

    /// Total acquisitions so far (pre-attach tally plus registry counter).
    pub fn acquisitions(&self) -> u64 {
        self.site.acquisitions()
    }

    /// Acquire the lock, recording the acquisition (and, when attached,
    /// the wait time; the hold time is recorded when the guard drops).
    ///
    /// Panics if the lock is poisoned, like the `expect`-on-lock idiom used
    /// across the workspace.
    pub fn lock(&self) -> ObservedMutexGuard<'_, T> {
        match self.site.observer.get() {
            None => {
                self.site.pending.fetch_add(1, Ordering::Relaxed);
                let inner = self
                    .inner
                    .lock()
                    .unwrap_or_else(|_| panic!("lock poisoned at site {}", self.site.name));
                ObservedMutexGuard { inner: Some(inner), timing: None }
            }
            Some(observer) => {
                observer.acquisitions.inc();
                match self.inner.try_lock() {
                    // Uncontended fast path: two relaxed atomic adds, no
                    // clock read, no sketch mutex (see the cost model).
                    Ok(inner) => {
                        observer.wait_ns.record_zero();
                        ObservedMutexGuard { inner: Some(inner), timing: None }
                    }
                    Err(TryLockError::WouldBlock) => {
                        observer.contended.inc();
                        let before = Instant::now();
                        let inner = self
                            .inner
                            .lock()
                            .unwrap_or_else(|_| panic!("lock poisoned at site {}", self.site.name));
                        observer.wait_ns.record(before.elapsed().as_nanos() as u64);
                        // The hold clock starts after the wait sample is
                        // recorded, so sketch-update time never inflates
                        // the hold.
                        ObservedMutexGuard {
                            inner: Some(inner),
                            timing: Some((Instant::now(), observer)),
                        }
                    }
                    Err(TryLockError::Poisoned(_)) => {
                        panic!("lock poisoned at site {}", self.site.name)
                    }
                }
            }
        }
    }

    /// Block on `cond` while `condition` holds, through the observed guard.
    ///
    /// The current hold sample ends when the condvar takes the lock; the
    /// wake-up reacquisition counts as a **new acquisition** whose wait
    /// sample is the time spent blocked on the condvar — condvar blocking
    /// *is* serialization at this site, and counting it this way preserves
    /// the samples-equal-acquisitions invariant.
    pub fn wait_while<'a, F>(
        &'a self,
        mut guard: ObservedMutexGuard<'a, T>,
        cond: &Condvar,
        mut condition: F,
    ) -> ObservedMutexGuard<'a, T>
    where
        F: FnMut(&mut T) -> bool,
    {
        // Close out the current hold before handing the lock to the condvar.
        if let Some((held_since, observer)) = guard.timing.take() {
            observer.hold_ns.record(held_since.elapsed().as_nanos() as u64);
        }
        let mut inner = guard.inner.take().expect("observed guard already released");
        drop(guard);
        match self.site.observer.get() {
            None => {
                self.site.pending.fetch_add(1, Ordering::Relaxed);
                let inner = cond
                    .wait_while(inner, |state| condition(state))
                    .unwrap_or_else(|_| panic!("lock poisoned at site {}", self.site.name));
                ObservedMutexGuard { inner: Some(inner), timing: None }
            }
            Some(observer) => {
                observer.acquisitions.inc();
                if !condition(&mut inner) {
                    // The predicate already fails: the condvar hands the
                    // lock straight back, so this is the uncontended path.
                    observer.wait_ns.record_zero();
                    let inner = cond
                        .wait_while(inner, |state| condition(state))
                        .unwrap_or_else(|_| panic!("lock poisoned at site {}", self.site.name));
                    return ObservedMutexGuard { inner: Some(inner), timing: None };
                }
                observer.contended.inc();
                let before = Instant::now();
                let inner = cond
                    .wait_while(inner, |state| condition(state))
                    .unwrap_or_else(|_| panic!("lock poisoned at site {}", self.site.name));
                observer.wait_ns.record(before.elapsed().as_nanos() as u64);
                ObservedMutexGuard { inner: Some(inner), timing: Some((Instant::now(), observer)) }
            }
        }
    }
}

/// Guard for [`ObservedMutex`]: releases the lock, then records the hold
/// time (release-before-record, so sketch updates never extend the hold
/// other threads observe).
#[derive(Debug)]
pub struct ObservedMutexGuard<'a, T> {
    inner: Option<MutexGuard<'a, T>>,
    timing: Option<(Instant, &'a SiteObserver)>,
}

impl<T> std::ops::Deref for ObservedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("observed guard already released")
    }
}

impl<T> std::ops::DerefMut for ObservedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("observed guard already released")
    }
}

impl<T> Drop for ObservedMutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(guard) = self.inner.take() {
            drop(guard); // release first …
            if let Some((held_since, observer)) = self.timing.take() {
                // … then stamp the hold, so the recorded value bounds the
                // true hold from below and the enclosing wall span from
                // inside (hold ⊆ wall).
                observer.hold_ns.record(held_since.elapsed().as_nanos() as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn unattached_locks_only_count() {
        let lock = ObservedMutex::new("test_site", 0u64);
        for _ in 0..5 {
            *lock.lock() += 1;
        }
        assert_eq!(*lock.lock(), 5);
        assert_eq!(lock.acquisitions(), 6);
        assert_eq!(lock.site(), "test_site");
    }

    #[test]
    fn attach_folds_pending_counts_as_untimed_samples() {
        let lock = ObservedMutex::new("folded", ());
        for _ in 0..3 {
            drop(lock.lock());
        }
        let registry = TelemetryRegistry::new();
        lock.attach(&registry);
        drop(lock.lock());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("lock_acquisitions_total", &[("site", "folded")]), Some(4));
        let wait = &snap
            .sketches
            .iter()
            .find(|(id, _)| id.name == "lock_wait_ns")
            .expect("wait sketch registered")
            .1;
        assert_eq!(wait.count(), 4, "pre-attach acquisitions enter as zero samples");
        assert_eq!(lock.acquisitions(), 4);
    }

    #[test]
    fn samples_track_acquisitions_under_contention() {
        let registry = Arc::new(TelemetryRegistry::new());
        let lock = Arc::new(ObservedMutex::new("hot", 0u64));
        lock.attach(&registry);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let lock = Arc::clone(&lock);
            handles.push(thread::spawn(move || {
                for _ in 0..200 {
                    let mut guard = lock.lock();
                    *guard += 1;
                }
            }));
        }
        for h in handles {
            h.join().expect("worker panicked");
        }
        assert_eq!(*lock.lock(), 800);
        let snap = registry.snapshot();
        let acquisitions =
            snap.counter("lock_acquisitions_total", &[("site", "hot")]).expect("counter");
        assert_eq!(acquisitions, 801);
        let contended = snap
            .counter("lock_contended_total", &[("site", "hot")])
            .expect("contended counter");
        let wait = &snap.sketches.iter().find(|(id, _)| id.name == "lock_wait_ns").expect("wait").1;
        assert_eq!(wait.count(), acquisitions, "wait samples == acquisitions");
        let hold = &snap.sketches.iter().find(|(id, _)| id.name == "lock_hold_ns").expect("hold").1;
        assert_eq!(hold.count(), contended, "hold samples == contended acquisitions");
    }

    #[test]
    fn condvar_wait_counts_as_a_new_acquisition() {
        let registry = Arc::new(TelemetryRegistry::new());
        let lock = Arc::new(ObservedMutex::new("cv", false));
        let cond = Arc::new(Condvar::new());
        lock.attach(&registry);

        let waiter = {
            let (lock, cond) = (Arc::clone(&lock), Arc::clone(&cond));
            thread::spawn(move || {
                let guard = lock.lock();
                let guard = lock.wait_while(guard, &cond, |ready| !*ready);
                assert!(*guard);
            })
        };
        thread::sleep(Duration::from_millis(20));
        {
            let mut guard = lock.lock();
            *guard = true;
        }
        cond.notify_all();
        waiter.join().expect("waiter panicked");

        let snap = registry.snapshot();
        // waiter: lock + condvar reacquisition; setter: lock. Three total.
        assert_eq!(snap.counter("lock_acquisitions_total", &[("site", "cv")]), Some(3));
        let wait = &snap
            .sketches
            .iter()
            .find(|(id, _)| id.name == "lock_wait_ns")
            .expect("wait sketch")
            .1;
        assert_eq!(wait.count(), 3);
        assert!(
            wait.max_ns() >= 10_000_000,
            "condvar block must show as lock wait, got max {} ns",
            wait.max_ns()
        );
    }

    #[test]
    fn same_site_name_aggregates_across_locks() {
        let registry = TelemetryRegistry::new();
        let shards: Vec<ObservedMutex<u32>> =
            (0..4).map(|i| ObservedMutex::new("shard", i)).collect();
        for shard in &shards {
            shard.attach(&registry);
            drop(shard.lock());
        }
        assert_eq!(
            registry.snapshot().counter("lock_acquisitions_total", &[("site", "shard")]),
            Some(4)
        );
    }
}
