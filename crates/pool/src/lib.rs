//! # Persistent morsel-driven worker pool
//!
//! One long-lived, service-wide pool of OS threads executing *morsels*
//! — small, owned units of work (in the engine: one offset chunk of a
//! partitioned join slice). Replaces per-slice `std::thread::scope`
//! spawning: SkinnerDB switches join orders every few hundred steps, so
//! any fixed per-slice overhead is paid thousands of times per query,
//! and thread spawn/join was the dominant fixed cost
//! (`BENCH_join.json` showed 1.13× at 4 threads before the pool).
//!
//! ## Design
//!
//! - **Work stealing.** Each worker owns a deque; batches are pushed
//!   round-robin across deques. A worker pops its own deque from the
//!   front and steals from the back of a victim chosen by rotation (or
//!   by the seeded schedule, see [`schedule`]). Morsels are coarse
//!   (hundreds of join steps), so lock-based deques are far below
//!   noise; what matters is that no thread is ever spawned on the hot
//!   path.
//! - **Scoped batches over persistent threads.**
//!   [`WorkerPool::run_batch_mut`] submits one task per slice of a
//!   `&mut [T]` and *blocks until every task has completed*. Because
//!   the call cannot return (normally or by unwind) before the last
//!   task finishes, tasks may safely borrow from the submitting stack
//!   frame even though the worker threads are `'static` — the same
//!   soundness argument as `std::thread::scope`, with the spawn/join
//!   pair replaced by enqueue/wait on long-lived workers. The unsafe
//!   lifetime erasure lives entirely in this crate; the engine stays
//!   `#![forbid(unsafe_code)]`.
//! - **The submitter helps.** While its batch is pending the calling
//!   thread drains *its own* morsels from the deques alongside the
//!   workers (classic morsel-driven design: the query thread is itself
//!   a worker). This guarantees progress even if every pool worker is
//!   busy with another query's batch, and makes a 1-worker pool on a
//!   1-core host degrade to almost exactly the sequential path.
//! - **Cross-query sharing.** Any number of threads may submit batches
//!   concurrently; their morsels interleave in the deques. Admission
//!   (how many morsels a query may have in flight ≈ its chunk fan-out)
//!   is decided upstream by the service's `CoreBudget` grant; the pool
//!   itself never blocks a submitter behind another query.
//! - **Panic = replace.** A morsel panic is caught, recorded on the
//!   batch, and re-raised on the submitting thread *after* the rest of
//!   the batch completes (mirroring `std::thread::scope` join-then-
//!   propagate semantics). The worker that hosted the panic is retired
//!   and a replacement thread is spawned immediately, so the pool
//!   always returns to full strength ([`WorkerPool::live_workers`]).
//!
//! ## Determinism contract
//!
//! The pool intentionally guarantees **nothing** about execution order.
//! Correctness of partitioned join slices instead comes from the
//! engine's invariant that morsels are independent: each chunk runs a
//! deterministic kernel on a private cursor and private output shard,
//! and shards merge in chunk order on the submitting thread. The
//! [`schedule`] module exists to *attack* that invariant in tests:
//! seeded yield/steal-order perturbation drives the differential suite
//! across adversarial interleavings.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

pub mod schedule;

/// A type-erased, lifetime-erased morsel plus the batch it belongs to.
struct RawTask {
    /// The closure to run. Lifetime-erased to `'static`; soundness is
    /// owed by [`WorkerPool::run_batch_mut`], which never returns until
    /// the closure has been consumed.
    run: Box<dyn FnOnce() + Send + 'static>,
    batch: Arc<BatchState>,
}

impl RawTask {
    /// Execute the morsel, catching a panic and recording completion
    /// (and the first panic payload) on the batch. On a panic `on_panic`
    /// runs *before* the batch completes, so a submitter that sees its
    /// batch done also sees what it recorded (the panic count, a
    /// replacement worker). Returns whether the morsel panicked.
    fn execute(self, on_panic: impl FnOnce()) -> bool {
        let RawTask { run, batch } = self;
        // UnwindSafe: on panic the task's `&mut` scratch may be left
        // half-written, but the submitter re-raises the panic before
        // reading any outcome — the same contract scoped threads had.
        let result = catch_unwind(AssertUnwindSafe(run));
        match result {
            Ok(()) => {
                batch.complete(None);
                false
            }
            Err(payload) => {
                on_panic();
                batch.complete(Some(payload));
                true
            }
        }
    }
}

/// Completion state of one submitted batch.
struct BatchState {
    progress: Mutex<BatchProgress>,
    cv: Condvar,
}

struct BatchProgress {
    remaining: usize,
    /// First panic payload observed; re-raised by the submitter.
    panic: Option<Box<dyn Any + Send>>,
}

impl BatchState {
    fn new(n: usize) -> Arc<BatchState> {
        Arc::new(BatchState {
            progress: Mutex::new(BatchProgress {
                remaining: n,
                panic: None,
            }),
            cv: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, BatchProgress> {
        self.progress.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn complete(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut p = self.lock();
        p.remaining -= 1;
        if p.panic.is_none() {
            p.panic = panic;
        }
        if p.remaining == 0 {
            self.cv.notify_all();
        }
    }

    /// Block until every task in the batch has completed.
    fn wait(&self) {
        let mut p = self.lock();
        while p.remaining > 0 {
            p = self.cv.wait(p).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.lock().panic.take()
    }
}

struct PoolSync {
    /// Tasks currently sitting in some deque (not yet grabbed).
    pending: usize,
    shutdown: bool,
}

struct Inner {
    /// One deque per worker slot; submitters push round-robin (or
    /// schedule-seeded), workers pop their own front and steal from
    /// victims' backs.
    queues: Vec<Mutex<VecDeque<RawTask>>>,
    sync: Mutex<PoolSync>,
    cv: Condvar,
    /// Round-robin cursor for batch distribution.
    rr: AtomicUsize,
    /// OS threads ever spawned by this pool (initial + replacements).
    spawned: AtomicU64,
    /// Workers retired after hosting a panicking morsel and replaced.
    replaced: AtomicU64,
    /// Morsel panics caught (each is re-raised on its submitter).
    task_panics: AtomicU64,
    /// Currently running worker threads.
    live: AtomicUsize,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Inner {
    fn lock_sync(&self) -> MutexGuard<'_, PoolSync> {
        self.sync.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_queue(&self, q: usize) -> MutexGuard<'_, VecDeque<RawTask>> {
        self.queues[q]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn count_panic(&self) {
        self.task_panics.fetch_add(1, Ordering::Relaxed);
    }

    fn dec_pending(&self) {
        let mut s = self.lock_sync();
        // Underflow here would mean a task became visible in a deque
        // before `push_batch` accounted for it — the lost decrement
        // would leave `pending` permanently positive and every idle
        // worker busy-spinning. Fail loudly instead.
        s.pending = s
            .pending
            .checked_sub(1)
            .expect("pool pending underflow: task popped before it was accounted");
    }

    /// Push a whole batch of tasks, distributing across deques, and
    /// wake the workers.
    fn push_batch(&self, tasks: Vec<RawTask>) {
        let n = self.queues.len();
        // Account for the tasks BEFORE any becomes visible in a deque:
        // a worker that popped one first would drive `pending` below
        // zero and the lost decrement would corrupt the idle/wait
        // protocol. The transient over-count is benign — a worker that
        // wakes before the pushes land finds nothing, re-checks under
        // the sync lock, and retries until the deques catch up (a
        // window bounded by this loop).
        {
            let mut s = self.lock_sync();
            s.pending += tasks.len();
        }
        for task in tasks {
            let q = match schedule::pick(n) {
                Some(victim) => victim,
                None => self.rr.fetch_add(1, Ordering::Relaxed) % n,
            };
            self.lock_queue(q).push_back(task);
        }
        self.cv.notify_all();
    }

    /// Take one task: own deque first (front = FIFO within a worker),
    /// then steal from victims' backs in rotation order — the starting
    /// victim is schedule-seeded when perturbation is armed.
    fn grab(&self, idx: usize) -> Option<RawTask> {
        if let Some(t) = self.pop_at(idx, true) {
            return Some(t);
        }
        let n = self.queues.len();
        let start = schedule::pick(n).unwrap_or((idx + 1) % n);
        for off in 0..n {
            let victim = (start + off) % n;
            if victim == idx {
                continue;
            }
            if let Some(t) = self.pop_at(victim, false) {
                return Some(t);
            }
        }
        None
    }

    fn pop_at(&self, q: usize, front: bool) -> Option<RawTask> {
        let task = {
            let mut dq = self.lock_queue(q);
            if front {
                dq.pop_front()
            } else {
                dq.pop_back()
            }
        }?;
        self.dec_pending();
        Some(task)
    }

    /// Take one task belonging to `batch` from any deque (the
    /// submitter-helps path: a submitter only ever executes its own
    /// morsels, so it can never be captured by another query's batch).
    fn grab_for_batch(&self, batch: &Arc<BatchState>) -> Option<RawTask> {
        for q in 0..self.queues.len() {
            let task = {
                let mut dq = self.lock_queue(q);
                match dq.iter().position(|t| Arc::ptr_eq(&t.batch, batch)) {
                    Some(pos) => dq.remove(pos),
                    None => None,
                }
            };
            if let Some(task) = task {
                self.dec_pending();
                return Some(task);
            }
        }
        None
    }
}

fn worker_loop(inner: Arc<Inner>, idx: usize) {
    loop {
        schedule::point(0x1D7E);
        if let Some(task) = inner.grab(idx) {
            schedule::point(0xE8EC);
            // On a panic, retire this worker and bring up a replacement
            // before the batch completes: the pool always returns to full
            // strength, and a fresh stack hosts the next morsel. The
            // shutdown check and the replacement's handle registration
            // happen under the same sync lock `Drop` holds to set
            // `shutdown`, so a replacement either lands in `handles`
            // before Drop drains them (and is joined) or is never spawned
            // — no handle can leak past Drop's join-all.
            let panicked = task.execute(|| {
                inner.count_panic();
                let s = inner.lock_sync();
                if !s.shutdown {
                    inner.replaced.fetch_add(1, Ordering::Relaxed);
                    spawn_worker(&inner, idx);
                }
            });
            if panicked {
                return;
            }
            continue;
        }
        let mut s = inner.lock_sync();
        loop {
            if s.shutdown {
                return;
            }
            if s.pending > 0 {
                break;
            }
            s = inner.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

fn spawn_worker(inner: &Arc<Inner>, idx: usize) {
    inner.spawned.fetch_add(1, Ordering::Relaxed);
    inner.live.fetch_add(1, Ordering::Relaxed);
    let worker_inner = inner.clone();
    let handle = std::thread::Builder::new()
        .name(format!("skinner-pool-{idx}"))
        .spawn(move || {
            // Decrement `live` however the worker exits (including the
            // panic-retire path, which returns normally after arranging
            // its replacement).
            struct ExitGuard(Arc<Inner>);
            impl Drop for ExitGuard {
                fn drop(&mut self) {
                    self.0.live.fetch_sub(1, Ordering::Relaxed);
                }
            }
            let guard = ExitGuard(worker_inner.clone());
            worker_loop(worker_inner, idx);
            drop(guard);
        })
        .expect("spawn pool worker");
    inner
        .handles
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(handle);
}

/// A persistent pool of worker threads executing morsel batches. See
/// the [crate docs](crate) for the design and soundness argument.
pub struct WorkerPool {
    inner: Arc<Inner>,
    workers: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .field("live", &self.live_workers())
            .field("spawned", &self.spawned())
            .finish()
    }
}

impl WorkerPool {
    /// Pool with `workers` threads (clamped to ≥ 1), spawned eagerly.
    pub fn new(workers: usize) -> Arc<WorkerPool> {
        let workers = workers.max(1);
        let inner = Arc::new(Inner {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            sync: Mutex::new(PoolSync {
                pending: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
            rr: AtomicUsize::new(0),
            spawned: AtomicU64::new(0),
            replaced: AtomicU64::new(0),
            task_panics: AtomicU64::new(0),
            live: AtomicUsize::new(0),
            handles: Mutex::new(Vec::new()),
        });
        for idx in 0..workers {
            spawn_worker(&inner, idx);
        }
        Arc::new(WorkerPool { inner, workers })
    }

    /// The process-wide shared pool, sized to the host's available
    /// parallelism, created on first use. This is what the engine uses
    /// when no pool is wired explicitly (standalone `MultiwayJoin`
    /// users, benches); the service owns its own pool sized to its
    /// core budget.
    pub fn global() -> Arc<WorkerPool> {
        static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| {
                let cores = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1);
                WorkerPool::new(cores)
            })
            .clone()
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Worker threads currently running (== `workers()` at rest; dips
    /// transiently while a panicked worker's replacement spawns).
    pub fn live_workers(&self) -> usize {
        self.inner.live.load(Ordering::Relaxed)
    }

    /// OS threads ever spawned by this pool: the initial `workers()`
    /// plus one per replaced worker. The engine records the per-run
    /// delta as `ExecMetrics::thread_spawns` — zero after warm-up is
    /// the pool-reuse proof.
    pub fn spawned(&self) -> u64 {
        self.inner.spawned.load(Ordering::Relaxed)
    }

    /// Workers retired after hosting a panicking morsel (each was
    /// replaced by a fresh thread).
    pub fn replaced(&self) -> u64 {
        self.inner.replaced.load(Ordering::Relaxed)
    }

    /// Morsel panics caught so far (re-raised on their submitters).
    pub fn task_panics(&self) -> u64 {
        self.inner.task_panics.load(Ordering::Relaxed)
    }

    /// Run `f(i, &mut items[i])` for every `i`, distributing the items
    /// as morsels over the pool (the submitting thread helps), and
    /// block until all complete. If any morsel panicked, the first
    /// payload is re-raised here after the rest of the batch finishes —
    /// the same join-then-propagate semantics as `std::thread::scope`.
    ///
    /// Borrows in `f` and `items` are sound for the same reason scoped
    /// threads are: this function cannot return, normally or by
    /// unwinding, until every task has been consumed. The wait loop is
    /// straight-line code whose only panic source (mutex poisoning) is
    /// recovered, and workers always record completion — on success,
    /// panic, or shutdown drain — via the batch's completion protocol.
    pub fn run_batch_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Send + Sync,
    {
        let n = items.len();
        if n == 0 {
            return;
        }
        if n == 1 {
            f(0, &mut items[0]);
            return;
        }
        let batch = BatchState::new(n);
        let mut tasks = Vec::with_capacity(n);
        let base = items.as_mut_ptr();
        for i in 0..n {
            // SAFETY: indices are disjoint, so each task gets an
            // exclusive `&mut` to its own element; the erased lifetime
            // never escapes this call (see the blocking argument above).
            let item: &mut T = unsafe { &mut *base.add(i) };
            let fref: &F = &f;
            let run: Box<dyn FnOnce() + Send + '_> = Box::new(move || fref(i, item));
            // SAFETY: lifetime erasure only; the closure is consumed
            // before `run_batch_mut` returns.
            let run: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(run) };
            tasks.push(RawTask {
                run,
                batch: batch.clone(),
            });
        }
        self.inner.push_batch(tasks);
        // Morsel-driven: the submitter is a worker too. It only ever
        // takes its own batch's morsels, so progress is guaranteed even
        // when every pool worker is grinding another query.
        while let Some(task) = self.inner.grab_for_batch(&batch) {
            schedule::point(0x5E1F);
            task.execute(|| self.inner.count_panic());
        }
        batch.wait();
        if let Some(payload) = batch.take_panic() {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut s = self.inner.lock_sync();
            s.shutdown = true;
        }
        self.inner.cv.notify_all();
        let handles = std::mem::take(
            &mut *self
                .inner
                .handles
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for h in handles {
            let _ = h.join();
        }
        // Workers exit on shutdown even with tasks still queued; run
        // any stragglers here so no submitter can be left waiting on a
        // batch (there are none by construction — `run_batch_mut`
        // borrows `&self` — but a drained queue is cheap insurance).
        for q in 0..self.inner.queues.len() {
            while let Some(task) = self.inner.pop_at(q, true) {
                task.execute(|| self.inner.count_panic());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn batch_runs_every_item_exactly_once() {
        let pool = WorkerPool::new(4);
        let mut items: Vec<u32> = vec![0; 64];
        pool.run_batch_mut(&mut items, |i, slot| *slot = i as u32 + 1);
        for (i, v) in items.iter().enumerate() {
            assert_eq!(*v, i as u32 + 1);
        }
    }

    #[test]
    fn borrowed_environment_is_visible_to_workers() {
        let pool = WorkerPool::new(2);
        let base = [10u64, 20, 30, 40, 50, 60, 70, 80];
        let sum = AtomicU64::new(0);
        let mut items = vec![0u64; base.len()];
        pool.run_batch_mut(&mut items, |i, slot| {
            *slot = base[i] * 2;
            sum.fetch_add(base[i], Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), base.iter().sum::<u64>());
        assert_eq!(items[7], 160);
    }

    #[test]
    fn panicking_morsel_propagates_after_batch_completes() {
        let pool = WorkerPool::new(2);
        let done = AtomicU32::new(0);
        let mut items = vec![0u8; 8];
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run_batch_mut(&mut items, |i, _slot| {
                if i == 3 {
                    panic!("morsel 3 dies");
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(r.is_err(), "batch panic must propagate to the submitter");
        // Every non-panicking sibling still ran (join-then-propagate).
        assert_eq!(done.load(Ordering::Relaxed), 7);
        // The pool recovered to full strength and still works.
        wait_full_strength(&pool);
        pool.run_batch_mut(&mut items, |_i, slot| *slot = 1);
        assert!(items.iter().all(|&v| v == 1));
        assert!(pool.task_panics() >= 1);
    }

    #[test]
    fn panicked_workers_are_replaced() {
        let pool = WorkerPool::new(3);
        let spawned_before = pool.spawned();
        for round in 0..4 {
            let mut items = vec![0u8; 6];
            let r = catch_unwind(AssertUnwindSafe(|| {
                pool.run_batch_mut(&mut items, |i, _slot| {
                    if i == round {
                        panic!("round {round} morsel {i}");
                    }
                });
            }));
            assert!(r.is_err());
        }
        wait_full_strength(&pool);
        assert_eq!(pool.live_workers(), pool.workers());
        // At least one panic landed on a pool worker across 4 rounds
        // (the submitter-helps path absorbs some without retiring).
        assert!(pool.spawned() >= spawned_before);
        assert_eq!(pool.task_panics(), 4);
    }

    #[test]
    fn concurrent_batches_from_many_submitters() {
        let pool = WorkerPool::new(4);
        let total = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for s in 0..8u64 {
                let pool = &pool;
                let total = &total;
                scope.spawn(move || {
                    for _ in 0..20 {
                        let mut items = vec![0u64; 8];
                        pool.run_batch_mut(&mut items, |i, slot| {
                            *slot = s * 1000 + i as u64;
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                        for (i, v) in items.iter().enumerate() {
                            assert_eq!(*v, s * 1000 + i as u64);
                        }
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 20 * 8);
    }

    #[test]
    fn no_spawns_after_warmup() {
        let pool = WorkerPool::new(2);
        let mut items = vec![0u32; 16];
        pool.run_batch_mut(&mut items, |_i, slot| *slot += 1);
        let spawned = pool.spawned();
        for _ in 0..50 {
            pool.run_batch_mut(&mut items, |_i, slot| *slot += 1);
        }
        assert_eq!(pool.spawned(), spawned, "pool must reuse its threads");
        assert_eq!(pool.spawned(), pool.workers() as u64);
    }

    #[test]
    fn perturbed_schedules_do_not_change_results() {
        let _seed = schedule::test_seed_lock();
        let pool = WorkerPool::new(3);
        let reference: Vec<u64> = (0..32).map(|i| i * 7 + 1).collect();
        for seed in [1u64, 0xDEAD, 0x5EED5EED] {
            schedule::set_seed(seed);
            let mut items = vec![0u64; 32];
            pool.run_batch_mut(&mut items, |i, slot| *slot = i as u64 * 7 + 1);
            assert_eq!(items, reference, "seed {seed:#x} changed results");
        }
        schedule::clear();
    }

    /// Replacement spawns are racy by nature; poll briefly. A retiring
    /// worker spawns its replacement before its own exit is counted, so
    /// `live` can briefly exceed `workers` too: wait for it to settle at
    /// exactly `workers`.
    fn wait_full_strength(pool: &WorkerPool) {
        for _ in 0..500 {
            if pool.live_workers() == pool.workers() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        panic!(
            "pool never returned to full strength: {}/{}",
            pool.live_workers(),
            pool.workers()
        );
    }
}
