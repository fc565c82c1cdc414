//! Offline stand-in for `rayon` covering the surface this workspace uses:
//! `par_chunks_mut(..).enumerate().for_each(..)` and
//! `par_iter().map(..)/.flat_map(..).collect()`, both genuinely threaded
//! via a **persistent worker pool**. `par_iter` combinators are
//! *order-preserving*: `collect` yields results in input order no matter
//! how the worker threads interleave — the property the auto-tuner's
//! deterministic ranking relies on.
//!
//! ## Pool semantics
//!
//! The pool is created once per process ([`current_num_threads`] surfaces
//! its size). The thread count is resolved exactly once at init:
//! `HANAYO_THREADS` (positive integer) wins; otherwise
//! `std::thread::available_parallelism()`. A malformed `HANAYO_THREADS`
//! warns on stderr and falls back — it never silently changes the count
//! mid-run, and the OS is never re-queried per dispatch.
//!
//! The calling thread is one of the `N` executors: a dispatch starts at
//! most `N` executor tasks, queues `N-1` of them to the resident workers
//! and runs the last one itself. `par_chunks_mut` deals its chunks out to
//! the tasks strided round-robin up front; `par_iter` tasks instead claim
//! the next unclaimed index from one shared atomic cursor, so an executor
//! that finishes early takes the remaining items rather than idling while
//! another works through a fixed share. Nested parallel calls issued from
//! inside a pool task run inline on the current thread, so nesting can
//! never deadlock the fixed-size pool. Panics inside any task are caught,
//! the dispatch still waits for every task to finish (borrowed data stays
//! live), and the first payload is re-raised in the caller via
//! `resume_unwind`.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

pub mod prelude {
    pub use crate::{ParallelSlice, ParallelSliceMut};
}

/// Number of executor threads (resident workers + the calling thread) the
/// process-wide pool uses. Resolved once; see the crate docs.
pub fn current_num_threads() -> usize {
    global_pool().threads()
}

// ---------------------------------------------------------------------------
// Persistent pool
// ---------------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
}

/// Fixed-size persistent thread pool. One global instance backs the public
/// API; tests construct private instances to pin pool behaviour regardless
/// of the host's core count.
struct Pool {
    shared: Arc<PoolShared>,
    /// Total executors: spawned workers + the calling thread.
    threads: usize,
}

thread_local! {
    /// True while this thread is executing a pool bucket; nested parallel
    /// calls observe it and run inline instead of re-entering the queue.
    static IN_POOL_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Tracks one dispatch: how many buckets are still running and the first
/// panic payload observed, if any.
struct Batch {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

fn lock<'m, T>(m: &'m Mutex<T>) -> std::sync::MutexGuard<'m, T> {
    // Bucket bodies catch panics before they can poison a lock; recover
    // defensively anyway so a poisoned pool can never wedge the process.
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Pool {
    fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let shared =
            Arc::new(PoolShared { queue: Mutex::new(VecDeque::new()), job_ready: Condvar::new() });
        // The caller is executor 0; spawn the remaining N-1 resident workers.
        for w in 1..threads {
            let shared = Arc::clone(&shared);
            let builder = std::thread::Builder::new().name(format!("hanayo-worker-{w}"));
            let spawned = builder.spawn(move || loop {
                let job = {
                    let mut q = lock(&shared.queue);
                    loop {
                        if let Some(job) = q.pop_front() {
                            break job;
                        }
                        q = shared
                            .job_ready
                            .wait(q)
                            .unwrap_or_else(|poisoned| poisoned.into_inner());
                    }
                };
                IN_POOL_TASK.with(|flag| flag.set(true));
                job();
                IN_POOL_TASK.with(|flag| flag.set(false));
            });
            if spawned.is_err() {
                // Thread creation failed (resource limits): the pool still
                // works with fewer residents; dispatches fall back on the
                // caller draining its own buckets via the queue helpers.
                eprintln!("hanayo rayon shim: failed to spawn worker {w}; continuing with fewer");
            }
        }
        Pool { shared, threads }
    }

    fn threads(&self) -> usize {
        self.threads
    }

    /// Run every task to completion, re-raising the first panic payload in
    /// the caller once all tasks have finished. Tasks may borrow from the
    /// caller's stack (`'scope`): the lifetime erasure below is sound
    /// because this function does not return (or unwind) until `remaining`
    /// hits zero, i.e. until every erased closure has been dropped.
    fn run_tasks<'scope>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        let n = tasks.len();
        if n == 0 {
            return;
        }
        let inline = self.threads <= 1 || n == 1 || IN_POOL_TASK.with(|flag| flag.get());
        if inline {
            for task in tasks {
                task();
            }
            return;
        }

        let batch = Arc::new(Batch {
            remaining: Mutex::new(n),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });

        let mut wrapped: Vec<Job> = Vec::with_capacity(n);
        for task in tasks {
            let batch = Arc::clone(&batch);
            let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
                if let Err(payload) = result {
                    let mut slot = lock(&batch.panic);
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
                let mut remaining = lock(&batch.remaining);
                *remaining -= 1;
                if *remaining == 0 {
                    batch.done.notify_all();
                }
            });
            // SAFETY: see the method doc — every job completes (and is
            // dropped) before run_tasks returns, so no borrow of 'scope
            // data can outlive its referent.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
            wrapped.push(job);
        }

        // Keep one bucket for the calling thread; queue the rest.
        let own = wrapped.pop();
        {
            let mut q = lock(&self.shared.queue);
            q.extend(wrapped);
        }
        self.shared.job_ready.notify_all();
        if let Some(own) = own {
            IN_POOL_TASK.with(|flag| flag.set(true));
            own();
            IN_POOL_TASK.with(|flag| flag.set(false));
        }

        // Help drain the queue while waiting: if every resident worker is
        // busy (or failed to spawn), the caller keeps making progress.
        loop {
            if *lock(&batch.remaining) == 0 {
                break;
            }
            let stolen = lock(&self.shared.queue).pop_front();
            match stolen {
                Some(job) => {
                    IN_POOL_TASK.with(|flag| flag.set(true));
                    job();
                    IN_POOL_TASK.with(|flag| flag.set(false));
                }
                None => {
                    let guard = lock(&batch.remaining);
                    if *guard > 0 {
                        // Timed wait: a job for *this* batch may still be
                        // queued behind other batches' jobs, which only the
                        // queue (not `done`) signals about.
                        let _unused = self.batch_wait(guard, &batch);
                    } else {
                        break;
                    }
                }
            }
        }

        let payload = lock(&batch.panic).take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }

    fn batch_wait<'m>(
        &self,
        guard: std::sync::MutexGuard<'m, usize>,
        batch: &Batch,
    ) -> std::sync::MutexGuard<'m, usize> {
        let (guard, _timeout) = batch
            .done
            .wait_timeout(guard, std::time::Duration::from_millis(1))
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        guard
    }

    /// Apply `f` to every item, strided round-robin across buckets so
    /// neighbouring (similar-cost) items spread over executors.
    fn run_parallel<I: Send>(&self, items: Vec<I>, f: &(impl Fn(I) + Sync)) {
        let buckets = self.threads.min(items.len()).max(1);
        if buckets <= 1 || IN_POOL_TASK.with(|flag| flag.get()) {
            for item in items {
                f(item);
            }
            return;
        }
        let mut split: Vec<Vec<I>> = (0..buckets).map(|_| Vec::new()).collect();
        for (i, item) in items.into_iter().enumerate() {
            split[i % buckets].push(item);
        }
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = split
            .into_iter()
            .map(|bucket| {
                let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    for item in bucket {
                        f(item);
                    }
                });
                task
            })
            .collect();
        self.run_tasks(tasks);
    }

    /// Parallel map over indices `0..n`, preserving index order in the
    /// output. Executors claim the next index from a shared cursor until
    /// none is left, ship `(index, result)` pairs home through their own
    /// slot, and the caller reassembles them in index order.
    fn par_map_indexed<R: Send>(&self, n: usize, f: &(impl Fn(usize) -> R + Sync)) -> Vec<R> {
        let executors = self.threads.min(n).max(1);
        if executors <= 1 || IN_POOL_TASK.with(|flag| flag.get()) {
            return (0..n).map(f).collect();
        }
        let cursor = AtomicUsize::new(0);
        let cursor = &cursor;
        let slots: Vec<Mutex<Vec<(usize, R)>>> =
            (0..executors).map(|_| Mutex::new(Vec::new())).collect();
        let slots = &slots;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..executors)
            .map(|w| {
                let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let mut res = Vec::new();
                    loop {
                        // Relaxed: the cursor only hands out indices; the
                        // results travel through the slot mutexes.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        res.push((i, f(i)));
                    }
                    *lock(&slots[w]) = res;
                });
                task
            })
            .collect();
        self.run_tasks(tasks);
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for slot in slots {
            for (i, r) in lock(slot).drain(..) {
                out[i] = Some(r);
            }
        }
        out.into_iter().flatten().collect()
    }
}

fn resolve_threads(env_override: Option<&str>) -> usize {
    if let Some(raw) = env_override {
        match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            _ => {
                eprintln!(
                    "hanayo rayon shim: HANAYO_THREADS={raw:?} is not a positive integer; \
                     falling back to available_parallelism"
                );
            }
        }
    }
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

fn global_pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let env = std::env::var("HANAYO_THREADS").ok();
        Pool::new(resolve_threads(env.as_deref()))
    })
}

fn run_parallel<I: Send>(items: Vec<I>, f: &(impl Fn(I) + Sync)) {
    global_pool().run_parallel(items, f)
}

fn par_map_indexed<R: Send>(n: usize, f: &(impl Fn(usize) -> R + Sync)) -> Vec<R> {
    global_pool().par_map_indexed(n, f)
}

// ---------------------------------------------------------------------------
// Public iterator surface
// ---------------------------------------------------------------------------

/// `par_chunks_mut` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Split into mutable chunks of `size` to be processed in parallel.
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
        assert!(size > 0, "chunk size must be non-zero");
        ParChunksMut { chunks: self.chunks_mut(size).collect() }
    }
}

/// Parallel mutable chunk iterator (see [`ParallelSliceMut`]).
pub struct ParChunksMut<'a, T> {
    chunks: Vec<&'a mut [T]>,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pair each chunk with its index.
    pub fn enumerate(self) -> ParChunksMutEnumerate<'a, T> {
        ParChunksMutEnumerate { items: self.chunks.into_iter().enumerate().collect() }
    }

    /// Apply `f` to every chunk across worker threads.
    pub fn for_each(self, f: impl Fn(&'a mut [T]) + Sync) {
        run_parallel(self.chunks, &f);
    }
}

/// Enumerated form of [`ParChunksMut`].
pub struct ParChunksMutEnumerate<'a, T> {
    items: Vec<(usize, &'a mut [T])>,
}

impl<'a, T: Send> ParChunksMutEnumerate<'a, T> {
    /// Apply `f` to every `(index, chunk)` pair across worker threads.
    pub fn for_each(self, f: impl Fn((usize, &'a mut [T])) + Sync) {
        run_parallel(self.items, &f);
    }
}

/// `par_iter` on shared slices: a genuinely threaded, order-preserving
/// parallel iterator supporting the `map`/`flat_map`/`collect` call-sites
/// in this workspace.
pub trait ParallelSlice<T: Sync> {
    /// Iterate items in parallel.
    fn par_iter(&self) -> ParIter<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter { items: self }
    }
}

impl<T: Sync> ParallelSlice<T> for Vec<T> {
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter { items: self }
    }
}

/// Parallel shared-slice iterator (see [`ParallelSlice`]).
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Map every item through `f` across worker threads.
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParMap { items: self.items, f }
    }

    /// Map every item to an iterable and flatten, preserving item order.
    pub fn flat_map<I, F>(self, f: F) -> ParFlatMap<'a, T, F>
    where
        I: IntoIterator,
        I::Item: Send,
        F: Fn(&'a T) -> I + Sync,
    {
        ParFlatMap { items: self.items, f }
    }
}

/// Mapped form of [`ParIter`].
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync, R: Send, F: Fn(&'a T) -> R + Sync> ParMap<'a, T, F> {
    /// Run the map across worker threads and collect results in input order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let f = &self.f;
        let items = self.items;
        par_map_indexed(items.len(), &|i| f(&items[i])).into_iter().collect()
    }
}

/// Flat-mapped form of [`ParIter`].
pub struct ParFlatMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T, I, F> ParFlatMap<'a, T, F>
where
    T: Sync,
    I: IntoIterator,
    I::Item: Send,
    F: Fn(&'a T) -> I + Sync,
{
    /// Run the flat-map across worker threads and collect results in input
    /// order.
    pub fn collect<C: FromIterator<I::Item>>(self) -> C {
        let f = &self.f;
        let items = self.items;
        par_map_indexed(items.len(), &|i| f(&items[i]).into_iter().collect::<Vec<_>>())
            .into_iter()
            .flatten()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::Pool;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex};
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    #[test]
    fn par_chunks_mut_enumerate_matches_sequential() {
        let mut par = vec![0u64; 1000];
        par.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (i * 10 + j) as u64;
            }
        });
        let expect: Vec<u64> = (0..1000).collect();
        assert_eq!(par, expect);
    }

    #[test]
    fn par_iter_collects() {
        let v = vec![1, 2, 3];
        let doubled: Vec<i32> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6]);
    }

    #[test]
    fn par_map_preserves_input_order_under_contention() {
        let v: Vec<u64> = (0..500).collect();
        // Uneven work per item scrambles completion order across threads.
        let out: Vec<u64> = v
            .par_iter()
            .map(|&x| {
                if x % 7 == 0 {
                    std::thread::yield_now();
                }
                x * x
            })
            .collect();
        let expect: Vec<u64> = (0..500).map(|x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn par_flat_map_preserves_item_order() {
        let v = vec![1usize, 2, 3];
        let out: Vec<usize> = v.par_iter().flat_map(|&x| vec![x; x]).collect();
        assert_eq!(out, vec![1, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn pool_preserves_order_on_multithreaded_pool() {
        // A private pool pins multithreaded dispatch even on 1-core hosts.
        let pool = Pool::new(4);
        let out = pool.par_map_indexed(257, &|i| i * 3);
        let expect: Vec<usize> = (0..257).map(|i| i * 3).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn a_blocked_item_does_not_strand_the_rest() {
        // Item 0 holds its executor until every other item has run. Only
        // the other executor can run them, so this passes only if it keeps
        // claiming items past its share: a fixed split would leave items
        // queued behind item 0 on the blocked executor.
        let pool = Pool::new(2);
        let n = 16;
        let others_done = (Mutex::new(0usize), Condvar::new());
        let (done, ran) = &others_done;
        let out = pool.par_map_indexed(n, &|i| {
            if i == 0 {
                let deadline = Instant::now() + Duration::from_secs(10);
                let mut count = done.lock().unwrap();
                while *count < n - 1 {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    count = ran.wait_timeout(count, left).unwrap().0;
                }
                assert_eq!(*count, n - 1, "the free executor must drain every other item");
            } else {
                *done.lock().unwrap() += 1;
                ran.notify_all();
            }
            i
        });
        assert_eq!(out, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn pool_reuses_worker_threads_across_dispatches() {
        let pool = Pool::new(3);
        let caller = std::thread::current().id();
        let observe = |pool: &Pool| -> HashSet<ThreadId> {
            let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
            let started = AtomicUsize::new(0);
            pool.run_parallel((0..3).collect(), &|_i: usize| {
                seen.lock().unwrap().insert(std::thread::current().id());
                // Hold each bucket open until all three have started so a
                // single fast worker cannot swallow every queued bucket.
                started.fetch_add(1, Ordering::SeqCst);
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
                while started.load(Ordering::SeqCst) < 3 && std::time::Instant::now() < deadline {
                    std::thread::yield_now();
                }
            });
            seen.into_inner().unwrap()
        };
        let first: HashSet<ThreadId> =
            observe(&pool).into_iter().filter(|id| *id != caller).collect();
        let second: HashSet<ThreadId> =
            observe(&pool).into_iter().filter(|id| *id != caller).collect();
        assert_eq!(first.len(), 2, "three buckets over caller + two residents");
        // Persistent pool: the second dispatch runs on the *same* resident
        // workers — no fresh OS threads per call.
        assert_eq!(first, second);
    }

    #[test]
    fn nested_par_iter_inside_par_chunks_mut_does_not_deadlock() {
        let pool = Pool::new(2);
        // Nested parallel calls from inside pool buckets run inline; with a
        // fixed-size pool a queue-blocking implementation would deadlock
        // here (every executor waiting on buckets nobody is free to run).
        let mut data = vec![0u64; 64];
        let chunks: Vec<&mut [u64]> = data.chunks_mut(8).collect();
        pool.run_parallel(chunks, &|chunk: &mut [u64]| {
            let inner: Vec<u64> = chunk.par_iter().map(|&v| v + 1).collect();
            for (dst, src) in chunk.iter_mut().zip(inner) {
                *dst = src + 1;
            }
        });
        assert_eq!(data, vec![2u64; 64]);
    }

    #[test]
    fn panic_payload_resumes_across_pooled_workers() {
        let pool = Pool::new(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.par_map_indexed(64, &|i| {
                if i == 37 {
                    panic!("bucket 37 exploded");
                }
                i
            })
        }));
        let payload = result.expect_err("panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("bucket 37 exploded"), "original payload survives: {msg:?}");
    }

    #[test]
    fn pool_survives_a_panicked_dispatch() {
        // A panicked batch must not poison the pool: later dispatches on
        // the same residents still work.
        let pool = Pool::new(3);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.par_map_indexed(16, &|i| if i == 3 { panic!("boom") } else { i })
        }));
        assert!(poisoned.is_err());
        let out = pool.par_map_indexed(16, &|i| i + 1);
        assert_eq!(out, (1..=16).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_resolution_prefers_env_override() {
        assert_eq!(super::resolve_threads(Some("6")), 6);
        assert_eq!(super::resolve_threads(Some(" 2 ")), 2);
        // Malformed or zero overrides warn and fall back to the host count.
        let host = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
        assert_eq!(super::resolve_threads(Some("0")), host);
        assert_eq!(super::resolve_threads(Some("lots")), host);
        assert_eq!(super::resolve_threads(None), host);
    }
}
