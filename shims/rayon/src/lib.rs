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
//! falls back, and a worker that fails to spawn leaves the pool smaller;
//! the shim prints nothing and hands both warnings to its caller through
//! [`pool_warnings`]. The count never changes mid-run, and the OS is
//! never re-queried per dispatch.
//!
//! Both entry points go through one dispatch. A call with `n` items
//! starts `min(n, N)` executors: the calling thread runs one, and the
//! rest are queued for the `N-1` resident workers, each tagged with its
//! call. Every executor claims the next unclaimed item from the call's
//! one atomic cursor, so an executor that finishes early takes the
//! remaining items rather than idling. Once the cursor is exhausted the
//! caller takes its own executors that no worker has started back off
//! the queue, then waits for the ones that did start. A caller therefore
//! never runs another call's work, and never waits on a clock.
//!
//! Nested parallel calls issued from inside an executor run inline on the
//! current thread, so nesting can never deadlock the fixed-size pool.
//! Panics inside any executor are caught, the dispatch still waits for
//! every started executor (borrowed data stays live), and the first
//! payload is re-raised in the caller via `resume_unwind`.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

pub mod prelude {
    pub use crate::{ParallelSlice, ParallelSliceMut};
}

/// Number of executor threads (resident workers that really started +
/// the calling thread) the process-wide pool uses. Resolved once; see the
/// crate docs.
pub fn current_num_threads() -> usize {
    global_pool().threads
}

/// What went wrong when the process-wide pool started, one line each: a
/// malformed `HANAYO_THREADS` (the count fell back to the host's) or a
/// worker that failed to spawn (the pool runs with fewer). Starts the
/// pool if nothing has yet. The shim never prints; the caller logs these.
pub fn pool_warnings() -> &'static [String] {
    &global_pool().warnings
}

// ---------------------------------------------------------------------------
// Persistent pool
// ---------------------------------------------------------------------------

/// An executor with its borrows erased; see the SAFETY note in
/// [`Pool::dispatch`].
type Executor = Box<dyn FnOnce() + Send + 'static>;

/// Executors waiting for a resident worker, each tagged with its call.
#[derive(Default)]
struct Queue {
    jobs: Mutex<VecDeque<(Arc<Call>, Executor)>>,
    ready: Condvar,
}

/// One dispatch's latch: how many of its executors have not yet counted
/// down, and the first panic payload any of them raised.
struct Call {
    state: Mutex<(usize, Option<Box<dyn Any + Send>>)>,
    done: Condvar,
}

/// Fixed-size persistent thread pool. One global instance backs the public
/// API; tests construct private instances to pin pool behaviour regardless
/// of the host's core count.
struct Pool {
    queue: Arc<Queue>,
    /// Total executors: spawned workers + the calling thread.
    threads: usize,
    /// Start-up warnings (see [`pool_warnings`]).
    warnings: Vec<String>,
}

thread_local! {
    /// True while this thread runs an executor; nested parallel calls
    /// observe it and run inline instead of re-entering the queue.
    static IN_POOL_TASK: Cell<bool> = const { Cell::new(false) };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Executors catch panics before they can poison a lock; recover
    // defensively anyway so a poisoned pool can never wedge the process.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Call {
    /// Run one executor of this call, catching its panic, and count it
    /// down. The executor is dropped before the count-down.
    fn run(&self, executor: impl FnOnce()) {
        IN_POOL_TASK.with(|flag| flag.set(true));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(executor));
        IN_POOL_TASK.with(|flag| flag.set(false));
        self.count_down(1, result.err());
    }

    fn count_down(&self, executors: usize, panic: Option<Box<dyn Any + Send>>) {
        let mut state = lock(&self.state);
        state.0 -= executors;
        if state.1.is_none() {
            state.1 = panic;
        }
        if state.0 == 0 {
            self.done.notify_all();
        }
    }

    /// Block until every executor has counted down; yield the first panic.
    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let state = self.done.wait_while(lock(&self.state), |state| state.0 > 0);
        let mut state = state.unwrap_or_else(PoisonError::into_inner);
        state.1.take()
    }
}

impl Pool {
    fn new(threads: usize) -> Pool {
        let queue = Arc::new(Queue::default());
        let mut warnings = Vec::new();
        let mut spawned = 0;
        // The caller is executor 0; spawn the remaining N-1 resident workers.
        for w in 1..threads {
            let queue = Arc::clone(&queue);
            let worker = move || loop {
                let job = queue.ready.wait_while(lock(&queue.jobs), |jobs| jobs.is_empty());
                let job = job.unwrap_or_else(PoisonError::into_inner).pop_front();
                if let Some((call, executor)) = job {
                    call.run(executor);
                }
            };
            let builder = std::thread::Builder::new().name(format!("hanayo-worker-{w}"));
            // Thread creation can fail (resource limits): the pool still
            // works with the residents it has.
            match builder.spawn(worker) {
                Ok(_) => spawned += 1,
                Err(e) => warnings
                    .push(format!("failed to spawn pool worker {w} ({e}); continuing with fewer")),
            }
        }
        Pool { queue, threads: 1 + spawned, warnings }
    }

    /// The one dispatch: apply `f` to every item and return the results in
    /// item order, re-raising the first panic once every started executor
    /// has finished. Items and results move through per-item slots, whose
    /// indices the executors claim from one cursor.
    fn dispatch<I: Send, R: Send>(&self, items: Vec<I>, f: &(impl Fn(I) -> R + Sync)) -> Vec<R> {
        let executors = self.threads.min(items.len());
        if executors <= 1 || IN_POOL_TASK.with(Cell::get) {
            return items.into_iter().map(f).collect();
        }
        let slots: Vec<Mutex<(Option<I>, Option<R>)>> =
            items.into_iter().map(|item| Mutex::new((Some(item), None))).collect();
        let cursor = AtomicUsize::new(0);
        let execute = || {
            // Relaxed: the cursor only hands out indices; items and results
            // travel through the slot mutexes.
            while let Some(slot) = slots.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                let item = lock(slot).0.take();
                if let Some(item) = item {
                    let result = f(item);
                    lock(slot).1 = Some(result);
                }
            }
        };
        let call = Arc::new(Call { state: Mutex::new((executors, None)), done: Condvar::new() });
        {
            let mut jobs = lock(&self.queue.jobs);
            for _ in 1..executors {
                let executor: Box<dyn FnOnce() + Send + '_> = Box::new(&execute);
                // SAFETY: the executor borrows `slots`, `cursor` and `f` from
                // this frame. Nothing from here to `call.wait()` can unwind
                // (`Call::run` catches panics), and `call.wait()` returns only
                // once every queued executor has either run to its count-down
                // (`Call::run` drops it first) or been taken back below and
                // dropped unrun. So no erased borrow outlives its referent.
                let executor = unsafe {
                    std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Executor>(executor)
                };
                jobs.push_back((Arc::clone(&call), executor));
            }
        }
        self.queue.ready.notify_all();
        call.run(execute);
        // The cursor is exhausted (or the caller's executor panicked): take
        // back this call's unstarted executors, then wait for the started.
        let unstarted = {
            let mut jobs = lock(&self.queue.jobs);
            let queued = jobs.len();
            jobs.retain(|(owner, _)| !Arc::ptr_eq(owner, &call));
            queued - jobs.len()
        };
        call.count_down(unstarted, None);
        if let Some(payload) = call.wait() {
            std::panic::resume_unwind(payload);
        }
        slots
            .into_iter()
            .filter_map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner).1)
            .collect()
    }
}

/// The pool size `HANAYO_THREADS` asks for, or the host's parallelism,
/// with a warning when a set value is not a positive integer.
fn resolve_threads(env_override: Option<&str>) -> (usize, Option<String>) {
    let host = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    match env_override.map(|raw| (raw, raw.trim().parse::<usize>())) {
        None => (host, None),
        Some((_, Ok(n))) if n >= 1 => (n, None),
        Some((raw, _)) => (
            host,
            Some(format!(
                "HANAYO_THREADS={raw:?} is not a positive integer; falling back to the host's \
                 {host} threads"
            )),
        ),
    }
}

fn global_pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let env = std::env::var("HANAYO_THREADS").ok();
        let (threads, warning) = resolve_threads(env.as_deref());
        let mut pool = Pool::new(threads);
        pool.warnings.splice(0..0, warning);
        pool
    })
}

fn dispatch<I: Send, R: Send>(items: Vec<I>, f: &(impl Fn(I) -> R + Sync)) -> Vec<R> {
    global_pool().dispatch(items, f)
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
}

/// Enumerated form of [`ParChunksMut`].
pub struct ParChunksMutEnumerate<'a, T> {
    items: Vec<(usize, &'a mut [T])>,
}

impl<'a, T: Send> ParChunksMutEnumerate<'a, T> {
    /// Apply `f` to every `(index, chunk)` pair across worker threads.
    pub fn for_each(self, f: impl Fn((usize, &'a mut [T])) + Sync) {
        dispatch(self.items, &f);
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
        dispatch(self.items.iter().collect(), &self.f).into_iter().collect()
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
        dispatch(self.items.iter().collect(), &|item| f(item).into_iter().collect::<Vec<_>>())
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
    use std::sync::{mpsc, Arc, Barrier, Condvar, Mutex};
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    /// A gate a test opens once; every `wait` returns after that.
    #[derive(Default)]
    struct Gate(Mutex<bool>, Condvar);

    impl Gate {
        fn open(&self) {
            *self.0.lock().unwrap() = true;
            self.1.notify_all();
        }

        fn wait(&self) {
            drop(self.1.wait_while(self.0.lock().unwrap(), |open| !*open).unwrap());
        }
    }

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
        let v = [1, 2, 3];
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
        let v = [1usize, 2, 3];
        let out: Vec<usize> = v.par_iter().flat_map(|&x| vec![x; x]).collect();
        assert_eq!(out, vec![1, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn pool_preserves_order_on_multithreaded_pool() {
        // A private pool pins multithreaded dispatch even on 1-core hosts.
        let pool = Pool::new(4);
        let out = pool.dispatch((0..257).collect(), &|i| i * 3);
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
        let out = pool.dispatch((0..n).collect(), &|i| {
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
            // Each item holds its executor until all three have started, so
            // the three items run on three distinct threads.
            let all_started = Barrier::new(3);
            let ran_on = pool.dispatch((0..3).collect(), &|_i: usize| {
                all_started.wait();
                std::thread::current().id()
            });
            ran_on.into_iter().filter(|id| *id != caller).collect()
        };
        let first = observe(&pool);
        let second = observe(&pool);
        assert_eq!(first.len(), 2, "three items over caller + two residents");
        // Persistent pool: the second dispatch runs on the *same* resident
        // workers — no fresh OS threads per call.
        assert_eq!(first, second);
    }

    #[test]
    fn a_dispatch_never_runs_another_dispatchs_work() {
        // Two executors: the caller and one resident worker.
        let pool = Arc::new(Pool::new(2));
        let x_running = Arc::new(Barrier::new(3));
        let x_gate = Arc::new(Gate::default());
        let b_returned = Arc::new(Gate::default());

        // Call X holds both of its executors on a gate: no worker is free.
        let x = {
            let (pool, x_running, x_gate) = (pool.clone(), x_running.clone(), x_gate.clone());
            std::thread::spawn(move || {
                pool.dispatch(vec![0, 1], &|i| {
                    x_running.wait();
                    x_gate.wait();
                    i
                })
            })
        };
        x_running.wait();

        // Call A queues an executor behind them; every item of A, the one
        // its caller is running included, waits until B has returned.
        let (a_started, a_running) = mpsc::channel();
        let a = {
            let (pool, b_returned) = (pool.clone(), b_returned.clone());
            std::thread::spawn(move || {
                pool.dispatch(vec![0, 1], &|i| {
                    a_started.send(()).ok();
                    b_returned.wait();
                    i
                })
            })
        };
        a_running.recv().unwrap();

        // Call B queues its executor behind A's. Its caller must finish B
        // alone: running A's queued executor would wait on B itself.
        let (b_done, b_result) = mpsc::channel();
        let b = {
            let pool = pool.clone();
            std::thread::spawn(move || b_done.send(pool.dispatch(vec![1, 2], &|i| i)).unwrap())
        };
        let got = b_result.recv_timeout(Duration::from_secs(10));
        b_returned.open();
        x_gate.open();
        assert_eq!(got, Ok(vec![1, 2]), "B must return without running A's work");
        b.join().unwrap();
        assert_eq!(a.join().unwrap(), vec![0, 1]);
        assert_eq!(x.join().unwrap(), vec![0, 1]);
    }

    #[test]
    fn nested_par_iter_inside_par_chunks_mut_does_not_deadlock() {
        let pool = Pool::new(2);
        // Nested parallel calls from inside pool buckets run inline; with a
        // fixed-size pool a queue-blocking implementation would deadlock
        // here (every executor waiting on buckets nobody is free to run).
        let mut data = vec![0u64; 64];
        let chunks: Vec<&mut [u64]> = data.chunks_mut(8).collect();
        pool.dispatch(chunks, &|chunk: &mut [u64]| {
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
            pool.dispatch((0..64).collect(), &|i| {
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
            pool.dispatch((0..16).collect(), &|i| if i == 3 { panic!("boom") } else { i })
        }));
        assert!(poisoned.is_err());
        let out = pool.dispatch((0..16).collect(), &|i| i + 1);
        assert_eq!(out, (1..=16).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_resolution_prefers_env_override() {
        assert_eq!(super::resolve_threads(Some("6")), (6, None));
        assert_eq!(super::resolve_threads(Some(" 2 ")), (2, None));
        // Malformed or zero overrides warn and fall back to the host count.
        let host = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
        for raw in ["0", "lots"] {
            let (threads, warning) = super::resolve_threads(Some(raw));
            assert_eq!(threads, host);
            assert!(warning.is_some_and(|w| w.starts_with(&format!("HANAYO_THREADS={raw:?}"))));
        }
        assert_eq!(super::resolve_threads(None), (host, None));
    }
}
