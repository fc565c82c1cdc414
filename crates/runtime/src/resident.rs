//! Resident device threads.
//!
//! Every training call runs each device — and, data-parallel, each
//! replica — on an OS thread of its own. Spawning and joining those per
//! call costs more than a whole iteration of a small model, so the process
//! keeps every thread it has started: an idle one waits on its own
//! condition variable in a process-wide idle list. [`scope`] checks out
//! one thread per job for the call alone (spawning only when too few are
//! idle), hands each its job, and each thread puts itself back on the list
//! when its job ends. Because a call's threads are its own, jobs of one
//! call may wait on each other (devices on their peers' messages, replicas
//! in the all-reduce) while other calls run beside them.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// One job of a [`scope`]: it may borrow anything that outlives the call.
pub(crate) type Job<'env, T> = Box<dyn FnOnce() -> T + Send + 'env>;

/// What a resident thread runs: a job with its borrows erased (see the
/// SAFETY argument in [`scope`]), and the latch it counts down after.
type Task = (Box<dyn FnOnce() + Send + 'static>, Arc<Latch>);

/// The job of a [`scope`] whose thread could not be started. No job of
/// that call ran.
#[derive(Debug)]
pub(crate) struct SpawnError {
    /// Index of the job.
    pub job: usize,
    /// Why the OS refused the thread.
    pub error: io::Error,
}

/// A resident thread's inbox.
struct Hand {
    next: Mutex<Option<Task>>,
    ready: Condvar,
}

/// Resident threads waiting for a job.
static IDLE: Mutex<Vec<Arc<Hand>>> = Mutex::new(Vec::new());

/// Jobs of one [`scope`] still running.
#[derive(Default)]
struct Latch {
    running: Mutex<usize>,
    done: Condvar,
}

/// Lock without propagating poison: nothing here panics while holding a
/// lock, and a resident thread must outlive any job's panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Latch {
    fn count_down(&self) {
        let mut running = lock(&self.running);
        *running -= 1;
        if *running == 0 {
            self.done.notify_all();
        }
    }
}

/// Waits, when dropped, until every job handed over so far has finished —
/// on the normal path and on an unwind alike, so no job can outlive the
/// borrows it was given.
struct Finish(Arc<Latch>);

impl Drop for Finish {
    fn drop(&mut self) {
        let mut running = lock(&self.0.running);
        while *running > 0 {
            running = self.0.done.wait(running).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// An idle resident thread, or a new one.
fn checkout() -> io::Result<Arc<Hand>> {
    if let Some(hand) = lock(&IDLE).pop() {
        return Ok(hand);
    }
    let hand = Arc::new(Hand { next: Mutex::new(None), ready: Condvar::new() });
    let serving = Arc::clone(&hand);
    thread::Builder::new().name("hanayo-device".to_string()).spawn(move || serve(&serving))?;
    Ok(hand)
}

/// A resident thread's life: wait for a task, run it, go back on the idle
/// list, then report the task done — in that order, so a call that starts
/// once this one has returned finds the thread idle.
fn serve(hand: &Arc<Hand>) {
    loop {
        let (task, latch) = {
            let mut next = lock(&hand.next);
            loop {
                match next.take() {
                    Some(task) => break task,
                    None => next = hand.ready.wait(next).unwrap_or_else(PoisonError::into_inner),
                }
            }
        };
        task();
        lock(&IDLE).push(Arc::clone(hand));
        latch.count_down();
    }
}

/// Run every job on a resident thread of its own and return their results
/// in job order, with `std::thread::scope`'s contract: jobs may borrow the
/// caller's data, the call returns only after every job has finished, and
/// a panicking job comes back as its `Err` with the payload. All threads
/// are checked out before any job starts, so a thread the OS refuses fails
/// the call with no job run (and so no job left waiting for it).
pub(crate) fn scope<'env, T: Send + 'env>(
    jobs: Vec<Job<'env, T>>,
) -> Result<Vec<thread::Result<T>>, SpawnError> {
    let mut hands = Vec::with_capacity(jobs.len());
    for job in 0..jobs.len() {
        match checkout() {
            Ok(hand) => hands.push(hand),
            Err(error) => {
                lock(&IDLE).extend(hands);
                return Err(SpawnError { job, error });
            }
        }
    }
    let mut results: Vec<Option<thread::Result<T>>> = (0..jobs.len()).map(|_| None).collect();
    let finish = Finish(Arc::new(Latch::default()));
    for ((job, out), hand) in jobs.into_iter().zip(&mut results).zip(&hands) {
        let task: Box<dyn FnOnce() + Send + '_> =
            Box::new(move || *out = Some(catch_unwind(AssertUnwindSafe(job))));
        // SAFETY: the task borrows `'env` data and this call's `results`.
        // `finish` counts it before it is handed over and, when dropped
        // (below, or on an unwind out of this loop), waits until the
        // resident thread has run it and dropped it — a task is consumed
        // by its call before its latch counts down. So no erased borrow
        // outlives its referent: the argument of the rayon shim's
        // `run_tasks`.
        let task = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send>>(task)
        };
        *lock(&finish.0.running) += 1;
        *lock(&hand.next) = Some((task, Arc::clone(&finish.0)));
        hand.ready.notify_one();
    }
    drop(finish);
    let unrun = || -> thread::Result<T> { Err(Box::new("the job did not run")) };
    Ok(results.into_iter().map(|r| r.unwrap_or_else(unrun)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    /// `n` jobs that each wait for all the others, then report their
    /// thread: the jobs of one call run concurrently on distinct threads.
    fn rendezvous(n: usize) -> Vec<ThreadId> {
        let barrier = Barrier::new(n);
        let jobs: Vec<Job<'_, ThreadId>> = (0..n)
            .map(|_| {
                let barrier = &barrier;
                Box::new(move || {
                    barrier.wait();
                    thread::current().id()
                }) as Job<'_, ThreadId>
            })
            .collect();
        scope(jobs).unwrap().into_iter().map(|r| r.unwrap()).collect()
    }

    #[test]
    fn jobs_borrow_run_concurrently_and_return_in_order() {
        let words = ["a", "bb", "ccc"];
        let mut counted = [0usize; 3];
        let jobs: Vec<Job<'_, usize>> = counted
            .iter_mut()
            .zip(&words)
            .map(|(slot, w)| {
                Box::new(move || {
                    *slot = w.len();
                    w.len() * 10
                }) as Job<'_, usize>
            })
            .collect();
        let out: Vec<usize> = scope(jobs).unwrap().into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(out, vec![10, 20, 30]);
        assert_eq!(counted, [1, 2, 3], "jobs wrote through their borrows before the return");
        let ids: HashSet<ThreadId> = rendezvous(4).into_iter().collect();
        assert_eq!(ids.len(), 4);
        assert!(!ids.contains(&thread::current().id()));
    }

    #[test]
    fn a_panicking_job_is_its_err_and_its_thread_stays_resident() {
        let jobs: Vec<Job<'_, u32>> =
            vec![Box::new(|| 7), Box::new(|| panic!("job 1 failed")), Box::new(|| 9)];
        let out = scope(jobs).unwrap();
        assert_eq!(*out[0].as_ref().unwrap(), 7);
        assert_eq!(*out[2].as_ref().unwrap(), 9);
        let payload = out[1].as_ref().unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job 1 failed"));
        // The thread that caught the panic serves the next call.
        assert_eq!(rendezvous(3).len(), 3);
    }

    #[test]
    fn nested_scopes_check_out_threads_of_their_own() {
        // Two outer jobs, each running a nested call whose two jobs wait
        // for all four inner jobs: only distinct threads can finish it.
        let barrier = Barrier::new(4);
        let outer: Vec<Job<'_, Vec<ThreadId>>> = (0..2)
            .map(|_| {
                let barrier = &barrier;
                Box::new(move || {
                    let inner: Vec<Job<'_, ThreadId>> = (0..2)
                        .map(|_| {
                            Box::new(move || {
                                barrier.wait();
                                thread::current().id()
                            }) as Job<'_, ThreadId>
                        })
                        .collect();
                    scope(inner).unwrap().into_iter().map(|r| r.unwrap()).collect()
                }) as Job<'_, Vec<ThreadId>>
            })
            .collect();
        let ids: HashSet<ThreadId> =
            scope(outer).unwrap().into_iter().flat_map(|r| r.unwrap()).collect();
        assert_eq!(ids.len(), 4);
    }
}
