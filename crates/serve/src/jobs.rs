//! Background sweep jobs: `submit → ack(job_id) → status → result`,
//! with interest-counted cancellation (a job shared by several
//! submitters aborts only when the *last* interested party cancels) and
//! a drain that waits for running jobs before shutdown.

use crate::state::lock;
use hanayo_core::abort::AbortFlag;
use hanayo_sim::TuneProgress;
use serde::Serialize;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum JobState {
    /// The sweep is running (or queued on a worker thread).
    Running,
    /// Finished; the JSON response body is ready.
    Done(String),
    /// The sweep failed; the error body explains why.
    Failed(String),
    /// Cancelled before completion.
    Cancelled,
}

/// One background job's shared record.
pub(crate) struct Job {
    /// Server-assigned id, monotonically increasing, never reused.
    pub id: u64,
    /// The request's exact JSON bytes — identical submissions attach to
    /// the same job instead of running the sweep twice.
    pub key: String,
    /// Tripping this aborts the sweep at its next batch checkpoint.
    pub abort: Arc<AbortFlag>,
    /// Live candidate counters the status endpoint reports.
    pub progress: Arc<TuneProgress>,
    /// Submitters currently interested in the result; cancel decrements
    /// and only the transition to zero trips the abort.
    interested: AtomicUsize,
    state: Mutex<JobState>,
    cv: Condvar,
}

/// The status document `GET /v1/jobs/<id>` answers with.
#[derive(Debug, Serialize)]
pub(crate) struct JobStatus {
    /// Job id.
    pub id: u64,
    /// `running`, `done`, `failed` or `cancelled`.
    pub state: String,
    /// Candidates evaluated so far.
    pub evaluated: u64,
    /// Total candidates in the sweep (0 until the space is enumerated).
    pub total: u64,
}

impl Job {
    fn new(id: u64, key: String) -> Job {
        Job {
            id,
            key,
            abort: Arc::new(AbortFlag::new()),
            progress: Arc::new(TuneProgress::default()),
            interested: AtomicUsize::new(1),
            state: Mutex::new(JobState::Running),
            cv: Condvar::new(),
        }
    }

    /// Current state, cloned.
    pub(crate) fn state(&self) -> JobState {
        lock(&self.state).clone()
    }

    /// The status document for this job.
    pub(crate) fn status(&self) -> JobStatus {
        let state = match self.state() {
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
            JobState::Cancelled => "cancelled",
        };
        JobStatus {
            id: self.id,
            state: state.to_string(),
            evaluated: self.progress.evaluated(),
            total: self.progress.total(),
        }
    }

    /// Worker-side: publish the terminal state exactly once (a cancel
    /// that raced a completion keeps whichever landed first).
    pub(crate) fn finish(&self, state: JobState) {
        let mut guard = lock(&self.state);
        if *guard == JobState::Running {
            *guard = state;
            self.cv.notify_all();
        }
    }

    /// Block until the job leaves `Running`, then return the terminal
    /// state. HTTP handlers poll via [`Job::status`] instead.
    #[cfg(test)]
    pub(crate) fn wait(&self) -> JobState {
        let mut guard = lock(&self.state);
        while *guard == JobState::Running {
            guard = match self.cv.wait(guard) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        guard.clone()
    }
}

/// Most finished (done, failed or cancelled) jobs kept queryable. Beyond
/// this the oldest finished job is dropped, and its id answers the same
/// 404 an unknown id gets; a running job is never dropped. A full wide
/// table is ≈ 120 KB, so this bounds what a resident host keeps.
pub(crate) const MAX_FINISHED_JOBS: usize = 64;

/// The job table: id allocation, submission dedup, worker handles for
/// the drain.
#[derive(Default)]
pub(crate) struct JobRegistry {
    next_id: AtomicU64,
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    /// Running jobs by request key, for submission dedup.
    by_key: Mutex<HashMap<String, u64>>,
    /// Finished job ids, oldest first, for the [`MAX_FINISHED_JOBS`] cap.
    finished: Mutex<VecDeque<u64>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// What a submission resolved to.
pub(crate) struct Submission {
    /// The (new or joined) job.
    pub job: Arc<Job>,
    /// False when an identical running job absorbed this submission —
    /// the caller must not spawn a second worker.
    pub fresh: bool,
}

impl JobRegistry {
    /// Submit a request key: attach to an identical *running* job if one
    /// exists (bumping its interest count), otherwise mint a new job.
    pub(crate) fn submit(&self, key: &str) -> Submission {
        let mut by_key = lock(&self.by_key);
        if let Some(&id) = by_key.get(key) {
            if let Some(job) = lock(&self.jobs).get(&id) {
                if job.state() == JobState::Running {
                    job.interested.fetch_add(1, Ordering::SeqCst);
                    hanayo_metrics::counter_add("hanayo_serve_dedup_joins_total", &[], 1);
                    return Submission { job: Arc::clone(job), fresh: false };
                }
            }
        }
        let id = self.next_id.fetch_add(1, Ordering::SeqCst) + 1;
        let job = Arc::new(Job::new(id, key.to_string()));
        lock(&self.jobs).insert(id, Arc::clone(&job));
        by_key.insert(key.to_string(), id);
        Submission { job, fresh: true }
    }

    /// Look a job up by id.
    pub(crate) fn get(&self, id: u64) -> Option<Arc<Job>> {
        lock(&self.jobs).get(&id).cloned()
    }

    /// Record a worker thread so [`JobRegistry::drain`] can join it.
    /// Handles of workers that already exited are let go here, since
    /// there is nothing left to join.
    pub(crate) fn track_worker(&self, handle: JoinHandle<()>) {
        let mut workers = lock(&self.workers);
        workers.retain(|h| !h.is_finished());
        workers.push(handle);
    }

    /// Worker-side: a job reached a terminal state — stop routing new
    /// submissions of its key to it, and count it among the finished
    /// jobs, dropping the oldest beyond `MAX_FINISHED_JOBS` (64).
    pub(crate) fn retire_key(&self, key: &str, id: u64) {
        {
            let mut by_key = lock(&self.by_key);
            if by_key.get(key) == Some(&id) {
                by_key.remove(key);
            }
        }
        let mut finished = lock(&self.finished);
        finished.push_back(id);
        while finished.len() > MAX_FINISHED_JOBS {
            if let Some(oldest) = finished.pop_front() {
                lock(&self.jobs).remove(&oldest);
            }
        }
    }

    /// Drop one submitter's interest in a job. The abort trips only when
    /// the last interested submitter cancels; returns whether this call
    /// actually initiated an abort.
    pub(crate) fn cancel(&self, job: &Job) -> bool {
        if job.state() != JobState::Running {
            return false;
        }
        let before = job.interested.fetch_sub(1, Ordering::SeqCst);
        if before == 1 {
            job.abort.trip();
            true
        } else {
            false
        }
    }

    /// Wait for every tracked worker to finish. Trip `abort_all` first
    /// (via the caller) to turn this into a bounded drain.
    pub(crate) fn drain(&self) {
        let workers = std::mem::take(&mut *lock(&self.workers));
        for handle in workers {
            // Nothing in a job thread catches a panic: a job whose sweep
            // panicked never published a terminal state, and the payload
            // in its join error is dropped here.
            let _ = handle.join();
        }
    }

    /// Trip every running job's abort flag (the shutdown path).
    pub(crate) fn abort_all(&self) {
        for job in lock(&self.jobs).values() {
            if job.state() == JobState::Running {
                job.abort.trip();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_running_submissions_share_one_job() {
        let reg = JobRegistry::default();
        let first = reg.submit("req-a");
        let second = reg.submit("req-a");
        let other = reg.submit("req-b");
        assert!(first.fresh);
        assert!(!second.fresh, "identical running submission must join");
        assert!(other.fresh);
        assert_eq!(first.job.id, second.job.id);
        assert_ne!(first.job.id, other.job.id);
    }

    #[test]
    fn cancel_trips_the_abort_only_at_zero_interest() {
        let reg = JobRegistry::default();
        let a = reg.submit("req");
        let b = reg.submit("req");
        assert!(!reg.cancel(&a.job), "one interested submitter remains");
        assert!(!a.job.abort.is_tripped());
        assert!(reg.cancel(&b.job), "last cancel must abort");
        assert!(b.job.abort.is_tripped());
    }

    #[test]
    fn finished_jobs_do_not_absorb_new_submissions() {
        let reg = JobRegistry::default();
        let first = reg.submit("req");
        first.job.finish(JobState::Done("{}".to_string()));
        reg.retire_key("req", first.job.id);
        let second = reg.submit("req");
        assert!(second.fresh, "a done job must not absorb new submissions");
        assert_ne!(first.job.id, second.job.id);
        // The finished job stays queryable by id.
        assert_eq!(reg.get(first.job.id).expect("kept").state(), first.job.state());
    }

    #[test]
    fn only_the_newest_finished_jobs_are_kept() {
        let reg = JobRegistry::default();
        let running = reg.submit("running");
        let ids: Vec<u64> = (0..=MAX_FINISHED_JOBS)
            .map(|i| {
                let key = format!("req-{i}");
                let job = reg.submit(&key).job;
                job.finish(JobState::Done(format!("body-{i}")));
                reg.retire_key(&key, job.id);
                job.id
            })
            .collect();
        assert!(reg.get(ids[0]).is_none(), "the oldest finished job must be dropped");
        let last = reg.get(ids[MAX_FINISHED_JOBS]).expect("newest finished job kept");
        assert_eq!(last.state(), JobState::Done(format!("body-{MAX_FINISHED_JOBS}")));
        assert!(ids[1..].iter().all(|&id| reg.get(id).is_some()));
        assert_eq!(reg.get(running.job.id).expect("running job kept").state(), JobState::Running);
    }

    #[test]
    fn finish_is_first_writer_wins() {
        let job = Job::new(1, "req".to_string());
        job.finish(JobState::Done("body".to_string()));
        job.finish(JobState::Cancelled);
        assert_eq!(job.state(), JobState::Done("body".to_string()));
        assert_eq!(job.wait(), JobState::Done("body".to_string()));
    }
}
