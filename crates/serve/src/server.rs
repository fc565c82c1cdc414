//! The resident planning host: a blocking TCP accept loop, a small
//! resident set of connection workers, the endpoint router, and graceful
//! drain.
//!
//! Nothing on a request's path waits on a clock: `accept` blocks and is
//! woken for shutdown by a self-connect, a stream is handed to a parked
//! worker (or a new one, up to `MAX_WORKERS`) under one mutex + condvar,
//! and the drain ends blocked reads with `shutdown(Read)` instead of
//! waiting for a read timeout.
//!
//! ## Endpoints
//!
//! | method | path                  | semantics                                     |
//! |--------|-----------------------|-----------------------------------------------|
//! | GET    | `/healthz`            | liveness, `ok`                                |
//! | GET    | `/metrics`            | Prometheus text exposition                    |
//! | POST   | `/v1/plan`            | evaluate one explicit plan                    |
//! | POST   | `/v1/tune`            | synchronous sweep (deduplicated, cached)      |
//! | POST   | `/v1/simulate`        | simulate one schedule                         |
//! | POST   | `/v1/analyze`         | static schedule verification                  |
//! | POST   | `/v1/jobs/tune`       | background sweep → `202 {job_id}`             |
//! | GET    | `/v1/jobs/<id>`       | job status (state + progress counters)        |
//! | GET    | `/v1/jobs/<id>/result`| `200` body / `202` still running / `409`/`500`|
//! | POST   | `/v1/jobs/<id>/cancel`| drop interest; abort at zero interest         |
//! | POST   | `/shutdown`           | begin draining, then stop                     |
//!
//! Success bodies are byte-identical to the corresponding one-shot CLI's
//! `--compact` stdout — both are produced by the same
//! [`crate::schema`] builders and both end in `\n`.

use crate::http::{read_request, write_response, ReadError, Request, Response, IDLE_TIMEOUT};
use crate::jobs::{JobRegistry, JobState};
use crate::schema::{
    run_analyze, run_plan, run_simulate, run_tune, AnalyzeRequest, PlanRequest, RunError,
    SimulateRequest, TuneRequest,
};
use crate::state::{lock, Join, ServeState};
use hanayo_core::abort::AbortFlag;
use hanayo_metrics::{counter_add, monotonic_nanos, observe, NANOS_BUCKETS};
use hanayo_sim::TuneContext;
use serde::Serialize;
use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Most connection workers alive at once. The load test runs up to 256
/// client threads and its dedup burst parks that many followers inside
/// their workers, so a lower cap would serialise it. At the cap the accept
/// thread stops accepting until a worker frees: what waits then waits in
/// the kernel's (bounded) listen backlog, not in a queue of ours.
const MAX_WORKERS: usize = 256;
/// Workers that stay parked between connections. One that comes back to
/// find this many parked already exits: a set that only grew would ratchet
/// up on every reconnect that raced its own worker's return, and each
/// resident thread keeps its malloc arena at its high-water mark.
const KEPT_IDLE: usize = 2;

/// Everything the accept loop, connection workers and job workers share.
pub(crate) struct Shared {
    pub state: ServeState,
    pub jobs: JobRegistry,
    /// Tripped once: connections close after the in-flight exchange and
    /// every running sweep aborts at its next checkpoint.
    pub shutdown: Arc<AbortFlag>,
    workers: Workers,
    /// Where a connect reaches the listener: the bound address, with
    /// loopback standing in for an unspecified IP.
    wake: SocketAddr,
}

impl Shared {
    fn new(bound: SocketAddr) -> Shared {
        let mut wake = bound;
        if wake.ip().is_unspecified() {
            wake.set_ip(match bound {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Shared {
            state: ServeState::default(),
            jobs: JobRegistry::default(),
            shutdown: Arc::new(AbortFlag::new()),
            workers: Workers::default(),
            wake,
        }
    }

    /// Flip into draining mode: refuse new work, abort running sweeps,
    /// end every read blocked between requests, wake the accept thread.
    fn begin_shutdown(&self) {
        let first = !self.state.draining.swap(true, Ordering::SeqCst);
        self.shutdown.trip();
        self.jobs.abort_all();
        self.workers.close();
        if first {
            // The accept thread may be blocked in `accept`; this connection
            // is what it returns with, to find the hand-off closed. (If it
            // is not blocked there it needs no waking, and closes the
            // listener under a connect still queued behind a full backlog.)
            let _ = TcpStream::connect(self.wake);
        }
    }
}

/// What the accept thread and the connection workers hand each other,
/// and what the drain needs to see of both.
#[derive(Default)]
struct Handoff {
    /// Accepted streams, each with a parked worker already woken for it.
    pending: VecDeque<TcpStream>,
    /// Workers parked on the condvar.
    idle: usize,
    /// Workers alive, parked or serving.
    live: usize,
    /// Set by shutdown: parked workers exit and nothing more is queued.
    closed: bool,
    /// The stream under each serving worker, so that shutdown can end a
    /// read blocked between requests.
    serving: Vec<Arc<TcpStream>>,
    /// The accept thread has seen the last job and the last worker out.
    drained: bool,
    #[cfg(test)]
    live_high_water: usize,
}

#[derive(Default)]
struct Workers {
    state: Mutex<Handoff>,
    cv: Condvar,
    /// Signalled once, when `drained` is set. Drain waiters have their own
    /// condvar so that `cv`'s `notify_one` only ever reaches workers.
    done: Condvar,
}

fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

impl Workers {
    /// Accept thread: block until one more connection could be served —
    /// by a parked worker nobody has been woken for, or by a new one under
    /// the cap. `false` once the hand-off is closed.
    fn wait_for_room(&self) -> bool {
        let mut st = lock(&self.state);
        while !st.closed && st.idle <= st.pending.len() && st.live >= MAX_WORKERS {
            st = wait(&self.cv, st);
        }
        !st.closed
    }

    /// Worker: the next connection to serve, parking for one if fewer
    /// than [`KEPT_IDLE`] workers are parked already. `None` means exit.
    fn next(&self) -> Option<TcpStream> {
        let mut st = lock(&self.state);
        if st.live >= MAX_WORKERS {
            // The accept thread may be waiting for exactly this worker.
            self.cv.notify_all();
        }
        loop {
            if let Some(stream) = st.pending.pop_front() {
                return Some(stream);
            }
            if st.closed || st.idle >= KEPT_IDLE {
                return None;
            }
            st.idle += 1;
            st = wait(&self.cv, st);
            st.idle -= 1;
        }
    }

    /// Shutdown: wake every parked worker to exit, the accept thread if it
    /// waits for room, and every read blocked between requests (a handler
    /// in flight still writes its response before its worker closes).
    fn close(&self) {
        let mut st = lock(&self.state);
        st.closed = true;
        for stream in &st.serving {
            let _ = stream.shutdown(Shutdown::Read);
        }
        self.cv.notify_all();
    }

    /// Worker: make `stream` reachable by [`Workers::close`] while it is
    /// being served.
    fn register(&self, stream: &Arc<TcpStream>) -> Serving<'_> {
        let mut st = lock(&self.state);
        if st.closed {
            let _ = stream.shutdown(Shutdown::Read);
        }
        st.serving.push(Arc::clone(stream));
        Serving { workers: self, stream: Arc::clone(stream) }
    }

    /// Accept thread, last step of the drain: wait out the workers, then
    /// publish `drained`.
    fn finish_drain(&self) {
        let mut st = lock(&self.state);
        while st.live > 0 {
            st = wait(&self.cv, st);
        }
        st.drained = true;
        self.done.notify_all();
    }

    /// Block until the drain has finished.
    fn wait_drained(&self) {
        let mut st = lock(&self.state);
        while !st.drained {
            st = wait(&self.done, st);
        }
    }

    /// Block until the drain has finished or `deadline` has passed; which.
    fn drained_within(&self, deadline: Duration) -> bool {
        let st = lock(&self.state);
        let (st, _) = self
            .done
            .wait_timeout_while(st, deadline, |st| !st.drained)
            .unwrap_or_else(PoisonError::into_inner);
        st.drained
    }
}

/// A stream's entry in [`Handoff::serving`], removed on drop.
struct Serving<'a> {
    workers: &'a Workers,
    stream: Arc<TcpStream>,
}

impl Drop for Serving<'_> {
    fn drop(&mut self) {
        let mut st = lock(&self.workers.state);
        if let Some(i) = st.serving.iter().position(|s| Arc::ptr_eq(s, &self.stream)) {
            st.serving.swap_remove(i);
        }
    }
}

/// One worker's place under [`MAX_WORKERS`], given back on drop — so a
/// handler that panics costs its connection, never the slot.
struct Slot(Arc<Shared>);

impl Drop for Slot {
    fn drop(&mut self) {
        let workers = &self.0.workers;
        lock(&workers.state).live -= 1;
        // The accept thread may be waiting for room, or for the last
        // worker of a drain.
        workers.cv.notify_all();
    }
}

impl Slot {
    /// A worker's life: the connection it was spawned for, then whatever
    /// the accept thread hands over while it is parked.
    fn run(self, first: TcpStream) {
        let mut next = Some(first);
        while let Some(stream) = next {
            connection(&self.0, stream);
            next = self.0.workers.next();
        }
    }
}

/// Accept thread: give `stream` to a parked worker, or to a new one.
/// [`Workers::wait_for_room`] has returned `true` since the last call and
/// room only grows in between, so one of the two exists.
fn hand_off(shared: &Arc<Shared>, stream: TcpStream) {
    let workers = &shared.workers;
    let mut st = lock(&workers.state);
    if st.closed {
        return;
    }
    if st.idle > st.pending.len() {
        st.pending.push_back(stream);
        // Only parked workers wait on the condvar while the hand-off is
        // open: this thread is the one other waiter, and drain waiters
        // wait on `done`.
        workers.cv.notify_one();
        return;
    }
    st.live += 1;
    #[cfg(test)]
    {
        st.live_high_water = st.live_high_water.max(st.live);
    }
    drop(st);
    let slot = Slot(Arc::clone(shared));
    // A failed spawn drops the closure: the slot is given back and the
    // peer sees the connection close. The handle is not kept: a worker
    // exits when it chooses to, and the drain waits for `live == 0`, which
    // every exit reports through its `Slot`.
    let _ = thread::Builder::new()
        .name("hanayo-serve-conn".to_string())
        .spawn(move || slot.run(stream));
}

#[derive(Serialize)]
struct ErrorDoc {
    error: String,
}

/// A one-line JSON error body (newline-terminated like every body).
fn error_body(msg: &str) -> String {
    match serde_json::to_string(&ErrorDoc { error: msg.to_string() }) {
        Ok(s) => s + "\n",
        Err(_) => "{\"error\":\"unserialisable error\"}\n".to_string(),
    }
}

fn bad_request(msg: &str) -> Response {
    Response::json(400, error_body(msg))
}

/// Render a successful schema document: compact JSON + the CLI's
/// trailing newline.
fn doc_body<T: Serialize>(doc: &T) -> (u16, String) {
    match serde_json::to_string(doc) {
        Ok(s) => (200, s + "\n"),
        Err(e) => (500, error_body(&format!("serialising the response failed: {e}"))),
    }
}

fn outcome_body<T: Serialize>(outcome: Result<T, RunError>) -> (u16, String) {
    match outcome {
        Ok(doc) => doc_body(&doc),
        Err(RunError::BadRequest(msg)) => (400, error_body(&msg)),
        Err(e @ RunError::Cancelled { .. }) => (503, error_body(&e.to_string())),
    }
}

/// Parse a JSON request body into a typed request.
fn parse_body<T: serde::Deserialize>(body: &[u8]) -> Result<T, Response> {
    let text = std::str::from_utf8(body)
        .map_err(|e| bad_request(&format!("request body is not utf-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| bad_request(&format!("parsing request: {e}")))
}

/// The static label a request is accounted under in the metrics.
fn endpoint_label(path: &str) -> &'static str {
    match path {
        "/healthz" => "healthz",
        "/metrics" => "metrics",
        "/v1/plan" => "plan",
        "/v1/tune" => "tune",
        "/v1/simulate" => "simulate",
        "/v1/analyze" => "analyze",
        "/v1/jobs/tune" => "jobs_submit",
        "/shutdown" => "shutdown",
        p if p.starts_with("/v1/jobs/") && p.ends_with("/cancel") => "jobs_cancel",
        p if p.starts_with("/v1/jobs/") && p.ends_with("/result") => "jobs_result",
        p if p.starts_with("/v1/jobs/") => "jobs_status",
        _ => "other",
    }
}

/// If the leader of an identical-request group dies without publishing,
/// its followers would wait forever; this guard turns that into a 500.
struct PublishGuard<'a> {
    shared: &'a Shared,
    key: &'a str,
    armed: bool,
}

impl Drop for PublishGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.shared
                .state
                .inflight
                .publish(self.key, (500, error_body("the leading request aborted")));
        }
    }
}

/// Synchronous `tune`: canonicalise the request, join or lead the
/// in-flight group, compute behind the shared per-configuration caches.
fn handle_tune(shared: &Shared, body: &[u8]) -> Response {
    let req: TuneRequest = match parse_body(body) {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    let key = match serde_json::to_string(&req) {
        Ok(k) => k,
        Err(e) => return bad_request(&format!("canonicalising request: {e}")),
    };
    match shared.state.inflight.join(&key) {
        Join::Joined(status, body) => Response::json(status, body),
        Join::Leader => {
            let mut guard = PublishGuard { shared, key: &key, armed: true };
            let ctx = TuneContext {
                caches: Some(shared.state.caches_for(req.config_key())),
                abort: Some(Arc::clone(&shared.shutdown)),
                progress: None,
                checkpoint_every: 0,
            };
            let (status, body) = outcome_body(run_tune(&req, &ctx));
            guard.armed = false;
            drop(guard);
            shared.state.inflight.publish(&key, (status, body.clone()));
            Response::json(status, body)
        }
    }
}

/// Acknowledgement for a background-job submission.
#[derive(Serialize)]
struct JobAck {
    job_id: u64,
    state: String,
    /// True when an identical running job absorbed this submission.
    deduplicated: bool,
}

/// `POST /v1/jobs/tune`: mint (or join) a background sweep job.
fn handle_job_submit(shared: &Arc<Shared>, body: &[u8]) -> Response {
    let req: TuneRequest = match parse_body(body) {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    let key = match serde_json::to_string(&req) {
        Ok(k) => k,
        Err(e) => return bad_request(&format!("canonicalising request: {e}")),
    };
    let sub = shared.jobs.submit(&key);
    if sub.fresh {
        let worker_shared = Arc::clone(shared);
        let job = Arc::clone(&sub.job);
        let spawned =
            thread::Builder::new().name(format!("hanayo-serve-job-{}", job.id)).spawn(move || {
                let ctx = TuneContext {
                    caches: Some(worker_shared.state.caches_for(req.config_key())),
                    abort: Some(Arc::clone(&job.abort)),
                    progress: Some(Arc::clone(&job.progress)),
                    checkpoint_every: 0,
                };
                let state = match run_tune(&req, &ctx) {
                    Ok(table) => match serde_json::to_string(&table) {
                        Ok(s) => JobState::Done(s + "\n"),
                        Err(e) => {
                            JobState::Failed(error_body(&format!("serialising the table: {e}")))
                        }
                    },
                    Err(RunError::BadRequest(msg)) => JobState::Failed(error_body(&msg)),
                    Err(RunError::Cancelled { .. }) => JobState::Cancelled,
                };
                let outcome = match &state {
                    JobState::Done(_) => "done",
                    JobState::Failed(_) => "failed",
                    _ => "cancelled",
                };
                counter_add("hanayo_serve_jobs_total", &[("outcome", outcome)], 1);
                job.finish(state);
                worker_shared.jobs.retire_key(&job.key, job.id);
            });
        match spawned {
            Ok(handle) => shared.jobs.track_worker(handle),
            Err(e) => {
                sub.job.finish(JobState::Failed(error_body(&format!("spawning worker: {e}"))));
                shared.jobs.retire_key(&sub.job.key, sub.job.id);
                return Response::json(500, error_body(&format!("spawning worker: {e}")));
            }
        }
    }
    let ack = JobAck { job_id: sub.job.id, state: "running".to_string(), deduplicated: !sub.fresh };
    let (_, body) = doc_body(&ack);
    Response::json(202, body)
}

/// Acknowledgement for a job cancellation.
#[derive(Serialize)]
struct CancelAck {
    job_id: u64,
    /// Did this cancel actually initiate the abort (interest hit zero)?
    aborting: bool,
}

/// `GET`/`POST /v1/jobs/...` routing.
fn handle_jobs(shared: &Shared, req: &Request) -> Response {
    let rest = &req.path["/v1/jobs/".len()..];
    let (id_str, action) = match rest.strip_suffix("/result") {
        Some(id) => (id, "result"),
        None => match rest.strip_suffix("/cancel") {
            Some(id) => (id, "cancel"),
            None => (rest, "status"),
        },
    };
    let id: u64 = match id_str.parse() {
        Ok(id) => id,
        Err(_) => return Response::json(404, error_body(&format!("bad job id {id_str}"))),
    };
    let job = match shared.jobs.get(id) {
        Some(job) => job,
        None => return Response::json(404, error_body(&format!("no job {id}"))),
    };
    match (req.method.as_str(), action) {
        ("GET", "status") => {
            let (status, body) = doc_body(&job.status());
            Response::json(status, body)
        }
        ("GET", "result") => match job.state() {
            JobState::Done(body) => Response::json(200, body),
            JobState::Running => {
                let (_, body) = doc_body(&job.status());
                Response::json(202, body)
            }
            JobState::Cancelled => Response::json(409, error_body(&format!("job {id} cancelled"))),
            JobState::Failed(body) => {
                Response { status: 500, content_type: "application/json", body: body.into_bytes() }
            }
        },
        ("POST", "cancel") => {
            if job.state() != JobState::Running {
                return Response::json(409, error_body(&format!("job {id} already finished")));
            }
            let aborting = shared.jobs.cancel(&job);
            let (status, body) = doc_body(&CancelAck { job_id: id, aborting });
            Response::json(status, body)
        }
        _ => Response::json(405, error_body("method not allowed")),
    }
}

/// Route one request. `Accepting new work` is refused while draining;
/// reads keep answering so clients can collect results during the drain.
fn dispatch(shared: &Arc<Shared>, req: &Request) -> Response {
    let draining = shared.state.is_draining();
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok\n".to_string()),
        ("GET", "/metrics") => {
            shared.state.export_cache_gauges();
            let text = hanayo_metrics::expo::prometheus(&hanayo_metrics::snapshot());
            Response::text(200, text)
        }
        ("POST", "/shutdown") => {
            shared.begin_shutdown();
            Response::json(200, "{\"draining\":true}\n".to_string())
        }
        ("POST", _) if draining => {
            Response::json(503, error_body("draining: not accepting new work"))
        }
        ("POST", "/v1/plan") => match parse_body::<PlanRequest>(&req.body) {
            Ok(r) => {
                let (status, body) = outcome_body(run_plan(&r));
                Response::json(status, body)
            }
            Err(resp) => resp,
        },
        ("POST", "/v1/simulate") => match parse_body::<SimulateRequest>(&req.body) {
            Ok(r) => {
                let (status, body) = outcome_body(run_simulate(&r));
                Response::json(status, body)
            }
            Err(resp) => resp,
        },
        ("POST", "/v1/analyze") => match parse_body::<AnalyzeRequest>(&req.body) {
            Ok(r) => {
                let (status, body) = outcome_body(run_analyze(&r));
                Response::json(status, body)
            }
            Err(resp) => resp,
        },
        ("POST", "/v1/tune") => handle_tune(shared, &req.body),
        ("POST", "/v1/jobs/tune") => handle_job_submit(shared, &req.body),
        (_, p) if p.starts_with("/v1/jobs/") => handle_jobs(shared, req),
        (m, p)
            if matches!(
                p,
                "/healthz"
                    | "/metrics"
                    | "/v1/plan"
                    | "/v1/simulate"
                    | "/v1/analyze"
                    | "/v1/tune"
                    | "/v1/jobs/tune"
                    | "/shutdown"
            ) =>
        {
            Response::json(405, error_body(&format!("{m} not allowed on {p}")))
        }
        (_, p) => Response::json(404, error_body(&format!("no such endpoint {p}"))),
    }
}

/// Dispatch plus per-endpoint accounting.
fn route(shared: &Arc<Shared>, req: &Request) -> Response {
    let endpoint = endpoint_label(&req.path);
    let started = monotonic_nanos();
    let resp = dispatch(shared, req);
    let elapsed = monotonic_nanos().saturating_sub(started);
    observe("hanayo_serve_latency_ns", &[("endpoint", endpoint)], NANOS_BUCKETS, elapsed);
    let code = resp.status.to_string();
    counter_add("hanayo_serve_requests_total", &[("endpoint", endpoint), ("code", &code)], 1);
    resp
}

/// One keep-alive connection, until close, error, idle bound or shutdown.
fn connection(shared: &Arc<Shared>, stream: TcpStream) {
    if stream.set_nodelay(true).is_err() || stream.set_read_timeout(Some(IDLE_TIMEOUT)).is_err() {
        return;
    }
    let stream = Arc::new(stream);
    let _serving = shared.workers.register(&stream);
    let mut reader = BufReader::new(&*stream);
    let mut writer = &*stream;
    loop {
        match read_request(&mut reader) {
            Ok(req) => {
                // A response computed while the drain started still goes
                // out, but the connection closes behind it.
                let resp = route(shared, &req);
                let close = req.wants_close() || shared.shutdown.is_tripped();
                if write_response(&mut writer, &resp, close).is_err() || close {
                    return;
                }
            }
            Err(ReadError::Malformed(msg)) => {
                let _ = write_response(&mut writer, &bad_request(&msg), true);
                return;
            }
            // The peer closed, sat idle past the bound, or the drain ended
            // the read.
            Err(ReadError::Closed | ReadError::TimedOut | ReadError::Io(_)) => return,
        }
    }
}

/// A running server. Dropping the handle does *not* stop the server;
/// call [`Server::stop`] (or POST `/shutdown`).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl Server {
    /// The address actually bound (use port 0 to let the OS pick).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begin draining without waiting: refuse new work, abort sweeps.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Has the accept loop fully drained and exited?
    pub fn is_drained(&self) -> bool {
        lock(&self.shared.workers.state).drained
    }

    /// How many requests were answered from another identical request's
    /// computation (sync dedup only; job dedup is in the metrics).
    pub fn dedup_joins(&self) -> u64 {
        self.shared.state.inflight.join_count()
    }

    /// Shut down and wait for the drain to complete: running sweeps
    /// abort at their next candidate-batch checkpoint, job workers are
    /// joined and connection workers waited out. Bounded by the checkpoint
    /// spacing, not by sweep length or by any read timeout.
    pub fn stop(&self) {
        self.shutdown();
        if let Some(handle) = lock(&self.accept).take() {
            let _ = handle.join();
        }
    }

    /// Block until the drain has completed, without starting it: another
    /// thread calls [`Server::shutdown`] / [`Server::stop_within`], or a
    /// client POSTs `/shutdown`.
    pub fn wait_drained(&self) {
        self.shared.workers.wait_drained();
    }

    /// [`Server::stop`] with a deadline: returns `true` when the drain
    /// completed in time, `false` when threads were still closing when
    /// the deadline passed (the process may exit anyway — aborted sweeps
    /// hold nothing worth waiting for).
    pub fn stop_within(&self, deadline: Duration) -> bool {
        self.shutdown();
        let drained = self.shared.workers.drained_within(deadline);
        if drained {
            // Joins an accept thread that has already finished.
            self.stop();
        }
        drained
    }
}

/// Bind and start serving. `bind` is a `host:port` pair; port 0 picks a
/// free port (read it back from [`Server::addr`]). Enables the metrics
/// registry — a planning service without `/metrics` is flying blind.
pub fn serve(bind: &str) -> std::io::Result<Server> {
    hanayo_metrics::set_enabled(true);
    let listener = TcpListener::bind(bind)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared::new(addr));
    let accept = {
        let shared = Arc::clone(&shared);
        thread::Builder::new().name("hanayo-serve-accept".to_string()).spawn(move || {
            while shared.workers.wait_for_room() {
                match listener.accept() {
                    // Also how `begin_shutdown`'s wake-up arrives; the
                    // hand-off is closed by then and drops it.
                    Ok((stream, _)) => hand_off(&shared, stream),
                    // A failed accept (`EMFILE`, ...) would fail again at
                    // once; this back-off is the server's only sleep.
                    Err(_) => thread::sleep(Duration::from_millis(10)),
                }
            }
            drop(listener);
            // Drain: sweeps abort at their next checkpoint, workers leave
            // after the exchange they are in.
            shared.begin_shutdown();
            shared.jobs.drain();
            shared.workers.finish_drain();
        })?
    };
    Ok(Server { addr, shared, accept: Mutex::new(Some(accept)) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::time::Instant;

    const HEALTHZ_CLOSE: &[u8] = b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n";

    /// Spin until the hand-off state satisfies `done`: a worker updates it
    /// a moment after its peer has seen the bytes that imply the update.
    fn spin_until(server: &Server, what: &str, done: impl Fn(&Handoff) -> bool) {
        let watchdog = Instant::now() + Duration::from_secs(5);
        while !done(&lock(&server.shared.workers.state)) {
            assert!(Instant::now() < watchdog, "never saw {what}");
            thread::yield_now();
        }
    }

    /// Read a `connection: close` response to its end; its status line.
    fn read_to_close(stream: &mut TcpStream) -> String {
        let mut text = String::new();
        stream.read_to_string(&mut text).expect("read response");
        text.lines().next().unwrap_or("").to_string()
    }

    #[test]
    fn a_panicking_worker_gives_back_its_slot_and_its_stream_entry() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shared = Arc::new(Shared::new(addr));
        lock(&shared.workers.state).live = 1;
        let slot = Slot(Arc::clone(&shared));
        let stream = Arc::new(TcpStream::connect(addr).expect("connect"));
        let died = thread::spawn(move || {
            let _serving = slot.0.workers.register(&stream);
            panic!("a handler bug");
        })
        .join();
        assert!(died.is_err());
        let st = lock(&shared.workers.state);
        assert_eq!((st.live, st.serving.len()), (0, 0));
    }

    #[test]
    fn connections_beyond_the_cap_wait_in_the_backlog_and_are_all_answered() {
        let server = serve("127.0.0.1:0").expect("bind");
        // None of them sends anything yet, so each accepted one pins a
        // worker in `read`, and the rest wait unaccepted.
        let mut streams: Vec<TcpStream> = (0..MAX_WORKERS + 44)
            .map(|_| TcpStream::connect(server.addr()).expect("connect"))
            .collect();
        spin_until(&server, "a full set of workers", |st| st.live == MAX_WORKERS);
        for stream in &mut streams {
            stream.write_all(HEALTHZ_CLOSE).expect("write request");
        }
        for stream in &mut streams {
            assert_eq!(read_to_close(stream), "HTTP/1.1 200 OK");
        }
        drop(streams);
        spin_until(&server, "the set shrink to the kept-idle quota", |st| st.live <= KEPT_IDLE);
        assert_eq!(lock(&server.shared.workers.state).live_high_water, MAX_WORKERS);
        server.stop();
        assert_eq!(lock(&server.shared.workers.state).live, 0);
    }

    #[test]
    fn an_idle_connection_is_closed_and_its_worker_serves_the_next() {
        let server = serve("127.0.0.1:0").expect("bind");
        let mut idle = TcpStream::connect(server.addr()).expect("connect");
        idle.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").expect("write request");
        // Keep-alive: the response, then nothing until the server gives
        // the connection up at the idle bound.
        idle.set_read_timeout(Some(3 * IDLE_TIMEOUT)).expect("set timeout");
        let mut text = String::new();
        idle.read_to_string(&mut text).expect("the server closes an idle connection");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "response: {text}");
        assert!(text.contains("connection: keep-alive"), "response: {text}");

        // The one worker parks instead of exiting (a moment after its peer
        // sees the close), and takes the next connection without a second
        // one being spawned.
        spin_until(&server, "the worker park", |st| st.idle == 1);
        let mut next = TcpStream::connect(server.addr()).expect("connect");
        next.write_all(HEALTHZ_CLOSE).expect("write request");
        assert_eq!(read_to_close(&mut next), "HTTP/1.1 200 OK");
        let st = lock(&server.shared.workers.state);
        assert_eq!((st.live, st.live_high_water), (1, 1));
        drop(st);
        server.stop();
    }
}
