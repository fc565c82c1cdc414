//! `serve_mix` and `serve_tune`: closed-loop clients against the resident
//! planning service, started in this process on an OS-picked port.
//!
//! `serve_mix` opens a connection per request (what `curl` and
//! `serve::Client` do) over 12 warm requests, so the accept/spawn/parse/
//! encode path carries the latency. `serve_tune` keeps one connection per
//! client and draws `tune` requests 70/30 from 4 hot and 16 cold
//! configurations — more than the 8 the service keeps resident — so cache
//! fills and evictions sit beside cache hits.

use crate::http::Conn;
use crate::report::Json;
use crate::run::{probe, reps, Bench, Layers, Op, Timed};
use crate::spans::SpanLog;
use crate::spec::ENDPOINTS;
use crate::stats;
use hanayo_model::Recompute;
use hanayo_serve::schema::{
    build_sweep_table, run_analyze, run_plan, run_simulate, run_tune, AnalyzeRequest, PlanRequest,
    SimulateRequest, TuneRequest,
};
use hanayo_serve::{serve, Server};
use hanayo_sim::tuner::{tune_with, TuneContext, TuneError};
use hanayo_sim::SweepCaches;
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Closed-loop client threads: one per core of the 2-core box, so the
/// clients do not queue behind each other for a processor.
const CLIENTS: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Mix,
    Tune,
}

/// One request the benchmark can send and also evaluate in process.
#[derive(Debug, Clone)]
pub enum Req {
    Plan(PlanRequest),
    Simulate(SimulateRequest),
    Tune(TuneRequest),
    Analyze(AnalyzeRequest),
}

fn encode<T: Serialize>(doc: &T) -> Result<String, String> {
    serde_json::to_string(doc).map(|s| s + "\n").map_err(|e| e.to_string())
}

impl Req {
    /// Index into [`ENDPOINTS`].
    fn endpoint(&self) -> usize {
        match self {
            Req::Plan(_) => 0,
            Req::Simulate(_) => 1,
            Req::Tune(_) => 2,
            Req::Analyze(_) => 3,
        }
    }

    fn path(&self) -> &'static str {
        ["/v1/plan", "/v1/simulate", "/v1/tune", "/v1/analyze"][self.endpoint()]
    }

    fn to_value(&self) -> Value {
        match self {
            Req::Plan(r) => r.to_value(),
            Req::Simulate(r) => r.to_value(),
            Req::Tune(r) => r.to_value(),
            Req::Analyze(r) => r.to_value(),
        }
    }

    pub fn body(&self) -> String {
        serde_json::to_string(&Json(self.to_value())).unwrap_or_default()
    }

    /// The body the service must answer with: the direct `schema::run_*`
    /// result, serialised the way the CLIs print it.
    fn evaluate(&self, ctx: &TuneContext) -> Result<String, String> {
        match self {
            Req::Plan(r) => run_plan(r).map_err(|e| e.to_string()).and_then(|d| encode(&d)),
            Req::Simulate(r) => run_simulate(r).map_err(|e| e.to_string()).and_then(|d| encode(&d)),
            Req::Tune(r) => run_tune(r, ctx).map_err(|e| e.to_string()).and_then(|d| encode(&d)),
            Req::Analyze(r) => run_analyze(r).map_err(|e| e.to_string()).and_then(|d| encode(&d)),
        }
    }
}

fn tune_request(
    model: &str,
    cluster: &str,
    gpus: usize,
    batch: u32,
    wide: bool,
    top: usize,
) -> TuneRequest {
    TuneRequest {
        model: model.to_string(),
        cluster: cluster.to_string(),
        gpus,
        batch,
        micro_batch_size: 1,
        train_bytes_per_param: 8,
        min_pp: 4,
        waves: vec![1, 2],
        recompute: None,
        wide,
        serial: false,
        top: Some(top),
    }
}

/// The 12 requests of `serve_mix`: 4 plan, 4 simulate, 2 tune, 2 analyze
/// on bert64 over the fc and tacc clusters at 8 GPUs.
pub fn mix_pool() -> Vec<Req> {
    let mut pool = Vec::new();
    for method in ["gpipe", "dapple", "hanayo_w2", "hanayo_w4"] {
        pool.push(Req::Plan(PlanRequest {
            model: "bert64".to_string(),
            cluster: "fc".to_string(),
            gpus: 8,
            train_bytes_per_param: 8,
            method: method.to_string(),
            pp: 8,
            dp: 1,
            micro_batches: 8,
            micro_batch_size: 1,
            recompute: Recompute::None,
        }));
    }
    for (scheme, cluster) in
        [("gpipe", "fc"), ("dapple", "tacc"), ("hanayo_w2", "fc"), ("interleaved2", "tacc")]
    {
        pool.push(Req::Simulate(SimulateRequest {
            model: "bert64".to_string(),
            cluster: cluster.to_string(),
            gpus: 8,
            scheme: scheme.to_string(),
            micro_batches: 8,
            micro_batch_size: 1,
            recompute: Recompute::None,
            prefetch: true,
            recv_lookahead: 1,
        }));
    }
    pool.push(Req::Tune(tune_request("bert64", "fc", 8, 8, false, 3)));
    pool.push(Req::Tune(tune_request("bert64", "tacc", 8, 8, false, 3)));
    for (scheme, cluster) in [("hanayo_w2", "fc"), ("dapple", "tacc")] {
        pool.push(Req::Analyze(AnalyzeRequest {
            model: "bert64".to_string(),
            cluster: cluster.to_string(),
            gpus: 8,
            scheme: scheme.to_string(),
            micro_batches: 8,
            micro_batch_size: 1,
            recompute: Recompute::None,
        }));
    }
    pool
}

/// Hot requests of `serve_tune`: 4 configurations at 3 batch sizes.
const HOT: usize = 12;
/// Cold-tail requests: one per remaining valid configuration.
const COLD: usize = 16;

/// The `serve_tune` pool: `HOT` hot requests then `COLD` cold ones. Every
/// valid configuration appears once as hot or cold: bert64/gpt128 ×
/// pc/fc/tacc × 8/16/32 GPUs, and `tc` at 8 only (`tencent_v100(n > 8)`
/// panics). `wide` alternates so both sweep widths are served.
pub fn tune_pool() -> Vec<Req> {
    let mut configs: Vec<(&str, &str, usize)> = Vec::new();
    for model in ["bert64", "gpt128"] {
        for cluster in ["pc", "fc", "tacc"] {
            for gpus in [8, 16, 32] {
                configs.push((model, cluster, gpus));
            }
        }
        configs.push((model, "tc", 8));
    }
    let hot =
        [("bert64", "fc", 8), ("bert64", "tacc", 8), ("bert64", "pc", 16), ("gpt128", "fc", 16)];
    let mut pool = Vec::new();
    for (i, (model, cluster, gpus)) in hot.iter().enumerate() {
        for batch in [8, 16, 32] {
            pool.push(Req::Tune(tune_request(model, cluster, *gpus, batch, i % 2 == 1, 5)));
        }
    }
    for (i, (model, cluster, gpus)) in configs.iter().filter(|c| !hot.contains(c)).enumerate() {
        pool.push(Req::Tune(tune_request(model, cluster, *gpus, 16, i % 2 == 1, 5)));
    }
    pool
}

/// The benchmark's own generator (splitmix64), so the request stream
/// depends on the seed alone and not on any library's RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle(&mut self, items: &mut [usize]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A seeded deck over `0..n`: every index is dealt once, in shuffled
/// order, before any is dealt again.
struct Deck {
    n: usize,
    cards: Vec<usize>,
}

impl Deck {
    fn deal(&mut self, rng: &mut Rng) -> usize {
        if self.cards.is_empty() {
            self.cards = (0..self.n).collect();
            rng.shuffle(&mut self.cards);
        }
        self.cards.pop().unwrap_or(0)
    }
}

/// The seeded request stream of one client: indices into the pool.
/// `serve_mix` replays seeded shuffles of the whole pool. `serve_tune`
/// deals blocks of 20 — 14 picks from a deck of the hot requests and 6
/// from a deck of the cold ones, shuffled — so every seed sends the same
/// 70/30 composition, each request equally often, in a different order.
pub struct Sequence {
    rng: Rng,
    hot: Deck,
    cold: Deck,
    block: Vec<usize>,
}

impl Sequence {
    pub fn new(mode: Mode, seed: u64, client: u64) -> Sequence {
        let rng = Rng::new(seed.wrapping_mul(0x1000_0000_01B3).wrapping_add(client));
        let (hot, cold) = match mode {
            Mode::Mix => (mix_pool().len(), 0),
            Mode::Tune => (HOT, COLD),
        };
        Sequence {
            rng,
            hot: Deck { n: hot, cards: Vec::new() },
            cold: Deck { n: cold, cards: Vec::new() },
            block: Vec::new(),
        }
    }
}

impl Iterator for Sequence {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.block.is_empty() {
            let (hot, cold) = if self.cold.n == 0 { (self.hot.n, 0) } else { (14, 6) };
            for _ in 0..hot {
                self.block.push(self.hot.deal(&mut self.rng));
            }
            for _ in 0..cold {
                self.block.push(self.hot.n + self.cold.deal(&mut self.rng));
            }
            self.rng.shuffle(&mut self.block);
        }
        self.block.pop()
    }
}

fn pool_of(mode: Mode) -> Vec<Req> {
    match mode {
        Mode::Mix => mix_pool(),
        Mode::Tune => tune_pool(),
    }
}

fn pool_document(pool: &[Req]) -> Value {
    Value::Seq(
        pool.iter()
            .map(|r| {
                Value::Map(vec![
                    ("path".to_string(), Value::Str(r.path().to_string())),
                    ("body".to_string(), r.to_value()),
                ])
            })
            .collect(),
    )
}

/// The pool files as `(file name, contents)`.
pub fn pool_files() -> Vec<(&'static str, String)> {
    let tune = tune_pool();
    let tune_doc = Value::Map(vec![
        ("hot".to_string(), pool_document(&tune[..HOT])),
        ("cold".to_string(), pool_document(&tune[HOT..])),
    ]);
    let render = |v: Value| serde_json::to_string_pretty(&Json(v)).unwrap_or_default() + "\n";
    vec![
        ("serve_mix.json", render(pool_document(&mix_pool()))),
        ("serve_tune.json", render(tune_doc)),
    ]
}

/// Write the request pools where a reader can see them.
pub fn write_pools(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for (name, text) in pool_files() {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

struct Pooled {
    req: Req,
    body: String,
    expected: Vec<u8>,
}

/// One answered request as a client saw it (ms).
struct Sample {
    endpoint: usize,
    /// When the request started, seconds after the clients were started.
    start_s: f64,
    total_ms: f64,
    connect_ms: f64,
    first_byte_ms: f64,
    read_body_ms: f64,
    bytes: usize,
}

#[derive(Default)]
struct ClientRun {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
}

enum Limit {
    Seconds(f64),
    Requests(usize),
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

/// One closed-loop client, started at `started`. With `keep_alive` the
/// connection persists (and is re-opened after an error); otherwise every
/// request connects.
fn client(
    started: Instant,
    addr: SocketAddr,
    pool: &[Pooled],
    order: impl Iterator<Item = usize>,
    keep_alive: bool,
    limit: Limit,
    mut log: Option<&mut SpanLog>,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut conn: Option<Conn> = None;
    for (op, index) in order.enumerate() {
        match limit {
            Limit::Seconds(s) if started.elapsed().as_secs_f64() >= s => break,
            Limit::Requests(n) if op >= n => break,
            _ => {}
        }
        let item = &pool[index];
        run.attempted += 1;
        let t0 = Instant::now();
        let opened = match conn.take() {
            Some(c) => Ok(c),
            None => Conn::open(addr),
        };
        let connected = Instant::now();
        let reply = opened.and_then(|mut c| {
            let reply = c.exchange("POST", item.req.path(), &item.body, !keep_alive)?;
            if keep_alive {
                conn = Some(c);
            }
            Ok(reply)
        });
        match reply {
            Ok(reply) if reply.status == 200 && reply.body == item.expected => {
                let endpoint = item.req.endpoint();
                if let Some(log) = log.as_deref_mut() {
                    let op = op as u64;
                    let name = format!("serve.request.{}", ENDPOINTS[endpoint]);
                    log.time(&name, op, |log| {
                        log.record("serve.connect", op, t0, connected);
                        log.record("serve.first_byte", op, reply.written, reply.first_byte);
                        log.record("serve.read_body", op, reply.first_byte, reply.done);
                    });
                }
                run.samples.push(Sample {
                    endpoint,
                    start_s: t0.duration_since(started).as_secs_f64(),
                    total_ms: ms(t0, reply.done),
                    connect_ms: ms(t0, connected),
                    first_byte_ms: ms(reply.written, reply.first_byte),
                    read_body_ms: ms(reply.first_byte, reply.done),
                    bytes: reply.body.len(),
                });
            }
            _ => {
                run.failed += 1;
                conn = None;
            }
        }
    }
    run
}

/// Sum a family over the series of a Prometheus scrape whose label block
/// contains every `needle`.
fn scrape_sum(text: &str, family: &str, needles: &[&str]) -> f64 {
    text.lines()
        .filter(|l| l.starts_with(family) && l[family.len()..].starts_with(['{', ' ']))
        .filter(|l| needles.iter().all(|n| l.contains(n)))
        .filter_map(|l| l.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok()))
        .sum()
}

/// One direct call: the evaluation under a span called `name`, then the
/// encoding of its document under `serve.encode`.
fn evaluate_and_encode<D: Serialize, E: std::fmt::Display>(
    log: &mut SpanLog,
    name: &str,
    op: u64,
    evaluate: impl FnOnce(&mut SpanLog) -> Result<D, E>,
) -> Result<(), String> {
    let doc = log.time(name, op, evaluate).map_err(|e| e.to_string())?;
    log.time("serve.encode", op, |_| black_box(encode(&doc)).is_ok());
    Ok(())
}

pub struct Serve {
    mode: Mode,
    seed: u64,
    server: Server,
    pool: Arc<Vec<Pooled>>,
}

impl Serve {
    /// Build the pool, compute every expected body in process, start the
    /// service and send each request once (checked) so its caches are
    /// as warm as the workload lets them be.
    pub fn setup(mode: Mode, seed: u64) -> Result<Serve, String> {
        let mut pool = Vec::new();
        for req in pool_of(mode) {
            let expected = req.evaluate(&TuneContext::default())?.into_bytes();
            pool.push(Pooled { body: req.body(), req, expected });
        }
        // serve() switches the process-global metrics registry on; it
        // stays on, as it would in a running service.
        let server = serve("127.0.0.1:0").map_err(|e| format!("binding: {e}"))?;
        let bench = Serve { mode, seed, server, pool: Arc::new(pool) };
        let warm = client(
            Instant::now(),
            bench.server.addr(),
            &bench.pool,
            0..bench.pool.len(),
            mode == Mode::Tune,
            Limit::Requests(bench.pool.len()),
            None,
        );
        if warm.failed > 0 {
            return Err(format!(
                "set-up: {} of {} served bodies differ from the direct schema::run_* result",
                warm.failed, warm.attempted
            ));
        }
        Ok(bench)
    }

    fn scrape(&self) -> Result<String, String> {
        let mut conn = Conn::open(self.server.addr()).map_err(|e| format!("scrape: {e}"))?;
        let reply =
            conn.exchange("GET", "/metrics", "", true).map_err(|e| format!("scrape: {e}"))?;
        String::from_utf8(reply.body).map_err(|e| format!("scrape: {e}"))
    }

    /// Run the closed-loop clients from `started`; `logs` switches span
    /// recording on.
    fn clients(
        &self,
        started: Instant,
        limit: impl Fn() -> Limit,
        logs: Option<&mut SpanLog>,
    ) -> Vec<ClientRun> {
        let addr = self.server.addr();
        let keep_alive = self.mode == Mode::Tune;
        let forks: Vec<Option<SpanLog>> =
            (0..CLIENTS).map(|_| logs.as_deref().map(SpanLog::fork)).collect();
        let outcomes: Vec<(ClientRun, Option<SpanLog>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = forks
                .into_iter()
                .enumerate()
                .map(|(c, mut fork)| {
                    let order = Sequence::new(self.mode, self.seed, c as u64);
                    let (pool, limit) = (Arc::clone(&self.pool), limit());
                    scope.spawn(move || {
                        let run =
                            client(started, addr, &pool, order, keep_alive, limit, fork.as_mut());
                        (run, fork)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        (ClientRun { failed: 1, attempted: 1, ..Default::default() }, None)
                    })
                })
                .collect()
        });
        let mut runs = Vec::new();
        let mut logs = logs;
        for (run, fork) in outcomes {
            if let (Some(log), Some(fork)) = (logs.as_deref_mut(), fork) {
                log.merge(fork);
            }
            runs.push(run);
        }
        runs
    }

    /// Direct in-process calls on the pool's own requests: what the
    /// handler's work costs without the socket.
    fn direct_calls(&self, scale: f64, log: &mut SpanLog, out: &mut Layers) -> Result<(), String> {
        let n = reps(5, scale, 1);
        // Warm per-configuration caches, as the resident service holds.
        let mut caches: HashMap<u64, Arc<SweepCaches>> = HashMap::new();
        for (op, item) in self.pool.iter().enumerate() {
            let op = op as u64;
            let endpoint = ENDPOINTS[item.req.endpoint()];
            let ctx = match &item.req {
                Req::Tune(r) => TuneContext {
                    caches: Some(Arc::clone(
                        caches
                            .entry(r.config_key())
                            .or_insert_with(|| Arc::new(SweepCaches::bounded(4096))),
                    )),
                    ..Default::default()
                },
                _ => TuneContext::default(),
            };
            item.req.evaluate(&ctx)?;
            for _ in 0..n {
                log.time("serve.parse", op, |_| match &item.req {
                    Req::Plan(_) => {
                        black_box(serde_json::from_str::<PlanRequest>(&item.body)).is_ok()
                    }
                    Req::Simulate(_) => {
                        black_box(serde_json::from_str::<SimulateRequest>(&item.body)).is_ok()
                    }
                    Req::Tune(_) => {
                        black_box(serde_json::from_str::<TuneRequest>(&item.body)).is_ok()
                    }
                    Req::Analyze(_) => {
                        black_box(serde_json::from_str::<AnalyzeRequest>(&item.body)).is_ok()
                    }
                });
                let name = format!("serve.evaluate_direct.{endpoint}");
                match &item.req {
                    Req::Plan(r) => evaluate_and_encode(log, &name, op, |_| run_plan(r))?,
                    Req::Simulate(r) => evaluate_and_encode(log, &name, op, |_| run_simulate(r))?,
                    Req::Analyze(r) => evaluate_and_encode(log, &name, op, |_| run_analyze(r))?,
                    Req::Tune(r) => {
                        let (model, cluster, opts) = r.resolve()?;
                        evaluate_and_encode(log, &name, op, |log| {
                            let (batch, mbs) = (r.batch, r.micro_batch_size);
                            let tuning = tune_with(&model, &cluster, batch, mbs, &opts, &ctx)?;
                            let modes = opts.recompute_variants();
                            Ok::<_, TuneError>(log.time("serve.table_build", op, |_| {
                                build_sweep_table(r, &tuning, &cluster, &model, &modes)
                            }))
                        })?
                    }
                }
            }
        }
        for endpoint in ENDPOINTS {
            let times = log.durations_ms(&format!("serve.evaluate_direct.{endpoint}"));
            if !times.is_empty() {
                out.set(&format!("serve.evaluate_direct_ms.{endpoint}"), stats::median(&times));
            }
        }
        out.set("serve.parse_us", stats::median(&log.durations_ms("serve.parse")) * 1e3);
        out.set(
            "serve.table_build_us",
            stats::median(&log.durations_ms("serve.table_build")) * 1e3,
        );
        out.set("serve.encode_us", stats::median(&log.durations_ms("serve.encode")) * 1e3);
        Ok(())
    }
}

impl Bench for Serve {
    fn timed(&mut self, seconds: f64) -> Timed {
        let started = Instant::now();
        let runs = self.clients(started, || Limit::Seconds(seconds), None);
        let mut timed = Timed { elapsed_s: started.elapsed().as_secs_f64(), ..Default::default() };
        for run in runs {
            timed.attempted += run.attempted;
            timed.failed += run.failed;
            timed.ops.extend(run.samples.iter().map(|s| Op {
                start_s: s.start_s,
                end_s: s.start_s + s.total_ms / 1e3,
                ms: s.total_ms,
                work: 1.0,
            }));
        }
        timed
    }

    fn traced(&mut self, scale: f64, log: &mut SpanLog) -> Result<Layers, String> {
        let mut out = Layers::default();
        let per_client = reps(if self.mode == Mode::Mix { 500 } else { 300 }, scale, 24);
        let before = self.scrape()?;
        let runs = self.clients(Instant::now(), || Limit::Requests(per_client), Some(log));
        let after = self.scrape()?;
        if let Some(bad) = runs.iter().find(|r| r.failed > 0) {
            return Err(format!("{} of {} traced requests failed", bad.failed, bad.attempted));
        }
        let samples: Vec<&Sample> = runs.iter().flat_map(|r| &r.samples).collect();
        let totals: Vec<f64> = samples.iter().map(|s| s.total_ms).collect();
        for (e, endpoint) in ENDPOINTS.iter().enumerate() {
            let of: Vec<f64> =
                samples.iter().filter(|s| s.endpoint == e).map(|s| s.total_ms).collect();
            if !of.is_empty() {
                out.set(&format!("serve.req_ms_p50.{endpoint}"), stats::median(&of));
            }
        }
        out.set("serve.req_ms_p99", stats::percentile(&stats::sorted(&totals), 99.0));
        let median_of = |f: fn(&Sample) -> f64| {
            stats::median(&samples.iter().map(|s| f(s)).collect::<Vec<f64>>())
        };
        out.set("serve.connect_ms", median_of(|s| s.connect_ms));
        out.set("serve.first_byte_ms", median_of(|s| s.first_byte_ms));
        out.set("serve.read_body_ms", median_of(|s| s.read_body_ms));
        out.set(
            "serve.resp_bytes_mean",
            stats::mean(&samples.iter().map(|s| s.bytes as f64).collect::<Vec<f64>>()),
        );

        // Handler time from the service's own latency histogram, over
        // exactly the traced requests (the scrapes bracket them).
        let delta = |family: &str, needles: &[&str]| {
            scrape_sum(&after, family, needles) - scrape_sum(&before, family, needles)
        };
        let (mut handler_ns, mut handled) = (0.0, 0.0);
        for endpoint in ENDPOINTS {
            let label = format!("endpoint=\"{endpoint}\"");
            handler_ns += delta("hanayo_serve_latency_ns_sum", &[&label]);
            handled += delta("hanayo_serve_latency_ns_count", &[&label]);
        }
        if handled != samples.len() as f64 {
            return Err(format!(
                "service handled {handled} requests, clients sent {}",
                samples.len()
            ));
        }
        let handler_ms = handler_ns / handled / 1e6;
        out.set("serve.handler_ms_mean", handler_ms);
        // Accept wait, thread spawn, socket I/O: the client mean minus
        // the handler mean, so the two sum to the mean client latency.
        out.set("serve.outside_handler_ms", stats::mean(&totals) - handler_ms);
        let hits = delta("hanayo_tuner_cache_hits_total", &[]);
        let misses = delta("hanayo_tuner_cache_misses_total", &[]);
        out.set(
            "serve.cache_hit_share",
            if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 },
        );
        out.set("serve.cache_configs", scrape_sum(&after, "hanayo_serve_cache_configs", &[]));
        out.set(
            "serve.cache_evictions_total",
            scrape_sum(&after, "hanayo_tuner_cache_evictions_total", &[]),
        );
        out.set(
            "serve.dedup_joins_total",
            scrape_sum(&after, "hanayo_serve_dedup_joins_total", &[]),
        );

        // The floor without the accept path: the same pool over one
        // persistent connection (serve_tune already runs that way).
        let keepalive = match self.mode {
            Mode::Tune => stats::median(&totals),
            Mode::Mix => {
                let order = Sequence::new(Mode::Mix, self.seed, CLIENTS);
                let limit = Limit::Requests(reps(300, scale, 24));
                let mut fork = log.fork();
                let (started, addr) = (Instant::now(), self.server.addr());
                let run = client(started, addr, &self.pool, order, true, limit, Some(&mut fork));
                if run.failed > 0 {
                    return Err(format!("{} keep-alive requests failed", run.failed));
                }
                stats::median(&run.samples.iter().map(|s| s.total_ms).collect::<Vec<f64>>())
            }
        };
        out.set("serve.keepalive_req_ms_p50", keepalive);
        self.direct_calls(scale, log, &mut out)?;
        if self.mode == Mode::Tune {
            // What a second identical sweep costs on warm caches.
            let Req::Tune(r) = &self.pool[0].req else { return Ok(out) };
            let (model, cluster, opts) = r.resolve()?;
            let ctx = TuneContext {
                caches: Some(Arc::new(SweepCaches::bounded(4096))),
                ..Default::default()
            };
            let warm = probe(log, "sim.tune.warm", 0.3 * scale, 5, || {
                tune_with(&model, &cluster, r.batch, r.micro_batch_size, &opts, &ctx).is_ok()
            });
            out.set("sim.tune_warm_ms", warm);
        }
        Ok(out)
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.server.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first `n` request bodies client `client` sends under `seed`.
    fn request_stream(mode: Mode, seed: u64, client: u64, n: usize) -> Vec<String> {
        let pool = pool_of(mode);
        Sequence::new(mode, seed, client).take(n).map(|i| pool[i].body()).collect()
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        for mode in [Mode::Mix, Mode::Tune] {
            let a = request_stream(mode, 7, 0, 200);
            assert_eq!(a, request_stream(mode, 7, 0, 200), "{mode:?}: same seed must repeat");
            assert_ne!(a, request_stream(mode, 8, 0, 200), "{mode:?}: seeds must differ");
            assert_ne!(a, request_stream(mode, 7, 1, 200), "{mode:?}: clients must differ");
        }
    }

    #[test]
    fn tune_stream_keeps_the_70_30_composition_and_covers_the_pool() {
        let picks: Vec<usize> = Sequence::new(Mode::Tune, 3, 0).take(20 * 24).collect();
        for block in picks.chunks(20) {
            assert_eq!(block.iter().filter(|&&i| i < HOT).count(), 14);
        }
        // 24 blocks deal every hot request 28 times and every cold one 9.
        for i in 0..HOT + COLD {
            let n = picks.iter().filter(|&&p| p == i).count();
            assert_eq!(n, if i < HOT { 28 } else { 9 }, "request {i}");
        }
        let mix: Vec<usize> = Sequence::new(Mode::Mix, 3, 0).take(24).collect();
        let mut first = mix[..12].to_vec();
        first.sort_unstable();
        assert_eq!(first, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn pools_have_the_declared_shape() {
        let mix = mix_pool();
        let count = |e: usize| mix.iter().filter(|r| r.endpoint() == e).count();
        assert_eq!([count(0), count(1), count(2), count(3)], [4, 4, 2, 2]);
        let tune = tune_pool();
        assert_eq!(tune.len(), HOT + COLD);
        let mut keys: Vec<u64> = tune
            .iter()
            .map(|r| match r {
                Req::Tune(t) => {
                    assert!(t.cluster != "tc" || t.gpus == 8, "tc only exists at 8 GPUs");
                    t.config_key()
                }
                other => panic!("non-tune request in the tune pool: {other:?}"),
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 20, "4 hot + 16 cold configurations, more than 8 resident");
    }

    #[test]
    fn committed_pool_files_match_the_generator() {
        for (name, text) in pool_files() {
            let path = format!("{}/workloads/{name}", env!("CARGO_MANIFEST_DIR"));
            let committed = std::fs::read_to_string(&path).unwrap_or_default();
            assert_eq!(committed, text, "{path}: regenerate with `hanayo-benchmark pools`");
        }
    }

    #[test]
    fn scrape_sum_filters_by_family_and_labels() {
        let text =
            "# TYPE x counter\nx{endpoint=\"plan\"} 3\nx{endpoint=\"tune\"} 4\nxy 100\nx 1\n";
        assert_eq!(scrape_sum(text, "x", &[]), 8.0);
        assert_eq!(scrape_sum(text, "x", &["endpoint=\"tune\""]), 4.0);
        assert_eq!(scrape_sum(text, "xy", &[]), 100.0);
    }
}
