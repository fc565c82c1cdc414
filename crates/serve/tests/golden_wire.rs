//! Golden wire-protocol snapshots: every endpoint's request and response
//! JSON, exercised over a real TCP connection against an in-process
//! server, frozen byte-for-byte. The snapshots are the service's wire
//! contract — a drift here is an API break, not a refactor.
//!
//! Also behavioural (non-golden) coverage: byte identity under concurrent
//! mixed-endpoint traffic, dedup'd concurrent tunes, job
//! submit/status/result/cancel semantics, and draining refusals.
//!
//! To regenerate after an intentional schema change:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test -p hanayo-serve --test golden_wire
//! ```

use hanayo_model::Recompute;
use hanayo_serve::schema::{
    run_plan, run_simulate, run_tune, AnalyzeRequest, PlanRequest, SimulateRequest, TuneRequest,
};
use hanayo_serve::{serve, Client};
use hanayo_sim::TuneContext;
use std::fs;
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

fn check(name: &str, rendered: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        fs::create_dir_all(golden_dir()).unwrap();
        fs::write(&path, rendered).unwrap();
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {path:?} ({e}); \
             regenerate with GOLDEN_UPDATE=1 cargo test -p hanayo-serve --test golden_wire"
        )
    });
    assert_eq!(
        rendered, golden,
        "{name}: wire bytes drifted from the golden snapshot; if the \
         schema change is intentional, regenerate with \
         GOLDEN_UPDATE=1 cargo test -p hanayo-serve --test golden_wire"
    );
}

fn plan_request() -> PlanRequest {
    PlanRequest {
        model: "bert64".to_string(),
        cluster: "fc".to_string(),
        gpus: 8,
        train_bytes_per_param: 8,
        method: "hanayo_w2".to_string(),
        pp: 8,
        dp: 1,
        micro_batches: 8,
        micro_batch_size: 1,
        recompute: Recompute::None,
    }
}

fn tune_request() -> TuneRequest {
    TuneRequest {
        model: "bert64".to_string(),
        cluster: "fc".to_string(),
        gpus: 8,
        batch: 8,
        micro_batch_size: 1,
        train_bytes_per_param: 8,
        min_pp: 4,
        waves: vec![1, 2],
        recompute: None,
        wide: false,
        serial: false,
        top: Some(3),
    }
}

fn simulate_request() -> SimulateRequest {
    SimulateRequest {
        model: "bert64".to_string(),
        cluster: "fc".to_string(),
        gpus: 8,
        scheme: "hanayo_w2".to_string(),
        micro_batches: 8,
        micro_batch_size: 1,
        recompute: Recompute::None,
        prefetch: true,
        recv_lookahead: 1,
    }
}

fn analyze_request() -> AnalyzeRequest {
    AnalyzeRequest {
        model: "bert64".to_string(),
        cluster: "fc".to_string(),
        gpus: 8,
        scheme: "hanayo_w2".to_string(),
        micro_batches: 8,
        micro_batch_size: 1,
        recompute: Recompute::None,
    }
}

/// One test on purpose: every snapshot comes off one server with one
/// deterministic job-id sequence.
#[test]
fn golden_wire_protocol() {
    let server = serve("127.0.0.1:0").expect("bind");
    let client = Client::new(server.addr());

    // --- Synchronous endpoints: request and response bytes.
    let req = serde_json::to_string(&plan_request()).expect("serialise");
    let resp = client.expect_ok("POST", "/v1/plan", Some(&req)).expect("plan");
    check("plan_request.json", &(req + "\n"));
    check("plan_response.json", &resp);

    let req = serde_json::to_string(&tune_request()).expect("serialise");
    let tune_resp = client.expect_ok("POST", "/v1/tune", Some(&req)).expect("tune");
    check("tune_request.json", &(req.clone() + "\n"));
    check("tune_response.json", &tune_resp);

    let req = serde_json::to_string(&simulate_request()).expect("serialise");
    let resp = client.expect_ok("POST", "/v1/simulate", Some(&req)).expect("simulate");
    check("simulate_request.json", &(req + "\n"));
    check("simulate_response.json", &resp);

    let req = serde_json::to_string(&analyze_request()).expect("serialise");
    let resp = client.expect_ok("POST", "/v1/analyze", Some(&req)).expect("analyze");
    check("analyze_request.json", &(req + "\n"));
    check("analyze_response.json", &resp);

    // --- The served tune bytes equal the one-shot CLI code path's bytes.
    let local = run_tune(&tune_request(), &TuneContext::default()).expect("local tune");
    let local = serde_json::to_string(&local).expect("serialise") + "\n";
    assert_eq!(tune_resp, local, "served tune != CLI bytes");

    // --- Job lifecycle: submit (first job on this server: id 1), poll
    // to completion, read the result, then cancel the finished job.
    let req = serde_json::to_string(&tune_request()).expect("serialise");
    let ack = client.expect_ok("POST", "/v1/jobs/tune", Some(&req)).expect("submit");
    check("jobs_submit_ack.json", &ack);

    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = client.job_status(1).expect("status");
        if status.contains("\"state\":\"done\"") {
            check("jobs_status_done.json", &status);
            break;
        }
        assert!(Instant::now() < deadline, "job never finished: {status}");
        std::thread::sleep(Duration::from_millis(20));
    }
    let result = client.job_result(1).expect("result");
    assert_eq!(result.status, 200);
    assert_eq!(result.body, local, "job result != CLI bytes");

    let cancel = client.request("POST", "/v1/jobs/1/cancel", None).expect("cancel exchange");
    assert_eq!(cancel.status, 409, "cancelling a finished job must 409");
    check("jobs_cancel_finished.json", &cancel.body);

    // --- Error shapes.
    let mut bad = tune_request();
    bad.model = "nope".to_string();
    let bad = serde_json::to_string(&bad).expect("serialise");
    let resp = client.request("POST", "/v1/tune", Some(&bad)).expect("exchange");
    assert_eq!(resp.status, 400);
    check("error_bad_model.json", &resp.body);

    let resp = client.request("GET", "/v1/nothing", None).expect("exchange");
    assert_eq!(resp.status, 404);
    check("error_unknown_path.json", &resp.body);

    let resp = client.request("GET", "/v1/tune", None).expect("exchange");
    assert_eq!(resp.status, 405);
    check("error_wrong_method.json", &resp.body);

    // --- /metrics: not golden (process-global registry), but must be
    // grammar-clean and carry the serve families.
    let scrape = client.metrics().expect("scrape");
    hanayo_metrics::expo::validate_prometheus(&scrape).expect("prometheus grammar");
    assert!(scrape.contains("hanayo_serve_requests_total"), "missing request counters");
    assert!(scrape.contains("hanayo_serve_latency_ns"), "missing latency histograms");
    assert!(scrape.contains("hanayo_serve_cache_configs"), "missing cache gauges");

    server.stop();
}

#[test]
fn healthz_answers_and_drain_refuses_new_work() {
    let server = serve("127.0.0.1:0").expect("bind");
    let client = Client::new(server.addr());
    assert_eq!(client.healthz().expect("healthz"), "ok\n");

    // Begin draining via the wire. New work is refused — either with a
    // 503 (connection raced in before the listener closed) or with a
    // connection-level error once the listener is gone. Never a hang.
    client.shutdown().expect("shutdown");
    let body = serde_json::to_string(&plan_request()).unwrap();
    match client.request("POST", "/v1/plan", Some(&body)) {
        Ok(resp) => assert_eq!(resp.status, 503, "draining server must refuse new work"),
        Err(hanayo_serve::ClientError::Connect(_) | hanayo_serve::ClientError::Disconnected) => {}
        Err(other) => panic!("unexpected refusal shape: {other}"),
    }
    server.stop();
    assert!(server.is_drained());
}

#[test]
fn a_cluster_larger_than_its_preset_is_a_400_not_a_handler_panic() {
    let server = serve("127.0.0.1:0").expect("bind");
    let client = Client::new(server.addr());
    let mut req = tune_request();
    req.cluster = "tc".to_string();
    req.gpus = 16;
    let body = serde_json::to_string(&req).expect("serialise");
    let resp = client.request("POST", "/v1/tune", Some(&body)).expect("a typed answer");
    assert_eq!(resp.status, 400, "body: {}", resp.body);
    assert!(resp.body.contains("tc") && resp.body.contains('8'), "body: {}", resp.body);
    // The server is whole afterwards: a fresh connection is answered.
    assert_eq!(client.healthz().expect("healthz after the rejection"), "ok\n");
    server.stop();
}

/// `(path, body, expected response)`: four plans, four simulates and two
/// small tunes, each expectation built through the one-shot CLI code path.
fn mixed_pool() -> Vec<(&'static str, String, String)> {
    fn wire(doc: &impl serde::Serialize) -> String {
        serde_json::to_string(doc).expect("serialise") + "\n"
    }
    let mut pool = Vec::new();
    for method in ["gpipe", "dapple", "hanayo_w2", "hanayo_w4"] {
        let req = PlanRequest { method: method.to_string(), ..plan_request() };
        let doc = run_plan(&req).expect("plan");
        pool.push(("/v1/plan", serde_json::to_string(&req).unwrap(), wire(&doc)));
    }
    for scheme in ["gpipe", "dapple", "hanayo_w2", "interleaved2"] {
        let req = SimulateRequest { scheme: scheme.to_string(), ..simulate_request() };
        let doc = run_simulate(&req).expect("simulate");
        pool.push(("/v1/simulate", serde_json::to_string(&req).unwrap(), wire(&doc)));
    }
    let small =
        TuneRequest { cluster: "tacc".to_string(), gpus: 4, batch: 4, min_pp: 2, ..tune_request() };
    for req in [tune_request(), small] {
        let doc = run_tune(&req, &TuneContext::default()).expect("tune");
        pool.push(("/v1/tune", serde_json::to_string(&req).unwrap(), wire(&doc)));
    }
    pool
}

#[test]
fn concurrent_mixed_traffic_is_byte_identical_to_the_cli() {
    let pool = mixed_pool();
    let server = serve("127.0.0.1:0").expect("bind");
    let client = Client::new(server.addr());
    // Sixteen clients released together, each walking the whole pool
    // round-robin from its own offset: every entry is in flight on several
    // connections at once, beside every other endpoint.
    let clients = 16;
    let go = Barrier::new(clients);
    std::thread::scope(|scope| {
        for t in 0..clients {
            let (pool, go) = (&pool, &go);
            scope.spawn(move || {
                go.wait();
                for j in 0..pool.len() {
                    let (path, body, expected) = &pool[(t + j) % pool.len()];
                    let got = client.expect_ok("POST", path, Some(body)).expect("request");
                    assert_eq!(&got, expected, "client {t}: {path} {body}");
                }
            });
        }
    });
    server.stop();
}

#[test]
fn concurrent_identical_tunes_are_deduplicated() {
    let server = serve("127.0.0.1:0").expect("bind");
    let client = Client::new(server.addr());
    // A sweep long enough (wide, serial) that the leader is still at it
    // when the others arrive: a connection is accepted the moment it is
    // made, so a few-millisecond sweep can finish before the second
    // request has been parsed.
    let req = TuneRequest {
        cluster: "pc".to_string(), // distinct from other tests' sweeps
        batch: 64,
        min_pp: 2,
        wide: true,
        serial: true,
        ..tune_request()
    };
    let body = serde_json::to_string(&req).expect("serialise");

    let n = 8;
    let go = std::sync::Arc::new(std::sync::Barrier::new(n));
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let (body, go) = (body.clone(), std::sync::Arc::clone(&go));
            std::thread::spawn(move || {
                go.wait();
                client.expect_ok("POST", "/v1/tune", Some(&body))
            })
        })
        .collect();
    let mut bodies = Vec::new();
    for h in handles {
        bodies.push(h.join().expect("join").expect("tune"));
    }
    assert!(bodies.windows(2).all(|w| w[0] == w[1]), "dedup'd responses must be identical");
    assert!(
        server.dedup_joins() > 0,
        "at least one of {n} identical concurrent requests must join the leader"
    );
    server.stop();
}

#[test]
fn cancelling_a_running_job_aborts_the_sweep() {
    let server = serve("127.0.0.1:0").expect("bind");
    let client = Client::new(server.addr());
    // A wide sweep: big enough space that the cancel lands mid-run.
    let req = TuneRequest {
        model: "bert64".to_string(),
        cluster: "tacc".to_string(),
        gpus: 8,
        batch: 32,
        micro_batch_size: 1,
        train_bytes_per_param: 8,
        min_pp: 2,
        waves: vec![1, 2, 4, 8],
        recompute: None,
        wide: true,
        serial: true,
        top: None,
    };
    let body = serde_json::to_string(&req).expect("serialise");
    let ack = client.expect_ok("POST", "/v1/jobs/tune", Some(&body)).expect("submit");
    let id: u64 = ack
        .split("\"job_id\":")
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|s| s.parse().ok())
        .expect("ack carries job_id");

    let cancel = client.request("POST", &format!("/v1/jobs/{id}/cancel"), None).expect("cancel");
    // Either we cancelled it in flight (200) or the sweep beat us (409).
    assert!(matches!(cancel.status, 200 | 409), "unexpected cancel status {}", cancel.status);
    if cancel.status == 200 {
        // The job must reach the cancelled terminal state and report it
        // through both status and result.
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let result = client.job_result(id).expect("result");
            if result.status != 202 {
                assert_eq!(result.status, 409, "cancelled job's result must 409");
                break;
            }
            assert!(Instant::now() < deadline, "cancelled job never settled");
            std::thread::sleep(Duration::from_millis(20));
        }
        let status = client.job_status(id).expect("status");
        assert!(status.contains("\"state\":\"cancelled\""), "status must say cancelled: {status}");
    }
    server.stop();
}

#[test]
fn identical_job_submissions_join_and_cancel_is_interest_counted() {
    let server = serve("127.0.0.1:0").expect("bind");
    let client = Client::new(server.addr());
    let req = TuneRequest {
        model: "bert64".to_string(),
        cluster: "tc".to_string(),
        gpus: 8,
        batch: 32,
        micro_batch_size: 1,
        train_bytes_per_param: 8,
        min_pp: 2,
        waves: vec![1, 2, 4, 8],
        recompute: None,
        wide: true,
        serial: true,
        top: None,
    };
    let body = serde_json::to_string(&req).expect("serialise");
    let first = client.expect_ok("POST", "/v1/jobs/tune", Some(&body)).expect("submit");
    let second = client.expect_ok("POST", "/v1/jobs/tune", Some(&body)).expect("submit");
    let id: u64 = first
        .split("\"job_id\":")
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|s| s.parse().ok())
        .expect("ack carries job_id");
    if second.contains("\"deduplicated\":true") {
        // Both submissions share the job; the first cancel must NOT
        // abort it (one interested submitter remains).
        let cancel = client.request("POST", &format!("/v1/jobs/{id}/cancel"), None).expect("c1");
        if cancel.status == 200 {
            assert!(
                cancel.body.contains("\"aborting\":false"),
                "first of two cancels must not abort: {}",
                cancel.body
            );
        }
    }
    // Drive to a terminal state either way and make sure nothing hangs.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let result = client.job_result(id).expect("result");
        if result.status != 202 {
            break;
        }
        assert!(Instant::now() < deadline, "job never settled");
        std::thread::sleep(Duration::from_millis(20));
    }
    server.stop();
}
