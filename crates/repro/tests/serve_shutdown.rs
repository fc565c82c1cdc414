//! Graceful-shutdown regression for `hanayo serve`.
//!
//! Spawns the real `hanayo serve` host on an ephemeral port, fires a wide
//! sweep at it from a client thread, then delivers SIGTERM mid-request.
//! The contract under test:
//!
//! - the in-flight client observes a *typed* outcome — a clean HTTP
//!   response, `ClientError::Disconnected`, or a connect refusal — never
//!   a hang and never a garbled-protocol error;
//! - the host drains and exits with status 0.

#![cfg(unix)]

use hanayo_serve::{Client, ClientError};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn spawn_host() -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hanayo"))
        .args(["serve", "--addr", "127.0.0.1:0", "--drain-secs", "30"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve host");
    // The host prints `listening http://ADDR` as its first stdout line
    // exactly so harnesses like this one can find the ephemeral port.
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("read banner");
    let addr = line
        .trim()
        .strip_prefix("listening http://")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .parse()
        .expect("banner carries a socket address");
    (child, addr)
}

fn wide_sweep_body() -> String {
    // Big enough that SIGTERM reliably lands while the sweep is running.
    r#"{"model":"bert64","cluster":"tacc","gpus":16,"batch":64,"micro_batch_size":1,"train_bytes_per_param":8,"min_pp":2,"waves":[1,2,4,8],"recompute":null,"wide":true,"serial":true,"top":null}"#
        .to_string()
}

fn sigterm(child: &Child) {
    let status =
        Command::new("kill").args(["-TERM", &child.id().to_string()]).status().expect("run kill");
    assert!(status.success(), "kill -TERM failed");
}

#[test]
fn sigterm_mid_sweep_yields_typed_client_error_and_exit_zero() {
    let (mut child, addr) = spawn_host();
    let client = Client::new(addr);
    assert_eq!(client.healthz().expect("host answers healthz"), "ok\n");

    let body = wide_sweep_body();
    let sweep = std::thread::spawn(move || client.request("POST", "/v1/tune", Some(&body)));

    // Let the sweep get going, then deliver the signal.
    std::thread::sleep(Duration::from_millis(200));
    sigterm(&child);

    // The client thread must come back with a *typed* outcome. A join
    // timeout here would mean the host leaked the connection on shutdown.
    let deadline = Instant::now() + Duration::from_secs(60);
    while !sweep.is_finished() {
        assert!(Instant::now() < deadline, "client hung through server shutdown");
        std::thread::sleep(Duration::from_millis(25));
    }
    match sweep.join().expect("client thread panicked") {
        // The sweep finished before the drain cut it off — a full
        // response is a legitimate graceful-shutdown outcome.
        Ok(resp) => assert!(
            matches!(resp.status, 200 | 503),
            "unexpected status {} through shutdown",
            resp.status
        ),
        Err(ClientError::Disconnected) | Err(ClientError::Connect(_)) => {}
        Err(other) => panic!("untyped/garbled client outcome: {other}"),
    }

    // The host must drain and exit 0 within its drain deadline.
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        assert!(Instant::now() < deadline, "host never exited after SIGTERM");
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(status.success(), "host exited non-zero: {status:?}");
}
