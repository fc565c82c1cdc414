//! The waits the I/O path must not have: a stop that needs a poll to
//! notice it, a drain that waits for a read timeout, an accept that
//! sleeps before it looks. Counts and events where they will do; one
//! stopwatch, with a 10x margin.

use hanayo_serve::http::IDLE_TIMEOUT;
use hanayo_serve::{serve, Client, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `server.stop()` on a thread of its own, so a stop that hangs fails
/// the test at `watchdog` instead of hanging it.
fn stop_within(server: Server, watchdog: Duration) {
    let server = Arc::new(server);
    let (done, stopped) = mpsc::channel();
    let stopper = Arc::clone(&server);
    std::thread::spawn(move || {
        stopper.stop();
        let _ = done.send(());
    });
    stopped.recv_timeout(watchdog).expect("stop() did not return");
    assert!(server.is_drained());
}

/// One raw exchange: write `request`, read up to the end of the body the
/// response's `content-length` announces. Returns the head and the body.
fn exchange(stream: &mut TcpStream, request: &str) -> (String, String) {
    stream.write_all(request.as_bytes()).expect("write request");
    let mut bytes = Vec::new();
    let mut byte = [0u8; 1];
    while !bytes.ends_with(b"\r\n\r\n") {
        assert_eq!(stream.read(&mut byte).expect("read head"), 1, "closed inside the head");
        bytes.push(byte[0]);
    }
    let head = String::from_utf8(bytes).expect("utf-8 head");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .expect("content-length")
        .parse()
        .expect("a number");
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("read body");
    (head, String::from_utf8(body).expect("utf-8 body"))
}

#[test]
fn stop_returns_on_a_server_nobody_connected_to() {
    // Nothing but the self-connect can wake these accepts; the second
    // needs it aimed at loopback, not at the unspecified address.
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = serve(bind).expect("bind");
        stop_within(server, Duration::from_secs(2));
    }
}

#[test]
fn stop_does_not_wait_for_an_idle_keep_alive_connection() {
    let server = serve("127.0.0.1:0").expect("bind");
    let mut idle = TcpStream::connect(server.addr()).expect("connect");
    let (head, body) = exchange(&mut idle, "GET /healthz HTTP/1.1\r\n\r\n");
    assert!(head.contains("connection: keep-alive"), "head: {head}");
    assert_eq!(body, "ok\n");
    // Its worker is now blocked reading the next request.
    stop_within(server, IDLE_TIMEOUT / 3);
    idle.set_read_timeout(Some(IDLE_TIMEOUT)).expect("set timeout");
    assert_eq!(idle.read(&mut [0u8; 1]).expect("a clean close"), 0);
}

#[test]
fn a_request_in_flight_at_shutdown_is_answered_in_full_then_closed() {
    let server = serve("127.0.0.1:0").expect("bind");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    // The handler of this very request begins the shutdown, which ends
    // reads on every served stream — its own included — before the
    // response is written.
    let (head, body) =
        exchange(&mut stream, "POST /shutdown HTTP/1.1\r\nconnection: keep-alive\r\n\r\n");
    assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "head: {head}");
    assert!(head.contains("connection: close"), "head: {head}");
    assert_eq!(body, "{\"draining\":true}\n");
    assert_eq!(stream.read(&mut [0u8; 1]).expect("a clean close"), 0);
    stop_within(server, Duration::from_secs(2));
}

#[test]
fn fresh_connections_are_accepted_without_a_poll_interval() {
    let server = serve("127.0.0.1:0").expect("bind");
    let client = Client::new(server.addr());
    assert_eq!(client.healthz().expect("warm-up"), "ok\n");
    let started = Instant::now();
    for _ in 0..50 {
        assert_eq!(client.healthz().expect("healthz"), "ok\n");
    }
    let elapsed = started.elapsed();
    // A 10 ms accept poll costs 250 ms here on average; a blocking accept
    // about 15.
    assert!(elapsed < Duration::from_millis(150), "50 fresh connections took {elapsed:?}");
    server.stop();
}
