//! A deliberately small HTTP/1.1 layer over `std::net` — just enough for
//! the planning service's JSON endpoints, with zero dependencies beyond
//! the standard library.
//!
//! Supported: request lines, `Content-Length` bodies, keep-alive,
//! case-insensitive header lookup, and hard caps on header and body
//! sizes so a confused client cannot balloon the host. Not supported —
//! on purpose: chunked transfer, TLS, HTTP/2, multipart. Clients that
//! need those are not this service's clients.
//!
//! Every message leaves in **one** write on a `TCP_NODELAY` socket: a
//! head and a body written separately would leave the body's tail held
//! back by Nagle until the peer's delayed ACK (40 ms) for the head.

use std::io::{BufRead, Write};
use std::time::Duration;

/// Longest accepted request head (request line + headers), bytes.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Longest accepted request body, bytes.
const MAX_BODY_BYTES: usize = 1024 * 1024;
/// How long a connection may sit idle — between requests, or between
/// the reads of one — before its worker closes it: the set of workers is
/// bounded, so a silent peer must not hold one for ever. Shutdown does
/// not wait for it (the server ends blocked reads itself).
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(3);

/// Why reading a request off a connection stopped.
#[derive(Debug)]
pub(crate) enum ReadError {
    /// The peer closed the connection cleanly between requests.
    Closed,
    /// Nothing arrived within [`IDLE_TIMEOUT`]; the caller closes the
    /// connection.
    TimedOut,
    /// The bytes on the wire were not an HTTP/1.1 request we accept.
    Malformed(String),
    /// The socket failed mid-request.
    Io(std::io::Error),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Closed => write!(f, "connection closed"),
            ReadError::TimedOut => write!(f, "read timed out"),
            ReadError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            ReadError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

fn classify(e: std::io::Error) -> ReadError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ReadError::TimedOut,
        std::io::ErrorKind::UnexpectedEof
        | std::io::ErrorKind::ConnectionReset
        | std::io::ErrorKind::ConnectionAborted
        | std::io::ErrorKind::BrokenPipe => ReadError::Closed,
        _ => ReadError::Io(e),
    }
}

/// One parsed request.
#[derive(Debug)]
pub(crate) struct Request {
    /// `GET`, `POST`, ... — uppercase as received.
    pub method: String,
    /// Absolute path, query string not split off (no endpoint uses one).
    pub path: String,
    /// Headers, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes (empty if absent).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive single-header lookup.
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// Does the client ask to drop the connection after this exchange?
    pub(crate) fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Read one request off a keep-alive connection. `Closed` between
/// requests and `TimedOut` are normal ends of a connection for the
/// caller, not failures.
pub(crate) fn read_request<R: BufRead>(reader: &mut R) -> Result<Request, ReadError> {
    let mut line = String::new();
    let n = reader.read_line(&mut line).map_err(classify)?;
    if n == 0 {
        return Err(ReadError::Closed);
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!("bad request line {}", line.trim_end())));
    }

    let mut headers = Vec::new();
    let mut head_bytes = line.len();
    loop {
        let mut header = String::new();
        let n = reader.read_line(&mut header).map_err(classify)?;
        if n == 0 {
            return Err(ReadError::Malformed("eof inside headers".to_string()));
        }
        head_bytes += n;
        if head_bytes > MAX_HEAD_BYTES {
            return Err(ReadError::Malformed(format!("head exceeds {MAX_HEAD_BYTES} bytes")));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        match header.split_once(':') {
            Some((name, value)) => {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()))
            }
            None => return Err(ReadError::Malformed(format!("header without colon: {header}"))),
        }
    }

    let length = match headers.iter().find(|(n, _)| n == "content-length") {
        Some((_, v)) => {
            v.parse::<usize>().map_err(|e| ReadError::Malformed(format!("content-length: {e}")))?
        }
        None => 0,
    };
    if length > MAX_BODY_BYTES {
        return Err(ReadError::Malformed(format!("body exceeds {MAX_BODY_BYTES} bytes")));
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).map_err(classify)?;
    Ok(Request { method, path, headers, body })
}

/// One response to serialise.
#[derive(Debug)]
pub(crate) struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response (the service's JSON bodies all end in `\n`,
    /// matching the CLIs' `println!` — that newline is part of the
    /// byte-identity contract).
    pub(crate) fn json(status: u16, body: String) -> Response {
        Response { status, content_type: "application/json", body: body.into_bytes() }
    }

    /// A plain-text response.
    pub(crate) fn text(status: u16, body: String) -> Response {
        Response { status, content_type: "text/plain; charset=utf-8", body: body.into_bytes() }
    }
}

/// Reason phrase for the handful of statuses the service emits.
pub(crate) fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Serialise one response onto the wire: head and body in one buffer,
/// handed to the writer in one `write_all`.
pub(crate) fn write_response<W: Write>(
    stream: &mut W,
    resp: &Response,
    close: bool,
) -> std::io::Result<()> {
    let mut message = Vec::with_capacity(128 + resp.body.len());
    write!(
        message,
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len(),
        if close { "close" } else { "keep-alive" },
    )?;
    message.extend_from_slice(&resp.body);
    stream.write_all(&message)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use std::net::{TcpListener, TcpStream};
    use std::thread;

    fn roundtrip(raw: &[u8]) -> Result<Request, ReadError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let raw = raw.to_vec();
        let writer = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&raw).expect("write");
        });
        let (stream, _) = listener.accept().expect("accept");
        let req = read_request(&mut BufReader::new(stream));
        writer.join().expect("writer join");
        req
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = roundtrip(b"POST /v1/plan HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"\"}")
            .expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/plan");
        assert_eq!(req.header("content-length"), Some("4"));
        assert_eq!(req.body, b"{\"\"}");
        assert!(!req.wants_close());
    }

    #[test]
    fn rejects_a_non_http_preamble() {
        match roundtrip(b"hello world\r\n\r\n") {
            Err(ReadError::Malformed(_)) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn rejects_an_oversized_body_before_reading_it() {
        let raw = format!("POST /v1/plan HTTP/1.1\r\ncontent-length: {}\r\n\r\n", 2 * 1024 * 1024);
        match roundtrip(raw.as_bytes()) {
            Err(ReadError::Malformed(msg)) => assert!(msg.contains("body exceeds")),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    /// Accepts whatever it is given and counts the calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write_of_head_then_body() {
        for (len, close) in [(1usize, false), (200 * 1024, true)] {
            let resp = Response::json(200, "x".repeat(len));
            let mut out = CountingWriter::default();
            write_response(&mut out, &resp, close).expect("writes");
            assert_eq!(out.writes, 1, "a {len}-byte body must leave in one write");
            let connection = if close { "close" } else { "keep-alive" };
            let mut expected = format!(
                "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: {len}\r\n\
                 connection: {connection}\r\n\r\n"
            )
            .into_bytes();
            expected.extend_from_slice(&resp.body);
            assert_eq!(out.bytes, expected);
        }
    }

    #[test]
    fn connection_close_is_honoured() {
        let req = roundtrip(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").expect("parses");
        assert!(req.wants_close());
    }
}
