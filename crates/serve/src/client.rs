//! A small blocking HTTP client for the planning service — connection
//! per request, std-library-only, with *typed* failures so callers can
//! tell "the server refused" (status + body) from "the server went
//! away mid-request" ([`ClientError::Disconnected`], what the shutdown
//! regression test asserts).

use crate::schema::{AnalyzeRequest, TuneRequest};
use serde::Serialize;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Why a request did not return `2xx` bytes.
#[derive(Debug)]
pub enum ClientError {
    /// TCP connect failed — the server is not (or no longer) listening.
    Connect(std::io::Error),
    /// The connection died mid-exchange: the server closed or was
    /// killed between our request and its full response.
    Disconnected,
    /// The server answered with a non-2xx status; the body explains.
    Http {
        /// HTTP status code.
        status: u16,
        /// Response body (the service's JSON error document).
        body: String,
    },
    /// The bytes on the wire were not a valid HTTP/1.1 response.
    Protocol(String),
    /// A local socket failure unrelated to the peer closing.
    Io(std::io::Error),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect failed: {e}"),
            ClientError::Disconnected => write!(f, "server disconnected mid-request"),
            ClientError::Http { status, body } => write!(f, "http {status}: {}", body.trim_end()),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

fn disconnected_or_io(e: std::io::Error) -> ClientError {
    match e.kind() {
        std::io::ErrorKind::UnexpectedEof
        | std::io::ErrorKind::ConnectionReset
        | std::io::ErrorKind::ConnectionAborted
        | std::io::ErrorKind::BrokenPipe => ClientError::Disconnected,
        _ => ClientError::Io(e),
    }
}

/// One parsed response.
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// The body, decoded as UTF-8.
    pub body: String,
}

/// A handle on one server address. Stateless (connection per request),
/// so it is `Clone` and freely shared across load-test threads.
#[derive(Debug, Clone, Copy)]
pub struct Client {
    addr: SocketAddr,
    /// Per-socket-operation timeout.
    pub timeout: Duration,
}

impl Client {
    /// A client for the given address.
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, timeout: Duration::from_secs(120) }
    }

    /// Issue one request; returns the raw status + body for any
    /// well-formed HTTP exchange (including 4xx/5xx).
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<ClientResponse, ClientError> {
        let mut stream = TcpStream::connect(self.addr).map_err(ClientError::Connect)?;
        stream.set_read_timeout(Some(self.timeout)).map_err(ClientError::Io)?;
        stream.set_write_timeout(Some(self.timeout)).map_err(ClientError::Io)?;
        stream.set_nodelay(true).map_err(ClientError::Io)?;
        let payload = body.unwrap_or("");
        // Head and body in one write, as the server's responses are (see
        // `crate::http`).
        let request = format!(
            "{method} {path} HTTP/1.1\r\nhost: hanayo-serve\r\ncontent-type: application/json\r\n\
             content-length: {}\r\nconnection: close\r\n\r\n{payload}",
            payload.len(),
        );
        stream.write_all(request.as_bytes()).map_err(disconnected_or_io)?;

        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        let n = reader.read_line(&mut status_line).map_err(disconnected_or_io)?;
        if n == 0 {
            return Err(ClientError::Disconnected);
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ClientError::Protocol(format!("bad status line {status_line:?}")))?;

        let mut length: Option<usize> = None;
        loop {
            let mut header = String::new();
            let n = reader.read_line(&mut header).map_err(disconnected_or_io)?;
            if n == 0 {
                return Err(ClientError::Disconnected);
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().ok();
                }
            }
        }
        let length = length
            .ok_or_else(|| ClientError::Protocol("response without content-length".to_string()))?;
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body).map_err(disconnected_or_io)?;
        let body = String::from_utf8(body)
            .map_err(|e| ClientError::Protocol(format!("non-utf8 body: {e}")))?;
        Ok(ClientResponse { status, body })
    }

    /// Issue a request and demand a 2xx, returning just the body.
    pub fn expect_ok(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<String, ClientError> {
        let resp = self.request(method, path, body)?;
        if (200..300).contains(&resp.status) {
            Ok(resp.body)
        } else {
            Err(ClientError::Http { status: resp.status, body: resp.body })
        }
    }

    fn post_doc<T: Serialize>(&self, path: &str, req: &T) -> Result<String, ClientError> {
        let body = serde_json::to_string(req)
            .map_err(|e| ClientError::Protocol(format!("serialising request: {e}")))?;
        self.expect_ok("POST", path, Some(&body))
    }

    /// `GET /healthz`.
    pub fn healthz(&self) -> Result<String, ClientError> {
        self.expect_ok("GET", "/healthz", None)
    }

    /// `GET /metrics` — Prometheus text.
    pub fn metrics(&self) -> Result<String, ClientError> {
        self.expect_ok("GET", "/metrics", None)
    }

    /// `POST /v1/tune` (synchronous; deduplicated server-side).
    pub fn tune(&self, req: &TuneRequest) -> Result<String, ClientError> {
        self.post_doc("/v1/tune", req)
    }

    /// `POST /v1/analyze`.
    pub fn analyze(&self, req: &AnalyzeRequest) -> Result<String, ClientError> {
        self.post_doc("/v1/analyze", req)
    }

    /// `GET /v1/jobs/<id>` — the status document.
    pub fn job_status(&self, id: u64) -> Result<String, ClientError> {
        self.expect_ok("GET", &format!("/v1/jobs/{id}"), None)
    }

    /// `GET /v1/jobs/<id>/result` — the raw exchange (200 done, 202
    /// running, 409 cancelled, 500 failed).
    pub fn job_result(&self, id: u64) -> Result<ClientResponse, ClientError> {
        self.request("GET", &format!("/v1/jobs/{id}/result"), None)
    }

    /// `POST /shutdown` — ask the server to drain and stop.
    pub fn shutdown(&self) -> Result<String, ClientError> {
        self.expect_ok("POST", "/shutdown", None)
    }
}
