//! The benchmark's own HTTP/1.1 client over `TcpStream`, so that a change
//! to `hanayo_serve::client` cannot move the load. It times the three
//! client-side phases of an exchange.

use std::io::{BufRead, BufReader, Error, ErrorKind, Read, Result, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Largest response body the client will allocate for.
const MAX_BODY_BYTES: usize = 64 << 20;

/// One answered request, with the instants that bound its phases.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// The request was fully written.
    pub written: Instant,
    /// The first response byte arrived.
    pub first_byte: Instant,
    /// The body was complete.
    pub done: Instant,
}

/// One connection, reusable while the server keeps it alive.
pub struct Conn {
    reader: BufReader<TcpStream>,
}

fn malformed(what: &str) -> Error {
    Error::new(ErrorKind::InvalidData, what.to_string())
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        stream.set_write_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn { reader: BufReader::new(stream) })
    }

    /// One request/response exchange on this connection.
    pub fn exchange(&mut self, method: &str, path: &str, body: &str, close: bool) -> Result<Reply> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nhost: hanayo-benchmark\r\ncontent-type: application/json\r\n\
             content-length: {}\r\nconnection: {}\r\n\r\n{body}",
            body.len(),
            if close { "close" } else { "keep-alive" },
        );
        let stream = self.reader.get_mut();
        stream.write_all(request.as_bytes())?;
        stream.flush()?;
        let written = Instant::now();
        if self.reader.fill_buf()?.is_empty() {
            return Err(Error::new(ErrorKind::UnexpectedEof, "closed before the response"));
        }
        let first_byte = Instant::now();

        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| malformed("bad status line"))?;
        let mut length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(Error::new(ErrorKind::UnexpectedEof, "closed inside the headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or_else(|| malformed("no content-length"))?;
        if length > MAX_BODY_BYTES {
            return Err(malformed("response body too large"));
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok(Reply { status, body, written, first_byte, done: Instant::now() })
    }
}
