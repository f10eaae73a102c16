//! Load-generator clients for the server's two framings.
//!
//! Every request leaves in exactly one `write_all` on a socket with
//! `TCP_NODELAY` set, so the client never holds a segment back: a stall
//! observed here belongs to the server.

use spinamm_server::api::{ApiRecallRequest, ApiRecallResponse, RESPONSE_MAGIC};
use spinamm_telemetry::json::{self, JsonValue};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Largest response body the clients accept.
const MAX_BODY: usize = 64 * 1024 * 1024;

/// Why a request did not produce a recall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The server answered with a non-success status; `kind` is the typed
    /// error kind from the body when there is one.
    Refused {
        /// HTTP-style status.
        status: u16,
        /// `error.kind` from the body.
        kind: String,
    },
    /// Socket error or a malformed reply.
    Broken(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Refused { status, kind } => write!(f, "refused {status} {kind}"),
            Failure::Broken(why) => write!(f, "broken: {why}"),
        }
    }
}

impl std::error::Error for Failure {}

fn broken(e: impl std::fmt::Display) -> Failure {
    Failure::Broken(e.to_string())
}

fn refused(status: u16, body: &[u8]) -> Failure {
    let kind = std::str::from_utf8(body)
        .ok()
        .and_then(|b| json::parse(b).ok())
        .and_then(|doc| {
            doc.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
        })
        .unwrap_or_default();
    Failure::Refused { status, kind }
}

fn connect(addr: SocketAddr) -> Result<TcpStream, Failure> {
    let stream = TcpStream::connect(addr).map_err(broken)?;
    stream.set_nodelay(true).map_err(broken)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(broken)?;
    Ok(stream)
}

/// A persistent binary-framing session.
#[derive(Debug)]
pub struct BinaryClient {
    stream: TcpStream,
}

impl BinaryClient {
    /// Opens a session.
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn connect(addr: SocketAddr) -> Result<Self, Failure> {
        Ok(Self {
            stream: connect(addr)?,
        })
    }

    /// Sends one encoded request frame and returns `(status, body)`.
    ///
    /// # Errors
    ///
    /// Returns [`Failure::Broken`] on socket errors or a bad frame header.
    pub fn roundtrip(&mut self, frame: &[u8]) -> Result<(u16, Vec<u8>), Failure> {
        self.stream.write_all(frame).map_err(broken)?;
        let mut header = [0u8; 8];
        self.stream.read_exact(&mut header).map_err(broken)?;
        if header[0] != RESPONSE_MAGIC {
            return Err(broken("bad response magic"));
        }
        let status = u16::from_le_bytes([header[2], header[3]]);
        let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
        if len > MAX_BODY {
            return Err(broken("oversized response frame"));
        }
        let mut body = vec![0u8; len];
        self.stream.read_exact(&mut body).map_err(broken)?;
        Ok((status, body))
    }

    /// Encode, round trip and decode one recall.
    ///
    /// # Errors
    ///
    /// A refused or broken request.
    pub fn recall(&mut self, request: &ApiRecallRequest) -> Result<ApiRecallResponse, Failure> {
        let (status, body) = self.roundtrip(&request.encode_binary())?;
        decode_binary(status, &body)
    }
}

/// Decodes a binary response `(status, body)` into a recall.
///
/// # Errors
///
/// A refusal for a non-200 status, a broken reply for a bad body.
pub fn decode_binary(status: u16, body: &[u8]) -> Result<ApiRecallResponse, Failure> {
    if status != 200 {
        return Err(refused(status, body));
    }
    ApiRecallResponse::decode_binary(body).map_err(broken)
}

/// A persistent HTTP/1.1 keep-alive connection.
#[derive(Debug)]
pub struct HttpClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl HttpClient {
    /// Opens a connection.
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn connect(addr: SocketAddr) -> Result<Self, Failure> {
        Ok(Self {
            stream: connect(addr)?,
            buf: Vec::new(),
        })
    }

    /// Sends one request (head and body in a single write) and reads the
    /// response, returning `(status, body)`.
    ///
    /// # Errors
    ///
    /// Returns [`Failure::Broken`] on socket errors or a malformed reply.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, Vec<u8>), Failure> {
        let mut out = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        out.extend_from_slice(body.as_bytes());
        self.stream.write_all(&out).map_err(broken)?;
        let header_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..header_end]).into_owned();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| broken("bad status line"))?;
        let length: usize = head
            .split("\r\n")
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())
            .ok_or_else(|| broken("missing content-length"))?;
        if length > MAX_BODY {
            return Err(broken("oversized response body"));
        }
        let start = header_end + 4;
        while self.buf.len() < start + length {
            self.fill()?;
        }
        let body = self.buf[start..start + length].to_vec();
        self.buf.drain(..start + length);
        Ok((status, body))
    }

    fn fill(&mut self) -> Result<(), Failure> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk).map_err(broken)?;
        if n == 0 {
            return Err(broken("connection closed"));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// One recall over `POST /v1/recall`.
    ///
    /// # Errors
    ///
    /// A refused or broken request.
    pub fn recall(&mut self, request: &ApiRecallRequest) -> Result<ApiRecallResponse, Failure> {
        let (status, body) = self.request("POST", "/v1/recall", &request.to_json())?;
        let text = String::from_utf8(body).map_err(broken)?;
        if status != 200 {
            return Err(refused(status, text.as_bytes()));
        }
        ApiRecallResponse::from_json(&text).map_err(broken)
    }

    /// A request expecting a JSON document with a 2xx status.
    ///
    /// # Errors
    ///
    /// A refused or broken request.
    pub fn json(&mut self, method: &str, path: &str, body: &str) -> Result<JsonValue, Failure> {
        let (status, reply) = self.request(method, path, body)?;
        if !(200..300).contains(&status) {
            return Err(refused(status, &reply));
        }
        let text = std::str::from_utf8(&reply).map_err(broken)?;
        json::parse(text).map_err(broken)
    }
}
