//! The network front-end: a `std::net` thread-per-connection server
//! speaking HTTP/1.1 + JSON, with a length-prefixed binary framing for the
//! hot path on the same port.
//!
//! The listener sniffs the first byte of every connection:
//! [`crate::api::REQUEST_MAGIC`] (`0xB5`) starts a binary session (no
//! ASCII HTTP method begins with that byte); anything else is parsed as
//! HTTP/1.1. Both paths decode to [`ApiRecallRequest`] and call
//! [`RecallService::handle`].
//!
//! Routes:
//!
//! | method & path          | action                                    |
//! |------------------------|-------------------------------------------|
//! | `POST /v1/recall`      | serve one recall (JSON body)              |
//! | `GET /metrics`         | telemetry document, per tenant + server   |
//! | `GET /healthz`         | liveness probe                            |
//! | `POST /v1/tenants`     | register a tenant from a deployment spec  |
//! | `DELETE /v1/tenants/N` | evict tenant `N`                          |
//!
//! Admission failures surface as typed statuses: 429 (tenant over quota,
//! with `Retry-After`), 503 (global concurrency cap or engine queue
//! full), 404 (unknown tenant), 400 (malformed request).

use crate::api::{ApiRecallRequest, DeploymentKind, REQUEST_MAGIC, RESPONSE_MAGIC, WIRE_VERSION};
use crate::registry::{DeploymentSpec, RegistryError, TenantOptions};
use crate::service::{RecallService, ServeError, ServerConfig};
use spinamm_core::amm::{AmmConfig, Fidelity};
use spinamm_engine::EngineConfig;
use spinamm_telemetry::json::{self, JsonValue};
use spinamm_telemetry::Recorder;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

/// Largest accepted HTTP header block or binary frame body, bytes.
const MAX_HEADER_BYTES: usize = 64 * 1024;
/// Largest accepted request body, bytes.
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// One occupied connection slot, given back on drop: when the connection
/// finishes, when its handler panics, or when its thread never starts.
struct ConnectionSlot(Arc<AtomicUsize>);

impl ConnectionSlot {
    fn acquire(open: &Arc<AtomicUsize>) -> Self {
        open.fetch_add(1, Ordering::AcqRel);
        Self(Arc::clone(open))
    }
}

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A running TCP server; dropping it (or calling
/// [`SpinServer::shutdown`]) stops the accept loop.
#[derive(Debug)]
pub struct SpinServer {
    addr: SocketAddr,
    closed: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl SpinServer {
    /// Binds `config.bind` and starts serving `service`.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn start(service: Arc<RecallService>, config: &ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.bind)?;
        let addr = listener.local_addr()?;
        let closed = Arc::new(AtomicBool::new(false));
        let open_connections = Arc::new(AtomicUsize::new(0));
        let max_connections = config.max_connections.max(1);
        let accept_closed = Arc::clone(&closed);
        let accept_thread = thread::Builder::new()
            .name("spinamm-accept".to_owned())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_closed.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if open_connections.load(Ordering::Acquire) >= max_connections {
                        service.recorder().counter("server.connections_rejected", 1);
                        let _ =
                            write_http(&mut &stream, 503, &ServeError::Saturated.to_json(), &[]);
                        continue;
                    }
                    let slot = ConnectionSlot::acquire(&open_connections);
                    let service = Arc::clone(&service);
                    // A failed spawn drops the closure, and with it the slot.
                    let _ = thread::Builder::new()
                        .name("spinamm-conn".to_owned())
                        .spawn(move || {
                            let _slot = slot;
                            handle_connection(&service, stream);
                        });
                }
            })?;
        Ok(Self {
            addr,
            closed,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with `bind: 127.0.0.1:0`).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the accept loop. In-flight
    /// connections finish on their own threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for SpinServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn handle_connection(service: &RecallService, mut stream: TcpStream) {
    let mut first = [0u8; 1];
    if stream.read_exact(&mut first).is_err() {
        return;
    }
    if first[0] == REQUEST_MAGIC {
        handle_binary_session(service, stream);
    } else {
        handle_http_session(service, stream, first[0]);
    }
}

// ---------------------------------------------------------------- binary

fn handle_binary_session(service: &RecallService, mut stream: TcpStream) {
    // The first frame's magic byte is already consumed by the sniffer.
    loop {
        let mut header = [0u8; 5];
        if stream.read_exact(&mut header).is_err() {
            return;
        }
        let body_len = u32::from_le_bytes(header[1..5].try_into().expect("len")) as usize;
        if header[0] != WIRE_VERSION || body_len > MAX_BODY_BYTES {
            let body = ServeError::BadRequest("bad binary frame header".to_owned()).to_json();
            let _ = write_binary_frame(&mut stream, 400, body.as_bytes());
            return;
        }
        let mut frame = Vec::with_capacity(6 + body_len);
        frame.push(REQUEST_MAGIC);
        frame.extend_from_slice(&header);
        let start = frame.len();
        frame.resize(start + body_len, 0);
        if stream.read_exact(&mut frame[start..]).is_err() {
            return;
        }
        let outcome = match ApiRecallRequest::decode_binary(&frame) {
            Ok(request) => service.handle(&request),
            Err(e) => Err(ServeError::BadRequest(e.message)),
        };
        service.recorder().counter("server.binary_requests", 1);
        let ok = match outcome {
            Ok(response) => write_binary_frame(&mut stream, 200, &response.encode_binary()).is_ok(),
            Err(e) => write_binary_frame(&mut stream, e.status(), e.to_json().as_bytes()).is_ok(),
        };
        if !ok {
            return;
        }
        // Next frame (if the client keeps the session open).
        let mut magic = [0u8; 1];
        if stream.read_exact(&mut magic).is_err() || magic[0] != REQUEST_MAGIC {
            return;
        }
    }
}

fn write_binary_frame(stream: &mut TcpStream, status: u16, body: &[u8]) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(8 + body.len());
    out.push(RESPONSE_MAGIC);
    out.push(WIRE_VERSION);
    out.extend_from_slice(&status.to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    stream.write_all(&out)
}

// ------------------------------------------------------------------ http

struct HttpRequest {
    method: String,
    path: String,
    body: String,
    keep_alive: bool,
}

fn handle_http_session(service: &RecallService, mut stream: TcpStream, first_byte: u8) {
    let mut pending = vec![first_byte];
    loop {
        let Some(request) = read_http_request(&mut stream, std::mem::take(&mut pending)) else {
            return;
        };
        let keep_alive = request.keep_alive;
        if route(service, &mut stream, &request).is_err() || !keep_alive {
            return;
        }
    }
}

/// Reads one HTTP/1.1 request (header block then `Content-Length` body).
/// Returns `None` on EOF or a malformed/oversized request.
fn read_http_request(stream: &mut TcpStream, mut buf: Vec<u8>) -> Option<HttpRequest> {
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEADER_BYTES {
            return None;
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).ok()?;
        if n == 0 {
            return None;
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let header_text = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let mut lines = header_text.split("\r\n");
    let request_line = lines.next()?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next()?.to_owned();
    let path = parts.next()?.to_owned();
    let mut content_length = 0usize;
    let mut keep_alive = true; // HTTP/1.1 default
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().ok()?;
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    if content_length > MAX_BODY_BYTES {
        return None;
    }
    let mut body_bytes = buf[header_end + 4..].to_vec();
    while body_bytes.len() < content_length {
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).ok()?;
        if n == 0 {
            return None;
        }
        body_bytes.extend_from_slice(&chunk[..n]);
    }
    body_bytes.truncate(content_length);
    Some(HttpRequest {
        method,
        path,
        body: String::from_utf8(body_bytes).ok()?,
        keep_alive,
    })
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn route(
    service: &RecallService,
    stream: &mut TcpStream,
    request: &HttpRequest,
) -> std::io::Result<()> {
    service.recorder().counter("server.http_requests", 1);
    let (status, body, extra): (u16, String, Vec<String>) =
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => (
                200,
                JsonValue::object([("status", JsonValue::Str("ok".to_owned()))]).render(),
                Vec::new(),
            ),
            ("GET", "/metrics") => (200, service.metrics_json().render(), Vec::new()),
            ("POST", "/v1/recall") => match ApiRecallRequest::from_json(&request.body) {
                Ok(call) => match service.handle(&call) {
                    Ok(response) => (200, response.to_json(), Vec::new()),
                    Err(e) => {
                        let extra = match &e {
                            ServeError::OverQuota { retry_after_secs } => {
                                vec![format!("Retry-After: {retry_after_secs}")]
                            }
                            _ => Vec::new(),
                        };
                        (e.status(), e.to_json(), extra)
                    }
                },
                Err(e) => {
                    let err = ServeError::BadRequest(e.message);
                    (err.status(), err.to_json(), Vec::new())
                }
            },
            ("POST", "/v1/tenants") => register_tenant(service, &request.body),
            ("DELETE", path) if path.starts_with("/v1/tenants/") => {
                let name = &path["/v1/tenants/".len()..];
                if service.registry().evict(name) {
                    (
                        200,
                        JsonValue::object([("evicted", JsonValue::Str(name.to_owned()))]).render(),
                        Vec::new(),
                    )
                } else {
                    let err = ServeError::UnknownTenant(name.to_owned());
                    (err.status(), err.to_json(), Vec::new())
                }
            }
            _ => {
                let err = ServeError::BadRequest(format!(
                    "no route for {} {}",
                    request.method, request.path
                ));
                (404, err.to_json(), Vec::new())
            }
        };
    service
        .recorder()
        .counter(&format!("server.http_responses.{status}"), 1);
    write_http(&mut &*stream, status, &body, &extra)
}

fn register_tenant(service: &RecallService, body: &str) -> (u16, String, Vec<String>) {
    match parse_tenant_registration(body) {
        Ok((name, spec, options)) => match service.registry().register(&name, &spec, &options) {
            Ok(tenant) => (
                201,
                JsonValue::object([
                    ("tenant", JsonValue::Str(tenant.name().to_owned())),
                    ("kind", JsonValue::Str(tenant.kind().as_str().to_owned())),
                    ("vector_len", JsonValue::Uint(tenant.vector_len() as u64)),
                ])
                .render(),
                Vec::new(),
            ),
            Err(e @ RegistryError::Duplicate(_)) => (
                409,
                error_body(409, "duplicate", &e.to_string()),
                Vec::new(),
            ),
            Err(e @ RegistryError::Build(_)) => {
                (400, error_body(400, "bad_spec", &e.to_string()), Vec::new())
            }
        },
        Err(message) => (400, error_body(400, "bad_spec", &message), Vec::new()),
    }
}

fn error_body(status: u16, kind: &str, message: &str) -> String {
    JsonValue::object([(
        "error",
        JsonValue::object([
            ("status", JsonValue::Uint(u64::from(status))),
            ("kind", JsonValue::Str(kind.to_owned())),
            ("message", JsonValue::Str(message.to_owned())),
        ]),
    )])
    .render()
}

/// Parses a tenant-registration document:
///
/// ```json
/// {
///   "tenant": "alpha",
///   "kind": "tiled",
///   "patterns": [[31, 0, …], …],
///   "fidelity": "driven",
///   "seed": 42,
///   "tile_capacity": 64,
///   "top_k": 4,
///   "segments": 2,
///   "clusters": 3,
///   "quota_qps": 500.0,
///   "quota_burst": 50.0,
///   "workers": 2,
///   "queue_capacity": 16
/// }
/// ```
///
/// `tenant`, `kind` and `patterns` are required; everything else
/// defaults (`segments`/`clusters`/`tile_capacity` only apply to their
/// kinds).
fn parse_tenant_registration(
    body: &str,
) -> Result<(String, DeploymentSpec, TenantOptions), String> {
    let doc = json::parse(body).map_err(|e| format!("malformed JSON: {e}"))?;
    let name = doc
        .get("tenant")
        .and_then(JsonValue::as_str)
        .ok_or("missing string field `tenant`")?
        .to_owned();
    let kind = doc
        .get("kind")
        .and_then(JsonValue::as_str)
        .and_then(DeploymentKind::parse)
        .ok_or("`kind` must be flat|partitioned|hierarchical|tiled")?;
    let patterns = doc
        .get("patterns")
        .and_then(JsonValue::as_array)
        .ok_or("missing array field `patterns`")?
        .iter()
        .map(|row| {
            row.as_array()
                .ok_or("`patterns` must be an array of arrays")?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .and_then(|u| u32::try_from(u).ok())
                        .ok_or("pattern elements must be u32 levels")
                })
                .collect::<Result<Vec<u32>, &str>>()
        })
        .collect::<Result<Vec<Vec<u32>>, &str>>()?;
    let mut config = AmmConfig::default();
    if let Some(fidelity) = doc.get("fidelity").and_then(JsonValue::as_str) {
        config.fidelity = match fidelity {
            "ideal" => Fidelity::Ideal,
            "driven" => Fidelity::Driven,
            "parasitic" => Fidelity::Parasitic,
            _ => return Err("`fidelity` must be ideal|driven|parasitic".to_owned()),
        };
    }
    if let Some(seed) = doc.get("seed").and_then(JsonValue::as_u64) {
        config.seed = seed;
    }
    let usize_field = |key: &str, default: usize| -> usize {
        doc.get(key)
            .and_then(JsonValue::as_u64)
            .and_then(|v| usize::try_from(v).ok())
            .unwrap_or(default)
    };
    let spec = match kind {
        DeploymentKind::Flat => DeploymentSpec::Flat { patterns, config },
        DeploymentKind::Partitioned => DeploymentSpec::Partitioned {
            patterns,
            segments: usize_field("segments", 2),
            config,
        },
        DeploymentKind::Hierarchical => DeploymentSpec::Hierarchical {
            patterns,
            clusters: usize_field("clusters", 2),
            config,
        },
        DeploymentKind::Tiled => DeploymentSpec::Tiled {
            patterns,
            tile_capacity: usize_field("tile_capacity", 64),
            top_k: usize_field("top_k", 1),
            config,
        },
    };
    let quota = doc.get("quota_qps").and_then(JsonValue::as_f64).map(|qps| {
        let burst = doc
            .get("quota_burst")
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| qps.max(1.0));
        (qps, burst)
    });
    let defaults = TenantOptions::default();
    let engine = EngineConfig::builder()
        .workers(usize_field("workers", defaults.engine.workers))
        .queue_capacity(usize_field(
            "queue_capacity",
            defaults.engine.queue_capacity,
        ))
        .build();
    Ok((name, spec, TenantOptions { quota, engine }))
}

fn write_http(
    stream: &mut impl Write,
    status: u16,
    body: &str,
    extra_headers: &[String],
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Response",
    };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        body.len()
    );
    for header in extra_headers {
        head.push_str(header);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connection_slot_is_released_when_the_handler_never_runs() {
        // A failed spawn drops the handler closure unrun.
        let open = Arc::new(AtomicUsize::new(0));
        let slot = ConnectionSlot::acquire(&open);
        let handler = move || drop(slot);
        assert_eq!(open.load(Ordering::Acquire), 1);
        drop(handler);
        assert_eq!(open.load(Ordering::Acquire), 0);
    }

    #[test]
    fn connection_slot_is_released_when_the_handler_panics() {
        let open = Arc::new(AtomicUsize::new(0));
        let slot = ConnectionSlot::acquire(&open);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _slot = slot;
            panic!("connection handler failed");
        }));
        assert!(unwound.is_err());
        assert_eq!(open.load(Ordering::Acquire), 0);
    }
}
