//! The serving side shared by the workloads: standing a tenant up the way
//! an operator would, the correctness gate, and the load senders.

use crate::client::{decode_binary, BinaryClient, Failure, HttpClient};
use crate::loadgen::{Outcome, Phase, Sender};
use crate::spans::SpanLog;
use crate::Res;
use spinamm_engine::{Deployment, RecallEngine};
use spinamm_server::api::{ApiRecallRequest, ApiRecallResponse};
use spinamm_server::registry::{DeploymentSpec, ModuleRegistry};
use spinamm_server::service::{RecallService, ServerConfig};
use spinamm_server::SpinServer;
use spinamm_telemetry::json::JsonValue;
use spinamm_telemetry::MemoryRecorder;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// A running server with one registered tenant.
pub struct Served {
    /// The TCP front-end.
    pub server: SpinServer,
    /// The service behind it, for in-process layer probes.
    pub service: Arc<RecallService>,
    /// Bound loopback address.
    pub addr: SocketAddr,
    /// The tenant's registry name.
    pub tenant: String,
}

impl Served {
    /// Starts a server on 127.0.0.1, registers `doc` through
    /// `POST /v1/tenants` and serves `first` once, which is when the
    /// tenant can first be served.
    ///
    /// # Errors
    ///
    /// Bind, registration or first-query failures.
    pub fn stand_up(doc: &str, tenant: &str, first: &[u32]) -> Res<Self> {
        let config = ServerConfig::builder().bind("127.0.0.1:0").build();
        let service = Arc::new(RecallService::new(Arc::new(ModuleRegistry::new()), &config));
        let server = SpinServer::start(Arc::clone(&service), &config)?;
        let addr = server.addr();
        let mut http = HttpClient::connect(addr)?;
        http.json("POST", "/v1/tenants", doc)?;
        BinaryClient::connect(addr)?.recall(&request(tenant, first))?;
        Ok(Self {
            server,
            service,
            addr,
            tenant: tenant.to_owned(),
        })
    }

    /// Stops the listener and waits (up to ten seconds) for every
    /// connection thread to let go of the service, so the tenants' engines
    /// and memory are gone when this returns.
    pub fn stop(self) {
        self.server.shutdown();
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while Arc::strong_count(&self.service) > 1 && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        for name in self.service.registry().names() {
            self.service.registry().evict(&name);
        }
    }
}

/// A recall request for `tenant`.
#[must_use]
pub fn request(tenant: &str, input: &[u32]) -> ApiRecallRequest {
    ApiRecallRequest {
        tenant: tenant.to_owned(),
        input: input.to_vec(),
    }
}

/// Builds the reference deployment the gate compares against: the same
/// spec the server builds from the registration document.
///
/// # Errors
///
/// Build failures.
pub fn reference(spec: &DeploymentSpec) -> Res<Deployment> {
    Ok(spec.build(&MemoryRecorder::default())?)
}

/// The verdict of a sequential correctness pass.
#[derive(Debug, Default)]
pub struct Gate {
    /// Responses compared.
    pub checked: u64,
    /// Responses that differed from direct sequential recall (winner,
    /// DOM, ranked matches or energy bits).
    pub mismatches: u64,
    /// Responses whose winner equals the query's label.
    pub top1: u64,
    /// Sum of simulated recall energy, J.
    pub energy_j: f64,
    /// Request accounting of the pass.
    pub phase: Phase,
}

impl Gate {
    /// Whether every request was served and matched.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.checked > 0
            && self.mismatches == 0
            && self.phase.failed == 0
            && self.phase.refused_total() == 0
    }

    /// Top-1 accuracy over the pass.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        self.top1 as f64 / self.checked.max(1) as f64
    }

    /// Mean simulated energy per recall, pJ.
    #[must_use]
    pub fn energy_pj(&self) -> f64 {
        self.energy_j / self.checked.max(1) as f64 * 1e12
    }

    /// Compares one served response with the direct one.
    pub fn check(
        &mut self,
        label: usize,
        served: Result<ApiRecallResponse, Failure>,
        direct: &ApiRecallResponse,
    ) {
        let outcome = match served {
            Ok(got) => {
                self.checked += 1;
                self.energy_j += got.energy_j;
                if got.winner == label as u64 {
                    self.top1 += 1;
                }
                if same(&got, direct) {
                    Outcome::Ok
                } else {
                    self.mismatches += 1;
                    Outcome::Failed(format!("served {got:?} != direct {direct:?}"))
                }
            }
            Err(Failure::Refused { kind, .. }) => Outcome::Refused(kind),
            Err(e) => Outcome::Failed(e.to_string()),
        };
        self.phase.record(outcome);
    }
}

/// Bit-level equality of two responses, energy included.
#[must_use]
pub fn same(a: &ApiRecallResponse, b: &ApiRecallResponse) -> bool {
    a == b && a.energy_j.to_bits() == b.energy_j.to_bits()
}

/// Sequential pass: each query is served, then recalled directly on the
/// reference, in the same order.
///
/// # Errors
///
/// Failure of the direct recall itself.
pub fn gate(
    mut serve: impl FnMut(&[u32]) -> Result<ApiRecallResponse, Failure>,
    tenant: &str,
    reference: &mut Deployment,
    queries: &[(usize, Vec<u32>)],
) -> Res<Gate> {
    let mut gate = Gate::default();
    for (label, q) in queries {
        let served = serve(q);
        let direct = ApiRecallResponse::from_engine(tenant, &reference.recall(q)?);
        gate.check(*label, served, &direct);
    }
    Ok(gate)
}

/// Reads the `server.rejected.<kind>` counters from a `/metrics` document.
#[must_use]
pub fn rejected_counters(metrics: &JsonValue) -> Vec<(String, u64)> {
    let counters = metrics
        .get("server")
        .and_then(|s| s.get("metrics"))
        .and_then(|m| m.get("counters"));
    crate::REJECT_KINDS
        .iter()
        .map(|kind| {
            let n = counters
                .and_then(|c| c.get(&format!("server.rejected.{kind}")))
                .and_then(JsonValue::as_u64)
                .unwrap_or(0);
            ((*kind).to_owned(), n)
        })
        .collect()
}

fn outcome_of(tenant: &str, reply: Result<ApiRecallResponse, Failure>) -> Outcome {
    match reply {
        Ok(r) if r.tenant == tenant => Outcome::Ok,
        Ok(r) => Outcome::Failed(format!("reply for tenant {:?}", r.tenant)),
        Err(Failure::Refused { kind, .. }) => Outcome::Refused(kind),
        Err(e) => Outcome::Failed(e.to_string()),
    }
}

/// A load sender on one binary connection. With a span log it records,
/// per request, a `request` span from the due time with children
/// `loadgen.lag`, `server.wire_encode`, `server.transport` and
/// `server.wire_decode`.
pub struct BinarySender<'a> {
    client: BinaryClient,
    tenant: &'a str,
    queries: &'a [(usize, Vec<u32>)],
    /// Spans of this sender's requests, when traced.
    pub spans: Option<SpanLog>,
}

impl<'a> BinarySender<'a> {
    /// Connects one sender.
    ///
    /// # Errors
    ///
    /// The connect error.
    pub fn connect(
        addr: SocketAddr,
        tenant: &'a str,
        queries: &'a [(usize, Vec<u32>)],
        spans: Option<SpanLog>,
    ) -> Res<Self> {
        Ok(Self {
            client: BinaryClient::connect(addr)?,
            tenant,
            queries,
            spans,
        })
    }
}

impl Sender for BinarySender<'_> {
    fn send(&mut self, index: u64, due: Instant) -> Outcome {
        let request = request(
            self.tenant,
            &self.queries[index as usize % self.queries.len()].1,
        );
        let Some(log) = self.spans.as_mut() else {
            return outcome_of(self.tenant, self.client.recall(&request));
        };
        let root = log.open_at("request", None, index, due);
        let lag = log.open_at("loadgen.lag", Some(root), index, due);
        log.close(lag);
        let frame = log.time("server.wire_encode", Some(root), index, 1, || {
            request.encode_binary()
        });
        let client = &mut self.client;
        let reply = log.time("server.transport", Some(root), index, 1, || {
            client.roundtrip(&frame)
        });
        let decoded = log.time("server.wire_decode", Some(root), index, 1, || {
            reply.and_then(|(status, body)| decode_binary(status, &body))
        });
        log.close(root);
        outcome_of(self.tenant, decoded)
    }
}

/// A load sender on one HTTP/1.1 keep-alive connection (JSON framing).
pub struct JsonSender<'a> {
    client: HttpClient,
    tenant: &'a str,
    queries: &'a [(usize, Vec<u32>)],
}

impl<'a> JsonSender<'a> {
    /// Connects one sender.
    ///
    /// # Errors
    ///
    /// The connect error.
    pub fn connect(
        addr: SocketAddr,
        tenant: &'a str,
        queries: &'a [(usize, Vec<u32>)],
    ) -> Res<Self> {
        Ok(Self {
            client: HttpClient::connect(addr)?,
            tenant,
            queries,
        })
    }
}

impl Sender for JsonSender<'_> {
    fn send(&mut self, index: u64, _due: Instant) -> Outcome {
        let request = request(
            self.tenant,
            &self.queries[index as usize % self.queries.len()].1,
        );
        outcome_of(self.tenant, self.client.recall(&request))
    }
}

/// An in-process caller of a [`RecallEngine`] (`submit` then
/// `Ticket::wait`). Traced, it records an `engine.submit_wait` span under
/// a `request` span from the due time.
pub struct EngineSender<'a> {
    engine: &'a RecallEngine,
    queries: &'a [(usize, Vec<u32>)],
    /// Spans of this sender's requests, when traced.
    pub spans: Option<SpanLog>,
}

impl<'a> EngineSender<'a> {
    /// A sender over `engine`.
    #[must_use]
    pub fn new(
        engine: &'a RecallEngine,
        queries: &'a [(usize, Vec<u32>)],
        spans: Option<SpanLog>,
    ) -> Self {
        Self {
            engine,
            queries,
            spans,
        }
    }
}

impl Sender for EngineSender<'_> {
    fn send(&mut self, index: u64, due: Instant) -> Outcome {
        let q = &self.queries[index as usize % self.queries.len()].1;
        let engine = self.engine;
        let call = || engine.submit(q).and_then(spinamm_engine::Ticket::wait);
        let result = match self.spans.as_mut() {
            None => call(),
            Some(log) => {
                let root = log.open_at("request", None, index, due);
                let out = log.time("engine.submit_wait", Some(root), index, 1, call);
                log.close(root);
                out
            }
        };
        match result {
            Ok(_) => Outcome::Ok,
            Err(e) => Outcome::Failed(e.to_string()),
        }
    }
}
