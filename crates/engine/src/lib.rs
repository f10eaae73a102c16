//! Sharded concurrent recall engine — the serving layer over
//! [`spinamm_core`]'s associative memory deployments.
//!
//! The paper's §5 scaling story stores patterns across many small RCM
//! modules (row partitions or cluster hierarchies) that evaluate
//! concurrently in hardware. [`RecallEngine`] reproduces that organization
//! in the simulator as a long-lived, thread-pooled service:
//!
//! * queries enter through a **bounded submission queue** ([`RecallEngine::submit`]
//!   blocks for space, [`RecallEngine::try_submit`] reports
//!   [`EngineError::QueueFull`] — backpressure instead of unbounded memory);
//! * **worker threads** — each owning a clone of the deployment's compiled
//!   recall plans, compiled once at engine start with the canonically
//!   warmed solver sessions — run the RNG-free drive/settle/solve phase of
//!   whichever query is next;
//! * a **sequencer thread** owning the master deployment applies the
//!   RNG-consuming ADC/WTA selection phase strictly in submission order.
//!
//! Because the evaluation phase is deterministic and order-independent
//! (fixed warm-start reference pinned at build time) and the stochastic
//! phase consumes each module's RNG in exactly the sequential order, every
//! response is **bit-identical** to calling the deployment's `recall` once
//! per query in submission order — at any worker count, queue capacity, or
//! thread interleaving. Compiled plans are the engine's single executor
//! (f64 plans are bit-identical to interpreted evaluation), and
//! [`Deployment::recall`] is the sequential oracle every response is
//! checked against. Hierarchical deployments pipeline in two stages:
//! the top (centroid) selection gates which cluster evaluates, so the
//! sequencer re-dispatches a stage-B job on an internal queue that workers
//! drain with priority. Tiled capacity pools ([`Deployment::Tiled`])
//! evaluate every tile of a query in one worker phase — through the pool's
//! embedded per-tile plans — and the sequencer's in-order select phase
//! digitizes tiles in fixed tile order, so ranked top-k responses carry
//! the same bit-identity guarantee.
//!
//! ```
//! use spinamm_core::amm::{AmmConfig, AssociativeMemoryModule};
//! use spinamm_engine::{Deployment, EngineConfig, RecallEngine};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let patterns = vec![vec![31, 0, 31, 0], vec![0, 31, 0, 31]];
//! let module = AssociativeMemoryModule::build(&patterns, &AmmConfig::default())?;
//! let mut sequential = Deployment::Flat(module.clone());
//!
//! let engine = RecallEngine::new(
//!     Deployment::Flat(module),
//!     &EngineConfig::builder().workers(2).queue_capacity(8).build(),
//! );
//! let responses = engine.recall_many(&patterns)?;
//! for (input, response) in patterns.iter().zip(&responses) {
//!     assert_eq!(response, &sequential.recall(input)?);
//! }
//! engine.shutdown();
//! # Ok(())
//! # }
//! ```

use spinamm_core::amm::{AssociativeMemoryModule, QueryEvaluation, RecallResult};
use spinamm_core::capacity::{TiledAmm, TiledRecall};
use spinamm_core::hierarchy::{HierarchicalAmm, HierarchicalRecall};
use spinamm_core::partition::{PartitionedAmm, PartitionedRecall};
use spinamm_core::plan::{HierarchicalPlan, PartitionedPlan, PlanOptions, RecallPlan};
use spinamm_core::request::RecallRequest;
use spinamm_core::CoreError;
use spinamm_telemetry::{NoopRecorder, Recorder};
use spinamm_trace::{ReqHandle, TraceCtx, Tracer};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// The recorder type an engine shares across its threads.
pub type SharedRecorder = Arc<dyn Recorder + Send + Sync>;

/// One-stop imports for engine users: the engine types plus the core
/// deployment/request vocabulary they are constructed from.
///
/// ```
/// use spinamm_engine::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let patterns = vec![vec![31, 0, 31, 0], vec![0, 31, 0, 31]];
/// let module = AssociativeMemoryModule::build(&patterns, &AmmConfig::default())?;
/// let engine = RecallEngine::new(
///     Deployment::Flat(module),
///     &EngineConfig::builder().workers(2).build(),
/// );
/// assert_eq!(engine.recall_many(&patterns)?.len(), 2);
/// engine.shutdown();
/// # Ok(())
/// # }
/// ```
pub mod prelude {
    pub use crate::{
        Deployment, EngineConfig, EngineConfigBuilder, EngineError, EngineResponse, RecallEngine,
        SharedRecorder, Ticket,
    };
    pub use spinamm_core::amm::{AmmConfig, AssociativeMemoryModule, Fidelity};
    pub use spinamm_core::capacity::TiledAmm;
    pub use spinamm_core::hierarchy::HierarchicalAmm;
    pub use spinamm_core::partition::PartitionedAmm;
    pub use spinamm_core::request::RecallRequest;
    pub use spinamm_telemetry::{MemoryRecorder, NoopRecorder, Recorder};
}

type Req<'r> = RecallRequest<'r, SharedRecorder>;

/// What the engine serves: one of the core memory organizations.
#[derive(Debug, Clone)]
pub enum Deployment {
    /// A single associative memory module.
    Flat(AssociativeMemoryModule),
    /// Rows split across modular RCM banks (paper §5 partitioning).
    Partitioned(PartitionedAmm),
    /// Two-level clustered matching (paper §5 hierarchy).
    Hierarchical(HierarchicalAmm),
    /// The template set sharded across a pool of crossbar tiles with
    /// ranked top-k recall (the capacity layer).
    Tiled(TiledAmm),
}

impl Deployment {
    /// Input vector length this deployment expects.
    #[must_use]
    pub fn vector_len(&self) -> usize {
        match self {
            Deployment::Flat(m) => m.vector_len(),
            Deployment::Partitioned(p) => p.vector_len(),
            Deployment::Hierarchical(h) => h.vector_len(),
            Deployment::Tiled(t) => t.vector_len(),
        }
    }

    /// Sequential reference recall through the interpreted modules — the
    /// oracle every engine response is bit-identical to.
    ///
    /// # Errors
    ///
    /// Propagates the underlying recall errors.
    pub fn recall(&mut self, input: &[u32]) -> Result<EngineResponse, CoreError> {
        match self {
            Deployment::Flat(m) => m.recall(input).map(EngineResponse::Flat),
            Deployment::Partitioned(p) => p.recall(input).map(EngineResponse::Partitioned),
            Deployment::Hierarchical(h) => h.recall(input).map(EngineResponse::Hierarchical),
            Deployment::Tiled(t) => t.recall(input).map(EngineResponse::Tiled),
        }
    }
}

/// One served recognition, mirroring the deployment kind.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineResponse {
    /// Response from a flat module.
    Flat(RecallResult),
    /// Response from a partitioned memory.
    Partitioned(PartitionedRecall),
    /// Response from a hierarchical memory.
    Hierarchical(HierarchicalRecall),
    /// Ranked response from a tiled capacity pool.
    Tiled(TiledRecall),
}

impl EngineResponse {
    /// The winning pattern index (raw winner for flat modules).
    #[must_use]
    pub fn winner(&self) -> usize {
        match self {
            EngineResponse::Flat(r) => r.raw_winner,
            EngineResponse::Partitioned(r) => r.winner,
            EngineResponse::Hierarchical(r) => r.winner,
            EngineResponse::Tiled(r) => r.matches.first().map_or(0, |m| m.global_column),
        }
    }

    /// The winner's degree of match.
    #[must_use]
    pub fn dom(&self) -> u32 {
        match self {
            EngineResponse::Flat(r) => r.dom,
            EngineResponse::Partitioned(r) => r.dom,
            EngineResponse::Hierarchical(r) => r.dom,
            EngineResponse::Tiled(r) => r.dom,
        }
    }
}

/// Errors surfaced by the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// `try_submit` found the bounded queue at capacity.
    QueueFull,
    /// The engine shut down before this query could be answered.
    ShutDown,
    /// The underlying recall failed.
    Core(CoreError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::QueueFull => write!(f, "submission queue is full"),
            EngineError::ShutDown => write!(f, "engine shut down before answering"),
            EngineError::Core(e) => write!(f, "recall error: {e}"),
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for EngineError {
    fn from(e: CoreError) -> Self {
        EngineError::Core(e)
    }
}

/// Engine sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads for the RNG-free evaluation phase (minimum one).
    /// Results are worker-count independent.
    pub workers: usize,
    /// Bound of the external submission queue (minimum one). [`RecallEngine::submit`]
    /// blocks and [`RecallEngine::try_submit`] rejects once this many
    /// queries are waiting.
    pub queue_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            queue_capacity: 64,
        }
    }
}

impl EngineConfig {
    /// Starts a builder seeded with [`EngineConfig::default`] — the one
    /// construction surface shared by the server, bench harness and
    /// examples:
    ///
    /// ```
    /// use spinamm_engine::EngineConfig;
    ///
    /// let config = EngineConfig::builder()
    ///     .workers(2)
    ///     .queue_capacity(8)
    ///     .build();
    /// assert_eq!((config.workers, config.queue_capacity), (2, 8));
    /// ```
    #[must_use]
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            config: Self::default(),
        }
    }
}

/// Builder for [`EngineConfig`]; every knob defaults to
/// [`EngineConfig::default`].
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Worker threads for the RNG-free evaluation phase (minimum one,
    /// clamped at engine start).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Bound of the external submission queue.
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Ignored: compiled plans are the engine's only executor.
    #[deprecated(note = "compiled plans are the engine's only executor; this setting is ignored")]
    #[must_use]
    pub fn use_plans(self, _use_plans: bool) -> Self {
        self
    }

    /// Finishes the builder.
    #[must_use]
    pub fn build(self) -> EngineConfig {
        self.config
    }
}

/// A pending response handle returned by [`RecallEngine::submit`].
#[derive(Debug)]
pub struct Ticket {
    seq: u64,
    rx: mpsc::Receiver<Result<EngineResponse, EngineError>>,
}

impl Ticket {
    /// The query's submission sequence number (responses are selected in
    /// this order).
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Blocks until the engine answers this query.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ShutDown`] when the engine stopped before
    /// answering, or the query's own recall error.
    pub fn wait(self) -> Result<EngineResponse, EngineError> {
        match self.rx.recv() {
            Ok(response) => response,
            Err(_) => Err(EngineError::ShutDown),
        }
    }
}

/// A query travelling through the engine. Stage-B (member) jobs exist only
/// for hierarchical deployments, carry their original submission instant,
/// and ride the internal queue so they can never deadlock behind new
/// external submissions.
enum Stage {
    Primary(Arc<Vec<u32>>),
    Member {
        cluster: usize,
        input: Arc<Vec<u32>>,
    },
}

struct Job {
    seq: u64,
    stage: Stage,
    /// When the original query entered the engine (latency reference).
    submitted: Instant,
    /// When this job (re-)entered a queue — stage-B jobs get a fresh
    /// timestamp at dispatch, so queue-wait accounting stays per-hop.
    enqueued: Instant,
    trace: Option<ReqHandle>,
}

struct QueueState {
    external: VecDeque<Job>,
    internal: VecDeque<Job>,
    closed: bool,
    next_seq: u64,
}

struct Shared {
    state: Mutex<QueueState>,
    job_ready: Condvar,
    space_ready: Condvar,
    capacity: usize,
    tickets: Mutex<HashMap<u64, mpsc::Sender<Result<EngineResponse, EngineError>>>>,
    recorder: SharedRecorder,
    tracer: Option<Arc<Tracer>>,
}

impl Shared {
    /// The tracing context of one in-flight request, inert without a
    /// tracer.
    fn trace_ctx(&self, handle: Option<ReqHandle>) -> TraceCtx<'_> {
        match (&self.tracer, handle) {
            (Some(tracer), Some(h)) => TraceCtx::joined(tracer, h),
            _ => TraceCtx::NONE,
        }
    }
}

/// The executor of the RNG-free evaluate phase, compiled once at engine
/// start and cloned into every worker: the deployment's recall plans, or a
/// clone of a tiled pool, whose tiles carry their own compiled plans.
#[derive(Clone)]
enum Executor {
    Flat(RecallPlan),
    Partitioned(PartitionedPlan),
    Hierarchical(HierarchicalPlan),
    Tiled(TiledAmm),
}

impl Executor {
    fn compile(deployment: &Deployment, recorder: &SharedRecorder) -> Result<Self, CoreError> {
        let req = RecallRequest::recorded(recorder);
        let options = PlanOptions::default();
        Ok(match deployment {
            Deployment::Flat(m) => Executor::Flat(RecallPlan::compile_request(m, options, &req)?),
            Deployment::Partitioned(p) => {
                Executor::Partitioned(PartitionedPlan::compile(p, options)?)
            }
            Deployment::Hierarchical(h) => {
                Executor::Hierarchical(HierarchicalPlan::compile_request(h, options, &req)?)
            }
            Deployment::Tiled(t) => Executor::Tiled(t.clone()),
        })
    }

    /// Phase 1: RNG-free and order-independent.
    fn evaluate(&mut self, stage: &Stage, req: &Req<'_>) -> Result<Phase1, CoreError> {
        match (self, stage) {
            (Executor::Flat(p), Stage::Primary(input)) => {
                p.evaluate_query_request(input, req).map(Phase1::Flat)
            }
            (Executor::Partitioned(p), Stage::Primary(input)) => p
                .evaluate_query_request(input, req)
                .map(Phase1::Partitioned),
            (Executor::Tiled(t), Stage::Primary(input)) => {
                t.evaluate_query_request(input, req).map(Phase1::Tiled)
            }
            (Executor::Hierarchical(p), Stage::Primary(input)) => {
                p.evaluate_top_request(input, req).map(|eval| Phase1::Top {
                    eval,
                    input: Arc::clone(input),
                })
            }
            (Executor::Hierarchical(p), Stage::Member { cluster, input }) => p
                .evaluate_member_request(*cluster, input, req)
                .map(|eval| Phase1::Member { eval }),
            (_, Stage::Member { .. }) => Err(CoreError::InvalidParameter {
                what: "member-stage job on a non-hierarchical deployment",
            }),
        }
    }
}

/// A worker's phase-1 output: everything the sequencer needs to finish the
/// query without touching the crossbar again.
enum Phase1 {
    Flat(QueryEvaluation),
    Partitioned(Vec<QueryEvaluation>),
    Tiled(Vec<QueryEvaluation>),
    Top {
        eval: QueryEvaluation,
        input: Arc<Vec<u32>>,
    },
    Member {
        eval: QueryEvaluation,
    },
}

struct WorkerOut {
    seq: u64,
    submitted: Instant,
    trace: Option<ReqHandle>,
    phase1: Result<Phase1, CoreError>,
}

/// The long-lived recall service. See the crate docs for the execution
/// model and the bit-identity guarantee.
pub struct RecallEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    sequencer: Option<JoinHandle<Deployment>>,
}

impl RecallEngine {
    /// Starts an engine over `deployment` without telemetry.
    #[must_use]
    pub fn new(deployment: Deployment, config: &EngineConfig) -> Self {
        Self::with_recorder(deployment, config, Arc::new(NoopRecorder))
    }

    /// Starts an engine reporting `engine.*` telemetry into `recorder`:
    /// `engine.submitted` / `engine.rejected` / `engine.completed` /
    /// `engine.errors` counters, the `engine.queue_depth` gauge, the
    /// `engine.settle` (per-worker phase 1) and `engine.select`
    /// (sequencer phase 2) span timers, the `engine.latency_seconds`
    /// submit-to-response histogram (p50/p95 in the snapshot), and
    /// per-worker `engine.worker.<i>.jobs` / `.utilization` series.
    #[must_use]
    pub fn with_recorder(
        deployment: Deployment,
        config: &EngineConfig,
        recorder: SharedRecorder,
    ) -> Self {
        Self::with_observability(deployment, config, recorder, None)
    }

    /// Starts an engine with full observability: the recorder telemetry of
    /// [`RecallEngine::with_recorder`] plus, when `tracer` is given,
    /// per-request span trees. Each submission becomes one
    /// `"engine.recall"` request; its trace carries a `"queue_wait"` span
    /// per queue hop, an `"evaluate"` span per worker phase (with
    /// `worker`, and `cluster` for stage-B hops, as attributes) wrapping
    /// the core drive/settle/solve spans, and a `"select"` span for the
    /// sequencer's RNG phase. Tracing is observation-only: responses are
    /// bit-identical with or without it.
    #[must_use]
    pub fn with_observability(
        deployment: Deployment,
        config: &EngineConfig,
        recorder: SharedRecorder,
        tracer: Option<Arc<Tracer>>,
    ) -> Self {
        let worker_count = config.workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                external: VecDeque::new(),
                internal: VecDeque::new(),
                closed: false,
                next_seq: 0,
            }),
            job_ready: Condvar::new(),
            space_ready: Condvar::new(),
            capacity: config.queue_capacity.max(1),
            tickets: Mutex::new(HashMap::new()),
            recorder,
            tracer,
        });
        let (tx, rx) = mpsc::channel::<WorkerOut>();
        // One compile, cloned into each worker (the clones share the
        // canonically warmed solver sessions). A compile error is
        // answered per query.
        let executors = vec![Executor::compile(&deployment, &shared.recorder); worker_count];
        let workers = executors
            .into_iter()
            .enumerate()
            .map(|(idx, executor)| {
                let shared = Arc::clone(&shared);
                let tx = tx.clone();
                std::thread::spawn(move || worker_loop(idx, &shared, executor, &tx))
            })
            .collect();
        drop(tx);
        let sequencer = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || sequencer_loop(&shared, deployment, &rx))
        };
        Self {
            shared,
            workers,
            sequencer: Some(sequencer),
        }
    }

    /// Submits one query, blocking while the queue is at capacity.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ShutDown`] when the engine is stopping.
    pub fn submit(&self, input: &[u32]) -> Result<Ticket, EngineError> {
        self.submit_inner(input, true)
    }

    /// Submits one query without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::QueueFull`] when the queue is at capacity
    /// (counted as `engine.rejected`), or [`EngineError::ShutDown`] when
    /// the engine is stopping.
    pub fn try_submit(&self, input: &[u32]) -> Result<Ticket, EngineError> {
        self.submit_inner(input, false)
    }

    fn submit_inner(&self, input: &[u32], block: bool) -> Result<Ticket, EngineError> {
        let recorder = &self.shared.recorder;
        let mut state = self.shared.state.lock().expect("queue lock");
        while state.external.len() >= self.shared.capacity && !state.closed {
            if !block {
                recorder.counter("engine.rejected", 1);
                return Err(EngineError::QueueFull);
            }
            state = self.shared.space_ready.wait(state).expect("queue lock");
        }
        if state.closed {
            return Err(EngineError::ShutDown);
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        let (tx, rx) = mpsc::channel();
        self.shared
            .tickets
            .lock()
            .expect("ticket lock")
            .insert(seq, tx);
        let now = Instant::now();
        state.external.push_back(Job {
            seq,
            stage: Stage::Primary(Arc::new(input.to_vec())),
            submitted: now,
            enqueued: now,
            trace: self
                .shared
                .tracer
                .as_deref()
                .map(|t| t.begin("engine.recall")),
        });
        recorder.counter("engine.submitted", 1);
        recorder.gauge(
            "engine.queue_depth",
            (state.external.len() + state.internal.len()) as f64,
        );
        drop(state);
        self.shared.job_ready.notify_one();
        Ok(Ticket { seq, rx })
    }

    /// Submits a whole batch (blocking for queue space) and waits for all
    /// responses, in submission order.
    ///
    /// # Errors
    ///
    /// Returns the first failing query's error.
    pub fn recall_many<S: AsRef<[u32]>>(
        &self,
        inputs: &[S],
    ) -> Result<Vec<EngineResponse>, EngineError> {
        let tickets: Vec<Ticket> = inputs
            .iter()
            .map(|input| self.submit(input.as_ref()))
            .collect::<Result<_, _>>()?;
        tickets.into_iter().map(Ticket::wait).collect()
    }

    /// Stops the engine: queued queries finish, then the workers and the
    /// sequencer join. Hierarchical queries still waiting for their
    /// stage-B dispatch at close time may be abandoned with
    /// [`EngineError::ShutDown`]. Dropping the engine does the same.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Stops the engine like [`RecallEngine::shutdown`] and hands back the
    /// deployment the sequencer was serving — with all RNG and solver
    /// state exactly where the served traffic left it. This is how a
    /// lifetime maintenance window works: drain the engine, run background
    /// refresh on the recovered module, then start a new engine over it.
    ///
    /// # Panics
    ///
    /// Panics if the sequencer thread itself panicked (its deployment is
    /// unrecoverable in that case).
    #[must_use]
    pub fn into_deployment(mut self) -> Deployment {
        self.stop()
            .expect("sequencer runs until shutdown")
            .expect("sequencer thread panicked")
    }

    /// Closes the queues, joins the workers and then the sequencer, and
    /// returns the sequencer's join result (`None` once already stopped).
    fn stop(&mut self) -> Option<std::thread::Result<Deployment>> {
        {
            let mut state = self.shared.state.lock().expect("queue lock");
            state.closed = true;
        }
        self.shared.job_ready.notify_all();
        self.shared.space_ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let deployment = self.sequencer.take().map(JoinHandle::join);
        // Any ticket still registered can no longer be answered; dropping
        // its sender turns the owner's `wait` into `ShutDown`.
        self.shared.tickets.lock().expect("ticket lock").clear();
        deployment
    }
}

impl Drop for RecallEngine {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_loop(
    idx: usize,
    shared: &Shared,
    mut executor: Result<Executor, CoreError>,
    out: &mpsc::Sender<WorkerOut>,
) {
    let recorder = &shared.recorder;
    let req = RecallRequest::recorded(recorder);
    let jobs_metric = format!("engine.worker.{idx}.jobs");
    let utilization_metric = format!("engine.worker.{idx}.utilization");
    let started = Instant::now();
    let mut busy = 0.0f64;
    loop {
        let job = {
            let mut state = shared.state.lock().expect("queue lock");
            loop {
                // Internal (stage-B) jobs first: they unblock responses
                // that external submissions may be waiting behind.
                if let Some(job) = state.internal.pop_front() {
                    break Some(job);
                }
                if let Some(job) = state.external.pop_front() {
                    shared.space_ready.notify_one();
                    break Some(job);
                }
                if state.closed {
                    break None;
                }
                state = shared.job_ready.wait(state).expect("queue lock");
            }
        };
        let Some(job) = job else { return };
        let wait = job.enqueued.elapsed();
        if recorder.is_enabled() {
            recorder.observe("engine.queue_wait_ns", wait.as_secs_f64() * 1e9);
        }
        let ctx = shared.trace_ctx(job.trace);
        let traced_req;
        let req = if let (Some(tracer), Some(h)) = (&shared.tracer, job.trace) {
            ctx.span_at("queue_wait", job.enqueued, wait, &[("worker", idx as f64)]);
            traced_req = req.with_trace_handle(tracer, h);
            &traced_req
        } else {
            &req
        };
        let t0 = Instant::now();
        let phase1 = {
            let phase = ctx.phase(match &job.stage {
                Stage::Primary(_) => "evaluate",
                Stage::Member { .. } => "evaluate.member",
            });
            phase.attr("worker", idx as f64);
            if let Stage::Member { cluster, .. } = &job.stage {
                phase.attr("cluster", *cluster as f64);
            }
            match &mut executor {
                Ok(executor) => executor.evaluate(&job.stage, req),
                Err(e) => Err(e.clone()),
            }
        };
        if recorder.is_enabled() {
            let dt = t0.elapsed().as_secs_f64();
            busy += dt;
            recorder.record_span("engine.settle", dt);
            recorder.counter(&jobs_metric, 1);
            let total = started.elapsed().as_secs_f64();
            if total > 0.0 {
                recorder.gauge(&utilization_metric, busy / total);
            }
            let state = shared.state.lock().expect("queue lock");
            recorder.gauge(
                "engine.queue_depth",
                (state.external.len() + state.internal.len()) as f64,
            );
        }
        let sent = out.send(WorkerOut {
            seq: job.seq,
            submitted: job.submitted,
            trace: job.trace,
            phase1,
        });
        if sent.is_err() {
            // Sequencer gone: the engine is tearing down.
            return;
        }
    }
}

/// What the sequencer does with an in-order primary phase-1 result.
enum SelectOutcome {
    Done(Result<EngineResponse, EngineError>),
    MemberDispatch {
        cluster: usize,
        input: Arc<Vec<u32>>,
        top: RecallResult,
    },
}

/// Phase 2 on the master deployment: consumes the RNG exactly as a
/// sequential recall of this query would.
fn select_primary(master: &mut Deployment, phase1: Phase1, req: &Req<'_>) -> SelectOutcome {
    match (master, phase1) {
        (Deployment::Flat(m), Phase1::Flat(eval)) => SelectOutcome::Done(
            m.select_winner_request(eval, req)
                .map(EngineResponse::Flat)
                .map_err(EngineError::from),
        ),
        (Deployment::Partitioned(p), Phase1::Partitioned(evals)) => SelectOutcome::Done(
            p.select_winner_request(evals, req)
                .map(EngineResponse::Partitioned)
                .map_err(EngineError::from),
        ),
        (Deployment::Tiled(t), Phase1::Tiled(evals)) => SelectOutcome::Done(
            t.select_winner_request(evals, req)
                .map(EngineResponse::Tiled)
                .map_err(EngineError::from),
        ),
        (Deployment::Hierarchical(h), Phase1::Top { eval, input }) => {
            match h.select_top_request(eval, req) {
                Ok(top) => SelectOutcome::MemberDispatch {
                    cluster: top.raw_winner,
                    input,
                    top,
                },
                Err(e) => SelectOutcome::Done(Err(e.into())),
            }
        }
        _ => SelectOutcome::Done(Err(EngineError::Core(CoreError::InvalidParameter {
            what: "phase-1 result does not match the deployment",
        }))),
    }
}

fn respond(
    shared: &Shared,
    seq: u64,
    submitted: Instant,
    trace: Option<ReqHandle>,
    response: Result<EngineResponse, EngineError>,
) {
    let recorder = &shared.recorder;
    if recorder.is_enabled() {
        recorder.observe("engine.latency_seconds", submitted.elapsed().as_secs_f64());
        // Re-sample the depth gauge at completion: submissions and
        // dequeues alone leave it stuck at its high-water mark once the
        // queues drain.
        let state = shared.state.lock().expect("queue lock");
        recorder.gauge(
            "engine.queue_depth",
            (state.external.len() + state.internal.len()) as f64,
        );
    }
    recorder.counter(
        if response.is_ok() {
            "engine.completed"
        } else {
            "engine.errors"
        },
        1,
    );
    if let (Some(tracer), Some(h)) = (&shared.tracer, trace) {
        tracer.finish(h);
    }
    let tx = shared.tickets.lock().expect("ticket lock").remove(&seq);
    if let Some(tx) = tx {
        let _ = tx.send(response);
    }
}

fn sequencer_loop(
    shared: &Shared,
    mut master: Deployment,
    rx: &mpsc::Receiver<WorkerOut>,
) -> Deployment {
    let recorder = &shared.recorder;
    let req = RecallRequest::recorded(recorder);
    let cluster_count = match &master {
        Deployment::Hierarchical(h) => h.cluster_count(),
        _ => 0,
    };
    // Primary phase-1 results waiting for their submission-order turn.
    type Pending<T> = (Instant, Option<ReqHandle>, Result<T, CoreError>);
    let mut primary: BTreeMap<u64, Pending<Phase1>> = BTreeMap::new();
    let mut next_primary: u64 = 0;
    // Hierarchical stage-B bookkeeping: which cluster each dispatched seq
    // went to, its stage-A result, the per-cluster expected select order,
    // and member phase-1 results waiting for that order.
    let mut member_cluster: HashMap<u64, usize> = HashMap::new();
    let mut tops: HashMap<u64, RecallResult> = HashMap::new();
    let mut expected: Vec<VecDeque<u64>> = vec![VecDeque::new(); cluster_count];
    let mut members: HashMap<u64, Pending<QueryEvaluation>> = HashMap::new();

    while let Ok(msg) = rx.recv() {
        match msg.phase1 {
            Ok(Phase1::Member { eval }) => {
                members.insert(msg.seq, (msg.submitted, msg.trace, Ok(eval)));
            }
            Err(e) if member_cluster.contains_key(&msg.seq) => {
                members.insert(msg.seq, (msg.submitted, msg.trace, Err(e)));
            }
            other => {
                primary.insert(msg.seq, (msg.submitted, msg.trace, other));
            }
        }

        // Primary selections run strictly in submission order: stall until
        // the next expected sequence number has evaluated.
        while let Some((submitted, trace, result)) = primary.remove(&next_primary) {
            let seq = next_primary;
            next_primary += 1;
            match result {
                Err(e) => respond(shared, seq, submitted, trace, Err(EngineError::Core(e))),
                Ok(phase1) => {
                    let ctx = shared.trace_ctx(trace);
                    let traced_req;
                    let job_req = if let (Some(tracer), Some(h)) = (&shared.tracer, trace) {
                        traced_req = req.with_trace_handle(tracer, h);
                        &traced_req
                    } else {
                        &req
                    };
                    let t0 = recorder.is_enabled().then(Instant::now);
                    let outcome = {
                        let _select_phase = ctx.phase("select");
                        select_primary(&mut master, phase1, job_req)
                    };
                    if let Some(t0) = t0 {
                        recorder.record_span("engine.select", t0.elapsed().as_secs_f64());
                    }
                    match outcome {
                        SelectOutcome::Done(response) => {
                            respond(shared, seq, submitted, trace, response);
                        }
                        SelectOutcome::MemberDispatch {
                            cluster,
                            input,
                            top,
                        } => {
                            member_cluster.insert(seq, cluster);
                            tops.insert(seq, top);
                            expected[cluster].push_back(seq);
                            {
                                let mut state = shared.state.lock().expect("queue lock");
                                state.internal.push_back(Job {
                                    seq,
                                    stage: Stage::Member { cluster, input },
                                    submitted,
                                    enqueued: Instant::now(),
                                    trace,
                                });
                            }
                            shared.job_ready.notify_one();
                        }
                    }
                }
            }
        }

        // Member selections run in per-cluster submission order (each
        // cluster module owns its RNG, so clusters are independent).
        for (cluster, queue) in expected.iter_mut().enumerate() {
            while let Some(&seq) = queue.front() {
                let Some((submitted, trace, result)) = members.remove(&seq) else {
                    break;
                };
                queue.pop_front();
                member_cluster.remove(&seq);
                let top = tops
                    .remove(&seq)
                    .expect("stage-A result stored at dispatch");
                let response = match (&mut master, result) {
                    (Deployment::Hierarchical(h), Ok(eval)) => {
                        let ctx = shared.trace_ctx(trace);
                        let traced_req;
                        let job_req = if let (Some(tracer), Some(h)) = (&shared.tracer, trace) {
                            traced_req = req.with_trace_handle(tracer, h);
                            &traced_req
                        } else {
                            &req
                        };
                        let t0 = recorder.is_enabled().then(Instant::now);
                        let r = {
                            let select_phase = ctx.phase("select.member");
                            select_phase.attr("cluster", cluster as f64);
                            h.select_member_request(cluster, eval, &top, job_req)
                                .map(EngineResponse::Hierarchical)
                                .map_err(EngineError::from)
                        };
                        if let Some(t0) = t0 {
                            recorder.record_span("engine.select", t0.elapsed().as_secs_f64());
                        }
                        r
                    }
                    (_, Err(e)) => Err(EngineError::Core(e)),
                    (_, Ok(_)) => Err(EngineError::Core(CoreError::InvalidParameter {
                        what: "member-stage result on a non-hierarchical deployment",
                    })),
                };
                respond(shared, seq, submitted, trace, response);
            }
        }
    }
    master
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinamm_core::amm::AmmConfig;
    use spinamm_telemetry::MemoryRecorder;

    fn patterns() -> Vec<Vec<u32>> {
        vec![
            vec![31, 31, 31, 31, 0, 0, 0, 0, 0, 0, 0, 0],
            vec![0, 0, 0, 0, 31, 31, 31, 31, 0, 0, 0, 0],
            vec![0, 0, 0, 0, 0, 0, 0, 0, 31, 31, 31, 31],
        ]
    }

    fn flat_deployment() -> Deployment {
        Deployment::Flat(
            AssociativeMemoryModule::build(&patterns(), &AmmConfig::default()).unwrap(),
        )
    }

    #[test]
    fn engine_answers_match_sequential_reference() {
        let mut sequential = flat_deployment();
        let engine = RecallEngine::new(
            flat_deployment(),
            &EngineConfig::builder().workers(3).queue_capacity(2).build(),
        );
        let queries: Vec<Vec<u32>> = patterns().into_iter().cycle().take(9).collect();
        let got = engine.recall_many(&queries).unwrap();
        for (q, response) in queries.iter().zip(&got) {
            assert_eq!(response, &sequential.recall(q).unwrap());
        }
        engine.shutdown();
    }

    #[test]
    fn try_submit_reports_backpressure() {
        // Zero workers is clamped to one; a capacity-1 queue with slow
        // submission pressure must eventually reject.
        let engine = RecallEngine::new(
            flat_deployment(),
            &EngineConfig::builder().workers(1).queue_capacity(1).build(),
        );
        let input = patterns()[0].clone();
        let mut rejected = false;
        let mut tickets = Vec::new();
        for _ in 0..64 {
            match engine.try_submit(&input) {
                Ok(t) => tickets.push(t),
                Err(EngineError::QueueFull) => {
                    rejected = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(rejected, "capacity-1 queue never filled");
        for t in tickets {
            t.wait().unwrap();
        }
        engine.shutdown();
    }

    #[test]
    fn invalid_inputs_surface_as_core_errors() {
        let engine = RecallEngine::new(flat_deployment(), &EngineConfig::default());
        let err = engine.submit(&[0u32; 3]).unwrap().wait().unwrap_err();
        assert!(matches!(
            err,
            EngineError::Core(CoreError::InputLengthMismatch { .. })
        ));
        // A bad query consumes no RNG: the next good one still matches the
        // sequential reference.
        let mut sequential = flat_deployment();
        let good = engine.submit(&patterns()[1]).unwrap().wait().unwrap();
        assert_eq!(good, sequential.recall(&patterns()[1]).unwrap());
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let engine = RecallEngine::new(flat_deployment(), &EngineConfig::default());
        let input = patterns()[0].clone();
        engine.submit(&input).unwrap().wait().unwrap();
        // Close via an aliased handle is impossible (shutdown consumes),
        // so exercise Drop + a fresh engine's closed flag directly.
        let shared = Arc::clone(&engine.shared);
        engine.shutdown();
        assert!(shared.state.lock().unwrap().closed);
    }

    #[test]
    fn telemetry_counters_and_latency_flow() {
        let recorder = Arc::new(MemoryRecorder::default());
        let engine = RecallEngine::with_recorder(
            flat_deployment(),
            &EngineConfig::builder().workers(2).queue_capacity(4).build(),
            recorder.clone(),
        );
        let queries: Vec<Vec<u32>> = patterns().into_iter().cycle().take(6).collect();
        engine.recall_many(&queries).unwrap();
        engine.shutdown();
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("engine.submitted"), 6);
        assert_eq!(snap.counter("engine.completed"), 6);
        assert_eq!(
            snap.histogram_stats("engine.latency_seconds")
                .unwrap()
                .count,
            6
        );
        assert_eq!(snap.span_stats("engine.settle").unwrap().count, 6);
        assert_eq!(snap.span_stats("engine.select").unwrap().count, 6);
        let worker_jobs: u64 = (0..2)
            .map(|i| snap.counter(&format!("engine.worker.{i}.jobs")))
            .sum();
        assert_eq!(worker_jobs, 6);
    }

    #[test]
    fn tiled_engine_answers_match_sequential_reference() {
        let build = || {
            Deployment::Tiled(
                TiledAmm::build(&patterns(), 1, &AmmConfig::default())
                    .unwrap()
                    .with_top_k(2)
                    .unwrap(),
            )
        };
        let mut sequential = build();
        let engine = RecallEngine::new(
            build(),
            &EngineConfig::builder().workers(3).queue_capacity(2).build(),
        );
        let queries: Vec<Vec<u32>> = patterns().into_iter().cycle().take(9).collect();
        let got = engine.recall_many(&queries).unwrap();
        for (q, response) in queries.iter().zip(&got) {
            let want = sequential.recall(q).unwrap();
            assert_eq!(response, &want);
            let EngineResponse::Tiled(r) = response else {
                panic!("tiled deployment must answer with tiled responses");
            };
            assert_eq!(r.matches.len(), 2);
            assert_eq!(response.winner(), r.matches[0].global_column);
            assert_eq!(response.dom(), r.dom);
        }
        engine.shutdown();
    }

    #[test]
    fn hierarchical_engine_compiles_and_matches_sequential() {
        // Hierarchical deployments lower into compiled stage-A and member
        // plans; both stages must match sequential recall.
        let hier_patterns: Vec<Vec<u32>> = (0..6)
            .map(|p| {
                (0..12)
                    .map(|i| {
                        if i % 3 == p % 3 {
                            28
                        } else {
                            (i + p) as u32 % 6
                        }
                    })
                    .collect()
            })
            .collect();
        let build = || {
            Deployment::Hierarchical(
                HierarchicalAmm::build(&hier_patterns, 2, &AmmConfig::default()).unwrap(),
            )
        };
        let mut sequential = build();
        let engine = RecallEngine::new(
            build(),
            &EngineConfig::builder().workers(2).queue_capacity(4).build(),
        );
        let queries: Vec<Vec<u32>> = hier_patterns.iter().cloned().cycle().take(12).collect();
        for (q, response) in queries.iter().zip(engine.recall_many(&queries).unwrap()) {
            assert_eq!(response, sequential.recall(q).unwrap());
        }
        engine.shutdown();
    }

    #[test]
    fn engine_error_display_and_source() {
        assert!(EngineError::QueueFull.to_string().contains("full"));
        assert!(EngineError::ShutDown.to_string().contains("shut"));
        let core = EngineError::Core(CoreError::InvalidParameter { what: "x" });
        assert!(core.to_string().contains("x"));
        assert!(Error::source(&core).is_some());
        assert!(Error::source(&EngineError::QueueFull).is_none());
    }
}
