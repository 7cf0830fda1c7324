//! The daemon: bounded admission, deadline-checked workers, panic
//! isolation, graceful drain, warm restart.
//!
//! # Lifecycle of a request
//!
//! ```text
//! accept thread ──spawns──► connection thread (one per client)
//!                               │ read_frame  (typed errors, never panics)
//!                               │ decode      (BadRequest on structural lies)
//!                               │ admission   (draining? → ShuttingDown;
//!                               │              queue full? → Overloaded)
//!                               ▼
//!                        BoundedQueue ──pop──► worker (owns pipelines,
//!                               ▲              scratch, archive readers)
//!                               │ deadline at dequeue and between stages
//!                               │ panic? → WorkerPanic reply, worker replaced
//!                               ▼
//!                        response channel ──► connection thread ──► client
//! ```
//!
//! # Warm restart
//!
//! Every cold tune or retune publishes its [`PlanSnapshot`] to a shared
//! map; graceful shutdown writes the map (atomically, temp + rename) to
//! `plan_path`. A restarting daemon reads the file and primes each
//! freshly created pipeline, so the first repeat request after a
//! restart reports `WarmHit` and returns bytes identical to the cold
//! path — the cache never changes the format, only the time.

use crate::channel::{Channel, Endpoint, Listener};
use crate::protocol::{
    read_frame, write_frame, ErrorCode, FrameError, Request, Response, StatsSnapshot, MAX_PAYLOAD,
};
use qoz_api::{ApiError, BackendId, Pipeline, Session};
use qoz_archive::{ArchiveError, ArchiveReader, FileSource};
use qoz_codec::stream::ErrorBound;
use qoz_codec::{CodecError, Scratch};
use qoz_core::{PlanOutcome, PlanSnapshot};
use qoz_pario::pool::{wait_until, WorkerPool};
use qoz_tensor::{NdArray, Region, Scalar, Shape};
use std::collections::HashMap;
use std::io::Read;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// How the daemon listens, queues, and times out.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Where to listen.
    pub endpoint: Endpoint,
    /// Worker threads (each owns its own pipelines and arenas).
    pub workers: usize,
    /// Admission queue depth; requests beyond it are shed.
    pub queue_depth: usize,
    /// Deadline budget applied when a request says `budget_ms == 0`.
    pub default_budget: Duration,
    /// How long a graceful shutdown waits for in-flight work.
    pub drain_timeout: Duration,
    /// Request frames larger than this are rejected unread.
    pub max_frame: usize,
    /// Where tuned plans are persisted at shutdown / primed at startup.
    pub plan_path: Option<PathBuf>,
    /// Root under which `RegionRead` archive paths resolve. `None`
    /// disables region serving entirely (safe default: no config, no
    /// filesystem reach).
    pub archive_root: Option<PathBuf>,
    /// Artificial per-job service time — the test knob that makes
    /// overload and deadline behavior deterministic to provoke.
    pub worker_delay: Duration,
}

impl ServerConfig {
    /// Defaults tuned for a local daemon: 2 workers, shallow queue,
    /// 30 s default budget.
    pub fn new(endpoint: Endpoint) -> Self {
        ServerConfig {
            endpoint,
            workers: 2,
            queue_depth: 32,
            default_budget: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(10),
            max_frame: MAX_PAYLOAD,
            plan_path: None,
            archive_root: None,
            worker_delay: Duration::ZERO,
        }
    }
}

/// Request kinds in wire order; the `kind` label values of the
/// per-request metric families.
const KIND_NAMES: [&str; 7] = [
    "ping",
    "compress",
    "decompress",
    "region_read",
    "shutdown",
    "stats",
    "chaos_panic",
];

/// Plan-cache outcome label values, `qoz_plan_cache_total{outcome=…}`.
const PLAN_OUTCOME_NAMES: [&str; 4] = ["cold_tuned", "warm_hit", "warm_rescaled", "retuned"];

/// Resolved instruments for one request kind.
struct KindMetrics {
    requests: Arc<qoz_telemetry::Counter>,
    latency: Arc<qoz_telemetry::Histogram>,
    payload: Arc<qoz_telemetry::Histogram>,
}

/// Registry-backed daemon metrics.
///
/// Instruments live in a *per-server* [`qoz_telemetry::Registry`] — the
/// fault-injection suite runs several servers concurrently in one
/// process, so daemon counters must not be process globals. Every
/// hot-path handle is resolved once here; bumping a counter afterwards
/// is a single relaxed atomic add with no registry lock.
///
/// Every error reply the daemon generates — shed, deadline miss, bad
/// frame, bad request, worker panic, shutdown reject, codec/archive/api
/// mapper errors, internal timeouts — is tallied through one choke
/// point ([`Metrics::tally`]), so no reply site can forget its counter.
struct Metrics {
    registry: qoz_telemetry::Registry,
    /// Responses actually written back to a client (any outcome).
    responses: Arc<qoz_telemetry::Counter>,
    /// One dedicated counter per [`ErrorCode`], indexed `code as u8 - 1`.
    errors: [Arc<qoz_telemetry::Counter>; 10],
    /// Plan-cache outcomes, indexed per [`PLAN_OUTCOME_NAMES`].
    plan_outcomes: [Arc<qoz_telemetry::Counter>; 4],
    /// Per-request-kind instruments, indexed per [`KIND_NAMES`].
    kinds: [KindMetrics; 7],
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics")
            .field("responses", &self.responses.get())
            .finish()
    }
}

impl Metrics {
    fn new() -> Metrics {
        let registry = qoz_telemetry::Registry::new();
        let responses = registry.counter("qoz_responses_total", &[]);
        let errors =
            ErrorCode::ALL.map(|c| registry.counter("qoz_errors_total", &[("code", c.as_label())]));
        let plan_outcomes =
            PLAN_OUTCOME_NAMES.map(|o| registry.counter("qoz_plan_cache_total", &[("outcome", o)]));
        let kinds = KIND_NAMES.map(|k| KindMetrics {
            requests: registry.counter("qoz_requests_total", &[("kind", k)]),
            latency: registry.histogram(
                "qoz_request_latency_ns",
                &[("kind", k)],
                qoz_telemetry::LATENCY_BOUNDS_NS,
            ),
            payload: registry.histogram(
                "qoz_request_payload_bytes",
                &[("kind", k)],
                qoz_telemetry::SIZE_BOUNDS_BYTES,
            ),
        });
        Metrics {
            registry,
            responses,
            errors,
            plan_outcomes,
            kinds,
        }
    }

    fn error(&self, code: ErrorCode) -> &qoz_telemetry::Counter {
        &self.errors[code as u8 as usize - 1]
    }

    fn kind(&self, request: &Request) -> &KindMetrics {
        let idx = match request {
            Request::Ping => 0,
            Request::Compress { .. } => 1,
            Request::Decompress { .. } => 2,
            Request::RegionRead { .. } => 3,
            Request::Shutdown => 4,
            Request::Stats => 5,
            Request::ChaosPanic => 6,
        };
        &self.kinds[idx]
    }

    /// The single error-accounting choke point: called on every
    /// response the daemon is about to send, wherever it was built.
    fn tally(&self, resp: &Response) {
        if let Response::Error { code, .. } = resp {
            self.error(*code).inc();
        }
    }

    fn plan_outcome(&self, outcome: PlanOutcome) {
        let idx = match outcome {
            PlanOutcome::ColdTuned => 0,
            PlanOutcome::WarmHit => 1,
            PlanOutcome::WarmRescaled => 2,
            PlanOutcome::Retuned => 3,
        };
        self.plan_outcomes[idx].inc();
    }

    /// Legacy counters derived from the registry, plus the full
    /// telemetry extension: this server's instruments merged with the
    /// process-global layer metrics (pipeline outcomes, archive I/O,
    /// pool health) and the per-stage timers.
    fn snapshot(&self) -> StatsSnapshot {
        let mut telemetry = self.registry.snapshot();
        telemetry.merge(&qoz_telemetry::global().snapshot());
        telemetry.append_stages();
        StatsSnapshot {
            served: self.responses.get(),
            shed: self.error(ErrorCode::Overloaded).get(),
            deadline_missed: self.error(ErrorCode::DeadlineExceeded).get(),
            worker_panics: self.error(ErrorCode::WorkerPanic).get(),
            bad_frames: self.error(ErrorCode::BadFrame).get()
                + self.error(ErrorCode::BadRequest).get(),
            warm_hits: self.plan_outcomes[1].get() + self.plan_outcomes[2].get(),
            cold_tunes: self.plan_outcomes[0].get() + self.plan_outcomes[3].get(),
            shutdown_rejects: self.error(ErrorCode::ShuttingDown).get(),
            telemetry: Some(telemetry),
        }
    }
}

/// Hashable form of an [`ErrorBound`] (bit-exact: the cache key the
/// plan cache itself uses is bit-exact too).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BoundKey(u8, u64);

impl BoundKey {
    fn of(b: ErrorBound) -> BoundKey {
        match b {
            ErrorBound::Abs(v) => BoundKey(0, v.to_bits()),
            ErrorBound::Rel(v) => BoundKey(1, v.to_bits()),
        }
    }
}

/// One pipeline per (variable, scalar, bound): the granularity at which
/// scratch arenas and plan caches stay warm.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PipeKey {
    name: String,
    scalar_tag: u8,
    bound: BoundKey,
}

/// Plans persist at the plan-cache key granularity (shape, scalar,
/// bound) — the variable name only selects the pipeline, not the plan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    dims: Vec<usize>,
    scalar_tag: u8,
    bound: BoundKey,
}

impl PlanKey {
    fn of_snapshot(s: &PlanSnapshot) -> PlanKey {
        PlanKey {
            dims: s.shape.dims().to_vec(),
            scalar_tag: s.scalar_tag,
            bound: BoundKey::of(s.bound),
        }
    }
}

struct Job {
    request: Request,
    deadline: Instant,
    resp: mpsc::Sender<Response>,
}

struct Shared {
    config: ServerConfig,
    metrics: Metrics,
    /// Set by a `Shutdown` request or [`Server::begin_shutdown`]: new
    /// work is rejected, in-flight work drains.
    draining: AtomicBool,
    /// Set by [`Server::shutdown`]: accept/connection threads exit.
    stop: AtomicBool,
    /// Requests admitted to the queue whose response has not yet been
    /// relayed — the drain condition.
    pending: AtomicU64,
    plans: Mutex<HashMap<PlanKey, PlanSnapshot>>,
}

/// A running daemon. Dropping the handle does **not** stop the server;
/// call [`Server::shutdown`] for a graceful exit.
pub struct Server {
    shared: Arc<Shared>,
    pool: WorkerPool<Job>,
    accept: Option<std::thread::JoinHandle<()>>,
    endpoint: Endpoint,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("endpoint", &self.endpoint)
            .field("draining", &self.is_draining())
            .finish()
    }
}

impl Server {
    /// Bind, prime plans from disk, spawn workers and the accept loop.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let listener = Listener::bind(&config.endpoint)?;
        let endpoint = listener.local_endpoint();
        let shared = Arc::new(Shared {
            metrics: Metrics::new(),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            pending: AtomicU64::new(0),
            plans: Mutex::new(load_plans(config.plan_path.as_deref())),
            config,
        });
        let pool = {
            let shared = Arc::clone(&shared);
            WorkerPool::new(
                shared.config.workers.max(1),
                shared.config.queue_depth.max(1),
                move || {
                    let shared = Arc::clone(&shared);
                    let mut state = WorkerState::default();
                    move |job: Job| state.run(&shared, job)
                },
            )
        };
        let accept = {
            let shared = Arc::clone(&shared);
            let queue = pool.queue();
            std::thread::spawn(move || accept_loop(listener, shared, queue))
        };
        Ok(Server {
            shared,
            pool,
            accept: Some(accept),
            endpoint,
        })
    }

    /// The endpoint actually bound (resolves `tcp:…:0`).
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }

    /// Current counters (legacy fields plus the full telemetry
    /// extension — see [`StatsSnapshot`]).
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Prometheus-style text exposition of this server's merged
    /// telemetry (per-instance instruments + process-global layer
    /// metrics + per-stage timers). The daemon binary dumps this at
    /// drain; `qoz remote stats --text` renders the same snapshot
    /// client-side from the wire extension.
    pub fn metrics_text(&self) -> String {
        self.shared
            .metrics
            .snapshot()
            .telemetry
            .unwrap_or_default()
            .render_text()
    }

    /// `true` once a shutdown has been requested (by request or signal).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Ask the daemon to drain: new requests are rejected with
    /// `ShuttingDown`, in-flight requests finish. Idempotent; the
    /// process-level signal handler calls this.
    pub fn begin_shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Block until draining has been requested (returns `false` on
    /// timeout). The daemon main loop parks here.
    pub fn wait_until_draining(&self, timeout: Duration) -> bool {
        wait_until(timeout, || self.is_draining())
    }

    /// Graceful shutdown: drain in-flight work (bounded by
    /// `drain_timeout`), stop the workers and the accept loop, persist
    /// tuned plans. Returns the number of plans written.
    pub fn shutdown(mut self) -> std::io::Result<usize> {
        self.begin_shutdown();
        let shared = Arc::clone(&self.shared);
        let queue = self.pool.queue();
        // In-flight = admitted but unanswered. Draining is best-effort:
        // a wedged client cannot hold the daemon hostage past the
        // timeout.
        wait_until(shared.config.drain_timeout, || {
            shared.pending.load(Ordering::SeqCst) == 0 && queue.is_empty()
        });
        shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.pool.shutdown();
        let plans: Vec<PlanSnapshot> = {
            let map = shared.plans.lock().expect("plan map lock poisoned");
            map.values().cloned().collect()
        };
        if let Some(path) = &shared.config.plan_path {
            persist_plans(path, &plans)?;
        }
        Ok(plans.len())
    }
}

fn load_plans(path: Option<&std::path::Path>) -> HashMap<PlanKey, PlanSnapshot> {
    let mut map = HashMap::new();
    let Some(path) = path else {
        return map;
    };
    let Ok(bytes) = std::fs::read(path) else {
        return map; // no file yet: cold start
    };
    // A damaged plan file must never stop the daemon — plans are an
    // optimization, so corruption just means a cold start.
    if let Ok(snaps) = qoz_core::decode_snapshots(&bytes) {
        for snap in snaps {
            map.insert(PlanKey::of_snapshot(&snap), snap);
        }
    }
    map
}

/// Write the plan file atomically: a crash mid-write leaves the old
/// file (or none), never a torn one.
fn persist_plans(path: &std::path::Path, plans: &[PlanSnapshot]) -> std::io::Result<()> {
    let bytes = qoz_core::encode_snapshots(plans);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, path)
}

// ---------------------------------------------------------------------------
// Accept + connection threads
// ---------------------------------------------------------------------------

fn accept_loop(listener: Listener, shared: Arc<Shared>, queue: Arc<qoz_pario::BoundedQueue<Job>>) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(Some(chan)) => {
                let shared = Arc::clone(&shared);
                let queue = Arc::clone(&queue);
                // Connection threads are detached: they exit on
                // disconnect or when `stop` is set (the idle read
                // timeout below guarantees they observe it).
                std::thread::spawn(move || connection_loop(chan, shared, queue));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Poll interval at which an idle connection re-checks the stop flag.
const IDLE_POLL: Duration = Duration::from_millis(50);
/// Once a frame has started arriving, how long until we give up on it.
const FRAME_IO_TIMEOUT: Duration = Duration::from_secs(10);

/// `Read` adapter that replays one already-consumed byte before the
/// stream — lets the idle poll read a single byte cheaply and still
/// hand `read_frame` the full stream.
struct Replay1<'a> {
    first: Option<u8>,
    inner: &'a mut dyn Read,
}

impl Read for Replay1<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let Some(b) = self.first.take() {
            if buf.is_empty() {
                self.first = Some(b);
                return Ok(0);
            }
            buf[0] = b;
            return Ok(1);
        }
        self.inner.read(buf)
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn connection_loop(
    mut chan: Box<dyn Channel>,
    shared: Arc<Shared>,
    queue: Arc<qoz_pario::BoundedQueue<Job>>,
) {
    // A stalled client may never drain our response: bound the write.
    let _ = chan.set_write_timeout(Some(FRAME_IO_TIMEOUT));
    loop {
        // Idle phase: wait for the first byte with a short timeout so
        // the thread observes `stop` promptly and a byte-at-a-time
        // trickler cannot desync us (no partial multi-byte reads here).
        let _ = chan.set_read_timeout(Some(IDLE_POLL));
        let mut first = [0u8; 1];
        let n = match chan.read(&mut first) {
            Ok(0) => return, // peer closed
            Ok(n) => n,
            Err(e) if is_timeout(&e) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        debug_assert_eq!(n, 1);
        // Frame phase: the rest of the frame gets a generous but finite
        // window.
        let _ = chan.set_read_timeout(Some(FRAME_IO_TIMEOUT));
        let mut replay = Replay1 {
            first: Some(first[0]),
            inner: &mut chan,
        };
        let (kind_byte, payload) = match read_frame(&mut replay, shared.config.max_frame) {
            Ok(fr) => fr,
            Err(FrameError::Io(_)) => return, // torn frame / disconnect
            Err(typed) => {
                // The stream is desynced past this point, so answer the
                // typed error and drop the connection — but the daemon
                // itself stays up.
                respond(
                    &mut chan,
                    &shared,
                    Response::Error {
                        code: ErrorCode::BadFrame,
                        message: typed.to_string(),
                    },
                );
                return;
            }
        };
        let request = match Request::decode(kind_byte, &payload) {
            Ok(req) => req,
            Err(e) => {
                // Frame boundaries are intact — the connection can keep
                // going after a structurally-bad request.
                if !respond(
                    &mut chan,
                    &shared,
                    Response::Error {
                        code: ErrorCode::BadRequest,
                        message: e.to_string(),
                    },
                ) {
                    return;
                }
                continue;
            }
        };
        // Per-kind accounting: the request is structurally sound from
        // here on, so it gets a kind label, a payload-size observation,
        // and a latency observation once its response is ready.
        let kind_metrics = shared.metrics.kind(&request);
        kind_metrics.requests.inc();
        kind_metrics.payload.observe(payload.len() as u64);
        let arrived = Instant::now();
        let resp = match request {
            // Control-plane requests bypass the queue: they must work
            // precisely when the data plane is saturated.
            Request::Ping => Response::Pong,
            Request::Stats => Response::Stats(shared.metrics.snapshot()),
            Request::Shutdown => {
                shared.draining.store(true, Ordering::SeqCst);
                Response::ShutdownOk
            }
            work => admit(work, &shared, &queue),
        };
        kind_metrics
            .latency
            .observe(arrived.elapsed().as_nanos() as u64);
        let keep_going = respond(&mut chan, &shared, resp);
        if !keep_going || shared.stop.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Admission control: draining and overload are decided *here*, before
/// any memory or worker time is spent on the request.
fn admit(request: Request, shared: &Shared, queue: &qoz_pario::BoundedQueue<Job>) -> Response {
    if shared.draining.load(Ordering::SeqCst) {
        return Response::Error {
            code: ErrorCode::ShuttingDown,
            message: "server is draining".into(),
        };
    }
    let budget_ms = match &request {
        Request::Compress { budget_ms, .. }
        | Request::Decompress { budget_ms, .. }
        | Request::RegionRead { budget_ms, .. } => *budget_ms,
        _ => 0,
    };
    let budget = if budget_ms == 0 {
        shared.config.default_budget
    } else {
        Duration::from_millis(budget_ms)
    };
    let deadline = Instant::now() + budget;
    let (tx, rx) = mpsc::channel();
    let job = Job {
        request,
        deadline,
        resp: tx,
    };
    if queue.try_push(job).is_err() {
        return Response::Error {
            code: ErrorCode::Overloaded,
            message: "admission queue full".into(),
        };
    }
    shared.pending.fetch_add(1, Ordering::SeqCst);
    // Workers always answer (panics included), so the extra margin only
    // matters if a worker wedges without panicking.
    let resp = rx
        .recv_timeout(budget + Duration::from_secs(30))
        .unwrap_or_else(|_| Response::Error {
            code: ErrorCode::Internal,
            message: "worker response channel timed out".into(),
        });
    shared.pending.fetch_sub(1, Ordering::SeqCst);
    resp
}

/// Write a response frame; `false` means the client is gone. Error
/// responses are tallied here whether or not the write lands — the
/// daemon generated the failure either way.
fn respond(chan: &mut Box<dyn Channel>, shared: &Shared, resp: Response) -> bool {
    shared.metrics.tally(&resp);
    let ok = write_frame(chan, resp.kind(), &resp.encode()).is_ok();
    if ok {
        shared.metrics.responses.inc();
    }
    ok
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

/// Everything a worker owns privately: warm pipelines per (variable,
/// scalar, bound), typed scratch arenas, and open archive readers.
/// Rebuilt from scratch when a panic replaces the worker.
#[derive(Default)]
struct WorkerState {
    pipes_f32: HashMap<PipeKey, Pipeline<f32>>,
    pipes_f64: HashMap<PipeKey, Pipeline<f64>>,
    scratch_f32: Scratch<f32>,
    scratch_f64: Scratch<f64>,
    readers: HashMap<PathBuf, ArchiveReader<FileSource>>,
}

impl WorkerState {
    fn run(&mut self, shared: &Shared, job: Job) {
        if !shared.config.worker_delay.is_zero() {
            std::thread::sleep(shared.config.worker_delay);
        }
        let Job {
            request,
            deadline,
            resp,
        } = job;
        // Deadline at dequeue: a request that waited out its budget in
        // the queue is dropped for pennies instead of served for
        // dollars.
        if Instant::now() > deadline {
            let _ = resp.send(deadline_response());
            return;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| self.serve(shared, request, deadline)));
        match outcome {
            Ok(response) => {
                let _ = resp.send(response);
            }
            Err(payload) => {
                // Answer first, then let the panic continue so the pool
                // replaces this worker (its state may be mid-mutation).
                let _ = resp.send(Response::Error {
                    code: ErrorCode::WorkerPanic,
                    message: "worker panicked serving this request; worker replaced".into(),
                });
                resume_unwind(payload);
            }
        }
    }

    fn serve(&mut self, shared: &Shared, request: Request, deadline: Instant) -> Response {
        match request {
            Request::Compress {
                name,
                scalar_tag,
                dims,
                bound,
                raw,
                ..
            } => {
                if scalar_tag == f32::TYPE_TAG {
                    serve_compress(
                        &mut self.pipes_f32,
                        shared,
                        name,
                        dims,
                        bound,
                        raw,
                        deadline,
                    )
                } else {
                    serve_compress(
                        &mut self.pipes_f64,
                        shared,
                        name,
                        dims,
                        bound,
                        raw,
                        deadline,
                    )
                }
            }
            Request::Decompress { blob, .. } => self.serve_decompress(&blob, deadline),
            Request::RegionRead {
                archive,
                var,
                origin,
                size,
                tolerant,
                ..
            } => self.serve_region(shared, &archive, &var, &origin, &size, tolerant, deadline),
            Request::ChaosPanic => chaos_panic_response(),
            // Control-plane kinds never reach the queue.
            Request::Ping | Request::Stats | Request::Shutdown => Response::Error {
                code: ErrorCode::Internal,
                message: "control request routed to a worker".into(),
            },
        }
    }

    fn serve_decompress(&mut self, blob: &[u8], deadline: Instant) -> Response {
        let header = match qoz_api::peek_header(blob) {
            Ok(h) => h,
            Err(e) => return error_from_codec(&e),
        };
        if header.scalar_tag == f32::TYPE_TAG {
            decompress_as::<f32>(&mut self.scratch_f32, blob, deadline)
        } else if header.scalar_tag == f64::TYPE_TAG {
            decompress_as::<f64>(&mut self.scratch_f64, blob, deadline)
        } else {
            Response::Error {
                code: ErrorCode::CorruptInput,
                message: "stream header carries an unknown scalar tag".into(),
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn serve_region(
        &mut self,
        shared: &Shared,
        archive: &str,
        var: &str,
        origin: &[usize],
        size: &[usize],
        tolerant: bool,
        deadline: Instant,
    ) -> Response {
        let Some(root) = &shared.config.archive_root else {
            return Response::Error {
                code: ErrorCode::BadRequest,
                message: "this server has no --archive-root; region reads are disabled".into(),
            };
        };
        // Containment: requests name archives *relative to the root*;
        // absolute paths and any `..` component are rejected before
        // touching the filesystem.
        let rel = std::path::Path::new(archive);
        if rel.is_absolute()
            || rel
                .components()
                .any(|c| matches!(c, std::path::Component::ParentDir))
        {
            return Response::Error {
                code: ErrorCode::BadRequest,
                message: "archive path must be relative to the archive root, without '..'".into(),
            };
        }
        let path = root.join(rel);
        if !self.readers.contains_key(&path) {
            let reader = match ArchiveReader::open(&path.to_string_lossy()) {
                Ok(r) => r,
                Err(e) => return error_from_archive(&e),
            };
            self.readers.insert(path.clone(), reader);
        }
        let reader = &self.readers[&path];
        let entry = reader
            .toc()
            .vars
            .iter()
            .find(|v| v.name == var)
            .map(|v| v.scalar_tag);
        let Some(tag) = entry else {
            return Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("archive has no variable '{var}'"),
            };
        };
        let region = Region::new(origin, size);
        if tag == f32::TYPE_TAG {
            region_as::<f32>(
                reader,
                &mut self.scratch_f32,
                var,
                &region,
                tolerant,
                deadline,
            )
        } else {
            region_as::<f64>(
                reader,
                &mut self.scratch_f64,
                var,
                &region,
                tolerant,
                deadline,
            )
        }
    }
}

fn serve_compress<T: Scalar>(
    pipes: &mut HashMap<PipeKey, Pipeline<T>>,
    shared: &Shared,
    name: String,
    dims: Vec<usize>,
    bound: ErrorBound,
    raw: Vec<u8>,
    deadline: Instant,
) -> Response {
    let key = PipeKey {
        name,
        scalar_tag: T::TYPE_TAG,
        bound: BoundKey::of(bound),
    };
    if !pipes.contains_key(&key) {
        let session = match Session::builder()
            .backend(BackendId::Qoz)
            .bound(bound)
            .build()
        {
            Ok(s) => s,
            Err(e) => return error_from_api(&e),
        };
        let mut pipe = session.pipeline::<T>();
        // Warm restart: a persisted plan for this exact (shape, scalar,
        // bound) key lets the very first call replay warm.
        let plan_key = PlanKey {
            dims: dims.clone(),
            scalar_tag: T::TYPE_TAG,
            bound: BoundKey::of(bound),
        };
        if let Some(snap) = shared
            .plans
            .lock()
            .expect("plan map lock poisoned")
            .get(&plan_key)
        {
            pipe.prime_plan(snap.clone());
        }
        pipes.insert(key.clone(), pipe);
    }
    let pipe = pipes.get_mut(&key).expect("pipeline just inserted");
    let data = NdArray::from_le_bytes(Shape::new(&dims), &raw)
        .expect("Request::decode checked the byte count against the shape");
    let out = match pipe.compress(&data) {
        Ok(o) => o,
        Err(e) => return error_from_api(&e),
    };
    // Stage boundary: tuning + compression are done; don't ship bytes
    // the client has already given up on.
    if Instant::now() > deadline {
        return deadline_response();
    }
    let outcome_byte = match pipe.last_outcome() {
        None => 0,
        Some(PlanOutcome::ColdTuned) => 1,
        Some(PlanOutcome::WarmHit) => 2,
        Some(PlanOutcome::WarmRescaled) => 3,
        Some(PlanOutcome::Retuned) => 4,
    };
    if let Some(outcome) = pipe.last_outcome() {
        shared.metrics.plan_outcome(outcome);
        if matches!(outcome, PlanOutcome::ColdTuned | PlanOutcome::Retuned) {
            // Publish the fresh plan so (a) sibling workers prime their
            // next pipeline from it and (b) shutdown persists it.
            if let Some(snap) = pipe.plan_snapshot() {
                shared
                    .plans
                    .lock()
                    .expect("plan map lock poisoned")
                    .insert(PlanKey::of_snapshot(&snap), snap);
            }
        }
    }
    Response::Compressed {
        outcome: outcome_byte,
        blob: out.blob,
    }
}

fn decompress_as<T: Scalar>(scratch: &mut Scratch<T>, blob: &[u8], deadline: Instant) -> Response {
    // The decoder grows `out` only once the payload agrees with the
    // shape its header declares; preallocating from the header would let
    // one crafted request size the allocation.
    let mut out = NdArray::<T>::zeros(Shape::d1(1));
    if let Err(e) = qoz_api::BackendRegistry::new().decompress_into(blob, scratch, &mut out) {
        return error_from_codec(&e);
    }
    if Instant::now() > deadline {
        return deadline_response();
    }
    Response::Decompressed {
        scalar_tag: T::TYPE_TAG,
        dims: out.shape().dims().to_vec(),
        raw: out.to_le_bytes(),
    }
}

fn region_as<T: Scalar>(
    reader: &ArchiveReader<FileSource>,
    scratch: &mut Scratch<T>,
    var: &str,
    region: &Region,
    tolerant: bool,
    deadline: Instant,
) -> Response {
    let (slab, faults) = if tolerant {
        match reader.read_region_tolerant::<T>(var, region, scratch) {
            Ok((slab, faults)) => (slab, faults.len() as u64),
            Err(e) => return error_from_archive(&e),
        }
    } else {
        match reader.read_region_with::<T>(var, region, scratch) {
            Ok(slab) => (slab, 0),
            Err(e) => return error_from_archive(&e),
        }
    };
    if Instant::now() > deadline {
        return deadline_response();
    }
    Response::Region {
        scalar_tag: T::TYPE_TAG,
        dims: slab.shape().dims().to_vec(),
        faults,
        raw: slab.to_le_bytes(),
    }
}

/// Chaos builds honor the request by panicking inside the worker — the
/// whole point is to exercise the panic-isolation path end to end.
#[cfg(feature = "chaos")]
fn chaos_panic_response() -> Response {
    panic!("chaos: panic requested by client")
}

#[cfg(not(feature = "chaos"))]
fn chaos_panic_response() -> Response {
    Response::Error {
        code: ErrorCode::BadRequest,
        message: "this server was built without the chaos feature".into(),
    }
}

fn deadline_response() -> Response {
    Response::Error {
        code: ErrorCode::DeadlineExceeded,
        message: "request deadline expired before completion".into(),
    }
}

fn error_from_codec(e: &CodecError) -> Response {
    let code = if e.is_newer_format() {
        ErrorCode::NewerFormat
    } else {
        match e {
            CodecError::Io(_) => ErrorCode::Io,
            _ => ErrorCode::CorruptInput,
        }
    };
    Response::Error {
        code,
        message: e.to_string(),
    }
}

fn error_from_archive(e: &ArchiveError) -> Response {
    let code = if e.is_newer_format() {
        ErrorCode::NewerFormat
    } else {
        match e {
            ArchiveError::Io(_) => ErrorCode::Io,
            ArchiveError::UnknownVariable(_)
            | ArchiveError::DuplicateVariable(_)
            | ArchiveError::RegionOutOfBounds => ErrorCode::BadRequest,
            _ => ErrorCode::CorruptInput,
        }
    };
    Response::Error {
        code,
        message: e.to_string(),
    }
}

fn error_from_api(e: &ApiError) -> Response {
    let code = match e {
        ApiError::Codec(c) if c.is_newer_format() => ErrorCode::NewerFormat,
        ApiError::Codec(CodecError::Io(_)) => ErrorCode::Io,
        ApiError::Codec(_) => ErrorCode::CorruptInput,
        _ => ErrorCode::BadRequest,
    };
    Response::Error {
        code,
        message: e.to_string(),
    }
}
