//! The TCP server: accept loop, per-connection handlers, per-tenant
//! services with admission control, and graceful drain.
//!
//! ## How the listener maps onto the `SignService`/`Executor` stack
//!
//! Every *tenant* gets its own [`SignService`] (own bounded queue, own
//! micro-batcher thread) started lazily on the tenant's first request.
//! All services share one engine per parameter set — and all engines
//! share one persistent [`hero_task_graph::Executor`] worker
//! pool — so coalesced batches from different tenants interleave on the
//! same workers the way streams share a device. Fairness falls out of
//! the layering:
//!
//! * **isolation** — a hot tenant fills *its own* bounded queue and is
//!   rejected with [`ErrorCode::QueueFull`]; other tenants' queues are
//!   untouched;
//! * **admission control** — a per-tenant in-flight cap
//!   ([`ServerConfig::per_tenant_inflight`]) bounds how many of a
//!   tenant's requests may be queued or signing at once, answered with
//!   [`ErrorCode::TenantBusy`] past the cap;
//! * **fair dequeueing** — the shared executor's submission-aware ready
//!   queue interleaves whole batches from different tenants' batchers,
//!   so no tenant's stage graphs monopolize the workers.
//!
//! ## Graceful drain
//!
//! [`Server::shutdown`] closes the *listener first* (no new
//! connections), then read-shuts every open connection: a handler
//! blocked between frames sees EOF and exits; a handler mid-request
//! finishes signing and writes its response before noticing. Finally
//! every tenant service drains its accepted queue. The invariant —
//! every accepted request is answered exactly once — is the
//! service-layer drain guarantee extended over the wire.

use crate::error::{ErrorCode, WireError};
use crate::keyfile;
use crate::keystore::{KeyStore, ShardedMap, TenantKey};
use crate::metrics::{Metrics, TenantCounters, TenantRow};
use crate::wire::{self, Frame, Op, Request, Response, DEFAULT_MAX_FRAME};

use hero_gpu_sim::device::rtx_4090;
use hero_sign::service::{ServiceConfig, SignService};
use hero_sign::{CacheStats, HeroError, HeroSigner, Signer, VerifyOutcome};
use hero_sphincs::params::Params;
use hero_task_graph::Executor;

use rand::rngs::StdRng;
use rand::SeedableRng;

use std::fmt;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a persistent `accept()` failure (e.g. fd exhaustion) backs
/// off before retrying, instead of busy-spinning the accept thread.
const ACCEPT_RETRY_DELAY: Duration = Duration::from_millis(50);

/// How long [`Server::shutdown`] waits for in-flight responses to be
/// written before force-closing the write halves of straggler
/// connections (a peer that never reads must not hang the drain).
const DRAIN_WRITE_GRACE: Duration = Duration::from_secs(5);

/// Write timeout on metrics connections: the page is one small write, so
/// a stalled scraper fails fast instead of wedging the metrics thread.
const METRICS_WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Builds (or reuses) a signing backend for a parameter set. The server
/// is multi-tenant across parameter sets, so engines are created on
/// demand, one per distinct [`Params`] among the loaded keys.
pub type SignerFactory =
    dyn Fn(Params) -> Result<Arc<dyn Signer + Send + Sync>, HeroError> + Send + Sync;

/// A [`SignerFactory`] building [`HeroSigner`] engines, all sharing one
/// persistent worker pool (`workers` threads; `None` = the
/// `HERO_WORKERS`-aware default).
///
/// # Errors
///
/// [`HeroError::InvalidOptions`] for zero workers.
pub fn hero_engine_factory(workers: Option<usize>) -> Result<Arc<SignerFactory>, HeroError> {
    let runtime = match workers {
        Some(w) => Arc::new(
            Executor::new(w)
                .map_err(|_| HeroError::InvalidOptions("workers must be >= 1".to_string()))?,
        ),
        None => Arc::clone(hero_sign::par::shared_executor()),
    };
    Ok(Arc::new(move |params: Params| {
        let engine = HeroSigner::builder(rtx_4090(), params)
            .runtime(Arc::clone(&runtime))
            .build()?;
        Ok(Arc::new(engine) as Arc<dyn Signer + Send + Sync>)
    }))
}

/// Server knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address for the request listener (`127.0.0.1:0` = any free
    /// port; read the bound address from [`Server::local_addr`]).
    pub addr: String,
    /// Bind address for the plaintext metrics listener; `None` disables
    /// it (the [`Op::Stats`] op still serves the same page in-protocol).
    pub metrics_addr: Option<String>,
    /// Largest accepted frame body; larger declared lengths are
    /// discarded and answered with [`ErrorCode::OversizedFrame`].
    pub max_frame: u32,
    /// Per-tenant micro-batcher configuration.
    pub service: ServiceConfig,
    /// Per-tenant admission cap: requests admitted (queued or signing)
    /// at once before [`ErrorCode::TenantBusy`].
    pub per_tenant_inflight: usize,
    /// Latency samples the metrics reservoir keeps.
    pub latency_window: usize,
    /// Where `keygen` persists new tenant key files (`<tenant>.key`);
    /// `None` keeps generated keys in memory only.
    pub keys_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            metrics_addr: None,
            max_frame: DEFAULT_MAX_FRAME,
            service: ServiceConfig::default(),
            per_tenant_inflight: 256,
            latency_window: 4096,
            keys_dir: None,
        }
    }
}

impl ServerConfig {
    /// Checks the configuration for unusable values.
    ///
    /// # Errors
    ///
    /// [`HeroError::InvalidOptions`] naming the offending field.
    pub fn validate(&self) -> Result<(), HeroError> {
        self.service.validate()?;
        if self.per_tenant_inflight == 0 {
            return Err(HeroError::InvalidOptions(
                "per_tenant_inflight must be >= 1".to_string(),
            ));
        }
        if self.max_frame < wire::REQUEST_HEADER_LEN as u32 {
            return Err(HeroError::InvalidOptions(format!(
                "max_frame must be >= {} (one request header)",
                wire::REQUEST_HEADER_LEN
            )));
        }
        Ok(())
    }
}

/// Failures starting a server.
#[derive(Debug)]
pub enum ServerError {
    /// The listener could not bind.
    Bind(io::Error),
    /// The configuration failed validation.
    Config(HeroError),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Bind(e) => write!(f, "server bind: {e}"),
            ServerError::Config(e) => write!(f, "server config: {e}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Bind(e) => Some(e),
            ServerError::Config(e) => Some(e),
        }
    }
}

/// One tenant's live runtime state: its service, admission gauge, and
/// counters. Created on the tenant's first keyed request.
struct TenantState {
    service: SignService,
    inflight: AtomicU64,
    counters: TenantCounters,
}

struct ServerShared {
    factory: Arc<SignerFactory>,
    keystore: KeyStore,
    config: ServerConfig,
    /// Engines by parameter set (distinct shapes among tenant keys).
    engines: ShardedMap<Arc<dyn Signer + Send + Sync>>,
    /// Live per-tenant state (service started on first request).
    tenants: ShardedMap<Arc<TenantState>>,
    metrics: Metrics,
    draining: AtomicBool,
    /// Read-halves of open connections, for unblocking handlers at
    /// drain time.
    conns: Mutex<Vec<(u64, TcpStream)>>,
    next_conn_id: AtomicU64,
}

impl ServerShared {
    fn engine_for(&self, params: Params) -> Result<Arc<dyn Signer + Send + Sync>, WireError> {
        // The constructor runs outside the shard lock (a factory may
        // start a worker pool); a racing duplicate is dropped harmlessly
        // in favor of the first insert.
        self.engines.get_or_try_insert_with(params.name(), || {
            (self.factory)(params).map_err(WireError::from)
        })
    }

    fn tenant_state(&self, tenant: &str, key: &TenantKey) -> Result<Arc<TenantState>, WireError> {
        self.tenants.get_or_try_insert_with(tenant, || {
            let engine = self.engine_for(*key.sk.params())?;
            // Started outside the shard lock too; on a race the loser's
            // service drops (drains empty) and the winner is used.
            let service = SignService::start(engine, key.sk.clone(), self.config.service)
                .map_err(WireError::from)?;
            Ok(Arc::new(TenantState {
                service,
                inflight: AtomicU64::new(0),
                counters: TenantCounters::default(),
            }))
        })
    }

    /// Sums the hypertree-cache counters across every engine (one per
    /// parameter set). Backends without a cache contribute nothing.
    fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for (_, engine) in self.engines.entries() {
            if let Some(stats) = engine.cache_stats() {
                total.merge(&stats);
            }
        }
        total
    }

    fn metrics_page(&self) -> String {
        let rows: Vec<TenantRow> = self
            .tenants
            .entries()
            .into_iter()
            .map(|(tenant, state)| TenantRow {
                tenant,
                requests: state.counters.requests.load(Ordering::Relaxed),
                completed: state.counters.completed.load(Ordering::Relaxed),
                rejected: state.counters.rejected.load(Ordering::Relaxed),
                inflight: state.inflight.load(Ordering::Relaxed),
                queue_depth: state.service.queue_depth() as u64,
                verify_requests: state.counters.verify_requests.load(Ordering::Relaxed),
                verify_invalid: state.counters.verify_invalid.load(Ordering::Relaxed),
                verify_malformed: state.counters.verify_malformed.load(Ordering::Relaxed),
                verify_queue_depth: state.service.verify_queue_depth() as u64,
                service: state.service.stats(),
            })
            .collect();
        let shard_recoveries = self
            .keystore
            .poison_recoveries()
            .saturating_add(self.tenants.poison_recoveries())
            .saturating_add(self.engines.poison_recoveries());
        crate::metrics::render(
            &self.metrics,
            &rows,
            self.draining.load(Ordering::Relaxed),
            shard_recoveries,
            &self.cache_stats(),
        )
    }
}

/// A running server. Dropping it (or calling [`Server::shutdown`])
/// drains gracefully.
pub struct Server {
    shared: Arc<ServerShared>,
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    accept: Mutex<Option<JoinHandle<()>>>,
    metrics_accept: Mutex<Option<JoinHandle<()>>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("metrics_addr", &self.metrics_addr)
            .field("tenants", &self.shared.keystore.len())
            .finish()
    }
}

impl Server {
    /// Binds the listeners and starts accepting.
    ///
    /// # Errors
    ///
    /// [`ServerError::Config`] on invalid configuration,
    /// [`ServerError::Bind`] when a listener cannot bind.
    pub fn start(
        factory: Arc<SignerFactory>,
        keystore: KeyStore,
        config: ServerConfig,
    ) -> Result<Self, ServerError> {
        config.validate().map_err(ServerError::Config)?;
        let listener = TcpListener::bind(&config.addr).map_err(ServerError::Bind)?;
        let local_addr = listener.local_addr().map_err(ServerError::Bind)?;
        let metrics_listener = match &config.metrics_addr {
            Some(addr) => Some(TcpListener::bind(addr).map_err(ServerError::Bind)?),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(l.local_addr().map_err(ServerError::Bind)?),
            None => None,
        };

        let shared = Arc::new(ServerShared {
            factory,
            keystore,
            metrics: Metrics::new(config.latency_window),
            config,
            engines: ShardedMap::new(),
            tenants: ShardedMap::new(),
            draining: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            next_conn_id: AtomicU64::new(0),
        });
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        // Warm every loaded tenant's hypertree cache off the accept
        // path: engines build and upper-layer subtrees fill while the
        // listeners come up, so even each tenant's first request signs
        // warm. Best-effort — a failure only means that tenant pays the
        // cold fill its first batch would have paid anyway.
        {
            let shared = Arc::clone(&shared);
            let _ = std::thread::Builder::new()
                .name("hero-server-warm".to_string())
                .spawn(move || {
                    for tenant in shared.keystore.tenants() {
                        let Some(key) = shared.keystore.get(&tenant) else {
                            continue;
                        };
                        if let Ok(engine) = shared.engine_for(*key.sk.params()) {
                            let _ = engine.warm_key(&key.sk);
                        }
                    }
                });
        }

        let accept = {
            let shared = Arc::clone(&shared);
            let handlers = Arc::clone(&handlers);
            std::thread::Builder::new()
                .name("hero-server-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared, &handlers))
                .expect("spawn accept thread")
        };
        let metrics_accept = metrics_listener.map(|listener| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("hero-server-metrics".to_string())
                .spawn(move || metrics_loop(&listener, &shared))
                .expect("spawn metrics thread")
        });

        Ok(Self {
            shared,
            local_addr,
            metrics_addr,
            accept: Mutex::new(Some(accept)),
            metrics_accept: Mutex::new(metrics_accept),
            handlers,
        })
    }

    /// The request listener's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The metrics listener's bound address, when enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The tenants currently loaded.
    pub fn tenants(&self) -> Vec<String> {
        self.shared.keystore.tenants()
    }

    /// The current metrics page (the same text the `stats` op and the
    /// metrics listener serve).
    pub fn metrics_page(&self) -> String {
        self.shared.metrics_page()
    }

    /// Graceful drain: stops accepting (listener closed first), unblocks
    /// idle connections, lets in-flight requests finish and answer, then
    /// drains every tenant service. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        if self.shared.draining.swap(true, Ordering::SeqCst) {
            // A concurrent/second shutdown still joins below (the Mutex
            // serializes), so both callers return only when drained.
        }
        // 1. Unblock the accept loops: they check `draining` after every
        //    accept, so a self-connection makes them exit and close the
        //    listeners.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(addr) = self.metrics_addr {
            let _ = TcpStream::connect(addr);
        }
        if let Some(h) = self.accept.lock().expect("accept handle").take() {
            let _ = h.join();
        }
        if let Some(h) = self.metrics_accept.lock().expect("metrics handle").take() {
            let _ = h.join();
        }
        // 2. Read-shutdown every open connection: handlers blocked
        //    between frames see EOF; handlers mid-request answer first
        //    (writes still work), then see EOF.
        for (_, stream) in self.shared.conns.lock().expect("conn registry").iter() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        // 3. Join the handlers: after this, no request is in flight.
        //    In-flight responses get a grace window to be written; then
        //    stragglers (a handler blocked writing to a peer that never
        //    reads) have their write halves closed too, so the blocked
        //    write fails and the handler exits instead of hanging the
        //    drain forever.
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.handlers.lock().expect("handler registry"));
        let deadline = Instant::now() + DRAIN_WRITE_GRACE;
        while handles.iter().any(|h| !h.is_finished()) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        // Finished handlers have already removed themselves from the
        // registry, so only stragglers are force-closed here.
        for (_, stream) in self.shared.conns.lock().expect("conn registry").iter() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for h in handles {
            let _ = h.join();
        }
        // 4. Drain tenant services (answers anything still queued).
        for (_, state) in self.shared.tenants.entries() {
            state.service.shutdown();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<ServerShared>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                // A persistent failure (fd exhaustion, say) must back
                // off, not busy-spin the accept thread at 100% CPU.
                std::thread::sleep(ACCEPT_RETRY_DELAY);
                continue;
            }
        };
        if shared.draining.load(Ordering::SeqCst) {
            // The drain wake-up connection (or a late client): the
            // listener closes now, the connection is dropped unanswered
            // (it carried no accepted request).
            return;
        }
        // A 17 KB signature spans a dozen segments; without this the
        // short tail waits on the peer's delayed ACK.
        let _ = stream.set_nodelay(true);
        shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(read_half) = stream.try_clone() {
            shared
                .conns
                .lock()
                .expect("conn registry")
                .push((conn_id, read_half));
        }
        let handle = {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name(format!("hero-server-conn-{conn_id}"))
                .spawn(move || {
                    handle_connection(stream, &shared);
                    shared
                        .conns
                        .lock()
                        .expect("conn registry")
                        .retain(|(id, _)| *id != conn_id);
                })
                .expect("spawn connection handler")
        };
        let mut registry = handlers.lock().expect("handler registry");
        // Reap finished handlers so a long-lived server does not
        // accumulate handles.
        let mut i = 0;
        while i < registry.len() {
            if registry[i].is_finished() {
                let _ = registry.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        registry.push(handle);
    }
}

fn metrics_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(ACCEPT_RETRY_DELAY);
                continue;
            }
        };
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        // Plaintext push-on-connect: write the page, close. `curl` and
        // `nc` both render it; no HTTP framing to keep std-only simple.
        // The write is bounded by a timeout so a scraper that connects
        // and never reads cannot wedge this thread (and with it, drain).
        let page = shared.metrics_page();
        let mut stream = stream;
        let _ = stream.set_write_timeout(Some(METRICS_WRITE_TIMEOUT));
        let _ = io::Write::write_all(&mut stream, page.as_bytes());
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<ServerShared>) {
    loop {
        // Chaos point: drop the connection *between* requests — nothing
        // has been accepted yet, so the exactly-once guarantee holds and
        // the client sees a clean transport error.
        if hero_sign::faults::fire(crate::faults::SERVER_CONN_DROP) {
            return;
        }
        let body = match wire::read_frame(&mut stream, shared.config.max_frame) {
            Ok(Frame::Body(body)) => body,
            Ok(Frame::Eof) => return,
            Ok(Frame::Oversized { declared, head }) => {
                // The frame was discarded in sync; answer typed and keep
                // serving this connection. The discarded body's head
                // still carries the request id, so the client can match
                // the rejection to its request.
                shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
                shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                let resp = Response {
                    id: wire::peek_request_id(&head),
                    result: Err(WireError::new(
                        ErrorCode::OversizedFrame,
                        format!(
                            "frame of {declared} bytes exceeds max_frame {}",
                            shared.config.max_frame
                        ),
                    )),
                };
                if wire::write_frame(&mut stream, &wire::encode_response(&resp)).is_err() {
                    return;
                }
                continue;
            }
            // Truncated frame or transport error: nothing complete was
            // accepted, nothing to answer.
            Err(_) => return,
        };
        // Relative deadlines are anchored here, at frame receipt: the
        // client's clock never enters the computation, only its budget.
        let received = Instant::now();
        shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let (id, answer) = match wire::decode_request(&body) {
            Ok(req) => {
                let id = req.id;
                let deadline = req
                    .deadline_ms
                    .map(|ms| received + Duration::from_millis(u64::from(ms)));
                (id, dispatch(shared, req, deadline))
            }
            Err(e) => (wire::peek_request_id(&body), Err(e)),
        };
        // A verdict is an answer even where the wire carries it as an
        // error frame; only a refusal counts as rejected.
        let result = match answer {
            Ok(answer) => answer,
            Err(refusal) => {
                shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                if refusal.code == ErrorCode::DeadlineExceeded {
                    shared
                        .metrics
                        .deadline_expired
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(refusal)
            }
        };
        let resp = Response { id, result };
        let frame = wire::encode_response(&resp);
        // Chaos point (delay specs): a congested peer stalls the write.
        let _ = hero_sign::faults::fire(crate::faults::SERVER_WRITE_SLOW);
        // Chaos point: die mid-write — the client reads a truncated
        // frame and must treat the request's fate as unknown (which is
        // safe to retry here: signing is deterministic).
        if hero_sign::faults::fire(crate::faults::SERVER_WRITE_PARTIAL) {
            let _ = io::Write::write_all(&mut stream, &(frame.len() as u32).to_be_bytes());
            let _ = io::Write::write_all(&mut stream, &frame[..frame.len() / 2]);
            return;
        }
        if wire::write_frame(&mut stream, &frame).is_err() {
            return;
        }
    }
}

/// What a request is answered with — bytes, or a verdict the wire
/// carries as an error frame (a signature that does not verify, or is
/// malformed) — unless it is refused.
type Answer = Result<Vec<u8>, WireError>;

/// Executes one decoded request: its answer, or the typed refusal
/// (draining, deadline, bad request, unknown tenant, admission, queue
/// full, engine error). `deadline` is the request's absolute expiry (wire
/// `deadline_ms` anchored at frame receipt), `None` for v1 frames and v2
/// frames without the flag.
fn dispatch(
    shared: &Arc<ServerShared>,
    req: Request,
    deadline: Option<Instant>,
) -> Result<Answer, WireError> {
    // A request read after drain began is answered (exactly once) with
    // the typed drain error rather than being dropped on the floor.
    if shared.draining.load(Ordering::SeqCst) && req.op != Op::Stats {
        return Err(WireError::new(
            ErrorCode::ShuttingDown,
            "server is draining",
        ));
    }
    // A deadline that expired before dispatch (slow read, long frame) is
    // shed up front — the typed rejection is cheaper than any op.
    if req.op != Op::Stats && deadline.is_some_and(|d| d <= Instant::now()) {
        return Err(WireError::new(
            ErrorCode::DeadlineExceeded,
            "request deadline passed before dispatch",
        ));
    }
    match req.op {
        Op::Stats => Ok(Ok(shared.metrics_page().into_bytes())),
        Op::Keygen => op_keygen(shared, &req).map(Ok),
        Op::Sign | Op::SignBatch | Op::Verify | Op::VerifyBatch => {
            if req.tenant.is_empty() {
                return Err(WireError::new(
                    ErrorCode::BadRequest,
                    "this op requires a tenant",
                ));
            }
            let key = shared.keystore.get(&req.tenant).ok_or_else(|| {
                WireError::new(
                    ErrorCode::UnknownTenant,
                    format!("no key loaded for tenant '{}'", req.tenant),
                )
            })?;
            let state = shared.tenant_state(&req.tenant, &key)?;
            state.counters.requests.fetch_add(1, Ordering::Relaxed);
            // Admission control: bound this tenant's concurrently
            // admitted requests.
            let admitted = state.inflight.fetch_add(1, Ordering::AcqRel);
            if admitted >= shared.config.per_tenant_inflight as u64 {
                state.inflight.fetch_sub(1, Ordering::AcqRel);
                state.counters.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(WireError::new(
                    ErrorCode::TenantBusy,
                    format!(
                        "tenant '{}' is at its in-flight cap ({})",
                        req.tenant, shared.config.per_tenant_inflight
                    ),
                ));
            }
            let result = match req.op {
                Op::Sign => op_sign(shared, &state, &key, &req.payload, deadline).map(Ok),
                Op::SignBatch => {
                    op_sign_batch(shared, &state, &key, &req.payload, deadline).map(Ok)
                }
                Op::Verify => op_verify(shared, &state, &key, &req.payload, deadline),
                Op::VerifyBatch => {
                    op_verify_batch(shared, &state, &key, &req.payload, deadline).map(Ok)
                }
                _ => unreachable!("matched above"),
            };
            state.inflight.fetch_sub(1, Ordering::AcqRel);
            match &result {
                Ok(_) => state.counters.completed.fetch_add(1, Ordering::Relaxed),
                Err(_) => state.counters.rejected.fetch_add(1, Ordering::Relaxed),
            };
            result
        }
    }
}

fn op_sign(
    shared: &Arc<ServerShared>,
    state: &TenantState,
    key: &TenantKey,
    payload: &[u8],
    deadline: Option<Instant>,
) -> Result<Vec<u8>, WireError> {
    let begin = Instant::now();
    // Overload is a typed rejection, not a stall: try_submit surfaces a
    // full queue as QueueFull instead of blocking the connection, and the
    // deadline rides along so the batcher can shed the request typed if
    // it expires while queued.
    let ticket = state
        .service
        .try_submit(payload.to_vec(), deadline)
        .map_err(WireError::from)?;
    let sig = ticket.wait().map_err(WireError::from)?;
    shared.metrics.record_latency(begin.elapsed());
    Ok(sig.to_bytes(key.sk.params()))
}

fn op_sign_batch(
    shared: &Arc<ServerShared>,
    state: &TenantState,
    key: &TenantKey,
    payload: &[u8],
    deadline: Option<Instant>,
) -> Result<Vec<u8>, WireError> {
    let mut at = 0;
    let count = wire::take_u32(payload, &mut at)? as usize;
    // The declared count is untrusted: every message costs at least its
    // 4-byte length prefix, so a count the remaining payload cannot hold
    // is malformed — rejected before `count` sizes any allocation.
    if count > (payload.len() - at) / 4 {
        return Err(WireError::new(
            ErrorCode::Malformed,
            format!(
                "batch count {count} exceeds what the {}-byte payload can hold",
                payload.len()
            ),
        ));
    }
    // One admission slot covers the whole batch, but queue capacity is
    // still per message: the batch is queued whole or refused whole (a
    // half-queued batch would be signed for nobody), then waited on.
    let mut msgs = Vec::with_capacity(count);
    for _ in 0..count {
        msgs.push(wire::take_bytes(payload, &mut at)?);
    }
    let begin = Instant::now();
    let tickets = state
        .service
        .try_submit_many(msgs, deadline)
        .map_err(WireError::from)?;
    let mut out = Vec::new();
    out.extend_from_slice(&(count as u32).to_be_bytes());
    for ticket in tickets {
        let sig = ticket.wait().map_err(WireError::from)?;
        wire::put_bytes(&mut out, &sig.to_bytes(key.sk.params()));
    }
    let elapsed = begin.elapsed();
    // Record per-message latency so percentiles stay comparable between
    // sign and sign-batch traffic.
    if count > 0 {
        let per_msg = elapsed / count as u32;
        for _ in 0..count {
            shared.metrics.record_latency(per_msg);
        }
    }
    Ok(out)
}

/// Verifies one signature. Its verdict is the answer — an empty body
/// for a valid signature, an error frame for an invalid or malformed
/// one — and only a refusal (bad framing, queue full, deadline, engine
/// error) is the outer error.
fn op_verify(
    shared: &Arc<ServerShared>,
    state: &TenantState,
    key: &TenantKey,
    payload: &[u8],
    deadline: Option<Instant>,
) -> Result<Answer, WireError> {
    let mut at = 0;
    let msg = wire::take_bytes(payload, &mut at)?;
    let sig_bytes = wire::take_bytes(payload, &mut at)?;
    let params = key.vk.params();
    state
        .counters
        .verify_requests
        .fetch_add(1, Ordering::Relaxed);
    let sig = match hero_sphincs::Signature::from_bytes(params, &sig_bytes) {
        Ok(sig) => sig,
        Err(e) => {
            state
                .counters
                .verify_malformed
                .fetch_add(1, Ordering::Relaxed);
            return Ok(Err(WireError::from(HeroError::from(e))));
        }
    };
    let begin = Instant::now();
    // Like the sign lane: overload is a typed rejection, never a stall.
    let ticket = state
        .service
        .try_submit_verify(msg, sig, deadline)
        .map_err(WireError::from)?;
    let outcome = ticket.wait().map_err(WireError::from)?;
    shared.metrics.record_verify_latency(begin.elapsed());
    Ok(match outcome {
        VerifyOutcome::Valid => Ok(Vec::new()),
        VerifyOutcome::Invalid => {
            state
                .counters
                .verify_invalid
                .fetch_add(1, Ordering::Relaxed);
            Err(WireError::new(
                ErrorCode::VerificationFailed,
                "signature does not verify",
            ))
        }
        VerifyOutcome::Malformed(what) => {
            state
                .counters
                .verify_malformed
                .fetch_add(1, Ordering::Relaxed);
            Err(WireError::new(
                ErrorCode::Sphincs,
                format!("malformed signature: {what}"),
            ))
        }
    })
}

/// On-wire verdict byte: the signature verified.
const VERDICT_VALID: u8 = 1;
/// On-wire verdict byte: structurally fine, cryptographically invalid.
const VERDICT_INVALID: u8 = 0;
/// On-wire verdict byte: structurally malformed (wrong lengths/shape).
const VERDICT_MALFORMED: u8 = 2;

fn op_verify_batch(
    shared: &Arc<ServerShared>,
    state: &TenantState,
    key: &TenantKey,
    payload: &[u8],
    deadline: Option<Instant>,
) -> Result<Vec<u8>, WireError> {
    let mut at = 0;
    let count = wire::take_u32(payload, &mut at)? as usize;
    // The declared count is untrusted: every item costs at least its two
    // 4-byte length prefixes, so a count the remaining payload cannot
    // hold is malformed — rejected before `count` sizes any allocation.
    if count > (payload.len() - at) / 8 {
        return Err(WireError::new(
            ErrorCode::Malformed,
            format!(
                "verify-batch count {count} exceeds what the {}-byte payload can hold",
                payload.len()
            ),
        ));
    }
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        let msg = wire::take_bytes(payload, &mut at)?;
        let sig_bytes = wire::take_bytes(payload, &mut at)?;
        items.push((msg, sig_bytes));
    }
    state
        .counters
        .verify_requests
        .fetch_add(count as u64, Ordering::Relaxed);
    // Everything decodable is queued as one unit — whole or refused
    // whole — so the batch coalesces on the verify lane; undecodable
    // bytes get a per-item malformed verdict without costing the lane a
    // slot.
    let begin = Instant::now();
    let params = key.vk.params();
    let mut verdicts = vec![VERDICT_MALFORMED; count];
    let (decoded_at, decoded): (Vec<usize>, Vec<_>) = items
        .into_iter()
        .enumerate()
        .filter_map(|(i, (msg, sig_bytes))| {
            let sig = hero_sphincs::Signature::from_bytes(params, &sig_bytes).ok()?;
            Some((i, (msg, sig)))
        })
        .unzip();
    let tickets = state
        .service
        .try_submit_verify_many(decoded, deadline)
        .map_err(WireError::from)?;
    for (i, ticket) in decoded_at.into_iter().zip(tickets) {
        verdicts[i] = match ticket.wait().map_err(WireError::from)? {
            VerifyOutcome::Valid => VERDICT_VALID,
            VerifyOutcome::Invalid => VERDICT_INVALID,
            VerifyOutcome::Malformed(_) => VERDICT_MALFORMED,
        };
    }
    let elapsed = begin.elapsed();
    // Per-item latency so percentiles stay comparable between verify
    // and verify-batch traffic.
    if count > 0 {
        let per_item = elapsed / count as u32;
        for _ in 0..count {
            shared.metrics.record_verify_latency(per_item);
        }
    }
    for &v in &verdicts {
        match v {
            VERDICT_INVALID => state
                .counters
                .verify_invalid
                .fetch_add(1, Ordering::Relaxed),
            VERDICT_MALFORMED => state
                .counters
                .verify_malformed
                .fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
    }
    let mut out = Vec::new();
    out.extend_from_slice(&(count as u32).to_be_bytes());
    out.extend_from_slice(&verdicts);
    Ok(out)
}

fn op_keygen(shared: &Arc<ServerShared>, req: &Request) -> Result<Vec<u8>, WireError> {
    let tenant = &req.tenant;
    if !valid_tenant_name(tenant) {
        return Err(WireError::new(
            ErrorCode::BadRequest,
            "tenant names are 1-128 chars of [A-Za-z0-9._-], not starting with '.'",
        ));
    }
    let payload = &req.payload;
    let mut at = 0;
    let params_label = wire::take_str(payload, &mut at)?;
    let alg_label = wire::take_str(payload, &mut at)?;
    let params = Params::from_label(&params_label).ok_or_else(|| {
        WireError::new(
            ErrorCode::BadRequest,
            format!("unknown parameter set '{params_label}'"),
        )
    })?;
    let alg = if alg_label.is_empty() {
        params.preferred_alg()
    } else {
        hero_sphincs::HashAlg::from_label(&alg_label).ok_or_else(|| {
            WireError::new(
                ErrorCode::BadRequest,
                format!("unknown hash algorithm '{alg_label}'"),
            )
        })?
    };
    let seed = match payload.get(at) {
        Some(1) => {
            at += 1;
            let end = at
                .checked_add(8)
                .filter(|&e| e <= payload.len())
                .ok_or_else(|| WireError::new(ErrorCode::Malformed, "truncated keygen seed"))?;
            Some(u64::from_be_bytes(
                payload[at..end].try_into().expect("sized"),
            ))
        }
        Some(0) => None,
        _ => {
            return Err(WireError::new(
                ErrorCode::Malformed,
                "keygen payload missing seed flag",
            ))
        }
    };
    let mut rng = match seed {
        Some(s) => StdRng::seed_from_u64(s),
        None => StdRng::from_entropy(),
    };
    let (sk, vk) = hero_sphincs::keygen_with_alg(params, alg, &mut rng)
        .map_err(|e| WireError::from(HeroError::from(e)))?;

    // Persist before publishing: a key that cannot be stored durably is
    // not handed out. The write is crash-safe *and* exclusive: the key
    // material is staged in a temp file, fsynced, and hard-linked into
    // place — the final path either holds a complete key file or does
    // not exist, and two concurrent keygens for the same tenant cannot
    // both publish (the link refuses to clobber, the loser gets
    // TenantExists). The key published in memory is always the one on
    // disk.
    if let Some(dir) = &shared.config.keys_dir {
        let text = keyfile::encode(&params, alg, sk.sk_seed(), sk.sk_prf(), sk.pk_seed());
        let path = dir.join(format!("{tenant}.key"));
        if hero_sign::faults::fire(crate::faults::KEYSTORE_IO) {
            return Err(WireError::new(
                ErrorCode::Keyfile,
                format!("{}: injected keystore I/O fault", path.display()),
            ));
        }
        match keyfile::write_new_atomic(&path, &text) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                return Err(WireError::new(
                    ErrorCode::TenantExists,
                    format!("key file for tenant '{tenant}' already exists"),
                ));
            }
            Err(e) => {
                return Err(WireError::new(
                    ErrorCode::Keyfile,
                    format!("{}: {e}", path.display()),
                ));
            }
        }
        // The exclusive create won the disk race; if the tenant is
        // nonetheless already in memory (loaded from another directory),
        // withdraw the orphan file rather than leave disk diverging.
        if let Err(e) = shared.keystore.insert(tenant, sk, vk.clone()) {
            let _ = std::fs::remove_file(&path);
            return Err(e);
        }
    } else {
        shared.keystore.insert(tenant, sk, vk.clone())?;
    }

    let mut out = Vec::new();
    wire::put_str(&mut out, params.name());
    wire::put_str(&mut out, alg.label());
    wire::put_bytes(&mut out, &vk.to_bytes());
    Ok(out)
}

/// Tenant names double as key file stems, so they must be path-safe.
fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_edge_cases_are_typed() {
        for bad in [
            ServerConfig {
                per_tenant_inflight: 0,
                ..ServerConfig::default()
            },
            ServerConfig {
                max_frame: 4,
                ..ServerConfig::default()
            },
            ServerConfig {
                service: ServiceConfig {
                    max_batch: 0,
                    ..ServiceConfig::default()
                },
                ..ServerConfig::default()
            },
        ] {
            assert!(
                matches!(bad.validate(), Err(HeroError::InvalidOptions(_))),
                "{bad:?}"
            );
        }
        ServerConfig::default().validate().unwrap();
    }

    #[test]
    fn tenant_names_are_path_safe() {
        for good in ["alice", "validator-7", "a.b_c", "X"] {
            assert!(valid_tenant_name(good), "{good}");
        }
        for bad in ["", ".hidden", "a/b", "a\\b", "név", &"x".repeat(129)] {
            assert!(!valid_tenant_name(bad), "{bad}");
        }
    }
}
