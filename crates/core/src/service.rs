//! The micro-batching sign service: many concurrent callers, one shared
//! accelerator.
//!
//! ## Why a service
//!
//! HERO-Sign's throughput rests on *batches*: the device (here, the
//! persistent [`Executor`](hero_task_graph::Executor) runtime inside
//! [`HeroSigner`](crate::engine::HeroSigner)) only saturates when one
//! submission carries many messages. Real signing servers don't receive
//! batches — they receive single requests from many clients. The
//! [`SignService`] closes that gap the way high-throughput PQC signing
//! servers do: requests from all callers land in one bounded queue, a
//! micro-batcher coalesces whatever is pending into a planned
//! `sign_batch` (up to [`ServiceConfig::max_batch`]), and each caller
//! gets its signature back through a [`SignTicket`]. This is the CPU
//! analogue of the paper's stream pipeline: the queue is the host-side
//! staging buffer, the coalesced batch is the device-filling launch, and
//! overlapping collection with signing is the PCIe/compute overlap.
//!
//! ## Work-conserving: no coalescing timer
//!
//! The batcher never holds a request back. It blocks only while its
//! queue is empty; otherwise it takes everything queued (up to
//! `max_batch`) and dispatches at once, so *a batch is whatever
//! accumulated behind the batch in flight*. Batches still form where
//! they matter, because requests arrive while the engine is busy — 64
//! closed-loop callers settle at a mean batch above 40 — and a lone
//! caller pays no wait at all. A wait for stragglers can only idle the
//! executor with work in hand: measured, it bought nothing at 16 and 64
//! callers and cost most at 1–4, where batches cannot form (the callers
//! curve is in `docs/ARCHITECTURE.md`). Batch size is therefore
//! emergent, not configured, and is exported per lane:
//! [`ServiceStats::batches`] and [`ServiceStats::max_batch_observed`]
//! (mean batch = completed ÷ batches).
//!
//! ## The verify lane
//!
//! Verification is a first-class workload on the same service: a verify
//! request carries `(message, signature)` and redeems a
//! [`VerifyTicket`] for a typed [`VerifyOutcome`]. The verify lane is a
//! second instance of the *same* bounded-queue machinery — its own
//! queue and its own micro-batcher thread feeding the backend's planned
//! [`Signer::verify_batch`] — while sharing the queue-depth bound,
//! deadline expiry, ticket, and drain-on-shutdown machinery with sign
//! traffic. Both lanes submit onto the same engine executor, so
//! signature A's verification co-schedules with signature B's signing
//! exactly like mixed kernels on one device.
//!
//! ## Deploying as a signing server — quickstart
//!
//! ```
//! use hero_gpu_sim::device::rtx_4090;
//! use hero_sign::service::{ServiceConfig, SignService};
//! use hero_sign::{HeroSigner, Signer, VerifyOutcome};
//! use hero_sphincs::params::Params;
//! use rand::{rngs::StdRng, SeedableRng};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Reduced parameters keep the doc test fast.
//! let mut params = Params::sphincs_128f();
//! params.h = 6; params.d = 3; params.log_t = 4; params.k = 8;
//!
//! let engine = Arc::new(HeroSigner::builder(rtx_4090(), params).workers(4).build()?);
//! let (sk, vk) = engine.keygen(&mut StdRng::seed_from_u64(1))?;
//!
//! // One service per signing key; clients share it behind an Arc.
//! let service = Arc::new(SignService::start(
//!     engine.clone(),
//!     sk,
//!     ServiceConfig::default(),
//! )?);
//!
//! // Each client: submit, keep the ticket, wait when the result is needed.
//! let tickets: Vec<_> = (0..8u8)
//!     .map(|i| service.submit(vec![i; 16]))
//!     .collect::<Result<_, _>>()?;
//! let mut sigs = Vec::new();
//! for (i, ticket) in tickets.into_iter().enumerate() {
//!     let sig = ticket.wait()?;
//!     vk.verify(&vec![i as u8; 16], &sig)?;
//!     sigs.push(sig);
//! }
//!
//! // The verify lane rides the same service: coalesced, planned, typed.
//! let probe = service.submit_verify(vec![0u8; 16], sigs[0].clone())?;
//! assert_eq!(probe.wait()?, VerifyOutcome::Valid);
//!
//! // Shutdown drains: accepted requests are answered, new ones refused.
//! service.shutdown();
//! # Ok(())
//! # }
//! ```

use crate::error::HeroError;
use crate::kernels::verify::VerifyOutcome;
use crate::signer::{check_key, Signer};

use hero_sphincs::sign::{Signature, SigningKey};

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Errors surfaced by the service layer (distinct from [`HeroError`]:
/// these describe the request path, not the engine).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServiceError {
    /// The service is shutting down (or already shut); the request was
    /// not accepted.
    ShuttingDown,
    /// [`SignService::try_submit`] found the bounded queue full — the
    /// caller should back off (or use the blocking [`SignService::submit`]).
    QueueFull,
    /// The request's deadline passed before the batcher could sign it
    /// (or had already passed at submission). Expired requests are
    /// answered immediately instead of burning executor time on a
    /// signature nobody is waiting for.
    DeadlineExceeded,
    /// The engine rejected the coalesced batch this request rode in.
    Engine(HeroError),
    /// The batcher died mid-request (a bug — batches are panic-isolated,
    /// so this should never surface in practice).
    Internal(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::ShuttingDown => f.write_str("sign service is shutting down"),
            ServiceError::QueueFull => f.write_str("sign service queue is full"),
            ServiceError::DeadlineExceeded => f.write_str("request deadline passed before signing"),
            ServiceError::Engine(e) => write!(f, "sign service engine: {e}"),
            ServiceError::Internal(what) => write!(f, "sign service internal: {what}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HeroError> for ServiceError {
    fn from(e: HeroError) -> Self {
        ServiceError::Engine(e)
    }
}

/// Micro-batcher bounds (applied to both the sign and verify lanes; each
/// lane coalesces independently under the same bounds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Most messages one coalesced batch may carry. Defaults to 64 —
    /// the paper's §IV-E1 guidance for latency-sensitive pipelines
    /// ("near 64": compute still hides transfers, fill/drain stays low).
    pub max_batch: usize,
    /// Bound of each lane's pending-request queue; [`SignService::submit`]
    /// blocks (and [`SignService::try_submit`] returns
    /// [`ServiceError::QueueFull`]) while the lane is at depth.
    pub queue_depth: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            queue_depth: 1024,
        }
    }
}

impl ServiceConfig {
    /// Checks the configuration for unusable values.
    ///
    /// # Errors
    ///
    /// [`HeroError::InvalidOptions`] naming the offending field.
    pub fn validate(&self) -> Result<(), HeroError> {
        if self.max_batch == 0 {
            return Err(HeroError::InvalidOptions(
                "max_batch must be >= 1".to_string(),
            ));
        }
        if self.queue_depth == 0 {
            return Err(HeroError::InvalidOptions(
                "queue_depth must be >= 1".to_string(),
            ));
        }
        Ok(())
    }
}

/// Counters exposed by [`SignService::stats`]. The `verify_*` fields
/// mirror the sign-lane fields one-for-one — the lanes share machinery
/// but account separately.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Sign requests accepted into the queue.
    pub submitted: u64,
    /// Sign requests answered (successfully or with an engine error).
    pub completed: u64,
    /// Coalesced sign batches signed.
    pub batches: u64,
    /// Largest sign batch coalesced so far.
    pub max_batch_observed: u64,
    /// Sign requests answered with [`ServiceError::DeadlineExceeded`]
    /// because their deadline passed while they were queued.
    pub deadline_expired: u64,
    /// Verify requests accepted into the queue.
    pub verify_submitted: u64,
    /// Verify requests answered.
    pub verify_completed: u64,
    /// Coalesced verify batches run.
    pub verify_batches: u64,
    /// Largest verify batch coalesced so far.
    pub verify_max_batch_observed: u64,
    /// Verify requests expired before verification.
    pub verify_deadline_expired: u64,
}

/// One pending request's result slot: written exactly once by the
/// batcher, read exactly once by the ticket holder.
struct TicketState<T> {
    result: Mutex<Option<Result<T, ServiceError>>>,
    ready: Condvar,
}

impl<T> TicketState<T> {
    fn fulfill(&self, value: Result<T, ServiceError>) {
        let mut slot = self.result.lock().expect("ticket slot");
        assert!(slot.is_none(), "request answered twice");
        *slot = Some(value);
        self.ready.notify_all();
    }
}

/// The caller's handle to an accepted request — a plain
/// receiver-future: hold it, do other work, [`Ticket::wait`] when the
/// result is needed. [`SignTicket`] redeems a [`Signature`],
/// [`VerifyTicket`] a [`VerifyOutcome`].
pub struct Ticket<T> {
    state: Arc<TicketState<T>>,
}

/// A [`Ticket`] for a signing request.
pub type SignTicket = Ticket<Signature>;

/// A [`Ticket`] for a verification request: redeems the typed
/// [`VerifyOutcome`] verdict (`Err` is reserved for the request path —
/// an invalid signature is `Ok(VerifyOutcome::Invalid)`).
pub type VerifyTicket = Ticket<VerifyOutcome>;

impl<T> fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket")
            .field("ready", &self.is_ready())
            .finish()
    }
}

impl<T> Ticket<T> {
    /// Blocks until the request is answered.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Engine`] if the engine rejected the batch;
    /// [`ServiceError::ShuttingDown`] if the service stopped before the
    /// request could be served (only possible when the batcher died —
    /// orderly shutdown drains accepted requests).
    pub fn wait(self) -> Result<T, ServiceError> {
        let mut slot = self.state.result.lock().expect("ticket slot");
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.state.ready.wait(slot).expect("ticket slot");
        }
    }

    /// Non-blocking probe: `true` once the request has been answered
    /// (a subsequent [`Ticket::wait`] returns immediately).
    pub fn is_ready(&self) -> bool {
        self.state.result.lock().expect("ticket slot").is_some()
    }
}

struct Request<P, T> {
    payload: P,
    ticket: Arc<TicketState<T>>,
    /// Answer with [`ServiceError::DeadlineExceeded`] instead of serving
    /// if this instant passes while the request is still queued.
    deadline: Option<Instant>,
}

struct QueueState<P, T> {
    items: VecDeque<Request<P, T>>,
    /// Cleared on shutdown; submissions are refused afterwards and the
    /// batcher exits once the queue drains.
    open: bool,
}

/// One micro-batching lane: a bounded queue and its exactly-once
/// accounting. The sign and verify lanes are two instances of this one
/// machine — shared deadline expiry, shared backpressure, separate
/// queues.
struct Lane<P, T> {
    queue: Mutex<QueueState<P, T>>,
    not_empty: Condvar,
    not_full: Condvar,
    submitted: AtomicU64,
    completed: AtomicU64,
    batches: AtomicU64,
    max_batch_observed: AtomicU64,
    deadline_expired: AtomicU64,
}

impl<P, T> Lane<P, T> {
    fn new() -> Self {
        Self {
            queue: Mutex::new(QueueState {
                items: VecDeque::new(),
                open: true,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            max_batch_observed: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
        }
    }

    /// Books an expired request as completed and answers it with the
    /// typed error — the exactly-once accounting is identical to a served
    /// request's.
    fn expire(&self, req: Request<P, T>) {
        self.deadline_expired.fetch_add(1, Ordering::Relaxed);
        self.completed.fetch_add(1, Ordering::Relaxed);
        req.ticket.fulfill(Err(ServiceError::DeadlineExceeded));
    }

    /// Queues `payloads` as one unit — one lock, all of them or none,
    /// one wake-up — so a multi-item submission is neither half-accepted
    /// under backpressure nor split by a batcher waking between pushes.
    /// At `depth`, blocks until all of them fit when `block` is set and
    /// refuses with [`ServiceError::QueueFull`] otherwise (always, for
    /// more payloads than `depth` can ever hold).
    fn enqueue_many(
        &self,
        payloads: Vec<P>,
        deadline: Option<Instant>,
        block: bool,
        depth: usize,
    ) -> Result<Vec<Ticket<T>>, ServiceError> {
        let count = payloads.len();
        if deadline.is_some_and(|d| d <= Instant::now()) {
            self.deadline_expired
                .fetch_add(count as u64, Ordering::Relaxed);
            return Err(ServiceError::DeadlineExceeded);
        }
        let (requests, tickets): (Vec<_>, Vec<_>) = payloads
            .into_iter()
            .map(|payload| {
                let state = Arc::new(TicketState {
                    result: Mutex::new(None),
                    ready: Condvar::new(),
                });
                let request = Request {
                    payload,
                    ticket: Arc::clone(&state),
                    deadline,
                };
                (request, Ticket { state })
            })
            .unzip();
        {
            let mut q = self.queue.lock().expect("service queue");
            loop {
                if !q.open {
                    return Err(ServiceError::ShuttingDown);
                }
                if q.items.len() + count <= depth {
                    break;
                }
                if !block || count > depth {
                    return Err(ServiceError::QueueFull);
                }
                q = self.not_full.wait(q).expect("service queue");
            }
            q.items.extend(requests);
        }
        self.submitted.fetch_add(count as u64, Ordering::Relaxed);
        self.not_empty.notify_one();
        Ok(tickets)
    }

    fn enqueue(
        &self,
        payload: P,
        deadline: Option<Instant>,
        block: bool,
        depth: usize,
    ) -> Result<Ticket<T>, ServiceError> {
        self.enqueue_many(vec![payload], deadline, block, depth)
            .map(|mut tickets| tickets.pop().expect("one ticket per payload"))
    }

    /// Collects one batch from the lane: everything already queued, up
    /// to `max_batch`, blocking only while the queue is empty — there is
    /// no wait for stragglers, so a batch is what accumulated behind the
    /// batch in flight. Returns `None` when the service has shut down
    /// and the queue is fully drained.
    ///
    /// Requests whose per-request deadline has already passed are
    /// answered with [`ServiceError::DeadlineExceeded`] at pop time and
    /// never join a batch — an expired request costs the lane a queue
    /// slot, never executor time.
    fn collect(&self, max_batch: usize) -> Option<Vec<Request<P, T>>> {
        let mut q = self.queue.lock().expect("service queue");
        let mut batch = Vec::new();
        while batch.is_empty() {
            while batch.len() < max_batch {
                match q.items.pop_front() {
                    Some(req) if req.deadline.is_some_and(|d| d <= Instant::now()) => {
                        self.expire(req);
                    }
                    Some(req) => batch.push(req),
                    None => break,
                }
            }
            if batch.is_empty() {
                if !q.open {
                    return None;
                }
                // Anything popped above had expired: its slots are free
                // for blocked submitters before this thread sleeps.
                self.not_full.notify_all();
                q = self.not_empty.wait(q).expect("service queue");
            }
        }
        drop(q);
        self.not_full.notify_all();

        self.batches.fetch_add(1, Ordering::Relaxed);
        self.max_batch_observed
            .fetch_max(batch.len() as u64, Ordering::Relaxed);
        Some(batch)
    }

    /// Refuses further submissions and wakes every waiter.
    fn close(&self) {
        self.queue.lock().expect("service queue").open = false;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Fails any requests left in a closed queue (only possible when the
    /// lane's batcher died abnormally) so their ticket holders don't hang.
    fn fail_stranded(&self) {
        let stranded: Vec<Request<P, T>> = {
            let mut q = self.queue.lock().expect("service queue");
            q.items.drain(..).collect()
        };
        for req in stranded {
            self.completed.fetch_add(1, Ordering::Relaxed);
            req.ticket.fulfill(Err(ServiceError::ShuttingDown));
        }
    }

    fn depth(&self) -> usize {
        self.queue.lock().expect("service queue").items.len()
    }
}

/// Payload of one verify-lane request.
struct VerifyItem {
    msg: Vec<u8>,
    sig: Signature,
}

struct ServiceShared {
    sign: Lane<Vec<u8>, Signature>,
    verify: Lane<VerifyItem, VerifyOutcome>,
}

/// A shared signing *and verification* service over one engine and one
/// signing key — see the module docs for the architecture and a
/// deployment quickstart.
///
/// Thread-safe: share it behind an [`Arc`]; every clone of the handle
/// submits into the same queues and batchers.
pub struct SignService {
    shared: Arc<ServiceShared>,
    config: ServiceConfig,
    batcher: Mutex<Option<JoinHandle<()>>>,
    verifier: Mutex<Option<JoinHandle<()>>>,
}

impl SignService {
    /// Validates `config`, checks `sk` against the signer's parameter
    /// set, and starts the lane threads (`hero-service-batcher` for the
    /// sign lane, `hero-service-verifier` for the verify lane; the
    /// verify lane's key is `sk.verifying_key()`).
    ///
    /// # Errors
    ///
    /// [`HeroError::InvalidOptions`] for zero `max_batch`/`queue_depth`;
    /// [`HeroError::KeyMismatch`] when `sk` belongs to a different
    /// parameter set than the signer.
    pub fn start(
        signer: Arc<dyn Signer + Send + Sync>,
        sk: SigningKey,
        config: ServiceConfig,
    ) -> Result<Self, HeroError> {
        config.validate()?;
        check_key(signer.params(), sk.params())?;
        let vk = sk.verifying_key();
        let shared = Arc::new(ServiceShared {
            sign: Lane::new(),
            verify: Lane::new(),
        });
        let batcher = {
            let shared = Arc::clone(&shared);
            let signer = Arc::clone(&signer);
            std::thread::Builder::new()
                .name("hero-service-batcher".to_string())
                .spawn(move || {
                    // Warm the backend's hypertree cache for the tenant's
                    // key before serving the first batch, so even the
                    // first request signs warm. Best-effort: a failed or
                    // panicking warm-up costs only the cold fill the first
                    // batch would have paid anyway.
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        signer.warm_key(&sk)
                    }));
                    lane_loop(&shared.sign, config.max_batch, |msgs| {
                        let msgs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
                        signer.sign_batch(&sk, &msgs)
                    })
                })
                .expect("spawn service batcher thread")
        };
        let verifier = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("hero-service-verifier".to_string())
                .spawn(move || {
                    lane_loop(&shared.verify, config.max_batch, |items| {
                        let (msgs, sigs): (Vec<Vec<u8>>, Vec<Signature>) =
                            items.into_iter().map(|item| (item.msg, item.sig)).unzip();
                        let msgs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
                        signer.verify_batch(&vk, &msgs, &sigs)
                    })
                })
                .expect("spawn service verifier thread")
        };
        Ok(Self {
            shared,
            config,
            batcher: Mutex::new(Some(batcher)),
            verifier: Mutex::new(Some(verifier)),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Submits `msg` for signing, blocking while the bounded queue is at
    /// [`ServiceConfig::queue_depth`] (backpressure). Returns a ticket
    /// redeemable for the signature.
    ///
    /// # Errors
    ///
    /// [`ServiceError::ShuttingDown`] once [`SignService::shutdown`] has
    /// begun.
    pub fn submit(&self, msg: impl Into<Vec<u8>>) -> Result<SignTicket, ServiceError> {
        self.shared
            .sign
            .enqueue(msg.into(), None, true, self.config.queue_depth)
    }

    /// Non-blocking [`SignService::submit`], with an optional deadline:
    /// if `deadline` passes while the request is still queued, it is
    /// answered with [`ServiceError::DeadlineExceeded`] instead of being
    /// signed — expired work never reaches the executor.
    ///
    /// # Errors
    ///
    /// [`ServiceError::QueueFull`] instead of blocking;
    /// [`ServiceError::DeadlineExceeded`] immediately when `deadline`
    /// has already passed; [`ServiceError::ShuttingDown`] once shutdown
    /// has begun.
    pub fn try_submit(
        &self,
        msg: impl Into<Vec<u8>>,
        deadline: Option<Instant>,
    ) -> Result<SignTicket, ServiceError> {
        self.shared
            .sign
            .enqueue(msg.into(), deadline, false, self.config.queue_depth)
    }

    /// Non-blocking submission of a whole batch as one unit: every
    /// message is queued, in order and adjacent (one lock, one batcher
    /// wake-up), or none is — a batch the queue cannot hold leaves the
    /// lane exactly as it was. `deadline` applies to every message.
    ///
    /// # Errors
    ///
    /// [`ServiceError::QueueFull`] when the batch does not fit under
    /// [`ServiceConfig::queue_depth`] right now (it never does if it is
    /// longer than `queue_depth`);
    /// [`ServiceError::DeadlineExceeded`] for an already-passed deadline;
    /// [`ServiceError::ShuttingDown`] once shutdown has begun.
    pub fn try_submit_many(
        &self,
        msgs: Vec<Vec<u8>>,
        deadline: Option<Instant>,
    ) -> Result<Vec<SignTicket>, ServiceError> {
        self.shared
            .sign
            .enqueue_many(msgs, deadline, false, self.config.queue_depth)
    }

    /// Submits `(msg, sig)` for verification on the verify lane,
    /// blocking while that lane's bounded queue is at
    /// [`ServiceConfig::queue_depth`]. Returns a ticket redeemable for
    /// the typed [`VerifyOutcome`] — an invalid signature is a verdict,
    /// not an error.
    ///
    /// # Errors
    ///
    /// [`ServiceError::ShuttingDown`] once [`SignService::shutdown`] has
    /// begun.
    pub fn submit_verify(
        &self,
        msg: impl Into<Vec<u8>>,
        sig: Signature,
    ) -> Result<VerifyTicket, ServiceError> {
        self.shared.verify.enqueue(
            VerifyItem {
                msg: msg.into(),
                sig,
            },
            None,
            true,
            self.config.queue_depth,
        )
    }

    /// Non-blocking [`SignService::submit_verify`], with an optional
    /// deadline — expired verify work never reaches the executor, same
    /// as the sign lane.
    ///
    /// # Errors
    ///
    /// As [`SignService::try_submit`].
    pub fn try_submit_verify(
        &self,
        msg: impl Into<Vec<u8>>,
        sig: Signature,
        deadline: Option<Instant>,
    ) -> Result<VerifyTicket, ServiceError> {
        self.shared.verify.enqueue(
            VerifyItem {
                msg: msg.into(),
                sig,
            },
            deadline,
            false,
            self.config.queue_depth,
        )
    }

    /// [`SignService::try_submit_many`] for the verify lane: all of the
    /// `(msg, sig)` pairs are queued as one unit, or none is.
    ///
    /// # Errors
    ///
    /// As [`SignService::try_submit_many`].
    pub fn try_submit_verify_many(
        &self,
        items: Vec<(Vec<u8>, Signature)>,
        deadline: Option<Instant>,
    ) -> Result<Vec<VerifyTicket>, ServiceError> {
        let items = items
            .into_iter()
            .map(|(msg, sig)| VerifyItem { msg, sig })
            .collect();
        self.shared
            .verify
            .enqueue_many(items, deadline, false, self.config.queue_depth)
    }

    /// Sign requests currently queued and not yet claimed by the batcher
    /// (a live gauge for metrics surfaces; racy by nature).
    pub fn queue_depth(&self) -> usize {
        self.shared.sign.depth()
    }

    /// Verify requests currently queued on the verify lane.
    pub fn verify_queue_depth(&self) -> usize {
        self.shared.verify.depth()
    }

    /// Snapshot of the service counters, both lanes.
    pub fn stats(&self) -> ServiceStats {
        let sign = &self.shared.sign;
        let verify = &self.shared.verify;
        ServiceStats {
            submitted: sign.submitted.load(Ordering::Relaxed),
            completed: sign.completed.load(Ordering::Relaxed),
            batches: sign.batches.load(Ordering::Relaxed),
            max_batch_observed: sign.max_batch_observed.load(Ordering::Relaxed),
            deadline_expired: sign.deadline_expired.load(Ordering::Relaxed),
            verify_submitted: verify.submitted.load(Ordering::Relaxed),
            verify_completed: verify.completed.load(Ordering::Relaxed),
            verify_batches: verify.batches.load(Ordering::Relaxed),
            verify_max_batch_observed: verify.max_batch_observed.load(Ordering::Relaxed),
            verify_deadline_expired: verify.deadline_expired.load(Ordering::Relaxed),
        }
    }

    /// Clean shutdown: refuses new submissions on both lanes, drains and
    /// answers every accepted request, then joins both lane threads.
    /// Idempotent; also runs on drop. Safe to call through a shared
    /// `Arc<SignService>` while clients still hold tickets — each
    /// accepted request is answered exactly once.
    pub fn shutdown(&self) {
        self.shared.sign.close();
        self.shared.verify.close();
        // Hold the handle locks across join *and* the stranded sweep:
        // a concurrent shutdown() otherwise sees `None`, skips the
        // join, and drains requests the still-running batcher would
        // have served — failing accepted tickets with ShuttingDown.
        let mut batcher = self.batcher.lock().expect("batcher handle");
        let mut verifier = self.verifier.lock().expect("verifier handle");
        if let Some(handle) = batcher.take() {
            let _ = handle.join();
        }
        if let Some(handle) = verifier.take() {
            let _ = handle.join();
        }
        // Belt and braces: if a lane thread died abnormally, fail any
        // stranded requests instead of hanging their ticket holders.
        self.shared.sign.fail_stranded();
        self.shared.verify.fail_stranded();
        drop(verifier);
        drop(batcher);
    }
}

impl Drop for SignService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl fmt::Debug for SignService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SignService")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}

/// The loop of one lane thread: collects a batch, hands its payloads to
/// `serve` (the backend call), books the batch as completed, then answers
/// every ticket with its value or the batch's error — so a caller whose
/// `wait()` has returned finds its answer counted. Runs until the lane
/// has shut down and drained.
fn lane_loop<P, T>(
    lane: &Lane<P, T>,
    max_batch: usize,
    serve: impl Fn(Vec<P>) -> Result<Vec<T>, HeroError>,
) {
    while let Some(batch) = lane.collect(max_batch) {
        let (payloads, tickets): (Vec<P>, Vec<_>) = batch
            .into_iter()
            .map(|req| (req.payload, req.ticket))
            .unzip();
        // Panic isolation: a batch that explodes answers its own tickets
        // with an Internal error and the lane keeps serving.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| serve(payloads)));
        lane.completed
            .fetch_add(tickets.len() as u64, Ordering::Relaxed);
        match outcome {
            Ok(Ok(values)) => {
                debug_assert_eq!(values.len(), tickets.len());
                for (ticket, value) in tickets.iter().zip(values) {
                    ticket.fulfill(Ok(value));
                }
            }
            Ok(Err(e)) => {
                for ticket in &tickets {
                    ticket.fulfill(Err(ServiceError::Engine(e.clone())));
                }
            }
            Err(_) => {
                for ticket in &tickets {
                    ticket.fulfill(Err(ServiceError::Internal("batch panicked".to_string())));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HeroSigner;
    use crate::signer::ReferenceSigner;
    use hero_gpu_sim::device::rtx_4090;
    use hero_sphincs::params::Params;
    use hero_sphincs::sign::VerifyingKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::mpsc;
    use std::time::Duration;

    fn tiny_params() -> Params {
        let mut p = Params::sphincs_128f();
        p.h = 6;
        p.d = 3;
        p.log_t = 4;
        p.k = 8;
        p
    }

    fn engine() -> Arc<HeroSigner> {
        Arc::new(
            HeroSigner::builder(rtx_4090(), tiny_params())
                .workers(4)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn service_signs_byte_identical_to_direct_signing() {
        let engine = engine();
        let mut rng = StdRng::seed_from_u64(21);
        let (sk, vk) = engine.keygen(&mut rng).unwrap();
        let service =
            SignService::start(engine.clone(), sk.clone(), ServiceConfig::default()).unwrap();
        let tickets: Vec<_> = (0..5u8)
            .map(|i| service.submit(vec![i; 12]).unwrap())
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let msg = [i as u8; 12];
            let sig = t.wait().unwrap();
            assert_eq!(sig, sk.sign(&msg), "msg {i}");
            vk.verify(&msg, &sig).unwrap();
        }
        // A lane books `completed` before the answer goes out: the
        // counters hold every answered request while the service runs.
        let stats = service.stats();
        assert_eq!(stats.submitted, 5);
        assert_eq!(stats.completed, 5);
        assert!(stats.batches >= 1);
        service.shutdown();
    }

    #[test]
    fn verify_lane_returns_scalar_verdicts() {
        let engine = engine();
        let mut rng = StdRng::seed_from_u64(31);
        let (sk, vk) = engine.keygen(&mut rng).unwrap();
        let service =
            SignService::start(engine.clone(), sk.clone(), ServiceConfig::default()).unwrap();

        let msgs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 10]).collect();
        let mut sigs: Vec<Signature> = msgs.iter().map(|m| sk.sign(m)).collect();
        sigs[1].fors.trees[0].sk[0] ^= 1; // Invalid
        sigs[3].ht.layers.pop(); // Malformed

        let tickets: Vec<_> = msgs
            .iter()
            .zip(&sigs)
            .map(|(m, s)| service.submit_verify(m.clone(), s.clone()).unwrap())
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let verdict = t.wait().unwrap();
            let oracle = VerifyOutcome::from_result(vk.verify(&msgs[i], &sigs[i]));
            assert_eq!(verdict, oracle, "request {i}");
        }
        // As above: the counters are exact once the lanes are joined.
        service.shutdown();
        let stats = service.stats();
        assert_eq!(stats.verify_submitted, 4);
        assert_eq!(stats.verify_completed, 4);
        assert!(stats.verify_batches >= 1);
        // Sign-lane counters untouched by verify traffic.
        assert_eq!(stats.submitted, 0);
        assert_eq!(stats.batches, 0);
    }

    #[test]
    fn verify_lane_deadline_and_shutdown_semantics() {
        let engine = engine();
        let mut rng = StdRng::seed_from_u64(32);
        let (sk, _) = engine.keygen(&mut rng).unwrap();
        let sig = sk.sign(b"v");
        let service = SignService::start(engine, sk, ServiceConfig::default()).unwrap();
        // Already-expired deadline: typed error at submit time.
        let past = Instant::now() - Duration::from_millis(1);
        assert_eq!(
            service
                .try_submit_verify(b"v".to_vec(), sig.clone(), Some(past))
                .unwrap_err(),
            ServiceError::DeadlineExceeded
        );
        assert_eq!(service.stats().verify_deadline_expired, 1);
        // Accepted before shutdown: answered. After: refused.
        let accepted = service.submit_verify(b"v".to_vec(), sig.clone()).unwrap();
        service.shutdown();
        assert_eq!(accepted.wait().unwrap(), VerifyOutcome::Valid);
        assert_eq!(
            service.submit_verify(b"v".to_vec(), sig).unwrap_err(),
            ServiceError::ShuttingDown
        );
        let s = service.stats();
        assert_eq!(s.verify_submitted, s.verify_completed, "exactly-once");
    }

    #[test]
    fn config_edge_cases_are_typed_errors() {
        let engine = engine();
        let mut rng = StdRng::seed_from_u64(22);
        let (sk, _) = engine.keygen(&mut rng).unwrap();
        for bad in [
            ServiceConfig {
                max_batch: 0,
                ..ServiceConfig::default()
            },
            ServiceConfig {
                queue_depth: 0,
                ..ServiceConfig::default()
            },
        ] {
            let err = SignService::start(engine.clone(), sk.clone(), bad).unwrap_err();
            assert!(
                matches!(err, HeroError::InvalidOptions(_)),
                "{bad:?}: {err}"
            );
        }
    }

    #[test]
    fn foreign_key_rejected_at_start() {
        let engine = engine();
        let mut other = tiny_params();
        other.k = 9;
        let mut rng = StdRng::seed_from_u64(23);
        let (sk, _) = hero_sphincs::keygen(other, &mut rng).unwrap();
        assert!(matches!(
            SignService::start(engine, sk, ServiceConfig::default()),
            Err(HeroError::KeyMismatch(_))
        ));
    }

    #[test]
    fn submissions_after_shutdown_are_refused() {
        let engine = engine();
        let mut rng = StdRng::seed_from_u64(24);
        let (sk, _) = engine.keygen(&mut rng).unwrap();
        let service = SignService::start(engine, sk, ServiceConfig::default()).unwrap();
        let accepted = service.submit(b"before".to_vec()).unwrap();
        service.shutdown();
        accepted.wait().unwrap();
        assert_eq!(
            service.submit(b"after".to_vec()).unwrap_err(),
            ServiceError::ShuttingDown
        );
        // Idempotent.
        service.shutdown();
    }

    #[test]
    fn try_submit_reports_backpressure() {
        // Depth 1 and rapid-fire submissions: whenever a request is
        // still queued behind the batch being signed, the next
        // try_submit hits the bound.
        let engine = engine();
        let mut rng = StdRng::seed_from_u64(25);
        let (sk, _) = engine.keygen(&mut rng).unwrap();
        let service = SignService::start(
            engine,
            sk,
            ServiceConfig {
                queue_depth: 1,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        // With depth 1, at least one of a burst of try_submits must
        // either be accepted or see QueueFull; all accepted ones must be
        // answered. (Timing-tolerant: the batcher may drain between
        // calls.)
        let mut accepted = Vec::new();
        let mut full = 0;
        for i in 0..64u8 {
            match service.try_submit(vec![i; 8], None) {
                Ok(t) => accepted.push(t),
                Err(ServiceError::QueueFull) => full += 1,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        for t in accepted {
            t.wait().unwrap();
        }
        // Not asserting `full > 0`: a fast batcher may keep up. The
        // invariant is that QueueFull is the only rejection reason.
        let _ = full;
    }

    #[test]
    fn expired_deadline_rejected_at_submit() {
        let engine = engine();
        let mut rng = StdRng::seed_from_u64(27);
        let (sk, _) = engine.keygen(&mut rng).unwrap();
        let service = SignService::start(engine, sk, ServiceConfig::default()).unwrap();
        let past = Instant::now() - Duration::from_millis(1);
        assert_eq!(
            service
                .try_submit(b"late".to_vec(), Some(past))
                .unwrap_err(),
            ServiceError::DeadlineExceeded
        );
        assert_eq!(service.stats().deadline_expired, 1);
        // A generous deadline signs normally.
        let far = Instant::now() + Duration::from_secs(60);
        service
            .try_submit(b"on time".to_vec(), Some(far))
            .unwrap()
            .wait()
            .unwrap();
    }

    #[test]
    fn queued_requests_expire_typed_not_signed() {
        // Stall the batcher behind a slow first batch, pile up requests
        // with tiny deadlines behind it, and watch them expire at pop
        // time with the typed error. The deadline (1ms) is far below the
        // time the blocking batch takes, so this is timing-robust.
        let engine = engine();
        let mut rng = StdRng::seed_from_u64(28);
        let (sk, vk) = engine.keygen(&mut rng).unwrap();
        let service = SignService::start(
            engine,
            sk,
            ServiceConfig {
                max_batch: 1, // each request is its own batch
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        // Head-of-line request (no deadline): occupies the batcher.
        let head = service.submit(b"head".to_vec()).unwrap();
        let mut doomed = Vec::new();
        let mut expired = 0u64;
        for i in 0..4u8 {
            let soon = Instant::now() + Duration::from_millis(1);
            match service.try_submit(vec![i; 8], Some(soon)) {
                Ok(t) => doomed.push(t),
                // A harsh scheduler may expire it before enqueue even runs.
                Err(ServiceError::DeadlineExceeded) => expired += 1,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        std::thread::sleep(Duration::from_millis(5));
        let tail = service.submit(b"tail".to_vec()).unwrap();
        let sig = head.wait().unwrap();
        vk.verify(b"head", &sig).unwrap();
        for t in doomed {
            match t.wait() {
                Err(ServiceError::DeadlineExceeded) => expired += 1,
                Ok(_) => {} // the batcher got there in time — fine
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        // The service keeps serving after expiries.
        tail.wait().unwrap();
        assert_eq!(service.stats().deadline_expired, expired);
        service.shutdown();
        let s = service.stats();
        assert_eq!(s.submitted, s.completed, "exactly-once accounting");
    }

    /// Test backend that makes coalescing deterministic: it records
    /// every batch it is handed (the first byte of each message), and
    /// its first call announces itself on `entered` and then blocks on
    /// `gate` — holding the lane's batcher inside the backend while the
    /// test queues requests behind it.
    struct GatedSigner {
        inner: ReferenceSigner,
        seen: Mutex<Vec<Vec<u8>>>,
        entered: Mutex<mpsc::Sender<()>>,
        gate: Mutex<mpsc::Receiver<()>>,
    }

    impl GatedSigner {
        fn record(&self, msgs: &[&[u8]]) {
            let first = {
                let mut seen = self.seen.lock().unwrap();
                seen.push(msgs.iter().map(|m| m[0]).collect());
                seen.len() == 1
            };
            if first {
                self.entered.lock().unwrap().send(()).unwrap();
                self.gate.lock().unwrap().recv().unwrap();
            }
        }
    }

    impl Signer for GatedSigner {
        fn params(&self) -> &Params {
            self.inner.params()
        }

        fn backend(&self) -> &'static str {
            "gated-test"
        }

        fn sign(&self, sk: &SigningKey, msg: &[u8]) -> Result<Signature, HeroError> {
            self.inner.sign(sk, msg)
        }

        fn sign_batch(&self, sk: &SigningKey, msgs: &[&[u8]]) -> Result<Vec<Signature>, HeroError> {
            self.record(msgs);
            self.inner.sign_batch(sk, msgs)
        }

        fn verify_batch(
            &self,
            vk: &VerifyingKey,
            msgs: &[&[u8]],
            sigs: &[Signature],
        ) -> Result<Vec<VerifyOutcome>, HeroError> {
            self.record(msgs);
            self.inner.verify_batch(vk, msgs, sigs)
        }
    }

    /// One lane, driven through its `try_submit*_many` face (`submit`
    /// maps one tag byte per request to tickets), with the batcher held
    /// inside the backend: no sleep, no timing assumption anywhere.
    fn held_batch_coalesces_what_queued_behind_it<T>(
        submit: impl Fn(&SignService, &SigningKey, &[u8]) -> Result<Vec<Ticket<T>>, ServiceError>,
    ) {
        let (entered_tx, entered) = mpsc::channel();
        let (gate, gate_rx) = mpsc::channel();
        let signer = Arc::new(GatedSigner {
            inner: ReferenceSigner::new(tiny_params()).unwrap(),
            seen: Mutex::new(Vec::new()),
            entered: Mutex::new(entered_tx),
            gate: Mutex::new(gate_rx),
        });
        let (sk, _) = signer.keygen(&mut StdRng::seed_from_u64(29)).unwrap();
        let config = ServiceConfig {
            max_batch: 4,
            queue_depth: 6,
        };
        let service = SignService::start(signer.clone(), sk.clone(), config).unwrap();
        let submitted = || {
            let s = service.stats();
            s.submitted + s.verify_submitted
        };

        // A lone request goes straight to the backend, alone: the
        // batcher waits for nobody.
        let mut tickets = submit(&service, &sk, &[0]).unwrap();
        entered.recv().unwrap();
        assert_eq!(*signer.seen.lock().unwrap(), [[0]]);

        // The batcher is now held inside the backend; everything below
        // queues behind the batch in flight.
        tickets.extend(submit(&service, &sk, &[1, 2]).unwrap());
        // 2 queued + 5 > depth 6: refused whole, nothing left behind.
        assert_eq!(
            submit(&service, &sk, &[3, 4, 5, 6, 7]).unwrap_err(),
            ServiceError::QueueFull
        );
        assert_eq!(submitted(), 3, "a refused batch queues none of its items");
        tickets.extend(submit(&service, &sk, &[3, 4, 5, 6]).unwrap());
        assert_eq!(submitted(), 7);

        gate.send(()).unwrap();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        // Exactly one batch of max_batch in submission order, then the
        // rest — max_batch splits, nothing else does.
        assert_eq!(
            *signer.seen.lock().unwrap(),
            [vec![0], vec![1, 2, 3, 4], vec![5, 6]]
        );
        service.shutdown();
        let s = service.stats();
        assert_eq!(s.batches + s.verify_batches, 3);
        assert_eq!(s.max_batch_observed.max(s.verify_max_batch_observed), 4);
        assert_eq!(s.completed + s.verify_completed, 7, "exactly-once");
    }

    #[test]
    fn sign_lane_batches_are_what_queued_behind_the_batch_in_flight() {
        held_batch_coalesces_what_queued_behind_it(|service, _, tags| {
            service.try_submit_many(tags.iter().map(|&t| vec![t; 8]).collect(), None)
        });
    }

    #[test]
    fn verify_lane_batches_are_what_queued_behind_the_batch_in_flight() {
        held_batch_coalesces_what_queued_behind_it(|service, sk, tags| {
            let items = tags
                .iter()
                .map(|&t| (vec![t; 8], sk.sign(&[t; 8])))
                .collect();
            service.try_submit_verify_many(items, None)
        });
    }

    #[test]
    fn works_over_the_reference_backend_too() {
        let params = tiny_params();
        let signer = Arc::new(ReferenceSigner::new(params).unwrap());
        let mut rng = StdRng::seed_from_u64(26);
        let (sk, vk) = signer.keygen(&mut rng).unwrap();
        let service = SignService::start(signer, sk, ServiceConfig::default()).unwrap();
        let sig = service.submit(b"ref".to_vec()).unwrap().wait().unwrap();
        vk.verify(b"ref", &sig).unwrap();
        // The verify lane rides the reference backend's pair-by-pair
        // scalar verify_batch: signed by one implementation, accepted by
        // the other, in both directions.
        let verdict = service
            .submit_verify(b"ref".to_vec(), sig)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(verdict, VerifyOutcome::Valid);
    }
}
