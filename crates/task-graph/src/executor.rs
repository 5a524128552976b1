//! The persistent stream runtime: a long-lived [`Executor`] that accepts
//! whole [`TaskGraph`]s as *submissions* and runs several concurrently on
//! one shared pool of named worker threads.
//!
//! ## Why persistent
//!
//! HERO-Sign's throughput argument depends on the device never tearing
//! down between batches: streams and CUDA graphs exist so the *next*
//! batch's kernels are already queued while the current one drains. The
//! scoped-thread execution this module replaces behaved like a GPU that
//! powers off after every launch — each graph paid thread spin-up, and
//! two concurrent callers serialized behind each other's pools. The
//! [`Executor`] is the CPU analogue of the persistent device:
//!
//! * **Workers ≙ SMs** — spawned once (`hero-worker-N`), alive until the
//!   executor drops, joined gracefully on shutdown.
//! * **Submissions ≙ streams** — every [`Executor::run`] call is an
//!   independent submission; ready work-items from *different*
//!   submissions interleave on the same workers, exactly like kernels
//!   from different CUDA streams sharing SMs.
//! * **Panic isolation ≙ per-stream error state** — a node panic poisons
//!   only its own submission (remaining nodes are cancelled, the payload
//!   re-raised on the submitting thread); other submissions and the
//!   workers themselves are unaffected, and the executor stays usable.
//!
//! ## Self-healing
//!
//! A worker thread that *dies* (a panic escaping the worker loop — in
//! practice only possible through the [`crate::chaos`] fault hook, since
//! node panics are caught and turned into submission poison) is detected
//! and respawned, so the pool always heals back to its configured size.
//! Worker deaths are injected at a documented panic-safe point: before
//! the worker claims a node and outside every lock, so a death can never
//! strand a submission or poison shared state. [`Executor::alive_workers`]
//! and [`Executor::respawned_workers`] expose the healing for tests and
//! metrics.
//!
//! ## Blocking and re-entrancy
//!
//! [`Executor::run`] blocks the calling thread until its submission
//! completes. When the caller *is* one of this executor's workers (a node
//! closure submitting a nested graph), the call participates in draining
//! the shared ready queue instead of parking — the pool can never
//! deadlock on its own nested submissions.
//!
//! ## How an idle worker waits
//!
//! A worker that finds the ready queue empty first *polls* for
//! [`IDLE_POLL`]: it reads a lock-free hint of the queue length and calls
//! [`std::thread::yield_now`] between reads. Only when the window ends
//! with nothing queued does it park on the condition variable. The poll
//! is what lets a short graph use the whole pool: a parked worker cannot
//! be migrated by the OS load balancer, and its wake-up can queue it on
//! the CPU where the other worker already runs, so a lone signature's
//! nodes often all ran on one worker while the other CPU idled. A
//! polling worker stays runnable, so the balancer spreads it onto the
//! idle CPU, and it picks up the next submission with no wake-up at all.
//! It yields rather than spins so that, with more threads than CPUs, the
//! threads that have work get the CPU. The cost is bounded: at most one
//! window of CPU per worker per idle gap.

use crate::{chaos, GraphError, TaskGraph};

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a worker that finds the ready queue empty polls for new work
/// before it parks (see the module docs).
///
/// Any window that spans the gaps inside a lone signature — between one
/// node's completion and the next node's release, and between one sign
/// and the next from the same caller — keeps both workers of a 2-worker
/// pool on it; past that, a longer window only costs CPU, at most one
/// window per worker per idle gap. Measured on the 2-vCPU reference host
/// with the repository benchmark (four alternating rounds of 8 s each),
/// `single_sign_cold` read 690 signs/s with no poll, 871 with a 20 µs
/// window, 893 with 100 µs and 860 with 400 µs; `wire_mixed` 732, 740,
/// 792 and 792 cycles/s; `batch_verify` was level across all four
/// (12.7k–13.0k verifies/s).
pub const IDLE_POLL: Duration = Duration::from_micros(100);

/// A node closure with its borrow lifetime erased. Safety contract: the
/// submission that owns it never outlives the [`Executor::run`] call that
/// created it — `run` returns only once every erased closure has been
/// executed or dropped and no worker still touches the submission's
/// slots (`running == 0`).
type ErasedFn = Box<dyn FnOnce() + Send + 'static>;

/// Locks `m`, recovering from poison. Every mutex in this module guards
/// state that is kept consistent across panics by construction (node
/// panics are caught before bookkeeping; injected worker deaths happen
/// outside all locks), so a poisoned lock carries no torn state — it
/// only means some thread died nearby. Propagating the poison would turn
/// one injected death into a cascade that kills the whole pool.
fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Mutable progress of one submission, guarded by [`Submission::progress`].
struct Progress {
    /// Nodes fully retired: executed, panicked, or cancelled by a poison
    /// purge. Only compared against `n` for *healthy* submissions.
    finished: usize,
    /// Nodes currently executing on some thread. Claimed under the pool
    /// queue lock so a poison purge can never miss an in-flight node.
    running: usize,
    /// Set once a node of this submission panicked; stops scheduling.
    poisoned: bool,
    /// First panic payload, re-raised on the submitting thread.
    payload: Option<Box<dyn Any + Send>>,
}

/// One in-flight [`TaskGraph`]: dependency bookkeeping plus the erased
/// node closures. Shared between the submitting thread and the workers.
struct Submission {
    n: usize,
    /// Unfinished-dependency counts; a node is enqueued when its count
    /// hits zero.
    pending: Vec<AtomicUsize>,
    dependents: Dependents,
    closures: Vec<Mutex<Option<ErasedFn>>>,
    progress: Mutex<Progress>,
    /// Signalled when the submission completes (or poisons to quiescence);
    /// the submitting thread waits here.
    finished_cv: Condvar,
}

/// Every node's dependents in compressed rows: node `i`'s are
/// `targets[offsets[i]..offsets[i + 1]]`, one entry per edge, so a
/// duplicate edge appears twice, as it counts twice in `pending`.
struct Dependents {
    offsets: Vec<usize>,
    targets: Vec<usize>,
}

impl Dependents {
    /// The rows of `n` nodes' `(dep, node)` edges: count each node's
    /// dependents into `offsets[dep]`, prefix-sum to row ends, then place
    /// the edges back to front, which leaves each row's start in
    /// `offsets[dep]` and each row in declaration order.
    fn new(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut offsets = vec![0usize; n + 1];
        for &(dep, _) in edges {
            offsets[dep] += 1;
        }
        let mut end = 0;
        for row in &mut offsets {
            end += *row;
            *row = end;
        }
        let mut targets = vec![0usize; edges.len()];
        for &(dep, node) in edges.iter().rev() {
            offsets[dep] -= 1;
            targets[offsets[dep]] = node;
        }
        Self { offsets, targets }
    }

    /// The nodes that wait on `node`.
    fn of(&self, node: usize) -> &[usize] {
        &self.targets[self.offsets[node]..self.offsets[node + 1]]
    }
}

impl Submission {
    /// Whether the submitting thread may safely return: nothing runs, and
    /// either every node retired or the submission is poisoned (in which
    /// case unreached nodes will never be scheduled — the queue was
    /// purged under the same lock that claims nodes).
    fn complete(p: &Progress, n: usize) -> bool {
        p.running == 0 && (p.poisoned || p.finished == n)
    }
}

/// The shared ready queue: `(submission, node)` pairs whose dependencies
/// are all satisfied, in FIFO order across submissions.
struct Queue {
    items: VecDeque<(Arc<Submission>, usize)>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// `queue.items.len()`, rewritten under the queue lock after every
    /// push, claim and purge, so that a polling worker can watch the
    /// queue without taking the lock. Only a hint: the claim itself goes
    /// through [`claim_next`] under the lock, so a stale read ends a poll
    /// early or late and nothing else. It publishes no data, hence
    /// `Relaxed`.
    queued: AtomicUsize,
    /// Signalled when items are enqueued or shutdown begins.
    available: Condvar,
    /// Join handles of every live (or not-yet-joined) worker thread.
    /// Respawned workers push here; [`Executor::drop`] drains in a loop
    /// until no late respawn can add another.
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Workers currently running their loop (dips by one transiently
    /// while a dead worker's replacement spawns).
    alive: AtomicUsize,
    /// Total workers respawned after deaths, over the pool's lifetime.
    respawned: AtomicU64,
}

impl Shared {
    /// Rewrites the [`Shared::queued`] hint from `q`, which the caller
    /// holds locked.
    fn publish_len(&self, q: &Queue) {
        self.queued.store(q.items.len(), Ordering::Relaxed);
    }

    /// Polls the [`Shared::queued`] hint for up to [`IDLE_POLL`], yielding
    /// between reads, and returns as soon as it reads non-zero.
    fn poll_for_work(&self) {
        let start = Instant::now();
        while self.queued.load(Ordering::Relaxed) == 0 && start.elapsed() < IDLE_POLL {
            std::thread::yield_now();
        }
    }
}

thread_local! {
    /// Identity of the pool the current thread works for (the `Shared`
    /// allocation address), or 0 off-pool. Lets nested [`Executor::run`]
    /// calls detect "I am one of this executor's workers" and help drain
    /// the queue instead of parking.
    static CURRENT_POOL: Cell<usize> = const { Cell::new(0) };
}

/// A persistent pool of named worker threads executing [`TaskGraph`]
/// submissions — see the module docs for the stream-runtime analogy.
///
/// Cheap handles are made by wrapping in [`Arc`]; every clone of the
/// `Arc` submits onto the same workers, the way multiple CUDA streams
/// share one device.
///
/// ```
/// use hero_task_graph::{Executor, TaskGraph};
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = Executor::new(4).unwrap();
/// let hits = AtomicUsize::new(0);
/// let mut g = TaskGraph::new();
/// let a = g.task(|| { hits.fetch_add(1, Ordering::Relaxed); });
/// let b = g.task(|| { hits.fetch_add(1, Ordering::Relaxed); });
/// g.depends_on(b, a);
/// pool.run(g).unwrap();
/// assert_eq!(hits.into_inner(), 2);
/// // The pool survives the submission; submit again freely.
/// pool.run(TaskGraph::new()).unwrap();
/// ```
pub struct Executor {
    shared: Arc<Shared>,
    workers: usize,
    submitted: AtomicU64,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.workers)
            .field("alive", &self.alive_workers())
            .field("respawned", &self.respawned_workers())
            .field("submissions", &self.submitted.load(Ordering::Relaxed))
            .finish()
    }
}

/// Spawns one worker thread and registers its handle. `id` is reused by
/// a replacement worker so thread names stay within `hero-worker-0..N`.
fn spawn_worker(shared: &Arc<Shared>, id: usize) -> std::io::Result<()> {
    let for_thread = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("hero-worker-{id}"))
        .spawn(move || {
            let guard = RespawnGuard {
                shared: Arc::clone(&for_thread),
                id,
            };
            worker_loop(&for_thread);
            drop(guard);
        })?;
    shared.alive.fetch_add(1, Ordering::AcqRel);
    plock(&shared.handles).push(handle);
    Ok(())
}

/// Armed inside every worker thread. On drop it retires the worker from
/// the alive count; if the thread is *panicking* (a worker death, not a
/// shutdown) and the pool is not shutting down, it spawns a replacement —
/// this is the self-healing path.
struct RespawnGuard {
    shared: Arc<Shared>,
    id: usize,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        self.shared.alive.fetch_sub(1, Ordering::AcqRel);
        if !std::thread::panicking() {
            return; // graceful shutdown exit
        }
        // Checked under the queue lock — the same lock Executor::drop
        // sets `shutdown` under — so either we observe the shutdown and
        // stand down, or drop's handle-drain loop observes our pushed
        // replacement handle.
        if plock(&self.shared.queue).shutdown {
            return;
        }
        self.shared.respawned.fetch_add(1, Ordering::Relaxed);
        // Spawn failure (resource exhaustion) is unrecoverable from a
        // dying thread; the pool shrinks by one rather than aborting.
        let _ = spawn_worker(&self.shared, self.id);
    }
}

impl Executor {
    /// Spawns a persistent pool of `workers` named threads
    /// (`hero-worker-0` … `hero-worker-{N-1}`).
    ///
    /// # Errors
    ///
    /// [`GraphError::ZeroWorkers`] when `workers == 0` — a pool with no
    /// threads could never complete a submission.
    pub fn new(workers: usize) -> Result<Self, GraphError> {
        if workers == 0 {
            return Err(GraphError::ZeroWorkers);
        }
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                items: VecDeque::new(),
                shutdown: false,
            }),
            queued: AtomicUsize::new(0),
            available: Condvar::new(),
            handles: Mutex::new(Vec::with_capacity(workers)),
            alive: AtomicUsize::new(0),
            respawned: AtomicU64::new(0),
        });
        for i in 0..workers {
            spawn_worker(&shared, i).expect("spawn executor worker thread");
        }
        Ok(Self {
            shared,
            workers,
            submitted: AtomicU64::new(0),
        })
    }

    /// Number of worker threads the pool is configured for (its healed
    /// steady-state size).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Workers currently running their loop. Equals [`Executor::workers`]
    /// in steady state; dips transiently while a dead worker's
    /// replacement spawns.
    pub fn alive_workers(&self) -> usize {
        self.shared.alive.load(Ordering::Acquire)
    }

    /// Total workers respawned after deaths over the pool's lifetime
    /// (zero unless fault injection — or a bug — killed a worker).
    pub fn respawned_workers(&self) -> u64 {
        self.shared.respawned.load(Ordering::Relaxed)
    }

    /// Submissions accepted over the executor's lifetime (for tests and
    /// observability).
    pub fn submissions(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Validates `graph` and executes every node on the shared worker
    /// pool, blocking until the submission completes. Concurrent `run`
    /// calls from different threads proceed as independent submissions
    /// whose ready nodes interleave on the same workers.
    ///
    /// An empty graph is a no-op. Called from one of this executor's own
    /// worker threads (a nested submission), the caller helps drain the
    /// queue instead of parking, so nesting cannot deadlock the pool.
    ///
    /// # Errors
    ///
    /// [`GraphError::CycleDetected`] if the dependency relation is cyclic
    /// (no node runs in that case).
    ///
    /// # Panics
    ///
    /// Re-raises the first panic from a node closure — with its original
    /// payload — once the submission has quiesced; remaining unstarted
    /// nodes of that submission are cancelled. Other submissions and the
    /// pool itself are unaffected.
    pub fn run(&self, graph: TaskGraph<'_>) -> Result<(), GraphError> {
        let TaskGraph { nodes, edges } = graph;
        let n = nodes.len();
        if n == 0 {
            return Ok(());
        }

        let dependents = Dependents::new(n, &edges);
        let mut indegree = vec![0usize; n];
        for &(_, node) in &edges {
            indegree[node] += 1;
        }
        drop(edges);
        // Kahn dry-run on a copy: refuse cyclic graphs before any node runs.
        {
            let mut remaining = indegree.clone();
            let mut queue: Vec<usize> = (0..n).filter(|&i| remaining[i] == 0).collect();
            let mut seen = 0usize;
            while let Some(i) = queue.pop() {
                seen += 1;
                for &j in dependents.of(i) {
                    remaining[j] -= 1;
                    if remaining[j] == 0 {
                        queue.push(j);
                    }
                }
            }
            if seen != n {
                return Err(GraphError::CycleDetected);
            }
        }

        let pending: Vec<AtomicUsize> = indegree.into_iter().map(AtomicUsize::new).collect();
        let closures: Vec<Mutex<Option<ErasedFn>>> = nodes
            .into_iter()
            // SAFETY: the erased closure may borrow data with lifetime
            // 'a of the submitted graph. This function does not return
            // until `Submission::complete` holds — every closure was
            // executed or is dropped below, and `running == 0` proves no
            // worker still holds one — so no closure (or its captured
            // borrows) is ever touched after `run` returns.
            .map(|node| {
                Mutex::new(Some(unsafe {
                    std::mem::transmute::<
                        Box<dyn FnOnce() + Send + '_>,
                        Box<dyn FnOnce() + Send + 'static>,
                    >(node)
                }))
            })
            .collect();
        let sub = Arc::new(Submission {
            n,
            pending,
            dependents,
            closures,
            progress: Mutex::new(Progress {
                finished: 0,
                running: 0,
                poisoned: false,
                payload: None,
            }),
            finished_cv: Condvar::new(),
        });
        self.submitted.fetch_add(1, Ordering::Relaxed);

        {
            let mut q = plock(&self.shared.queue);
            for i in 0..n {
                if sub.pending[i].load(Ordering::Relaxed) == 0 {
                    q.items.push_back((Arc::clone(&sub), i));
                }
            }
            self.shared.publish_len(&q);
        }
        self.shared.available.notify_all();

        let on_own_pool =
            CURRENT_POOL.with(|p| p.get()) == Arc::as_ptr(&self.shared) as *const () as usize;
        if on_own_pool {
            self.help_until_complete(&sub);
        } else {
            let mut p = plock(&sub.progress);
            while !Submission::complete(&p, sub.n) {
                p = sub
                    .finished_cv
                    .wait(p)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        // The submission has quiesced: drop closures cancelled by a
        // poison purge (their captured borrows die here, on the
        // submitting thread, while still alive) and re-raise any panic.
        let payload = plock(&sub.progress).payload.take();
        for slot in &sub.closures {
            drop(plock(slot).take());
        }
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
        Ok(())
    }

    /// Nested-submission wait: drain ready nodes (of any submission)
    /// until `sub` completes, so a worker blocking on its own pool keeps
    /// the pool making progress.
    fn help_until_complete(&self, sub: &Arc<Submission>) {
        loop {
            {
                let p = plock(&sub.progress);
                if Submission::complete(&p, sub.n) {
                    return;
                }
            }
            let item = {
                let mut q = plock(&self.shared.queue);
                claim_next(&self.shared, &mut q)
            };
            match item {
                Some((s, idx)) => run_node(&self.shared, &s, idx),
                None => {
                    // Our nodes are running on (or blocked behind) other
                    // workers; park briefly on the completion signal and
                    // re-poll the queue for late-ready work.
                    let p = plock(&sub.progress);
                    if Submission::complete(&p, sub.n) {
                        return;
                    }
                    let _ = sub
                        .finished_cv
                        .wait_timeout(p, Duration::from_micros(200))
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }
}

impl Drop for Executor {
    /// Graceful shutdown: signal, then join every worker — including
    /// replacements a dying worker spawns concurrently with this drop
    /// (the drain loop repeats until no handle is left, and the respawn
    /// guard checks `shutdown` under the queue lock before spawning).
    /// Callers hold no outstanding submissions at this point (`run`
    /// borrows the executor for its full duration), so the queue is
    /// already empty.
    fn drop(&mut self) {
        {
            let mut q = plock(&self.shared.queue);
            q.shutdown = true;
        }
        self.shared.available.notify_all();
        loop {
            let batch: Vec<JoinHandle<()>> = {
                let mut handles = plock(&self.shared.handles);
                handles.drain(..).collect()
            };
            if batch.is_empty() {
                return;
            }
            for t in batch {
                let _ = t.join();
            }
        }
    }
}

/// Pops the next runnable node, claiming it (`running += 1`) under the
/// queue lock — the same lock a poison purge holds — so a purge observes
/// either "still queued" (and removes it) or "already running" (and
/// waits for it via the `running` count). Skips nodes of already
/// poisoned submissions.
fn claim_next(shared: &Shared, q: &mut Queue) -> Option<(Arc<Submission>, usize)> {
    while let Some((sub, idx)) = q.items.pop_front() {
        let mut p = plock(&sub.progress);
        if p.poisoned {
            p.finished += 1;
            let done = Submission::complete(&p, sub.n);
            drop(p);
            if done {
                sub.finished_cv.notify_all();
            }
            continue;
        }
        p.running += 1;
        drop(p);
        shared.publish_len(q);
        return Some((sub, idx));
    }
    shared.publish_len(q);
    None
}

/// Executes one claimed node: run the closure, then either release its
/// dependents into the queue or — on panic — poison the submission and
/// purge its queued nodes.
fn run_node(shared: &Shared, sub: &Arc<Submission>, idx: usize) {
    let run = plock(&sub.closures[idx])
        .take()
        .expect("node scheduled exactly once");
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(()) => {
            let mut newly = Vec::new();
            for &d in sub.dependents.of(idx) {
                if sub.pending[d].fetch_sub(1, Ordering::AcqRel) == 1 {
                    newly.push(d);
                }
            }
            let pushed = !newly.is_empty();
            {
                let mut q = plock(&shared.queue);
                let mut p = plock(&sub.progress);
                if !p.poisoned {
                    for d in newly {
                        q.items.push_back((Arc::clone(sub), d));
                    }
                    shared.publish_len(&q);
                }
                p.running -= 1;
                p.finished += 1;
                if Submission::complete(&p, sub.n) {
                    sub.finished_cv.notify_all();
                }
            }
            if pushed {
                shared.available.notify_all();
            }
        }
        Err(payload) => {
            let mut q = plock(&shared.queue);
            let before = q.items.len();
            q.items.retain(|(s, _)| !Arc::ptr_eq(s, sub));
            shared.publish_len(&q);
            let purged = before - q.items.len();
            let mut p = plock(&sub.progress);
            p.poisoned = true;
            p.payload.get_or_insert(payload);
            p.running -= 1;
            p.finished += purged + 1;
            drop(p);
            drop(q);
            sub.finished_cv.notify_all();
        }
    }
}

/// Worker thread body: tag the thread with its pool identity, then claim
/// and run nodes until shutdown.
///
/// The two [`chaos`] fault points fire at the top of each iteration,
/// before the worker claims a node and outside every lock:
/// [`chaos::WORKER_CLAIM`] may panic (killing the worker — the respawn
/// guard heals the pool, and no submission is affected because nothing
/// was claimed), [`chaos::QUEUE_STALL`] may sleep (a stalled worker —
/// other workers keep draining the queue).
///
/// A worker that finds the queue empty polls once, for at most
/// [`IDLE_POLL`] and outside the lock, then claims under the lock again;
/// only if that finds nothing either does it park. Shutdown is checked
/// under the lock after the poll, so a dropped pool waits out at most one
/// window, and no wake-up is lost: the last look before `wait` is taken
/// under the lock that every push holds.
fn worker_loop(shared: &Arc<Shared>) {
    CURRENT_POOL.with(|p| p.set(Arc::as_ptr(shared) as *const () as usize));
    loop {
        chaos::at(chaos::WORKER_CLAIM);
        chaos::at(chaos::QUEUE_STALL);
        let item = {
            let mut q = plock(&shared.queue);
            let mut polled = false;
            loop {
                if q.shutdown {
                    return;
                }
                if let Some(item) = claim_next(shared, &mut q) {
                    break item;
                }
                if polled {
                    q = shared
                        .available
                        .wait(q)
                        .unwrap_or_else(PoisonError::into_inner);
                } else {
                    drop(q);
                    shared.poll_for_work();
                    polled = true;
                    q = plock(&shared.queue);
                }
            }
        };
        run_node(shared, &item.0, item.1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Instant;

    /// Hook installation is process-global; serialize tests that use it.
    fn chaos_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Polls until the pool has healed back to `n` live workers after
    /// `respawns` deaths. The live count alone is not enough: a dying
    /// worker leaves it only once its unwind reaches the respawn hook,
    /// which backtrace capture (`RUST_BACKTRACE=1`) delays, so the count
    /// can still read `n` before any death has been accounted for.
    fn wait_for_pool(pool: &Executor, n: usize, respawns: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.alive_workers() != n || pool.respawned_workers() != respawns {
            assert!(
                Instant::now() < deadline,
                "pool never healed to {n} workers after {respawns} respawns"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn zero_workers_is_a_typed_error() {
        assert_eq!(Executor::new(0).unwrap_err(), GraphError::ZeroWorkers);
    }

    #[test]
    fn workers_are_named() {
        let pool = Executor::new(2).unwrap();
        let name = Mutex::new(String::new());
        let mut g = TaskGraph::new();
        g.task(|| {
            *name.lock().unwrap() = std::thread::current().name().unwrap_or("").to_string();
        });
        pool.run(g).unwrap();
        assert!(
            name.into_inner().unwrap().starts_with("hero-worker-"),
            "nodes must run on named pool threads"
        );
    }

    #[test]
    fn pool_survives_many_submissions() {
        let pool = Executor::new(3).unwrap();
        let count = AtomicUsize::new(0);
        for _ in 0..50 {
            let mut g = TaskGraph::new();
            let a = g.task(|| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            let b = g.task(|| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            g.depends_on(b, a);
            pool.run(g).unwrap();
        }
        assert_eq!(count.into_inner(), 100);
        assert_eq!(pool.submissions(), 50);
    }

    #[test]
    fn concurrent_submissions_share_the_workers() {
        // Two submissions from two caller threads: both complete, and
        // their nodes interleave on one 2-worker pool. A barrier inside
        // the first node of each submission proves nodes from *both*
        // submissions were in flight simultaneously — impossible if the
        // pool serialized whole submissions.
        let pool = Arc::new(Executor::new(2).unwrap());
        let rendezvous = Barrier::new(2);
        let done = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let pool = Arc::clone(&pool);
                let rendezvous = &rendezvous;
                let done = &done;
                scope.spawn(move || {
                    let mut g = TaskGraph::new();
                    let first = g.task(move || {
                        rendezvous.wait();
                    });
                    let second = g.task(move || {
                        done.fetch_add(1, Ordering::Relaxed);
                    });
                    g.depends_on(second, first);
                    pool.run(g).unwrap();
                });
            }
        });
        assert_eq!(done.into_inner(), 2);
    }

    #[test]
    fn panic_poisons_only_its_own_submission() {
        let pool = Arc::new(Executor::new(2).unwrap());
        let healthy_done = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let p1 = Arc::clone(&pool);
            scope.spawn(move || {
                let mut g = TaskGraph::new();
                g.task(|| panic!("stream A exploded"));
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    let _ = p1.run(g);
                }));
                let payload = caught.expect_err("panic must re-raise on the submitter");
                assert_eq!(
                    *payload.downcast_ref::<&str>().unwrap(),
                    "stream A exploded"
                );
            });
            let p2 = Arc::clone(&pool);
            let healthy_done = &healthy_done;
            scope.spawn(move || {
                let mut g = TaskGraph::new();
                for _ in 0..64 {
                    g.task(|| {
                        healthy_done.fetch_add(1, Ordering::Relaxed);
                    });
                }
                p2.run(g).unwrap();
            });
        });
        assert_eq!(healthy_done.into_inner(), 64, "stream B must be unaffected");

        // The pool stays usable after the poisoned submission.
        let after = AtomicUsize::new(0);
        let mut g = TaskGraph::new();
        g.task(|| {
            after.fetch_add(1, Ordering::Relaxed);
        });
        pool.run(g).unwrap();
        assert_eq!(after.into_inner(), 1);
    }

    #[test]
    fn poisoned_submission_cancels_unreached_nodes() {
        let pool = Executor::new(1).unwrap();
        let ran = AtomicUsize::new(0);
        let mut g = TaskGraph::new();
        let boom = g.task(|| panic!("first"));
        // Dependents of the panicking node must never run.
        for _ in 0..8 {
            let t = g.task(|| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
            g.depends_on(t, boom);
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _ = pool.run(g);
        }));
        assert!(result.is_err());
        assert_eq!(ran.into_inner(), 0);
    }

    #[test]
    fn nested_submission_from_a_worker_completes() {
        // A node submits a sub-graph onto its own pool and waits: the
        // worker helps drain the queue, so even a 1-worker pool finishes.
        let pool = Arc::new(Executor::new(1).unwrap());
        let inner_ran = AtomicUsize::new(0);
        let mut g = TaskGraph::new();
        {
            let pool = Arc::clone(&pool);
            let inner_ran = &inner_ran;
            g.task(move || {
                let mut inner = TaskGraph::new();
                let a = inner.task(|| {
                    inner_ran.fetch_add(1, Ordering::Relaxed);
                });
                let b = inner.task(|| {
                    inner_ran.fetch_add(1, Ordering::Relaxed);
                });
                inner.depends_on(b, a);
                pool.run(inner).unwrap();
            });
        }
        pool.run(g).unwrap();
        assert_eq!(inner_ran.into_inner(), 2);
    }

    #[test]
    fn cycles_rejected_before_any_node_runs() {
        let pool = Executor::new(2).unwrap();
        let ran = AtomicUsize::new(0);
        let mut g = TaskGraph::new();
        let a = g.task(|| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        let b = g.task(|| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        g.depends_on(a, b);
        g.depends_on(b, a);
        assert_eq!(pool.run(g).unwrap_err(), GraphError::CycleDetected);
        assert_eq!(ran.into_inner(), 0);
    }

    #[test]
    fn empty_graph_is_a_noop() {
        let pool = Executor::new(2).unwrap();
        pool.run(TaskGraph::new()).unwrap();
        assert_eq!(pool.submissions(), 0);
    }

    #[test]
    fn drop_joins_workers() {
        // No hang on drop, repeatedly, including right after work.
        for _ in 0..4 {
            let pool = Executor::new(4).unwrap();
            let mut g = TaskGraph::new();
            for _ in 0..16 {
                g.task(|| {});
            }
            pool.run(g).unwrap();
            drop(pool);
        }
    }

    #[test]
    fn full_pool_starts_alive() {
        let pool = Executor::new(3).unwrap();
        assert_eq!(pool.alive_workers(), 3);
        assert_eq!(pool.respawned_workers(), 0);
    }

    #[test]
    fn killed_workers_respawn_and_work_completes() {
        let _g = chaos_lock();
        let pool = Executor::new(4).unwrap();
        // Kill exactly 2 workers: each hook hit decrements the budget
        // and panics while it stays non-negative. Bounded so respawned
        // replacements do not die in a loop.
        let deaths = Arc::new(AtomicUsize::new(2));
        let budget = Arc::clone(&deaths);
        // The hook is process-global and the pools of the tests running
        // beside this one pass the same point: only this pool's workers
        // may spend the budget, or the deaths counted below happen
        // elsewhere.
        let this_pool = Arc::as_ptr(&pool.shared) as *const () as usize;
        crate::chaos::install(Arc::new(move |point| {
            if point == crate::chaos::WORKER_CLAIM
                && CURRENT_POOL.with(|p| p.get()) == this_pool
                && budget
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                    .is_ok()
            {
                panic!("injected worker death");
            }
        }));
        let count = AtomicUsize::new(0);
        let mut g = TaskGraph::new();
        for _ in 0..256 {
            g.task(|| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.run(g).unwrap();
        crate::chaos::clear();
        assert_eq!(count.into_inner(), 256, "submission must survive deaths");
        assert_eq!(deaths.load(Ordering::SeqCst), 0, "both deaths must fire");
        wait_for_pool(&pool, 4, 2);
        assert_eq!(pool.respawned_workers(), 2);
        // The healed pool still runs work.
        let after = AtomicUsize::new(0);
        let mut g = TaskGraph::new();
        for _ in 0..16 {
            g.task(|| {
                after.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.run(g).unwrap();
        assert_eq!(after.into_inner(), 16);
    }

    #[test]
    fn stall_point_delays_without_killing() {
        let _g = chaos_lock();
        let pool = Executor::new(2).unwrap();
        let stalls = Arc::new(AtomicUsize::new(2));
        let budget = Arc::clone(&stalls);
        crate::chaos::install(Arc::new(move |point| {
            if point == crate::chaos::QUEUE_STALL
                && budget
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                    .is_ok()
            {
                std::thread::sleep(Duration::from_millis(20));
            }
        }));
        let count = AtomicUsize::new(0);
        let mut g = TaskGraph::new();
        for _ in 0..32 {
            g.task(|| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.run(g).unwrap();
        crate::chaos::clear();
        assert_eq!(count.into_inner(), 32);
        assert_eq!(pool.alive_workers(), 2, "stalls must not kill workers");
        assert_eq!(pool.respawned_workers(), 0);
    }

    #[test]
    fn drop_with_concurrent_deaths_does_not_hang() {
        let _g = chaos_lock();
        // Workers die on (nearly) every claim attempt while the pool is
        // dropped: the shutdown check in the respawn guard and the
        // handle-drain loop in Drop must converge, never deadlock.
        for _ in 0..8 {
            let pool = Executor::new(4).unwrap();
            let budget = Arc::new(AtomicUsize::new(3));
            let b = Arc::clone(&budget);
            crate::chaos::install(Arc::new(move |point| {
                if point == crate::chaos::WORKER_CLAIM
                    && b.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                        .is_ok()
                {
                    panic!("injected worker death");
                }
            }));
            // Poke the pool so workers wake and some die mid-drop.
            let mut g = TaskGraph::new();
            for _ in 0..8 {
                g.task(|| {});
            }
            pool.run(g).unwrap();
            drop(pool);
            crate::chaos::clear();
        }
    }
}
