//! Deterministic fault injection: named fault points on the hot seams,
//! fired by a seeded, reproducible schedule.
//!
//! ## Why deterministic
//!
//! PR-by-PR robustness hardening only sticks if the faults that found a
//! bug can be *replayed*. Every fault decision here is a pure function of
//! `(seed, point, per-spec evaluation index)` — no wall clock, no OS
//! randomness — so a failing chaos run reproduces from its `HERO_FAULTS`
//! string alone, across machines and across `--release`/debug builds.
//!
//! ## The schedule grammar
//!
//! A plan is installed from a spec string (usually the `HERO_FAULTS`
//! environment variable, see [`init_from_env`]):
//!
//! ```text
//! HERO_FAULTS="seed:7,spec:executor.worker.claim@0.02/4,spec:server.write.slow@0.1*5ms"
//! ```
//!
//! Comma-separated tokens: one optional `seed:<u64>` and any number of
//! `spec:<point>@<probability>[/<max-fires>][*<delay>ms]` entries. A spec
//! *with* a `*<delay>ms` suffix injects latency (a sleep at the point);
//! one *without* injects a **failure** — what a failure means is defined
//! by the call site (an I/O error, a dropped connection, a worker
//! panic). `<probability>` is per evaluation in `[0, 1]`; `/<max-fires>`
//! caps the total fires of the spec (essential for worker-death specs,
//! which would otherwise kill every respawned replacement forever).
//!
//! ## Zero cost when disabled
//!
//! Every call site goes through [`fire`], whose disabled path is a single
//! relaxed atomic load and a predictable branch — the fault machinery is
//! compiled into release builds so the chaos suite exercises the exact
//! binary that ships, at no measurable cost to production traffic.
//!
//! ## Fault-point catalog
//!
//! Core and executor points are the constants below; `hero-server` adds
//! its own (connection drops, partial/slow writes, keystore I/O — see
//! that crate). [`install`] also wires the [`hero_task_graph::chaos`]
//! hook so executor points participate in the same schedule.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Duration;

/// Executor point: a fired **fail** spec kills the worker thread (which
/// the pool respawns). See [`hero_task_graph::chaos::WORKER_CLAIM`].
pub const EXECUTOR_WORKER_CLAIM: &str = hero_task_graph::chaos::WORKER_CLAIM;

/// Executor point: intended for **delay** specs — a stalled worker. See
/// [`hero_task_graph::chaos::QUEUE_STALL`].
pub const EXECUTOR_QUEUE_STALL: &str = hero_task_graph::chaos::QUEUE_STALL;

/// Batch-planner point, evaluated once per stage node (FORS tree group,
/// T_k compression, subtree treehash, WOTS+ chain group). **Delay**
/// specs model slow hash hardware; **fail** specs panic the node, which
/// poisons only its own submission (the service answers the batch with a
/// typed internal error and keeps serving).
pub const PLAN_STAGE: &str = "plan.stage";

/// Hypertree-memoization point, evaluated on cache fills *and* hits. A
/// fired **fail** spec at fill time drops the freshly built subtree (the
/// signature still completes from the fresh nodes — the next sign pays
/// cold again); at hit time it force-evicts the key and serves a miss.
/// Either way signing degrades to cold cost, never errors. **Delay**
/// specs model a slow cache tier.
pub const HYPERTREE_CACHE: &str = "hypertree.cache";

/// What a matched spec does at its point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// The call site's failure behavior (I/O error, dropped connection,
    /// worker panic — defined where the point is announced).
    Fail,
    /// Sleep this long at the point, then continue normally.
    Delay(Duration),
}

/// One parsed schedule entry: fire `action` at `point` with
/// `probability` per evaluation, at most `max_fires` times.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// The fault-point name this spec matches (exact string equality).
    pub point: String,
    /// Per-evaluation fire probability in `[0, 1]`.
    pub probability: f64,
    /// Lifetime cap on fires; `None` is unbounded.
    pub max_fires: Option<u64>,
    /// What firing does.
    pub action: FaultAction,
}

/// A full fault schedule: the seed plus every spec.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed of the deterministic decision stream.
    pub seed: u64,
    /// The schedule entries.
    pub specs: Vec<FaultSpec>,
}

/// A `HERO_FAULTS` string that could not be parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultParseError(String);

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultParseError {}

impl FaultPlan {
    /// Parses the schedule grammar (see the module docs).
    ///
    /// # Errors
    ///
    /// [`FaultParseError`] naming the offending token.
    pub fn parse(text: &str) -> Result<Self, FaultParseError> {
        let mut seed = 0u64;
        let mut specs = Vec::new();
        for token in text.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            if let Some(v) = token.strip_prefix("seed:") {
                seed = v
                    .trim()
                    .parse()
                    .map_err(|_| FaultParseError(format!("bad seed {v:?}")))?;
            } else if let Some(v) = token.strip_prefix("spec:") {
                specs.push(Self::parse_spec(v.trim())?);
            } else {
                return Err(FaultParseError(format!(
                    "unknown token {token:?} (expected seed:… or spec:…)"
                )));
            }
        }
        if specs.is_empty() {
            return Err(FaultParseError("no spec: entries".to_string()));
        }
        Ok(Self { seed, specs })
    }

    /// One `point@prob[/max][*delayms]` entry.
    fn parse_spec(text: &str) -> Result<FaultSpec, FaultParseError> {
        let (point, rest) = text
            .split_once('@')
            .ok_or_else(|| FaultParseError(format!("spec {text:?} is missing @probability")))?;
        if point.is_empty() {
            return Err(FaultParseError(format!("spec {text:?} has an empty point")));
        }
        let (rest, action) = match rest.split_once('*') {
            Some((head, delay)) => {
                let ms: u64 = delay
                    .strip_suffix("ms")
                    .and_then(|d| d.parse().ok())
                    .ok_or_else(|| {
                        FaultParseError(format!("bad delay {delay:?} (expected <u64>ms)"))
                    })?;
                (head, FaultAction::Delay(Duration::from_millis(ms)))
            }
            None => (rest, FaultAction::Fail),
        };
        let (prob, max_fires) = match rest.split_once('/') {
            Some((p, m)) => {
                let max = m
                    .parse()
                    .map_err(|_| FaultParseError(format!("bad max-fires {m:?}")))?;
                (p, Some(max))
            }
            None => (rest, None),
        };
        let probability: f64 = prob
            .parse()
            .map_err(|_| FaultParseError(format!("bad probability {prob:?}")))?;
        if !(0.0..=1.0).contains(&probability) {
            return Err(FaultParseError(format!(
                "probability {probability} outside [0, 1]"
            )));
        }
        Ok(FaultSpec {
            point: point.to_string(),
            probability,
            max_fires,
            action,
        })
    }

    /// A human-readable one-line rendering (banner, logs, tests).
    pub fn describe(&self) -> String {
        let specs: Vec<String> = self
            .specs
            .iter()
            .map(|s| {
                let max = s.max_fires.map(|m| format!("/{m}")).unwrap_or_default();
                let action = match s.action {
                    FaultAction::Fail => String::new(),
                    FaultAction::Delay(d) => format!("*{}ms", d.as_millis()),
                };
                format!("{}@{}{max}{action}", s.point, s.probability)
            })
            .collect();
        format!("seed:{} {}", self.seed, specs.join(" "))
    }
}

/// One installed spec plus its live counters.
struct SpecState {
    spec: FaultSpec,
    /// Fire when the mixed decision value is below this (probability
    /// scaled to the u64 range).
    threshold: u64,
    /// Stream offset: hash of the point name, mixed with the seed.
    stream: u64,
    evals: AtomicU64,
    fired: AtomicU64,
}

struct PlanState {
    plan: FaultPlan,
    specs: Vec<SpecState>,
}

/// Fast-path gate: `true` only while a plan is installed.
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn state_slot() -> &'static RwLock<Option<Arc<PlanState>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<PlanState>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// FNV-1a 64 of `s` — the per-point stream selector.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// splitmix64 finalizer: the deterministic decision mix.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Installs `plan` process-wide (replacing any previous plan) and wires
/// the executor's [`hero_task_graph::chaos`] hook into the same
/// schedule: a fired **fail** spec at an executor point panics the
/// worker (which the pool respawns); **delay** specs sleep.
pub fn install(plan: FaultPlan) {
    let specs = plan
        .specs
        .iter()
        .map(|spec| SpecState {
            threshold: if spec.probability >= 1.0 {
                u64::MAX
            } else {
                (spec.probability * u64::MAX as f64) as u64
            },
            stream: plan.seed ^ fnv1a(&spec.point),
            evals: AtomicU64::new(0),
            fired: AtomicU64::new(0),
            spec: spec.clone(),
        })
        .collect();
    *state_slot().write().unwrap_or_else(|e| e.into_inner()) =
        Some(Arc::new(PlanState { plan, specs }));
    ACTIVE.store(true, Ordering::Release);
    hero_task_graph::chaos::install(Arc::new(|point| {
        if fire(point) {
            panic!("injected fault: {point}");
        }
    }));
}

/// Uninstalls the plan (and the executor hook); [`fire`] returns to its
/// no-op fast path.
pub fn clear() {
    hero_task_graph::chaos::clear();
    ACTIVE.store(false, Ordering::Release);
    *state_slot().write().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Whether a fault plan is installed.
pub fn active() -> bool {
    ACTIVE.load(Ordering::Acquire)
}

/// Installs a plan from the `HERO_FAULTS` environment variable. Unset or
/// empty leaves injection disabled and returns `Ok(false)`; a parseable
/// plan is installed (`Ok(true)`).
///
/// # Errors
///
/// [`FaultParseError`] for a present-but-malformed value — callers should
/// refuse to start rather than run with a silently-ignored schedule.
pub fn init_from_env() -> Result<bool, FaultParseError> {
    match std::env::var("HERO_FAULTS") {
        Ok(v) if !v.trim().is_empty() => {
            install(FaultPlan::parse(&v)?);
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Evaluates fault point `point` against the installed plan. Sleeps
/// through any fired **delay** spec, then returns `true` iff a **fail**
/// spec fired — the call site decides what its failure looks like.
/// Disabled path: one relaxed atomic load.
#[inline]
pub fn fire(point: &str) -> bool {
    if !ACTIVE.load(Ordering::Acquire) {
        return false;
    }
    fire_slow(point)
}

#[cold]
fn fire_slow(point: &str) -> bool {
    let state = match &*state_slot().read().unwrap_or_else(|e| e.into_inner()) {
        Some(s) => Arc::clone(s),
        None => return false,
    };
    let mut fail = false;
    for s in state.specs.iter().filter(|s| s.spec.point == point) {
        let idx = s.evals.fetch_add(1, Ordering::Relaxed);
        if splitmix64(s.stream ^ idx.wrapping_mul(0x9e37_79b9_7f4a_7c15)) >= s.threshold {
            continue;
        }
        // Respect the lifetime cap atomically (respawned workers race
        // through worker-death specs).
        if let Some(max) = s.spec.max_fires {
            let claimed = s
                .fired
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                    (v < max).then_some(v + 1)
                })
                .is_ok();
            if !claimed {
                continue;
            }
        } else {
            s.fired.fetch_add(1, Ordering::Relaxed);
        }
        match s.spec.action {
            FaultAction::Fail => fail = true,
            FaultAction::Delay(d) => std::thread::sleep(d),
        }
    }
    fail
}

/// Shorthand for plan-stage call sites: panic (with a recognizable
/// payload) when a fail spec fires at `point`. The panic is confined by
/// the executor's submission poisoning.
#[inline]
pub fn stage(point: &'static str) {
    if fire(point) {
        panic!("injected fault: {point}");
    }
}

/// Total fires recorded for `point` across all specs (0 when disabled).
pub fn fired(point: &str) -> u64 {
    match &*state_slot().read().unwrap_or_else(|e| e.into_inner()) {
        Some(state) => state
            .specs
            .iter()
            .filter(|s| s.spec.point == point)
            .map(|s| s.fired.load(Ordering::Relaxed))
            .sum(),
        None => 0,
    }
}

/// Total fires across every spec (0 when disabled).
pub fn total_fired() -> u64 {
    match &*state_slot().read().unwrap_or_else(|e| e.into_inner()) {
        Some(state) => state
            .specs
            .iter()
            .map(|s| s.fired.load(Ordering::Relaxed))
            .sum(),
        None => 0,
    }
}

/// One-line description of the installed plan, if any (serve banner).
pub fn describe_active() -> Option<String> {
    state_slot()
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .map(|s| s.plan.describe())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Plan installation is process-global; serialize tests that use it.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn parse_full_grammar() {
        let plan = FaultPlan::parse(
            "seed:7, spec:executor.worker.claim@0.02/4, spec:server.write.slow@0.1*5ms",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(
            plan.specs,
            vec![
                FaultSpec {
                    point: "executor.worker.claim".to_string(),
                    probability: 0.02,
                    max_fires: Some(4),
                    action: FaultAction::Fail,
                },
                FaultSpec {
                    point: "server.write.slow".to_string(),
                    probability: 0.1,
                    max_fires: None,
                    action: FaultAction::Delay(Duration::from_millis(5)),
                },
            ]
        );
        let shown = plan.describe();
        assert!(shown.contains("seed:7"), "{shown}");
        assert!(shown.contains("executor.worker.claim@0.02/4"), "{shown}");
        assert!(shown.contains("server.write.slow@0.1*5ms"), "{shown}");
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "seed:7",                 // no specs
            "spec:x",                 // no probability
            "spec:@0.5",              // empty point
            "spec:x@1.5",             // probability out of range
            "spec:x@0.5/lots",        // bad max
            "spec:x@0.5*soon",        // bad delay
            "bogus:1,spec:x@0.5",     // unknown token
            "seed:twelve,spec:x@0.5", // bad seed
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn same_seed_same_decisions() {
        let _g = lock();
        let decide = || {
            install(FaultPlan::parse("seed:99,spec:p@0.5").unwrap());
            let seq: Vec<bool> = (0..64).map(|_| fire("p")).collect();
            clear();
            seq
        };
        let a = decide();
        let b = decide();
        assert_eq!(a, b, "decision stream must be reproducible");
        assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f));
    }

    #[test]
    fn max_fires_caps_the_spec() {
        let _g = lock();
        install(FaultPlan::parse("seed:1,spec:p@1/3").unwrap());
        let fires = (0..100).filter(|_| fire("p")).count();
        assert_eq!(fires, 3);
        assert_eq!(fired("p"), 3);
        assert_eq!(total_fired(), 3);
        clear();
    }

    #[test]
    fn probability_zero_never_fires_and_one_always() {
        let _g = lock();
        install(FaultPlan::parse("seed:5,spec:never@0,spec:always@1").unwrap());
        assert!((0..200).all(|_| !fire("never")));
        assert!((0..200).all(|_| fire("always")));
        clear();
    }

    #[test]
    fn delay_specs_sleep_but_do_not_fail() {
        let _g = lock();
        install(FaultPlan::parse("seed:3,spec:slow@1*10ms").unwrap());
        let start = std::time::Instant::now();
        assert!(!fire("slow"), "delay specs are not failures");
        assert!(start.elapsed() >= Duration::from_millis(10));
        clear();
    }

    #[test]
    fn disabled_is_inert() {
        let _g = lock();
        clear();
        assert!(!active());
        assert!(!fire("anything"));
        assert_eq!(total_fired(), 0);
        assert_eq!(describe_active(), None);
    }

    #[test]
    fn install_wires_the_executor_hook() {
        let _g = lock();
        install(FaultPlan::parse("seed:4,spec:executor.worker.claim@1/1").unwrap());
        assert!(hero_task_graph::chaos::active());
        clear();
        assert!(!hero_task_graph::chaos::active());
    }
}
