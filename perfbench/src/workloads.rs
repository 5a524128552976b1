//! The four workloads. Each drives the program only through public
//! functions, with the engine's default configuration, on inputs made
//! from `--seed`; each checks every output it can (verdicts at once,
//! every 16th signature against the scalar oracle after the timed phase).
//!
//! All are closed loops: a caller sends its next request when the
//! previous one has been answered, which is how callers of a signing
//! library and of a blocking client behave.

use crate::gen::{self, Msg};
use crate::host;
use crate::names::Metrics;
use crate::spans::{At, SpanLog};
use crate::stats;

use hero_gpu_sim::device::rtx_4090;
use hero_server::client::Client;
use hero_server::keystore::KeyStore;
use hero_server::server::{hero_engine_factory, Server, ServerConfig};
use hero_sign::{CacheStats, HeroSigner};
use hero_sphincs::params::Params;
use hero_sphincs::sha256::Sha256;
use hero_sphincs::sign::{Signature, SigningKey, VerifyingKey};

use std::time::{Duration, Instant};

/// Signatures or verifications per batch call: the paper's batch size
/// for latency-sensitive pipelines and the service's default `max_batch`.
pub const BATCH: usize = 64;

/// One signature in this many is compared with the scalar oracle.
const ORACLE_EVERY: u64 = 16;

/// One corpus entry in this many is invalid (`batch_verify`).
const INVALID_EVERY: usize = 16;

/// One cycle in this many also sends a tampered signature (`wire_mixed`).
const TAMPER_EVERY: u64 = 8;

const TENANT: &str = "bench";

/// The counts a run uses besides its length. `--smoke` shrinks them all
/// so that a test can cover every code path in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Set-up runs at least `.0` times before the timed phase, then on
    /// until it has taken a second in all or run `.1` times; `setup_s`
    /// is the median. A set-up of milliseconds needs the many.
    pub setup_reps: (usize, usize),
    /// Warm-up batch calls of `batch_sign` (`batch_verify` runs twice as many).
    pub warm_batches: usize,
    /// Warm-up signs of `single_sign_cold`.
    pub warm_singles: usize,
    /// Warm-up cycles of each `wire_mixed` connection.
    pub warm_cycles: usize,
    /// Batches in the `batch_verify` corpus.
    pub corpus_batches: usize,
    /// Keys per `single_sign_cold` epoch.
    pub epoch_keys: usize,
    /// Single requests the ladder replays through the lower layers.
    pub replay_singles: usize,
    /// Times the ladder replays a batched call (its figures are medians).
    pub replay_batches: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        setup_reps: (3, 40),
        warm_batches: 4,
        warm_singles: 128,
        warm_cycles: 16,
        corpus_batches: 4,
        epoch_keys: 256,
        replay_singles: 64,
        replay_batches: 3,
    };

    pub const SMOKE: Scale = Scale {
        setup_reps: (1, 2),
        warm_batches: 1,
        warm_singles: 4,
        warm_cycles: 2,
        corpus_batches: 1,
        epoch_keys: 16,
        replay_singles: 4,
        replay_batches: 1,
    };
}

/// The arguments of one run.
#[derive(Clone, Copy, Debug)]
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
}

/// When a phase ends.
#[derive(Clone, Copy)]
pub enum Stop {
    /// After this many calls (per connection on the wire): warm-up.
    Calls(usize),
    /// After this much time in calls (wall time on the wire): measurement.
    Seconds(f64),
}

/// What one phase of a workload did.
#[derive(Default)]
pub struct Phase {
    /// One sample per successful call, in ms.
    pub lat_ms: Vec<f64>,
    /// Calls made, successful or not.
    pub calls: usize,
    /// Signatures, verifications, or wire cycles completed.
    pub ops: u64,
    /// Operations whose output was checked or will be.
    pub attempted: u64,
    pub failed: u64,
    /// The time `ops` took: time inside calls for a single caller, the
    /// wall window for concurrent connections.
    pub active_s: f64,
    /// Process CPU over the same stretch.
    pub cpu_s: f64,
    /// Set-ups the phase had to run in between (s each).
    pub setups: Vec<f64>,
    /// Root span of each turn of the loop, when traced.
    pub roots: Vec<u32>,
    /// Span of each call the ladder may replay (on the wire: connection
    /// 0's signs first), when traced.
    pub replayable: Vec<u32>,
}

impl Phase {
    fn record(&mut self, elapsed: Duration, ops: u64, failed: u64) {
        self.calls += 1;
        self.ops += ops;
        self.attempted += ops;
        self.failed += failed;
        self.active_s += elapsed.as_secs_f64();
        // A failed operation is missing, not fast: no latency sample.
        if failed == 0 {
            self.lat_ms.push(elapsed.as_secs_f64() * 1e3);
        }
    }

    fn done(&self, stop: Stop) -> bool {
        match stop {
            Stop::Calls(n) => self.calls >= n,
            Stop::Seconds(s) => self.active_s >= s,
        }
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.active_s
    }
}

/// One turn of a workload's loop. When traced it is a root span whose
/// children are the calls into the program, so the root's self time is
/// the benchmark's own work: making inputs and keeping digests.
struct Turn<'a> {
    log: Option<&'a SpanLog>,
    root: u32,
    request: u64,
    start: Instant,
}

impl<'a> Turn<'a> {
    fn begin(log: Option<&'a SpanLog>, request: u64) -> Self {
        Self {
            log,
            root: log.map_or(0, SpanLog::open),
            request,
            start: Instant::now(),
        }
    }

    /// Times one call into the program; also returns its span, if any.
    fn call<R>(&self, name: &'static str, work: impl FnOnce() -> R) -> (R, Duration, Option<u32>) {
        match self.log {
            Some(log) => {
                let at = At {
                    parent: Some(self.root),
                    layer: "api",
                    ..At::root(self.request, name)
                };
                let (result, elapsed, id) = log.timed(at, work);
                (result, elapsed, Some(id))
            }
            None => {
                let start = Instant::now();
                let result = work();
                (result, start.elapsed(), None)
            }
        }
    }

    fn end(self, phase: &mut Phase) {
        if let Some(log) = self.log {
            log.close(
                self.root,
                At::root(self.request, "turn"),
                self.start,
                Instant::now(),
            );
            phase.roots.push(self.root);
        }
    }
}

type Digest = [u8; 32];

/// A signature kept for the oracle check: which key and message made it,
/// and the SHA-256 of its bytes.
struct Sample {
    key: u64,
    msg: Msg,
    digest: Digest,
}

fn digest_of(sig: &Signature) -> Digest {
    Sha256::digest(&sig.to_bytes(&Params::sphincs_128f()))
}

/// How many of `samples` differ from what the scalar signer
/// (`SigningKey::sign`) produces for the same key and message. Runs on
/// every hardware thread: the timed phase is over.
fn oracle_mismatches(samples: &[Sample], key_of: impl Fn(u64) -> SigningKey + Sync) -> u64 {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = samples.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = samples
            .chunks(chunk)
            .map(|part| {
                let key_of = &key_of;
                scope.spawn(move || {
                    part.iter()
                        .filter(|s| digest_of(&key_of(s.key).sign(&s.msg)) != s.digest)
                        .count() as u64
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("oracle thread does not panic"))
            .sum()
    })
}

pub fn default_engine() -> HeroSigner {
    // The default configuration: workers = available parallelism, default
    // cache; no tuning-cache directory, so nothing on disk changes set-up.
    // A fresh process would run the tuning search, so every set-up does.
    hero_sign::tuning::clear_tuning_cache();
    HeroSigner::builder(rtx_4090(), Params::sphincs_128f())
        .build()
        .expect("the default engine builds")
}

pub fn refs(msgs: &[Msg]) -> Vec<&[u8]> {
    msgs.iter().map(|m| &m[..]).collect()
}

/// What the layers a workload crossed counted while it ran.
#[derive(Default)]
pub struct Observed {
    pub cache: CacheStats,
    /// Graphs submitted to the executor.
    pub submissions: u64,
    pub wire: Option<WireObserved>,
}

#[derive(Default)]
pub struct WireObserved {
    pub sign_ms: Vec<f64>,
    pub verify_ms: Vec<f64>,
    pub metrics_page: String,
    pub reconnects: u64,
}

/// A workload, as the run driver sees it.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// The ladder replays one `BATCH`-sized call (true) or single calls.
    const BATCHED: bool;
    /// The workload signs with the key's upper hypertree layers cached.
    const HOT: bool;

    /// Everything before the first operation; timed as `setup_s`.
    fn setup(run: &Run) -> Self;
    fn warm_calls(scale: &Scale) -> usize;
    fn phase(&mut self, stop: Stop, log: Option<&SpanLog>) -> Phase;
    /// Checks kept outputs and the workload's invariants after the timed
    /// phases: `(failed operations, broken invariants)`.
    fn check(&mut self) -> (u64, Vec<String>);
    /// The first `count` requests of the latest traced phase (on the
    /// wire: connection 0's), for the ladder to replay.
    fn requests(&self, count: usize) -> Vec<(SigningKey, Msg)>;
    fn observed(&mut self) -> Observed;
}

// ---------------------------------------------------------------- batch_sign

pub struct BatchSign {
    seed: u64,
    engine: HeroSigner,
    sk: SigningKey,
    next_msg: u64,
    /// `next_msg` when the latest traced phase began.
    traced_from: u64,
    samples: Vec<Sample>,
}

impl Workload for BatchSign {
    const NAME: &'static str = "batch_sign";
    const BATCHED: bool = true;
    const HOT: bool = true;

    fn setup(run: &Run) -> Self {
        let engine = default_engine();
        let (sk, _) = gen::keypair(run.seed, 0);
        Self {
            seed: run.seed,
            engine,
            sk,
            next_msg: 0,
            traced_from: 0,
            samples: Vec::new(),
        }
    }

    fn warm_calls(scale: &Scale) -> usize {
        scale.warm_batches
    }

    fn phase(&mut self, stop: Stop, log: Option<&SpanLog>) -> Phase {
        let mut phase = Phase::default();
        if log.is_some() {
            self.traced_from = self.next_msg;
        }
        let cpu0 = host::cpu_seconds();
        while !phase.done(stop) {
            let first = self.next_msg;
            self.next_msg += BATCH as u64;
            let turn = Turn::begin(log, first / BATCH as u64);
            let msgs = gen::messages(self.seed, first, BATCH);
            let msg_refs = refs(&msgs);
            let (result, elapsed, span) =
                turn.call("sign_batch", || self.engine.sign_batch(&self.sk, &msg_refs));
            phase.replayable.extend(span);
            match result {
                Ok(sigs) if sigs.len() == BATCH => {
                    for (i, sig) in sigs.iter().enumerate() {
                        if (first + i as u64).is_multiple_of(ORACLE_EVERY) {
                            self.samples.push(Sample {
                                key: 0,
                                msg: msgs[i],
                                digest: digest_of(sig),
                            });
                        }
                    }
                    phase.record(elapsed, BATCH as u64, 0);
                }
                _ => phase.record(elapsed, BATCH as u64, BATCH as u64),
            }
            turn.end(&mut phase);
        }
        phase.cpu_s = host::cpu_seconds() - cpu0;
        phase
    }

    fn check(&mut self) -> (u64, Vec<String>) {
        let failed = oracle_mismatches(&self.samples, |_| self.sk.clone());
        self.samples.clear();
        (failed, no_evictions(&self.engine.cache_stats()))
    }

    fn requests(&self, count: usize) -> Vec<(SigningKey, Msg)> {
        gen::messages(self.seed, self.traced_from, count)
            .into_iter()
            .map(|m| (self.sk.clone(), m))
            .collect()
    }

    fn observed(&mut self) -> Observed {
        Observed {
            cache: self.engine.cache_stats(),
            submissions: self.engine.runtime().submissions(),
            wire: None,
        }
    }
}

fn no_evictions(cache: &CacheStats) -> Vec<String> {
    if cache.evictions == 0 {
        Vec::new()
    } else {
        vec![format!(
            "cache.evictions = {} (the working set must fit the default cache)",
            cache.evictions
        )]
    }
}

// ---------------------------------------------------------- single_sign_cold

/// Every key signs exactly once. Keys come in epochs: a fresh engine and
/// `epoch_keys` fresh keys, built outside the timed calls. The epoch
/// bounds what the cache and the key list hold, so `peak_rss_mb` does not
/// grow with how many signs fit the run, and every epoch's preparation is
/// one more `setup_s` sample.
pub struct SingleSignCold {
    seed: u64,
    epoch_keys: usize,
    engine: HeroSigner,
    keys: Vec<SigningKey>,
    /// Keys of this epoch already used.
    used: usize,
    /// Index of the epoch's first key in the run's key sequence.
    epoch_first: u64,
    /// Index of the first key of the latest traced phase.
    traced_from: u64,
    samples: Vec<Sample>,
    /// Cache counters and submissions of the engines of finished epochs.
    retired: Observed,
}

impl SingleSignCold {
    fn next_epoch(&mut self) {
        let old = self.observed();
        let first = self.epoch_first + self.keys.len() as u64;
        let fresh = Self::epoch(self.seed, self.epoch_keys, first);
        *self = Self {
            traced_from: self.traced_from,
            samples: std::mem::take(&mut self.samples),
            retired: old,
            ..fresh
        };
    }

    fn epoch(seed: u64, epoch_keys: usize, first: u64) -> Self {
        Self {
            seed,
            epoch_keys,
            engine: default_engine(),
            keys: (0..epoch_keys as u64)
                .map(|i| gen::keypair(seed, first + i).0)
                .collect(),
            used: 0,
            epoch_first: first,
            traced_from: 0,
            samples: Vec::new(),
            retired: Observed::default(),
        }
    }
}

impl Workload for SingleSignCold {
    const NAME: &'static str = "single_sign_cold";
    const BATCHED: bool = false;
    const HOT: bool = false;

    fn setup(run: &Run) -> Self {
        Self::epoch(run.seed, run.scale.epoch_keys, 0)
    }

    fn warm_calls(scale: &Scale) -> usize {
        scale.warm_singles
    }

    fn phase(&mut self, stop: Stop, log: Option<&SpanLog>) -> Phase {
        let mut phase = Phase::default();
        if log.is_some() {
            self.traced_from = self.epoch_first + self.used as u64;
        }
        let mut cpu0 = host::cpu_seconds();
        while !phase.done(stop) {
            if self.used == self.keys.len() {
                phase.cpu_s += host::cpu_seconds() - cpu0;
                let start = Instant::now();
                self.next_epoch();
                phase.setups.push(start.elapsed().as_secs_f64());
                cpu0 = host::cpu_seconds();
            }
            let index = self.epoch_first + self.used as u64;
            let sk = &self.keys[self.used];
            self.used += 1;
            let turn = Turn::begin(log, index);
            let msg = gen::message(self.seed, index);
            let (result, elapsed, span) = turn.call("sign", || self.engine.sign(sk, &msg));
            phase.replayable.extend(span);
            match result {
                Ok(sig) => {
                    if index.is_multiple_of(ORACLE_EVERY) {
                        self.samples.push(Sample {
                            key: index,
                            msg,
                            digest: digest_of(&sig),
                        });
                    }
                    phase.record(elapsed, 1, 0);
                }
                Err(_) => phase.record(elapsed, 1, 1),
            }
            turn.end(&mut phase);
        }
        phase.cpu_s += host::cpu_seconds() - cpu0;
        phase
    }

    fn check(&mut self) -> (u64, Vec<String>) {
        let seed = self.seed;
        let failed = oracle_mismatches(&self.samples, |key| gen::keypair(seed, key).0);
        self.samples.clear();
        let cache = self.observed().cache;
        let mut broken = no_evictions(&cache);
        if cache.hits != 0 {
            broken.push(format!(
                "cache.hits = {} (a key used once can never hit)",
                cache.hits
            ));
        }
        (failed, broken)
    }

    fn requests(&self, count: usize) -> Vec<(SigningKey, Msg)> {
        (self.traced_from..self.traced_from + count as u64)
            .map(|i| (gen::keypair(self.seed, i).0, gen::message(self.seed, i)))
            .collect()
    }

    fn observed(&mut self) -> Observed {
        let mut cache = self.engine.cache_stats();
        let resident_bytes = cache.resident_bytes;
        cache.merge(&self.retired.cache);
        // Retired engines hold nothing any more.
        cache.resident_bytes = resident_bytes;
        Observed {
            cache,
            submissions: self.retired.submissions + self.engine.runtime().submissions(),
            wire: None,
        }
    }
}

// --------------------------------------------------------------- batch_verify

pub struct BatchVerify {
    seed: u64,
    engine: HeroSigner,
    sk: SigningKey,
    vk: VerifyingKey,
    /// The message each entry claims to sign.
    msgs: Vec<Msg>,
    sigs: Vec<Signature>,
    valid: Vec<bool>,
    next_batch: usize,
    /// Corpus position of the latest traced phase's first batch.
    traced_from: usize,
    calls: u64,
}

/// Makes corpus entry `index` invalid, rotating through the three regions
/// of a signature and the message itself.
fn invalidate(seed: u64, index: usize, msg: &mut Msg, sig: &mut Signature) {
    let mut rng = gen::tamper_stream(seed, index as u64);
    let mut pick = |len: usize| rng.next_u64() as usize % len;
    let bit = 1u8 << pick(8);
    match (index / INVALID_EVERY) % 4 {
        0 => {
            let tree = pick(sig.fors.trees.len());
            let byte = pick(sig.fors.trees[tree].sk.len());
            sig.fors.trees[tree].sk[byte] ^= bit;
        }
        1 => {
            let layer = pick(sig.ht.layers.len());
            let chain = pick(sig.ht.layers[layer].wots_sig.len());
            let byte = pick(sig.ht.layers[layer].wots_sig[chain].len());
            sig.ht.layers[layer].wots_sig[chain][byte] ^= bit;
        }
        2 => {
            let layer = pick(sig.ht.layers.len());
            let node = pick(sig.ht.layers[layer].auth_path.len());
            let byte = pick(sig.ht.layers[layer].auth_path[node].len());
            sig.ht.layers[layer].auth_path[node][byte] ^= bit;
        }
        _ => msg[pick(msg.len())] ^= bit,
    }
}

impl Workload for BatchVerify {
    const NAME: &'static str = "batch_verify";
    const BATCHED: bool = true;
    const HOT: bool = true;

    fn setup(run: &Run) -> Self {
        let engine = default_engine();
        let (sk, vk) = gen::keypair(run.seed, 0);
        let mut msgs = gen::messages(run.seed, 0, run.scale.corpus_batches * BATCH);
        let mut sigs: Vec<Signature> = msgs
            .chunks(BATCH)
            .flat_map(|batch| {
                engine
                    .sign_batch(&sk, &refs(batch))
                    .expect("the corpus signs")
            })
            .collect();
        let valid: Vec<bool> = (0..msgs.len())
            .map(|i| i % INVALID_EVERY != INVALID_EVERY - 1)
            .collect();
        for i in (0..msgs.len()).filter(|&i| !valid[i]) {
            invalidate(run.seed, i, &mut msgs[i], &mut sigs[i]);
        }
        Self {
            seed: run.seed,
            engine,
            sk,
            vk,
            msgs,
            sigs,
            valid,
            next_batch: 0,
            traced_from: 0,
            calls: 0,
        }
    }

    fn warm_calls(scale: &Scale) -> usize {
        2 * scale.warm_batches
    }

    fn phase(&mut self, stop: Stop, log: Option<&SpanLog>) -> Phase {
        let mut phase = Phase::default();
        if log.is_some() {
            self.traced_from = self.next_batch * BATCH;
        }
        let cpu0 = host::cpu_seconds();
        while !phase.done(stop) {
            let at = self.next_batch * BATCH;
            self.next_batch = (self.next_batch + 1) % (self.msgs.len() / BATCH);
            let range = at..at + BATCH;
            let turn = Turn::begin(log, self.calls);
            self.calls += 1;
            let msg_refs = refs(&self.msgs[range.clone()]);
            let sigs = &self.sigs[range.clone()];
            let (result, elapsed, span) = turn.call("verify_batch", || {
                self.engine.verify_batch(&self.vk, &msg_refs, sigs)
            });
            phase.replayable.extend(span);
            let wrong = match result {
                Ok(verdicts) if verdicts.len() == BATCH => verdicts
                    .iter()
                    .zip(&self.valid[range])
                    .filter(|(verdict, valid)| verdict.is_valid() != **valid)
                    .count() as u64,
                _ => BATCH as u64,
            };
            phase.record(elapsed, BATCH as u64, wrong);
            turn.end(&mut phase);
        }
        phase.cpu_s = host::cpu_seconds() - cpu0;
        phase
    }

    fn check(&mut self) -> (u64, Vec<String>) {
        // Every verdict was checked as it arrived.
        (0, no_evictions(&self.engine.cache_stats()))
    }

    fn requests(&self, count: usize) -> Vec<(SigningKey, Msg)> {
        // The messages the batch's signatures were made from (an invalid
        // entry may claim another).
        gen::messages(self.seed, self.traced_from as u64, count)
            .into_iter()
            .map(|m| (self.sk.clone(), m))
            .collect()
    }

    fn observed(&mut self) -> Observed {
        Observed {
            // Verification consults no cache; what set-up's signing left
            // there is not this workload's.
            cache: CacheStats::default(),
            submissions: self.engine.runtime().submissions(),
            wire: None,
        }
    }
}

// ----------------------------------------------------------------- wire_mixed

pub struct WireMixed {
    seed: u64,
    server: Server,
    sk: SigningKey,
    conns: Vec<Conn>,
    /// Connection 0's next cycle when the latest traced phase began.
    traced_from: u64,
    observed: WireObserved,
}

struct Conn {
    client: Client,
    next_cycle: u64,
    samples: Vec<Sample>,
}

/// What one connection did in one phase.
#[derive(Default)]
struct ConnPhase {
    phase: Phase,
    sign_ms: Vec<f64>,
    verify_ms: Vec<f64>,
}

impl Conn {
    /// sign → verify (expect valid) → every 8th cycle verify a copy with
    /// one bit flipped (expect invalid). The call a user waits for is the
    /// sign and the verify of the genuine signature.
    fn cycles(
        &mut self,
        seed: u64,
        conn: u64,
        stop: Stop,
        deadline: Instant,
        log: Option<&SpanLog>,
    ) -> ConnPhase {
        let mut out = ConnPhase::default();
        loop {
            match stop {
                Stop::Calls(n) if out.phase.calls >= n => break,
                Stop::Seconds(_) if Instant::now() >= deadline => break,
                _ => {}
            }
            let cycle = self.next_cycle;
            self.next_cycle += 1;
            let request = conn << 40 | cycle;
            let turn = Turn::begin(log, request);
            let msg = gen::message(seed, request);
            let (signed, sign_time, span) =
                turn.call("Client::sign", || self.client.sign(TENANT, &msg));
            out.phase.replayable.extend(span);
            let (verdict, verify_time, _) = turn.call("Client::verify", || {
                signed
                    .as_ref()
                    .ok()
                    .map(|sig| self.client.verify(TENANT, &msg, sig))
            });

            let mut failed = 0;
            out.phase.attempted += 2;
            match (&signed, verdict) {
                (Ok(sig), Some(Ok(true))) => {
                    out.sign_ms.push(sign_time.as_secs_f64() * 1e3);
                    out.verify_ms.push(verify_time.as_secs_f64() * 1e3);
                    if request.is_multiple_of(ORACLE_EVERY) {
                        self.samples.push(Sample {
                            key: 0,
                            msg,
                            digest: Sha256::digest(sig),
                        });
                    }
                }
                (Ok(_), _) => failed += 1,
                (Err(_), _) => failed += 2,
            }
            if let (Ok(sig), true) = (&signed, cycle % TAMPER_EVERY == TAMPER_EVERY - 1) {
                let mut tampered = sig.clone();
                let at =
                    gen::tamper_stream(seed, request).next_u64() as usize % (tampered.len() * 8);
                tampered[at / 8] ^= 1 << (at % 8);
                out.phase.attempted += 1;
                let (answer, _, _) = turn.call("Client::verify", || {
                    self.client.verify(TENANT, &msg, &tampered)
                });
                if !matches!(answer, Ok(false)) {
                    failed += 1;
                }
            }
            turn.end(&mut out.phase);
            out.phase.calls += 1;
            out.phase.ops += 1;
            out.phase.failed += failed;
            if failed == 0 {
                out.phase
                    .lat_ms
                    .push((sign_time + verify_time).as_secs_f64() * 1e3);
            }
        }
        out
    }
}

impl Workload for WireMixed {
    const NAME: &'static str = "wire_mixed";
    const BATCHED: bool = false;
    const HOT: bool = true;

    fn setup(run: &Run) -> Self {
        let (sk, vk) = gen::keypair(run.seed, 0);
        let keystore = KeyStore::new();
        keystore
            .insert(TENANT, sk.clone(), vk)
            .expect("an empty keystore takes the tenant");
        hero_sign::tuning::clear_tuning_cache(); // as `default_engine` does
        let factory = hero_engine_factory(None).expect("the default factory builds");
        let server = Server::start(factory, keystore, ServerConfig::default())
            .expect("the server binds a loopback port");
        // Load comes from this one process: at most one connection per
        // hardware thread, or the generator would measure itself.
        let connections = std::thread::available_parallelism().map_or(1, |n| n.get());
        let conns = (0..connections)
            .map(|_| Conn {
                client: Client::connect(server.local_addr()).expect("loopback connects"),
                next_cycle: 0,
                samples: Vec::new(),
            })
            .collect();
        Self {
            seed: run.seed,
            server,
            sk,
            conns,
            traced_from: 0,
            observed: WireObserved::default(),
        }
    }

    fn warm_calls(scale: &Scale) -> usize {
        scale.warm_cycles
    }

    fn phase(&mut self, stop: Stop, log: Option<&SpanLog>) -> Phase {
        let seed = self.seed;
        if log.is_some() {
            self.traced_from = self.conns[0].next_cycle;
        }
        let cpu0 = host::cpu_seconds();
        let start = Instant::now();
        let deadline = match stop {
            Stop::Seconds(s) => start + Duration::from_secs_f64(s),
            Stop::Calls(_) => start,
        };
        let parts: Vec<ConnPhase> = std::thread::scope(|scope| {
            let threads: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    scope.spawn(move || conn.cycles(seed, c as u64, stop, deadline, log))
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("connection thread does not panic"))
                .collect()
        });
        let mut phase = Phase {
            active_s: start.elapsed().as_secs_f64(),
            cpu_s: host::cpu_seconds() - cpu0,
            ..Phase::default()
        };
        self.observed.sign_ms.clear();
        self.observed.verify_ms.clear();
        for part in parts {
            phase.lat_ms.extend(part.phase.lat_ms);
            phase.calls += part.phase.calls;
            phase.ops += part.phase.ops;
            phase.attempted += part.phase.attempted;
            phase.failed += part.phase.failed;
            phase.roots.extend(part.phase.roots);
            phase.replayable.extend(part.phase.replayable);
            self.observed.sign_ms.extend(part.sign_ms);
            self.observed.verify_ms.extend(part.verify_ms);
        }
        phase
    }

    fn check(&mut self) -> (u64, Vec<String>) {
        let samples: Vec<Sample> = self
            .conns
            .iter_mut()
            .flat_map(|c| c.samples.drain(..))
            .collect();
        let failed = oracle_mismatches(&samples, |_| self.sk.clone());
        let page = self.server.metrics_page();
        let mut broken = Vec::new();
        if scrape(&page, "hero_cache_evictions_total") != 0.0 {
            broken.push("hero_cache_evictions_total is not 0".to_string());
        }
        (failed, broken)
    }

    fn requests(&self, count: usize) -> Vec<(SigningKey, Msg)> {
        // Connection 0's request ids are its cycle numbers.
        gen::messages(self.seed, self.traced_from, count)
            .into_iter()
            .map(|m| (self.sk.clone(), m))
            .collect()
    }

    fn observed(&mut self) -> Observed {
        let page = self.server.metrics_page();
        let cache = CacheStats {
            hits: scrape(&page, "hero_cache_hits_total") as u64,
            misses: scrape(&page, "hero_cache_misses_total") as u64,
            evictions: scrape(&page, "hero_cache_evictions_total") as u64,
            resident_bytes: scrape(&page, "hero_cache_resident_bytes_total") as u64,
            ..CacheStats::default()
        };
        let mut wire = std::mem::take(&mut self.observed);
        wire.metrics_page = page;
        wire.reconnects = self.conns.iter().map(|c| c.client.reconnects()).sum();
        Observed {
            cache,
            // `hero_engine_factory(None)` runs on the process-wide pool.
            submissions: hero_sign::par::shared_executor().submissions(),
            wire: Some(wire),
        }
    }
}

/// The value of the metrics-page line that starts with `name` (labels
/// included, as in `hero_server_sign_latency_us{quantile="0.5"}`); 0 when
/// the page has no such line.
pub fn scrape(page: &str, name: &str) -> f64 {
    page.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or(0.0)
}

/// Sets the five end-to-end metrics from a measured phase.
pub fn end_to_end(metrics: &mut Metrics, phase: &Phase, setups: &[f64]) {
    let sorted = stats::sorted(&phase.lat_ms);
    metrics.set("setup_s", stats::median(setups));
    metrics.set("ops_per_s", phase.ops_per_s());
    metrics.set("call_p50_ms", stats::percentile(&sorted, 50.0));
    metrics.set("cpu_ms_per_op", phase.cpu_s * 1e3 / phase.ops.max(1) as f64);
    metrics.set("peak_rss_mb", host::peak_rss_mb());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_reads_plain_and_labelled_lines() {
        let page = "hero_cache_hits_total 42\n\
                    hero_server_sign_latency_us{quantile=\"0.5\"} 8123.5\n\
                    hero_server_sign_latency_us{quantile=\"0.9\"} 9000.0\n";
        assert_eq!(scrape(page, "hero_cache_hits_total"), 42.0);
        assert_eq!(
            scrape(page, "hero_server_sign_latency_us{quantile=\"0.5\"}"),
            8123.5
        );
        assert_eq!(scrape(page, "hero_cache_hits"), 0.0);
        assert_eq!(scrape(page, "absent"), 0.0);
    }

    #[test]
    fn failed_calls_leave_no_latency_sample() {
        let mut phase = Phase::default();
        phase.record(Duration::from_millis(4), 64, 0);
        phase.record(Duration::from_millis(400), 64, 3);
        assert_eq!(phase.lat_ms, vec![4.0]);
        assert_eq!((phase.ops, phase.attempted, phase.failed), (128, 128, 3));
        assert!(phase.done(Stop::Calls(2)) && !phase.done(Stop::Calls(3)));
        assert!(phase.done(Stop::Seconds(0.4)) && !phase.done(Stop::Seconds(0.5)));
    }

    #[test]
    fn every_invalidation_mode_breaks_the_signature_and_nothing_else() {
        let (sk, vk) = gen::keypair(5, 0);
        let msg = gen::message(5, 0);
        let sig = sk.sign(&msg);
        vk.verify(&msg, &sig).expect("the genuine pair verifies");
        for mode in 0..4 {
            let index = mode * INVALID_EVERY + INVALID_EVERY - 1;
            let (mut bad_msg, mut bad_sig) = (msg, sig.clone());
            invalidate(5, index, &mut bad_msg, &mut bad_sig);
            assert!((bad_msg != msg) != (bad_sig != sig), "mode {mode}");
            assert!(vk.verify(&bad_msg, &bad_sig).is_err(), "mode {mode}");
        }
    }
}
