//! The chaos soak: the whole stack — listener, wire v2 deadlines,
//! per-tenant services, shared executor — under a seeded fault schedule
//! covering worker deaths, queue stalls, slow plan stages, connection
//! drops, and partial/slow response writes. Traffic is mixed sign +
//! verify, so both planners (the sign stage graph, which also exercises
//! `hypertree.cache`, and the verify stage graph under `plan.stage`)
//! run inside the chaos window.
//!
//! Invariants checked per seed:
//!
//! 1. **Exactly once** — every request a client managed to get answered
//!    carries either an oracle-identical signature or a typed error
//!    from the allowed set (deadline, queue-full, tenant-busy); id
//!    mismatches or undecodable frames (the signature of a dropped or
//!    double answer) fail the test. Server-side, each tenant's request
//!    counter equals completed + rejected at quiescence.
//! 2. **Self-healing** — every injected worker death is matched by a
//!    respawn and the pool is back at full strength afterwards.
//! 3. **Recovery** — once the schedule is cleared, a clean burst of
//!    requests all succeed with oracle-identical bytes.
//!
//! `HERO_WORKERS` sizes the pool (CI runs 1 and 8); the three seeds are
//! pinned so failures reproduce exactly.

use hero_gpu_sim::device::rtx_4090;
use hero_server::client::{Client, ClientError};
use hero_server::keystore::KeyStore;
use hero_server::server::{Server, ServerConfig, SignerFactory};
use hero_server::ErrorCode;

use hero_sign::faults::{self, FaultAction, FaultPlan, FaultSpec};
use hero_sign::service::ServiceConfig;
use hero_sign::HeroSigner;
use hero_sphincs::hash::HashAlg;
use hero_sphincs::params::Params;
use hero_sphincs::sign::{SigningKey, VerifyingKey};
use hero_task_graph::Executor;

use std::sync::Arc;
use std::time::{Duration, Instant};

const SEEDS: [u64; 3] = [42, 0x5EED_0001, 0xA5A5_A5A5];
const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 30;
const RECOVERY_BURST: usize = 20;

fn tiny_params() -> Params {
    let mut p = Params::sphincs_128f();
    p.h = 6;
    p.d = 3;
    p.log_t = 4;
    p.k = 8;
    p
}

fn tenant_key(seed: u8) -> (SigningKey, VerifyingKey) {
    let p = tiny_params();
    hero_sphincs::keygen_from_seeds_with_alg(
        p,
        HashAlg::Sha256,
        vec![seed; p.n],
        vec![seed.wrapping_add(1); p.n],
        vec![seed.wrapping_add(2); p.n],
    )
}

fn pool_size() -> usize {
    std::env::var("HERO_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&w| w >= 1)
        .unwrap_or(4)
}

/// Like `hero_engine_factory`, but keeps a handle to the executor so
/// the test can watch the pool heal.
fn introspectable_factory(runtime: &Arc<Executor>) -> Arc<SignerFactory> {
    let rt = Arc::clone(runtime);
    Arc::new(move |params: Params| {
        HeroSigner::builder(rtx_4090(), params)
            .runtime(Arc::clone(&rt))
            .build()
    })
}

fn spec(point: &str, probability: f64, max_fires: Option<u64>, action: FaultAction) -> FaultSpec {
    FaultSpec {
        point: point.to_string(),
        probability,
        max_fires,
        action,
    }
}

/// Pulls one `name{tenant="…"} value` metric out of the plaintext page.
fn tenant_metric(page: &str, name: &str, tenant: &str) -> u64 {
    let needle = format!("{name}{{tenant=\"{tenant}\"}} ");
    page.lines()
        .find_map(|l| l.strip_prefix(&needle))
        .unwrap_or_else(|| panic!("metric {needle} missing from page:\n{page}"))
        .trim()
        .parse()
        .expect("metric value")
}

struct Tally {
    ok: usize,
    typed: usize,
    transport: usize,
}

#[test]
fn soak_under_three_pinned_seeds() {
    for seed in SEEDS {
        run_soak(seed);
    }
}

fn run_soak(seed: u64) {
    let workers = pool_size();
    let runtime = Arc::new(Executor::new(workers).unwrap());
    let factory = introspectable_factory(&runtime);

    let keystore = KeyStore::new();
    let mut keys = Vec::new();
    for (i, tenant) in ["soak-a", "soak-b"].iter().enumerate() {
        let (sk, vk) = tenant_key(20 + i as u8 * 3);
        keystore.insert(tenant, sk.clone(), vk.clone()).unwrap();
        keys.push((tenant.to_string(), sk, vk));
    }
    let config = ServerConfig {
        service: ServiceConfig {
            queue_depth: 64,
            ..ServiceConfig::default()
        },
        per_tenant_inflight: 32,
        ..ServerConfig::default()
    };
    let server = Server::start(factory, keystore, config).unwrap();
    let addr = server.local_addr();

    // Warm both tenants before arming faults: each tenant's engine is
    // built, and its first signature made, outside the chaos window.
    for (tenant, sk, _) in &keys {
        let mut c = Client::connect(addr).unwrap();
        let sig = c.sign(tenant, b"warm-up").unwrap();
        assert_eq!(sig, sk.sign(b"warm-up").to_bytes(sk.params()));
    }

    faults::install(FaultPlan {
        seed,
        specs: vec![
            // Kill up to a pool's worth of workers over the run.
            spec(
                faults::EXECUTOR_WORKER_CLAIM,
                0.01,
                Some(workers as u64),
                FaultAction::Fail,
            ),
            // Stalled workers and slow hash stages: latency, not loss.
            spec(
                faults::EXECUTOR_QUEUE_STALL,
                0.05,
                None,
                FaultAction::Delay(Duration::from_millis(1)),
            ),
            spec(
                faults::PLAN_STAGE,
                0.01,
                None,
                FaultAction::Delay(Duration::from_millis(1)),
            ),
            // Hypertree-cache chaos: dropped fills and forced evictions
            // must degrade to cold-cost signing, never wrong bytes.
            spec(faults::HYPERTREE_CACHE, 0.05, None, FaultAction::Fail),
            // Transport chaos at the TCP edge.
            spec(
                hero_server::faults::SERVER_CONN_DROP,
                0.03,
                None,
                FaultAction::Fail,
            ),
            spec(
                hero_server::faults::SERVER_WRITE_PARTIAL,
                0.03,
                None,
                FaultAction::Fail,
            ),
            spec(
                hero_server::faults::SERVER_WRITE_SLOW,
                0.05,
                None,
                FaultAction::Delay(Duration::from_millis(2)),
            ),
        ],
    });

    // The soak: every answered request must be a valid signature or a
    // typed error from the allowed set; transport failures reconnect.
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..CLIENTS {
            let (tenant, sk, _) = &keys[c % keys.len()];
            handles.push(scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut tally = Tally {
                    ok: 0,
                    typed: 0,
                    transport: 0,
                };
                for i in 0..REQUESTS_PER_CLIENT {
                    let msg = format!("soak seed {seed} client {c} msg {i}").into_bytes();
                    // Every fourth request runs on a 1 ms budget (may
                    // legitimately expire); the rest get 10 s.
                    let deadline_ms = if i % 4 == 0 { 1 } else { 10_000 };
                    // Every third request is a verify instead of a sign,
                    // so the verify planner's stage graph runs under the
                    // same armed plan.stage/cache/transport chaos as the
                    // sign planner — half with a deliberately corrupted
                    // signature that must come back *invalid*, not ok.
                    if i % 3 == 2 {
                        let mut sig_bytes = sk.sign(&msg).to_bytes(sk.params());
                        let tampered = i % 6 == 5;
                        if tampered {
                            sig_bytes[0] ^= 1;
                        }
                        match client.verify_with_deadline(tenant, &msg, &sig_bytes, deadline_ms) {
                            Ok(valid) => {
                                assert_eq!(
                                    valid, !tampered,
                                    "seed {seed}: verify verdict diverged from oracle"
                                );
                                tally.ok += 1;
                            }
                            Err(ClientError::Wire(e)) => {
                                assert!(
                                    matches!(
                                        e.code,
                                        ErrorCode::DeadlineExceeded
                                            | ErrorCode::QueueFull
                                            | ErrorCode::TenantBusy
                                    ),
                                    "seed {seed}: unexpected typed error {e}"
                                );
                                tally.typed += 1;
                            }
                            Err(ClientError::Io(_)) => {
                                tally.transport += 1;
                                client = Client::connect(addr).unwrap();
                            }
                            Err(ClientError::Protocol(p)) => {
                                panic!(
                                    "seed {seed}: protocol violation (dropped/double answer): {p}"
                                )
                            }
                        }
                        continue;
                    }
                    match client.sign_with_deadline(tenant, &msg, deadline_ms) {
                        Ok(sig) => {
                            assert_eq!(
                                sig,
                                sk.sign(&msg).to_bytes(sk.params()),
                                "seed {seed}: signature diverged from oracle"
                            );
                            tally.ok += 1;
                        }
                        Err(ClientError::Wire(e)) => {
                            assert!(
                                matches!(
                                    e.code,
                                    ErrorCode::DeadlineExceeded
                                        | ErrorCode::QueueFull
                                        | ErrorCode::TenantBusy
                                ),
                                "seed {seed}: unexpected typed error {e}"
                            );
                            tally.typed += 1;
                        }
                        Err(ClientError::Io(_)) => {
                            // Injected connection drop or partial write:
                            // the request's fate is unknown to the
                            // client; reconnect and move on. (Signing is
                            // deterministic, so replaying would also be
                            // legal — the accounting here just counts.)
                            tally.transport += 1;
                            client = Client::connect(addr).unwrap();
                        }
                        Err(ClientError::Protocol(p)) => {
                            panic!("seed {seed}: protocol violation (dropped/double answer): {p}")
                        }
                    }
                }
                tally
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let deaths = faults::fired(faults::EXECUTOR_WORKER_CLAIM);
    faults::clear();

    let total: usize = tallies.iter().map(|t| t.ok + t.typed + t.transport).sum();
    assert_eq!(
        total,
        CLIENTS * REQUESTS_PER_CLIENT,
        "seed {seed}: every request accounted for exactly once"
    );
    let ok: usize = tallies.iter().map(|t| t.ok).sum();
    assert!(ok > 0, "seed {seed}: the soak should sign successfully too");

    // Self-healing: every injected death respawned; pool back to full.
    // Both counts are polled: a worker that has fired its death but not
    // yet unwound to the respawn hook still counts as alive, so the live
    // count alone can read full one death early.
    let heal_deadline = Instant::now() + Duration::from_secs(10);
    while runtime.alive_workers() != workers || runtime.respawned_workers() != deaths {
        assert!(
            Instant::now() < heal_deadline,
            "seed {seed}: pool stuck at {} of {workers} workers, {} of {deaths} respawns \
             (every death must be matched by a respawn)",
            runtime.alive_workers(),
            runtime.respawned_workers()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Recovery: with the schedule cleared, a clean burst all succeeds.
    let (tenant, sk, _) = &keys[0];
    let mut client = Client::connect(addr).unwrap();
    for i in 0..RECOVERY_BURST {
        let msg = format!("recovery {seed} {i}").into_bytes();
        let sig = client
            .sign(tenant, &msg)
            .unwrap_or_else(|e| panic!("seed {seed}: post-fault sign {i} failed: {e}"));
        assert_eq!(sig, sk.sign(&msg).to_bytes(sk.params()));
        // The verify lane must be healthy after the chaos window too.
        assert!(
            client
                .verify(tenant, &msg, &sig)
                .unwrap_or_else(|e| panic!("seed {seed}: post-fault verify {i} failed: {e}")),
            "seed {seed}: post-fault verify {i} rejected an oracle signature"
        );
    }

    // Server-side exactly-once: at quiescence each tenant's admitted
    // requests were all answered, one way or the other.
    let page = server.metrics_page();
    for (tenant, _, _) in &keys {
        let requests = tenant_metric(&page, "hero_server_tenant_requests_total", tenant);
        let completed = tenant_metric(&page, "hero_server_tenant_completed_total", tenant);
        let rejected = tenant_metric(&page, "hero_server_tenant_rejected_total", tenant);
        let inflight = tenant_metric(&page, "hero_server_tenant_inflight", tenant);
        assert_eq!(inflight, 0, "seed {seed}: {tenant} quiescent");
        assert_eq!(
            requests,
            completed + rejected,
            "seed {seed}: {tenant} answered exactly once (page:\n{page})"
        );
    }

    server.shutdown();
}
