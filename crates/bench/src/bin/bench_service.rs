//! Persistent-runtime / sign-service trajectory bench.
//!
//! Measures the same workload — N concurrent clients each signing a
//! stream of single messages — three ways, at 1/8/64 clients:
//!
//! * **per-call pool** — the pre-refactor execution model: every sign
//!   call spins up its own `Executor` (thread spawn + join per call),
//!   the way `core::par`/`task-graph` used to open a `std::thread::scope`
//!   per batch. The "GPU that powers off between launches".
//! * **persistent runtime** — all clients share one `HeroSigner` and its
//!   long-lived `Executor`; concurrent sign calls interleave their stage
//!   graphs on the same workers (streams sharing a device), but each
//!   message still pays its own plan and submission.
//! * **coalesced service** — clients submit to the micro-batching
//!   `SignService`, which merges in-flight requests into planned batches
//!   (the device-filling launch of the paper's pipeline).
//!
//! Results go to `BENCH_service.json`. Two gates fail the process (CI
//! runs `--smoke`):
//!
//! 1. the persistent runtime must not be slower than the per-call pool
//!    at the 64-client leg (the whole point of not tearing pools down);
//! 2. the coalesced service must reach >= 1.2x the per-call-pool rate
//!    (looped single-message `sign` exactly as the pre-refactor engine
//!    executed it: a worker pool of the same size spun up per call) at
//!    every leg with >= 2 clients.
//!
//! The single-thread looped rate on the *persistent* runtime is also
//! recorded for context; on many-core hosts the service pulls ahead of
//! that too (coalesced batches fill the pool where single-message graphs
//! cannot), while on a 1-core host the two converge — hash work
//! dominates and is identical byte-for-byte.
//!
//! ```text
//! bench_service [--smoke] [--iters N] [--workers W] [--requests R] [--out PATH]
//! ```

use std::sync::Arc;
use std::time::Instant;

use hero_gpu_sim::device::rtx_4090;
use hero_sign::service::{ServiceConfig, SignService};
use hero_sign::{plan, HeroSigner};
use hero_sphincs::hash::HashCtx;
use hero_sphincs::params::Params;
use hero_sphincs::sign::{keygen_from_seeds, SigningKey};
use hero_task_graph::Executor;

struct Leg {
    clients: usize,
    per_call_pool: f64,
    persistent_runtime: f64,
    coalesced_service: f64,
    service_vs_per_call: f64,
    service_vs_looped_persistent: f64,
    persistent_vs_per_call: f64,
}

fn msg(client: usize, i: usize) -> Vec<u8> {
    format!("service bench client {client} msg {i}").into_bytes()
}

/// Best rate (msgs/sec) over `iters` runs of `work` signing `total` msgs.
fn best_rate(iters: usize, total: usize, mut work: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        work();
        best = best.min(start.elapsed().as_secs_f64());
    }
    total as f64 / best
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let out_path = flag("--out").unwrap_or_else(|| "BENCH_service.json".to_string());
    // Default 8 (the bench_batch convention): the bench characterizes
    // the runtime at a production-ish pool size regardless of the CI
    // box's core count or HERO_WORKERS matrix leg.
    let workers: usize = flag("--workers").and_then(|v| v.parse().ok()).unwrap_or(8);
    let iters: usize = flag("--iters")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 2 } else { 3 });
    let requests: usize = flag("--requests")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 4 } else { 8 });

    // The service story is about amortizing per-message costs, so the
    // bench uses a reduced shape where those costs are visible in
    // seconds, not minutes; full-set signing hash work is covered by
    // bench_batch/bench_hot_path.
    let mut params = Params::sphincs_128f();
    params.h = 6;
    params.d = 3;
    params.log_t = if smoke { 4 } else { 6 };
    params.k = 8;
    let params_label = format!(
        "{} (reduced service shape, log_t={})",
        params.name(),
        params.log_t
    );

    let n = params.n;
    let (sk, vk) = keygen_from_seeds(
        params,
        (0..n as u8).collect(),
        (50..50 + n as u8).collect(),
        (100..100 + n as u8).collect(),
    );
    let engine = Arc::new(
        HeroSigner::builder(rtx_4090(), params)
            .workers(workers)
            .build()
            .expect("engine builds"),
    );

    // Correctness gate before any timing: all three paths produce the
    // same bytes and verify.
    let probe = msg(0, 0);
    let direct = engine.sign(&sk, &probe).expect("direct sign");
    {
        let per_call = Executor::new(workers).expect("pool");
        let ctx = HashCtx::with_alg(params, sk.pk_seed(), sk.alg());
        let sigs = plan::sign_batch(&ctx, &sk, &[probe.as_slice()], &per_call);
        assert_eq!(sigs[0], direct, "per-call pool diverged");
        let service =
            SignService::start(engine.clone(), sk.clone(), ServiceConfig::default()).unwrap();
        let via_service = service.submit(probe.clone()).unwrap().wait().unwrap();
        assert_eq!(via_service, direct, "service diverged");
        vk.verify(&probe, &direct).expect("verifies");
    }

    println!(
        "bench_service: {params_label}, {workers} workers, {iters} iters, {requests} req/client"
    );

    // Looped single-thread baseline: the acceptance yardstick — one
    // caller looping `sign` on the persistent runtime.
    let looped_msgs: Vec<Vec<u8>> = (0..requests.max(8)).map(|i| msg(99, i)).collect();
    let looped_rate = best_rate(iters, looped_msgs.len(), || {
        for m in &looped_msgs {
            engine.sign(&sk, m).expect("looped sign");
        }
    });
    println!("  looped single-thread sign: {looped_rate:>9.1} msgs/s");

    let client_counts: &[usize] = &[1, 8, 64];
    let mut legs: Vec<Leg> = Vec::new();
    for &clients in client_counts {
        let total = clients * requests;

        // Per-call pool: every request pays Executor spin-up/tear-down.
        let per_call_rate = best_rate(iters, total, || {
            std::thread::scope(|scope| {
                for c in 0..clients {
                    let (sk, params): (&SigningKey, Params) = (&sk, params);
                    scope.spawn(move || {
                        for i in 0..requests {
                            let pool = Executor::new(workers).expect("per-call pool");
                            let ctx = HashCtx::with_alg(params, sk.pk_seed(), sk.alg());
                            let m = msg(c, i);
                            let sigs = plan::sign_batch(&ctx, sk, &[m.as_slice()], &pool);
                            assert_eq!(sigs.len(), 1);
                        }
                    });
                }
            });
        });

        // Persistent runtime: shared engine, per-message submissions.
        let persistent_rate = best_rate(iters, total, || {
            std::thread::scope(|scope| {
                for c in 0..clients {
                    let engine = Arc::clone(&engine);
                    let sk = &sk;
                    scope.spawn(move || {
                        for i in 0..requests {
                            engine.sign(sk, &msg(c, i)).expect("persistent sign");
                        }
                    });
                }
            });
        });

        // Coalesced service: shared micro-batcher.
        let service_rate = best_rate(iters, total, || {
            let service = SignService::start(
                engine.clone(),
                sk.clone(),
                ServiceConfig {
                    max_batch: 64,
                    queue_depth: 1024,
                },
            )
            .expect("service starts");
            std::thread::scope(|scope| {
                for c in 0..clients {
                    let service = &service;
                    scope.spawn(move || {
                        let tickets: Vec<_> = (0..requests)
                            .map(|i| service.submit(msg(c, i)).expect("accepted"))
                            .collect();
                        for t in tickets {
                            t.wait().expect("signed");
                        }
                    });
                }
            });
            service.shutdown();
        });

        let leg = Leg {
            clients,
            per_call_pool: per_call_rate,
            persistent_runtime: persistent_rate,
            coalesced_service: service_rate,
            service_vs_per_call: service_rate / per_call_rate,
            service_vs_looped_persistent: service_rate / looped_rate,
            persistent_vs_per_call: persistent_rate / per_call_rate,
        };
        println!(
            "  {clients:>3} clients: per-call {per_call_rate:>9.1} | persistent \
             {persistent_rate:>9.1} | service {service_rate:>9.1} msgs/s | \
             service vs per-call {:>5.2}x | persistent vs per-call {:>5.2}x",
            leg.service_vs_per_call, leg.persistent_vs_per_call
        );
        legs.push(leg);
    }

    let gate_persistent = legs
        .iter()
        .find(|l| l.clients == 64)
        .map(|l| l.persistent_vs_per_call >= 1.0)
        .unwrap_or(false);
    let gate_service = legs
        .iter()
        .filter(|l| l.clients >= 2)
        .all(|l| l.service_vs_per_call >= 1.2);

    let legs_json: Vec<String> = legs
        .iter()
        .map(|l| {
            format!(
                "    {{\n      \"clients\": {},\n      \"per_call_pool_msgs_per_sec\": {:.3},\n      \
                 \"persistent_runtime_msgs_per_sec\": {:.3},\n      \
                 \"coalesced_service_msgs_per_sec\": {:.3},\n      \
                 \"service_vs_per_call\": {:.3},\n      \
                 \"service_vs_looped_persistent\": {:.3},\n      \
                 \"persistent_vs_per_call\": {:.3}\n    }}",
                l.clients,
                l.per_call_pool,
                l.persistent_runtime,
                l.coalesced_service,
                l.service_vs_per_call,
                l.service_vs_looped_persistent,
                l.persistent_vs_per_call
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"sign_service\",\n  \"params\": \"{}\",\n  \"smoke\": {},\n  \
         \"workers\": {},\n  \"per_client_requests\": {},\n  \
         \"signatures_byte_identical\": true,\n  \
         \"looped_single_thread_persistent_msgs_per_sec\": {:.3},\n  \"legs\": [\n{}\n  ],\n  \
         \"gates\": {{\n    \"persistent_not_slower_than_per_call_at_64\": {},\n    \
         \"service_1_2x_over_per_call_looped_at_2plus_clients\": {}\n  }}\n}}\n",
        params_label,
        smoke,
        workers,
        requests,
        looped_rate,
        legs_json.join(",\n"),
        gate_persistent,
        gate_service,
    );
    std::fs::write(&out_path, json).expect("write bench json");
    println!("  wrote {out_path}");

    if !gate_persistent {
        eprintln!("GATE FAILED: persistent runtime slower than per-call pool at 64 clients");
        std::process::exit(1);
    }
    if !gate_service {
        eprintln!(
            "GATE FAILED: coalesced service below 1.2x the per-call-pool looped sign baseline \
             at >= 2 clients"
        );
        std::process::exit(1);
    }
}
