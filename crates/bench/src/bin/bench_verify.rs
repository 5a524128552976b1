//! Verification-path bench: scalar vs lane-batched vs planned.
//!
//! Measures the same workload — verifying a batch of signatures against
//! one verifying key — three ways, at batch sizes 1/8/64:
//!
//! * **scalar** — `VerifyingKey::verify` looped one signature at a
//!   time: the reference path, every hash sequential.
//! * **lane-batched** — `VerifyingKey::verify_many`: signatures march
//!   through FORS / WOTS+ / XMSS levels together so each level's hashes
//!   go through the multi-lane `f_many`/`thash_many` cores.
//! * **planned** — `HeroSigner::verify_batch`: the same lane batching,
//!   but split into groups that are one node each on the persistent
//!   executor, so independent groups also run across worker threads.
//!
//! A fourth leg runs the mixed sign+verify service: equal numbers of
//! sign and verify clients sharing one `SignService`, each lane
//! coalescing independently on the shared engine.
//!
//! Results go to `BENCH_verify.json`. Three gates fail the process (CI
//! runs `--smoke`):
//!
//! 1. lane-batched must not be slower than scalar at batch 8;
//! 2. planned must not be slower than lane-batched at batch 64
//!    (otherwise spreading the groups is pure overhead);
//! 3. planned must reach >= 1.5x the scalar rate at batch 64 — the
//!    headline batched-verification speedup.
//!
//! Gates 2 and 3 need real hardware parallelism: on a host with one
//! hardware thread the groups of `plan::verify_batch` have nothing to
//! run in parallel on, so gate 2 becomes equality up to timer noise
//! (0.95) and gate 3 becomes the lane-amortization win alone (1.1x).
//! The JSON records which thresholds applied.
//!
//! ```text
//! bench_verify [--smoke] [--iters N] [--workers W] [--out PATH]
//! ```

use std::sync::Arc;
use std::time::Instant;

use hero_gpu_sim::device::rtx_4090;
use hero_sign::service::{ServiceConfig, SignService};
use hero_sign::{HeroSigner, VerifyOutcome};
use hero_sphincs::params::Params;
use hero_sphincs::sign::{keygen_from_seeds, Signature};

struct Leg {
    batch: usize,
    scalar: f64,
    lane_batched: f64,
    planned: f64,
    lane_vs_scalar: f64,
    planned_vs_lane: f64,
    planned_vs_scalar: f64,
}

fn msg(i: usize) -> Vec<u8> {
    format!("verify bench msg {i}").into_bytes()
}

/// Best rate (verifies/sec) over `iters` runs of `work` covering
/// `total` verifications.
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
    let out_path = flag("--out").unwrap_or_else(|| "BENCH_verify.json".to_string());
    // Default 8 (the bench_batch/bench_service convention): characterize
    // the runtime at a production-ish pool size regardless of the CI
    // box's core count.
    let workers: usize = flag("--workers").and_then(|v| v.parse().ok()).unwrap_or(8);
    let iters: usize = flag("--iters")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 3 } else { 5 });
    // Repeat small batches so every leg times a comparable amount of
    // work and single-run jitter doesn't swamp the gate ratios.
    let rep_budget: usize = if smoke { 256 } else { 768 };

    // Reduced shape, same rationale as bench_service: the batching story
    // is about amortizing per-signature stage costs, visible in seconds
    // on a shape whose full-set hash work doesn't dominate the clock.
    let mut params = Params::sphincs_128f();
    params.h = 6;
    params.d = 3;
    params.log_t = if smoke { 4 } else { 6 };
    params.k = 8;
    let params_label = format!(
        "{} (reduced verify shape, log_t={})",
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

    // Fixtures: one signed message per slot of the largest batch, with
    // every eighth signature tampered so verdict plumbing (not just the
    // all-valid fast path) is inside the timed region.
    let max_batch = 64usize;
    let msgs: Vec<Vec<u8>> = (0..max_batch).map(msg).collect();
    let mut sigs: Vec<Signature> = msgs.iter().map(|m| sk.sign(m)).collect();
    let expected: Vec<VerifyOutcome> = (0..max_batch)
        .map(|i| {
            if i % 8 == 3 {
                sigs[i].randomizer[0] ^= 1;
                VerifyOutcome::Invalid
            } else {
                VerifyOutcome::Valid
            }
        })
        .collect();
    let msg_refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
    let sig_refs: Vec<&Signature> = sigs.iter().collect();

    // Correctness gate before any timing: all three paths agree with
    // the expected verdicts, tampered slots included.
    {
        let scalar: Vec<VerifyOutcome> = (0..max_batch)
            .map(|i| VerifyOutcome::from_result(vk.verify(&msgs[i], &sigs[i])))
            .collect();
        assert_eq!(scalar, expected, "scalar verdicts diverged");
        let lane: Vec<VerifyOutcome> = vk
            .verify_many(&msg_refs, &sig_refs)
            .into_iter()
            .map(VerifyOutcome::from_result)
            .collect();
        assert_eq!(lane, expected, "lane-batched verdicts diverged");
        let planned = engine
            .verify_batch(&vk, &msg_refs, &sigs)
            .expect("planned verify");
        assert_eq!(planned, expected, "planned verdicts diverged");
    }

    println!("bench_verify: {params_label}, {workers} workers, {iters} iters");

    let batch_sizes: &[usize] = &[1, 8, 64];
    let mut legs: Vec<Leg> = Vec::new();
    for &batch in batch_sizes {
        let reps = (rep_budget / batch).max(1);
        let total = batch * reps;
        let (m, s, sr) = (&msg_refs[..batch], &sigs[..batch], &sig_refs[..batch]);

        let scalar_rate = best_rate(iters, total, || {
            for _ in 0..reps {
                for i in 0..batch {
                    let _ = vk.verify(m[i], &s[i]);
                }
            }
        });
        let lane_rate = best_rate(iters, total, || {
            for _ in 0..reps {
                let verdicts = vk.verify_many(m, sr);
                assert_eq!(verdicts.len(), batch);
            }
        });
        let planned_rate = best_rate(iters, total, || {
            for _ in 0..reps {
                let verdicts = engine.verify_batch(&vk, m, s).expect("planned verify");
                assert_eq!(verdicts.len(), batch);
            }
        });

        let leg = Leg {
            batch,
            scalar: scalar_rate,
            lane_batched: lane_rate,
            planned: planned_rate,
            lane_vs_scalar: lane_rate / scalar_rate,
            planned_vs_lane: planned_rate / lane_rate,
            planned_vs_scalar: planned_rate / scalar_rate,
        };
        println!(
            "  batch {batch:>3}: scalar {scalar_rate:>9.1} | lane {lane_rate:>9.1} | \
             planned {planned_rate:>9.1} verifies/s | lane vs scalar {:>5.2}x | \
             planned vs scalar {:>5.2}x",
            leg.lane_vs_scalar, leg.planned_vs_scalar
        );
        legs.push(leg);
    }

    // Mixed service leg: equal sign and verify client counts sharing one
    // service; both lanes coalesce independently on the shared engine.
    let mixed_clients = 4usize;
    let per_client = if smoke { 4 } else { 16 };
    let mixed_total = 2 * mixed_clients * per_client;
    let mixed_rate = best_rate(iters, mixed_total, || {
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
            for c in 0..mixed_clients {
                let sign_service = &service;
                scope.spawn(move || {
                    let tickets: Vec<_> = (0..per_client)
                        .map(|i| {
                            sign_service
                                .submit(msg(1000 + c * per_client + i))
                                .expect("accepted")
                        })
                        .collect();
                    for t in tickets {
                        t.wait().expect("signed");
                    }
                });
                let (verify_service, msgs, sigs, expected) = (&service, &msgs, &sigs, &expected);
                scope.spawn(move || {
                    let tickets: Vec<_> = (0..per_client)
                        .map(|i| {
                            let slot = (c * per_client + i) % msgs.len();
                            verify_service
                                .submit_verify(msgs[slot].clone(), sigs[slot].clone())
                                .expect("accepted")
                        })
                        .collect();
                    for (i, t) in tickets.into_iter().enumerate() {
                        let slot = (c * per_client + i) % msgs.len();
                        assert_eq!(t.wait().expect("verified"), expected[slot]);
                    }
                });
            }
        });
        service.shutdown();
    });
    println!("  mixed service ({mixed_clients}+{mixed_clients} clients): {mixed_rate:>9.1} ops/s");

    // Host-aware thresholds: the planner's scheduling win needs real
    // hardware parallelism. On a single-hardware-thread host the
    // groups run one after another, so "planned vs lane" is equality up
    // to timer noise and the achievable speedup over scalar is the lane
    // amortization win alone.
    let host_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let parallel_host = host_threads > 1 && workers > 1;
    let (planned_vs_lane_min, speedup_min) = if parallel_host {
        (1.0, 1.5)
    } else {
        (0.95, 1.1)
    };

    let at = |b: usize| legs.iter().find(|l| l.batch == b).expect("leg exists");
    let gate_lane = at(8).lane_vs_scalar >= 1.0;
    let gate_planned_vs_lane = at(64).planned_vs_lane >= planned_vs_lane_min;
    let gate_speedup = at(64).planned_vs_scalar >= speedup_min;

    let legs_json: Vec<String> = legs
        .iter()
        .map(|l| {
            format!(
                "    {{\n      \"batch\": {},\n      \"scalar_verifies_per_sec\": {:.3},\n      \
                 \"lane_batched_verifies_per_sec\": {:.3},\n      \
                 \"planned_verifies_per_sec\": {:.3},\n      \
                 \"lane_vs_scalar\": {:.3},\n      \
                 \"planned_vs_lane\": {:.3},\n      \
                 \"planned_vs_scalar\": {:.3}\n    }}",
                l.batch,
                l.scalar,
                l.lane_batched,
                l.planned,
                l.lane_vs_scalar,
                l.planned_vs_lane,
                l.planned_vs_scalar
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"verify\",\n  \"params\": \"{}\",\n  \"smoke\": {},\n  \
         \"workers\": {},\n  \"host_threads\": {},\n  \
         \"verdicts_agree_across_paths\": true,\n  \
         \"mixed_service_ops_per_sec\": {:.3},\n  \"legs\": [\n{}\n  ],\n  \
         \"gates\": {{\n    \"lane_batched_not_slower_than_scalar_at_8\": {},\n    \
         \"planned_vs_lane_batched_at_64_min\": {:.2},\n    \
         \"planned_not_slower_than_lane_batched_at_64\": {},\n    \
         \"planned_vs_scalar_at_64_min\": {:.2},\n    \
         \"planned_speedup_over_scalar_at_64\": {}\n  }}\n}}\n",
        params_label,
        smoke,
        workers,
        host_threads,
        mixed_rate,
        legs_json.join(",\n"),
        gate_lane,
        planned_vs_lane_min,
        gate_planned_vs_lane,
        speedup_min,
        gate_speedup,
    );
    std::fs::write(&out_path, json).expect("write bench json");
    println!("  wrote {out_path}");

    if !gate_lane {
        eprintln!("GATE FAILED: lane-batched verify slower than scalar at batch 8");
        std::process::exit(1);
    }
    if !gate_planned_vs_lane {
        eprintln!(
            "GATE FAILED: planned verify below {planned_vs_lane_min:.2}x lane-batched at batch 64"
        );
        std::process::exit(1);
    }
    if !gate_speedup {
        eprintln!("GATE FAILED: planned verify below {speedup_min:.2}x scalar at batch 64");
        std::process::exit(1);
    }
}
