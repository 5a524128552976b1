//! Concurrency stress tests for the persistent runtime and the
//! micro-batching service: many threads, one engine, byte-identical
//! signatures, and lossless shutdown under load.
//!
//! The service tests build their engine without `.workers(n)`, so the
//! pool follows `HERO_WORKERS` — CI reruns this file pinned to 1, where
//! a lane with no coalescing timer is most exposed.

use hero_gpu_sim::device::rtx_4090;
use hero_sign::service::{ServiceConfig, ServiceError, SignService};
use hero_sign::HeroSigner;
use hero_sphincs::params::Params;
use hero_sphincs::sign::keygen_from_seeds;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn tiny_params() -> Params {
    let mut p = Params::sphincs_128f();
    p.h = 6;
    p.d = 3;
    p.log_t = 4;
    p.k = 8;
    p
}

fn deterministic_key(params: Params) -> (hero_sphincs::SigningKey, hero_sphincs::VerifyingKey) {
    let n = params.n;
    keygen_from_seeds(
        params,
        (0..n as u8).collect(),
        (60..60 + n as u8).collect(),
        (120..120 + n as u8).collect(),
    )
}

/// Message for (thread, iteration) — distinct digests per slot.
fn msg_for(thread: usize, iter: usize) -> Vec<u8> {
    format!("stress thread {thread} message {iter}").into_bytes()
}

#[test]
fn eight_threads_share_one_signer_byte_identically() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 4;

    let params = tiny_params();
    let (sk, vk) = deterministic_key(params);
    let engine = Arc::new(
        HeroSigner::builder(rtx_4090(), params)
            .workers(4)
            .build()
            .unwrap(),
    );

    // Sequential oracle, computed up front on the reference signer.
    let expected: Vec<Vec<hero_sphincs::Signature>> = (0..THREADS)
        .map(|t| (0..PER_THREAD).map(|i| sk.sign(&msg_for(t, i))).collect())
        .collect();

    // All eight threads hammer the same engine: every concurrent batch
    // plan interleaves with the others on the one shared runtime, and
    // every byte must still match the sequential oracle.
    let submissions = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let engine = Arc::clone(&engine);
            let (sk, expected) = (&sk, &expected);
            let submissions = Arc::clone(&submissions);
            scope.spawn(move || {
                for (i, oracle) in expected[t].iter().enumerate() {
                    let msg = msg_for(t, i);
                    // Mix single signs and small batches across threads.
                    let sig = if i % 2 == 0 {
                        engine.sign(sk, &msg).unwrap()
                    } else {
                        engine
                            .sign_batch(sk, &[msg.as_slice()])
                            .unwrap()
                            .pop()
                            .unwrap()
                    };
                    assert_eq!(&sig, oracle, "thread {t} msg {i}");
                    submissions.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(submissions.load(Ordering::Relaxed), THREADS * PER_THREAD);
    // One persistent pool served everything; nothing spun up per call.
    assert_eq!(engine.workers(), 4);
    assert!(engine.runtime().submissions() > 0);

    // Spot-check verification through the same shared runtime.
    let m0 = msg_for(0, 0);
    let results = engine
        .verify_batch(&vk, &[m0.as_slice()], &expected[0][..1])
        .unwrap();
    assert!(results[0].is_valid());
}

#[test]
fn eight_service_clients_get_sequential_bytes() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 4;

    let params = tiny_params();
    let (sk, vk) = deterministic_key(params);
    let engine = Arc::new(HeroSigner::builder(rtx_4090(), params).build().unwrap());
    let service = Arc::new(
        SignService::start(
            engine,
            sk.clone(),
            ServiceConfig {
                max_batch: 16,
                queue_depth: 64,
            },
        )
        .unwrap(),
    );

    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            let service = Arc::clone(&service);
            let (sk, vk) = (&sk, &vk);
            scope.spawn(move || {
                for i in 0..PER_CLIENT {
                    let msg = msg_for(t, i);
                    let sig = service.submit(msg.clone()).unwrap().wait().unwrap();
                    assert_eq!(sig, sk.sign(&msg), "client {t} msg {i}");
                    vk.verify(&msg, &sig).unwrap();
                }
            });
        }
    });

    let stats = service.stats();
    assert_eq!(stats.submitted, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(stats.completed, (CLIENTS * PER_CLIENT) as u64);
    // How these requests coalesced depends on the scheduler, so it is
    // not asserted here: `service::tests::*_batches_are_what_queued_
    // behind_the_batch_in_flight` pin it with a gated backend. What
    // every interleaving must respect is the bound.
    assert!(stats.batches >= 1 && stats.batches <= stats.submitted);
    assert!(stats.max_batch_observed >= 1 && stats.max_batch_observed <= 16);
}

#[test]
fn shutdown_under_load_drops_nothing_and_answers_once() {
    const CLIENTS: usize = 6;

    let params = tiny_params();
    let (sk, vk) = deterministic_key(params);
    let engine = Arc::new(HeroSigner::builder(rtx_4090(), params).build().unwrap());
    let service = Arc::new(
        SignService::start(
            engine,
            sk,
            ServiceConfig {
                max_batch: 8,
                queue_depth: 256,
            },
        )
        .unwrap(),
    );

    // Clients submit as fast as they can until refused; main shuts the
    // service down mid-stream. Every *accepted* ticket must resolve to
    // exactly one valid signature (the per-ticket slot asserts
    // answered-exactly-once internally); refusals must all be
    // ShuttingDown.
    let answered = AtomicUsize::new(0);
    let refused = AtomicUsize::new(0);
    let accepted = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            let service = Arc::clone(&service);
            let (answered, refused, accepted, vk) = (&answered, &refused, &accepted, &vk);
            scope.spawn(move || {
                for i in 0..64usize {
                    let msg = msg_for(t, i);
                    match service.submit(msg.clone()) {
                        Ok(ticket) => {
                            accepted.fetch_add(1, Ordering::Relaxed);
                            let sig = ticket.wait().expect("accepted requests are signed");
                            vk.verify(&msg, &sig).unwrap();
                            answered.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServiceError::ShuttingDown) => {
                            refused.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            });
        }
        // Let some traffic through, then pull the plug while clients are
        // still submitting.
        std::thread::sleep(Duration::from_millis(5));
        service.shutdown();
    });

    let stats = service.stats();
    assert_eq!(
        answered.load(Ordering::Relaxed),
        accepted.load(Ordering::Relaxed),
        "every accepted request must be answered exactly once"
    );
    assert_eq!(stats.submitted, accepted.load(Ordering::Relaxed) as u64);
    assert_eq!(
        stats.completed, stats.submitted,
        "drain must complete in-flight work"
    );
    assert!(
        answered.load(Ordering::Relaxed) >= 1,
        "the load phase must have signed something for the test to mean anything"
    );
}
