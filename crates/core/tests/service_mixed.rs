//! Mixed-workload service tests: sign and verify clients sharing one
//! [`SignService`] — the two lanes coalesce independently on the same
//! engine, every request is answered exactly once, verify verdicts
//! match the sequential oracle, and shutdown under load drops nothing
//! on either lane.
//!
//! Engines are built without `.workers(n)`, so the pool follows
//! `HERO_WORKERS` (CI reruns this file pinned to 1).

use hero_gpu_sim::device::rtx_4090;
use hero_sign::service::{ServiceConfig, ServiceError, SignService};
use hero_sign::{HeroSigner, VerifyOutcome};
use hero_sphincs::params::Params;
use hero_sphincs::sign::keygen_from_seeds;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
        (30..30 + n as u8).collect(),
        (90..90 + n as u8).collect(),
    )
}

fn msg_for(client: usize, iter: usize) -> Vec<u8> {
    format!("mixed client {client} message {iter}").into_bytes()
}

#[test]
fn eight_sign_and_eight_verify_clients_share_one_service() {
    const SIGN_CLIENTS: usize = 8;
    const VERIFY_CLIENTS: usize = 8;
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

    // The verify clients' fixtures, oracle-checked up front: a third of
    // the signatures are corrupted somewhere (randomizer, FORS secret
    // element, hypertree auth path) and must come back Invalid.
    let fixtures: Vec<Vec<(Vec<u8>, hero_sphincs::Signature, VerifyOutcome)>> = (0..VERIFY_CLIENTS)
        .map(|c| {
            (0..PER_CLIENT)
                .map(|i| {
                    let msg = msg_for(100 + c, i);
                    let mut sig = sk.sign(&msg);
                    match (c + i) % 3 {
                        1 => sig.randomizer[0] ^= 1,
                        2 => sig.fors.trees[0].sk[0] ^= 0x80,
                        _ => {}
                    }
                    let expected = VerifyOutcome::from_result(vk.verify(&msg, &sig));
                    (msg, sig, expected)
                })
                .collect()
        })
        .collect();

    std::thread::scope(|scope| {
        for t in 0..SIGN_CLIENTS {
            let service = Arc::clone(&service);
            let (sk, vk) = (&sk, &vk);
            scope.spawn(move || {
                for i in 0..PER_CLIENT {
                    let msg = msg_for(t, i);
                    let sig = service.submit(msg.clone()).unwrap().wait().unwrap();
                    assert_eq!(sig, sk.sign(&msg), "sign client {t} msg {i}");
                    vk.verify(&msg, &sig).unwrap();
                }
            });
        }
        for (c, items) in fixtures.iter().enumerate() {
            let service = Arc::clone(&service);
            scope.spawn(move || {
                for (i, (msg, sig, expected)) in items.iter().enumerate() {
                    let outcome = service
                        .submit_verify(msg.clone(), sig.clone())
                        .unwrap()
                        .wait()
                        .unwrap();
                    assert_eq!(&outcome, expected, "verify client {c} item {i}");
                }
            });
        }
    });

    // A lane books `completed` before its answer goes out: every answered
    // request is counted while the service still runs.
    let stats = service.stats();
    assert_eq!(stats.submitted, (SIGN_CLIENTS * PER_CLIENT) as u64);
    assert_eq!(stats.completed, stats.submitted, "sign lane exactly-once");
    assert_eq!(stats.verify_submitted, (VERIFY_CLIENTS * PER_CLIENT) as u64);
    assert_eq!(
        stats.verify_completed, stats.verify_submitted,
        "verify lane exactly-once"
    );
    // Both lanes ran, each within its bound; how far they coalesced is
    // the scheduler's business here and pinned with a gated backend in
    // `service::tests`.
    assert!(stats.batches >= 1 && stats.verify_batches >= 1);
    assert!(stats.max_batch_observed <= 16 && stats.verify_max_batch_observed <= 16);
    service.shutdown();
}

#[test]
fn an_answer_is_counted_before_its_wait_returns() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 8;

    let params = tiny_params();
    let (sk, _) = deterministic_key(params);
    let engine = Arc::new(HeroSigner::builder(rtx_4090(), params).build().unwrap());
    let service = SignService::start(engine, sk.clone(), ServiceConfig::default()).unwrap();
    let msg = msg_for(0, 0);
    let sig = sk.sign(&msg);
    // Answers returned so far on each lane, by every client: a client
    // that has seen `p` of them returned, its own included, must find at
    // least `p` booked.
    let (signed, verified) = (AtomicUsize::new(0), AtomicUsize::new(0));

    let (service, msg, sig) = (&service, &msg, &sig);
    let (signed, verified) = (&signed, &verified);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            scope.spawn(move || {
                for i in 0..PER_CLIENT {
                    service.submit(msg_for(c, i)).unwrap().wait().unwrap();
                    let returned = signed.fetch_add(1, Ordering::AcqRel) + 1;
                    let completed = service.stats().completed;
                    assert!(
                        completed >= returned as u64,
                        "sign: {returned} answers returned, {completed} counted"
                    );
                }
            });
            scope.spawn(move || {
                for _ in 0..PER_CLIENT {
                    let outcome = service.submit_verify(msg.clone(), sig.clone());
                    assert_eq!(outcome.unwrap().wait().unwrap(), VerifyOutcome::Valid);
                    let returned = verified.fetch_add(1, Ordering::AcqRel) + 1;
                    let completed = service.stats().verify_completed;
                    assert!(
                        completed >= returned as u64,
                        "verify: {returned} answers returned, {completed} counted"
                    );
                }
            });
        }
    });
    service.shutdown();
}

#[test]
fn shutdown_under_mixed_load_drops_nothing_on_either_lane() {
    const CLIENTS: usize = 4; // of each kind

    let params = tiny_params();
    let (sk, vk) = deterministic_key(params);
    let engine = Arc::new(HeroSigner::builder(rtx_4090(), params).build().unwrap());
    let service = Arc::new(
        SignService::start(
            engine,
            sk.clone(),
            ServiceConfig {
                max_batch: 8,
                queue_depth: 256,
            },
        )
        .unwrap(),
    );

    // One reusable verify fixture per client (signing inside the loop
    // would slow submission below the shutdown window).
    let fixtures: Vec<(Vec<u8>, hero_sphincs::Signature)> = (0..CLIENTS)
        .map(|c| {
            let msg = msg_for(200 + c, 0);
            let sig = sk.sign(&msg);
            (msg, sig)
        })
        .collect();

    let sign_accepted = AtomicUsize::new(0);
    let sign_answered = AtomicUsize::new(0);
    let verify_accepted = AtomicUsize::new(0);
    let verify_answered = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            let service = Arc::clone(&service);
            let (sign_accepted, sign_answered, vk) = (&sign_accepted, &sign_answered, &vk);
            scope.spawn(move || {
                for i in 0..64usize {
                    let msg = msg_for(t, i);
                    match service.submit(msg.clone()) {
                        Ok(ticket) => {
                            sign_accepted.fetch_add(1, Ordering::Relaxed);
                            let sig = ticket.wait().expect("accepted sign answered");
                            vk.verify(&msg, &sig).unwrap();
                            sign_answered.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServiceError::ShuttingDown) => break,
                        Err(e) => panic!("unexpected sign error: {e}"),
                    }
                }
            });
        }
        for (t, (msg, sig)) in fixtures.iter().enumerate() {
            let service = Arc::clone(&service);
            let (verify_accepted, verify_answered) = (&verify_accepted, &verify_answered);
            scope.spawn(move || {
                for _ in 0..64usize {
                    match service.submit_verify(msg.clone(), sig.clone()) {
                        Ok(ticket) => {
                            verify_accepted.fetch_add(1, Ordering::Relaxed);
                            let outcome = ticket.wait().expect("accepted verify answered");
                            assert!(outcome.is_valid(), "client {t}: oracle signature rejected");
                            verify_answered.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServiceError::ShuttingDown) => break,
                        Err(e) => panic!("unexpected verify error: {e}"),
                    }
                }
            });
        }
        // Shut down mid-load, but only once the verify lane has answered
        // something: the last assertion needs it, and no fixed sleep
        // guarantees it on a busy host.
        let deadline = Instant::now() + Duration::from_secs(30);
        while verify_answered.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(100));
        }
        service.shutdown();
    });

    let stats = service.stats();
    assert_eq!(
        sign_answered.load(Ordering::Relaxed),
        sign_accepted.load(Ordering::Relaxed),
        "every accepted sign answered exactly once"
    );
    assert_eq!(
        verify_answered.load(Ordering::Relaxed),
        verify_accepted.load(Ordering::Relaxed),
        "every accepted verify answered exactly once"
    );
    assert_eq!(
        stats.submitted,
        sign_accepted.load(Ordering::Relaxed) as u64
    );
    assert_eq!(stats.completed, stats.submitted);
    assert_eq!(
        stats.verify_submitted,
        verify_accepted.load(Ordering::Relaxed) as u64
    );
    assert_eq!(stats.verify_completed, stats.verify_submitted);
    assert!(
        verify_answered.load(Ordering::Relaxed) >= 1,
        "the load phase must have verified something for the test to mean anything"
    );
}
