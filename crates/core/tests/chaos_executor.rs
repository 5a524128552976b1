//! Fault-injected worker deaths, end to end through the signing engine.
//!
//! The self-healing contract under test: killing k of n workers
//! mid-graph (via the `executor.worker.claim` fault point) never loses
//! a submission — the graph completes, the pool heals back to n, and
//! everything signed during *and after* the chaos is byte-identical to
//! the sequential reference oracle.

use hero_gpu_sim::device::rtx_4090;
use hero_sign::cache::CacheConfig;
use hero_sign::faults::{self, FaultAction, FaultPlan, FaultSpec};
use hero_sign::{plan, HeroSigner};
use hero_sphincs::hash::HashCtx;
use hero_sphincs::params::Params;
use hero_sphincs::sign::keygen_from_seeds;

use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The fault plan is process-global; tests in this binary serialize on
/// this lock so one test's schedule never leaks into another.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

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

/// Polls until the pool is back to `want` live workers after `respawns`
/// deaths (respawn runs on the dying thread's unwind path, so it is
/// visible only eventually — and a worker that has fired its death but
/// not yet unwound still counts as alive, so the live count alone can
/// read `want` one death early).
fn wait_for_pool(runtime: &hero_task_graph::Executor, want: usize, respawns: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while runtime.alive_workers() != want || runtime.respawned_workers() != respawns {
        assert!(
            Instant::now() < deadline,
            "pool stuck at {} of {want} workers, {} of {respawns} respawns",
            runtime.alive_workers(),
            runtime.respawned_workers()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn killed_workers_respawn_and_bytes_stay_oracle_identical() {
    let _guard = lock();
    const WORKERS: usize = 4;
    const DEATHS: u64 = 2;

    let params = tiny_params();
    let (sk, vk) = deterministic_key(params);
    let engine = HeroSigner::builder(rtx_4090(), params)
        .workers(WORKERS)
        .build()
        .unwrap();

    let msgs: Vec<Vec<u8>> = (0..8)
        .map(|i| format!("chaos executor message {i}").into_bytes())
        .collect();
    // Sequential oracle on the reference path, computed before any
    // fault is armed.
    let oracle: Vec<hero_sphincs::Signature> = msgs.iter().map(|m| sk.sign(m)).collect();

    // Kill exactly DEATHS workers at the claim point: probability 1
    // fires on the first evaluations, max_fires caps the damage.
    faults::install(FaultPlan {
        seed: 0xC0FFEE,
        specs: vec![FaultSpec {
            point: faults::EXECUTOR_WORKER_CLAIM.to_string(),
            probability: 1.0,
            max_fires: Some(DEATHS),
            action: FaultAction::Fail,
        }],
    });

    // Every graph submitted while workers are dying still completes,
    // with oracle-identical bytes.
    for (msg, want) in msgs.iter().zip(&oracle).take(4) {
        let sig = engine.sign(&sk, msg).unwrap();
        assert_eq!(&sig, want, "signature diverged during chaos");
    }
    let deaths = faults::fired(faults::EXECUTOR_WORKER_CLAIM);
    faults::clear();
    assert_eq!(deaths, DEATHS, "the fault schedule should have fired out");

    // The pool heals back to full strength and remembers the toll.
    wait_for_pool(engine.runtime(), WORKERS, DEATHS);
    assert_eq!(engine.runtime().respawned_workers(), DEATHS);
    assert_eq!(engine.workers(), WORKERS);

    // Post-chaos submissions are byte-identical to the oracle too —
    // respawned workers share the same deterministic pipeline.
    for (msg, want) in msgs.iter().zip(&oracle).skip(4) {
        let sig = engine.sign(&sk, msg).unwrap();
        assert_eq!(&sig, want, "signature diverged after recovery");
    }
    let results = vk_verify_all(&vk, &msgs, &oracle);
    assert!(results, "oracle signatures must verify");
}

fn vk_verify_all(
    vk: &hero_sphincs::VerifyingKey,
    msgs: &[Vec<u8>],
    sigs: &[hero_sphincs::Signature],
) -> bool {
    msgs.iter().zip(sigs).all(|(m, s)| vk.verify(m, s).is_ok())
}

#[test]
fn plan_stage_fault_fails_one_submission_typed_not_the_engine() {
    let _guard = lock();
    let params = tiny_params();
    let (sk, _vk) = deterministic_key(params);
    let engine = HeroSigner::builder(rtx_4090(), params)
        .workers(2)
        .build()
        .unwrap();
    let msg = b"plan stage chaos".to_vec();
    let oracle = sk.sign(&msg);

    // A plan-stage fail panics one node, poisoning only that
    // submission; at the raw engine level the panic re-raises on the
    // submitting thread (the service layer is what types it), so catch
    // it here. The engine and its pool must keep serving regardless.
    faults::install(FaultPlan {
        seed: 7,
        specs: vec![FaultSpec {
            point: faults::PLAN_STAGE.to_string(),
            probability: 1.0,
            max_fires: Some(1),
            action: FaultAction::Fail,
        }],
    });
    let poisoned =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.sign(&sk, &msg)));
    faults::clear();
    assert!(
        poisoned.is_err(),
        "the poisoned submission must re-raise the injected panic"
    );

    // Same engine, same message, clean bytes afterwards.
    wait_for_pool(engine.runtime(), 2, 0);
    let sig = engine.sign(&sk, &msg).unwrap();
    assert_eq!(sig, oracle);
}

/// Arms one always-firing spec at the plan stage point.
fn arm_plan_stage(max_fires: Option<u64>, action: FaultAction) {
    faults::install(FaultPlan {
        seed: 7,
        specs: vec![FaultSpec {
            point: faults::PLAN_STAGE.to_string(),
            probability: 1.0,
            max_fires,
            action,
        }],
    });
}

#[test]
fn verify_plan_is_one_node_per_group_and_inline_for_a_single_group() {
    let _guard = lock();
    let params = tiny_params();
    let (sk, vk) = deterministic_key(params);
    let lanes = hero_sphincs::fors::LANE_SIGNATURES;
    let msgs_owned: Vec<Vec<u8>> = (0..2 * lanes as u8 + 3).map(|i| vec![i; 12]).collect();
    let msgs: Vec<&[u8]> = msgs_owned.iter().map(Vec::as_slice).collect();
    let sigs: Vec<hero_sphincs::Signature> = msgs.iter().map(|m| sk.sign(m)).collect();

    // The rule itself: a lane-width node, shrunk so that every worker
    // gets one, never below four.
    assert_eq!(plan::verify_node_size(64, 2), lanes);
    assert_eq!(plan::verify_node_size(64, 8), 8);
    assert_eq!(plan::verify_node_size(64, 64), 4);
    assert_eq!(plan::verify_node_size(3, 1), 4);

    for workers in [1usize, 2, 4] {
        let engine = HeroSigner::builder(rtx_4090(), params)
            .workers(workers)
            .build()
            .unwrap();
        // Around the floor, around a node the workers shrink, around a
        // lane-width node, and two of those and a bit.
        for batch in [1, 4, 5, 8, 9, lanes, lanes + 1, 2 * lanes, 2 * lanes + 3] {
            let node = plan::verify_node_size(batch, workers);
            // A zero delay at every node disturbs nothing and makes
            // `faults::fired(PLAN_STAGE)` the number of nodes the plan ran.
            arm_plan_stage(None, FaultAction::Delay(Duration::ZERO));
            let before = engine.runtime().submissions();
            let outcomes = engine
                .verify_batch(&vk, &msgs[..batch], &sigs[..batch])
                .unwrap();
            let nodes = faults::fired(faults::PLAN_STAGE);
            faults::clear();
            let what = format!("batch {batch} on {workers} workers");
            assert!(outcomes.iter().all(|o| o.is_valid()), "{what}");
            assert_eq!(nodes, batch.div_ceil(node) as u64, "{what}");
            // A single group runs on the calling thread: no submission.
            assert_eq!(
                engine.runtime().submissions() - before,
                u64::from(batch > node),
                "{what}"
            );
        }
    }
}

#[test]
fn sign_plan_is_one_submission_plus_one_for_a_shared_preamble() {
    let _guard = lock();
    let params = tiny_params();
    let (sk, _vk) = deterministic_key(params);
    let msgs_owned: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 12]).collect();
    let msgs: Vec<&[u8]> = msgs_owned.iter().map(Vec::as_slice).collect();

    for workers in [1usize, 2, 4] {
        let engine = HeroSigner::builder(rtx_4090(), params)
            .workers(workers)
            .build()
            .unwrap();
        // The stage graph is one submission. The preamble adds a second
        // only when there are messages and workers to share it out: a
        // lone message, or a lone worker, digests on the calling thread.
        for batch in [1, 5] {
            let before = engine.runtime().submissions();
            engine.sign_batch(&sk, &msgs[..batch]).unwrap();
            assert_eq!(
                engine.runtime().submissions() - before,
                1 + u64::from(batch > 1 && workers > 1),
                "batch {batch} on {workers} workers"
            );
        }
    }
}

#[test]
fn sign_plan_builds_each_distinct_subtree_once() {
    let _guard = lock();
    // Sixteen bottom trees, four above them and one at the top: sixteen
    // messages are bound to share subtrees on every layer.
    let params = tiny_params();
    let (sk, _vk) = deterministic_key(params);
    let msgs_owned: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; 12]).collect();
    let msgs: Vec<&[u8]> = msgs_owned.iter().map(Vec::as_slice).collect();
    let oracle: Vec<hero_sphincs::Signature> = msgs.iter().map(|m| sk.sign(m)).collect();

    // The subtrees the batch needs, from each message's digest walk.
    let ctx = HashCtx::with_alg(params, sk.pk_seed(), sk.alg());
    let distinct: HashSet<(u32, u64)> = msgs
        .iter()
        .flat_map(|msg| sk.stages(&ctx, msg, sk.pk_seed()).subtrees)
        .map(|item| (item.layer, item.tree_idx))
        .collect();
    assert!(distinct.len() < msgs.len() * params.d, "nothing is shared");

    let shape = plan::PlanShape::for_batch(msgs.len());
    let census = plan::summarize(&params, msgs.len(), &shape);
    let other_nodes = (census.fors_items + census.fors_pk_items + census.chain_items) as u64;
    let build_nodes = distinct.len().div_ceil(shape.subtrees_per_item) as u64;

    let engine_with = |cache: CacheConfig| {
        HeroSigner::builder(rtx_4090(), params)
            .workers(2)
            .cache_config(cache)
            .build()
            .unwrap()
    };
    let uncached = engine_with(CacheConfig::disabled());
    let cached = engine_with(CacheConfig::default());
    for (engine, unresident, what) in [
        (&uncached, build_nodes, "cache disabled"),
        (&cached, build_nodes, "cache enabled and cold"),
        (&cached, 0, "cache warm"),
    ] {
        // As above: the zero delay makes `fired` the plan's node count.
        arm_plan_stage(None, FaultAction::Delay(Duration::ZERO));
        let sigs = engine.sign_batch(&sk, &msgs).unwrap();
        let nodes = faults::fired(faults::PLAN_STAGE);
        faults::clear();
        assert_eq!(sigs, oracle, "{what}");
        assert_eq!(nodes, other_nodes + unresident, "{what}");
    }
}

#[test]
fn plan_stage_fault_on_inline_verify_surfaces_like_a_submitted_one() {
    let _guard = lock();
    let params = tiny_params();
    let (sk, vk) = deterministic_key(params);
    let engine = HeroSigner::builder(rtx_4090(), params)
        .workers(2)
        .build()
        .unwrap();
    let msgs_owned: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 12]).collect();
    let msgs: Vec<&[u8]> = msgs_owned.iter().map(Vec::as_slice).collect();
    let sigs: Vec<hero_sphincs::Signature> = msgs.iter().map(|m| sk.sign(m)).collect();

    // One signature verifies inline on the caller, five go through
    // `Executor::run`: either way the injected panic re-raises on the
    // submitting thread with the same payload (the service layer is
    // what types it), and nothing else is harmed.
    let mut payloads = Vec::new();
    for batch in [1, 5] {
        arm_plan_stage(Some(1), FaultAction::Fail);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.verify_batch(&vk, &msgs[..batch], &sigs[..batch])
        }));
        faults::clear();
        let payload = poisoned.expect_err("the injected panic must re-raise");
        payloads.push(
            payload
                .downcast_ref::<String>()
                .expect("panic! with a format string carries a String")
                .clone(),
        );
    }
    assert_eq!(payloads[0], payloads[1]);
    assert_eq!(payloads[0], "injected fault: plan.stage");

    wait_for_pool(engine.runtime(), 2, 0);
    let outcomes = engine.verify_batch(&vk, &msgs, &sigs).unwrap();
    assert!(outcomes.iter().all(|o| o.is_valid()));
}
