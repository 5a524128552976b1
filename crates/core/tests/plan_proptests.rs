//! Property tests pinning the cross-message batch planner byte-identical
//! to sequential signing.
//!
//! The planner reorders and regroups *independent* hash calls only; every
//! signature byte must match `hero_sphincs::reference::sign`, the scalar
//! second implementation that shares no tree builder, chain kernel or
//! lane engine with what the planner drives. Shapes cover all four widths
//! the paper names (128f/128s/192f/256f, reduced in h/d/log_t/k for test
//! speed but keeping each set's `n` and `w`, which drive the hash-path
//! differences), worker counts 1/4/8, and batch sizes 1–17 (odd sizes
//! exercise partial lane and group fill).

use hero_gpu_sim::device::rtx_4090;
use hero_sign::plan::{self, PlanShape};
use hero_sign::{CacheConfig, HeroSigner, HypertreeCache};
use hero_sphincs::hash::HashCtx;
use hero_sphincs::params::Params;
use hero_sphincs::sign::keygen_from_seeds;
use hero_sphincs::{reference, Signature, SigningKey};
use hero_task_graph::Executor;
use proptest::prelude::*;

/// The planner on its own: nothing resident, nothing kept.
fn plan_sign(
    sk: &SigningKey,
    msgs: &[&[u8]],
    exec: &Executor,
    shape: &PlanShape,
) -> Vec<Signature> {
    let ctx = HashCtx::with_alg(*sk.params(), sk.pk_seed(), sk.alg());
    let cache = HypertreeCache::new(CacheConfig::disabled());
    plan::sign_batch(&ctx, sk, msgs, exec, &cache, shape)
}

/// Reduced shapes: one per paper parameter family. The -s member keeps a
/// taller subtree (h' = 4) and more FORS trees than its -f siblings, the
/// way the real -s sets trade signature size for tree depth.
fn reduced_sets() -> [Params; 4] {
    let mut p128f = Params::sphincs_128f();
    p128f.h = 6;
    p128f.d = 3;
    p128f.log_t = 4;
    p128f.k = 8;

    let mut p128s = Params::sphincs_128s();
    p128s.h = 8;
    p128s.d = 2;
    p128s.log_t = 5;
    p128s.k = 10;

    let mut p192f = Params::sphincs_192f();
    p192f.h = 6;
    p192f.d = 3;
    p192f.log_t = 4;
    p192f.k = 8;

    let mut p256f = Params::sphincs_256f();
    p256f.h = 6;
    p256f.d = 3;
    p256f.log_t = 4;
    p256f.k = 8;

    [p128f, p128s, p192f, p256f]
}

fn key_for(params: Params, seed_byte: u8) -> SigningKey {
    let n = params.n;
    let (sk, _) = keygen_from_seeds(
        params,
        (0..n as u8).map(|b| b ^ seed_byte).collect(),
        (50..50 + n as u8).collect(),
        (100..100 + n as u8).collect(),
    );
    sk
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Planner output == reference signer, any parameter family, any
    /// worker count, any batch size in 1..=17.
    #[test]
    fn planned_batch_is_byte_identical_to_sequential(
        set_idx in 0usize..4,
        workers_idx in 0usize..3,
        batch in 1usize..=17,
        payload in proptest::collection::vec(any::<u8>(), 1..48),
    ) {
        let params = reduced_sets()[set_idx];
        let workers = [1usize, 4, 8][workers_idx];
        let sk = key_for(params, set_idx as u8);

        let msgs_owned: Vec<Vec<u8>> = (0..batch)
            .map(|i| {
                let mut m = payload.clone();
                m.push(i as u8); // distinct digests per slot
                m
            })
            .collect();
        let msgs: Vec<&[u8]> = msgs_owned.iter().map(Vec::as_slice).collect();

        let exec = Executor::new(workers).unwrap();
        let planned = plan_sign(&sk, &msgs, &exec, &PlanShape::for_batch(batch));
        prop_assert_eq!(planned.len(), batch);
        for (i, (msg, sig)) in msgs.iter().zip(&planned).enumerate() {
            prop_assert_eq!(
                sig, &reference::sign(&sk, msg),
                "set={} workers={} batch={} slot={}",
                params.name(), workers, batch, i
            );
        }
    }

    /// The engine's public `sign_batch` (which hoists the hash context
    /// and routes through the planner) agrees with looping its own
    /// `sign`, and with the serialized reference bytes.
    #[test]
    fn engine_batch_equals_looped_sign(
        set_idx in 0usize..4,
        batch in 1usize..=7,
    ) {
        let params = reduced_sets()[set_idx];
        let sk = key_for(params, 0x5A ^ set_idx as u8);
        let engine = HeroSigner::builder(rtx_4090(), params)
            .workers(4)
            .build()
            .unwrap();

        let msgs_owned: Vec<Vec<u8>> = (0..batch).map(|i| vec![i as u8; 9]).collect();
        let msgs: Vec<&[u8]> = msgs_owned.iter().map(Vec::as_slice).collect();
        let batched = engine.sign_batch(&sk, &msgs).unwrap();
        for (msg, sig) in msgs.iter().zip(&batched) {
            let single = engine.sign(&sk, msg).unwrap();
            prop_assert_eq!(sig, &single);
            prop_assert_eq!(
                sig.to_bytes(&params),
                reference::sign(&sk, msg).to_bytes(&params)
            );
        }
    }

    /// Grouping is a pure scheduling choice: any shape produces the same
    /// bytes as the default.
    #[test]
    fn plan_shape_never_changes_bytes(
        fors_g in 1usize..=40,
        tree_g in 1usize..=12,
        chain_g in 1usize..=12,
        batch in 1usize..=5,
    ) {
        let params = reduced_sets()[0];
        let sk = key_for(params, 7);
        let msgs_owned: Vec<Vec<u8>> = (0..batch).map(|i| vec![0xC0 | i as u8; 5]).collect();
        let msgs: Vec<&[u8]> = msgs_owned.iter().map(Vec::as_slice).collect();
        let shape = PlanShape {
            fors_trees_per_item: fors_g,
            subtrees_per_item: tree_g,
            chains_per_item: chain_g,
        };
        let exec = Executor::new(4).unwrap();
        prop_assert_eq!(
            plan_sign(&sk, &msgs, &exec, &shape),
            plan_sign(&sk, &msgs, &exec, &PlanShape::for_batch(batch)),
            "{:?}", shape
        );
    }
}

/// FORS items the size of one fused lane group and of one message's
/// whole forest, on a batch whose `3 · 11 = 16 · 2 + 1` trees leave both
/// a remainder tree: full groups, the single-tree last group and a group
/// cut across message boundaries all sign the reference bytes.
#[test]
fn fused_fors_item_sizes_sign_reference_bytes() {
    let mut params = reduced_sets()[0];
    params.k = 11;
    params.validate().unwrap();
    let sk = key_for(params, 0x33);
    let msgs_owned: Vec<Vec<u8>> = (0..3u8).map(|i| vec![0xF0 | i; 7]).collect();
    let msgs: Vec<&[u8]> = msgs_owned.iter().map(Vec::as_slice).collect();
    let expected: Vec<_> = msgs.iter().map(|msg| reference::sign(&sk, msg)).collect();
    let exec = Executor::new(4).unwrap();
    let default = PlanShape::for_batch(msgs.len());
    assert_eq!(plan_sign(&sk, &msgs, &exec, &default), expected);
    for fors_trees_per_item in [16, 33] {
        let shape = PlanShape {
            fors_trees_per_item,
            ..default
        };
        assert_eq!(plan_sign(&sk, &msgs, &exec, &shape), expected, "{shape:?}");
    }
}
