//! Property tests pinning the hypertree-memoized signing path
//! byte-identical to the cold path and the scalar reference signer.
//!
//! The cache only keeps subtree leaves, which are *functions of the
//! key*, and a warm sign rebuilds the nodes above them — every byte it
//! emits must therefore match a cold
//! sign and `SigningKey::sign` exactly, across parameter families, hash
//! primitives, and worker counts. A second, deterministic test pins the
//! LRU capacity bound: filling capacity + 1 keys evicts exactly one
//! (the least-recently-used) key, and re-signing with the evicted key
//! still produces oracle bytes (eviction degrades to cold cost, never
//! to wrong output).

use hero_gpu_sim::device::rtx_4090;
use hero_sign::{CacheConfig, HeroSigner};
use hero_sphincs::hash::HashAlg;
use hero_sphincs::params::Params;
use hero_sphincs::sign::keygen_from_seeds_with_alg;
use proptest::prelude::*;

/// Reduced shapes, one per paper parameter family named by the issue
/// (128f/128s/192f): each keeps its family's `n` and `w`, which drive
/// the hash-path differences the cache must be transparent to.
fn reduced_sets() -> [Params; 3] {
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

    [p128f, p128s, p192f]
}

fn key_for(params: Params, alg: HashAlg, seed_byte: u8) -> hero_sphincs::SigningKey {
    let n = params.n;
    let (sk, _) = keygen_from_seeds_with_alg(
        params,
        alg,
        (0..n as u8).map(|b| b ^ seed_byte).collect(),
        (50..50 + n as u8).collect(),
        (100..100 + n as u8).collect(),
    );
    sk
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Cold (cache disabled), filling (first pass on a fresh cache),
    /// and warm (second pass, upper layers resident) signing all emit
    /// the scalar reference bytes, for every family × hash primitive ×
    /// worker count the issue names.
    #[test]
    fn warm_signing_is_byte_identical_to_cold_and_oracle(
        set_idx in 0usize..3,
        alg_idx in 0usize..2,
        workers_idx in 0usize..2,
        batch in 1usize..=5,
        payload in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let params = reduced_sets()[set_idx];
        let alg = [HashAlg::Sha256, HashAlg::Shake256][alg_idx];
        let workers = [1usize, 8][workers_idx];
        let sk = key_for(params, alg, set_idx as u8 ^ (alg_idx as u8) << 4);

        let cold_engine = HeroSigner::builder(rtx_4090(), params)
            .workers(workers)
            .cache_config(CacheConfig::disabled())
            .build()
            .unwrap();
        let cached_engine = HeroSigner::builder(rtx_4090(), params)
            .workers(workers)
            .build()
            .unwrap();
        // Room for one subtree's leaves: every second fill evicts the
        // key, which empties its shard, and the fills after it refill
        // the released pool.
        let tight_engine = HeroSigner::builder(rtx_4090(), params)
            .workers(workers)
            .cache_config(CacheConfig {
                max_bytes: params.n << params.tree_height(),
                ..CacheConfig::default()
            })
            .build()
            .unwrap();

        let msgs_owned: Vec<Vec<u8>> = (0..batch)
            .map(|i| {
                let mut m = payload.clone();
                m.push(i as u8);
                m
            })
            .collect();
        let msgs: Vec<&[u8]> = msgs_owned.iter().map(Vec::as_slice).collect();

        let cold = cold_engine.sign_batch(&sk, &msgs).unwrap();
        let filling = cached_engine.sign_batch(&sk, &msgs).unwrap();
        let warm = cached_engine.sign_batch(&sk, &msgs).unwrap();
        let stats = cached_engine.cache_stats();
        prop_assert!(stats.hits > 0, "second pass must hit: {stats:?}");
        let tight: Vec<_> = (0..2).map(|_| tight_engine.sign_batch(&sk, &msgs).unwrap()).collect();
        let churn = tight_engine.cache_stats();
        prop_assert!(churn.evictions > 0, "{churn:?}");
        // Each eviction released the shard's page, so the pool never
        // held more than one 4 KiB page.
        prop_assert!(churn.pool_bytes <= 4096, "{churn:?}");

        for (i, msg) in msgs.iter().enumerate() {
            let oracle = sk.sign(msg);
            prop_assert_eq!(
                &cold[i], &oracle,
                "cold: set={} alg={:?} workers={} slot={}",
                params.name(), alg, workers, i
            );
            prop_assert_eq!(
                &filling[i], &oracle,
                "fill: set={} alg={:?} workers={} slot={}",
                params.name(), alg, workers, i
            );
            prop_assert_eq!(
                &warm[i], &oracle,
                "warm: set={} alg={:?} workers={} slot={}",
                params.name(), alg, workers, i
            );
            for (pass, sigs) in tight.iter().enumerate() {
                prop_assert_eq!(
                    &sigs[i], &oracle,
                    "evicting, pass {}: set={} alg={:?} workers={} slot={}",
                    pass, params.name(), alg, workers, i
                );
            }
        }
    }
}

/// Capacity `k`, touch `k + 1` keys: exactly one (LRU) key is evicted,
/// and the evicted key re-signs to oracle bytes afterwards.
#[test]
fn lru_bound_evicts_exactly_one_key_and_resigns_correctly() {
    let params = reduced_sets()[0];
    let capacity = 3usize;
    let engine = HeroSigner::builder(rtx_4090(), params)
        .workers(4)
        .cache_config(CacheConfig {
            max_keys: capacity,
            ..CacheConfig::default()
        })
        .build()
        .unwrap();
    let keys: Vec<_> = (0..=capacity)
        .map(|i| key_for(params, HashAlg::Sha256, 0x20 + i as u8))
        .collect();

    for key in &keys[..capacity] {
        assert!(engine.warm_key(key).unwrap() > 0);
    }
    let full = engine.cache_stats();
    assert_eq!(full.evictions, 0, "{full:?}");
    assert_eq!(full.resident_keys, capacity as u64, "{full:?}");

    // Touch key 0 so key 1 becomes the least recently used.
    let sig0 = engine.sign(&keys[0], b"recency touch").unwrap();
    assert_eq!(sig0, keys[0].sign(b"recency touch"));

    // A (capacity + 1)-th key forces out exactly the LRU key.
    assert!(engine.warm_key(&keys[capacity]).unwrap() > 0);
    let after = engine.cache_stats();
    assert_eq!(after.evictions, 1, "{after:?}");
    assert_eq!(after.resident_keys, capacity as u64, "{after:?}");

    // The evicted key degrades to cold cost, never to wrong bytes (and
    // its refill pushes out another LRU key to hold the bound).
    let resigned = engine.sign(&keys[1], b"after eviction").unwrap();
    assert_eq!(resigned, keys[1].sign(b"after eviction"));
    assert_eq!(engine.cache_stats().resident_keys, capacity as u64);
}
