//! Criterion benches of the batched hot path against the scalar
//! single-call APIs: multi-lane `F`/`H`/`PRF`, flat-buffer treehash, WOTS+
//! leaf generation, and end-to-end reduced-parameter `sign` (the signer
//! that ships vs `hero_sphincs::reference`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hero_sphincs::address::{Address, AddressType};
use hero_sphincs::hash::HashCtx;
use hero_sphincs::merkle;
use hero_sphincs::params::Params;

const BATCH: usize = 256;

fn tiny_params() -> Params {
    let mut p = Params::sphincs_128f();
    p.h = 6;
    p.d = 3;
    p.log_t = 4;
    p.k = 8;
    p
}

fn addresses(count: usize) -> Vec<Address> {
    (0..count as u32)
        .map(|i| {
            let mut a = Address::new();
            a.set_type(AddressType::WotsHash);
            a.set_chain(i);
            a
        })
        .collect()
}

fn bench_batched_vs_scalar_hashing(c: &mut Criterion) {
    let params = Params::sphincs_128f();
    let n = params.n;
    let ctx = HashCtx::new(params, &[7u8; 16]);
    let adrs = addresses(BATCH);
    let msgs = vec![0x5Au8; BATCH * n];
    let pairs = vec![0xA5u8; BATCH * 2 * n];
    let sk_seed = vec![9u8; n];

    let mut group = c.benchmark_group("hashing_256_calls");
    group.throughput(Throughput::Elements(BATCH as u64));
    group.bench_function("f_scalar", |b| {
        b.iter(|| {
            let mut out = vec![0u8; BATCH * n];
            for i in 0..BATCH {
                out[i * n..(i + 1) * n]
                    .copy_from_slice(&ctx.f(&adrs[i], &msgs[i * n..(i + 1) * n]));
            }
            out
        })
    });
    group.bench_function("f_many", |b| {
        b.iter(|| {
            let mut out = vec![0u8; BATCH * n];
            ctx.f_many(&adrs, &msgs, &mut out);
            out
        })
    });
    group.bench_function("h_many", |b| {
        b.iter(|| {
            let mut out = vec![0u8; BATCH * n];
            ctx.h_many(&adrs, &pairs, &mut out);
            out
        })
    });
    group.bench_function("prf_many", |b| {
        b.iter(|| {
            let mut out = vec![0u8; BATCH * n];
            ctx.prf_many(&adrs, &sk_seed, &mut out);
            out
        })
    });
    group.finish();
}

fn bench_treehash(c: &mut Criterion) {
    let params = Params::sphincs_128f();
    let n = params.n;
    let ctx = HashCtx::new(params, &[3u8; 16]);
    let adrs = Address::new();
    let height = 8;
    let job = merkle::TreeHashJob {
        leaf_idx: 0,
        node_adrs: adrs,
        leaf_offset: 0,
    };
    c.bench_function("treehash_256_leaves", |b| {
        b.iter(|| {
            merkle::treehash_many(&ctx, height, &[job], |buf| {
                for (i, slot) in buf.chunks_exact_mut(n).enumerate() {
                    slot[..4].copy_from_slice(&(i as u32).to_be_bytes());
                    slot[4..].fill(0);
                }
            })
        })
    });
}

fn bench_wots_leaf(c: &mut Criterion) {
    let params = Params::sphincs_128f();
    let ctx = HashCtx::new(params, &[5u8; 16]);
    let sk_seed = vec![4u8; 16];
    let adrs = Address::new();
    c.bench_function("wots_gen_leaf_batched", |b| {
        let mut out = vec![0u8; params.n];
        b.iter(|| {
            hero_sphincs::wots::pk_gen_many(&ctx, &sk_seed, &[adrs], &mut out);
            out.clone()
        })
    });
    c.bench_function("wots_gen_leaf_reference", |b| {
        b.iter(|| hero_sphincs::reference::wots_pk_gen(&ctx, &sk_seed, &adrs))
    });
}

fn bench_end_to_end_sign(c: &mut Criterion) {
    let params = tiny_params();
    let n = params.n;
    let (sk, _) =
        hero_sphincs::sign::keygen_from_seeds(params, vec![1u8; n], vec![2u8; n], vec![3u8; n]);
    c.bench_function("sign_batched_reduced_params", |b| {
        b.iter(|| sk.sign(b"hot path bench"))
    });
    c.bench_function("sign_reference_reduced_params", |b| {
        b.iter(|| hero_sphincs::reference::sign(&sk, b"hot path bench"))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_batched_vs_scalar_hashing, bench_treehash, bench_wots_leaf, bench_end_to_end_sign
);
criterion_main!(benches);
