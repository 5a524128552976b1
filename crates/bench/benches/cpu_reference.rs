//! Criterion benches of the real cryptographic substrate: SHA-256
//! compression throughput, tweakable-hash calls, the scalar reference's
//! WOTS+ chains, FORS trees and signatures beside the shipping
//! (reduced-parameter) sign and verify — the Table X raw material.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hero_sphincs::address::Address;
use hero_sphincs::hash::HashCtx;
use hero_sphincs::params::Params;
use hero_sphincs::reference;
use hero_sphincs::sha256::Sha256;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_params() -> Params {
    let mut p = Params::sphincs_128f();
    p.h = 6;
    p.d = 3;
    p.log_t = 4;
    p.k = 8;
    p
}

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    let block = [0u8; 4096];
    group.throughput(Throughput::Bytes(block.len() as u64));
    group.bench_function("digest_4k", |b| b.iter(|| Sha256::digest(&block)));
    group.finish();
}

fn bench_tweakable_hashes(c: &mut Criterion) {
    let params = Params::sphincs_128f();
    let ctx = HashCtx::new(params, &[7u8; 16]);
    let adrs = Address::new();
    let m = [3u8; 16];
    c.bench_function("hash_f_single_compression", |b| b.iter(|| ctx.f(&adrs, &m)));
    c.bench_function("hash_h_two_to_one", |b| b.iter(|| ctx.h(&adrs, &m, &m)));
}

fn bench_wots_chain(c: &mut Criterion) {
    let params = Params::sphincs_128f();
    let ctx = HashCtx::new(params, &[7u8; 16]);
    let x = vec![5u8; 16];
    c.bench_function("wots_chain_w15", |b| {
        b.iter(|| {
            let mut adrs = Address::new();
            reference::chain(&ctx, &x, 0, 15, &mut adrs)
        })
    });
}

fn bench_fors_tree(c: &mut Criterion) {
    let params = tiny_params();
    let ctx = HashCtx::new(params, &[7u8; 16]);
    let sk_seed = vec![2u8; 16];
    let adrs = Address::new();
    c.bench_function("fors_tree_hash_16_leaves", |b| {
        b.iter(|| reference::fors_tree(&ctx, &sk_seed, &adrs, 0, 3))
    });
}

fn bench_full_sign_verify(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let (sk, vk) = hero_sphincs::keygen(tiny_params(), &mut rng).expect("keygen");
    let sig = sk.sign(b"bench message");
    c.bench_function("sign_reduced_params", |b| {
        b.iter(|| sk.sign(b"bench message"))
    });
    c.bench_function("verify_reduced_params", |b| {
        b.iter(|| vk.verify(b"bench message", &sig).expect("valid"))
    });
    c.bench_function("reference_sign_reduced_params", |b| {
        b.iter(|| reference::sign(&sk, b"bench message"))
    });
    c.bench_function("reference_verify_reduced_params", |b| {
        b.iter(|| reference::verify(&vk, b"bench message", &sig).expect("valid"))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sha256, bench_tweakable_hashes, bench_wots_chain, bench_fors_tree, bench_full_sign_verify
);
criterion_main!(benches);
