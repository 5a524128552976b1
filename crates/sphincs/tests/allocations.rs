//! What verification allocates, held to a bound: [`VerifyingKey::verify_many`]
//! over a lane-width group of 128f signatures, and one
//! [`VerifyingKey::verify`] — the path every wire and service verify of a
//! lone signature takes — on every SHA-256 tier the host supports (the
//! resident lanes and, on `scalar`, the level sweep) and under SHAKE-256
//! and SHA-512. Every path reuses one scratch across every group and
//! every hypertree layer, so its counts do not grow with `d`; a change
//! that allocates per layer or per chain again fails here, not only in
//! the benchmark's `alloc.count_per_verify`.
//!
//! The counting allocator counts per thread, so the suite's other tests,
//! running on other threads, do not move this one's counts.

use hero_sphincs::hash::HashAlg;
use hero_sphincs::params::Params;
use hero_sphincs::sign::{keygen_from_seeds_with_alg, Signature, VerifyingKey};
use hero_sphincs::tier;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

mod common;
use common::{with_forced_tier, TIER_LOCK};

/// Allocations per signature of a 16-signature `verify_many`.
const PER_SIGNATURE_IN_A_GROUP: u64 = 10;

/// Allocations of one `verify`.
const LONE_VERIFY: u64 = 60;

/// Counts the calling thread's allocations, reallocations included.
struct PerThread;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is passed unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the count is a statistic and never
// influences an allocation, and a `const`-initialised thread-local `Cell`
// neither allocates nor registers a destructor.
unsafe impl GlobalAlloc for PerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: PerThread = PerThread;

/// Allocations `body` makes on this thread, and what it returns.
fn counted<R>(body: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = body();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Sixteen signed messages under a 128f key of `alg`, and their key.
fn corpus(alg: HashAlg) -> (VerifyingKey, Vec<Vec<u8>>, Vec<Signature>) {
    let params = Params::sphincs_128f();
    let n = params.n;
    let (sk, vk) = keygen_from_seeds_with_alg(params, alg, vec![3; n], vec![5; n], vec![7; n]);
    let msgs: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; 32]).collect();
    let sigs = msgs.iter().map(|msg| sk.sign(msg)).collect();
    (vk, msgs, sigs)
}

/// Holds a 16-signature `verify_many` and a lone `verify` under `vk` to
/// the bounds; `label` names the path in a failure.
fn assert_within_bounds(label: &str, vk: &VerifyingKey, msgs: &[Vec<u8>], sigs: &[Signature]) {
    let msg_refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    let sig_refs: Vec<&Signature> = sigs.iter().collect();
    let (group, verdicts) = counted(|| vk.verify_many(&msg_refs, &sig_refs));
    assert!(verdicts.iter().all(Result::is_ok), "{label}");
    let (lone, verdict) = counted(|| vk.verify(msg_refs[0], sig_refs[0]));
    assert!(verdict.is_ok(), "{label}");
    eprintln!("{label}: verify_many of 16 {group}, verify {lone}");
    assert!(
        group <= 16 * PER_SIGNATURE_IN_A_GROUP,
        "{label}: verify_many of 16 allocated {group} times"
    );
    assert!(
        lone <= LONE_VERIFY,
        "{label}: verify allocated {lone} times"
    );
}

#[test]
fn verification_allocates_per_call_not_per_layer() {
    let (vk, msgs, sigs) = corpus(HashAlg::Sha256);
    let _lock = TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for tier in tier::supported_sha256_tiers() {
        with_forced_tier(tier, || {
            assert_within_bounds(&format!("{tier:?}"), &vk, &msgs, &sigs);
        });
    }
}

#[test]
fn every_hash_family_allocates_per_call_not_per_layer() {
    for alg in [HashAlg::Shake256, HashAlg::Sha512] {
        let (vk, msgs, sigs) = corpus(alg);
        assert_within_bounds(alg.label(), &vk, &msgs, &sigs);
    }
}
