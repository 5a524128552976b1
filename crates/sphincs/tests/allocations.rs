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
//! And what a signature is on the heap: [`Signature::from_bytes`] makes
//! one allocation per field — the randomizer, the two lists, each FORS
//! tree's secret and path, each layer's WOTS+ signature and path — and
//! holds little more than the signature's own bytes; a node list that
//! went back to a `Vec` per node fails here, not only in the benchmark's
//! `sig.from_bytes_us` and `peak_rss_mb`.
//!
//! And what a lone sign allocates: [`SigningKey::sign`] runs each stage's
//! whole list in one call, so its count is a few hundred handles and
//! buffers, most of them the signature's own fields; a stage that went
//! back to a call per tree, per layer or per node fails here.
//!
//! The counting allocator counts per thread, so the suite's other tests,
//! running on other threads, do not move this one's counts.

use hero_sphincs::hash::HashAlg;
use hero_sphincs::params::Params;
use hero_sphincs::sign::{keygen_from_seeds_with_alg, Signature, SigningKey, VerifyingKey};
use hero_sphincs::tier;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

mod common;
use common::{with_forced_tier, TIER_LOCK};

/// Allocations per signature of a 16-signature `verify_many`.
const PER_SIGNATURE_IN_A_GROUP: u64 = 10;

/// Allocations of one `verify`.
const LONE_VERIFY: u64 = 60;

/// Allocations of one 128f SHA-256 `sign` (153 on every tier), plus
/// about a tenth.
const LONE_SIGN: u64 = 170;

/// Heap a parsed 128f signature holds beyond its own bytes: the two
/// lists of per-tree and per-layer handles, `k·size_of::<ForsTreeSig>()
/// + d·size_of::<XmssSig>()` = 33 · 56 + 22 · 64 on a 64-bit target.
const SIGNATURE_OVERHEAD_BYTES: u64 = 3256;

/// Counts the calling thread's allocations, reallocations included, and
/// the bytes they asked for.
struct PerThread;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is passed unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the count is a statistic and never
// influences an allocation, and a `const`-initialised thread-local `Cell`
// neither allocates nor registers a destructor.
unsafe impl GlobalAlloc for PerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        BYTES.with(|bytes| bytes.set(bytes.get() + layout.size() as u64));
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

/// Bytes `body` asks the allocator for on this thread, and what it
/// returns.
fn weighed<R>(body: impl FnOnce() -> R) -> (u64, R) {
    let before = BYTES.with(Cell::get);
    let out = body();
    (BYTES.with(Cell::get) - before, out)
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

#[test]
fn a_parsed_signature_is_one_allocation_per_field() {
    let params = Params::sphincs_128f();
    let (_, _, sigs) = corpus(HashAlg::Sha256);
    let bytes = sigs[0].to_bytes(&params);
    let (count, parsed) = counted(|| Signature::from_bytes(&params, &bytes));
    let fields = 3 + 2 * params.k + 2 * params.d;
    assert_eq!(fields, 113);
    assert!(
        count <= fields as u64,
        "from_bytes allocated {count} times, more than its {fields} fields"
    );
    let (heap, parsed_again) = weighed(|| Signature::from_bytes(&params, &bytes));
    let bound = params.sig_bytes() as u64 + SIGNATURE_OVERHEAD_BYTES;
    assert!(
        heap <= bound,
        "from_bytes asked for {heap} bytes, more than {bound}"
    );
    eprintln!("from_bytes of a 128f signature: {count} allocations, {heap} bytes");
    assert_eq!(parsed.as_ref(), Ok(&sigs[0]));
    assert_eq!(parsed, parsed_again);
}

#[test]
fn a_lone_sign_allocates_per_stage_not_per_node() {
    let params = Params::sphincs_128f();
    let n = params.n;
    let (sk, vk) =
        keygen_from_seeds_with_alg(params, HashAlg::Sha256, vec![3; n], vec![5; n], vec![7; n]);
    // Under the tier the host resolves: no other test's forced tier.
    let _lock = TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (count, sig) = counted(|| SigningKey::sign(&sk, b"a lone sign"));
    eprintln!("sign of a 128f message: {count} allocations");
    vk.verify(b"a lone sign", &sig).unwrap();
    assert!(count <= LONE_SIGN, "sign allocated {count} times");
}

#[test]
fn wire_form_round_trips_random_bytes_of_every_named_set() {
    // No signing: any bytes of the right length parse, and serialise
    // back to themselves, so the `-s` sets cost no more than the `-f`.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for params in Params::all_sets().into_iter().chain(Params::shake_sets()) {
        let bytes: Vec<u8> = (0..params.sig_bytes())
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        let sig = Signature::from_bytes(&params, &bytes).expect("right length");
        assert_eq!(sig.check_shape(&params), Ok(()), "{}", params.name());
        assert_eq!(sig.to_bytes(&params), bytes, "{}", params.name());
    }
}
