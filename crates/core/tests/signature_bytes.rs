//! What a signature holds on the heap, held to the byte. Every signing
//! path returns each signature at its exact size: the `n`-byte
//! randomizer; per FORS tree a handle, the revealed secret and `log_t`
//! path nodes; per hypertree layer a handle, `len` WOTS+ nodes and `h'`
//! path nodes —
//!
//! ```text
//! n + k·(size_of::<ForsTreeSig>() + n + log_t·n)
//!   + d·(size_of::<XmssSig>() + len·n + h'·n)
//! ```
//!
//! — 20,344 bytes at 128f. A list collected from an iterator that
//! under-reports its length, or a buffer reused in place for smaller
//! elements, leaves spare capacity that a signature carries for as long
//! as it lives, and fails here: the count is what dropping a signature
//! frees, so it sees capacities, not lengths.
//!
//! Held: [`HeroSigner::sign_batch`] cold and warm (every memoized layer
//! served from the cache), [`HeroSigner::sign`], [`SigningKey::sign`] and
//! [`Signature::from_bytes`], under SHA-2 and SHAKE. The CI legs that pin
//! the hash tier run this package's tests too, so the fused FORS kernel
//! and the level sweep are both held.
//!
//! The allocator counts the bytes freed on the calling thread, where the
//! signatures are dropped, so the workers' and the other tests'
//! allocations do not move the count.

use hero_gpu_sim::device::rtx_4090;
use hero_sign::HeroSigner;
use hero_sphincs::fors::ForsTreeSig;
use hero_sphincs::hypertree::XmssSig;
use hero_sphincs::params::Params;
use hero_sphincs::sign::{keygen_from_seeds, Signature, VerifyingKey};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

/// Counts the bytes the calling thread frees.
struct FreedPerThread;

thread_local! {
    static FREED: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is passed unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the count is a statistic and never
// influences an allocation, and a `const`-initialised thread-local `Cell`
// neither allocates nor registers a destructor.
unsafe impl GlobalAlloc for FreedPerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.with(|freed| freed.set(freed.get() + layout.size() as u64));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: FreedPerThread = FreedPerThread;

/// The heap bytes of one signature of `params`: its fields' bytes and
/// the handles of its tree and layer lists.
fn exact_bytes(params: &Params) -> u64 {
    let n = params.n;
    let tree = size_of::<ForsTreeSig>() + n + params.log_t * n;
    let layer = size_of::<XmssSig>() + params.wots_len() * n + params.tree_height() * n;
    (n + params.k * tree + params.d * layer) as u64
}

/// Verifies each of `sigs` and holds what dropping it frees to
/// [`exact_bytes`]; `label` names the path in a failure.
fn assert_exact(label: &str, vk: &VerifyingKey, msgs: &[&[u8]], sigs: Vec<Signature>) {
    let exact = exact_bytes(vk.params());
    assert_eq!(msgs.len(), sigs.len(), "{label}");
    for (i, (msg, sig)) in msgs.iter().zip(sigs).enumerate() {
        vk.verify(msg, &sig).expect("the signature verifies");
        let before = FREED.with(Cell::get);
        drop(sig);
        let freed = FREED.with(Cell::get) - before;
        assert_eq!(freed, exact, "{label}: signature {i} held {freed} bytes");
    }
}

/// Every signing path under `params`, with a key of its own hash family.
fn every_path_is_exact(params: Params) {
    let name = params.name();
    let n = params.n;
    let (sk, vk) = keygen_from_seeds(params, vec![1; n], vec![2; n], vec![3; n]);
    let signer = HeroSigner::builder(rtx_4090(), params)
        .build()
        .expect("engine builds");
    // Three messages: FORS nodes straddle messages, and the last one
    // holds three trees, a group the fused kernel shares out.
    let owned: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 20]).collect();
    let msgs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
    for pass in ["cold", "warm"] {
        let sigs = signer.sign_batch(&sk, &msgs).expect("batch signs");
        assert_exact(&format!("{name} sign_batch {pass}"), &vk, &msgs, sigs);
    }
    assert!(signer.cache_stats().hits > 0, "{name}: the warm pass hit");

    let lone: &[u8] = b"a lone message";
    let sig = signer.sign(&sk, lone).expect("signs");
    assert_exact(&format!("{name} HeroSigner::sign"), &vk, &[lone], vec![sig]);
    let sig = sk.sign(lone);
    let bytes = sig.to_bytes(&params);
    assert_exact(&format!("{name} SigningKey::sign"), &vk, &[lone], vec![sig]);
    let parsed = Signature::from_bytes(&params, &bytes).expect("parses");
    assert_exact(&format!("{name} from_bytes"), &vk, &[lone], vec![parsed]);
}

#[test]
fn a_128f_signature_holds_exactly_its_bytes() {
    assert_eq!(exact_bytes(&Params::sphincs_128f()), 20_344);
    every_path_is_exact(Params::sphincs_128f());
}

#[test]
fn a_shake_signature_holds_exactly_its_bytes() {
    every_path_is_exact(Params::shake_128f());
}
