//! What a batched sign allocates, held to a bound: [`HeroSigner::sign_batch`]
//! of sixteen 128f messages under a key whose memoized layers are warm,
//! the shape of the benchmark's `alloc.count_per_sign`. A signature is one
//! allocation per field (3 + 2k + 2d = 113 at 128f), and the stages that
//! make it hand over one buffer per node list; a stage output that went
//! back to a `Vec` per node would put some thousand allocations a
//! signature back, and fails here.
//!
//! The planner runs on the executor's workers, so the counter is
//! process-wide, and this file is a test binary of its own with one test:
//! nothing else allocates while it counts.

use hero_gpu_sim::device::rtx_4090;
use hero_sign::HeroSigner;
use hero_sphincs::params::Params;
use hero_sphincs::sign::keygen_from_seeds;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations per signature of a warm 16-message batch: 275 under the
/// resident lanes and 319 on the `scalar` rung, where the FORS sweep
/// allocates per call what the fused kernel keeps in registers, plus
/// about a tenth.
const PER_SIGNATURE: u64 = 350;

/// Counts every thread's allocations, reallocations included.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is passed unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the count is a statistic and never
// influences an allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_batched_sign_allocates_hundreds_per_signature_not_thousands() {
    let params = Params::sphincs_128f();
    let n = params.n;
    let (sk, vk) = keygen_from_seeds(params, vec![1; n], vec![2; n], vec![3; n]);
    let signer = HeroSigner::builder(rtx_4090(), params)
        .build()
        .expect("engine builds");
    let batch = |tag: u8| -> Vec<Vec<u8>> { (0..16u8).map(|i| vec![tag, i, 0x5a]).collect() };

    // The first batch warms the cache and the worker pool.
    let warm = batch(0);
    let refs: Vec<&[u8]> = warm.iter().map(Vec::as_slice).collect();
    signer.sign_batch(&sk, &refs).expect("warm-up signs");

    let msgs = batch(1);
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let sigs = signer.sign_batch(&sk, &refs).expect("batch signs");
    let count = ALLOCATIONS.load(Ordering::Relaxed) - before;

    for (msg, sig) in refs.iter().zip(&sigs) {
        vk.verify(msg, sig).expect("each signature verifies");
    }
    let per_signature = count / sigs.len() as u64;
    eprintln!("sign_batch of 16: {count} allocations, {per_signature} per signature");
    assert!(
        per_signature <= PER_SIGNATURE,
        "{per_signature} allocations per signature, more than {PER_SIGNATURE}"
    );
}
