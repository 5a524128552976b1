//! What a batched sign holds on the heap: a counting allocator around
//! [`HeroSigner::sign_batch`] of 64 128f messages under a key whose
//! memoized layers are warm, and around one lone sign.
//!
//! For the batch it prints the bytes each returned signature holds (what
//! dropping them frees, the output `Vec` included), the planner's peak
//! heap above its output (the highest the live heap rose during the call,
//! less what the call left live), and the allocations per signature; for
//! the lone sign, its allocations through the engine
//! ([`HeroSigner::sign`]) and on the calling thread
//! ([`SigningKey::sign`]). The counter is process-wide, so the workers'
//! allocations count too.
//!
//! ```sh
//! cargo run --release --example batch_heap
//! ```

use hero_gpu_sim::device::rtx_4090;
use hero_sign::HeroSigner;
use hero_sphincs::params::Params;
use hero_sphincs::sign::{keygen_from_seeds, Signature};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Counts every thread's allocations and the bytes they hold.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is passed unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the counts are statistics and never
// influence an allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `call` did to the heap: its allocations, the live bytes it left
/// behind, the highest the live heap rose above where it started, and
/// its result.
fn measured<R>(call: impl FnOnce() -> R) -> (u64, usize, usize, R) {
    let (count, live) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        LIVE.load(Ordering::Relaxed),
    );
    PEAK.store(live, Ordering::Relaxed);
    let out = call();
    let kept = LIVE.load(Ordering::Relaxed) - live;
    let peak = PEAK.load(Ordering::Relaxed) - live;
    (ALLOCATIONS.load(Ordering::Relaxed) - count, kept, peak, out)
}

/// Bytes dropping `sigs` frees.
fn held(sigs: Vec<Signature>) -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    drop(sigs);
    live - LIVE.load(Ordering::Relaxed)
}

fn main() {
    const BATCH: usize = 64;
    let params = Params::sphincs_128f();
    let n = params.n;
    let (sk, vk) = keygen_from_seeds(params, vec![1; n], vec![2; n], vec![3; n]);
    let signer = HeroSigner::builder(rtx_4090(), params)
        .build()
        .expect("engine builds");
    let batch =
        |tag: u8| -> Vec<Vec<u8>> { (0..BATCH as u8).map(|i| vec![tag, i, 0x5a]).collect() };

    // The first batch warms the cache and the worker pool.
    let warm = batch(0);
    let refs: Vec<&[u8]> = warm.iter().map(Vec::as_slice).collect();
    signer.sign_batch(&sk, &refs).expect("warm-up signs");

    let msgs = batch(1);
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    let (count, kept, peak, sigs) = measured(|| signer.sign_batch(&sk, &refs));
    let sigs = sigs.expect("batch signs");
    for (msg, sig) in refs.iter().zip(&sigs) {
        vk.verify(msg, sig).expect("each signature verifies");
    }
    let bytes = held(sigs);
    println!("warm sign_batch of {BATCH} (128f):");
    println!("  bytes held per signature   {}", bytes / BATCH);
    println!(
        "  peak heap above output     {:.1} KB",
        peak.saturating_sub(kept) as f64 / 1000.0
    );
    println!("  allocations per signature  {}", count / BATCH as u64);

    let (engine, _, _, sig) = measured(|| signer.sign(&sk, b"a lone sign"));
    let bytes = held(vec![sig.expect("signs")]);
    let (local, _, _, _) = measured(|| sk.sign(b"a lone sign"));
    println!("lone sign (128f):");
    println!("  bytes held                 {bytes}");
    println!("  allocations, engine        {engine}");
    println!("  allocations, SigningKey    {local}");
}
