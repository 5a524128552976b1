//! Hot-path trajectory bench: batched vs scalar signing, plus the
//! hash-core lanes.
//!
//! Measures end-to-end single-message `sign` throughput for the batched
//! multi-lane implementation against the preserved scalar baseline
//! (`hero_bench::baseline`), plus compressions/sec and
//! allocations-per-sign via a counting global allocator. A second
//! section measures the hash cores in isolation — multi-lane vs scalar
//! `F` throughput for both SHA-256 (`Sha256xN`) and SHAKE-256
//! (`KeccakxN`) — so `BENCH_hot_path.json` tracks the lane engines
//! behind both halves of the parameter family. The results are written
//! to `BENCH_hot_path.json` so future PRs have a perf baseline.
//!
//! ```text
//! bench_hot_path [--smoke] [--iters N] [--out PATH]
//! ```
//!
//! `--smoke` runs one iteration on reduced parameters (CI keeps the bench
//! runnable without paying full-parameter signing time).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use hero_sphincs::address::{Address, AddressType};
use hero_sphincs::hash::{HashAlg, HashCtx};
use hero_sphincs::params::Params;
use hero_sphincs::sign::keygen_from_seeds;
use hero_sphincs::tier::{self, HashTier, Primitive};

/// Counts every heap allocation so the bench can report
/// allocations-per-sign for both paths.
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to the system allocator; the counters are
// monotonic and never influence allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOC_COUNT.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

struct PathStats {
    msgs_per_sec: f64,
    allocs_per_sign: f64,
    alloc_bytes_per_sign: f64,
}

/// Times `iters` signs of distinct messages, counting allocations, after
/// one warmup sign.
fn measure(sign: impl Fn(&[u8]) -> hero_sphincs::Signature, iters: usize) -> PathStats {
    std::hint::black_box(sign(b"warmup"));
    let (allocs0, bytes0) = alloc_snapshot();
    let start = Instant::now();
    for i in 0..iters {
        let msg = [i as u8; 32];
        std::hint::black_box(sign(&msg));
    }
    let elapsed = start.elapsed().as_secs_f64();
    let (allocs1, bytes1) = alloc_snapshot();
    PathStats {
        msgs_per_sec: iters as f64 / elapsed,
        allocs_per_sign: (allocs1 - allocs0) as f64 / iters as f64,
        alloc_bytes_per_sign: (bytes1 - bytes0) as f64 / iters as f64,
    }
}

/// One hash core's scalar-vs-multi-lane `F` throughput.
struct HashCoreStats {
    scalar_hashes_per_sec: f64,
    batched_hashes_per_sec: f64,
}

impl HashCoreStats {
    fn speedup(&self) -> f64 {
        self.batched_hashes_per_sec / self.scalar_hashes_per_sec
    }
}

/// Times `rounds` sweeps of `count` tweakable-hash `F` calls, scalar
/// (`f_into` loop) vs multi-lane (`f_many`), under `alg`. The workload
/// is the WOTS+/FORS leaf shape: distinct addresses, `n`-byte messages.
fn measure_hash_core(alg: HashAlg, count: usize, rounds: usize) -> HashCoreStats {
    let params = Params::sphincs_128f();
    let n = params.n;
    let ctx = HashCtx::with_alg(params, &[7u8; 16], alg);
    let adrs: Vec<Address> = (0..count as u32)
        .map(|i| {
            let mut a = Address::new();
            a.set_type(AddressType::WotsHash);
            a.set_keypair(i / 64);
            a.set_chain(i % 64);
            a
        })
        .collect();
    let msgs: Vec<u8> = (0..count * n).map(|i| (i % 251) as u8).collect();
    let mut out = vec![0u8; count * n];

    // Equivalence gate before timing: the batched lane engine must agree
    // with the scalar sponge byte for byte.
    ctx.f_many(&adrs, &msgs, &mut out);
    for i in 0..count {
        assert_eq!(
            out[i * n..(i + 1) * n],
            ctx.f(&adrs[i], &msgs[i * n..(i + 1) * n])[..],
            "{alg:?}: batched f diverged at lane {i}"
        );
    }

    let scalar_start = Instant::now();
    for _ in 0..rounds {
        for i in 0..count {
            ctx.f_into(
                &adrs[i],
                &msgs[i * n..(i + 1) * n],
                &mut out[i * n..(i + 1) * n],
            );
        }
        std::hint::black_box(&mut out);
    }
    let scalar_secs = scalar_start.elapsed().as_secs_f64();

    let batched_start = Instant::now();
    for _ in 0..rounds {
        ctx.f_many(&adrs, &msgs, &mut out);
        std::hint::black_box(&mut out);
    }
    let batched_secs = batched_start.elapsed().as_secs_f64();

    let hashes = (count * rounds) as f64;
    HashCoreStats {
        scalar_hashes_per_sec: hashes / scalar_secs,
        batched_hashes_per_sec: hashes / batched_secs,
    }
}

/// One ISA tier's batched `F` throughput under the forced tier.
struct TierStats {
    tier: HashTier,
    hashes_per_sec: f64,
}

/// Times the batched `f_many` loop with the process-wide tier forced to
/// each tier in `tiers` (restoring dispatch afterwards), so the report
/// isolates the ISA effect on the same lane engine and workload.
fn measure_tier_cores(
    alg: HashAlg,
    tiers: &[HashTier],
    count: usize,
    rounds: usize,
) -> Vec<TierStats> {
    let params = Params::sphincs_128f();
    let n = params.n;
    let ctx = HashCtx::with_alg(params, &[7u8; 16], alg);
    let adrs: Vec<Address> = (0..count as u32)
        .map(|i| {
            let mut a = Address::new();
            a.set_type(AddressType::WotsHash);
            a.set_keypair(i / 64);
            a.set_chain(i % 64);
            a
        })
        .collect();
    let msgs: Vec<u8> = (0..count * n).map(|i| (i % 251) as u8).collect();
    let mut out = vec![0u8; count * n];

    tiers
        .iter()
        .map(|&t| {
            let prev = tier::force_tier(t);
            ctx.f_many(&adrs, &msgs, &mut out); // warmup under the forced tier
            let start = Instant::now();
            for _ in 0..rounds {
                ctx.f_many(&adrs, &msgs, &mut out);
                std::hint::black_box(&mut out);
            }
            let secs = start.elapsed().as_secs_f64();
            tier::restore_tier(prev);
            TierStats {
                tier: t,
                hashes_per_sec: (count * rounds) as f64 / secs,
            }
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let out_path = flag("--out").unwrap_or_else(|| "BENCH_hot_path.json".to_string());

    let params = if smoke {
        let mut p = Params::sphincs_128f();
        p.h = 6;
        p.d = 3;
        p.log_t = 6;
        p.k = 8;
        p
    } else {
        Params::sphincs_128f()
    };
    let iters: usize = flag("--iters")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 1 } else { 10 });
    // Smoke shrinks h/d/log_t/k but params.name() still says 128f; label
    // the artifact so reduced numbers are never read as full-set ones.
    let params_label = if smoke {
        format!("{} (reduced smoke shape)", params.name())
    } else {
        params.name().to_string()
    };

    let n = params.n;
    let (sk, _) = keygen_from_seeds(
        params,
        (0..n as u8).collect(),
        (50..50 + n as u8).collect(),
        (100..100 + n as u8).collect(),
    );

    // Correctness gate before timing anything: both paths must agree.
    let probe = b"hot path equivalence probe";
    assert_eq!(
        hero_bench::baseline::sign(&sk, probe),
        sk.sign(probe),
        "scalar baseline and batched signer disagree"
    );

    println!(
        "bench_hot_path: {params_label} ({iters} iters{})",
        if smoke { ", smoke" } else { "" }
    );
    println!("  hash tiers      : {}", tier::description());

    let scalar = measure(|m| hero_bench::baseline::sign(&sk, m), iters);
    let batched = measure(|m| sk.sign(m), iters);

    // Hash cores in isolation: the SHA-256 and SHAKE-256 lane engines
    // against their scalar counterparts on the leaf-hash workload.
    let (core_count, core_rounds) = if smoke { (512, 20) } else { (2048, 200) };
    let sha_core = measure_hash_core(HashAlg::Sha256, core_count, core_rounds);
    let shake_core = measure_hash_core(HashAlg::Shake256, core_count, core_rounds);

    // Per-tier sections: every rung of each primitive's ladder the host
    // supports, timed on the same batched workload under a forced tier.
    let sha_tiers = measure_tier_cores(
        HashAlg::Sha256,
        &tier::supported_sha256_tiers(),
        core_count,
        core_rounds,
    );
    let shake_tiers = measure_tier_cores(
        HashAlg::Shake256,
        &tier::supported_keccak_tiers(),
        core_count,
        core_rounds,
    );

    let speedup = batched.msgs_per_sec / scalar.msgs_per_sec;
    let compressions = hero_sign::workload::total_sign_compressions(&params) as f64;
    let compressions_per_sec = compressions * batched.msgs_per_sec;

    println!("  scalar baseline : {:>10.2} msgs/sec", scalar.msgs_per_sec);
    println!(
        "  batched hot path: {:>10.2} msgs/sec",
        batched.msgs_per_sec
    );
    println!("  speedup         : {speedup:>10.2}x");
    println!("  compressions/sec: {compressions_per_sec:>10.3e}");
    println!(
        "  allocs/sign     : {:>10.1} (scalar {:.1})",
        batched.allocs_per_sign, scalar.allocs_per_sign
    );
    for (name, core) in [("sha256", &sha_core), ("shake256", &shake_core)] {
        println!(
            "  {name:<8} F core : {:>10.3e} scalar, {:>10.3e} multi-lane hashes/sec ({:.2}x)",
            core.scalar_hashes_per_sec,
            core.batched_hashes_per_sec,
            core.speedup(),
        );
    }
    for (name, tiers) in [("sha256", &sha_tiers), ("shake256", &shake_tiers)] {
        let scalar_rate = tiers
            .iter()
            .find(|t| t.tier == HashTier::Scalar)
            .map(|t| t.hashes_per_sec)
            .expect("scalar tier is always supported");
        for t in tiers {
            println!(
                "  {name:<8} tier {:<7}: {:>10.3e} hashes/sec ({:.2}x vs scalar tier)",
                t.tier.label(),
                t.hashes_per_sec,
                t.hashes_per_sec / scalar_rate,
            );
        }
    }

    // Gate 1 — dispatch never loses to the scalar tier. The resolved
    // tier runs the same batched engine, so anything below ~1x means the
    // ladder picked a loser; 0.9 absorbs single-core timer noise (the
    // real margins are 2-4x).
    for (primitive, alg_name, tiers) in [
        (Primitive::Sha256, "sha256", &sha_tiers),
        (Primitive::Keccak, "shake256", &shake_tiers),
    ] {
        let dispatch = tier::active(primitive);
        let rate_of = |wanted: HashTier| {
            tiers
                .iter()
                .find(|t| t.tier == wanted)
                .map(|t| t.hashes_per_sec)
        };
        let dispatch_rate = rate_of(dispatch).expect("dispatched tier is supported");
        let scalar_rate = rate_of(HashTier::Scalar).expect("scalar tier is always supported");
        assert!(
            dispatch_rate >= 0.9 * scalar_rate,
            "{alg_name}: dispatched tier {} ({dispatch_rate:.3e} hashes/sec) lost to \
             the scalar tier ({scalar_rate:.3e})",
            dispatch.label()
        );
        // Gate 2 — on hosts with a rung above AVX2, that rung must beat
        // the AVX2 baseline for its primitive (the issue's acceptance
        // bar). Smoke runs keep a noise guard instead of the strict bar.
        let min_ratio = if smoke { 0.9 } else { 1.0 };
        if let Some(avx2_rate) = rate_of(HashTier::Avx2) {
            let top = tiers.first().expect("supported tiers are non-empty");
            if top.tier != HashTier::Avx2 && top.tier != HashTier::Scalar {
                assert!(
                    top.hashes_per_sec > min_ratio * avx2_rate,
                    "{alg_name}: top tier {} ({:.3e} hashes/sec) did not beat the \
                     AVX2 baseline ({avx2_rate:.3e})",
                    top.tier.label(),
                    top.hashes_per_sec
                );
            }
        }
    }

    let tier_section_json = |dispatch: HashTier, tiers: &[TierStats]| {
        let scalar_rate = tiers
            .iter()
            .find(|t| t.tier == HashTier::Scalar)
            .map(|t| t.hashes_per_sec)
            .expect("scalar tier is always supported");
        let rows: Vec<String> = tiers
            .iter()
            .map(|t| {
                format!(
                    "      {{\"tier\": \"{}\", \"hashes_per_sec\": {:.3}, \
                     \"speedup_vs_scalar_tier\": {:.3}}}",
                    t.tier.label(),
                    t.hashes_per_sec,
                    t.hashes_per_sec / scalar_rate,
                )
            })
            .collect();
        format!(
            "{{\n    \"dispatch\": \"{}\",\n    \"per_tier\": [\n{}\n    ]\n  }}",
            dispatch.label(),
            rows.join(",\n"),
        )
    };
    let hash_core_json = |core: &HashCoreStats| {
        format!(
            "{{\n    \"scalar_hashes_per_sec\": {:.3},\n    \
             \"multi_lane_hashes_per_sec\": {:.3},\n    \
             \"multi_lane_speedup\": {:.3}\n  }}",
            core.scalar_hashes_per_sec,
            core.batched_hashes_per_sec,
            core.speedup(),
        )
    };
    let json = format!(
        "{{\n  \"bench\": \"hot_path\",\n  \"params\": \"{}\",\n  \"smoke\": {},\n  \"iters\": {},\n  \"baseline_scalar\": {{\n    \"msgs_per_sec\": {:.3},\n    \"allocs_per_sign\": {:.1},\n    \"alloc_bytes_per_sign\": {:.1}\n  }},\n  \"batched\": {{\n    \"msgs_per_sec\": {:.3},\n    \"allocs_per_sign\": {:.1},\n    \"alloc_bytes_per_sign\": {:.1}\n  }},\n  \"speedup_vs_baseline\": {:.3},\n  \"compressions_per_sign\": {},\n  \"compressions_per_sec\": {:.3e},\n  \"hash_core_sha256\": {},\n  \"hash_core_shake256\": {},\n  \"hash_tiers_sha256\": {},\n  \"hash_tiers_keccak\": {},\n  \"tier_gates\": {{\"dispatch_never_loses_to_scalar\": true, \"top_tier_beats_avx2_where_present\": true}},\n  \"signatures_byte_identical\": true\n}}\n",
        params_label,
        smoke,
        iters,
        scalar.msgs_per_sec,
        scalar.allocs_per_sign,
        scalar.alloc_bytes_per_sign,
        batched.msgs_per_sec,
        batched.allocs_per_sign,
        batched.alloc_bytes_per_sign,
        speedup,
        compressions as u64,
        compressions_per_sec,
        hash_core_json(&sha_core),
        hash_core_json(&shake_core),
        tier_section_json(tier::sha256_tier(), &sha_tiers),
        tier_section_json(tier::keccak_tier(), &shake_tiers),
    );
    // Remaining batched-path allocations are the Vec-based Signature
    // output structure (one Vec per revealed node/auth sibling), not the
    // hashing loop; the JSON keeps both counts so the trajectory is
    // honest about where the floor is.
    std::fs::write(&out_path, json).expect("write bench json");
    println!("  wrote {out_path}");
}
