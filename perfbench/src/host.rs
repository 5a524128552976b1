//! What the process cost (CPU time, peak memory) and which host it ran
//! on: a number is only comparable with another from the same
//! fingerprint.

use crate::json::Value;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Kernel clock ticks per second: `/proc/self/stat` counts CPU time in
/// `USER_HZ`, which Linux fixes at 100 on every architecture.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has used, all threads.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields count from the
    // closing parenthesis. utime and stime are fields 14 and 15.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_comm.split_whitespace().skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks() + ticks()) / USER_HZ
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Counts heap allocations, for `alloc.*`; installed as the global
/// allocator in both runs so that they cost the same.
pub struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is passed unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the counters are statistics and
// never influence an allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocations, bytes)` requested so far, all threads.
pub fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOC_COUNT.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Environment variables that change what the program does; a run with
/// one of them set is not comparable with a standard one.
const NONSTANDARD_ENV: [&str; 3] = ["HERO_HASH_TIER", "HERO_WORKERS", "HERO_FAULTS"];

/// The reasons, if any, why this run does not measure the standard
/// configuration.
pub fn nonstandard_reasons(
    seconds: f64,
    standard_seconds: Option<f64>,
    smoke: bool,
) -> Vec<String> {
    let mut reasons: Vec<String> = NONSTANDARD_ENV
        .iter()
        .filter(|name| std::env::var_os(name).is_some())
        .map(|name| format!("{name} is set"))
        .collect();
    if smoke {
        reasons.push("--smoke shrinks every count".to_string());
    }
    match standard_seconds {
        Some(standard) if standard != seconds => reasons.push(format!(
            "--seconds {seconds} differs from BENCHMARK.json run_seconds {standard}"
        )),
        _ => {}
    }
    reasons
}

/// The host and build a result belongs to.
pub fn fingerprint() -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, model)| model.trim())
        .to_string();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Value::obj([
        ("nproc", Value::Num(nproc as f64)),
        ("cpu_model", Value::str(cpu_model)),
        (
            "sha256_tier",
            Value::str(hero_sphincs::tier::sha256_tier().label()),
        ),
        (
            "keccak_tier",
            Value::str(hero_sphincs::tier::keccak_tier().label()),
        ),
        (
            "workers",
            Value::Num(hero_sign::par::default_workers() as f64),
        ),
        ("rustc", Value::str(env!("PERFBENCH_RUSTC"))),
        ("git_revision", Value::str(git_revision())),
    ])
}

/// Fields of [`fingerprint`] that must agree before two results compare
/// (the git revision may differ — that is the point of comparing).
pub const COMPARABLE_HOST_FIELDS: [&str; 6] = [
    "nproc",
    "cpu_model",
    "sha256_tier",
    "keccak_tier",
    "workers",
    "rustc",
];

fn git_revision() -> String {
    // The driver's checkout is not a repository; there the answer is
    // "unknown" and the driver knows the commit itself.
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |rev| rev.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_and_memory_read_as_positive() {
        let mut x = 0u64;
        while cpu_seconds() == 0.0 {
            for i in 0..50_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
        }
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn fingerprint_has_every_comparable_field() {
        let host = fingerprint();
        for field in COMPARABLE_HOST_FIELDS {
            assert!(host.get(field).is_some(), "{field} missing");
        }
    }

    #[test]
    fn overridden_run_length_is_nonstandard() {
        assert!(nonstandard_reasons(24.0, Some(24.0), false)
            .iter()
            .all(|r| r.contains("is set")));
        assert!(nonstandard_reasons(5.0, Some(24.0), false)
            .iter()
            .any(|r| r.contains("--seconds")));
        assert!(nonstandard_reasons(24.0, Some(24.0), true)
            .iter()
            .any(|r| r.contains("--smoke")));
    }
}
