//! Every `hero-sign` command that starts a worker pool checks its
//! environment before it does: a value that configures nothing is a usage
//! error (exit 2) naming the variable, never a silent fallback to the
//! default.

use std::process::{Command, Stdio};

/// Runs `hero-sign` with `args` and `var=value`, stdin closed (so a
/// server that did start drains and exits at once); its exit code and
/// standard error.
fn run_with(args: &[&str], var: &str, value: &str) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hero-sign"))
        .args(args)
        .env(var, value)
        .stdin(Stdio::null())
        .output()
        .expect("the binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

/// Runs `serve` over an empty key directory, as [`run_with`].
fn serve_with(var: &str, value: &str) -> (Option<i32>, String) {
    let dir = std::env::temp_dir().join(format!("hero-cli-env-{var}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let result = run_with(&["serve", "--keys", dir.to_str().unwrap()], var, value);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

#[test]
fn serve_rejects_a_worker_count_that_sizes_no_pool() {
    for bad in ["0", "lots"] {
        let (code, stderr) = serve_with("HERO_WORKERS", bad);
        assert_eq!(code, Some(2), "HERO_WORKERS={bad}: {stderr}");
        assert!(stderr.contains("HERO_WORKERS"), "{stderr}");
        assert!(stderr.contains(&format!("'{bad}'")), "{stderr}");
    }
    let (code, stderr) = serve_with("HERO_WORKERS", "1");
    assert_eq!(code, Some(0), "HERO_WORKERS=1: {stderr}");
}

#[test]
fn throughput_rejects_a_worker_count_that_sizes_no_pool() {
    let throughput = ["throughput", "--smoke", "--clients", "1", "--requests", "1"];
    for bad in ["0", "lots"] {
        let (code, stderr) = run_with(&throughput, "HERO_WORKERS", bad);
        assert_eq!(code, Some(2), "HERO_WORKERS={bad}: {stderr}");
        assert!(stderr.contains("HERO_WORKERS"), "{stderr}");
        assert!(stderr.contains(&format!("'{bad}'")), "{stderr}");
    }
    let (code, stderr) = run_with(&throughput, "HERO_WORKERS", "1");
    assert_eq!(code, Some(0), "HERO_WORKERS=1: {stderr}");
}
