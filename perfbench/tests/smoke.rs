//! Runs the benchmark binary the way a person does — every workload,
//! end to end and traced, each in a process of its own — at the
//! `--smoke` fraction of the counts, and holds the result file to the
//! names `BENCHMARK.json` lists.

use std::path::Path;
use std::process::Command;

/// Every `"name": "..."` in `BENCHMARK.json`: workloads and metrics.
fn listed_names() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    text.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("a closing quote").to_string())
        .collect()
}

#[test]
fn smoke_run_prints_every_name_checks_every_output_and_compares_with_itself() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-result.json");
    let run = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--smoke", "--seed", "7", "--out"])
        .arg(&out)
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "a smoke run failed a check:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(stdout.contains("nonstandard: --smoke"));
    assert!(stdout.contains("table II, single_sign_cold"));

    let result = std::fs::read_to_string(&out).expect("the result file was written");
    let names = listed_names();
    assert!(
        names.len() > 70,
        "BENCHMARK.json lists {} names",
        names.len()
    );
    for name in &names {
        assert!(
            result.contains(&format!("\"{name}\"")),
            "{name} is missing from the result"
        );
    }
    for field in [
        "nproc",
        "cpu_model",
        "sha256_tier",
        "keccak_tier",
        "workers",
        "rustc",
        "git_revision",
        "seed",
    ] {
        assert!(
            result.contains(&format!("\"{field}\"")),
            "{field} is missing from the result"
        );
    }

    // A result agrees with itself under every bound.
    let compared = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .arg("--compare")
        .args([&out, &out])
        .output()
        .expect("the benchmark starts");
    assert!(
        compared.status.success(),
        "{}",
        String::from_utf8_lossy(&compared.stdout)
    );
}

#[test]
fn one_traced_run_follows_the_driver_protocol() {
    let run = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            "batch_verify",
            "--seed",
            "3",
            "--seconds",
            "0.3",
            "--trace",
            "1",
            "--smoke",
        ])
        .output()
        .expect("the benchmark starts");
    assert!(run.status.success());
    let stdout = String::from_utf8_lossy(&run.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"hash_core.sha256_compress_per_s\": {\"value\": "));
    assert!(
        !last.contains("\"ops_per_s\""),
        "a traced run prints no end-to-end metric"
    );
}

#[test]
fn unknown_arguments_are_refused() {
    for args in [
        &["--workload", "nonesuch"][..],
        &["--trace", "2"],
        &["--frobnicate"],
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(args)
            .args(["--seconds", "0.1"])
            .output()
            .expect("the benchmark starts");
        assert_eq!(run.status.code(), Some(2), "{args:?}");
    }
}
