//! The repository benchmark: four SPHINCS+-128f / SHA-256 workloads, five
//! end-to-end metrics and a hash-core-to-wire ladder. See `README.md`.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run; the last line of
//!                                                            stdout is the result object
//! benchmark [--seed N] [--seconds S] [--runs R] [--out F]   every workload, both kinds of
//!                                                            run, each in a fresh process
//! benchmark --smoke [--out F]                                the same at a fraction of the counts
//! benchmark --compare a.json b.json                          hold b to a within the bounds
//! ```

mod compare;
mod gen;
mod host;
mod json;
mod ladder;
mod names;
mod spans;
mod stats;
mod workloads;

use json::Value;
use names::{Metrics, END_TO_END, PER_LAYER, WORKLOADS};
use spans::SpanLog;
use workloads::{Phase, Run, Scale, Stop, Workload, BATCH};

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: host::CountingAlloc = host::CountingAlloc;

/// `--seconds` of a `--smoke` run.
const SMOKE_SECONDS: f64 = 0.4;

/// Set-up repeats beyond its least count until it has taken this long.
const SETUP_BUDGET_S: f64 = 1.0;

/// Root spans whose self time `trace.harness_share` averages.
const SELF_TIME_ROOTS: usize = 256;

/// Where span files and results go unless `--out` says otherwise:
/// inside the benchmark's own directory, ignored by git.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `BENCHMARK.json`, which sits beside the benchmark's directory.
fn benchmark_spec() -> Option<Value> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).ok()?).ok()
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: usize,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        runs: 1,
        out: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => {
                args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".to_string());
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b, benchmark_spec().as_ref());
    }
    let standard_seconds = benchmark_spec()
        .as_ref()
        .and_then(|spec| spec.get("run_seconds"))
        .and_then(Value::as_f64);
    let seconds = match (args.seconds, args.smoke, standard_seconds) {
        (Some(seconds), _, _) => seconds,
        (None, true, _) => SMOKE_SECONDS,
        (None, false, Some(standard)) => standard,
        (None, false, None) => {
            eprintln!("benchmark: no --seconds and no BENCHMARK.json to take run_seconds from");
            return ExitCode::from(2);
        }
    };
    let run = Run {
        seed: args.seed,
        seconds,
        scale: if args.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        },
    };
    let nonstandard = host::nonstandard_reasons(seconds, standard_seconds, args.smoke);
    match &args.workload {
        Some(name) => one_run(name, &run, args.trace, &nonstandard),
        None => all_workloads(&args, &run, &nonstandard),
    }
}

// ------------------------------------------------------------------ one run

/// What one run found.
struct Report {
    attempted: u64,
    failed: u64,
    /// Invariants of the workload that did not hold.
    broken: Vec<String>,
    metrics: Metrics,
}

fn one_run(name: &str, run: &Run, trace: bool, nonstandard: &[String]) -> ExitCode {
    println!(
        "benchmark: {name} seed {} for {} s, {}",
        run.seed,
        run.seconds,
        if trace { "traced ladder" } else { "end to end" }
    );
    if let Some(spec) = WORKLOADS.iter().find(|w| w.name == name) {
        println!("why: {}", spec.why);
    }
    println!("host: {}", host::fingerprint());
    for reason in nonstandard {
        println!("nonstandard: {reason}");
    }
    let report = match name {
        workloads::BatchSign::NAME => drive::<workloads::BatchSign>(run, trace),
        workloads::SingleSignCold::NAME => drive::<workloads::SingleSignCold>(run, trace),
        workloads::BatchVerify::NAME => drive::<workloads::BatchVerify>(run, trace),
        workloads::WireMixed::NAME => drive::<workloads::WireMixed>(run, trace),
        other => {
            eprintln!("benchmark: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    for broken in &report.broken {
        println!("invariant broken: {broken}");
    }
    let correct = report.failed == 0 && report.broken.is_empty();
    println!(
        "failed_share: {} of {} operations",
        report.failed, report.attempted
    );
    let table: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let metrics = table.into_iter().map(|(name, unit)| {
        // A layer the workload does not cross did no work: 0.
        let value = report.metrics.get(name).unwrap_or(0.0);
        println!("  {name:<46} {value:>16.4} {unit}");
        (
            name,
            Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))]),
        )
    });
    let result = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(report.attempted.max(1) as f64)),
        ("failed", Value::Num(report.failed as f64)),
        ("metrics", Value::obj(metrics.collect::<Vec<_>>())),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn drive<W: Workload>(run: &Run, trace: bool) -> Report {
    // Set up several times, each from nothing, and keep the last.
    let (least, most) = if trace { (1, 1) } else { run.scale.setup_reps };
    let mut setups: Vec<f64> = Vec::new();
    let mut workload = None;
    while setups.len() < least
        || (setups.len() < most && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(workload.take());
        let start = Instant::now();
        workload = Some(W::setup(run));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("set-up ran at least once");
    let warm = workload.phase(Stop::Calls(W::warm_calls(&run.scale)), None);

    let mut metrics = Metrics::new();
    if !trace {
        let measured = workload.phase(Stop::Seconds(run.seconds), None);
        setups.extend(&measured.setups);
        workloads::end_to_end(&mut metrics, &measured, &setups);
        print_latency_samples(&measured, setups.len());
        let (mismatched, broken) = workload.check();
        return Report {
            attempted: measured.attempted,
            failed: measured.failed + mismatched,
            broken,
            metrics,
        };
    }

    // The same loop untraced and traced: their difference is what the
    // spans cost. Then the ladder replays the traced phase's first requests.
    let plain = workload.phase(Stop::Seconds(run.seconds / 8.0), None);
    let log = SpanLog::new();
    let traced = workload.phase(Stop::Seconds(run.seconds / 4.0), Some(&log));
    let (mismatched, broken) = workload.check();
    let count = if W::BATCHED {
        BATCH
    } else {
        run.scale.replay_singles
    };
    let requests = workload.requests(count);
    metrics = ladder::run(&ladder::Inputs {
        run,
        log: &log,
        requests: &requests,
        parents: &traced.replayable,
        batched: W::BATCHED,
        hot: W::HOT,
    });

    let ops_so_far = (warm.ops + plain.ops + traced.ops).max(1) as f64;
    let observed = workload.observed();
    let lookups = observed.cache.hits + observed.cache.misses;
    metrics.set(
        "cache.hit_ratio",
        observed.cache.hits as f64 / lookups.max(1) as f64,
    );
    metrics.set(
        "cache.misses_per_sign",
        observed.cache.misses as f64 / ops_so_far,
    );
    metrics.set(
        "cache.resident_mb",
        observed.cache.resident_bytes as f64 / 1048576.0,
    );
    metrics.set("cache.evictions", observed.cache.evictions as f64);
    metrics.set(
        "executor.submissions_per_op",
        observed.submissions as f64 / ops_so_far,
    );
    if let Some(wire) = &observed.wire {
        wire_metrics(&mut metrics, wire);
    }
    let sorted = stats::sorted(&traced.lat_ms);
    metrics.set("call.p50_ms", stats::percentile(&sorted, 50.0));
    metrics.set("call.p90_ms", stats::percentile(&sorted, 90.0));
    metrics.set("call.p99_ms", stats::percentile(&sorted, 99.0));
    metrics.set(
        "trace.overhead_share",
        1.0 - traced.ops_per_s() / plain.ops_per_s(),
    );
    let spans = log.snapshot();
    let (own, whole) = traced
        .roots
        .iter()
        .take(SELF_TIME_ROOTS)
        .filter_map(|&id| {
            let root = spans.iter().find(|s| s.id == id)?;
            Some((spans::self_time_ns(&spans, id), root.end_ns - root.start_ns))
        })
        .fold((0, 0), |(own, whole), (o, w)| (own + o, whole + w));
    metrics.set("trace.harness_share", own as f64 / whole.max(1) as f64);

    let path = out_dir().join(format!("spans-{}-seed{}.jsonl", W::NAME, run.seed));
    match log.write_jsonl(&path) {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("benchmark: cannot write {}: {e}", path.display()),
    }
    Report {
        attempted: traced.attempted,
        failed: traced.failed + mismatched,
        broken,
        metrics,
    }
}

/// The sample count beside every percentile, and the highest percentile
/// the run can support (ten samples beyond it).
fn print_latency_samples(measured: &Phase, setup_samples: usize) {
    let n = measured.lat_ms.len();
    let sorted = stats::sorted(&measured.lat_ms);
    println!("samples: {n} calls behind call_p50_ms, {setup_samples} set-ups behind setup_s");
    match stats::tail_percentile(n) {
        Some(p) => println!(
            "tail: p{p} = {:.4} ms is the highest percentile with ten samples beyond it",
            stats::percentile(&sorted, p)
        ),
        None => println!("tail: too few samples for any percentile"),
    }
}

fn wire_metrics(metrics: &mut Metrics, wire: &workloads::WireObserved) {
    let page = &wire.metrics_page;
    let mut per_op = |samples: &[f64],
                      names: [&'static str; 3],
                      server: &'static str,
                      overhead: &'static str,
                      scraped: &str| {
        let sorted = stats::sorted(samples);
        for (name, p) in names.into_iter().zip([50.0, 90.0, 99.0]) {
            metrics.set(name, stats::percentile(&sorted, p));
        }
        let server_p50 = workloads::scrape(page, scraped) / 1e3;
        metrics.set(server, server_p50);
        metrics.set(overhead, stats::percentile(&sorted, 50.0) - server_p50);
    };
    per_op(
        &wire.sign_ms,
        [
            "client.sign_p50_ms",
            "client.sign_p90_ms",
            "client.sign_p99_ms",
        ],
        "server.sign_service_p50_ms",
        "wire.sign_overhead_p50_ms",
        "hero_server_sign_latency_us{quantile=\"0.5\"}",
    );
    per_op(
        &wire.verify_ms,
        [
            "client.verify_p50_ms",
            "client.verify_p90_ms",
            "client.verify_p99_ms",
        ],
        "server.verify_service_p50_ms",
        "wire.verify_overhead_p50_ms",
        "hero_verify_latency_us{quantile=\"0.5\"}",
    );
    metrics.set(
        "server.rejected",
        workloads::scrape(page, "hero_server_requests_rejected_total"),
    );
    metrics.set("client.reconnects", wire.reconnects as f64);
}

// ------------------------------------------------------------ every workload

/// Each metric's value in every run, in the order first printed.
type RunValues = Vec<(String, Vec<f64>)>;

/// Runs every workload `runs` times, end to end and traced, each run in
/// a process of its own (cold caches, its own peak memory), and writes
/// one result file.
fn all_workloads(args: &Args, run: &Run, nonstandard: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find this executable to run it again: {e}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    let mut results: Vec<(String, Value)> = Vec::new();
    for spec in &WORKLOADS {
        let mut sections: Vec<(String, RunValues)> = Vec::new();
        let (mut attempted, mut failed) = (Vec::new(), Vec::new());
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let mut values: RunValues = Vec::new();
            for _ in 0..args.runs {
                let mut child = std::process::Command::new(&exe);
                child
                    .args(["--workload", spec.name, "--trace", trace])
                    .args(["--seed", &run.seed.to_string()])
                    .args(["--seconds", &run.seconds.to_string()]);
                if args.smoke {
                    child.arg("--smoke");
                }
                // `output` waits for the child to end.
                let output = match child.stderr(std::process::Stdio::inherit()).output() {
                    Ok(output) => output,
                    Err(e) => {
                        eprintln!("benchmark: cannot start {}: {e}", spec.name);
                        return ExitCode::from(2);
                    }
                };
                let stdout = String::from_utf8_lossy(&output.stdout);
                let mut lines: Vec<&str> = stdout.lines().collect();
                let last = lines.pop().unwrap_or_default();
                for line in lines {
                    println!("{line}");
                }
                let Ok(result) = json::parse(last) else {
                    eprintln!(
                        "benchmark: {} printed no result ({})",
                        spec.name, output.status
                    );
                    return ExitCode::from(1);
                };
                all_correct &=
                    output.status.success() && result.get("correct") == Some(&Value::Bool(true));
                if trace == "0" {
                    attempted.push(
                        result
                            .get("attempted")
                            .and_then(Value::as_f64)
                            .unwrap_or(0.0),
                    );
                    failed.push(result.get("failed").and_then(Value::as_f64).unwrap_or(0.0));
                }
                for (name, metric) in result.get("metrics").map_or(&[][..], Value::fields) {
                    let value = metric.get("value").and_then(Value::as_f64).unwrap_or(0.0);
                    match values.iter_mut().find(|(n, _)| n == name) {
                        Some((_, list)) => list.push(value),
                        None => values.push((name.clone(), vec![value])),
                    }
                }
            }
            sections.push((section.to_string(), values));
        }
        print_table_two_row(spec.name, &sections[1].1);
        let mut fields: Vec<(String, Value)> = vec![
            ("attempted".to_string(), Value::nums(&attempted)),
            ("failed".to_string(), Value::nums(&failed)),
        ];
        fields.extend(sections.into_iter().map(|(section, values)| {
            (
                section,
                Value::Obj(
                    values
                        .into_iter()
                        .map(|(n, v)| (n, Value::nums(&v)))
                        .collect(),
                ),
            )
        }));
        results.push((spec.name.to_string(), Value::Obj(fields)));
    }

    let result = Value::obj([
        ("host", host::fingerprint()),
        ("seed", Value::Num(run.seed as f64)),
        ("seconds", Value::Num(run.seconds)),
        ("runs", Value::Num(args.runs as f64)),
        (
            "nonstandard",
            Value::Arr(nonstandard.iter().map(Value::str).collect()),
        ),
        ("workloads", Value::Obj(results)),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("result-seed{}.json", run.seed)));
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, format!("{result}\n")));
    match written {
        Ok(()) => println!("result: {}", path.display()),
        Err(e) => {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: at least one run failed an output check or an invariant");
        ExitCode::from(1)
    }
}

/// The ladder read as the CPU row of the paper's Table II: where a
/// signature's time goes, by component.
fn print_table_two_row(workload: &str, per_layer: &RunValues) {
    let median = |name: &str| {
        per_layer
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, values)| stats::median(values))
    };
    let stage_ms =
        median("stage.fors_sign_ms") + median("stage.tree_sign_ms") + median("stage.wots_sign_ms");
    println!(
        "table II, {workload}: FORS {:.1}% | MSS {:.1}% | WOTS+ {:.1}% of {stage_ms:.3} ms in stages; planner+executor {:.1}% of the one-worker call",
        100.0 * median("stage.fors_sign_share"),
        100.0 * median("stage.tree_sign_share"),
        100.0 * median("stage.wots_sign_share"),
        100.0 * median("plan.self_share"),
    );
}
