//! `--compare a.json b.json`: holds result `b` to result `a` within the
//! bound `BENCHMARK.json` fixes for every end-to-end metric, workload by
//! workload.

use crate::host::COMPARABLE_HOST_FIELDS;
use crate::json::{self, Value};
use crate::names::{END_TO_END, WORKLOADS};
use crate::stats;

use std::path::Path;
use std::process::ExitCode;

/// How one metric on one workload fared.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Breach,
    /// The runs of one side spread wider than the bound: neither
    /// "unchanged" nor "worse" can be read off them.
    Unresolved,
}

/// By what share of `a`'s median `b`'s median is worse (negative: better).
pub fn worsening(a: &[f64], b: &[f64], higher_is_better: bool) -> f64 {
    let (a, b) = (stats::median(a), stats::median(b));
    if a == 0.0 {
        return 0.0;
    }
    if higher_is_better {
        (a - b) / a.abs()
    } else {
        (b - a) / a.abs()
    }
}

pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let spread = stats::relative_range(a).max(stats::relative_range(b));
    // Every run of b reading better than every run of a settles it
    // whatever the spread.
    let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
    let b_always_better = if higher_is_better {
        min(b) > max(a)
    } else {
        max(b) < min(a)
    };
    if spread > bound && !b_always_better {
        Verdict::Unresolved
    } else if worsening(a, b, higher_is_better) > bound {
        Verdict::Breach
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Why the two results cannot be compared, if they cannot.
fn incomparable(a: &Value, b: &Value) -> Option<String> {
    for field in COMPARABLE_HOST_FIELDS {
        let of = |v: &Value| v.get("host").and_then(|h| h.get(field)).cloned();
        if of(a) != of(b) {
            return Some(format!("host field {field} differs"));
        }
    }
    ["seed", "seconds"]
        .into_iter()
        .find(|field| a.get(field) != b.get(field))
        .map(|field| format!("{field} differs"))
}

fn values(result: &Value, workload: &str, metric: &str) -> Vec<f64> {
    result
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .map_or(&[][..], Value::as_array)
        .iter()
        .filter_map(Value::as_f64)
        .collect()
}

pub fn run(a_path: &Path, b_path: &Path, spec: Option<&Value>) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(reason) = incomparable(&a, &b) {
        eprintln!("benchmark: refusing to compare: {reason}");
        return ExitCode::from(2);
    }
    // The bounds are BENCHMARK.json's; the tables only stand in when the
    // binary runs away from the repository.
    let bound_of = |metric: &str, fallback: f64| {
        spec.and_then(|s| s.get("end_to_end"))
            .map_or(&[][..], Value::as_array)
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some(metric))
            .and_then(|m| m.get("bound"))
            .and_then(Value::as_f64)
            .unwrap_or(fallback)
    };
    println!(
        "{:<18} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "worse by", "bound"
    );
    let mut breaches = 0;
    for workload in &WORKLOADS {
        for metric in &END_TO_END {
            let (va, vb) = (
                values(&a, workload.name, metric.name),
                values(&b, workload.name, metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                eprintln!(
                    "benchmark: {} {} is missing from a result",
                    workload.name, metric.name
                );
                return ExitCode::from(2);
            }
            let bound = bound_of(metric.name, metric.bound);
            let verdict = verdict(&va, &vb, metric.higher_is_better, bound);
            breaches += usize::from(verdict == Verdict::Breach);
            println!(
                "{:<18} {:<14} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%  {}",
                workload.name,
                metric.name,
                stats::median(&va),
                stats::median(&vb),
                100.0 * worsening(&va, &vb, metric.higher_is_better),
                100.0 * bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Breach => "BREACH",
                    Verdict::Unresolved => "unresolved (runs spread wider than the bound)",
                }
            );
        }
    }
    if breaches == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: {breaches} metric(s) worse than their bound");
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worsening(&[100.0], &[80.0], true) - 0.2).abs() < 1e-12);
        assert!((worsening(&[100.0], &[80.0], false) + 0.2).abs() < 1e-12);
        assert_eq!(verdict(&[100.0], &[80.0], true, 0.1), Verdict::Breach);
        assert_eq!(verdict(&[100.0], &[80.0], false, 0.1), Verdict::Ok);
        assert_eq!(verdict(&[100.0], &[95.0], true, 0.1), Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_one_side_always_wins() {
        // a spreads by 30 %, more than the 10 % bound.
        assert_eq!(
            verdict(&[90.0, 100.0, 120.0], &[85.0, 95.0], true, 0.1),
            Verdict::Unresolved
        );
        // ...but every run of b beats every run of a.
        assert_eq!(
            verdict(&[90.0, 100.0, 120.0], &[130.0, 140.0], true, 0.1),
            Verdict::Ok
        );
    }

    #[test]
    fn differing_hosts_seeds_and_lengths_do_not_compare() {
        let result = |nproc: f64, seed: f64, rev: &str| {
            Value::obj([
                (
                    "host",
                    Value::obj([
                        ("nproc", Value::Num(nproc)),
                        ("git_revision", Value::str(rev)),
                    ]),
                ),
                ("seed", Value::Num(seed)),
                ("seconds", Value::Num(24.0)),
            ])
        };
        assert_eq!(
            incomparable(&result(2.0, 1.0, "aaa"), &result(2.0, 1.0, "bbb")),
            None
        );
        assert!(incomparable(&result(2.0, 1.0, "aaa"), &result(4.0, 1.0, "aaa")).is_some());
        assert!(incomparable(&result(2.0, 1.0, "aaa"), &result(2.0, 2.0, "aaa")).is_some());
    }
}
