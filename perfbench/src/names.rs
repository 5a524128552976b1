//! The names this benchmark prints. `BENCHMARK.json` lists exactly these
//! (a test compares the two), and every later claim in this repository
//! is one metric name here on one workload name here.

/// A workload and why it was chosen.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "batch_sign",
        why: "sign_batch of 64 under one long-lived key: the paper's headline case; hash core, stages and planner do the work, the cache serves hits, service and wire are bypassed",
    },
    WorkloadSpec {
        name: "single_sign_cold",
        why: "one sign per fresh key: batch-of-1 plans and the cache's miss+fill path on every lookup (hit ratio must read 0), the twin of batch_sign",
    },
    WorkloadSpec {
        name: "batch_verify",
        why: "verify_batch of 64 over a corpus with every 16th entry invalid: same hash core, no signing stage and no cache, so a stage or cache gain must not move it",
    },
    WorkloadSpec {
        name: "wire_mixed",
        why: "nproc blocking clients over loopback TCP, each sign then verify then every 8th a tampered verify: the only path through service, server and wire, both lanes on one executor",
    },
];

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "call_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.15,
    },
];

/// A per-layer metric: `(name, unit, higher is better)`. A workload that
/// does not cross a layer reports that layer's workload-bound metrics as 0.
pub const PER_LAYER: [(&str, &str, bool); 71] = [
    // the workload's own call, traced (the tails are not gated: on the
    // shared reference host p90 repeats within 7 to 26 %, p99 worse)
    ("call.p50_ms", "ms", false),
    ("call.p90_ms", "ms", false),
    ("call.p99_ms", "ms", false),
    // hash core
    ("hash_core.sha256_compress_per_s", "1/s", true),
    ("hash_core.sha256_tier_scalar_compress_per_s", "1/s", true),
    ("hash_core.sha256_tier_avx2_compress_per_s", "1/s", true),
    ("hash_core.sha256_tier_sha-ni_compress_per_s", "1/s", true),
    ("hash_core.sha256_tier_avx512_compress_per_s", "1/s", true),
    ("hash_core.keccak_permute_per_s", "1/s", true),
    // tweakable hash
    ("thash.f_many_per_s", "1/s", true),
    ("thash.h_many_per_s", "1/s", true),
    ("thash.prf_many_per_s", "1/s", true),
    ("thash.t_l_per_s", "1/s", true),
    ("thash.f_efficiency", "ratio", true),
    // stage kernels
    ("stage.fors_sign_ms", "ms", false),
    ("stage.tree_sign_ms", "ms", false),
    ("stage.wots_sign_ms", "ms", false),
    ("stage.fors_sign_share", "ratio", false),
    ("stage.tree_sign_share", "ratio", false),
    ("stage.wots_sign_share", "ratio", false),
    ("stage.fors_sign_compressions", "count", false),
    ("stage.tree_sign_compressions", "count", false),
    ("stage.wots_sign_compressions", "count", false),
    ("stage.verify_compressions", "count", false),
    ("stage.fors_sign_efficiency", "ratio", true),
    ("stage.tree_sign_efficiency", "ratio", true),
    ("stage.wots_sign_efficiency", "ratio", true),
    ("stage.verify_ms", "ms", false),
    ("stage.verify_many_ms", "ms", false),
    ("stage.keygen_ms", "ms", false),
    ("sig.to_bytes_us", "us", false),
    ("sig.from_bytes_us", "us", false),
    ("alloc.count_per_sign", "count", false),
    ("alloc.bytes_per_sign", "count", false),
    ("alloc.count_per_verify", "count", false),
    // planner + executor
    ("plan.nodes_batch64", "count", false),
    ("plan.nodes_batch1", "count", false),
    ("plan.sign_w1_per_s", "1/s", true),
    ("plan.self_share", "ratio", false),
    ("plan.sign_parallel_efficiency", "ratio", true),
    ("plan.verify_parallel_efficiency", "ratio", true),
    ("executor.noop_node_us", "us", false),
    ("executor.submissions_per_op", "count", false),
    // hypertree cache
    ("cache.hit_ratio", "ratio", true),
    ("cache.misses_per_sign", "count", false),
    ("cache.resident_mb", "MB", false),
    ("cache.evictions", "count", false),
    ("cache.warm_key_ms", "ms", false),
    // service
    ("service.sign_overhead_p50_ms", "ms", false),
    ("service.verify_overhead_p50_ms", "ms", false),
    ("service.sign_mean_batch", "count", true),
    ("service.verify_mean_batch", "count", true),
    ("service.max_batch_observed", "count", true),
    // server + wire + client
    ("server.sign_service_p50_ms", "ms", false),
    ("server.verify_service_p50_ms", "ms", false),
    ("wire.sign_overhead_p50_ms", "ms", false),
    ("wire.verify_overhead_p50_ms", "ms", false),
    ("wire.encode_response_us", "us", false),
    ("wire.decode_request_us", "us", false),
    ("server.rejected", "count", false),
    ("client.reconnects", "count", false),
    ("client.sign_p50_ms", "ms", false),
    ("client.sign_p90_ms", "ms", false),
    ("client.sign_p99_ms", "ms", false),
    ("client.verify_p50_ms", "ms", false),
    ("client.verify_p90_ms", "ms", false),
    ("client.verify_p99_ms", "ms", false),
    // model (off the runtime path)
    ("sim.sign_kops_128f", "kops", true),
    ("tuning.search_ms", "ms", false),
    // the benchmark itself
    ("trace.overhead_share", "ratio", false),
    ("trace.harness_share", "ratio", false),
];

/// Values collected under names of one table; a name outside the table
/// is a bug in the benchmark, caught the first time it is set.
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn new() -> Self {
        Self { values: Vec::new() }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.0 == name),
            "metric {name} is in neither table"
        );
        assert!(value.is_finite(), "metric {name} is {value}");
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_use_only_the_allowed_characters_and_are_unique() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.0));
        for name in &all {
            assert!(well_formed(name), "{name}");
        }
        let distinct: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(distinct.len(), all.len());
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    /// `BENCHMARK.json` lists exactly the names, units, directions and
    /// bounds the binary prints, under exactly the contract's keys.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = spec.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let better = |higher: bool| Value::str(if higher { "higher" } else { "lower" });

        let workloads: Vec<Value> = WORKLOADS
            .iter()
            .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
            .collect();
        assert_eq!(spec.get("workloads"), Some(&Value::Arr(workloads)));

        let end_to_end: Vec<Value> = END_TO_END
            .iter()
            .map(|m| {
                Value::obj([
                    ("name", Value::str(m.name)),
                    ("unit", Value::str(m.unit)),
                    ("better", better(m.higher_is_better)),
                    ("bound", Value::Num(m.bound)),
                ])
            })
            .collect();
        assert_eq!(spec.get("end_to_end"), Some(&Value::Arr(end_to_end)));

        let per_layer: Vec<Value> = PER_LAYER
            .iter()
            .map(|&(name, unit, higher)| {
                Value::obj([
                    ("name", Value::str(name)),
                    ("unit", Value::str(unit)),
                    ("better", better(higher)),
                ])
            })
            .collect();
        assert_eq!(spec.get("per_layer"), Some(&Value::Arr(per_layer)));

        assert_eq!(
            spec.get("paths"),
            Some(&Value::Arr(vec![Value::str("perfbench")]))
        );
        let seconds = spec.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }
}
