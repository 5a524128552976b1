//! Server metrics: global and per-tenant counters plus the shared
//! latency-percentile machinery, rendered as a plaintext page.
//!
//! The page is deliberately Prometheus-shaped (`name{label="…"} value`
//! lines) without claiming full exposition-format compliance — it is
//! readable with `nc`/`curl`, parseable with `grep`, and served both by
//! the [`crate::wire::Op::Stats`] op and the standalone metrics
//! listener.

use hero_sign::service::ServiceStats;
use hero_sign::stats::{LatencySummary, LatencyWindow};
use hero_sign::CacheStats;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Per-tenant request counters. All relaxed atomics: metrics are
/// monotonic gauges, not synchronization.
#[derive(Debug, Default)]
pub struct TenantCounters {
    /// Requests accepted for this tenant (all ops).
    pub requests: AtomicU64,
    /// Requests answered. A verdict is an answer: a verify whose
    /// signature is invalid or malformed counts here, whether its verdict
    /// travels as a verdict byte (verify-batch) or as an error frame
    /// (verify).
    pub completed: AtomicU64,
    /// Requests refused with a typed error: admission, queue full,
    /// deadline, drain, bad request, engine error. Never a verdict.
    pub rejected: AtomicU64,
    /// Signatures this tenant asked the server to verify (items, not
    /// requests: a verify-batch of 8 counts 8).
    pub verify_requests: AtomicU64,
    /// Verified items whose verdict was *cryptographically invalid*.
    pub verify_invalid: AtomicU64,
    /// Verified items whose signature bytes were structurally malformed
    /// (wrong lengths/shape — never reached the verifier).
    pub verify_malformed: AtomicU64,
}

/// Whole-server metrics state.
#[derive(Debug)]
pub struct Metrics {
    /// Connections the accept loop has handed to handlers.
    pub connections: AtomicU64,
    /// Frames accepted (fully read) across all connections.
    pub requests: AtomicU64,
    /// Requests refused with a typed error (oversized or undecodable
    /// frame, drain, deadline, unknown tenant, admission, queue full,
    /// engine error). A verify's verdict is an answer, not a refusal,
    /// even where the wire carries it as an error frame.
    pub rejected: AtomicU64,
    /// Requests answered with [`ErrorCode::DeadlineExceeded`] — shed at
    /// receipt or expired while queued, never signed.
    ///
    /// [`ErrorCode::DeadlineExceeded`]: crate::error::ErrorCode::DeadlineExceeded
    pub deadline_expired: AtomicU64,
    /// Poisoned locks reclaimed (the latency window here, plus the
    /// sharded keystore/tenant/engine maps, folded in at render time).
    pub lock_poison_recoveries: AtomicU64,
    /// Sign/sign-batch latency samples (per message, not per batch).
    latency: Mutex<LatencyWindow>,
    /// Verify/verify-batch latency samples (per item, not per batch) —
    /// a separate window so slow signs don't mask fast verifies and
    /// vice versa.
    verify_latency: Mutex<LatencyWindow>,
}

impl Metrics {
    /// A metrics sink keeping the last `latency_window` sign latencies.
    pub fn new(latency_window: usize) -> Self {
        Self {
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            lock_poison_recoveries: AtomicU64::new(0),
            latency: Mutex::new(LatencyWindow::new(latency_window)),
            verify_latency: Mutex::new(LatencyWindow::new(latency_window)),
        }
    }

    /// Locks a latency window, recovering a poisoned lock. Unlike the
    /// sharded maps (whose operations are atomic), a `record` can be
    /// interrupted between the sample write and the cursor advance, so
    /// the consistency re-check after recovery is to clear the window:
    /// an empty percentile report is honest, a half-updated one lies.
    fn window<'a>(
        &self,
        lock: &'a Mutex<LatencyWindow>,
    ) -> std::sync::MutexGuard<'a, LatencyWindow> {
        lock.lock().unwrap_or_else(|poisoned| {
            self.lock_poison_recoveries.fetch_add(1, Ordering::Relaxed);
            // Un-poison so the recovery (and the clear) happens once per
            // poisoning event, not once per subsequent access.
            lock.clear_poison();
            let mut window = poisoned.into_inner();
            window.clear();
            window
        })
    }

    /// Records one end-to-end sign latency sample.
    pub fn record_latency(&self, sample: std::time::Duration) {
        self.window(&self.latency).record(sample);
    }

    /// Current sign latency summary, if any samples exist.
    pub fn latency_summary(&self) -> Option<LatencySummary> {
        self.window(&self.latency).summary()
    }

    /// Records one end-to-end verify latency sample (per item).
    pub fn record_verify_latency(&self, sample: std::time::Duration) {
        self.window(&self.verify_latency).record(sample);
    }

    /// Current verify latency summary, if any samples exist.
    pub fn verify_latency_summary(&self) -> Option<LatencySummary> {
        self.window(&self.verify_latency).summary()
    }
}

/// One tenant's row in the rendered page.
pub struct TenantRow {
    /// Tenant name.
    pub tenant: String,
    /// Snapshot of the tenant's counters.
    pub requests: u64,
    /// Completed requests.
    pub completed: u64,
    /// Rejected requests.
    pub rejected: u64,
    /// Requests currently admitted and not yet answered.
    pub inflight: u64,
    /// Depth of the tenant's sign-service queue (pending, uncoalesced).
    pub queue_depth: u64,
    /// Signatures verified for this tenant (items, not requests).
    pub verify_requests: u64,
    /// Items with a cryptographically-invalid verdict.
    pub verify_invalid: u64,
    /// Items with a structurally-malformed verdict.
    pub verify_malformed: u64,
    /// Depth of the tenant's verify-lane queue.
    pub verify_queue_depth: u64,
    /// The tenant service's per-lane counters. Batch size is emergent
    /// (whatever queued behind the batch in flight), so the page shows
    /// it: mean batch = completed ÷ batches.
    pub service: ServiceStats,
}

/// Renders the plaintext metrics page. `shard_poison_recoveries` folds
/// in the sharded maps' reclaim counters (keystore, tenants, engines),
/// which live outside [`Metrics`]; the rendered total also includes the
/// latency-window recoveries counted internally. `cache` is the
/// hypertree-memoization counter snapshot summed across the server's
/// engines (all-zero when no engine exposes a cache).
pub fn render(
    metrics: &Metrics,
    tenants: &[TenantRow],
    draining: bool,
    shard_poison_recoveries: u64,
    cache: &CacheStats,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "hero_server_up {}", if draining { 0 } else { 1 });
    // The resolved hash ISA ladder, as an info-style metric: value is
    // always 1, the tier rides in the label so operators can see (and
    // alert on) which core — and which WOTS+ chain body — every signer
    // in this process dispatches to.
    for primitive in hero_sphincs::tier::Primitive::ALL {
        let _ = writeln!(
            out,
            "hero_hash_tier{{primitive=\"{}\",tier=\"{}\"}} 1",
            primitive.label(),
            hero_sphincs::tier::active(primitive).label()
        );
    }
    let _ = writeln!(
        out,
        "hero_server_connections_total {}",
        metrics.connections.load(Ordering::Relaxed)
    );
    let _ = writeln!(
        out,
        "hero_server_requests_total {}",
        metrics.requests.load(Ordering::Relaxed)
    );
    let _ = writeln!(
        out,
        "hero_server_requests_rejected_total {}",
        metrics.rejected.load(Ordering::Relaxed)
    );
    let _ = writeln!(
        out,
        "hero_server_deadline_expired_total {}",
        metrics.deadline_expired.load(Ordering::Relaxed)
    );
    let _ = writeln!(
        out,
        "hero_server_lock_poison_recoveries_total {}",
        metrics
            .lock_poison_recoveries
            .load(Ordering::Relaxed)
            .saturating_add(shard_poison_recoveries)
    );
    let _ = writeln!(out, "hero_cache_hits_total {}", cache.hits);
    let _ = writeln!(out, "hero_cache_misses_total {}", cache.misses);
    let _ = writeln!(out, "hero_cache_evictions_total {}", cache.evictions);
    let _ = writeln!(
        out,
        "hero_cache_resident_bytes_total {}",
        cache.resident_bytes
    );
    let _ = writeln!(out, "hero_cache_resident_keys {}", cache.resident_keys);
    match metrics.latency_summary() {
        Some(s) => {
            for (q, v) in [("0.5", s.p50), ("0.9", s.p90), ("0.99", s.p99)] {
                let _ = writeln!(
                    out,
                    "hero_server_sign_latency_us{{quantile=\"{q}\"}} {:.1}",
                    v.as_secs_f64() * 1e6
                );
            }
            let _ = writeln!(
                out,
                "hero_server_sign_latency_us{{quantile=\"mean\"}} {:.1}",
                s.mean.as_secs_f64() * 1e6
            );
            let _ = writeln!(out, "hero_server_sign_latency_samples {}", s.count);
        }
        None => {
            let _ = writeln!(out, "hero_server_sign_latency_samples 0");
        }
    }
    match metrics.verify_latency_summary() {
        Some(s) => {
            for (q, v) in [("0.5", s.p50), ("0.9", s.p90), ("0.99", s.p99)] {
                let _ = writeln!(
                    out,
                    "hero_verify_latency_us{{quantile=\"{q}\"}} {:.1}",
                    v.as_secs_f64() * 1e6
                );
            }
            let _ = writeln!(
                out,
                "hero_verify_latency_us{{quantile=\"mean\"}} {:.1}",
                s.mean.as_secs_f64() * 1e6
            );
            let _ = writeln!(out, "hero_verify_latency_samples {}", s.count);
        }
        None => {
            let _ = writeln!(out, "hero_verify_latency_samples 0");
        }
    }
    for row in tenants {
        let t = &row.tenant;
        let _ = writeln!(
            out,
            "hero_server_tenant_requests_total{{tenant=\"{t}\"}} {}",
            row.requests
        );
        let _ = writeln!(
            out,
            "hero_server_tenant_completed_total{{tenant=\"{t}\"}} {}",
            row.completed
        );
        let _ = writeln!(
            out,
            "hero_server_tenant_rejected_total{{tenant=\"{t}\"}} {}",
            row.rejected
        );
        let _ = writeln!(
            out,
            "hero_server_tenant_inflight{{tenant=\"{t}\"}} {}",
            row.inflight
        );
        let _ = writeln!(
            out,
            "hero_server_queue_depth{{tenant=\"{t}\"}} {}",
            row.queue_depth
        );
        let _ = writeln!(
            out,
            "hero_verify_requests_total{{tenant=\"{t}\"}} {}",
            row.verify_requests
        );
        let _ = writeln!(
            out,
            "hero_verify_invalid_total{{tenant=\"{t}\"}} {}",
            row.verify_invalid
        );
        let _ = writeln!(
            out,
            "hero_verify_malformed_total{{tenant=\"{t}\"}} {}",
            row.verify_malformed
        );
        let _ = writeln!(
            out,
            "hero_verify_queue_depth{{tenant=\"{t}\"}} {}",
            row.verify_queue_depth
        );
        let s = &row.service;
        for (lane, completed, batches, max_batch) in [
            ("sign", s.completed, s.batches, s.max_batch_observed),
            (
                "verify",
                s.verify_completed,
                s.verify_batches,
                s.verify_max_batch_observed,
            ),
        ] {
            let labels = format!("{{tenant=\"{t}\",lane=\"{lane}\"}}");
            let _ = writeln!(out, "hero_service_completed_total{labels} {completed}");
            let _ = writeln!(out, "hero_service_batches_total{labels} {batches}");
            let _ = writeln!(out, "hero_service_max_batch{labels} {max_batch}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn page_renders_counters_and_percentiles() {
        let m = Metrics::new(64);
        m.connections.fetch_add(3, Ordering::Relaxed);
        m.requests.fetch_add(10, Ordering::Relaxed);
        m.rejected.fetch_add(2, Ordering::Relaxed);
        for us in [100u64, 200, 300, 400] {
            m.record_latency(Duration::from_micros(us));
        }
        for us in [50u64, 60, 70, 80] {
            m.record_verify_latency(Duration::from_micros(us));
        }
        let rows = vec![TenantRow {
            tenant: "validator-1".into(),
            requests: 6,
            completed: 5,
            rejected: 1,
            inflight: 2,
            queue_depth: 3,
            verify_requests: 12,
            verify_invalid: 2,
            verify_malformed: 1,
            verify_queue_depth: 4,
            service: ServiceStats {
                completed: 90,
                batches: 30,
                max_batch_observed: 7,
                verify_completed: 12,
                verify_batches: 12,
                verify_max_batch_observed: 1,
                ..ServiceStats::default()
            },
        }];
        m.deadline_expired.fetch_add(4, Ordering::Relaxed);
        let cache = CacheStats {
            hits: 9,
            misses: 4,
            evictions: 1,
            resident_bytes: 2048,
            resident_keys: 2,
            resident_subtrees: 6,
        };
        let page = render(&m, &rows, false, 3, &cache);
        assert!(page.contains("hero_server_up 1"), "{page}");
        for primitive in ["sha256", "sha256_chain", "keccak"] {
            assert!(
                page.contains(&format!("hero_hash_tier{{primitive=\"{primitive}\",tier=")),
                "{page}"
            );
        }
        assert!(page.contains("hero_cache_hits_total 9"), "{page}");
        assert!(page.contains("hero_cache_misses_total 4"), "{page}");
        assert!(page.contains("hero_cache_evictions_total 1"), "{page}");
        assert!(
            page.contains("hero_cache_resident_bytes_total 2048"),
            "{page}"
        );
        assert!(page.contains("hero_server_requests_total 10"), "{page}");
        assert!(
            page.contains("hero_server_deadline_expired_total 4"),
            "{page}"
        );
        assert!(
            page.contains("hero_server_lock_poison_recoveries_total 3"),
            "{page}"
        );
        assert!(
            page.contains("hero_server_sign_latency_us{quantile=\"0.99\"} 400.0"),
            "{page}"
        );
        assert!(
            page.contains("hero_server_queue_depth{tenant=\"validator-1\"} 3"),
            "{page}"
        );
        assert!(
            page.contains("hero_server_tenant_rejected_total{tenant=\"validator-1\"} 1"),
            "{page}"
        );
        assert!(
            page.contains("hero_verify_latency_us{quantile=\"0.99\"} 80.0"),
            "{page}"
        );
        assert!(page.contains("hero_verify_latency_samples 4"), "{page}");
        assert!(
            page.contains("hero_verify_requests_total{tenant=\"validator-1\"} 12"),
            "{page}"
        );
        assert!(
            page.contains("hero_verify_invalid_total{tenant=\"validator-1\"} 2"),
            "{page}"
        );
        assert!(
            page.contains("hero_verify_malformed_total{tenant=\"validator-1\"} 1"),
            "{page}"
        );
        assert!(
            page.contains("hero_verify_queue_depth{tenant=\"validator-1\"} 4"),
            "{page}"
        );
        // Realised batch sizes, per lane: mean = completed / batches.
        for line in [
            "hero_service_completed_total{tenant=\"validator-1\",lane=\"sign\"} 90",
            "hero_service_batches_total{tenant=\"validator-1\",lane=\"sign\"} 30",
            "hero_service_max_batch{tenant=\"validator-1\",lane=\"sign\"} 7",
            "hero_service_completed_total{tenant=\"validator-1\",lane=\"verify\"} 12",
            "hero_service_batches_total{tenant=\"validator-1\",lane=\"verify\"} 12",
            "hero_service_max_batch{tenant=\"validator-1\",lane=\"verify\"} 1",
        ] {
            assert!(page.contains(line), "{line}\n{page}");
        }
    }

    #[test]
    fn poisoned_latency_window_recovers_cleared_and_counted() {
        let m = std::sync::Arc::new(Metrics::new(8));
        m.record_latency(Duration::from_micros(100));
        let poisoner = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.latency.lock().unwrap();
            panic!("injected fault: mid-record");
        })
        .join();
        // Recovery clears the window (the half-updated samples cannot be
        // trusted) and counts the event; recording keeps working.
        assert!(m.latency_summary().is_none());
        assert!(m.lock_poison_recoveries.load(Ordering::Relaxed) >= 1);
        m.record_latency(Duration::from_micros(200));
        assert_eq!(m.latency_summary().unwrap().count, 1);
    }

    #[test]
    fn quiet_server_renders_without_samples() {
        let m = Metrics::new(8);
        let page = render(&m, &[], true, 0, &CacheStats::default());
        assert!(page.contains("hero_server_up 0"), "{page}");
        assert!(page.contains("hero_cache_hits_total 0"), "{page}");
        assert!(
            page.contains("hero_server_sign_latency_samples 0"),
            "{page}"
        );
        assert!(page.contains("hero_verify_latency_samples 0"), "{page}");
        assert!(!page.contains("quantile"), "{page}");
    }
}
