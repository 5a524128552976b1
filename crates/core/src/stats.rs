//! Shared latency statistics: the percentile machinery every
//! throughput-measuring surface uses.
//!
//! The CLI `throughput` command and the server's metrics endpoint
//! report the same p50/p90/p99 shape; this module is the single
//! implementation behind both. The
//! percentile is nearest-rank on the sorted sample set — the convention
//! the CLI has reported since the service landed — so numbers stay
//! comparable across surfaces.
//!
//! ```
//! use hero_sign::stats::LatencySummary;
//! use std::time::Duration;
//!
//! let samples: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
//! let s = LatencySummary::from_unsorted(samples).unwrap();
//! assert_eq!(s.p50, Duration::from_micros(51)); // nearest rank, 0-indexed
//! assert_eq!(s.p99, Duration::from_micros(99));
//! assert_eq!(s.count, 100);
//! ```

use std::time::Duration;

/// Nearest-rank percentile over an already-sorted slice. `p` is in
/// percent (`50.0` = median). Returns [`Duration::ZERO`] on an empty
/// slice so metrics surfaces never panic on a quiet tenant.
pub fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((p / 100.0) * (sorted.len().saturating_sub(1)) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The latency digest all throughput surfaces report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Median latency.
    pub p50: Duration,
    /// 90th-percentile latency.
    pub p90: Duration,
    /// 99th-percentile latency.
    pub p99: Duration,
    /// Arithmetic mean.
    pub mean: Duration,
    /// Number of samples summarized.
    pub count: usize,
}

impl LatencySummary {
    /// Summarizes an unsorted sample set (sorts in place). Returns
    /// `None` for an empty set — callers decide whether that renders as
    /// zeros (metrics) or is an error (benches).
    pub fn from_unsorted(mut samples: Vec<Duration>) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        Some(Self::from_sorted(&samples))
    }

    /// Summarizes a sorted sample set.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the slice is not sorted.
    pub fn from_sorted(sorted: &[Duration]) -> Self {
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples unsorted");
        if sorted.is_empty() {
            return Self::default();
        }
        let total: Duration = sorted.iter().sum();
        Self {
            p50: percentile(sorted, 50.0),
            p90: percentile(sorted, 90.0),
            p99: percentile(sorted, 99.0),
            mean: total / sorted.len() as u32,
            count: sorted.len(),
        }
    }

    /// Renders as the one-line `p50 … | p90 … | p99 … | mean …` form
    /// (microseconds) the CLI and metrics endpoint print.
    pub fn render_us(&self) -> String {
        format!(
            "p50 {:.1} us | p90 {:.1} us | p99 {:.1} us | mean {:.1} us",
            self.p50.as_secs_f64() * 1e6,
            self.p90.as_secs_f64() * 1e6,
            self.p99.as_secs_f64() * 1e6,
            self.mean.as_secs_f64() * 1e6,
        )
    }
}

/// A bounded reservoir of recent latency samples feeding
/// [`LatencySummary`] — the metrics endpoint's backing store. Keeps the
/// most recent `capacity` samples (ring overwrite), so long-running
/// servers report current behavior, not all-time history.
#[derive(Clone, Debug)]
pub struct LatencyWindow {
    samples: Vec<Duration>,
    next: usize,
    capacity: usize,
}

impl LatencyWindow {
    /// A window keeping the last `capacity` samples (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            samples: Vec::new(),
            next: 0,
            capacity: capacity.max(1),
        }
    }

    /// Records one sample, evicting the oldest once full.
    pub fn record(&mut self, sample: Duration) {
        if self.samples.len() < self.capacity {
            self.samples.push(sample);
        } else {
            self.samples[self.next] = sample;
        }
        self.next = (self.next + 1) % self.capacity;
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Discards every held sample (capacity is kept). Used when the
    /// window's consistency can no longer be trusted — e.g. after its
    /// owning lock was poisoned mid-`record` — where an empty window is
    /// honest and a half-updated one is not.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.next = 0;
    }

    /// Summary of the held samples; `None` when empty.
    pub fn summary(&self) -> Option<LatencySummary> {
        LatencySummary::from_unsorted(self.samples.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<Duration> = (1..=4).map(Duration::from_millis).collect();
        assert_eq!(percentile(&sorted, 0.0), Duration::from_millis(1));
        assert_eq!(percentile(&sorted, 50.0), Duration::from_millis(3));
        assert_eq!(percentile(&sorted, 100.0), Duration::from_millis(4));
        assert_eq!(percentile(&[], 50.0), Duration::ZERO);
    }

    #[test]
    fn summary_matches_manual_computation() {
        let samples: Vec<Duration> = (1..=10).rev().map(Duration::from_micros).collect();
        let s = LatencySummary::from_unsorted(samples).unwrap();
        assert_eq!(s.count, 10);
        assert_eq!(s.p50, Duration::from_micros(6));
        assert_eq!(s.p90, Duration::from_micros(9));
        assert_eq!(s.p99, Duration::from_micros(10));
        assert_eq!(s.mean, Duration::from_nanos(5500));
        assert!(s.render_us().contains("p99 10.0 us"), "{}", s.render_us());
    }

    #[test]
    fn empty_sets_are_none() {
        assert!(LatencySummary::from_unsorted(Vec::new()).is_none());
    }

    #[test]
    fn window_keeps_only_recent_samples() {
        let mut w = LatencyWindow::new(4);
        assert!(w.is_empty());
        for ms in 1..=10u64 {
            w.record(Duration::from_millis(ms));
        }
        assert_eq!(w.len(), 4);
        // Only 7..=10 remain.
        let s = w.summary().unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.p50, Duration::from_millis(9));
        assert_eq!(s.p99, Duration::from_millis(10));
    }
}
