//! Sim-time metrics registry: counters, gauges, fixed-bucket histograms.
//!
//! All storage is ordered (`BTreeMap` keyed by the `&'static str` behind
//! a [`MetricName`]), so iteration — and therefore every rendering and
//! the trace fingerprint — is deterministic. There are no wall-clock reads
//! anywhere: values are observed at simulation timestamps supplied by
//! the caller, and the registry itself stores no times at all.

use std::collections::BTreeMap;

use crate::name::MetricName;

/// Bucket upper bounds (inclusive) for assignment-span latencies, in
/// simulated milliseconds. One extra overflow bucket is appended.
pub const SPAN_BOUNDS_MS: &[u64] = &[250, 500, 1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000];

/// Bucket upper bounds (inclusive) for ready-queue depth samples.
pub const QUEUE_DEPTH_BOUNDS: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64, 128];

/// Bucket upper bounds (inclusive) for retainer-pool occupancy samples.
pub const OCCUPANCY_BOUNDS: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64];

/// A fixed-bucket histogram. `counts.len() == bounds.len() + 1`; the
/// last bucket counts observations above every bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: &'static [u64],
    counts: Vec<u64>,
}

impl Histogram {
    pub fn new(bounds: &'static [u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Histogram { bounds, counts: vec![0; bounds.len() + 1] }
    }

    /// Count `value` in the first bucket whose bound it does not exceed.
    pub fn observe(&mut self, value: u64) {
        let idx = self.bounds.iter().position(|&b| value <= b).unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
    }

    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// The live registry held by an enabled runner. Keys are `&'static str`
/// (zero-copy, D001-clean ordered storage); [`MetricsRegistry::snapshot`]
/// converts to owned strings for the ride-along report.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    pub fn inc(&mut self, name: MetricName) {
        self.add(name, 1);
    }

    pub fn add(&mut self, name: MetricName, delta: u64) {
        *self.counters.entry(name.as_str()).or_insert(0) += delta;
    }

    /// High-water-mark gauge: keeps the maximum value ever set.
    pub fn gauge_max(&mut self, name: MetricName, value: u64) {
        let slot = self.gauges.entry(name.as_str()).or_insert(0);
        if value > *slot {
            *slot = value;
        }
    }

    pub fn observe(&mut self, name: MetricName, bounds: &'static [u64], value: u64) {
        self.histograms
            .entry(name.as_str())
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// Merge a whole histogram in (used when folding `PoolObs` counts).
    pub fn absorb_histogram(&mut self, name: MetricName, bounds: &'static [u64], counts: &[u64]) {
        let hist = self.histograms.entry(name.as_str()).or_insert_with(|| Histogram::new(bounds));
        assert_eq!(hist.counts.len(), counts.len(), "histogram shape mismatch");
        for (slot, &c) in hist.counts.iter_mut().zip(counts) {
            *slot += c;
        }
    }

    pub fn counter(&self, name: MetricName) -> u64 {
        self.counters.get(name.as_str()).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: MetricName) -> u64 {
        self.gauges.get(name.as_str()).copied().unwrap_or(0)
    }

    pub fn histogram(&self, name: MetricName) -> Option<&Histogram> {
        self.histograms.get(name.as_str())
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.to_string(),
                        HistogramSnapshot { bounds: h.bounds.to_vec(), counts: h.counts.clone() },
                    )
                })
                .collect(),
        }
    }
}

/// Owned histogram state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    pub bounds: Vec<u64>,
    pub counts: Vec<u64>,
}

/// Owned registry state. This is what rides along on
/// `RunReport` and what `sweep` folds across jobs: counters add,
/// high-water gauges take the max, histograms add bucket-wise — all
/// associative and commutative, so a parallel sweep folding per-job
/// snapshots in job-index order reduces to the same value as a serial
/// one (the same contract `OnlineStats::merge` upholds).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Fold `other` into `self`. Histograms under the same name must
    /// share bucket bounds (they always do: bounds come from the static
    /// tables above).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let slot = self.gauges.entry(k.clone()).or_insert(0);
            if *v > *slot {
                *slot = *v;
            }
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
                Some(mine) => {
                    assert_eq!(mine.bounds, h.bounds, "histogram bounds mismatch for {k}");
                    for (slot, &c) in mine.counts.iter_mut().zip(&h.counts) {
                        *slot += c;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::names;

    #[test]
    fn histogram_buckets_are_inclusive_with_overflow() {
        let mut h = Histogram::new(&[10, 20]);
        h.observe(0);
        h.observe(10);
        h.observe(11);
        h.observe(20);
        h.observe(21);
        h.observe(u64::MAX);
        assert_eq!(h.counts(), &[2, 2, 2]);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn registry_roundtrip_and_snapshot() {
        let mut r = MetricsRegistry::new();
        r.inc(names::RUNNER_DISPATCH);
        r.add(names::RUNNER_DISPATCH, 2);
        r.gauge_max(names::RUNNER_QUEUE_DEPTH_HWM, 5);
        r.gauge_max(names::RUNNER_QUEUE_DEPTH_HWM, 3);
        r.observe(names::RUNNER_QUEUE_DEPTH, QUEUE_DEPTH_BOUNDS, 4);
        assert_eq!(r.counter(names::RUNNER_DISPATCH), 3);
        assert_eq!(r.gauge(names::RUNNER_QUEUE_DEPTH_HWM), 5);

        let s = r.snapshot();
        assert_eq!(s.counters["runner.dispatch"], 3);
        assert_eq!(s.gauges["runner.queue_depth_hwm"], 5);
        assert_eq!(s.histograms["runner.queue_depth"].counts.iter().sum::<u64>(), 1);
    }

    #[test]
    fn merge_adds_counters_maxes_gauges_sums_histograms() {
        let mut a = MetricsRegistry::new();
        a.inc(names::RUNNER_WALKOUT);
        a.gauge_max(names::POOL_OCCUPANCY_HWM, 4);
        a.observe(names::POOL_OCCUPANCY, OCCUPANCY_BOUNDS, 2);
        let mut b = MetricsRegistry::new();
        b.add(names::RUNNER_WALKOUT, 5);
        b.gauge_max(names::POOL_OCCUPANCY_HWM, 2);
        b.observe(names::POOL_OCCUPANCY, OCCUPANCY_BOUNDS, 100);

        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counters["runner.walkout"], 6);
        assert_eq!(merged.gauges["pool.occupancy_hwm"], 4);
        assert_eq!(merged.histograms["pool.occupancy"].counts.iter().sum::<u64>(), 2);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut r = MetricsRegistry::new();
        r.inc(names::POOL_JOIN);
        r.observe(names::POOL_OCCUPANCY, OCCUPANCY_BOUNDS, 1);
        let snap = r.snapshot();

        let mut left = MetricsSnapshot::default();
        left.merge(&snap);
        assert_eq!(left, snap);

        let mut right = snap.clone();
        right.merge(&MetricsSnapshot::default());
        assert_eq!(right, snap);
    }
}
