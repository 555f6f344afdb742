//! Inter-worker agreement.
//!
//! §4.2 ("Extensions"): pool maintenance "can be easily extended to
//! optimize for other criteria … For example, we could maintain a pool
//! using quality (estimated using, e.g., inter-worker agreement)". This
//! module provides that estimator: for each worker, the fraction of their
//! answers that agree with a co-worker's answer on the same item.

use std::collections::BTreeMap;

/// Accumulates (item, worker, label) observations and computes per-worker
/// agreement rates.
#[derive(Debug, Clone, Default)]
pub struct AgreementTracker {
    /// item -> list of (worker, label)
    by_item: BTreeMap<u32, Vec<(u32, u32)>>,
}

impl AgreementTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an answer.
    pub fn observe(&mut self, worker: u32, item: u32, label: u32) {
        self.by_item.entry(item).or_default().push((worker, label));
    }

    /// Per-worker agreement rate: over all pairs `(w, w')` co-labeling an
    /// item, the fraction where their labels match. Workers with no
    /// co-labeled items are absent from the result.
    pub fn agreement_rates(&self) -> BTreeMap<u32, f64> {
        let mut agree: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for answers in self.by_item.values() {
            for (i, &(w1, l1)) in answers.iter().enumerate() {
                for &(w2, l2) in answers.iter().skip(i + 1) {
                    if w1 == w2 {
                        continue; // repeated answer by the same worker
                    }
                    let matched = (l1 == l2) as u64;
                    let e1 = agree.entry(w1).or_insert((0, 0));
                    e1.0 += matched;
                    e1.1 += 1;
                    let e2 = agree.entry(w2).or_insert((0, 0));
                    e2.0 += matched;
                    e2.1 += 1;
                }
            }
        }
        agree.into_iter().map(|(w, (m, t))| (w, m as f64 / t as f64)).collect()
    }

    /// Mean pairwise agreement across all workers (a pool-quality scalar).
    pub fn pool_agreement(&self) -> f64 {
        let rates = self.agreement_rates();
        if rates.is_empty() {
            return 0.0;
        }
        rates.values().sum::<f64>() / rates.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_agreement() {
        let mut t = AgreementTracker::new();
        for item in 0..5 {
            t.observe(0, item, 1);
            t.observe(1, item, 1);
        }
        let rates = t.agreement_rates();
        assert_eq!(rates[&0], 1.0);
        assert_eq!(rates[&1], 1.0);
        assert_eq!(t.pool_agreement(), 1.0);
    }

    #[test]
    fn disagreeing_worker_scores_low() {
        let mut t = AgreementTracker::new();
        for item in 0..10 {
            t.observe(0, item, 0);
            t.observe(1, item, 0);
            t.observe(2, item, 1); // contrarian
        }
        let rates = t.agreement_rates();
        assert_eq!(rates[&2], 0.0);
        assert!((rates[&0] - 0.5).abs() < 1e-12); // agrees with 1, not 2
        assert!(rates[&0] > rates[&2]);
    }

    #[test]
    fn no_overlap_no_rate() {
        let mut t = AgreementTracker::new();
        t.observe(0, 0, 1);
        t.observe(1, 1, 1);
        assert!(t.agreement_rates().is_empty());
        assert_eq!(t.pool_agreement(), 0.0);
    }

    #[test]
    fn same_worker_pairs_ignored() {
        let mut t = AgreementTracker::new();
        t.observe(0, 0, 1);
        t.observe(0, 0, 0); // same worker answered twice
        assert!(t.agreement_rates().is_empty());
    }
}
