//! Full Dawid–Skene with per-worker confusion matrices.
//!
//! The one-coin model of [`crate::em`] assumes symmetric errors. Real
//! workers confuse specific class pairs (e.g. "4" vs "9" in digit
//! labeling), which the original Dawid & Skene (1979) formulation
//! captures with a per-worker confusion matrix `π_w[true][answered]`.
//! This module implements that full model; it is the natural upgrade path
//! for CLAMShell deployments whose tasks have structured error patterns.

use std::collections::BTreeMap;

/// Observation store for confusion-matrix EM.
#[derive(Debug, Clone, Default)]
pub struct ConfusionEm {
    obs: Vec<(u32, u32, u32)>,
    n_classes: u32,
}

/// Result of confusion-matrix EM.
#[derive(Debug, Clone)]
pub struct ConfusionResult {
    /// MAP consensus label per item.
    pub labels: BTreeMap<u32, u32>,
    /// Per-worker confusion matrix, row-major `k × k`:
    /// `confusion[w][true * k + answered]`.
    pub confusion: BTreeMap<u32, Vec<f64>>,
    /// Per-worker scalar accuracy (trace of the confusion matrix weighted
    /// by class priors).
    pub worker_accuracy: BTreeMap<u32, f64>,
    /// Estimated class priors.
    pub priors: Vec<f64>,
    /// Iterations run.
    pub iterations: u32,
}

impl ConfusionEm {
    /// New store over `n_classes` classes.
    pub fn new(n_classes: u32) -> Self {
        assert!(n_classes >= 2);
        ConfusionEm { obs: Vec::new(), n_classes }
    }

    /// Record that `worker` labeled `item` as `label`.
    pub fn observe(&mut self, worker: u32, item: u32, label: u32) {
        assert!(label < self.n_classes, "label out of range");
        self.obs.push((worker, item, label));
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.obs.len()
    }

    /// Whether no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.obs.is_empty()
    }

    /// Run EM for at most `max_iters` with smoothing `alpha`.
    ///
    /// Degenerate inputs (e.g. every observation carrying the same
    /// label) keep the estimates finite: `alpha` smoothing prevents
    /// zero rows in the confusion matrices, and ties in the MAP argmax
    /// resolve to the lowest class index deterministically (covered by
    /// the degenerate-input tests below).
    pub fn run(&self, max_iters: u32, alpha: f64, tol: f64) -> ConfusionResult {
        let k = self.n_classes as usize;
        let items: Vec<u32> = {
            let mut v: Vec<u32> = self.obs.iter().map(|&(_, i, _)| i).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let workers: Vec<u32> = {
            let mut v: Vec<u32> = self.obs.iter().map(|&(w, _, _)| w).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let item_index: BTreeMap<u32, usize> =
            items.iter().enumerate().map(|(i, &x)| (x, i)).collect();
        let worker_index: BTreeMap<u32, usize> =
            workers.iter().enumerate().map(|(i, &x)| (x, i)).collect();

        // Initialize confusion matrices as mostly-diagonal (workers are
        // assumed decent), priors uniform.
        let diag0 = 0.8;
        let off0 = (1.0 - diag0) / (k as f64 - 1.0);
        let mut confusion: Vec<Vec<f64>> = workers
            .iter()
            .map(|_| (0..k * k).map(|i| if i % (k + 1) == 0 { diag0 } else { off0 }).collect())
            .collect();
        let mut priors = vec![1.0 / k as f64; k];
        let mut post = vec![vec![1.0 / k as f64; k]; items.len()];
        let mut iterations = 0;

        for it in 0..max_iters {
            iterations = it + 1;
            // E-step.
            let mut delta: f64 = 0.0;
            let mut log_lik: Vec<Vec<f64>> = (0..items.len())
                .map(|_| priors.iter().map(|p| p.max(1e-12).ln()).collect())
                .collect();
            for &(worker, item, label) in &self.obs {
                let pi = &confusion[worker_index[&worker]];
                let ll = &mut log_lik[item_index[&item]];
                for (c, l) in ll.iter_mut().enumerate() {
                    *l += pi[c * k + label as usize].max(1e-12).ln();
                }
            }
            for (p, ll) in post.iter_mut().zip(&log_lik) {
                let max = ll.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let mut s = 0.0;
                let mut newp = vec![0.0; k];
                for (np, &l) in newp.iter_mut().zip(ll) {
                    *np = (l - max).exp();
                    s += *np;
                }
                for (np, old) in newp.iter_mut().zip(p.iter()) {
                    *np /= s;
                    delta = delta.max((*np - old).abs());
                }
                *p = newp;
            }

            // M-step: priors and confusion rows from expected counts.
            let mut prior_counts = vec![alpha; k];
            for p in &post {
                for (pc, &pi) in prior_counts.iter_mut().zip(p) {
                    *pc += pi;
                }
            }
            let prior_total: f64 = prior_counts.iter().sum();
            for (pr, pc) in priors.iter_mut().zip(&prior_counts) {
                *pr = pc / prior_total;
            }

            let mut counts: Vec<Vec<f64>> = workers.iter().map(|_| vec![alpha; k * k]).collect();
            for &(worker, item, label) in &self.obs {
                let p = &post[item_index[&item]];
                let cw = &mut counts[worker_index[&worker]];
                for (c, &pc) in p.iter().enumerate() {
                    cw[c * k + label as usize] += pc;
                }
            }
            for (pi, cw) in confusion.iter_mut().zip(&counts) {
                for c in 0..k {
                    let row_sum: f64 = cw[c * k..(c + 1) * k].iter().sum();
                    for a in 0..k {
                        pi[c * k + a] = cw[c * k + a] / row_sum;
                    }
                }
            }

            if it > 0 && delta < tol {
                break;
            }
        }

        let labels: BTreeMap<u32, u32> = items
            .iter()
            .map(|&item| {
                let p = &post[item_index[&item]];
                let best = p
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(c, _)| c as u32)
                    .unwrap_or(0);
                (item, best)
            })
            .collect();
        let worker_accuracy: BTreeMap<u32, f64> = workers
            .iter()
            .map(|&w| {
                let pi = &confusion[worker_index[&w]];
                let acc: f64 = (0..k).map(|c| priors[c] * pi[c * k + c]).sum::<f64>();
                (w, acc)
            })
            .collect();
        let confusion_map =
            workers.iter().map(|&w| (w, confusion[worker_index[&w]].clone())).collect();
        ConfusionResult { labels, confusion: confusion_map, worker_accuracy, priors, iterations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clamshell_sim::rng::Rng;

    /// Workers with a planted *asymmetric* confusion: they answer class 0
    /// correctly but confuse 1 → 2 often.
    fn planted_asymmetric(n_items: u32, seed: u64) -> (ConfusionEm, Vec<u32>) {
        let mut rng = Rng::new(seed);
        let truth: Vec<u32> = (0..n_items).map(|_| rng.next_below(3) as u32).collect();
        let mut em = ConfusionEm::new(3);
        for w in 0..5u32 {
            for (i, &t) in truth.iter().enumerate() {
                let label = match t {
                    0 => {
                        if rng.bernoulli(0.95) {
                            0
                        } else {
                            1
                        }
                    }
                    1 => {
                        // Confuses 1 with 2 forty percent of the time.
                        if rng.bernoulli(0.6) {
                            1
                        } else {
                            2
                        }
                    }
                    _ => {
                        if rng.bernoulli(0.9) {
                            2
                        } else {
                            0
                        }
                    }
                };
                em.observe(w, i as u32, label);
            }
        }
        (em, truth)
    }

    #[test]
    fn recovers_labels_under_asymmetric_noise() {
        let (em, truth) = planted_asymmetric(240, 1);
        let res = em.run(60, 0.5, 1e-6);
        let correct =
            truth.iter().enumerate().filter(|(i, &t)| res.labels[&(*i as u32)] == t).count() as f64
                / truth.len() as f64;
        assert!(correct > 0.85, "consensus accuracy={correct}");
    }

    #[test]
    fn recovers_confusion_structure() {
        let (em, _) = planted_asymmetric(400, 2);
        let res = em.run(60, 0.5, 1e-6);
        let k = 3usize;
        for (_, pi) in res.confusion.iter() {
            // Rows are stochastic.
            for c in 0..k {
                let row: f64 = pi[c * k..(c + 1) * k].iter().sum();
                assert!((row - 1.0).abs() < 1e-9);
            }
            // The planted 1→2 confusion should be visible: π[1][2]
            // clearly exceeds π[0][2].
            assert!(
                pi[k + 2] > pi[2] + 0.1,
                "expected 1->2 confusion: pi[1][2]={} pi[0][2]={}",
                pi[k + 2],
                pi[2]
            );
        }
    }

    #[test]
    fn priors_roughly_uniform_for_balanced_truth() {
        let (em, _) = planted_asymmetric(600, 3);
        let res = em.run(60, 0.5, 1e-6);
        for &p in &res.priors {
            assert!((0.2..0.5).contains(&p), "priors={:?}", res.priors);
        }
        assert!((res.priors.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_input_is_empty_output() {
        let em = ConfusionEm::new(4);
        assert!(em.is_empty());
        let res = em.run(10, 1.0, 1e-6);
        assert!(res.labels.is_empty());
        assert!(res.confusion.is_empty());
    }

    #[test]
    fn agrees_with_one_coin_on_symmetric_noise() {
        // Symmetric workers: both models should produce the same
        // consensus.
        let mut rng = Rng::new(4);
        let truth: Vec<u32> = (0..200).map(|_| rng.next_below(2) as u32).collect();
        let mut full = ConfusionEm::new(2);
        let mut coin = crate::em::DawidSkene::new(2);
        for w in 0..4u32 {
            for (i, &t) in truth.iter().enumerate() {
                let label = if rng.bernoulli(0.85) { t } else { 1 - t };
                full.observe(w, i as u32, label);
                coin.observe(w, i as u32, label);
            }
        }
        let rf = full.run(50, 1.0, 1e-6);
        let rc = coin.run(&crate::em::EmConfig::default());
        let agree = rf.labels.iter().filter(|(i, &l)| rc.labels[i] == l).count() as f64
            / rf.labels.len() as f64;
        assert!(agree > 0.97, "agreement={agree}");
    }

    #[test]
    fn degenerate_identical_answers_keep_confusion_finite() {
        // All workers answer class 1 on every item: the empirical
        // confusion matrix is a single column. Smoothing must keep every
        // matrix entry a finite probability, priors a valid distribution,
        // and the output bit-reproducible across runs.
        let mut em = ConfusionEm::new(3);
        for item in 0..15 {
            for w in 0..3 {
                em.observe(w, item, 1);
            }
        }
        let a = em.run(50, 1.0, 1e-6);
        let b = em.run(50, 1.0, 1e-6);
        assert!(a.labels.values().all(|&l| l == 1));
        assert_eq!(a.labels, b.labels);
        for (w, m) in &a.confusion {
            assert!(m.iter().all(|p| p.is_finite() && (0.0..=1.0).contains(p)), "worker {w}");
            // Every true-class row remains a probability distribution.
            for row in m.chunks(3) {
                let s: f64 = row.iter().sum();
                assert!((s - 1.0).abs() < 1e-9, "row sums to {s}");
            }
            assert_eq!(m, &b.confusion[w], "confusion must be reproducible");
        }
        let prior_sum: f64 = a.priors.iter().sum();
        assert!((prior_sum - 1.0).abs() < 1e-9);
        assert!(a.priors[1] > a.priors[0], "mass concentrates on the answered class");
    }
}
