//! Multinomial (softmax) logistic regression for multi-class tasks —
//! the 10-class MNIST-like digits dataset in particular.

use crate::linalg::{dot, softmax_into, Matrix};
use crate::model::{Classifier, Example, SgdConfig};
use clamshell_sim::rng::Rng;

/// Multinomial logistic regression with `n_classes` linear heads.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftmaxRegression {
    config: SgdConfig,
    n_classes: u32,
    /// Row-major `n_classes × d` weight matrix.
    weights: Vec<f64>,
    bias: Vec<f64>,
    dims: usize,
    fitted: bool,
}

impl SoftmaxRegression {
    /// New untrained model for `n_classes` classes.
    pub fn new(n_classes: u32, config: SgdConfig) -> Self {
        assert!(n_classes >= 2, "need at least two classes");
        SoftmaxRegression {
            config,
            n_classes,
            weights: Vec::new(),
            bias: Vec::new(),
            dims: 0,
            fitted: false,
        }
    }

    #[inline]
    fn class_weights(&self, c: usize) -> &[f64] {
        &self.weights[c * self.dims..(c + 1) * self.dims]
    }

    fn logits_into(&self, features: &[f64], out: &mut [f64]) {
        for (c, logit) in out.iter_mut().enumerate().take(self.n_classes as usize) {
            *logit = dot(self.class_weights(c), features) + self.bias[c];
        }
    }
}

impl Classifier for SoftmaxRegression {
    fn fit(&mut self, x: &Matrix, examples: &[Example]) {
        if examples.is_empty() {
            return;
        }
        let d = x.cols();
        let k = self.n_classes as usize;
        self.dims = d;
        self.weights = vec![0.0; k * d];
        self.bias = vec![0.0; k];

        let mut order: Vec<usize> = (0..examples.len()).collect();
        let mut rng = Rng::new(self.config.seed);
        let mut lr = self.config.learning_rate;
        let mean_w: f64 = examples.iter().map(|e| e.weight).sum::<f64>() / examples.len() as f64;
        let wnorm = if mean_w > 0.0 { 1.0 / mean_w } else { 1.0 };

        let mut logits = vec![0.0; k];
        let mut probs = vec![0.0; k];

        for _epoch in 0..self.config.epochs {
            rng.shuffle(&mut order);
            for chunk in order.chunks(self.config.batch_size) {
                let mut gw = vec![0.0; k * d];
                let mut gb = vec![0.0; k];
                for &i in chunk {
                    let ex = examples[i];
                    debug_assert!(
                        ex.label < self.n_classes,
                        "label {} out of range {}",
                        ex.label,
                        self.n_classes
                    );
                    let row = x.row(ex.row);
                    // Forward.
                    for (c, logit) in logits.iter_mut().enumerate().take(k) {
                        *logit = dot(&self.weights[c * d..(c + 1) * d], row) + self.bias[c];
                    }
                    softmax_into(&logits, &mut probs);
                    // Backward: grad = (p - onehot(y)) ⊗ row.
                    let w = ex.weight * wnorm;
                    for c in 0..k {
                        let err = (probs[c] - (c as u32 == ex.label) as u8 as f64) * w;
                        if err != 0.0 {
                            let gwc = &mut gw[c * d..(c + 1) * d];
                            for (g, &xi) in gwc.iter_mut().zip(row) {
                                *g += err * xi;
                            }
                            gb[c] += err;
                        }
                    }
                }
                let inv = 1.0 / chunk.len() as f64;
                let shrink = 1.0 - lr * self.config.l2;
                for (w, g) in self.weights.iter_mut().zip(&gw) {
                    *w = *w * shrink - lr * g * inv;
                }
                for (b, g) in self.bias.iter_mut().zip(&gb) {
                    *b -= lr * g * inv;
                }
            }
            lr *= self.config.lr_decay;
        }
        self.fitted = true;
    }

    fn predict_proba(&self, features: &[f64]) -> Vec<f64> {
        let k = self.n_classes as usize;
        if !self.fitted {
            return vec![1.0 / k as f64; k];
        }
        let mut logits = vec![0.0; k];
        self.logits_into(features, &mut logits);
        let mut probs = vec![0.0; k];
        softmax_into(&logits, &mut probs);
        probs
    }

    fn n_classes(&self) -> u32 {
        self.n_classes
    }

    fn is_fit(&self) -> bool {
        self.fitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::accuracy;

    /// Four well-separated Gaussian blobs in 2D.
    fn blobs4(n_per: usize, seed: u64) -> (Matrix, Vec<Example>) {
        let centers = [(-3.0, -3.0), (3.0, -3.0), (-3.0, 3.0), (3.0, 3.0)];
        let mut rng = Rng::new(seed);
        let mut m = Matrix::zeros(0, 0);
        let mut ex = Vec::new();
        for i in 0..n_per * 4 {
            let label = (i % 4) as u32;
            let (cx, cy) = centers[label as usize];
            m.push_row(&[cx + rng.next_gaussian() * 0.6, cy + rng.next_gaussian() * 0.6]);
            ex.push(Example::new(i, label));
        }
        (m, ex)
    }

    #[test]
    fn learns_four_blobs() {
        let (x, ex) = blobs4(80, 1);
        let mut sm = SoftmaxRegression::new(4, SgdConfig::default());
        sm.fit(&x, &ex);
        let rows: Vec<usize> = ex.iter().map(|e| e.row).collect();
        let labels: Vec<u32> = ex.iter().map(|e| e.label).collect();
        let acc = accuracy(&sm, &x, &rows, &labels);
        assert!(acc > 0.95, "acc={acc}");
    }

    #[test]
    fn probabilities_normalized() {
        let (x, ex) = blobs4(30, 2);
        let mut sm = SoftmaxRegression::new(4, SgdConfig::default());
        sm.fit(&x, &ex);
        for i in 0..8 {
            let p = sm.predict_proba(x.row(i));
            assert_eq!(p.len(), 4);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn unfit_model_is_uniform() {
        let sm = SoftmaxRegression::new(5, SgdConfig::default());
        let p = sm.predict_proba(&[0.0, 0.0]);
        assert!(p.iter().all(|&v| (v - 0.2).abs() < 1e-12));
    }

    #[test]
    fn binary_softmax_agrees_with_logistic_direction() {
        // Softmax with k=2 should separate the same blobs as the binary LR.
        let mut rng = Rng::new(3);
        let mut m = Matrix::zeros(0, 0);
        let mut ex = Vec::new();
        for i in 0..200 {
            let label = (i % 2) as u32;
            let cx = if label == 0 { -2.0 } else { 2.0 };
            m.push_row(&[cx + rng.next_gaussian() * 0.5]);
            ex.push(Example::new(i, label));
        }
        let mut sm = SoftmaxRegression::new(2, SgdConfig::default());
        sm.fit(&m, &ex);
        assert_eq!(sm.predict(&[-2.0]), 0);
        assert_eq!(sm.predict(&[2.0]), 1);
    }

    #[test]
    #[should_panic]
    fn rejects_single_class() {
        let _ = SoftmaxRegression::new(1, SgdConfig::default());
    }
}
