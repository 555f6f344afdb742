//! Guyon-style synthetic classification problems.
//!
//! Reimplements the algorithm scikit-learn's `make_classification` adapts
//! from Guyon's NIPS-2003 variable-selection benchmark design — the exact
//! generator the paper uses for its hardness sweep (Figure 15): "datasets
//! of varying difficulty … generated with the scikit-learn data generator,
//! which builds classification problems following an adaptation of the
//! algorithm from \[19\]".
//!
//! Mechanics: class clusters are placed at vertices of an
//! `n_informative`-dimensional hypercube with side `2·class_sep`; points
//! are drawn from unit Gaussians around their cluster centroid and passed
//! through a random linear map (intra-cluster covariance); redundant
//! features are random linear combinations of informative ones; the rest
//! is pure Gaussian noise; finally a `flip_y` fraction of labels is
//! randomized. Lower `class_sep` / higher `flip_y` / more noise features =
//! harder problem.

use super::Dataset;
use crate::linalg::Matrix;
use clamshell_sim::rng::Rng;

/// Parameters for [`make_classification`].
#[derive(Debug, Clone, PartialEq)]
pub struct GenConfig {
    /// Number of items to generate.
    pub n_samples: usize,
    /// Total feature count.
    pub n_features: usize,
    /// Number of informative features (≤ `n_features`).
    pub n_informative: usize,
    /// Number of redundant (linear-combination) features.
    pub n_redundant: usize,
    /// Number of classes.
    pub n_classes: u32,
    /// Clusters per class.
    pub n_clusters_per_class: usize,
    /// Half-distance between cluster centroids; the main hardness knob.
    pub class_sep: f64,
    /// Fraction of labels replaced with uniform random classes.
    pub flip_y: f64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            n_samples: 1000,
            n_features: 20,
            n_informative: 5,
            n_redundant: 4,
            n_classes: 2,
            n_clusters_per_class: 2,
            class_sep: 1.0,
            flip_y: 0.01,
        }
    }
}

impl GenConfig {
    /// The paper's Figure 15 sweeps problem hardness by the number of
    /// generated features; this helper mirrors that axis while keeping
    /// informative dimensionality fixed, so more features = more noise =
    /// harder. `hardness ∈ {0,1,2,…}` raises feature count and shrinks
    /// separation.
    pub fn with_hardness(hardness: u32) -> GenConfig {
        let h = hardness as f64;
        GenConfig {
            n_features: 10 * (1 + hardness as usize * 3),
            class_sep: (1.6 / (1.0 + 0.8 * h)).max(0.2),
            flip_y: 0.01 + 0.04 * h,
            ..Default::default()
        }
    }
}

/// Generate a dataset per `cfg`, deterministically from `seed`.
pub fn make_classification(cfg: &GenConfig, seed: u64) -> Dataset {
    assert!(cfg.n_informative >= 1, "need at least one informative feature");
    assert!(
        cfg.n_informative + cfg.n_redundant <= cfg.n_features,
        "informative + redundant exceeds total features"
    );
    assert!(cfg.n_classes >= 2, "need at least 2 classes");
    assert!(cfg.n_clusters_per_class >= 1);
    assert!((0.0..=1.0).contains(&cfg.flip_y));

    let mut rng = Rng::new(seed);
    let n_clusters = cfg.n_classes as usize * cfg.n_clusters_per_class;
    let d_inf = cfg.n_informative;

    // Cluster centroids: random hypercube vertices scaled by class_sep,
    // plus a small jitter so clusters are distinguishable when
    // n_clusters > 2^d_inf.
    let centroids: Vec<Vec<f64>> = (0..n_clusters)
        .map(|_| {
            (0..d_inf)
                .map(|_| {
                    let vertex = if rng.bernoulli(0.5) { 1.0 } else { -1.0 };
                    vertex * cfg.class_sep + 0.1 * rng.next_gaussian()
                })
                .collect()
        })
        .collect();

    // Per-cluster random linear transform (covariance structure).
    let transforms: Vec<Vec<f64>> = (0..n_clusters)
        .map(|_| {
            let mut t = vec![0.0; d_inf * d_inf];
            for (i, v) in t.iter_mut().enumerate() {
                let diag = i % (d_inf + 1) == 0;
                *v = if diag { 1.0 } else { 0.3 * rng.next_gaussian() };
            }
            t
        })
        .collect();

    // Redundant features: random combination matrix of informative ones.
    let comb: Vec<f64> = (0..cfg.n_redundant * d_inf).map(|_| rng.next_gaussian() * 0.7).collect();

    let mut features = Matrix::zeros(0, 0);
    let mut labels = Vec::with_capacity(cfg.n_samples);
    let mut raw = vec![0.0; d_inf];
    let mut informative = vec![0.0; d_inf];

    for i in 0..cfg.n_samples {
        // Round-robin classes so the dataset is balanced, random cluster
        // within the class.
        let class = (i % cfg.n_classes as usize) as u32;
        let cluster =
            class as usize * cfg.n_clusters_per_class + rng.index(cfg.n_clusters_per_class);

        for r in raw.iter_mut() {
            *r = rng.next_gaussian();
        }
        // informative = centroid + T * raw
        let t = &transforms[cluster];
        for (j, inf) in informative.iter_mut().enumerate() {
            let mut v = centroids[cluster][j];
            for (k, &r) in raw.iter().enumerate() {
                v += t[j * d_inf + k] * r;
            }
            *inf = v;
        }

        let mut row = Vec::with_capacity(cfg.n_features);
        row.extend_from_slice(&informative);
        for r in 0..cfg.n_redundant {
            let mut v = 0.0;
            for (k, &inf) in informative.iter().enumerate() {
                v += comb[r * d_inf + k] * inf;
            }
            row.push(v);
        }
        while row.len() < cfg.n_features {
            row.push(rng.next_gaussian());
        }

        features.push_row(&row);
        let label = if rng.bernoulli(cfg.flip_y) {
            rng.next_below(cfg.n_classes as u64) as u32
        } else {
            class
        };
        labels.push(label);
    }

    let ds = Dataset {
        features,
        labels,
        n_classes: cfg.n_classes,
        name: format!(
            "generated(d={},sep={:.2},flip={:.2})",
            cfg.n_features, cfg.class_sep, cfg.flip_y
        ),
    };
    ds.validate();
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{accuracy, train_test_split};
    use crate::logistic::LogisticRegression;
    use crate::model::{Classifier, Example, SgdConfig};

    fn holdout_accuracy(ds: &Dataset, seed: u64) -> f64 {
        let (train, test) = train_test_split(ds.len(), 0.3, seed);
        let ex: Vec<Example> = train.iter().map(|&r| Example::new(r, ds.labels[r])).collect();
        let mut m = LogisticRegression::new(SgdConfig::default());
        m.fit(&ds.features, &ex);
        let test_labels: Vec<u32> = test.iter().map(|&r| ds.labels[r]).collect();
        accuracy(&m, &ds.features, &test, &test_labels)
    }

    #[test]
    fn generates_requested_shape() {
        let cfg = GenConfig { n_samples: 200, n_features: 15, ..Default::default() };
        let ds = make_classification(&cfg, 1);
        assert_eq!(ds.len(), 200);
        assert_eq!(ds.dims(), 15);
        ds.validate();
    }

    #[test]
    fn classes_roughly_balanced() {
        let ds = make_classification(&GenConfig { n_samples: 1000, ..Default::default() }, 2);
        let counts = ds.class_counts();
        for &c in &counts {
            assert!((450..550).contains(&c), "counts={counts:?}");
        }
    }

    #[test]
    fn easy_problem_is_learnable() {
        let cfg = GenConfig { n_samples: 600, class_sep: 2.0, flip_y: 0.0, ..Default::default() };
        let acc = holdout_accuracy(&make_classification(&cfg, 3), 3);
        assert!(acc > 0.9, "acc={acc}");
    }

    #[test]
    fn hardness_monotonically_degrades_accuracy() {
        let easy = holdout_accuracy(&make_classification(&GenConfig::with_hardness(0), 4), 4);
        let hard = holdout_accuracy(&make_classification(&GenConfig::with_hardness(3), 4), 4);
        assert!(easy > hard + 0.05, "hardness should matter: easy={easy} hard={hard}");
        assert!(hard > 0.5, "hard problems remain above chance: {hard}");
    }

    #[test]
    fn flip_y_bounds_achievable_accuracy() {
        let cfg = GenConfig { n_samples: 800, class_sep: 3.0, flip_y: 0.3, ..Default::default() };
        let acc = holdout_accuracy(&make_classification(&cfg, 5), 5);
        // With 30% random labels, ~15% of test labels disagree with the
        // Bayes classifier; accuracy can't be near 1.
        assert!(acc < 0.93, "acc={acc}");
        assert!(acc > 0.6, "acc={acc}");
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = GenConfig::default();
        let a = make_classification(&cfg, 9);
        let b = make_classification(&cfg, 9);
        assert_eq!(a, b);
        let c = make_classification(&cfg, 10);
        assert_ne!(a.features.as_slice(), c.features.as_slice());
    }

    #[test]
    fn multiclass_generation() {
        let cfg =
            GenConfig { n_samples: 300, n_classes: 4, n_informative: 6, ..Default::default() };
        let ds = make_classification(&cfg, 11);
        ds.validate();
        assert_eq!(ds.class_counts().len(), 4);
    }

    #[test]
    #[should_panic]
    fn rejects_too_many_special_features() {
        let cfg =
            GenConfig { n_features: 5, n_informative: 4, n_redundant: 4, ..Default::default() };
        let _ = make_classification(&cfg, 1);
    }
}
