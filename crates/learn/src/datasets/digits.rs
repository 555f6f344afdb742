//! MNIST-like synthetic handwritten digits.
//!
//! The paper uses MNIST ("70,000 black and white images of handwritten
//! digits … raw pixel values as features, leading to 784 features per
//! image"). The raw dataset is not bundled offline, so we generate a
//! structural equivalent: 28×28 grayscale images of the ten digits,
//! rendered as seven-segment-style strokes with random affine jitter,
//! stroke-weight variation, and pixel noise. What the learning experiments
//! need — a 10-class, 784-raw-feature task of moderate difficulty where a
//! linear model learns steadily over hundreds of labels — is preserved.

use super::Dataset;
use crate::linalg::Matrix;
use clamshell_sim::rng::Rng;

/// Image side length (28 → 784 features, matching MNIST).
pub const SIDE: usize = 28;

/// Configuration for the digits generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DigitsConfig {
    /// Number of images.
    pub n_samples: usize,
    /// Std of additive per-pixel Gaussian noise (in unit intensity).
    pub pixel_noise: f64,
    /// Max translation jitter as a fraction of image size.
    pub jitter: f64,
}

impl Default for DigitsConfig {
    fn default() -> Self {
        DigitsConfig { n_samples: 2000, pixel_noise: 0.18, jitter: 0.10 }
    }
}

/// Segment endpoints in unit square coordinates `(x, y)`, y down.
type Seg = ((f64, f64), (f64, f64));

/// The classic seven segments.
const SEG_A: Seg = ((0.25, 0.15), (0.75, 0.15)); // top
const SEG_B: Seg = ((0.75, 0.15), (0.75, 0.50)); // top right
const SEG_C: Seg = ((0.75, 0.50), (0.75, 0.85)); // bottom right
const SEG_D: Seg = ((0.25, 0.85), (0.75, 0.85)); // bottom
const SEG_E: Seg = ((0.25, 0.50), (0.25, 0.85)); // bottom left
const SEG_F: Seg = ((0.25, 0.15), (0.25, 0.50)); // top left
const SEG_G: Seg = ((0.25, 0.50), (0.75, 0.50)); // middle

/// Which segments each digit lights up.
fn segments(digit: u32) -> Vec<Seg> {
    match digit {
        0 => vec![SEG_A, SEG_B, SEG_C, SEG_D, SEG_E, SEG_F],
        1 => vec![SEG_B, SEG_C],
        2 => vec![SEG_A, SEG_B, SEG_G, SEG_E, SEG_D],
        3 => vec![SEG_A, SEG_B, SEG_G, SEG_C, SEG_D],
        4 => vec![SEG_F, SEG_G, SEG_B, SEG_C],
        5 => vec![SEG_A, SEG_F, SEG_G, SEG_C, SEG_D],
        6 => vec![SEG_A, SEG_F, SEG_G, SEG_E, SEG_C, SEG_D],
        7 => vec![SEG_A, SEG_B, SEG_C],
        8 => vec![SEG_A, SEG_B, SEG_C, SEG_D, SEG_E, SEG_F, SEG_G],
        9 => vec![SEG_A, SEG_B, SEG_C, SEG_D, SEG_F, SEG_G],
        _ => panic!("digit out of range"),
    }
}

/// Distance from point `p` to segment `s`.
fn seg_dist(p: (f64, f64), s: Seg) -> f64 {
    let ((x1, y1), (x2, y2)) = s;
    let (px, py) = p;
    let (dx, dy) = (x2 - x1, y2 - y1);
    let len2 = dx * dx + dy * dy;
    let t =
        if len2 == 0.0 { 0.0 } else { (((px - x1) * dx + (py - y1) * dy) / len2).clamp(0.0, 1.0) };
    let (cx, cy) = (x1 + t * dx, y1 + t * dy);
    ((px - cx).powi(2) + (py - cy).powi(2)).sqrt()
}

/// Render one digit image into a 784-length pixel vector in `[0, 1]`.
pub fn render_digit(digit: u32, cfg: &DigitsConfig, rng: &mut Rng) -> Vec<f64> {
    let segs = segments(digit);
    // Random affine jitter: translation, scale, shear.
    let tx = rng.range_f64(-cfg.jitter, cfg.jitter);
    let ty = rng.range_f64(-cfg.jitter, cfg.jitter);
    let scale = rng.range_f64(0.85, 1.15);
    let shear = rng.range_f64(-0.15, 0.15);
    let stroke = rng.range_f64(0.035, 0.065); // stroke half-width
    let intensity = rng.range_f64(0.75, 1.0);

    let mut px = vec![0.0f64; SIDE * SIDE];
    for r in 0..SIDE {
        for c in 0..SIDE {
            // Map pixel center back into glyph space (inverse transform).
            let x0 = (c as f64 + 0.5) / SIDE as f64;
            let y0 = (r as f64 + 0.5) / SIDE as f64;
            let x = (x0 - 0.5 - tx) / scale - shear * (y0 - 0.5) + 0.5;
            let y = (y0 - 0.5 - ty) / scale + 0.5;
            let d = segs.iter().map(|&s| seg_dist((x, y), s)).fold(f64::INFINITY, f64::min);
            let v = intensity * (-(d * d) / (2.0 * stroke * stroke)).exp();
            let noise = cfg.pixel_noise * rng.next_gaussian();
            px[r * SIDE + c] = (v + noise).clamp(0.0, 1.0);
        }
    }
    px
}

/// Generate a digits dataset.
pub fn digits(cfg: &DigitsConfig, seed: u64) -> Dataset {
    let mut rng = Rng::new(seed);
    let mut features = Matrix::zeros(0, 0);
    let mut labels = Vec::with_capacity(cfg.n_samples);
    for i in 0..cfg.n_samples {
        let digit = (i % 10) as u32;
        features.push_row(&render_digit(digit, cfg, &mut rng));
        labels.push(digit);
    }
    let ds = Dataset { features, labels, n_classes: 10, name: "digits".into() };
    ds.validate();
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{accuracy, train_test_split};
    use crate::model::{Classifier, Example, SgdConfig};
    use crate::softmax::SoftmaxRegression;

    #[test]
    fn shape_and_pixel_range() {
        let ds = digits(&DigitsConfig { n_samples: 50, ..Default::default() }, 1);
        assert_eq!(ds.dims(), 784);
        assert_eq!(ds.len(), 50);
        assert!(ds.features.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn all_ten_classes_present() {
        let ds = digits(&DigitsConfig { n_samples: 100, ..Default::default() }, 2);
        let counts = ds.class_counts();
        assert_eq!(counts, vec![10; 10]);
    }

    #[test]
    fn digits_are_distinguishable_by_linear_model() {
        // A modest training set should comfortably beat chance (10%) —
        // mirroring the paper's MNIST runs where ~70% is reached within
        // 500 labels.
        let ds = digits(&DigitsConfig { n_samples: 400, ..Default::default() }, 3);
        let (train, test) = train_test_split(ds.len(), 0.25, 3);
        let ex: Vec<Example> = train.iter().map(|&r| Example::new(r, ds.labels[r])).collect();
        let mut m = SoftmaxRegression::new(
            10,
            SgdConfig { epochs: 20, learning_rate: 0.3, ..Default::default() },
        );
        m.fit(&ds.features, &ex);
        let test_labels: Vec<u32> = test.iter().map(|&r| ds.labels[r]).collect();
        let acc = accuracy(&m, &ds.features, &test, &test_labels);
        assert!(acc > 0.5, "acc={acc}");
    }

    #[test]
    fn noise_hurts_separability() {
        let clean = digits(&DigitsConfig { n_samples: 300, pixel_noise: 0.02, jitter: 0.02 }, 4);
        let noisy = digits(&DigitsConfig { n_samples: 300, pixel_noise: 0.45, jitter: 0.18 }, 4);
        let eval = |ds: &Dataset| {
            let (train, test) = train_test_split(ds.len(), 0.3, 4);
            let ex: Vec<Example> = train.iter().map(|&r| Example::new(r, ds.labels[r])).collect();
            let mut m = SoftmaxRegression::new(
                10,
                SgdConfig { epochs: 15, learning_rate: 0.3, ..Default::default() },
            );
            m.fit(&ds.features, &ex);
            let tl: Vec<u32> = test.iter().map(|&r| ds.labels[r]).collect();
            accuracy(&m, &ds.features, &test, &tl)
        };
        let (a_clean, a_noisy) = (eval(&clean), eval(&noisy));
        assert!(a_clean > a_noisy, "noise should hurt: clean={a_clean} noisy={a_noisy}");
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = DigitsConfig { n_samples: 20, ..Default::default() };
        assert_eq!(digits(&cfg, 7), digits(&cfg, 7));
    }

    #[test]
    #[should_panic]
    fn render_rejects_non_digit() {
        let mut rng = Rng::new(1);
        let _ = render_digit(10, &DigitsConfig::default(), &mut rng);
    }
}
