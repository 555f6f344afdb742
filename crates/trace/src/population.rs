//! Generative worker populations.
//!
//! A [`Population`] is a distribution over [`WorkerProfile`]s plus the
//! market-level recruitment-latency distribution. Three presets cover the
//! paper's settings; fully custom populations support ablations.

use crate::calibration::{medical_work, recruitment};
use crate::profile::WorkerProfile;
use clamshell_sim::dist::{Beta, LogNormal, Sample};
use clamshell_sim::rng::Rng;
use clamshell_sim::time::SimDuration;

/// How a worker's per-label latency std relates to their mean: the trace
/// analysis shows inconsistency grows with slowness (Figure 2's std CDF
/// tracks the mean CDF), so we model `σ_i = ratio_i · μ_i` with `ratio_i`
/// drawn log-normally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StdModel {
    /// Median of the `σ_i / μ_i` ratio.
    pub ratio_median: f64,
    /// Log-space sigma of the ratio distribution.
    pub ratio_sigma: f64,
}

/// A generative population of crowd workers.
#[derive(Debug, Clone, PartialEq)]
pub struct Population {
    /// Human-readable name used in reports.
    pub name: String,
    /// Distribution of per-worker mean per-label latency `μ_i` (seconds).
    pub mean_latency: LogNormal,
    /// Relation of `σ_i` to `μ_i`.
    pub std_model: StdModel,
    /// Distribution of worker accuracy `λ_i`, mapped into
    /// `[min_accuracy, 1]`.
    pub accuracy: Beta,
    /// Floor applied to sampled accuracies (crowd platforms pre-filter
    /// via approval-rate qualifications; §6.1 requires 85% approval).
    pub min_accuracy: f64,
    /// Recruitment latency distribution (seconds until a new posting is
    /// accepted by some worker).
    pub recruitment: LogNormal,
    /// Floor on recruitment latency, seconds.
    pub recruitment_floor: f64,
    /// Mean retainer patience, seconds (workers abandon an idle pool).
    pub patience_mean_secs: f64,
    /// Physical floor on per-label seconds (see
    /// [`WorkerProfile::min_label_secs`]).
    pub min_label_secs: f64,
    /// Per-task straggler-spike probability (see
    /// [`WorkerProfile::spike_prob`]). The long within-worker tails of
    /// §2.1 ("even workers who are very fast on average can take as long
    /// as an hour or more") come from this mixture.
    pub spike_prob: f64,
    /// Median multiplier of a spike.
    pub spike_mult_median: f64,
    /// Log-space sigma of the spike multiplier.
    pub spike_mult_sigma: f64,
}

impl Population {
    /// The medical-deployment population of §2.1: per-worker mean latency
    /// is log-normal with median 4 min and p90 ≈ 1.1 h; recruitment has
    /// median 36 min with a 5-minute floor. This is the long-tailed,
    /// minutes-scale world of Figure 2.
    pub fn medical() -> Population {
        Population {
            name: "medical".into(),
            mean_latency: LogNormal::from_median_quantile(
                medical_work::MEAN_MEDIAN_SECS,
                0.9,
                medical_work::MEAN_P90_SECS,
            ),
            // std median 2 min at mean median 4 min => ratio median 0.5;
            // p90 of stds (3h) vs p90 of means (1.1h) => heavy ratio tail.
            std_model: StdModel { ratio_median: 0.5, ratio_sigma: 1.0 },
            accuracy: Beta::new(9.0, 1.0),
            min_accuracy: 0.55,
            recruitment: LogNormal::from_median_quantile(
                recruitment::MEDIAN_SECS,
                0.84, // one std above the median ≈ median + 9 min
                recruitment::MEDIAN_SECS + recruitment::STD_SECS,
            ),
            recruitment_floor: recruitment::MIN_SECS,
            patience_mean_secs: 45.0 * 60.0,
            min_label_secs: 2.0,
            spike_prob: 0.06,
            spike_mult_median: 8.0,
            spike_mult_sigma: 0.7,
        }
    }

    /// The live-experiment population of §6.2–§6.4: seconds-per-label
    /// scale, calibrated so the fast/medium/slow buckets of Figures 5
    /// and 8 (<4 s, 5–7 s, ≥8 s per label) are all well populated and the
    /// optimal maintenance threshold lands at PM8 like the paper finds.
    pub fn mturk_live() -> Population {
        Population {
            name: "mturk_live".into(),
            // median 4.5 s/label, p90 = 10 s/label → ~42% fast, ~18% slow.
            mean_latency: LogNormal::from_median_quantile(4.5, 0.9, 10.0),
            std_model: StdModel { ratio_median: 0.45, ratio_sigma: 0.6 },
            accuracy: Beta::new(14.0, 2.0),
            min_accuracy: 0.6,
            // Retainer recruitment: re-posted tasks get picked up in a few
            // minutes (the paper re-posts every 3 minutes until the pool
            // fills).
            recruitment: LogNormal::from_median_quantile(120.0, 0.9, 420.0),
            recruitment_floor: 15.0,
            patience_mean_secs: 25.0 * 60.0,
            min_label_secs: 1.0,
            spike_prob: 0.05,
            spike_mult_median: 6.0,
            spike_mult_sigma: 0.6,
        }
    }

    /// A two-mode population: a `fast_frac` share of consistent fast
    /// workers and the rest slow and erratic. This mirrors the paper's
    /// analytical model in §4.2–§4.3 (fast mean `μ_f`, slow mean `μ_s`)
    /// and makes convergence predictions easy to verify exactly.
    pub fn bimodal(fast_frac: f64, fast_mean: f64, slow_mean: f64) -> Population {
        assert!((0.0..=1.0).contains(&fast_frac), "fast_frac in [0,1]");
        assert!(fast_mean > 0.0 && slow_mean > fast_mean, "need slow > fast > 0");
        // Encode bimodality through a custom sampler; represented here as
        // a log-normal fit between the two modes for serialization, the
        // actual sampling uses the dedicated branch in `sample_profile`.
        Population {
            name: format!("bimodal({fast_frac:.2},{fast_mean},{slow_mean})"),
            mean_latency: LogNormal::from_median_quantile(
                fast_mean * (slow_mean / fast_mean).powf(1.0 - fast_frac),
                0.9,
                slow_mean * 1.2,
            ),
            std_model: StdModel { ratio_median: 0.3, ratio_sigma: 0.3 },
            accuracy: Beta::new(14.0, 2.0),
            min_accuracy: 0.6,
            recruitment: LogNormal::from_median_quantile(120.0, 0.9, 420.0),
            recruitment_floor: 15.0,
            patience_mean_secs: 25.0 * 60.0,
            min_label_secs: 0.5,
            spike_prob: 0.0,
            spike_mult_median: 1.0,
            spike_mult_sigma: 0.0,
        }
    }

    /// Does this population use the explicit bimodal sampler?
    fn bimodal_params(&self) -> Option<(f64, f64, f64)> {
        let n = self.name.strip_prefix("bimodal(")?.strip_suffix(')')?;
        let mut it = n.split(',');
        let f = it.next()?.parse().ok()?;
        let a = it.next()?.parse().ok()?;
        let b = it.next()?.parse().ok()?;
        Some((f, a, b))
    }

    /// Sample one worker profile.
    pub fn sample_profile(&self, rng: &mut Rng) -> WorkerProfile {
        let mean_latency = if let Some((frac, fast, slow)) = self.bimodal_params() {
            if rng.bernoulli(frac) {
                // Fast mode: tight spread around the fast mean.
                fast * (1.0 + 0.1 * rng.next_gaussian()).max(0.5)
            } else {
                slow * (1.0 + 0.2 * rng.next_gaussian()).max(0.5)
            }
        } else {
            self.mean_latency.sample(rng)
        }
        .max(self.min_label_secs);

        let ratio = LogNormal::new(self.std_model.ratio_median.ln(), self.std_model.ratio_sigma)
            .sample(rng);
        let latency_std = (ratio * mean_latency).max(0.05);

        let accuracy = self.accuracy.sample(rng).max(self.min_accuracy).min(0.995);

        let patience = SimDuration::from_secs_f64(
            clamshell_sim::dist::Exponential::from_mean(self.patience_mean_secs).sample(rng),
        );

        WorkerProfile {
            mean_latency,
            latency_std,
            accuracy,
            patience,
            min_label_secs: self.min_label_secs,
            spike_prob: self.spike_prob,
            spike_mult_median: self.spike_mult_median,
            spike_mult_sigma: self.spike_mult_sigma,
        }
    }

    /// Sample `n` profiles.
    pub fn sample_profiles(&self, n: usize, rng: &mut Rng) -> Vec<WorkerProfile> {
        (0..n).map(|_| self.sample_profile(rng)).collect()
    }

    /// Sample a recruitment latency (time until a newly posted retainer
    /// task is accepted).
    pub fn sample_recruitment(&self, rng: &mut Rng) -> SimDuration {
        let secs = self.recruitment.sample(rng).max(self.recruitment_floor);
        SimDuration::from_secs_f64(secs)
    }

    /// The fraction of workers whose mean latency falls below `threshold`
    /// seconds (the `1 − q` of the paper's pool-convergence model, §4.2).
    /// Estimated by Monte Carlo for bimodal populations and analytically
    /// otherwise.
    pub fn frac_below(&self, threshold: f64) -> f64 {
        if let Some((frac, fast, slow)) = self.bimodal_params() {
            // Modes are tight; treat as point masses.
            let mut p = 0.0;
            if fast < threshold {
                p += frac;
            }
            if slow < threshold {
                p += 1.0 - frac;
            }
            p
        } else {
            let z = (threshold.max(1e-12).ln() - self.mean_latency.mu())
                / self.mean_latency.sigma().max(1e-12);
            clamshell_sim::dist::standard_normal_cdf(z)
        }
    }

    /// Mean of per-worker mean latency conditioned below (`fast`, `μ_f`)
    /// and above (`slow`, `μ_s`) a threshold, by Monte Carlo. Used to
    /// verify the pool-convergence model against simulation.
    pub fn conditional_means(&self, threshold: f64, n: usize, rng: &mut Rng) -> (f64, f64) {
        let mut fast = clamshell_sim::stats::OnlineStats::new();
        let mut slow = clamshell_sim::stats::OnlineStats::new();
        for _ in 0..n {
            let p = self.sample_profile(rng);
            if p.mean_latency < threshold {
                fast.push(p.mean_latency);
            } else {
                slow.push(p.mean_latency);
            }
        }
        (fast.mean(), slow.mean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clamshell_sim::stats::percentile;

    fn means(pop: &Population, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::new(seed);
        pop.sample_profiles(n, &mut rng).iter().map(|p| p.mean_latency).collect()
    }

    #[test]
    fn medical_population_matches_published_quantiles() {
        let pop = Population::medical();
        let ms = means(&pop, 50_000, 1);
        let median = percentile(&ms, 0.5);
        let p90 = percentile(&ms, 0.9);
        // Median of per-worker means: 4 minutes (±10%).
        assert!((median / medical_work::MEAN_MEDIAN_SECS - 1.0).abs() < 0.1, "median={median}");
        // p90 of per-worker means: ~1.1 hours (±15%).
        assert!((p90 / medical_work::MEAN_P90_SECS - 1.0).abs() < 0.15, "p90={p90}");
    }

    #[test]
    fn medical_population_has_fast_tail_like_fastest_worker() {
        // The deployment's fastest worker averaged 28.5s; a long-tailed fit
        // must put non-trivial mass at or below that speed.
        let pop = Population::medical();
        let ms = means(&pop, 20_000, 2);
        let frac_fast = ms.iter().filter(|&&m| m <= medical_work::FASTEST_MEAN_SECS).count() as f64
            / ms.len() as f64;
        assert!(frac_fast > 0.02 && frac_fast < 0.35, "frac_fast={frac_fast}");
    }

    #[test]
    fn live_population_buckets_are_all_populated() {
        use crate::calibration::live_work::*;
        let pop = Population::mturk_live();
        let ms = means(&pop, 50_000, 3);
        let fast = ms.iter().filter(|&&m| m < FAST_BELOW_SECS).count() as f64 / ms.len() as f64;
        let slow = ms.iter().filter(|&&m| m >= SLOW_ABOVE_SECS).count() as f64 / ms.len() as f64;
        assert!(fast > 0.25 && fast < 0.6, "fast frac={fast}");
        assert!(slow > 0.08 && slow < 0.35, "slow frac={slow}");
    }

    #[test]
    fn recruitment_respects_floor_and_median() {
        let pop = Population::medical();
        let mut rng = Rng::new(4);
        let xs: Vec<f64> =
            (0..20_000).map(|_| pop.sample_recruitment(&mut rng).as_secs_f64()).collect();
        assert!(xs.iter().all(|&x| x >= recruitment::MIN_SECS));
        let median = percentile(&xs, 0.5);
        assert!((median / recruitment::MEDIAN_SECS - 1.0).abs() < 0.1, "median={median}");
    }

    #[test]
    fn accuracy_respects_floor_and_cap() {
        let pop = Population::mturk_live();
        let mut rng = Rng::new(5);
        for p in pop.sample_profiles(5000, &mut rng) {
            assert!(p.accuracy >= pop.min_accuracy && p.accuracy <= 0.995);
        }
    }

    #[test]
    fn bimodal_modes_and_fractions() {
        let pop = Population::bimodal(0.6, 3.0, 12.0);
        let ms = means(&pop, 20_000, 6);
        let fast = ms.iter().filter(|&&m| m < 7.5).count() as f64 / ms.len() as f64;
        assert!((fast - 0.6).abs() < 0.03, "fast frac={fast}");
        // frac_below agrees with the construction.
        assert!((pop.frac_below(7.5) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn frac_below_analytic_matches_montecarlo() {
        let pop = Population::mturk_live();
        let ms = means(&pop, 100_000, 7);
        for &t in &[3.0, 4.5, 8.0, 12.0] {
            let mc = ms.iter().filter(|&&m| m < t).count() as f64 / ms.len() as f64;
            let an = pop.frac_below(t);
            assert!((mc - an).abs() < 0.02, "t={t} mc={mc} an={an}");
        }
    }

    #[test]
    fn conditional_means_straddle_threshold() {
        let pop = Population::mturk_live();
        let mut rng = Rng::new(8);
        let (f, s) = pop.conditional_means(8.0, 50_000, &mut rng);
        assert!(f < 8.0 && s > 8.0, "f={f} s={s}");
    }

    #[test]
    fn profiles_are_deterministic_per_seed() {
        let pop = Population::medical();
        let a = means(&pop, 100, 42);
        let b = means(&pop, 100, 42);
        assert_eq!(a, b);
    }
}
