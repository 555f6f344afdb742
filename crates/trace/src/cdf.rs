//! Worker-latency CDFs: the data behind Figure 2 of the paper
//! ("Distribution of worker latencies" — CDFs of per-worker latency means
//! and standard deviations from the medical deployment).

use crate::population::Population;
use clamshell_sim::rng::Rng;
use clamshell_sim::stats::ecdf;

/// The two empirical CDFs plotted in Figure 2.
#[derive(Debug, Clone)]
pub struct WorkerLatencyCdfs {
    /// Sorted per-worker mean latencies (seconds) with cumulative probs.
    pub mean_values: Vec<f64>,
    /// Cumulative probabilities for `mean_values`.
    pub mean_probs: Vec<f64>,
    /// Sorted per-worker latency standard deviations (seconds).
    pub std_values: Vec<f64>,
    /// Cumulative probabilities for `std_values`.
    pub std_probs: Vec<f64>,
}

impl WorkerLatencyCdfs {
    /// Sample `n` workers from `pop` and compute both CDFs.
    pub fn from_population(pop: &Population, n: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let profiles = pop.sample_profiles(n, &mut rng);
        let means: Vec<f64> = profiles.iter().map(|p| p.mean_latency).collect();
        let stds: Vec<f64> = profiles.iter().map(|p| p.latency_std).collect();
        let (mean_values, mean_probs) = ecdf(&means);
        let (std_values, std_probs) = ecdf(&stds);
        WorkerLatencyCdfs { mean_values, mean_probs, std_values, std_probs }
    }

    /// Value of the mean-latency CDF at probability `p`.
    pub fn mean_quantile(&self, p: f64) -> f64 {
        clamshell_sim::stats::percentile_sorted(&self.mean_values, p)
    }

    /// Value of the std-latency CDF at probability `p`.
    pub fn std_quantile(&self, p: f64) -> f64 {
        clamshell_sim::stats::percentile_sorted(&self.std_values, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdfs_are_monotone_and_sized() {
        let c = WorkerLatencyCdfs::from_population(&Population::medical(), 2000, 1);
        assert_eq!(c.mean_values.len(), 2000);
        assert!(c.mean_values.windows(2).all(|w| w[0] <= w[1]));
        assert!(c.std_values.windows(2).all(|w| w[0] <= w[1]));
        assert!((c.mean_probs.last().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn figure2_shape_fast_workers_with_slow_outliers() {
        // Figure 2's qualitative claim: "average worker speeds are spread
        // out from tens of seconds to hours" and "even workers who are
        // very fast on average (~1 minute) can take as long as an hour or
        // more": the mean CDF spans ≥2 orders of magnitude.
        let c = WorkerLatencyCdfs::from_population(&Population::medical(), 20_000, 2);
        let lo = c.mean_quantile(0.05);
        let hi = c.mean_quantile(0.99);
        assert!(lo < 60.0, "5th percentile should be tens of seconds, got {lo}");
        assert!(hi > 3600.0, "99th percentile should exceed an hour, got {hi}");
    }
}
