//! The Batcher of Figure 1: turns a *stream* of labeling work into
//! batches for the LifeGuard.
//!
//! "The user submits a set or stream of labeling tasks to the Batcher"
//! (§3). For set-based workloads, [`crate::runner::run_batched`] suffices;
//! this module serves streaming clients (the live-dashboard scenario of
//! Example 1): tasks arrive over time, and the Batcher releases a batch
//! when either (a) `batch_size` tasks are pending, or (b) the oldest
//! pending task has waited `max_delay` — the classic size-or-timeout
//! batching rule, keeping both throughput and tail staleness bounded.

use crate::metrics::RunReport;
use crate::runner::Runner;
use crate::task::TaskSpec;
use clamshell_sim::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Batch-formation policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatcherConfig {
    /// Release a batch as soon as this many tasks are pending.
    pub batch_size: usize,
    /// Release a partial batch once the oldest pending task has waited
    /// this long.
    pub max_delay: SimDuration,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig { batch_size: 15, max_delay: SimDuration::from_secs(30) }
    }
}

/// A task waiting for batch formation, stamped with its arrival time.
#[derive(Debug, Clone)]
struct Pending {
    spec: TaskSpec,
    arrived: SimTime,
}

/// Streaming batch former driving a [`Runner`].
pub struct Batcher {
    config: BatcherConfig,
    runner: Runner,
    pending: VecDeque<Pending>,
    /// (arrival → batch-dispatch) waits of every dispatched task.
    queueing_waits: Vec<SimDuration>,
}

impl Batcher {
    /// Wrap a warmed-up runner.
    pub fn new(config: BatcherConfig, runner: Runner) -> Self {
        assert!(config.batch_size > 0, "batch_size must be positive");
        Batcher { config, runner, pending: VecDeque::new(), queueing_waits: Vec::new() }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.runner.now()
    }

    /// Tasks currently waiting for batch formation.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// The underlying runner (task states, pool, …).
    pub fn runner(&self) -> &Runner {
        &self.runner
    }

    /// Submit one task at the current simulated time. Runs a batch
    /// immediately if the size trigger fires; returns the batch index if
    /// one was dispatched.
    pub fn submit(&mut self, spec: TaskSpec) -> Option<usize> {
        self.pending.push_back(Pending { spec, arrived: self.runner.now() });
        if self.pending.len() >= self.config.batch_size {
            return Some(self.flush());
        }
        None
    }

    /// Let simulated time pass with no new arrivals; dispatches a partial
    /// batch if the timeout trigger fires during the window. Returns the
    /// batch index if one was dispatched.
    pub fn idle(&mut self, dur: SimDuration) -> Option<usize> {
        let deadline = self.pending.front().map(|p| p.arrived + self.config.max_delay);
        let target = self.runner.now() + dur;
        match deadline {
            Some(d) if d <= target => {
                // Advance to the deadline, then flush the partial batch.
                let wait = d.since(self.runner.now());
                if wait > SimDuration::ZERO {
                    self.runner.advance(wait);
                }
                let idx = self.flush();
                let rest = target.since(self.runner.now());
                if rest > SimDuration::ZERO {
                    self.runner.advance(rest);
                }
                Some(idx)
            }
            _ => {
                self.runner.advance(dur);
                None
            }
        }
    }

    /// Force-dispatch everything pending. Panics if nothing is pending.
    pub fn flush(&mut self) -> usize {
        assert!(!self.pending.is_empty(), "flush with no pending tasks");
        let now = self.runner.now();
        let batch: Vec<TaskSpec> = self
            .pending
            .drain(..)
            .map(|p| {
                self.queueing_waits.push(now.since(p.arrived));
                p.spec
            })
            .collect();
        self.runner.run_batch(batch)
    }

    /// Mean (arrival → dispatch) queueing wait so far, seconds.
    pub fn mean_queueing_wait_secs(&self) -> f64 {
        if self.queueing_waits.is_empty() {
            return 0.0;
        }
        self.queueing_waits.iter().map(|d| d.as_secs_f64()).sum::<f64>()
            / self.queueing_waits.len() as f64
    }

    /// Finish: flush leftovers and return the run report.
    pub fn finish(mut self) -> RunReport {
        if !self.pending.is_empty() {
            self.flush();
        }
        self.runner.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;
    use clamshell_trace::Population;

    fn warmed_runner(seed: u64, pool: usize) -> Runner {
        let cfg = RunConfig { pool_size: pool, ng: 1, seed, ..Default::default() }.with_straggler();
        let mut r = Runner::new(cfg, Population::mturk_live());
        r.warm_up();
        r
    }

    fn spec() -> TaskSpec {
        TaskSpec::new(vec![0])
    }

    #[test]
    fn size_trigger_dispatches() {
        let mut b = Batcher::new(
            BatcherConfig { batch_size: 3, max_delay: SimDuration::from_secs(1000) },
            warmed_runner(1, 4),
        );
        assert_eq!(b.submit(spec()), None);
        assert_eq!(b.submit(spec()), None);
        let idx = b.submit(spec());
        assert_eq!(idx, Some(0));
        assert_eq!(b.pending(), 0);
        let report = b.finish();
        assert_eq!(report.tasks.len(), 3);
    }

    #[test]
    fn timeout_trigger_dispatches_partial_batch() {
        let mut b = Batcher::new(
            BatcherConfig { batch_size: 100, max_delay: SimDuration::from_secs(10) },
            warmed_runner(2, 4),
        );
        b.submit(spec());
        b.submit(spec());
        // Ten simulated seconds pass with no arrivals: the partial batch
        // of 2 must go out.
        let idx = b.idle(SimDuration::from_secs(30));
        assert_eq!(idx, Some(0));
        let report = b.finish();
        assert_eq!(report.tasks.len(), 2);
        assert_eq!(report.batches.len(), 1);
    }

    #[test]
    fn idle_without_pending_just_passes_time() {
        let mut b = Batcher::new(BatcherConfig::default(), warmed_runner(3, 4));
        let before = b.now();
        assert_eq!(b.idle(SimDuration::from_secs(25)), None);
        assert_eq!(b.now().since(before), SimDuration::from_secs(25));
    }

    #[test]
    fn queueing_wait_accounts_arrival_to_dispatch() {
        let mut b = Batcher::new(
            BatcherConfig { batch_size: 10, max_delay: SimDuration::from_secs(12) },
            warmed_runner(4, 4),
        );
        b.submit(spec());
        b.idle(SimDuration::from_secs(40)); // flushes at the 12s deadline
        assert!((b.mean_queueing_wait_secs() - 12.0).abs() < 0.5);
    }

    #[test]
    fn finish_flushes_leftovers() {
        let mut b = Batcher::new(
            BatcherConfig { batch_size: 50, max_delay: SimDuration::from_secs(1000) },
            warmed_runner(5, 4),
        );
        b.submit(spec());
        b.submit(spec());
        let report = b.finish();
        assert_eq!(report.tasks.len(), 2);
    }

    #[test]
    #[should_panic]
    fn flush_empty_panics() {
        let mut b = Batcher::new(BatcherConfig::default(), warmed_runner(6, 4));
        b.flush();
    }
}
