//! The three workloads: their inputs (generated from the benchmark
//! seed), one timed pass each, and the reference each pass's output is
//! checked against.
//!
//! * `megasweep`: the `repro megasweep` grid (straggler mitigation on/off
//!   × seeds; pool 4, ng 2, 4 tasks per cell) through `run_sharded` with
//!   an on-disk manifest. Reference: a plain serial fold of the same
//!   cells, bit for bit, plus a resume over the finished manifest.
//! * `stream`: one long retire-mode `run_stream` on the scenario suite's
//!   base configuration. Reference: `StreamDigest::of(run_batched(..))`
//!   over the same specs.
//! * `learn`: the Figure 16 cells (objects and digits × AL/PL/HL) fanned
//!   through `sweep::pool::map`. Reference: every pass of one invocation
//!   must agree, and the traced run compares against a 1-thread pass.

use crate::Marks;
use clamshell_core::learning::{LearningConfig, LearningOutcome, LearningRunner, Strategy};
use clamshell_core::runner::run_batched;
use clamshell_core::task::TaskSpec;
use clamshell_core::RunConfig;
use clamshell_learn::datasets::digits::{digits, DigitsConfig};
use clamshell_learn::datasets::objects::{objects, ObjectsConfig};
use clamshell_learn::model::SgdConfig;
use clamshell_learn::Dataset;
use clamshell_obs::Fnv;
use clamshell_scenarios::suite;
use clamshell_stream::{run_stream, source, StreamConfig, StreamDigest};
use clamshell_sweep::{
    pool, run_sharded, Aggregator, CancelToken, Grid, Metric, MetricsAggregator, ProgressFn,
    ShardOptions,
};
use clamshell_trace::Population;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Input sizes. `full` is what the benchmark measures; `tiny` is the
/// self-test's quick pass over the same code.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Megasweep grid cells per pass.
    pub mega_cells: usize,
    /// Megasweep shard size.
    pub shard: usize,
    /// Tasks per stream.
    pub stream_tasks: usize,
    /// Items per learning dataset.
    pub learn_items: usize,
    /// Label budget per learning cell.
    pub learn_budget: usize,
}

impl Sizes {
    /// The measured sizes.
    pub fn full() -> Self {
        Sizes {
            mega_cells: 65_536,
            shard: 4096,
            stream_tasks: 200_000,
            learn_items: 1200,
            learn_budget: 400,
        }
    }

    /// Self-test sizes: every code path, a fraction of a second each.
    pub fn tiny() -> Self {
        Sizes { mega_cells: 512, shard: 64, stream_tasks: 2000, learn_items: 240, learn_budget: 40 }
    }
}

/// FNV-1a over a list of words: the printed output fingerprint.
pub fn fingerprint(words: &[u64]) -> u64 {
    let mut h = Fnv::new();
    for w in words {
        h.write(&w.to_le_bytes());
    }
    h.finish()
}

// ---------------------------------------------------------------------
// megasweep
// ---------------------------------------------------------------------

/// The megasweep grid: `cells / 2` seeds derived from `seed`, each run
/// with and without straggler mitigation.
pub fn mega_grid(seed: u64, cells: usize) -> Grid {
    let base = seed << 32;
    let seeds: Vec<u64> = (1..=(cells / 2).max(1) as u64).map(|i| base + i).collect();
    let specs: Vec<TaskSpec> = (0..4).map(|i| TaskSpec::new(vec![(i % 2) as u32; 2])).collect();
    Grid::new(
        RunConfig { pool_size: 4, ng: 2, ..Default::default() },
        Population::mturk_live(),
        specs,
        4,
    )
    .seeds(&seeds)
    .scenario("SM", |c| c.straggler = Some(Default::default()))
    .scenario("NoSM", |c| c.straggler = None)
}

/// A fresh aggregator for `grid`.
pub fn mega_agg(grid: &Grid) -> MetricsAggregator {
    MetricsAggregator::new(grid.n_scenarios(), Metric::standard())
}

/// The megasweep workload's inputs.
pub struct Mega {
    /// The grid every pass runs.
    pub grid: Grid,
    /// Cells per shard.
    pub shard: usize,
    /// Manifest file inside the work directory.
    pub manifest: PathBuf,
}

impl Mega {
    /// Build the grid and settle the worker pool with one shard-sized
    /// sharded sweep.
    pub fn setup(seed: u64, sizes: &Sizes, workdir: &Path, threads: usize) -> Mega {
        let mega = Mega {
            grid: mega_grid(seed, sizes.mega_cells),
            shard: sizes.shard,
            manifest: workdir.join(format!("megasweep-{}.manifest.jsonl", std::process::id())),
        };
        let settle = mega_grid(seed, sizes.shard);
        let mut agg = mega_agg(&settle);
        run_sharded(&settle, &mut agg, &mega.options(threads, false), &CancelToken::new(), None)
            .expect("settle sweep");
        mega
    }

    /// Sharding options for a pass at `threads` threads.
    pub fn options(&self, threads: usize, resume: bool) -> ShardOptions {
        ShardOptions {
            shard_size: self.shard,
            manifest: self.manifest.clone(),
            resume,
            threads: Some(threads),
        }
    }

    /// One timed pass: the whole grid through `run_sharded`; returns the
    /// final aggregate words.
    pub fn pass(&self, threads: usize, progress: Option<ProgressFn<'_>>) -> Vec<u64> {
        let mut agg = mega_agg(&self.grid);
        let out = run_sharded(
            &self.grid,
            &mut agg,
            &self.options(threads, false),
            &CancelToken::new(),
            progress,
        )
        .expect("sharded sweep");
        assert!(out.is_complete(), "sharded sweep stopped early");
        agg.snapshot_words()
    }

    /// Reference: a plain serial fold over the same cells (materialized
    /// one shard at a time); returns the words and the labels produced.
    pub fn serial_fold(&self) -> (Vec<u64>, u64) {
        let mut agg = mega_agg(&self.grid);
        let mut labels = 0u64;
        let n = self.grid.n_jobs();
        for lo in (0..n).step_by(self.shard) {
            for job in self.grid.jobs_range(lo, (lo + self.shard).min(n)) {
                let report = job.run();
                labels += report.labels_produced();
                agg.consume(&self.grid.meta(job.index), &report);
            }
        }
        (agg.snapshot_words(), labels)
    }

    /// Resume over the finished manifest of the last pass: every shard
    /// is restored, none re-run; returns the restored words.
    pub fn resume_words(&self, threads: usize) -> Vec<u64> {
        let mut agg = mega_agg(&self.grid);
        let out = run_sharded(
            &self.grid,
            &mut agg,
            &self.options(threads, true),
            &CancelToken::new(),
            None,
        )
        .expect("resume sweep");
        assert_eq!(out.resumed_shards, out.n_shards, "resume re-ran shards");
        agg.snapshot_words()
    }
}

impl Drop for Mega {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.manifest);
    }
}

// ---------------------------------------------------------------------
// stream
// ---------------------------------------------------------------------

/// The stream workload's inputs.
pub struct Stream {
    /// `scenarios::suite::base_config()` with the benchmark seed.
    pub cfg: RunConfig,
    /// Tasks per stream.
    pub n_tasks: usize,
}

/// Records per streamed task and the batch size, as in the suite.
pub const STREAM_NG: u32 = suite::NG as u32;
/// Batch size of the stream workload.
pub const STREAM_BATCH: usize = suite::BATCH;
/// Tasks per timed segment of a stream (a multiple of the batch size).
pub const STREAM_SEGMENT: usize = 10_000;

impl Stream {
    /// Build the configuration and settle with a stream 1/10 as long.
    pub fn setup(seed: u64, sizes: &Sizes) -> Stream {
        let stream =
            Stream { cfg: RunConfig { seed, ..suite::base_config() }, n_tasks: sizes.stream_tasks };
        stream.run(stream.n_tasks / 10);
        stream
    }

    /// The service knobs: retire mode, a checkpoint every 10k tasks.
    pub fn knobs() -> StreamConfig {
        StreamConfig { rate_per_sec: 1.0, checkpoint_every: 10_000, retire: true }
    }

    fn run(&self, n_tasks: usize) -> clamshell_stream::StreamOutcome {
        self.run_from(source::alternating(STREAM_NG), n_tasks)
    }

    fn run_from(
        &self,
        source: impl Iterator<Item = TaskSpec>,
        n_tasks: usize,
    ) -> clamshell_stream::StreamOutcome {
        run_stream(
            self.cfg.clone(),
            suite::population(),
            source,
            n_tasks,
            STREAM_BATCH,
            &Self::knobs(),
        )
    }

    /// One timed pass: the whole stream; returns its digest words and
    /// the labels produced. A boundary is marked when the runner pulls
    /// every [`STREAM_SEGMENT`]-th task from the source, and once more
    /// when the stream returns.
    pub fn pass(&self, marks: &mut Marks) -> (Vec<u64>, u64) {
        let source = source::alternating(STREAM_NG).enumerate().map(|(i, spec)| {
            if i.is_multiple_of(STREAM_SEGMENT) {
                marks.mark();
            }
            spec
        });
        let out = self.run_from(source, self.n_tasks);
        marks.mark();
        let last = out.checkpoints.last().expect("a stream always checkpoints at its end");
        assert_eq!(last.completed, self.n_tasks as u64, "stream left tasks unfinished");
        let (t, a, b) = out.digest.values();
        (vec![t, a, b], last.labels)
    }

    /// Reference: the digest of the batched run over the same specs.
    pub fn reference(&self) -> Vec<u64> {
        let batched = run_batched(
            self.cfg.clone(),
            suite::population(),
            source::alternating_specs(STREAM_NG, self.n_tasks),
            STREAM_BATCH,
        );
        let (t, a, b) = StreamDigest::of(&batched).values();
        vec![t, a, b]
    }
}

// ---------------------------------------------------------------------
// learn
// ---------------------------------------------------------------------

/// The Figure 16 strategies, in the figure's order.
pub const STRATEGIES: [Strategy; 3] =
    [Strategy::Active { k: 5 }, Strategy::Passive, Strategy::Hybrid { active_frac: 0.5 }];

/// The learn workload's inputs: the two generated datasets.
pub struct Learn {
    /// `[objects, digits]`.
    pub sets: [Dataset; 2],
    /// Label budget per cell.
    pub budget: usize,
    /// Crowd and learner seed of every cell.
    pub seed: u64,
}

/// One learning cell: dataset index into [`Learn::sets`] and strategy.
pub type Cell = (usize, Strategy);

/// What one cell contributes to a pass.
#[derive(Debug, Clone, Copy)]
pub struct CellResult {
    /// Fingerprint of the curve, final accuracy and crowd report.
    pub fp: u64,
    /// Crowd labels produced.
    pub labels: u64,
    /// Wall time of the cell on its worker thread.
    pub start: Instant,
    /// End of the cell on its worker thread.
    pub end: Instant,
}

impl Learn {
    /// Generate both datasets from `seed`.
    pub fn setup(seed: u64, sizes: &Sizes) -> Learn {
        let n = sizes.learn_items;
        Learn {
            sets: [
                objects(
                    &ObjectsConfig { n_samples: n, ..Default::default() },
                    seed.wrapping_mul(2) + 1,
                ),
                digits(
                    &DigitsConfig { n_samples: n, ..Default::default() },
                    seed.wrapping_mul(2) + 2,
                ),
            ],
            budget: sizes.learn_budget,
            seed,
        }
    }

    /// The six cells, dataset-major as in Figure 16.
    pub fn cells() -> Vec<Cell> {
        (0..2).flat_map(|d| STRATEGIES.iter().map(move |&s| (d, s))).collect()
    }

    /// The SGD settings of the learning figures.
    pub fn sgd() -> SgdConfig {
        SgdConfig { epochs: 15, ..Default::default() }
    }

    /// Run one cell to its label budget (optionally with observability
    /// on, which does not change the outcome).
    pub fn run_cell(&self, (d, strategy): Cell, obs: bool) -> LearningOutcome {
        let ds = &self.sets[d];
        let mut run_cfg = RunConfig {
            pool_size: 10,
            ng: 1,
            n_classes: ds.n_classes,
            seed: self.seed,
            ..Default::default()
        }
        .with_straggler();
        if obs {
            run_cfg = run_cfg.with_obs();
        }
        let learn_cfg = LearningConfig {
            strategy,
            label_budget: self.budget,
            sgd: Self::sgd(),
            async_retrain: !matches!(strategy, Strategy::Active { .. }),
            seed: self.seed,
            ..Default::default()
        };
        LearningRunner::new(ds, run_cfg, learn_cfg, Population::mturk_live()).run()
    }

    /// One timed pass: all six cells through `pool::map`.
    pub fn pass(&self, threads: usize) -> Vec<CellResult> {
        pool::map(Self::cells(), threads, |_, _, cell| {
            let start = Instant::now();
            let out = self.run_cell(cell, false);
            let end = Instant::now();
            CellResult { fp: outcome_fp(&out), labels: out.report.labels_produced(), start, end }
        })
    }
}

/// Fingerprint of a learning outcome: every curve point, the final
/// accuracy, and the digest of the crowd report.
pub fn outcome_fp(out: &LearningOutcome) -> u64 {
    let mut words = Vec::with_capacity(out.curve.points.len() * 3 + 4);
    for p in &out.curve.points {
        words.extend([p.time_secs.to_bits(), p.labels_acquired as u64, p.test_accuracy.to_bits()]);
    }
    words.push(out.final_accuracy.to_bits());
    let (t, a, b) = StreamDigest::of(&out.report).values();
    words.extend([t, a, b]);
    fingerprint(&words)
}
