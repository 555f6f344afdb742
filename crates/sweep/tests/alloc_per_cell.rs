//! Allocation gate for sweep cells: a recycled runner rebuilds nothing.
//!
//! A counting global allocator counts the allocation calls of a
//! megasweep-shaped grid (pool 4, ng 2, four tasks per cell, straggler
//! mitigation on and off) run through `run_sharded` on one thread. Once
//! a warm-up shard has left this thread a cached runner, a cell's calls
//! are the ones a report and its inputs need: the job's copies of the
//! population and specs (6), the batch chunk (1), the report's three
//! row vectors (3), the p95 summary's latency vector (1), plus a share
//! of the per-shard manifest write — about 11 per cell. A runner built
//! from scratch per cell costs about 41.
//!
//! The test binary owns the process-global allocator, so it lives alone
//! in this integration-test file with a single test; at one thread the
//! sweep runs on the test's own thread, so relaxed counters are exact.

use clamshell_core::task::TaskSpec;
use clamshell_core::RunConfig;
use clamshell_sweep::{run_sharded, CancelToken, Grid, Metric, MetricsAggregator, ShardOptions};
use clamshell_trace::Population;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: a thin pass-through to the System allocator — every method
// forwards its arguments unchanged, so System's layout/provenance
// contract is upheld verbatim; the counter is side-effect-only.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to System.alloc with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds GlobalAlloc's contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: delegates to System.dealloc with the caller's ptr/layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller upholds GlobalAlloc's contract for `ptr`/`layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: delegates to System.realloc with the caller's arguments.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds GlobalAlloc's contract for the arguments.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SHARD: usize = 1024;

/// The megasweep grid over `seeds` seeds: `2 * seeds` cells.
fn mega_grid(seeds: u64) -> Grid {
    let seeds: Vec<u64> = (1..=seeds).collect();
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

/// Allocation calls of one 1-thread sharded sweep over `grid`.
fn sweep_allocs(grid: &Grid, tag: &str) -> u64 {
    let manifest = std::env::temp_dir()
        .join(format!("clamshell_alloc_per_cell_{tag}_{}.jsonl", std::process::id()));
    let opts = ShardOptions {
        shard_size: SHARD,
        manifest: manifest.clone(),
        resume: false,
        threads: Some(1),
    };
    let mut agg = MetricsAggregator::new(grid.n_scenarios(), Metric::standard());
    let before = CALLS.load(Ordering::Relaxed);
    let outcome = run_sharded(grid, &mut agg, &opts, &CancelToken::new(), None);
    let calls = CALLS.load(Ordering::Relaxed) - before;
    let _ = std::fs::remove_file(&manifest);
    assert!(outcome.expect("sharded sweep").is_complete());
    calls
}

#[test]
fn recycled_cells_allocate_a_bounded_handful() {
    // Warm-up: one shard leaves this thread a runner sized for the cells.
    sweep_allocs(&mega_grid(SHARD as u64 / 2), "warm");
    let grid = mega_grid(2 * SHARD as u64);
    let cells = grid.n_jobs() as f64;
    let calls = sweep_allocs(&grid, "measured");
    let per_cell = calls as f64 / cells;
    eprintln!("allocation calls: {calls} over {cells} cells = {per_cell:.2} per cell");
    assert!(
        per_cell <= 15.0,
        "a megasweep cell makes {per_cell:.2} allocation calls ({calls} over {cells} cells); \
         about 11 are expected with a recycled runner, so the sweep is rebuilding the \
         simulator per cell again"
    );
}
