//! Allocation-slope gate: in retire mode the runner's event pump
//! allocates nothing per task.
//!
//! A counting global allocator counts allocation calls of a retire-mode
//! `run_stream` on the conformance suite's base configuration (straggler
//! mitigation on, pool 6, batch 8, two-record tasks) at 3k and 30k
//! tasks. The slope between the two runs is the per-task allocation
//! rate once every buffer has reached its high-water mark. Two sources
//! remain, both outside the runner: the task source builds one
//! `TaskSpec` per task (its `truths` vector), and the engine collects
//! one chunk `Vec` per batch — 1 + 1/8 = 1.125 calls per task. Anything
//! above that is the runner allocating per task again.
//!
//! The test binary owns the process-global allocator, so it lives alone
//! in this integration-test file with a single test; the stream runs on
//! the test's own thread, so relaxed counters are exact.

use clamshell_scenarios::suite;
use clamshell_stream::source;
use clamshell_stream::{run_stream, StreamConfig};
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

/// Allocation calls made by one retire-mode stream of `n_tasks` tasks.
fn stream_allocs(n_tasks: usize) -> u64 {
    let cfg = suite::base_config();
    let population = suite::population();
    let knobs = StreamConfig { rate_per_sec: 1.0, checkpoint_every: 10_000, retire: true };
    let before = CALLS.load(Ordering::Relaxed);
    let outcome = run_stream(
        cfg,
        population,
        source::alternating(suite::NG as u32),
        n_tasks,
        suite::BATCH,
        &knobs,
    );
    let calls = CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(outcome.checkpoints.last().map(|c| c.completed), Some(n_tasks as u64));
    calls
}

#[test]
fn retire_mode_runner_allocates_nothing_per_task() {
    let small = stream_allocs(3_000);
    let large = stream_allocs(30_000);
    let slope = (large as f64 - small as f64) / 27_000.0;
    eprintln!("allocation calls: 3k tasks = {small}, 30k tasks = {large}, slope = {slope:.3}/task");
    assert!(
        slope <= 1.25,
        "retire-mode run_stream makes {slope:.3} allocation calls per task \
         (3k tasks: {small}, 30k tasks: {large}); only 1.125 are expected — \
         the source's TaskSpec (1 per task) and the engine's per-batch chunk \
         Vec (1 per 8-task batch) — so the runner is allocating per task"
    );
}
