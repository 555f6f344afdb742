//! The generic scatter/gather executor.
//!
//! [`execute_streaming`] is the engine's heart, and its only executor.
//! The calling thread is worker 0; `threads − 1` scoped helper threads
//! join it. Every worker claims contiguous chunks of job indices from
//! one atomic cursor (guided self-scheduling: a chunk is about
//! `remaining / (CHUNKS_PER_WORKER · workers)` jobs, at least one), so
//! tiny jobs are claimed hundreds at a time while a handful of coarse
//! jobs are claimed one by one and stay balanced. A helper runs its
//! chunk and sends the results over a bounded channel as one message.
//! The caller runs its own chunks and, between them, drains the
//! helpers' chunks into a reorder buffer, so the caller's sink observes
//! results in **strictly increasing job-index order** no matter how the
//! threads interleave. That ordering is what makes every consumer of
//! the engine byte-deterministic across thread counts: downstream code
//! never sees scheduling.
//!
//! At one thread nothing is spawned: the caller claims every chunk
//! itself and hands each result straight to the sink.
//!
//! The executor is generic over the job and result types — the sweep
//! layers ([`crate::grid`], [`crate::shard`]) specialize it to
//! `Job → RunReport`, but experiments with non-`run_batched` workloads
//! (learning runners, open-market baselines) drive it directly with
//! closures.

use crate::progress::{CancelToken, ProgressFn};
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Chunks each worker's share is split into, in the guided
/// self-scheduling rule. Larger means smaller chunks: better balance,
/// more claims and more channel messages.
const CHUNKS_PER_WORKER: usize = 4;

/// Outcome of an executor run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecStatus {
    /// Jobs whose results were produced and delivered.
    pub completed: usize,
    /// Jobs submitted.
    pub total: usize,
    /// True when the sweep was cancelled before finishing.
    pub cancelled: bool,
}

impl ExecStatus {
    /// Did every job complete?
    pub fn is_complete(&self) -> bool {
        self.completed == self.total
    }
}

/// Run `f` over `items` on `threads` workers, delivering each
/// `(index, result)` to `sink` in strictly increasing index order.
///
/// `f` is invoked as `f(worker, index, item)` — the worker id exists for
/// scheduling diagnostics and tests; results must not depend on it.
/// Worker 0 is the calling thread, which is also the only thread that
/// calls `sink` and `progress`. While the sweep is healthy the sink sees
/// the contiguous prefix `0, 1, 2, …`; after a cancellation, results
/// beyond a skipped job are flushed at the end, still in increasing
/// order but with gaps. `progress` (if given) is called as
/// `(delivered, total)` after each sink call — it may flip the
/// [`CancelToken`] to stop the sweep mid-flight.
///
/// Cancellation is checked before every job: jobs already running
/// finish and are delivered, and nothing new starts.
///
/// # Panics
///
/// A job that panics is caught on whichever thread ran it; no job with
/// a higher index starts afterwards. Once every lower index has been
/// delivered, the panic is raised again on the caller as
/// `sweep job <index> panicked: <message>` (the lowest such index, if
/// several jobs panicked).
pub fn execute_streaming<T, R, F>(
    items: Vec<T>,
    threads: usize,
    cancel: &CancelToken,
    progress: Option<ProgressFn<'_>>,
    f: F,
    sink: &mut dyn FnMut(usize, R),
) -> ExecStatus
where
    T: Send,
    R: Send,
    F: Fn(usize, usize, T) -> R + Sync,
{
    execute_named(items, threads, cancel, progress, f, sink, &|index| format!("sweep job {index}"))
}

/// [`execute_streaming`], naming a panicking job `name(index)` in the
/// re-raised panic (`<name> panicked: <message>`): the grid layers name
/// a cell by its global index, label and seed.
pub(crate) fn execute_named<T, R, F>(
    items: Vec<T>,
    threads: usize,
    cancel: &CancelToken,
    progress: Option<ProgressFn<'_>>,
    f: F,
    sink: &mut dyn FnMut(usize, R),
    name: &dyn Fn(usize) -> String,
) -> ExecStatus
where
    T: Send,
    R: Send,
    F: Fn(usize, usize, T) -> R + Sync,
{
    let total = items.len();
    let workers = threads.max(1).min(total.max(1));
    let jobs = Jobs::new(items, CHUNKS_PER_WORKER * workers);
    let guard = Guard { cancel, failed: AtomicUsize::new(usize::MAX) };
    // Bounded: a helper blocks once `workers` chunk results sit unread,
    // so helpers cannot run a whole job list ahead of the caller's fold.
    let (tx, rx) = mpsc::sync_channel::<(usize, Vec<R>, Option<Failure>)>(workers);
    let mut order =
        Reorder { sink, progress, total, next: 0, delivered: 0, parked: BTreeMap::new() };
    let mut failures: Vec<Failure> = Vec::new();
    let (f, jobs, guard) = (&f, &jobs, &guard);

    std::thread::scope(|scope| {
        // Owned here, so a panicking sink drops the receiver before the
        // scope joins: blocked helpers then see a failed send and exit.
        let rx = rx;
        for worker in 1..workers {
            let tx = tx.clone();
            scope.spawn(move || {
                while let Some(chunk) = guard.claim(jobs) {
                    let start = chunk.next;
                    let mut results = Vec::with_capacity(chunk.end - start);
                    let failure = guard.run(chunk, worker, f, |_, r| results.push(r));
                    if tx.send((start, results, failure)).is_err() {
                        break;
                    }
                }
            });
        }
        // The helpers hold the only remaining senders: the receiving
        // loop below ends exactly when all of them have exited.
        drop(tx);

        while let Some(chunk) = guard.claim(jobs) {
            let start = chunk.next;
            if start == order.next {
                failures.extend(guard.run(chunk, 0, f, |i, r| order.deliver(i, r)));
                order.release();
            } else {
                let mut results = Vec::with_capacity(chunk.end - start);
                failures.extend(guard.run(chunk, 0, f, |_, r| results.push(r)));
                order.park(start, results);
            }
            while let Ok((start, results, failure)) = rx.try_recv() {
                failures.extend(failure);
                order.park(start, results);
            }
        }
        for (start, results, failure) in rx {
            failures.extend(failure);
            order.park(start, results);
        }
    });

    order.flush_below(guard.failed.load(Ordering::Relaxed));
    if let Some(Failure { index, message }) = failures.into_iter().min_by_key(|f| f.index) {
        panic!("{} panicked: {message}", name(index));
    }
    ExecStatus { completed: order.delivered, total, cancelled: cancel.is_cancelled() }
}

/// The job list, owned in place and handed out by index without being
/// copied. The cursor gives every index to exactly one [`Chunk`], which
/// moves the item out or drops it; `Drop` drops the items never claimed.
struct Jobs<T> {
    /// Owns the allocation. Its length is 0, so dropping it frees the
    /// buffer without dropping any item.
    _buffer: Vec<T>,
    /// Start of `_buffer`'s allocation; items `0..len` were initialized.
    base: *mut T,
    len: usize,
    /// First index no chunk has claimed yet; never exceeds `len`.
    cursor: AtomicUsize,
    /// The guided rule's divisor: a chunk is `remaining / split` items.
    split: usize,
}

// SAFETY: other threads only reach the items through `claim`, which
// hands each index to one chunk; that chunk moves the item to its own
// thread or drops it there, which `T: Send` allows. `_buffer` is not
// touched until `Drop`, `base` and `len` are read-only, and `cursor` is
// atomic.
unsafe impl<T: Send> Sync for Jobs<T> {}

impl<T> Jobs<T> {
    fn new(mut items: Vec<T>, split: usize) -> Self {
        let len = items.len();
        let base = items.as_mut_ptr();
        // SAFETY: 0 is within capacity, and the items `0..len` stay
        // initialized in the buffer; from here on `Chunk` and `Drop`
        // account for each of them exactly once.
        unsafe { items.set_len(0) };
        Jobs { _buffer: items, base, len, cursor: AtomicUsize::new(0), split }
    }

    /// Claim the next chunk, or `None` once every index is claimed.
    fn claim(&self) -> Option<Chunk<'_, T>> {
        // Relaxed: the cursor publishes no data (every item was written
        // before any helper was spawned); the compare-exchange alone
        // keeps claimed ranges disjoint.
        let mut lo = self.cursor.load(Ordering::Relaxed);
        while lo < self.len {
            let hi = lo + ((self.len - lo) / self.split).max(1);
            match self.cursor.compare_exchange_weak(lo, hi, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return Some(Chunk { jobs: self, next: lo, end: hi }),
                Err(now) => lo = now,
            }
        }
        None
    }
}

impl<T> Drop for Jobs<T> {
    fn drop(&mut self) {
        let claimed = *self.cursor.get_mut();
        for i in claimed..self.len {
            // SAFETY: no chunk ever claimed `i`, so the item is still
            // initialized, and this is the only place that drops it.
            unsafe { std::ptr::drop_in_place(self.base.add(i)) };
        }
    }
}

/// A claimed range `next..end` of [`Jobs`]: yields its items in index
/// order and drops the ones it never yielded.
struct Chunk<'a, T> {
    jobs: &'a Jobs<T>,
    next: usize,
    end: usize,
}

impl<T> Iterator for Chunk<'_, T> {
    type Item = (usize, T);

    fn next(&mut self) -> Option<(usize, T)> {
        if self.next == self.end {
            return None;
        }
        let index = self.next;
        self.next += 1;
        // SAFETY: `index` lies in this chunk's claimed range, below
        // `len`, and `next` has just moved past it, so the item is
        // initialized and read exactly once.
        Some((index, unsafe { std::ptr::read(self.jobs.base.add(index)) }))
    }
}

impl<T> Drop for Chunk<'_, T> {
    fn drop(&mut self) {
        for i in self.next..self.end {
            // SAFETY: `i` is claimed by this chunk and was never read.
            unsafe { std::ptr::drop_in_place(self.jobs.base.add(i)) };
        }
    }
}

/// A job that panicked: its index and the panic message.
struct Failure {
    index: usize,
    message: String,
}

/// When jobs may start: not after cancellation, and not above the
/// lowest index whose job panicked.
struct Guard<'a> {
    cancel: &'a CancelToken,
    /// Lowest failed index, or `usize::MAX`. Relaxed: it publishes no
    /// data; the [`Failure`] travels with its chunk's results.
    failed: AtomicUsize,
}

impl Guard<'_> {
    /// The next chunk of `jobs`, or `None` once every index is claimed
    /// or no further job may start.
    fn claim<'j, T>(&self, jobs: &'j Jobs<T>) -> Option<Chunk<'j, T>> {
        if self.cancel.is_cancelled() || self.failed.load(Ordering::Relaxed) != usize::MAX {
            return None;
        }
        jobs.claim()
    }

    /// Run `chunk`'s jobs in index order, handing each result to `out`,
    /// until the chunk ends, the sweep is cancelled or a job fails. A
    /// chunk's results are therefore always a prefix of its range;
    /// the job that panicked, if any, is returned.
    fn run<T, R, F>(
        &self,
        chunk: Chunk<'_, T>,
        worker: usize,
        f: &F,
        mut out: impl FnMut(usize, R),
    ) -> Option<Failure>
    where
        F: Fn(usize, usize, T) -> R,
    {
        for (index, item) in chunk {
            if self.cancel.is_cancelled() || index >= self.failed.load(Ordering::Relaxed) {
                break;
            }
            match panic::catch_unwind(AssertUnwindSafe(|| f(worker, index, item))) {
                Ok(result) => out(index, result),
                Err(payload) => {
                    self.failed.fetch_min(index, Ordering::Relaxed);
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    return Some(Failure { index, message });
                }
            }
        }
        None
    }
}

/// The caller's side of the funnel: hands results to the sink in index
/// order, parking chunks that arrive ahead of the next index due.
///
/// The park holds at most the chunks claimed ahead of the slowest one
/// still running, so its size is bounded by job-duration skew (worst
/// case, one pathologically slow low-index job lets it grow to
/// O(remaining jobs)), not by sweep size.
struct Reorder<'s, 'p, R> {
    sink: &'s mut dyn FnMut(usize, R),
    progress: Option<ProgressFn<'p>>,
    total: usize,
    /// The next index due at the sink.
    next: usize,
    delivered: usize,
    /// Chunk results keyed by their first index; each is contiguous.
    parked: BTreeMap<usize, Vec<R>>,
}

impl<R> Reorder<'_, '_, R> {
    fn deliver(&mut self, index: usize, result: R) {
        (self.sink)(index, result);
        self.next = index + 1;
        self.delivered += 1;
        if let Some(p) = self.progress.as_mut() {
            p(self.delivered, self.total);
        }
    }

    /// Accept the results of the chunk starting at `start`, then deliver
    /// every parked chunk that has become due.
    fn park(&mut self, start: usize, results: Vec<R>) {
        self.parked.insert(start, results);
        self.release();
    }

    /// Deliver every parked chunk that has become due.
    fn release(&mut self) {
        while let Some(results) = self.parked.remove(&self.next) {
            let start = self.next;
            for (k, result) in results.into_iter().enumerate() {
                self.deliver(start + k, result);
            }
        }
    }

    /// Deliver what is left parked below `limit`, in increasing index
    /// order. After a cancellation these are the results beyond a gap.
    fn flush_below(&mut self, limit: usize) {
        for (start, results) in std::mem::take(&mut self.parked) {
            for (index, result) in (start..limit).zip(results) {
                self.deliver(index, result);
            }
        }
    }
}

/// Run `f` over `items` and collect results in index order.
///
/// Cancelled (skipped) jobs yield `None`; a run that was never cancelled
/// returns all `Some`. See [`execute_streaming`] for scheduling
/// semantics.
pub fn execute<T, R, F>(
    items: Vec<T>,
    threads: usize,
    cancel: &CancelToken,
    f: F,
) -> (Vec<Option<R>>, ExecStatus)
where
    T: Send,
    R: Send,
    F: Fn(usize, usize, T) -> R + Sync,
{
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    let status = execute_streaming(items, threads, cancel, None, f, &mut |i, r| out[i] = Some(r));
    (out, status)
}

/// Convenience: run `f` over `items` with no cancellation and unwrap the
/// results (all jobs are guaranteed to complete).
pub fn map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, usize, T) -> R + Sync,
{
    let (out, status) = execute(items, threads, &CancelToken::new(), f);
    debug_assert!(status.is_complete());
    // clamshell-lint: allow(D006) -- a fresh CancelToken is never cancelled, so every slot is Some
    out.into_iter().map(|r| r.expect("uncancelled job must complete")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    #[test]
    fn results_arrive_in_index_order() {
        // Reverse the natural completion order: early indices sleep
        // longest, so without the reorder buffer the sink would see
        // descending indices first.
        let items: Vec<u64> = (0..12).map(|i| (12 - i) * 3).collect();
        let mut seen = Vec::new();
        let status = execute_streaming(
            items,
            4,
            &CancelToken::new(),
            None,
            |_, idx, ms| {
                std::thread::sleep(Duration::from_millis(ms));
                idx * 10
            },
            &mut |i, r| seen.push((i, r)),
        );
        assert!(status.is_complete());
        assert_eq!(seen, (0..12).map(|i| (i, i * 10)).collect::<Vec<_>>());
    }

    #[test]
    fn one_slow_job_is_absorbed_by_chunk_claiming() {
        // Job 0 is pathologically slow. Eight jobs on four workers come
        // in chunks of one, and the channel plus the blocked helpers can
        // hold all seven fast results, so whichever worker claimed job 0
        // — the caller or a helper — the others claim the rest.
        let slow = 0usize;
        let n = 8usize;
        let who: Mutex<Vec<usize>> = Mutex::new(vec![usize::MAX; n]);
        let (out, status) =
            execute((0..n).collect::<Vec<_>>(), 4, &CancelToken::new(), |worker, idx, job| {
                if job == slow {
                    std::thread::sleep(Duration::from_millis(200));
                }
                who.lock().unwrap()[idx] = worker;
                job * 2
            });
        assert!(status.is_complete());
        assert_eq!(
            out.iter().map(|r| r.unwrap()).collect::<Vec<_>>(),
            (0..n).map(|j| j * 2).collect::<Vec<_>>()
        );
        let who = who.lock().unwrap();
        let by_slow_worker = who.iter().filter(|&&w| w == who[slow]).count();
        assert_eq!(by_slow_worker, 1, "peers should claim every other job, ran {who:?}");
    }

    #[test]
    fn one_thread_runs_on_the_caller() {
        let caller = std::thread::current().id();
        let out = map((0..64).collect::<Vec<usize>>(), 1, |worker, _, j| {
            assert_eq!(worker, 0);
            assert_eq!(std::thread::current().id(), caller);
            j + 1
        });
        assert_eq!(out, (1..65).collect::<Vec<_>>());
    }

    #[test]
    fn nested_sweep_does_not_deadlock() {
        // Every job runs a sweep of its own on the same executor.
        let outer = map(vec![10usize, 20, 30], 2, |_, _, base| {
            base + map((0..4).collect::<Vec<usize>>(), 2, |_, _, j| j).iter().sum::<usize>()
        });
        assert_eq!(outer, vec![16, 26, 36]);
    }

    #[test]
    fn cancellation_skips_pending_jobs() {
        let started = AtomicUsize::new(0);
        let cancel = CancelToken::new();
        let n = 32usize;
        // Single worker, cancel from the progress hook after 2
        // deliveries. The caller runs every job and checks the token
        // before each, so the third job never starts.
        let mut progress_calls = 0usize;
        let cancel_ref = &cancel;
        let mut sink_count = 0usize;
        let status = execute_streaming(
            (0..n).collect::<Vec<_>>(),
            1,
            &cancel,
            Some(&mut |done, _total| {
                progress_calls += 1;
                if done == 2 {
                    cancel_ref.cancel();
                }
            }),
            |_, _, j: usize| {
                started.fetch_add(1, Ordering::Relaxed);
                j
            },
            &mut |_, _| sink_count += 1,
        );
        assert!(status.cancelled);
        assert!(!status.is_complete());
        assert_eq!(status.completed, 2);
        assert_eq!(status.completed, sink_count);
        assert_eq!(progress_calls, sink_count);
        // Every started job runs to completion and is delivered.
        assert_eq!(started.load(Ordering::Relaxed), status.completed);
    }

    #[test]
    fn cancellation_at_every_index_matches_sink_folds() {
        // The cancellation-vs-aggregation contract: no matter where the
        // cancel lands, `ExecStatus::completed` equals the number of
        // results the sink actually folded — an aggregator fed by this
        // executor can never under- or over-count relative to the
        // status it reports.
        let n = 12usize;
        for threads in [1, 4] {
            for kill_after in 1..=n {
                let cancel = CancelToken::new();
                let cancel_ref = &cancel;
                let mut folds = 0usize;
                let mut last = None;
                let status = execute_streaming(
                    (0..n).collect::<Vec<_>>(),
                    threads,
                    &cancel,
                    Some(&mut |done, _| {
                        if done == kill_after {
                            cancel_ref.cancel();
                        }
                    }),
                    |_, _, j: usize| j * 3,
                    &mut |i, r| {
                        assert_eq!(r, i * 3);
                        assert!(last < Some(i), "t={threads}: index {i} after {last:?}");
                        last = Some(i);
                        folds += 1;
                    },
                );
                assert_eq!(
                    status.completed, folds,
                    "t={threads} kill@{kill_after}: status/fold divergence"
                );
                assert!(status.cancelled);
                assert!(status.completed >= kill_after, "t={threads} kill@{kill_after}");
            }
        }
    }

    #[test]
    fn every_item_is_dropped_exactly_once() {
        // Items move out of the job list by index; whether a job runs,
        // is skipped inside a claimed chunk, or is never claimed, its
        // item must be dropped once. At one thread the first chunk is
        // 0..50, so a cancel at 40 takes all three paths.
        for threads in [1, 4] {
            let item = Arc::new(());
            let cancel = CancelToken::new();
            let cancel_ref = &cancel;
            let status = execute_streaming(
                vec![item.clone(); 200],
                threads,
                &cancel,
                Some(&mut |done, _| {
                    if done == 40 {
                        cancel_ref.cancel();
                    }
                }),
                |_, i, _item: Arc<()>| i,
                &mut |_, _| {},
            );
            assert!(status.cancelled && status.completed >= 40, "t={threads}");
            assert_eq!(Arc::strong_count(&item), 1, "t={threads}");
        }
    }

    /// Twelve jobs where job 5 panics: the sink must see exactly jobs
    /// 0..5, in order, before the panic reaches the caller.
    fn sweep_with_panicking_job_5(threads: usize) {
        let mut seen = Vec::new();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            execute_streaming(
                (0..12).collect::<Vec<usize>>(),
                threads,
                &CancelToken::new(),
                None,
                |_, _, j| {
                    if j == 5 {
                        panic!("job blew up");
                    }
                    j
                },
                &mut |i, _| seen.push(i),
            )
        }));
        assert_eq!(seen, (0..5).collect::<Vec<_>>());
        panic::resume_unwind(caught.expect_err("a panicking job must panic the caller"));
    }

    #[test]
    #[should_panic(expected = "sweep job 5 panicked: job blew up")]
    fn job_panic_names_its_index_at_1_thread() {
        sweep_with_panicking_job_5(1);
    }

    #[test]
    #[should_panic(expected = "sweep job 5 panicked: job blew up")]
    fn job_panic_names_its_index_at_4_threads() {
        sweep_with_panicking_job_5(4);
    }

    #[test]
    fn execute_marks_skipped_jobs_none() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let (out, status) = execute((0..8).collect::<Vec<_>>(), 2, &cancel, |_, _, j: usize| j);
        assert!(status.cancelled);
        assert_eq!(status.completed, 0);
        assert!(out.iter().all(|r| r.is_none()));
    }

    #[test]
    fn map_handles_more_threads_than_jobs() {
        let out = map(vec![1u32, 2, 3], 16, |_, _, x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn map_handles_empty_job_list() {
        let out: Vec<u32> = map(Vec::<u32>::new(), 4, |_, _, x| x);
        assert!(out.is_empty());
    }
}
