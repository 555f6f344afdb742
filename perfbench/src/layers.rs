//! The traced run: per-layer metrics measured from outside, with spans
//! around calls into each layer's public functions.
//!
//! Every traced run measures every layer on the inputs the benchmark
//! seed generates; the workload-specific rows (`sim.events_per_task`,
//! `core.useful_assignment_frac`, `trace.overhead`) describe the
//! workload named on the command line. Wall-clock rows are timed with
//! allocation counting off; the counting allocator is switched on only
//! around the count rows (`core.allocs_per_task`, `*.peak_live_growth`).

use crate::alloc;
use crate::workloads::{self, Learn, Mega, Sizes, Stream, STREAM_BATCH, STREAM_NG};
use crate::{median, Checks, Marks, Row, Workload};
use clamshell_core::runner::{run_batched, BatchSizer, Runner};
use clamshell_core::task::TaskSpec;
use clamshell_core::RunReport;
use clamshell_learn::eval::accuracy;
use clamshell_learn::sampling::{select_uncertain, Uncertainty};
use clamshell_learn::{Classifier, Dataset, Example, LogisticRegression, SoftmaxRegression};
use clamshell_sim::{EventQueue, Rng, SimDuration, SimTime};
use clamshell_stream::{run_stream, source, StreamDigest};
use clamshell_sweep::{Aggregator, ProgressFn};
use std::path::Path;
use std::time::Instant;

use crate::tracer::Tracer;

/// Wall-clock repetitions of each alternated timing row; the fastest
/// repetition is used, as in the timed run.
const REPS: usize = 3;

fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Everything the traced run produces.
pub struct Traced {
    /// The per-layer rows, in `BENCHMARK.json` order.
    pub rows: Vec<Row>,
    /// Output checks made along the way.
    pub checks: Checks,
    /// The spans, for the span file and the self-time summary.
    pub tracer: Tracer,
}

fn row(name: &'static str, value: f64, unit: &'static str) -> Row {
    Row { name, value, unit }
}

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Events handled per task: the obs `runner.queue_depth` histogram
/// samples one depth per handled event.
fn events_handled(report: &RunReport) -> u64 {
    let obs = report.obs.as_ref().expect("obs-enabled replay carries a report");
    obs.metrics.histograms.get("runner.queue_depth").map_or(0, |h| h.counts.iter().sum())
}

fn useful_frac(assignments: u64, terminated: u64) -> f64 {
    1.0 - terminated as f64 / assignments.max(1) as f64
}

/// Least-squares slope of `y` over `x`.
fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let cov: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let var: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    cov / var
}

/// Run the traced run for `workload`.
pub fn run(workload: Workload, seed: u64, sizes: &Sizes, workdir: &Path, threads: usize) -> Traced {
    let mut tr = Tracer::with_capacity(1 << 19);
    let mut checks = Checks::default();
    let mut rows = Vec::new();
    let mut wl_events_per_task = 0.0;
    let mut wl_useful = 0.0;
    let mut wl_overhead = 0.0;

    // ---- sweep + core on the megasweep cells -------------------------
    let mega = Mega::setup(seed, sizes, workdir, threads);
    let n_cells = mega.grid.n_jobs();
    let prefix = n_cells.min(4 * mega.shard);
    let (reference, prefix_words) =
        tr.span("sweep.serial_traced", |tr| serial_traced(tr, &mega, prefix));
    let mut serial = Vec::new();
    let mut one_t = Vec::new();
    let mut n_t = Vec::new();
    let mut one_t_traced = Vec::new();
    let mut gaps = Vec::new();
    for _ in 0..REPS {
        serial.push(tr.span("sweep.serial_loop", |_| secs(|| drop(mega.serial_fold()))));
        let mut words = Vec::new();
        one_t.push(tr.span("sweep.run_sharded.1t", |_| secs(|| words = mega.pass(1, None))));
        checks.pass(n_cells as u64, words == reference.0);
        n_t.push(tr.span("sweep.run_sharded.nt", |_| secs(|| words = mega.pass(threads, None))));
        checks.pass(n_cells as u64, words == reference.0);
        // Traced pass, on the workload's one thread: one timestamp per
        // delivered cell.
        let mut stamps: Vec<Instant> = Vec::with_capacity(n_cells);
        let mut note = |_: usize, _: usize| stamps.push(Instant::now());
        let progress: ProgressFn<'_> = &mut note;
        one_t_traced.push(tr.span("sweep.run_sharded.1t_traced", |_| {
            secs(|| words = mega.pass(1, Some(progress)))
        }));
        checks.pass(n_cells as u64, words == reference.0);
        let mut shard_gaps: Vec<f64> = (1..n_cells.div_ceil(mega.shard))
            .map(|k| (stamps[k * mega.shard] - stamps[k * mega.shard - 1]).as_secs_f64())
            .collect();
        if !shard_gaps.is_empty() {
            gaps.push(median(&mut shard_gaps));
        }
    }
    checks.pass(n_cells as u64, mega.resume_words(1) == reference.0);
    let serial_s = fastest(&serial);
    if workload == Workload::Megasweep {
        wl_overhead = fastest(&one_t_traced) / fastest(&one_t);
    }

    // Direct Runner drive over the prefix cells: the core.* split.
    let (direct_words, assignments, terminated) = tr.span("core.direct_drive", |tr| {
        let mut agg = workloads::mega_agg(&mega.grid);
        let (mut assignments, mut terminated) = (0u64, 0u64);
        for job in mega.grid.jobs_range(0, prefix) {
            let report = tr.span("core.cell", |tr| {
                let mut sizer = BatchSizer::new(&job.cfg, job.batch_size);
                let mut runner = tr
                    .span("core.new", |_| Runner::new(job.cfg.clone(), (*job.population).clone()));
                runner.reserve_tasks(job.specs.len());
                tr.span("core.warm_up", |_| runner.warm_up());
                let mut iter = job.specs.iter().cloned().peekable();
                while iter.peek().is_some() {
                    let chunk: Vec<TaskSpec> = iter.by_ref().take(sizer.next_size()).collect();
                    tr.span("core.run_batch", |_| runner.run_batch(chunk));
                }
                tr.span("core.finish", |_| runner.finish())
            });
            assignments += report.assignments.len() as u64;
            terminated += report.assignments.iter().filter(|a| a.terminated).count() as u64;
            agg.consume(&mega.grid.meta(job.index), &report);
        }
        (agg.snapshot_words(), assignments, terminated)
    });
    checks.pass(prefix as u64, direct_words == prefix_words);
    let cell_tasks = mega.grid.jobs_range(0, 1)[0].specs.len();
    let per_call = |tr: &Tracer, name: &str| tr.total(name) / tr.count(name).max(1) as f64 * 1e6;
    rows.push(row("core.new_us", per_call(&tr, "core.new"), "us"));
    rows.push(row("core.warm_up_us", per_call(&tr, "core.warm_up"), "us"));
    rows.push(row("core.finish_us", per_call(&tr, "core.finish"), "us"));
    rows.push(row(
        "core.run_batch_us_per_task.megasweep",
        tr.total("core.run_batch") / (prefix * cell_tasks) as f64 * 1e6,
        "us",
    ));
    if workload == Workload::Megasweep {
        wl_useful = useful_frac(assignments, terminated);
        let sample = mega.grid.jobs_range(0, n_cells.min(mega.shard));
        let (mut events, mut tasks) = (0u64, 0u64);
        for job in &sample {
            let report = run_batched(
                job.cfg.clone().with_obs(),
                (*job.population).clone(),
                job.specs.to_vec(),
                job.batch_size,
            );
            events += events_handled(&report);
            tasks += report.tasks.len() as u64;
        }
        wl_events_per_task = events as f64 / tasks as f64;
    }

    // Sharded-sweep memory: the full grid against 1/100 of it, on the
    // workload's one thread.
    let small = Mega {
        grid: workloads::mega_grid(seed, (n_cells / 100).max(2)),
        shard: mega.shard,
        manifest: workdir.join(format!("megasweep-small-{}.manifest.jsonl", std::process::id())),
    };
    alloc::set_counting(true);
    let (_, peak_full) = alloc::peak_growth(|| mega.pass(1, None));
    let (_, peak_small) = alloc::peak_growth(|| small.pass(1, None));
    alloc::set_counting(false);
    drop(small);

    let cells_s = n_cells as f64;
    rows.push(row("sweep.serial_cells_per_s", cells_s / serial_s, "1/s"));
    rows.push(row("sweep.overhead_1t", fastest(&one_t) / serial_s - 1.0, "ratio"));
    rows.push(row("sweep.speedup_nt", serial_s / fastest(&n_t), "ratio"));
    let materialize = tr.total("sweep.jobs_range");
    let fold = tr.total("sweep.consume");
    rows.push(row("sweep.materialize_us_per_cell", materialize / cells_s * 1e6, "us"));
    rows.push(row("sweep.fold_us_per_cell", fold / cells_s * 1e6, "us"));
    rows.push(row("sweep.shard_gap_ms", median(&mut gaps) * 1e3, "ms"));
    rows.push(row("sweep.peak_live_growth", peak_full as f64 / peak_small.max(1) as f64, "ratio"));
    drop(mega);

    // ---- stream + core on the stream configuration --------------------
    let stream = Stream::setup(seed, sizes);
    let n_tasks = stream.n_tasks;
    let mut streamed = Vec::new();
    let mut direct = Vec::new();
    let mut stream_digest = Vec::new();
    for _ in 0..REPS {
        streamed.push(tr.span("stream.run_stream", |_| {
            secs(|| {
                let (digest, _) = stream.pass(&mut Marks::default());
                stream_digest = digest;
            })
        }));
        direct.push(tr.span("stream.direct_drive", |_| secs(|| direct_drive(None, None, &stream))));
    }
    let traced_direct: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            tr.span("stream.direct_traced", |tr| direct_drive(Some(tr), None, &stream));
            t.elapsed().as_secs_f64()
        })
        .collect();
    let mut digest = StreamDigest::new();
    direct_drive(None, Some(&mut digest), &stream);
    let (t, a, b) = digest.values();
    checks.pass(1, vec![t, a, b] == stream_digest);
    let reference = stream.reference();
    checks.pass(1, stream_digest == reference);
    let batches = tr.count("core.run_batch.stream");
    rows.push(row(
        "core.run_batch_us_per_task.stream",
        tr.total("core.run_batch.stream") / (REPS * n_tasks) as f64 * 1e6,
        "us",
    ));
    rows.push(row(
        "core.retire_us_per_batch",
        tr.total("core.retire_completed") / batches.max(1) as f64 * 1e6,
        "us",
    ));
    let direct_s = fastest(&direct);
    rows.push(row("stream.overhead", fastest(&streamed) / direct_s, "ratio"));
    if workload == Workload::Stream {
        wl_overhead = fastest(&traced_direct) / direct_s;
    }

    // Obs-enabled replay: events per task and the queue-depth
    // high-water mark the event-queue row holds at.
    let obs_tasks = (n_tasks / 10).max(1);
    let obs_out = run_stream(
        stream.cfg.clone().with_obs(),
        clamshell_scenarios::suite::population(),
        source::alternating(STREAM_NG),
        obs_tasks,
        STREAM_BATCH,
        &Stream::knobs(),
    );
    let obs = obs_out.report.obs.as_ref().expect("obs-enabled stream carries a report");
    let depth = obs.metrics.gauges.get("runner.queue_depth_hwm").copied().unwrap_or(1).max(1);
    if workload == Workload::Stream {
        let last = obs_out.checkpoints.last().expect("final checkpoint");
        wl_events_per_task = events_handled(&obs_out.report) as f64 / obs_tasks as f64;
        wl_useful = useful_frac(last.assignments, last.terminated);
    }

    // Allocation counts: slope over run_batched at 300, 3k and 30k tasks,
    // and retire-mode stream peak heap at full length against 1/100.
    alloc::set_counting(true);
    let mut points = Vec::new();
    for n in [300usize, 3000, 30_000] {
        let specs = source::alternating_specs(STREAM_NG, n);
        let pop = clamshell_scenarios::suite::population();
        let cfg = stream.cfg.clone();
        let (_, calls) = alloc::count_calls(|| run_batched(cfg, pop, specs, STREAM_BATCH));
        points.push((n as f64, calls as f64));
    }
    let stream_peak = |n: usize| {
        alloc::peak_growth(|| {
            run_stream(
                stream.cfg.clone(),
                clamshell_scenarios::suite::population(),
                source::alternating(STREAM_NG),
                n,
                STREAM_BATCH,
                &Stream::knobs(),
            )
        })
        .1
    };
    let peak_full = stream_peak(n_tasks);
    let peak_small = stream_peak((n_tasks / 100).max(1));
    alloc::set_counting(false);
    rows.push(row("core.allocs_per_task", slope(&points), "count"));
    rows.push(row("stream.peak_live_growth", peak_full as f64 / peak_small.max(1) as f64, "ratio"));

    // Event queue: the hold pattern at the stream runner's depth.
    let transactions = if n_tasks >= 100_000 { 2_000_000 } else { 20_000 };
    let holds: Vec<f64> = (0..REPS)
        .map(|_| {
            tr.span("sim.hold", |_| {
                secs(|| {
                    std::hint::black_box(hold(depth as usize, transactions, seed));
                })
            })
        })
        .collect();
    rows.push(row("sim.hold_events_per_s", transactions as f64 / fastest(&holds), "1/s"));

    // ---- learn + sweep::pool::map on the Figure 16 cells ---------------
    let learn = Learn::setup(seed, sizes);
    let t = Instant::now();
    let cells = tr.span("learn.pass_traced", |tr| {
        let cells = learn.pass(threads);
        for c in &cells {
            tr.record("learn.cell", c.start, c.end);
        }
        cells
    });
    let wall = t.elapsed().as_secs_f64();
    let busy: f64 = cells.iter().map(|c| (c.end - c.start).as_secs_f64()).sum();
    rows.push(row("sweep.map_efficiency", busy / (threads as f64 * wall), "ratio"));
    if workload == Workload::Learn {
        let untraced = secs(|| {
            let again = learn.pass(threads);
            checks.pass_each(again.iter().zip(&cells).map(|(a, b)| a.fp == b.fp));
        });
        wl_overhead = wall / untraced;
        let single = tr.span("learn.pass_1t", |_| learn.pass(1));
        checks.pass_each(single.iter().zip(&cells).map(|(a, b)| a.fp == b.fp));
    }

    let sgd = Learn::sgd();
    let fresh = move |ds: &Dataset| -> Box<dyn Classifier> {
        if ds.n_classes == 2 {
            Box::new(LogisticRegression::new(sgd))
        } else {
            Box::new(SoftmaxRegression::new(ds.n_classes, sgd))
        }
    };
    let budget = learn.budget;
    let split = |ds: &Dataset| ds.split(0.3, seed);
    let mut digits_model = None;
    for (d, name) in [(0usize, "learn.fit.objects"), (1, "learn.fit.digits")] {
        let ds = &learn.sets[d];
        let (train, _) = split(ds);
        let examples: Vec<Example> =
            train.iter().take(budget).map(|&r| Example::new(r, ds.labels[r])).collect();
        for _ in 0..5 {
            let model = tr.span(name, |_| {
                let mut m = fresh(ds);
                m.fit(&ds.features, &examples);
                m
            });
            digits_model = Some(model);
        }
    }
    let fit_ms = |tr: &Tracer, name: &str| median(&mut tr.durations(name)) * 1e3;
    rows.push(row("learn.fit_ms.digits", fit_ms(&tr, "learn.fit.digits"), "ms"));
    rows.push(row("learn.fit_ms.objects", fit_ms(&tr, "learn.fit.objects"), "ms"));
    let model = digits_model.expect("digits model was fit");
    let digits = &learn.sets[1];
    let (train, test) = split(digits);
    let test_labels: Vec<u32> = test.iter().map(|&r| digits.labels[r]).collect();
    for _ in 0..5 {
        tr.span("learn.accuracy", |_| {
            accuracy(model.as_ref(), &digits.features, &test, &test_labels)
        });
    }
    rows.push(row(
        "learn.accuracy_us_per_row",
        median(&mut tr.durations("learn.accuracy")) / test.len().max(1) as f64 * 1e6,
        "us",
    ));
    let unlabeled: Vec<usize> = train.iter().skip(budget).copied().collect();
    let mut rng = Rng::new(seed);
    for _ in 0..5 {
        tr.span("learn.select", |_| {
            select_uncertain(
                model.as_ref(),
                &digits.features,
                &unlabeled,
                5,
                400,
                Uncertainty::LeastConfidence,
                &mut rng,
            )
        });
    }
    rows.push(row("learn.select_ms", median(&mut tr.durations("learn.select")) * 1e3, "ms"));

    // Share of one cell (digits, HL) that its ML calls explain: replay
    // fit, accuracy and select at the cell's labelled-set sizes.
    let hl_cell = (1usize, workloads::STRATEGIES[2]);
    let t = Instant::now();
    let outcome = tr.span("learn.cell_run", |_| learn.run_cell(hl_cell, false));
    let cell_s = t.elapsed().as_secs_f64();
    let labelled: Vec<Example> = outcome.labels.iter().map(|(&r, &y)| Example::new(r, y)).collect();
    let replay_s = secs(|| {
        tr.span("learn.replay", |tr| {
            for p in &outcome.curve.points {
                let n = p.labels_acquired.min(labelled.len());
                let m = tr.span("learn.replay.fit", |_| {
                    let mut m = fresh(digits);
                    m.fit(&digits.features, &labelled[..n]);
                    m
                });
                tr.span("learn.replay.accuracy", |_| {
                    accuracy(m.as_ref(), &digits.features, &test, &test_labels)
                });
                tr.span("learn.replay.select", |_| {
                    select_uncertain(
                        m.as_ref(),
                        &digits.features,
                        &unlabeled,
                        5,
                        400,
                        Uncertainty::LeastConfidence,
                        &mut rng,
                    )
                });
            }
        })
    });
    rows.push(row("learn.share", replay_s / cell_s, "ratio"));
    if workload == Workload::Learn {
        let obs = learn.run_cell(hl_cell, true);
        checks.pass(1, workloads::outcome_fp(&obs) == workloads::outcome_fp(&outcome));
        let r = &obs.report;
        wl_events_per_task = events_handled(r) as f64 / r.tasks.len().max(1) as f64;
        let terminated = r.assignments.iter().filter(|a| a.terminated).count() as u64;
        wl_useful = useful_frac(r.assignments.len() as u64, terminated);
    }

    rows.push(row("sim.events_per_task", wl_events_per_task, "count"));
    rows.push(row("core.useful_assignment_frac", wl_useful, "ratio"));
    rows.push(row("trace.overhead", wl_overhead, "ratio"));
    Traced { rows, checks, tracer: tr }
}

/// The serial reference loop with spans around `Grid::jobs_range`, each
/// cell's run and each fold; returns the full-grid words and labels, and
/// the words after the first `prefix` cells.
fn serial_traced(tr: &mut Tracer, mega: &Mega, prefix: usize) -> ((Vec<u64>, u64), Vec<u64>) {
    let mut agg = workloads::mega_agg(&mega.grid);
    let mut labels = 0u64;
    let mut prefix_words = Vec::new();
    let n = mega.grid.n_jobs();
    for lo in (0..n).step_by(mega.shard) {
        let jobs =
            tr.span("sweep.jobs_range", |_| mega.grid.jobs_range(lo, (lo + mega.shard).min(n)));
        for job in jobs {
            let report = tr.span("sweep.job_run", |_| job.run());
            labels += report.labels_produced();
            let meta = mega.grid.meta(job.index);
            tr.span("sweep.consume", |_| agg.consume(&meta, &report));
            if job.index + 1 == prefix {
                prefix_words = agg.snapshot_words();
            }
        }
    }
    ((agg.snapshot_words(), labels), prefix_words)
}

/// `run_stream`'s Runner calls without its digest, checkpoints and
/// arrival counter: the same `BatchSizer` chunks, `run_batch` and
/// `retire_completed`. With a tracer, each call gets a span. With a
/// digest, the retired rows are folded into it so the drive can be
/// checked against `run_stream`.
fn direct_drive(
    mut tr: Option<&mut Tracer>,
    mut digest: Option<&mut StreamDigest>,
    stream: &Stream,
) {
    let mut sizer = BatchSizer::new(&stream.cfg, STREAM_BATCH);
    let mut runner = Runner::new(stream.cfg.clone(), clamshell_scenarios::suite::population());
    runner.warm_up();
    let mut source = source::alternating(STREAM_NG);
    let mut admitted = 0;
    while admitted < stream.n_tasks {
        let want = sizer.next_size().min(stream.n_tasks - admitted);
        let chunk: Vec<TaskSpec> = source.by_ref().take(want).collect();
        admitted += want;
        let rows = match tr.as_deref_mut() {
            Some(tr) => {
                tr.span("core.run_batch.stream", |_| runner.run_batch(chunk));
                tr.span("core.retire_completed", |_| runner.retire_completed())
            }
            None => {
                runner.run_batch(chunk);
                runner.retire_completed()
            }
        };
        if let Some(d) = digest.as_deref_mut() {
            rows.tasks.iter().for_each(|t| d.fold_task(t));
            rows.assignments.iter().for_each(|a| d.fold_assignment(a));
            rows.batches.iter().for_each(|b| d.fold_batch(b));
        }
        std::hint::black_box(rows);
    }
    std::hint::black_box(runner.finish());
}

/// The event-queue hold pattern: `depth` pending events, then
/// `transactions` pop + reschedule pairs with seeded deltas.
fn hold(depth: usize, transactions: usize, seed: u64) -> u64 {
    let mut rng = Rng::new(seed);
    let deltas: Vec<u64> = (0..4096).map(|_| 1 + rng.index(4096) as u64).collect();
    let mut q: EventQueue<u64> = EventQueue::with_capacity(depth);
    for (i, &d) in deltas.iter().take(depth).enumerate() {
        q.schedule(SimTime::from_millis(d), i as u64);
    }
    let mut sum = 0u64;
    for t in 0..transactions {
        let (at, e) = q.pop().expect("the hold pattern never drains");
        sum = sum.wrapping_add(e).wrapping_add(at.as_millis());
        let d = deltas[(t + e as usize) & 4095];
        q.schedule(q.now() + SimDuration::from_millis(d), e);
    }
    sum
}
