//! The CLAMShell repository benchmark.
//!
//! ```text
//! perfbench       --workload <megasweep|stream|learn> --seed N --seconds S --trace 0
//! perfbench-trace --workload <megasweep|stream|learn> --seed N --seconds S --trace 1
//! ```
//!
//! `perfbench/run.py` builds both binaries and picks one by `--trace`.
//! The untraced binary sets up a workload several times, then repeats
//! timed passes for `--seconds` (with one more set-up between every two
//! passes), then checks every pass's output against a reference
//! computed outside the timed part. Its last stdout line is
//! one JSON object: `correct`, `attempted`, `failed` and the end-to-end
//! metrics `setup_s`, `labels_per_s`, `cpu_s` and `peak_rss_mb`. The
//! traced binary prints the per-layer metrics instead (see [`layers`]).
//! Earlier stdout lines carry the provenance and output fingerprints.

pub mod alloc;
pub mod layers;
pub mod sys;
pub mod tracer;
pub mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;
use workloads::{fingerprint, Learn, Mega, Sizes, Stream};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many tiny grid cells through the sharded sweep engine.
    Megasweep,
    /// One long retire-mode service stream.
    Stream,
    /// The Figure 16 learning cells.
    Learn,
}

impl Workload {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "megasweep" => Ok(Workload::Megasweep),
            "stream" => Ok(Workload::Stream),
            "learn" => Ok(Workload::Learn),
            _ => Err(format!("unknown workload {s:?} (megasweep, stream, learn)")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Megasweep => "megasweep",
            Workload::Stream => "stream",
            Workload::Learn => "learn",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Metric name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Operations attempted and failed, as the result line reports them.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that panicked or whose output mismatched.
    pub failed: u64,
}

impl Checks {
    /// Count `ops` operations that all passed or all failed together.
    pub fn pass(&mut self, ops: u64, ok: bool) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
        }
    }

    /// Count one operation per item.
    pub fn pass_each(&mut self, oks: impl IntoIterator<Item = bool>) {
        for ok in oks {
            self.pass(1, ok);
        }
    }
}

/// Median of `xs` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: Sizes,
    size_name: String,
    corrupt_reference: bool,
    workdir: PathBuf,
    rev: String,
}

const USAGE: &str = "usage: perfbench --workload <megasweep|stream|learn> --seed N --seconds S \
                     --trace <0|1> [--size full|tiny] [--corrupt-reference] [--workdir DIR] \
                     [--rev REV]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size_name = "full".to_string();
    let mut corrupt_reference = false;
    let mut workdir = PathBuf::from("perfbench-work");
    let mut rev = "unknown".to_string();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--corrupt-reference" {
            corrupt_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--size" => size_name = value.clone(),
            "--workdir" => workdir = PathBuf::from(value),
            "--rev" => rev = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let sizes = match size_name.as_str() {
        "full" => Sizes::full(),
        "tiny" => Sizes::tiny(),
        _ => return Err("--size takes full or tiny".into()),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        sizes,
        size_name,
        corrupt_reference,
        workdir,
        rev,
    })
}

/// Boundaries inside one pass: the wall instant and process CPU
/// seconds at the start of each equal-work segment and at the end of
/// the last one.
#[derive(Debug, Default)]
pub struct Marks(Vec<(Instant, f64)>);

impl Marks {
    /// Record a boundary now.
    pub fn mark(&mut self) {
        self.0.push((Instant::now(), sys::cpu_seconds()));
    }

    /// `(wall, cpu)` seconds of each segment.
    fn segments(&self) -> Vec<(f64, f64)> {
        self.0.windows(2).map(|w| ((w[1].0 - w[0].0).as_secs_f64(), w[1].1 - w[0].1)).collect()
    }
}

/// One timed pass: its wall seconds, its segments, and its output
/// (`None` if the pass panicked).
struct PassRecord<T> {
    wall: f64,
    segments: Vec<(f64, f64)>,
    out: Option<T>,
}

/// Repeat `pass` until `seconds` of wall time have been spent (at least
/// once). Each pass marks its own segment boundaries. `between` runs
/// before every pass but the first, outside the pass's timing. Also
/// returns the peak RSS in MB right after the first pass: a fixed amount
/// of work, so the reading does not depend on how many passes fit.
fn timed_passes<T>(
    seconds: f64,
    mut between: impl FnMut(),
    mut pass: impl FnMut(&mut Marks) -> T,
) -> (Vec<PassRecord<T>>, f64) {
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut peak_rss_mb = 0.0;
    loop {
        if !passes.is_empty() {
            between();
        }
        let mut marks = Marks::default();
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| pass(&mut marks))).ok();
        let wall = t0.elapsed().as_secs_f64();
        passes.push(PassRecord { wall, segments: marks.segments(), out });
        if passes.len() == 1 {
            peak_rss_mb = sys::peak_rss_mb();
        }
        if start.elapsed().as_secs_f64() >= seconds {
            return (passes, peak_rss_mb);
        }
    }
}

/// Run `setup` `reps` times, appending each wall time to `times`;
/// returns the last result.
fn timed_setup<T>(reps: usize, times: &mut Vec<f64>, mut setup: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    last.expect("at least one set-up")
}

/// Set-ups before the first timed pass. One more runs between every two
/// passes, so the reported median samples the whole run the way the
/// passes do; a set-up made between passes is dropped unused.
const SETUP_REPS: usize = 5;

struct Timed {
    checks: Checks,
    setup_s: f64,
    labels_per_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    reference_fp: u64,
    pass_fps: Vec<Option<u64>>,
}

/// Flip one bit of a reference so the self-test can prove a mismatch is
/// reported as failed operations.
fn corrupt(words: &mut [u64], on: bool) {
    if on {
        if let Some(w) = words.first_mut() {
            *w ^= 1;
        }
    }
}

fn run_timed(args: &Args, threads: usize) -> Timed {
    let seed = args.seed;
    let sizes = &args.sizes;
    match args.workload {
        Workload::Megasweep => {
            let mut setups = Vec::new();
            let setup = || Mega::setup(seed, sizes, &args.workdir, threads);
            let mega = timed_setup(SETUP_REPS, &mut setups, setup);
            let (every, total) = (mega.shard, mega.grid.n_jobs());
            let between = || {
                timed_setup(1, &mut setups, setup);
            };
            let (passes, peak_rss_mb) = timed_passes(args.seconds, between, |marks| {
                // One segment per shard, closed by its last delivery.
                marks.mark();
                let mut on_cell = |done: usize, _: usize| {
                    if done.is_multiple_of(every) || done == total {
                        marks.mark();
                    }
                };
                mega.pass(threads, Some(&mut on_cell))
            });
            let (mut reference, labels) = mega.serial_fold();
            corrupt(&mut reference, args.corrupt_reference);
            let resumed_ok = mega.resume_words(threads) == reference;
            let cells = mega.grid.n_jobs() as u64;
            let mut checks = Checks::default();
            let last = passes.len() - 1;
            for (i, p) in passes.iter().enumerate() {
                let ok = p.out.as_ref() == Some(&reference) && (i != last || resumed_ok);
                checks.pass(cells, ok);
            }
            finish(
                passes,
                labels,
                median(&mut setups),
                peak_rss_mb,
                checks,
                fingerprint(&reference),
                |w| fingerprint(w),
            )
        }
        Workload::Stream => {
            let mut setups = Vec::new();
            let setup = || Stream::setup(seed, sizes);
            let stream = timed_setup(SETUP_REPS, &mut setups, setup);
            let between = || {
                timed_setup(1, &mut setups, setup);
            };
            let (passes, peak_rss_mb) =
                timed_passes(args.seconds, between, |marks| stream.pass(marks));
            let mut reference = stream.reference();
            corrupt(&mut reference, args.corrupt_reference);
            let mut checks = Checks::default();
            for p in &passes {
                checks.pass(1, p.out.as_ref().map(|o| &o.0) == Some(&reference));
            }
            let labels = passes.iter().find_map(|p| p.out.as_ref().map(|o| o.1)).unwrap_or(0);
            finish(
                passes,
                labels,
                median(&mut setups),
                peak_rss_mb,
                checks,
                fingerprint(&reference),
                |o| fingerprint(&o.0),
            )
        }
        Workload::Learn => {
            let mut setups = Vec::new();
            let setup = || Learn::setup(seed, sizes);
            let learn = timed_setup(SETUP_REPS, &mut setups, setup);
            let between = || {
                timed_setup(1, &mut setups, setup);
            };
            let (passes, peak_rss_mb) = timed_passes(args.seconds, between, |marks| {
                marks.mark();
                let cells = learn.pass(threads);
                marks.mark();
                cells
            });
            // Reference: the first pass that completed; every pass of the
            // invocation must reproduce it cell for cell.
            let mut reference: Vec<u64> = passes
                .iter()
                .find_map(|p| p.out.as_ref())
                .map(|cells| cells.iter().map(|c| c.fp).collect())
                .unwrap_or_default();
            corrupt(&mut reference, args.corrupt_reference);
            let n_cells = Learn::cells().len();
            let mut checks = Checks::default();
            for p in &passes {
                match &p.out {
                    Some(cells) => {
                        checks.pass_each(cells.iter().zip(&reference).map(|(c, r)| c.fp == *r))
                    }
                    None => checks.pass(n_cells as u64, false),
                }
            }
            let labels = passes
                .iter()
                .find_map(|p| p.out.as_ref().map(|cells| cells.iter().map(|c| c.labels).sum()))
                .unwrap_or(0);
            finish(
                passes,
                labels,
                median(&mut setups),
                peak_rss_mb,
                checks,
                fingerprint(&reference),
                |cells| fingerprint(&cells.iter().map(|c| c.fp).collect::<Vec<_>>()),
            )
        }
    }
}

fn finish<T>(
    passes: Vec<PassRecord<T>>,
    labels_per_pass: u64,
    setup_s: f64,
    peak_rss_mb: f64,
    checks: Checks,
    reference_fp: u64,
    fp: impl Fn(&T) -> u64,
) -> Timed {
    let walls: Vec<String> = passes.iter().map(|p| format!("{:.4}", p.wall)).collect();
    eprintln!("perfbench: {} passes, wall seconds [{}]", passes.len(), walls.join(" "));
    // Co-tenants on a shared host slow the code down in stretches and
    // never speed it up, so the fastest and cheapest equal-work segment
    // is the steadiest estimate of what the code itself costs.
    let segments: Vec<(f64, f64)> =
        passes.iter().filter(|p| p.out.is_some()).flat_map(|p| p.segments.clone()).collect();
    let per_pass = passes.iter().find(|p| p.out.is_some()).map_or(1, |p| p.segments.len().max(1));
    let min_wall = segments.iter().map(|s| s.0).fold(f64::INFINITY, f64::min);
    let min_cpu = segments.iter().map(|s| s.1).fold(f64::INFINITY, f64::min);
    eprintln!("perfbench: {} segments of {} per pass", segments.len(), per_pass);
    Timed {
        checks,
        setup_s,
        labels_per_s: labels_per_pass as f64 / per_pass as f64 / min_wall,
        cpu_s: min_cpu,
        peak_rss_mb,
        reference_fp,
        pass_fps: passes.iter().map(|p| p.out.as_ref().map(&fp)).collect(),
    }
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn result_line(correct: bool, checks: Checks, rows: &[Row]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.name,
                json_num(r.value),
                r.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed,
        metrics.join(", ")
    )
}

fn provenance_line(args: &Args, threads: usize, extra: &str) -> String {
    format!(
        "{{\"provenance\": {{\"rev\": \"{}\", \"available_parallelism\": {}, \"cpu\": \"{}\", \
         \"workload\": \"{}\", \"seed\": {}, \"threads\": {threads}, \"seconds\": {}, \
         \"size\": \"{}\", \"trace\": {}{extra}}}}}",
        args.rev.replace(['"', '\\'], ""),
        sys::nproc(),
        sys::cpu_model().replace(['"', '\\'], ""),
        args.workload.name(),
        args.seed,
        args.seconds,
        args.size_name,
        u8::from(args.trace),
    )
}

/// Entry point of both binaries; `traced` says whether the counting
/// allocator is installed (the `perfbench-trace` binary). Returns the
/// process exit code.
pub fn main(traced: bool) -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return 2;
        }
    };
    if args.trace != traced {
        eprintln!(
            "perfbench: --trace {} needs the perfbench{} binary",
            u8::from(args.trace),
            if args.trace { "-trace" } else { "" }
        );
        return 2;
    }
    if let Err(e) = std::fs::create_dir_all(&args.workdir) {
        eprintln!("perfbench: cannot create {}: {e}", args.workdir.display());
        return 2;
    }
    let nproc = sys::nproc();
    // Threads of the timed workload. `megasweep` runs its sharded sweep
    // on one worker: on a small shared host its many tiny cross-thread
    // hand-offs make multi-thread timings spread far beyond any usable
    // bound. Its scaling to nproc threads is the traced run's
    // `sweep.speedup_nt`.
    let threads = match args.workload {
        Workload::Megasweep | Workload::Stream => 1,
        Workload::Learn => nproc,
    };
    if traced {
        let t0 = Instant::now();
        let out = layers::run(args.workload, args.seed, &args.sizes, &args.workdir, nproc);
        let spans =
            args.workdir.join(format!("spans-{}-{}.jsonl", args.workload.name(), args.seed));
        if let Err(e) = out.tracer.write_jsonl(&spans) {
            eprintln!("perfbench: cannot write {}: {e}", spans.display());
        }
        for (name, s) in out.tracer.self_times() {
            eprintln!("  self time {name:<36} {:>10.3} ms", s * 1e3);
        }
        let overhead =
            out.rows.iter().find(|r| r.name == "trace.overhead").map_or(0.0, |r| r.value);
        let extra = format!(
            ", \"trace_overhead\": {}, \"traced_run_s\": {:.3}, \"spans_file\": \"{}\"",
            json_num(overhead),
            t0.elapsed().as_secs_f64(),
            spans.display()
        );
        println!("{}", provenance_line(&args, threads, &extra));
        println!("{}", result_line(out.checks.failed == 0, out.checks, &out.rows));
    } else {
        let t = run_timed(&args, threads);
        // Distinct pass fingerprints with their pass counts.
        let mut counts: std::collections::BTreeMap<String, usize> = Default::default();
        for f in &t.pass_fps {
            *counts.entry(f.map_or("panicked".into(), |f| format!("{f:016x}"))).or_default() += 1;
        }
        let passes: Vec<String> = counts.iter().map(|(f, n)| format!("\"{f}\": {n}")).collect();
        println!("{}", provenance_line(&args, threads, ""));
        println!(
            "{{\"outputs\": {{\"reference\": \"{:016x}\", \"passes\": {{{}}}}}}}",
            t.reference_fp,
            passes.join(", ")
        );
        let rows = [
            Row { name: "setup_s", value: t.setup_s, unit: "s" },
            Row { name: "labels_per_s", value: t.labels_per_s, unit: "labels/s" },
            Row { name: "cpu_s", value: t.cpu_s, unit: "s" },
            Row { name: "peak_rss_mb", value: t.peak_rss_mb, unit: "MB" },
        ];
        println!("{}", result_line(t.checks.failed == 0, t.checks, &rows));
    }
    0
}
