//! # clamshell-bench
//!
//! The reproduction harness: one experiment per table/figure of the
//! paper's evaluation (§6), each printing the paper's expectation next to
//! the measured result. Run via the `repro` binary:
//!
//! ```text
//! cargo run -p clamshell-bench --release --bin repro -- --list
//! cargo run -p clamshell-bench --release --bin repro -- fig9
//! cargo run -p clamshell-bench --release --bin repro -- --all
//! ```
//!
//! Shape, not absolute numbers: the paper measured live Mechanical Turk
//! workers; this harness drives the calibrated simulator. Each experiment
//! states the paper's qualitative/ratio claim and reports the measured
//! analogue (see EXPERIMENTS.md for the recorded `repro --all --quick`
//! outcomes).

#![warn(missing_docs)]

pub mod experiments;
pub mod util;

use experiments as exp;

/// One registered experiment: `(name, description, runner)`.
pub type Experiment = (&'static str, &'static str, fn(&util::Opts));

/// The adversity scenario catalog (re-exported for the `repro` CLI's
/// `--scenario list`).
pub fn scenario_catalog() -> &'static [clamshell_scenarios::ScenarioDef] {
    clamshell_scenarios::catalog()
}

/// All experiments, in paper order: `(name, description, runner)`.
pub fn registry() -> Vec<Experiment> {
    vec![
        (
            "table2",
            "Technique capability matrix (latency/variance/cost/generality)",
            exp::tables::table2 as fn(&util::Opts),
        ),
        ("table3", "Experimental parameter glossary", exp::tables::table3),
        ("fig2", "CDFs of per-worker latency mean/std (medical trace)", exp::trace::fig2),
        ("fig3", "Points labeled over time, PM8 vs PM-inf, Ng in {1,5,10}", exp::maintenance::fig3),
        ("fig4", "End-to-end latency & cost with/without pool maintenance", exp::maintenance::fig4),
        (
            "fig5",
            "Task latency vs worker age (maintenance purges slow workers)",
            exp::maintenance::fig5,
        ),
        ("fig6", "Mean pool latency per batch, PM8 vs PM-inf", exp::maintenance::fig6),
        ("fig7", "Workers replaced over time vs PM threshold", exp::maintenance::fig7),
        ("fig8", "Latency percentiles vs PM threshold by worker-age slice", exp::maintenance::fig8),
        ("fig9", "Straggler mitigation: per-batch latency std vs R", exp::straggler::fig9),
        ("fig10", "Points labeled over time with straggler mitigation", exp::straggler::fig10),
        (
            "fig11",
            "Straggler mitigation summary: cost/latency/variance ratios",
            exp::straggler::fig11,
        ),
        ("fig12", "Combining SM x PM: latency/variance/cost grid", exp::combine::fig12),
        ("fig13", "Per-assignment Gantt statistics per SM x PM config", exp::combine::fig13),
        ("fig14", "TermEst restores replacement rate under SM", exp::combine::fig14),
        ("fig15", "AL/PL/HL on generated datasets (hardness x AL fraction)", exp::learning::fig15),
        ("fig16", "AL/PL/HL on digits & objects with simulated workers", exp::learning::fig16),
        (
            "fig17",
            "Time to reach accuracy thresholds: CLAMShell vs baselines",
            exp::learning::fig17,
        ),
        ("fig18", "Wall-clock vs accuracy curves: CLAMShell vs baselines", exp::learning::fig18),
        (
            "headline",
            "Raw 500-label acquisition: 7.24x throughput, 151x variance",
            exp::combine::headline,
        ),
        ("poolmodel", "Pool-convergence closed form vs simulated MPL", exp::maintenance::poolmodel),
        ("routing", "Straggler routing policies: random ~= oracle", exp::straggler::routing),
        ("qcsm", "Decoupled SM + quality control vs naive duplication", exp::straggler::qcsm),
        (
            "adversity",
            "Scenario library: accuracy/latency deltas vs benign crowd",
            exp::adversity::adversity,
        ),
    ]
}

/// Experiments that postdate the recorded `--all --quick` transcript in
/// EXPERIMENTS.md: runnable by name and shown by `--list`, but excluded
/// from `--all` so its stdout stays byte-stable.
pub fn extra_registry() -> Vec<Experiment> {
    vec![(
        "pool_lifecycle",
        "Pool checkout strategies, idle timeouts & generations per scenario",
        exp::pool_lifecycle::pool_lifecycle as fn(&util::Opts),
    )]
}
