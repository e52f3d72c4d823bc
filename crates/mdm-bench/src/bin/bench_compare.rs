//! `bench_compare` — the perf-regression gate: rerun the `profile_step`
//! measurement and diff it against the committed `BENCH_step.json`
//! baseline, phase by phase, with relative tolerances.
//!
//! ```text
//! cargo run --release -p mdm-bench --bin bench_compare
//! cargo run --release -p mdm-bench --bin bench_compare -- --tolerance 0.5
//! ```
//!
//! Exits `0` when every phase (and step total) of every baseline size
//! is within tolerance of the fresh measurement, `1` past it — so it
//! can sit directly in CI or a pre-merge hook — and `2` on bad usage or
//! an unreadable baseline (`--help` prints the usage). On hardware other
//! than the one that produced the baseline the absolute times shift
//! wholesale; run with a generous `--tolerance` there (the CI job uses
//! `3.0`).
//!
//! Options:
//! * `--baseline PATH` — baseline file (default: the repo's
//!   `BENCH_step.json`);
//! * `--tolerance T` — relative slowdown allowed before a row fails
//!   (default `0.3` = 30 %; speedups never fail);
//! * `--min-seconds S` — noise floor: rows under `S` seconds on both
//!   sides always pass (default `1e-3`);
//! * `--steps K` — steps averaged per size for the fresh measurement
//!   (default: the baseline's own step count per report);
//! * `--repeat R` — warmup step + best-of-R timed repetitions for the
//!   fresh measurement (default 3), matching how `profile_step` builds
//!   the baseline, so the diff compares minima against minima;
//! * `--only N1,N2` — gate only the listed particle counts (which must
//!   be present in the baseline). CI uses `--only 512,4096` to keep the
//!   gating job fast while the full ladder stays in the baseline for
//!   local runs.

use mdm_bench::cli::{exit_error, Args};
use mdm_bench::stepprof::{
    append_to_ledger, backend_of_label, cells_for_particles, profile_size_repeat_lr, DEFAULT_REPEAT,
};
use mdm_profile::gate::Gate;
use mdm_profile::summary::{parse_bench_file, RunSummary};
use std::process::ExitCode;

const USAGE: &str = "usage: bench_compare [--baseline PATH] [--tolerance T] [--min-seconds S] \
[--steps K] [--repeat R] [--only N1,N2,...]";

fn main() -> ExitCode {
    let mut baseline_path: String =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_step.json").to_string();
    let mut tolerance = 0.3f64;
    let mut min_seconds = 1e-3f64;
    let mut steps_override: Option<u64> = None;
    let mut repeat: u64 = DEFAULT_REPEAT;
    let mut only: Option<Vec<u64>> = None;

    let mut args = Args::from_env(USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--baseline" => baseline_path = args.value(&flag),
            "--tolerance" => tolerance = args.value(&flag),
            "--min-seconds" => min_seconds = args.value(&flag),
            "--steps" => steps_override = Some(args.value(&flag)),
            "--repeat" => repeat = args.value(&flag),
            "--only" => {
                let list: String = args.value(&flag);
                let sizes = list.split(',').map(str::parse).collect::<Result<_, _>>();
                only = Some(sizes.unwrap_or_else(|_| {
                    args.fail(format!(
                        "--only needs comma-separated particle counts, got {list:?}"
                    ))
                }));
            }
            other => args.fail(format!("unknown option {other:?}")),
        }
    }
    if tolerance < 0.0 {
        args.fail("--tolerance must be non-negative");
    }
    if steps_override == Some(0) || repeat == 0 {
        args.fail("--steps and --repeat need positive integers");
    }

    let text = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| exit_error(format!("read baseline {baseline_path}: {e}")));
    let mut baseline = parse_bench_file(&text)
        .unwrap_or_else(|e| exit_error(format!("parse baseline {baseline_path}: {e}")));
    if let Some(sizes) = &only {
        if let Some(n) = sizes
            .iter()
            .find(|&&n| !baseline.iter().any(|r| r.n_particles == n))
        {
            args.fail(format!("--only {n}: no such size in {baseline_path}"));
        }
        baseline.retain(|r| sizes.contains(&r.n_particles));
    }

    // Re-measure every size the baseline covers, at the same (or the
    // overridden) step count. Every fresh re-measurement becomes ledger
    // history — this is what feeds the cross-run `mdm_report` trend per
    // label.
    let current: Vec<RunSummary> = baseline
        .iter()
        .map(|base| {
            let cells = cells_for_particles(base.n_particles).unwrap_or_else(|| {
                exit_error(format!(
                    "baseline report {} has non-rocksalt N = {}",
                    base.label, base.n_particles
                ))
            });
            let steps = steps_override.unwrap_or(base.steps.max(1));
            // Rows labelled `-lr-{backend}` were measured with that
            // wavenumber backend; re-measure them the same way.
            let backend = backend_of_label(&base.label);
            eprintln!(
                "re-measuring {} (N = {}, {cells} cells per side, {steps} steps, best of {repeat}, longrange={backend})...",
                base.label, base.n_particles
            );
            let mut summary = profile_size_repeat_lr(cells, steps, repeat, false, backend);
            summary.tool = "bench_compare".to_string();
            append_to_ledger(&summary);
            summary
        })
        .collect();

    let gate = Gate::against_baseline(&baseline, &current, tolerance, min_seconds);
    println!("bench_compare: fresh measurement vs {baseline_path}");
    println!();
    print!("{}", gate.render_table());

    if gate.passed() {
        println!("PASS");
        ExitCode::SUCCESS
    } else {
        println!("FAIL: perf gate exceeded (rerun on quiet hardware, raise --tolerance, or regenerate the baseline with profile_step --json)");
        ExitCode::FAILURE
    }
}
