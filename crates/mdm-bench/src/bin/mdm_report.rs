//! `mdm_report` — the cross-run regression dashboard.
//!
//! Reads the run ledger (`results/ledger.jsonl`, one line per
//! bench/instrumented invocation) and the committed `BENCH_step.json`
//! baseline, renders the dashboard, and exits `1` when the latest run
//! of any `tool:label` group is slower than its trailing median by more
//! than the tolerance (see `mdm_profile::gate` for the rule and its
//! minimum-history guard), `2` on bad usage or unreadable input
//! (`--help` prints the usage).
//!
//! ```text
//! cargo run --release -p mdm-bench --bin mdm_report                 # markdown to stdout
//! cargo run --release -p mdm-bench --bin mdm_report -- \
//!     --out dashboard.md --html dashboard.html                      # CI artifacts
//! ```
//!
//! Options:
//! * `--ledger PATH` — ledger file (default `results/ledger.jsonl` at
//!   the repo root; missing file = empty ledger, which renders and
//!   passes);
//! * `--bench PATH` — baseline file (default `BENCH_step.json` at the
//!   repo root; missing file just drops the baseline section);
//! * `--out PATH` — write the markdown dashboard to a file instead of
//!   stdout;
//! * `--html PATH` — also write a standalone HTML rendering;
//! * `--tolerance F` — regression tolerance as a fraction (default
//!   0.5 = 50% over the trailing median);
//! * `--window K` — trailing runs the median is taken over (default 10).

use mdm_bench::cli::{exit_error, Args};
use mdm_bench::dashboard::{Dashboard, DEFAULT_TOLERANCE, DEFAULT_WINDOW};
use mdm_profile::summary::parse_bench_file;

const USAGE: &str = "usage: mdm_report [--ledger PATH] [--bench PATH] [--out PATH] [--html PATH] \
[--tolerance F] [--window K]";

fn main() {
    let repo_root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut ledger_path = format!("{repo_root}/results/ledger.jsonl");
    let mut bench_path = format!("{repo_root}/BENCH_step.json");
    let mut out_path: Option<String> = None;
    let mut html_path: Option<String> = None;
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut window = DEFAULT_WINDOW;

    let mut args = Args::from_env(USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--ledger" => ledger_path = args.value(&flag),
            "--bench" => bench_path = args.value(&flag),
            "--out" => out_path = Some(args.value(&flag)),
            "--html" => html_path = Some(args.value(&flag)),
            "--tolerance" => tolerance = args.value(&flag),
            "--window" => window = args.value(&flag),
            other => args.fail(format!("unknown option {other:?}")),
        }
    }
    if tolerance < 0.0 {
        args.fail("--tolerance must be non-negative");
    }
    if window == 0 {
        args.fail("--window needs a positive integer");
    }

    let (records, skipped) = mdm_profile::ledger::read_ledger(ledger_path.as_ref())
        .unwrap_or_else(|e| exit_error(format!("read {ledger_path}: {e}")));
    let bench = std::fs::read_to_string(&bench_path).ok().map(|text| {
        parse_bench_file(&text).unwrap_or_else(|e| exit_error(format!("parse {bench_path}: {e}")))
    });

    let dash = Dashboard::build(&records, skipped, bench.as_deref(), tolerance, window);
    let write = |path: &str, text: String| {
        std::fs::write(path, text).unwrap_or_else(|e| exit_error(format!("write {path}: {e}")));
        eprintln!("wrote {path}");
    };
    match &out_path {
        Some(path) => write(path, dash.to_markdown()),
        None => print!("{}", dash.to_markdown()),
    }
    if let Some(path) = &html_path {
        write(path, dash.to_html());
    }

    if dash.has_regressions() {
        for g in dash.regressions() {
            eprintln!(
                "REGRESSION {}: {:.3e} s/step vs trailing median {:.3e} ({:+.1}%, tolerance {:.0}%)",
                g.verdict.key,
                g.latest.seconds_per_step,
                g.verdict.reference.unwrap_or(f64::NAN),
                g.verdict.rel_change() * 100.0,
                tolerance * 100.0
            );
        }
        std::process::exit(1);
    }
    eprintln!(
        "no regressions ({} groups, {} rows, tolerance {:.0}%)",
        dash.groups.len(),
        dash.total_rows,
        tolerance * 100.0
    );
}
