//! The committed `BENCH_step.json` and `results/ledger.jsonl` parse
//! into `RunSummary` values that survive a re-encode unchanged, and the
//! trailing-median gate over the committed ledger reports no
//! regression (what the `regression-dashboard` CI job checks).

use mdm::profile::gate::Gate;
use mdm::profile::json::Value;
use mdm::profile::ledger::parse_ledger;
use mdm::profile::summary::{parse_bench_file, RunSummary};

fn committed(path: &str) -> String {
    let full = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("read {full}: {e}"))
}

fn assert_round_trips(summary: &RunSummary) {
    let line = summary.to_json().to_compact();
    let back = RunSummary::from_json(&Value::parse(&line).unwrap()).unwrap();
    assert_eq!(&back, summary, "{} does not round-trip", summary.label);
}

#[test]
fn committed_bench_file_parses_and_round_trips() {
    let summaries = parse_bench_file(&committed("BENCH_step.json")).unwrap();
    assert_eq!(summaries.len(), 8);
    for summary in &summaries {
        assert_eq!(summary.phases.len(), 4, "{}", summary.label);
        assert!(summary.seconds_per_step > 0.0);
        assert!(summary.modeled_step() > 0.0, "{}", summary.label);
        assert_round_trips(summary);
    }
}

#[test]
fn committed_ledger_parses_round_trips_and_passes_the_gate() {
    let (rows, skipped) = parse_ledger(&committed("results/ledger.jsonl"));
    // 28 rows are committed; every bench run appends one more.
    assert!(rows.len() >= 28, "{} rows", rows.len());
    assert_eq!(skipped, 0);
    for row in &rows {
        assert!(
            !row.tool.is_empty() && !row.phases.is_empty(),
            "{}",
            row.label
        );
        assert_round_trips(row);
    }
    let gate = Gate::against_history(&rows, 0.5, mdm::profile::gate::DEFAULT_WINDOW);
    assert!(
        gate.passed() && gate.regressions().is_empty(),
        "{}",
        gate.render_table()
    );
}
