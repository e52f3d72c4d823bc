//! End-to-end and per-layer benchmark of the emulated MDM.
//!
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload
//! <name|all> --seed <n> --seconds <s> --trace <0|1>` runs one workload
//! (see [`workload::WORKLOADS`]) and prints every metric with its unit
//! and sample count, then one JSON result line. README.md explains the
//! workloads and what each metric should move.

pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

use mdm_profile::json::{obj, Value};
use run::Outcome;
use std::collections::BTreeMap;

/// The result line: `correct`, `attempted`, `failed` and every metric
/// as `{value, unit}`. With more than one outcome, metric names are
/// prefixed by the workload name.
pub fn result_json(outcomes: &[(&str, &Outcome)]) -> String {
    let prefix = outcomes.len() > 1;
    let mut metrics = BTreeMap::new();
    let (mut attempted, mut failed) = (0, 0);
    for (workload, out) in outcomes {
        attempted += out.checks.attempted;
        failed += out.checks.failed;
        for &(name, value, unit, _) in &out.metrics {
            let key = if prefix {
                format!("{workload}/{name}")
            } else {
                name.to_string()
            };
            metrics.insert(
                key,
                obj([
                    ("value", Value::Num(value)),
                    ("unit", Value::Str(unit.into())),
                ]),
            );
        }
    }
    obj([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::from_u64(attempted)),
        ("failed", Value::from_u64(failed)),
        ("metrics", Value::Obj(metrics)),
    ])
    .to_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{serial, tiny, Workload, WORKLOADS};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    fn names_and_units(list: &Value) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = list
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn benchmark_json_workloads_round_trip() {
        let spec = benchmark_json();
        let listed = spec.get("workloads").and_then(Value::as_arr).unwrap();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (entry, w) in listed.iter().zip(WORKLOADS) {
            let name = entry.get("name").and_then(Value::as_str).unwrap();
            let found: &Workload = Workload::by_name(name).unwrap();
            assert_eq!(found, w);
            assert_eq!(entry.get("why").and_then(Value::as_str), Some(w.why));
        }
    }

    #[test]
    fn emitted_metrics_match_benchmark_json() {
        let _serial = serial();
        let spec = benchmark_json();
        let w = tiny();
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let out = rayon::with_num_threads(2, || {
                if trace {
                    run::traced(&w, 1, 0.0)
                } else {
                    run::untraced(&w, 1, 0.0)
                }
            });
            let line = Value::parse(&result_json(&[(w.name, &out)])).unwrap();
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
            assert!(line.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
            let Some(Value::Obj(metrics)) = line.get("metrics") else {
                panic!("metrics object")
            };
            let mut emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, m)| {
                    (
                        k.clone(),
                        m.get("unit").and_then(Value::as_str).unwrap().into(),
                    )
                })
                .collect();
            emitted.sort();
            assert_eq!(emitted, names_and_units(spec.get(key).unwrap()), "{key}");
        }
    }
}
