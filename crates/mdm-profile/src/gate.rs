//! The one regression gate: judge [`RunSummary`]s against a reference.
//!
//! There are two references and one verdict row ([`GateRow`]):
//!
//! * **the committed baseline** ([`Gate::against_baseline`], behind
//!   `bench_compare`): every baseline entry contributes its step total
//!   plus every phase, matched by label and phase name. Rows below the
//!   noise floor on both sides always pass — a 60 % swing on a 0.2 ms
//!   `comm` phase is scheduler noise. A baseline row the current run
//!   did not measure fails (a silently dropped size would otherwise
//!   pass); keys only the current run has (new sizes, phases, Gflops
//!   keys) are informational, so old baselines stay usable.
//! * **the trailing history** ([`Gate::against_history`], behind
//!   `mdm_report`): within each `tool:label` group of the run ledger the
//!   latest step time is compared against the **median** of up to
//!   `window` preceding runs. A group with fewer than [`MIN_HISTORY`]
//!   prior runs is never judged (one slow first run must not brick the
//!   gate).
//!
//! Either way a row *regresses* when it got slower than its reference
//! by more than the relative tolerance; speedups are reported but never
//! fail.

use crate::summary::RunSummary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Prior runs a group needs before its latest run can be judged.
pub const MIN_HISTORY: usize = 2;

/// Trailing-window length the median is taken over (in runs), unless
/// the caller overrides it.
pub const DEFAULT_WINDOW: usize = 10;

/// How one row compares against its reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowStatus {
    /// Within tolerance (or below the noise floor).
    Ok,
    /// Slower than the reference beyond tolerance.
    Regressed,
    /// Faster than the reference beyond tolerance (informational).
    Improved,
    /// Nothing to judge against — a key only the current run has, too
    /// little history, a zero or non-finite time (informational).
    Unjudged,
    /// In the reference but not measured now; fails.
    Missing,
}

impl RowStatus {
    /// The status as printed in verdict tables.
    pub fn label(self) -> &'static str {
        match self {
            RowStatus::Ok => "ok",
            RowStatus::Regressed => "REGRESSED",
            RowStatus::Improved => "improved",
            RowStatus::Unjudged => "new (informational)",
            RowStatus::Missing => "MISSING",
        }
    }
}

/// One judged number: the current seconds per step against its
/// reference (baseline entry or trailing median).
#[derive(Clone, Debug, PartialEq)]
pub struct GateRow {
    /// Report label (`nacl-4096`), or `tool:label` for history rows.
    pub key: String,
    /// `"total"`, a phase name, or `gflops.<phase>`; empty for a whole
    /// missing or new label.
    pub phase: String,
    /// Reference seconds per step.
    pub reference: Option<f64>,
    /// Current seconds per step.
    pub current: Option<f64>,
    /// The row's verdict.
    pub status: RowStatus,
}

impl GateRow {
    /// `current / reference`, when both are usable.
    pub fn ratio(&self) -> Option<f64> {
        let (reference, current) = (self.reference?, self.current?);
        (reference > 0.0 && current.is_finite()).then(|| current / reference)
    }

    /// Relative change versus the reference (+0.25 = 25 % slower; 0
    /// when unjudged).
    pub fn rel_change(&self) -> f64 {
        self.ratio().map_or(0.0, |ratio| ratio - 1.0)
    }
}

/// A set of verdicts under one tolerance.
#[derive(Clone, Debug)]
pub struct Gate {
    /// Relative tolerance regressions must exceed.
    pub tolerance: f64,
    /// Noise floor: rows below it on both sides pass (0 for history
    /// verdicts).
    pub min_seconds: f64,
    /// Every row, in reference order.
    pub rows: Vec<GateRow>,
}

impl Gate {
    /// Judge `current` against the committed `baseline` entries,
    /// matched by label: a `"total"` row plus one row per baseline
    /// phase.
    pub fn against_baseline(
        baseline: &[RunSummary],
        current: &[RunSummary],
        tolerance: f64,
        min_seconds: f64,
    ) -> Self {
        assert!(tolerance >= 0.0);
        let mut gate = Gate {
            tolerance,
            min_seconds,
            rows: Vec::new(),
        };
        let find = |set: &[RunSummary], label: &str| set.iter().position(|s| s.label == label);
        for base in baseline {
            let Some(i) = find(current, &base.label) else {
                gate.push(&base.label, "", Some(base.seconds_per_step), None);
                continue;
            };
            let cur = &current[i];
            gate.push(
                &base.label,
                "total",
                Some(base.seconds_per_step),
                Some(cur.seconds_per_step),
            );
            for phase in &base.phases {
                let now = cur.phase(&phase.name).map(|p| p.measured_seconds);
                gate.push(&base.label, &phase.name, Some(phase.measured_seconds), now);
            }
        }
        for cur in current {
            let Some(i) = find(baseline, &cur.label) else {
                gate.push(&cur.label, "", None, Some(cur.seconds_per_step));
                continue;
            };
            let base = &baseline[i];
            for phase in cur.phases.iter().filter(|p| base.phase(&p.name).is_none()) {
                gate.push(&cur.label, &phase.name, None, Some(phase.measured_seconds));
            }
            for key in cur.gflops.keys().filter(|k| !base.gflops.contains_key(*k)) {
                gate.push(&cur.label, &format!("gflops.{key}"), None, None);
            }
        }
        gate
    }

    /// Judge the latest run of every `tool:label` group in `ledger`
    /// (file order = append order) against the median of up to
    /// `window` runs before it.
    pub fn against_history(ledger: &[RunSummary], tolerance: f64, window: usize) -> Self {
        let mut gate = Gate {
            tolerance,
            min_seconds: 0.0,
            rows: Vec::new(),
        };
        for (key, runs) in group(ledger) {
            let (latest, prior) = runs.split_last().expect("groups are non-empty");
            let prior: Vec<f64> = prior
                .iter()
                .rev()
                .take(window.max(1))
                .map(|run| run.seconds_per_step)
                .collect();
            let median = (prior.len() >= MIN_HISTORY)
                .then(|| median(&prior))
                .flatten();
            gate.push(&key, "total", median, Some(latest.seconds_per_step));
        }
        gate
    }

    /// Judge `current` against `reference` and append the row: both
    /// below the noise floor is noise, otherwise the relative change
    /// decides.
    fn push(&mut self, key: &str, phase: &str, reference: Option<f64>, current: Option<f64>) {
        let mut row = GateRow {
            key: key.to_string(),
            phase: phase.to_string(),
            reference,
            current,
            status: RowStatus::Unjudged,
        };
        if reference.is_some() && current.is_none() {
            row.status = RowStatus::Missing;
        } else if let Some(ratio) = row.ratio() {
            let floor = self.min_seconds;
            let noise = reference.is_some_and(|r| r < floor) && current.is_some_and(|c| c < floor);
            row.status = if noise || (ratio - 1.0).abs() <= self.tolerance {
                RowStatus::Ok
            } else if ratio > 1.0 {
                RowStatus::Regressed
            } else {
                RowStatus::Improved
            };
        }
        self.rows.push(row);
    }

    fn with_status(&self, status: RowStatus) -> impl Iterator<Item = &GateRow> {
        self.rows.iter().filter(move |row| row.status == status)
    }

    /// `key` or `key/phase` of every row with `status`.
    fn names(&self, status: RowStatus) -> Vec<String> {
        self.with_status(status)
            .map(|r| match r.phase.as_str() {
                "" => r.key.clone(),
                phase => format!("{}/{phase}", r.key),
            })
            .collect()
    }

    /// The rows that regressed.
    pub fn regressions(&self) -> Vec<&GateRow> {
        self.with_status(RowStatus::Regressed).collect()
    }

    /// Reference keys (or `key/phase` pairs) the current run did not
    /// measure.
    pub fn missing(&self) -> Vec<String> {
        self.names(RowStatus::Missing)
    }

    /// Keys (or `key/phase` pairs) with nothing to judge against.
    pub fn informational(&self) -> Vec<String> {
        self.names(RowStatus::Unjudged)
    }

    /// True when nothing regressed and nothing went missing.
    pub fn passed(&self) -> bool {
        self.regressions().is_empty() && self.missing().is_empty()
    }

    /// Render the fixed-width verdict table.
    pub fn render_table(&self) -> String {
        let width = self.rows.iter().map(|r| r.key.len()).fold(12, usize::max);
        let seconds = |x: Option<f64>| x.map_or("-".to_string(), |s| format!("{s:.6}"));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<width$} {:<8} {:>14} {:>14} {:>9}  status",
            "label", "phase", "reference s", "current s", "change"
        );
        let _ = writeln!(out, "{}", "-".repeat(width + 56));
        for row in &self.rows {
            let change = match row.ratio() {
                Some(_) => format!("{:+.1}%", row.rel_change() * 100.0),
                None => "-".into(),
            };
            let _ = writeln!(
                out,
                "{:<width$} {:<8} {:>14} {:>14} {change:>9}  {}",
                row.key,
                row.phase,
                seconds(row.reference),
                seconds(row.current),
                row.status.label(),
            );
        }
        let _ = writeln!(
            out,
            "tolerance ±{:.0}% (noise floor {:.1} ms): {} regressed, {} missing, {} new",
            self.tolerance * 100.0,
            self.min_seconds * 1e3,
            self.regressions().len(),
            self.missing().len(),
            self.informational().len()
        );
        out
    }
}

/// Group summaries by `"{tool}:{label}"`, preserving order within each
/// group.
pub fn group(summaries: &[RunSummary]) -> BTreeMap<String, Vec<&RunSummary>> {
    let mut groups: BTreeMap<String, Vec<&RunSummary>> = BTreeMap::new();
    for summary in summaries {
        groups
            .entry(format!("{}:{}", summary.tool, summary.label))
            .or_default()
            .push(summary);
    }
    groups
}

/// Median of the finite values in `xs` (midpoint-averaged for even
/// counts); `None` when nothing finite remains.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut finite: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if finite.is_empty() {
        return None;
    }
    finite.sort_by(|a, b| a.total_cmp(b));
    let n = finite.len();
    Some(if n % 2 == 1 {
        finite[n / 2]
    } else {
        0.5 * (finite[n / 2 - 1] + finite[n / 2])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::Phase;

    fn report(label: &str, total: f64, phases: &[(&str, f64)]) -> RunSummary {
        RunSummary {
            label: label.into(),
            n_particles: 512,
            steps: 2,
            seconds_per_step: total,
            phases: phases
                .iter()
                .map(|&(name, seconds)| Phase {
                    name: name.into(),
                    measured_seconds: seconds,
                    calls: 2,
                    modeled_seconds: None,
                })
                .collect(),
            ..RunSummary::default()
        }
    }

    #[test]
    fn identical_files_pass() {
        let base = vec![report("nacl-512", 0.05, &[("real", 0.03), ("wave", 0.017)])];
        let cmp = Gate::against_baseline(&base, &base.clone(), 0.2, 1e-3);
        assert!(cmp.passed());
        assert_eq!(cmp.rows.len(), 3, "total + 2 phases");
        assert!(cmp.rows.iter().all(|r| r.status == RowStatus::Ok));
    }

    #[test]
    fn slowdown_beyond_tolerance_regresses() {
        let base = vec![report("nacl-512", 0.05, &[("real", 0.030)])];
        let cur = vec![report("nacl-512", 0.08, &[("real", 0.060)])];
        let cmp = Gate::against_baseline(&base, &cur, 0.5, 1e-3);
        assert!(!cmp.passed());
        let regressed: Vec<&str> = cmp.regressions().iter().map(|r| r.phase.as_str()).collect();
        // total is 60 % slower (regressed); real is 100 % slower.
        assert_eq!(regressed, vec!["total", "real"]);
        assert!(cmp.render_table().contains("REGRESSED"));
    }

    #[test]
    fn speedup_never_fails() {
        let base = vec![report("nacl-512", 0.05, &[("real", 0.030)])];
        let cur = vec![report("nacl-512", 0.02, &[("real", 0.010)])];
        let cmp = Gate::against_baseline(&base, &cur, 0.2, 1e-3);
        assert!(cmp.passed());
        assert!(cmp.rows.iter().all(|r| r.status == RowStatus::Improved));
    }

    #[test]
    fn sub_noise_floor_rows_are_ok() {
        // 0.2 ms comm doubling to 0.4 ms: under the 1 ms floor → ok.
        let base = vec![report("nacl-512", 0.05, &[("comm", 2e-4)])];
        let cur = vec![report("nacl-512", 0.05, &[("comm", 4e-4)])];
        let cmp = Gate::against_baseline(&base, &cur, 0.2, 1e-3);
        assert!(cmp.passed());
    }

    #[test]
    fn missing_label_or_phase_fails() {
        let base = vec![
            report("nacl-512", 0.05, &[("real", 0.03)]),
            report("nacl-4096", 0.9, &[("real", 0.6)]),
        ];
        let only_first = vec![report("nacl-512", 0.05, &[("wave", 0.02)])];
        let cmp = Gate::against_baseline(&base, &only_first, 0.5, 1e-3);
        assert!(!cmp.passed());
        assert!(cmp.missing().contains(&"nacl-4096".to_string()));
        assert!(cmp.missing().contains(&"nacl-512/real".to_string()));
        assert!(cmp.render_table().contains("MISSING"));
    }

    #[test]
    fn current_only_rows_are_informational_not_failures() {
        // The current run measured a new size, a new phase, and new
        // gflops keys the old baseline has never heard of — that must
        // pass the gate and be listed as informational.
        let base = vec![report("nacl-512", 0.05, &[("real", 0.03)])];
        let mut grown = report("nacl-512", 0.05, &[("real", 0.03), ("wave", 0.02)]);
        grown.set_gflops("real", 4.1);
        let cur = vec![grown, report("nacl-32768", 26.0, &[("real", 20.0)])];
        let cmp = Gate::against_baseline(&base, &cur, 0.2, 1e-3);
        assert!(cmp.passed(), "new keys must not fail: {:?}", cmp.missing());
        assert!(cmp.informational().contains(&"nacl-512/wave".to_string()));
        assert!(cmp
            .informational()
            .contains(&"nacl-512/gflops.real".to_string()));
        assert!(cmp.informational().contains(&"nacl-32768".to_string()));
        assert!(cmp.render_table().contains("informational"));
    }

    #[test]
    fn rel_change_sign_convention() {
        let row = GateRow {
            key: "x".into(),
            phase: "real".into(),
            reference: Some(0.04),
            current: Some(0.05),
            status: RowStatus::Ok,
        };
        assert!((row.rel_change() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn groups_split_on_tool_and_label() {
        let row = |tool: &str, label: &str| RunSummary {
            tool: tool.into(),
            label: label.into(),
            ..RunSummary::default()
        };
        let rows = vec![
            row("profile_step", "nacl-512"),
            row("bench_compare", "nacl-512"),
            row("profile_step", "nacl-4096"),
        ];
        let groups = group(&rows);
        assert_eq!(groups.len(), 3);
        assert!(groups.contains_key("profile_step:nacl-512"));
        assert!(groups.contains_key("bench_compare:nacl-512"));
    }

    #[test]
    fn median_is_robust_to_one_outlier_and_nan() {
        assert_eq!(median(&[0.1, 0.1, 9.9]), Some(0.1));
        assert_eq!(median(&[1.0, f64::NAN, 3.0]), Some(2.0));
        assert_eq!(median(&[f64::NAN]), None);
        assert_eq!(median(&[]), None);
    }
}
