//! The one run record: [`RunSummary`].
//!
//! Every performance record in the repo reports the same thing — the
//! paper's Table 4 split of one run's step, `t_step = max(t_wine,
//! t_mdg) + t_comm + t_host` — so there is one type for it. A
//! `BENCH_step.json` entry is a `RunSummary`; a `results/ledger.jsonl`
//! line is the same `RunSummary`, stamped ([`RunSummary::stamp`]) and
//! appended ([`crate::ledger::append_record`]). The regression gate
//! ([`crate::gate`]) judges summaries against either reference.
//!
//! [`RunSummary::to_json`] writes one layout. [`RunSummary::from_json`]
//! reads it and both layouts committed before it: the `BENCH_step.json`
//! entry (`total_seconds`, phases as an array of rows) and the ledger
//! line (`wall_seconds_per_step`, phases as a flat name → seconds map).

use crate::json::{obj, Value};
use crate::ledger::EnvStamp;
use crate::{phase, Profile};
use std::collections::BTreeMap;
use std::time::{SystemTime, UNIX_EPOCH};

/// Format version written on every summary and on the bench file.
pub const SUMMARY_VERSION: u64 = 2;

/// One top-level phase of the step.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Phase {
    /// Phase name (see [`crate::phase`]).
    pub name: String,
    /// Measured wall-clock seconds per step.
    pub measured_seconds: f64,
    /// Times the phase ran over the measured window (0 when the
    /// writer did not count calls).
    pub calls: u64,
    /// Modeled seconds per step (emulated hardware cycles / clock, or
    /// the analytic performance model), when a model covers the phase.
    pub modeled_seconds: Option<f64>,
}

/// One run reduced to its comparable summary.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunSummary {
    /// Seconds since the Unix epoch when the summary was stamped
    /// (0 = never stamped).
    pub timestamp_s: u64,
    /// Which entry point produced the run (`profile_step`,
    /// `bench_compare`, `accuracy_report`, `run_instrumented`,
    /// `mdm-serve`); empty for baseline entries written before the
    /// field existed. Trend grouping key together with `label`.
    pub tool: String,
    /// Run label (`nacl-4096`, `nacl-4096-lr-pswf`, …).
    pub label: String,
    /// Where the run came from: git SHA, hostname, nproc.
    pub env: EnvStamp,
    /// Effective worker-thread count the run used (0 = unknown).
    pub threads: u64,
    /// Particle count.
    pub n_particles: u64,
    /// Steps measured.
    pub steps: u64,
    /// Measured wall-clock seconds per step (whole step, outer
    /// clock) — the regression metric.
    pub seconds_per_step: f64,
    /// Top-level phase rows (real, wave, comm, host, …).
    pub phases: Vec<Phase>,
    /// Full span decomposition: dot path → seconds per step.
    pub spans: BTreeMap<String, f64>,
    /// Hardware/engine counters summed over the window.
    pub counters: BTreeMap<String, u64>,
    /// Phase name → measured Gflops (paper flop credits / wall time).
    pub gflops: BTreeMap<String, f64>,
    /// Gauge name → mean sampled value over the window.
    pub gauges: BTreeMap<String, f64>,
    /// Raw calculation speed in Tflops (Table 4), when metered.
    pub raw_tflops: Option<f64>,
    /// Effective speed in Tflops (erfc⁻¹ re-costed), when metered.
    pub effective_tflops: Option<f64>,
    /// Worst RMS force error the probe observed, when probed.
    pub worst_force_error: Option<f64>,
    /// Total watchdog violations over the run.
    pub violations: u64,
    /// Telemetry-bus events evicted by slow subscribers (see
    /// [`crate::bus`]).
    pub bus_dropped_events: u64,
    /// Label of the critical-path bottleneck segment (`rank1/real`,
    /// from [`crate::critical_path`]), when the run analyzed one.
    pub critical_path: Option<String>,
}

impl RunSummary {
    /// Summarize a drained [`Profile`] covering `steps` steps and
    /// `total_seconds` of wall-clock: per-step phase rows for
    /// `phase_names`, per-step spans, counters and mean gauges.
    /// Modeled seconds and Gflops are attached afterwards.
    pub fn from_profile(
        label: impl Into<String>,
        n_particles: u64,
        steps: u64,
        total_seconds: f64,
        profile: &Profile,
        phase_names: &[&str],
    ) -> Self {
        let per_step = 1.0 / steps.max(1) as f64;
        let phases = phase_names
            .iter()
            .map(|&name| Phase {
                name: name.to_string(),
                measured_seconds: profile.seconds(name) * per_step,
                calls: profile.spans.get(name).map_or(0, |stat| stat.calls),
                modeled_seconds: None,
            })
            .collect();
        Self {
            label: label.into(),
            n_particles,
            steps,
            seconds_per_step: total_seconds * per_step,
            phases,
            spans: profile
                .spans
                .iter()
                .map(|(path, stat)| (path.clone(), stat.total.as_secs_f64() * per_step))
                .collect(),
            counters: profile.counters.clone().into_iter().collect(),
            gauges: profile
                .gauges
                .iter()
                .map(|(name, stat)| (name.clone(), stat.mean()))
                .collect(),
            ..Self::default()
        }
    }

    /// Stamp the current wall-clock time and the environment.
    pub fn stamp(&mut self, env: &EnvStamp) {
        self.timestamp_s = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        self.env = env.clone();
    }

    /// The named phase row, if present.
    pub fn phase(&self, name: &str) -> Option<&Phase> {
        self.phases.iter().find(|row| row.name == name)
    }

    /// Attach a modeled per-step time to the named phase (no-op if the
    /// phase isn't present).
    pub fn set_modeled(&mut self, phase: &str, seconds: f64) {
        if let Some(row) = self.phases.iter_mut().find(|row| row.name == phase) {
            row.modeled_seconds = Some(seconds);
        }
    }

    /// Attach a measured flop throughput (Gflops) for the named phase.
    pub fn set_gflops(&mut self, phase: &str, gflops: f64) {
        self.gflops.insert(phase.to_string(), gflops);
    }

    /// Price the window's `real` and `wave` flop credits against the
    /// measured wall-clock: Gflops per phase over that phase's seconds,
    /// raw Tflops (Table 4's calculation speed) over the whole step.
    pub fn set_flops(&mut self, real: f64, wave: f64) {
        let steps = self.steps.max(1) as f64;
        let mut flops = 0.0;
        for (name, phase_flops) in [(phase::REAL, real), (phase::WAVE, wave)] {
            let seconds = self.phase(name).map_or(0.0, |p| p.measured_seconds * steps);
            if seconds > 0.0 {
                self.set_gflops(name, phase_flops / seconds / 1e9);
                flops += phase_flops;
            }
        }
        let wall = self.seconds_per_step * steps;
        if flops > 0.0 && wall > 0.0 {
            self.raw_tflops = Some(flops / wall / 1e12);
        }
    }

    /// Sum of the top-level measured phase times (≤ the step total,
    /// the remainder being un-instrumented step overhead).
    pub fn phase_sum_seconds(&self) -> f64 {
        self.phases.iter().map(|row| row.measured_seconds).sum()
    }

    /// Modeled step time by the Table 4 rule:
    /// `max(t_wine, t_mdg) + t_comm + t_host` (0 without a model).
    pub fn modeled_step(&self) -> f64 {
        let get = |name| {
            self.phase(name)
                .and_then(|row| row.modeled_seconds)
                .unwrap_or(0.0)
        };
        get(phase::REAL).max(get(phase::WAVE)) + get(phase::COMM) + get(phase::HOST)
    }

    /// Serialize: one object, every key always present.
    pub fn to_json(&self) -> Value {
        fn map<T: Copy>(m: &BTreeMap<String, T>, f: fn(T) -> Value) -> Value {
            Value::Obj(m.iter().map(|(k, &v)| (k.clone(), f(v))).collect())
        }
        let opt = |x: Option<f64>| x.map_or(Value::Null, Value::from_f64);
        let phases = self
            .phases
            .iter()
            .map(|row| {
                obj([
                    ("name", Value::Str(row.name.clone())),
                    ("measured_seconds", Value::from_f64(row.measured_seconds)),
                    ("calls", Value::from_u64(row.calls)),
                    ("modeled_seconds", opt(row.modeled_seconds)),
                ])
            })
            .collect();
        obj([
            ("type", Value::Str("run".into())),
            ("version", Value::from_u64(SUMMARY_VERSION)),
            ("timestamp_s", Value::from_u64(self.timestamp_s)),
            ("tool", Value::Str(self.tool.clone())),
            ("label", Value::Str(self.label.clone())),
            ("git_sha", Value::Str(self.env.git_sha.clone())),
            ("hostname", Value::Str(self.env.hostname.clone())),
            ("nproc", Value::from_u64(self.env.nproc)),
            ("threads", Value::from_u64(self.threads)),
            ("n_particles", Value::from_u64(self.n_particles)),
            ("steps", Value::from_u64(self.steps)),
            (
                "wall_seconds_per_step",
                Value::from_f64(self.seconds_per_step),
            ),
            ("phases", Value::Arr(phases)),
            ("spans", map(&self.spans, Value::from_f64)),
            ("counters", map(&self.counters, Value::from_u64)),
            ("gflops", map(&self.gflops, Value::from_f64)),
            ("gauges", map(&self.gauges, Value::from_f64)),
            ("raw_tflops", opt(self.raw_tflops)),
            ("effective_tflops", opt(self.effective_tflops)),
            ("worst_force_error", opt(self.worst_force_error)),
            ("violations", Value::from_u64(self.violations)),
            (
                "bus_dropped_events",
                Value::from_u64(self.bus_dropped_events),
            ),
            (
                "critical_path",
                self.critical_path.clone().map_or(Value::Null, Value::Str),
            ),
        ])
    }

    /// Parse [`RunSummary::to_json`]'s layout, a committed
    /// `BENCH_step.json` entry, or a committed ledger line. Only
    /// `label` and the step time are required; everything else
    /// defaults, so rows written by older (or newer) versions still
    /// read. A line whose `type` is not `"run"` is rejected.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        if value.get("type").is_some_and(|t| t.as_str() != Some("run")) {
            return Err("not a run summary".into());
        }
        let str_of = |key: &str| value.get(key).and_then(Value::as_str).map(str::to_string);
        let u64_of = |key: &str| value.get(key).and_then(Value::as_u64).unwrap_or(0);
        let f64_of = |key: &str| value.get(key).and_then(Value::as_f64);
        fn map_of<T>(value: &Value, key: &str, f: fn(&Value) -> Option<T>) -> BTreeMap<String, T> {
            match value.get(key) {
                Some(Value::Obj(m)) => m
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), f(v)?)))
                    .collect(),
                _ => BTreeMap::new(),
            }
        }
        let phases = match value.get("phases") {
            Some(Value::Arr(rows)) => rows
                .iter()
                .filter_map(|row| {
                    Some(Phase {
                        name: row.get("name")?.as_str()?.to_string(),
                        measured_seconds: row.get("measured_seconds")?.as_f64()?,
                        calls: row.get("calls").and_then(Value::as_u64).unwrap_or(0),
                        modeled_seconds: row.get("modeled_seconds").and_then(Value::as_f64),
                    })
                })
                .collect(),
            // The ledger's flat name → seconds map.
            _ => map_of(value, "phases", Value::as_f64)
                .into_iter()
                .map(|(name, measured_seconds)| Phase {
                    name,
                    measured_seconds,
                    ..Phase::default()
                })
                .collect(),
        };
        Ok(RunSummary {
            timestamp_s: u64_of("timestamp_s"),
            tool: str_of("tool").unwrap_or_default(),
            label: str_of("label").ok_or("missing string field 'label'")?,
            env: EnvStamp {
                git_sha: str_of("git_sha").unwrap_or_else(|| "unknown".into()),
                hostname: str_of("hostname").unwrap_or_else(|| "unknown".into()),
                nproc: u64_of("nproc"),
            },
            threads: u64_of("threads"),
            n_particles: u64_of("n_particles"),
            steps: u64_of("steps"),
            seconds_per_step: f64_of("wall_seconds_per_step")
                .or_else(|| f64_of("total_seconds"))
                .ok_or("missing number field 'wall_seconds_per_step'")?,
            phases,
            spans: map_of(value, "spans", Value::as_f64),
            counters: map_of(value, "counters", Value::as_u64),
            gflops: map_of(value, "gflops", Value::as_f64),
            gauges: map_of(value, "gauges", Value::as_f64),
            raw_tflops: f64_of("raw_tflops"),
            effective_tflops: f64_of("effective_tflops"),
            worst_force_error: f64_of("worst_force_error"),
            violations: u64_of("violations"),
            bus_dropped_events: u64_of("bus_dropped_events"),
            critical_path: str_of("critical_path"),
        })
    }
}

/// Serialize the `BENCH_step.json` document: the command that
/// regenerates it plus one summary per measured size.
pub fn bench_file_json(command: &str, summaries: &[RunSummary]) -> String {
    obj([
        ("command", Value::Str(command.to_string())),
        ("version", Value::from_u64(SUMMARY_VERSION)),
        (
            "reports",
            Value::Arr(summaries.iter().map(RunSummary::to_json).collect()),
        ),
    ])
    .to_pretty()
}

/// Parse a `BENCH_step.json` document into its summaries.
pub fn parse_bench_file(text: &str) -> Result<Vec<RunSummary>, String> {
    Value::parse(text)
        .map_err(|e| e.to_string())?
        .get("reports")
        .and_then(Value::as_arr)
        .ok_or("missing array field 'reports'")?
        .iter()
        .map(RunSummary::from_json)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanStat;
    use std::time::Duration;

    fn sample_profile() -> Profile {
        let mut profile = Profile::default();
        for (path, millis) in [
            ("real", 600u64),
            ("real.pass", 500),
            ("wave", 300),
            ("wave.dft", 200),
            ("comm", 50),
            ("host", 25),
        ] {
            profile.spans.insert(
                path.to_string(),
                SpanStat {
                    calls: 2,
                    total: Duration::from_millis(millis),
                },
            );
        }
        profile.counters.insert("pair_ops".into(), 123_456);
        profile
    }

    fn sample_summary() -> RunSummary {
        let profile = sample_profile();
        let mut summary = RunSummary::from_profile(
            "nacl-512",
            512,
            2,
            1.0,
            &profile,
            &["real", "wave", "comm", "host"],
        );
        summary.set_modeled("real", 0.21);
        summary.set_modeled("wave", 0.11);
        summary
    }

    fn round_trip(summary: &RunSummary) -> RunSummary {
        let line = summary.to_json().to_compact();
        assert!(!line.contains('\n'));
        RunSummary::from_json(&Value::parse(&line).unwrap()).unwrap()
    }

    #[test]
    fn phases_are_per_step_and_bounded_by_total() {
        let summary = sample_summary();
        // 600 ms of "real" over 2 steps → 0.3 s/step.
        assert!((summary.phases[0].measured_seconds - 0.3).abs() < 1e-12);
        assert!((summary.seconds_per_step - 0.5).abs() < 1e-12);
        // Top-level phases exclude nested spans, so their sum stays
        // within the measured step total.
        assert!(summary.phase_sum_seconds() <= summary.seconds_per_step + 1e-12);
        // Table 4 rule: max(0.21, 0.11) + 0 + 0.
        assert!((summary.modeled_step() - 0.21).abs() < 1e-12);
        // 1.2e9 real flops over 0.6 s of real → 2 Gflops; 1.5e9 flops
        // in all over the 1 s window → 1.5e-3 Tflops.
        let mut priced = summary.clone();
        priced.set_flops(1.2e9, 0.3e9);
        assert!((priced.gflops["real"] - 2.0).abs() < 1e-12);
        assert!((priced.gflops["wave"] - 1.0).abs() < 1e-12);
        assert!((priced.raw_tflops.unwrap() - 1.5e-3).abs() < 1e-15);
    }

    #[test]
    fn json_round_trip_is_exact() {
        let mut summary = sample_summary();
        summary.tool = "profile_step".into();
        summary.env = EnvStamp {
            git_sha: "8868e36aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa".into(),
            hostname: "ci-runner-7".into(),
            nproc: 4,
        };
        summary.timestamp_s = 1_754_600_000;
        summary.threads = 2;
        summary.set_gflops("real", 3.7);
        summary.gauges.insert("mdg.occupancy".into(), 0.83);
        summary.raw_tflops = Some(15.4);
        summary.effective_tflops = Some(1.34);
        summary.worst_force_error = Some(4.2e-4);
        summary.bus_dropped_events = 3;
        summary.critical_path = Some("rank1/real".into());
        assert_eq!(round_trip(&summary), summary);
    }

    #[test]
    fn bench_file_round_trips() {
        let summaries = vec![sample_summary()];
        let text = bench_file_json("profile_step --json", &summaries);
        assert_eq!(parse_bench_file(&text).unwrap(), summaries);
    }

    #[test]
    fn missing_fields_error() {
        assert!(RunSummary::from_json(&Value::parse("{}").unwrap()).is_err());
        assert!(parse_bench_file("{\"version\": 1}").is_err());
    }

    #[test]
    fn gauges_are_profile_means() {
        let mut profile = sample_profile();
        profile.gauges.insert(
            "mdg.occupancy".into(),
            crate::GaugeStat {
                count: 2,
                sum: 1.6,
                min: 0.7,
                max: 0.9,
                last: 0.9,
            },
        );
        let summary = RunSummary::from_profile("nacl-512", 512, 2, 1.0, &profile, &["real"]);
        assert!((summary.gauges["mdg.occupancy"] - 0.8).abs() < 1e-12);
        assert_eq!(round_trip(&summary), summary);
    }

    #[test]
    fn modeled_seconds_survive_none() {
        let summary = RunSummary::from_profile("x", 8, 1, 0.1, &sample_profile(), &["comm"]);
        assert_eq!(summary.phases[0].modeled_seconds, None);
        assert_eq!(round_trip(&summary).phases[0].modeled_seconds, None);
    }

    #[test]
    fn non_finite_metrics_survive_the_round_trip() {
        let mut summary = sample_summary();
        summary.seconds_per_step = f64::NAN;
        summary.worst_force_error = Some(f64::INFINITY);
        let back = round_trip(&summary);
        assert!(back.seconds_per_step.is_nan());
        assert_eq!(back.worst_force_error, Some(f64::INFINITY));
    }
}
