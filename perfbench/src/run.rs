//! One benchmark run of one workload: set-up, a timed window of MD
//! steps, output checks outside the window, and the reduction to the
//! end-to-end metrics (untraced) or the per-layer metrics (traced).

use crate::stats::{median, Summary};
use crate::trace::{Mdm, Span, TimedBackend, TimedForceField, Tracer};
use crate::workload::Workload;
use mdm_core::accuracy::ForceErrorProbe;
use mdm_core::forcefield::ForceField;
use mdm_core::integrate::Simulation;
use mdm_core::system::System;
use mdm_core::vec3::Vec3;
use mdm_host::driver::{longrange_by_name, MdmForceField, StepCounters};
use mdm_host::machines::MachineModel;
use mdm_profile::Profile;
use std::sync::Arc;
use std::time::Instant;

/// Probe gate: RMS force error relative to the RMS force.
pub const FORCE_ERR_GATE: f64 = 1e-3;

/// NVE gate on the energy workload: largest |E(t) − E(0)| / |E(0)|
/// over the timed window.
pub const ENERGY_DRIFT_GATE: f64 = 2e-5;

/// Wall-clock split of one set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Lattice build to the return of `Simulation::new`.
    pub total_s: f64,
    /// `MdmForceField::new` (the eight function-table fits).
    pub tables_s: f64,
    /// `longrange_by_name`.
    pub backend_s: f64,
    /// `Simulation::new` (the first force and energy evaluation).
    pub first_force_s: f64,
    /// Host virial inside the first evaluation.
    pub virial_s: f64,
    /// MDGRAPE-2 potential passes inside the first evaluation.
    pub potential_s: f64,
}

/// Build the driver and the simulation for `seed`, timing each part.
/// With a tracer, the driver and its wavenumber backend are wrapped.
fn setup<F: Mdm>(
    w: &Workload,
    seed: u64,
    wrap: impl FnOnce(MdmForceField) -> F,
    tracer: Option<&Arc<Tracer>>,
) -> (Simulation<F>, SetupTimes) {
    mdm_profile::reset();
    let t0 = Instant::now();
    let system = w.system(seed);
    let l = system.simbox().l();
    let params = w.params();

    let t = Instant::now();
    let mut ff = MdmForceField::new(params, w.clusters, w.clusters).expect("function tables build");
    let tables_s = t.elapsed().as_secs_f64();
    ff.set_potential_interval(w.potential_interval);
    ff.set_n3l_fast_path(false);

    let t = Instant::now();
    let backend = longrange_by_name(w.backend, &params, l, w.clusters).expect("known backend");
    let backend_s = t.elapsed().as_secs_f64();
    ff.set_longrange(match tracer {
        Some(tracer) => Box::new(TimedBackend::new(backend, wave_layer(w), tracer.clone())),
        None => backend,
    });

    let t = Instant::now();
    let sim = Simulation::new(system, wrap(ff), w.dt_fs);
    let first_force_s = t.elapsed().as_secs_f64();
    let total_s = t0.elapsed().as_secs_f64();
    let profile = mdm_profile::take();
    let times = SetupTimes {
        total_s,
        tables_s,
        backend_s,
        first_force_s,
        virial_s: host_virial_seconds(&profile),
        potential_s: profile.seconds("real.potential"),
    };
    (sim, times)
}

/// Tracing layer name of the workload's wavenumber backend.
fn wave_layer(w: &Workload) -> &'static str {
    if w.backend == "wine2" {
        "wine2"
    } else {
        "longrange"
    }
}

/// The driver's `host` span minus the j-store refresh it contains: the
/// host virial, plus the O(N) self-energy sum.
fn host_virial_seconds(profile: &Profile) -> f64 {
    (profile.seconds("host") - profile.seconds("host.jstore_build")).max(0.0)
}

/// Table 4 rule on one step's cycle counters:
/// `max(t_wine, t_mdg) + t_comm + t_host`.
pub fn modeled_step_seconds(counters: &StepCounters, n: usize) -> f64 {
    let machine = MachineModel::mdm_current();
    let comm = counters.mdg.bus_seconds() + counters.wine.bus_seconds();
    let host = 200.0 * n as f64 / machine.host_flops;
    counters
        .mdg
        .compute_seconds()
        .max(counters.wine.compute_seconds())
        + comm
        + host
}

/// Output checks, counted per evaluation.
#[derive(Debug, Default)]
pub struct Checks {
    /// Evaluations checked.
    pub attempted: u64,
    /// Evaluations that failed a check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Total energy after set-up, for the NVE gate.
    e0: Option<f64>,
    /// Largest relative energy drift seen.
    pub max_drift: f64,
}

impl Checks {
    fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Check one step's state: everything finite and, when the energy
    /// is fresh every step, conserved.
    fn step<F: ForceField>(&mut self, sim: &Simulation<F>, energy_fresh: bool) {
        let record = sim.record();
        let current = sim.current_forces();
        let finite = all_finite(sim.system().positions())
            && all_finite(&current.forces)
            && record.potential.is_finite()
            && record.total.is_finite();
        let drift = match (energy_fresh, self.e0) {
            (true, Some(e0)) => ((record.total - e0) / e0).abs(),
            _ => 0.0,
        };
        self.max_drift = self.max_drift.max(drift);
        self.record(finite && drift <= ENERGY_DRIFT_GATE, || {
            format!(
                "step {}: finite = {finite}, energy drift {drift:.3e} (gate {ENERGY_DRIFT_GATE:.0e})",
                record.step
            )
        });
    }

    /// The failure share (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn all_finite(v: &[Vec3]) -> bool {
    v.iter().all(|x| x.is_finite())
}

/// Probe the set-up evaluation against a converged f64 Ewald.
fn probe(w: &Workload, system: &System, forces: &[Vec3]) -> f64 {
    let l = system.simbox().l();
    let probe = ForceErrorProbe::converged_for_mdm(&w.params(), l, 1, w.probe_samples);
    probe.measure(0, system, forces).relative()
}

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `(name, value, unit, sample count)` in report order.
    pub metrics: Vec<(&'static str, f64, &'static str, usize)>,
    /// Output checks.
    pub checks: Checks,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
    /// Bit hash of the positions after the first `min_steps` steps.
    pub positions_hash: u64,
    /// Human-readable lines beyond the metrics.
    pub notes: Vec<String>,
}

/// FNV-1a over the bits of every coordinate.
pub fn positions_hash(positions: &[Vec3]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in positions {
        for x in [p.x, p.y, p.z] {
            for b in x.to_bits().to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Peak resident set (VmHWM) in MB, or `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Set up `w.setup_reps` times, keeping the last simulation, and check
/// that its set-up evaluation is finite.
fn prepare<F: Mdm>(
    w: &Workload,
    seed: u64,
    wrap: impl Fn(MdmForceField) -> F,
    tracer: Option<&Arc<Tracer>>,
    checks: &mut Checks,
) -> (Simulation<F>, Vec<SetupTimes>) {
    let mut setups = Vec::with_capacity(w.setup_reps);
    let mut sim = None;
    for _ in 0..w.setup_reps {
        drop(sim.take());
        let (s, times) = setup(w, seed, &wrap, tracer);
        setups.push(times);
        sim = Some(s);
    }
    let sim = sim.expect("at least one set-up");
    let finite = all_finite(&sim.current_forces().forces) && sim.record().total.is_finite();
    checks.record(finite, || {
        "set-up evaluation: non-finite forces or energy".into()
    });
    checks.e0 = Some(sim.record().total);
    (sim, setups)
}

/// The untraced run: end-to-end metrics.
pub fn untraced(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (mut sim, setups) = prepare(w, seed, |ff| ff, None, &mut out.checks);
    let energy_fresh = w.potential_interval == 1;
    // The probe runs after the window, on the set-up evaluation: a fixed
    // configuration per seed, so the figure repeats exactly.
    let probed = (sim.system().clone(), sim.current_forces().forces.clone());

    let mut step_s = Vec::new();
    let mut modeled = 0.0;
    let start = Instant::now();
    while step_s.len() < w.min_steps || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        sim.step();
        step_s.push(t.elapsed().as_secs_f64());
        if step_s.len() == 1 {
            modeled = modeled_step_seconds(&sim.force_field().mdm().last_counters(), w.n());
        }
        if step_s.len() == w.min_steps {
            out.positions_hash = positions_hash(sim.system().positions());
        }
        out.checks.step(&sim, energy_fresh);
    }
    let rss = peak_rss_mb().unwrap_or(0.0);
    let t = Instant::now();
    let force_err = probe(w, &probed.0, &probed.1);
    let probe_s = t.elapsed().as_secs_f64();
    out.checks.record(force_err <= FORCE_ERR_GATE, || {
        format!("set-up evaluation: force error {force_err:.3e} (gate {FORCE_ERR_GATE:.0e})")
    });

    let step = Summary::of(&step_s).expect("at least one step");
    let setup_total: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    out.notes.push(format!("step_s: {}", step.describe("s")));
    out.notes.push(format!(
        "setup_s: {}",
        Summary::of(&setup_total).expect("a set-up").describe("s")
    ));
    out.notes.push(format!(
        "failed_frac: {:.6} ({} of {} evaluations failed a check)",
        out.checks.failed_frac(),
        out.checks.failed,
        out.checks.attempted
    ));
    out.notes
        .push(format!("force-error probe took {probe_s:.2} s"));
    if energy_fresh {
        out.notes.push(format!(
            "energy: max |E(t) - E(0)| / |E(0)| = {:.3e} over {} steps (gate {ENERGY_DRIFT_GATE:.0e})",
            out.checks.max_drift,
            step_s.len()
        ));
    }
    out.metrics = vec![
        ("step_s", step.median, "s", step.n),
        ("setup_s", median(&setup_total), "s", setups.len()),
        ("modeled_step_s", modeled, "s", 1),
        ("peak_rss_mb", rss, "MB", 1),
        (
            "force_err_rms",
            force_err,
            "ratio",
            w.probe_samples.min(w.n()),
        ),
    ];
    out
}

/// Per-step readings of a traced step.
#[derive(Clone, Copy, Debug, Default)]
struct LayerStep {
    step_s: f64,
    compute_s: f64,
    wave_layer_s: f64,
    wave_span_s: f64,
    mdg_force_s: f64,
    mdg_potential_s: f64,
    virial_s: f64,
    jstore_s: f64,
    upload_s: f64,
    dft_s: f64,
    idft_s: f64,
    pair_ops: u64,
    wine_ops: u64,
    flops: u64,
    upload_bytes: u64,
    resorts: u64,
    rayon_busy_ns: u64,
    rayon_capacity_ns: u64,
    mdg_modeled_s: f64,
    wine_modeled_s: f64,
}

impl LayerStep {
    fn read(
        profile: &Profile,
        counters: &StepCounters,
        spans: &[Span],
        step_id: usize,
        w: &Workload,
    ) -> Self {
        let counter = |name: &str| profile.counters.get(name).copied().unwrap_or(0);
        let compute = spans
            .iter()
            .find(|s| s.parent == Some(step_id) && s.name == "driver.compute")
            .expect("driver.compute inside sim.step");
        let mdg_potential_s = profile.seconds("real.potential");
        LayerStep {
            step_s: spans[step_id].dur_ns as f64 * 1e-9,
            compute_s: compute.dur_ns as f64 * 1e-9,
            wave_layer_s: Tracer::child_seconds(spans, compute.id, wave_layer(w)),
            wave_span_s: profile.seconds("wave"),
            mdg_force_s: profile.seconds("real") - mdg_potential_s,
            mdg_potential_s,
            virial_s: host_virial_seconds(profile),
            jstore_s: profile.seconds("host.jstore_build"),
            upload_s: profile.seconds("comm"),
            dft_s: profile.seconds("wave.dft"),
            idft_s: profile.seconds("wave.idft"),
            pair_ops: counter("mdg_pair_ops"),
            wine_ops: counter("wine_dft_ops") + counter("wine_idft_ops"),
            flops: counter("longrange_flops"),
            upload_bytes: counter("jstore_upload_bytes"),
            resorts: counter("jstore_resorts"),
            rayon_busy_ns: counter("rayon_busy_ns"),
            rayon_capacity_ns: counter("rayon_capacity_ns"),
            mdg_modeled_s: counters.mdg.compute_seconds(),
            wine_modeled_s: counters.wine.compute_seconds(),
        }
    }

    /// Driver time not inside any span the driver itself opens: table
    /// clones, coefficient rebuilds, force summation.
    fn driver_self_s(&self) -> f64 {
        self.compute_s
            - (self.mdg_force_s + self.mdg_potential_s + self.wave_span_s)
            - (self.virial_s + self.jstore_s + self.upload_s)
    }
}

/// The traced run: per-layer metrics. Steps alternate between tracing
/// on and off (the first is traced); `profile.trace_overhead_frac`
/// compares their medians.
pub fn traced(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let tracer = Tracer::new();
    let wrap = |ff: MdmForceField| TimedForceField::new(ff, tracer.clone());
    let (mut sim, setups) = prepare(w, seed, wrap, Some(&tracer), &mut out.checks);
    let energy_fresh = w.potential_interval == 1;
    // Set-up calls are not steps: keep only the spans of the window.
    let setup_spans = tracer.spans().len();

    let mut traced_steps: Vec<LayerStep> = Vec::new();
    let mut untraced_s = Vec::new();
    let start = Instant::now();
    let mut k = 0;
    // Three steps at least: two traced, one untraced for the overhead.
    while k < w.min_steps.max(3) || start.elapsed().as_secs_f64() < seconds {
        let on = k % 2 == 0;
        tracer.set_enabled(on);
        mdm_profile::reset();
        if on {
            tracer.span("sim.step", || sim.step());
            let profile = mdm_profile::take();
            let spans = tracer.spans();
            let step_id = spans
                .iter()
                .rposition(|s| s.name == "sim.step")
                .expect("step span");
            let counters = sim.force_field().mdm().last_counters();
            traced_steps.push(LayerStep::read(&profile, &counters, &spans, step_id, w));
        } else {
            let t = Instant::now();
            sim.step();
            untraced_s.push(t.elapsed().as_secs_f64());
        }
        k += 1;
        if k == w.min_steps {
            out.positions_hash = positions_hash(sim.system().positions());
        }
        out.checks.step(&sim, energy_fresh);
    }
    tracer.set_enabled(false);
    out.spans = tracer.spans().split_off(setup_spans);

    let med =
        |f: &dyn Fn(&LayerStep) -> f64| median(&traced_steps.iter().map(f).collect::<Vec<f64>>());
    let n = traced_steps.len();
    let first = traced_steps[0];
    let step_s = med(&|s| s.step_s);
    let mdg_s = med(&|s| s.mdg_force_s + s.mdg_potential_s);
    let per_op = |s: f64, ops: u64| if ops > 0 { s * 1e9 / ops as f64 } else { 0.0 };
    let (wine_s, mesh_s) = if w.backend == "wine2" {
        (med(&|s| s.wave_layer_s), 0.0)
    } else {
        (0.0, med(&|s| s.wave_layer_s))
    };
    let mesh_flops = if w.backend == "wine2" { 0 } else { first.flops };
    let setup_med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<f64>>());
    let integrate_s = med(&|s| s.step_s - s.compute_s);
    let self_s = med(&|s| s.driver_self_s());
    let attributed = med(&|s| {
        s.mdg_force_s + s.mdg_potential_s + s.wave_layer_s + s.virial_s + s.jstore_s + s.upload_s
    });
    let untraced_step = median(&untraced_s);
    let overhead = if untraced_step > 0.0 {
        step_s / untraced_step - 1.0
    } else {
        0.0
    };

    out.notes.push(format!(
        "traced steps: {n}, untraced steps: {}; no force-error probe (the untraced run of the seed makes it)",
        untraced_s.len()
    ));
    out.notes.push(format!(
        "coverage: named leaf layers hold {:.1} % of sim.step_s; the rest is driver.self_s {:.1} % and sim.integrate_s {:.1} %",
        100.0 * attributed / step_s,
        100.0 * self_s / step_s,
        100.0 * integrate_s / step_s,
    ));
    out.notes.push(format!(
        "failed_frac: {:.6} ({} of {} evaluations failed a check)",
        out.checks.failed_frac(),
        out.checks.failed,
        out.checks.attempted
    ));

    out.metrics = vec![
        ("sim.step_s", step_s, "s", n),
        ("sim.integrate_s", integrate_s, "s", n),
        ("driver.compute_s", med(&|s| s.compute_s), "s", n),
        ("driver.self_s", self_s, "s", n),
        ("driver.virial_s", med(&|s| s.virial_s), "s", n),
        ("driver.jstore_s", med(&|s| s.jstore_s), "s", n),
        ("driver.upload_s", med(&|s| s.upload_s), "s", n),
        (
            "driver.jstore_upload_bytes",
            first.upload_bytes as f64,
            "bytes",
            1,
        ),
        ("driver.jstore_resorts", first.resorts as f64, "count", 1),
        ("mdgrape2.force_s", med(&|s| s.mdg_force_s), "s", n),
        ("mdgrape2.potential_s", med(&|s| s.mdg_potential_s), "s", n),
        ("mdgrape2.pair_ops", first.pair_ops as f64, "count", 1),
        (
            "mdgrape2.ns_per_pair_op",
            per_op(mdg_s, first.pair_ops),
            "ns",
            n,
        ),
        ("mdgrape2.modeled_s", first.mdg_modeled_s, "s", 1),
        ("wine2.s", wine_s, "s", n),
        ("wine2.dft_s", med(&|s| s.dft_s), "s", n),
        ("wine2.idft_s", med(&|s| s.idft_s), "s", n),
        ("wine2.ops", first.wine_ops as f64, "count", 1),
        ("wine2.ns_per_op", per_op(wine_s, first.wine_ops), "ns", n),
        ("wine2.modeled_s", first.wine_modeled_s, "s", 1),
        ("longrange.s", mesh_s, "s", n),
        ("longrange.flops", mesh_flops as f64, "flop", 1),
        ("longrange.ns_per_flop", per_op(mesh_s, mesh_flops), "ns", n),
        (
            "setup.tables_s",
            setup_med(|s| s.tables_s),
            "s",
            setups.len(),
        ),
        (
            "setup.backend_s",
            setup_med(|s| s.backend_s),
            "s",
            setups.len(),
        ),
        (
            "setup.first_force_s",
            setup_med(|s| s.first_force_s),
            "s",
            setups.len(),
        ),
        (
            "setup.virial_s",
            setup_med(|s| s.virial_s),
            "s",
            setups.len(),
        ),
        (
            "setup.potential_s",
            setup_med(|s| s.potential_s),
            "s",
            setups.len(),
        ),
        (
            "rayon.util",
            med(&|s| s.rayon_busy_ns as f64 / s.rayon_capacity_ns.max(1) as f64),
            "ratio",
            n,
        ),
        (
            "rayon.parallel_frac",
            med(&|s| s.rayon_capacity_ns as f64 * 1e-9 / w.threads as f64 / s.step_s),
            "ratio",
            n,
        ),
        (
            "profile.trace_overhead_frac",
            overhead,
            "ratio",
            n + untraced_s.len(),
        ),
        ("profile.coverage", attributed / step_s, "ratio", n),
    ];
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{serial, tiny};

    #[test]
    fn wrappers_leave_positions_bit_identical() {
        let _serial = serial();
        for backend in ["wine2", "pswf"] {
            let w = Workload { backend, ..tiny() };
            let plain = rayon::with_num_threads(2, || untraced(&w, 5, 0.0));
            let traced = rayon::with_num_threads(2, || traced(&w, 5, 0.0));
            assert_eq!(plain.positions_hash, traced.positions_hash, "{backend}");
            assert_eq!(plain.checks.failed, 0, "{:?}", plain.checks.failures);
            assert!(traced.spans.iter().any(|s| s.name == "driver.compute"));
        }
    }

    #[test]
    fn traced_run_reports_every_layer_and_repeats_its_counts() {
        let _serial = serial();
        let w = tiny();
        let a = rayon::with_num_threads(2, || traced(&w, 3, 0.0));
        let b = rayon::with_num_threads(2, || traced(&w, 3, 0.0));
        let get =
            |o: &Outcome, name: &str| o.metrics.iter().find(|m| m.0 == name).map(|m| m.1).unwrap();
        for name in [
            "mdgrape2.pair_ops",
            "wine2.ops",
            "mdgrape2.modeled_s",
            "driver.jstore_upload_bytes",
        ] {
            assert!(get(&a, name) > 0.0, "{name}");
            assert_eq!(get(&a, name), get(&b, name), "{name}");
        }
        assert_eq!(get(&a, "longrange.s"), 0.0);
        assert!(get(&a, "profile.coverage") > 0.5);
    }

    #[test]
    fn untraced_figures_that_must_repeat_do() {
        let _serial = serial();
        let w = tiny();
        let a = rayon::with_num_threads(2, || untraced(&w, 9, 0.0));
        let b = rayon::with_num_threads(2, || untraced(&w, 9, 0.0));
        for name in ["modeled_step_s", "force_err_rms"] {
            let (x, y) = (
                a.metrics.iter().find(|m| m.0 == name).unwrap().1,
                b.metrics.iter().find(|m| m.0 == name).unwrap().1,
            );
            assert!(x > 0.0 && x == y, "{name}: {x} vs {y}");
        }
    }
}
