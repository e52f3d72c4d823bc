//! Shared machinery for the step-profiling binaries (`profile_step`,
//! `bench_compare`): building the emulated-MDM simulation at a given
//! size and turning profiled steps into a [`RunSummary`].

use mdm_core::ewald::EwaldParams;
use mdm_core::integrate::Simulation;
use mdm_core::lattice::{rocksalt_nacl_at_density, PAPER_DENSITY};
use mdm_core::observables::PhysicsWatchdogs;
use mdm_core::velocities::maxwell_boltzmann;
use mdm_host::driver::MdmForceField;
use mdm_host::machines::MachineModel;
use mdm_host::parallel::{parallel_forces, ParallelConfig};
use mdm_host::telemetry::{env_stamp, mdm_manifest, price_flops, run_instrumented, Instruments};
use mdm_profile::bus::Bus;
use mdm_profile::events::FlightRecorder;
use mdm_profile::phase;
use mdm_profile::summary::RunSummary;
use std::io::{self, Write};
use std::path::PathBuf;
use std::time::Instant;

/// Molten-salt temperature for the velocity draw (NaCl melts at
/// 1,074 K; the exact value only flavours the trajectory).
pub const T_MELT: f64 = 1074.0;

/// Balanced Ewald parameters for a box of side `l` with `n` particles.
///
/// The paper's §2 argument, transplanted to the machine we actually run
/// on: α should balance the *times* of the two engines, not their flop
/// counts. On the real MDM that pushes α from 30 to 85 (WINE-2 is 45×
/// faster than MDGRAPE-2); in the emulator the real-space pair op is
/// ~2.4× costlier than the wave op, which pushes α the same direction.
/// The emulator's real-space cost is a *step function* of the cell
/// grid — the block pair search visits all 27 neighbour cells of a
/// `c³` grid with `c = ⌊α/s⌋`, so real time ∝ 27·N²/c³ while wave
/// time ∝ N·α³. Balancing the two gives `c ≈ (0.8·N)^{1/6}` (the 0.8
/// folds the emulator's per-op cost ratio the way the paper's
/// `59·π³/64` folds the flop credits; fitted so both engines land
/// within ~20% of each other at N = 4,096). α then sits just above the
/// `c`-cell boundary. Without this, N = 32,768 at the conventional
/// flop-balance α is stuck at 3 cells per side (effectively all
/// pairs) and one step takes ~12 minutes instead of ~15 s.
pub fn balanced_params(l: f64, n: usize) -> EwaldParams {
    let s = 3.2f64;
    let cells = (0.8 * n as f64).powf(1.0 / 6.0).round().max(3.0);
    let alpha = 1.02 * s * cells;
    EwaldParams::from_alpha_accuracy(alpha, s, s, l)
}

/// Cells per side for a rocksalt particle count `n = 8·c³`; `None` when
/// `n` is not a valid rocksalt size.
pub fn cells_for_particles(n: u64) -> Option<usize> {
    let cells = ((n as f64 / 8.0).cbrt()).round() as usize;
    (cells >= 1 && (8 * cells * cells * cells) as u64 == n).then_some(cells)
}

/// Build the warm emulated-MDM simulation that gets profiled: `cells`
/// rocksalt cells per side at the paper's density, molten-salt
/// velocities, balanced α, energy passes pushed out of the window, the
/// hardware-faithful real-space mode and the `wine2` board.
pub fn build_sim(cells: usize) -> Simulation<MdmForceField> {
    build_sim_lr(cells, false, "wine2")
}

/// [`build_sim`] with the real-space mode and the wavenumber backend
/// chosen: `n3l = true` turns on the Newton's-third-law software fast
/// path (each block pair evaluated once, action and reaction both
/// applied), `false` keeps the hardware-faithful no-N3L streaming
/// pattern; `longrange` names the backend — `"wine2"` (the emulated
/// board, the default everywhere), `"ewald"`, `"pme"`, `"pswf"`, … (see
/// [`mdm_host::driver::LONGRANGE_BACKENDS`]).
pub fn build_sim_lr(cells: usize, n3l: bool, longrange: &str) -> Simulation<MdmForceField> {
    let mut system = rocksalt_nacl_at_density(cells, PAPER_DENSITY);
    let n = system.len();
    let l = system.simbox().l();
    maxwell_boltzmann(&mut system, T_MELT, 2000 + cells as u64);

    // Mesh backends bring their own operating point (fixed ~9 Å
    // cutoff); everything else runs at the machine-balance α. The
    // real-space engine always uses the same params as the wavenumber
    // backend — the driver asserts the two α agree.
    let params = mdm_core::longrange::default_operating_point(longrange, l)
        .unwrap_or_else(|| balanced_params(l, n));
    let mut ff = MdmForceField::new(params, 2, 2).expect("function tables build");
    // The paper amortised the energy-mode passes over 100 steps; push
    // them out of the profiled window entirely so every timed step is
    // the steady-state force-only step of Table 4.
    ff.set_potential_interval(u64::MAX);
    ff.set_n3l_fast_path(n3l);
    if longrange != "wine2" {
        let backend = mdm_host::driver::longrange_by_name(longrange, &params, l, 2)
            .unwrap_or_else(|| {
                panic!(
                    "unknown long-range backend {longrange:?} (known: {:?})",
                    mdm_host::LONGRANGE_BACKENDS
                )
            });
        ff.set_longrange(backend);
    }

    // Warmup: Simulation::new evaluates the initial forces (first-time
    // table uploads, the one potential pass) outside the timed window.
    Simulation::new(system, ff, 2.0)
}

/// The wavenumber backend a report label encodes: `nacl-4096` ran the
/// default `wine2`, `nacl-4096-lr-pswf` ran `pswf`. The inverse of the
/// labelling in [`profile_size_repeat_lr`], used by `bench_compare` to
/// re-measure a baseline row with the backend that produced it.
pub fn backend_of_label(label: &str) -> &str {
    label.split("-lr-").nth(1).unwrap_or("wine2")
}

/// Complete a measured summary: the modeled per-step hardware times
/// (from the cycle counters of the last, steady-state step), the
/// measured flop throughput, the thread count and the environment.
fn finish(mut summary: RunSummary, sim: &Simulation<MdmForceField>) -> RunSummary {
    let counters = sim.force_field().last_counters();
    let machine = MachineModel::mdm_current();
    summary.set_modeled(phase::REAL, counters.mdg.compute_seconds());
    summary.set_modeled(phase::WAVE, counters.wine.compute_seconds());
    summary.set_modeled(
        phase::COMM,
        counters.mdg.bus_seconds() + counters.wine.bus_seconds(),
    );
    summary.set_modeled(
        phase::HOST,
        200.0 * summary.n_particles as f64 / machine.host_flops,
    );
    // The paper's flop credits priced against the measured wall-clock:
    // the emulator's own "calculation speed" column — tiny next to the
    // real hardware's, but the same arithmetic.
    price_flops(&mut summary);
    stamp(summary)
}

/// Stamp the worker-thread count, the time and the environment.
fn stamp(mut summary: RunSummary) -> RunSummary {
    summary.threads = rayon::current_num_threads() as u64;
    summary.stamp(&env_stamp());
    summary
}

/// Default repetition count for [`profile_size_repeat_lr`] (what the
/// `profile_step` / `bench_compare` `--repeat` flag defaults to).
pub const DEFAULT_REPEAT: u64 = 3;

/// Run `steps` profiled MD steps at `cells` rocksalt cells per side
/// (real-space mode and wavenumber backend as in [`build_sim_lr`]) and
/// summarize them, measured against modeled. One untimed warmup step
/// absorbs first-touch effects (page faults, cache warmup, lazily built
/// tables), then the fastest of `repeat` timed windows is reported.
/// Minimum-of-K is the standard answer to scheduler noise — background
/// load only ever *adds* time, so the minimum is the least-contaminated
/// estimate and `bench_compare` diffs signal instead of machine load.
/// Non-default backends get `-lr-{name}` appended to the label so
/// baseline rows stay distinguishable.
pub fn profile_size_repeat_lr(
    cells: usize,
    steps: u64,
    repeat: u64,
    n3l: bool,
    longrange: &str,
) -> RunSummary {
    assert!(repeat >= 1, "need at least one repetition");
    let mut sim = build_sim_lr(cells, n3l, longrange);
    let n = sim.system().len();
    sim.run(1);
    let mut best: Option<(f64, mdm_profile::Profile)> = None;
    for _ in 0..repeat {
        mdm_profile::reset();
        let t0 = Instant::now();
        sim.run(steps as usize);
        let total = t0.elapsed().as_secs_f64();
        let profile = mdm_profile::take();
        if best.as_ref().is_none_or(|(fastest, _)| total < *fastest) {
            best = Some((total, profile));
        }
    }
    let (total, profile) = best.expect("repeat >= 1");

    let lr = sim.force_field().longrange().name();
    let label = if lr == "wine2" {
        format!("nacl-{n}")
    } else {
        format!("nacl-{n}-lr-{lr}")
    };
    let summary = RunSummary::from_profile(
        label,
        n as u64,
        steps,
        total,
        &profile,
        &[phase::REAL, phase::WAVE, phase::COMM, phase::HOST],
    );
    finish(summary, &sim)
}

/// Profile `steps` steps with the flight recorder running: every
/// step's phases, counters, observables, and watchdog verdicts stream
/// to `sink` as JSONL while the summary is assembled from the merged
/// per-step profiles. One warmup step runs before the recording window;
/// repetitions don't apply (the per-step stream *is* the output, so
/// there is no "best" rep to pick). With a live telemetry [`Bus`]
/// the size's manifest is published first (so connected `mdm_top`
/// viewers re-header when a ladder moves to the next size), then every
/// step event goes to the recorder *and* the bus — what
/// `profile_step --serve` runs.
pub fn profile_size_streamed<W: Write>(
    cells: usize,
    steps: u64,
    sink: W,
    bus: Option<&Bus>,
) -> io::Result<RunSummary> {
    let mut sim = build_sim(cells);
    sim.run(1);
    let n = sim.system().len();
    let label = format!("nacl-{n}");
    let manifest = mdm_manifest(
        &label,
        "cargo run --release -p mdm-bench --bin profile_step -- --record",
        &sim,
        2000 + cells as u64,
    );
    let mut recorder = FlightRecorder::new(sink, &manifest)?;
    if let Some(bus) = bus {
        bus.publish_manifest(&manifest);
    }
    // Loose NVE watchdogs: the profiled window is a handful of steps of
    // a healthy melt, so anything they catch is a genuine emulator bug.
    let mut dogs = PhysicsWatchdogs::nve(1e-2, 1e-6);

    mdm_profile::reset();
    let t0 = Instant::now();
    let run = run_instrumented(
        &mut sim,
        steps as usize,
        &mut recorder,
        Instruments {
            watchdogs: Some(&mut dogs),
            bus,
            ..Instruments::default()
        },
    )?;
    let total = t0.elapsed().as_secs_f64();

    let summary = RunSummary::from_profile(
        label,
        n as u64,
        steps,
        total,
        &run.profile,
        &[phase::REAL, phase::WAVE, phase::COMM, phase::HOST],
    );
    Ok(finish(summary, &sim))
}

/// Profile the §4 simulated-MPI parallel program: `steps` repetitions
/// of [`parallel_forces`] at `cells` rocksalt cells per side under the
/// given process layout. Every rank's spans land in the global
/// registry (and, when a timeline session is open, on the timeline
/// stamped with that rank plus the send/recv flow endpoints), so the
/// report's phase decomposition is the *sum over ranks* — pair it with
/// `--critical-path` to see which rank chain actually bounds the step.
/// What `profile_step --world R,W` runs; labeled
/// `nacl-{n}-world-{R}x{W}`.
pub fn profile_world(cells: usize, steps: u64, config: ParallelConfig) -> RunSummary {
    let mut system = rocksalt_nacl_at_density(cells, PAPER_DENSITY);
    let n = system.len();
    let l = system.simbox().l();
    maxwell_boltzmann(&mut system, T_MELT, 2000 + cells as u64);
    let params = balanced_params(l, n);
    let n_real: usize = config.real_dims.iter().product();
    let label = format!("nacl-{n}-world-{n_real}x{}", config.wave_processes);

    // Warmup once (thread spawn paths, allocator), then measure.
    parallel_forces(&system, &params, config);
    mdm_profile::reset();
    let t0 = Instant::now();
    for _ in 0..steps {
        parallel_forces(&system, &params, config);
    }
    let total = t0.elapsed().as_secs_f64();
    let profile = mdm_profile::take();
    stamp(RunSummary::from_profile(
        label,
        n as u64,
        steps,
        total,
        &profile,
        &[phase::REAL, phase::WAVE, phase::COMM, phase::HOST],
    ))
}

/// The run ledger every bench binary appends to: one row per
/// invocation per size, at the repo root (`results/ledger.jsonl`).
/// The `MDM_LEDGER` environment variable overrides the location (CI
/// points it at the workspace; tests at a temp dir).
pub fn default_ledger_path() -> PathBuf {
    std::env::var("MDM_LEDGER")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
                .join("results/ledger.jsonl")
        })
}

/// Append `summary` to [`default_ledger_path`]. An io failure is
/// reported, not fatal — the measurement the caller just printed
/// matters more than the bookkeeping.
pub fn append_to_ledger(summary: &RunSummary) {
    let path = default_ledger_path();
    let key = format!("{}:{}", summary.tool, summary.label);
    match mdm_profile::ledger::append_record(&path, summary) {
        Ok(()) => eprintln!("ledger: appended {key} to {}", path.display()),
        Err(e) => eprintln!("ledger: SKIPPED {key} ({}: {e})", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The profiling registry is process-global and a profiled run
    /// drains it, so tests that profile must not overlap.
    fn registry() -> std::sync::MutexGuard<'static, ()> {
        static REGISTRY: std::sync::Mutex<()> = std::sync::Mutex::new(());
        REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn cells_round_trip_particle_counts() {
        assert_eq!(cells_for_particles(512), Some(4));
        assert_eq!(cells_for_particles(4096), Some(8));
        assert_eq!(cells_for_particles(32768), Some(16));
        assert_eq!(cells_for_particles(1000), Some(5));
        assert_eq!(cells_for_particles(1001), None);
        assert_eq!(cells_for_particles(100), None);
        assert_eq!(cells_for_particles(0), None);
    }

    #[test]
    fn recorded_profile_matches_plain_profile_shape() {
        let _registry = registry();
        // One small recorded step: the report has the Table 4 phases
        // and the JSONL stream parses back with matching N.
        let mut jsonl = Vec::new();
        let report = profile_size_streamed(3, 1, &mut jsonl, None).unwrap();
        assert_eq!(report.n_particles, 8 * 27);
        assert_eq!(report.phases.len(), 4);
        assert!(report.phases.iter().any(|p| p.name == "real"));
        // The paper-flop-credit throughput is derived for both engines.
        assert!(report.gflops["real"] > 0.0);
        assert!(report.gflops["wave"] > 0.0);

        let text = String::from_utf8(jsonl).unwrap();
        let (manifest, steps) = mdm_profile::events::parse_jsonl(&text).unwrap();
        assert_eq!(manifest.n_particles, 8 * 27);
        assert!(manifest.params.contains_key("alpha"));
        assert_eq!(steps.len(), 1);
        assert!(steps[0].phases.contains_key("real"));
        assert!(steps[0].observables.contains_key("temperature_k"));
    }

    #[test]
    fn profiled_summary_is_a_complete_ledger_row() {
        let _registry = registry();
        let summary = profile_size_repeat_lr(3, 1, 1, false, "wine2");
        assert_eq!(summary.n_particles, 8 * 27);
        assert!(summary.phase("real").is_some());
        assert!(summary.phase("wave").is_some());
        // The driver's per-device gauges flow through to the row.
        assert!(summary.gauges.contains_key("mdg.occupancy"));
        assert!(summary.gauges.contains_key("wine.occupancy"));
        // Raw throughput is the summed flop credits over the step wall
        // and must stay below the sum of the per-phase rates (phases
        // share the wall).
        let rate_sum_tflops: f64 = summary.gflops.values().sum::<f64>() / 1e3;
        let raw = summary.raw_tflops.expect("metered summary gets a raw rate");
        assert!(raw > 0.0);
        assert!(raw <= rate_sum_tflops + 1e-12);
        assert!(summary.threads >= 1);
        assert!(summary.timestamp_s > 0);
        // The row round-trips through the ledger line format.
        let line = summary.to_json().to_compact();
        let back = RunSummary::from_json(&mdm_profile::json::Value::parse(&line).unwrap()).unwrap();
        assert_eq!(back, summary);
    }
}
