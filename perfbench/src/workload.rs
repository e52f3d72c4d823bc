//! The benchmark's workloads: each one pins the operating point of an
//! emulated-MDM run as plain numbers, and builds the run from them
//! through the library's public constructors only.

use mdm_core::ewald::EwaldParams;
use mdm_core::lattice::{rocksalt_nacl_at_density, PAPER_DENSITY};
use mdm_core::system::System;
use mdm_core::vec3::Vec3;
use mdm_core::velocities::maxwell_boltzmann;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Molten-salt temperature of the velocity draw (NaCl melts at 1,074 K).
pub const T_MELT_K: f64 = 1074.0;

/// One benchmark workload: an NaCl run on the emulated MDM, fully
/// described by the numbers below plus the seed given on the command
/// line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line, mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// Wavenumber backend, by its `longrange_by_name` name.
    pub backend: &'static str,
    /// Rocksalt unit cells per side: N = 8 · cells³ ions.
    pub cells: usize,
    /// Ewald splitting parameter α (κ = α/L).
    pub alpha: f64,
    /// Accuracy parameter s = α·r_cut/L = π·n_max/α.
    pub s: f64,
    /// Real-space cutoff (Å).
    pub r_cut: f64,
    /// Wavenumber cutoff |n| ≤ n_max.
    pub n_max: f64,
    /// Time step (fs).
    pub dt_fs: f64,
    /// Energy/virial passes every this many steps (1 = every step).
    pub potential_interval: u64,
    /// Worker threads for every parallel region of the run.
    pub threads: usize,
    /// Emulated WINE-2 and MDGRAPE-2 clusters.
    pub clusters: usize,
    /// RMS of the seeded Gaussian displacement off the lattice sites,
    /// per Cartesian component (Å): a disordered start, so the forces
    /// the probe compares are those of a liquid, not of a crystal
    /// where they cancel by symmetry.
    pub displacement_a: f64,
    /// Full set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Particles the force-error probe samples.
    pub probe_samples: usize,
    /// Timed steps every run makes even when `--seconds` runs out first.
    pub min_steps: usize,
}

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "force-32k",
        why: "Table 4's step: wine2 at N = 32,768, force-only steps; MDGRAPE-2 real space dominates",
        backend: "wine2",
        cells: 16,
        alpha: 16.32,
        s: 3.2,
        r_cut: 20.050125313283203,
        n_max: 16.623415496062286,
        dt_fs: 2.0,
        potential_interval: 100,
        threads: 2,
        clusters: 2,
        displacement_a: 0.2,
        setup_reps: 1,
        probe_samples: 512,
        min_steps: 3,
    },
    Workload {
        name: "energy-4k",
        why: "wine2 at N = 4,096 with energies and virial every step: potential passes and the host virial",
        backend: "wine2",
        cells: 8,
        alpha: 13.056,
        s: 3.2,
        r_cut: 12.531328320802002,
        n_max: 13.298732396849829,
        dt_fs: 2.0,
        potential_interval: 1,
        threads: 2,
        clusters: 2,
        displacement_a: 0.2,
        setup_reps: 3,
        probe_samples: 2048,
        min_steps: 4,
    },
    Workload {
        name: "pswf-4k",
        why: "pswf mesh at its 9 A cutoff, N = 4,096, force-only: WINE-2 bypassed, the mesh dominates",
        backend: "pswf",
        cells: 8,
        alpha: 18.17878028404344,
        s: 3.2,
        r_cut: 9.0,
        n_max: 18.516753546156817,
        dt_fs: 2.0,
        potential_interval: 100,
        threads: 2,
        clusters: 2,
        displacement_a: 0.2,
        setup_reps: 3,
        probe_samples: 2048,
        min_steps: 4,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Ion count.
    pub fn n(&self) -> usize {
        8 * self.cells.pow(3)
    }

    /// The pinned Ewald parameters.
    pub fn params(&self) -> EwaldParams {
        EwaldParams::new(self.alpha, self.r_cut, self.n_max)
    }

    /// The initial configuration for `seed`: rocksalt at the paper's
    /// density, every ion displaced by a seeded Gaussian, molten-salt
    /// velocities drawn from the same seed.
    pub fn system(&self, seed: u64) -> System {
        let mut system = rocksalt_nacl_at_density(self.cells, PAPER_DENSITY);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x6d64_6d5f_6469_7370);
        let sigma = self.displacement_a;
        system.displace_all(|_| {
            Vec3::new(
                sigma * normal(&mut rng),
                sigma * normal(&mut rng),
                sigma * normal(&mut rng),
            )
        });
        maxwell_boltzmann(&mut system, T_MELT_K, seed);
        system
    }
}

/// Standard normal deviate (Box–Muller).
fn normal(rng: &mut ChaCha8Rng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Serialises in-process test runs: the span and counter registry the
/// driver records into is process-wide.
#[cfg(test)]
pub fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A 216-ion wine2 workload with energies every step, for in-process tests.
#[cfg(test)]
pub fn tiny() -> Workload {
    let l = 19.172932330827066;
    Workload {
        name: "tiny",
        cells: 3,
        alpha: 9.792,
        r_cut: 3.2 * l / 9.792,
        n_max: 3.2 * 9.792 / std::f64::consts::PI,
        setup_reps: 1,
        probe_samples: 16,
        min_steps: 3,
        ..WORKLOADS[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_operating_points_match_the_accuracy_relations() {
        for w in WORKLOADS.iter().chain([&tiny()]) {
            let l = rocksalt_nacl_at_density(w.cells, PAPER_DENSITY)
                .simbox()
                .l();
            let derived = EwaldParams::from_alpha_accuracy(w.alpha, w.s, w.s, l);
            assert!((derived.r_cut - w.r_cut).abs() < 1e-9, "{}: r_cut", w.name);
            assert!((derived.n_max - w.n_max).abs() < 1e-9, "{}: n_max", w.name);
        }
    }

    #[test]
    fn pswf_sits_at_the_library_default_operating_point() {
        let w = Workload::by_name("pswf-4k").unwrap();
        let l = rocksalt_nacl_at_density(w.cells, PAPER_DENSITY)
            .simbox()
            .l();
        let default = mdm_core::longrange::default_operating_point("pswf", l).unwrap();
        assert!((default.alpha - w.alpha).abs() < 1e-9);
        assert!((default.r_cut - w.r_cut).abs() < 1e-9);
    }

    #[test]
    fn same_seed_same_system() {
        let w = Workload::by_name("energy-4k").unwrap();
        let (a, b, c) = (w.system(7), w.system(7), w.system(8));
        assert_eq!(a.positions(), b.positions());
        assert_eq!(a.velocities(), b.velocities());
        assert_ne!(a.positions(), c.positions());
        assert_eq!(a.len(), w.n());
    }
}
