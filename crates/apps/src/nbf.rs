//! NBF — non-bonded force kernel of a molecular dynamics program
//! (paper §5.2: 131072 atoms, 80 partners each, 52 MB shared).
//!
//! "It is included as an example of an irregular application (i.e., an
//! application in which the array indices are not linear expressions in
//! the loop variables)": every atom reads the positions of 80
//! pseudo-random partner atoms scattered across the whole position
//! array, computes a Lennard-Jones-style pair force, and accumulates
//! into its own force slot. A reduction produces the total energy.
//!
//! Each region body is written once (`NbfTask`) and runs on both
//! engines.
//!
//! Force and position updates are bit-exact against the serial
//! reference for any team size; the energy reduction's floating-point
//! grouping depends on the team size, so it is checked with a tolerance.

use crate::Kernel;
use nowmp_omp::sched::static_block;
use nowmp_omp::{OmpProgram, OmpSystem, Params, ParamsReader};
use nowmp_tmk::engine::{RegionTask, Step, WordMem, MAX_TEAM, RED_ARRAY};
use nowmp_tmk::types::{Addr, Pid};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// The NBF kernel.
#[derive(Debug, Clone)]
pub struct Nbf {
    /// Number of atoms.
    pub atoms: usize,
    /// Partners per atom.
    pub partners: usize,
    /// Integration step used by `nbf_update`.
    pub dt: f64,
}

impl Nbf {
    /// New kernel with `atoms` atoms and `partners` partners per atom.
    pub fn new(atoms: usize, partners: usize) -> Self {
        assert!(atoms >= 2);
        Nbf {
            atoms,
            partners,
            dt: 1e-4,
        }
    }

    /// Paper-scale instance (131072 atoms × 80 partners).
    pub fn paper() -> Self {
        Self::new(131072, 80)
    }

    /// Deterministic position of atom `a` on a jittered lattice.
    /// Seeded **per atom**, so any process can materialize any block
    /// independently (parallel first-touch init, replay-safe recovery).
    pub fn atom_pos(atoms: usize, a: usize) -> [f64; 3] {
        let mut rng = StdRng::seed_from_u64(0x5EED_0001 ^ (a as u64).wrapping_mul(0x9E37_79B9));
        let side = (atoms as f64).cbrt().ceil() as usize;
        let (x, y, z) = (a % side, (a / side) % side, a / (side * side));
        [
            x as f64 + rng.gen_range(-0.3..0.3),
            y as f64 + rng.gen_range(-0.3..0.3),
            z as f64 + rng.gen_range(-0.3..0.3),
        ]
    }

    /// Deterministic partner list of atom `a` (irregular indices),
    /// seeded per atom.
    pub fn atom_partners(atoms: usize, partners: usize, a: usize) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(0x5EED_0002 ^ (a as u64).wrapping_mul(0x517C_C1B7));
        let mut list = Vec::with_capacity(partners);
        for _ in 0..partners {
            loop {
                let p = rng.gen_range(0..atoms) as u64;
                if p != a as u64 {
                    list.push(p);
                    break;
                }
            }
        }
        list
    }

    fn init_pos(&self) -> Vec<f64> {
        (0..self.atoms)
            .flat_map(|a| Self::atom_pos(self.atoms, a))
            .collect()
    }

    fn init_partners(&self) -> Vec<u64> {
        (0..self.atoms)
            .flat_map(|a| Self::atom_partners(self.atoms, self.partners, a))
            .collect()
    }

    /// The pair interaction: softened Lennard-Jones force and energy.
    #[inline]
    pub(crate) fn pair(dx: f64, dy: f64, dz: f64) -> (f64, f64) {
        let r2 = (dx * dx + dy * dy + dz * dz).max(1e-4);
        let inv2 = 1.0 / r2;
        let inv6 = inv2 * inv2 * inv2;
        // force magnitude / r and pair energy
        let fmag = (12.0 * inv6 * inv6 - 6.0 * inv6) * inv2;
        let energy = inv6 * inv6 - inv6;
        (fmag, energy)
    }

    /// Serial reference: `iters` force+update steps; returns
    /// `(positions, forces, energy_of_last_step)`.
    pub fn reference(&self, iters: usize) -> (Vec<f64>, Vec<f64>, f64) {
        let n = self.atoms;
        let mut pos = self.init_pos();
        let partners = self.init_partners();
        let mut force = vec![0.0; n * 3];
        let mut energy = 0.0;
        for _ in 0..iters {
            energy = 0.0;
            for a in 0..n {
                let (ax, ay, az) = (pos[a * 3], pos[a * 3 + 1], pos[a * 3 + 2]);
                let (mut fx, mut fy, mut fz) = (0.0, 0.0, 0.0);
                for s in 0..self.partners {
                    let b = partners[a * self.partners + s] as usize;
                    let dx = ax - pos[b * 3];
                    let dy = ay - pos[b * 3 + 1];
                    let dz = az - pos[b * 3 + 2];
                    let (fmag, e) = Self::pair(dx, dy, dz);
                    fx += fmag * dx;
                    fy += fmag * dy;
                    fz += fmag * dz;
                    energy += e;
                }
                force[a * 3] = fx;
                force[a * 3 + 1] = fy;
                force[a * 3 + 2] = fz;
            }
            for a in 0..n {
                pos[a * 3] += self.dt * force[a * 3];
                pos[a * 3 + 1] += self.dt * force[a * 3 + 1];
                pos[a * 3 + 2] += self.dt * force[a * 3 + 2];
            }
        }
        (pos, force, energy)
    }
}

/// Which NBF region an [`NbfTask`] runs, with its region-private
/// state.
#[derive(Debug)]
enum NbfRegion {
    Init {
        partners: usize,
    },
    Forces {
        partners: usize,
        phase: u8,
        total: f64,
    },
    Update {
        dt: f64,
    },
}

/// One rank's share of an NBF region — the single source both engines
/// run (built by [`Nbf::task`]).
#[derive(Debug)]
pub(crate) struct NbfTask {
    region: NbfRegion,
    n: u64,
    atoms: Range<u64>,
    pid: Pid,
    arrays: [Addr; 5],
}

impl Nbf {
    /// The outlined regions, in registration order.
    const REGIONS: [&'static str; 3] = ["nbf_init", "nbf_forces", "nbf_update"];
    /// The shared arrays, in the order [`Nbf::task`] takes their
    /// addresses (the last is the OpenMP runtime's reduction scratch).
    pub(crate) const ARRAYS: [&'static str; 5] =
        ["nbf_pos", "nbf_force", "nbf_partners", "nbf_out", RED_ARRAY];

    /// The region factory: rank `pid` of `nprocs`'s share of `region`
    /// under `schedule(static)` over atoms, given the region's params
    /// and the addresses of [`Nbf::ARRAYS`].
    pub(crate) fn task(
        region: &str,
        params: &[u8],
        arrays: [Addr; 5],
        pid: Pid,
        nprocs: usize,
    ) -> NbfTask {
        let mut p = ParamsReader::new(params);
        let n = p.u64();
        let region = match region {
            "nbf_init" => NbfRegion::Init {
                partners: p.u64() as usize,
            },
            "nbf_forces" => NbfRegion::Forces {
                partners: p.u64() as usize,
                phase: 0,
                total: 0.0,
            },
            "nbf_update" => NbfRegion::Update { dt: p.f64() },
            other => panic!("unknown NBF region {other:?}"),
        };
        NbfTask {
            region,
            n,
            atoms: static_block(0..n, pid as usize, nprocs),
            pid,
            arrays,
        }
    }
}

/// `nbf_forces`' worksharing loop: the force on each of `atoms` from
/// its partners, written to `force`; returns the summed pair energy.
fn accumulate_forces<M: WordMem>(
    m: &mut M,
    atoms: Range<u64>,
    partners: usize,
    [pos, force, plists]: [Addr; 3],
) -> f64 {
    let mut energy = 0.0;
    let mut plist = vec![0u64; partners];
    for a in atoms {
        let ax = m.read_f64(pos + a * 3);
        let ay = m.read_f64(pos + a * 3 + 1);
        let az = m.read_f64(pos + a * 3 + 2);
        m.read_words(plists + a * partners as u64, &mut plist);
        let (mut fx, mut fy, mut fz) = (0.0, 0.0, 0.0);
        for &b in &plist {
            let dx = ax - m.read_f64(pos + b * 3);
            let dy = ay - m.read_f64(pos + b * 3 + 1);
            let dz = az - m.read_f64(pos + b * 3 + 2);
            let (fmag, e) = Nbf::pair(dx, dy, dz);
            fx += fmag * dx;
            fy += fmag * dy;
            fz += fmag * dz;
            energy += e;
        }
        m.write_f64(force + a * 3, fx);
        m.write_f64(force + a * 3 + 1, fy);
        m.write_f64(force + a * 3 + 2, fz);
    }
    energy
}

impl<M: WordMem> RegionTask<M> for NbfTask {
    fn step(&mut self, m: &mut M) -> Step {
        let [pos, force, plists, out, red] = self.arrays;
        let atoms = self.atoms.clone();
        let iters = atoms.end - atoms.start;
        match &mut self.region {
            // Materialize positions and partner lists per atom.
            NbfRegion::Init { partners } => {
                for a in atoms {
                    let xyz = Nbf::atom_pos(self.n as usize, a as usize);
                    let ps = Nbf::atom_partners(self.n as usize, *partners, a as usize);
                    m.write_f64s(pos + a * 3, &xyz);
                    m.write_words(plists + a * *partners as u64, &ps);
                }
                m.charge_compute(iters);
                Step::Done
            }
            // Force accumulation, then `reduction(+: energy)` over the
            // runtime scratch: write `red[pid]` → barrier → fold in pid
            // order → barrier (nobody may overwrite the scratch while
            // stragglers still read it) → `master` stores the total.
            NbfRegion::Forces {
                partners,
                phase,
                total,
            } => match *phase {
                0 => {
                    let energy = accumulate_forces(m, atoms, *partners, [pos, force, plists]);
                    m.charge_compute(iters);
                    m.write_f64(red + self.pid as u64, energy);
                    *phase = 1;
                    Step::Barrier
                }
                1 => {
                    *total = 0.0;
                    for p in 0..m.nprocs() as u64 {
                        *total += m.read_f64(red + p);
                    }
                    *phase = 2;
                    Step::Barrier
                }
                _ => {
                    if self.pid == 0 {
                        m.write_f64(out, *total);
                    }
                    Step::Done
                }
            },
            // Integrate positions by `dt × force`.
            NbfRegion::Update { dt } => {
                for a in atoms {
                    for dim in 0..3 {
                        let cur = m.read_f64(pos + a * 3 + dim);
                        let f = m.read_f64(force + a * 3 + dim);
                        m.write_f64(pos + a * 3 + dim, cur + *dt * f);
                    }
                }
                m.charge_compute(iters);
                Step::Done
            }
        }
    }
}

impl Kernel for Nbf {
    fn name(&self) -> &'static str {
        "NBF"
    }

    fn add_regions(&self, p: OmpProgram) -> OmpProgram {
        crate::task_regions(
            p,
            &Nbf::REGIONS,
            Nbf::ARRAYS,
            |region, params, addrs, pid, nprocs| {
                // The thread engine's team must fit the reduction scratch;
                // the task engine simulates teams far past it.
                assert!(nprocs <= MAX_TEAM, "team exceeds reduction scratch");
                Nbf::task(region, params, addrs, pid, nprocs)
            },
        )
    }

    fn setup(&self, sys: &mut OmpSystem) {
        let n = self.atoms as u64;
        sys.alloc_f64("nbf_pos", n * 3);
        sys.alloc_f64("nbf_force", n * 3);
        sys.alloc_u64("nbf_partners", n * self.partners as u64);
        sys.alloc_f64("nbf_out", 1);
        sys.parallel(
            "nbf_init",
            &Params::new().u64(n).u64(self.partners as u64).build(),
        );
    }

    fn step(&self, sys: &mut OmpSystem, _iter: usize) {
        let n = self.atoms as u64;
        sys.parallel(
            "nbf_forces",
            &Params::new().u64(n).u64(self.partners as u64).build(),
        );
        sys.parallel("nbf_update", &Params::new().u64(n).f64(self.dt).build());
    }

    fn default_iters(&self) -> usize {
        100
    }

    fn verify(&self, sys: &mut OmpSystem, iters: usize) -> f64 {
        let (rpos, rforce, renergy) = self.reference(iters);
        let n = self.atoms;
        sys.seq(|ctx| {
            let pos = ctx.f64vec("nbf_pos");
            let force = ctx.f64vec("nbf_force");
            let out = ctx.f64vec("nbf_out");
            let mut lp = vec![0.0; n * 3];
            let mut lf = vec![0.0; n * 3];
            pos.read_into(ctx.dsm(), 0, &mut lp);
            force.read_into(ctx.dsm(), 0, &mut lf);
            let mut err = 0.0f64;
            for i in 0..n * 3 {
                err = err.max((lp[i] - rpos[i]).abs());
                err = err.max((lf[i] - rforce[i]).abs());
            }
            // Energy: FP grouping differs with team size; relative check.
            let e = out.get(ctx.dsm(), 0);
            let rel = ((e - renergy) / renergy.abs().max(1e-12)).abs();
            err.max(if rel < 1e-9 { 0.0 } else { rel })
        })
    }

    fn shared_bytes(&self) -> u64 {
        (self.atoms * 3 * 2 + self.atoms * self.partners + 1) as u64 * 8
    }

    fn cost_profile(&self) -> Vec<(&'static str, f64)> {
        // One iteration = one atom. The pair interaction is ~30 flops
        // (distance, softened LJ force + energy, accumulation) per
        // partner; the update is 2 flops per dimension; the init is
        // dominated by the per-atom RNG draws (~5 equivalents per
        // partner slot).
        let p = self.partners as f64;
        vec![
            ("nbf_init", 5.0 * p + 10.0),
            ("nbf_forces", 30.0 * p),
            ("nbf_update", 6.0),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{self, Engine};

    #[test]
    fn reference_is_deterministic() {
        let k = Nbf::new(64, 8);
        let (p1, f1, e1) = k.reference(3);
        let (p2, f2, e2) = k.reference(3);
        assert_eq!(p1, p2);
        assert_eq!(f1, f2);
        assert_eq!(e1, e2);
        assert!(e1.is_finite());
    }

    #[test]
    fn pair_force_is_repulsive_up_close() {
        let (fmag, _) = Nbf::pair(0.5, 0.0, 0.0);
        assert!(fmag > 0.0, "close atoms repel");
    }

    #[test]
    fn parallel_matches_reference() {
        testing::nbf_matches_reference(Engine::Thread);
    }

    #[test]
    fn nbf_under_adaptation_stays_exact() {
        testing::nbf_under_adaptation(Engine::Thread);
    }
}
