//! The paper kernels on the event-driven task engine
//! ([`nowmp_core::TaskSystem`]).
//!
//! No region arithmetic lives here: each kernel's region bodies are
//! written once, beside its serial reference (`JacobiTask`, `NbfTask`),
//! and [`TaskApp::kernel`] only boxes the body the kernel's factory
//! builds. The thread engine runs the very same values, so results are
//! bit-exact and the two engines produce byte-identical checkpoint
//! images (the parity tests in `crates/bench` hold them to it). What
//! stays per engine is the master side: allocation, the `parallel`
//! calls, and verification.

use nowmp_core::{TaskApp, TaskSystem};
use nowmp_omp::Params;
use nowmp_tmk::engine::BoxedTask;
use nowmp_tmk::types::Pid;

use crate::jacobi::Jacobi;
use crate::nbf::Nbf;

// ---------------------------------------------------------------- Jacobi

/// Jacobi on the task engine. Same regions, same bodies, same shared
/// array names as [`Jacobi`].
#[derive(Debug, Clone)]
pub struct TaskJacobi {
    inner: Jacobi,
}

impl TaskJacobi {
    /// Jacobi on an `n`×`n` grid.
    pub fn new(n: usize) -> Self {
        TaskJacobi {
            inner: Jacobi::new(n),
        }
    }
}

impl TaskApp for TaskJacobi {
    fn name(&self) -> &'static str {
        "Jacobi"
    }

    fn setup(&self, sys: &mut TaskSystem) {
        let n = self.inner.n;
        sys.alloc_f64("jacobi_grid", (n * n) as u64);
        sys.alloc_f64("jacobi_next", (n * n) as u64);
        sys.parallel(self, "jacobi_init", &Params::new().u64(n as u64).build());
    }

    fn step(&self, sys: &mut TaskSystem, _iter: usize) {
        let params = Params::new().u64(self.inner.n as u64).build();
        sys.parallel(self, "jacobi_sweep", &params);
        sys.parallel(self, "jacobi_copy", &params);
    }

    fn verify(&self, sys: &TaskSystem, iters: usize) -> f64 {
        let n = self.inner.n;
        let reference = self.inner.reference(iters);
        let mut err = 0.0f64;
        for r in 0..n {
            for c in 0..n {
                let got = sys.get_f64("jacobi_grid", r * n + c);
                err = err.max((got - reference[r * n + c]).abs());
            }
        }
        err
    }

    fn kernel(
        &self,
        sys: &TaskSystem,
        region: &str,
        params: &[u8],
        pid: Pid,
        nprocs: usize,
    ) -> BoxedTask {
        let arrays = Jacobi::ARRAYS.map(|a| sys.addr_of(a));
        Box::new(Jacobi::task(region, params, arrays, pid, nprocs))
    }
}

// ------------------------------------------------------------------ NBF

/// NBF on the task engine. Same regions, same bodies, same shared
/// array names as [`Nbf`]; the energy reduction goes through the
/// OpenMP runtime's scratch array (`__omp_red`), so even the scratch
/// residue in checkpoint images matches the thread engine.
#[derive(Debug, Clone)]
pub struct TaskNbf {
    inner: Nbf,
}

impl TaskNbf {
    /// NBF with `atoms` atoms and `partners` partners per atom.
    pub fn new(atoms: usize, partners: usize) -> Self {
        TaskNbf {
            inner: Nbf::new(atoms, partners),
        }
    }
}

impl TaskApp for TaskNbf {
    fn name(&self) -> &'static str {
        "NBF"
    }

    fn setup(&self, sys: &mut TaskSystem) {
        let n = self.inner.atoms as u64;
        sys.alloc_f64("nbf_pos", n * 3);
        sys.alloc_f64("nbf_force", n * 3);
        sys.alloc_u64("nbf_partners", n * self.inner.partners as u64);
        sys.alloc_f64("nbf_out", 1);
        sys.parallel(
            self,
            "nbf_init",
            &Params::new().u64(n).u64(self.inner.partners as u64).build(),
        );
    }

    fn step(&self, sys: &mut TaskSystem, _iter: usize) {
        let n = self.inner.atoms as u64;
        sys.parallel(
            self,
            "nbf_forces",
            &Params::new().u64(n).u64(self.inner.partners as u64).build(),
        );
        sys.parallel(
            self,
            "nbf_update",
            &Params::new().u64(n).f64(self.inner.dt).build(),
        );
    }

    fn verify(&self, sys: &TaskSystem, iters: usize) -> f64 {
        let (rpos, rforce, renergy) = self.inner.reference(iters);
        let n = self.inner.atoms;
        let mut err = 0.0f64;
        for i in 0..n * 3 {
            err = err.max((sys.get_f64("nbf_pos", i) - rpos[i]).abs());
            err = err.max((sys.get_f64("nbf_force", i) - rforce[i]).abs());
        }
        let e = sys.get_f64("nbf_out", 0);
        let rel = ((e - renergy) / renergy.abs().max(1e-12)).abs();
        err.max(if rel < 1e-9 { 0.0 } else { rel })
    }

    fn kernel(
        &self,
        sys: &TaskSystem,
        region: &str,
        params: &[u8],
        pid: Pid,
        nprocs: usize,
    ) -> BoxedTask {
        let arrays = Nbf::ARRAYS.map(|a| sys.addr_of(a));
        Box::new(Nbf::task(region, params, arrays, pid, nprocs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{self, Engine};
    use nowmp_core::{run_task_app, ClusterConfig};
    use nowmp_util::Clock;

    #[test]
    fn task_jacobi_matches_reference_exactly() {
        testing::jacobi_matches_reference(Engine::Task);
    }

    #[test]
    fn task_nbf_matches_reference() {
        testing::nbf_matches_reference(Engine::Task);
    }

    #[test]
    fn task_jacobi_under_adaptation_stays_exact() {
        testing::jacobi_under_adaptation(Engine::Task);
    }

    #[test]
    fn task_nbf_under_adaptation_stays_exact() {
        testing::nbf_under_adaptation(Engine::Task);
    }

    #[test]
    fn task_engine_scales_past_thread_limits() {
        // 256 simulated hosts — far beyond what thread-per-host could
        // run in a unit test — on an O(pool) worker pool.
        let j = TaskJacobi::new(512);
        let cfg = ClusterConfig::test(256, 256)
            .with_clock(Clock::new_virtual())
            .with_adaptive(true);
        let (err, sys) = run_task_app(&j, cfg, 2);
        assert_eq!(err, 0.0);
        assert!(sys.peak_workers() <= sys.pool());
        assert_eq!(sys.nprocs(), 256);
    }
}
