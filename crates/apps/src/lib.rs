//! # nowmp-apps — the paper's application kernels
//!
//! The four programs of the PPoPP'99 evaluation (§5.2), written against
//! the OpenMP-style API exactly as their OpenMP sources would compile:
//! one outlined region per parallel construct, iteration partitioning
//! re-derived from `(pid, nprocs)` at every fork, **zero
//! adaptivity-specific code**:
//!
//! | kernel | paper size | character |
//! |---|---|---|
//! | [`jacobi::Jacobi`] | 2500², 1000 iters | regular stencil; neighbor diffs |
//! | [`gauss::Gauss`] | 3072², 3072 iters | pivot-row broadcast; full pages, no diffs |
//! | [`fft3d::Fft3d`] | 128×64×64, 100 iters | transpose all-to-all |
//! | [`nbf::Nbf`] | 131072 atoms × 80 partners | irregular access, reduction |
//!
//! Every kernel implements [`Kernel`]: the benches drive them uniformly
//! and each carries a serial reference for verification. Problem sizes
//! are parameters; tests run laptop-scale instances.
//!
//! A kernel is written once. Jacobi's and NBF's region bodies are
//! [`nowmp_tmk::RegionTask`]s over the engine-neutral
//! [`nowmp_tmk::WordMem`], each built by one per-kernel factory from
//! `(region, params, array addresses, pid, nprocs)`: the thread engine
//! runs them through [`nowmp_omp::OmpCtx::run_task`], the event-driven
//! engine boxes them ([`tasks`]).

#![warn(missing_docs)]

pub mod fft3d;
pub mod gauss;
pub mod jacobi;
pub mod nbf;
pub mod tasks;

use nowmp_net::CostModel;
use nowmp_omp::{OmpProgram, OmpSystem};
use nowmp_tmk::{Addr, Pid, RegionTask, TmkCtx};

/// A benchmark kernel: registers its regions, initializes shared data,
/// steps iterations, and verifies against a serial reference.
pub trait Kernel: Send + Sync {
    /// Short name ("Jacobi", "Gauss", "3D-FFT", "NBF").
    fn name(&self) -> &'static str;

    /// Register this kernel's parallel regions.
    fn add_regions(&self, p: OmpProgram) -> OmpProgram;

    /// Allocate and initialize shared data (master, before the loop).
    fn setup(&self, sys: &mut OmpSystem);

    /// Execute one outer iteration (one or more parallel constructs).
    fn step(&self, sys: &mut OmpSystem, iter: usize);

    /// Default outer iteration count for a full run.
    fn default_iters(&self) -> usize;

    /// Maximum absolute error against the serial reference after
    /// `iters` iterations (0.0 = exact).
    fn verify(&self, sys: &mut OmpSystem, iters: usize) -> f64;

    /// Shared memory the kernel allocates, in bytes.
    fn shared_bytes(&self) -> u64;

    /// Calibrated per-iteration compute cost of each *uniform* region,
    /// in FLOPs (one iteration = one index of the region's worksharing
    /// loop). Converted to time through the cost model's
    /// `flops_per_sec` by [`with_kernel_costs`], so profile-driven and
    /// in-region (`charge_flops`) charges share one calibration.
    /// Regions whose per-index work varies (e.g. the shrinking Gauss
    /// elimination step) charge exact FLOPs in-region via
    /// [`nowmp_omp::OmpCtx::charge_flops`] and are absent here.
    fn cost_profile(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Install `kernel`'s calibrated compute costs into `cost`, switching
/// compute charging on — the virtual-clock what-if entry point. The
/// profile's FLOP counts convert through `cost.flops_per_sec`, so a
/// what-if model with a faster/slower CPU rescales every kernel
/// consistently.
pub fn with_kernel_costs(mut cost: CostModel, kernel: &dyn Kernel) -> CostModel {
    for (region, flops) in kernel.cost_profile() {
        let per_iter = cost.flops_time(flops);
        cost = cost.with_region_cost(region, per_iter);
    }
    // Kernels that charge FLOPs in-region may have an empty profile;
    // charging must still switch on for them.
    cost.emulate_compute = true;
    cost
}

/// Register `regions` on the thread engine, each running the
/// single-source body `make` builds — from `(region, params, addresses
/// of arrays, pid, nprocs)` — through [`nowmp_omp::OmpCtx::run_task`].
fn task_regions<T: RegionTask<TmkCtx>, const K: usize>(
    p: OmpProgram,
    regions: &[&'static str],
    arrays: [&'static str; K],
    make: impl Fn(&str, &[u8], [Addr; K], Pid, usize) -> T + Copy + Send + Sync + 'static,
) -> OmpProgram {
    regions.iter().fold(p, |p, &region| {
        p.region(region, move |ctx| {
            let tmk = ctx.dsm();
            let addrs = arrays.map(|a| {
                tmk.handle(a)
                    .unwrap_or_else(|| panic!("no shared allocation {a:?}"))
                    .addr
            });
            let task = make(region, tmk.params(), addrs, tmk.pid(), tmk.nprocs());
            ctx.run_task(task);
        })
    })
}

/// Build the complete program for a set of kernels (regions of all four
/// can coexist; names are prefixed per kernel).
pub fn build_program(kernels: &[&dyn Kernel]) -> OmpProgram {
    let mut p = OmpProgram::new();
    for k in kernels {
        p = k.add_regions(p);
    }
    p
}

/// Convenience: run `kernel` for `iters` iterations on a fresh system.
pub fn run_kernel(
    kernel: &dyn Kernel,
    cfg: nowmp_core::ClusterConfig,
    iters: usize,
) -> (OmpSystem, f64) {
    let program = build_program(&[kernel]);
    let mut sys = OmpSystem::new(cfg, program);
    kernel.setup(&mut sys);
    for it in 0..iters {
        kernel.step(&mut sys, it);
    }
    let err = kernel.verify(&mut sys, iters);
    (sys, err)
}

/// Kernel behaviour checks that take the engine as an input; each
/// engine's test module runs them on its engine.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use nowmp_core::{ClusterConfig, LeaveSel, TaskApp, TaskSystem};
    use nowmp_util::Clock;

    /// The engine a kernel runs on.
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum Engine {
        /// Thread per rank, over the DSM ([`OmpSystem`]).
        Thread,
        /// Event-driven resumable tasks ([`TaskSystem`], virtual clock).
        Task,
    }

    /// An adaptation requested before an iteration.
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum Adapt {
        /// The rank leaves (default grace).
        Leave(u16),
        /// A free host joins, ready for the next adaptation point.
        Join,
    }

    /// Run `iters` iterations of one kernel — `thread` and `task` are
    /// its two engine faces — on `engine`, with `procs` ranks on
    /// `procs + 1` hosts, requesting each `(iteration, adaptation)` of
    /// `script` before that iteration. Returns the max error against
    /// the serial reference.
    pub(crate) fn run(
        engine: Engine,
        thread: &dyn Kernel,
        task: &dyn TaskApp,
        procs: usize,
        iters: usize,
        script: &[(usize, Adapt)],
    ) -> f64 {
        let cfg = ClusterConfig::test(procs + 1, procs);
        let due = |it: usize| {
            script
                .iter()
                .filter(move |(at, _)| *at == it)
                .map(|&(_, a)| a)
        };
        match engine {
            Engine::Thread => {
                let mut sys = OmpSystem::new(cfg, build_program(&[thread]));
                thread.setup(&mut sys);
                for it in 0..iters {
                    for a in due(it) {
                        match a {
                            Adapt::Leave(pid) => {
                                sys.adapt().leave(LeaveSel::Pid(pid), None).unwrap();
                            }
                            Adapt::Join => {
                                sys.join_ready().unwrap();
                            }
                        }
                    }
                    thread.step(&mut sys, it);
                }
                let err = thread.verify(&mut sys, iters);
                sys.shutdown();
                err
            }
            Engine::Task => {
                let cfg = cfg.with_clock(Clock::new_virtual()).with_adaptive(true);
                let mut sys = TaskSystem::new(cfg);
                task.setup(&mut sys);
                for it in 0..iters {
                    for a in due(it) {
                        match a {
                            Adapt::Leave(pid) => {
                                sys.adapt().leave(LeaveSel::Pid(pid), None).unwrap();
                            }
                            Adapt::Join => {
                                sys.adapt().join_ready().unwrap();
                            }
                        }
                    }
                    task.step(&mut sys, it);
                }
                task.verify(&sys, iters)
            }
        }
    }

    /// Jacobi 24² on 1, 2 and 4 ranks is bit-exact against the serial
    /// reference.
    pub(crate) fn jacobi_matches_reference(engine: Engine) {
        for procs in [1, 2, 4] {
            let err = run(
                engine,
                &crate::jacobi::Jacobi::new(24),
                &crate::tasks::TaskJacobi::new(24),
                procs,
                10,
                &[],
            );
            assert_eq!(
                err, 0.0,
                "{engine:?} procs={procs}: Jacobi must be bit-exact"
            );
        }
    }

    /// Jacobi stays bit-exact when a rank leaves and a host joins, in
    /// either order.
    pub(crate) fn jacobi_under_adaptation(engine: Engine) {
        let leave_then_join = [(2, Adapt::Leave(3)), (5, Adapt::Join)];
        let join_then_leave = [(2, Adapt::Join), (5, Adapt::Leave(3))];
        for script in [leave_then_join, join_then_leave] {
            let err = run(
                engine,
                &crate::jacobi::Jacobi::new(24),
                &crate::tasks::TaskJacobi::new(24),
                4,
                8,
                &script,
            );
            assert_eq!(
                err, 0.0,
                "{engine:?} {script:?}: adaptation must not change results"
            );
        }
    }

    /// NBF on 1, 2 and 4 ranks: forces and positions bit-exact against
    /// the serial reference.
    pub(crate) fn nbf_matches_reference(engine: Engine) {
        for procs in [1, 2, 4] {
            let err = run(
                engine,
                &crate::nbf::Nbf::new(64, 8),
                &crate::tasks::TaskNbf::new(64, 8),
                procs,
                3,
                &[],
            );
            assert_eq!(
                err, 0.0,
                "{engine:?} procs={procs}: forces/positions must be bit-exact"
            );
        }
    }

    /// NBF stays bit-exact when a rank leaves and a host joins back.
    pub(crate) fn nbf_under_adaptation(engine: Engine) {
        let script = [(1, Adapt::Leave(2)), (2, Adapt::Join)];
        let err = run(
            engine,
            &crate::nbf::Nbf::new(64, 8),
            &crate::tasks::TaskNbf::new(64, 8),
            4,
            4,
            &script,
        );
        assert_eq!(err, 0.0, "{engine:?}: adaptation must not change results");
    }
}
