//! Jacobi — iterative 2D Laplace solver (paper §5.2: "simple numerical
//! code", 2500×2500, 1000 iterations, 47.8 MB shared).
//!
//! Two shared grids; each iteration averages the four neighbors into
//! the scratch grid, then swaps roles. Block row partitioning: each
//! process reads two boundary rows owned by neighbors per iteration —
//! the classic producer of *diff* traffic (Table 1 shows Jacobi as the
//! only kernel moving diffs).
//!
//! OpenMP shape: the sweep and the copy-back are two parallel `for`
//! constructs per iteration, so adaptation points arrive at twice the
//! iteration rate. Each region body is written once (`JacobiTask`)
//! and runs on both engines.

use crate::Kernel;
use nowmp_omp::sched::static_block;
use nowmp_omp::{OmpProgram, OmpSystem, Params, ParamsReader};
use nowmp_tmk::engine::{RegionTask, Step, WordMem};
use nowmp_tmk::types::{Addr, Pid};
use std::ops::Range;

/// The Jacobi kernel.
#[derive(Debug, Clone)]
pub struct Jacobi {
    /// Grid side (n×n including fixed boundary).
    pub n: usize,
}

impl Jacobi {
    /// Jacobi on an `n`×`n` grid.
    pub fn new(n: usize) -> Self {
        assert!(n >= 3, "grid must have an interior");
        Jacobi { n }
    }

    /// Paper-scale instance (2500×2500).
    pub fn paper() -> Self {
        Self::new(2500)
    }

    /// Initial grid: hot top edge, cold other boundaries, and a
    /// deterministic non-trivial interior (so every sweep changes every
    /// row — a uniform interior would make boundary diffs empty and
    /// hide the paper's Jacobi traffic signature).
    pub(crate) fn init_value(n: usize, r: usize, c: usize) -> f64 {
        if r == 0 {
            100.0
        } else if r == n - 1 || c == 0 || c == n - 1 {
            0.0
        } else {
            ((r.wrapping_mul(31).wrapping_add(c.wrapping_mul(17))) % 100) as f64
        }
    }

    /// Serial reference: `iters` Jacobi sweeps.
    pub fn reference(&self, iters: usize) -> Vec<f64> {
        let n = self.n;
        let mut grid: Vec<f64> = (0..n * n)
            .map(|i| Self::init_value(n, i / n, i % n))
            .collect();
        let mut next = grid.clone();
        for _ in 0..iters {
            for r in 1..n - 1 {
                for c in 1..n - 1 {
                    next[r * n + c] = 0.25
                        * (grid[(r - 1) * n + c]
                            + grid[(r + 1) * n + c]
                            + grid[r * n + c - 1]
                            + grid[r * n + c + 1]);
                }
            }
            for r in 1..n - 1 {
                for c in 1..n - 1 {
                    grid[r * n + c] = next[r * n + c];
                }
            }
        }
        grid
    }
}

/// Which Jacobi region a [`JacobiTask`] runs.
#[derive(Debug, Clone, Copy)]
enum JacobiRegion {
    Init,
    Sweep,
    Copy,
}

/// One rank's share of a Jacobi region — the single source both
/// engines run (built by [`Jacobi::task`]). Every region is one
/// worksharing loop over rows, so one step finishes it.
#[derive(Debug)]
pub(crate) struct JacobiTask {
    region: JacobiRegion,
    n: u64,
    rows: Range<u64>,
    grid: Addr,
    next: Addr,
}

impl Jacobi {
    /// The outlined regions, in registration order.
    const REGIONS: [&'static str; 3] = ["jacobi_init", "jacobi_sweep", "jacobi_copy"];
    /// The shared arrays, in the order [`Jacobi::task`] takes their
    /// addresses.
    pub(crate) const ARRAYS: [&'static str; 2] = ["jacobi_grid", "jacobi_next"];

    /// The region factory: rank `pid` of `nprocs`'s share of `region`
    /// under `schedule(static)` over rows, given the region's params
    /// (the grid side) and the addresses of [`Jacobi::ARRAYS`].
    pub(crate) fn task(
        region: &str,
        params: &[u8],
        [grid, next]: [Addr; 2],
        pid: Pid,
        nprocs: usize,
    ) -> JacobiTask {
        let n = ParamsReader::new(params).u64();
        let (region, rows) = match region {
            "jacobi_init" => (JacobiRegion::Init, 0..n),
            "jacobi_sweep" => (JacobiRegion::Sweep, 1..n - 1),
            "jacobi_copy" => (JacobiRegion::Copy, 1..n - 1),
            other => panic!("unknown Jacobi region {other:?}"),
        };
        JacobiTask {
            region,
            n,
            rows: static_block(rows, pid as usize, nprocs),
            grid,
            next,
        }
    }
}

impl<M: WordMem> RegionTask<M> for JacobiTask {
    fn step(&mut self, m: &mut M) -> Step {
        let n = self.n as usize;
        let row = |base: Addr, r: u64| base + r * self.n;
        let mut out = vec![0.0; n];
        match self.region {
            // Parallel first-touch initialization (replay-safe on
            // recovery: forks fast-forward, sequential code does not).
            JacobiRegion::Init => {
                for r in self.rows.clone() {
                    for (c, v) in out.iter_mut().enumerate() {
                        *v = Jacobi::init_value(n, r as usize, c);
                    }
                    m.write_f64s(row(self.grid, r), &out);
                    m.write_f64s(row(self.next, r), &out);
                }
            }
            // Stencil interior rows of `grid` into `next`.
            JacobiRegion::Sweep => {
                let mut above = vec![0.0; n];
                let mut here = vec![0.0; n];
                let mut below = vec![0.0; n];
                for r in self.rows.clone() {
                    m.read_f64s(row(self.grid, r - 1), &mut above);
                    m.read_f64s(row(self.grid, r), &mut here);
                    m.read_f64s(row(self.grid, r + 1), &mut below);
                    out[0] = here[0];
                    out[n - 1] = here[n - 1];
                    for c in 1..n - 1 {
                        out[c] = 0.25 * (above[c] + below[c] + here[c - 1] + here[c + 1]);
                    }
                    m.write_f64s(row(self.next, r), &out);
                }
            }
            // Copy interior rows of `next` back into `grid`.
            JacobiRegion::Copy => {
                for r in self.rows.clone() {
                    m.read_f64s(row(self.next, r), &mut out);
                    m.write_f64s(row(self.grid, r), &out);
                }
            }
        }
        m.charge_compute(self.rows.end - self.rows.start);
        Step::Done
    }
}

impl Kernel for Jacobi {
    fn name(&self) -> &'static str {
        "Jacobi"
    }

    fn add_regions(&self, p: OmpProgram) -> OmpProgram {
        crate::task_regions(p, &Jacobi::REGIONS, Jacobi::ARRAYS, Jacobi::task)
    }

    fn setup(&self, sys: &mut OmpSystem) {
        let n = self.n;
        sys.alloc_f64("jacobi_grid", (n * n) as u64);
        sys.alloc_f64("jacobi_next", (n * n) as u64);
        sys.parallel("jacobi_init", &Params::new().u64(n as u64).build());
    }

    fn step(&self, sys: &mut OmpSystem, _iter: usize) {
        let params = Params::new().u64(self.n as u64).build();
        sys.parallel("jacobi_sweep", &params);
        sys.parallel("jacobi_copy", &params);
    }

    fn default_iters(&self) -> usize {
        1000
    }

    fn verify(&self, sys: &mut OmpSystem, iters: usize) -> f64 {
        let n = self.n;
        let reference = self.reference(iters);
        sys.seq(|ctx| {
            let grid = ctx.f64mat("jacobi_grid", n as u64, n as u64);
            let mut row = vec![0.0; n];
            let mut err = 0.0f64;
            for r in 0..n {
                grid.read_row(ctx.dsm(), r, &mut row);
                for c in 0..n {
                    err = err.max((row[c] - reference[r * n + c]).abs());
                }
            }
            err
        })
    }

    fn shared_bytes(&self) -> u64 {
        2 * (self.n * self.n) as u64 * 8
    }

    fn cost_profile(&self) -> Vec<(&'static str, f64)> {
        // One iteration = one grid row. The sweep is the classic
        // 4-flop stencil per point; the copy and the first-touch init
        // are memory-bound at ~1 flop-equivalent per point.
        let n = self.n as f64;
        vec![
            ("jacobi_init", n),
            ("jacobi_sweep", 4.0 * n),
            ("jacobi_copy", n),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{self, Engine};
    use nowmp_core::ClusterConfig;
    use nowmp_util::Clock;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    // Indices are written `row * stride + col`; keep the row factor
    // even when it is 0 or 1.
    #[allow(clippy::identity_op, clippy::erasing_op)]
    fn serial_reference_converges_from_hot_edge() {
        let j = Jacobi::new(8);
        let g = j.reference(50);
        // Interior points near the hot edge warm up.
        assert!(g[1 * 8 + 4] > 10.0);
        // Boundary stays fixed.
        assert_eq!(g[0 * 8 + 3], 100.0);
        assert_eq!(g[7 * 8 + 3], 0.0);
    }

    #[test]
    fn parallel_matches_reference_exactly() {
        testing::jacobi_matches_reference(Engine::Thread);
    }

    #[test]
    fn jacobi_produces_diff_traffic_on_multiple_procs() {
        let j = Jacobi::new(32);
        let program = crate::build_program(&[&j]);
        let mut sys = nowmp_omp::OmpSystem::new(ClusterConfig::test(5, 4), program);
        j.setup(&mut sys);
        for it in 0..6 {
            j.step(&mut sys, it);
        }
        let s = sys.dsm_stats(); // snapshot BEFORE verification traffic
        assert!(s.diffs_fetched > 0, "boundary rows must move as diffs");
        let err = j.verify(&mut sys, 6);
        assert_eq!(err, 0.0);
        sys.shutdown();
    }

    #[test]
    fn jacobi_under_adaptation_stays_exact() {
        testing::jacobi_under_adaptation(Engine::Thread);
    }

    /// Shutting down while a join is requested but not yet seated at
    /// an adaptation point must not hang, on either clock. A watchdog
    /// turns a hang into a failure.
    #[test]
    fn shutdown_with_unseated_join_does_not_hang() {
        for virtual_clock in [false, true] {
            for steps_after_join in [0, 1] {
                let what =
                    format!("virtual={virtual_clock}, {steps_after_join} step(s) after the join");
                let (done, finished) = mpsc::channel();
                std::thread::spawn(move || {
                    let j = Jacobi::new(64);
                    let clock = if virtual_clock {
                        Clock::new_virtual()
                    } else {
                        Clock::real()
                    };
                    let cfg = ClusterConfig::test(6, 4).with_clock(clock);
                    let mut sys = OmpSystem::new(cfg, crate::build_program(&[&j]));
                    j.setup(&mut sys);
                    j.step(&mut sys, 0);
                    sys.adapt().join().unwrap();
                    for it in 1..=steps_after_join {
                        j.step(&mut sys, it);
                    }
                    sys.shutdown();
                    let _ = done.send(());
                });
                finished
                    .recv_timeout(Duration::from_secs(60))
                    .unwrap_or_else(|_| panic!("shutdown hung with a join pending ({what})"));
            }
        }
    }
}
