//! Workloads on the thread engine (`nowmp_omp::OmpSystem`): NBF at
//! scale on the virtual clock, NBF on the real clock, and Jacobi under a
//! seeded owner-churn script.

use super::{log_figures, Trial, Workload};
use crate::trace::Tracer;
use crate::util::Rng;
use nowmp_apps::jacobi::Jacobi;
use nowmp_apps::nbf::Nbf;
use nowmp_apps::{build_program, with_kernel_costs, Kernel};
use nowmp_core::{ClusterConfig, LeaveSel};
use nowmp_net::{CostModel, NetModel};
use nowmp_omp::OmpSystem;
use nowmp_tmk::DsmConfig;
use nowmp_util::{Clock, Tick};
use std::path::Path;
use std::time::Instant;

/// The modeled configuration: the paper's network and host models, the
/// kernel's calibrated compute costs, the shipped DSM defaults (tree
/// collectives, overlapped data plane), on the virtual clock.
fn modeled(kernel: &dyn Kernel, hosts: usize, procs: usize) -> ClusterConfig {
    ClusterConfig::test(hosts, procs)
        .with_net_model(NetModel::paper_1999())
        .with_cost_model(with_kernel_costs(CostModel::paper_1999(), kernel))
        .with_dsm(DsmConfig::default_4k())
        .with_clock(Clock::new_virtual())
}

/// The DSM's own cost: real clock, no modeled network or compute.
fn real(hosts: usize) -> ClusterConfig {
    ClusterConfig::test(hosts, hosts)
        .with_dsm(DsmConfig::default_4k())
        .with_clock(Clock::real())
}

/// NBF's partner lists are fixed inside the kernel, so the seed varies
/// the atom count by up to `span` atoms above `base`, in steps of `step`.
fn nbf_atoms(seed: u64, base: usize, step: usize, span: usize) -> usize {
    base + step * Rng::new(seed, 1).below((span / step) as u64) as usize
}

fn now(sys: &OmpSystem) -> Option<Tick> {
    Some(sys.clock().now())
}

/// Bring the system up and run the kernel's set-up: the `setup_s` span.
fn start(cfg: ClusterConfig, kernel: &dyn Kernel, tr: &mut Tracer) -> (OmpSystem, f64) {
    let t0 = Instant::now();
    let s = tr.begin("omp", "OmpSystem::new", None);
    let mut sys = OmpSystem::new(cfg, build_program(&[kernel]));
    tr.end(s, None);
    let s = tr.begin("omp", "setup", now(&sys));
    kernel.setup(&mut sys);
    tr.end(s, now(&sys));
    (sys, t0.elapsed().as_secs_f64())
}

/// Start of the timed phase on one system.
struct Timed {
    wall: Instant,
    sim: Tick,
    log_len: usize,
}

impl Timed {
    fn start(sys: &OmpSystem) -> Timed {
        Timed {
            wall: Instant::now(),
            sim: sys.clock().now(),
            log_len: sys.log().entries().len(),
        }
    }

    fn stop(self, sys: &OmpSystem, t: &mut Trial) {
        t.wall_s = self.wall.elapsed().as_secs_f64();
        t.sim_s = sys.clock().elapsed_since(self.sim).as_secs_f64();
        let entries = sys.log().entries().split_off(self.log_len);
        log_figures(&[entries], t);
    }
}

/// Check the kernel against its serial reference, then tear down.
fn verify_and_shutdown(
    mut sys: OmpSystem,
    kernel: &dyn Kernel,
    iters: usize,
    tr: &mut Tracer,
    t: &mut Trial,
) {
    let s = tr.begin("apps", "verify", now(&sys));
    let err = kernel.verify(&mut sys, iters);
    tr.end(s, now(&sys));
    t.op(err == 0.0);
    t.put("apps.verify_err", err);
    let s = tr.begin("omp", "shutdown", None);
    sys.shutdown();
    tr.end(s, None);
}

/// Set up and run `iters` kernel steps with nothing else going on.
fn steady(cfg: ClusterConfig, kernel: &dyn Kernel, iters: usize, tr: &mut Tracer) -> Trial {
    let mut t = Trial::default();
    let (mut sys, setup_s) = start(cfg, kernel, tr);
    t.setup_s = setup_s;
    let timed = Timed::start(&sys);
    for it in 0..iters {
        tr.call("omp", "step", 0, &mut sys, |sys| kernel.step(sys, it));
        t.op(true);
    }
    timed.stop(&sys, &mut t);
    verify_and_shutdown(sys, kernel, iters, tr, &mut t);
    t
}

fn setup_only(cfg: ClusterConfig, kernel: &dyn Kernel) -> f64 {
    let (sys, setup_s) = start(cfg, kernel, &mut Tracer::new(false));
    sys.shutdown();
    setup_s
}

/// NBF, 8192 atoms x 16 partners, fixed team of 16, virtual clock.
pub struct NbfScale;

const SCALE_HOSTS: usize = 16;
const SCALE_ITERS: usize = 4;

fn scale_kernel(seed: u64) -> Nbf {
    Nbf::new(nbf_atoms(seed, 8192, 4, 128), 16)
}

impl Workload for NbfScale {
    fn trial(&self, seed: u64, tr: &mut Tracer, _out: &Path) -> Trial {
        let k = scale_kernel(seed);
        steady(modeled(&k, SCALE_HOSTS, SCALE_HOSTS), &k, SCALE_ITERS, tr)
    }

    fn setup_only(&self, seed: u64, _out: &Path) -> f64 {
        let k = scale_kernel(seed);
        setup_only(modeled(&k, SCALE_HOSTS, SCALE_HOSTS), &k)
    }
}

/// NBF, 65536 atoms x 16 partners, 2 hosts, real clock, no models.
pub struct NbfReal;

const REAL_HOSTS: usize = 2;
const REAL_ITERS: usize = 10;

fn real_kernel(seed: u64) -> Nbf {
    Nbf::new(nbf_atoms(seed, 65536, 16, 1024), 16)
}

impl Workload for NbfReal {
    fn trial(&self, seed: u64, tr: &mut Tracer, _out: &Path) -> Trial {
        steady(real(REAL_HOSTS), &real_kernel(seed), REAL_ITERS, tr)
    }

    fn setup_only(&self, seed: u64, _out: &Path) -> f64 {
        setup_only(real(REAL_HOSTS), &real_kernel(seed))
    }
}

/// Jacobi 256x256 on 8 of 9 hosts under a closed, iteration-keyed
/// owner-churn script: alternating normal leaves and joins, one request
/// per iteration boundary, and a checkpoint every tenth iteration.
pub struct JacobiChurn;

const CHURN_N: usize = 256;
const CHURN_HOSTS: usize = 9;
const CHURN_PROCS: usize = 8;
const CHURN_ITERS: usize = 100;
const CHURN_TRIALS: usize = 5;
const CKPT_EVERY: usize = 10;

/// One scripted request at an iteration boundary.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Request {
    /// Normal leave of the highest rank (Table 2 "end").
    LeaveEnd,
    /// Normal leave of rank `nprocs / 2` (Table 2 "middle").
    LeaveMiddle,
    /// Join onto the free host.
    Join,
}

/// The seeded script: leaves on even iterations (end or middle by
/// coin), joins on odd ones.
fn churn_script(seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed, 2);
    (0..CHURN_ITERS)
        .map(|it| match (it % 2, rng.below(2)) {
            (1, _) => Request::Join,
            (_, 0) => Request::LeaveEnd,
            _ => Request::LeaveMiddle,
        })
        .collect()
}

fn churn_cfg(kernel: &Jacobi, out: &Path) -> ClusterConfig {
    modeled(kernel, CHURN_HOSTS, CHURN_PROCS)
        .with_ckpt_path(out.join(format!("jacobi-churn-{}.ckpt", std::process::id())))
}

/// Issue `req` if it is valid for the current team; returns whether the
/// adaptation layer accepted it, or `None` if the script's request did
/// not apply to the team as it is.
fn issue(sys: &mut OmpSystem, req: Request, tr: &mut Tracer) -> Option<bool> {
    let n = sys.nprocs();
    match req {
        Request::LeaveEnd | Request::LeaveMiddle if n == CHURN_PROCS => {
            let pid = if req == Request::LeaveEnd {
                n - 1
            } else {
                n / 2
            };
            Some(tr.call("adapt", "leave", 0, sys, |sys| {
                sys.adapt().leave(LeaveSel::Pid(pid as u16), None).is_ok()
            }))
        }
        Request::Join if n < CHURN_PROCS => Some(tr.call("adapt", "join_ready", 0, sys, |sys| {
            sys.join_ready().is_ok()
        })),
        _ => None,
    }
}

impl Workload for JacobiChurn {
    fn trial(&self, seed: u64, tr: &mut Tracer, out: &Path) -> Trial {
        let k = Jacobi::new(CHURN_N);
        let cfg = churn_cfg(&k, out);
        let path = cfg.ckpt_path.clone();
        let script = churn_script(seed);
        let mut t = Trial::default();
        let (mut sys, setup_s) = start(cfg, &k, tr);
        t.setup_s = setup_s;
        let timed = Timed::start(&sys);
        let (mut skipped, mut refused) = (0u64, 0u64);
        for (it, &req) in script.iter().enumerate() {
            match issue(&mut sys, req, tr) {
                Some(ok) => {
                    t.op(ok);
                    refused += u64::from(!ok);
                }
                None => skipped += 1,
            }
            tr.call("omp", "step", 0, &mut sys, |sys| k.step(sys, it));
            t.op(true);
            if it % CKPT_EVERY == CKPT_EVERY - 1 {
                tr.call("ckpt", "checkpoint_now", 0, &mut sys, |sys| {
                    sys.checkpoint_now()
                });
                t.op(true);
            }
        }
        timed.stop(&sys, &mut t);
        t.put("churn.skipped", skipped as f64);
        t.put("adapt.refused", refused as f64);
        verify_and_shutdown(sys, &k, CHURN_ITERS, tr, &mut t);
        if let Some(p) = path {
            let _ = std::fs::remove_file(p);
        }
        t
    }

    fn setup_only(&self, _seed: u64, out: &Path) -> f64 {
        let k = Jacobi::new(CHURN_N);
        setup_only(churn_cfg(&k, out), &k)
    }

    /// Every join waits out the virtual clock's stall heuristics, so one
    /// system's virtual time varies by about a sixth between fresh
    /// systems; the run takes the median of several.
    fn min_trials(&self) -> usize {
        CHURN_TRIALS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_alternates_and_follows_the_seed() {
        let a = churn_script(1);
        assert_eq!(a, churn_script(1));
        assert_ne!(a, churn_script(2));
        assert!(a.iter().skip(1).step_by(2).all(|r| *r == Request::Join));
        assert!(a.iter().step_by(2).all(|r| *r != Request::Join));
        let joins = a.iter().filter(|r| **r == Request::Join).count();
        assert!(joins * CHURN_TRIALS >= 200);
    }

    #[test]
    fn atom_jitter_stays_in_band() {
        for seed in 0..50 {
            let n = nbf_atoms(seed, 8192, 4, 128);
            assert!((8192..8192 + 128).contains(&n) && n.is_multiple_of(4));
        }
    }
}
