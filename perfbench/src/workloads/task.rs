//! NBF on the event-driven task engine (`nowmp_core::TaskSystem`) at
//! 1024 hosts: the only workload that runs `core::engine` and
//! `util::TaskScheduler`.

use super::{log_figures, Trial, Workload};
use crate::trace::Tracer;
use crate::util::{os_threads, Rng};
use nowmp_apps::nbf::Nbf;
use nowmp_apps::tasks::TaskNbf;
use nowmp_apps::with_kernel_costs;
use nowmp_core::{ClusterConfig, TaskApp, TaskSystem};
use nowmp_net::{CostModel, NetModel};
use nowmp_tmk::DsmConfig;
use nowmp_util::Clock;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

pub struct TaskNbf1024;

const HOSTS: usize = 1024;
const PARTNERS: usize = 16;
const ITERS: usize = 5;

/// The seed varies the atom count (the kernel fixes its partner lists).
fn atoms(seed: u64) -> usize {
    65536 + 16 * Rng::new(seed, 4).below(64) as usize
}

fn cfg(atoms: usize) -> ClusterConfig {
    ClusterConfig::test(HOSTS, HOSTS)
        .with_net_model(NetModel::paper_1999())
        .with_cost_model(with_kernel_costs(
            CostModel::paper_1999(),
            &Nbf::new(atoms, PARTNERS),
        ))
        .with_dsm(DsmConfig::default_4k())
        .with_clock(Clock::new_virtual())
}

fn start(seed: u64, tr: &mut Tracer) -> (TaskSystem, TaskNbf, f64) {
    let n = atoms(seed);
    let t0 = Instant::now();
    let s = tr.begin("engine", "TaskSystem::new", None);
    let mut sys = TaskSystem::new(cfg(n));
    tr.end(s, Some(sys.now()));
    let app = TaskNbf::new(n, PARTNERS);
    let s = tr.begin("engine", "setup", Some(sys.now()));
    app.setup(&mut sys);
    tr.end(s, Some(sys.now()));
    (sys, app, t0.elapsed().as_secs_f64())
}

/// Sets the flag when dropped, so the sampler stops even if the trial
/// panics.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Samples the process's OS thread count until stopped (traced runs).
fn sample_threads(stop: &AtomicBool) -> u64 {
    let mut peak = os_threads();
    while !stop.load(Ordering::Relaxed) {
        peak = peak.max(os_threads());
        std::thread::sleep(Duration::from_millis(1));
    }
    peak
}

impl Workload for TaskNbf1024 {
    fn trial(&self, seed: u64, tr: &mut Tracer, _out: &Path) -> Trial {
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let sampler = tr.on().then(|| scope.spawn(|| sample_threads(&stop)));
            let stopper = StopOnDrop(&stop);
            let mut t = Trial::default();
            let (mut sys, app, setup_s) = start(seed, tr);
            t.setup_s = setup_s;
            let (w0, c0, f0) = (Instant::now(), sys.now(), sys.fork_no());
            let log0 = sys.log().entries().len();
            for it in 0..ITERS {
                let s = tr.begin("engine", "step", Some(sys.now()));
                app.step(&mut sys, it);
                tr.end(s, Some(sys.now()));
                t.op(true);
            }
            t.wall_s = w0.elapsed().as_secs_f64();
            t.sim_s = sys.now().saturating_since(c0).as_secs_f64();
            t.put("engine.regions", (sys.fork_no() - f0) as f64);
            log_figures(&[sys.log().entries().split_off(log0)], &mut t);

            let s = tr.begin("apps", "verify", Some(sys.now()));
            let err = app.verify(&sys, ITERS);
            tr.end(s, Some(sys.now()));
            t.op(err == 0.0);
            t.put("apps.verify_err", err);
            t.op(sys.peak_workers() <= sys.pool());
            t.put("engine.peak_workers", sys.peak_workers() as f64);
            drop(stopper);
            if let Some(h) = sampler {
                let peak = h.join().expect("thread sampler");
                t.put("engine.os_threads_peak", peak as f64);
            }
            t
        })
    }

    fn setup_only(&self, seed: u64, _out: &Path) -> f64 {
        start(seed, &mut Tracer::new(false)).2
    }
}
