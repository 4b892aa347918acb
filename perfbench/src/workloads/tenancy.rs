//! The multi-tenant workload: a job trace replayed through
//! `nowmp_omp::jobs::Scheduler` on 32 hosts.
//!
//! The trace follows the `whatif_tenancy` smoke trace in kind: Poisson
//! arrivals under a diurnal rate curve, bounded-Pareto step counts, and
//! one job in five in a rigid interactive tier that preempts elastic
//! batch jobs. It is sized so that one replay fits a run: 40 short jobs
//! (1 to 4 steps) that load the pool to about 80 %, and it ends on the
//! falling side of the diurnal curve, so the makespan does not hang on
//! one late long job.
//! See [`draw_trace`] for what the seed changes.

use super::{log_figures, Trial, Workload};
use crate::trace::Tracer;
use crate::util::{median, Rng};
use nowmp_core::{ClusterConfig, EventKind, LogEntry};
use nowmp_net::CostModel;
use nowmp_omp::jobs::Scheduler;
use nowmp_omp::{JobSpec, OmpProgram};
use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

pub struct Tenancy;

const HOSTS: usize = 32;
const JOBS: usize = 40;
const BLOCK: usize = 5;
const BATCH_MIN_PROCS: usize = 2;
const BATCH_MAX_PROCS: usize = 8;
const BASE_RATE: f64 = 8.0;
const DAY_S: f64 = 6.0;
const STEPS_MIN: f64 = 1.0;
const STEPS_CAP: f64 = 4.0;
const PARETO_ALPHA: f64 = 1.5;
const WORK_ITERS: u64 = 32;
const PER_ITER: Duration = Duration::from_millis(50);
const CONTENTION: f64 = 0.02;
/// Fixes the trace's shape (see [`draw_trace`]).
const SHAPE_SEED: u64 = 0x5EED_1999;
/// Largest seeded delay of an arrival, in trace seconds.
const ARRIVAL_JITTER: f64 = 0.0005;

struct TraceJob {
    arrival: f64,
    steps: u64,
    min_procs: usize,
    max_procs: usize,
    priority: u8,
    interactive: bool,
}

/// `n` stratified uniform draws in `[0, 1)`, one per stratum, shuffled.
fn strata(rng: &mut Rng, n: usize) -> Vec<f64> {
    let mut q: Vec<f64> = (0..n)
        .map(|i| (i as f64 + rng.next_f64()) / n as f64)
        .collect();
    rng.shuffle(&mut q);
    q
}

/// Expected arrivals by trace time `t`: the integral of the diurnal rate
/// `BASE_RATE * (1 + 0.75 sin(2 pi t / DAY_S))`.
fn expected_arrivals(t: f64) -> f64 {
    let w = std::f64::consts::TAU / DAY_S;
    BASE_RATE * (t + 0.75 * (1.0 - (w * t).cos()) / w)
}

/// The trace time by which `n` arrivals are expected (the inverse of
/// [`expected_arrivals`], by bisection; the rate is always positive).
fn time_of(n: f64) -> f64 {
    let (mut lo, mut hi) = (0.0, n / (0.25 * BASE_RATE) + 1.0);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if expected_arrivals(mid) < n {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// Draw the trace. Arrivals are a Poisson process under the diurnal
/// rate curve, made by time-rescaling unit-rate exponential gaps; each
/// gap takes its own stratum of the exponential distribution. Jobs come
/// in blocks of `BLOCK` consecutive arrivals: each block has one
/// interactive job and gives each batch job one stratum of the
/// step-count distribution.
///
/// `SHAPE_SEED` draws all of that; `seed` then delays each arrival by
/// up to `ARRIVAL_JITTER`. The scheduler's dynamics are chaotic: on a
/// 2-core host over six seeds, a trace drawn freely from `seed` gave 8
/// to 34 joins plus leaves and 9.6 to 16.1 s of host time (every join
/// waits out a stalled virtual clock), and one whose within-stratum
/// positions came from `seed` gave 10 to 28 and 9.6 to 16.3 s. Host
/// time over so few adaptations cannot be compared across seeds, so the
/// seed only perturbs arrival times.
fn draw_trace(seed: u64) -> Vec<TraceJob> {
    let mut shape = Rng::new(SHAPE_SEED, 3);
    let mut jitter = Rng::new(seed, 3);
    let gaps = strata(&mut shape, JOBS);
    let mut n = 0.0;
    let mut trace = Vec::with_capacity(JOBS);
    for block in gaps.chunks(BLOCK) {
        let mut sizes = strata(&mut shape, BLOCK - 1).into_iter();
        let interactive_at = shape.below(BLOCK as u64) as usize;
        let width = 2 << shape.below(2);
        for (i, gap) in block.iter().enumerate() {
            n += -(1.0 - gap).ln();
            let arrival = time_of(n) + jitter.next_f64() * ARRIVAL_JITTER;
            let job = if i == interactive_at {
                // Interactive tier: short, rigid, small team, preempts.
                TraceJob {
                    arrival,
                    steps: 1,
                    min_procs: width,
                    max_procs: width,
                    priority: 5,
                    interactive: true,
                }
            } else {
                // Batch tier: elastic, bounded-Pareto step counts.
                let q = sizes.next().expect("one size stratum per batch job");
                let steps = (STEPS_MIN / (1.0 - q).powf(1.0 / PARETO_ALPHA)).min(STEPS_CAP);
                TraceJob {
                    arrival,
                    steps: steps as u64,
                    min_procs: BATCH_MIN_PROCS,
                    max_procs: BATCH_MAX_PROCS,
                    priority: 1,
                    interactive: false,
                }
            };
            trace.push(job);
        }
    }
    trace
}

/// Every tenant runs one small region per step; its modeled compute
/// cost fills the virtual timeline.
fn work_program() -> OmpProgram {
    OmpProgram::new().region("work", |ctx| {
        let data = ctx.f64vec("data");
        let n = data.len();
        ctx.for_static(0..n as u64, |c, i| {
            data.set(c.dsm(), i as usize, i as f64);
        });
    })
}

/// What the step closures record about each job.
#[derive(Default)]
struct JobSeen {
    steps: u64,
    data_ok: bool,
    log: Vec<LogEntry>,
}

fn base_cfg() -> ClusterConfig {
    ClusterConfig::test(HOSTS, 1)
        .with_cost_model(CostModel::disabled().with_region_cost("work", PER_ITER))
}

/// Generate the trace and submit it: the set-up phase.
fn submit(
    seed: u64,
    tr: &Rc<RefCell<Tracer>>,
    seen: &Rc<RefCell<Vec<JobSeen>>>,
) -> (Scheduler, Vec<TraceJob>) {
    let trace = draw_trace(seed);
    let mut sched = Scheduler::new(base_cfg()).with_net_contention(CONTENTION);
    for (idx, j) in trace.iter().enumerate() {
        let name = format!("{}{idx}", if j.interactive { "int" } else { "batch" });
        let steps = j.steps;
        let (tr_setup, tr_step, seen) = (Rc::clone(tr), Rc::clone(tr), Rc::clone(seen));
        let spec = JobSpec::new(name, work_program())
            .with_procs(j.min_procs, j.max_procs)
            .with_priority(j.priority)
            .arriving_at(Duration::from_secs_f64(j.arrival))
            .with_setup(move |sys| {
                let s = tr_setup
                    .borrow_mut()
                    .begin("jobs", "setup", Some(sys.clock().now()));
                sys.alloc_f64("data", WORK_ITERS);
                tr_setup.borrow_mut().end(s, Some(sys.clock().now()));
            })
            .with_steps(steps, move |sys, it| {
                let s = tr_step
                    .borrow_mut()
                    .begin("jobs", "step", Some(sys.clock().now()));
                tr_step
                    .borrow_mut()
                    .call("omp", "parallel", idx as u32, sys, |sys| {
                        sys.parallel("work", &[])
                    });
                let mut seen = seen.borrow_mut();
                let job = &mut seen[idx];
                job.steps += 1;
                if it + 1 == steps {
                    job.data_ok = sys.seq(|ctx| {
                        let data = ctx.f64vec("data");
                        (0..WORK_ITERS as usize).all(|i| data.get(ctx.dsm(), i) == i as f64)
                    });
                    job.log = sys.log().entries();
                }
                tr_step.borrow_mut().end(s, Some(sys.clock().now()));
            });
        let s = tr.borrow_mut().begin("jobs", "submit", None);
        sched.submit(spec);
        tr.borrow_mut().end(s, None);
    }
    (sched, trace)
}

impl Workload for Tenancy {
    fn trial(&self, seed: u64, tr: &mut Tracer, _out: &Path) -> Trial {
        let mut t = Trial::default();
        let shared = Rc::new(RefCell::new(std::mem::replace(tr, Tracer::new(false))));
        let seen = Rc::new(RefCell::new(
            (0..JOBS).map(|_| JobSeen::default()).collect::<Vec<_>>(),
        ));
        let t0 = Instant::now();
        let (mut sched, trace) = submit(seed, &shared, &seen);
        t.setup_s = t0.elapsed().as_secs_f64();

        let w0 = Instant::now();
        let s = shared.borrow_mut().begin("jobs", "run", None);
        let report = sched.run();
        shared.borrow_mut().end(s, None);
        t.wall_s = w0.elapsed().as_secs_f64();
        t.sim_s = report.makespan.as_secs_f64();
        drop(sched);
        *tr = Rc::try_unwrap(shared)
            .ok()
            .expect("the scheduler dropped every job closure")
            .into_inner();

        let seen = seen.take();
        for j in &seen {
            for _ in 0..j.steps {
                t.op(true);
            }
        }
        // A job succeeds if it finished, ran its full step count, and
        // left the values its last step wrote.
        let finished: Vec<bool> = (0..JOBS)
            .map(|i| {
                report.log.entries().iter().any(|e| {
                    e.job.map(|j| j.0 as usize) == Some(i)
                        && matches!(e.kind, EventKind::JobFinished { .. })
                })
            })
            .collect();
        for (i, j) in trace.iter().enumerate() {
            t.op(report.jobs.len() == JOBS
                && finished[i]
                && seen[i].steps == j.steps
                && seen[i].data_ok);
        }

        let mut logs: Vec<Vec<LogEntry>> = seen.into_iter().map(|j| j.log).collect();
        logs.push(report.log.entries());
        log_figures(&logs, &mut t);
        let waits: Vec<f64> = report.jobs.iter().map(|j| j.wait.as_secs_f64()).collect();
        let turns: Vec<f64> = report
            .jobs
            .iter()
            .map(|j| j.turnaround.as_secs_f64())
            .collect();
        t.put("wait_p50_s", median(&waits));
        t.put("turnaround_p50_s", median(&turns));
        t.put("utilization", report.utilization);
        t.put("jobs.count", report.jobs.len() as f64);
        t.put(
            "jobs.preemptions",
            report.jobs.iter().map(|j| j.preemptions).sum::<u64>() as f64,
        );
        t.put("jobs.peak_concurrency", report.max_concurrency as f64);
        t
    }

    fn setup_only(&self, seed: u64, _out: &Path) -> f64 {
        let tr = Rc::new(RefCell::new(Tracer::new(false)));
        let seen = Rc::new(RefCell::new(Vec::new()));
        let t0 = Instant::now();
        let (sched, _) = submit(seed, &tr, &seen);
        let setup_s = t0.elapsed().as_secs_f64();
        drop(sched);
        setup_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_shape_is_fixed_and_seed_jitters_arrivals() {
        let arrivals = |seed| {
            draw_trace(seed)
                .iter()
                .map(|j| j.arrival)
                .collect::<Vec<_>>()
        };
        assert_eq!(arrivals(5), arrivals(5));
        assert_ne!(arrivals(5), arrivals(6));
        let (a, b) = (draw_trace(5), draw_trace(6));
        for (x, y) in a.iter().zip(&b) {
            assert!((x.arrival - y.arrival).abs() <= ARRIVAL_JITTER);
            assert_eq!(
                (x.steps, x.max_procs, x.priority),
                (y.steps, y.max_procs, y.priority)
            );
            assert!((1..=STEPS_CAP as u64).contains(&x.steps));
        }
        for block in a.chunks(BLOCK) {
            assert_eq!(block.iter().filter(|j| j.interactive).count(), 1);
        }
        // The trace ends past the diurnal peak, within one day.
        let last = a.iter().map(|j| j.arrival).fold(0.0, f64::max);
        assert!(last > DAY_S / 2.0 && last < DAY_S, "last arrival {last}");
    }
}
