//! The five workloads. Each trial builds its system from the seed,
//! times a fixed amount of work, checks every output it can, and
//! reports what it measured; the traced variant also records spans.

mod task;
mod tenancy;
mod thread;

use crate::trace::Tracer;
use crate::util::percentile;
use nowmp_core::{EventKind, LogEntry};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

/// What one trial measured.
#[derive(Default)]
pub struct Trial {
    /// Host seconds before the first timed call.
    pub setup_s: f64,
    /// Host seconds of the timed phase.
    pub wall_s: f64,
    /// Seconds on the system's clock over the timed phase.
    pub sim_s: f64,
    /// Peak resident memory of the trial (set by the trial loop).
    pub peak_rss_mb: f64,
    /// Operations attempted and failed (failed includes wrong results).
    pub attempted: u64,
    pub failed: u64,
    /// Named figures beyond the three timings.
    pub fig: BTreeMap<String, f64>,
    /// Latency samples, pooled over the run's trials before their
    /// percentiles are taken (see [`pooled_figures`]).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Trial {
    /// Count one operation and whether it succeeded.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn put(&mut self, key: &str, v: f64) {
        self.fig.insert(key.to_string(), v);
    }
}

/// One workload of the benchmark.
pub trait Workload: Send + Sync {
    /// Run one trial on the inputs `seed` generates. `out` is a scratch
    /// directory inside the checkout (checkpoint images).
    fn trial(&self, seed: u64, tr: &mut Tracer, out: &Path) -> Trial;

    /// Set the system up as a trial would, tear it down, and return the
    /// set-up seconds (extra `setup_s` samples for runs with few trials).
    fn setup_only(&self, seed: u64, out: &Path) -> f64;

    /// Fewest trials a run makes, however short its time budget.
    fn min_trials(&self) -> usize {
        1
    }
}

pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "nbf-scale" => Box::new(thread::NbfScale),
        "nbf-real" => Box::new(thread::NbfReal),
        "jacobi-churn" => Box::new(thread::JacobiChurn),
        "tenancy" => Box::new(tenancy::Tenancy),
        "task-nbf-1024" => Box::new(task::TaskNbf1024),
        _ => return None,
    })
}

/// Figures read from event-log entries: adaptation points and their
/// cost, checkpoints, scheduler directives, and the owner-visible leave
/// and join latencies. `logs` holds one entry list per system; joins
/// and leaves are paired within a list.
pub fn log_figures(logs: &[Vec<LogEntry>], t: &mut Trial) {
    let mut took_ms = Vec::new();
    let (mut bytes_moved, mut max_link, mut requests) = (0u64, 0u64, 0u64);
    let (mut ckpts, mut image_bytes) = (0u64, 0u64);
    let (mut starts, mut grows, mut preempts) = (0u64, 0u64, 0u64);
    let (mut leaves, mut joins) = (Vec::new(), Vec::new());
    for log in logs {
        let mut leave_at = HashMap::new();
        let mut join_at = Vec::new();
        let mut ready = Vec::new();
        let mut committed = HashMap::new();
        for e in log {
            match &e.kind {
                EventKind::Adaptation {
                    took,
                    bytes_moved: b,
                    max_link_bytes: m,
                    ..
                } => {
                    took_ms.push(took.as_secs_f64() * 1e3);
                    bytes_moved += b;
                    max_link = max_link.max(*m);
                }
                EventKind::Checkpoint { bytes, .. } => {
                    ckpts += 1;
                    image_bytes += bytes;
                }
                EventKind::LeaveRequested { gpid, .. } => {
                    requests += 1;
                    leave_at.insert(*gpid, e.at);
                }
                EventKind::NormalLeave { gpid } | EventKind::UrgentMigrationDone { gpid, .. } => {
                    if let Some(at) = leave_at.remove(gpid) {
                        leaves.push((e.at - at).as_secs_f64());
                    }
                }
                EventKind::JoinRequested { .. } => {
                    requests += 1;
                    join_at.push(e.at);
                }
                EventKind::JoinReady { gpid } => ready.push(*gpid),
                EventKind::JoinCommitted { gpid, .. } => {
                    committed.insert(*gpid, e.at);
                }
                EventKind::JobStarted { .. } => starts += 1,
                EventKind::JobGrown { .. } => grows += 1,
                EventKind::JobPreempted { .. } => preempts += 1,
                _ => {}
            }
        }
        // Joins are requested one at a time and become ready in request
        // order, so the k-th request is the k-th ready process.
        for (at, gpid) in join_at.iter().zip(&ready) {
            if let Some(done) = committed.get(gpid) {
                joins.push((*done - *at).as_secs_f64());
            }
        }
    }
    t.put("adapt.requests", requests as f64);
    t.put("adapt.points", took_ms.len() as f64);
    t.put("adapt.bytes_moved", bytes_moved as f64);
    t.put("adapt.max_link_bytes", max_link as f64);
    t.put("ckpt.count", ckpts as f64);
    t.put("ckpt.image_bytes", image_bytes as f64);
    t.put("sched.starts", starts as f64);
    t.put("sched.grows", grows as f64);
    t.put("sched.preempts", preempts as f64);
    t.samples
        .entry("adapt.took_ms")
        .or_default()
        .extend(took_ms);
    t.samples.entry("leave_s").or_default().extend(leaves);
    t.samples.entry("join_s").or_default().extend(joins);
}

/// Median and p90 of each latency family over the samples of all
/// `trials`, so that a run's tail rests on every sample it took.
pub fn pooled_figures<'a>(
    trials: impl Iterator<Item = &'a Trial>,
    fig: &mut BTreeMap<String, f64>,
) {
    let mut pool: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for t in trials {
        for (k, v) in &t.samples {
            pool.entry(k).or_default().extend(v);
        }
    }
    for (family, p50, p90) in [
        ("adapt.took_ms", "adapt.took_p50_ms", "adapt.took_p90_ms"),
        ("leave_s", "leave_p50_s", "leave_p90_s"),
        ("join_s", "join_p50_s", "join_p90_s"),
    ] {
        let v = pool.get(family).map_or(&[][..], Vec::as_slice);
        fig.insert(p50.to_string(), percentile(v, 0.5));
        fig.insert(p90.to_string(), percentile(v, 0.9));
    }
}
