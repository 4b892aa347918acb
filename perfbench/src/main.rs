//! `perfbench` — one run of one workload of the nowmp benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! A run repeats trials of the workload (each a fixed amount of work on
//! a freshly built system) until `S` seconds have passed, checks every
//! output, and prints the figures as a table followed by one JSON line:
//! `{"correct":..,"attempted":..,"failed":..,"figures":{..}}`. Timings
//! are medians over the run's trials. With `--trace 1` the trials
//! alternate untraced and traced; the traced ones record spans and
//! counter deltas, yield the per-layer figures, and the first of them is
//! written to `DIR` as a Chrome trace. `perfbench/run.py` builds this
//! binary and maps its figures onto the metrics of `BENCHMARK.json`.
//!
//! Every trial has a wall deadline. A trial that misses it counts as a
//! failed operation, the figures gathered so far are printed, and the
//! process exits (which ends the stuck threads).

mod trace;
mod util;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};
use trace::{span_figures, Tracer};
use util::{json_num, json_str, median, peak_rss_mb};
use workloads::{pooled_figures, Trial, Workload};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]";

/// Longest any one trial or set-up sample may take.
const TRIAL_DEADLINE: Duration = Duration::from_secs(90);
/// The whole run prints its result before this much time has passed.
const RUN_LIMIT: Duration = Duration::from_secs(165);
/// `setup_s` is the median of at least this many set-ups per run ...
const MIN_SETUPS: usize = 5;
/// ... and, for cheap set-ups, of enough to cover this many seconds
/// (capped at `MAX_SETUPS` samples).
const SETUP_SAMPLE_S: f64 = 0.25;
const MAX_SETUPS: usize = 101;

/// Every per-layer figure a traced run reports; one a workload does not
/// exercise reads 0.
const PER_LAYER: &[&str] = &[
    "omp.regions",
    "omp.region_wall_s",
    "omp.region_sim_s",
    "omp.region_wall_p50_ms",
    "omp.region_wall_p90_ms",
    "omp.self_wall_s",
    "tmk.read_faults",
    "tmk.write_faults",
    "tmk.pages_fetched",
    "tmk.diffs_fetched",
    "tmk.diff_words",
    "tmk.twins_created",
    "tmk.prefetch_issued",
    "tmk.prefetch_hits",
    "tmk.prefetch_wasted",
    "tmk.prefetch_hit_ratio",
    "tmk.fault_cover_ratio",
    "tmk.piggyback_bytes",
    "tmk.barrier_arrivals",
    "tmk.bcast_relays",
    "tmk.reduce_relays",
    "tmk.release_relays",
    "tmk.gcs",
    "tmk.gc_fetch_pages",
    "tmk.leave_pages_moved",
    "net.msgs",
    "net.bytes",
    "net.max_link_bytes",
    "net.msgs_per_wall_s",
    "adapt.requests",
    "adapt.refused",
    "adapt.points",
    "adapt.took_p50_ms",
    "adapt.took_p90_ms",
    "adapt.bytes_moved",
    "adapt.max_link_bytes",
    "adapt.call_wall_s",
    "adapt.self_wall_s",
    "leave_p50_s",
    "leave_p90_s",
    "join_p50_s",
    "join_p90_s",
    "ckpt.count",
    "ckpt.wall_s",
    "ckpt.sim_s",
    "ckpt.image_bytes",
    "ckpt.self_wall_s",
    "jobs.count",
    "jobs.steps",
    "jobs.step_wall_s",
    "jobs.step_wall_p50_ms",
    "jobs.exec_self_wall_s",
    "jobs.preemptions",
    "jobs.peak_concurrency",
    "jobs.self_wall_s",
    "sched.starts",
    "sched.grows",
    "sched.preempts",
    "wait_p50_s",
    "turnaround_p50_s",
    "utilization",
    "engine.regions",
    "engine.wall_s",
    "engine.sim_s",
    "engine.peak_workers",
    "engine.os_threads_peak",
    "engine.self_wall_s",
    "clock.wall_per_sim",
    "clock.stalled_calls",
    "apps.verify_err",
    "apps.self_wall_s",
    "fail_frac",
    "trace.overhead_s",
    "trace.spans",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("unexpected argument {:?}", pair[0])),
        }
    }
    let mut take = |k: &str| flags.remove(k).ok_or(format!("missing --{k}"));
    let num = |k: &str, v: String| v.parse::<u64>().map_err(|_| format!("--{k}: {v:?}"));
    let workload = take("workload")?;
    let seed = num("seed", take("seed")?)?;
    let seconds = num("seconds", take("seconds")?)?;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        v => return Err(format!("--trace: {v:?}")),
    };
    let out = PathBuf::from(take("out").unwrap_or_else(|_| ".perfbench".into()));
    if let Some(k) = flags.keys().next() {
        return Err(format!("unknown flag --{k}"));
    }
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be within 1..=600".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out,
    })
}

enum Event {
    Trial { traced: bool, trial: Trial },
    Panicked,
    Setup(f64),
    Done,
}

/// The driving thread: trials until the time budget is spent (at least
/// the workload's minimum, and one of each kind when tracing), then
/// extra set-up samples.
fn drive(w: Box<dyn Workload>, a: &Args, tx: Sender<Event>) {
    let budget = Duration::from_secs(a.seconds);
    let t0 = Instant::now();
    let mut setups = Vec::new();
    let mut wrote_trace = false;
    for n in 0.. {
        let traced = a.trace && n % 2 == 1;
        if n >= w.min_trials().max(1 + usize::from(a.trace)) && t0.elapsed() >= budget {
            break;
        }
        let mut tr = Tracer::new(traced);
        let ran = catch_unwind(AssertUnwindSafe(|| w.trial(a.seed, &mut tr, &a.out)));
        let Ok(mut trial) = ran else {
            let _ = tx.send(Event::Panicked);
            continue;
        };
        trial.peak_rss_mb = peak_rss_mb();
        setups.push(trial.setup_s);
        if traced {
            span_figures(&tr, trial.wall_s, &mut trial.fig);
            if !wrote_trace {
                let path = a
                    .out
                    .join(format!("{}-seed{}.trace.json", a.workload, a.seed));
                match std::fs::write(&path, tr.chrome_json(&a.workload, a.seed)) {
                    Ok(()) => eprintln!("perfbench: trace written to {}", path.display()),
                    Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
                }
                wrote_trace = true;
            }
        }
        let _ = tx.send(Event::Trial { traced, trial });
    }
    while setups.len() < MIN_SETUPS
        || (setups.iter().sum::<f64>() < SETUP_SAMPLE_S && setups.len() < MAX_SETUPS)
    {
        match catch_unwind(AssertUnwindSafe(|| w.setup_only(a.seed, &a.out))) {
            Ok(s) => {
                setups.push(s);
                let _ = tx.send(Event::Setup(s));
            }
            Err(_) => {
                let _ = tx.send(Event::Panicked);
                break;
            }
        }
    }
    let _ = tx.send(Event::Done);
}

/// Everything the run has gathered so far.
#[derive(Default)]
struct Run {
    untraced: Vec<Trial>,
    traced: Vec<Trial>,
    setups: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Run {
    fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// Median over `trials` of one figure (0 where a trial lacks it).
    fn med(trials: &[Trial], f: impl Fn(&Trial) -> f64) -> f64 {
        median(&trials.iter().map(f).collect::<Vec<_>>())
    }

    fn figures(&self, traced: bool, stuck_wall_s: f64) -> BTreeMap<String, f64> {
        let mut fig = BTreeMap::new();
        let wall_u = Self::med(&self.untraced, |t| t.wall_s);
        fig.insert(
            "wall_s".into(),
            if self.untraced.is_empty() {
                stuck_wall_s
            } else {
                wall_u
            },
        );
        fig.insert("sim_s".into(), Self::med(&self.untraced, |t| t.sim_s));
        fig.insert("setup_s".into(), median(&self.setups));
        // Later trials inherit heap the allocator kept from earlier ones,
        // so the run's memory figure is its first trial's peak.
        let first = self.untraced.first().or(self.traced.first());
        fig.insert("peak_rss_mb".into(), first.map_or(0.0, |t| t.peak_rss_mb));
        let from = if traced { &self.traced } else { &self.untraced };
        let mut keys: Vec<String> = from.iter().flat_map(|t| t.fig.keys().cloned()).collect();
        if traced {
            keys.extend(PER_LAYER.iter().map(|k| k.to_string()));
        }
        keys.sort();
        keys.dedup();
        for k in keys {
            let v = Self::med(from, |t| t.fig.get(&k).copied().unwrap_or(0.0));
            fig.insert(k, v);
        }
        pooled_figures(self.untraced.iter().chain(&self.traced), &mut fig);
        fig.insert(
            "fail_frac".into(),
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        if traced {
            let wall_t = Self::med(&self.traced, |t| t.wall_s);
            fig.insert("trace.overhead_s".into(), wall_t - wall_u);
        }
        // Sums over no spans are -0.0; print them as 0.
        fig.values_mut().for_each(|v| *v += 0.0);
        fig
    }

    fn print(&self, a: &Args, stuck_wall_s: f64) {
        let fig = self.figures(a.trace, stuck_wall_s);
        println!(
            "perfbench {} seed {}: {} untraced + {} traced trials, {} set-up samples",
            a.workload,
            a.seed,
            self.untraced.len(),
            self.traced.len(),
            self.setups.len()
        );
        for (i, t) in self.untraced.iter().chain(&self.traced).enumerate() {
            println!(
                "  trial {i}: setup_s {:.6} wall_s {:.6} sim_s {:.6} peak_rss_mb {:.1}",
                t.setup_s, t.wall_s, t.sim_s, t.peak_rss_mb
            );
        }
        for (k, v) in &fig {
            println!("  {k:<26} {v}");
        }
        let body: Vec<String> = fig
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_num(*v)))
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"figures\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            body.join(",")
        );
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(w) = workloads::by_name(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        std::process::exit(2);
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        std::process::exit(1);
    }
    let start = Instant::now();
    let (tx, rx) = channel();
    let run_args = Args {
        workload: args.workload.clone(),
        out: args.out.clone(),
        ..args
    };
    let worker = std::thread::spawn(move || drive(w, &run_args, tx));
    let mut run = Run::default();
    let mut last = Instant::now();
    loop {
        let wait = TRIAL_DEADLINE.min(RUN_LIMIT.saturating_sub(start.elapsed()));
        match rx.recv_timeout(wait) {
            Ok(Event::Trial { traced, trial }) => {
                run.attempted += trial.attempted;
                run.failed += trial.failed;
                run.setups.push(trial.setup_s);
                if traced {
                    run.traced.push(trial);
                } else {
                    run.untraced.push(trial);
                }
            }
            Ok(Event::Setup(s)) => run.setups.push(s),
            Ok(Event::Panicked) => run.fail(),
            Ok(Event::Done) => {
                worker.join().expect("driving thread");
                run.print(&args, 0.0);
                return;
            }
            Err(RecvTimeoutError::Timeout) => {
                eprintln!(
                    "perfbench: {} missed its wall deadline; counted as failed",
                    args.workload
                );
                run.fail();
                run.print(&args, last.elapsed().as_secs_f64());
                // The stuck trial's threads end with the process.
                std::process::exit(0);
            }
            Err(RecvTimeoutError::Disconnected) => {
                run.fail();
                run.print(&args, 0.0);
                std::process::exit(0);
            }
        }
        last = Instant::now();
    }
}
