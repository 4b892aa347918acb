//! The traced run: one span per call the benchmark makes into a layer's
//! public functions, the `tmk`/`net` counter deltas taken at the same
//! span boundaries, and the Chrome trace-event export.
//!
//! Spans are kept in memory and written out once, when the trial ends.
//! With tracing off every method returns at its first branch, so the
//! untraced (end-to-end) runs pay for a boolean test per call.

use crate::util::{json_num, json_str, percentile};
use nowmp_net::StatsSnapshot;
use nowmp_omp::OmpSystem;
use nowmp_tmk::DsmSnapshot;
use nowmp_util::Tick;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// One call into a layer.
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Host nanoseconds since the tracer was created.
    pub wall: (u64, u64),
    /// Nanoseconds on the simulated system's clock, when the call has
    /// a system to read it from.
    pub sim: Option<(u64, u64)>,
    /// Counter deltas and flags recorded at the span's boundaries.
    pub args: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn wall_s(&self) -> f64 {
        (self.wall.1 - self.wall.0) as f64 / 1e9
    }

    pub fn sim_s(&self) -> f64 {
        self.sim
            .map(|(a, b)| b.saturating_sub(a) as f64 / 1e9)
            .unwrap_or(0.0)
    }
}

/// Handle of an open span (`NONE` when tracing is off).
#[derive(Clone, Copy)]
pub struct SpanId(usize);

impl SpanId {
    const NONE: SpanId = SpanId(usize::MAX);
}

/// A `tmk`/`net` reading of one thread-engine system.
pub struct Probe {
    dsm: DsmSnapshot,
    net: StatsSnapshot,
}

impl Probe {
    pub fn of(sys: &OmpSystem) -> Probe {
        Probe {
            dsm: sys.dsm_stats(),
            net: sys.net_stats(),
        }
    }
}

/// The DSM counters the per-layer metrics report, by metric name.
fn dsm_fields(d: &DsmSnapshot) -> [(&'static str, u64); 18] {
    [
        ("tmk.read_faults", d.read_faults),
        ("tmk.write_faults", d.write_faults),
        ("tmk.pages_fetched", d.pages_fetched),
        ("tmk.diffs_fetched", d.diffs_fetched),
        ("tmk.diff_words", d.diff_words),
        ("tmk.twins_created", d.twins_created),
        ("tmk.prefetch_issued", d.prefetch_issued),
        ("tmk.prefetch_hits", d.prefetch_hits),
        ("tmk.prefetch_wasted", d.prefetch_wasted),
        ("tmk.piggyback_bytes", d.piggyback_bytes),
        ("tmk.barrier_arrivals", d.barrier_arrivals),
        ("tmk.bcast_relays", d.bcast_relays),
        ("tmk.reduce_relays", d.reduce_relays),
        ("tmk.release_relays", d.release_relays),
        ("tmk.gcs", d.gcs),
        ("tmk.gc_fetch_pages", d.gc_fetch_pages),
        ("tmk.leave_pages_moved", d.leave_pages_moved),
        ("tmk.forks", d.forks),
    ]
}

/// Sums of the counter deltas taken at span boundaries. Link bytes are
/// kept per (system, link) so that the busiest link of the timed phase
/// is a real link, even when several tenants each own a network.
#[derive(Default)]
pub struct Ledger {
    counts: BTreeMap<&'static str, u64>,
    links: HashMap<(u32, usize), u64>,
}

impl Ledger {
    fn add(&mut self, system: u32, before: &Probe, after: &Probe) -> Vec<(&'static str, f64)> {
        let d = after.dsm.since(&before.dsm);
        let n = after.net.since(&before.net);
        let mut deltas: Vec<(&'static str, u64)> = dsm_fields(&d).to_vec();
        deltas.push(("net.msgs", n.total_msgs));
        deltas.push(("net.bytes", n.total_bytes));
        for (i, l) in n.links.iter().enumerate() {
            *self.links.entry((system, i)).or_default() += l.bytes_total();
        }
        for &(k, v) in &deltas {
            *self.counts.entry(k).or_default() += v;
        }
        deltas
            .into_iter()
            .filter(|&(_, v)| v > 0)
            .map(|(k, v)| (k, v as f64))
            .collect()
    }

    pub fn get(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    pub fn max_link_bytes(&self) -> u64 {
        self.links.values().copied().max().unwrap_or(0)
    }

    pub fn counts(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counts.iter().map(|(k, v)| (*k, *v))
    }
}

/// The span recorder of one trial.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pub ledger: Ledger,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ledger: Ledger::default(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; `sim` is the system clock at the call, if any.
    pub fn begin(&mut self, layer: &'static str, name: &'static str, sim: Option<Tick>) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let t = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            parent: self.open.last().copied(),
            wall: (t, t),
            sim: sim.map(|s| (s.as_nanos(), s.as_nanos())),
            args: Vec::new(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(id)
    }

    /// Close the innermost open span `id`.
    pub fn end(&mut self, id: SpanId, sim: Option<Tick>) {
        if !self.on {
            return;
        }
        let t = self.now_ns();
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        let s = &mut self.spans[id.0];
        s.wall.1 = t;
        if let (Some((a, _)), Some(b)) = (s.sim, sim) {
            s.sim = Some((a, b.as_nanos()));
        }
    }

    /// Run `f` on `sys` as one span, with the `tmk`/`net` deltas of the
    /// call recorded on the span and in the ledger. `system` keys the
    /// per-link sums (the job id under the tenancy scheduler).
    pub fn call<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        system: u32,
        sys: &mut OmpSystem,
        f: impl FnOnce(&mut OmpSystem) -> R,
    ) -> R {
        if !self.on {
            return f(sys);
        }
        let before = Probe::of(sys);
        let id = self.begin(layer, name, Some(sys.clock().now()));
        let r = f(sys);
        self.end(id, Some(sys.clock().now()));
        let after = Probe::of(sys);
        let deltas = self.ledger.add(system, &before, &after);
        self.spans[id.0].args.extend(deltas);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time in seconds: its duration minus the part
    /// its child spans cover (children nest, one driving thread).
    pub fn self_wall_s(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::wall_s).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.wall_s();
            }
        }
        own
    }

    /// The spans as Chrome trace-event JSON (complete `X` events, µs),
    /// viewable in Perfetto or `chrome://tracing`.
    pub fn chrome_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"workload\":{},\"seed\":{seed}}},\
             \"traceEvents\":[\n",
            json_str(workload)
        );
        for (i, s) in self.spans.iter().enumerate() {
            let mut args = format!("\"span\":{i}");
            if let Some(p) = s.parent {
                args.push_str(&format!(",\"parent\":{p}"));
            }
            if let Some((a, b)) = s.sim {
                args.push_str(&format!(
                    ",\"sim_start_s\":{},\"sim_end_s\":{}",
                    json_num(a as f64 / 1e9),
                    json_num(b as f64 / 1e9)
                ));
            }
            for (k, v) in &s.args {
                args.push_str(&format!(",{}:{}", json_str(k), json_num(*v)));
            }
            out.push_str(&format!(
                "{}{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
                if i == 0 { "" } else { ",\n" },
                json_str(s.name),
                json_str(s.layer),
                json_num(s.wall.0 as f64 / 1e3),
                json_num((s.wall.1 - s.wall.0) as f64 / 1e3),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Spans that are one region or step of a computation: the thread
/// engine's `parallel`/kernel `step` calls and the task engine's steps.
fn is_region(s: &Span) -> bool {
    matches!(s.layer, "omp" | "engine") && matches!(s.name, "step" | "parallel")
}

/// The clock's stall fallback: a virtual-clock call whose host time
/// reaches it has (most likely) waited out a stall.
const STALL_ADVANCE_S: f64 = 0.25;

/// The per-layer metrics that come from the spans and the ledger.
pub fn span_figures(tr: &Tracer, timed_wall_s: f64, fig: &mut BTreeMap<String, f64>) {
    let spans = tr.spans();
    let mut put = |k: &str, v: f64| {
        fig.insert(k.to_string(), v);
    };
    let region: Vec<&Span> = spans.iter().filter(|s| is_region(s)).collect();
    let walls: Vec<f64> = region.iter().map(|s| s.wall_s()).collect();
    let wall: f64 = walls.iter().sum();
    let sim: f64 = region.iter().map(|s| s.sim_s()).sum();
    let omp: Vec<&&Span> = region.iter().filter(|s| s.layer == "omp").collect();
    let omp_walls: Vec<f64> = omp.iter().map(|s| s.wall_s()).collect();
    put("omp.regions", tr.ledger.get("tmk.forks") as f64);
    put("omp.region_wall_s", omp_walls.iter().sum());
    put("omp.region_sim_s", omp.iter().map(|s| s.sim_s()).sum());
    put("omp.region_wall_p50_ms", percentile(&omp_walls, 0.5) * 1e3);
    put("omp.region_wall_p90_ms", percentile(&omp_walls, 0.9) * 1e3);

    for (k, v) in tr.ledger.counts() {
        put(k, v as f64);
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let l = &tr.ledger;
    put(
        "tmk.prefetch_hit_ratio",
        ratio(l.get("tmk.prefetch_hits"), l.get("tmk.prefetch_issued")),
    );
    put(
        "tmk.fault_cover_ratio",
        ratio(l.get("tmk.prefetch_hits"), l.get("tmk.read_faults")),
    );
    put("net.max_link_bytes", l.max_link_bytes() as f64);
    put(
        "net.msgs_per_wall_s",
        if timed_wall_s > 0.0 {
            l.get("net.msgs") as f64 / timed_wall_s
        } else {
            0.0
        },
    );

    let of = |layer: &str, names: &[&str]| -> Vec<&Span> {
        spans
            .iter()
            .filter(|s| s.layer == layer && (names.is_empty() || names.contains(&s.name)))
            .collect()
    };
    let adapt = of("adapt", &[]);
    put("adapt.call_wall_s", adapt.iter().map(|s| s.wall_s()).sum());
    let ckpt = of("ckpt", &[]);
    put("ckpt.wall_s", ckpt.iter().map(|s| s.wall_s()).sum());
    put("ckpt.sim_s", ckpt.iter().map(|s| s.sim_s()).sum());

    let steps = of("jobs", &["step"]);
    let step_walls: Vec<f64> = steps.iter().map(|s| s.wall_s()).collect();
    put("jobs.steps", steps.len() as f64);
    put("jobs.step_wall_s", step_walls.iter().sum());
    put("jobs.step_wall_p50_ms", percentile(&step_walls, 0.5) * 1e3);
    let own = tr.self_wall_s();
    put(
        "jobs.exec_self_wall_s",
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.layer == "jobs" && s.name == "run")
            .map(|(i, _)| own[i])
            .sum(),
    );

    let engine = of("engine", &["step"]);
    put("engine.wall_s", engine.iter().map(|s| s.wall_s()).sum());
    put("engine.sim_s", engine.iter().map(|s| s.sim_s()).sum());

    put(
        "clock.wall_per_sim",
        if sim > 0.0 { wall / sim } else { 0.0 },
    );
    put(
        "clock.stalled_calls",
        walls.iter().filter(|&&w| w >= STALL_ADVANCE_S).count() as f64,
    );

    for layer in ["omp", "adapt", "ckpt", "jobs", "engine", "apps"] {
        let total: f64 = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.layer == layer)
            .map(|(i, _)| own[i])
            .sum();
        put(&format!("{layer}.self_wall_s"), total);
    }
    put("trace.spans", spans.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false);
        let s = tr.begin("omp", "step", None);
        tr.end(s, None);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("jobs", "run", None);
        let inner = tr.begin("jobs", "step", Some(Tick::from_nanos(10)));
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.end(inner, Some(Tick::from_nanos(510)));
        tr.end(outer, None);
        let own = tr.self_wall_s();
        let s = tr.spans();
        assert_eq!(s[1].parent, Some(0));
        assert!((own[0] - (s[0].wall_s() - s[1].wall_s())).abs() < 1e-12);
        assert_eq!(s[1].sim_s(), 500e-9);
        let json = tr.chrome_json("w", 1);
        assert!(json.contains("\"ph\":\"X\"") && json.contains("\"parent\":0"));
    }
}
