//! Pieces shared by the workloads: the metric record, the seeded query
//! shuffle, the host probe, the closed measurement loop, the plan census
//! and memory readings.

use crate::pipeline::{self, ModPlan};
use crate::stats::{geomean, median, qerror_p50_p90, quantile};
use crate::trace::Tracer;
use exrquy::engine::Profile;
use exrquy::xml::{rng::SmallRng, Catalog};
use exrquy::QueryOptions;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The URL every workload registers its XMark document under.
pub const DOC_URL: &str = "auction.xml";

/// Metrics of one run plus its operation counts.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Failures of the run's own checks (trace bounds, serve
    /// reconciliation); any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// The traced run's spans, written out when the run ends.
    pub spans: Option<Tracer>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        match self.metrics.iter_mut().find(|m| m.0 == name) {
            Some(m) => m.1 = value,
            None => self.metrics.push((name, value, unit)),
        }
    }
}

/// The XMark queries of a pass in a seeded order.
fn shuffled(queries: &[usize], rng: &mut SmallRng) -> Vec<usize> {
    let mut v = queries.to_vec();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
    v
}

/// What the host probe takes, in milliseconds, on the reference host
/// (the 2-core shared x86-64 host of the README's baseline, in a quiet
/// period). Scaled timings are in milliseconds on that host.
pub const REFERENCE_PROBE_MS: f64 = 8.0;

/// Time a fixed, program-independent piece of work that stresses the
/// allocator and the caches the way loading and querying a document do:
/// 20 000 short strings keyed into a `BTreeMap`, then dropped. On a shared
/// host the neighbours' load slows memory-heavy code by up to 2× within
/// seconds and for minutes; timed next to each pass, this probe slows
/// with it, so `measured × (REFERENCE_PROBE_MS / probe)^sensitivity` is
/// the measured time with the host's speed of the moment taken out. A
/// change to the program cannot change the probe.
pub fn host_probe_ms() -> f64 {
    let t0 = Instant::now();
    let mut map: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    for i in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.entry(format!("k{}", x % 50_000)).or_default().push(i);
    }
    std::hint::black_box(&map);
    drop(map);
    t0.elapsed().as_secs_f64() * 1e3
}

/// The factor that scales a timing to the reference host, from the probes
/// taken just before and just after it. `sensitivity` is how strongly the
/// workload's time follows the probe's: the exponent `b` in
/// `time ∝ probe^b` while the host's load changes. A workload whose
/// working set is larger than the probe's, or that spends more of its time
/// computing, is slowed less by the same neighbours.
fn host_scale(before: f64, after: f64, sensitivity: f64) -> f64 {
    (REFERENCE_PROBE_MS / ((before + after) / 2.0)).powf(sensitivity)
}

/// Latencies and counts of one arm of a closed, single-caller loop.
#[derive(Default)]
pub struct Timed {
    /// Milliseconds per operation, per XMark query number, as measured.
    pub per_query: BTreeMap<usize, Vec<f64>>,
    /// The same, scaled to the reference host (see `host_probe_ms`).
    pub scaled: BTreeMap<usize, Vec<f64>>,
    pub ops: u64,
    pub failed: u64,
    /// Time spent in this arm's passes.
    pub wall: Duration,
    /// The same, scaled to the reference host, in seconds.
    pub scaled_wall: f64,
    /// Every host probe taken next to this arm's passes, in milliseconds.
    pub probes: Vec<f64>,
}

fn medians(per_query: &BTreeMap<usize, Vec<f64>>) -> Vec<f64> {
    per_query.values().map(|v| median(v)).collect()
}

impl Timed {
    /// Operations completed per second spent in this arm's passes.
    pub fn qps(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }

    /// `qps`, `geomean_ms`, `p50_ms` and `p95_ms` of a Q1–Q20 loop, scaled
    /// to the reference host. The percentiles run over the twenty
    /// per-query median latencies, so they never sit on a boundary between
    /// two queries' samples. The figures as measured go to stderr.
    pub fn report_suite(&self, out: &mut Outcome) {
        let scaled = medians(&self.scaled);
        out.put("qps", self.ops as f64 / self.scaled_wall, "1/s");
        out.put("geomean_ms", geomean(&scaled), "ms");
        out.put("p50_ms", quantile(&scaled, 0.5), "ms");
        out.put("p95_ms", quantile(&scaled, 0.95), "ms");
        let measured = medians(&self.per_query);
        eprintln!(
            "xmbench: as measured: qps {:.2} geomean_ms {:.4} p50_ms {:.4} p95_ms {:.4}; \
             host probe median {:.3} ms (reference {REFERENCE_PROBE_MS} ms)",
            self.qps(),
            geomean(&measured),
            quantile(&measured, 0.5),
            quantile(&measured, 0.95),
            median(&self.probes),
        );
    }
}

/// One way to perform an operation: given the XMark query number and a
/// request id, it returns its own latency (so its correctness check stays
/// untimed) and whether it passed the gate.
pub type Arm<'a> = &'a mut dyn FnMut(usize, u64) -> (Duration, bool);

/// Run whole passes over `queries`, each in a fresh seeded order, until
/// `seconds` have passed and every arm ran at least `min_passes` passes.
/// Passes rotate over `arms`, so arms that are compared with each other
/// (traced against untraced) run under the same conditions on the host.
/// A host probe runs between passes, outside the timed wall.
pub fn closed_loop(
    queries: &[usize],
    rng: &mut SmallRng,
    seconds: f64,
    min_passes: usize,
    sensitivity: f64,
    arms: &mut [Arm],
) -> Vec<Timed> {
    let mut timed: Vec<Timed> = arms.iter().map(|_| Timed::default()).collect();
    let start = Instant::now();
    let mut req = 0;
    let mut pass = 0;
    let mut probe = host_probe_ms();
    let mut latencies = Vec::with_capacity(queries.len());
    while pass < min_passes * arms.len() || start.elapsed().as_secs_f64() < seconds {
        let arm = pass % arms.len();
        let (op, t) = (&mut arms[arm], &mut timed[arm]);
        let pass_start = Instant::now();
        for q in shuffled(queries, rng) {
            let (dt, ok) = op(q, req);
            req += 1;
            t.ops += 1;
            if !ok {
                t.failed += 1;
            }
            latencies.push((q, dt.as_secs_f64() * 1e3));
        }
        let wall = pass_start.elapsed();
        let next = host_probe_ms();
        let scale = host_scale(probe, next, sensitivity);
        t.probes.push(probe);
        probe = next;
        t.wall += wall;
        t.scaled_wall += wall.as_secs_f64() * scale;
        for (q, ms) in latencies.drain(..) {
            t.per_query.entry(q).or_default().push(ms);
            t.scaled.entry(q).or_default().push(ms * scale);
        }
        pass += 1;
    }
    timed
}

/// Median of `reps` timings of `f`, in seconds, each scaled to the
/// reference host (see `host_probe_ms`); keeps the last result (each
/// earlier one is dropped before the next repetition starts).
pub fn median_setup<T>(reps: usize, sensitivity: f64, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    let mut probe = host_probe_ms();
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let v = f();
        let took = t0.elapsed().as_secs_f64();
        let next = host_probe_ms();
        times.push(took * host_scale(probe, next, sensitivity));
        probe = next;
        last = Some(v);
    }
    (median(&times), last.expect("at least one repetition"))
}

/// Exact counts of one untimed compile + execute of each query: the
/// per-layer work census reported by the traced run.
#[derive(Default)]
pub struct Census {
    pub compiler_ops: u64,
    pub opt_ops: u64,
    pub opt_rownums: u64,
    pub opt_rules_fired: u64,
    pub cost_reordered: u64,
    pub cost_elided: u64,
    pub phys_slots: u64,
    pub fused_ops: u64,
    pub engine_rows: u64,
    /// `(estimate, actual)` for every operator with an actual row count.
    pub estimates: Vec<(f64, f64)>,
}

impl Census {
    fn add(&mut self, plan: &ModPlan, profile: &Profile) {
        self.compiler_ops += plan.stats_initial.total as u64;
        self.opt_ops += plan.stats_final.total as u64;
        self.opt_rownums += plan.stats_final.rownums() as u64;
        self.opt_rules_fired += plan.opt_report.trace.len() as u64;
        self.cost_reordered += plan.cost_report.reordered as u64;
        self.cost_elided += plan.cost_report.elided as u64;
        self.phys_slots += profile.vec.phys_slots;
        self.fused_ops += profile.vec.fused_ops;
        self.engine_rows += profile.rows().values().sum::<u64>();
        let mut est: Vec<_> = plan.cost_report.estimates.iter().collect();
        est.sort_by_key(|(id, _)| id.0);
        for (id, e) in est {
            if let Some(a) = profile.op_rows(*id) {
                self.estimates.push((*e, a as f64));
            }
        }
    }

    /// Compile and run every query once over `catalog`.
    pub fn of(
        catalog: &Arc<Catalog>,
        queries: &[usize],
        opts: &QueryOptions,
    ) -> Result<(Self, BTreeMap<usize, ModPlan>), String> {
        let mut census = Census::default();
        let mut plans = BTreeMap::new();
        let mut untimed = Tracer::new(Instant::now());
        for &q in queries {
            let plan = pipeline::compile(catalog, exrquy_xmark::query(q), opts, &mut untimed, 0)?;
            let ran = pipeline::execute(catalog, &plan, opts, &mut untimed, 0)?;
            census.add(&plan, &ran.profile);
            plans.insert(q, plan);
        }
        Ok((census, plans))
    }

    pub fn report(&self, out: &mut Outcome) {
        let (p50, p90) = qerror_p50_p90(&self.estimates);
        for (name, v) in [
            ("compiler.ops", self.compiler_ops),
            ("opt.ops", self.opt_ops),
            ("opt.rownums", self.opt_rownums),
            ("opt.rules_fired", self.opt_rules_fired),
            ("opt.cost_reordered", self.cost_reordered),
            ("opt.cost_elided", self.cost_elided),
            ("algebra.phys_slots", self.phys_slots),
            ("engine.fused_ops", self.fused_ops),
            ("engine.rows", self.engine_rows),
        ] {
            out.put(name, v as f64, "count");
        }
        out.put("opt.qerror_p50", p50, "ratio");
        out.put("opt.qerror_p90", p90, "ratio");
    }
}

/// Engine time per Table 2 phase, keyed by the per-layer metric name.
pub fn phase_metric(phase: &str) -> &'static str {
    match phase {
        "path steps" => "engine.steps_ms",
        "atomization & arithmetic" => "engine.fun_ms",
        "join" => "engine.join_ms",
        "iter→seq reorder (%)" => "engine.rownum_ms",
        "node construction" => "engine.construct_ms",
        "aggregation" => "engine.aggr_ms",
        _ => "engine.other_ms",
    }
}

/// Report each traced layer's mean milliseconds per operation, the
/// span/wall reconciliation and the tracing overhead, checking both
/// against their bounds. `callers` is the number of closed-loop callers
/// that ran concurrently during `traced_wall`.
pub fn report_layers(
    out: &mut Outcome,
    tracer: &Tracer,
    ops: u64,
    traced_wall: Duration,
    callers: usize,
    overhead: f64,
) {
    let ops = ops.max(1) as f64;
    let busy_ns = traced_wall.as_nanos() as f64 * callers as f64;
    let mut spanned = 0u64;
    eprintln!("{:<22} {:>12} {:>8}", "layer span", "ms/op", "share");
    for (name, ns) in tracer.layer_totals() {
        spanned += ns;
        let ms = ns as f64 / 1e6 / ops;
        eprintln!(
            "{name:<22} {ms:>12.4} {:>7.1}%",
            100.0 * ns as f64 / busy_ns
        );
        out.put(layer_metric(name), ms, "ms");
    }
    let reconcile = spanned as f64 / busy_ns;
    out.put("trace.reconcile", reconcile, "ratio");
    out.put("trace.overhead", overhead, "ratio");
    if !(RECONCILE_BOUND.0..=RECONCILE_BOUND.1).contains(&reconcile) {
        out.problems.push(format!(
            "trace.reconcile {reconcile:.4} outside [{}, {}]: spans do not add up to the traced wall time",
            RECONCILE_BOUND.0, RECONCILE_BOUND.1
        ));
    }
    if !(OVERHEAD_BOUND.0..=OVERHEAD_BOUND.1).contains(&overhead) {
        out.problems.push(format!(
            "trace.overhead {overhead:.4} outside [{}, {}]: the traced run is not comparable to the untraced one",
            OVERHEAD_BOUND.0, OVERHEAD_BOUND.1
        ));
    }
}

/// Sum of layer spans over traced wall time (times concurrent callers).
const RECONCILE_BOUND: (f64, f64) = (0.90, 1.02);
/// Traced over untraced wall time per operation.
const OVERHEAD_BOUND: (f64, f64) = (0.80, 1.25);

/// Per-layer metric name of a span name.
fn layer_metric(span: &str) -> &'static str {
    match span {
        "xml.load" => "xml.load_ms",
        "xml.stats" => "xml.stats_ms",
        "xml.name_streams" => "xml.name_streams_ms",
        "frontend.parse" => "frontend.parse_ms",
        "frontend.normalize" => "frontend.normalize_ms",
        "compiler.compile" => "compiler.compile_ms",
        "opt.rewrite" => "opt.rewrite_ms",
        "opt.cost" => "opt.cost_ms",
        "algebra.lower" => "algebra.lower_ms",
        "core.prepare_hit" => "core.prepare_hit_ms",
        "engine.execute" => "engine.execute_ms",
        "xml.serialize" => "xml.serialize_ms",
        "core.teardown" => "core.teardown_ms",
        "xqc.roundtrip" => "xqc.roundtrip_ms",
        "xqd.load" => "xqd.load_ms",
        other => panic!("span `{other}` has no per-layer metric"),
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Restart the peak-RSS watermark, so the peak reported covers only
/// what runs after this call (not the reference computation). Freed heap
/// is handed back to the kernel first; otherwise the watermark would
/// restart from whatever the references left resident.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and has no
        // preconditions; it only returns free heap pages to the kernel.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_scale_takes_the_host_speed_out() {
        let r = REFERENCE_PROBE_MS;
        assert_eq!(host_scale(r, r, 1.0), 1.0);
        // A host twice as slow halves a fully sensitive timing...
        assert!((host_scale(2.0 * r, 2.0 * r, 1.0) - 0.5).abs() < 1e-12);
        // ...from the mean of the probes on either side of it...
        assert!((host_scale(r, 3.0 * r, 1.0) - 0.5).abs() < 1e-12);
        // ...and a less sensitive one by less.
        assert!((host_scale(2.0 * r, 2.0 * r, 0.5) - 0.5f64.sqrt()).abs() < 1e-12);
        assert_eq!(host_scale(2.0 * r, 2.0 * r, 0.0), 1.0);
    }
}
