//! The `serve` workload: an in-process `xqd` daemon with one worker per
//! core, driven by one blocking `xqc` client per core in a closed loop
//! (each client waits for its reply before sending again). Clients run
//! with retries off and send XMark Q1, Q6 and Q13 round-robin against
//! the scale-0.005 document; client 0 also hot-reloads the same document
//! every `RELOAD_EVERY`th request, so `xml` load and plan-cache misses
//! run beside reads.
//!
//! After each loop the client-side tallies are reconciled with the
//! daemon's `stats` counters; any difference fails the run.

use crate::common::{peak_rss_mb, report_layers, reset_peak_rss, Census, Outcome, DOC_URL};
use crate::gate::{self, Reference};
use crate::stats::{geomean, median, quantile};
use crate::trace::Tracer;
use exrquy::diag::ErrorCode;
use exrquy::{QueryOptions, Session};
use exrquy_xmark::{generate, query, XmarkConfig};
use exrquy_xqc::{Client, ClientError, Config};
use exrquy_xqd::json::Value;
use exrquy_xqd::{spawn, ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub const SERVE_SCALE: f64 = 0.005;
pub const SERVE_QUERIES: [usize; 3] = [1, 6, 13];
/// Client 0 sends a hot reload instead of a query every this many
/// requests.
const RELOAD_EVERY: u64 = 50;
const SETUP_REPS: usize = 5;
/// In-process executions per query for the engine-side median.
const INPROC_REPS: usize = 200;

/// Closed-loop callers and daemon workers: one per core.
fn callers() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

fn client(addr: &str, seed: u64) -> Client {
    Client::connect(Config {
        max_retries: 0,
        read_timeout: Duration::from_secs(30),
        jitter_seed: seed,
        ..Config::new(addr)
    })
}

/// Spawn a daemon over a fresh session holding `xml`.
fn start(xml: &str) -> Result<ServerHandle, String> {
    let mut session = Session::new();
    session
        .load_document(DOC_URL, xml)
        .map_err(|e| e.to_string())?;
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: callers(),
        ..ServerConfig::default()
    };
    spawn(cfg, session).map_err(|e| format!("spawn xqd: {e}"))
}

/// Set-up as a user pays it: spawn, load, and a first pass of the mix.
fn bring_up(xml: &str) -> Result<ServerHandle, String> {
    let handle = start(xml)?;
    let mut c = client(&handle.addr().to_string(), 0);
    for q in SERVE_QUERIES {
        c.query(query(q))
            .map_err(|e| format!("first pass Q{q}: {e}"))?;
    }
    Ok(handle)
}

/// One client's view of a loop.
#[derive(Default)]
struct Tally {
    /// Round-trip milliseconds per query number (reloads excluded).
    per_query: BTreeMap<usize, Vec<f64>>,
    reload_ms: Vec<f64>,
    attempted: u64,
    /// Queries answered `ok:true` with the right result.
    ok: u64,
    /// Queries answered `ok:true` with a wrong result.
    wrong: u64,
    reloads_ok: u64,
    shed: u64,
    /// Typed server errors other than sheds.
    server_errors: u64,
    transport_errors: u64,
    retries: u64,
}

impl Tally {
    fn failed(&self) -> u64 {
        self.wrong + self.shed + self.server_errors + self.transport_errors
    }

    fn merge(&mut self, o: Tally) {
        for (q, v) in o.per_query {
            self.per_query.entry(q).or_default().extend(v);
        }
        self.reload_ms.extend(o.reload_ms);
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.wrong += o.wrong;
        self.reloads_ok += o.reloads_ok;
        self.shed += o.shed;
        self.server_errors += o.server_errors;
        self.transport_errors += o.transport_errors;
        self.retries += o.retries;
    }

    fn note_error(&mut self, e: &ClientError) {
        match e {
            ClientError::Server {
                code: ErrorCode::EXRQ0006 | ErrorCode::EXRQ0007 | ErrorCode::EXRQ0008,
                ..
            } => self.shed += 1,
            ClientError::Server { .. } => self.server_errors += 1,
            _ => self.transport_errors += 1,
        }
        eprintln!("xmbench: serve: {e}");
    }

    fn latencies(&self) -> Vec<f64> {
        self.per_query.values().flatten().copied().collect()
    }
}

/// One closed-loop client: round-robin over the mix from `offset`, a
/// reload every `RELOAD_EVERY`th request on client 0.
fn run_client(
    id: usize,
    addr: &str,
    xml: &str,
    refs: &BTreeMap<usize, Reference>,
    until: Instant,
    offset: usize,
    mut tracer: Option<&mut Tracer>,
) -> Tally {
    let mut c = client(addr, 0x5e7e + id as u64);
    let mut tally = Tally::default();
    let root = tracer.as_mut().map(|t| t.enter("client", id as u64));
    let mut n: u64 = 0;
    let mut next = offset;
    while Instant::now() < until {
        n += 1;
        let req = ((id as u64) << 32) | n;
        tally.attempted += 1;
        if id == 0 && n.is_multiple_of(RELOAD_EVERY) {
            let span = tracer.as_mut().map(|t| t.enter("xqd.load", req));
            let t0 = Instant::now();
            let res = c.load(DOC_URL, xml);
            let dt = t0.elapsed();
            if let (Some(t), Some(s)) = (tracer.as_mut(), span) {
                t.exit(s);
            }
            tally.reload_ms.push(dt.as_secs_f64() * 1e3);
            match res {
                Ok(()) => tally.reloads_ok += 1,
                Err(e) => tally.note_error(&e),
            }
            continue;
        }
        let q = SERVE_QUERIES[next % SERVE_QUERIES.len()];
        next += 1;
        let span = tracer.as_mut().map(|t| t.enter("xqc.roundtrip", req));
        let t0 = Instant::now();
        let res = c.query(query(q));
        let dt = t0.elapsed();
        if let (Some(t), Some(s)) = (tracer.as_mut(), span) {
            t.exit(s);
        }
        tally
            .per_query
            .entry(q)
            .or_default()
            .push(dt.as_secs_f64() * 1e3);
        match res {
            Ok(xml) if refs[&q].accepts_xml(&xml) => tally.ok += 1,
            Ok(_) => {
                eprintln!("xmbench: serve: Q{q}: wrong output");
                tally.wrong += 1
            }
            Err(e) => tally.note_error(&e),
        }
    }
    if let (Some(t), Some(r)) = (tracer.as_mut(), root) {
        t.exit(r);
    }
    tally.retries = c.stats().retries;
    tally
}

/// The daemon's counters, read through the protocol's `stats` op.
fn daemon_stats(addr: &str) -> Result<BTreeMap<String, i64>, String> {
    let v = client(addr, 1)
        .server_stats()
        .map_err(|e| format!("stats op: {e}"))?;
    let Value::Object(fields) = v else {
        return Err("stats op: not an object".into());
    };
    Ok(fields
        .into_iter()
        .filter_map(|(k, v)| v.as_i64().map(|i| (k, i)))
        .collect())
}

/// Compare the clients' tallies with the change in the daemon's counters
/// over the loop (`after` was read by one more `stats` request).
fn reconcile(
    t: &Tally,
    before: &BTreeMap<String, i64>,
    after: &BTreeMap<String, i64>,
) -> Vec<String> {
    let d = |k: &str| after.get(k).copied().unwrap_or(0) - before.get(k).copied().unwrap_or(0);
    let shed = d("shed_overload") + d("shed_deadline") + d("shed_draining") + d("drained");
    let checks = [
        ("received", d("received"), t.attempted as i64 + 1),
        (
            "completed",
            d("completed"),
            (t.ok + t.wrong + t.reloads_ok) as i64,
        ),
        ("failed", d("failed"), t.server_errors as i64),
        ("shed", shed, t.shed as i64),
        ("loads", d("loads"), t.reloads_ok as i64),
        ("crashed", d("crashed"), 0),
        ("transport errors", 0, t.transport_errors as i64),
    ];
    checks
        .iter()
        .filter(|(_, daemon, client)| daemon != client)
        .map(|(name, daemon, client)| {
            format!("serve reconciliation: {name}: daemon {daemon}, clients {client}")
        })
        .collect()
}

/// Run every client until `seconds` pass; returns the merged tally, the
/// wall time, the merged spans (when traced) and reconciliation problems.
fn run_loop(
    addr: &str,
    xml: &str,
    refs: &BTreeMap<usize, Reference>,
    seconds: f64,
    seed: u64,
    traced: bool,
) -> Result<(Tally, Duration, Option<Tracer>, Vec<String>), String> {
    let before = daemon_stats(addr)?;
    let n = callers();
    let epoch = Instant::now();
    let until = epoch + Duration::from_secs_f64(seconds);
    let mut tracers: Vec<Tracer> = (0..n).map(|_| Tracer::new(epoch)).collect();
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = tracers
            .iter_mut()
            .enumerate()
            .map(|(id, tracer)| {
                let offset = (seed as usize).wrapping_add(id);
                scope.spawn(move || {
                    run_client(id, addr, xml, refs, until, offset, traced.then_some(tracer))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = epoch.elapsed();
    let mut tally = Tally::default();
    for t in tallies {
        tally.merge(t);
    }
    let after = daemon_stats(addr)?;
    let mut problems = reconcile(&tally, &before, &after);
    if after.get("queue_depth") != Some(&0) {
        problems.push("serve reconciliation: queue not empty after the loop".into());
    }
    let spans = traced.then(|| {
        let mut all = Tracer::new(epoch);
        for t in tracers {
            all.absorb(t);
        }
        all
    });
    Ok((tally, wall, spans, problems))
}

pub fn serve(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let xml = generate(&XmarkConfig {
        scale: SERVE_SCALE,
        seed,
    });
    let opts = QueryOptions::default();
    let mut reference = Session::new();
    reference
        .load_document(DOC_URL, &xml)
        .map_err(|e| e.to_string())?;
    let refs = gate::references(
        &reference,
        &SERVE_QUERIES,
        &opts,
        SERVE_SCALE,
        seed,
        gate::PINNED,
    );
    for r in refs.values() {
        if let Err(e) = &r.verdict {
            eprintln!("xmbench: gate: {e}");
        }
    }
    reset_peak_rss();

    // Set-up, repeated; every daemon but the last is shut down untimed.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut daemon = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = daemon.take() {
            ServerHandle::shutdown(old);
        }
        let t0 = Instant::now();
        daemon = Some(bring_up(&xml)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("at least one set-up");
    let addr = daemon.addr().to_string();

    let result = measure(&addr, &xml, &refs, &reference, &opts, seed, seconds, trace);
    let last = daemon.shutdown();
    let mut out = result?;
    if !last.reconciles() {
        out.problems.push(format!(
            "serve reconciliation: daemon ledger does not balance: {last:?}"
        ));
    }
    if !trace {
        out.put("setup_s", median(&setups), "s");
        out.put("peak_rss_mb", peak_rss_mb(), "MB");
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn measure(
    addr: &str,
    xml: &str,
    refs: &BTreeMap<usize, Reference>,
    reference: &Session,
    opts: &QueryOptions,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let untraced_secs = if trace { seconds / 2.0 } else { seconds };
    let (tally, wall, _, problems) = run_loop(addr, xml, refs, untraced_secs, seed, false)?;
    out.problems.extend(problems);
    out.attempted = tally.attempted;
    out.failed = tally.failed();
    if !trace {
        let medians: Vec<f64> = tally.per_query.values().map(|v| median(v)).collect();
        let lat = tally.latencies();
        out.put("qps", tally.attempted as f64 / wall.as_secs_f64(), "1/s");
        out.put("geomean_ms", geomean(&medians), "ms");
        out.put("p50_ms", quantile(&lat, 0.5), "ms");
        out.put("p95_ms", quantile(&lat, 0.95), "ms");
        return Ok(out);
    }

    let (traced, traced_wall, spans, problems) =
        run_loop(addr, xml, refs, seconds / 2.0, seed, true)?;
    out.problems.extend(problems);
    let tracer = spans.expect("traced loop records spans");
    let per_op = |t: &Tally, w: Duration| w.as_secs_f64() / t.attempted.max(1) as f64;
    let overhead = per_op(&traced, traced_wall) / per_op(&tally, wall);
    report_layers(
        &mut out,
        &tracer,
        traced.attempted,
        traced_wall,
        callers(),
        overhead,
    );
    out.spans = Some(tracer);

    // The engine's share: the same mix executed in process, as the
    // daemon's worker does it (prepare hit + execute + serialize).
    let mut inproc = Vec::with_capacity(INPROC_REPS * SERVE_QUERIES.len());
    for _ in 0..INPROC_REPS {
        for q in SERVE_QUERIES {
            let t0 = Instant::now();
            let plan = reference
                .prepare(query(q), opts)
                .map_err(|e| e.to_string())?;
            let xml = reference
                .execute(&plan)
                .map_err(|e| e.to_string())?
                .to_xml();
            inproc.push(t0.elapsed().as_secs_f64() * 1e3);
            if !refs[&q].accepts_xml(&xml) {
                return Err(format!("in-process Q{q}: wrong output"));
            }
        }
    }
    let roundtrip = median(&traced.latencies());
    out.put("xqc.roundtrip_ms", roundtrip, "ms");
    out.put("xqd.overhead_ms", roundtrip - median(&inproc), "ms");
    if !traced.reload_ms.is_empty() {
        let reloads = traced.reload_ms.iter().sum::<f64>() / traced.reload_ms.len() as f64;
        out.put("xqd.load_ms", reloads, "ms");
    }
    let stats = daemon_stats(addr)?;
    let stat = |k: &str| stats.get(k).copied().unwrap_or(0) as f64;
    let lookups = stat("plan_cache_hits") + stat("plan_cache_misses");
    out.put("xqd.queue_peak", stat("queue_peak"), "count");
    out.put(
        "xqd.plan_cache_hit_ratio",
        if lookups > 0.0 {
            stat("plan_cache_hits") / lookups
        } else {
            0.0
        },
        "ratio",
    );
    out.put("xqd.shed", (tally.shed + traced.shed) as f64, "count");
    out.put(
        "xqd.failed",
        (tally.server_errors + traced.server_errors) as f64,
        "count",
    );
    out.put(
        "xqc.retries",
        (tally.retries + traced.retries) as f64,
        "count",
    );
    let (census, _) = Census::of(reference.catalog(), &SERVE_QUERIES, opts)?;
    census.report(&mut out);
    out.attempted += traced.attempted;
    out.failed += traced.failed();
    Ok(out)
}
