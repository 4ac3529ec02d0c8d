//! The two in-process workloads over XMark Q1–Q20, one caller, serial
//! engine (`threads = 1`, the default every caller uses).
//!
//! * `oneshot` — every operation is a cold run: a fresh `Session`,
//!   `load_document`, `prepare` (a plan-cache miss), `execute`, `to_xml`,
//!   then the session is dropped.
//! * `warm` — the document is loaded once during set-up and an untimed
//!   pass fills the plan cache and the lazy indexes; every operation is
//!   `prepare` (a cache hit), `execute` and `to_xml`.
//!
//! The untraced loop drives the `Session` API and gives the end-to-end
//! metrics. The traced loop rebuilds the same path from module calls
//! (see `pipeline`), spans each call, and must produce byte-identical
//! output.

use crate::common::{
    closed_loop, median_setup, peak_rss_mb, phase_metric, report_layers, reset_peak_rss, Census,
    Outcome, Timed, DOC_URL,
};
use crate::gate::{self, Reference};
use crate::pipeline::{self, Executed, ModPlan};
use crate::trace::Tracer;
use exrquy::engine::Profile;
use exrquy::xml::rng::SmallRng;
use exrquy::{QueryOptions, QueryOutput, Session};
use exrquy_xmark::{generate, query, XmarkConfig};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

pub const ONESHOT_SCALE: f64 = 0.005;
pub const WARM_SCALE: f64 = 0.1;
/// Set-up repetitions whose median is `setup_s`.
const ONESHOT_SETUP_REPS: usize = 21;
const WARM_SETUP_REPS: usize = 9;
/// Host sensitivity of each workload (see `common::host_scale`): of the
/// exponents tried (0, 0.5, 0.6, …, 1.0) on five 30-second runs of each,
/// the one that gave the smallest run-to-run spread of the scaled pass
/// times. Regressing log pass time on log probe time over all their
/// passes gave 0.90 and 0.65, slopes that the probe's own noise biases
/// low.
const ONESHOT_SENSITIVITY: f64 = 1.0;
const WARM_SENSITIVITY: f64 = 0.7;
/// Every pass covers all twenty queries; at least this many passes run
/// so every query has several samples.
const MIN_PASSES: usize = 5;

fn suite() -> Vec<usize> {
    (1..=20).collect()
}

fn loaded(xml: &str) -> Result<Session, String> {
    let mut s = Session::new();
    s.load_document(DOC_URL, xml).map_err(|e| e.to_string())?;
    Ok(s)
}

/// One pass of prepare + execute + serialize over every query.
fn pass(session: &Session, opts: &QueryOptions) -> Result<(), String> {
    for q in suite() {
        let plan = session.prepare(query(q), opts).map_err(|e| e.to_string())?;
        session.execute(&plan).map_err(|e| e.to_string())?.to_xml();
    }
    Ok(())
}

/// Gate an in-process result, reporting failures on stderr.
fn gated(
    refs: &BTreeMap<usize, Reference>,
    q: usize,
    res: Result<(String, QueryOutput), exrquy::Error>,
) -> bool {
    match res {
        Ok((xml, out)) => {
            let ok = refs[&q].accepts(&xml, &out.items);
            if !ok {
                eprintln!("xmbench: Q{q}: wrong output");
            }
            ok
        }
        Err(e) => {
            eprintln!("xmbench: Q{q}: {e}");
            false
        }
    }
}

/// Traced-path identity: the module pipeline's output must equal the
/// `Session` path's byte for byte.
fn identical(refs: &BTreeMap<usize, Reference>, q: usize, res: &Result<Executed, String>) -> bool {
    match res {
        Ok(ran) if refs[&q].verdict.is_ok() && ran.xml == refs[&q].expect => true,
        Ok(_) => {
            eprintln!("xmbench: Q{q}: traced path output differs from the Session path");
            false
        }
        Err(e) => {
            eprintln!("xmbench: Q{q}: traced path failed: {e}");
            false
        }
    }
}

/// Inputs of one in-process workload run.
struct Inputs {
    xml: String,
    opts: QueryOptions,
    refs: BTreeMap<usize, Reference>,
    rng: SmallRng,
}

/// Generate the document, compute the references (untimed), then restart
/// the peak-RSS watermark.
fn inputs(scale: f64, seed: u64) -> Result<Inputs, String> {
    let xml = generate(&XmarkConfig { scale, seed });
    let opts = QueryOptions::default();
    let refs = gate::references(&loaded(&xml)?, &suite(), &opts, scale, seed, gate::PINNED);
    for r in refs.values() {
        if let Err(e) = &r.verdict {
            eprintln!("xmbench: gate: {e}");
        }
    }
    reset_peak_rss();
    Ok(Inputs {
        xml,
        opts,
        refs,
        rng: SmallRng::seed_from_u64(seed ^ 0x5eed_5b1f_f1e5),
    })
}

fn end_to_end(out: &mut Outcome, timed: &Timed, setup_s: f64) {
    timed.report_suite(out);
    out.put("setup_s", setup_s, "s");
    out.put("peak_rss_mb", peak_rss_mb(), "MB");
    out.attempted = timed.ops;
    out.failed = timed.failed;
}

/// Add one execution's engine time per Table 2 phase.
fn add_phases(phases: &mut BTreeMap<&'static str, f64>, plan: &ModPlan, profile: &Profile) {
    for (phase, d) in profile.by_phase(&plan.dag) {
        *phases.entry(phase_metric(phase)).or_default() += d.as_secs_f64() * 1e3;
    }
}

/// Report the traced half of a run: layer means, engine phases, census,
/// reconciliation and overhead.
fn traced_report(
    out: &mut Outcome,
    untraced: &Timed,
    traced: &Timed,
    tracer: Tracer,
    phases: &BTreeMap<&'static str, f64>,
    census: &Census,
) {
    // Traced over untraced time per operation (the passes interleave).
    let overhead = untraced.qps() / traced.qps();
    report_layers(out, &tracer, traced.ops, traced.wall, 1, overhead);
    for (name, ms) in phases {
        out.put(name, ms / traced.ops.max(1) as f64, "ms");
    }
    census.report(out);
    out.attempted = untraced.ops + traced.ops;
    out.failed = untraced.failed + traced.failed;
    out.spans = Some(tracer);
}

fn cold_run(
    xml: &str,
    q: usize,
    opts: &QueryOptions,
) -> Result<(String, QueryOutput), exrquy::Error> {
    let mut session = Session::new();
    session.load_document(DOC_URL, xml)?;
    let plan = session.prepare(query(q), opts)?;
    let out = session.execute(&plan)?;
    let xml = out.to_xml();
    drop(plan);
    drop(session);
    Ok((xml, out))
}

fn cold_traced(
    xml: &str,
    q: usize,
    opts: &QueryOptions,
    t: &mut Tracer,
    req: u64,
) -> Result<Executed, String> {
    let op = t.enter("op", req);
    let res = (|| {
        let session = t.time("xml.load", req, || loaded(xml))?;
        let catalog = Arc::clone(session.catalog());
        pipeline::build_lazy_indexes(&catalog, DOC_URL, t, req);
        let plan = pipeline::compile(&catalog, query(q), opts, t, req)?;
        let ran = pipeline::execute(&catalog, &plan, opts, t, req)?;
        t.time("core.teardown", req, || {
            drop(plan);
            drop(catalog);
            drop(session);
        });
        Ok(ran)
    })();
    t.exit(op);
    res
}

pub fn oneshot(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let Inputs {
        xml,
        opts,
        refs,
        mut rng,
    } = inputs(ONESHOT_SCALE, seed)?;
    let (setup_s, ready) = median_setup(ONESHOT_SETUP_REPS, ONESHOT_SENSITIVITY, || {
        pass(&loaded(&xml)?, &opts)
    });
    ready?;
    let mut untraced = |q: usize, _: u64| {
        let t0 = Instant::now();
        let res = cold_run(&xml, q, &opts);
        (t0.elapsed(), gated(&refs, q, res))
    };
    let mut out = Outcome::default();
    if !trace {
        let timed = closed_loop(
            &suite(),
            &mut rng,
            seconds,
            MIN_PASSES,
            ONESHOT_SENSITIVITY,
            &mut [&mut untraced],
        );
        end_to_end(&mut out, &timed[0], setup_s);
        return Ok(out);
    }
    let (census, plans) = Census::of(loaded(&xml)?.catalog(), &suite(), &opts)?;
    let mut tracer = Tracer::new(Instant::now());
    let mut phases = BTreeMap::new();
    let mut traced = |q: usize, req: u64| {
        let t0 = Instant::now();
        let res = cold_traced(&xml, q, &opts, &mut tracer, req);
        let dt = t0.elapsed();
        if let Ok(ran) = &res {
            add_phases(&mut phases, &plans[&q], &ran.profile);
        }
        (dt, identical(&refs, q, &res))
    };
    let arms = closed_loop(
        &suite(),
        &mut rng,
        seconds,
        MIN_PASSES,
        ONESHOT_SENSITIVITY,
        &mut [&mut untraced, &mut traced],
    );
    traced_report(&mut out, &arms[0], &arms[1], tracer, &phases, &census);
    Ok(out)
}

fn warm_run(
    session: &Session,
    q: usize,
    opts: &QueryOptions,
) -> Result<(String, QueryOutput), exrquy::Error> {
    let plan = session.prepare(query(q), opts)?;
    let out = session.execute(&plan)?;
    Ok((out.to_xml(), out))
}

fn warm_traced(
    session: &Session,
    plan: &ModPlan,
    q: usize,
    opts: &QueryOptions,
    t: &mut Tracer,
    req: u64,
) -> Result<Executed, String> {
    let op = t.enter("op", req);
    let res = (|| {
        let prepared = t
            .time("core.prepare_hit", req, || session.prepare(query(q), opts))
            .map_err(|e| e.to_string())?;
        let ran = pipeline::execute(session.catalog(), plan, opts, t, req)?;
        drop(prepared);
        Ok(ran)
    })();
    t.exit(op);
    res
}

pub fn warm(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let Inputs {
        xml,
        opts,
        refs,
        mut rng,
    } = inputs(WARM_SCALE, seed)?;
    let (setup_s, session) = median_setup(WARM_SETUP_REPS, WARM_SENSITIVITY, || {
        let session = loaded(&xml)?;
        pass(&session, &opts)?;
        Ok::<_, String>(session)
    });
    let session = session?;
    let mut untraced = |q: usize, _: u64| {
        let t0 = Instant::now();
        let res = warm_run(&session, q, &opts);
        (t0.elapsed(), gated(&refs, q, res))
    };
    let mut out = Outcome::default();
    if !trace {
        let timed = closed_loop(
            &suite(),
            &mut rng,
            seconds,
            MIN_PASSES,
            WARM_SENSITIVITY,
            &mut [&mut untraced],
        );
        end_to_end(&mut out, &timed[0], setup_s);
        return Ok(out);
    }
    let (census, plans) = Census::of(session.catalog(), &suite(), &opts)?;
    let mut tracer = Tracer::new(Instant::now());
    let mut phases = BTreeMap::new();
    let mut traced = |q: usize, req: u64| {
        let t0 = Instant::now();
        let res = warm_traced(&session, &plans[&q], q, &opts, &mut tracer, req);
        let dt = t0.elapsed();
        if let Ok(ran) = &res {
            add_phases(&mut phases, &plans[&q], &ran.profile);
        }
        (dt, identical(&refs, q, &res))
    };
    let arms = closed_loop(
        &suite(),
        &mut rng,
        seconds,
        MIN_PASSES,
        WARM_SENSITIVITY,
        &mut [&mut untraced, &mut traced],
    );
    traced_report(&mut out, &arms[0], &arms[1], tracer, &phases, &census);
    Ok(out)
}
