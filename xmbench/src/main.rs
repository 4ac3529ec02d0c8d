//! Layered XMark benchmark for the eXrQuy reproduction.
//!
//! ```text
//! cargo run --release --manifest-path xmbench/Cargo.toml -- \
//!     --workload oneshot|warm|serve|all [--seed 42] [--seconds 10] [--trace 0|1]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` measures for
//! half the time untraced, then for half the time with a span around
//! every call into a module, and reports the per-layer metrics, the
//! reconciliation of spans with wall time, and the tracing overhead; the
//! spans are written to `xmbench/out/`. Every operation's output passes
//! the correctness gate (see `gate`). The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `--write-digests` prints the pinned-digest lines of `digests.txt`.
//! See `README.md` for the workloads and what each metric times.

mod common;
mod gate;
mod pipeline;
mod serve;
mod stats;
mod suite;
mod trace;

use common::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, reported with `--trace 0` on every workload.
const END_TO_END: &[&str] = &[
    "qps",
    "geomean_ms",
    "p50_ms",
    "p95_ms",
    "setup_s",
    "peak_rss_mb",
    "ok_frac",
];

/// Per-layer metrics, reported with `--trace 1` on every workload. A
/// layer off a workload's path reports 0: no time spent, no work done.
const PER_LAYER: &[(&str, &str)] = &[
    ("xml.load_ms", "ms"),
    ("xml.stats_ms", "ms"),
    ("xml.name_streams_ms", "ms"),
    ("frontend.parse_ms", "ms"),
    ("frontend.normalize_ms", "ms"),
    ("compiler.compile_ms", "ms"),
    ("opt.rewrite_ms", "ms"),
    ("opt.cost_ms", "ms"),
    ("algebra.lower_ms", "ms"),
    ("core.prepare_hit_ms", "ms"),
    ("engine.execute_ms", "ms"),
    ("engine.steps_ms", "ms"),
    ("engine.fun_ms", "ms"),
    ("engine.join_ms", "ms"),
    ("engine.rownum_ms", "ms"),
    ("engine.construct_ms", "ms"),
    ("engine.aggr_ms", "ms"),
    ("engine.other_ms", "ms"),
    ("xml.serialize_ms", "ms"),
    ("core.teardown_ms", "ms"),
    ("compiler.ops", "count"),
    ("opt.ops", "count"),
    ("opt.rownums", "count"),
    ("opt.rules_fired", "count"),
    ("opt.cost_reordered", "count"),
    ("opt.cost_elided", "count"),
    ("opt.qerror_p50", "ratio"),
    ("opt.qerror_p90", "ratio"),
    ("algebra.phys_slots", "count"),
    ("engine.fused_ops", "count"),
    ("engine.rows", "count"),
    ("xqc.roundtrip_ms", "ms"),
    ("xqd.overhead_ms", "ms"),
    ("xqd.load_ms", "ms"),
    ("xqd.queue_peak", "count"),
    ("xqd.plan_cache_hit_ratio", "ratio"),
    ("xqd.shed", "count"),
    ("xqd.failed", "count"),
    ("xqc.retries", "count"),
    ("trace.reconcile", "ratio"),
    ("trace.overhead", "ratio"),
];

const WORKLOADS: &[&str] = &["oneshot", "warm", "serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: gate::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Run each workload in its own child process, so no workload's memory
/// peak carries over into another's.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("xmbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let mut child_args: Vec<String> = raw.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("--workload was parsed")
            + 1;
        child_args[at] = (*w).to_string();
        match std::process::Command::new(&exe).args(&child_args).status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("xmbench: {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_digests() -> ExitCode {
    use exrquy_xmark::{generate, XmarkConfig};
    for scale in [suite::ONESHOT_SCALE, suite::WARM_SCALE] {
        let xml = generate(&XmarkConfig {
            scale,
            seed: gate::DEFAULT_SEED,
        });
        let mut s = exrquy::Session::new();
        s.load_document(common::DOC_URL, &xml)
            .expect("generated XMark document parses");
        for line in gate::digest_lines(&s, scale) {
            println!("{line}");
        }
    }
    ExitCode::SUCCESS
}

fn spans_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-seed{seed}.jsonl"))
}

/// Print the metrics, one per line, then the JSON result line.
fn report(args: &Args, mut out: Outcome) -> bool {
    let names: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        let ok_frac = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
        out.put("ok_frac", ok_frac, "frac");
        END_TO_END
            .iter()
            .map(|n| {
                let unit = out.metrics.iter().find(|m| m.0 == *n).map_or("", |m| m.2);
                (*n, unit)
            })
            .collect()
    };
    let mut json = Vec::new();
    for (name, unit) in names {
        let value = out.metrics.iter().find(|m| m.0 == name).map(|m| m.1);
        let value = match value {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                out.problems.push(format!("{name} is {v}"));
                0.0
            }
            None if args.trace => 0.0,
            None => {
                out.problems.push(format!("{name} was not measured"));
                0.0
            }
        };
        println!("{} {name} {value} {unit}", args.workload);
        json.push(format!(r#""{name}":{{"value":{value:?},"unit":"{unit}"}}"#));
    }
    println!(
        "{} fail_frac {} ({} of {} operations)",
        args.workload,
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    if let Some(spans) = &out.spans {
        let path = spans_path(&args.workload, args.seed);
        match spans.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "xmbench: {} spans written to {}",
                spans.spans().len(),
                path.display()
            ),
            Err(e) => out
                .problems
                .push(format!("writing {}: {e}", path.display())),
        }
    }
    for p in &out.problems {
        eprintln!("xmbench: FAIL: {p}");
    }
    let correct = out.failed == 0 && out.problems.is_empty() && out.attempted > 0;
    println!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        out.attempted.max(1),
        out.failed,
        json.join(",")
    );
    correct
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--write-digests") {
        return write_digests();
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xmbench: {e}");
            return ExitCode::from(64);
        }
    };
    if args.workload == "all" {
        return run_all(&raw);
    }
    let result = match args.workload.as_str() {
        "oneshot" => suite::oneshot(args.seed, args.seconds, args.trace),
        "warm" => suite::warm(args.seed, args.seconds, args.trace),
        _ => serve::serve(args.seed, args.seconds, args.trace),
    };
    match result {
        Ok(out) => {
            if report(&args, out) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xmbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
