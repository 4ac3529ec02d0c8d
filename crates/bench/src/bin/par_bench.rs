//! Intra-query parallel execution benchmark: wall-clock the XMark query
//! set at several worker-thread counts and emit `BENCH_par.json`.
//!
//! Usage:
//! `par-bench [--scale 0.01] [--runs 3] [--threads 1,2,4]
//!            [--queries 1..20] [--out BENCH_par.json]`
//!
//! For every query the serial run (`threads = 1`) is the reference: each
//! parallel run's rendered output must be byte-identical to it (the
//! engine's determinism contract), and the reported speedup is
//! `t_serial / t_parallel`. Parallelism is morsel-driven: only operator
//! inputs of at least 4096 rows are split across threads, so small
//! queries run serially at any thread count. The JSON records
//! `host_cores` and, per thread count, the geometric mean of the best
//! per-query wall times — on a 1-core host speedups near 1.0 (or
//! slightly below, from thread spawns) are the honest expectation; the
//! numbers are only meaningful relative to that field.

use exrquy::{QueryOptions, ResultItem, Session};
use exrquy_bench::report::{num, write};
use exrquy_bench::{best_of, fmt_bytes, xmark_session, Cli};
use exrquy_xmark::{query, query_name};
use exrquy_xqd::json::{obj, Value};

struct Cell {
    threads: usize,
    wall_ms: f64,
}

fn main() {
    let cli = Cli::new();
    let scale = cli.get("scale", 0.01_f64);
    let runs = cli.get("runs", 3_usize);
    let threads: Vec<usize> = cli
        .get("threads", String::from("1,2,4"))
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let queries = parse_queries(&cli.get("queries", String::from("1..20")));
    let out_path = cli.get("out", String::from("BENCH_par.json"));
    assert!(
        threads.contains(&1),
        "the thread list must include 1 (the serial reference)"
    );

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (mut session, bytes) = xmark_session(scale);
    eprintln!(
        "par-bench: scale {scale} ({}), {} nodes, host cores {host_cores}",
        fmt_bytes(bytes),
        session.store_nodes()
    );

    let mut rows: Vec<(String, Vec<Cell>)> = Vec::new();
    let mut identical = true;
    for &n in &queries {
        let q = query(n);
        let reference = rendered(&mut session, q, 1);
        let mut cells: Vec<Cell> = Vec::new();
        for &t in &threads {
            let output = rendered(&mut session, q, t);
            if t != 1 && output != reference {
                identical = false;
                eprintln!(
                    "  {}: threads={t} output DIVERGED from serial",
                    query_name(n)
                );
            }
            let opts = QueryOptions::order_indifferent().with_threads(t);
            let best = best_of(&mut session, q, &opts, runs)
                .unwrap_or_else(|e| panic!("{} at threads={t} failed: {e}", query_name(n)));
            cells.push(Cell {
                threads: t,
                wall_ms: best.as_secs_f64() * 1e3,
            });
        }
        let serial = cells.iter().find(|c| c.threads == 1).unwrap().wall_ms;
        let line: Vec<String> = cells
            .iter()
            .map(|c| {
                format!(
                    "t{} {:.2} ms (x{:.2})",
                    c.threads,
                    c.wall_ms,
                    serial / c.wall_ms.max(1e-9)
                )
            })
            .collect();
        eprintln!("  {:>4}: {}", query_name(n), line.join(", "));
        rows.push((query_name(n), cells));
    }

    let geomeans: Vec<(String, Value)> = threads
        .iter()
        .map(|&t| {
            let g = geomean_ms(&rows, t);
            eprintln!("  geomean t{t}: {g:.3} ms");
            (format!("t{t}"), num(g))
        })
        .collect();
    let report = render_report(scale, bytes, host_cores, runs, identical, geomeans, &rows);
    write(&out_path, &report);
    eprintln!(
        "wrote {out_path} ({} queries, serializations {})",
        rows.len(),
        if identical { "identical" } else { "DIVERGED" }
    );
    assert!(identical, "parallel output diverged from serial");
}

/// The byte-identity witness: full rendered output, order preserved.
fn rendered(session: &mut Session, q: &str, threads: usize) -> Vec<String> {
    let opts = QueryOptions::order_indifferent().with_threads(threads);
    let out = session.query_with(q, &opts).expect("query failed");
    out.items.iter().map(ResultItem::render).collect()
}

/// Geometric mean over queries of the best wall time at `threads`.
fn geomean_ms(rows: &[(String, Vec<Cell>)], threads: usize) -> f64 {
    let logs: Vec<f64> = rows
        .iter()
        .filter_map(|(_, cells)| cells.iter().find(|c| c.threads == threads))
        .map(|c| c.wall_ms.max(1e-9).ln())
        .collect();
    (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp()
}

fn render_report(
    scale: f64,
    bytes: usize,
    host_cores: usize,
    runs: usize,
    identical: bool,
    geomeans: Vec<(String, Value)>,
    rows: &[(String, Vec<Cell>)],
) -> Value {
    let queries: Vec<Value> = rows
        .iter()
        .map(|(name, cells)| {
            let serial = cells.iter().find(|c| c.threads == 1).unwrap().wall_ms;
            let mut pairs = vec![("query", Value::Str(name.clone()))];
            let cell_values: Vec<(String, Value)> = cells
                .iter()
                .map(|c| {
                    (
                        format!("t{}", c.threads),
                        obj(vec![
                            ("wall_ms", num(c.wall_ms)),
                            ("speedup", num(serial / c.wall_ms.max(1e-9))),
                        ]),
                    )
                })
                .collect();
            for (k, v) in &cell_values {
                pairs.push((k.as_str(), v.clone()));
            }
            obj(pairs)
        })
        .collect();
    obj(vec![
        ("bench", Value::Str("intra-query-parallelism".into())),
        ("scale", num(scale)),
        ("doc_bytes", Value::Int(bytes as i64)),
        ("host_cores", Value::Int(host_cores as i64)),
        ("runs_per_cell", Value::Int(runs as i64)),
        ("identical_serializations", Value::Bool(identical)),
        ("geomean_ms", Value::Object(geomeans.into_iter().collect())),
        ("queries", Value::Array(queries)),
    ])
}

fn parse_queries(spec: &str) -> Vec<usize> {
    if let Some((a, b)) = spec.split_once("..") {
        let a: usize = a.parse().unwrap_or(1);
        let b: usize = b.parse().unwrap_or(20);
        (a..=b).collect()
    } else {
        spec.split(',')
            .filter_map(|s| s.trim().parse().ok())
            .collect()
    }
}
