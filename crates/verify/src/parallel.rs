//! Serial/parallel determinism differential: the acceptance harness for
//! intra-query parallel execution.
//!
//! The engine's contract is stronger than bag equality: a query run
//! with `threads = N` must produce a *byte-identical* serialization to
//! the serial run — same items, same order, same rendered text — because
//! morsel kernels concatenate partial results in morsel order and
//! operators, node constructors included, run one at a time in plan
//! order on the owning thread. This module checks that contract over
//! two corpora:
//!
//! * the XMark benchmark queries over a seeded generated document, and
//! * a stream of fuzz-generated (document, query) cells from the
//!   grammar-driven generator, under both the ordered and unordered
//!   profiles.
//!
//! Comparison is exact sequence equality of rendered items — *not* the
//! bag equivalence the unordered mode would grant — so any
//! parallelism-introduced reordering is a failure even where the language
//! semantics would forgive it.

use crate::fuzz::{cell_rng, gen_doc, gen_query, FuzzProfile, FUZZ_DOC_URL};
use exrquy::engine::StepAlgo;
use exrquy::frontend::pretty;
use exrquy::{QueryOptions, ResultItem, Session};
use exrquy_xmark::{generate, query, XmarkConfig, ALL_QUERIES};
use std::fmt;

/// Parameters for a serial/parallel determinism run.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// XMark scale factor for the generated document.
    pub scale: f64,
    /// Generator seed (XMark document and fuzz stream).
    pub seed: u64,
    /// Worker-thread counts to compare against the serial reference.
    pub threads: Vec<usize>,
    /// 1-based XMark query numbers to run (defaults to all 20).
    pub queries: Vec<usize>,
    /// Step algorithms the XMark corpus runs under. The first entry's
    /// serial run is the cross-algorithm reference: every algorithm must
    /// render identically before parallelism even enters the picture
    /// (staircase join and the name-stream scan produce the same
    /// document-order node sets).
    pub step_algos: Vec<StepAlgo>,
    /// Fuzz-generated (document, query) cells per profile on top of the
    /// XMark set.
    pub fuzz_iters: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            scale: 0.0025,
            seed: 42,
            threads: vec![2, 4],
            queries: (1..=ALL_QUERIES.len()).collect(),
            step_algos: vec![StepAlgo::Staircase],
            fuzz_iters: 25,
        }
    }
}

/// Outcome of a determinism run.
#[derive(Debug)]
pub struct ParallelReport {
    /// (query, thread-count) cells compared.
    pub cells: usize,
    /// Cells where the serial arm errored (engine limitation, not a
    /// determinism verdict) and the parallel arm errored likewise.
    pub skipped: usize,
    /// Divergence descriptions; empty on success.
    pub mismatches: Vec<String>,
}

impl ParallelReport {
    /// Every compared cell byte-identical?
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }
}

impl fmt::Display for ParallelReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "serial/parallel determinism: {} cells, {} skipped, {} mismatch(es)",
            self.cells,
            self.skipped,
            self.mismatches.len()
        )?;
        for m in &self.mismatches {
            write!(f, "\n  {m}")?;
        }
        Ok(())
    }
}

/// The full rendered output, order preserved — the byte-identity witness.
fn rendered(items: &[ResultItem]) -> Vec<String> {
    items.iter().map(ResultItem::render).collect()
}

/// Compare one (session, query) cell at `threads` workers against the
/// serial reference. Returns `Ok(true)` when compared, `Ok(false)` when
/// both arms errored (skip), `Err` with a description on divergence.
fn compare_cell(
    session: &Session,
    label: &str,
    q: &str,
    base: &QueryOptions,
    threads: usize,
) -> Result<bool, String> {
    let serial = session.query_with(q, &base.clone().with_threads(1));
    let parallel = session.query_with(q, &base.clone().with_threads(threads));
    match (serial, parallel) {
        (Ok(s), Ok(p)) => {
            let (s, p) = (rendered(&s.items), rendered(&p.items));
            if s == p {
                Ok(true)
            } else {
                Err(format!(
                    "{label} x{threads}: serialization diverged ({} vs {} items{})",
                    s.len(),
                    p.len(),
                    s.iter()
                        .zip(&p)
                        .position(|(a, b)| a != b)
                        .map(|i| format!(", first at index {i}"))
                        .unwrap_or_default()
                ))
            }
        }
        (Err(_), Err(_)) => Ok(false),
        (Ok(_), Err(e)) => Err(format!(
            "{label} x{threads}: parallel errored where serial succeeded: {}",
            e.render_line()
        )),
        (Err(e), Ok(_)) => Err(format!(
            "{label} x{threads}: parallel succeeded where serial errored: {}",
            e.render_line()
        )),
    }
}

/// Run the determinism differential over the XMark and fuzz corpora.
pub fn run_parallel_differential(cfg: &ParallelConfig) -> ParallelReport {
    let mut report = ParallelReport {
        cells: 0,
        skipped: 0,
        mismatches: Vec::new(),
    };
    fn check(
        report: &mut ParallelReport,
        thread_counts: &[usize],
        session: &Session,
        label: &str,
        q: &str,
        base: &QueryOptions,
    ) {
        for &threads in thread_counts {
            report.cells += 1;
            match compare_cell(session, label, q, base, threads) {
                Ok(true) => {}
                Ok(false) => report.skipped += 1,
                Err(m) => report.mismatches.push(m),
            }
        }
    }

    // XMark corpus: one document, every configured benchmark query,
    // under every configured step algorithm.
    let xml = generate(&XmarkConfig {
        scale: cfg.scale,
        seed: cfg.seed,
    });
    let mut session = Session::new();
    session
        .load_document("auction.xml", &xml)
        .expect("XMark generator emitted malformed XML");
    for &q in &cfg.queries {
        let mut reference: Option<(StepAlgo, Vec<String>)> = None;
        for &algo in &cfg.step_algos {
            let mut base = QueryOptions::order_indifferent();
            base.step_algo = algo;
            let label = format!("xmark Q{q} [{algo:?}]");
            // Cross-algorithm check on the serial runs first.
            if let Ok(out) = session.query_with(query(q), &base.clone().with_threads(1)) {
                let r = rendered(&out.items);
                match &reference {
                    Some((ref_algo, ref_r)) if ref_r != &r => {
                        report.cells += 1;
                        report.mismatches.push(format!(
                            "{label}: step algorithms disagree serially \
                             ({ref_algo:?} {} items vs {algo:?} {} items)",
                            ref_r.len(),
                            r.len()
                        ));
                    }
                    Some(_) => {}
                    None => reference = Some((algo, r)),
                }
            }
            check(&mut report, &cfg.threads, &session, &label, query(q), &base);
        }
    }

    // Fuzz corpus: fresh (document, query) per cell, both profiles.
    for i in 0..cfg.fuzz_iters {
        for profile in [FuzzProfile::Ordered, FuzzProfile::Unordered] {
            let mut rng = cell_rng(cfg.seed, i, profile);
            let doc = gen_doc(&mut rng);
            let q = pretty(&gen_query(&mut rng, profile));
            let mut s = Session::new();
            s.load_document(FUZZ_DOC_URL, &doc)
                .expect("generated doc malformed");
            check(
                &mut report,
                &cfg.threads,
                &s,
                &format!("fuzz iter {i} [{profile}]"),
                &q,
                &profile.options(),
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_determinism_subset_is_byte_identical() {
        // Full coverage lives in the tier-1 integration test
        // (`tests/parallel_determinism.rs`); a small subset keeps the
        // unit tier fast.
        let cfg = ParallelConfig {
            threads: vec![4],
            queries: vec![1, 6, 20],
            step_algos: vec![StepAlgo::Staircase, StepAlgo::NameStream],
            fuzz_iters: 5,
            ..ParallelConfig::default()
        };
        let report = run_parallel_differential(&cfg);
        assert!(report.passed(), "{report}");
        // 3 queries x 2 algos x 1 thread count + 5 fuzz iters x 2 profiles.
        assert_eq!(report.cells, 16);
    }
}
