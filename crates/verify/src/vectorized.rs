//! Scalar/vectorized equivalence differential: the acceptance harness
//! for the batch-at-a-time engine core.
//!
//! The vectorized path — flattened physical programs, selection vectors,
//! fused select→fun→project kernels — promises *byte-identical*
//! serializations to the scalar operator-at-a-time engine: same items,
//! same order, same rendered text, and the same error (by code) when a
//! query fails. This module checks that contract over two corpora:
//!
//! * the XMark benchmark queries over a seeded generated document, and
//! * a stream of fuzz-generated (document, query) cells from the
//!   grammar-driven generator, under both the ordered and unordered
//!   profiles.
//!
//! Comparison is exact sequence equality of rendered items — *not* the
//! bag equivalence the unordered mode would grant — so a fused kernel
//! that reorders rows is a failure even where the language semantics
//! would forgive it. Error cells are compared by error code: fusion must
//! not mask, reorder, or invent dynamic errors.

use crate::fuzz::{cell_rng, gen_doc, gen_query, FuzzProfile, FUZZ_DOC_URL};
use exrquy::frontend::pretty;
use exrquy::{QueryOptions, ResultItem, Session};
use exrquy_xmark::{generate, query, XmarkConfig, ALL_QUERIES};
use std::fmt;

/// Parameters for a scalar/vectorized equivalence run.
#[derive(Debug, Clone)]
pub struct VectorizedConfig {
    /// XMark scale factor for the generated document.
    pub scale: f64,
    /// Generator seed (XMark document and fuzz stream).
    pub seed: u64,
    /// 1-based XMark query numbers to run (defaults to all 20).
    pub queries: Vec<usize>,
    /// Fuzz-generated (document, query) cells per profile on top of the
    /// XMark set.
    pub fuzz_iters: usize,
    /// Worker-thread counts the vectorized arm additionally runs at
    /// (beyond serial), so fused chains are exercised with morsel-split
    /// kernels too.
    pub threads: Vec<usize>,
}

impl Default for VectorizedConfig {
    fn default() -> Self {
        VectorizedConfig {
            scale: 0.0025,
            seed: 42,
            queries: (1..=ALL_QUERIES.len()).collect(),
            fuzz_iters: 25,
            threads: vec![4],
        }
    }
}

/// Outcome of an equivalence run.
#[derive(Debug)]
pub struct VectorizedReport {
    /// (query, arm) cells compared.
    pub cells: usize,
    /// Cells where both arms errored with the same code (counted as
    /// compared-and-equal, tracked separately for visibility).
    pub error_cells: usize,
    /// Divergence descriptions; empty on success.
    pub mismatches: Vec<String>,
}

impl VectorizedReport {
    /// Every compared cell byte-identical (or identically erroring)?
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }
}

impl fmt::Display for VectorizedReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scalar/vectorized equivalence: {} cells, {} error cells, {} mismatch(es)",
            self.cells,
            self.error_cells,
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

/// Compare one (session, query) cell: the scalar serial run is the
/// reference; the vectorized run (at `threads` workers) must match it.
/// Returns `Ok(false)` for same-code error cells, `Err` on divergence.
fn compare_cell(
    session: &Session,
    label: &str,
    q: &str,
    base: &QueryOptions,
    threads: usize,
) -> Result<bool, String> {
    let scalar = session.query_with(q, &base.clone().with_vectorized(false).with_threads(1));
    let vectorized =
        session.query_with(q, &base.clone().with_vectorized(true).with_threads(threads));
    match (scalar, vectorized) {
        (Ok(s), Ok(v)) => {
            let (s, v) = (rendered(&s.items), rendered(&v.items));
            if s == v {
                Ok(true)
            } else {
                Err(format!(
                    "{label} x{threads}: serialization diverged ({} vs {} items{})",
                    s.len(),
                    v.len(),
                    s.iter()
                        .zip(&v)
                        .position(|(a, b)| a != b)
                        .map(|i| format!(", first at index {i}"))
                        .unwrap_or_default()
                ))
            }
        }
        (Err(se), Err(ve)) => {
            if se.code() == ve.code() {
                Ok(false)
            } else {
                Err(format!(
                    "{label} x{threads}: error codes diverged (scalar {} vs vectorized {})",
                    se.render_line(),
                    ve.render_line()
                ))
            }
        }
        (Ok(_), Err(e)) => Err(format!(
            "{label} x{threads}: vectorized errored where scalar succeeded: {}",
            e.render_line()
        )),
        (Err(e), Ok(_)) => Err(format!(
            "{label} x{threads}: vectorized succeeded where scalar errored: {}",
            e.render_line()
        )),
    }
}

/// Run the equivalence differential over the XMark and fuzz corpora.
pub fn run_vectorized_differential(cfg: &VectorizedConfig) -> VectorizedReport {
    let mut report = VectorizedReport {
        cells: 0,
        error_cells: 0,
        mismatches: Vec::new(),
    };
    // Serial vectorized always; each configured thread count on top.
    let mut arms = vec![1usize];
    arms.extend(cfg.threads.iter().copied().filter(|&t| t > 1));
    fn check(
        report: &mut VectorizedReport,
        arms: &[usize],
        session: &Session,
        label: &str,
        q: &str,
        base: &QueryOptions,
    ) {
        for &threads in arms {
            report.cells += 1;
            match compare_cell(session, label, q, base, threads) {
                Ok(true) => {}
                Ok(false) => report.error_cells += 1,
                Err(m) => report.mismatches.push(m),
            }
        }
    }

    // XMark corpus: one document, every configured benchmark query,
    // under both compiler profiles.
    let xml = generate(&XmarkConfig {
        scale: cfg.scale,
        seed: cfg.seed,
    });
    let mut session = Session::new();
    session
        .load_document("auction.xml", &xml)
        .expect("XMark generator emitted malformed XML");
    for &q in &cfg.queries {
        for (profile, base) in [
            ("unordered", QueryOptions::order_indifferent()),
            ("baseline", QueryOptions::baseline()),
        ] {
            let label = format!("xmark Q{q} [{profile}]");
            check(&mut report, &arms, &session, &label, query(q), &base);
        }
    }

    // Fuzz corpus: fresh (document, query) per cell, both profiles. The
    // stream is positioned identically to the parallel differential's so
    // a divergence here reproduces under `fuzz-verify` seeds.
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
                &arms,
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
    fn small_equivalence_subset_is_byte_identical() {
        // Full coverage lives in the tier-1 integration test
        // (`tests/vectorized_equivalence.rs`); a small subset keeps the
        // unit tier fast.
        let cfg = VectorizedConfig {
            queries: vec![1, 6, 20],
            fuzz_iters: 5,
            threads: vec![],
            ..VectorizedConfig::default()
        };
        let report = run_vectorized_differential(&cfg);
        assert!(report.passed(), "{report}");
        // 3 queries x 2 profiles x 1 arm + 5 fuzz iters x 2 profiles x 1 arm.
        assert_eq!(report.cells, 16);
    }
}
