//! Morsel-driven data parallelism inside one operator.
//!
//! Operators run one at a time, in plan order, on the thread that owns
//! the engine (see [`crate::vec::eval_phys`]). Parallelism comes from
//! splitting the *data*: the row-wise kernels (σ, `◦`, `⬡`, `%` and the
//! fused-chain batch kernels) cut inputs of at least
//! [`MORSEL_MIN_ROWS`] rows into contiguous morsels, run them on scoped
//! threads and concatenate the partial results in morsel order. That
//! keeps every parallel run bit-identical to its serial run, and the
//! arena's single-writer rule holds trivially: node constructors never
//! run on a morsel worker.

use crate::eval::EvalError;

/// Inputs below this row count are not worth splitting: thread spawn and
/// result concatenation would dominate the scan.
pub(crate) const MORSEL_MIN_ROWS: usize = 4096;

/// Contiguous near-equal ranges covering `0..n` (at most `threads` of
/// them, never empty ones).
fn morsel_ranges(n: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
    let k = threads.min(n).max(1);
    let (base, rem) = (n / k, n % k);
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Run `f` over morsels of `0..n` on a scoped thread pool and return the
/// partial results **in morsel order** — callers concatenate them, which
/// is what makes every parallel kernel bit-identical to its serial run.
/// On failure the error of the earliest morsel wins; because morsels are
/// contiguous and ordered, that is exactly the error the serial scan
/// would have hit first. A panicking morsel re-raises its own payload.
pub(crate) fn run_morsels<T, F>(n: usize, threads: usize, f: F) -> Result<Vec<T>, EvalError>
where
    T: Send,
    F: Fn(std::ops::Range<usize>) -> Result<T, EvalError> + Sync,
{
    if threads <= 1 || n <= 1 {
        return if n == 0 {
            Ok(Vec::new())
        } else {
            Ok(vec![f(0..n)?])
        };
    }
    let f = &f;
    let results: Vec<Result<T, EvalError>> = std::thread::scope(|s| {
        let handles: Vec<_> = morsel_ranges(n, threads)
            .into_iter()
            .map(|r| s.spawn(move || f(r)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    results.into_iter().collect()
}

/// Effective worker count for a kernel over `nrows` rows.
pub(crate) fn kernel_threads(nrows: usize, threads: usize) -> usize {
    if nrows >= MORSEL_MIN_ROWS {
        threads
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{Engine, EngineOptions};
    use crate::item::Item;
    use crate::table::Table;
    use exrquy_algebra::{AValue, Col, Dag, FunKind, Op, OpId};
    use exrquy_xml::{Catalog, FragArena};
    use std::sync::Arc;

    fn opts(threads: usize) -> EngineOptions {
        EngineOptions {
            threads,
            ..EngineOptions::default()
        }
    }

    fn lit(dag: &mut Dag, cols: Vec<Col>, rows: Vec<Vec<i64>>) -> OpId {
        dag.add(Op::Lit {
            cols,
            rows: rows
                .into_iter()
                .map(|r| r.into_iter().map(AValue::Int).collect())
                .collect(),
        })
    }

    /// A diamond of pure operators: two independent branches over one
    /// shared literal, joined by a union.
    fn diamond(dag: &mut Dag) -> OpId {
        let rows: Vec<Vec<i64>> = (0..10_000).map(|i| vec![i % 7, i]).collect();
        let base = lit(dag, vec![Col::ITER, Col::ITEM], rows);
        let a = dag.add(Op::RowNum {
            input: base,
            new: Col::POS,
            order: vec![exrquy_algebra::SortKey::asc(Col::ITEM)],
            part: Some(Col::ITER),
        });
        let b = dag.add(Op::RowId {
            input: base,
            new: Col::POS,
        });
        dag.add(Op::Union { l: a, r: b })
    }

    #[test]
    fn parallel_matches_serial_on_diamond() {
        let mut dag = Dag::new();
        let root = diamond(&mut dag);
        let run = |threads: usize| -> Table {
            let mut arena = FragArena::new(Arc::new(Catalog::new()));
            let mut e = Engine::new(&dag, &mut arena, opts(threads));
            (*e.eval(root).unwrap()).clone()
        };
        let serial = run(1);
        let par = run(4);
        assert_eq!(serial.schema(), par.schema());
        assert_eq!(serial.nrows(), par.nrows());
        for (name, col) in serial.columns() {
            assert_eq!(col.to_column(), par.col(*name).to_column(), "column {name}");
        }
    }

    #[test]
    fn parallel_runs_fused_chains_identically() {
        // fun → σ → fun over a wide literal: fuses into one chain whose
        // morsel-split kernels must give the same result as the serial
        // vectorized run and the scalar run.
        let mut dag = Dag::new();
        let rows: Vec<Vec<i64>> = (0..20_000).map(|i| vec![i % 11, i]).collect();
        let base = lit(&mut dag, vec![Col::ITER, Col::ITEM], rows);
        let lt = dag.add(Op::Fun {
            input: base,
            new: Col::RES,
            kind: FunKind::Lt,
            args: vec![Col::ITER, Col::ITEM],
        });
        let sel = dag.add(Op::Select {
            input: lt,
            col: Col::RES,
        });
        let add = dag.add(Op::Fun {
            input: sel,
            new: Col::ITEM1,
            kind: FunKind::Add,
            args: vec![Col::ITER, Col::ITEM],
        });
        let root = dag.add(Op::Distinct { input: add });
        let run = |threads: usize, scalar: bool| -> Table {
            let mut arena = FragArena::new(Arc::new(Catalog::new()));
            let mut e = Engine::new(
                &dag,
                &mut arena,
                EngineOptions {
                    threads,
                    scalar,
                    ..EngineOptions::default()
                },
            );
            (*e.eval(root).unwrap()).clone()
        };
        let scalar = run(1, true);
        for t in [run(1, false), run(4, false)] {
            assert_eq!(scalar.schema(), t.schema());
            assert_eq!(scalar.nrows(), t.nrows());
            // Value-wise comparison: the vectorized path may pick denser
            // physical representations (bit-packed booleans) for the
            // same logical column.
            for (name, col) in scalar.columns() {
                let tc = t.col(*name);
                for r in 0..scalar.nrows() {
                    assert_eq!(col.get(r), tc.get(r), "column {name} row {r}");
                }
            }
        }
        // The chain really fused (3 ops in one slot).
        let mut arena = FragArena::new(Arc::new(Catalog::new()));
        let mut e = Engine::new(&dag, &mut arena, opts(4));
        e.eval(root).unwrap();
        assert_eq!(e.profile.vec.fused_chains, 1, "{:?}", e.profile.vec);
        assert_eq!(e.profile.vec.fused_ops, 3, "{:?}", e.profile.vec);
    }

    #[test]
    fn parallel_construction_matches_serial() {
        let mut dag = Dag::new();
        let names = dag.add(Op::Lit {
            cols: vec![Col::ITER, Col::ITEM],
            rows: vec![
                vec![AValue::Int(1), AValue::str("a")],
                vec![AValue::Int(2), AValue::str("b")],
            ],
        });
        let content = dag.add(Op::Lit {
            cols: vec![Col::ITER, Col::POS, Col::ITEM],
            rows: vec![
                vec![AValue::Int(1), AValue::Int(1), AValue::Int(10)],
                vec![AValue::Int(2), AValue::Int(1), AValue::Int(20)],
            ],
        });
        let elem = dag.add(Op::Element { names, content });
        let render = |threads: usize| -> Vec<String> {
            let mut arena = FragArena::new(Arc::new(Catalog::new()));
            let mut e = Engine::new(&dag, &mut arena, opts(threads));
            let t = e.eval(elem).unwrap();
            (0..t.nrows())
                .map(|r| {
                    let Item::Node(node) = t.item(Col::ITEM, r) else {
                        panic!("expected node")
                    };
                    exrquy_xml::serialize::node_to_string(e.arena, node)
                })
                .collect()
        };
        assert_eq!(render(1), render(4));
        assert_eq!(render(4), vec!["<a>10</a>".to_string(), "<b>20</b>".into()]);
    }

    #[test]
    fn parallel_reports_evaluation_errors() {
        let mut dag = Dag::new();
        // Select on a non-boolean column fails identically on both paths.
        let base = lit(&mut dag, vec![Col::ITER, Col::ITEM], vec![vec![1, 5]]);
        let bad = dag.add(Op::Select {
            input: base,
            col: Col::ITEM,
        });
        let ok = dag.add(Op::Distinct { input: base });
        let root = dag.add(Op::Union { l: bad, r: ok });
        let err_of = |threads: usize| {
            let mut arena = FragArena::new(Arc::new(Catalog::new()));
            let mut e = Engine::new(&dag, &mut arena, opts(threads));
            e.eval(root).unwrap_err()
        };
        assert_eq!(err_of(1).code, err_of(4).code);
    }

    #[test]
    fn morsel_panics_keep_their_payload() {
        let caught = std::panic::catch_unwind(|| {
            run_morsels(8, 2, |range| -> Result<(), EvalError> {
                if range.start > 0 {
                    panic!("morsel {range:?} failed");
                }
                Ok(())
            })
        })
        .expect_err("the morsel panic must propagate");
        assert_eq!(
            caught.downcast_ref::<String>().map(String::as_str),
            Some("morsel 4..8 failed")
        );
    }
}
