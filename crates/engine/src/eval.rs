//! The operator kernels and the per-query execution context.
//!
//! [`Engine::eval`] lowers the plan rooted at the requested operator into
//! a flattened slot program ([`exrquy_algebra::lower`]) and hands it to
//! [`crate::vec::eval_phys`], the one loop that executes operators; a
//! shared subplan owns one slot, so it runs once (§3's sharing). Callers
//! that prepare plans ahead of time use [`Engine::eval_plan`] and skip
//! the lowering. This module holds the operator kernels that loop
//! dispatches to: [`eval_pure`] for everything that only reads the
//! arena, and the node constructors, which need `&mut FragArena`.
//!
//! With [`EngineOptions::threads`] above one, the row-wise kernels split
//! large inputs into morsels ([`crate::par`]); serial and parallel runs
//! produce bit-identical tables.

use crate::column::{Column, ColumnError};
use crate::funs::{self, DynError};
use crate::item::{GroupKey, Item};
use crate::par::{kernel_threads, run_morsels};
use crate::profile::Profile;
use crate::table::{ColView, Table};
use exrquy_algebra::{AValue, AggrKind, Col, Dag, FunKind, Op, OpId, PhysPlan};
use exrquy_diag::{
    BudgetMeter, BudgetViolation, CancellationToken, ErrorCode, ExecutionBudget, Failpoints,
};
use exrquy_xml::tree::NodeKind;
use exrquy_xml::{axis, FragArena, NameId, NodeId, NodeRead, TreeBuilder};
use std::collections::HashMap;
use std::sync::Arc;

/// Runtime evaluation error, tagged with a W3C-style dynamic error code
/// (or an `EXRQ*` resource-governance code).
#[derive(Debug, Clone)]
pub struct EvalError {
    /// Machine-readable error code.
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
}

impl EvalError {
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        EvalError {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "evaluation error: {}", self.message)
    }
}

impl std::error::Error for EvalError {}

impl From<DynError> for EvalError {
    fn from(e: DynError) -> Self {
        EvalError {
            code: e.code,
            message: e.message,
        }
    }
}

impl From<BudgetViolation> for EvalError {
    fn from(v: BudgetViolation) -> Self {
        EvalError {
            code: v.code,
            message: v.message,
        }
    }
}

impl From<ColumnError> for EvalError {
    fn from(e: ColumnError) -> Self {
        EvalError {
            code: ErrorCode::EXRQ0010,
            message: e.to_string(),
        }
    }
}

/// Step-operator algorithm selection (§3: "several existing XPath step
/// evaluation techniques may be plugged in to realize ⬡").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StepAlgo {
    /// Staircase join \[Grust et al., VLDB 2003\] — the MonetDB/XQuery
    /// choice and our default.
    #[default]
    Staircase,
    /// Per-name node streams (TwigStack-style tag-name access, paper §1)
    /// for named tests; staircase elsewhere.
    NameStream,
    /// The quadratic reference implementation (differential testing).
    Naive,
}

/// Evaluator knobs.
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// Which algorithm realizes the step operator `⬡`.
    pub step_algo: StepAlgo,
    /// Resource ceilings enforced at operator boundaries (and inside the
    /// expansion loops of row-explosive operators).
    pub budget: ExecutionBudget,
    /// Cooperative cancellation flag, polled once per evaluated operator.
    pub cancel: Option<CancellationToken>,
    /// Armed failpoints (fault injection). Empty by default; the engine
    /// keeps its own deterministic counters (operators evaluated, `fn:doc`
    /// accesses), so re-running the same plan trips the same failpoint at
    /// the same operator — at any thread count, because operators always
    /// run one at a time in plan order. Armed failpoints force unfused
    /// lowering, so every operator is its own boundary.
    pub failpoints: Failpoints,
    /// Worker threads for the morsel-parallel kernels ([`crate::par`]);
    /// `0` and `1` both mean serial. Operators still run one at a time:
    /// only the rows of one large input are split across threads.
    /// Serial and parallel runs of the same plan produce bit-identical
    /// tables.
    pub threads: usize,
    /// Run the scalar reference: unfused lowering (every operator its
    /// own slot) plus the pre-vectorization kernels — materializing
    /// gathers, no selection vectors, no name-stream step upgrade. The
    /// vectorization differential runs every query with this toggled
    /// both ways and asserts byte-identical serializations; `vec-bench`
    /// uses it as the old-engine baseline. Both produce identical tables.
    pub scalar: bool,
    /// Absolute request deadline (serving layer). Unlike `budget.max_wall`
    /// — which is relative to execution start — this instant also covers
    /// time the request spent queued; it trips as EXRQ0007 at the same
    /// yield points the wall budget uses, so shed work actually stops.
    pub deadline: Option<std::time::Instant>,
    /// Shared memory gauge (serving layer's watermark governor). When
    /// set, the engine publishes this execution's approximate
    /// constructed-node bytes as it runs; the charge is released when
    /// the engine drops — including by unwinding from a panic.
    pub gauge: Option<exrquy_diag::MemoryGauge>,
}

/// One query execution context.
///
/// The engine reads base documents through the arena's shared catalog
/// and appends every fragment it constructs to the arena's private
/// overlay — the catalog itself is never mutated, so any number of
/// engines may run concurrently over one `Arc<Catalog>`.
pub struct Engine<'d, 's> {
    pub(crate) dag: &'d Dag,
    /// Per-execution fragment overlay over the shared catalog. Dropping
    /// it (with the engine) releases everything this query constructed.
    pub arena: &'s mut FragArena,
    /// Per-kind timing of this execution.
    pub profile: Profile,
    pub(crate) opts: EngineOptions,
    /// Atomic budget/cancellation meter, shared with the morsel workers
    /// of a parallel kernel; its decrements and polls are the yield
    /// points.
    pub(crate) meter: BudgetMeter,
    /// Overlay nodes present at engine creation; the constructed-node
    /// ceiling applies to the delta.
    pub(crate) nodes_base: usize,
    /// This execution's handle on the serving layer's memory gauge;
    /// its `Drop` releases the charge on any exit path.
    tracker: Option<exrquy_diag::MemoryTracker>,
}

impl<'d, 's> Engine<'d, 's> {
    /// Create an engine over `dag` evaluating into `arena` (which also
    /// supplies the document registry via its catalog).
    pub fn new(dag: &'d Dag, arena: &'s mut FragArena, opts: EngineOptions) -> Self {
        let mut meter = BudgetMeter::new(opts.budget.clone(), opts.cancel.clone());
        if let Some(at) = opts.deadline {
            meter = meter.with_hard_deadline(at);
        }
        let nodes_base = arena.constructed_nodes();
        let tracker = opts.gauge.as_ref().map(exrquy_diag::MemoryGauge::tracker);
        Engine {
            dag,
            arena,
            profile: Profile::default(),
            opts,
            meter,
            nodes_base,
            tracker,
        }
    }

    /// Account an operator's output and enforce the row / node ceilings.
    pub(crate) fn charge_op_output(&mut self, nrows: usize) -> Result<(), EvalError> {
        self.meter.charge_rows(nrows)?;
        let constructed = self
            .arena
            .constructed_nodes()
            .saturating_sub(self.nodes_base);
        self.meter.check_nodes(constructed)?;
        if let Some(t) = self.tracker.as_mut() {
            t.charge_to(constructed * exrquy_diag::APPROX_NODE_BYTES);
        }
        Ok(())
    }

    /// Does this engine run the vectorized core (fused chains, batch
    /// kernels)? Armed failpoints force unfused lowering so injected
    /// faults keep their exact operator-boundary placement.
    pub fn vectorized(&self) -> bool {
        !self.opts.scalar && self.opts.failpoints.is_empty()
    }

    /// Evaluate the plan rooted at `root`: lower it into a flattened slot
    /// program (fused when [`vectorized`](Self::vectorized)) and run it.
    pub fn eval(&mut self, root: OpId) -> Result<Arc<Table>, EvalError> {
        let plan = exrquy_algebra::lower(self.dag, root, self.vectorized());
        crate::vec::eval_phys(self, &plan)
    }

    /// Evaluate a pre-lowered flattened plan (prepared once, executed
    /// many times — the plan cache holds the lowered program alongside
    /// the DAG). A fused plan reaching an engine that must not fuse —
    /// failpoints armed per run, as `RunOptions::failpoints` does — is
    /// re-lowered without fusion first.
    pub fn eval_plan(&mut self, plan: &PhysPlan) -> Result<Arc<Table>, EvalError> {
        if plan.fused_chains > 0 && !self.vectorized() {
            return self.eval(plan.ops[plan.root as usize].out_id());
        }
        crate::vec::eval_phys(self, plan)
    }

    /// Injected-fault checks at the operator boundary: `cancel-after`
    /// (counted over evaluated operators) and `budget-trip` (matched on
    /// the operator kind about to run). Mirrors [`BudgetMeter::poll`] so
    /// injected faults exercise exactly the error paths real exhaustion
    /// would take.
    pub(crate) fn poll_failpoints(&self, id: OpId) -> Result<(), EvalError> {
        let failpoints = &self.opts.failpoints;
        if failpoints.is_empty() {
            return Ok(());
        }
        let ops_seen = self.meter.ops_seen();
        if failpoints.cancels_at(ops_seen) {
            return Err(EvalError::new(
                ErrorCode::EXRQ0002,
                format!("query cancelled (injected at operator boundary {ops_seen})"),
            ));
        }
        let kind = self.dag.op(id).kind_name();
        if failpoints.trips_budget(kind) {
            return Err(EvalError::new(
                ErrorCode::EXRQ0001,
                format!("execution budget exceeded (injected in `{kind}` operator {id})"),
            ));
        }
        if failpoints.panics_in(kind) {
            // A real panic, not an error return: the point is to exercise
            // the serving layer's catch_unwind containment (EXRQ0009). Only
            // ever reached with a `panic:<op>` failpoint armed.
            panic!("injected panic in `{kind}` operator {id} (panic:<op> failpoint)");
        }
        Ok(())
    }
}

// ------------------------------------------------------- pure operators

/// Evaluate a non-constructing operator: `input` resolves the operator's
/// already evaluated children *by child ordinal* (position in
/// [`Op::children`] order — the slot loop maps ordinals to result slots,
/// so no `OpId` hash lookups happen on the hot path) and the arena is
/// only read. Writer operators (`Element`/`Attr`/`TextNode`) never reach
/// this function.
pub(crate) fn eval_pure(
    dag: &Dag,
    id: OpId,
    input: &dyn Fn(usize) -> Arc<Table>,
    arena: &FragArena,
    opts: &EngineOptions,
    meter: &BudgetMeter,
) -> Result<Table, EvalError> {
    let threads = opts.threads.max(1);
    let vec = !opts.scalar;
    let op = dag.op(id).clone();
    match op {
        Op::Lit { cols, rows } => Ok(eval_lit(&cols, &rows)),
        Op::Doc { url } => {
            let access = meter.record_doc_access();
            if opts.failpoints.doc_io_fails(access) {
                return Err(EvalError::new(
                    ErrorCode::FODC0002,
                    format!("I/O error retrieving document `{url}` (injected at access {access})"),
                ));
            }
            let node = arena.catalog().doc_root(url.as_ref()).ok_or_else(|| {
                EvalError::new(
                    ErrorCode::FODC0002,
                    format!("document `{url}` is not loaded"),
                )
            })?;
            Ok(Table::new(vec![(
                Col::ITEM,
                Column::Item(vec![Item::Node(node)]),
            )]))
        }
        Op::Project { cols, .. } => {
            let t = input(0);
            let out = cols.iter().map(|(new, src)| (*new, t.col(*src))).collect();
            Ok(Table::from_views(out, t.nrows()))
        }
        Op::Select { col, .. } => {
            let t = input(0);
            eval_select(&t, col, threads, vec)
        }
        Op::RowNum {
            new, order, part, ..
        } => {
            let t = input(0);
            Ok(eval_rownum(&t, new, &order, part, threads, vec))
        }
        Op::RowId { new, .. } => {
            let t = input(0);
            let n = t.nrows();
            Ok(t.with_column(new, Column::Int((1..=n as i64).collect())))
        }
        Op::Attach { col, value, .. } => {
            let t = input(0);
            Ok(t.with_column(col, attach_column(&value, t.nrows(), vec)))
        }
        Op::Fun {
            new, kind, args, ..
        } => {
            let t = input(0);
            eval_fun(arena, &t, new, kind, &args, threads, vec)
        }
        Op::Aggr {
            kind,
            new,
            arg,
            part,
            ..
        } => {
            let t = input(0);
            eval_aggr(arena, &t, kind, new, arg, part, vec)
        }
        Op::Distinct { .. } => {
            let t = input(0);
            Ok(eval_distinct(&t, vec))
        }
        Op::Step { axis, test, .. } => {
            let t = input(0);
            // The vectorized engine upgrades the default staircase scan
            // to per-name node streams (TwigStack-style tag access,
            // paper §1) for named *element* steps: descendant windows
            // become two binary searches over a columnar pre-rank
            // stream, and child steps probe the stream adaptively
            // (falling back to the direct children walk when the name
            // is frequent below the context node). Attribute steps keep
            // the direct scan — their candidate windows are already
            // contiguous. Same sorted, duplicate-free output either
            // way (the step-algorithm differential holds across all
            // three implementations); an explicit `step_algo` choice
            // is honored unchanged.
            use exrquy_xml::{Axis, NodeTest};
            let named_elem = matches!(
                axis,
                Axis::Descendant | Axis::DescendantOrSelf | Axis::Child
            ) && matches!(test, NodeTest::Name(_));
            let algo = match opts.step_algo {
                StepAlgo::Staircase if vec && named_elem => StepAlgo::NameStream,
                other => other,
            };
            eval_step(arena, &t, axis, test, algo, threads)
        }
        Op::Cross { .. } => {
            let (lt, rt) = (input(0), input(1));
            eval_cross(&lt, &rt, meter.op_row_cap(), vec)
        }
        Op::EquiJoin { lcol, rcol, .. } => {
            let (lt, rt) = (input(0), input(1));
            eval_equijoin(&lt, &rt, lcol, rcol, meter, vec)
        }
        Op::ThetaJoin { pred, .. } => {
            let (lt, rt) = (input(0), input(1));
            eval_thetajoin(&lt, &rt, &pred, meter, vec)
        }
        Op::Union { .. } => {
            let (lt, rt) = (input(0), input(1));
            Ok(eval_union(&lt, &rt))
        }
        Op::Difference { on, .. } => {
            let (lt, rt) = (input(0), input(1));
            Ok(eval_difference(&lt, &rt, &on, vec))
        }
        Op::Range { lo, hi, new, .. } => {
            let t = input(0);
            eval_range(&t, lo, hi, new, meter, vec)
        }
        Op::Serialize { .. } => Ok((*input(0)).clone()),
        Op::Sort { keys, .. } => {
            let t = input(0);
            eval_sort(&t, &keys, vec)
        }
        Op::Fanout { lo, hi, .. } => {
            let catalog = arena.catalog();
            if hi as usize > catalog.frag_count() {
                return Err(EvalError::new(
                    ErrorCode::FODC0002,
                    format!(
                        "collection shard range [{lo},{hi}) exceeds catalog ({} fragments)",
                        catalog.frag_count()
                    ),
                ));
            }
            let n = (hi - lo) as usize;
            let mut pos = Vec::with_capacity(n);
            let mut items = Vec::with_capacity(n);
            for frag in lo..hi {
                let access = meter.record_doc_access();
                if opts.failpoints.doc_io_fails(access) {
                    let url = catalog.frag_url(frag).unwrap_or("<collection>");
                    return Err(EvalError::new(
                        ErrorCode::FODC0002,
                        format!(
                            "I/O error retrieving document `{url}` (injected at access {access})"
                        ),
                    ));
                }
                pos.push(frag as i64 + 1);
                items.push(Item::Node(NodeId::new(frag, 0)));
            }
            Ok(Table::new(vec![
                (Col::POS, Column::Int(pos)),
                (Col::ITEM, Column::Item(items)),
            ]))
        }
        Op::ShardUnion { parts } => {
            let tables: Vec<Arc<Table>> = (0..parts.len()).map(&input).collect();
            let first = tables
                .first()
                .expect("∪̂ with no parts rejected at plan validation");
            let mut cols: Vec<(Col, Column)> = Vec::with_capacity(first.schema().len());
            for (name, _) in first.columns() {
                let refs: Vec<_> = tables.iter().map(|t| t.col(*name).to_ref()).collect();
                let borrowed: Vec<&Column> = refs.iter().map(|r| r.as_ref()).collect();
                cols.push((*name, Column::append_all(&borrowed)));
            }
            Ok(Table::new(cols))
        }
        Op::Element { .. } | Op::Attr { .. } | Op::TextNode { .. } => {
            unreachable!("writer operators are evaluated by the slot loop")
        }
    }
}

// ------------------------------------------------------- kernel helpers

/// Row-explosive kernels (joins, range expansion) poll the budget meter
/// every this many emitted rows, so cancellation and hard deadlines
/// interrupt a single huge operator instead of waiting for its
/// boundary. Power of two keeps the modulo nearly free.
pub(crate) const POLL_STRIDE: usize = 8192;

/// Constant column for an `attach` (vectorized: integers and booleans
/// stay dense; scalar: the pre-refactor `Int`-or-boxed layout).
pub(crate) fn attach_column(value: &AValue, nrows: usize, vec: bool) -> Column {
    let item = avalue_item(value);
    match &item {
        Item::Int(i) => Column::Int(vec![*i; nrows]),
        Item::Bool(b) if vec => Column::Bool(crate::bits::BitVec::from_iter_exact(
            std::iter::repeat_n(*b, nrows),
        )),
        other => Column::Item(vec![other.clone(); nrows]),
    }
}

fn eval_select(t: &Table, col: Col, threads: usize, vec: bool) -> Result<Table, EvalError> {
    let c = t.col(col);
    let n = t.nrows();
    if vec {
        // Batch kernel: word-at-a-time over dense bit-packed predicates,
        // no per-row boxing otherwise; output rows stay shared behind a
        // selection vector.
        let op = crate::kernels::Operand::from_view(&c, None);
        let (keep, _batches) = crate::kernels::select_batch(&op, n, threads)?;
        return Ok(t.select_rows(keep));
    }
    let c = &c;
    let parts = run_morsels(n, kernel_threads(n, threads), |range| {
        let mut idx: Vec<u32> = Vec::new();
        for i in range {
            match c.get(i) {
                Item::Bool(true) => idx.push(i as u32),
                Item::Bool(false) => {}
                other => {
                    return Err(EvalError::new(
                        ErrorCode::XPTY0004,
                        format!("σ on non-boolean value {other:?}"),
                    ))
                }
            }
        }
        Ok(idx)
    })?;
    let idx = parts.concat();
    let idx: Vec<usize> = idx.iter().map(|&i| i as usize).collect();
    Ok(t.gather(&idx))
}

fn eval_fun(
    arena: &FragArena,
    t: &Table,
    new: Col,
    kind: FunKind,
    args: &[Col],
    threads: usize,
    vec: bool,
) -> Result<Table, EvalError> {
    let arg_cols: Vec<ColView> = args.iter().map(|a| t.col(*a)).collect();
    let n = t.nrows();
    let arg_cols = &arg_cols;
    if vec {
        // Batch kernels: integer comparisons and arithmetic run over
        // the raw slices (comparison results bit-packed, integer
        // arithmetic dense); other shapes fall back to the per-row
        // loop inside the kernel, adaptively densified.
        let ops: Vec<crate::kernels::Operand> = arg_cols
            .iter()
            .map(|c| crate::kernels::Operand::from_view(c, None))
            .collect();
        let (col, _batches) = crate::kernels::fun_batch(arena, kind, &ops, n, threads)?;
        return Ok(t.with_column(new, col));
    }
    let parts = run_morsels(n, kernel_threads(n, threads), move |range| {
        let mut out = Vec::with_capacity(range.len());
        let mut buf: Vec<Item> = Vec::with_capacity(arg_cols.len());
        for r in range {
            buf.clear();
            buf.extend(arg_cols.iter().map(|c| c.get(r)));
            out.push(funs::apply(arena, kind, &buf)?);
        }
        Ok(out)
    })?;
    let mut out = Vec::with_capacity(n);
    for p in parts {
        out.extend(p);
    }
    Ok(t.with_column(new, Column::Item(out)))
}

// ------------------------------------------------------------- step

fn eval_step(
    arena: &FragArena,
    t: &Table,
    ax: exrquy_xml::Axis,
    test: exrquy_xml::NodeTest,
    algo: StepAlgo,
    threads: usize,
) -> Result<Table, EvalError> {
    let iter_col = t.col(Col::ITER);
    let item_col = t.col(Col::ITEM);
    // Collect (iter, node) context pairs. Batch extraction: resolve the
    // column representations once and scan slices; the fallback per-row
    // loop handles exotic representations. Row order (and therefore
    // which non-node item errors first) matches the per-row loop.
    let mut ctx: Vec<(i64, NodeId)> = Vec::with_capacity(t.nrows());
    let non_node = |other: &dyn std::fmt::Display| {
        EvalError::new(
            ErrorCode::XPTY0004,
            format!("path step applied to atomic value {other}"),
        )
    };
    match (int_view(&iter_col), &**item_col.data(), item_col.sel()) {
        (Some(iv), Column::Item(items), sel) => {
            let mut push = |r: usize, it: &Item| match it {
                Item::Node(n) => {
                    ctx.push((iv[r], *n));
                    Ok(())
                }
                other => Err(non_node(other)),
            };
            match sel {
                None => {
                    for (r, it) in items.iter().enumerate() {
                        push(r, it)?;
                    }
                }
                Some(s) => {
                    for (r, &p) in s.iter().enumerate() {
                        push(r, &items[p as usize])?;
                    }
                }
            }
        }
        _ => {
            for r in 0..t.nrows() {
                match item_col.get(r) {
                    Item::Node(n) => ctx.push((iter_col.get_int(r)?, n)),
                    other => return Err(non_node(&other)),
                }
            }
        }
    }
    if !ctx.is_sorted() {
        ctx.sort_unstable();
    }
    ctx.dedup();
    // One group per (iter, frag): the staircase-join unit of work.
    // Groups are (start, end) ranges into the sorted `ctx` — the pre
    // ranks are copied into one reusable buffer per morsel rather than
    // one fresh vector per group (a query loop evaluates thousands of
    // single-node groups per step).
    let mut groups: Vec<(i64, u32, usize, usize)> = Vec::new();
    let mut i = 0;
    while i < ctx.len() {
        let (it, frag) = (ctx[i].0, ctx[i].1.frag);
        let start = i;
        while i < ctx.len() && ctx[i].0 == it && ctx[i].1.frag == frag {
            i += 1;
        }
        groups.push((it, frag, start, i));
    }
    // Data-parallel over groups; partials concatenate in group order, so
    // the output is the serial (iter, doc-order) sequence either way.
    let groups = &groups;
    let ctx = &ctx;
    let parts = run_morsels(
        groups.len(),
        kernel_threads(t.nrows(), threads),
        move |range| {
            let mut out_iter: Vec<i64> = Vec::new();
            let mut out_item: Vec<Item> = Vec::new();
            let mut pres: Vec<u32> = Vec::new();
            for g in range {
                let (it, frag, start, end) = groups[g];
                pres.clear();
                pres.extend(ctx[start..end].iter().map(|c| c.1.pre));
                let doc = arena.frag(frag);
                let result = match algo {
                    StepAlgo::Staircase => axis::step(doc, &pres, ax, test),
                    StepAlgo::NameStream => axis::step_name_stream(doc, &pres, ax, test),
                    StepAlgo::Naive => axis::naive(doc, &pres, ax, test),
                };
                out_iter.extend(std::iter::repeat_n(it, result.len()));
                out_item.extend(result.into_iter().map(|p| Item::Node(NodeId::new(frag, p))));
            }
            Ok((out_iter, out_item))
        },
    )?;
    let mut out_iter: Vec<i64> = Vec::new();
    let mut out_item: Vec<Item> = Vec::new();
    for (pi, pv) in parts {
        out_iter.extend(pi);
        out_item.extend(pv);
    }
    Ok(Table::new(vec![
        (Col::ITER, Column::Int(out_iter)),
        (Col::ITEM, Column::Item(out_item)),
    ]))
}

// --------------------------------------------------- node construction

/// `content` rows grouped by `iter` and sorted by `pos` within each
/// group: one global stable sort over (iter, pos) with groups read back
/// as contiguous slices — no hash map, no per-group vector.
struct ContentGroups {
    /// (iter, pos, ord, item), sorted by (iter, pos); ties keep row
    /// order (matching the per-group stable sort this replaces). `ord`
    /// is the content-part tag (0 when the plan carries none).
    rows: Vec<(i64, i64, i64, Item)>,
}

impl ContentGroups {
    fn build(content: &Table) -> Result<Self, EvalError> {
        let n = content.nrows();
        let iters = content.col(Col::ITER);
        let poss = content.col(Col::POS);
        let items = content.col(Col::ITEM);
        let ords = if content.schema().contains(&Col::ORD) {
            Some(content.col(Col::ORD))
        } else {
            None
        };
        let mut rows: Vec<(i64, i64, i64, Item)> = Vec::with_capacity(n);
        // Batch extraction: pull the three integer columns out as
        // slices and dispatch on the item column's representation once,
        // instead of re-branching per row and per column. Non-integer
        // iter/pos/ord columns keep the per-row path (and its exact
        // type-error reporting).
        let (iv, pv) = (int_view(&iters), int_view(&poss));
        let ov = match &ords {
            Some(c) => int_view(c).map(Some),
            None => Some(None),
        };
        if let (Some(iv), Some(pv), Some(ov)) = (iv, pv, ov) {
            let ord = |r: usize| ov.as_ref().map_or(0, |o| o[r]);
            match (&**items.data(), items.sel()) {
                (Column::Item(v), None) => {
                    rows.extend((0..n).map(|r| (iv[r], pv[r], ord(r), v[r].clone())));
                }
                (Column::Item(v), Some(s)) => {
                    rows.extend((0..n).map(|r| (iv[r], pv[r], ord(r), v[s[r] as usize].clone())));
                }
                _ => rows.extend((0..n).map(|r| (iv[r], pv[r], ord(r), items.get(r)))),
            }
        } else {
            for r in 0..n {
                let ord = match &ords {
                    Some(c) => c.get_int(r)?,
                    None => 0,
                };
                rows.push((iters.get_int(r)?, poss.get_int(r)?, ord, items.get(r)));
            }
        }
        if !rows.is_sorted_by_key(|&(it, p, _, _)| (it, p)) {
            rows.sort_by_key(|&(it, p, _, _)| (it, p));
        }
        Ok(ContentGroups { rows })
    }

    /// The content slice of one iteration (empty when it has none).
    fn get(&self, iter: i64) -> &[(i64, i64, i64, Item)] {
        let lo = self.rows.partition_point(|r| r.0 < iter);
        let hi = lo + self.rows[lo..].partition_point(|r| r.0 == iter);
        &self.rows[lo..hi]
    }
}

pub(crate) fn eval_element(
    arena: &mut FragArena,
    names: &Table,
    content: &Table,
) -> Result<Table, EvalError> {
    let by_iter = ContentGroups::build(content)?;
    // One new fragment holds all elements constructed by this operator
    // invocation, as sibling roots, in iter order.
    let name_iters = names.col(Col::ITER);
    let name_items = names.col(Col::ITEM);
    let mut order: Vec<(i64, usize)> = Vec::with_capacity(names.nrows());
    for r in 0..names.nrows() {
        order.push((name_iters.get_int(r)?, r));
    }
    order.sort_unstable();
    let mut b = TreeBuilder::new();
    // The output size is known up front: one element per name row plus
    // every content node's subtree (atomics over-count slightly — they
    // merge into shared text nodes — which only pads the reservation).
    let est: usize = order.len()
        + by_iter
            .rows
            .iter()
            .map(|(_, _, _, it)| match it {
                Item::Node(n) => arena.doc_of(*n).size(n.pre) as usize + 1,
                _ => 1,
            })
            .sum::<usize>();
    b.reserve(est);
    let mut roots: Vec<(i64, u32)> = Vec::with_capacity(order.len());
    // Constructor names are overwhelmingly one literal string attached
    // to every row (the same `Arc<str>` clone), so remember the last
    // (allocation, id) pair and skip the intern hash on a pointer hit.
    let mut last_name: Option<(*const u8, NameId)> = None;
    for &(it, r) in &order {
        let name_item = name_items.get(r);
        let name_id = match &name_item {
            Item::Str(s) => match last_name {
                Some((p, id)) if std::ptr::eq(p, s.as_ptr()) => id,
                _ => {
                    let id = arena.intern(s);
                    last_name = Some((s.as_ptr(), id));
                    id
                }
            },
            other => arena.intern(&other.to_xq_string()),
        };
        let root = b.open_element(name_id);
        let items = by_iter.get(it);
        if !items.is_empty() {
            build_content(arena, &mut b, items)?;
        }
        b.close();
        roots.push((it, root));
    }
    let frag = arena.add(b.finish());
    Ok(Table::new(vec![
        (
            Col::ITER,
            Column::Int(roots.iter().map(|&(it, _)| it).collect()),
        ),
        (
            Col::ITEM,
            Column::Item(
                roots
                    .iter()
                    .map(|&(_, pre)| Item::Node(NodeId::new(frag, pre)))
                    .collect(),
            ),
        ),
    ]))
}

/// Realize a constructor content sequence: leading attribute nodes
/// become attributes, adjacent atomics merge into one text node joined
/// with spaces, nodes are deep-copied (order interaction 2©: sequence
/// order establishes document order).
fn build_content(
    arena: &FragArena,
    b: &mut TreeBuilder,
    items: &[(i64, i64, i64, Item)],
) -> Result<(), EvalError> {
    let mut pending_text: Option<String> = None;
    let mut pending_ord: i64 = 0;
    let mut content_started = false;
    for (_, _, ord, item) in items {
        match item {
            Item::Node(n) => {
                let doc = arena.doc_of(*n);
                if doc.kind(n.pre) == NodeKind::Attribute {
                    if content_started || pending_text.is_some() {
                        return Err(EvalError::new(
                            ErrorCode::XQTY0024,
                            "attribute node follows element content (XQTY0024)",
                        ));
                    }
                    b.attribute(doc.name(n.pre), doc.text(n.pre).unwrap_or(""));
                } else {
                    if let Some(t) = pending_text.take() {
                        b.text(&t);
                    }
                    let doc = arena.doc_of(*n);
                    b.copy_subtree(doc, n.pre);
                    content_started = true;
                }
            }
            atomic => {
                // Atomics merge into one text node; the space separator
                // only applies between atomics of the SAME enclosed
                // expression (content part).
                let s = atomic.to_xq_string();
                match pending_text.as_mut() {
                    Some(t) => {
                        if *ord == pending_ord {
                            t.push(' ');
                        }
                        t.push_str(&s);
                    }
                    None => pending_text = Some(s),
                }
                pending_ord = *ord;
            }
        }
    }
    if let Some(t) = pending_text {
        b.text(&t);
    }
    Ok(())
}

pub(crate) fn eval_attr(
    arena: &mut FragArena,
    names: &Table,
    values: &Table,
) -> Result<Table, EvalError> {
    // values: iter|item (one string per iteration).
    let val_iters = values.col(Col::ITER);
    let val_items = values.col(Col::ITEM);
    let mut val_by_iter: HashMap<i64, String> = HashMap::new();
    for r in 0..values.nrows() {
        let it = val_iters.get_int(r)?;
        let v = val_items.get(r).to_xq_string();
        val_by_iter.insert(it, v);
    }
    let name_iters = names.col(Col::ITER);
    let name_items = names.col(Col::ITEM);
    let mut order: Vec<(i64, usize)> = Vec::with_capacity(names.nrows());
    for r in 0..names.nrows() {
        order.push((name_iters.get_int(r)?, r));
    }
    order.sort_unstable();
    let mut doc = exrquy_xml::Document::new();
    let mut rows: Vec<(i64, u32)> = Vec::new();
    for &(it, r) in &order {
        let name_str = name_items.get(r).to_xq_string();
        let name_id = arena.intern(&name_str);
        let value = val_by_iter.get(&it).cloned().unwrap_or_default();
        let pre = doc.push_orphan_attribute(name_id, &value);
        rows.push((it, pre));
    }
    let frag = arena.add(doc);
    Ok(Table::new(vec![
        (
            Col::ITER,
            Column::Int(rows.iter().map(|&(it, _)| it).collect()),
        ),
        (
            Col::ITEM,
            Column::Item(
                rows.iter()
                    .map(|&(_, pre)| Item::Node(NodeId::new(frag, pre)))
                    .collect(),
            ),
        ),
    ]))
}

pub(crate) fn eval_textnode(arena: &mut FragArena, content: &Table) -> Result<Table, EvalError> {
    let c_iters = content.col(Col::ITER);
    let c_items = content.col(Col::ITEM);
    let mut order: Vec<(i64, usize)> = Vec::with_capacity(content.nrows());
    for r in 0..content.nrows() {
        order.push((c_iters.get_int(r)?, r));
    }
    order.sort_unstable();
    let mut b = TreeBuilder::new();
    let mut rows: Vec<(i64, u32)> = Vec::new();
    for &(it, r) in &order {
        let s = c_items.get(r).to_xq_string();
        // Empty strings construct no text node (the XDM has none).
        if let Some(pre) = b.text(&s) {
            rows.push((it, pre));
        }
    }
    let frag = arena.add(b.finish());
    Ok(Table::new(vec![
        (
            Col::ITER,
            Column::Int(rows.iter().map(|&(it, _)| it).collect()),
        ),
        (
            Col::ITEM,
            Column::Item(
                rows.iter()
                    .map(|&(_, pre)| Item::Node(NodeId::new(frag, pre)))
                    .collect(),
            ),
        ),
    ]))
}

// ------------------------------------------------------- free functions

pub(crate) fn avalue_item(v: &AValue) -> Item {
    match v {
        AValue::Int(i) => Item::Int(*i),
        AValue::Dbl(b) => Item::Dbl(f64::from_bits(*b)),
        AValue::Str(s) => Item::Str(Arc::from(s.as_ref())),
        AValue::Bool(b) => Item::Bool(*b),
    }
}

fn eval_lit(cols: &[Col], rows: &[Vec<AValue>]) -> Table {
    let built: Vec<(Col, Column)> = cols
        .iter()
        .enumerate()
        .map(|(ci, &name)| {
            let all_int = rows.iter().all(|r| matches!(r[ci], AValue::Int(_)));
            let col = if all_int {
                Column::Int(
                    rows.iter()
                        .map(|r| match r[ci] {
                            AValue::Int(i) => i,
                            _ => unreachable!(),
                        })
                        .collect(),
                )
            } else {
                Column::Item(rows.iter().map(|r| avalue_item(&r[ci])).collect())
            };
            (name, col)
        })
        .collect();
    Table::new(built)
}

fn eval_rownum(
    t: &Table,
    new: Col,
    order: &[exrquy_algebra::SortKey],
    part: Option<Col>,
    threads: usize,
    vec: bool,
) -> Table {
    let n = t.nrows();
    // Fast path (§7): `%⟨⟩` with no order criteria needs no sort — dense
    // per-group counters in one pass; "this operator comes for free".
    if order.is_empty() {
        let nums: Vec<i64> = match part {
            None => (1..=n as i64).collect(),
            Some(p) => {
                let pc = t.col(p);
                let mut counters: HashMap<GroupKey, i64> = HashMap::new();
                (0..n)
                    .map(|r| {
                        let c = counters.entry(pc.get(r).group_key()).or_insert(0);
                        *c += 1;
                        *c
                    })
                    .collect()
            }
        };
        return t.with_column(new, Column::Int(nums));
    }
    // Sort keys: materialize integer columns once so the comparator
    // avoids per-comparison Item boxing (and selection-vector
    // indirection) — `%` is the hot operator whose cost the whole paper
    // is about, keep its constant factors honest.
    enum Key {
        Int(Vec<i64>, bool),
        Item(ColView, bool),
    }
    impl Key {
        fn cmp_rows(&self, a: usize, b: usize) -> std::cmp::Ordering {
            match self {
                Key::Int(v, desc) => {
                    let o = v[a].cmp(&v[b]);
                    if *desc {
                        o.reverse()
                    } else {
                        o
                    }
                }
                Key::Item(c, desc) => {
                    let o = c.get(a).sort_cmp(&c.get(b));
                    if *desc {
                        o.reverse()
                    } else {
                        o
                    }
                }
            }
        }
        fn eq_rows(&self, a: usize, b: usize) -> bool {
            self.cmp_rows(a, b) == std::cmp::Ordering::Equal
        }
    }
    fn key_for(view: ColView, desc: bool) -> Key {
        match int_view(&view) {
            Some(v) => Key::Int(v.into_owned(), desc),
            None => Key::Item(view, desc),
        }
    }
    let mut keys: Vec<Key> = Vec::with_capacity(order.len() + 1);
    if let Some(p) = part {
        keys.push(key_for(t.col(p), false));
    }
    for k in order {
        keys.push(key_for(t.col(k.col), k.desc));
    }
    let cmp = |a: usize, b: usize| {
        for k in &keys {
            let c = k.cmp_rows(a, b);
            if c != std::cmp::Ordering::Equal {
                return c;
            }
        }
        std::cmp::Ordering::Equal
    };
    let has_part = part.is_some();
    // Vectorized: a sortedness probe over the materialized keys skips
    // the sort when rows already arrive in key order (the common
    // iter→seq reorder over staircase output, which is produced in
    // document order). A stable sort of sorted input is the identity
    // permutation, so numbering sequentially is bit-identical.
    if vec && (1..n).all(|r| cmp(r - 1, r) != std::cmp::Ordering::Greater) {
        let mut nums = vec![0i64; n];
        let mut rank = 0i64;
        for (r, num) in nums.iter_mut().enumerate() {
            let new_group = match (has_part, r) {
                (_, 0) => true,
                (true, _) => !keys[0].eq_rows(r, r - 1),
                (false, _) => false,
            };
            rank = if new_group { 1 } else { rank + 1 };
            *num = rank;
        }
        return t.with_column(new, Column::Int(nums));
    }
    let idx = stable_sorted_indices(n, threads, &cmp);
    // Dense 1,2,3,… numbering per partition, written back to row order.
    let mut nums = vec![0i64; n];
    let mut rank = 0i64;
    for (k, &row) in idx.iter().enumerate() {
        let new_group = match (has_part, k) {
            (_, 0) => true,
            (true, _) => !keys[0].eq_rows(row, idx[k - 1]),
            (false, _) => false,
        };
        rank = if new_group { 1 } else { rank + 1 };
        nums[row] = rank;
    }
    t.with_column(new, Column::Int(nums))
}

/// Index sort reproducing the serial `sort_by` (stable) bit-for-bit:
/// morsel chunks are stable-sorted in parallel, then folded left-to-right
/// through a left-preference merge. Equal keys keep the lower original
/// index — exactly the stability guarantee of the serial sort — because
/// chunks cover ascending index ranges and the merge prefers the left run
/// on ties.
fn stable_sorted_indices<C>(n: usize, threads: usize, cmp: &C) -> Vec<usize>
where
    C: Fn(usize, usize) -> std::cmp::Ordering + Sync,
{
    let eff = kernel_threads(n, threads);
    if eff <= 1 {
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&a, &b| cmp(a, b));
        return idx;
    }
    let chunks = run_morsels(n, eff, move |range| {
        let mut idx: Vec<usize> = range.collect();
        idx.sort_by(|&a, &b| cmp(a, b));
        Ok(idx)
    })
    .expect("infallible index sort");
    chunks
        .into_iter()
        .reduce(|a, b| stable_merge(&a, &b, cmp))
        .unwrap_or_default()
}

fn stable_merge<C>(a: &[usize], b: &[usize], cmp: &C) -> Vec<usize>
where
    C: Fn(usize, usize) -> std::cmp::Ordering,
{
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if cmp(a[i], b[j]) != std::cmp::Ordering::Greater {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Dense `i64` values of a view whose underlying column is `Int`: the
/// shared slice when unselected, a gathered copy when a selection vector
/// is interposed. `None` for non-`Int` representations.
fn int_view<'a>(c: &'a ColView) -> Option<std::borrow::Cow<'a, [i64]>> {
    match (&**c.data(), c.sel()) {
        (Column::Int(v), None) => Some(std::borrow::Cow::Borrowed(v.as_slice())),
        (Column::Int(v), Some(s)) => Some(std::borrow::Cow::Owned(
            s.iter().map(|&i| v[i as usize]).collect(),
        )),
        _ => None,
    }
}

/// Non-decreasing? One linear scan — cheap next to building a hash
/// index, and the gate for the merge-join batch kernel.
fn is_sorted_run(v: &[i64]) -> bool {
    v.windows(2).all(|w| w[0] <= w[1])
}

// ------------------------------------------------- batch join machinery

/// Multiply-rotate hasher for the batch join kernels: they hash short
/// in-memory keys by the million, where SipHash's HashDoS hardening is
/// all cost and no threat model (the data is already resident).
#[derive(Default)]
pub(crate) struct FastHasher(u64);

impl std::hash::Hasher for FastHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_u64(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let mut last = 0u64;
        for &b in chunks.remainder() {
            last = last << 8 | b as u64;
        }
        self.write_u64(last ^ (bytes.len() as u64) << 56);
    }
}

pub(crate) type FastMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<FastHasher>>;

/// Borrowed join key with [`Item::group_key`] equality semantics
/// (numbers collapse to their f64 bits) but no per-row allocation or
/// `Arc` clone.
#[derive(PartialEq, Eq, Hash)]
enum RefKey<'a> {
    Node(NodeId),
    Num(u64),
    Str(&'a str),
    Bool(bool),
}

fn ref_key(it: &Item) -> RefKey<'_> {
    match it {
        Item::Node(n) => RefKey::Node(*n),
        Item::Int(i) => RefKey::Num((*i as f64).to_bits()),
        Item::Dbl(d) => RefKey::Num(d.to_bits()),
        Item::Str(s) => RefKey::Str(s),
        Item::Bool(b) => RefKey::Bool(*b),
    }
}

/// Run `f(row, key)` over every row of a view, resolving the column
/// representation and selection vector once outside the loop instead of
/// through per-row `get` dispatch (which clones the item).
fn for_each_key<'a>(c: &'a ColView, mut f: impl FnMut(usize, RefKey<'a>)) {
    match (&**c.data(), c.sel()) {
        (Column::Item(v), None) => {
            for (r, it) in v.iter().enumerate() {
                f(r, ref_key(it));
            }
        }
        (Column::Item(v), Some(s)) => {
            for (r, &p) in s.iter().enumerate() {
                f(r, ref_key(&v[p as usize]));
            }
        }
        (Column::Int(v), None) => {
            for (r, &i) in v.iter().enumerate() {
                f(r, RefKey::Num((i as f64).to_bits()));
            }
        }
        (Column::Int(v), Some(s)) => {
            for (r, &p) in s.iter().enumerate() {
                f(r, RefKey::Num((v[p as usize] as f64).to_bits()));
            }
        }
        (Column::Bool(v), None) => {
            for r in 0..v.len() {
                f(r, RefKey::Bool(v.get(r)));
            }
        }
        (Column::Bool(v), Some(s)) => {
            for (r, &p) in s.iter().enumerate() {
                f(r, RefKey::Bool(v.get(p as usize)));
            }
        }
    }
}

/// Hash-join row-pair builder over borrowed keys — the batch-path
/// replacement for the per-row `group_key` probe loop. Pair order (left
/// rows in order, each with its right matches in right-row order), the
/// row-cap check, and the poll cadence are identical to the scalar
/// loop's, so the kernels are error- and output-interchangeable.
fn hash_join_pairs<'a>(
    lc: &'a ColView,
    rc: &'a ColView,
    cap: usize,
    meter: &BudgetMeter,
    lidx: &mut Vec<u32>,
    ridx: &mut Vec<u32>,
) -> Result<(), EvalError> {
    let mut index: FastMap<RefKey<'a>, Vec<u32>> = FastMap::default();
    for_each_key(rc, |j, k| index.entry(k).or_default().push(j as u32));
    let mut err: Option<EvalError> = None;
    for_each_key(lc, |i, k| {
        if err.is_some() {
            return;
        }
        if let Some(matches) = index.get(&k) {
            for &j in matches {
                if lidx.len() >= cap {
                    err = Some(row_cap_exceeded(cap));
                    return;
                }
                lidx.push(i as u32);
                ridx.push(j);
                if lidx.len().is_multiple_of(POLL_STRIDE) {
                    if let Err(e) = meter.poll() {
                        err = Some(e.into());
                        return;
                    }
                }
            }
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Stable ascending lexicographic sort by integer key columns — the
/// order-restoring compensation the cost-based join enumerator grafts
/// over a reordered join cluster. The rank columns are assigned before
/// any reordering, so sorting by them reproduces the canonical row
/// order byte-for-byte regardless of the join order actually executed.
fn eval_sort(t: &Table, keys: &[Col], vec: bool) -> Result<Table, EvalError> {
    let key_cols: Vec<Vec<i64>> = keys
        .iter()
        .map(|&k| t.col(k).to_int_vec())
        .collect::<Result<_, _>>()?;
    let mut idx: Vec<u32> = (0..t.nrows() as u32).collect();
    // `sort_by` is stable: rows with equal key tuples keep their input
    // order, which the regraft invariant relies on for duplicate ranks.
    idx.sort_by(|&a, &b| {
        for kc in &key_cols {
            match kc[a as usize].cmp(&kc[b as usize]) {
                std::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(if vec {
        t.select_rows(idx)
    } else {
        let idx: Vec<usize> = idx.iter().map(|&i| i as usize).collect();
        t.gather(&idx)
    })
}

fn eval_distinct(t: &Table, vec: bool) -> Table {
    let mut idx: Vec<u32> = Vec::new();
    // Vectorized: a single dense integer column (distinct over
    // loop-lifted `iter` values, typically ascending) run-dedups when
    // sorted and falls back to an integer set otherwise — no per-row
    // key vector either way. First-occurrence order is what the generic
    // scan produces too, so the reference arm stays byte-identical.
    if let ([(_, c)], true) = (t.columns(), vec) {
        if let Some(v) = int_view(c) {
            if v.is_sorted() {
                for r in 0..v.len() {
                    if r == 0 || v[r] != v[r - 1] {
                        idx.push(r as u32);
                    }
                }
            } else {
                let mut seen: std::collections::HashSet<
                    i64,
                    std::hash::BuildHasherDefault<FastHasher>,
                > = Default::default();
                for (r, &k) in v.iter().enumerate() {
                    if seen.insert(k) {
                        idx.push(r as u32);
                    }
                }
            }
            return if vec {
                t.select_rows(idx)
            } else {
                let idx: Vec<usize> = idx.iter().map(|&i| i as usize).collect();
                t.gather(&idx)
            };
        }
    }
    let mut seen: std::collections::HashSet<
        Vec<GroupKey>,
        std::hash::BuildHasherDefault<FastHasher>,
    > = Default::default();
    for r in 0..t.nrows() {
        let key: Vec<GroupKey> = t
            .columns()
            .iter()
            .map(|(_, c)| c.get(r).group_key())
            .collect();
        if seen.insert(key) {
            idx.push(r as u32);
        }
    }
    if vec {
        t.select_rows(idx)
    } else {
        let idx: Vec<usize> = idx.iter().map(|&i| i as usize).collect();
        t.gather(&idx)
    }
}

/// The EXRQ0001 error raised when a row-explosive operator would exceed
/// its budget. Raised *before* (or while) materializing, so the budget
/// also bounds memory, not just the reported result size.
fn row_cap_exceeded(cap: usize) -> EvalError {
    EvalError::new(
        ErrorCode::EXRQ0001,
        format!("operator result exceeds the row budget of {cap} rows"),
    )
}

fn eval_cross(l: &Table, r: &Table, cap: usize, vec: bool) -> Result<Table, EvalError> {
    let (n, m) = (l.nrows(), r.nrows());
    // n·m is known up front — reject oversized (or overflowing) products
    // before allocating anything.
    if n.checked_mul(m).is_none_or(|total| total > cap) {
        return Err(row_cap_exceeded(cap));
    }
    let mut lidx: Vec<u32> = Vec::with_capacity(n * m);
    let mut ridx: Vec<u32> = Vec::with_capacity(n * m);
    for i in 0..n {
        for j in 0..m {
            lidx.push(i as u32);
            ridx.push(j as u32);
        }
    }
    Ok(join_output(l, r, lidx, ridx, vec))
}

/// Assemble a join's output from matched (left, right) row pairs. The
/// vectorized shape shares both inputs' columns behind two selection
/// vectors — a join emits zero copied cells; the scalar shape gathers.
fn join_output(l: &Table, r: &Table, lidx: Vec<u32>, ridx: Vec<u32>, vec: bool) -> Table {
    let nrows = lidx.len();
    if vec {
        // `select_rows` composes any prior selection once per distinct
        // vector (not once per column), so a chain of joins stays one
        // indirection deep per side.
        let lt = l.select_rows(lidx);
        let rt = r.select_rows(ridx);
        let mut cols: Vec<(Col, ColView)> =
            Vec::with_capacity(l.columns().len() + r.columns().len());
        for (name, c) in lt.columns() {
            cols.push((*name, c.clone()));
        }
        for (name, c) in rt.columns() {
            cols.push((*name, c.clone()));
        }
        return Table::from_views(cols, nrows);
    }
    let lidx: Vec<usize> = lidx.iter().map(|&i| i as usize).collect();
    let ridx: Vec<usize> = ridx.iter().map(|&i| i as usize).collect();
    let mut cols: Vec<(Col, Column)> = Vec::new();
    for (name, c) in l.columns() {
        cols.push((*name, c.gather(&lidx)));
    }
    for (name, c) in r.columns() {
        cols.push((*name, c.gather(&ridx)));
    }
    Table::new(cols)
}

fn eval_equijoin(
    l: &Table,
    r: &Table,
    lcol: Col,
    rcol: Col,
    meter: &BudgetMeter,
    vec: bool,
) -> Result<Table, EvalError> {
    let cap = meter.op_row_cap();
    let lc = l.col(lcol);
    let rc = r.col(rcol);
    // Fast path: both integer columns. Skewed keys make the match count
    // quadratic in the worst case, so the budget is checked at each push.
    let (mut lidx, mut ridx): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
    match (int_view(&lc), int_view(&rc)) {
        // Batch kernel: loop-lifted plans join on `iter` columns, which
        // arrive sorted on both sides — a linear merge needs no hash
        // table (and none of its per-distinct-key allocations). The pair
        // stream it emits is exactly the hash join's (left rows in
        // order, matching right rows in order within each), so the two
        // kernels are output- and error-interchangeable.
        (Some(lv), Some(rv)) if vec && is_sorted_run(&lv) && is_sorted_run(&rv) => {
            let (mut i, mut j) = (0usize, 0usize);
            while i < lv.len() && j < rv.len() {
                let v = lv[i];
                if v < rv[j] {
                    i += 1;
                } else if v > rv[j] {
                    j += 1;
                } else {
                    // Equal-key group: [j, je) on the right.
                    let mut je = j + 1;
                    while je < rv.len() && rv[je] == v {
                        je += 1;
                    }
                    while i < lv.len() && lv[i] == v {
                        for j2 in j..je {
                            if lidx.len() >= cap {
                                return Err(row_cap_exceeded(cap));
                            }
                            lidx.push(i as u32);
                            ridx.push(j2 as u32);
                            if lidx.len().is_multiple_of(POLL_STRIDE) {
                                meter.poll()?;
                            }
                        }
                        i += 1;
                    }
                    j = je;
                }
            }
        }
        (Some(lv), Some(rv)) => {
            let mut index: HashMap<i64, Vec<u32>> = HashMap::new();
            for (j, &v) in rv.iter().enumerate() {
                index.entry(v).or_default().push(j as u32);
            }
            for (i, &v) in lv.iter().enumerate() {
                if let Some(matches) = index.get(&v) {
                    for &j in matches {
                        if lidx.len() >= cap {
                            return Err(row_cap_exceeded(cap));
                        }
                        lidx.push(i as u32);
                        ridx.push(j);
                        if lidx.len().is_multiple_of(POLL_STRIDE) {
                            meter.poll()?;
                        }
                    }
                }
            }
        }
        _ if vec => hash_join_pairs(&lc, &rc, cap, meter, &mut lidx, &mut ridx)?,
        _ => {
            let mut index: HashMap<GroupKey, Vec<u32>> = HashMap::new();
            for j in 0..r.nrows() {
                index
                    .entry(rc.get(j).group_key())
                    .or_default()
                    .push(j as u32);
            }
            for i in 0..l.nrows() {
                if let Some(matches) = index.get(&lc.get(i).group_key()) {
                    for &j in matches {
                        if lidx.len() >= cap {
                            return Err(row_cap_exceeded(cap));
                        }
                        lidx.push(i as u32);
                        ridx.push(j);
                        if lidx.len().is_multiple_of(POLL_STRIDE) {
                            meter.poll()?;
                        }
                    }
                }
            }
        }
    }
    Ok(join_output(l, r, lidx, ridx, vec))
}

fn eval_thetajoin(
    l: &Table,
    r: &Table,
    pred: &[(Col, FunKind, Col)],
    meter: &BudgetMeter,
    vec: bool,
) -> Result<Table, EvalError> {
    // Invariant: the compiler only emits ThetaJoin with a non-empty
    // predicate list (an empty one would be a Cross in disguise).
    assert!(!pred.is_empty(), "theta join needs at least one predicate");
    let cap = meter.op_row_cap();
    let (p0l, k0, p0r) = pred[0];
    let lc = l.col(p0l);
    let rc = r.col(p0r);
    let (mut lidx, mut ridx): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
    match k0 {
        FunKind::Eq if vec => {
            hash_join_pairs(&lc, &rc, cap, meter, &mut lidx, &mut ridx)?;
        }
        FunKind::Eq => {
            let mut index: HashMap<GroupKey, Vec<u32>> = HashMap::new();
            for j in 0..r.nrows() {
                index
                    .entry(rc.get(j).group_key())
                    .or_default()
                    .push(j as u32);
            }
            for i in 0..l.nrows() {
                if let Some(matches) = index.get(&lc.get(i).group_key()) {
                    for &j in matches {
                        if lidx.len() >= cap {
                            return Err(row_cap_exceeded(cap));
                        }
                        lidx.push(i as u32);
                        ridx.push(j);
                        if lidx.len().is_multiple_of(POLL_STRIDE) {
                            meter.poll()?;
                        }
                    }
                }
            }
        }
        FunKind::Lt | FunKind::Le | FunKind::Gt | FunKind::Ge => {
            // Band join: sort the right side numerically, emit a range per
            // left row. Non-numeric values never match.
            let mut rvals: Vec<(f64, u32)> = (0..r.nrows())
                .filter_map(|j| rc.get(j).as_number_promoting().map(|v| (v, j as u32)))
                .filter(|(v, _)| !v.is_nan())
                .collect();
            // NaNs were filtered above, so partial_cmp cannot return None.
            rvals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let keys: Vec<f64> = rvals.iter().map(|&(v, _)| v).collect();
            for i in 0..l.nrows() {
                let Some(x) = lc.get(i).as_number_promoting() else {
                    continue;
                };
                if x.is_nan() {
                    continue;
                }
                let range = match k0 {
                    // l < r  → right values strictly greater than x
                    FunKind::Lt => keys.partition_point(|&v| v <= x)..keys.len(),
                    FunKind::Le => keys.partition_point(|&v| v < x)..keys.len(),
                    // l > r  → right values strictly less than x
                    FunKind::Gt => 0..keys.partition_point(|&v| v < x),
                    FunKind::Ge => 0..keys.partition_point(|&v| v <= x),
                    _ => unreachable!(),
                };
                if lidx.len() + range.len() > cap {
                    return Err(row_cap_exceeded(cap));
                }
                for k in range {
                    lidx.push(i as u32);
                    ridx.push(rvals[k].1);
                    if lidx.len().is_multiple_of(POLL_STRIDE) {
                        meter.poll()?;
                    }
                }
            }
        }
        FunKind::Ne => {
            // Rare; nested loop.
            let mut scanned = 0usize;
            for i in 0..l.nrows() {
                for j in 0..r.nrows() {
                    scanned += 1;
                    if scanned.is_multiple_of(POLL_STRIDE) {
                        meter.poll()?;
                    }
                    if funs::compare_with(FunKind::Ne, &lc.get(i), &rc.get(j)) {
                        if lidx.len() >= cap {
                            return Err(row_cap_exceeded(cap));
                        }
                        lidx.push(i as u32);
                        ridx.push(j as u32);
                    }
                }
            }
        }
        other => {
            return Err(EvalError::new(
                ErrorCode::XPST0017,
                format!("unsupported theta-join predicate {other:?}"),
            ))
        }
    }
    // Residual predicates filter the candidate pairs.
    if pred.len() > 1 {
        let rest: Vec<_> = pred[1..]
            .iter()
            .map(|&(lcn, k, rcn)| (l.col(lcn), k, r.col(rcn)))
            .collect();
        let mut flidx = Vec::new();
        let mut fridx = Vec::new();
        'pair: for p in 0..lidx.len() {
            for (lcn, k, rcn) in &rest {
                if !funs::compare_with(*k, &lcn.get(lidx[p] as usize), &rcn.get(ridx[p] as usize)) {
                    continue 'pair;
                }
            }
            flidx.push(lidx[p]);
            fridx.push(ridx[p]);
        }
        lidx = flidx;
        ridx = fridx;
    }
    Ok(join_output(l, r, lidx, ridx, vec))
}

/// Expand `lo..=hi` integer ranges per row (empty when lo > hi). A query
/// like `(1 to 100000000000)` must trip the row budget incrementally, not
/// after exhausting memory, so the cap is checked inside the loop — and
/// the meter is polled there too, so a cancellation or hard deadline
/// stops the expansion instead of waiting out a hundred-million-row op.
fn eval_range(
    t: &Table,
    lo: Col,
    hi: Col,
    new: Col,
    meter: &BudgetMeter,
    vec: bool,
) -> Result<Table, EvalError> {
    let cap = meter.op_row_cap();
    let loc = t.col(lo);
    let hic = t.col(hi);
    let mut idx: Vec<u32> = Vec::new();
    let mut vals: Vec<i64> = Vec::new();
    for r in 0..t.nrows() {
        let (a, b) = (range_int(&loc.get(r))?, range_int(&hic.get(r))?);
        for v in a..=b {
            if vals.len() >= cap {
                return Err(row_cap_exceeded(cap));
            }
            idx.push(r as u32);
            vals.push(v);
            if vals.len().is_multiple_of(POLL_STRIDE) {
                meter.poll()?;
            }
        }
    }
    let base = if vec {
        t.select_rows(idx)
    } else {
        let idx: Vec<usize> = idx.iter().map(|&i| i as usize).collect();
        t.gather(&idx)
    };
    Ok(base.with_column(new, Column::Int(vals)))
}

fn range_int(i: &Item) -> Result<i64, EvalError> {
    match i.as_number_promoting() {
        Some(f) if f.fract() == 0.0 => Ok(f as i64),
        _ => Err(EvalError::new(
            ErrorCode::FORG0001,
            format!("range bound `{i}` is not an integer"),
        )),
    }
}

fn eval_union(l: &Table, r: &Table) -> Table {
    let mut cols: Vec<(Col, Column)> = Vec::new();
    for (name, lc) in l.columns() {
        let rc = r.col(*name);
        cols.push((*name, lc.to_ref().append(&rc.to_ref())));
    }
    Table::new(cols)
}

fn eval_difference(l: &Table, r: &Table, on: &[(Col, Col)], vec: bool) -> Table {
    let rcols: Vec<_> = on.iter().map(|&(_, rc)| r.col(rc)).collect();
    let keys: std::collections::HashSet<Vec<GroupKey>> = (0..r.nrows())
        .map(|j| rcols.iter().map(|c| c.get(j).group_key()).collect())
        .collect();
    let lcols: Vec<_> = on.iter().map(|&(lc, _)| l.col(lc)).collect();
    let idx: Vec<u32> = (0..l.nrows())
        .filter(|&i| {
            let key: Vec<GroupKey> = lcols.iter().map(|c| c.get(i).group_key()).collect();
            !keys.contains(&key)
        })
        .map(|i| i as u32)
        .collect();
    if vec {
        l.select_rows(idx)
    } else {
        let idx: Vec<usize> = idx.iter().map(|&i| i as usize).collect();
        l.gather(&idx)
    }
}

fn eval_aggr<R: NodeRead + ?Sized>(
    nodes: &R,
    t: &Table,
    kind: AggrKind,
    new: Col,
    arg: Option<Col>,
    part: Option<Col>,
    vec: bool,
) -> Result<Table, EvalError> {
    struct State {
        count: i64,
        sum: f64,
        min: Option<Item>,
        max: Option<Item>,
        any: bool,
        all: bool,
        strs: Vec<(i64, String)>,
        ebv_items: Vec<Item>,
    }
    impl State {
        fn new() -> Self {
            State {
                count: 0,
                sum: 0.0,
                min: None,
                max: None,
                any: false,
                all: true,
                strs: Vec::new(),
                ebv_items: Vec::new(),
            }
        }
    }
    let arg_col = arg.map(|a| t.col(a));
    let part_col = part.map(|p| t.col(p));
    // Vectorized: sorted integer partitions (the loop-lifted common
    // case: grouped by ascending `iter`) aggregate over contiguous runs
    // — no hash map, no per-row state lookup. Count never reads the
    // argument; sum over a dense integer argument adds in the same row
    // order as the per-row loop, so the f64 accumulation is
    // bit-identical.
    if let (Some(p), true) = (&part_col, vec) {
        if let Some(pv) = int_view(p) {
            if matches!(kind, AggrKind::Count | AggrKind::Sum) && pv.is_sorted() {
                let sum_arg = match (kind, &arg_col) {
                    (AggrKind::Sum, Some(a)) => int_view(a),
                    _ => None,
                };
                let fast = matches!(kind, AggrKind::Count) || sum_arg.is_some();
                if fast {
                    let mut out_part: Vec<i64> = Vec::new();
                    let mut out_val: Vec<Item> = Vec::new();
                    let mut i = 0;
                    while i < pv.len() {
                        let k = pv[i];
                        let mut j = i + 1;
                        while j < pv.len() && pv[j] == k {
                            j += 1;
                        }
                        out_part.push(k);
                        out_val.push(match (kind, &sum_arg) {
                            (AggrKind::Count, _) => Item::Int((j - i) as i64),
                            (_, Some(av)) => {
                                let mut s = 0.0f64;
                                for &x in &av[i..j] {
                                    s += x as f64;
                                }
                                Item::Dbl(s)
                            }
                            _ => unreachable!(),
                        });
                        i = j;
                    }
                    let mut cols: Vec<(Col, Column)> = Vec::new();
                    if let Some(pc) = part {
                        cols.push((pc, Column::Int(out_part)));
                    }
                    cols.push((new, Column::Item(out_val)));
                    return Ok(Table::new(cols));
                }
            }
        }
    }
    let pos_col = if t.schema().contains(&Col::POS) {
        Some(t.col(Col::POS))
    } else {
        None
    };
    let mut groups: Vec<(i64, State)> = Vec::new();
    let mut index: FastMap<i64, usize> = FastMap::default();
    for r in 0..t.nrows() {
        let key = match &part_col {
            Some(p) => p.get_int(r)?,
            None => 0,
        };
        let gi = *index.entry(key).or_insert_with(|| {
            groups.push((key, State::new()));
            groups.len() - 1
        });
        let st = &mut groups[gi].1;
        st.count += 1;
        if let Some(a) = &arg_col {
            let item = a.get(r);
            match kind {
                AggrKind::Sum | AggrKind::Avg => {
                    let atom = funs::atomize_item(nodes, &item);
                    let v = atom.as_number_promoting().ok_or_else(|| {
                        EvalError::new(
                            ErrorCode::FORG0001,
                            format!("fn:sum on non-numeric value {item}"),
                        )
                    })?;
                    st.sum += v;
                }
                AggrKind::Max | AggrKind::Min => {
                    // Untyped values promote to xs:double for fn:min/max
                    // (F&O §15.4); non-numeric strings compare lexically.
                    let atom = funs::atomize_item(nodes, &item);
                    let atom = match atom.as_number_promoting() {
                        Some(n) => Item::Dbl(n),
                        None => atom,
                    };
                    let better_max = st.max.as_ref().is_none_or(|m| {
                        funs::compare(&atom, m) == Some(std::cmp::Ordering::Greater)
                    });
                    if better_max {
                        st.max = Some(atom.clone());
                    }
                    let better_min = st
                        .min
                        .as_ref()
                        .is_none_or(|m| funs::compare(&atom, m) == Some(std::cmp::Ordering::Less));
                    if better_min {
                        st.min = Some(atom);
                    }
                }
                AggrKind::Any | AggrKind::All => {
                    let b = item.ebv();
                    st.any |= b;
                    st.all &= b;
                }
                AggrKind::Ebv => st.ebv_items.push(item),
                AggrKind::StrJoin => {
                    let atom = funs::atomize_item(nodes, &item);
                    let posv = match &pos_col {
                        Some(p) => p.get_int(r)?,
                        None => r as i64,
                    };
                    st.strs.push((posv, atom.to_xq_string()));
                }
                AggrKind::Count => {}
            }
        }
    }
    // Aggregates over the absent group: with no partition column the output
    // must still carry one row (count of the empty sequence is 0).
    if part_col.is_none() && groups.is_empty() {
        groups.push((0, State::new()));
    }
    // Deterministic group order.
    groups.sort_by_key(|&(k, _)| k);
    let mut out_part: Vec<i64> = Vec::with_capacity(groups.len());
    let mut out_val: Vec<Item> = Vec::with_capacity(groups.len());
    for (key, mut st) in groups {
        let val = match kind {
            AggrKind::Count => Some(Item::Int(st.count)),
            AggrKind::Sum => Some(Item::Dbl(st.sum)),
            AggrKind::Avg => {
                if st.count == 0 {
                    None
                } else {
                    Some(Item::Dbl(st.sum / st.count as f64))
                }
            }
            AggrKind::Max => st.max.take(),
            AggrKind::Min => st.min.take(),
            AggrKind::Any => Some(Item::Bool(st.any)),
            AggrKind::All => Some(Item::Bool(st.all)),
            AggrKind::Ebv => Some(Item::Bool(ebv_of_group(&st.ebv_items)?)),
            AggrKind::StrJoin => {
                st.strs.sort_by_key(|&(p, _)| p);
                let joined = st
                    .strs
                    .iter()
                    .map(|(_, s)| s.as_str())
                    .collect::<Vec<_>>()
                    .join(" ");
                Some(Item::str(&joined))
            }
        };
        if let Some(v) = val {
            out_part.push(key);
            out_val.push(v);
        }
    }
    let mut cols: Vec<(Col, Column)> = Vec::new();
    if let Some(p) = part {
        cols.push((p, Column::Int(out_part)));
    }
    cols.push((new, Column::Item(out_val)));
    Ok(Table::new(cols))
}

/// Effective boolean value of an item sequence (`fn:boolean` rules).
fn ebv_of_group(items: &[Item]) -> Result<bool, EvalError> {
    match items {
        [] => Ok(false),
        [first, ..] if first.is_node() => Ok(true),
        [single] => Ok(single.ebv()),
        _ => Err(EvalError::new(
            ErrorCode::FORG0006,
            "effective boolean value of a multi-item atomic sequence (FORG0006)",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exrquy_algebra::SortKey;
    use exrquy_xml::{Axis, Catalog, NodeTest};
    use std::sync::Arc;

    fn run(dag: &Dag, root: OpId) -> Table {
        let mut arena = FragArena::new(Arc::new(Catalog::new()));
        let mut e = Engine::new(dag, &mut arena, EngineOptions::default());
        (*e.eval(root).unwrap()).clone()
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

    #[test]
    fn rownum_partitions_and_orders() {
        let mut dag = Dag::new();
        let l = lit(
            &mut dag,
            vec![Col::ITER, Col::ITEM],
            vec![vec![2, 30], vec![1, 20], vec![1, 10], vec![2, 40]],
        );
        let r = dag.add(Op::RowNum {
            input: l,
            new: Col::POS,
            order: vec![SortKey::asc(Col::ITEM)],
            part: Some(Col::ITER),
        });
        let t = run(&dag, r);
        // row order preserved; numbers assigned per iter by item order
        let nums: Vec<i64> = (0..4).map(|i| t.int(Col::POS, i)).collect();
        assert_eq!(nums, vec![1, 2, 1, 2]);
    }

    #[test]
    fn rownum_descending() {
        let mut dag = Dag::new();
        let l = lit(
            &mut dag,
            vec![Col::ITEM],
            vec![vec![10], vec![30], vec![20]],
        );
        let r = dag.add(Op::RowNum {
            input: l,
            new: Col::POS,
            order: vec![SortKey {
                col: Col::ITEM,
                desc: true,
            }],
            part: None,
        });
        let t = run(&dag, r);
        let nums: Vec<i64> = (0..3).map(|i| t.int(Col::POS, i)).collect();
        assert_eq!(nums, vec![3, 1, 2]);
    }

    #[test]
    fn rowid_attaches_unique_dense() {
        let mut dag = Dag::new();
        let l = lit(&mut dag, vec![Col::ITEM], vec![vec![9], vec![9], vec![9]]);
        let r = dag.add(Op::RowId {
            input: l,
            new: Col::POS,
        });
        let t = run(&dag, r);
        let mut nums: Vec<i64> = (0..3).map(|i| t.int(Col::POS, i)).collect();
        nums.sort_unstable();
        assert_eq!(nums, vec![1, 2, 3]);
    }

    #[test]
    fn select_and_fun() {
        let mut dag = Dag::new();
        let l = lit(
            &mut dag,
            vec![Col::ITEM1, Col::ITEM2],
            vec![vec![1, 2], vec![3, 3], vec![5, 4]],
        );
        let f = dag.add(Op::Fun {
            input: l,
            new: Col::RES,
            kind: FunKind::Lt,
            args: vec![Col::ITEM1, Col::ITEM2],
        });
        let s = dag.add(Op::Select {
            input: f,
            col: Col::RES,
        });
        let t = run(&dag, s);
        assert_eq!(t.nrows(), 1);
        assert_eq!(t.int(Col::ITEM1, 0), 1);
    }

    #[test]
    fn aggr_count_per_group_and_empty_global() {
        let mut dag = Dag::new();
        let l = lit(
            &mut dag,
            vec![Col::ITER, Col::ITEM],
            vec![vec![1, 10], vec![1, 20], vec![3, 30]],
        );
        let a = dag.add(Op::Aggr {
            input: l,
            kind: AggrKind::Count,
            new: Col::RES,
            arg: None,
            part: Some(Col::ITER),
        });
        let t = run(&dag, a);
        assert_eq!(t.nrows(), 2);
        assert_eq!(t.int(Col::ITER, 0), 1);
        assert_eq!(t.item(Col::RES, 0), Item::Int(2));
        assert_eq!(t.item(Col::RES, 1), Item::Int(1));

        // Global count over an empty input still yields one row of 0.
        let empty = lit(&mut dag, vec![Col::ITEM], vec![]);
        let a2 = dag.add(Op::Aggr {
            input: empty,
            kind: AggrKind::Count,
            new: Col::RES,
            arg: None,
            part: None,
        });
        let t2 = run(&dag, a2);
        assert_eq!(t2.nrows(), 1);
        assert_eq!(t2.item(Col::RES, 0), Item::Int(0));
    }

    #[test]
    fn aggr_sum_max_min() {
        let mut dag = Dag::new();
        let l = lit(
            &mut dag,
            vec![Col::ITER, Col::ITEM],
            vec![vec![1, 10], vec![1, 30], vec![2, 5]],
        );
        for (kind, expect1) in [
            (AggrKind::Sum, Item::Dbl(40.0)),
            (AggrKind::Max, Item::Dbl(30.0)),
            (AggrKind::Min, Item::Dbl(10.0)),
            (AggrKind::Avg, Item::Dbl(20.0)),
        ] {
            let a = dag.add(Op::Aggr {
                input: l,
                kind,
                new: Col::RES,
                arg: Some(Col::ITEM),
                part: Some(Col::ITER),
            });
            let t = run(&dag, a);
            assert_eq!(t.item(Col::RES, 0), expect1, "{kind:?}");
        }
    }

    #[test]
    fn equijoin_matches_pairs() {
        let mut dag = Dag::new();
        let l = lit(&mut dag, vec![Col::ITER], vec![vec![1], vec![2], vec![2]]);
        let r = lit(
            &mut dag,
            vec![Col::ITER1, Col::ITEM],
            vec![vec![2, 20], vec![3, 30]],
        );
        let j = dag.add(Op::EquiJoin {
            l,
            r,
            lcol: Col::ITER,
            rcol: Col::ITER1,
        });
        let t = run(&dag, j);
        assert_eq!(t.nrows(), 2);
        assert_eq!(t.int(Col::ITEM, 0), 20);
    }

    #[test]
    fn thetajoin_band() {
        let mut dag = Dag::new();
        let l = lit(&mut dag, vec![Col::ITEM1], vec![vec![10], vec![25]]);
        let r = lit(
            &mut dag,
            vec![Col::ITEM2],
            vec![vec![5], vec![15], vec![20], vec![30]],
        );
        let j = dag.add(Op::ThetaJoin {
            l,
            r,
            pred: vec![(Col::ITEM1, FunKind::Gt, Col::ITEM2)],
        });
        let t = run(&dag, j);
        // 10 > {5}; 25 > {5,15,20} → 4 pairs
        assert_eq!(t.nrows(), 4);
        let le = dag.add(Op::ThetaJoin {
            l,
            r,
            pred: vec![(Col::ITEM1, FunKind::Le, Col::ITEM2)],
        });
        let t = run(&dag, le);
        // 10 <= {15,20,30}; 25 <= {30} → 4 pairs
        assert_eq!(t.nrows(), 4);
    }

    #[test]
    fn union_aligns_columns() {
        let mut dag = Dag::new();
        let l = lit(&mut dag, vec![Col::ITER, Col::ITEM], vec![vec![1, 10]]);
        // Same column set, different layout order.
        let r = lit(&mut dag, vec![Col::ITEM, Col::ITER], vec![vec![20, 2]]);
        let u = dag.add(Op::Union { l, r });
        let t = run(&dag, u);
        assert_eq!(t.nrows(), 2);
        assert_eq!(t.int(Col::ITER, 1), 2);
        assert_eq!(t.int(Col::ITEM, 1), 20);
    }

    #[test]
    fn difference_filters_by_key() {
        let mut dag = Dag::new();
        let l = lit(&mut dag, vec![Col::ITER], vec![vec![1], vec![2], vec![3]]);
        let r = lit(&mut dag, vec![Col::ITER1], vec![vec![2]]);
        let d = dag.add(Op::Difference {
            l,
            r,
            on: vec![(Col::ITER, Col::ITER1)],
        });
        let t = run(&dag, d);
        assert_eq!(t.nrows(), 2);
    }

    #[test]
    fn distinct_removes_duplicate_rows() {
        let mut dag = Dag::new();
        let l = lit(
            &mut dag,
            vec![Col::ITER, Col::ITEM],
            vec![vec![1, 10], vec![1, 10], vec![1, 20]],
        );
        let d = dag.add(Op::Distinct { input: l });
        assert_eq!(run(&dag, d).nrows(), 2);
    }

    #[test]
    fn step_over_document() {
        let mut dag = Dag::new();
        let doc_op = dag.add(Op::Doc {
            url: Arc::from("t.xml"),
        });
        let ctx = dag.add(Op::Attach {
            input: doc_op,
            col: Col::ITER,
            value: AValue::Int(1),
        });
        let mut builder = Catalog::builder();
        builder
            .load_str("t.xml", "<a><b><c/><d/></b><c/></a>")
            .unwrap();
        let catalog = Arc::new(builder.build());

        let name_c = catalog.pool().lookup("c").unwrap();
        let dos = dag.add(Op::Step {
            input: ctx,
            axis: Axis::DescendantOrSelf,
            test: NodeTest::AnyKind,
        });
        let step_c = dag.add(Op::Step {
            input: dos,
            axis: Axis::Child,
            test: NodeTest::Name(name_c),
        });
        let mut arena = FragArena::new(catalog);
        let mut e = Engine::new(&dag, &mut arena, EngineOptions::default());
        let t = e.eval(step_c).unwrap();
        // c1 (pre 3) and c2 (pre 5)
        assert_eq!(t.nrows(), 2);
        assert_eq!(t.item(Col::ITEM, 0), Item::Node(NodeId::new(0, 3)));
        assert_eq!(t.item(Col::ITEM, 1), Item::Node(NodeId::new(0, 5)));
        // Profile recorded step time under "⬡".
        assert!(e.profile.per_kind().contains_key("⬡"));
    }

    #[test]
    fn element_construction_with_content() {
        let mut dag = Dag::new();
        // names: iter 1 → "e"
        let names = dag.add(Op::Lit {
            cols: vec![Col::ITER, Col::ITEM],
            rows: vec![vec![AValue::Int(1), AValue::str("e")]],
        });
        // content: iter 1 → items 10, "x" at pos 1, 2
        let content = dag.add(Op::Lit {
            cols: vec![Col::ITER, Col::POS, Col::ITEM],
            rows: vec![
                vec![AValue::Int(1), AValue::Int(1), AValue::Int(10)],
                vec![AValue::Int(1), AValue::Int(2), AValue::str("x")],
            ],
        });
        let elem = dag.add(Op::Element { names, content });
        let mut arena = FragArena::new(Arc::new(Catalog::new()));
        let mut e = Engine::new(&dag, &mut arena, EngineOptions::default());
        let t = e.eval(elem).unwrap();
        assert_eq!(t.nrows(), 1);
        let Item::Node(n) = t.item(Col::ITEM, 0) else {
            panic!("expected node")
        };
        let rendered = exrquy_xml::serialize::node_to_string(e.arena, n);
        // adjacent atomics joined with a space into one text node
        assert_eq!(rendered, "<e>10 x</e>");
    }

    #[test]
    fn ebv_rules_on_groups() {
        assert!(!ebv_of_group(&[]).unwrap());
        assert!(ebv_of_group(&[Item::Node(NodeId::new(0, 0)), Item::Int(0)]).unwrap());
        assert!(!ebv_of_group(&[Item::Int(0)]).unwrap());
        assert!(ebv_of_group(&[Item::Int(1), Item::Int(2)]).is_err());
    }

    #[test]
    fn shared_subplans_evaluate_once() {
        let mut dag = Dag::new();
        let l = lit(&mut dag, vec![Col::ITER], vec![vec![1], vec![2]]);
        let a = dag.add(Op::RowId {
            input: l,
            new: Col::POS,
        });
        let d = dag.add(Op::Difference {
            l: a,
            r: a,
            on: vec![(Col::POS, Col::POS)],
        });
        let t = run(&dag, d);
        assert_eq!(t.nrows(), 0);
    }
}
