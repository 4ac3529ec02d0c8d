//! The query pipeline rebuilt from each module's public calls, one span
//! per call. It mirrors `Executor::prepare`/`Executor::execute` stage for
//! stage, so its output must be byte-identical to the `Session` path; the
//! traced run checks exactly that for every operation.

use crate::trace::Tracer;
use exrquy::algebra::{lower, Col, Dag, PhysPlan, PlanStats};
use exrquy::engine::{Engine, EngineOptions, Item, Profile};
use exrquy::frontend::{check_depth, normalize_opts, parse_module_with};
use exrquy::opt::{cost_optimize, try_optimize_with, CostContext, CostReport, OptReport};
use exrquy::result::{serialize_sequence, ResultItem};
use exrquy::xml::{serialize, Catalog, FragArena, NamePool, NodeRead};
use exrquy::QueryOptions;
use exrquy_compiler::{CompiledPlan, Compiler};
use std::sync::Arc;

/// A plan compiled stage by stage (the fields `Prepared` keeps private
/// included, so the benchmark can drive the engine itself).
pub struct ModPlan {
    pub dag: Dag,
    pub phys: PhysPlan,
    pub names: Arc<NamePool>,
    pub stats_initial: PlanStats,
    pub stats_final: PlanStats,
    pub opt_report: OptReport,
    pub cost_report: CostReport,
}

/// First call of the two lazily built indexes: the catalog statistics
/// freeze and the name streams of the document registered under `url`.
pub fn build_lazy_indexes(catalog: &Catalog, url: &str, t: &mut Tracer, req: u64) {
    t.time("xml.stats", req, || {
        catalog.stats();
    });
    t.time("xml.name_streams", req, || {
        if let Some(root) = catalog.doc_root(url) {
            catalog.frag(root.frag).name_streams();
        }
    });
}

/// parse → normalize → compile → rewrite → cost → lower.
pub fn compile(
    catalog: &Catalog,
    query: &str,
    opts: &QueryOptions,
    t: &mut Tracer,
    req: u64,
) -> Result<ModPlan, String> {
    let max_depth = opts
        .budget
        .max_depth
        .unwrap_or(exrquy::frontend::DEFAULT_MAX_DEPTH);
    let mut module = t
        .time("frontend.parse", req, || {
            parse_module_with(query, max_depth)
        })
        .map_err(|e| e.to_string())?;
    let module = t
        .time("frontend.normalize", req, || {
            if let Some(mode) = opts.ordering {
                module.ordering = mode;
            }
            let module = normalize_opts(&module, opts.exploit);
            check_depth(&module, max_depth.saturating_add(16)).map(|()| module)
        })
        .map_err(|e| e.to_string())?;
    let CompiledPlan {
        mut dag,
        root,
        names,
    } = t
        .time("compiler.compile", req, || {
            Compiler::new(catalog).compile_module(&module)
        })
        .map_err(|e| e.to_string())?;
    let (stats_initial, (root, opt_report)) = t
        .time("opt.rewrite", req, || {
            let initial = PlanStats::of(&dag, root);
            let perturb = opts.failpoints.perturbed_rule();
            try_optimize_with(&mut dag, root, &opts.opt, perturb).map(|r| (initial, r))
        })
        .map_err(|e| e.to_string())?;
    let (root, cost_report, stats_final) = t
        .time("opt.cost", req, || {
            let ctx = CostContext {
                stats: Some(catalog.stats()),
                perturb: opts.failpoints.perturbed_stats(),
            };
            cost_optimize(&mut dag, root, &opts.opt, &ctx)
                .map(|(root, report)| (root, report, PlanStats::of(&dag, root)))
        })
        .map_err(|e| e.to_string())?;
    let phys = t.time("algebra.lower", req, || lower(&dag, root, opts.vectorized));
    Ok(ModPlan {
        dag,
        phys,
        names,
        stats_initial,
        stats_final,
        opt_report,
        cost_report,
    })
}

/// What one execution produced, with its engine profile.
pub struct Executed {
    pub xml: String,
    pub profile: Profile,
}

/// eval_plan → order by `pos` + serialize → drop the overlay.
pub fn execute(
    catalog: &Arc<Catalog>,
    plan: &ModPlan,
    opts: &QueryOptions,
    t: &mut Tracer,
    req: u64,
) -> Result<Executed, String> {
    let mut arena = FragArena::with_names(Arc::clone(catalog), Arc::clone(&plan.names));
    let (table, profile) = t
        .time("engine.execute", req, || {
            let mut engine = Engine::new(
                &plan.dag,
                &mut arena,
                EngineOptions {
                    step_algo: opts.step_algo,
                    budget: opts.budget.clone(),
                    threads: opts.threads,
                    scalar: !opts.vectorized,
                    ..EngineOptions::default()
                },
            );
            let table = engine.eval_plan(&plan.phys)?;
            Ok::<_, exrquy::engine::EvalError>((table, std::mem::take(&mut engine.profile)))
        })
        .map_err(|e| e.to_string())?;
    let xml = t.time("xml.serialize", req, || {
        let pos = table.col(Col::POS);
        let item = table.col(Col::ITEM);
        let mut order: Vec<usize> = (0..table.nrows()).collect();
        match pos.to_int_vec() {
            Ok(keys) => order.sort_by_key(|&a| keys[a]),
            Err(_) => order.sort_by(|&a, &b| pos.get(a).sort_cmp(&pos.get(b))),
        }
        let items: Vec<ResultItem> = order
            .into_iter()
            .map(|r| match item.get(r) {
                Item::Node(n) => ResultItem::Node(serialize::node_to_string(&arena, n)),
                Item::Int(i) => ResultItem::Int(i),
                Item::Dbl(d) => ResultItem::Dbl(d),
                Item::Str(s) => ResultItem::Str(s.to_string()),
                Item::Bool(b) => ResultItem::Bool(b),
            })
            .collect();
        serialize_sequence(&items)
    });
    t.time("core.teardown", req, || {
        drop(table);
        drop(arena);
    });
    Ok(Executed { xml, profile })
}
