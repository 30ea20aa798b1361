//! The pass-ordered rule driver.
//!
//! §4.4 observes that the rules "either push GApply down in the join
//! tree, or altogether eliminate GApply, or add new selections and
//! projections in the outer subtree, none of which can be reversed by
//! any of the other rules — hence successive firing of rules will
//! terminate". The driver encodes that argument structurally: monotone
//! normalisation rules run to fixpoint, while the rules that *insert*
//! outer-side operators (whose output other rules then move further, and
//! which must therefore not see their own output again) run exactly once
//! per plan.

use crate::rules::{
    AggregateSelection, ClaimProbe, ConvertToGroupBy, DecorrelateScalarAgg, ExistsGroupSelection,
    InvariantGrouping, JoinReorder, ProjectBeforeGApply, ProjectIntoPgq, PruneColumns,
    RemoveIdentityProject, Rule, RuleContext, SelectBeforeGApply, SelectIntoPgq, SelectPushdown,
    VetoProbe,
};
use crate::stats::Statistics;
use xmlpub_algebra::LogicalPlan;
use xmlpub_analysis::Claim;
use xmlpub_lint::{Ambient, Diagnostic, LintRegistry, PlanPath};
use xmlpub_obs::ObsContext;

/// Per-rule enable flags. Default: everything on, group/aggregate
/// selection cost-gated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizerConfig {
    /// `σ(R GA R₂) = R GA σ(R₂)`.
    pub select_into_pgq: bool,
    /// `π_{C∪B}(R GA R₂) = R GA π_B(R₂)`.
    pub project_into_pgq: bool,
    /// Placing selections before GApply (§4.1).
    pub select_before_gapply: bool,
    /// Placing projections before GApply (§4.1).
    pub project_before_gapply: bool,
    /// Converting GApply to groupby (§4.1).
    pub convert_to_groupby: bool,
    /// Group selection via exists (§4.2).
    pub group_selection: bool,
    /// Group selection via aggregate condition (§4.2).
    pub aggregate_selection: bool,
    /// Invariant grouping (§4.3).
    pub invariant_grouping: bool,
    /// Classical selection pushdown through joins.
    pub select_pushdown: bool,
    /// Decorrelate correlated scalar-aggregate subqueries into
    /// group-by + left outer join (the \[12\]-style rewrite SQL Server
    /// applied to the paper's baselines).
    pub decorrelate_subqueries: bool,
    /// Rebuild inner-join trees greedily from the cost model when it
    /// rates the result at least
    /// [`MIN_GAIN`](crate::rules::join_reorder::MIN_GAIN) times cheaper.
    pub join_reorder: bool,
    /// Drop the columns no operator reads: dead projection items, and a
    /// join's unread output columns (which the engine then never builds).
    pub prune_columns: bool,
    /// Gate group/aggregate selection on the §4.4 cost model.
    pub cost_gate: bool,
    /// Run the plan linter after every rule firing, attaching its
    /// diagnostics to the firing log entry (and panicking under
    /// `debug_assertions` if any rewrite breaks an invariant). Defaults
    /// to on in debug builds, off in release builds.
    pub verify_rewrites: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            select_into_pgq: true,
            project_into_pgq: true,
            select_before_gapply: true,
            project_before_gapply: true,
            convert_to_groupby: true,
            group_selection: true,
            aggregate_selection: true,
            invariant_grouping: true,
            select_pushdown: true,
            decorrelate_subqueries: true,
            join_reorder: true,
            prune_columns: true,
            cost_gate: true,
            verify_rewrites: cfg!(debug_assertions),
        }
    }
}

impl OptimizerConfig {
    /// Everything disabled — the identity optimizer.
    pub fn none() -> Self {
        OptimizerConfig {
            select_into_pgq: false,
            project_into_pgq: false,
            select_before_gapply: false,
            project_before_gapply: false,
            convert_to_groupby: false,
            group_selection: false,
            aggregate_selection: false,
            invariant_grouping: false,
            select_pushdown: false,
            decorrelate_subqueries: false,
            join_reorder: false,
            prune_columns: false,
            cost_gate: false,
            verify_rewrites: cfg!(debug_assertions),
        }
    }

    /// Enable a single rule by name (plus selection pushdown when the
    /// rule relies on it), for the Table 1 isolation experiments.
    pub fn only(rule: &str) -> Self {
        let mut c = OptimizerConfig::none();
        match rule {
            "select-into-pgq" => c.select_into_pgq = true,
            "project-into-pgq" => c.project_into_pgq = true,
            "select-before-gapply" => {
                c.select_before_gapply = true;
                c.select_pushdown = true;
            }
            "project-before-gapply" => c.project_before_gapply = true,
            "gapply-to-groupby" => c.convert_to_groupby = true,
            "group-selection-exists" => c.group_selection = true,
            "group-selection-aggregate" => c.aggregate_selection = true,
            "invariant-grouping" => c.invariant_grouping = true,
            "select-pushdown" => c.select_pushdown = true,
            "decorrelate-scalar-agg" => c.decorrelate_subqueries = true,
            "join-reorder" => c.join_reorder = true,
            "prune-columns" => c.prune_columns = true,
            other => panic!("unknown rule '{other}'"),
        }
        c
    }
}

/// A record of one rule firing (for EXPLAIN output and the experiment
/// logs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleFiring {
    /// The rule that fired.
    pub rule: &'static str,
    /// Where in the plan the rule fired (path at firing time).
    pub path: PlanPath,
    /// Lint diagnostics attributed to this firing (populated only when
    /// `verify_rewrites` is on; empty means the rewrite checked out).
    pub diagnostics: Vec<Diagnostic>,
    /// The derived-property side conditions the rule consumed while
    /// deciding to fire (paths are relative to the firing site; see
    /// [`Claim`]). `\explain --verify` lists these, and the lint
    /// `properties` pass re-derives each one.
    pub properties: Vec<Claim>,
}

impl RuleFiring {
    /// A clean firing record.
    pub fn new(rule: &'static str, path: PlanPath) -> Self {
        RuleFiring { rule, path, diagnostics: Vec::new(), properties: Vec::new() }
    }
}

/// The optimizer.
pub struct Optimizer<'a> {
    config: OptimizerConfig,
    stats: &'a Statistics,
}

impl<'a> Optimizer<'a> {
    /// An optimizer over gathered statistics.
    pub fn new(config: OptimizerConfig, stats: &'a Statistics) -> Self {
        Optimizer { config, stats }
    }

    /// Optimize a plan, returning the rewritten plan and the firing log.
    ///
    /// The run is wrapped in an `optimize` span with one child span per
    /// rule firing (reusing the [`RuleFiring`] path/diagnostics the
    /// driver already records), and per-rule fire/veto counters land in
    /// the metrics registry. A disabled `obs` makes all of that a no-op:
    /// the rule passes are the same either way, and counter names are
    /// only formatted when a registry is live.
    pub fn optimize(&self, plan: LogicalPlan, obs: &ObsContext) -> (LogicalPlan, Vec<RuleFiring>) {
        let mut span = obs.tracer.span("optimize", obs.parent_span, &[]);
        let probe = VetoProbe::default();
        let (plan, log) = self.run_passes(plan, obs.metrics.enabled().then_some(&probe));
        if obs.metrics.enabled() {
            for firing in &log {
                obs.metrics.add(&format!("optimizer.rule_fired.{}", firing.rule), 1);
            }
            for rule in probe.take() {
                obs.metrics.add(&format!("optimizer.rule_vetoed.{rule}"), 1);
            }
        }
        if obs.tracer.enabled() {
            for firing in &log {
                obs.tracer.emit_span(
                    &format!("rule:{}", firing.rule),
                    span.id(),
                    obs.tracer.now_us(),
                    0,
                    &[
                        ("path", &firing.path.to_string()),
                        ("diagnostics", &firing.diagnostics.len().to_string()),
                    ],
                );
            }
        }
        span.annotate("firings", log.len());
        (plan, log)
    }

    fn run_passes(
        &self,
        plan: LogicalPlan,
        vetoes: Option<&VetoProbe>,
    ) -> (LogicalPlan, Vec<RuleFiring>) {
        let claim_probe = ClaimProbe::default();
        let ctx = RuleContext {
            stats: self.stats,
            cost_gate: self.config.cost_gate,
            vetoes,
            claims: Some(&claim_probe),
        };
        let verifier = self.config.verify_rewrites.then(|| {
            LintRegistry::default_with_properties(self.stats.catalog_properties().clone())
        });
        let driver = Driver { ctx, verifier };
        let mut log = Vec::new();
        let mut plan = plan;

        // Pass 1 (fixpoint): normalisation. Identity projections (the
        // binder's SELECT-list wrappers) are stripped; pull-through rules
        // strictly move selections/projections into the per-group query.
        let mut norm: Vec<Box<dyn Rule>> = vec![Box::new(RemoveIdentityProject)];
        if self.config.decorrelate_subqueries {
            norm.push(Box::new(DecorrelateScalarAgg));
        }
        if self.config.select_into_pgq {
            norm.push(Box::new(SelectIntoPgq));
        }
        if self.config.project_into_pgq {
            norm.push(Box::new(ProjectIntoPgq));
        }
        plan = driver.fixpoint(plan, &norm, &mut log);

        // Pass 2 (once): selection before GApply. Runs once because the
        // selection it inserts is subsequently pushed away from the spot
        // the idempotence check looks at.
        if self.config.select_before_gapply {
            plan = driver.apply_everywhere_root(plan, &SelectBeforeGApply, &mut log);
        }

        // Pass 3 (once): the GApply-eliminating rules. Group/aggregate
        // selection run before the groupby conversion since their pattern
        // is strictly more specific.
        if self.config.group_selection {
            plan = driver.apply_everywhere_root(plan, &ExistsGroupSelection, &mut log);
        }
        if self.config.aggregate_selection {
            plan = driver.apply_everywhere_root(plan, &AggregateSelection, &mut log);
        }
        if self.config.convert_to_groupby {
            plan = driver.apply_everywhere_root(plan, &ConvertToGroupBy, &mut log);
        }

        // Pass 4 (once): push surviving GApplys below FK joins.
        if self.config.invariant_grouping {
            plan = driver.apply_everywhere_root(plan, &InvariantGrouping, &mut log);
        }

        // Pass 5 (once): prune outer columns feeding each GApply.
        if self.config.project_before_gapply {
            plan = driver.apply_everywhere_root(plan, &ProjectBeforeGApply, &mut log);
        }

        // Pass 6 (fixpoint): sink all selections (including the ones the
        // GApply rules introduced) through the join trees.
        if self.config.select_pushdown {
            plan = driver.fixpoint(plan, &[Box::new(SelectPushdown) as Box<dyn Rule>], &mut log);
        }

        // Pass 7 (once): join order from the cost model, on join trees
        // whose conjuncts have all sunk to the joins they belong to.
        if self.config.join_reorder {
            plan = driver.apply_at(
                plan,
                &JoinReorder,
                Sites::JoinTrees { owned: false },
                &Ambient::root(),
                &PlanPath::root(),
                &mut log,
            );
        }

        // Pass 8 (once, at the root): carry only the columns something
        // reads, on the plan every other pass has shaped.
        if self.config.prune_columns {
            plan = driver.fire(plan, &PruneColumns, &Ambient::root(), &PlanPath::root(), &mut log);
        }

        debug_assert!(xmlpub_algebra::validate(&plan).is_ok(), "{}", plan.explain());
        if let Some(reg) = &driver.verifier {
            let diags = reg.lint_plan(&plan);
            debug_assert!(
                diags.is_empty(),
                "optimized plan fails lint:\n{}\n{}",
                diags.iter().map(|d| format!("  {d}")).collect::<Vec<_>>().join("\n"),
                plan.explain()
            );
        }
        (plan, log)
    }
}

/// Where a pass offers its rule.
#[derive(Debug, Clone, Copy)]
enum Sites {
    /// Every node.
    Everywhere,
    /// The root of every maximal inner-join tree: a projection directly
    /// over a join (so the rule can fold its output permutation into
    /// it), or a join whose parent is neither a join nor such a
    /// projection. `owned`: the parent already offered the tree the
    /// current node belongs to.
    JoinTrees { owned: bool },
}

/// The rule-application engine: rule context plus the optional
/// per-firing lint verifier.
struct Driver<'a> {
    ctx: RuleContext<'a>,
    verifier: Option<LintRegistry>,
}

impl Driver<'_> {
    /// Apply a rule top-down from the plan root, at most once per node.
    fn apply_everywhere_root(
        &self,
        plan: LogicalPlan,
        rule: &dyn Rule,
        log: &mut Vec<RuleFiring>,
    ) -> LogicalPlan {
        self.apply_at(plan, rule, Sites::Everywhere, &Ambient::root(), &PlanPath::root(), log)
    }

    /// Apply a rule top-down across a subtree sitting in `ambient` at
    /// `path`, once at each of its `sites`.
    fn apply_at(
        &self,
        plan: LogicalPlan,
        rule: &dyn Rule,
        sites: Sites,
        ambient: &Ambient,
        path: &PlanPath,
        log: &mut Vec<RuleFiring>,
    ) -> LogicalPlan {
        let over_join = |p: &LogicalPlan| match p {
            LogicalPlan::Join { .. } => true,
            LogicalPlan::Project { input, .. } => matches!(**input, LogicalPlan::Join { .. }),
            _ => false,
        };
        let here = match sites {
            Sites::Everywhere => true,
            Sites::JoinTrees { owned } => {
                over_join(&plan) && !(owned && matches!(plan, LogicalPlan::Join { .. }))
            }
        };
        let plan = if here { self.fire(plan, rule, ambient, path, log) } else { plan };
        let child_sites = match sites {
            Sites::Everywhere => Sites::Everywhere,
            Sites::JoinTrees { .. } => Sites::JoinTrees { owned: over_join(&plan) },
        };
        let child_ambients: Vec<Ambient> =
            (0..plan.children().len()).map(|i| ambient.child(&plan, i)).collect();
        let mut idx = 0;
        plan.map_children(&mut |c| {
            let (child_ambient, child_path) = (&child_ambients[idx], path.child(idx));
            idx += 1;
            self.apply_at(c, rule, child_sites, child_ambient, &child_path, log)
        })
    }

    /// Try a rule at one node. When verification is on, every firing is
    /// linted in place: the rewritten subtree is re-checked against the
    /// §3 structural rules and the before/after pair against schema
    /// preservation, column provenance and the firing rule's §4 side
    /// conditions; diagnostics are attributed to the firing.
    fn fire(
        &self,
        plan: LogicalPlan,
        rule: &dyn Rule,
        ambient: &Ambient,
        path: &PlanPath,
        log: &mut Vec<RuleFiring>,
    ) -> LogicalPlan {
        // Drop claims left behind by rules that matched but declined to
        // fire, so each firing records only its own side conditions.
        if let Some(probe) = self.ctx.claims {
            let _ = probe.take();
        }
        match rule.apply(&plan, &self.ctx) {
            Some(p) => {
                let mut firing = RuleFiring::new(rule.name(), path.clone());
                if let Some(probe) = self.ctx.claims {
                    firing.properties = probe.take();
                }
                if let Some(reg) = &self.verifier {
                    let diags = reg.lint_rewrite_claimed(
                        rule.name(),
                        &plan,
                        &p,
                        ambient,
                        &firing.properties,
                    );
                    debug_assert!(
                        diags.is_empty(),
                        "rule `{}` fired at {path} with lint diagnostics:\n{}\n\
                         -- before --\n{}\n-- after --\n{}",
                        rule.name(),
                        diags.iter().map(|d| format!("  {d}")).collect::<Vec<_>>().join("\n"),
                        plan.explain(),
                        p.explain()
                    );
                    firing.diagnostics = diags.into_iter().map(|d| d.prefixed(path)).collect();
                }
                log.push(firing);
                p
            }
            None => plan,
        }
    }

    /// Apply a set of rules everywhere until none fires (bounded).
    fn fixpoint(
        &self,
        mut plan: LogicalPlan,
        rules: &[Box<dyn Rule>],
        log: &mut Vec<RuleFiring>,
    ) -> LogicalPlan {
        const MAX_ITERS: usize = 64;
        for _ in 0..MAX_ITERS {
            let before = log.len();
            for r in rules {
                plan = self.apply_everywhere_root(plan, r.as_ref(), log);
            }
            if log.len() == before {
                break;
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlpub_algebra::{plan::null_item, Catalog, ProjectItem, TableDef};
    use xmlpub_common::{row, DataType, Field, Relation, Schema};
    use xmlpub_expr::{AggExpr, Expr};

    fn catalog() -> Catalog {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("brand", DataType::Str),
            Field::new("price", DataType::Float),
            Field::new("junk", DataType::Str),
        ]);
        let def = TableDef::new("t", schema);
        let data = Relation::new(
            def.schema.clone(),
            vec![
                row![1, "A", 10.0, "x"],
                row![1, "B", 20.0, "x"],
                row![2, "A", 5.0, "x"],
                row![2, "C", 50.0, "x"],
            ],
        )
        .unwrap();
        let mut cat = Catalog::new();
        cat.register(def, data).unwrap();
        cat
    }

    fn scan(cat: &Catalog) -> LogicalPlan {
        LogicalPlan::scan("t", cat.table("t").unwrap().schema.clone())
    }

    #[test]
    fn composed_rules_preserve_semantics() {
        let cat = catalog();
        let stats = Statistics::from_catalog(&cat);
        let gschema = scan(&cat).schema();
        // σ over GApply whose PGQ filters brand A — exercises pull-
        // through, select-before, projection-before together.
        let pgq = LogicalPlan::group_scan(gschema)
            .select(Expr::col(1).eq(Expr::lit("A")))
            .project(vec![ProjectItem::col(2), null_item("pad")]);
        let plan = scan(&cat).gapply(vec![0], pgq).select(Expr::col(1).gt(Expr::lit(1.0)));
        let opt = Optimizer::new(OptimizerConfig::default(), &stats);
        let (optimized, log) = opt.optimize(plan.clone(), &ObsContext::disabled());
        assert!(!log.is_empty());
        let a = xmlpub_engine::execute(&plan, &cat).unwrap();
        let b = xmlpub_engine::execute(&optimized, &cat).unwrap();
        assert!(a.bag_eq(&b), "{}", a.bag_diff(&b));
    }

    #[test]
    fn select_before_then_convert_to_groupby_chain() {
        // §4.1: "The above rules when applied in conjunction with the rule
        // involving selections can lead to many transformations." PGQ =
        // avg over σ_brand=A: pushing the selection out leaves a pure
        // aggregate, which then converts to a plain group-by.
        let cat = catalog();
        let stats = Statistics::from_catalog(&cat);
        let gschema = scan(&cat).schema();
        let pgq = LogicalPlan::group_scan(gschema)
            .select(Expr::col(1).eq(Expr::lit("A")))
            .scalar_agg(vec![AggExpr::avg(Expr::col(2), "avg")]);
        // (avg over a filtered group is NOT emptyOnEmpty, so use min —
        // also NULL-on-empty... and also not emptyOnEmpty. The chain
        // needs a projection-returning PGQ instead:)
        let pgq_rows = LogicalPlan::group_scan(scan(&cat).schema())
            .select(Expr::col(1).eq(Expr::lit("A")))
            .project_cols(&[2]);
        let plan_rows = scan(&cat).gapply(vec![0], pgq_rows);
        let opt = Optimizer::new(OptimizerConfig::default(), &stats);
        let (optimized, log) = opt.optimize(plan_rows.clone(), &ObsContext::disabled());
        assert!(log.iter().any(|f| f.rule == "select-before-gapply"), "{log:?}");
        let a = xmlpub_engine::execute(&plan_rows, &cat).unwrap();
        let b = xmlpub_engine::execute(&optimized, &cat).unwrap();
        assert!(a.bag_eq(&b), "{}", a.bag_diff(&b));

        // The aggregate variant still converts to groupby on its own.
        let plan_agg = scan(&cat).gapply(
            vec![0],
            LogicalPlan::group_scan(scan(&cat).schema())
                .scalar_agg(vec![AggExpr::avg(Expr::col(2), "avg")]),
        );
        let (optimized, log) = opt.optimize(plan_agg.clone(), &ObsContext::disabled());
        assert!(log.iter().any(|f| f.rule == "gapply-to-groupby"), "{log:?}");
        assert!(!optimized.any_node(&|p| matches!(p, LogicalPlan::GApply { .. })));
        let a = xmlpub_engine::execute(&plan_agg, &cat).unwrap();
        let b = xmlpub_engine::execute(&optimized, &cat).unwrap();
        assert!(a.bag_eq(&b), "{}", a.bag_diff(&b));
        let _ = pgq;
    }

    #[test]
    fn disabled_optimizer_is_identity() {
        let cat = catalog();
        let stats = Statistics::from_catalog(&cat);
        let pgq =
            LogicalPlan::group_scan(scan(&cat).schema()).scalar_agg(vec![AggExpr::count_star("n")]);
        let plan = scan(&cat).gapply(vec![0], pgq);
        let opt = Optimizer::new(OptimizerConfig::none(), &stats);
        let (optimized, log) = opt.optimize(plan.clone(), &ObsContext::disabled());
        assert!(log.is_empty());
        assert_eq!(optimized, plan);
    }

    #[test]
    fn only_config_selects_single_rule() {
        let c = OptimizerConfig::only("gapply-to-groupby");
        assert!(c.convert_to_groupby);
        assert!(!c.select_before_gapply);
        let c = OptimizerConfig::only("select-before-gapply");
        assert!(c.select_before_gapply);
        assert!(c.select_pushdown);
    }

    #[test]
    #[should_panic(expected = "unknown rule")]
    fn only_config_rejects_unknown() {
        let _ = OptimizerConfig::only("no-such-rule");
    }

    #[test]
    fn observed_optimize_emits_rule_spans_and_counters() {
        use xmlpub_obs::{BufferSink, Observability, SpanRecord, TraceHandle};
        let cat = catalog();
        let stats = Statistics::from_catalog(&cat);
        let plan = scan(&cat).gapply(
            vec![0],
            LogicalPlan::group_scan(scan(&cat).schema())
                .scalar_agg(vec![AggExpr::avg(Expr::col(2), "avg")]),
        );
        let sink = BufferSink::new();
        let mut obs = Observability::with_metrics();
        obs.tracer = TraceHandle::new(Box::new(sink.clone()));
        let opt = Optimizer::new(OptimizerConfig::default(), &stats);
        let (observed_plan, log) = opt.optimize(plan.clone(), &obs.context(0));
        assert!(log.iter().any(|f| f.rule == "gapply-to-groupby"));

        // Identical rewrite under a disabled context.
        let (plain_plan, plain_log) = opt.optimize(plan, &ObsContext::disabled());
        assert_eq!(observed_plan, plain_plan);
        assert_eq!(log, plain_log);

        // One fired counter per firing, keyed by rule name.
        let snap = obs.metrics.snapshot().unwrap();
        assert_eq!(snap.counter("optimizer.rule_fired.gapply-to-groupby"), Some(1));

        // The span tree has an `optimize` root with one rule child per
        // firing, carrying the firing path.
        let records = SpanRecord::parse_all(&sink.contents()).unwrap();
        let root = records.iter().find(|r| r.name == "optimize").unwrap();
        let children: Vec<_> = records.iter().filter(|r| r.parent == root.id).collect();
        assert_eq!(children.len(), log.len());
        assert!(children.iter().any(|c| c.name == "rule:gapply-to-groupby"));
        assert!(children.iter().all(|c| c.attrs.iter().any(|(k, _)| k == "path")));
    }

    #[test]
    fn cost_gate_vetoes_are_recorded() {
        use crate::rules::VetoProbe;
        // An unselective exists-style group selection: every group
        // qualifies, so the §4.4 cost model rejects the duplicate-T
        // rewrite and the veto probe sees it.
        let cat = catalog();
        let stats = Statistics::from_catalog(&cat);
        let gschema = scan(&cat).schema();
        let qualifies = LogicalPlan::group_scan(gschema.clone())
            .select(Expr::col(2).gt(Expr::lit(-1.0)))
            .exists();
        let pgq =
            LogicalPlan::group_scan(gschema).apply(qualifies, xmlpub_algebra::ApplyMode::Cross);
        let plan = scan(&cat).gapply(vec![0], pgq);
        let probe = VetoProbe::default();
        let opt = Optimizer::new(OptimizerConfig::default(), &stats);
        let (_, log) = opt.run_passes(plan, Some(&probe));
        let vetoes = probe.take();
        if log.iter().any(|f| f.rule == "group-selection-exists") {
            assert!(vetoes.is_empty(), "fired AND vetoed? {vetoes:?}");
        } else {
            assert_eq!(vetoes, vec!["group-selection-exists"], "{log:?}");
        }
    }

    #[test]
    fn optimizer_terminates_on_pathological_nesting() {
        let cat = catalog();
        let stats = Statistics::from_catalog(&cat);
        let gschema = scan(&cat).schema();
        // Stack several selects and projects over a GApply.
        let pgq = LogicalPlan::group_scan(gschema).project_cols(&[1, 2]);
        let mut plan = scan(&cat).gapply(vec![0], pgq);
        for i in 0..5 {
            plan = plan.select(Expr::col(1).neq(Expr::lit(format!("no{i}"))));
        }
        let opt = Optimizer::new(OptimizerConfig::default(), &stats);
        let (optimized, _) = opt.optimize(plan.clone(), &ObsContext::disabled());
        let a = xmlpub_engine::execute(&plan, &cat).unwrap();
        let b = xmlpub_engine::execute(&optimized, &cat).unwrap();
        assert!(a.bag_eq(&b), "{}", a.bag_diff(&b));
    }
}
