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

/// How the driver offers a pipeline rule (§4.4's pass structure).
#[derive(Debug, Clone, Copy)]
enum Offer {
    /// Pass 1 (fixpoint): normalisation. Identity projections (the
    /// binder's SELECT-list wrappers) are stripped first; pull-through
    /// rules strictly move selections/projections into the per-group
    /// query.
    Normalise,
    /// Once at each of the sites, top-down.
    Once(Sites),
    /// A fixpoint of its own.
    Fixpoint,
    /// Once, at the root, on the plan every other pass has shaped.
    Root,
}

const EVERYWHERE: Offer = Offer::Once(Sites::Everywhere);

/// The rule pipeline, in firing order. The rules that insert outer-side
/// operators run once because what they insert is subsequently moved
/// away from the spot their idempotence check looks at. Group/aggregate
/// selection run before the groupby conversion since their pattern is
/// strictly more specific; invariant grouping then pushes surviving
/// GApplys below FK joins, and projection-before-GApply prunes the outer
/// columns feeding each one. Pass 6 sinks all selections (including the
/// ones the GApply rules introduced) through the join trees; join order
/// is then chosen on trees whose conjuncts have all sunk to the joins
/// they belong to.
const PIPELINE: [(&dyn Rule, Offer); 12] = [
    (&DecorrelateScalarAgg, Offer::Normalise),
    (&SelectIntoPgq, Offer::Normalise),
    (&ProjectIntoPgq, Offer::Normalise),
    (&SelectBeforeGApply, EVERYWHERE),
    (&ExistsGroupSelection, EVERYWHERE),
    (&AggregateSelection, EVERYWHERE),
    (&ConvertToGroupBy, EVERYWHERE),
    (&InvariantGrouping, EVERYWHERE),
    (&ProjectBeforeGApply, EVERYWHERE),
    (&SelectPushdown, Offer::Fixpoint),
    (&JoinReorder, Offer::Once(Sites::JoinTrees { owned: false })),
    (&PruneColumns, Offer::Root),
];

/// A set of pipeline rules, named by [`Rule::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleSet(u16);

impl RuleSet {
    /// Every rule in the pipeline.
    pub const ALL: RuleSet = RuleSet((1 << PIPELINE.len()) - 1);

    fn bit(name: &str) -> u16 {
        match PIPELINE.iter().position(|(rule, _)| rule.name() == name) {
            Some(i) => 1 << i,
            None => panic!("unknown rule '{name}'"),
        }
    }

    /// Does the set hold no rule?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The names of the rules in the set, in firing order.
    pub fn names(self) -> impl Iterator<Item = &'static str> {
        self.rules().map(|(rule, _)| rule.name())
    }

    fn rules(self) -> impl Iterator<Item = (&'static dyn Rule, Offer)> + Clone {
        PIPELINE.into_iter().enumerate().filter(move |(i, _)| self.0 & 1 << i != 0).map(|(_, e)| e)
    }
}

/// Which rules may fire, and how. Default: every rule, group/aggregate
/// selection cost-gated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizerConfig {
    /// The enabled rules.
    pub rules: RuleSet,
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
            rules: RuleSet::ALL,
            cost_gate: true,
            verify_rewrites: cfg!(debug_assertions),
        }
    }
}

impl OptimizerConfig {
    /// No rules: the request path runs bound plans as bound.
    pub fn none() -> Self {
        OptimizerConfig { rules: RuleSet(0), cost_gate: false, ..OptimizerConfig::default() }
    }

    /// Enable a single rule by name (plus selection pushdown when the
    /// rule relies on it), for the Table 1 isolation experiments.
    pub fn only(rule: &str) -> Self {
        let mut bits = RuleSet::bit(rule);
        if rule == SelectBeforeGApply.name() {
            bits |= RuleSet::bit(SelectPushdown.name());
        }
        OptimizerConfig { rules: RuleSet(bits), ..OptimizerConfig::none() }
    }

    /// Every rule but one, for the ablations.
    pub fn without(rule: &str) -> Self {
        OptimizerConfig {
            rules: RuleSet(RuleSet::ALL.0 & !RuleSet::bit(rule)),
            ..Default::default()
        }
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
        let (root, path) = (&Ambient::root(), &PlanPath::root());
        let mut norm: Vec<&dyn Rule> = vec![&RemoveIdentityProject];
        let rules = self.config.rules.rules();
        norm.extend(rules.clone().filter(|e| matches!(e.1, Offer::Normalise)).map(|e| e.0));
        let mut plan = driver.fixpoint(plan, &norm, &mut log);
        for (rule, offer) in rules {
            plan = match offer {
                Offer::Normalise => plan,
                Offer::Once(sites) => driver.apply_at(plan, rule, sites, root, path, &mut log),
                Offer::Fixpoint => driver.fixpoint(plan, &[rule], &mut log),
                Offer::Root => driver.fire(plan, rule, root, path, &mut log),
            };
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
        rules: &[&dyn Rule],
        log: &mut Vec<RuleFiring>,
    ) -> LogicalPlan {
        const MAX_ITERS: usize = 64;
        let (root, path) = (&Ambient::root(), &PlanPath::root());
        for _ in 0..MAX_ITERS {
            let before = log.len();
            for &rule in rules {
                plan = self.apply_at(plan, rule, Sites::Everywhere, root, path, log);
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
        assert_eq!(c.rules.names().collect::<Vec<_>>(), ["gapply-to-groupby"]);
        let c = OptimizerConfig::only("select-before-gapply");
        assert_eq!(
            c.rules.names().collect::<Vec<_>>(),
            ["select-before-gapply", "select-pushdown"]
        );
    }

    /// Every constructor reads the one pipeline table, so each rule is
    /// reachable alone and removable alone.
    #[test]
    fn rule_table_drives_every_config_constructor() {
        let names: Vec<&str> = RuleSet::ALL.names().collect();
        assert_eq!(names.len(), PIPELINE.len());
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "rule names must be unique: {names:?}");
        assert_eq!(OptimizerConfig::default().rules, RuleSet::ALL);
        assert_eq!(OptimizerConfig::none().rules.names().count(), 0);
        for &name in &names {
            let only: Vec<&str> = OptimizerConfig::only(name).rules.names().collect();
            let expected = match name {
                "select-before-gapply" => vec![name, "select-pushdown"],
                _ => vec![name],
            };
            assert_eq!(only, expected, "only({name})");
            let without: Vec<&str> = OptimizerConfig::without(name).rules.names().collect();
            let missing: Vec<&str> =
                names.iter().copied().filter(|n| !without.contains(n)).collect();
            assert_eq!(missing, vec![name], "without({name})");
        }
    }

    #[test]
    #[should_panic(expected = "unknown rule")]
    fn only_config_rejects_unknown() {
        let _ = OptimizerConfig::only("no-such-rule");
    }

    #[test]
    fn observed_optimize_emits_rule_spans_and_counters() {
        use xmlpub_obs::{BufferSink, SpanRecord, TraceHandle};
        let cat = catalog();
        let stats = Statistics::from_catalog(&cat);
        let plan = scan(&cat).gapply(
            vec![0],
            LogicalPlan::group_scan(scan(&cat).schema())
                .scalar_agg(vec![AggExpr::avg(Expr::col(2), "avg")]),
        );
        let sink = BufferSink::new();
        let mut obs = ObsContext::with_metrics();
        obs.tracer = TraceHandle::new(Box::new(sink.clone()));
        let opt = Optimizer::new(OptimizerConfig::default(), &stats);
        let (observed_plan, log) = opt.optimize(plan.clone(), &obs);
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
