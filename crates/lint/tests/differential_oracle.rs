//! Differential rewrite-soundness oracle.
//!
//! Property: for randomly generated GApply plans over randomly generated
//! small databases, the optimized plan is multiset-equal to the original
//! — the end-to-end ground truth the per-firing linter approximates
//! statically. On a mismatch the failure is shrunk domain-aware (rows
//! first, then plan features) and the guilty rule is isolated by
//! re-running the optimizer with one rule enabled at a time.
//!
//! Float values are restricted to exact binary fractions (multiples of
//! 0.5 in a small range) so aggregate results are identical regardless
//! of the summation order the two plans use.
//!
//! The same generated plans, and single-point corruptions of them, also
//! pin that `xmlpub_algebra::validate` is the first error the linter
//! reports: both run the one §3 checker.

use proptest::prelude::*;
use xmlpub_algebra::{validate, ApplyMode, Catalog, LogicalPlan, ProjectItem, TableDef};
use xmlpub_common::{row, DataType, Error, Field, Relation, Schema};
use xmlpub_engine::{execute, execute_with_config, EngineConfig, ObsContext};
use xmlpub_expr::{AggExpr, Expr};
use xmlpub_lint::{LintRegistry, Severity};
use xmlpub_optimizer::{Optimizer, OptimizerConfig, RuleSet, Statistics};

const DIM_N: i64 = 4;

/// One generated fact row: (key, value, tag). Keys always hit the
/// dimension table so the FK annotation is honest.
type FactRow = (i64, f64, String);

/// How the grouped input is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum InputKind {
    /// `scan(fact)`
    Fact,
    /// `scan(fact) ⋈fk scan(dim)` on the grouping key.
    FactJoinDim,
}

/// The per-group query shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum PgqKind {
    /// `$group`
    WholeGroup,
    /// `σ_{v > t}($group)`
    Filter,
    /// `π_{tag,v}(σ_{v > t}($group))`
    FilterProject,
    /// `scalar_agg(sum(v), count(*))`
    ScalarAgg,
    /// `group_by(tag; avg(v))`
    KeyedAgg,
}

/// A compact, shrinkable description of one test plan.
#[derive(Debug, Clone, PartialEq)]
struct PlanSpec {
    input: InputKind,
    pgq: PgqKind,
    /// Threshold for the per-group filter (`v > threshold`).
    threshold: f64,
    /// Outer `σ_{k > c}` above the GApply, if any.
    outer_filter: Option<i64>,
}

fn fact_schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Float),
        Field::new("tag", DataType::Str),
    ])
}

fn dim_schema() -> Schema {
    Schema::new(vec![Field::new("d_k", DataType::Int), Field::new("d_name", DataType::Str)])
}

fn build_catalog(rows: &[FactRow]) -> Catalog {
    let fact = TableDef::new("fact", fact_schema()).with_foreign_key(&["k"], "dim", &["d_k"]);
    let fact_data = Relation::new(
        fact.schema.clone(),
        rows.iter().map(|(k, v, t)| row![*k, *v, t.clone()]).collect(),
    )
    .unwrap();
    let dim = TableDef::new("dim", dim_schema()).with_primary_key(&["d_k"]);
    let dim_data =
        Relation::new(dim.schema.clone(), (0..DIM_N).map(|k| row![k, format!("d{k}")]).collect())
            .unwrap();
    let mut cat = Catalog::new();
    cat.register(dim, dim_data).unwrap();
    cat.register(fact, fact_data).unwrap();
    cat
}

fn build_plan(spec: &PlanSpec) -> LogicalPlan {
    let input = match spec.input {
        InputKind::Fact => LogicalPlan::scan("fact", fact_schema()),
        InputKind::FactJoinDim => LogicalPlan::scan("fact", fact_schema())
            .fk_join(LogicalPlan::scan("dim", dim_schema()), Expr::col(0).eq(Expr::col(3))),
    };
    let gschema = input.schema();
    let gs = LogicalPlan::group_scan(gschema);
    let pgq = match spec.pgq {
        PgqKind::WholeGroup => gs,
        PgqKind::Filter => gs.select(Expr::col(1).gt(Expr::lit(spec.threshold))),
        PgqKind::FilterProject => {
            gs.select(Expr::col(1).gt(Expr::lit(spec.threshold))).project_cols(&[2, 1])
        }
        PgqKind::ScalarAgg => {
            gs.scalar_agg(vec![AggExpr::sum(Expr::col(1), "s"), AggExpr::count_star("n")])
        }
        PgqKind::KeyedAgg => gs.group_by(vec![2], vec![AggExpr::avg(Expr::col(1), "a")]),
    };
    let plan = input.gapply(vec![0], pgq);
    match spec.outer_filter {
        Some(c) => plan.select(Expr::col(0).gt(Expr::lit(c))),
        None => plan,
    }
}

/// Optimizer config for the oracle: every rule on, the linter off — the
/// differential check must stand on its own, independent of the static
/// verifier it cross-validates.
fn oracle_config() -> OptimizerConfig {
    OptimizerConfig { verify_rewrites: false, ..OptimizerConfig::default() }
}

/// Run original vs optimized; `Some(diff)` when the multisets disagree.
fn mismatch(spec: &PlanSpec, rows: &[FactRow], config: OptimizerConfig) -> Option<String> {
    let cat = build_catalog(rows);
    let plan = build_plan(spec);
    let expected = execute(&plan, &cat).unwrap();
    let stats = Statistics::from_catalog(&cat);
    let (optimized, _) = Optimizer::new(config, &stats).optimize(plan, &ObsContext::disabled());
    let got = execute(&optimized, &cat).unwrap();
    (!expected.bag_eq(&got)).then(|| expected.bag_diff(&got))
}

/// All strictly simpler variants of a spec, most aggressive first.
fn simpler_specs(spec: &PlanSpec) -> Vec<PlanSpec> {
    let mut out = Vec::new();
    if spec.outer_filter.is_some() {
        out.push(PlanSpec { outer_filter: None, ..spec.clone() });
    }
    if spec.input == InputKind::FactJoinDim {
        out.push(PlanSpec { input: InputKind::Fact, ..spec.clone() });
    }
    let simpler_pgq = match spec.pgq {
        PgqKind::WholeGroup => None,
        PgqKind::Filter | PgqKind::ScalarAgg | PgqKind::KeyedAgg => Some(PgqKind::WholeGroup),
        PgqKind::FilterProject => Some(PgqKind::Filter),
    };
    if let Some(p) = simpler_pgq {
        out.push(PlanSpec { pgq: p, ..spec.clone() });
    }
    out
}

/// Shrink a failing (spec, rows) pair: first drop rows, then strip plan
/// features, as long as the mismatch persists.
fn shrink(mut spec: PlanSpec, mut rows: Vec<FactRow>) -> (PlanSpec, Vec<FactRow>) {
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < rows.len() {
            let mut fewer = rows.clone();
            fewer.remove(i);
            if mismatch(&spec, &fewer, oracle_config()).is_some() {
                rows = fewer;
                shrunk = true;
            } else {
                i += 1;
            }
        }
        if let Some(simpler) =
            simpler_specs(&spec).into_iter().find(|s| mismatch(s, &rows, oracle_config()).is_some())
        {
            spec = simpler;
            shrunk = true;
        }
        if !shrunk {
            return (spec, rows);
        }
    }
}

/// Which rules, enabled in isolation, reproduce the mismatch.
fn guilty_rules(spec: &PlanSpec, rows: &[FactRow]) -> Vec<&'static str> {
    RuleSet::ALL
        .names()
        .filter(|rule| {
            let config = OptimizerConfig { verify_rewrites: false, ..OptimizerConfig::only(rule) };
            mismatch(spec, rows, config).is_some()
        })
        .collect()
}

fn report_failure(spec: PlanSpec, rows: Vec<FactRow>, diff: String) -> String {
    let (min_spec, min_rows) = shrink(spec, rows);
    let guilty = guilty_rules(&min_spec, &min_rows);
    let plan = build_plan(&min_spec);
    format!(
        "optimizer changed query results.\n\
         minimal spec: {min_spec:?}\n\
         minimal fact rows: {min_rows:?}\n\
         guilty rule(s) in isolation: {}\n\
         minimal plan:\n{}\n\
         original diff:\n{diff}",
        if guilty.is_empty() {
            "none individually — a rule interaction".to_string()
        } else {
            guilty.join(", ")
        },
        plan.explain()
    )
}

fn spec_strategy() -> impl Strategy<Value = PlanSpec> {
    let input = prop_oneof![Just(InputKind::Fact), Just(InputKind::FactJoinDim)];
    let pgq = prop_oneof![
        Just(PgqKind::WholeGroup),
        Just(PgqKind::Filter),
        Just(PgqKind::FilterProject),
        Just(PgqKind::ScalarAgg),
        Just(PgqKind::KeyedAgg),
    ];
    (input, pgq, -4i64..4i64, 0i64..8i64).prop_map(|(input, pgq, th, of)| PlanSpec {
        input,
        pgq,
        threshold: th as f64 / 2.0,
        // of ∈ 0..8: the top half means "no outer filter" so the option
        // shape stays shrinkable without an Option strategy.
        outer_filter: (of < DIM_N).then_some(of),
    })
}

fn rows_strategy() -> impl Strategy<Value = Vec<FactRow>> {
    proptest::collection::vec(
        (0..DIM_N, -10i64..10i64, "[a-c]").prop_map(|(k, v, t)| (k, v as f64 / 2.0, t)),
        0..12,
    )
}

/// A single-point corruption of a valid plan, each breaking one §3 rule.
#[derive(Debug, Clone, Copy)]
enum Corruption {
    /// Shift every column of one node's expressions past its input.
    ColumnOutOfRange,
    /// Raise every correlation level of one predicate by one.
    CorrelationLevelRaised,
    /// Rename a `GroupScan`'s first column.
    GroupScanColumnRenamed,
    /// Drop every `UnionAll` branch but the first.
    UnionBranchDropped,
    /// Replace a `GroupScan` with a join of two, inside the PGQ.
    JoinInsidePgq,
}

const CORRUPTIONS: [Corruption; 5] = [
    Corruption::ColumnOutOfRange,
    Corruption::CorrelationLevelRaised,
    Corruption::GroupScanColumnRenamed,
    Corruption::UnionBranchDropped,
    Corruption::JoinInsidePgq,
];

/// The valid plans a spec is corrupted from: its plan, that plan as the
/// correlated inner of an `Apply`, and a union of two copies of it.
fn corruption_bases(spec: &PlanSpec) -> Vec<LogicalPlan> {
    let plan = build_plan(spec);
    let correlated = plan.clone().select(Expr::col(0).eq(Expr::Correlated { level: 0, index: 0 }));
    vec![
        LogicalPlan::scan("dim", dim_schema()).apply(correlated, ApplyMode::Cross),
        LogicalPlan::union_all(vec![plan.clone(), plan.clone()]),
        plan,
    ]
}

/// `plan` with `c` applied at the first node (pre-order) it fits, or
/// `None` when no node does.
fn corrupt(plan: &LogicalPlan, c: Corruption) -> Option<LogicalPlan> {
    if let Some(p) = corrupt_node(plan, c) {
        return Some(p);
    }
    let mut done = false;
    let rebuilt = plan.clone().map_children(&mut |child| {
        if done {
            return child;
        }
        match corrupt(&child, c) {
            Some(p) => {
                done = true;
                p
            }
            None => child,
        }
    });
    done.then_some(rebuilt)
}

fn corrupt_node(node: &LogicalPlan, c: Corruption) -> Option<LogicalPlan> {
    let shift = |e: Expr, by: usize| {
        e.transform(&|e| match e {
            Expr::Column(i) => Expr::Column(i + by),
            other => other,
        })
    };
    match (c, node) {
        (Corruption::ColumnOutOfRange, LogicalPlan::Select { input, predicate }) => {
            let by = input.schema().len();
            Some(input.as_ref().clone().select(shift(predicate.clone(), by)))
        }
        (Corruption::ColumnOutOfRange, LogicalPlan::Project { input, items }) => {
            let by = input.schema().len();
            let items = items
                .iter()
                .map(|it| ProjectItem { expr: shift(it.expr.clone(), by), alias: it.alias.clone() })
                .collect();
            Some(input.as_ref().clone().project(items))
        }
        (Corruption::CorrelationLevelRaised, LogicalPlan::Select { input, predicate })
            if predicate.has_correlated() =>
        {
            let raised = predicate.clone().transform(&|e| match e {
                Expr::Correlated { level, index } => Expr::Correlated { level: level + 1, index },
                other => other,
            });
            Some(input.as_ref().clone().select(raised))
        }
        (Corruption::GroupScanColumnRenamed, LogicalPlan::GroupScan { schema }) => {
            let mut fields = schema.fields().to_vec();
            fields[0].name = "renamed".to_string();
            Some(LogicalPlan::group_scan(Schema::new(fields)))
        }
        (Corruption::UnionBranchDropped, LogicalPlan::UnionAll { inputs }) => {
            Some(LogicalPlan::union_all(inputs[..1].to_vec()))
        }
        (Corruption::JoinInsidePgq, LogicalPlan::GroupScan { .. }) => {
            Some(node.clone().join(node.clone(), Expr::lit(true)))
        }
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `validate` fails exactly when the linter reports an error, with
    /// the first diagnostic's message, on valid generated plans and on
    /// every single-point corruption of them (each of which it rejects).
    #[test]
    fn validate_is_the_first_lint_error(spec in spec_strategy()) {
        let reg = LintRegistry::default();
        for base in corruption_bases(&spec) {
            prop_assert!(validate(&base).is_ok(), "{}", base.explain());
            prop_assert!(reg.lint_plan(&base).is_empty(), "{}", base.explain());
            for c in CORRUPTIONS {
                let Some(plan) = corrupt(&base, c) else { continue };
                let diags = reg.lint_plan(&plan);
                let first = diags.first().filter(|d| d.severity == Severity::Error);
                let from_lint = first.map(|d| Error::plan(d.message.clone()));
                prop_assert_eq!(validate(&plan).err(), from_lint, "{:?}:\n{}", c, plan.explain());
                prop_assert!(validate(&plan).is_err(), "{:?} not caught:\n{}", c, plan.explain());
            }
        }
    }

    /// ≥64 random plan/database pairs: original and optimized plans must
    /// be multiset-equal.
    #[test]
    fn optimized_plans_preserve_multisets(
        spec in spec_strategy(),
        rows in rows_strategy(),
    ) {
        if let Some(diff) = mismatch(&spec, &rows, oracle_config()) {
            return Err(TestCaseError::fail(report_failure(spec, rows, diff)));
        }
    }

    /// Batched execution differential: the same random FK-consistent
    /// plan/database pair produces identical multisets at batch-size
    /// targets 1, 2, 7 and 1024, on both the original and the optimized
    /// plan.
    #[test]
    fn batched_execution_matches_reference_at_all_sizes(
        spec in spec_strategy(),
        rows in rows_strategy(),
    ) {
        let cat = build_catalog(&rows);
        let plan = build_plan(&spec);
        let stats = Statistics::from_catalog(&cat);
        let (optimized, _) = Optimizer::new(oracle_config(), &stats).optimize(plan.clone(), &ObsContext::disabled());
        for p in [&plan, &optimized] {
            let reference = execute_with_config(
                p,
                &cat,
                &EngineConfig { batch_size: 1, ..Default::default() },
            )
            .unwrap();
            for batch_size in [2usize, 7, 1024] {
                let got = execute_with_config(
                    p,
                    &cat,
                    &EngineConfig { batch_size, ..Default::default() },
                )
                .unwrap();
                prop_assert!(
                    got.bag_eq(&reference),
                    "batch_size={batch_size}: {}",
                    got.bag_diff(&reference)
                );
            }
        }
    }

    /// With `verify_rewrites` on, every firing lints clean (no firing
    /// carries diagnostics, and optimize does not panic) and the final
    /// plan passes the full registry.
    #[test]
    fn verified_optimizer_lints_clean_on_random_plans(
        spec in spec_strategy(),
        rows in rows_strategy(),
    ) {
        let cat = build_catalog(&rows);
        let plan = build_plan(&spec);
        let stats = Statistics::from_catalog(&cat);
        let config = OptimizerConfig { verify_rewrites: true, ..OptimizerConfig::default() };
        let (optimized, log) = Optimizer::new(config, &stats).optimize(plan, &ObsContext::disabled());
        for firing in &log {
            prop_assert!(
                firing.diagnostics.is_empty(),
                "firing {} at {} carries diagnostics: {:?}",
                firing.rule, firing.path, firing.diagnostics
            );
        }
        let diags = LintRegistry::default().lint_plan(&optimized);
        prop_assert!(diags.is_empty(), "final plan lints dirty: {diags:?}");
    }
}
