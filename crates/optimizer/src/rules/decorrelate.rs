//! Scalar-aggregate subquery decorrelation ("magic decorrelation" in the
//! style of Galindo-Legaria & Joshi \[12\], the paper this work builds on).
//!
//! `Apply(R, aggregate(σ_{c = R.o ∧ rest}(S)))` — the shape the §2
//! classic formulations produce for their correlated average subqueries —
//! rewrites to
//!
//! ```text
//! π_{R.*, aggs}( R ⟕_{R.o = k} GroupBy_{k}(σ_rest(S), aggs) )
//! ```
//!
//! computing the per-key aggregates **once** instead of once per outer
//! row. The left *outer* join preserves the scalar-subquery semantics for
//! outer rows with no matching inner rows (the aggregate over ∅ is NULL
//! for sum/avg/min/max — count aggregates return 0 over ∅, which an outer
//! join cannot reproduce, so the rule declines them).
//!
//! This matters for faithfulness: SQL Server 2000 decorrelated the
//! paper's baseline queries, so *their* "without GApply" numbers reflect
//! decorrelated plans. Without this rule our baselines would re-execute
//! the subquery per distinct key and wildly overstate Figure 8.

use crate::rules::{Rule, RuleContext};
use xmlpub_algebra::{ApplyMode, LogicalPlan, ProjectItem};
use xmlpub_analysis::{Claim, ClaimSubject};
use xmlpub_common::ColumnSet;
use xmlpub_expr::{conjunction, conjuncts, AggFunc, Expr};

/// The decorrelation rule.
pub struct DecorrelateScalarAgg;

impl Rule for DecorrelateScalarAgg {
    fn name(&self) -> &'static str {
        "decorrelate-scalar-agg"
    }

    fn apply(&self, plan: &LogicalPlan, ctx: &RuleContext<'_>) -> Option<LogicalPlan> {
        let LogicalPlan::Apply { outer, inner, mode: ApplyMode::Scalar | ApplyMode::Cross } = plan
        else {
            return None;
        };
        let LogicalPlan::ScalarAgg { input: inner_src, aggs } = &**inner else {
            return None;
        };
        // Group scans are tiny (already partitioned); decorrelating them
        // would also smuggle a join into a per-group query, which the
        // algebra forbids.
        let has_group_scan =
            |p: &LogicalPlan| p.any_node(&|n| matches!(n, LogicalPlan::GroupScan { .. }));
        if has_group_scan(outer) || has_group_scan(inner) {
            return None;
        }
        // count(∅) = 0 ≠ NULL: outer-join padding cannot reproduce it.
        if aggs
            .iter()
            .any(|a| matches!(a.func, AggFunc::Count | AggFunc::CountStar | AggFunc::CountDistinct))
        {
            return None;
        }
        if aggs.iter().any(|a| a.arg.as_ref().is_some_and(|e| e.has_correlated())) {
            return None;
        }

        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let stripped = strip(inner_src, &mut pairs)?;
        if pairs.is_empty() {
            return None; // uncorrelated: the Apply spool already handles it
        }
        // Deduplicate identical (inner, outer) pairs.
        pairs.sort_unstable();
        pairs.dedup();

        let keys: Vec<usize> = pairs.iter().map(|p| p.0).collect();
        let gb = stripped.group_by(keys.clone(), aggs.clone());
        // Side condition: the outer join must match at most one group row
        // per outer row, or the rewrite duplicates outer tuples. That
        // holds iff the grouped relation has a candidate key within the
        // join columns — consult the analyzer rather than assuming it.
        let gb_key: ColumnSet = (0..keys.len()).collect();
        if !ctx.derive(&gb).has_key_within(&gb_key) {
            return None;
        }
        ctx.claim(Claim::key_within(
            ClaimSubject::Output,
            vec![0, 1],
            gb_key,
            "grouped subquery must be unique on its join keys",
        ));
        let outer_len = outer.schema().len();
        let mut join_pred = Expr::lit(true);
        for (i, (_, outer_col)) in pairs.iter().enumerate() {
            let eq = Expr::col(*outer_col).eq(Expr::col(outer_len + i));
            join_pred = if i == 0 { eq } else { join_pred.and(eq) };
        }
        let joined = outer.as_ref().clone().left_outer_join(gb, join_pred);
        // Output: outer columns, then the aggregates (skipping the keys).
        let items: Vec<ProjectItem> = (0..outer_len)
            .map(ProjectItem::col)
            .chain((0..aggs.len()).map(|i| ProjectItem::col(outer_len + keys.len() + i)))
            .collect();
        Some(joined.project(items))
    }
}

/// Remove correlated equality conjuncts (`local = Correlated{0, o}`) from
/// the tree, recording `(local column in the returned plan's output,
/// outer column)` pairs. Fails on shapes where the removal or the column
/// mapping is not obviously sound, and on any other correlated reference
/// at any level: the rewrite removes the `Apply`, so a reference that
/// stays behind would count one enclosing `Apply` too many.
fn strip(plan: &LogicalPlan, pairs: &mut Vec<(usize, usize)>) -> Option<LogicalPlan> {
    match plan {
        LogicalPlan::Scan { .. } => Some(plan.clone()),
        LogicalPlan::Select { input, predicate } => {
            let stripped = strip(input, pairs)?;
            let mut kept = Vec::new();
            for c in conjuncts(predicate) {
                if let Some((local, outer_col)) = correlated_equality(&c) {
                    pairs.push((local, outer_col));
                    continue;
                }
                if c.has_correlated() {
                    return None; // any other correlation: unsupported
                }
                kept.push(c);
            }
            Some(if kept.is_empty() { stripped } else { stripped.select(conjunction(kept)) })
        }
        LogicalPlan::Project { input, items } => {
            if items.iter().any(|it| it.expr.has_correlated()) {
                return None;
            }
            let mut inner_pairs = Vec::new();
            let stripped = strip(input, &mut inner_pairs)?;
            // Every recorded inner column must survive the projection as
            // a bare pass-through.
            for (local, outer_col) in inner_pairs {
                let pos = items.iter().position(|it| it.expr == Expr::col(local))?;
                pairs.push((pos, outer_col));
            }
            Some(stripped.project(items.clone()))
        }
        LogicalPlan::Join { left, right, predicate, fk_left_to_right } => {
            if predicate.has_correlated() {
                return None;
            }
            let left_len = left.schema().len();
            let mut lp = Vec::new();
            let l = strip(left, &mut lp)?;
            let mut rp = Vec::new();
            let r = strip(right, &mut rp)?;
            pairs.extend(lp);
            pairs.extend(rp.into_iter().map(|(c, o)| (c + left_len, o)));
            Some(LogicalPlan::Join {
                left: Box::new(l),
                right: Box::new(r),
                predicate: predicate.clone(),
                fk_left_to_right: *fk_left_to_right,
            })
        }
        LogicalPlan::Distinct { input } => {
            // σ_{k=K} ∘ distinct = distinct ∘ σ_{k=K} when k is a column,
            // so stripping below a distinct is sound.
            Some(strip(input, pairs)?.distinct())
        }
        LogicalPlan::OrderBy { input, keys } => {
            if keys.iter().any(|k| k.expr.has_correlated()) {
                return None;
            }
            Some(strip(input, pairs)?.order_by(keys.clone()))
        }
        // Aggregations, unions, applies, group scans: bail.
        _ => None,
    }
}

/// Match `Column(c) = Correlated{level: 0, index: o}` in either
/// orientation.
fn correlated_equality(conjunct: &Expr) -> Option<(usize, usize)> {
    let Expr::Binary { op: xmlpub_expr::BinOp::Eq, left, right } = conjunct else {
        return None;
    };
    match (&**left, &**right) {
        (Expr::Column(c), Expr::Correlated { level: 0, index: o })
        | (Expr::Correlated { level: 0, index: o }, Expr::Column(c)) => Some((*c, *o)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Statistics;
    use xmlpub_algebra::{Catalog, TableDef};
    use xmlpub_common::{row, DataType, Field, Relation, Schema};
    use xmlpub_expr::AggExpr;

    fn ctx(stats: &Statistics) -> RuleContext<'_> {
        RuleContext { stats, cost_gate: false, vetoes: None, claims: None }
    }

    fn catalog() -> Catalog {
        let schema =
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Float)]);
        let def = TableDef::new("t", schema);
        let data = Relation::new(
            def.schema.clone(),
            vec![row![1, 10.0], row![1, 20.0], row![2, 5.0], row![3, 7.0]],
        )
        .unwrap();
        let mut cat = Catalog::new();
        cat.register(def, data).unwrap();

        // An outer table with keys that include a value (4) missing from
        // t, plus a NULL key — the empty-group/NULL cases.
        let schema = Schema::new(vec![Field::new("ok", DataType::Int)]);
        let def = TableDef::new("o", schema);
        let data = Relation::new(
            def.schema.clone(),
            vec![row![1], row![2], row![4], row![xmlpub_common::Value::Null]],
        )
        .unwrap();
        cat.register(def, data).unwrap();
        cat
    }

    fn scan(cat: &Catalog, t: &str) -> LogicalPlan {
        LogicalPlan::scan(t, cat.table(t).unwrap().schema.clone())
    }

    /// `Apply(o, avg(σ_{t.k = o.ok}(t)))`
    fn correlated_avg(cat: &Catalog) -> LogicalPlan {
        let inner = scan(cat, "t")
            .select(Expr::col(0).eq(Expr::Correlated { level: 0, index: 0 }))
            .scalar_agg(vec![AggExpr::avg(Expr::col(1), "avg_v")]);
        scan(cat, "o").apply(inner, ApplyMode::Scalar)
    }

    #[test]
    fn rewrites_to_outer_join_groupby() {
        let stats = Statistics::empty();
        let cat = catalog();
        let plan = correlated_avg(&cat);
        let out = DecorrelateScalarAgg.apply(&plan, &ctx(&stats)).unwrap();
        assert!(out.any_node(&|p| matches!(p, LogicalPlan::LeftOuterJoin { .. })));
        assert!(out.any_node(&|p| matches!(p, LogicalPlan::GroupBy { .. })));
        assert!(!out.any_node(&|p| matches!(p, LogicalPlan::Apply { .. })));

        let a = xmlpub_engine::execute(&plan, &cat).unwrap();
        let b = xmlpub_engine::execute(&out, &cat).unwrap();
        assert!(a.bag_eq(&b), "{}", a.bag_diff(&b));
        // Empty group (ok=4) and NULL key both yield NULL aggregates.
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn count_aggregates_decline() {
        let stats = Statistics::empty();
        let cat = catalog();
        let inner = scan(&cat, "t")
            .select(Expr::col(0).eq(Expr::Correlated { level: 0, index: 0 }))
            .scalar_agg(vec![AggExpr::count_star("n")]);
        let plan = scan(&cat, "o").apply(inner, ApplyMode::Scalar);
        assert!(DecorrelateScalarAgg.apply(&plan, &ctx(&stats)).is_none());
    }

    #[test]
    fn uncorrelated_inner_declines() {
        let stats = Statistics::empty();
        let cat = catalog();
        let inner = scan(&cat, "t").scalar_agg(vec![AggExpr::avg(Expr::col(1), "a")]);
        let plan = scan(&cat, "o").apply(inner, ApplyMode::Scalar);
        assert!(DecorrelateScalarAgg.apply(&plan, &ctx(&stats)).is_none());
    }

    #[test]
    fn non_equality_correlation_declines() {
        let stats = Statistics::empty();
        let cat = catalog();
        let inner = scan(&cat, "t")
            .select(Expr::col(0).gt(Expr::Correlated { level: 0, index: 0 }))
            .scalar_agg(vec![AggExpr::avg(Expr::col(1), "a")]);
        let plan = scan(&cat, "o").apply(inner, ApplyMode::Scalar);
        assert!(DecorrelateScalarAgg.apply(&plan, &ctx(&stats)).is_none());
    }

    #[test]
    fn group_scan_inner_declines() {
        let stats = Statistics::empty();
        let gschema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let inner = LogicalPlan::group_scan(gschema.clone())
            .scalar_agg(vec![AggExpr::avg(Expr::col(0), "a")]);
        let plan = LogicalPlan::group_scan(gschema).apply(inner, ApplyMode::Scalar);
        assert!(DecorrelateScalarAgg.apply(&plan, &ctx(&stats)).is_none());
    }

    #[test]
    fn extra_filters_are_kept() {
        let stats = Statistics::empty();
        let cat = catalog();
        // avg over rows with v > 6 only, correlated by key.
        let inner = scan(&cat, "t")
            .select(
                Expr::col(0)
                    .eq(Expr::Correlated { level: 0, index: 0 })
                    .and(Expr::col(1).gt(Expr::lit(6.0))),
            )
            .scalar_agg(vec![AggExpr::avg(Expr::col(1), "a")]);
        let plan = scan(&cat, "o").apply(inner, ApplyMode::Scalar);
        let out = DecorrelateScalarAgg.apply(&plan, &ctx(&stats)).unwrap();
        let a = xmlpub_engine::execute(&plan, &cat).unwrap();
        let b = xmlpub_engine::execute(&out, &cat).unwrap();
        assert!(a.bag_eq(&b), "{}", a.bag_diff(&b));
    }

    #[test]
    fn correlation_through_projection() {
        let stats = Statistics::empty();
        let cat = catalog();
        let inner = scan(&cat, "t")
            .select(Expr::col(0).eq(Expr::Correlated { level: 0, index: 0 }))
            .project_cols(&[0, 1])
            .scalar_agg(vec![AggExpr::max(Expr::col(1), "m")]);
        let plan = scan(&cat, "o").apply(inner, ApplyMode::Scalar);
        let out = DecorrelateScalarAgg.apply(&plan, &ctx(&stats)).unwrap();
        let a = xmlpub_engine::execute(&plan, &cat).unwrap();
        let b = xmlpub_engine::execute(&out, &cat).unwrap();
        assert!(a.bag_eq(&b), "{}", a.bag_diff(&b));
    }
}
