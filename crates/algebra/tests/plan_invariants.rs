//! Structural invariants of the logical plan layer, checked over a
//! family of generated plan shapes.

use proptest::prelude::*;
use xmlpub_algebra::analysis::{covering_range, dependency_map, direct_map, gp_eval_columns};
use xmlpub_algebra::{validate, ApplyMode, LogicalPlan, ProjectItem, SortKey};
use xmlpub_common::{DataType, Field, Schema};
use xmlpub_expr::{AggExpr, Expr};

fn schema4() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("b", DataType::Str),
        Field::new("p", DataType::Float),
        Field::new("q", DataType::Int),
    ])
}

/// Generate random valid per-group queries over `schema4`.
fn pgq_strategy() -> BoxedStrategy<LogicalPlan> {
    let gs = || LogicalPlan::group_scan(schema4());
    let leaf = Just(gs()).boxed();
    leaf.prop_recursive(3, 12, 2, move |inner| {
        let gs = || LogicalPlan::group_scan(schema4());
        prop_oneof![
            // select
            (inner.clone(), 0usize..4, -5i64..5).prop_map(|(p, c, v)| {
                let width = p.schema().len();
                p.select(Expr::col(c % width.max(1)).gt_eq(Expr::lit(v)))
            }),
            // project (keep a nonempty prefix)
            (inner.clone(), 1usize..4).prop_map(|(p, n)| {
                let width = p.schema().len();
                let keep: Vec<usize> = (0..n.min(width)).collect();
                p.project(keep.into_iter().map(ProjectItem::col).collect())
            }),
            // distinct / orderby
            inner.clone().prop_map(|p| p.distinct()),
            inner.clone().prop_map(|p| { p.order_by(vec![SortKey::asc(0)]) }),
            // scalar aggregate over a fresh scan
            Just(gs().scalar_agg(vec![AggExpr::avg(Expr::col(2), "a"), AggExpr::count_star("n"),])),
            // group-by over a fresh scan
            Just(gs().group_by(vec![1], vec![AggExpr::max(Expr::col(2), "m")])),
            // apply with a scalar-agg inner
            inner.clone().prop_map(move |p| {
                let agg = LogicalPlan::group_scan(schema4())
                    .scalar_agg(vec![AggExpr::min(Expr::col(2), "mn")]);
                p.apply(agg, ApplyMode::Scalar)
            }),
            // union of two copies of the same subtree (always compatible)
            inner.prop_map(|p| LogicalPlan::union_all(vec![p.clone(), p])),
        ]
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generated PGQs pass validation inside a GApply.
    #[test]
    fn generated_pgqs_validate(pgq in pgq_strategy()) {
        let plan = LogicalPlan::scan("t", schema4()).gapply(vec![0], pgq);
        prop_assert!(validate(&plan).is_ok(), "{}", plan.explain());
    }

    /// `arity` is the length of the derived schema, on every node.
    #[test]
    fn arity_matches_schema_len(pgq in pgq_strategy()) {
        let plan = LogicalPlan::scan("t", schema4()).gapply(vec![0], pgq);
        prop_assert!(!plan.any_node(&|p| p.arity() != p.schema().len()), "{}", plan.explain());
    }

    /// map_children with the identity rebuilds an equal plan.
    #[test]
    fn map_children_identity(pgq in pgq_strategy()) {
        let rebuilt = pgq.clone().map_children(&mut |c| c);
        prop_assert_eq!(rebuilt, pgq);
    }

    /// The column analyses are consistent with the plan's arity: maps
    /// have one entry per output column, in-range; gp-eval and covering
    /// range reference only group-scan columns.
    #[test]
    fn analyses_are_arity_consistent(pgq in pgq_strategy()) {
        let width = pgq.schema().len();
        let dm = direct_map(&pgq);
        prop_assert_eq!(dm.len(), width);
        for m in dm.into_iter().flatten() {
            prop_assert!(m < schema4().len());
        }
        let deps = dependency_map(&pgq);
        prop_assert_eq!(deps.len(), width);
        for d in &deps {
            for c in d.iter() {
                prop_assert!(c < schema4().len());
            }
        }
        for c in gp_eval_columns(&pgq).iter() {
            prop_assert!(c < schema4().len());
        }
        let range = covering_range(&pgq);
        for c in range.columns().iter() {
            prop_assert!(c < schema4().len());
        }
    }

    /// explain() never panics and mentions every leaf.
    #[test]
    fn explain_is_robust(pgq in pgq_strategy()) {
        let plan = LogicalPlan::scan("t", schema4()).gapply(vec![0], pgq);
        let text = plan.explain();
        prop_assert!(text.contains("GApply"));
        prop_assert!(text.contains("per-group:"));
        prop_assert!(text.contains("GroupScan"));
    }

    /// node_count matches a manual traversal.
    #[test]
    fn node_count_matches_children_walk(pgq in pgq_strategy()) {
        fn count(p: &LogicalPlan) -> usize {
            1 + p.children().iter().map(|c| count(c)).sum::<usize>()
        }
        prop_assert_eq!(pgq.node_count(), count(&pgq));
    }
}
