//! Property-based tests over random databases.
//!
//! Strategy: generate a random `(k, brand, price)` table, build the
//! paper's plan shapes over it with random parameters, and check the
//! semantic invariants:
//!
//! 1. the physical GApply (hash and sort partitioning) matches the
//!    formal definition `⋃_c {c} × PGQ(σ_{C=c}(R))` evaluated naively;
//! 2. every optimizer rule is a bag-equivalence;
//! 3. Theorem 1 directly: filtering a group to its covering range never
//!    changes the per-group result;
//! 4. both SQL formulations of the XQuery workloads agree;
//! 5. batched execution is invisible: every batch-size target produces
//!    the same bag as the tuple-at-a-time degenerate (`batch_size = 1`);
//! 6. join order is invisible: the greedy join-reorder tree (with or
//!    without its cost margin) returns the bound tree's bag.

use proptest::prelude::*;
use std::sync::Arc;
use xmlpub::algebra::{
    analysis::{covering_range, empty_on_empty},
    Catalog, LogicalPlan, TableDef,
};
use xmlpub::engine::ops::drain;
use xmlpub::engine::{ExecContext, ObsContext, PhysicalPlanner};
use xmlpub::expr::{AggExpr, Expr};
use xmlpub::{
    DataType, Database, EngineConfig, Field, OptimizerConfig, PartitionStrategy, Relation, Schema,
    Tuple, Value,
};

fn table_schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("brand", DataType::Str),
        Field::new("price", DataType::Float),
    ])
}

/// Random rows: small key domain (so groups collide), 3 brands, prices
/// with duplicates and occasional NULLs.
fn rows_strategy() -> impl Strategy<Value = Vec<Tuple>> {
    let row = (0..6i64, 0..3usize, 0..40i64, 0..20u8).prop_map(|(k, b, p, null_roll)| {
        let brand = ["A", "B", "C"][b];
        let price = if null_roll == 0 { Value::Null } else { Value::Float(p as f64 / 2.0) };
        Tuple::new(vec![Value::Int(k), Value::str(brand), price])
    });
    proptest::collection::vec(row, 0..60)
}

fn catalog_from(rows: Vec<Tuple>) -> Catalog {
    let def = TableDef::new("t", table_schema());
    let data = Relation::new(def.schema.clone(), rows).unwrap();
    let mut cat = Catalog::new();
    cat.register(def, data).unwrap();
    cat
}

fn scan(cat: &Catalog) -> LogicalPlan {
    LogicalPlan::scan("t", cat.table("t").unwrap().schema.clone())
}

/// A family of per-group queries covering the paper's shapes, selected
/// by an index and parameterised by a threshold.
fn pgq(shape: usize, threshold: f64, gschema: &Schema) -> LogicalPlan {
    let gs = || LogicalPlan::group_scan(gschema.clone());
    match shape {
        // Whole group.
        0 => gs(),
        // Filter + project.
        1 => gs().select(Expr::col(2).gt(Expr::lit(threshold))).project_cols(&[1, 2]),
        // Aggregates.
        2 => gs().scalar_agg(vec![AggExpr::avg(Expr::col(2), "avg"), AggExpr::count_star("n")]),
        // Inner group-by.
        3 => gs().group_by(vec![1], vec![AggExpr::max(Expr::col(2), "maxp")]),
        // Union of a listing and an aggregate (Q1 shape).
        4 => LogicalPlan::union_all(vec![
            gs().project(vec![
                xmlpub::algebra::ProjectItem::col(2),
                xmlpub::algebra::plan::null_item("pad"),
            ]),
            gs().scalar_agg(vec![AggExpr::min(Expr::col(2), "minp")]).project(vec![
                xmlpub::algebra::plan::null_item("price"),
                xmlpub::algebra::ProjectItem::col(0),
            ]),
        ]),
        // Exists-style group selection.
        5 => {
            let cond = gs().select(Expr::col(2).gt(Expr::lit(threshold)));
            gs().apply(cond.exists(), xmlpub::algebra::ApplyMode::Cross)
        }
        // Aggregate selection shape.
        6 => {
            let avg = gs().scalar_agg(vec![AggExpr::avg(Expr::col(2), "avg")]);
            gs().apply(avg, xmlpub::algebra::ApplyMode::Scalar)
                .select(Expr::col(3).gt(Expr::lit(threshold)))
                .project_cols(&[1, 2])
        }
        // Q2 shape: count above the group average.
        _ => {
            let avg = gs().scalar_agg(vec![AggExpr::avg(Expr::col(2), "avg")]);
            gs().apply(avg, xmlpub::algebra::ApplyMode::Scalar)
                .select(Expr::col(2).gt_eq(Expr::col(3)))
                .scalar_agg(vec![AggExpr::count_star("above")])
        }
    }
}

/// Naive evaluation of the formal GApply definition.
fn naive_gapply(
    cat: &Catalog,
    input: &LogicalPlan,
    group_cols: &[usize],
    per_group: &LogicalPlan,
) -> Relation {
    let planner = PhysicalPlanner::default();
    let input_rel = {
        let mut op = planner.plan(input).unwrap();
        let mut ctx = ExecContext::new(cat);
        let rows = drain(op.as_mut(), &mut ctx).unwrap();
        Relation::from_rows_unchecked(op.schema().clone(), rows)
    };
    // distinct(π_C(RE1))
    let mut keys: Vec<Vec<Value>> = input_rel
        .rows()
        .iter()
        .map(|r| group_cols.iter().map(|&c| r.value(c).clone()).collect())
        .collect();
    keys.sort();
    keys.dedup();
    let mut out_rows = Vec::new();
    let mut out_schema = None;
    for key in keys {
        let group_rows: Vec<Tuple> = input_rel
            .rows()
            .iter()
            .filter(|r| group_cols.iter().enumerate().all(|(i, &c)| r.value(c) == &key[i]))
            .cloned()
            .collect();
        let group = Relation::from_rows_unchecked(input_rel.schema().clone(), group_rows);
        let mut op = planner.plan(per_group).unwrap();
        let mut ctx = ExecContext::new(cat);
        ctx.groups.push(Arc::new(group));
        let rows = drain(op.as_mut(), &mut ctx).unwrap();
        if out_schema.is_none() {
            out_schema = Some(
                Schema::new(
                    group_cols.iter().map(|&c| input_rel.schema().field(c).clone()).collect(),
                )
                .join(op.schema()),
            );
        }
        for r in rows {
            out_rows.push(Tuple::new(key.iter().cloned().chain(r.into_values()).collect()));
        }
    }
    let schema = out_schema.unwrap_or_else(|| {
        Schema::new(group_cols.iter().map(|&c| input_rel.schema().field(c).clone()).collect())
            .join(&per_group.schema())
    });
    Relation::from_rows_unchecked(schema, out_rows)
}

fn execute_with(cat: &Catalog, plan: &LogicalPlan, strategy: PartitionStrategy) -> Relation {
    let config = EngineConfig { partition_strategy: strategy, ..Default::default() };
    xmlpub::engine::execute_with_config(plan, cat, &config).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Invariant 1: the operator implements its formal definition, under
    /// both partitioning strategies.
    #[test]
    fn gapply_matches_formal_definition(
        rows in rows_strategy(),
        shape in 0usize..8,
        threshold in 0.0f64..20.0,
    ) {
        let cat = catalog_from(rows);
        let outer = scan(&cat);
        let per_group = pgq(shape, threshold, &outer.schema());
        let plan = outer.clone().gapply(vec![0], per_group.clone());
        let expected = naive_gapply(&cat, &outer, &[0], &per_group);
        for strategy in [PartitionStrategy::Hash, PartitionStrategy::Sort] {
            let got = execute_with(&cat, &plan, strategy);
            prop_assert!(
                got.bag_eq(&expected),
                "{strategy:?}: {}",
                got.bag_diff(&expected)
            );
        }
    }

    /// Invariant 2: the full optimizer (and each rule alone) preserves
    /// the result bag.
    #[test]
    fn optimizer_rules_preserve_semantics(
        rows in rows_strategy(),
        shape in 0usize..8,
        threshold in 0.0f64..20.0,
    ) {
        let cat = catalog_from(rows);
        let outer = scan(&cat);
        let per_group = pgq(shape, threshold, &outer.schema());
        let plan = outer.gapply(vec![0], per_group);
        let baseline = execute_with(&cat, &plan, PartitionStrategy::Hash);

        let mut db = Database::from_catalog(cat);
        // Full default pipeline.
        db.config_mut().optimizer = OptimizerConfig::default();
        db.config_mut().optimizer.cost_gate = false;
        let stats = xmlpub::optimizer::Statistics::from_catalog(db.catalog());
        let optimizer = xmlpub::optimizer::Optimizer::new(db.config().optimizer, &stats);
        let (optimized, _) = optimizer.optimize(plan.clone(), &ObsContext::disabled());
        let out = db.execute_plan(&optimized).unwrap().0;
        prop_assert!(baseline.bag_eq(&out), "{}", baseline.bag_diff(&out));
    }

    /// Invariant 3 (Theorem 1): `PGQ($gp) = PGQ(σ_range($gp))` whenever
    /// the range pushes (emptyOnEmpty); checked per group directly.
    #[test]
    fn covering_range_is_sound(
        rows in rows_strategy(),
        shape in 0usize..8,
        threshold in 0.0f64..20.0,
    ) {
        let cat = catalog_from(rows);
        let outer = scan(&cat);
        let per_group = pgq(shape, threshold, &outer.schema());
        let range = covering_range(&per_group);
        prop_assume!(range != Expr::lit(true));
        prop_assume!(empty_on_empty(&per_group));

        let plain = outer.clone().gapply(vec![0], per_group.clone());
        let filtered = outer
            .select(range)
            .gapply(vec![0], per_group);
        let a = execute_with(&cat, &plain, PartitionStrategy::Hash);
        let b = execute_with(&cat, &filtered, PartitionStrategy::Hash);
        prop_assert!(a.bag_eq(&b), "{}", a.bag_diff(&b));
    }

    /// Invariant 5: batch size is semantically invisible. Running the
    /// same plan at batch-size targets 2, 7 and 1024 yields the same bag
    /// as the tuple-at-a-time reference (`batch_size = 1`).
    #[test]
    fn batch_size_is_semantically_invisible(
        rows in rows_strategy(),
        shape in 0usize..8,
        threshold in 0.0f64..20.0,
    ) {
        let cat = catalog_from(rows);
        let outer = scan(&cat);
        let per_group = pgq(shape, threshold, &outer.schema());
        let plan = outer.gapply(vec![0], per_group);
        let reference = xmlpub::engine::execute_with_config(
            &plan,
            &cat,
            &EngineConfig { batch_size: 1, ..Default::default() },
        )
        .unwrap();
        for batch_size in [2usize, 7, 1024] {
            let got = xmlpub::engine::execute_with_config(
                &plan,
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

    /// Parallel GApply is *invisible*: at every degree of parallelism,
    /// both partition strategies produce row-for-row (order included)
    /// and counter-for-counter the same result as serial execution —
    /// the deterministic-merge contract, stronger than bag equality.
    #[test]
    fn parallel_gapply_is_row_and_stats_identical_to_serial(
        rows in rows_strategy(),
        shape in 0usize..8,
        threshold in 0.0f64..20.0,
    ) {
        let cat = catalog_from(rows);
        let outer = scan(&cat);
        let per_group = pgq(shape, threshold, &outer.schema());
        let plan = outer.gapply(vec![0], per_group);
        for strategy in [PartitionStrategy::Hash, PartitionStrategy::Sort] {
            let serial = EngineConfig { partition_strategy: strategy, dop: 1, ..Default::default() };
            let (reference, ref_stats) =
                xmlpub::engine::execute_with_stats(&plan, &cat, &serial).unwrap();
            for dop in [2usize, 8] {
                let cfg = EngineConfig { partition_strategy: strategy, dop, ..Default::default() };
                let (got, stats) = xmlpub::engine::execute_with_stats(&plan, &cat, &cfg).unwrap();
                prop_assert_eq!(&got, &reference, "rows diverge at dop={} {:?}", dop, strategy);
                prop_assert_eq!(&stats, &ref_stats, "stats diverge at dop={} {:?}", dop, strategy);
            }
        }
    }

    /// Same contract through *nested* parallel plans: a GApply whose
    /// outer input is itself a GApply (both parallel), with Apply-based
    /// per-group queries, stays row- and stats-identical to serial.
    #[test]
    fn nested_parallel_gapply_matches_serial(
        rows in rows_strategy(),
        threshold in 0.0f64..20.0,
    ) {
        let cat = catalog_from(rows);
        let outer = scan(&cat);
        // Inner GApply: aggregate-selection shape (Apply inside the PGQ)
        // emitting (k, brand, price); outer GApply re-groups by brand
        // with the Q2 count-above-average shape on top.
        let inner = outer.clone().gapply(vec![0], pgq(6, threshold, &outer.schema()));
        let plan = inner.clone().gapply(vec![1], pgq(7, threshold, &inner.schema()));
        for strategy in [PartitionStrategy::Hash, PartitionStrategy::Sort] {
            let serial = EngineConfig { partition_strategy: strategy, dop: 1, ..Default::default() };
            let (reference, ref_stats) =
                xmlpub::engine::execute_with_stats(&plan, &cat, &serial).unwrap();
            for dop in [2usize, 8] {
                let cfg = EngineConfig { partition_strategy: strategy, dop, ..Default::default() };
                let (got, stats) = xmlpub::engine::execute_with_stats(&plan, &cat, &cfg).unwrap();
                prop_assert_eq!(&got, &reference, "rows diverge at dop={} {:?}", dop, strategy);
                prop_assert_eq!(&stats, &ref_stats, "stats diverge at dop={} {:?}", dop, strategy);
            }
        }
    }

    /// The runtime property oracle (`EngineConfig::check_props`, i.e.
    /// the `XMLPUB_CHECK_PROPS=1` debugging mode) is *invisible* on
    /// sound plans: over random data and plan shapes — raw and
    /// optimizer-rewritten, wrapped in the operators whose derived
    /// properties the checker actually asserts (sort order, group-by
    /// keys, distinct, scalar-agg cardinality) — checked execution
    /// never errors and returns exactly the unchecked result. A checker
    /// firing here means the static derivation claimed something the
    /// engine does not deliver.
    #[test]
    fn property_checker_is_invisible_on_sound_plans(
        rows in rows_strategy(),
        shape in 0usize..8,
        threshold in 0.0f64..20.0,
    ) {
        use xmlpub::algebra::plan::SortKey;
        let cat = catalog_from(rows);
        let outer = scan(&cat);
        let per_group = pgq(shape, threshold, &outer.schema());
        let base = outer.clone().gapply(vec![0], per_group);
        let variants = vec![
            base.clone(),
            // Derived order claims on the root.
            base.clone().order_by(vec![SortKey::asc(0), SortKey::desc(1)]),
            // Derived key claims (group-by keys / distinct rows).
            outer.clone().group_by(vec![0, 1], vec![AggExpr::count_star("n")]),
            outer.clone().project_cols(&[0, 1]).distinct(),
            // Derived exact-one-row cardinality.
            outer.clone().scalar_agg(vec![AggExpr::count_star("n")]),
        ];
        let stats = xmlpub::optimizer::Statistics::from_catalog(&cat);
        let optimizer = xmlpub::optimizer::Optimizer::new(
            OptimizerConfig { cost_gate: false, ..Default::default() },
            &stats,
        );
        for plan in variants {
            let (optimized, _) = optimizer.optimize(plan.clone(), &ObsContext::disabled());
            for candidate in [&plan, &optimized] {
                let plain = xmlpub::engine::execute_with_config(
                    candidate,
                    &cat,
                    &EngineConfig { check_props: false, ..Default::default() },
                )
                .unwrap();
                let checked = xmlpub::engine::execute_with_config(
                    candidate,
                    &cat,
                    &EngineConfig { check_props: true, ..Default::default() },
                );
                match checked {
                    Ok(got) => prop_assert_eq!(&got, &plain, "checked run changed the result"),
                    Err(e) => prop_assert!(false, "checker fired on a sound plan: {e}"),
                }
            }
        }
    }

    /// Invariant 4: tuple ordering invariance — GApply output does not
    /// depend on the physical order of its input.
    #[test]
    fn gapply_is_input_order_insensitive(
        rows in rows_strategy(),
        shape in 0usize..8,
        threshold in 0.0f64..20.0,
    ) {
        let mut reversed = rows.clone();
        reversed.reverse();
        let cat_a = catalog_from(rows);
        let cat_b = catalog_from(reversed);
        let outer_a = scan(&cat_a);
        let per_group = pgq(shape, threshold, &outer_a.schema());
        let plan_a = outer_a.gapply(vec![0], per_group.clone());
        let plan_b = scan(&cat_b).gapply(vec![0], per_group);
        let a = execute_with(&cat_a, &plan_a, PartitionStrategy::Hash);
        let b = execute_with(&cat_b, &plan_b, PartitionStrategy::Sort);
        prop_assert!(a.bag_eq(&b), "{}", a.bag_diff(&b));
    }
}

/// Rows of a two-column join table `(k, v)`: a small key domain (so
/// joins match), some NULL keys (which never match) and small values.
fn join_rows() -> impl Strategy<Value = Vec<Tuple>> {
    let row = (0..5i64, 0..8u8, 0..10i64).prop_map(|(k, null_roll, v)| {
        let key = if null_roll == 0 { Value::Null } else { Value::Int(k) };
        Tuple::new(vec![key, Value::Int(v)])
    });
    proptest::collection::vec(row, 0..25)
}

/// The topmost join of a plan.
fn top_join(plan: &LogicalPlan) -> Option<&LogicalPlan> {
    match plan {
        LogicalPlan::Join { .. } => Some(plan),
        other => other.children().into_iter().find_map(top_join),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Invariant 6: random 3–4-table inner joins in a random FROM order
    /// — a random spanning tree of equalities on nullable keys (or on
    /// values) plus a non-equi residual — return the same bag with and
    /// without join reordering.
    #[test]
    fn join_reorder_preserves_inner_join_results(
        tables in proptest::collection::vec(join_rows(), 4),
        n in 3usize..5,
        ranks in proptest::collection::vec(0..1000u32, 4),
        parents in proptest::collection::vec(0..1000usize, 4),
        on_value in proptest::collection::vec(0..4u8, 4),
        residual in (0..4usize, 0..4usize, -3i64..4),
    ) {
        let mut cat = Catalog::new();
        for (i, rows) in tables.into_iter().enumerate().take(n) {
            let schema = Schema::new(vec![
                Field::new(format!("k{i}"), DataType::Int),
                Field::new(format!("v{i}"), DataType::Int),
            ]);
            let data = Relation::new(schema.clone(), rows).unwrap();
            cat.register(TableDef::new(format!("t{i}"), schema), data).unwrap();
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (ranks[i], i));
        let mut conds: Vec<String> = (1..n)
            .map(|i| {
                let p = parents[i] % i;
                let col = if on_value[i] == 0 { "v" } else { "k" };
                format!("t{i}.{col}{i} = t{p}.k{p}")
            })
            .collect();
        let (a, b, c) = (residual.0 % n, residual.1 % n, residual.2);
        if a != b {
            conds.push(format!("t{a}.v{a} < t{b}.v{b} + {c}"));
        }
        let from: Vec<String> = order.iter().map(|i| format!("t{i}")).collect();
        let sql = format!("select * from {} where {}", from.join(", "), conds.join(" and "));

        let db = Database::from_catalog(cat);
        let plan = xmlpub::sql::compile(&sql, db.catalog()).unwrap();
        let baseline = db.execute_plan(&plan).unwrap().0;
        let stats = xmlpub::optimizer::Statistics::from_catalog(db.catalog());

        // The greedy tree itself, whatever the cost margin says, priced
        // step by step exactly as the cost model prices the whole tree.
        let join = top_join(&plan).expect("a join tree");
        if let Some((tree, pos, cost)) =
            xmlpub::optimizer::rules::join_reorder::greedy_order(join, &stats)
        {
            let model = xmlpub::optimizer::CostModel::new(&stats).cost(&tree);
            prop_assert_eq!(cost.to_bits(), model.to_bits());
            let rebuilt =
                tree.project(pos.into_iter().map(xmlpub::algebra::ProjectItem::col).collect());
            prop_assert_eq!(rebuilt.schema(), join.schema());
            let a = db.execute_plan(join).unwrap().0;
            let b = db.execute_plan(&rebuilt).unwrap().0;
            prop_assert!(a.bag_eq(&b), "{sql}\n{}", a.bag_diff(&b));
        }

        // And the rule as the optimizer runs it.
        let optimizer =
            xmlpub::optimizer::Optimizer::new(OptimizerConfig::only("join-reorder"), &stats);
        let (optimized, _) = optimizer.optimize(plan.clone(), &ObsContext::disabled());
        let out = db.execute_plan(&optimized).unwrap().0;
        prop_assert!(baseline.bag_eq(&out), "{sql}\n{}", baseline.bag_diff(&out));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Large inputs (hundreds of rows over 25 groups) through both
    /// partition strategies and parallel group execution — the result
    /// must still be row- and stats-identical to serial.
    #[test]
    fn parallel_partition_phase_is_identical_to_serial(
        rows in proptest::collection::vec(
            (0..25i64, 0..3usize, 0..40i64).prop_map(|(k, b, p)| {
                Tuple::new(vec![
                    Value::Int(k),
                    Value::str(["A", "B", "C"][b]),
                    Value::Float(p as f64 / 2.0),
                ])
            }),
            520..700,
        ),
        shape in 0usize..8,
        threshold in 0.0f64..20.0,
    ) {
        let cat = catalog_from(rows);
        let outer = scan(&cat);
        let per_group = pgq(shape, threshold, &outer.schema());
        let plan = outer.gapply(vec![0], per_group);
        for strategy in [PartitionStrategy::Hash, PartitionStrategy::Sort] {
            let serial = EngineConfig { partition_strategy: strategy, dop: 1, ..Default::default() };
            let (reference, ref_stats) =
                xmlpub::engine::execute_with_stats(&plan, &cat, &serial).unwrap();
            let cfg = EngineConfig { partition_strategy: strategy, dop: 4, ..Default::default() };
            let (got, stats) = xmlpub::engine::execute_with_stats(&plan, &cat, &cfg).unwrap();
            prop_assert_eq!(&got, &reference, "rows diverge under parallel partition {:?}", strategy);
            prop_assert_eq!(&stats, &ref_stats, "stats diverge under parallel partition {:?}", strategy);
        }
    }

    /// Batch size is invisible in the pipeline operators (filter,
    /// computed project, hash-join build/probe with a residual, hash
    /// aggregate): a *non-GApply* plan produces row- and
    /// counter-identical results at batch sizes 7 and 1024 as at the
    /// tuple-at-a-time reference — with an order-sensitive float average
    /// in the aggregate to catch any reordering of the accumulation.
    #[test]
    fn pipeline_plan_is_batch_size_invariant(
        rows in proptest::collection::vec(
            (0..25i64, 0..3usize, 0..40i64).prop_map(|(k, b, p)| {
                Tuple::new(vec![
                    Value::Int(k),
                    Value::str(["A", "B", "C"][b]),
                    Value::Float(p as f64 / 2.0),
                ])
            }),
            520..700,
        ),
        threshold in 0.0f64..20.0,
    ) {
        use xmlpub::algebra::ProjectItem;
        use xmlpub::expr::BinOp;
        let cat = catalog_from(rows);
        let bump = Expr::Binary {
            op: BinOp::Add,
            left: Box::new(Expr::col(2)),
            right: Box::new(Expr::lit(0.25)),
        };
        // filter → computed project → equi-join with a residual →
        // group-by over the join output.
        let left = scan(&cat)
            .select(Expr::col(2).gt(Expr::lit(threshold)))
            .project(vec![
                ProjectItem::col(0),
                ProjectItem::col(1),
                ProjectItem::named(bump, "p2"),
            ]);
        let inner = left
            .join(scan(&cat), Expr::col(0).eq(Expr::col(3)).and(Expr::col(2).gt(Expr::col(5))))
            .group_by(vec![4], vec![AggExpr::avg(Expr::col(2), "avg"), AggExpr::count_star("n")]);
        // Left-outer probe path with NULL padding on the build side.
        let louter = scan(&cat).left_outer_join(
            scan(&cat).select(Expr::col(2).gt(Expr::lit(threshold))),
            Expr::col(0).eq(Expr::col(3)),
        );
        for plan in [&inner, &louter] {
            let tuple_at_a_time = EngineConfig { batch_size: 1, ..Default::default() };
            let (reference, ref_stats) =
                xmlpub::engine::execute_with_stats(plan, &cat, &tuple_at_a_time).unwrap();
            for batch_size in [7usize, 1024] {
                let cfg = EngineConfig { batch_size, ..Default::default() };
                let (got, stats) = xmlpub::engine::execute_with_stats(plan, &cat, &cfg).unwrap();
                prop_assert_eq!(&got, &reference, "rows diverge at batch={}", batch_size);
                prop_assert_eq!(&stats, &ref_stats, "stats diverge at batch={}", batch_size);
            }
        }
    }

    /// Both SQL formulations of the Q1/Q3-style XQuery workloads agree on
    /// random thresholds (full-stack property).
    #[test]
    fn xquery_translations_agree(scale_ppm in 3u32..8, threshold in 900.0f64..2100.0) {
        use xmlpub::xml::xquery::{ChildCond, ReturnItem, ViewSql, XAgg, XQueryFor};
        use xmlpub::expr::BinOp;
        let db = Database::tpch(scale_ppm as f64 / 10_000.0).unwrap();
        let view = ViewSql::supplier_parts();
        let q = XQueryFor {
            var: "s".into(),
            where_clause: None,
            return_items: vec![
                ReturnItem::Nested {
                    fields: vec!["p_name".into()],
                    filter: Some(ChildCond::Compare {
                        field: "p_retailprice".into(),
                        op: BinOp::Gt,
                        value: Value::Float(threshold),
                    }),
                },
                ReturnItem::Aggregate {
                    agg: XAgg::Avg,
                    field: "p_retailprice".into(),
                    filter: None,
                },
            ],
        };
        let classic = db.sql(&q.to_classic_sql(&view)).unwrap();
        let gapply = db.sql(&q.to_gapply_sql(&view)).unwrap();
        prop_assert!(classic.bag_eq(&gapply), "{}", classic.bag_diff(&gapply));
    }
}

/// The Figure 8 workloads answered by the concurrent publishing service
/// from 8 client threads are bag-equal to a serial single-threaded
/// execution of the same queries — both the prepared (warm) and ad-hoc
/// paths, with every client racing on the shared plan cache.
#[test]
fn concurrent_fig8_matches_serial_execution() {
    use xmlpub::xml::workloads::figure8_workloads;
    use xmlpub_server::{Server, ServerConfig};

    let scale = 0.001;
    let serial = Database::tpch(scale).unwrap();
    let workloads = figure8_workloads();
    let expected: Vec<Relation> =
        workloads.iter().map(|w| serial.sql(&w.gapply_sql).unwrap()).collect();

    let server = Server::new(
        Database::tpch(scale).unwrap(),
        ServerConfig { workers: 8, queue_depth: 32, ..ServerConfig::default() },
    );
    std::thread::scope(|s| {
        for client in 0..8 {
            let server = &server;
            let workloads = &workloads;
            let expected = &expected;
            s.spawn(move || {
                let mut session = server.session();
                // Rotate the starting query per client so cache fills race.
                for i in 0..workloads.len() {
                    let idx = (client + i) % workloads.len();
                    let w = &workloads[idx];
                    session.prepare(w.name, &w.gapply_sql).unwrap();
                    let (got, _) = session.execute_prepared(w.name).unwrap();
                    assert!(
                        got.bag_eq(&expected[idx]),
                        "{}: {}",
                        w.name,
                        got.bag_diff(&expected[idx])
                    );
                    // Ad-hoc path: same SQL text must now be a cache hit.
                    let (got2, stats) = session.execute(&w.gapply_sql).unwrap();
                    assert!(got2.bag_eq(&expected[idx]));
                    assert_eq!(stats.plan_cache_hits, 1);
                }
            });
        }
    });
    let stats = server.stats();
    assert_eq!(stats.pool.shed, 0, "queue depth 32 must absorb 8 closed-loop clients");
    assert!(stats.cache.hits > 0, "8 clients over 5 queries must share plans: {stats}");
}

// ---------------------------------------------------------------------
// Incremental publishing (delta-maintained documents).

/// A delta script interleaving appends and deletes against a base
/// relation, mirrored on a plain `Vec<Tuple>` model (deletes drop the
/// first equal row, appends go to the end): the row store must equal
/// the model after every batch, and the version stamp must advance
/// exactly when the data changes.
#[cfg(test)]
mod delta_coherence {
    use super::*;
    use xmlpub_common::DeltaBatch;

    fn delta_script() -> impl Strategy<Value = Vec<Vec<(i64, u16)>>> {
        // Batches of (key, selector).
        proptest::collection::vec(proptest::collection::vec((0..50i64, any::<u16>()), 1..8), 1..6)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn row_store_and_version_track_a_vec_model(
            rows in rows_strategy(),
            script in delta_script(),
        ) {
            let mut rel = Relation::new(table_schema(), rows.clone()).unwrap();
            let mut model: Vec<Tuple> = rows;
            for ops in script {
                let before = rel.version();
                let mut batch = DeltaBatch::default();
                // Distinct indices only: a batch may not delete the same
                // physical row twice.
                let mut used = std::collections::HashSet::new();
                for (key, sel) in ops {
                    if sel % 3 == 0 && !rel.is_empty() {
                        // Delete an existing row, so the delete matches.
                        let idx = sel as usize % rel.len();
                        if !used.insert(idx) {
                            continue;
                        }
                        batch.deleted.push(rel.rows()[idx].clone());
                    } else {
                        batch.appended.push(Tuple::new(vec![
                            Value::Int(key),
                            Value::str(["A", "B", "C"][sel as usize % 3]),
                            Value::Float(sel as f64 / 8.0),
                        ]));
                    }
                }
                for gone in &batch.deleted {
                    let at = model.iter().position(|r| r == gone).expect("deleted row is present");
                    model.remove(at);
                }
                model.extend(batch.appended.iter().cloned());
                let changed = !batch.appended.is_empty() || !batch.deleted.is_empty();
                rel.apply_delta(&batch).unwrap();
                prop_assert_eq!(rel.version() > before, changed, "version stamp");
                prop_assert_eq!(rel.rows(), &model[..]);
            }
        }
    }
}

/// The republish differential: random append/delete interleavings
/// against the supplier and partsupp tables, republished through the
/// delta-maintained document cache, must stay **byte-identical** to a
/// publish at the same catalog state — at every dop x batch-size
/// combination, and across them.
#[cfg(test)]
mod incremental_republish {
    use super::*;
    use xmlpub::xml::supplier_parts_view;
    use xmlpub_common::DeltaBatch;
    use xmlpub_server::{RepublishOutcome, Server, ServerConfig};

    /// (op selector, row selector) pairs; op % 4 picks the mutation.
    fn mutation_script() -> impl Strategy<Value = Vec<(u8, u16)>> {
        proptest::collection::vec((any::<u8>(), any::<u16>()), 1..8)
    }

    /// Returns `false` when the selected mutation was a guarded no-op
    /// (e.g. the delete that keeps the document non-trivial) — the
    /// caller then expects a `clean` republish instead of a splice.
    fn apply_mutation(db: &Database, op: u8, sel: u16, next_key: &mut i64) -> bool {
        let catalog = db.catalog();
        match op % 4 {
            // Rename a supplier: delete + append under the same key.
            0 => {
                let data = catalog.data("supplier").unwrap();
                let rows = data.rows();
                if rows.is_empty() {
                    return false;
                }
                let name_col =
                    catalog.table("supplier").unwrap().schema.resolve(None, "s_name").unwrap();
                let old = rows[sel as usize % rows.len()].clone();
                let mut vals = old.values().to_vec();
                vals[name_col] = Value::str(format!("renamed {sel}"));
                db.apply_delta("supplier", &DeltaBatch::new(vec![Tuple::new(vals)], vec![old]))
                    .unwrap();
            }
            // Delete a supplier outright: the whole group disappears.
            1 => {
                let data = catalog.data("supplier").unwrap();
                let rows = data.rows();
                if rows.len() <= 2 {
                    return false; // keep the document non-trivial
                }
                let old = rows[sel as usize % rows.len()].clone();
                db.apply_delta("supplier", &DeltaBatch::new(vec![], vec![old])).unwrap();
            }
            // Insert a fresh supplier: a new group appears (with no
            // parts — the sorted outer union pads it).
            2 => {
                let data = catalog.data("supplier").unwrap();
                let rows = data.rows();
                if rows.is_empty() {
                    return false;
                }
                let schema = &catalog.table("supplier").unwrap().schema;
                let key_col = schema.resolve(None, "s_suppkey").unwrap();
                let name_col = schema.resolve(None, "s_name").unwrap();
                *next_key += 1;
                let mut vals = rows[sel as usize % rows.len()].values().to_vec();
                vals[key_col] = Value::Int(*next_key);
                vals[name_col] = Value::str(format!("inserted {}", *next_key));
                db.apply_delta("supplier", &DeltaBatch::new(vec![Tuple::new(vals)], vec![]))
                    .unwrap();
            }
            // Delete a partsupp row: a child element vanishes from an
            // otherwise-clean group (delta on the non-key join side).
            _ => {
                let data = catalog.data("partsupp").unwrap();
                let rows = data.rows();
                if rows.is_empty() {
                    return false;
                }
                let old = rows[sel as usize % rows.len()].clone();
                db.apply_delta("partsupp", &DeltaBatch::new(vec![], vec![old])).unwrap();
            }
        }
        true
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn incremental_republish_is_byte_identical_under_random_churn(
            script in mutation_script(),
        ) {
            let mut final_docs: Vec<String> = Vec::new();
            for (dop, batch) in [(1usize, 1usize), (1, 1024), (4, 1), (4, 1024)] {
                let db = Database::tpch(0.001).unwrap();
                let mut defaults = db.config();
                defaults.engine.dop = dop;
                defaults.engine.batch_size = batch;
                let server = Server::new(
                    db,
                    ServerConfig { workers: 2, queue_depth: 32, defaults, ..ServerConfig::default() },
                );
                let view = supplier_parts_view(server.database().catalog()).unwrap();
                let mut session = server.session();
                session.republish(&view, false).unwrap();
                let mut next_key = 100_000i64;
                for &(op, sel) in &script {
                    let applied = apply_mutation(server.database(), op, sel, &mut next_key);
                    let (got, outcome) = session.republish(&view, false).unwrap();
                    let want = session.publish(&view, false).unwrap();
                    // Every mutation dirties at most two of ~10 root
                    // groups — far below the 0.5 threshold — so the
                    // session must splice. A guarded no-op leaves it
                    // clean.
                    if applied {
                        prop_assert!(
                            matches!(outcome, RepublishOutcome::Incremental { .. }),
                            "dop {} batch {}: ({}, {}) should splice, got: {}",
                            dop, batch, op, sel, outcome
                        );
                    } else {
                        prop_assert!(
                            matches!(outcome, RepublishOutcome::Clean),
                            "dop {} batch {}: no-op ({}, {}) should be clean, got: {}",
                            dop, batch, op, sel, outcome
                        );
                    }
                    prop_assert_eq!(
                        &got, &want,
                        "dop {} batch {}: republish diverged from publish after ({}, {}); \
                         outcome: {}",
                        dop, batch, op, sel, outcome
                    );
                }
                let (doc, _) = session.republish(&view, false).unwrap();
                final_docs.push(doc);
            }
            // dop and batch size are invisible in the published bytes.
            for pair in final_docs.windows(2) {
                prop_assert_eq!(&pair[0], &pair[1], "dop/batch changed the document");
            }
        }
    }

    /// The fallback paths answer byte-identically too: mass churn above
    /// the dirty-fraction threshold recomputes, and the document it
    /// caches is a sound baseline for the next (small) delta.
    #[test]
    fn fallback_then_incremental_stays_byte_identical() {
        let server = Server::new(Database::tpch(0.001).unwrap(), ServerConfig::default());
        let view = supplier_parts_view(server.database().catalog()).unwrap();
        let mut session = server.session();
        session.republish(&view, false).unwrap();

        // Rename most suppliers: dirty fraction above the default 0.5.
        let db = server.database();
        let rows = db.catalog().data("supplier").unwrap().rows().to_vec();
        let name_col =
            db.catalog().table("supplier").unwrap().schema.resolve(None, "s_name").unwrap();
        let churn = (rows.len() * 4).div_ceil(5).max(1);
        let mut batch = DeltaBatch::default();
        for old in rows.into_iter().take(churn) {
            let mut vals = old.values().to_vec();
            vals[name_col] = Value::str("mass renamed");
            batch.deleted.push(old);
            batch.appended.push(Tuple::new(vals));
        }
        db.apply_delta("supplier", &batch).unwrap();

        let (got, outcome) = session.republish(&view, false).unwrap();
        assert!(
            matches!(outcome, RepublishOutcome::Full { reason: "dirty-fraction" }),
            "80% churn must fall back on dirty-fraction, got: {outcome}"
        );
        assert_eq!(
            got,
            db.publish(&view, false).unwrap(),
            "fallback path diverged; outcome: {outcome}"
        );

        // And the recomputed document is a good splice baseline.
        let one = db.catalog().data("supplier").unwrap().rows()[0].clone();
        let mut vals = one.values().to_vec();
        vals[name_col] = Value::str("small touch");
        db.apply_delta("supplier", &DeltaBatch::new(vec![Tuple::new(vals)], vec![one])).unwrap();
        let (got, outcome) = session.republish(&view, false).unwrap();
        assert!(
            matches!(outcome, RepublishOutcome::Incremental { .. }),
            "single-group churn should splice, got: {outcome}"
        );
        assert_eq!(
            got,
            db.publish(&view, false).unwrap(),
            "post-fallback splice diverged; outcome: {outcome}"
        );
    }
}
