//! Engine integration tests: deep operator pipelines, empty inputs,
//! error propagation, and GApply in unusual (but legal) positions.

use xmlpub_algebra::{
    plan::null_item, ApplyMode, Catalog, LogicalPlan, ProjectItem, SortKey, TableDef,
};
use xmlpub_common::{row, DataType, Field, Relation, Schema, Value};
use xmlpub_engine::{
    execute, execute_stream, execute_with_config, EngineConfig, PartitionStrategy,
};
use xmlpub_expr::{AggExpr, Expr};

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    let def = TableDef::new(
        "sales",
        Schema::new(vec![
            Field::new("region", DataType::Str),
            Field::new("store", DataType::Int),
            Field::new("amount", DataType::Float),
        ]),
    );
    let data = Relation::new(
        def.schema.clone(),
        vec![
            row!["east", 1, 100.0],
            row!["east", 1, 50.0],
            row!["east", 2, 75.0],
            row!["west", 3, 300.0],
            row!["west", 3, 25.0],
        ],
    )
    .unwrap();
    cat.register(def, data).unwrap();

    let def = TableDef::new("empty", Schema::new(vec![Field::new("x", DataType::Int)]));
    cat.register(def.clone(), Relation::empty(def.schema.clone())).unwrap();
    cat
}

fn sales(cat: &Catalog) -> LogicalPlan {
    LogicalPlan::scan("sales", cat.table("sales").unwrap().schema.clone())
}

#[test]
fn deep_pipeline_through_every_operator() {
    let cat = catalog();
    // GApply per region: per store subtotals above the region average,
    // sorted, deduplicated, unioned with a count row, projected.
    let gschema = sales(&cat).schema();
    let gs = || LogicalPlan::group_scan(gschema.clone());
    let per_store = gs()
        .group_by(vec![1], vec![AggExpr::sum(Expr::col(2), "total")])
        .order_by(vec![SortKey::desc(1)])
        .project(vec![ProjectItem::col(0), ProjectItem::col(1)])
        .distinct();
    let count_row = gs()
        .scalar_agg(vec![AggExpr::count_star("n")])
        .project(vec![ProjectItem::col(0), null_item("total")]);
    let pgq = LogicalPlan::union_all(vec![per_store, count_row]);
    let plan = sales(&cat).gapply(vec![0], pgq);
    let result = execute(&plan, &cat).unwrap();
    let n = Value::Null;
    let expected = Relation::new(
        result.schema().clone(),
        vec![
            row!["east", 1, 150.0],
            row!["east", 2, 75.0],
            row!["east", 3, n.clone()],
            row!["west", 3, 325.0],
            row!["west", 2, n.clone()],
        ],
    )
    .unwrap();
    assert!(result.bag_eq(&expected), "{}", result.bag_diff(&expected));
}

#[test]
fn gapply_over_empty_table_is_empty() {
    let cat = catalog();
    let schema = cat.table("empty").unwrap().schema.clone();
    let pgq = LogicalPlan::group_scan(schema.clone()).scalar_agg(vec![AggExpr::count_star("n")]);
    let plan = LogicalPlan::scan("empty", schema).gapply(vec![0], pgq);
    for strategy in [PartitionStrategy::Hash, PartitionStrategy::Sort] {
        let config = EngineConfig { partition_strategy: strategy, ..Default::default() };
        let r = execute_with_config(&plan, &cat, &config).unwrap();
        assert!(r.is_empty());
    }
}

#[test]
fn gapply_inside_apply_inner_is_legal_and_correct() {
    // An Apply whose inner runs a GApply over a base table — legal as
    // long as the GApply is not inside a per-group query.
    let cat = catalog();
    let gschema = sales(&cat).schema();
    let inner_gapply = sales(&cat)
        .select(Expr::col(0).eq(Expr::Correlated { level: 0, index: 0 }))
        .gapply(
            vec![1],
            LogicalPlan::group_scan(gschema.clone())
                .scalar_agg(vec![AggExpr::sum(Expr::col(2), "t")]),
        )
        .scalar_agg(vec![AggExpr::max(Expr::col(1), "best_store_total")]);
    let outer = sales(&cat).project_cols(&[0]).distinct();
    let plan = outer.apply(inner_gapply, ApplyMode::Scalar);
    let result = execute(&plan, &cat).unwrap();
    let expected =
        Relation::new(result.schema().clone(), vec![row!["east", 150.0], row!["west", 325.0]])
            .unwrap();
    assert!(result.bag_eq(&expected), "{}", result.bag_diff(&expected));
}

/// Parallel GApply workers run their own per-group plans, lowered from
/// the same pre-order ids, so `\explain --analyze` reads the same plan at
/// any dop: every profile row keeps its label and depth, every operator
/// below the GApply is opened and produces rows exactly as serially, and
/// the GApply emits the same rows.
#[test]
fn profiles_agree_between_serial_and_parallel_gapply() {
    let cat = catalog();
    let gschema = sales(&cat).schema();
    let gs = || LogicalPlan::group_scan(gschema.clone());
    // Per region, per store: the store's total, via an Apply over the
    // group correlated on the store.
    let store_total = gs()
        .select(Expr::col(1).eq(Expr::Correlated { level: 0, index: 0 }))
        .scalar_agg(vec![AggExpr::sum(Expr::col(2), "total")]);
    let pgq = gs().project_cols(&[1]).distinct().apply(store_total, ApplyMode::Scalar);
    let plan = sales(&cat).gapply(vec![0], pgq);
    let run = |dop| {
        let config = EngineConfig { profile_ops: true, dop, ..EngineConfig::default() };
        execute_stream(&plan, &cat, &config).unwrap().materialize().unwrap()
    };
    let (serial, _, serial_profiles) = run(1);
    let (parallel, _, profiles) = run(4);
    assert_eq!(parallel.rows(), serial.rows());
    assert_eq!(profiles.len(), serial_profiles.len());
    assert!(profiles.len() > 5, "the PGQ is profiled: {profiles:?}");
    for (id, (p, s)) in profiles.iter().zip(&serial_profiles).enumerate() {
        assert_eq!((&p.label, p.depth), (&s.label, s.depth), "operator {id}");
        assert_eq!(p.rows_out, s.rows_out, "operator {id} ({})", s.label);
        if id > 0 {
            assert_eq!(p.opens, s.opens, "operator {id} ({})", s.label);
        }
    }
    assert!(serial_profiles[0].label.starts_with("GApply"));
}

#[test]
fn type_errors_propagate_from_deep_in_the_tree() {
    let cat = catalog();
    // LIKE over a float column fails at execution, inside a PGQ, inside
    // a union branch.
    let gschema = sales(&cat).schema();
    let bad = LogicalPlan::group_scan(gschema.clone()).select(Expr::Like {
        expr: Box::new(Expr::col(2)),
        pattern: "x%".into(),
        negated: false,
    });
    let ok = LogicalPlan::group_scan(gschema.clone());
    let plan = sales(&cat).gapply(vec![0], LogicalPlan::union_all(vec![ok, bad]));
    let err = execute(&plan, &cat).unwrap_err();
    assert!(err.to_string().contains("LIKE"), "{err}");
}

#[test]
fn nested_applies_two_levels_deep() {
    let cat = catalog();
    // For each region row, count rows in the same region with amount
    // above the store's own total... exercised via two nested applies
    // with level-0 and level-1 correlated references.
    let inner_most = sales(&cat).select(
        Expr::col(0)
            .eq(Expr::Correlated { level: 1, index: 0 }) // outermost region
            .and(Expr::col(2).gt(Expr::Correlated { level: 0, index: 2 })), // middle amount
    );
    let middle = sales(&cat)
        .select(Expr::col(0).eq(Expr::Correlated { level: 0, index: 0 }))
        .apply(inner_most.scalar_agg(vec![AggExpr::count_star("above")]), ApplyMode::Scalar)
        .scalar_agg(vec![AggExpr::max(Expr::col(3), "max_above")]);
    let plan = sales(&cat).project_cols(&[0]).distinct().apply(middle, ApplyMode::Scalar);
    let result = execute(&plan, &cat).unwrap();
    // east: amounts 100,50,75 → counts above each: 0,2,1 → max 2
    // west: amounts 300,25 → counts above each: 0,1 → max 1
    let expected =
        Relation::new(result.schema().clone(), vec![row!["east", 2], row!["west", 1]]).unwrap();
    assert!(result.bag_eq(&expected), "{}", result.bag_diff(&expected));
}

#[test]
fn order_by_inside_pgq_orders_within_each_group() {
    let cat = catalog();
    let gschema = sales(&cat).schema();
    let pgq = LogicalPlan::group_scan(gschema.clone())
        .order_by(vec![SortKey::desc(2)])
        .project_cols(&[2]);
    let config = EngineConfig { partition_strategy: PartitionStrategy::Sort, ..Default::default() };
    let plan = sales(&cat).gapply(vec![0], pgq);
    let r = execute_with_config(&plan, &cat, &config).unwrap();
    // Sort partitioning → regions in key order; within each region the
    // PGQ's ORDER BY holds.
    let amounts: Vec<f64> = r.rows().iter().map(|t| t.value(1).as_f64().unwrap()).collect();
    assert_eq!(amounts, vec![100.0, 75.0, 50.0, 300.0, 25.0]);
}

#[test]
fn multi_key_gapply_with_string_and_int_keys() {
    let cat = catalog();
    let gschema = sales(&cat).schema();
    let pgq = LogicalPlan::group_scan(gschema.clone()).scalar_agg(vec![AggExpr::count_star("n")]);
    let plan = sales(&cat).gapply(vec![0, 1], pgq);
    let r = execute(&plan, &cat).unwrap();
    let expected = Relation::new(
        r.schema().clone(),
        vec![row!["east", 1, 2], row!["east", 2, 1], row!["west", 3, 2]],
    )
    .unwrap();
    assert!(r.bag_eq(&expected), "{}", r.bag_diff(&expected));
}

#[test]
fn apply_memo_keys_on_a_correlated_left_outer_join_predicate() {
    // Apply[Scalar](stores, sum(#1) over LOJ(stores, stores,
    // #0 = #1 AND #1 = outer[0]#0)): the inner reads the outer row only
    // through the outer join's predicate, so the memo must key on it.
    let cat = catalog();
    let stores = || sales(&cat).project_cols(&[1]);
    let inner = stores()
        .left_outer_join(
            stores(),
            Expr::col(0)
                .eq(Expr::col(1))
                .and(Expr::col(1).eq(Expr::Correlated { level: 0, index: 0 })),
        )
        .scalar_agg(vec![AggExpr::sum(Expr::col(1), "s")]);
    let plan = stores().apply(inner, ApplyMode::Scalar);
    let unmemoized = EngineConfig { memoize_correlated_apply: false, ..Default::default() };
    for r in [execute(&plan, &cat), execute_with_config(&plan, &cat, &unmemoized)] {
        let sums: Vec<Value> = r.unwrap().rows().iter().map(|t| t.value(1).clone()).collect();
        assert_eq!(sums, [4, 4, 2, 12, 12].map(Value::Int));
    }
}
