//! End-to-end checks of the scalar-aggregate decorrelation rewrite on
//! the paper's own classic formulations.

use xmlpub::xml::workloads;
use xmlpub::{Database, LogicalPlan};

#[test]
fn classic_q2_decorrelates_into_outer_join_groupby() {
    let db = Database::tpch(0.001).unwrap();
    let (plan, log) = db.optimized_plan(&workloads::q2().classic_sql).unwrap();
    assert!(
        log.iter().filter(|f| f.rule == "decorrelate-scalar-agg").count() >= 2,
        "both branches' subqueries should decorrelate: {log:?}"
    );
    assert!(
        !plan.any_node(&|p| matches!(p, LogicalPlan::Apply { .. })),
        "no Apply should survive:\n{}",
        plan.explain()
    );
    assert!(plan.any_node(&|p| matches!(p, LogicalPlan::LeftOuterJoin { .. })));
    assert!(plan.any_node(&|p| matches!(p, LogicalPlan::GroupBy { .. })));
}

#[test]
fn decorrelated_and_raw_classic_agree() {
    let db = Database::tpch(0.001).unwrap();
    let mut raw = Database::tpch(0.001).unwrap();
    raw.config_mut().skip_optimizer = true;
    for w in [workloads::q2(), workloads::q3()] {
        let a = db.sql(&w.classic_sql).unwrap();
        let b = raw.sql(&w.classic_sql).unwrap();
        assert!(a.bag_eq(&b), "{}: {}", w.name, a.bag_diff(&b));
    }
}

#[test]
fn decorrelation_leaves_gapply_queries_alone() {
    // Per-group applies read the relation-valued variable; decorrelating
    // them would plant a join inside the PGQ. The rule must decline.
    let db = Database::tpch(0.001).unwrap();
    let (plan, log) = db.optimized_plan(&workloads::q2().gapply_sql).unwrap();
    assert!(!log.iter().any(|f| f.rule == "decorrelate-scalar-agg"), "{log:?}");
    assert!(plan.any_node(&|p| matches!(p, LogicalPlan::GApply { .. })));
}

#[test]
fn decorrelation_work_reduction_is_measurable() {
    // Engine counters: decorrelated classic Q2 runs the aggregate once
    // per branch instead of once per (supplier, branch).
    let db = Database::tpch(0.002).unwrap();
    let mut raw = Database::tpch(0.002).unwrap();
    raw.config_mut().skip_optimizer = true;
    let (_, with_rule) = db.sql_with_stats(&workloads::q2().classic_sql).unwrap();
    let (_, without) = raw.sql_with_stats(&workloads::q2().classic_sql).unwrap();
    assert_eq!(with_rule.apply_inner_executions, 0, "no applies left");
    assert!(without.apply_inner_executions > 0);
    assert!(with_rule.rows_scanned < without.rows_scanned);
}

#[test]
fn two_level_correlation_agrees_with_the_unoptimized_plan() {
    // The innermost subquery reads both enclosing rows (`ps_partkey` one
    // level up, `s_nationkey` two levels up); decorrelating it would
    // remove the Apply that its level-1 reference needs, so the rule
    // declines there. The pinned scenario is edge/nested_correlation.
    let sql = "select s_suppkey from supplier where s_acctbal > \
               (select avg(ps_supplycost) from partsupp where ps_suppkey = s_suppkey \
                and ps_availqty > (select avg(p_retailprice) from part \
                                   where p_partkey = ps_partkey and p_size > s_nationkey))";
    let db = Database::tpch(0.001).unwrap();
    let mut raw = Database::tpch(0.001).unwrap();
    raw.config_mut().skip_optimizer = true;
    let expected = raw.sql(sql).unwrap();
    assert_eq!(expected.len(), 8);
    let got = db.sql(sql).unwrap();
    assert!(got.bag_eq(&expected), "{}", got.bag_diff(&expected));
}
