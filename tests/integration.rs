//! Cross-crate integration tests: the full stack (SQL → binder →
//! optimizer → engine → tagger) against generated TPC-H data, plus the
//! figure-level checks from the paper.

use xmlpub::xml::workloads;
use xmlpub::{Database, LogicalPlan, OptimizerConfig, PartitionStrategy, RuleSet};

fn db(scale: f64) -> Database {
    Database::tpch(scale).expect("tpch catalog")
}

/// How often `join-reorder` fires in a firing log.
fn reorders(log: &[xmlpub::RuleFiring]) -> usize {
    log.iter().filter(|f| f.rule == "join-reorder").count()
}

#[test]
fn join_reorder_gives_q4_the_q4r_plan_and_fires_nowhere_else() {
    let database = db(0.01);
    let (q4, log) = database.optimized_plan(&workloads::q4().classic_sql).unwrap();
    assert_eq!(reorders(&log), 1, "{log:?}");
    let (q4r, _) = database.optimized_plan(&workloads::q4_reordered().classic_sql).unwrap();
    assert_eq!(q4, q4r);
    let (rows, stats) = database.execute_plan(&q4).unwrap();
    let (rows_r, stats_r) = database.execute_plan(&q4r).unwrap();
    assert_eq!(rows, rows_r);
    assert_eq!(stats, stats_r);
    assert_eq!(
        (stats.join_probes, stats.rows_hashed, stats.rows_scanned, stats.rows_sorted),
        (24_000, 16_025, 20_000, 3_204)
    );

    // Every other Fig. 8 statement keeps its bound join order.
    for w in workloads::figure8_workloads() {
        for (shape, sql) in [("classic", &w.classic_sql), ("gapply", &w.gapply_sql)] {
            let expected = usize::from(w.name == "Q4" && shape == "classic");
            let (_, log) = database.optimized_plan(sql).unwrap();
            assert_eq!(reorders(&log), expected, "{} {shape}: {log:?}", w.name);
        }
    }

    // So do both publish views, whole and restricted to a few root keys.
    let full = Database::tpch_full(0.01).unwrap();
    let views = [
        xmlpub::xml::supplier_parts_view(full.catalog()).unwrap(),
        xmlpub::xml::customer_orders_view(full.catalog()).unwrap(),
    ];
    let keys: Vec<xmlpub::Tuple> =
        [1, 7, 42].into_iter().map(|k| xmlpub::Tuple::new(vec![xmlpub::Value::Int(k)])).collect();
    for view in &views {
        for sou in [
            xmlpub::xml::sorted_outer_union(view).unwrap(),
            xmlpub::xml::sorted_outer_union_for_keys(view, &keys).unwrap(),
        ] {
            let (_, log) = xmlpub::optimize_view(
                &full.config(),
                full.statistics(),
                &xmlpub::obs::ObsContext::disabled(),
                &sou,
            )
            .unwrap();
            assert_eq!(reorders(&log), 0, "{}: {log:?}", view.document_element);
        }
    }
}

#[test]
fn figure8_workloads_agree_between_formulations_and_configs() {
    let base = db(0.002);
    let mut raw = db(0.002);
    raw.config_mut().optimizer = OptimizerConfig::none();
    let mut sorted = db(0.002);
    sorted.config_mut().engine.partition_strategy = PartitionStrategy::Sort;

    for w in workloads::figure8_workloads() {
        let optimized = base.sql(&w.gapply_sql).unwrap();
        let unoptimized = raw.sql(&w.gapply_sql).unwrap();
        let sort_part = sorted.sql(&w.gapply_sql).unwrap();
        assert!(
            optimized.bag_eq(&unoptimized),
            "{}: optimizer changed the result\n{}",
            w.name,
            optimized.bag_diff(&unoptimized)
        );
        assert!(optimized.bag_eq(&sort_part), "{}: partition strategy changed the result", w.name);
    }
}

#[test]
fn optimizer_every_single_rule_preserves_results() {
    // Queries chosen so that collectively every rule fires at least once.
    let queries = [
        workloads::selection_sweep_sql(1500.0),
        workloads::projection_sweep_sql(false),
        workloads::to_groupby_sweep_sql(),
        workloads::exists_sweep_sql(2000.0),
        workloads::aggregate_selection_sweep_sql(1500.0),
        workloads::invariant_grouping_sweep_sql(),
        workloads::q1().gapply_sql,
        workloads::q2().gapply_sql,
        workloads::q4().classic_sql,
    ];
    let mut database = db(0.001);
    let mut fired_total = 0;
    for sql in &queries {
        database.config_mut().optimizer = OptimizerConfig::none();
        let baseline = database.sql(sql).unwrap();
        for rule in RuleSet::ALL.names() {
            database.config_mut().optimizer = OptimizerConfig::only(rule);
            database.config_mut().optimizer.cost_gate = false;
            let (_, log) = database.optimized_plan(sql).unwrap();
            fired_total += log.len();
            let out = database.sql(sql).unwrap();
            assert!(baseline.bag_eq(&out), "rule {rule} broke {sql}\n{}", baseline.bag_diff(&out));
        }
    }
    assert!(fired_total > 10, "rules barely fired ({fired_total} times)");
}

#[test]
fn default_optimizer_composes_all_rules_safely() {
    let database = db(0.001);
    let mut raw = db(0.001);
    raw.config_mut().optimizer = OptimizerConfig::none();
    for sql in [
        workloads::selection_sweep_sql(1200.0),
        workloads::exists_sweep_sql(1900.0),
        workloads::aggregate_selection_sweep_sql(1450.0),
        workloads::invariant_grouping_sweep_sql(),
        workloads::q3().gapply_sql,
        workloads::q4().gapply_sql,
    ] {
        let a = database.sql(&sql).unwrap();
        let b = raw.sql(&sql).unwrap();
        assert!(a.bag_eq(&b), "{sql}\n{}", a.bag_diff(&b));
    }
}

#[test]
fn invariant_grouping_actually_moves_gapply_below_the_join() {
    let database = db(0.001);
    let (plan, log) = database.optimized_plan(&workloads::invariant_grouping_sweep_sql()).unwrap();
    assert!(
        log.iter().any(|f| f.rule == "invariant-grouping"),
        "rule did not fire: {log:?}\n{}",
        plan.explain()
    );
    // After the rewrite, some join sits above a GApply.
    fn join_above_gapply(p: &LogicalPlan) -> bool {
        match p {
            LogicalPlan::Join { left, .. } => {
                left.any_node(&|n| matches!(n, LogicalPlan::GApply { .. }))
            }
            _ => p.children().iter().any(|c| join_above_gapply(c)),
        }
    }
    assert!(join_above_gapply(&plan), "{}", plan.explain());
}

#[test]
fn engine_counters_show_the_redundancy_argument() {
    // §2's argument made measurable: the classic Q1 scans the base
    // tables once per union branch; the gapply Q1 scans them once.
    let database = db(0.002);
    let w = workloads::q1();
    let (_, classic) = database.sql_with_stats(&w.classic_sql).unwrap();
    let (_, gapply) = database.sql_with_stats(&w.gapply_sql).unwrap();
    assert!(
        classic.rows_scanned >= 2 * gapply.rows_scanned,
        "classic {} vs gapply {}",
        classic.rows_scanned,
        gapply.rows_scanned
    );
}

#[test]
fn xml_publication_is_stable_across_configs() {
    let mut database = db(0.0005);
    let view = xmlpub::xml::supplier_parts_view(database.catalog()).unwrap();
    let a = database.publish(&view, true).unwrap();
    database.config_mut().engine.partition_strategy = PartitionStrategy::Sort;
    let b = database.publish(&view, true).unwrap();
    assert_eq!(a, b, "publishing must not depend on engine configuration");
    assert!(a.contains("<s_name>"));
}

#[test]
fn gapply_sql_round_trips_through_explain() {
    let database = db(0.001);
    for w in workloads::figure8_workloads() {
        let text = database.explain(&w.gapply_sql).unwrap();
        assert!(text.contains("GApply"), "{}: {text}", w.name);
    }
}

/// §4.4's cost model pinned bit for bit: the cost and the estimated
/// rows of the bound and the default-optimized plan of every Fig. 8
/// statement. A change to the model's float operations, or to any plan
/// the optimizer picks, moves one of these.
#[test]
fn cost_model_is_pinned_on_figure8() {
    // (query, shape, plan, [cost, rows] as `f64::to_bits`)
    const PINS: [(&str, &str, &str, [u64; 2]); 16] = [
        ("Q1", "classic", "bound", [0x40d09902939b4dce, 0x4089500000000000]),
        ("Q1", "classic", "optimized", [0x40d22902939b4dce, 0x4089500000000000]),
        ("Q1", "gapply", "bound", [0x40c1080000000000, 0x4089500000000000]),
        ("Q1", "gapply", "optimized", [0x40c2980000000000, 0x4089500000000000]),
        ("Q2", "classic", "bound", [0x415d1f4466666666, 0x4020000000000000]),
        ("Q2", "classic", "optimized", [0x40dc75e666666666, 0x4020000000000000]),
        ("Q2", "gapply", "bound", [0x40cafc0000000000, 0x4034000000000000]),
        ("Q2", "gapply", "optimized", [0x40cb7a0000000000, 0x4034000000000000]),
        ("Q3", "classic", "bound", [0x415d23cbdc2a844f, 0x4080800000000000]),
        ("Q3", "classic", "optimized", [0x40e03cae1542276f, 0x4080800000000000]),
        ("Q3", "gapply", "bound", [0x40cbf00000000000, 0x4080800000000000]),
        ("Q3", "gapply", "optimized", [0x40cc6e0000000000, 0x4080800000000000]),
        ("Q4", "classic", "bound", [0x40ff879b855089dc, 0x4070800000000000]),
        ("Q4", "classic", "optimized", [0x40cd1a5c2a844ede, 0x4070800000000000]),
        ("Q4", "gapply", "bound", [0x40c73f0000000000, 0x4070800000000000]),
        ("Q4", "gapply", "optimized", [0x40c7560000000000, 0x4070800000000000]),
    ];
    let database = db(0.001);
    let model = xmlpub::optimizer::CostModel::new(database.statistics());
    let mut seen = Vec::new();
    for w in workloads::figure8_workloads().into_iter().filter(|w| w.name != "Q4r") {
        for (shape, sql) in [("classic", &w.classic_sql), ("gapply", &w.gapply_sql)] {
            let bound = database.plan(sql).unwrap();
            let (optimized, _) = database.optimize_plan(bound.clone()).unwrap();
            for (which, plan) in [("bound", &bound), ("optimized", &optimized)] {
                let pin = [model.cost(plan).to_bits(), model.estimate(plan).rows.to_bits()];
                seen.push((w.name, shape, which, pin));
            }
        }
    }
    assert_eq!(seen, PINS);
}
