//! A tour of the §4 transformation rules: for each rule, a query where
//! it fires, the before/after plans, and the measured effect of firing
//! it (engine counters with the rule off vs on).
//!
//! Run with: `cargo run --release --example optimizer_tour`

use xmlpub::xml::workloads;
use xmlpub::{Database, OptimizerConfig};

fn show_rule(name: &str, rule: &str, sql: &str, scale: f64) -> xmlpub::Result<()> {
    let mut db = Database::tpch(scale)?;
    println!("\n======== {name} ========");

    // Without any rules.
    db.config_mut().optimizer = OptimizerConfig::none();
    let (r_off, s_off) = db.sql_with_stats(sql)?;

    // With only this rule (plus selection pushdown where the rule
    // depends on it).
    db.config_mut().optimizer = OptimizerConfig::only(rule);
    db.config_mut().optimizer.cost_gate = false;
    let (plan, log) = db.optimized_plan(sql)?;
    let (r_on, s_on) = db.sql_with_stats(sql)?;

    assert!(r_off.bag_eq(&r_on), "rule changed the result!\n{}", r_off.bag_diff(&r_on));
    println!("rule fired {} time(s)", log.iter().filter(|f| f.rule == rule).count());
    println!("optimized plan:\n{}", plan.explain());
    println!(
        "work without rule: {} group rows scanned, {} rows hashed, {} rows scanned",
        s_off.group_rows_scanned, s_off.rows_hashed, s_off.rows_scanned
    );
    println!(
        "work with rule:    {} group rows scanned, {} rows hashed, {} rows scanned",
        s_on.group_rows_scanned, s_on.rows_hashed, s_on.rows_scanned
    );
    Ok(())
}

fn main() -> xmlpub::Result<()> {
    show_rule(
        "Placing Selections Before GApply (§4.1, Theorem 1)",
        "select-before-gapply",
        &workloads::selection_sweep_sql(2050.0),
        0.003,
    )?;

    show_rule(
        "Placing Projections Before GApply (§4.1)",
        "project-before-gapply",
        &workloads::projection_sweep_sql(false),
        0.003,
    )?;

    show_rule(
        "Converting GApply to groupby (§4.1, Figure 4)",
        "gapply-to-groupby",
        &workloads::to_groupby_sweep_sql(),
        0.003,
    )?;

    show_rule(
        "Group Selection via exists (§4.2, Figures 5 & 6)",
        "group-selection-exists",
        &workloads::exists_sweep_sql(2080.0),
        0.003,
    )?;

    show_rule(
        "Aggregate Selection (§4.2)",
        "group-selection-aggregate",
        &workloads::aggregate_selection_sweep_sql(1520.0),
        0.003,
    )?;

    show_rule(
        "Invariant Grouping (§4.3, Theorem 2, Figure 7)",
        "invariant-grouping",
        &workloads::invariant_grouping_sweep_sql(),
        0.003,
    )?;

    println!("\nAll rules preserved results while cutting the measured work.");
    Ok(())
}
