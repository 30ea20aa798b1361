//! Table 1: effect of the transformation rules.
//!
//! For each rule we take a relevant parameterised query, sweep its
//! parameter, and at every point measure the benefit of firing the rule:
//! *elapsed(rule off) / elapsed(rule on)*, with the rule forced (no cost
//! gate) exactly as the paper's methodology prescribes — that is what
//! makes "average" differ from "average over wins" for the rules that
//! can lose.

use crate::harness::{ms, time_min, SweepStats};
use xmlpub::xml::workloads;
use xmlpub::{Database, OptimizerConfig, Result};

/// The fewest timings per plan behind one ratio: at one rep a ratio is
/// two single sub-millisecond timings, and one scheduler stall moves it
/// by an order of magnitude.
const MIN_REPS: usize = 3;

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Rule class (the paper's grouping).
    pub rule_class: &'static str,
    /// Rule name (paper terminology).
    pub rule: &'static str,
    /// Internal rule id (OptimizerConfig::only key).
    pub rule_id: &'static str,
    /// Sweep statistics.
    pub stats: SweepStats,
}

/// Measure one (query, rule) point: benefit of firing the rule. Each
/// plan is timed at least [`MIN_REPS`] times.
fn benefit(db_scale: f64, rule: &str, sql: &str, reps: usize) -> Result<f64> {
    let reps = reps.max(MIN_REPS);
    let mut db = Database::tpch(db_scale)?;

    // Without the rule.
    db.config_mut().optimizer = OptimizerConfig::none();
    let (plan_off, _) = db.optimized_plan(sql)?;
    // With the rule forced.
    db.config_mut().optimizer = OptimizerConfig::only(rule);
    db.config_mut().optimizer.cost_gate = false;
    let (plan_on, _) = db.optimized_plan(sql)?;

    // Sanity: the rewrite must preserve the result.
    let off_result = db.execute_plan(&plan_off)?.0;
    let on_result = db.execute_plan(&plan_on)?.0;
    assert!(
        off_result.bag_eq(&on_result),
        "rule {rule} changed the result on {sql}\n{}",
        off_result.bag_diff(&on_result)
    );

    let t_off = time_min(
        || {
            db.execute_plan(&plan_off).expect("off");
        },
        reps,
    );
    let t_on = time_min(
        || {
            db.execute_plan(&plan_on).expect("on");
        },
        reps,
    );
    Ok(ms(t_off) / ms(t_on))
}

/// Run the full Table 1 experiment.
pub fn run_table1(scale: f64, reps: usize) -> Result<Vec<Table1Row>> {
    let price_thresholds = [1000.0, 1250.0, 1500.0, 1750.0, 1900.0, 2000.0, 2060.0, 2090.0];
    let avg_thresholds = [1400.0, 1450.0, 1480.0, 1500.0, 1520.0, 1550.0, 1600.0];
    let mut rows = Vec::new();

    // ---- Basic rules ---------------------------------------------------
    let ratios = price_thresholds
        .iter()
        .map(|&t| benefit(scale, "select-before-gapply", &workloads::selection_sweep_sql(t), reps))
        .collect::<Result<Vec<_>>>()?;
    rows.push(Table1Row {
        rule_class: "Basic Rules",
        rule: "Placing Selection Before GApply",
        rule_id: "select-before-gapply",
        stats: SweepStats::from_ratios(&ratios),
    });

    let ratios = [false, true]
        .iter()
        .map(|&wide| {
            benefit(scale, "project-before-gapply", &workloads::projection_sweep_sql(wide), reps)
        })
        .collect::<Result<Vec<_>>>()?;
    rows.push(Table1Row {
        rule_class: "Basic Rules",
        rule: "Placing Projection Before GApply",
        rule_id: "project-before-gapply",
        stats: SweepStats::from_ratios(&ratios),
    });

    let ratios =
        vec![benefit(scale, "gapply-to-groupby", &workloads::to_groupby_sweep_sql(), reps)?];
    rows.push(Table1Row {
        rule_class: "Basic Rules",
        rule: "Converting GApply To groupby",
        rule_id: "gapply-to-groupby",
        stats: SweepStats::from_ratios(&ratios),
    });

    // ---- Group selection -------------------------------------------------
    let ratios = price_thresholds
        .iter()
        .map(|&t| benefit(scale, "group-selection-exists", &workloads::exists_sweep_sql(t), reps))
        .collect::<Result<Vec<_>>>()?;
    rows.push(Table1Row {
        rule_class: "Group Selection",
        rule: "Exists",
        rule_id: "group-selection-exists",
        stats: SweepStats::from_ratios(&ratios),
    });

    let ratios = avg_thresholds
        .iter()
        .map(|&t| {
            benefit(
                scale,
                "group-selection-aggregate",
                &workloads::aggregate_selection_sweep_sql(t),
                reps,
            )
        })
        .collect::<Result<Vec<_>>>()?;
    rows.push(Table1Row {
        rule_class: "Group Selection",
        rule: "Aggregate Selection",
        rule_id: "group-selection-aggregate",
        stats: SweepStats::from_ratios(&ratios),
    });

    // ---- GApply and joins -------------------------------------------------
    let ratios = vec![benefit(
        scale,
        "invariant-grouping",
        &workloads::invariant_grouping_sweep_sql(),
        reps,
    )?];
    rows.push(Table1Row {
        rule_class: "GApply and Joins",
        rule: "Invariant Grouping",
        rule_id: "invariant-grouping",
        stats: SweepStats::from_ratios(&ratios),
    });

    Ok(rows)
}

/// Render as the paper's Table 1 layout.
pub fn render(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str("Table 1 — effect of transformation rules\n\n");
    out.push_str(&format!(
        "{:<18} {:<34} {:>9} {:>9} {:>11} {:>7}\n",
        "Rule Class", "Rule", "Max", "Avg", "AvgOverWins", "Points"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:<34} {:>9.2} {:>9.2} {:>11.2} {:>7}\n",
            r.rule_class, r.rule, r.stats.max, r.stats.avg, r.stats.avg_over_wins, r.stats.points
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_benefit_point_runs() {
        // One cheap point end to end, asserting result preservation.
        let b = benefit(0.001, "select-before-gapply", &workloads::selection_sweep_sql(2060.0), 1)
            .unwrap();
        assert!(b > 0.0);
    }

    #[test]
    fn render_layout() {
        let rows = vec![Table1Row {
            rule_class: "Basic Rules",
            rule: "Placing Selection Before GApply",
            rule_id: "select-before-gapply",
            stats: SweepStats { max: 10.0, avg: 5.0, avg_over_wins: 5.0, points: 3 },
        }];
        let text = render(&rows);
        assert!(text.contains("AvgOverWins"), "{text}");
        assert!(text.contains("10.00"), "{text}");
    }
}
