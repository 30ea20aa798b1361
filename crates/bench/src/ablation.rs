//! Ablations: design-choice studies DESIGN.md calls out.
//!
//! 1. **Hash vs sort partitioning** — §5.2: "the impact of GApply is
//!    comparable whether we perform partitioning through sorting or
//!    through hashing"; we verify on Q1–Q4.
//! 2. **Cost-gated vs always-fired group selection** — §4.2 notes the
//!    rule wins only for selective predicates; the §4.4 cost model
//!    should keep the losses and keep the wins.
//! 3. **Group-size skew** — §4.4's costing assumes uniform groups; the
//!    skew knob of the generator stresses that assumption.
//! 4. **Apply memoization** — how much of the classic plans' viability
//!    comes from the correlated-subquery spool.
//! 5. **Join order** — how much of paper-literal Q4's classic cost is
//!    its FROM order, with the cost-model join reorder off and on.

use crate::harness::{ms, time_min};
use xmlpub::xml::workloads;
use xmlpub::{Database, OptimizerConfig, PartitionStrategy, Result};
use xmlpub_tpch::{TpchConfig, TpchGenerator};

/// Hash vs sort partitioning across the Figure 8 workloads.
pub fn partitioning(scale: f64, reps: usize) -> Result<String> {
    let mut out = String::from("Ablation — GApply partition strategy (gapply formulations)\n\n");
    out.push_str(&format!("{:<4} {:>10} {:>10} {:>9}\n", "Q", "hash ms", "sort ms", "sort/hash"));
    for w in workloads::figure8_workloads() {
        let mut db = Database::tpch(scale)?;
        db.config_mut().engine.partition_strategy = PartitionStrategy::Hash;
        let (plan, _) = db.optimized_plan(&w.gapply_sql)?;
        let hash = time_min(
            || {
                db.execute_plan(&plan).expect("hash");
            },
            reps,
        );
        db.config_mut().engine.partition_strategy = PartitionStrategy::Sort;
        let sort = time_min(
            || {
                db.execute_plan(&plan).expect("sort");
            },
            reps,
        );
        out.push_str(&format!(
            "{:<4} {:>10.2} {:>10.2} {:>9.2}\n",
            w.name,
            ms(hash),
            ms(sort),
            ms(sort) / ms(hash)
        ));
    }
    Ok(out)
}

/// Cost-gated vs always-fired group selection across the exists sweep.
pub fn cost_gate(scale: f64, reps: usize) -> Result<String> {
    let thresholds = [1000.0, 1500.0, 1800.0, 2000.0, 2060.0, 2090.0];
    let mut out =
        String::from("Ablation — group selection: never fire vs always fire vs cost-gated\n\n");
    out.push_str(&format!(
        "{:>9} {:>10} {:>10} {:>10} {:>7}\n",
        "threshold", "never ms", "always ms", "gated ms", "fired?"
    ));
    for &t in &thresholds {
        let sql = workloads::exists_sweep_sql(t);
        let mut db = Database::tpch(scale)?;
        db.config_mut().optimizer = OptimizerConfig::none();
        let (never_plan, _) = db.optimized_plan(&sql)?;
        let never = time_min(
            || {
                db.execute_plan(&never_plan).expect("never");
            },
            reps,
        );

        db.config_mut().optimizer = OptimizerConfig::only("group-selection-exists");
        db.config_mut().optimizer.cost_gate = false;
        let (always_plan, _) = db.optimized_plan(&sql)?;
        let always = time_min(
            || {
                db.execute_plan(&always_plan).expect("always");
            },
            reps,
        );

        db.config_mut().optimizer.cost_gate = true;
        let (gated_plan, log) = db.optimized_plan(&sql)?;
        let gated = time_min(
            || {
                db.execute_plan(&gated_plan).expect("gated");
            },
            reps,
        );
        let fired = log.iter().any(|f| f.rule == "group-selection-exists");

        out.push_str(&format!(
            "{:>9.0} {:>10.2} {:>10.2} {:>10.2} {:>7}\n",
            t,
            ms(never),
            ms(always),
            ms(gated),
            if fired { "yes" } else { "no" }
        ));
    }
    Ok(out)
}

/// Group-size skew sweep (stressing §4.4's uniformity assumption).
pub fn skew(scale: f64, reps: usize) -> Result<String> {
    let mut out = String::from("Ablation — partsupp fan-out skew (Q2 gapply)\n\n");
    out.push_str(&format!("{:>5} {:>12} {:>10}\n", "skew", "rows", "gapply ms"));
    for &skew in &[0.0, 0.5, 1.0, 2.0] {
        let gen = TpchGenerator::new(TpchConfig { scale, skew, ..Default::default() });
        let db = Database::from_catalog(gen.core_catalog()?);
        let (plan, _) = db.optimized_plan(&workloads::q2().gapply_sql)?;
        let mut result_rows = 0;
        let t = time_min(
            || {
                result_rows = db.execute_plan(&plan).expect("skew run").0.len();
            },
            reps,
        );
        out.push_str(&format!("{:>5.1} {:>12} {:>10.2}\n", skew, result_rows, ms(t)));
    }
    Ok(out)
}

/// Apply memoization on/off for the classic Q2 (correlated subqueries).
pub fn apply_memo(scale: f64, reps: usize) -> Result<String> {
    // Decorrelation is disabled so the correlated Apply survives into
    // the plan: the point is to measure the spool itself.
    let sql = workloads::q2().classic_sql;
    let mut db = Database::tpch(scale)?;
    db.config_mut().optimizer = OptimizerConfig::without("decorrelate-scalar-agg");
    let (plan, _) = db.optimized_plan(&sql)?;
    let memo_on = time_min(
        || {
            db.execute_plan(&plan).expect("memo on");
        },
        reps,
    );
    let (_, stats_on) = db.execute_plan(&plan)?;
    db.config_mut().engine.memoize_correlated_apply = false;
    let memo_off = time_min(
        || {
            db.execute_plan(&plan).expect("memo off");
        },
        reps,
    );
    let (_, stats_off) = db.execute_plan(&plan)?;
    Ok(format!(
        "Ablation — correlated-apply memoization (classic Q2)\n\n\
         memo on:  {:>10.2} ms  ({} inner executions, {} cache hits)\n\
         memo off: {:>10.2} ms  ({} inner executions)\n\
         the Figure 8 baseline decorrelates these subqueries entirely;\n\
         this ablation disables decorrelation to isolate the spool.\n",
        ms(memo_on),
        stats_on.apply_inner_executions,
        stats_on.apply_cache_hits,
        ms(memo_off),
        stats_off.apply_inner_executions,
    ))
}

/// Join reorder off/on for the classic Q4 (paper-literal FROM order).
pub fn join_order(scale: f64, reps: usize) -> Result<String> {
    let sql = workloads::q4().classic_sql;
    let mut db = Database::tpch(scale)?;
    let mut line = |reorder: bool| -> Result<String> {
        db.config_mut().optimizer = if reorder {
            OptimizerConfig::default()
        } else {
            OptimizerConfig::without("join-reorder")
        };
        let (plan, _) = db.optimized_plan(&sql)?;
        let t = time_min(
            || {
                db.execute_plan(&plan).expect("join order");
            },
            reps,
        );
        let (_, stats) = db.execute_plan(&plan)?;
        Ok(format!(
            "reorder {:<3}: {:>10.2} ms  ({} join probes)\n",
            if reorder { "on" } else { "off" },
            ms(t),
            stats.join_probes
        ))
    };
    let off = line(false)?;
    let on = line(true)?;
    Ok(format!(
        "Ablation — join order from the cost model (classic Q4, paper-literal FROM)\n\n\
         {off}{on}\
         off runs the derived table ⋈ partsupp first, as written; on is\n\
         the order Q4r spells out by hand.\n"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_run_at_tiny_scale() {
        let p = partitioning(0.0005, 1).unwrap();
        assert!(p.contains("Q1"), "{p}");
        let s = skew(0.0005, 1).unwrap();
        assert!(s.contains("0.0"), "{s}");
        let m = apply_memo(0.0005, 1).unwrap();
        assert!(m.contains("memo on"), "{m}");
        let j = join_order(0.0005, 1).unwrap();
        assert!(j.contains("reorder off") && j.contains("reorder on"), "{j}");
    }

    #[test]
    fn cost_gate_ablation_runs() {
        let g = cost_gate(0.0005, 1).unwrap();
        assert!(g.contains("fired?"), "{g}");
        // Whether the gate fires depends on the cost model's verdict at
        // this scale; the table itself must render either way.
        assert!(g.contains("yes") || g.contains("no"), "{g}");
    }
}
