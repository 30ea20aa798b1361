//! Figure 8: speedup using GApply, queries Q1–Q4.
//!
//! For each workload we compile and run the classic sorted-outer-union
//! formulation (§2) and the gapply formulation (§3.1) through the full
//! stack, and report the ratio *time(without GApply) / time(with
//! GApply)* — the paper's Y axis ("a ratio of 2 indicates 50 % speedup").

use crate::harness::{ms, time_samples, Percentiles};
use std::collections::BTreeMap;
use xmlpub::xml::workloads::figure8_workloads;
use xmlpub::{
    run, Database, LogicalPlan, ObsContext, OpProfile, PartitionStrategy, Result, RowSink,
};
use xmlpub_obs::json::escape_into;

/// One bar of Figure 8.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Query name (Q1..Q4).
    pub query: &'static str,
    /// What the query does.
    pub description: &'static str,
    /// Classic formulation elapsed ms (best of `reps`).
    pub classic_ms: f64,
    /// GApply formulation elapsed ms (best of `reps`).
    pub gapply_ms: f64,
    /// `classic_ms / gapply_ms` — the figure's ratio.
    pub speedup: f64,
    /// Median / p95 over all classic reps.
    pub classic_pcts: Percentiles,
    /// Median / p95 over all gapply reps.
    pub gapply_pcts: Percentiles,
    /// Result cardinalities (sanity: both sides did the work).
    pub classic_rows: usize,
    /// GApply-side output rows.
    pub gapply_rows: usize,
    /// Per-operator profiles of one profiled classic run, taken after
    /// the timed reps (which stay unprofiled).
    pub classic_ops: Vec<OpProfile>,
    /// Per-operator profiles of one profiled gapply run.
    pub gapply_ops: Vec<OpProfile>,
}

/// Run the Figure 8 experiment.
pub fn run_fig8(scale: f64, strategy: PartitionStrategy, reps: usize) -> Result<Vec<Fig8Row>> {
    let mut db = Database::tpch(scale)?;
    db.config_mut().engine.partition_strategy = strategy;
    let mut rows = Vec::new();
    for w in figure8_workloads() {
        // Pre-compile to exclude parse/bind time from the measurement
        // (the paper measures engine time).
        let (classic_plan, _) = db.optimized_plan(&w.classic_sql)?;
        let (gapply_plan, _) = db.optimized_plan(&w.gapply_sql)?;
        let mut classic_rows = 0;
        let classic = time_samples(
            || {
                classic_rows = db.execute_plan(&classic_plan).expect("classic run").0.len();
            },
            reps,
        );
        let mut gapply_rows = 0;
        let gapply = time_samples(
            || {
                gapply_rows = db.execute_plan(&gapply_plan).expect("gapply run").0.len();
            },
            reps,
        );
        let classic_ops = profiled_run(&db, &classic_plan)?;
        let gapply_ops = profiled_run(&db, &gapply_plan)?;
        let classic_best = ms(*classic.iter().min().expect("at least one rep"));
        let gapply_best = ms(*gapply.iter().min().expect("at least one rep"));
        rows.push(Fig8Row {
            query: w.name,
            description: w.description,
            classic_ms: classic_best,
            gapply_ms: gapply_best,
            speedup: classic_best / gapply_best,
            classic_pcts: Percentiles::from_samples(&classic),
            gapply_pcts: Percentiles::from_samples(&gapply),
            classic_rows,
            gapply_rows,
            classic_ops,
            gapply_ops,
        });
    }
    Ok(rows)
}

/// Run `plan` once with per-operator profiling on, returning the same
/// profiles `\explain --analyze` renders.
fn profiled_run(db: &Database, plan: &LogicalPlan) -> Result<Vec<OpProfile>> {
    let engine = db.config().engine;
    let obs = ObsContext::disabled();
    Ok(run(db.catalog(), &engine, &obs, plan, RowSink::default(), true)?.profiles)
}

/// The operator kind of a profile label: the label up to its first
/// argument (`TableScan(part)` → `TableScan`, `Apply[Scalar]` → `Apply`,
/// `HashJoin out=4/11` → `HashJoin`).
fn op_kind(label: &str) -> &str {
    label.split(['(', '[', ' ']).next().unwrap_or(label)
}

/// Render the operator self-time table: for each operator kind, the
/// summed exclusive time over the profiled run of every classic and
/// every gapply plan, largest first, with its share of the total.
pub fn render_operator_costs(rows: &[Fig8Row]) -> String {
    let mut by_kind: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for r in rows {
        for p in r.classic_ops.iter().filter(|p| !p.label.is_empty()) {
            by_kind.entry(op_kind(&p.label)).or_default().0 += p.self_ns();
        }
        for p in r.gapply_ops.iter().filter(|p| !p.label.is_empty()) {
            by_kind.entry(op_kind(&p.label)).or_default().1 += p.self_ns();
        }
    }
    let mut kinds: Vec<_> = by_kind.into_iter().collect();
    kinds.sort_by_key(|&(kind, (c, g))| (std::cmp::Reverse(c + g), kind));
    let all = kinds.iter().fold((0, 0), |(a, b), (_, (c, g))| (a + c, b + g));
    let total = (all.0 + all.1).max(1) as f64;
    let mut out = String::new();
    out.push_str("Operator self time, one profiled run of each plan (us)\n\n");
    out.push_str(&format!(
        "{:<16} {:>10} {:>10} {:>10} {:>7}\n",
        "operator", "classic", "gapply", "total", "share"
    ));
    for (kind, (c, g)) in kinds.into_iter().chain([("all", all)]) {
        out.push_str(&format!(
            "{:<16} {:>10} {:>10} {:>10} {:>6.1}%\n",
            kind,
            c / 1_000,
            g / 1_000,
            (c + g) / 1_000,
            100.0 * (c + g) as f64 / total
        ));
    }
    out
}

/// Render the figure as a machine-readable JSON document
/// (`BENCH_fig8.json`): one entry per query with median and p95
/// latency for both formulations, plus the run parameters.
pub fn render_json(rows: &[Fig8Row], scale: f64, reps: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"experiment\": \"fig8\",\n");
    out.push_str(&format!("  \"scale\": {scale},\n  \"reps\": {reps},\n"));
    out.push_str("  \"queries\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str("    {\"name\": ");
        escape_into(&mut out, r.query);
        out.push_str(&format!(
            ", \"classic\": {{\"median_ms\": {:.3}, \"p95_ms\": {:.3}}}, \
             \"gapply\": {{\"median_ms\": {:.3}, \"p95_ms\": {:.3}}}, \
             \"speedup\": {:.3}}}{}\n",
            r.classic_pcts.median_ms,
            r.classic_pcts.p95_ms,
            r.gapply_pcts.median_ms,
            r.gapply_pcts.p95_ms,
            r.speedup,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Render the figure as a text table plus an ASCII bar chart.
pub fn render(rows: &[Fig8Row]) -> String {
    let mut out = String::new();
    out.push_str("Figure 8 — speedup using GApply (ratio = time without / time with)\n\n");
    out.push_str(&format!(
        "{:<4} {:>12} {:>12} {:>8}  {:>10} {:>10}\n",
        "Q", "classic ms", "gapply ms", "ratio", "rows(c)", "rows(g)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<4} {:>12.2} {:>12.2} {:>8.2}  {:>10} {:>10}\n",
            r.query, r.classic_ms, r.gapply_ms, r.speedup, r.classic_rows, r.gapply_rows
        ));
    }
    out.push('\n');
    for r in rows {
        let bar = "#".repeat((r.speedup * 10.0).round().max(1.0) as usize);
        out.push_str(&format!("{:<4} |{bar} {:.2}x\n", r.query, r.speedup));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_runs_at_tiny_scale() {
        let rows = run_fig8(0.001, PartitionStrategy::Hash, 1).unwrap();
        assert_eq!(rows.len(), 5); // Q1-Q4 plus the Q4r join-order variant
        for r in &rows {
            assert!(r.gapply_rows > 0, "{} produced nothing", r.query);
            assert!(r.classic_ms > 0.0 && r.gapply_ms > 0.0);
        }
        let text = render(&rows);
        assert!(text.contains("Q1"), "{text}");
        assert!(text.contains("ratio"), "{text}");
        let costs = render_operator_costs(&rows);
        for kind in ["HashJoin", "Project", "GApply", "TableScan", "all"] {
            assert!(costs.lines().any(|l| l.starts_with(kind)), "{kind} missing:\n{costs}");
        }
    }

    #[test]
    fn operator_kinds_drop_their_arguments() {
        assert_eq!(op_kind("TableScan(partsupp)"), "TableScan");
        assert_eq!(op_kind("Apply[Scalar]"), "Apply");
        assert_eq!(op_kind("HashJoin[left-outer]"), "HashJoin");
        assert_eq!(op_kind("HashJoin out=4/11"), "HashJoin");
        assert_eq!(op_kind("HashJoin[left-outer] out=3/4"), "HashJoin");
        assert_eq!(op_kind("Project"), "Project");
    }

    #[test]
    fn json_output_is_parseable_and_complete() {
        let rows = run_fig8(0.001, PartitionStrategy::Hash, 2).unwrap();
        let text = render_json(&rows, 0.001, 2);
        let doc = xmlpub_obs::json::parse(&text).expect("valid JSON");
        assert_eq!(doc.get("experiment").and_then(|v| v.as_str()), Some("fig8"));
        let queries = match doc.get("queries") {
            Some(xmlpub_obs::json::JsonValue::Arr(items)) => items,
            other => panic!("queries should be an array, got {other:?}"),
        };
        assert_eq!(queries.len(), rows.len());
        for (q, r) in queries.iter().zip(&rows) {
            assert_eq!(q.get("name").and_then(|v| v.as_str()), Some(r.query));
            for side in ["classic", "gapply"] {
                let entry = q.get(side).unwrap_or_else(|| panic!("missing {side}"));
                for stat in ["median_ms", "p95_ms"] {
                    let v = entry.get(stat).unwrap_or_else(|| panic!("missing {side}.{stat}"));
                    assert!(
                        matches!(v, xmlpub_obs::json::JsonValue::Num(n) if *n > 0.0),
                        "{side}.{stat} should be a positive number, got {v:?}"
                    );
                }
            }
            // p95 can never undercut the median (nearest-rank, same series).
            assert!(r.classic_pcts.p95_ms >= r.classic_pcts.median_ms);
            assert!(r.gapply_pcts.p95_ms >= r.gapply_pcts.median_ms);
        }
    }
}
