//! Cardinality and cost estimation.
//!
//! §4.4 sketches how a Volcano-style optimizer costs `GApply`: assume the
//! groups are uniform; then
//!
//! > the cost of GApply is the cost of evaluating the per-group query on
//! > one group multiplied by the number of groups. The number of groups
//! > is the number of distinct values in the grouping columns \[and\] the
//! > average size of a group is the result size of the outer query
//! > divided by the number of groups.
//!
//! [`CostModel::estimate`] propagates `(row count, per-column stats)`
//! bottom-up; per-group queries are estimated against a synthetic
//! "average group" whose statistics are the outer statistics shrunk to
//! one group. [`CostModel::cost`] turns the same traversal into an
//! abstract work measure (rows touched, with hash/sort factors) that the
//! cost-gated rules (group selection, aggregate selection) compare
//! alternatives with.

use crate::stats::{ColumnStats, Statistics};
use xmlpub_algebra::{ApplyMode, LogicalPlan};
use xmlpub_expr::{conjuncts, split_equi_join, BinOp, Expr};

/// Default row count for tables without statistics.
const DEFAULT_ROWS: f64 = 1000.0;
/// Default predicate selectivity when nothing better is known.
const DEFAULT_SELECTIVITY: f64 = 0.33;
/// Default equality selectivity.
const DEFAULT_EQ_SELECTIVITY: f64 = 0.1;

/// Estimated properties of a plan's output.
#[derive(Debug, Clone)]
pub struct PlanEstimate {
    /// Estimated row count.
    pub rows: f64,
    /// Estimated per-column statistics.
    pub cols: Vec<ColumnStats>,
}

impl PlanEstimate {
    fn scaled(&self, factor: f64) -> PlanEstimate {
        let rows = (self.rows * factor).max(0.0);
        PlanEstimate {
            rows,
            cols: self
                .cols
                .iter()
                .map(|c| ColumnStats {
                    distinct: (c.distinct as f64 * factor.clamp(0.0, 1.0)).ceil() as u64,
                    ..c.clone()
                })
                .collect(),
        }
    }
}

/// The cost model. Cheap to construct; borrows the statistics.
///
/// Costs are serial: plan choice — and with it the server's plan cache
/// key — never depends on the engine's degree of parallelism.
#[derive(Debug, Clone, Copy)]
pub struct CostModel<'a> {
    stats: &'a Statistics,
}

impl<'a> CostModel<'a> {
    /// A model over gathered statistics.
    pub fn new(stats: &'a Statistics) -> Self {
        CostModel { stats }
    }

    /// Estimate output cardinality and column stats.
    pub fn estimate(&self, plan: &LogicalPlan) -> PlanEstimate {
        self.est(plan, None)
    }

    /// Estimate the abstract execution cost (unit: rows touched).
    pub fn cost(&self, plan: &LogicalPlan) -> f64 {
        self.cost_inner(plan, None).0
    }

    fn est(&self, plan: &LogicalPlan, group: Option<&PlanEstimate>) -> PlanEstimate {
        match plan {
            LogicalPlan::Scan { table, schema } => match self.stats.table(table) {
                Some(t) => PlanEstimate { rows: t.rows as f64, cols: t.columns.clone() },
                None => PlanEstimate {
                    rows: DEFAULT_ROWS,
                    cols: vec![ColumnStats::unknown(); schema.len()],
                },
            },
            LogicalPlan::GroupScan { schema } => match group {
                Some(g) => g.clone(),
                None => PlanEstimate {
                    rows: DEFAULT_ROWS,
                    cols: vec![ColumnStats::unknown(); schema.len()],
                },
            },
            LogicalPlan::Select { input, predicate } => {
                let child = self.est(input, group);
                let sel = self.selectivity(predicate, &child);
                child.scaled(sel)
            }
            LogicalPlan::Project { input, items } => {
                let child = self.est(input, group);
                let cols = items
                    .iter()
                    .map(|it| match &it.expr {
                        Expr::Column(i) => {
                            child.cols.get(*i).cloned().unwrap_or_else(ColumnStats::unknown)
                        }
                        _ => ColumnStats::unknown(),
                    })
                    .collect();
                PlanEstimate { rows: child.rows, cols }
            }
            LogicalPlan::Join { left, right, predicate, fk_left_to_right } => self.join_estimate(
                &self.est(left, group),
                &self.est(right, group),
                predicate,
                *fk_left_to_right,
            ),
            LogicalPlan::LeftOuterJoin { left, right, predicate } => {
                let l = self.est(left, group);
                let r = self.est(right, group);
                let mut cols = l.cols.clone();
                cols.extend(r.cols.clone());
                let combined = PlanEstimate { rows: l.rows * r.rows, cols: cols.clone() };
                let sel = self.selectivity(predicate, &combined);
                // Every left row survives at least once.
                let rows = (l.rows * r.rows * sel).max(l.rows);
                PlanEstimate { rows, cols }
            }
            LogicalPlan::GApply { input, group_cols, pgq } => {
                let outer = self.est(input, group);
                let groups = self.group_count(&outer, group_cols);
                let avg_group =
                    outer.scaled(if outer.rows > 0.0 { 1.0 / groups.max(1.0) } else { 0.0 });
                let per_group = self.est(pgq, Some(&avg_group));
                let mut cols: Vec<ColumnStats> = group_cols
                    .iter()
                    .map(|&c| outer.cols.get(c).cloned().unwrap_or_else(ColumnStats::unknown))
                    .collect();
                cols.extend(per_group.cols);
                PlanEstimate { rows: groups * per_group.rows, cols }
            }
            LogicalPlan::GroupBy { input, keys, aggs } => {
                let child = self.est(input, group);
                let groups = self.group_count(&child, keys);
                let mut cols: Vec<ColumnStats> = keys
                    .iter()
                    .map(|&k| child.cols.get(k).cloned().unwrap_or_else(ColumnStats::unknown))
                    .collect();
                cols.extend(std::iter::repeat_n(ColumnStats::unknown(), aggs.len()));
                PlanEstimate { rows: groups, cols }
            }
            LogicalPlan::ScalarAgg { aggs, .. } => {
                PlanEstimate { rows: 1.0, cols: vec![ColumnStats::unknown(); aggs.len()] }
            }
            LogicalPlan::UnionAll { inputs } => {
                let ests: Vec<PlanEstimate> = inputs.iter().map(|i| self.est(i, group)).collect();
                let rows = ests.iter().map(|e| e.rows).sum();
                let cols = ests.first().map(|e| e.cols.clone()).unwrap_or_default();
                PlanEstimate { rows, cols }
            }
            LogicalPlan::Distinct { input } => {
                let child = self.est(input, group);
                let all: Vec<usize> = (0..child.cols.len()).collect();
                let distinct = self.group_count(&child, &all);
                PlanEstimate { rows: distinct, cols: child.cols }
            }
            LogicalPlan::OrderBy { input, .. } => self.est(input, group),
            LogicalPlan::Apply { outer, inner, mode } => {
                let o = self.est(outer, group);
                let i = self.est(inner, group);
                let inner_rows = match mode {
                    ApplyMode::Cross => i.rows,
                    // Outer/scalar modes pad empties back in.
                    ApplyMode::LeftOuter | ApplyMode::Scalar => i.rows.max(1.0),
                };
                let mut cols = o.cols.clone();
                cols.extend(i.cols);
                PlanEstimate { rows: o.rows * inner_rows, cols }
            }
            LogicalPlan::Exists { input, negated } => {
                let child = self.est(input, group);
                // P(child non-empty) ≈ min(1, E[child rows]).
                let p = child.rows.min(1.0);
                let rows = if *negated { 1.0 - p } else { p };
                PlanEstimate { rows, cols: vec![] }
            }
        }
    }

    /// Estimate an inner join of two estimated inputs. A foreign-key
    /// join matches every left row at most once, so it is capped at the
    /// left cardinality; the predicate still filters below that (a
    /// filtered referenced side, residual conjuncts), so a pure FK join
    /// keeps `l.rows` and an FK join with residuals estimates fewer.
    pub fn join_estimate(
        &self,
        l: &PlanEstimate,
        r: &PlanEstimate,
        predicate: &Expr,
        fk_left_to_right: bool,
    ) -> PlanEstimate {
        let mut cols = l.cols.clone();
        cols.extend(r.cols.iter().cloned());
        let combined = PlanEstimate { rows: l.rows * r.rows, cols };
        let rows = (combined.rows * self.selectivity(predicate, &combined)).max(0.0);
        let rows = if fk_left_to_right { rows.min(l.rows) } else { rows };
        PlanEstimate { rows, cols: combined.cols }
    }

    /// Number of groups when grouping `est` by `cols`: the product of the
    /// per-column distinct counts, capped by the row count (§4.4: "the
    /// number of distinct values in the grouping columns").
    fn group_count(&self, est: &PlanEstimate, cols: &[usize]) -> f64 {
        if est.rows <= 0.0 {
            return 0.0;
        }
        let mut product = 1.0f64;
        for &c in cols {
            let d = est.cols.get(c).map(|s| s.distinct).unwrap_or(0);
            let d = if d == 0 { (est.rows * DEFAULT_EQ_SELECTIVITY).max(1.0) } else { d as f64 };
            product = (product * d).min(1e15);
        }
        product.min(est.rows).max(1.0)
    }

    /// Predicate selectivity against column stats.
    pub fn selectivity(&self, predicate: &Expr, input: &PlanEstimate) -> f64 {
        conjuncts(predicate)
            .iter()
            .map(|c| self.conjunct_selectivity(c, input))
            .product::<f64>()
            .clamp(0.0, 1.0)
    }

    fn conjunct_selectivity(&self, pred: &Expr, input: &PlanEstimate) -> f64 {
        match pred {
            Expr::Literal(v) => match v.as_bool() {
                Some(true) => 1.0,
                Some(false) => 0.0,
                None => DEFAULT_SELECTIVITY,
            },
            Expr::Binary { op: BinOp::Or, left, right } => {
                let a = self.conjunct_selectivity(left, input);
                let b = self.conjunct_selectivity(right, input);
                (a + b - a * b).clamp(0.0, 1.0)
            }
            Expr::Binary { op, left, right } if op.is_comparison() => {
                // Column-to-column equality (join predicates): the
                // classical 1/max(distinct) estimate.
                if let (BinOp::Eq, Expr::Column(a), Expr::Column(b)) = (*op, &**left, &**right) {
                    let da = input.cols.get(*a).map(|s| s.distinct).unwrap_or(0);
                    let db = input.cols.get(*b).map(|s| s.distinct).unwrap_or(0);
                    let d = da.max(db);
                    return if d > 0 { 1.0 / d as f64 } else { DEFAULT_EQ_SELECTIVITY };
                }
                // Normalise to column-vs-literal when possible.
                let (col, lit, op) = match (&**left, &**right) {
                    (Expr::Column(c), Expr::Literal(v)) => (Some(*c), Some(v.clone()), *op),
                    (Expr::Literal(v), Expr::Column(c)) => (Some(*c), Some(v.clone()), op.flip()),
                    _ => (None, None, *op),
                };
                match (col, lit) {
                    (Some(c), Some(v)) => {
                        let cs = input.cols.get(c);
                        match op {
                            BinOp::Eq => cs
                                .filter(|s| s.distinct > 0)
                                .map(|s| 1.0 / s.distinct as f64)
                                .unwrap_or(DEFAULT_EQ_SELECTIVITY),
                            BinOp::NotEq => {
                                1.0 - cs
                                    .filter(|s| s.distinct > 0)
                                    .map(|s| 1.0 / s.distinct as f64)
                                    .unwrap_or(DEFAULT_EQ_SELECTIVITY)
                            }
                            BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
                                self.range_selectivity(cs, &v, op)
                            }
                            _ => DEFAULT_SELECTIVITY,
                        }
                    }
                    _ => DEFAULT_SELECTIVITY,
                }
            }
            Expr::Unary { op: xmlpub_expr::UnaryOp::Not, expr } => {
                1.0 - self.conjunct_selectivity(expr, input)
            }
            _ => DEFAULT_SELECTIVITY,
        }
    }

    fn range_selectivity(
        &self,
        cs: Option<&ColumnStats>,
        lit: &xmlpub_common::Value,
        op: BinOp,
    ) -> f64 {
        let (Some(cs), Some(v)) = (cs, lit.as_f64()) else {
            return DEFAULT_SELECTIVITY;
        };
        let (Some(min), Some(max)) = (cs.min, cs.max) else {
            return DEFAULT_SELECTIVITY;
        };
        if max <= min {
            return DEFAULT_SELECTIVITY;
        }
        let frac_below = ((v - min) / (max - min)).clamp(0.0, 1.0);
        match op {
            BinOp::Lt | BinOp::LtEq => frac_below,
            BinOp::Gt | BinOp::GtEq => 1.0 - frac_below,
            _ => DEFAULT_SELECTIVITY,
        }
    }

    /// Cost and output estimate, threaded through the group context.
    fn cost_inner(&self, plan: &LogicalPlan, group: Option<&PlanEstimate>) -> (f64, PlanEstimate) {
        let out = self.est(plan, group);
        let cost = match plan {
            LogicalPlan::Scan { .. } | LogicalPlan::GroupScan { .. } => out.rows,
            LogicalPlan::Select { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::ScalarAgg { input, .. } => {
                let (c, e) = self.cost_inner(input, group);
                c + e.rows
            }
            LogicalPlan::Distinct { input } | LogicalPlan::GroupBy { input, .. } => {
                let (c, e) = self.cost_inner(input, group);
                // Hash-build factor.
                c + 1.2 * e.rows
            }
            LogicalPlan::OrderBy { input, .. } => {
                let (c, e) = self.cost_inner(input, group);
                c + sort_cost(e.rows)
            }
            LogicalPlan::Join { left, right, predicate, .. }
            | LogicalPlan::LeftOuterJoin { left, right, predicate } => {
                let (cl, el) = self.cost_inner(left, group);
                let (cr, er) = self.cost_inner(right, group);
                cl + cr + join_work(el.rows, er.rows, out.rows, predicate, left.schema().len())
            }
            LogicalPlan::UnionAll { inputs } => {
                inputs.iter().map(|i| self.cost_inner(i, group).0).sum()
            }
            LogicalPlan::Apply { outer, inner, .. } => {
                let (co, eo) = self.cost_inner(outer, group);
                let (ci, _) = self.cost_inner(inner, group);
                if !inner.outer_columns(0).is_empty() {
                    co + eo.rows * ci
                } else {
                    // Uncorrelated inner is cached across outer rows.
                    co + ci + eo.rows
                }
            }
            LogicalPlan::Exists { input, .. } => {
                // Short-circuits after the first row on average.
                let (c, _) = self.cost_inner(input, group);
                0.5 * c
            }
            LogicalPlan::GApply { input, group_cols, pgq } => {
                let (ci, eo) = self.cost_inner(input, group);
                let groups = self.group_count(&eo, group_cols);
                let avg_group = eo.scaled(if eo.rows > 0.0 { 1.0 / groups.max(1.0) } else { 0.0 });
                let (per_group_cost, _) = self.cost_inner(pgq, Some(&avg_group));
                // §4.4: per-group cost × number of groups, plus the
                // partition phase (hash pass over the outer result).
                ci + 1.2 * eo.rows + groups * (per_group_cost + PGQ_OVERHEAD)
            }
        };
        (cost, out)
    }
}

/// Fixed per-group overhead of launching the per-group query.
const PGQ_OVERHEAD: f64 = 4.0;

fn sort_cost(rows: f64) -> f64 {
    if rows <= 1.0 {
        rows
    } else {
        rows * rows.log2()
    }
}

/// The work of one join over inputs of `left` and `right` rows
/// producing `out` rows, on top of the cost of its inputs.
pub(crate) fn join_work(left: f64, right: f64, out: f64, predicate: &Expr, left_len: usize) -> f64 {
    if !split_equi_join(predicate, left_len).0.is_empty() {
        // Probe + build (hashing) + output-row formation, each weighted
        // above a plain scan pass: join rows hash, compare and
        // concatenate.
        left + 2.0 * out + 1.5 * right
    } else {
        left * right
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlpub_algebra::Catalog;
    use xmlpub_algebra::TableDef;
    use xmlpub_common::{row, DataType, Field, Relation, Schema};
    use xmlpub_expr::AggExpr;

    fn catalog() -> Catalog {
        let schema =
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Float)]);
        let def = TableDef::new("t", schema);
        let mut rows = Vec::new();
        for k in 0..10 {
            for j in 0..10 {
                rows.push(row![k, (j as f64) * 10.0]);
            }
        }
        let data = Relation::new(def.schema.clone(), rows).unwrap();
        let mut cat = Catalog::new();
        cat.register(def, data).unwrap();
        cat
    }

    fn scan(cat: &Catalog) -> LogicalPlan {
        LogicalPlan::scan("t", cat.table("t").unwrap().schema.clone())
    }

    #[test]
    fn scan_estimate_uses_stats() {
        let cat = catalog();
        let stats = Statistics::from_catalog(&cat);
        let cm = CostModel::new(&stats);
        let est = cm.estimate(&scan(&cat));
        assert_eq!(est.rows, 100.0);
        assert_eq!(est.cols[0].distinct, 10);
    }

    #[test]
    fn selection_scales_rows() {
        let cat = catalog();
        let stats = Statistics::from_catalog(&cat);
        let cm = CostModel::new(&stats);
        // v ranges 0..90; v > 45 → ~half.
        let est = cm.estimate(&scan(&cat).select(Expr::col(1).gt(Expr::lit(45.0))));
        assert!((est.rows - 50.0).abs() < 5.0, "rows = {}", est.rows);
        // k = 3 → 1/10.
        let est = cm.estimate(&scan(&cat).select(Expr::col(0).eq(Expr::lit(3))));
        assert!((est.rows - 10.0).abs() < 1.0, "rows = {}", est.rows);
    }

    #[test]
    fn gapply_groups_by_distinct_count() {
        let cat = catalog();
        let stats = Statistics::from_catalog(&cat);
        let cm = CostModel::new(&stats);
        let outer = scan(&cat);
        let pgq = LogicalPlan::group_scan(outer.schema())
            .scalar_agg(vec![AggExpr::avg(Expr::col(1), "a")]);
        let plan = outer.gapply(vec![0], pgq);
        let est = cm.estimate(&plan);
        // 10 groups, one row per group.
        assert!((est.rows - 10.0).abs() < 0.5, "rows = {}", est.rows);
    }

    #[test]
    fn fk_join_estimates_left_rows() {
        let cat = catalog();
        let stats = Statistics::from_catalog(&cat);
        let cm = CostModel::new(&stats);
        let j = scan(&cat).fk_join(scan(&cat), Expr::col(0).eq(Expr::col(2)));
        assert_eq!(cm.estimate(&j).rows, 100.0);
    }

    #[test]
    fn fk_join_with_residuals_estimates_below_left_rows() {
        // Paper-literal Q4's top join: the FK equality ps_partkey =
        // p_partkey plus p_size = tmp.s and p_retailprice > tmp.avgprice.
        // It returns 3 204 rows at scale 0.01; capping at the left side's
        // 400 000 would ignore the residuals.
        let cat = xmlpub_tpch::TpchGenerator::with_scale(0.01).core_catalog().unwrap();
        let stats = Statistics::from_catalog(&cat);
        let cm = CostModel::new(&stats);
        let q4 = xmlpub_sql::compile(
            "select tmp.k, p_name, p_size, p_retailprice \
             from (select ps_suppkey, p_size, avg(p_retailprice) \
                   from partsupp, part where p_partkey = ps_partkey \
                   group by ps_suppkey, p_size) as tmp(k, s, avgprice), partsupp, part \
             where ps_partkey = p_partkey and ps_suppkey = tmp.k \
               and p_size = tmp.s and p_retailprice > tmp.avgprice",
            &cat,
        )
        .unwrap();
        let LogicalPlan::Project { input: top, .. } = &q4 else { panic!("{q4:?}") };
        let LogicalPlan::Join { left, fk_left_to_right: true, .. } = &**top else {
            panic!("{top:?}")
        };
        let left_rows = cm.estimate(left).rows;
        assert!(left_rows > 100_000.0, "left = {left_rows}");
        let rows = cm.estimate(top).rows;
        assert!((1_000.0..10_000.0).contains(&rows), "rows = {rows}");

        // The pure FK join inside the derived table keeps its left rows.
        let pure = LogicalPlan::scan("partsupp", cat.table("partsupp").unwrap().schema.clone())
            .fk_join(
                LogicalPlan::scan("part", cat.table("part").unwrap().schema.clone()),
                Expr::col(1).eq(Expr::col(4)),
            );
        assert_eq!(cm.estimate(&pure).rows, 8_000.0);
    }

    #[test]
    fn correlated_apply_costs_per_row() {
        let cat = catalog();
        let stats = Statistics::from_catalog(&cat);
        let cm = CostModel::new(&stats);
        let correlated_inner = scan(&cat)
            .select(Expr::col(0).eq(Expr::Correlated { level: 0, index: 0 }))
            .scalar_agg(vec![AggExpr::count_star("c")]);
        let uncorrelated_inner = scan(&cat).scalar_agg(vec![AggExpr::count_star("c")]);
        let corr = cm.cost(&scan(&cat).apply(correlated_inner, xmlpub_algebra::ApplyMode::Cross));
        let uncorr =
            cm.cost(&scan(&cat).apply(uncorrelated_inner, xmlpub_algebra::ApplyMode::Cross));
        assert!(corr > 5.0 * uncorr, "correlated {corr} should dwarf uncorrelated {uncorr}");
    }

    #[test]
    fn cost_monotone_in_plan_size() {
        let cat = catalog();
        let stats = Statistics::from_catalog(&cat);
        let cm = CostModel::new(&stats);
        let base = cm.cost(&scan(&cat));
        let with_sort = cm.cost(&scan(&cat).order_by(vec![xmlpub_algebra::SortKey::asc(0)]));
        assert!(with_sort > base);
    }

    #[test]
    fn exists_probability_estimate() {
        let cat = catalog();
        let stats = Statistics::from_catalog(&cat);
        let cm = CostModel::new(&stats);
        let e = cm.estimate(&scan(&cat).exists());
        assert!(e.rows <= 1.0);
        let ne = cm.estimate(&scan(&cat).not_exists());
        assert!(ne.rows <= 1.0);
    }
}
