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
//! One bottom-up walk, `CostModel::costed`, visits each node once and
//! returns its `Costed`: the abstract work measure (rows touched, with
//! hash/sort factors) that the cost-gated rules compare alternatives
//! with, together with the output estimate `(row count, per-column
//! stats)` the parent builds on. A `GApply` walks its per-group query
//! once, against a synthetic "average group" whose statistics are the
//! outer statistics shrunk to one group. [`CostModel::estimate`] and
//! [`CostModel::cost`] read the two halves of that walk, and join
//! reorder prices each candidate step with `CostModel::join`, the
//! walk's own join formula.

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
    fn unknown(width: usize) -> PlanEstimate {
        PlanEstimate { rows: DEFAULT_ROWS, cols: vec![ColumnStats::unknown(); width] }
    }

    fn col(&self, i: usize) -> ColumnStats {
        self.cols.get(i).cloned().unwrap_or_else(ColumnStats::unknown)
    }

    fn scaled(mut self, factor: f64) -> PlanEstimate {
        self.rows = (self.rows * factor).max(0.0);
        for c in &mut self.cols {
            c.distinct = (c.distinct as f64 * factor.clamp(0.0, 1.0)).ceil() as u64;
        }
        self
    }
}

/// A plan's cost together with its output estimate.
#[derive(Debug, Clone)]
pub(crate) struct Costed {
    /// Abstract execution cost (unit: rows touched).
    pub cost: f64,
    /// Estimated output.
    pub est: PlanEstimate,
}

impl Costed {
    fn new(cost: f64, rows: f64, cols: Vec<ColumnStats>) -> Costed {
        Costed { cost, est: PlanEstimate { rows, cols } }
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
        self.costed(plan).est
    }

    /// Estimate the abstract execution cost (unit: rows touched).
    pub fn cost(&self, plan: &LogicalPlan) -> f64 {
        self.costed(plan).cost
    }

    /// Cost and output estimate of `plan`, from one bottom-up walk.
    pub(crate) fn costed(&self, plan: &LogicalPlan) -> Costed {
        self.walk(plan, None)
    }

    /// The walk, threaded through the group context of the per-group
    /// query being costed.
    fn walk(&self, plan: &LogicalPlan, group: Option<&PlanEstimate>) -> Costed {
        let walk = |p: &LogicalPlan| self.walk(p, group);
        match plan {
            LogicalPlan::Scan { table, schema } => {
                let est = match self.stats.table(table) {
                    Some(t) => PlanEstimate { rows: t.rows as f64, cols: t.columns.clone() },
                    None => PlanEstimate::unknown(schema.len()),
                };
                Costed { cost: est.rows, est }
            }
            LogicalPlan::GroupScan { schema } => {
                let est = group.cloned().unwrap_or_else(|| PlanEstimate::unknown(schema.len()));
                Costed { cost: est.rows, est }
            }
            LogicalPlan::Select { input, predicate } => {
                let child = walk(input);
                let sel = self.selectivity(predicate, &child.est);
                Costed { cost: child.cost + child.est.rows, est: child.est.scaled(sel) }
            }
            LogicalPlan::Project { input, items } => {
                let child = walk(input);
                let cols = items
                    .iter()
                    .map(|it| match &it.expr {
                        Expr::Column(i) => child.est.col(*i),
                        _ => ColumnStats::unknown(),
                    })
                    .collect();
                Costed::new(child.cost + child.est.rows, child.est.rows, cols)
            }
            LogicalPlan::Join { left, right, predicate, fk_left_to_right } => {
                self.join(walk(left), walk(right), predicate, *fk_left_to_right, left.arity())
            }
            LogicalPlan::LeftOuterJoin { left, right, predicate } => {
                // Every left row survives at least once.
                self.joined(walk(left), walk(right), predicate, left.arity(), f64::max)
            }
            LogicalPlan::GApply { input, group_cols, pgq } => {
                let outer = walk(input);
                let groups = self.group_count(&outer.est, group_cols);
                let factor = if outer.est.rows > 0.0 { 1.0 / groups.max(1.0) } else { 0.0 };
                let per_group = self.walk(pgq, Some(&outer.est.clone().scaled(factor)));
                let mut cols: Vec<_> = group_cols.iter().map(|&c| outer.est.col(c)).collect();
                cols.extend(per_group.est.cols);
                // §4.4: per-group cost × number of groups, plus the
                // partition phase (hash pass over the outer result).
                let cost =
                    outer.cost + 1.2 * outer.est.rows + groups * (per_group.cost + PGQ_OVERHEAD);
                Costed::new(cost, groups * per_group.est.rows, cols)
            }
            LogicalPlan::GroupBy { input, keys, aggs } => {
                let child = walk(input);
                let groups = self.group_count(&child.est, keys);
                let mut cols: Vec<_> = keys.iter().map(|&k| child.est.col(k)).collect();
                cols.extend(std::iter::repeat_n(ColumnStats::unknown(), aggs.len()));
                // Hash-build factor.
                Costed::new(child.cost + 1.2 * child.est.rows, groups, cols)
            }
            LogicalPlan::ScalarAgg { input, aggs } => {
                let child = walk(input);
                let cols = vec![ColumnStats::unknown(); aggs.len()];
                Costed::new(child.cost + child.est.rows, 1.0, cols)
            }
            LogicalPlan::UnionAll { inputs } => {
                let branches: Vec<Costed> = inputs.iter().map(walk).collect();
                let rows = branches.iter().map(|b| b.est.rows).sum();
                let cost = branches.iter().map(|b| b.cost).sum();
                let cols = branches.into_iter().next().map(|b| b.est.cols).unwrap_or_default();
                Costed::new(cost, rows, cols)
            }
            LogicalPlan::Distinct { input } => {
                let child = walk(input);
                let all: Vec<usize> = (0..child.est.cols.len()).collect();
                let rows = self.group_count(&child.est, &all);
                Costed::new(child.cost + 1.2 * child.est.rows, rows, child.est.cols)
            }
            LogicalPlan::OrderBy { input, .. } => {
                let child = walk(input);
                Costed { cost: child.cost + sort_cost(child.est.rows), est: child.est }
            }
            LogicalPlan::Apply { outer, inner, mode } => {
                let o = walk(outer);
                let i = walk(inner);
                let inner_rows = match mode {
                    ApplyMode::Cross => i.est.rows,
                    // Outer/scalar modes pad empties back in.
                    ApplyMode::LeftOuter | ApplyMode::Scalar => i.est.rows.max(1.0),
                };
                let cost = if !inner.outer_columns(0).is_empty() {
                    o.cost + o.est.rows * i.cost
                } else {
                    // Uncorrelated inner is cached across outer rows.
                    o.cost + i.cost + o.est.rows
                };
                let mut cols = o.est.cols;
                cols.extend(i.est.cols);
                Costed::new(cost, o.est.rows * inner_rows, cols)
            }
            LogicalPlan::Exists { input, negated } => {
                let child = walk(input);
                // P(child non-empty) ≈ min(1, E[child rows]).
                let p = child.est.rows.min(1.0);
                let rows = if *negated { 1.0 - p } else { p };
                // Short-circuits after the first row on average.
                Costed::new(0.5 * child.cost, rows, vec![])
            }
        }
    }

    /// Cost and estimate of the inner join of two costed inputs, the
    /// left one `left_width` columns wide. A foreign-key join matches
    /// every left row at most once, so it is capped at the left
    /// cardinality; the predicate still filters below that (a filtered
    /// referenced side, residual conjuncts), so a pure FK join keeps the
    /// left rows and an FK join with residuals estimates fewer.
    pub(crate) fn join(
        &self,
        left: Costed,
        right: Costed,
        predicate: &Expr,
        fk_left_to_right: bool,
        left_width: usize,
    ) -> Costed {
        self.joined(left, right, predicate, left_width, |rows, left_rows| {
            let rows = rows.max(0.0);
            if fk_left_to_right {
                rows.min(left_rows)
            } else {
                rows
            }
        })
    }

    /// The join formula of inner and left outer joins: `out_rows` maps
    /// the filtered cross product's size and the left rows to the
    /// output rows.
    fn joined(
        &self,
        left: Costed,
        right: Costed,
        predicate: &Expr,
        left_width: usize,
        out_rows: impl FnOnce(f64, f64) -> f64,
    ) -> Costed {
        let (l, r) = (left.est.rows, right.est.rows);
        let mut cols = left.est.cols;
        cols.extend(right.est.cols);
        let mut est = PlanEstimate { rows: l * r, cols };
        est.rows = out_rows(est.rows * self.selectivity(predicate, &est), l);
        let work = if !split_equi_join(predicate, left_width).0.is_empty() {
            // Probe + build (hashing) + output-row formation, each
            // weighted above a plain scan pass: join rows hash, compare
            // and concatenate.
            l + 2.0 * est.rows + 1.5 * r
        } else {
            l * r
        };
        Costed { cost: left.cost + right.cost + work, est }
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
