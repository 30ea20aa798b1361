//! Logical → physical lowering.
//!
//! The lowering is deliberately mechanical — plan *shape* decisions
//! belong to the optimizer crate. The only physical choices made here
//! are (a) hash join vs nested loops, picked by whether the join
//! predicate contains clean equi-conjuncts, and (b) the GApply partition
//! strategy and the correlated-Apply memo, both taken from
//! [`EngineConfig`] so `experiments ablation` can ablate them.

use crate::ops::{
    ApplyOp, BoxedOp, ExistsOp, Filter, GApplyOp, GroupScan, HashAggregate, HashDistinct, HashJoin,
    NestedLoopJoin, PartitionStrategy, Profiled, Project, ScalarAggregate, Sort, TableScan,
    UnionAll,
};
use xmlpub_algebra::LogicalPlan;
use xmlpub_common::{Result, DEFAULT_BATCH_SIZE};
use xmlpub_expr::{conjunction, conjuncts, BinOp, Expr};

/// Engine-level configuration (physical knobs only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// How GApply partitions its input (§3: "either through sorting or
    /// through hashing").
    pub partition_strategy: PartitionStrategy,
    /// Memoize correlated Apply inners keyed on the outer-row columns
    /// they actually read — the common-subexpression spool a
    /// decorrelating optimizer (e.g. SQL Server 2000's) effectively
    /// gives correlated subqueries. Without it the §2 classic plans
    /// degenerate to per-row re-execution, which would wildly overstate
    /// the paper's Figure 8 speedups.
    pub memoize_correlated_apply: bool,
    /// Target rows per batch; 1 degenerates to tuple-at-a-time (the A/B
    /// baseline for the vectorization refactor).
    pub batch_size: usize,
    /// Wrap every operator in a profiling decorator collecting
    /// per-operator counters (`\explain --analyze`).
    pub profile_ops: bool,
    /// Degree of intra-query parallelism for GApply: worker threads the
    /// per-group execution phase may use. 1 = serial.
    /// The default honours the `XMLPUB_DOP` environment variable so CI
    /// can force the whole suite through the parallel path.
    pub dop: usize,
    /// Derive `xmlpub-analysis` plan properties before execution and
    /// assert them against every produced batch (keys, order,
    /// nullability, cardinality). A debugging oracle for the analyzer's
    /// transfer functions; the default honours `XMLPUB_CHECK_PROPS` so
    /// CI can force the whole suite through the checked path.
    pub check_props: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            partition_strategy: PartitionStrategy::Hash,
            memoize_correlated_apply: true,
            batch_size: DEFAULT_BATCH_SIZE,
            profile_ops: false,
            dop: default_dop(),
            check_props: default_check_props(),
        }
    }
}

/// The default property-checking mode: on iff `XMLPUB_CHECK_PROPS` is
/// set to something other than `0` or the empty string. Read once per
/// process.
fn default_check_props() -> bool {
    static CHECK: std::sync::LazyLock<bool> = std::sync::LazyLock::new(|| {
        std::env::var("XMLPUB_CHECK_PROPS").is_ok_and(|v| !v.is_empty() && v != "0")
    });
    *CHECK
}

/// The default degree of parallelism: `XMLPUB_DOP` when set to a
/// positive integer, else 1 (serial). Read once per process.
fn default_dop() -> usize {
    static DOP: std::sync::LazyLock<usize> = std::sync::LazyLock::new(|| {
        std::env::var("XMLPUB_DOP")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(1)
    });
    *DOP
}

/// Translates validated logical plans to physical operator trees.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhysicalPlanner {
    /// The configuration applied to every operator this planner builds.
    pub config: EngineConfig,
}

impl PhysicalPlanner {
    /// A planner with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        PhysicalPlanner { config }
    }

    /// Lower a logical plan. The plan should already be validated.
    pub fn plan(&self, plan: &LogicalPlan) -> Result<BoxedOp> {
        let mut next_id = 0;
        self.lower(plan, 0, &mut next_id)
    }

    /// Recursive lowering. `depth` and the pre-order `next_id` counter
    /// only matter when `profile_ops` wraps the built operators — the ids
    /// key the per-operator counter slots in the execution context.
    fn lower(&self, plan: &LogicalPlan, depth: usize, next_id: &mut usize) -> Result<BoxedOp> {
        let id = *next_id;
        *next_id += 1;
        let child_depth = depth + 1;
        let op: BoxedOp = match plan {
            LogicalPlan::Scan { table, schema } => {
                Box::new(TableScan::new(table.clone(), schema.clone()))
            }
            LogicalPlan::GroupScan { schema } => Box::new(GroupScan::new(schema.clone())),
            LogicalPlan::Select { input, predicate } => {
                Box::new(Filter::new(self.lower(input, child_depth, next_id)?, predicate.clone()))
            }
            LogicalPlan::Project { input, items } => {
                Box::new(Project::new(self.lower(input, child_depth, next_id)?, items.clone()))
            }
            LogicalPlan::Join { left, right, predicate, .. } => {
                let left_len = left.schema().len();
                let l = self.lower(left, child_depth, next_id)?;
                let r = self.lower(right, child_depth, next_id)?;
                match split_equi_join(predicate, left_len) {
                    Some((lk, rk, residual)) => {
                        Box::new(HashJoin::with_mode(l, r, lk, rk, residual, false))
                    }
                    None => Box::new(NestedLoopJoin::new(l, r, predicate.clone())),
                }
            }
            LogicalPlan::LeftOuterJoin { left, right, predicate } => {
                let left_len = left.schema().len();
                let l = self.lower(left, child_depth, next_id)?;
                let r = self.lower(right, child_depth, next_id)?;
                match split_equi_join(predicate, left_len) {
                    Some((lk, rk, residual)) => {
                        Box::new(HashJoin::with_mode(l, r, lk, rk, residual, true))
                    }
                    None => {
                        return Err(xmlpub_common::Error::plan(
                            "left outer join requires an equi-join predicate",
                        ))
                    }
                }
            }
            LogicalPlan::GApply { input, group_cols, pgq } => Box::new(GApplyOp::new(
                self.lower(input, child_depth, next_id)?,
                group_cols.clone(),
                self.lower(pgq, child_depth, next_id)?,
                self.config.partition_strategy,
                self.config.dop,
            )),
            LogicalPlan::GroupBy { input, keys, aggs } => Box::new(HashAggregate::new(
                self.lower(input, child_depth, next_id)?,
                keys.clone(),
                aggs.clone(),
            )),
            LogicalPlan::ScalarAgg { input, aggs } => Box::new(ScalarAggregate::new(
                self.lower(input, child_depth, next_id)?,
                aggs.clone(),
            )),
            LogicalPlan::UnionAll { inputs } => {
                let branches = inputs
                    .iter()
                    .map(|i| self.lower(i, child_depth, next_id))
                    .collect::<Result<Vec<_>>>()?;
                Box::new(UnionAll::new(branches))
            }
            LogicalPlan::Distinct { input } => {
                Box::new(HashDistinct::new(self.lower(input, child_depth, next_id)?))
            }
            LogicalPlan::OrderBy { input, keys } => {
                Box::new(Sort::new(self.lower(input, child_depth, next_id)?, keys.clone()))
            }
            LogicalPlan::Apply { outer, inner, mode } => Box::new(ApplyOp::new(
                self.lower(outer, child_depth, next_id)?,
                self.lower(inner, child_depth, next_id)?,
                *mode,
                inner.outer_columns(0).into_vec(),
                self.config.memoize_correlated_apply,
            )),
            LogicalPlan::Exists { input, negated } => {
                Box::new(ExistsOp::new(self.lower(input, child_depth, next_id)?, *negated))
            }
        };
        Ok(if self.config.profile_ops {
            Box::new(Profiled::new(op, id, op_label(plan, &self.config), depth))
        } else {
            op
        })
    }
}

/// The display label for the physical operator a logical node lowers to.
fn op_label(plan: &LogicalPlan, config: &EngineConfig) -> String {
    match plan {
        LogicalPlan::Scan { table, .. } => format!("TableScan({table})"),
        LogicalPlan::GroupScan { .. } => "GroupScan".into(),
        LogicalPlan::Select { .. } => "Filter".into(),
        LogicalPlan::Project { .. } => "Project".into(),
        LogicalPlan::Join { left, predicate, .. } => {
            match split_equi_join(predicate, left.schema().len()) {
                Some(_) => "HashJoin".into(),
                None => "NestedLoopJoin".into(),
            }
        }
        LogicalPlan::LeftOuterJoin { .. } => "HashJoin[left-outer]".into(),
        LogicalPlan::GApply { .. } => match config.partition_strategy {
            PartitionStrategy::Hash => "GApply[hash]".into(),
            PartitionStrategy::Sort => "GApply[sort]".into(),
        },
        LogicalPlan::GroupBy { .. } => "HashAggregate".into(),
        LogicalPlan::ScalarAgg { .. } => "ScalarAggregate".into(),
        LogicalPlan::UnionAll { .. } => "UnionAll".into(),
        LogicalPlan::Distinct { .. } => "HashDistinct".into(),
        LogicalPlan::OrderBy { .. } => "Sort".into(),
        LogicalPlan::Apply { mode, .. } => format!("Apply[{mode:?}]"),
        LogicalPlan::Exists { negated: false, .. } => "Exists".into(),
        LogicalPlan::Exists { negated: true, .. } => "NotExists".into(),
    }
}

/// Split a join predicate into hash keys and a residual. Returns `None`
/// when no equi-conjunct of the form `left.col = right.col` exists.
fn split_equi_join(
    predicate: &Expr,
    left_len: usize,
) -> Option<(Vec<usize>, Vec<usize>, Option<Expr>)> {
    let mut left_keys = Vec::new();
    let mut right_keys = Vec::new();
    let mut residual = Vec::new();
    for c in conjuncts(predicate) {
        match &c {
            Expr::Binary { op: BinOp::Eq, left, right } => {
                match (&**left, &**right) {
                    (Expr::Column(a), Expr::Column(b)) if *a < left_len && *b >= left_len => {
                        left_keys.push(*a);
                        right_keys.push(*b - left_len);
                        continue;
                    }
                    (Expr::Column(a), Expr::Column(b)) if *b < left_len && *a >= left_len => {
                        left_keys.push(*b);
                        right_keys.push(*a - left_len);
                        continue;
                    }
                    _ => {}
                }
                residual.push(c);
            }
            _ => residual.push(c),
        }
    }
    if left_keys.is_empty() {
        return None;
    }
    let residual = if residual.is_empty() { None } else { Some(conjunction(residual)) };
    Some((left_keys, right_keys, residual))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlpub_algebra::ApplyMode;
    use xmlpub_common::{DataType, Field, Schema};
    use xmlpub_expr::AggExpr;

    fn schema2() -> Schema {
        Schema::new(vec![Field::new("a", DataType::Int), Field::new("b", DataType::Int)])
    }

    #[test]
    fn equi_join_split() {
        // a0 = b0 (i.e. col0 = col2 with left_len 2) and residual a1 > b1.
        let pred = Expr::col(0).eq(Expr::col(2)).and(Expr::col(1).gt(Expr::col(3)));
        let (lk, rk, residual) = split_equi_join(&pred, 2).unwrap();
        assert_eq!(lk, vec![0]);
        assert_eq!(rk, vec![0]);
        assert!(residual.is_some());

        // Reversed operand order still splits.
        let pred = Expr::col(3).eq(Expr::col(1));
        let (lk, rk, residual) = split_equi_join(&pred, 2).unwrap();
        assert_eq!(lk, vec![1]);
        assert_eq!(rk, vec![1]);
        assert!(residual.is_none());

        // Pure inequality does not.
        assert!(split_equi_join(&Expr::col(0).lt(Expr::col(2)), 2).is_none());
        // Same-side equality is residual, not a key.
        assert!(split_equi_join(&Expr::col(0).eq(Expr::col(1)), 2).is_none());
    }

    /// The Apply memo key is the inner's `outer_columns(0)`.
    #[test]
    fn correlation_detection() {
        let escapes_to = |p: &LogicalPlan, level| !p.outer_columns(level).is_empty();
        let uncorrelated =
            LogicalPlan::group_scan(schema2()).scalar_agg(vec![AggExpr::avg(Expr::col(1), "a")]);
        assert!(!escapes_to(&uncorrelated, 0));

        let correlated = LogicalPlan::group_scan(schema2())
            .select(Expr::col(0).eq(Expr::Correlated { level: 0, index: 0 }));
        assert!(escapes_to(&correlated, 0));

        // A nested apply shifts the level: the inner's level-1 reference
        // escapes to our level 0.
        let nested_inner = LogicalPlan::group_scan(schema2())
            .select(Expr::col(0).eq(Expr::Correlated { level: 1, index: 0 }));
        let nested = LogicalPlan::group_scan(schema2()).apply(nested_inner, ApplyMode::Cross);
        assert!(escapes_to(&nested, 0));

        // While a level-0 reference inside the nested apply's inner binds
        // to the *nested* apply, not ours.
        let local_inner = LogicalPlan::group_scan(schema2())
            .select(Expr::col(0).eq(Expr::Correlated { level: 0, index: 0 }));
        let nested = LogicalPlan::group_scan(schema2()).apply(local_inner, ApplyMode::Cross);
        assert!(!escapes_to(&nested, 0));
    }
}
