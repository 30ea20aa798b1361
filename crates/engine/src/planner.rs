//! Logical → physical lowering.
//!
//! The lowering is deliberately mechanical — plan *shape* decisions
//! belong to the optimizer crate. The only physical choices made here
//! are (a) hash join vs nested loops, picked by whether the join
//! predicate contains clean equi-conjuncts, (b) the GApply partition
//! strategy and the correlated-Apply memo, both taken from
//! [`EngineConfig`] so `experiments ablation` can ablate them, and (c)
//! fusing a bare-column `Project` directly over a hash join into the
//! join's output list (profiled or not, so the profiled plan is the
//! timed plan).

use crate::ops::{
    ApplyOp, BoxedOp, ExistsOp, Filter, GApplyOp, GroupScan, HashAggregate, HashDistinct, HashJoin,
    NestedLoopJoin, PartitionStrategy, Profiled, Project, ScalarAggregate, Sort, TableScan,
    UnionAll,
};
use xmlpub_algebra::{LogicalPlan, ProjectItem};
use xmlpub_common::{Error, Result, Schema, DEFAULT_BATCH_SIZE};
use xmlpub_expr::{conjunction, split_equi_join, Expr};

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
    /// Target rows per batch; 1 degenerates to tuple-at-a-time.
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
            LogicalPlan::Project { input, items } => match fused_join_output(items, input) {
                // A bare-column projection over a hash join is the join's
                // output list: one operator, whose rows carry only the
                // projected columns.
                Some(output) => {
                    self.lower_join(input, Some((output, plan.schema())), child_depth, next_id)?
                }
                None => {
                    Box::new(Project::new(self.lower(input, child_depth, next_id)?, items.clone()))
                }
            },
            LogicalPlan::Join { .. } | LogicalPlan::LeftOuterJoin { .. } => {
                self.lower_join(plan, None, child_depth, next_id)?
            }
            LogicalPlan::GApply { input, group_cols, pgq } => {
                let input = self.lower(input, child_depth, next_id)?;
                let pgq_id = *next_id;
                let op = GApplyOp::new(
                    input,
                    group_cols.clone(),
                    self.lower(pgq, child_depth, next_id)?,
                    self.config.partition_strategy,
                );
                if self.config.dop > 1 {
                    // Each worker lowers the logical PGQ again from the
                    // same id and depth: the same operators, labels and
                    // profile slots as the serial instance.
                    let (planner, pgq) = (*self, pgq.as_ref().clone());
                    Box::new(op.parallel(self.config.dop, move || {
                        let mut next_id = pgq_id;
                        planner.lower(&pgq, child_depth, &mut next_id)
                    }))
                } else {
                    Box::new(op)
                }
            }
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

    /// Lower a `Join` or `LeftOuterJoin` whose children sit at
    /// `child_depth`: a hash join when the predicate has an equi-conjunct
    /// (emitting only `output`'s columns under its schema, when given),
    /// else nested loops.
    fn lower_join(
        &self,
        join: &LogicalPlan,
        output: Option<(Vec<usize>, Schema)>,
        child_depth: usize,
        next_id: &mut usize,
    ) -> Result<BoxedOp> {
        let (LogicalPlan::Join { left, right, predicate, .. }
        | LogicalPlan::LeftOuterJoin { left, right, predicate }) = join
        else {
            unreachable!("lower_join on a non-join node");
        };
        let left_outer = matches!(join, LogicalPlan::LeftOuterJoin { .. });
        let l = self.lower(left, child_depth, next_id)?;
        let r = self.lower(right, child_depth, next_id)?;
        let (keys, residual) = split_equi_join(predicate, left.arity());
        if keys.is_empty() {
            debug_assert!(output.is_none(), "only a hash join takes an output list");
            return match left_outer {
                false => Ok(Box::new(NestedLoopJoin::new(l, r, predicate.clone()))),
                true => Err(Error::plan("left outer join requires an equi-join predicate")),
            };
        }
        let (lk, rk) = keys.into_iter().unzip();
        let residual = (!residual.is_empty()).then(|| conjunction(residual));
        let join = HashJoin::with_mode(l, r, lk, rk, residual, left_outer);
        Ok(match output {
            Some((cols, schema)) => Box::new(join.with_output(cols, schema)),
            None => Box::new(join),
        })
    }
}

/// The output list of a hash-lowered join that a projection over it
/// fuses into: the projection's columns when every item is a bare
/// column and `input` is a `Join`/`LeftOuterJoin` with an equi-conjunct.
fn fused_join_output(items: &[ProjectItem], input: &LogicalPlan) -> Option<Vec<usize>> {
    let (LogicalPlan::Join { left, predicate, .. }
    | LogicalPlan::LeftOuterJoin { left, predicate, .. }) = input
    else {
        return None;
    };
    if split_equi_join(predicate, left.arity()).0.is_empty() {
        return None;
    }
    items
        .iter()
        .map(|it| match it.expr {
            Expr::Column(c) => Some(c),
            _ => None,
        })
        .collect()
}

/// The display label for the physical operator a logical node lowers to.
/// A join with a fused projection shows its width, `out=<kept>/<full>`.
fn op_label(plan: &LogicalPlan, config: &EngineConfig) -> String {
    match plan {
        LogicalPlan::Scan { table, .. } => format!("TableScan({table})"),
        LogicalPlan::GroupScan { .. } => "GroupScan".into(),
        LogicalPlan::Select { .. } => "Filter".into(),
        LogicalPlan::Project { input, items } => match fused_join_output(items, input) {
            Some(_) => format!("{} out={}/{}", op_label(input, config), items.len(), input.arity()),
            None => "Project".into(),
        },
        LogicalPlan::Join { left, predicate, .. } => {
            match split_equi_join(predicate, left.arity()).0.is_empty() {
                false => "HashJoin".into(),
                true => "NestedLoopJoin".into(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use xmlpub_algebra::ApplyMode;
    use xmlpub_common::{DataType, Field, Schema};
    use xmlpub_expr::AggExpr;

    fn schema2() -> Schema {
        Schema::new(vec![Field::new("a", DataType::Int), Field::new("b", DataType::Int)])
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
