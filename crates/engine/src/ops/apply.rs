//! Correlated apply and existence test — the subquery execution model
//! the paper adopts from Galindo-Legaria & Joshi \[12\].

use crate::context::ExecContext;
use crate::ops::{BoxedOp, PhysicalOp};
use std::collections::HashMap;
use xmlpub_algebra::ApplyMode;
use xmlpub_common::{Error, Result, Schema, Tuple, TupleBatch, Value};

/// Executes the inner plan once per outer row, binding the outer row as
/// a correlated parameter (`ctx.outers`).
///
/// Inner results are memoized per `open`, keyed on the outer-row values
/// the inner plan reads. When the inner is *uncorrelated* (it never
/// reads the outer row) the key is empty, so the result is computed once
/// and reused for every outer row — the common-subexpression spool a
/// real engine would use. Inside a `GApply` per-group query this still
/// re-evaluates once per *group* (GApply re-opens the plan per group),
/// which is exactly the intended semantics of an uncorrelated subquery
/// over `$group`. The cache is what keeps the *with-GApply* plans from
/// being quadratic; the *without-GApply* baseline plans keep their
/// correlated subqueries correlated (they reference the outer key), so
/// they pay the paper's redundant-computation cost.
pub struct ApplyOp {
    outer: BoxedOp,
    inner: BoxedOp,
    mode: ApplyMode,
    /// Outer-row columns the inner plan reads (empty = uncorrelated).
    corr_cols: Vec<usize>,
    /// Memoize correlated inners by parameter value (ablation knob);
    /// an uncorrelated inner is always memoized.
    memo_enabled: bool,
    schema: Schema,
    /// Memoized inner results, one per distinct correlation key, in
    /// first-execution order: at most one for an uncorrelated inner.
    memo: Vec<Vec<Tuple>>,
    /// Correlation key → its result's slot in `memo`. An uncorrelated
    /// inner's only key is empty and is never hashed.
    memo_slots: HashMap<Vec<Value>, usize>,
    /// Probe buffer for the correlation key, reused across outer rows.
    key: Vec<Value>,
    /// The last inner result when correlated results are not memoized.
    unmemoized: Vec<Tuple>,
}

impl ApplyOp {
    /// Create an apply operator. `corr_cols` are the outer columns the
    /// inner plan reads through level-0 correlated references (empty for
    /// an uncorrelated inner).
    pub fn new(
        outer: BoxedOp,
        inner: BoxedOp,
        mode: ApplyMode,
        corr_cols: Vec<usize>,
        memo_enabled: bool,
    ) -> Self {
        let schema = outer.schema().join(inner.schema());
        ApplyOp {
            outer,
            inner,
            mode,
            corr_cols,
            memo_enabled,
            schema,
            memo: Vec::new(),
            memo_slots: HashMap::new(),
            key: Vec::new(),
            unmemoized: Vec::new(),
        }
    }

    /// The inner result for `outer_row`, borrowed from the memo.
    fn run_inner(&mut self, ctx: &mut ExecContext<'_>, outer_row: &Tuple) -> Result<&[Tuple]> {
        if !self.corr_cols.is_empty() && !self.memo_enabled {
            self.unmemoized = self.execute_inner(ctx, outer_row)?;
            return Ok(&self.unmemoized);
        }
        // An uncorrelated inner has one result, in slot 0: a hit neither
        // builds nor hashes a key.
        let slot = if self.corr_cols.is_empty() {
            (!self.memo.is_empty()).then_some(0)
        } else {
            self.key.clear();
            self.key.extend(self.corr_cols.iter().map(|&c| outer_row.value(c).clone()));
            self.memo_slots.get(&self.key).copied()
        };
        let slot = match slot {
            Some(slot) => {
                ctx.stats.apply_cache_hits += 1;
                slot
            }
            None => {
                let rows = self.execute_inner(ctx, outer_row)?;
                if !self.corr_cols.is_empty() {
                    self.memo_slots.insert(self.key.clone(), self.memo.len());
                }
                self.memo.push(rows);
                self.memo.len() - 1
            }
        };
        Ok(&self.memo[slot])
    }

    /// Drop every inner result held, memoized or not.
    fn clear_memo(&mut self) {
        self.memo.clear();
        self.memo_slots.clear();
        self.unmemoized.clear();
    }

    /// Run the inner plan once with `outer_row` bound.
    fn execute_inner(
        &mut self,
        ctx: &mut ExecContext<'_>,
        outer_row: &Tuple,
    ) -> Result<Vec<Tuple>> {
        ctx.stats.apply_inner_executions += 1;
        ctx.outers.push(outer_row.clone());
        let result = (|| {
            self.inner.open(ctx)?;
            let mut rows = Vec::new();
            while let Some(b) = self.inner.next_batch(ctx)? {
                rows.extend(b.into_rows());
            }
            self.inner.close(ctx)?;
            Ok(rows)
        })();
        ctx.outers.pop();
        result
    }
}

impl PhysicalOp for ApplyOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.clear_memo();
        self.outer.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<TupleBatch>> {
        loop {
            let Some(batch) = self.outer.next_batch(ctx)? else {
                return Ok(None);
            };
            // One output batch per outer batch: the expansion factor is
            // unknown, so the batch-size target is deliberately ignored
            // here rather than buffering inner results across calls.
            let mode = self.mode;
            let inner_width = self.inner.schema().len();
            let mut out = Vec::new();
            for outer_row in batch.rows() {
                let rows = self.run_inner(ctx, outer_row)?;
                match mode {
                    ApplyMode::Cross => {
                        out.extend(rows.iter().map(|r| outer_row.concat(r)));
                    }
                    ApplyMode::LeftOuter => {
                        if rows.is_empty() {
                            out.push(outer_row.concat(&Tuple::new(vec![Value::Null; inner_width])));
                        } else {
                            out.extend(rows.iter().map(|r| outer_row.concat(r)));
                        }
                    }
                    ApplyMode::Scalar => {
                        if rows.len() > 1 {
                            return Err(Error::exec(format!(
                                "scalar subquery returned {} rows",
                                rows.len()
                            )));
                        }
                        match rows.first() {
                            Some(r) => out.push(outer_row.concat(r)),
                            None => out.push(
                                outer_row.concat(&Tuple::new(vec![Value::Null; inner_width])),
                            ),
                        }
                    }
                }
            }
            if !out.is_empty() {
                return Ok(Some(TupleBatch::new(self.schema.clone(), out)));
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.clear_memo();
        self.outer.close(ctx)
    }

    fn clone_op(&self) -> BoxedOp {
        Box::new(ApplyOp::new(
            self.outer.clone_op(),
            self.inner.clone_op(),
            self.mode,
            self.corr_cols.clone(),
            self.memo_enabled,
        ))
    }
}

/// The paper's `exists` operator: emits the single tuple over the null
/// schema iff the input is non-empty (flipped when `negated`).
pub struct ExistsOp {
    input: BoxedOp,
    negated: bool,
    schema: Schema,
    emitted: bool,
    holds: bool,
    evaluated: bool,
}

impl ExistsOp {
    /// Existence test over `input`.
    pub fn new(input: BoxedOp, negated: bool) -> Self {
        ExistsOp {
            input,
            negated,
            schema: Schema::empty(),
            emitted: false,
            holds: false,
            evaluated: false,
        }
    }
}

impl PhysicalOp for ExistsOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, _ctx: &mut ExecContext<'_>) -> Result<()> {
        self.emitted = false;
        self.evaluated = false;
        self.holds = false;
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<TupleBatch>> {
        if !self.evaluated {
            // Short-circuit: stop at the first batch that shows up.
            self.input.open(ctx)?;
            let found = self.input.next_batch(ctx)?.is_some();
            self.input.close(ctx)?;
            self.holds = found != self.negated;
            self.evaluated = true;
        }
        if self.holds && !self.emitted {
            self.emitted = true;
            return Ok(Some(TupleBatch::new(self.schema.clone(), vec![Tuple::unit()])));
        }
        Ok(None)
    }

    fn close(&mut self, _ctx: &mut ExecContext<'_>) -> Result<()> {
        self.emitted = false;
        self.evaluated = false;
        Ok(())
    }

    fn clone_op(&self) -> BoxedOp {
        Box::new(ExistsOp::new(self.input.clone_op(), self.negated))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::drain;
    use crate::ops::filter::Filter;
    use crate::test_support::{ctx_with, values_op, values_op2};
    use xmlpub_common::row;
    use xmlpub_expr::Expr;

    fn correlated_inner() -> BoxedOp {
        // inner: rows (1),(2),(3) filtered by col0 > outer.col0
        Box::new(Filter::new(
            values_op(vec![row![1], row![2], row![3]]),
            Expr::col(0).gt(Expr::Correlated { level: 0, index: 0 }),
        ))
    }

    #[test]
    fn cross_apply_correlated() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let outer = values_op(vec![row![1], row![2], row![3]]);
        let mut ap = ApplyOp::new(outer, correlated_inner(), ApplyMode::Cross, vec![0], false);
        let rows = drain(&mut ap, &mut ctx).unwrap();
        // outer=1 pairs with 2,3; outer=2 pairs with 3; outer=3 drops.
        assert_eq!(rows, vec![row![1, 2], row![1, 3], row![2, 3]]);
        assert_eq!(ctx.stats.apply_inner_executions, 3);
        assert_eq!(ctx.stats.apply_cache_hits, 0);
    }

    #[test]
    fn left_outer_apply_pads() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let outer = values_op(vec![row![3]]);
        let mut ap = ApplyOp::new(outer, correlated_inner(), ApplyMode::LeftOuter, vec![0], false);
        let rows = drain(&mut ap, &mut ctx).unwrap();
        assert_eq!(rows, vec![row![3, Value::Null]]);
    }

    #[test]
    fn scalar_apply_enforces_single_row() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let outer = values_op(vec![row![1]]);
        let mut ap = ApplyOp::new(
            outer,
            values_op(vec![row![10], row![20]]),
            ApplyMode::Scalar,
            vec![],
            false,
        );
        ap.open(&mut ctx).unwrap();
        assert!(ap.next_batch(&mut ctx).is_err());
        ap.close(&mut ctx).unwrap();

        // Empty inner pads with NULL.
        let outer = values_op(vec![row![1]]);
        let mut ap = ApplyOp::new(outer, values_op(vec![]), ApplyMode::Scalar, vec![], false);
        let rows = drain(&mut ap, &mut ctx).unwrap();
        assert_eq!(rows, vec![row![1, Value::Null]]);
    }

    #[test]
    fn uncorrelated_inner_is_cached() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let outer = values_op(vec![row![1], row![2], row![3]]);
        let inner = values_op(vec![row![9]]);
        let mut ap = ApplyOp::new(outer, inner, ApplyMode::Cross, vec![], false);
        let rows = drain(&mut ap, &mut ctx).unwrap();
        assert_eq!(rows, vec![row![1, 9], row![2, 9], row![3, 9]]);
        assert_eq!(ctx.stats.apply_inner_executions, 1);
        assert_eq!(ctx.stats.apply_cache_hits, 2);
    }

    #[test]
    fn cache_resets_on_reopen() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let outer = values_op(vec![row![1], row![2]]);
        let inner = values_op(vec![row![9]]);
        let mut ap = ApplyOp::new(outer, inner, ApplyMode::Cross, vec![], false);
        drain(&mut ap, &mut ctx).unwrap();
        drain(&mut ap, &mut ctx).unwrap();
        // Two opens → two real executions (one per open), two cache hits.
        assert_eq!(ctx.stats.apply_inner_executions, 2);
        assert_eq!(ctx.stats.apply_cache_hits, 2);
    }

    #[test]
    fn exists_and_not_exists() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let mut e = ExistsOp::new(values_op2(vec![row![1, "a"]]), false);
        assert_eq!(drain(&mut e, &mut ctx).unwrap(), vec![Tuple::unit()]);
        let mut e = ExistsOp::new(values_op2(vec![]), false);
        assert!(drain(&mut e, &mut ctx).unwrap().is_empty());
        let mut e = ExistsOp::new(values_op2(vec![]), true);
        assert_eq!(drain(&mut e, &mut ctx).unwrap(), vec![Tuple::unit()]);
        let mut e = ExistsOp::new(values_op2(vec![row![1, "a"]]), true);
        assert!(drain(&mut e, &mut ctx).unwrap().is_empty());
    }

    #[test]
    fn apply_with_exists_inner_is_semijoin() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let outer = values_op(vec![row![1], row![5]]);
        // exists(σ col0 > outer)
        let inner = Box::new(ExistsOp::new(correlated_inner(), false));
        let mut ap = ApplyOp::new(outer, inner, ApplyMode::Cross, vec![0], false);
        let rows = drain(&mut ap, &mut ctx).unwrap();
        assert_eq!(rows, vec![row![1]]); // 5 has no greater element
    }

    use xmlpub_common::Value;
}
