//! Physical operators.
//!
//! Everything follows a vectorized Volcano contract:
//! `open` (re)initialises state — operators are required to be
//! re-openable, because `GApply` re-opens its per-group plan once per
//! group; `next_batch` produces the next [`TupleBatch`] or `None` when
//! exhausted; `close` releases buffers. Batches flowing between operators
//! are never empty — exhaustion is signalled *only* by `None` — and
//! `ctx.batch_size` is a target, not a bound: operators whose output
//! expands one input batch (joins, applies) may exceed it rather than
//! buffer rows across calls. Setting `batch_size` to 1 degenerates to the
//! classic tuple-at-a-time model.

use crate::context::ExecContext;
use xmlpub_common::{Result, Schema, Tuple, TupleBatch, Value};

pub mod agg;
pub mod apply;
pub mod distinct;
pub mod filter;
pub mod gapply;
pub mod join;
pub mod profile;
pub mod project;
pub mod scan;
pub mod sort;
pub mod union;
pub mod values;

pub use agg::{HashAggregate, ScalarAggregate};
pub use apply::{ApplyOp, ExistsOp};
pub use distinct::HashDistinct;
pub use filter::Filter;
pub use gapply::{GApplyOp, PartitionStrategy};
pub use join::{HashJoin, NestedLoopJoin};
pub use profile::Profiled;
pub use project::Project;
pub use scan::{GroupScan, TableScan};
pub use sort::Sort;
pub use union::UnionAll;
pub use values::ValuesOp;

/// A vectorized Volcano-style physical operator.
///
/// Operators are `Send` so plan fragments can migrate to the engine's
/// scoped worker threads (parallel GApply), and every operator can stamp
/// out a fresh copy of itself via [`clone_op`](Self::clone_op) — the
/// plan-template factory the parallel execution phase uses to give each
/// worker its own per-group plan instance.
pub trait PhysicalOp: Send {
    /// Output schema.
    fn schema(&self) -> &Schema;
    /// (Re)initialise. Must be callable repeatedly (after `close`).
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()>;
    /// Produce the next non-empty batch of tuples, or `None` when
    /// exhausted.
    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<TupleBatch>>;
    /// Release state. Idempotent.
    fn close(&mut self, ctx: &mut ExecContext<'_>) -> Result<()>;
    /// Instantiate a fresh, closed copy of this operator (and its whole
    /// subtree) sharing no mutable state with the original: the plan
    /// template the parallel GApply clones once per worker. Runtime
    /// buffers (hash tables, sort buffers, caches) are *not* copied.
    fn clone_op(&self) -> BoxedOp;
}

/// Boxed operator alias used throughout the planner.
pub type BoxedOp = Box<dyn PhysicalOp>;

/// Drain an operator into a vector of tuples (open → next_batch* → close).
///
/// This is the workspace's one materialisation loop: the executor's
/// [`ResultStream`](crate::executor::ResultStream), the §5.1 client
/// simulator and the operator unit tests all run exhaustion through
/// here (or through `collect_remaining` when the operator is already
/// open), so batch-handling bugs cannot diverge between consumers.
pub fn drain(op: &mut dyn PhysicalOp, ctx: &mut ExecContext<'_>) -> Result<Vec<Tuple>> {
    op.open(ctx)?;
    let out = collect_remaining(op, ctx)?;
    op.close(ctx)?;
    Ok(out)
}

/// Collect every remaining batch of an already-open operator.
pub(crate) fn collect_remaining(
    op: &mut dyn PhysicalOp,
    ctx: &mut ExecContext<'_>,
) -> Result<Vec<Tuple>> {
    let mut out = Vec::new();
    while let Some(batch) = op.next_batch(ctx)? {
        // The operator contract: exhaustion is None, never an empty
        // batch. Checked here (and in ResultStream/Profiled) so every
        // consumer path enforces it in debug builds.
        debug_assert!(!batch.is_empty(), "operator produced an empty batch");
        out.extend(batch.into_rows());
    }
    Ok(out)
}

/// The values of `row` at `cols`, cloned into `buf` (which the caller
/// reuses across rows, so a probe allocates nothing) and returned as a
/// slice: `Vec<Value>: Borrow<[Value]>`, so a map keyed on owned keys is
/// probed with it directly.
pub(crate) fn key_of<'a>(row: &Tuple, cols: &[usize], buf: &'a mut Vec<Value>) -> &'a [Value] {
    buf.clear();
    buf.extend(cols.iter().map(|&c| row.value(c).clone()));
    buf
}

/// Cut the next `batch_size`-row chunk out of a materialised buffer,
/// advancing `pos`. `None` once the buffer is exhausted — the shared
/// emission loop for materialising operators (scan, values, sort, agg).
pub(crate) fn chunk(rows: &[Tuple], pos: &mut usize, batch_size: usize) -> Option<Vec<Tuple>> {
    if *pos >= rows.len() {
        return None;
    }
    let end = (*pos + batch_size.max(1)).min(rows.len());
    let out = rows[*pos..end].to_vec();
    *pos = end;
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{values_op, values_op_schema};
    use xmlpub_algebra::Catalog;
    use xmlpub_common::row;

    /// Schema is `Arc`-backed, so per-batch `schema.clone()` in every
    /// operator's emission path is a refcount bump, not a deep copy of
    /// the field vector. Pin that: every batch an operator emits — and
    /// every `clone_op` plan template — shares the operator's one
    /// allocation, even through an operator that computes its own output
    /// schema (Project).
    #[test]
    fn emitted_batches_share_the_operator_schema_allocation() {
        let cat = Catalog::new();
        let mut ctx = crate::context::ExecContext::with_batch_size(&cat, 3);
        let source = values_op((0..10).map(|i| row![i]).collect());
        let mut op: BoxedOp =
            Box::new(Project::new(source, vec![xmlpub_algebra::ProjectItem::col(0)]));
        assert!(!op.schema().ptr_eq(&values_op_schema()), "Project computes a fresh output schema");
        op.open(&mut ctx).unwrap();
        let mut batches = 0;
        while let Some(b) = op.next_batch(&mut ctx).unwrap() {
            assert!(b.schema().ptr_eq(op.schema()), "batch must share, not copy, the schema");
            batches += 1;
        }
        op.close(&mut ctx).unwrap();
        assert!(batches >= 3, "expected several batches, got {batches}");
        // The parallel plan template shares it too.
        assert!(op.clone_op().schema().ptr_eq(op.schema()));
    }
}
