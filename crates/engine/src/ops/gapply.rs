//! The GApply physical operator (paper §3).
//!
//! Two phases, exactly as described:
//!
//! 1. **Partition** — the input stream is materialised and partitioned on
//!    the grouping columns, by hashing (first-seen group order) or by
//!    sorting (group-key order — this variant also *guarantees* the
//!    output is clustered by the grouping columns, which the constant
//!    space tagger downstream relies on, making a separate partition/sort
//!    operator above GApply redundant per §3.1).
//! 2. **Execution** — each group becomes a temporary [`Relation`] bound
//!    as the relation-valued parameter `$group`; the per-group plan is
//!    (re)opened against that binding and drained; every result row is
//!    crossed with the group-key values. Serially this is a nested loop;
//!    with a worker template (`dop > 1`) and at least
//!    `PARALLEL_GROUP_THRESHOLD` groups, groups are scheduled as
//!    work-stealing chunks onto scoped worker threads, each worker
//!    running its own instance of the per-group plan, lowered by the
//!    planner from the logical PGQ, and a deterministic merge re-emits
//!    the buffered per-group output in serial group order — so result rows (and the golden XML tagged from
//!    them) are byte-identical at any DOP. This is the engine's only
//!    intra-query parallelism.

use crate::context::ExecContext;
use crate::ops::{next_window, BoxedOp, PhysicalOp};
use crate::parallel::{run_scoped, TaskCursor};
use std::collections::HashMap;
use std::sync::Arc;
use xmlpub_common::{Error, Relation, Result, Schema, Tuple, TupleBatch, Value};

/// How the partition phase groups the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// Hash partitioning; groups come out in first-seen order.
    #[default]
    Hash,
    /// Sort partitioning; groups come out in key order (output is
    /// clustered by the grouping columns).
    Sort,
}

/// Minimum number of groups before the execution phase goes parallel;
/// below this, thread startup would dominate.
const PARALLEL_GROUP_THRESHOLD: usize = 2;

/// A parallel execution phase's worker count and the builder of one
/// worker's own per-group plan instance.
type WorkerTemplate = (usize, Box<dyn Fn() -> Result<BoxedOp> + Send>);

/// The GApply operator.
pub struct GApplyOp {
    input: BoxedOp,
    group_cols: Vec<usize>,
    pgq: BoxedOp,
    strategy: PartitionStrategy,
    /// Present iff the execution phase may run in parallel.
    template: Option<WorkerTemplate>,
    schema: Schema,
    input_schema: Schema,
    groups: Vec<(Tuple, Arc<Relation>)>,
    group_idx: usize,
    pgq_open: bool,
    /// Fully merged output of a parallel execution phase (group order,
    /// emitted as windows); `None` when executing serially.
    merged: Option<Arc<Relation>>,
    merged_pos: usize,
}

impl GApplyOp {
    /// Create a serial GApply over `input`, partitioning on `group_cols`
    /// and running `pgq` per group.
    pub fn new(
        input: BoxedOp,
        group_cols: Vec<usize>,
        pgq: BoxedOp,
        strategy: PartitionStrategy,
    ) -> Self {
        let input_schema = input.schema().clone();
        let key_fields = group_cols.iter().map(|&c| input_schema.field(c).clone()).collect();
        let schema = Schema::new(key_fields).join(pgq.schema());
        GApplyOp {
            input,
            group_cols,
            pgq,
            strategy,
            template: None,
            schema,
            input_schema,
            groups: Vec::new(),
            group_idx: 0,
            pgq_open: false,
            merged: None,
            merged_pos: 0,
        }
    }

    /// Run the execution phase on up to `workers` threads, each with its
    /// own per-group plan built by `build` (a fresh, closed instance
    /// equal to `pgq`, sharing no state with it).
    pub fn parallel(
        mut self,
        workers: usize,
        build: impl Fn() -> Result<BoxedOp> + Send + 'static,
    ) -> Self {
        self.template = Some((workers, Box::new(build)));
        self
    }

    fn partition(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        let mut rows = Vec::new();
        self.input.open(ctx)?;
        while let Some(b) = self.input.next_batch(ctx)? {
            rows.extend(b.into_rows());
        }
        self.input.close(ctx)?;

        let grouped: Vec<(Vec<Value>, Vec<Tuple>)> = match self.strategy {
            PartitionStrategy::Hash => {
                ctx.stats.rows_hashed += rows.len() as u64;
                hash_partition(rows, &self.group_cols)
            }
            PartitionStrategy::Sort => {
                ctx.stats.rows_sorted += rows.len() as u64;
                rows.sort_by(|a, b| cmp_on(a, b, &self.group_cols));
                cluster_sorted(rows, &self.group_cols)
            }
        };

        self.groups = grouped
            .into_iter()
            .map(|(key, rows)| {
                (
                    Tuple::new(key),
                    Arc::new(Relation::from_rows_unchecked(self.input_schema.clone(), rows)),
                )
            })
            .collect();
        Ok(())
    }

    /// The parallel execution phase: schedule groups as work-stealing
    /// chunks onto one scoped worker per plan in `plans`, each running
    /// its own per-group plan over a private context, then merge the
    /// per-group buffers back in serial group order (plus worker stats
    /// and profiles into `ctx`).
    fn execute_parallel(&mut self, plans: Vec<BoxedOp>, ctx: &mut ExecContext<'_>) -> Result<()> {
        let group_count = self.groups.len();
        let cursor =
            TaskCursor::new(group_count, TaskCursor::balanced_chunk(group_count, plans.len()));

        let groups = &self.groups;
        let catalog = ctx.catalog;
        let batch_size = ctx.batch_size;
        // Each worker starts from a snapshot of the enclosing bindings:
        // correlated references (`ctx.outers`) and outer GApply groups
        // (`ctx.groups`) resolve exactly as they would serially.
        let outers = &ctx.outers;
        let outer_groups = &ctx.groups;
        let obs = &ctx.obs;
        let cursor_ref = &cursor;

        type WorkerOutput = (Vec<(usize, Vec<Tuple>)>, crate::ExecStats, Vec<crate::OpProfile>);
        let workers: Vec<_> = plans
            .into_iter()
            .enumerate()
            .map(|(w, mut plan)| {
                move || -> Result<WorkerOutput> {
                    let mut wctx = ExecContext::with_batch_size(catalog, batch_size);
                    // Workers share the parent's metrics registry and
                    // tracer; their spans parent under the same span the
                    // GApply itself reports to.
                    wctx.obs = obs.clone();
                    wctx.outers = outers.clone();
                    wctx.groups = outer_groups.clone();
                    let mut span = obs.tracer.span(
                        "gapply.worker",
                        obs.parent_span,
                        &[("worker", &w.to_string())],
                    );
                    let mut claimed = 0usize;
                    let mut out: Vec<(usize, Vec<Tuple>)> = Vec::new();
                    while let Some(range) = cursor_ref.claim() {
                        claimed += range.len();
                        for gi in range {
                            let (key, group) = &groups[gi];
                            wctx.groups.push(Arc::clone(group));
                            wctx.stats.groups_processed += 1;
                            wctx.stats.pgq_executions += 1;
                            let drained = crate::ops::drain(plan.as_mut(), &mut wctx);
                            wctx.groups.pop();
                            let rows = match drained {
                                Ok(rows) => rows,
                                Err(e) => {
                                    cursor_ref.abort();
                                    return Err(e);
                                }
                            };
                            out.push((gi, rows.iter().map(|r| key.concat(r)).collect()));
                        }
                    }
                    debug_assert!(wctx.groups.len() == outer_groups.len());
                    span.annotate("groups", claimed);
                    Ok((out, wctx.stats, wctx.profiles))
                }
            })
            .collect();

        let results = run_scoped(workers);
        let mut slots: Vec<Option<Vec<Tuple>>> = Vec::with_capacity(group_count);
        slots.resize_with(group_count, || None);
        let mut first_err: Option<Error> = None;
        for result in results {
            match result {
                Ok((per_group, stats, profiles)) => {
                    ctx.stats.merge(&stats);
                    ctx.merge_profiles(&profiles);
                    for (gi, rows) in per_group {
                        slots[gi] = Some(rows);
                    }
                }
                // Worker order is deterministic, so so is the reported
                // error when several workers fail.
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        if let Some(e) = first_err {
            self.groups.clear();
            return Err(e);
        }
        let mut merged = Vec::new();
        for slot in slots {
            merged.extend(slot.expect("all groups executed: no worker reported an error"));
        }
        self.merged = Some(Arc::new(Relation::from_rows_unchecked(self.schema.clone(), merged)));
        Ok(())
    }
}

impl PhysicalOp for GApplyOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.groups.clear();
        self.group_idx = 0;
        self.pgq_open = false;
        self.merged = None;
        self.merged_pos = 0;
        self.partition(ctx)?;
        if let Some((workers, build)) = &self.template {
            if self.groups.len() >= PARALLEL_GROUP_THRESHOLD {
                // Worker plans are built on the calling thread, each a
                // fresh closed tree, so workers never share operator state.
                let plans = (0..(*workers).min(self.groups.len()))
                    .map(|_| build())
                    .collect::<Result<Vec<_>>>()?;
                self.execute_parallel(plans, ctx)?;
            }
        }
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<TupleBatch>> {
        if let Some(buffer) = &self.merged {
            return Ok(next_window(buffer, &self.schema, &mut self.merged_pos, ctx.batch_size));
        }
        loop {
            if self.pgq_open {
                match self.pgq.next_batch(ctx)? {
                    Some(batch) => {
                        let key = &self.groups[self.group_idx].0;
                        let rows = batch.rows().iter().map(|row| key.concat(row)).collect();
                        return Ok(Some(TupleBatch::new(self.schema.clone(), rows)));
                    }
                    None => {
                        self.pgq.close(ctx)?;
                        ctx.groups.pop();
                        self.pgq_open = false;
                        self.group_idx += 1;
                    }
                }
            }
            let Some((_, group)) = self.groups.get(self.group_idx) else {
                return Ok(None);
            };
            ctx.groups.push(Arc::clone(group));
            ctx.stats.groups_processed += 1;
            ctx.stats.pgq_executions += 1;
            if let Err(e) = self.pgq.open(ctx) {
                ctx.groups.pop();
                return Err(e);
            }
            self.pgq_open = true;
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        if self.pgq_open {
            self.pgq.close(ctx)?;
            ctx.groups.pop();
            self.pgq_open = false;
        }
        self.groups.clear();
        self.group_idx = 0;
        self.merged = None;
        self.merged_pos = 0;
        Ok(())
    }
}

fn key_of(row: &Tuple, cols: &[usize]) -> Vec<Value> {
    cols.iter().map(|&c| row.value(c).clone()).collect()
}

/// Hash-partition rows into (key, group) pairs in first-seen key order.
fn hash_partition(rows: Vec<Tuple>, cols: &[usize]) -> Vec<(Vec<Value>, Vec<Tuple>)> {
    let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut order: Vec<(Vec<Value>, Vec<Tuple>)> = Vec::new();
    for row in rows {
        let key = key_of(&row, cols);
        // Probe with a borrowed lookup first: the common case (the group
        // already exists) must not clone the key vector again.
        match index.get(&key) {
            Some(&slot) => order[slot].1.push(row),
            None => {
                index.insert(key.clone(), order.len());
                order.push((key, vec![row]));
            }
        }
    }
    order
}

fn cmp_on(a: &Tuple, b: &Tuple, cols: &[usize]) -> std::cmp::Ordering {
    for &c in cols {
        let ord = a.value(c).total_cmp(b.value(c));
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Linear boundary scan over key-sorted rows → (key, group) pairs in key
/// order.
fn cluster_sorted(rows: Vec<Tuple>, cols: &[usize]) -> Vec<(Vec<Value>, Vec<Tuple>)> {
    let mut order: Vec<(Vec<Value>, Vec<Tuple>)> = Vec::new();
    for row in rows {
        let key = key_of(&row, cols);
        match order.last_mut() {
            Some((last_key, group)) if *last_key == key => group.push(row),
            _ => order.push((key, vec![row])),
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::agg::ScalarAggregate;
    use crate::ops::drain;
    use crate::ops::scan::GroupScan;
    use crate::test_support::{ctx_with, values_op2, values_op2_schema};
    use xmlpub_common::row;
    use xmlpub_expr::{AggExpr, Expr};

    /// Per-group plan: avg of column 1 over the bound group.
    fn avg_pgq() -> BoxedOp {
        Box::new(ScalarAggregate::new(
            Box::new(GroupScan::new(values_op2_schema())),
            vec![AggExpr::avg(Expr::col(1), "a")],
        ))
    }

    fn input_rows() -> Vec<Tuple> {
        vec![row![2, 10.0], row![1, 1.0], row![2, 30.0], row![1, 3.0]]
    }

    #[test]
    fn hash_partitioning_first_seen_order() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let mut g =
            GApplyOp::new(values_op2(input_rows()), vec![0], avg_pgq(), PartitionStrategy::Hash);
        let rows = drain(&mut g, &mut ctx).unwrap();
        assert_eq!(rows, vec![row![2, 20.0], row![1, 2.0]]);
        assert_eq!(ctx.stats.groups_processed, 2);
        assert_eq!(ctx.stats.pgq_executions, 2);
        assert_eq!(ctx.stats.rows_hashed, 4);
    }

    #[test]
    fn sort_partitioning_clusters_by_key() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let mut g =
            GApplyOp::new(values_op2(input_rows()), vec![0], avg_pgq(), PartitionStrategy::Sort);
        let rows = drain(&mut g, &mut ctx).unwrap();
        assert_eq!(rows, vec![row![1, 2.0], row![2, 20.0]]);
        assert_eq!(ctx.stats.rows_sorted, 4);
    }

    #[test]
    fn group_binding_is_popped_after_each_group() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let mut g =
            GApplyOp::new(values_op2(input_rows()), vec![0], avg_pgq(), PartitionStrategy::Hash);
        drain(&mut g, &mut ctx).unwrap();
        assert!(ctx.groups.is_empty());
    }

    #[test]
    fn multi_column_grouping() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let rows = vec![row![1, 1.0], row![1, 1.0], row![1, 2.0]];
        let mut g = GApplyOp::new(
            values_op2(rows),
            vec![0, 1],
            Box::new(ScalarAggregate::new(
                Box::new(GroupScan::new(values_op2_schema())),
                vec![AggExpr::count_star("c")],
            )),
            PartitionStrategy::Sort,
        );
        let out = drain(&mut g, &mut ctx).unwrap();
        assert_eq!(out, vec![row![1, 1.0, 2], row![1, 2.0, 1]]);
    }

    #[test]
    fn empty_input_produces_no_groups() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let mut g = GApplyOp::new(values_op2(vec![]), vec![0], avg_pgq(), PartitionStrategy::Hash);
        assert!(drain(&mut g, &mut ctx).unwrap().is_empty());
        assert_eq!(ctx.stats.groups_processed, 0);
    }

    #[test]
    fn reopen_reprocesses() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let mut g =
            GApplyOp::new(values_op2(input_rows()), vec![0], avg_pgq(), PartitionStrategy::Sort);
        let a = drain(&mut g, &mut ctx).unwrap();
        let b = drain(&mut g, &mut ctx).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_matches_serial_rows_and_stats() {
        let (cat, _) = ctx_with();
        for strategy in [PartitionStrategy::Hash, PartitionStrategy::Sort] {
            let mut serial_ctx = ExecContext::new(&cat);
            let mut serial = GApplyOp::new(values_op2(input_rows()), vec![0], avg_pgq(), strategy);
            let expected = drain(&mut serial, &mut serial_ctx).unwrap();
            for dop in [2, 8] {
                let mut ctx = ExecContext::new(&cat);
                let mut g = GApplyOp::new(values_op2(input_rows()), vec![0], avg_pgq(), strategy)
                    .parallel(dop, || Ok(avg_pgq()));
                let rows = drain(&mut g, &mut ctx).unwrap();
                assert_eq!(rows, expected, "strategy {strategy:?} dop {dop}");
                assert_eq!(ctx.stats, serial_ctx.stats, "strategy {strategy:?} dop {dop}");
                assert!(ctx.groups.is_empty());
            }
        }
    }

    #[test]
    fn parallel_partition_reproduces_serial_group_order() {
        // Many rows per group with interleaved keys, so the per-group
        // merge must restore first-seen (hash) or key (sort) group order.
        let rows: Vec<Tuple> = (0..2000).map(|i| row![(i * 7) % 13, i as f64]).collect();
        let (cat, _) = ctx_with();
        for strategy in [PartitionStrategy::Hash, PartitionStrategy::Sort] {
            let mut serial_ctx = ExecContext::new(&cat);
            let mut serial = GApplyOp::new(values_op2(rows.clone()), vec![0], avg_pgq(), strategy);
            let expected = drain(&mut serial, &mut serial_ctx).unwrap();
            let mut ctx = ExecContext::new(&cat);
            let mut g = GApplyOp::new(values_op2(rows.clone()), vec![0], avg_pgq(), strategy)
                .parallel(4, || Ok(avg_pgq()));
            let got = drain(&mut g, &mut ctx).unwrap();
            assert_eq!(got, expected, "strategy {strategy:?}");
            assert_eq!(ctx.stats, serial_ctx.stats, "strategy {strategy:?}");
        }
    }

    #[test]
    fn single_group_stays_serial() {
        // One group is below PARALLEL_GROUP_THRESHOLD: the parallel path
        // must not engage (merged stays None ⇒ the serial loop runs).
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let mut g = GApplyOp::new(
            values_op2(vec![row![1, 2.0], row![1, 4.0]]),
            vec![0],
            avg_pgq(),
            PartitionStrategy::Hash,
        )
        .parallel(4, || Ok(avg_pgq()));
        g.open(&mut ctx).unwrap();
        assert!(g.merged.is_none());
        let rows = crate::ops::collect_remaining(&mut g, &mut ctx).unwrap();
        g.close(&mut ctx).unwrap();
        assert_eq!(rows, vec![row![1, 3.0]]);
    }

    /// A per-group plan that panics on `next_batch` — drives the
    /// worker-failure path.
    struct PanicOp {
        schema: Schema,
    }

    impl PhysicalOp for PanicOp {
        fn schema(&self) -> &Schema {
            &self.schema
        }
        fn open(&mut self, _ctx: &mut ExecContext<'_>) -> Result<()> {
            Ok(())
        }
        fn next_batch(&mut self, _ctx: &mut ExecContext<'_>) -> Result<Option<TupleBatch>> {
            panic!("pgq blew up mid-group")
        }
        fn close(&mut self, _ctx: &mut ExecContext<'_>) -> Result<()> {
            Ok(())
        }
    }

    /// A per-group plan that fails with a plain `Err` on open.
    struct FailOp {
        schema: Schema,
    }

    impl PhysicalOp for FailOp {
        fn schema(&self) -> &Schema {
            &self.schema
        }
        fn open(&mut self, _ctx: &mut ExecContext<'_>) -> Result<()> {
            Err(Error::exec("pgq refuses to open"))
        }
        fn next_batch(&mut self, _ctx: &mut ExecContext<'_>) -> Result<Option<TupleBatch>> {
            Ok(None)
        }
        fn close(&mut self, _ctx: &mut ExecContext<'_>) -> Result<()> {
            Ok(())
        }
    }

    #[test]
    fn worker_panic_surfaces_as_error_and_poisons_nothing() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let mut g = GApplyOp::new(
            values_op2(input_rows()),
            vec![0],
            Box::new(PanicOp { schema: values_op2_schema() }),
            PartitionStrategy::Hash,
        )
        .parallel(2, || Ok(Box::new(PanicOp { schema: values_op2_schema() })));
        let err = g.open(&mut ctx).unwrap_err().to_string();
        assert!(err.contains("panicked") && err.contains("pgq blew up"), "{err}");
        g.close(&mut ctx).unwrap();
        // Nothing poisoned: the binding stack is clean and the same
        // context runs a healthy parallel plan afterwards.
        assert!(ctx.groups.is_empty());
        let mut healthy =
            GApplyOp::new(values_op2(input_rows()), vec![0], avg_pgq(), PartitionStrategy::Hash)
                .parallel(2, || Ok(avg_pgq()));
        let rows = drain(&mut healthy, &mut ctx).unwrap();
        assert_eq!(rows, vec![row![2, 20.0], row![1, 2.0]]);
    }

    #[test]
    fn worker_error_surfaces_as_error() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let mut g = GApplyOp::new(
            values_op2(input_rows()),
            vec![0],
            Box::new(FailOp { schema: values_op2_schema() }),
            PartitionStrategy::Sort,
        )
        .parallel(2, || Ok(Box::new(FailOp { schema: values_op2_schema() })));
        let err = g.open(&mut ctx).unwrap_err().to_string();
        assert!(err.contains("refuses to open"), "{err}");
        g.close(&mut ctx).unwrap();
        assert!(ctx.groups.is_empty());
    }
}
