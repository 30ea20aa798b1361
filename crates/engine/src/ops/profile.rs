//! A transparent profiling decorator.
//!
//! When `EngineConfig::profile_ops` is set, the planner wraps every
//! operator it builds in a [`Profiled`] that counts `open`/`next_batch`/
//! `close` calls, batches, rows and wall time into the context's
//! [`OpProfile`](crate::context::OpProfile) slot for the operator's
//! pre-order plan position. When the flag is off the decorator is simply
//! never constructed, so profiling costs nothing.
//!
//! Timing is **monotonic-safe** (clock anomalies clamp a call to zero
//! via `saturating_ns_since` rather than panicking or going negative)
//! and **exclusive-time correct**: the context keeps a stack of active
//! `Profiled` frames, each call's elapsed time is charged to its own
//! slot's `total_ns` *and* to the enclosing frame's `child_ns`, and
//! `self_ns()` is the saturating difference — so rendering self-times
//! over a nested plan (a GApply running `Profiled` subtrees per group
//! included) never double-counts a nanosecond.
//!
//! When the context carries an enabled metrics registry, the decorator
//! also feeds engine-wide row/batch counters. The counter handles are
//! resolved once on first `open` and cached, keeping the per-batch cost
//! to a relaxed atomic add.

use super::{BoxedOp, PhysicalOp};
use crate::context::ExecContext;
use std::sync::Arc;
use std::time::Instant;
use xmlpub_common::{Result, Schema, TupleBatch};
use xmlpub_obs::{saturating_ns_since, Counter};

/// Counts calls, rows and wall time around an inner operator.
pub struct Profiled {
    inner: BoxedOp,
    id: usize,
    label: String,
    depth: usize,
    /// Cached `engine.rows_out` counter, resolved on first open when the
    /// context's metrics handle is live.
    rows_counter: Option<Arc<Counter>>,
    /// Cached `engine.batches` counter, ditto.
    batches_counter: Option<Arc<Counter>>,
}

impl Profiled {
    /// Wrap `inner` as plan node `id` (pre-order) at `depth`.
    pub fn new(inner: BoxedOp, id: usize, label: impl Into<String>, depth: usize) -> Self {
        Profiled {
            inner,
            id,
            label: label.into(),
            depth,
            rows_counter: None,
            batches_counter: None,
        }
    }

    /// Charge `elapsed` to this operator's slot and to the enclosing
    /// frame's `child_ns` (if any). `parent` is the frame that was on
    /// top of the stack when this call started.
    fn charge(&self, ctx: &mut ExecContext<'_>, parent: Option<usize>, elapsed: u64) {
        let p = ctx.profile_mut(self.id, &self.label, self.depth);
        p.total_ns = p.total_ns.saturating_add(elapsed);
        if let Some(pid) = parent {
            // The parent's slot exists: pre-order parents have smaller
            // ids, and `profile_mut` above grew the vector past ours.
            let pp = &mut ctx.profiles[pid];
            pp.child_ns = pp.child_ns.saturating_add(elapsed);
        }
    }
}

impl PhysicalOp for Profiled {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        if self.rows_counter.is_none() && ctx.obs.metrics.enabled() {
            self.rows_counter = ctx.obs.metrics.counter("engine.rows_out");
            self.batches_counter = ctx.obs.metrics.counter("engine.batches");
        }
        let parent = ctx.op_stack.last().copied();
        ctx.op_stack.push(self.id);
        let start = Instant::now();
        let r = self.inner.open(ctx);
        let elapsed = saturating_ns_since(start);
        ctx.op_stack.pop();
        self.charge(ctx, parent, elapsed);
        ctx.profile_mut(self.id, &self.label, self.depth).opens += 1;
        r
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<TupleBatch>> {
        let parent = ctx.op_stack.last().copied();
        ctx.op_stack.push(self.id);
        let start = Instant::now();
        let r = self.inner.next_batch(ctx);
        let elapsed = saturating_ns_since(start);
        ctx.op_stack.pop();
        self.charge(ctx, parent, elapsed);
        let r = r?;
        if let Some(b) = &r {
            debug_assert!(
                !b.is_empty(),
                "operator {} produced an empty batch (exhaustion must be None)",
                self.label
            );
        }
        let p = ctx.profile_mut(self.id, &self.label, self.depth);
        p.next_calls += 1;
        if let Some(b) = &r {
            p.batches += 1;
            p.rows_out += b.len() as u64;
            if let Some(c) = &self.rows_counter {
                c.add(b.len() as u64);
            }
            if let Some(c) = &self.batches_counter {
                c.add(1);
            }
        }
        Ok(r)
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        let parent = ctx.op_stack.last().copied();
        ctx.op_stack.push(self.id);
        let start = Instant::now();
        let r = self.inner.close(ctx);
        let elapsed = saturating_ns_since(start);
        ctx.op_stack.pop();
        self.charge(ctx, parent, elapsed);
        r?;
        ctx.profile_mut(self.id, &self.label, self.depth).closes += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::drain;
    use crate::test_support::{ctx_with, values_op};
    use std::time::Duration;
    use xmlpub_common::row;

    /// Delegates to its inner operator but burns a fixed amount of its
    /// *own* time per `next_batch` — so the test can distinguish
    /// exclusive time from inherited child time.
    struct SlowPassThrough {
        inner: BoxedOp,
        own_work: Duration,
    }

    impl PhysicalOp for SlowPassThrough {
        fn schema(&self) -> &Schema {
            self.inner.schema()
        }
        fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
            self.inner.open(ctx)
        }
        fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<TupleBatch>> {
            std::thread::sleep(self.own_work);
            self.inner.next_batch(ctx)
        }
        fn close(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
            self.inner.close(ctx)
        }
    }

    /// Hand-built two-level (plus leaf) profiled plan:
    ///
    /// ```text
    /// Profiled#0(outer pass-through)
    ///   Profiled#1(inner pass-through)
    ///     Profiled#2(Values)
    /// ```
    ///
    /// Pins the exclusive-time invariants: a parent's `child_ns` is
    /// *exactly* the sum of its direct children's `total_ns` (the same
    /// measured values go to both sides), so summing `self_ns` over the
    /// tree reproduces the root's `total_ns` with no double counting —
    /// the nested-plan accounting bug this decorator used to have.
    #[test]
    fn nested_profiled_plan_times_exclusively() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let leaf = Box::new(Profiled::new(values_op(vec![row![1], row![2]]), 2, "Values", 2));
        let inner = Box::new(Profiled::new(
            Box::new(SlowPassThrough { inner: leaf, own_work: Duration::from_millis(2) }),
            1,
            "Inner",
            1,
        ));
        let mut outer = Profiled::new(
            Box::new(SlowPassThrough { inner, own_work: Duration::from_millis(2) }),
            0,
            "Outer",
            0,
        );
        let rows = drain(&mut outer, &mut ctx).unwrap();
        assert_eq!(rows.len(), 2);

        let p = &ctx.profiles;
        assert_eq!(p.len(), 3);
        // Exact attribution: each child call's elapsed time lands in the
        // child's total AND the parent's child_ns, so these are equal —
        // not approximately, identically.
        assert_eq!(p[0].child_ns, p[1].total_ns);
        assert_eq!(p[1].child_ns, p[2].total_ns);
        // No double counting: exclusive times over the tree sum back to
        // the root's inclusive time.
        assert_eq!(p[0].self_ns() + p[1].self_ns() + p[2].self_ns(), p[0].total_ns);
        // Both pass-throughs did ≥ 2ms of their own work (one sleep per
        // next_batch, and there is at least one next_batch call).
        assert!(p[0].self_ns() >= 2_000_000, "outer self {}ns", p[0].self_ns());
        assert!(p[1].self_ns() >= 2_000_000, "inner self {}ns", p[1].self_ns());
        // Nesting is properly ordered.
        assert!(p[0].total_ns >= p[1].total_ns);
        assert!(p[1].total_ns >= p[2].total_ns);
    }

    /// `self_ns` saturates rather than underflowing, even if merged
    /// profile fragments ever produced child_ns > total_ns.
    #[test]
    fn self_time_saturates() {
        let p = crate::OpProfile { total_ns: 10, child_ns: 25, ..Default::default() };
        assert_eq!(p.self_ns(), 0);
    }

    /// Worker-collected profiles merge times into the same slots.
    #[test]
    fn merge_profiles_folds_times() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        ctx.profile_mut(0, "Op", 0).total_ns = 100;
        ctx.profiles[0].child_ns = 40;
        let worker = vec![crate::OpProfile {
            label: "Op".into(),
            total_ns: 7,
            child_ns: 3,
            ..Default::default()
        }];
        ctx.merge_profiles(&worker);
        assert_eq!(ctx.profiles[0].total_ns, 107);
        assert_eq!(ctx.profiles[0].child_ns, 43);
        assert_eq!(ctx.profiles[0].self_ns(), 64);
    }

    /// Metrics reporting: rows flowing through a profiled plan land in
    /// the context registry via the cached counter.
    #[test]
    fn profiled_reports_rows_into_metrics() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let obs = xmlpub_obs::ObsContext::with_metrics();
        ctx.obs = obs.clone();
        let mut op = Profiled::new(values_op(vec![row![1], row![2], row![3]]), 0, "Values", 0);
        let rows = drain(&mut op, &mut ctx).unwrap();
        assert_eq!(rows.len(), 3);
        let snap = obs.metrics.snapshot().unwrap();
        assert_eq!(snap.counter("engine.rows_out"), Some(3));
        assert!(snap.counter("engine.batches").unwrap() >= 1);
    }
}
