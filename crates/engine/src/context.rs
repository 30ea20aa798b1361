//! Execution context: runtime parameter bindings and counters.

use std::fmt::Write as _;
use std::sync::Arc;
use xmlpub_algebra::Catalog;
use xmlpub_common::{Error, Relation, Result, Tuple, DEFAULT_BATCH_SIZE};
use xmlpub_obs::ObsContext;

/// Counters the engine maintains while executing. They make the paper's
/// redundancy argument *measurable*: the classic sorted-outer-union plan
/// for Q1 scans `partsupp ⋈ part` twice and the Q2 plan re-evaluates the
/// average subquery per outer row, all of which shows up in
/// `rows_scanned`, `join_probes` and `apply_inner_executions`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows produced by base-table scans.
    pub rows_scanned: u64,
    /// Rows produced by group (temporary relation) scans.
    pub group_rows_scanned: u64,
    /// Probe-side rows processed by joins.
    pub join_probes: u64,
    /// Number of groups the GApply execution phase processed.
    pub groups_processed: u64,
    /// Per-group query executions (one per group per GApply).
    pub pgq_executions: u64,
    /// Inner-plan executions performed by Apply operators.
    pub apply_inner_executions: u64,
    /// Inner-plan executions Apply answered from its uncorrelated cache.
    pub apply_cache_hits: u64,
    /// Tuples written into sort buffers.
    pub rows_sorted: u64,
    /// Tuples inserted into hash tables (joins, aggregates, distinct,
    /// hash partitioning).
    pub rows_hashed: u64,
    /// Plan-cache hits for this request. The engine itself never sets
    /// this: the serving layer (`xmlpub-server`) stamps it so cache
    /// behaviour surfaces through the same `ExecStats` plumbing as the
    /// engine counters (`\stats`, `\explain --analyze`).
    pub plan_cache_hits: u64,
    /// Plan-cache misses for this request (see `plan_cache_hits`).
    pub plan_cache_misses: u64,
}

impl ExecStats {
    /// Reset all counters.
    pub fn clear(&mut self) {
        *self = ExecStats::default();
    }

    /// Fold another counter set into this one (field-wise sum) — how a
    /// parallel GApply reconciles per-worker counters into the root
    /// context, so a parallel run reports the same totals as a serial
    /// one.
    pub fn merge(&mut self, other: &ExecStats) {
        self.rows_scanned += other.rows_scanned;
        self.group_rows_scanned += other.group_rows_scanned;
        self.join_probes += other.join_probes;
        self.groups_processed += other.groups_processed;
        self.pgq_executions += other.pgq_executions;
        self.apply_inner_executions += other.apply_inner_executions;
        self.apply_cache_hits += other.apply_cache_hits;
        self.rows_sorted += other.rows_sorted;
        self.rows_hashed += other.rows_hashed;
        self.plan_cache_hits += other.plan_cache_hits;
        self.plan_cache_misses += other.plan_cache_misses;
    }

    /// Render the counters that are invariant across engine knobs —
    /// everything except the plan-cache pair, which records how *this*
    /// request was planned (cold vs. warm cache) rather than what the
    /// engine did. Snapshot tests pin this line byte-for-byte across
    /// the whole batch × dop × cache × trace matrix.
    pub fn snapshot_line(&self) -> String {
        format!(
            "rows_scanned={} group_rows_scanned={} join_probes={} groups_processed={} \
             pgq_executions={} apply_inner_executions={} apply_cache_hits={} rows_sorted={} \
             rows_hashed={}",
            self.rows_scanned,
            self.group_rows_scanned,
            self.join_probes,
            self.groups_processed,
            self.pgq_executions,
            self.apply_inner_executions,
            self.apply_cache_hits,
            self.rows_sorted,
            self.rows_hashed
        )
    }
}

/// Per-operator runtime counters, collected when the planner wraps each
/// operator in a [`Profiled`](crate::ops::Profiled) decorator
/// (`EngineConfig::profile_ops`). Indexed by the operator's pre-order
/// position in the physical plan, so the vector renders back into the
/// plan tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpProfile {
    /// Display label (operator name + salient argument).
    pub label: String,
    /// Depth in the plan tree (root = 0); used for rendering and for
    /// attributing child output as parent input.
    pub depth: usize,
    /// `open` calls (GApply re-opens its per-group plan once per group).
    pub opens: u64,
    /// `next_batch` calls, including the final `None`.
    pub next_calls: u64,
    /// `close` calls.
    pub closes: u64,
    /// Non-empty batches produced.
    pub batches: u64,
    /// Total rows produced.
    pub rows_out: u64,
    /// Wall time spent inside this operator's `open`/`next_batch`/
    /// `close` calls, **including** time spent in child operators
    /// (saturating; clock anomalies clamp to 0 per call).
    pub total_ns: u64,
    /// The portion of `total_ns` spent inside *direct child* operator
    /// calls. Each child call's elapsed time is added both to the
    /// child's `total_ns` and to this field of its parent, so the two
    /// sides of the subtraction in [`self_ns`](Self::self_ns) are the
    /// same measured values — exclusive time never double-counts a
    /// nested plan (the per-group subtree under GApply included).
    pub child_ns: u64,
}

impl OpProfile {
    /// Exclusive time: wall time in this operator minus time attributed
    /// to its direct children. Saturating, so measurement jitter can
    /// never produce an underflowed garbage value.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

/// Runtime state threaded through every operator call.
pub struct ExecContext<'a> {
    /// The catalog backing base-table scans.
    pub catalog: &'a Catalog,
    /// Stack of bound relation-valued parameters (`$group`); the
    /// innermost enclosing GApply's group is last.
    pub groups: Vec<Arc<Relation>>,
    /// Stack of Apply outer rows (innermost last) read by
    /// `Expr::Correlated` references.
    pub outers: Vec<Tuple>,
    /// Execution counters.
    pub stats: ExecStats,
    /// Target rows per batch (≥ 1); 1 degenerates to tuple-at-a-time.
    pub batch_size: usize,
    /// Per-operator profiles, indexed by plan pre-order id; empty unless
    /// the plan was built with `profile_ops`.
    pub profiles: Vec<OpProfile>,
    /// Observability handles (metrics + tracing) plus the span to parent
    /// engine spans under. `Default` is fully disabled.
    pub obs: ObsContext,
    /// Plan ids of the `Profiled` frames currently on the call stack
    /// (innermost last); lets a child operator's elapsed time be
    /// attributed to its parent's `child_ns` for exclusive-time
    /// accounting.
    pub op_stack: Vec<usize>,
}

impl<'a> ExecContext<'a> {
    /// A fresh context over a catalog with the default batch size.
    pub fn new(catalog: &'a Catalog) -> Self {
        Self::with_batch_size(catalog, DEFAULT_BATCH_SIZE)
    }

    /// A fresh context with an explicit batch-size target (clamped ≥ 1).
    pub fn with_batch_size(catalog: &'a Catalog, batch_size: usize) -> Self {
        ExecContext {
            catalog,
            groups: Vec::new(),
            outers: Vec::new(),
            stats: ExecStats::default(),
            batch_size: batch_size.max(1),
            profiles: Vec::new(),
            obs: ObsContext::disabled(),
            op_stack: Vec::new(),
        }
    }

    /// The currently bound group relation (innermost GApply).
    pub fn current_group(&self) -> Result<&Arc<Relation>> {
        self.groups.last().ok_or_else(|| {
            Error::exec("no relation-valued parameter bound (GroupScan outside GApply?)")
        })
    }

    /// The profile slot for operator `id`, growing the vector and fixing
    /// the label/depth on first touch.
    pub fn profile_mut(&mut self, id: usize, label: &str, depth: usize) -> &mut OpProfile {
        if id >= self.profiles.len() {
            self.profiles.resize_with(id + 1, OpProfile::default);
        }
        let p = &mut self.profiles[id];
        if p.label.is_empty() {
            p.label = label.to_string();
            p.depth = depth;
        }
        p
    }

    /// Fold per-operator profiles collected by a worker context into
    /// this one. Worker plans are lowered from the same pre-order id as
    /// the serial per-group plan, so counters land in the same slots
    /// `\explain --analyze` renders.
    pub fn merge_profiles(&mut self, other: &[OpProfile]) {
        for (id, p) in other.iter().enumerate() {
            // Untouched slots (ids outside the worker's subplan) carry
            // no label and no counts; skip them so labels/depths of
            // operators the worker never ran stay authoritative.
            if p.label.is_empty() {
                continue;
            }
            let label = p.label.clone();
            let slot = self.profile_mut(id, &label, p.depth);
            slot.opens += p.opens;
            slot.next_calls += p.next_calls;
            slot.closes += p.closes;
            slot.batches += p.batches;
            slot.rows_out += p.rows_out;
            slot.total_ns = slot.total_ns.saturating_add(p.total_ns);
            slot.child_ns = slot.child_ns.saturating_add(p.child_ns);
        }
    }
}

/// Synthesize one trace span per profiled operator under `parent`,
/// reconstructing the plan tree from the profiles' pre-order ids and
/// depths. Operator times are measured by [`Profiled`](crate::ops::Profiled)
/// during execution and emitted here after the fact, so the
/// hot path never touches the tracer. `start_us` is the emission time
/// for every span (only durations are meaningful); `rows_out` is
/// deterministic across DOP, timings are not — consumers normalizing
/// span trees should compare `rows_out` and ignore `*_us`.
pub fn emit_operator_spans(
    tracer: &xmlpub_obs::TraceHandle,
    parent: xmlpub_obs::SpanId,
    profiles: &[OpProfile],
) {
    if !tracer.enabled() {
        return;
    }
    let base = tracer.now_us();
    let mut stack: Vec<(usize, xmlpub_obs::SpanId)> = Vec::new();
    for p in profiles {
        if p.label.is_empty() {
            continue;
        }
        while stack.last().is_some_and(|&(d, _)| d >= p.depth) {
            stack.pop();
        }
        let span_parent = stack.last().map_or(parent, |&(_, id)| id);
        let id = tracer.emit_span(
            &format!("op:{}", p.label),
            span_parent,
            base,
            p.total_ns / 1_000,
            &[
                ("rows_out", &p.rows_out.to_string()),
                ("self_us", &(p.self_ns() / 1_000).to_string()),
            ],
        );
        stack.push((p.depth, id));
    }
}

/// Render collected per-operator profiles as an indented plan tree with
/// `rows_in` computed from each operator's immediate children.
pub fn render_profiles(profiles: &[OpProfile]) -> String {
    let mut out = String::new();
    for (i, p) in profiles.iter().enumerate() {
        // Immediate children: the ops that follow in pre-order at
        // depth + 1, up to the next op at our depth or shallower.
        let mut rows_in = 0u64;
        for c in &profiles[i + 1..] {
            if c.depth <= p.depth {
                break;
            }
            if c.depth == p.depth + 1 {
                rows_in += c.rows_out;
            }
        }
        let _ = writeln!(
            out,
            "{:indent$}{}  rows_in={} rows_out={} batches={} open={} next={} close={} \
             time_us={} self_us={}",
            "",
            p.label,
            rows_in,
            p.rows_out,
            p.batches,
            p.opens,
            p.next_calls,
            p.closes,
            p.total_ns / 1_000,
            p.self_ns() / 1_000,
            indent = 2 * p.depth,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlpub_common::{row, DataType, Field, Schema};

    #[test]
    fn current_group_requires_binding() {
        let cat = Catalog::new();
        let mut ctx = ExecContext::new(&cat);
        assert!(ctx.current_group().is_err());
        let rel = Relation::new(Schema::new(vec![Field::new("x", DataType::Int)]), vec![row![1]])
            .unwrap();
        ctx.groups.push(Arc::new(rel));
        assert_eq!(ctx.current_group().unwrap().len(), 1);
    }

    #[test]
    fn stats_clear() {
        let mut s = ExecStats { rows_scanned: 5, ..Default::default() };
        s.clear();
        assert_eq!(s, ExecStats::default());
    }

    #[test]
    fn batch_size_defaults_and_clamps() {
        let cat = Catalog::new();
        assert_eq!(ExecContext::new(&cat).batch_size, DEFAULT_BATCH_SIZE);
        assert_eq!(ExecContext::with_batch_size(&cat, 0).batch_size, 1);
        assert_eq!(ExecContext::with_batch_size(&cat, 7).batch_size, 7);
    }

    #[test]
    fn profiles_grow_and_render() {
        let cat = Catalog::new();
        let mut ctx = ExecContext::new(&cat);
        ctx.profile_mut(1, "TableScan(t)", 1).rows_out = 10;
        ctx.profile_mut(0, "Filter", 0).rows_out = 4;
        let text = render_profiles(&ctx.profiles);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("Filter"), "{text}");
        assert!(lines[0].contains("rows_in=10"), "{text}");
        assert!(lines[1].starts_with("  TableScan(t)"), "{text}");
        assert!(lines[1].contains("rows_in=0"), "{text}");
    }
}
