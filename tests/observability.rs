//! Differential observability tests: tracing must be a pure observer.
//!
//! Two properties are pinned here:
//!
//! 1. **Results are untouched** — a traced run (metrics + spans on)
//!    returns bag-identical relations and *byte-identical* published
//!    XML versus an untraced run, at dop 1 and dop 4.
//! 2. **The span tree is deterministic** — after normalization (span
//!    ids, timings, and the dop-dependent `gapply.worker` spans
//!    elided), a traced run at dop 4 produces exactly the span tree of
//!    the dop-1 run.

use xmlpub::xml::supplier_parts_view;
use xmlpub::{
    BufferSink, Database, MetricsHandle, ObsContext, OptimizerConfig, SpanRecord, TraceHandle,
};
use xmlpub_testkit::normalize::normalized_span_tree;

/// A gapply query the optimizer would rewrite away; run with no rules
/// (`raw`) so a real GApply (and its parallel path at dop > 1)
/// executes.
const Q: &str = "select gapply(select p_name from g where p_retailprice > 1200.0) \
                 from partsupp, part where ps_partkey = p_partkey group by ps_suppkey : g";

fn traced_db(dop: usize, raw: bool) -> (Database, BufferSink) {
    let mut db = Database::tpch(0.001).unwrap();
    db.config_mut().engine.dop = dop;
    if raw {
        db.config_mut().optimizer = OptimizerConfig::none();
    }
    let sink = BufferSink::new();
    db.set_observability(ObsContext {
        metrics: MetricsHandle::new_registry(),
        tracer: TraceHandle::new(Box::new(sink.clone())),
        parent_span: 0,
    });
    (db, sink)
}

fn tree_of(sink: &BufferSink) -> String {
    normalized_span_tree(&sink.contents()).expect("trace output must parse")
}

#[test]
fn traced_query_results_and_span_tree_are_dop_invariant() {
    let mut untraced = Database::tpch(0.001).unwrap();
    untraced.config_mut().optimizer = OptimizerConfig::none();
    let baseline = untraced.sql(Q).unwrap();

    let mut trees = Vec::new();
    for dop in [1usize, 4] {
        let (db, sink) = traced_db(dop, true);
        let traced = db.sql(Q).unwrap();
        assert!(traced.bag_eq(&baseline), "dop={dop}:\n{}", traced.bag_diff(&baseline));
        trees.push(tree_of(&sink));
    }
    assert_eq!(trees[0], trees[1], "span tree differs between dop 1 and dop 4");
    // The normalized tree still shows the lifecycle and the operators.
    let tree = &trees[0];
    for needle in ["query", "parse", "execute", "op:GApply"] {
        assert!(tree.contains(needle), "missing {needle:?} in:\n{tree}");
    }
}

#[test]
fn traced_publish_is_byte_identical_and_dop_invariant() {
    let untraced = Database::tpch(0.001).unwrap();
    let view = supplier_parts_view(untraced.catalog()).unwrap();
    let golden = untraced.publish(&view, true).unwrap();

    let mut trees = Vec::new();
    for dop in [1usize, 4] {
        let (db, sink) = traced_db(dop, false);
        let view = supplier_parts_view(db.catalog()).unwrap();
        let traced = db.publish(&view, true).unwrap();
        assert_eq!(traced, golden, "traced publish diverges at dop={dop}");
        trees.push(tree_of(&sink));
    }
    assert_eq!(trees[0], trees[1], "publish span tree differs between dop 1 and dop 4");
    let tree = &trees[0];
    for needle in ["publish", "optimize", "execute", "tag", "op:"] {
        assert!(tree.contains(needle), "missing {needle:?} in:\n{tree}");
    }
}

/// Optimizer rule firings appear as `rule:<name>` spans under
/// `optimize`, and the per-rule counters agree with the span count.
#[test]
fn rule_firings_trace_and_count_consistently() {
    let (db, sink) = traced_db(1, false);
    db.sql(
        "select gapply(select avg(p_retailprice) from g) \
         from partsupp, part where ps_partkey = p_partkey group by ps_suppkey : g",
    )
    .unwrap();
    let records = SpanRecord::parse_all(&sink.contents()).unwrap();
    let rule_spans = records.iter().filter(|r| r.name.starts_with("rule:")).count();
    assert!(rule_spans > 0, "expected rule firings in the trace");
    let snap = db.observability().metrics.snapshot().unwrap();
    let fired: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("optimizer.rule_fired."))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(fired, rule_spans as u64, "rule counters disagree with rule spans");
}

/// Metrics alone (no tracer) must also leave results untouched — and
/// the registry totals must be identical across dop, because per-worker
/// folds are order-independent.
#[test]
fn metrics_rows_counters_are_dop_invariant() {
    let mut counts = Vec::new();
    for dop in [1usize, 4] {
        let mut db = Database::tpch(0.001).unwrap();
        db.config_mut().engine.dop = dop;
        db.config_mut().optimizer = OptimizerConfig::none();
        // profile_ops so the engine-level counters record.
        db.config_mut().engine.profile_ops = true;
        db.set_observability(ObsContext::with_metrics());
        db.sql(Q).unwrap();
        let snap = db.observability().metrics.snapshot().unwrap();
        counts.push((snap.counter("engine.rows_out"), snap.counter("engine.batches")));
    }
    assert_eq!(counts[0].0, counts[1].0, "rows_out differs across dop: {counts:?}");
    assert!(counts[0].0.unwrap_or(0) > 0);
}
