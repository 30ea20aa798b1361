//! Golden tests for the human-facing reports: the `\explain --analyze`
//! operator breakdown and the `\metrics` text exposition. Timings vary
//! run to run, so every timing field is normalized to `_` before
//! comparison — everything else (plan shape, row counts, counter
//! values, metric names) is pinned exactly.

use xmlpub::Database;
use xmlpub_server::{Server, ServerConfig};
use xmlpub_testkit::normalize::normalize_timings;

#[test]
fn analyze_report_matches_golden() {
    let db = Database::tpch(0.001).unwrap();
    let (result, report) = db
        .sql_analyzed(
            "select gapply(select p_name, max(p_retailprice) from g group by p_name) \
             from partsupp, part where ps_partkey = p_partkey group by ps_suppkey : g",
        )
        .unwrap();
    assert!(!result.rows().is_empty());
    // The optimizer rewrites the per-group aggregate into a plain
    // GroupBy over the join, and the join keeps only the three columns
    // the GroupBy reads (the engine fuses that projection into it) —
    // the report pins that plan, the exact per-operator row counts, and
    // the engine counters.
    let expected = "\
== optimized plan ==
GroupBy keys=[partsupp.ps_suppkey, part.p_name] aggs=[max(part.p_retailprice)]
  Project [partsupp.ps_suppkey, part.p_name, part.p_retailprice]
    Join (fk) on (partsupp.ps_partkey = part.p_partkey)
      Scan partsupp
      Scan part

== operators (analyze) ==
HashAggregate  rows_in=800 rows_out=800 batches=1 open=1 next=2 close=1 time_us=_ self_us=_
  HashJoin out=3/11  rows_in=1000 rows_out=800 batches=1 open=1 next=2 close=1 time_us=_ self_us=_
    TableScan(partsupp)  rows_in=0 rows_out=800 batches=1 open=1 next=2 close=1 time_us=_ self_us=_
    TableScan(part)  rows_in=0 rows_out=200 batches=1 open=1 next=2 close=1 time_us=_ self_us=_

== engine counters ==
  batch size 1024
  ExecStats { rows_scanned: 1000, group_rows_scanned: 0, join_probes: 800, \
groups_processed: 0, pgq_executions: 0, apply_inner_executions: 0, apply_cache_hits: 0, \
rows_sorted: 0, rows_hashed: 1000, plan_cache_hits: 0, plan_cache_misses: 0 }
";
    assert_eq!(normalize_timings(&report), expected, "normalized report:\n{report}");
}

#[test]
fn metrics_exposition_matches_golden() {
    let mut db = Database::tpch(0.001).unwrap();
    // Pin the database-level observability so the golden set of metric
    // names is identical whether or not the suite runs under
    // XMLPUB_TRACE=1 (tracing adds engine.* counters to the registry).
    db.set_observability(xmlpub::ObsContext::disabled());
    let server = Server::new(
        db,
        // dop_budget is pinned (auto would derive dop_cap from the
        // machine's core count and break the golden across hosts).
        ServerConfig {
            workers: 2,
            dop_budget: 2,
            slow_query_us: 1_000_000,
            ..ServerConfig::default()
        },
    );
    let session = server.session();
    session.execute("select p_name from part where p_retailprice > 1500.0").unwrap();
    session.execute("select p_name from part where p_retailprice > 1500.0").unwrap();
    let view = xmlpub::xml::supplier_parts_view(server.database().catalog()).unwrap();
    session.publish(&view, false).unwrap();

    // `pool.executed` is bumped after the job body returns (the caller
    // already has its result by then) — wait for the counter to settle
    // so the gauge below is deterministic.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while server.stats().pool.executed < 3 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }

    let expected = "# xmlpub metrics v1\n\
                    counter server.publish.count 1\n\
                    counter server.query.count 2\n\
                    gauge server.cache.entries 2\n\
                    gauge server.cache.evictions 0\n\
                    gauge server.cache.hits 1\n\
                    gauge server.cache.misses 2\n\
                    gauge server.dop_cap 1\n\
                    gauge server.pool.admitted 3\n\
                    gauge server.pool.executed 3\n\
                    gauge server.pool.in_queue 0\n\
                    gauge server.pool.panicked 0\n\
                    gauge server.pool.shed 0\n\
                    gauge server.slow.seen 0\n\
                    gauge server.slow.threshold_us _\n\
                    gauge server.workers 2\n\
                    histogram server.publish_us count=1 sum_us=_ buckets=_\n\
                    histogram server.query_us count=2 sum_us=_ buckets=_\n";
    let text = server.metrics_text();
    assert_eq!(normalize_timings(&text), expected, "normalized exposition:\n{text}");
}
