//! The matrix runner: execute one [`Scenario`] across every knob cell
//! and prove all cells render byte-identical output, then pin that
//! output against the scenario's `.snap` file.
//!
//! Each cell gets a fresh [`Database`] (so updates replay from the same
//! base state) and a fresh [`Server`] built from
//! [`ServerConfig::deterministic`], with the session's `engine.dop` and
//! `engine.batch_size` set to the cell's knobs. Warm-cache cells first
//! prime the shared plan cache by running every read-only statement
//! once; trace cells attach a real tracer with a buffer sink and assert
//! spans were recorded. Every `republish` is additionally checked
//! inside every cell against `publish`: the republished document must
//! equal a publish of the same view, with the same `pretty` flag, at the
//! same catalog state, byte for byte.

use std::collections::HashSet;

use xmlpub::xml::{named_view, XmlView};
use xmlpub::{
    BufferSink, Database, ExecStats, MetricsHandle, ObsContext, Relation, Schema, SpanRecord,
    TableDef, TraceHandle, Value,
};
use xmlpub_common::{DeltaBatch, Field, Tuple};
use xmlpub_server::{RepublishOutcome, Server, ServerConfig, Session};

use crate::normalize;
use crate::scenario::{CacheMode, Cell, Expect, Scenario, Setup, Stmt, TableSpec, UpdateOp};
use crate::snapshot::unified_diff;

/// Run every cell of the scenario's matrix and return the (identical)
/// rendered output. Errors carry the first diverging cell pair as a
/// unified diff, or the failing statement's context.
pub fn render_scenario(sc: &Scenario) -> Result<String, String> {
    let cells = sc.matrix.cells();
    let mut first: Option<(Cell, String)> = None;
    for cell in cells {
        let rendered =
            run_cell(sc, cell).map_err(|e| format!("scenario {} [{cell}]: {e}", sc.name))?;
        match &first {
            None => first = Some((cell, rendered)),
            Some((cell0, rendered0)) => {
                if *rendered0 != rendered {
                    return Err(format!(
                        "scenario {}: output diverges across matrix cells\n{}",
                        sc.name,
                        unified_diff(
                            rendered0,
                            &rendered,
                            &format!("[{cell0}]"),
                            &format!("[{cell}]")
                        )
                    ));
                }
            }
        }
    }
    Ok(first.expect("matrix has at least one cell").1)
}

fn run_cell(sc: &Scenario, cell: Cell) -> Result<String, String> {
    let (db, sink) = build_database(sc, cell)?;
    let server = Server::new(db, ServerConfig::deterministic(cell.dop));
    let mut session = configure(server.session(), cell);

    if cell.cache == CacheMode::Warm {
        let priming = configure(server.session(), cell);
        for stmt in sc.stmts.iter().filter(|s| s.is_read_only()) {
            prime(&priming, &server, stmt)?;
        }
    }

    let mut out = format!("== scenario {} ==\n", sc.name);
    if !sc.description.is_empty() {
        out.push_str(&sc.description);
        out.push('\n');
    }
    let mut seen_sql: HashSet<String> = HashSet::new();
    for (idx, stmt) in sc.stmts.iter().enumerate() {
        out.push_str(&format!("\n-- {}: {} --\n", idx + 1, stmt.label()));
        let block = run_stmt(sc, cell, &server, &mut session, &mut seen_sql, stmt)
            .map_err(|e| format!("stmt {} ({}): {e}", idx + 1, stmt.label()))?;
        out.push_str(block.trim_end_matches('\n'));
        out.push('\n');
    }

    if let Some(sink) = sink {
        // Tracing must have actually observed the work (the snapshot
        // equality across the trace axis proves it observed *purely*).
        let records = SpanRecord::parse_all(&sink.contents())
            .map_err(|e| format!("trace output must parse: {e}"))?;
        if records.is_empty() {
            return Err("tracing enabled but no spans recorded".into());
        }
    }
    Ok(out)
}

fn build_database(sc: &Scenario, cell: Cell) -> Result<(Database, Option<BufferSink>), String> {
    let mut db = match sc.setup {
        Setup::None => Database::new(),
        Setup::TpchCore(scale) => {
            Database::tpch(scale).map_err(|e| format!("tpch({scale}): {e}"))?
        }
        Setup::TpchFull(scale) => {
            Database::tpch_full(scale).map_err(|e| format!("tpch_full({scale}): {e}"))?
        }
    };
    for spec in &sc.tables {
        let (def, data) = build_table(spec)?;
        db.register_table(def, data).map_err(|e| format!("register {}: {e}", spec.name))?;
    }
    let sink = if cell.trace {
        let sink = BufferSink::new();
        db.set_observability(ObsContext {
            metrics: MetricsHandle::new_registry(),
            tracer: TraceHandle::new(Box::new(sink.clone())),
            parent_span: 0,
        });
        Some(sink)
    } else {
        None
    };
    Ok((db, sink))
}

fn build_table(spec: &TableSpec) -> Result<(TableDef, Relation), String> {
    let fields =
        spec.columns.iter().map(|(name, ty)| Field::new(name.clone(), *ty)).collect::<Vec<_>>();
    let schema = Schema::new(fields);
    let def = TableDef::new(spec.name.clone(), schema.clone());
    let rows = spec.rows.iter().map(|r| Tuple::new(r.clone())).collect();
    Ok((def, Relation::from_rows_unchecked(schema, rows)))
}

fn configure(mut session: Session, cell: Cell) -> Session {
    session.config_mut().engine.dop = cell.dop;
    session.config_mut().engine.batch_size = cell.batch;
    session
}

fn view_for(server: &Server, view: &str) -> Result<XmlView, String> {
    named_view(server.database().catalog(), view).map_err(|e| format!("{view} view: {e}"))
}

fn prime(session: &Session, server: &Server, stmt: &Stmt) -> Result<(), String> {
    match stmt {
        Stmt::Sql { sql, .. } => {
            session.execute(sql).map_err(|e| format!("warm priming {sql:?}: {e}"))?;
        }
        Stmt::Analyze { sql, .. } => {
            session.execute(sql).map_err(|e| format!("warm priming {sql:?}: {e}"))?;
        }
        Stmt::Publish { view, pretty, .. } => {
            let v = view_for(server, view)?;
            session.publish(&v, *pretty).map_err(|e| format!("warm priming publish: {e}"))?;
        }
        // `\explain` plans outside the server cache; nothing to warm.
        Stmt::Explain { .. } => {}
        Stmt::Update { .. } | Stmt::Republish { .. } => unreachable!("not read-only"),
    }
    Ok(())
}

fn run_stmt(
    sc: &Scenario,
    cell: Cell,
    server: &Server,
    session: &mut Session,
    seen_sql: &mut HashSet<String>,
    stmt: &Stmt,
) -> Result<String, String> {
    match stmt {
        Stmt::Sql { sql, sort, .. } => {
            let (rel, stats) = session.execute(sql).map_err(|e| format!("{sql:?}: {e}"))?;
            check_plan_cache_invariant(cell, seen_sql, sql, &stats)?;
            let rel = if *sort { canonical_sort(&rel) } else { rel };
            Ok(format!(
                "rows ({}):\n{}\nstats: {}\n",
                rel.len(),
                rel.to_table_string().trim_end_matches('\n'),
                stats.snapshot_line()
            ))
        }
        Stmt::Explain { sql, .. } => {
            server.database().explain(sql).map_err(|e| format!("{sql:?}: {e}"))
        }
        Stmt::Analyze { sql, .. } => {
            let (_, report) = session.execute_analyzed(sql).map_err(|e| format!("{sql:?}: {e}"))?;
            seen_sql.insert(sql.clone());
            Ok(normalize::analyze_snapshot(&report))
        }
        Stmt::Publish { view, pretty, .. } => {
            let v = view_for(server, view)?;
            let xml = session.publish(&v, *pretty).map_err(|e| format!("publish: {e}"))?;
            Ok(xml)
        }
        Stmt::Update { ops, .. } => {
            let mut out = String::new();
            for op in ops {
                out.push_str(&apply_update(server.database(), op)?);
                out.push('\n');
            }
            Ok(out)
        }
        Stmt::Republish { view, pretty, expect, .. } => {
            let v = view_for(server, view)?;
            let (xml, outcome) =
                session.republish(&v, *pretty).map_err(|e| format!("republish: {e}"))?;
            let published =
                session.publish(&v, *pretty).map_err(|e| format!("reference publish: {e}"))?;
            if xml != published {
                return Err(format!(
                    "republish ({outcome}) diverges from publish\n{}",
                    unified_diff(&published, &xml, "publish", "republish")
                ));
            }
            if let Some(expect) = expect {
                check_expect(sc, expect, &outcome)?;
            }
            Ok(format!("outcome: {outcome}\n{xml}"))
        }
    }
}

/// Cold cells must plan a never-seen statement fresh; warm cells were
/// primed, so every statement must be served from the shared cache.
fn check_plan_cache_invariant(
    cell: Cell,
    seen_sql: &mut HashSet<String>,
    sql: &str,
    stats: &ExecStats,
) -> Result<(), String> {
    let first_time = seen_sql.insert(sql.to_string());
    let expect_hit = cell.cache == CacheMode::Warm || !first_time;
    if stats.plan_cache_hits + stats.plan_cache_misses != 1 {
        return Err(format!(
            "plan cache counters must record exactly one planning event, got hits={} misses={}",
            stats.plan_cache_hits, stats.plan_cache_misses
        ));
    }
    if expect_hit && stats.plan_cache_hits != 1 {
        return Err(format!(
            "expected a plan-cache hit ({} cache, first_time={first_time}), got a miss",
            cell.cache
        ));
    }
    if !expect_hit && stats.plan_cache_misses != 1 {
        return Err("expected a plan-cache miss (cold cache, fresh statement), got a hit".into());
    }
    Ok(())
}

fn check_expect(sc: &Scenario, expect: &Expect, outcome: &RepublishOutcome) -> Result<(), String> {
    let ok = match (expect, outcome) {
        (Expect::Incremental, RepublishOutcome::Incremental { .. }) => true,
        (Expect::Clean, RepublishOutcome::Clean) => true,
        (Expect::Full(reason), RepublishOutcome::Full { reason: actual }) => reason == actual,
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("scenario {} expected {expect:?}, got: {outcome}", sc.name))
    }
}

fn apply_update(db: &Database, op: &UpdateOp) -> Result<String, String> {
    let table = match op {
        UpdateOp::Delete { table, .. }
        | UpdateOp::Set { table, .. }
        | UpdateOp::SetRange { table, .. }
        | UpdateOp::Clone { table, .. } => table.clone(),
    };
    let data = db.catalog().data(&table).map_err(|e| format!("{table}: {e}"))?;
    let rows = data.rows();
    let col_index = |name: &str| -> Result<usize, String> {
        data.schema().index_of(name).ok_or_else(|| format!("table {table} has no column {name:?}"))
    };
    let row_at = |idx: usize| -> Result<Tuple, String> {
        rows.get(idx)
            .cloned()
            .ok_or_else(|| format!("table {table} has {} rows, no index {idx}", rows.len()))
    };
    let replaced = |row: &Tuple, col: usize, value: &Value| -> Tuple {
        let mut vals = row.values().to_vec();
        vals[col] = value.clone();
        Tuple::new(vals)
    };
    let (delta, desc) = match op {
        UpdateOp::Delete { row, .. } => {
            let old = row_at(*row)?;
            (DeltaBatch::deletes(vec![old]), format!("delete {table}[{row}]"))
        }
        UpdateOp::Set { row, column, value, .. } => {
            let old = row_at(*row)?;
            let col = col_index(column)?;
            let new = replaced(&old, col, value);
            (DeltaBatch::new(vec![new], vec![old]), format!("set {table}[{row}].{column}"))
        }
        UpdateOp::SetRange { lo, hi, column, value, .. } => {
            let col = col_index(column)?;
            let hi = (*hi).min(rows.len());
            if *lo >= hi {
                return Err(format!("set-range {table} [{lo}, {hi}) is empty"));
            }
            let mut deleted = Vec::new();
            let mut appended = Vec::new();
            for idx in *lo..hi {
                let old = row_at(idx)?;
                appended.push(replaced(&old, col, value));
                deleted.push(old);
            }
            (DeltaBatch::new(appended, deleted), format!("set-range {table}[{lo}..{hi}].{column}"))
        }
        UpdateOp::Clone { row, column, value, .. } => {
            let old = row_at(*row)?;
            let col = col_index(column)?;
            (
                DeltaBatch::appends(vec![replaced(&old, col, value)]),
                format!("clone {table}[{row}] with .{column}"),
            )
        }
    };
    drop(data);
    let applied = db.apply_delta(&table, &delta).map_err(|e| format!("{desc}: {e}"))?;
    Ok(format!("{desc}: applied {applied} row change(s)"))
}

/// Sort rows by the total order over all columns — for statements whose
/// plan does not pin a total output order.
fn canonical_sort(rel: &Relation) -> Relation {
    let mut rows = rel.rows().to_vec();
    rows.sort_by(|a, b| {
        a.values()
            .iter()
            .zip(b.values())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Relation::from_rows_unchecked(rel.schema().clone(), rows)
}
