//! `xmlpub-cli` — an interactive SQL shell over a generated TPC-H
//! database, with the paper's `gapply` syntax available.
//!
//! ```text
//! cargo run --release -p xmlpub-net --bin xmlpub-cli [-- --scale 0.01 --full]
//! cargo run --release -p xmlpub-net --bin xmlpub-cli -- --connect 127.0.0.1:7878
//! ```
//!
//! Meta commands:
//!
//! ```text
//!   \d              list tables
//!   \explain [--verify|--analyze] <sql>
//!                   show bound plan, optimized plan, fired rules (with
//!                   --verify: lint every rewrite and the final plan;
//!                   with --analyze: run the query and show per-operator
//!                   runtime counters — through the server when one is
//!                   running, adding plan-cache and pool counters)
//!   \props <sql>    show the bound and optimized plans annotated with
//!                   inferred properties (keys, order, nullability,
//!                   cardinality intervals) at every operator
//!   \lint <sql>     run the plan linter on the bound plan
//!   \stats <sql>    run and show engine counters
//!   \batch [<n>]    set (or show) the engine batch-size target; 1 is
//!                   tuple-at-a-time
//!   \dop [<n>]      set (or show) the GApply degree of parallelism;
//!                   1 is serial (a running server still clamps each
//!                   request to its thread budget)
//!   \publish        publish the Figure 1 supplier/part view as XML
//!   \update [table] [n]
//!                   rename n rows (default: 1 supplier) through the
//!                   versioned delta path; targets the server's
//!                   database when one is running
//!   \republish [--pretty]
//!                   publish the Figure 1 view through the session's
//!                   delta-maintained document cache — after \update
//!                   only the dirty groups are re-tagged and the rest
//!                   of the bytes are spliced from the cached document
//!                   (starts a default server if none is running)
//!   \raw on|off     run bound plans as bound (no rules) | every rule
//!   \sort | \hash   GApply partition strategy
//!   \serve [workers [depth]]
//!                   start (or restart) the concurrent publishing
//!                   service over a fresh copy of the database
//!   \listen [addr]  put the running server on the wire: bind a TCP
//!                   listener (default 127.0.0.1:0 — an ephemeral port,
//!                   printed) speaking the framed protocol; starts a
//!                   server with defaults if none is running
//!   \drain [secs]   gracefully shut the listener down: stop accepting,
//!                   finish in-flight requests, GOODBYE + FIN, bounded
//!                   by the deadline (default 10s)
//!   \server-stats   plan-cache and worker-pool counters
//!   \metrics        server metrics exposition (counters, gauges,
//!                   latency histograms) in the v1 text format —
//!                   includes server.net.* once a listener has traffic
//!   \slow [<us>]    show the server's slow-query log (with a number:
//!                   set the threshold in microseconds; 0 disables)
//!   \trace on|off   toggle span emission on the local database's
//!                   tracer (needs a sink: run with XMLPUB_TRACE=1 and
//!                   XMLPUB_TRACE_FILE=<path>)
//!   \q              quit
//! ```
//!
//! Plain SQL runs directly against the local database; `\explain
//! --analyze` exercises the server when one is running.
//!
//! With `--connect ADDR` the shell is a *client*: SQL and `\publish`
//! travel over the framed TCP protocol to a remote `\listen` server,
//! and `\q` says goodbye on the wire.

use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Duration;
use xmlpub::{Database, OptimizerConfig, PartitionStrategy};
use xmlpub_net::{NetClient, NetConfig, NetServer, Reply};
use xmlpub_server::{Server, ServerConfig};

/// The shell's state: a directly-owned database for ad-hoc SQL plus an
/// optional running server (which owns its own copy — the TPC-H
/// generator is deterministic, so both see identical data) and an
/// optional TCP listener over that server.
struct Shell {
    db: Database,
    server: Option<Arc<Server>>,
    listener: Option<NetServer>,
    /// Persistent publishing session for `\republish`: it owns the
    /// cached segmented document, so successive republishes after
    /// `\update` take the incremental splice path. Reset by `\serve`.
    pub_session: Option<xmlpub_server::Session>,
    /// Monotonic tick for `\update`'s renames.
    update_tick: u64,
    scale: f64,
    full: bool,
}

impl Shell {
    fn fresh_db(&self) -> Database {
        if self.full {
            Database::tpch_full(self.scale).expect("generate TPC-H")
        } else {
            Database::tpch(self.scale).expect("generate TPC-H")
        }
    }
}

fn main() {
    let mut scale = 0.005f64;
    let mut full = false;
    let mut connect: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                scale = args.next().and_then(|v| v.parse().ok()).expect("--scale needs a number")
            }
            "--full" => full = true,
            "--connect" => {
                connect = Some(args.next().expect("--connect needs an address"));
            }
            other => {
                eprintln!("unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    if let Some(addr) = connect {
        remote_shell(&addr);
        return;
    }
    let db = if full {
        Database::tpch_full(scale).expect("generate TPC-H")
    } else {
        Database::tpch(scale).expect("generate TPC-H")
    };
    let mut shell =
        Shell { db, server: None, listener: None, pub_session: None, update_tick: 0, scale, full };
    println!("xmlpub — GApply SQL shell (TPC-H scale {scale}). \\q to quit, \\d for tables.");

    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            print!("xmlpub> ");
        } else {
            print!("   ...> ");
        }
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('\\') {
            if !meta_command(trimmed, &mut shell) {
                break;
            }
            continue;
        }
        buffer.push_str(&line);
        // Execute on a terminating semicolon (or a blank line).
        if trimmed.ends_with(';') || (trimmed.is_empty() && !buffer.trim().is_empty()) {
            run_sql(&shell.db, buffer.trim());
            buffer.clear();
        }
    }
    if let Some(listener) = shell.listener.take() {
        let report = listener.drain(Duration::from_secs(10));
        eprintln!("listener drained on exit: {report:?}");
    }
}

/// `--connect`: a thin remote shell speaking the framed protocol. SQL
/// statements and `\publish [view]` go over the wire; `\q` (or EOF)
/// says goodbye.
fn remote_shell(addr: &str) {
    let mut client = match NetClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    println!("connected to {addr}. \\q to quit; SQL ends with ';', \\publish [view] for XML.");
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            print!("xmlpub({addr})> ");
        } else {
            print!("   ...> ");
        }
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('\\') {
            let (name, rest) = match trimmed.split_once(' ') {
                Some((n, r)) => (n, r.trim()),
                None => (trimmed, ""),
            };
            match name {
                "\\q" => break,
                "\\publish" => {
                    let view = if rest.is_empty() { "supplier_parts" } else { rest };
                    match client.publish(view, true) {
                        Ok(Reply::Done((xml, rows, _stats))) => {
                            for l in xml.lines().take(30) {
                                println!("{l}");
                            }
                            println!("... ({} lines, {rows} rows tagged)", xml.lines().count());
                        }
                        Ok(Reply::Busy(msg)) => eprintln!("server busy: {msg}"),
                        Err(e) => eprintln!("{e}"),
                    }
                }
                other => eprintln!("remote shell knows \\q and \\publish [view]; got {other}"),
            }
            continue;
        }
        buffer.push_str(&line);
        if trimmed.ends_with(';') || (trimmed.is_empty() && !buffer.trim().is_empty()) {
            let sql = buffer.trim().trim_end_matches(';').to_string();
            buffer.clear();
            if sql.is_empty() {
                continue;
            }
            match client.sql(&sql) {
                Ok(Reply::Done((rel, _stats))) => {
                    print!("{}", rel.to_table_string());
                    println!("({} rows)", rel.len());
                }
                Ok(Reply::Busy(msg)) => eprintln!("server busy: {msg}"),
                Err(e) => eprintln!("{e}"),
            }
        }
    }
    if let Err(e) = client.goodbye() {
        eprintln!("goodbye: {e}");
    }
}

fn run_sql(db: &Database, sql: &str) {
    if sql.is_empty() {
        return;
    }
    match db.sql(sql) {
        Ok(result) => {
            let shown = result.rows().len().min(40);
            let preview = xmlpub::Relation::from_rows_unchecked(
                result.schema().clone(),
                result.rows()[..shown].to_vec(),
            );
            print!("{}", preview.to_table_string());
            if shown < result.len() {
                println!("({} rows, showing first {shown})", result.len());
            } else {
                println!("({} rows)", result.len());
            }
        }
        Err(e) => eprintln!("{e}"),
    }
}

/// Returns false to quit.
fn meta_command(cmd: &str, shell: &mut Shell) -> bool {
    let (name, rest) = match cmd.split_once(' ') {
        Some((n, r)) => (n, r.trim()),
        None => (cmd, ""),
    };
    let db = &shell.db;
    match name {
        "\\q" => return false,
        "\\d" => {
            for t in db.catalog().tables() {
                println!(
                    "  {:<10} {:>8} rows   {}",
                    t.name,
                    db.statistics().rows(&t.name),
                    t.schema
                );
            }
        }
        "\\explain" => {
            if let Some(s) = rest.strip_prefix("--analyze") {
                if s.is_empty() || s.starts_with(char::is_whitespace) {
                    // Through the server when available: the report then
                    // carries plan-cache and pool counters too.
                    let analyzed = match &shell.server {
                        Some(server) => server.session().execute_analyzed(s.trim()),
                        None => db.sql_analyzed(s.trim()),
                    };
                    match analyzed {
                        Ok((result, report)) => {
                            println!("{report}");
                            println!("({} rows)", result.len());
                        }
                        Err(e) => eprintln!("{e}"),
                    }
                    return true;
                }
            }
            let (verify, sql) = match rest.strip_prefix("--verify") {
                Some(s) if s.is_empty() || s.starts_with(char::is_whitespace) => (true, s.trim()),
                _ => (false, rest),
            };
            match db.explain_with(sql, verify) {
                Ok(text) => println!("{text}"),
                Err(e) => eprintln!("{e}"),
            }
        }
        "\\props" => match db.props(rest) {
            Ok(text) => println!("{text}"),
            Err(e) => eprintln!("{e}"),
        },
        "\\lint" => match db.lint(rest) {
            Ok(diags) if diags.is_empty() => println!("clean: no lint diagnostics"),
            Ok(diags) => {
                for d in &diags {
                    println!("{d}");
                }
                println!("({} diagnostic(s))", diags.len());
            }
            Err(e) => eprintln!("{e}"),
        },
        "\\stats" => match db.sql_with_stats(rest) {
            Ok((result, stats)) => {
                println!("{} rows", result.len());
                println!("{stats:#?}");
            }
            Err(e) => eprintln!("{e}"),
        },
        "\\batch" => {
            if rest.is_empty() {
                println!("batch size {}", db.config().engine.batch_size);
            } else {
                match rest.parse::<usize>() {
                    Ok(n) => {
                        let n = n.max(1);
                        shell.db.config_mut().engine.batch_size = n;
                        println!(
                            "batch size {n}{}",
                            if n == 1 { " (tuple-at-a-time)" } else { "" }
                        );
                    }
                    Err(_) => eprintln!("\\batch needs a positive integer"),
                }
            }
        }
        "\\dop" => {
            if rest.is_empty() {
                println!("dop {}", db.config().engine.dop);
            } else {
                match rest.parse::<usize>() {
                    Ok(n) => {
                        let n = n.max(1);
                        shell.db.config_mut().engine.dop = n;
                        println!("dop {n}{}", if n == 1 { " (serial)" } else { "" });
                    }
                    Err(_) => eprintln!("\\dop needs a positive integer"),
                }
            }
        }
        "\\publish" => {
            match xmlpub::xml::supplier_parts_view(db.catalog())
                .and_then(|view| db.publish(&view, true))
            {
                Ok(xml) => {
                    for line in xml.lines().take(30) {
                        println!("{line}");
                    }
                    println!("... ({} lines total)", xml.lines().count());
                }
                Err(e) => eprintln!("{e}"),
            }
        }
        "\\update" => {
            let mut parts = rest.split_whitespace();
            let table = parts.next().unwrap_or("supplier").to_string();
            let n = parts.next().and_then(|v| v.parse::<usize>().ok()).unwrap_or(1).max(1);
            // Mutate the server's copy when one is running (that is the
            // copy \republish publishes); the standalone local database
            // otherwise.
            let target: &Database = match &shell.server {
                Some(server) => server.database(),
                None => &shell.db,
            };
            match apply_update(target, &table, n, &mut shell.update_tick) {
                Ok(applied) => println!(
                    "updated {applied} row(s) of {table}{} — \\republish to refresh the document",
                    if shell.server.is_some() { " (server database)" } else { "" }
                ),
                Err(e) => eprintln!("{e}"),
            }
        }
        "\\republish" => {
            let pretty = rest == "--pretty";
            if !rest.is_empty() && !pretty {
                eprintln!("\\republish [--pretty]");
                return true;
            }
            if shell.server.is_none() {
                let config =
                    ServerConfig { defaults: shell.db.config(), ..ServerConfig::default() };
                shell.server = Some(Arc::new(Server::new(shell.fresh_db(), config)));
                println!("server started with defaults (\\update mutates its database now)");
            }
            let server = shell.server.as_ref().unwrap();
            let session = shell.pub_session.get_or_insert_with(|| server.session());
            match xmlpub::xml::supplier_parts_view(server.database().catalog())
                .and_then(|view| session.republish(&view, pretty))
            {
                Ok((xml, outcome)) => {
                    for line in xml.lines().take(10) {
                        println!("{line}");
                    }
                    println!(
                        "... ({} lines, {} bytes) [{outcome}]",
                        xml.lines().count(),
                        xml.len()
                    );
                }
                Err(e) => eprintln!("{e}"),
            }
        }
        "\\raw" => {
            let on = rest.eq_ignore_ascii_case("on");
            shell.db.config_mut().optimizer =
                if on { OptimizerConfig::none() } else { OptimizerConfig::default() };
            println!("optimizer {}", if on { "disabled" } else { "enabled" });
        }
        "\\sort" => {
            shell.db.config_mut().engine.partition_strategy = PartitionStrategy::Sort;
            println!("GApply partitioning: sort");
        }
        "\\hash" => {
            shell.db.config_mut().engine.partition_strategy = PartitionStrategy::Hash;
            println!("GApply partitioning: hash");
        }
        "\\serve" => {
            if shell.listener.is_some() {
                eprintln!("a listener is attached to the running server; \\drain it first");
                return true;
            }
            let mut parts = rest.split_whitespace();
            let workers = parts.next().and_then(|v| v.parse().ok()).unwrap_or(4usize);
            let queue_depth = parts.next().and_then(|v| v.parse().ok()).unwrap_or(64usize);
            let config = ServerConfig {
                workers,
                queue_depth,
                defaults: shell.db.config(),
                ..ServerConfig::default()
            };
            shell.server = Some(Arc::new(Server::new(shell.fresh_db(), config)));
            // The old session's cached documents belong to the old server.
            shell.pub_session = None;
            println!(
                "server started: {workers} workers, queue depth {queue_depth} \
                 (\\listen to put it on the wire, \\server-stats for counters)"
            );
        }
        "\\listen" => {
            if shell.listener.is_some() {
                eprintln!("already listening; \\drain first");
                return true;
            }
            if shell.server.is_none() {
                let config =
                    ServerConfig { defaults: shell.db.config(), ..ServerConfig::default() };
                shell.server = Some(Arc::new(Server::new(shell.fresh_db(), config)));
                println!("server started with defaults");
            }
            let server = Arc::clone(shell.server.as_ref().unwrap());
            let addr = if rest.is_empty() { "127.0.0.1:0".to_string() } else { rest.to_string() };
            match NetServer::start(server, NetConfig { addr, ..NetConfig::default() }) {
                Ok(net) => {
                    println!(
                        "listening on {} (framed protocol v{}; \\drain to stop)",
                        net.local_addr(),
                        xmlpub_net::PROTOCOL_VERSION
                    );
                    shell.listener = Some(net);
                }
                Err(e) => eprintln!("{e}"),
            }
        }
        "\\drain" => match shell.listener.take() {
            None => eprintln!("no listener running; start one with \\listen"),
            Some(net) => {
                let secs = rest.parse::<u64>().unwrap_or(10);
                let report = net.drain(Duration::from_secs(secs));
                if report.drained {
                    println!("drained cleanly (deadline {secs}s)");
                } else {
                    println!("drain hit the deadline: {} connection(s) aborted", report.aborted);
                }
            }
        },
        "\\server-stats" => match &shell.server {
            None => eprintln!("no server running; start one with \\serve"),
            Some(server) => println!("{}", server.stats()),
        },
        "\\metrics" => match &shell.server {
            None => eprintln!("no server running; start one with \\serve"),
            Some(server) => print!("{}", server.metrics_text()),
        },
        "\\slow" => match &shell.server {
            None => eprintln!("no server running; start one with \\serve"),
            Some(server) => {
                if rest.is_empty() {
                    println!("{}", server.slow_query_log());
                } else {
                    match rest.parse::<u64>() {
                        Ok(us) => {
                            server.slow_query_log().set_threshold_us(us);
                            if us == 0 {
                                println!("slow-query log disabled");
                            } else {
                                println!("slow-query threshold {us}us");
                            }
                        }
                        Err(_) => eprintln!("\\slow [<threshold_us>]"),
                    }
                }
            }
        },
        "\\trace" => {
            let tracer = &db.observability().tracer;
            match rest {
                "on" | "off" => {
                    let on = rest == "on";
                    tracer.set_enabled(on);
                    if on && !tracer.enabled() {
                        eprintln!(
                            "no trace sink configured; restart with XMLPUB_TRACE=1 \
                             XMLPUB_TRACE_FILE=<path>"
                        );
                    } else {
                        println!("tracing {rest}");
                    }
                }
                _ => eprintln!("\\trace on|off"),
            }
        }
        other => {
            eprintln!(
                "unknown command {other}; try \\d \\explain \\props \\lint \\stats \\batch \\dop \
                 \\publish \\update \\republish \\serve \\listen \\drain \\server-stats \
                 \\metrics \\slow \\trace \\q"
            )
        }
    }
    true
}

/// `\update`: rename `n` rows of `table` (round-robin, first string
/// column) through the versioned delta path, so a subsequent
/// `\republish` sees a small dirty set rather than a cold cache.
fn apply_update(
    db: &Database,
    table: &str,
    n: usize,
    tick: &mut u64,
) -> xmlpub_common::Result<usize> {
    use xmlpub_common::{DeltaBatch, Error, Tuple, Value};
    let data = db.catalog().data(table)?;
    let rows = data.rows();
    if rows.is_empty() {
        return Err(Error::exec(format!("table '{table}' is empty; nothing to update")));
    }
    let Some(name_col) = rows[0].values().iter().position(|v| matches!(v, Value::Str(_))) else {
        return Err(Error::exec(format!("table '{table}' has no string column to rename")));
    };
    let mut batch = DeltaBatch::default();
    for _ in 0..n.min(rows.len()) {
        let idx = (*tick as usize) % rows.len();
        *tick += 1;
        let old = rows[idx].clone();
        let mut vals = old.values().to_vec();
        let base = match &vals[name_col] {
            Value::Str(s) => s.split(" u#").next().unwrap_or(s).to_string(),
            _ => unreachable!("name_col points at a string column"),
        };
        vals[name_col] = Value::str(format!("{base} u#{}", *tick));
        batch.deleted.push(old);
        batch.appended.push(Tuple::new(vals));
    }
    let applied = batch.appended.len();
    db.apply_delta(table, &batch)?;
    Ok(applied)
}
