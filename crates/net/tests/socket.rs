//! End-to-end tests over real localhost sockets: differential pinning
//! against the in-process path, pipelining, BUSY semantics, protocol
//! errors, and the graceful-drain contract.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use xmlpub::Database;
use xmlpub_common::{DeltaBatch, Error, Tuple, Value};
use xmlpub_net::{
    encode_request, resolve_view, Frame, NetClient, NetConfig, NetServer, Request, Response,
    RetryStats,
};
use xmlpub_server::{Server, ServerConfig};
use xmlpub_xml::workloads::figure8_workloads;

const SCALE: f64 = 0.001;

fn start(config: ServerConfig, net: NetConfig) -> (Arc<Server>, NetServer) {
    let server = Arc::new(Server::new(Database::tpch(SCALE).unwrap(), config));
    let net = NetServer::start(Arc::clone(&server), net).unwrap();
    (server, net)
}

fn default_start() -> (Arc<Server>, NetServer) {
    start(
        ServerConfig { workers: 2, queue_depth: 32, ..ServerConfig::default() },
        NetConfig::default(),
    )
}

#[test]
fn sql_over_socket_matches_direct_database() {
    let (server, net) = default_start();
    let mut client = NetClient::connect(net.local_addr()).unwrap();
    for w in figure8_workloads() {
        let direct = server.database().sql(&w.gapply_sql).unwrap();
        let (rel, stats) = client.sql(&w.gapply_sql).unwrap().expect_done().unwrap();
        assert_eq!(rel, direct, "{} diverged over the wire", w.name);
        assert_eq!(stats.plan_cache_hits + stats.plan_cache_misses, 1, "{}", w.name);
    }
    client.goodbye().unwrap();
    let report = net.drain(Duration::from_secs(10));
    assert!(report.drained, "{report:?}");
}

#[test]
fn prepared_statements_over_socket() {
    let (server, net) = default_start();
    let mut client = NetClient::connect(net.local_addr()).unwrap();
    let w = &figure8_workloads()[0];
    assert!(!client.prepare(w.name, &w.gapply_sql).unwrap().expect_done().unwrap());
    let direct = server.database().sql(&w.gapply_sql).unwrap();
    for _ in 0..3 {
        let (rel, stats) = client.exec_prepared(w.name).unwrap().expect_done().unwrap();
        assert_eq!(rel, direct);
        assert_eq!(stats.plan_cache_hits, 1);
    }
    // Unknown prepared name: typed error frame, connection stays usable.
    let err = client.exec_prepared("nope").unwrap_err();
    assert!(err.to_string().contains("nope"), "{err}");
    let (rel, _) = client.exec_prepared(w.name).unwrap().expect_done().unwrap();
    assert_eq!(rel, direct);
    client.goodbye().unwrap();
}

#[test]
fn publish_streams_byte_identical_xml() {
    let (server, net) = default_start();
    let session = server.session();
    let view = resolve_view(server.database(), "supplier_parts").unwrap();
    let mut client = NetClient::connect(net.local_addr()).unwrap();
    for pretty in [false, true] {
        let expected = session.publish(&view, pretty).unwrap();
        let (xml, rows, stats) =
            client.publish("supplier_parts", pretty).unwrap().expect_done().unwrap();
        assert_eq!(xml, expected, "streamed XML diverged (pretty={pretty})");
        assert!(rows > 0);
        // The End frame carries the request's real engine counters, not
        // zeroed defaults: a publish scans rows and resolves its plan
        // through the shared cache.
        assert!(stats.rows_scanned > 0, "publish End frame lost engine counters: {stats:?}");
        assert_eq!(stats.plan_cache_hits + stats.plan_cache_misses, 1, "{stats:?}");
    }
    // Unknown views answer a catalog error in-band.
    let err = client.publish("no_such_view", false).unwrap_err();
    assert!(err.to_string().contains("no_such_view"), "{err}");
    client.goodbye().unwrap();
}

#[test]
fn bad_sql_gets_typed_error_and_connection_survives() {
    let (_server, net) = default_start();
    let mut client = NetClient::connect(net.local_addr()).unwrap();
    let err = client.sql("select from from").unwrap_err();
    let msg = err.to_string();
    assert!(!msg.is_empty());
    // Still usable afterwards: request-level failures don't kill the
    // connection.
    let (rel, _) = client.sql("select count(*) from part").unwrap().expect_done().unwrap();
    assert_eq!(rel.len(), 1);
    client.goodbye().unwrap();
}

#[test]
fn pipelined_requests_answer_in_order() {
    let (server, net) = default_start();
    let direct = server.database().sql("select count(*) from part").unwrap();
    // Raw frames: handshake plus five SQL requests written back-to-back
    // before reading anything, then a goodbye.
    let mut stream = TcpStream::connect(net.local_addr()).unwrap();
    let mut burst = Vec::new();
    burst.extend_from_slice(&encode_request(&Request::Hello { version: 1 }));
    for _ in 0..5 {
        burst.extend_from_slice(&encode_request(&Request::Sql {
            sql: "select count(*) from part".to_string(),
        }));
    }
    burst.extend_from_slice(&encode_request(&Request::Goodbye));
    stream.write_all(&burst).unwrap();

    let mut responses = Vec::new();
    while let Some(frame) = xmlpub_net::frame::read_frame(&mut stream).unwrap() {
        match frame {
            Frame::Response(r) => responses.push(r),
            Frame::Request(_) => panic!("server sent a request frame"),
        }
    }
    // Ok, then 5 x (Schema RowBatch End), then Goodbye — strictly in
    // request order.
    assert!(matches!(responses.first(), Some(Response::Ok { .. })), "{responses:?}");
    assert!(matches!(responses.last(), Some(Response::Goodbye)), "{responses:?}");
    let mut i = 1;
    for _ in 0..5 {
        assert!(matches!(&responses[i], Response::Schema(s) if s.len() == 1), "{responses:?}");
        let Response::RowBatch(rows) = &responses[i + 1] else {
            panic!("expected RowBatch at {}: {responses:?}", i + 1);
        };
        assert_eq!(rows[0], direct.rows()[0]);
        assert!(matches!(&responses[i + 2], Response::End { rows: 1, .. }), "{responses:?}");
        i += 3;
    }
    assert_eq!(i, responses.len() - 1, "unexpected extra frames: {responses:?}");
}

/// The satellite's concurrent differential: 8 socket clients publishing
/// and querying at once, every answer byte-identical to the in-process
/// path.
#[test]
fn eight_concurrent_socket_clients_stay_byte_identical() {
    let (server, net) = start(
        ServerConfig { workers: 2, queue_depth: 64, ..ServerConfig::default() },
        NetConfig::default(),
    );
    let view = resolve_view(server.database(), "supplier_parts").unwrap();
    let expected_xml = server.session().publish(&view, false).unwrap();
    let q = &figure8_workloads()[1];
    let expected_rel = server.database().sql(&q.gapply_sql).unwrap();
    let addr = net.local_addr();
    std::thread::scope(|s| {
        for t in 0..8 {
            let expected_xml = &expected_xml;
            let expected_rel = &expected_rel;
            let sql = &q.gapply_sql;
            s.spawn(move || {
                let mut client = NetClient::connect(addr).unwrap();
                let mut retries = RetryStats::default();
                for i in 0..4 {
                    if (t + i) % 2 == 0 {
                        let (xml, _, _) = client
                            .retry_busy(&mut retries, |c| c.publish("supplier_parts", false))
                            .unwrap();
                        assert_eq!(&xml, expected_xml, "client {t} iter {i}: XML diverged");
                    } else {
                        let (rel, _) = client.retry_busy(&mut retries, |c| c.sql(sql)).unwrap();
                        assert_eq!(&rel, expected_rel, "client {t} iter {i}: rows diverged");
                    }
                }
                client.goodbye().unwrap();
            });
        }
    });
    let report = net.drain(Duration::from_secs(10));
    assert!(report.drained && report.aborted == 0, "{report:?}");
}

/// Rename supplier `tick % n` through the delta path, so the next
/// republish of the Figure 1 view has exactly one dirty group.
fn rename_supplier(db: &Database, tick: u64) {
    let name_col = db.catalog().table("supplier").unwrap().schema.resolve(None, "s_name").unwrap();
    let data = db.catalog().data("supplier").unwrap();
    let old = data.rows()[tick as usize % data.rows().len()].clone();
    let mut vals = old.values().to_vec();
    let Value::Str(name) = &vals[name_col] else { panic!("s_name is not a string") };
    let base = name.split(" u#").next().unwrap().to_string();
    vals[name_col] = Value::str(format!("{base} u#{tick}"));
    db.apply_delta("supplier", &DeltaBatch::new(vec![Tuple::new(vals)], vec![old])).unwrap();
}

/// A writer session renames suppliers and republishes the Figure 1 view
/// while four socket clients run the prepared Figure 8 queries and
/// publishes. Reads stay correct under the churn (the Figure 8 queries
/// never read `supplier`, so their answers are fixed), every republish
/// is counted, and afterwards the delta-maintained document still equals
/// a full recompute byte for byte.
#[test]
fn writer_racing_socket_readers_keeps_republish_exact() {
    let (server, net) = start(
        ServerConfig { workers: 2, queue_depth: 32, ..ServerConfig::default() },
        NetConfig::default(),
    );
    let db = server.database();
    let view = resolve_view(db, "supplier_parts").unwrap();
    let workloads = figure8_workloads();
    let expected: Vec<_> = workloads.iter().map(|w| db.sql(&w.gapply_sql).unwrap()).collect();
    let addr = net.local_addr();
    // The writer and the four readers start together once every reader
    // has prepared its statements; setup errors surface after the wait
    // so a failed reader cannot strand the others.
    let start_line = Barrier::new(5);
    let readers_done = AtomicBool::new(false);
    let republish = |session: &mut xmlpub_server::Session| loop {
        match session.republish(&view, false) {
            Err(Error::Busy(_)) => std::thread::sleep(Duration::from_micros(100)),
            other => return other.unwrap(),
        }
    };
    let mut writer_session = server.session();
    republish(&mut writer_session);
    let mut republishes = 1u64;
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut session = writer_session;
            start_line.wait();
            let mut tick = 0u64;
            // At least a few writes, then keep going until the readers
            // finish so every read races a write.
            while tick < 3 || !readers_done.load(Ordering::Relaxed) {
                tick += 1;
                rename_supplier(db, tick);
                republish(&mut session);
            }
            tick
        });
        let readers: Vec<_> = (0..4)
            .map(|t| {
                let (workloads, expected, start_line) = (&workloads, &expected, &start_line);
                s.spawn(move || {
                    let mut retries = RetryStats::default();
                    let setup = (|| {
                        let mut client = NetClient::connect(addr)?;
                        for w in workloads {
                            client
                                .retry_busy(&mut retries, |c| c.prepare(w.name, &w.gapply_sql))?;
                        }
                        Ok::<_, Error>(client)
                    })();
                    start_line.wait();
                    let mut client = setup.unwrap();
                    for i in 0..2 * workloads.len() {
                        let k = (t + i) % workloads.len();
                        let name = workloads[k].name;
                        let (rel, _) =
                            client.retry_busy(&mut retries, |c| c.exec_prepared(name)).unwrap();
                        assert_eq!(rel, expected[k], "client {t}: {name} diverged under churn");
                        if i % 3 == 0 {
                            let (xml, rows, _) = client
                                .retry_busy(&mut retries, |c| c.publish("supplier_parts", false))
                                .unwrap();
                            assert!(rows > 0 && xml.starts_with('<'), "client {t}: bad publish");
                        }
                    }
                    client.goodbye().unwrap();
                })
            })
            .collect();
        // Stop the writer even when a reader failed, then report it.
        let joined: Vec<_> = readers.into_iter().map(|r| r.join()).collect();
        readers_done.store(true, Ordering::Relaxed);
        republishes += writer.join().unwrap();
        for r in joined {
            if let Err(panic) = r {
                std::panic::resume_unwind(panic);
            }
        }
    });

    // One more rename: a warmed session takes the incremental path, and
    // its document equals a threshold-0 session's full recompute.
    let mut incremental = server.session();
    republish(&mut incremental);
    rename_supplier(db, republishes);
    let (incr_doc, outcome) = republish(&mut incremental);
    assert!(outcome.is_incremental(), "final republish fell back: {outcome}");
    let mut full = server.session();
    full.set_republish_threshold(0.0);
    let (full_doc, _) = republish(&mut full);
    assert_eq!(incr_doc, full_doc, "incremental republish differs from full recompute");
    republishes += 3;

    let snap = xmlpub::parse_text(&server.metrics_text()).unwrap();
    assert_eq!(snap.counter("server.republish.count"), Some(republishes));
    let report = net.drain(Duration::from_secs(10));
    assert!(report.drained && report.aborted == 0, "{report:?}");
}

/// Admission-control sheds surface as BUSY frames: nothing executed,
/// the connection lives, retries eventually succeed.
#[test]
fn sheds_surface_as_busy_frames_and_are_retryable() {
    let (server, net) = start(
        ServerConfig { workers: 1, queue_depth: 1, ..ServerConfig::default() },
        NetConfig::default(),
    );
    let q = &figure8_workloads()[3]; // the heaviest workload
    let expected = server.database().sql(&q.gapply_sql).unwrap();
    let addr = net.local_addr();
    let mut total = RetryStats::default();
    let outcomes: Vec<RetryStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let sql = &q.gapply_sql;
                let expected = &expected;
                s.spawn(move || {
                    let mut client = NetClient::connect(addr).unwrap();
                    let mut retries = RetryStats::default();
                    for _ in 0..3 {
                        let (rel, _) = client.retry_busy(&mut retries, |c| c.sql(sql)).unwrap();
                        assert_eq!(&rel, expected);
                    }
                    client.goodbye().unwrap();
                    retries
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &outcomes {
        total.merge(r);
    }
    // Whether sheds happened is load-dependent (fine either way), but
    // the accounting invariant is not: backoff time only exists when
    // retries do, and the busy counter matches the metrics registry.
    if total.busy_retries == 0 {
        assert_eq!(total.backoff, Duration::ZERO);
    }
    let snap = server.metrics().snapshot().unwrap();
    assert_eq!(snap.counter("server.net.busy").unwrap_or(0), total.busy_retries);
    net.drain(Duration::from_secs(10));
}

/// The drain contract: the in-flight publish completes and its XML
/// arrives intact, the draining server says GOODBYE, and new
/// connections are refused afterwards.
#[test]
fn graceful_drain_finishes_in_flight_work_and_refuses_new_connections() {
    let (server, net) = default_start();
    let addr = net.local_addr();
    let view = resolve_view(server.database(), "supplier_parts").unwrap();
    let expected = server.session().publish(&view, true).unwrap();

    // Raw connection: handshake, then a publish left un-read so it is
    // in flight when the drain starts.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&encode_request(&Request::Hello { version: 1 })).unwrap();
    match xmlpub_net::frame::read_frame(&mut stream).unwrap() {
        Some(Frame::Response(Response::Ok { .. })) => {}
        other => panic!("handshake failed: {other:?}"),
    }
    stream
        .write_all(&encode_request(&Request::Publish {
            view: "supplier_parts".to_string(),
            pretty: true,
        }))
        .unwrap();
    // Wait until the server has *dequeued* the request (the net.requests
    // counter bumps when the writer picks it up), so the drain below
    // provably races with an in-flight request, not an unread socket.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let requests =
            server.metrics().snapshot().unwrap().counter("server.net.requests").unwrap_or(0);
        if requests >= 2 {
            break;
        }
        assert!(Instant::now() < deadline, "server never dequeued the publish");
        std::thread::sleep(Duration::from_millis(1));
    }

    let drainer = std::thread::spawn(move || net.drain(Duration::from_secs(30)));

    // The in-flight response arrives intact: chunks, End, then the
    // server's GOODBYE, then EOF.
    let mut xml = Vec::new();
    let mut ended = false;
    let mut goodbye = false;
    while let Some(frame) = xmlpub_net::frame::read_frame(&mut stream).unwrap() {
        match frame {
            Frame::Response(Response::XmlChunk(mut bytes)) => xml.append(&mut bytes),
            Frame::Response(Response::End { rows, .. }) => {
                assert!(rows > 0);
                ended = true;
            }
            Frame::Response(Response::Goodbye) => goodbye = true,
            other => panic!("unexpected frame during drain: {other:?}"),
        }
    }
    assert!(ended, "publish response never completed");
    assert!(goodbye, "server closed without saying goodbye");
    assert_eq!(String::from_utf8(xml).unwrap(), expected, "drained XML is not intact");

    let report = drainer.join().unwrap();
    assert!(report.drained && report.aborted == 0, "{report:?}");

    // The listener is gone: new connections are refused.
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
    assert!(refused.is_err(), "post-drain connect should fail");

    // The net layer accounted for the connection lifecycle.
    let snap = server.metrics().snapshot().unwrap();
    assert_eq!(snap.counter("server.net.connections.opened"), Some(1));
    assert_eq!(snap.counter("server.net.connections.closed"), Some(1));
    assert_eq!(snap.gauge("server.net.connections.active"), Some(0));
    assert_eq!(snap.counter("server.net.drains"), Some(1));
}

/// Draining with idle connections: they get a GOODBYE too, promptly.
#[test]
fn idle_connections_drain_promptly() {
    let (_server, net) = default_start();
    let addr = net.local_addr();
    let mut idle = TcpStream::connect(addr).unwrap();
    idle.write_all(&encode_request(&Request::Hello { version: 1 })).unwrap();
    match xmlpub_net::frame::read_frame(&mut idle).unwrap() {
        Some(Frame::Response(Response::Ok { .. })) => {}
        other => panic!("handshake failed: {other:?}"),
    }
    let start = Instant::now();
    let report = net.drain(Duration::from_secs(10));
    assert!(report.drained, "{report:?}");
    assert!(start.elapsed() < Duration::from_secs(5), "idle drain too slow");
    let mut saw_goodbye = false;
    while let Some(frame) = xmlpub_net::frame::read_frame(&mut idle).unwrap() {
        if matches!(frame, Frame::Response(Response::Goodbye)) {
            saw_goodbye = true;
        }
    }
    assert!(saw_goodbye, "idle connection closed without goodbye");
}

/// Malformed traffic: a zero-length frame gets a protocol error frame
/// and bumps the malformed counter; the process survives.
#[test]
fn malformed_frames_are_answered_and_counted() {
    let (server, net) = default_start();
    let mut stream = TcpStream::connect(net.local_addr()).unwrap();
    stream.write_all(&encode_request(&Request::Hello { version: 1 })).unwrap();
    match xmlpub_net::frame::read_frame(&mut stream).unwrap() {
        Some(Frame::Response(Response::Ok { .. })) => {}
        other => panic!("handshake failed: {other:?}"),
    }
    stream.write_all(&[0, 0, 0, 0]).unwrap(); // zero-length frame
    match xmlpub_net::frame::read_frame(&mut stream).unwrap() {
        Some(Frame::Response(Response::Error { message, .. })) => {
            assert!(message.contains("zero-length"), "{message}");
        }
        other => panic!("wanted a protocol error frame, got {other:?}"),
    }
    // The connection is then closed by the server (framing is lost).
    assert!(xmlpub_net::frame::read_frame(&mut stream).unwrap().is_none());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = server.metrics().snapshot().unwrap();
        if snap.counter("server.net.malformed").unwrap_or(0) >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "malformed counter never bumped");
        std::thread::sleep(Duration::from_millis(1));
    }
    net.drain(Duration::from_secs(10));
}

/// A client that speaks a future protocol version is told so in-band.
#[test]
fn version_mismatch_is_rejected_in_band() {
    let (_server, net) = default_start();
    let mut stream = TcpStream::connect(net.local_addr()).unwrap();
    stream.write_all(&encode_request(&Request::Hello { version: 99 })).unwrap();
    match xmlpub_net::frame::read_frame(&mut stream).unwrap() {
        Some(Frame::Response(Response::Error { message, .. })) => {
            assert!(message.contains("version"), "{message}");
        }
        other => panic!("wanted a version error, got {other:?}"),
    }
}

/// A shed is the typed `Error::Busy` end to end and travels as a BUSY
/// frame; should one ever reach the error encoder instead, it still
/// maps to a valid (execution) code rather than panicking.
#[test]
fn busy_is_typed_and_the_error_code_stays_total() {
    let shed = Error::Busy("admission queue full".to_string());
    assert_eq!(
        xmlpub_net::frame::encode_error_code(&shed),
        xmlpub_net::frame::encode_error_code(&Error::exec(""))
    );
}
