//! The TCP face of the service: acceptor, per-connection threads,
//! pipelining, BUSY surfacing, and graceful drain.
//!
//! ## Threading model
//!
//! One acceptor thread polls the listener (non-blocking with a short
//! sleep, so drain never waits on `accept`). Each accepted connection
//! gets *two* threads:
//!
//! - a **reader** that pulls bytes off the socket, runs them through the
//!   incremental [`FrameDecoder`], and forwards decoded requests into a
//!   bounded channel — this is what makes requests *pipeline*: a client
//!   may write many frames back-to-back and the reader decodes ahead
//!   while earlier requests execute. When the channel (depth
//!   [`NetConfig::max_pipeline`]) is full the reader blocks, which
//!   stops reading the socket, which backpressures the client through
//!   TCP flow control.
//! - a **writer/executor** that owns the connection's [`Session`],
//!   takes requests off the channel *in order*, executes each on the
//!   shared worker pool, and writes the response frames. Responses
//!   therefore come back in request order — the protocol has no request
//!   ids and needs none.
//!
//! Execution itself never runs on connection threads: sessions submit
//! to the server's bounded `WorkerPool` exactly as in-process sessions
//! do, so the admission-control story (queue depth, shedding) is shared
//! between transport and library users. A shed surfaces to the client
//! as a [`Response::Busy`] frame rather than an error: nothing was
//! executed, and the client may retry.
//!
//! Published XML does not round-trip through a buffer: the pool worker
//! streams tagger output into an `XmlChunkWriter` that frames bytes
//! straight onto the socket ([`Session::publish_to`]). This is safe
//! because the writer thread blocks inside `publish_to` for the
//! duration — there is never a second writer to interleave with.
//!
//! ## Drain sequence
//!
//! [`NetServer::drain`] flips the draining flag, at which point:
//! 1. the acceptor exits and drops the listener — new connections are
//!    refused by the OS from here on;
//! 2. each reader notices the flag at its next read-timeout tick
//!    (≤50ms), stops reading *new* requests and hangs up its channel;
//! 3. each writer finishes every request already in the channel, sends
//!    a [`Response::Goodbye`] frame, and closes the socket (FIN);
//! 4. `drain` waits for active connections to reach zero, bounded by
//!    the deadline — past it, remaining sockets are shut down hard and
//!    the report counts them as aborted.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xmlpub::Database;
use xmlpub_common::{Error, Result};
use xmlpub_obs::{Counter, MetricsHandle};
use xmlpub_server::{Server, Session};
use xmlpub_xml::view::XmlView;
use xmlpub_xml::{customer_orders_view, supplier_parts_view};

use crate::frame::{
    encode_error_code, encode_response, result_frames, Frame, FrameDecoder, ProtocolError, Request,
    Response, PROTOCOL_VERSION, XML_CHUNK_BYTES,
};

/// How the acceptor polls for connections and the drain flag.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Read timeout on connection sockets: the latency bound on a reader
/// noticing the drain flag.
const READ_POLL: Duration = Duration::from_millis(50);

/// Network-layer configuration (the execution side is all
/// [`xmlpub_server::ServerConfig`]).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`NetServer::local_addr`]).
    pub addr: String,
    /// Per-connection pipeline depth: how many decoded requests may wait
    /// behind the one executing before the reader stops pulling bytes
    /// off the socket.
    pub max_pipeline: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig { addr: "127.0.0.1:0".to_string(), max_pipeline: 32 }
    }
}

/// What [`NetServer::drain`] observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// Every connection finished its in-flight work and said goodbye
    /// within the deadline.
    pub drained: bool,
    /// Connections forcibly shut down at the deadline.
    pub aborted: usize,
}

/// Resolve a published view by its wire name. The registry is
/// deliberately closed — the protocol names views, it does not ship
/// view definitions.
pub fn resolve_view(db: &Database, name: &str) -> Result<XmlView> {
    match name {
        "supplier_parts" => supplier_parts_view(db.catalog()),
        "customer_orders" => customer_orders_view(db.catalog()),
        other => Err(Error::Catalog(format!(
            "unknown view {other:?} (known: supplier_parts, customer_orders)"
        ))),
    }
}

/// Hot-path counters resolved once per connection (name lookups happen
/// at connect time, not per frame). All no-ops when metrics are
/// disabled.
#[derive(Clone, Default)]
struct NetCounters {
    bytes_in: Option<Arc<Counter>>,
    bytes_out: Option<Arc<Counter>>,
    frames_in: Option<Arc<Counter>>,
    frames_out: Option<Arc<Counter>>,
    requests: Option<Arc<Counter>>,
    busy: Option<Arc<Counter>>,
    malformed: Option<Arc<Counter>>,
}

impl NetCounters {
    fn resolve(metrics: &MetricsHandle) -> Self {
        NetCounters {
            bytes_in: metrics.counter("server.net.bytes_in"),
            bytes_out: metrics.counter("server.net.bytes_out"),
            frames_in: metrics.counter("server.net.frames_in"),
            frames_out: metrics.counter("server.net.frames_out"),
            requests: metrics.counter("server.net.requests"),
            busy: metrics.counter("server.net.busy"),
            malformed: metrics.counter("server.net.malformed"),
        }
    }
}

fn bump(c: &Option<Arc<Counter>>, n: u64) {
    if let Some(c) = c {
        c.add(n);
    }
}

struct NetShared {
    server: Arc<Server>,
    draining: AtomicBool,
    /// Connections accepted but not yet finished (their connection
    /// thread still runs).
    active: AtomicUsize,
    next_conn: AtomicU64,
    /// Stream clones for the hard-abort path at the drain deadline.
    conns: Mutex<HashMap<u64, TcpStream>>,
    max_pipeline: usize,
    counters: NetCounters,
}

impl NetShared {
    fn metrics(&self) -> &MetricsHandle {
        self.server.metrics()
    }
}

/// A running TCP listener over a [`Server`].
pub struct NetServer {
    shared: Arc<NetShared>,
    acceptor: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl NetServer {
    /// Bind and start accepting. The execution side (pool, cache,
    /// metrics) is the `server`'s; this only adds the transport.
    pub fn start(server: Arc<Server>, config: NetConfig) -> Result<NetServer> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| Error::exec(format!("bind {}: {e}", config.addr)))?;
        let addr = listener.local_addr().map_err(|e| Error::exec(format!("local_addr: {e}")))?;
        listener.set_nonblocking(true).map_err(|e| Error::exec(format!("set_nonblocking: {e}")))?;
        let counters = NetCounters::resolve(server.metrics());
        let shared = Arc::new(NetShared {
            server,
            draining: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            next_conn: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            max_pipeline: config.max_pipeline.max(1),
            counters,
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("net-acceptor".to_string())
                .spawn(move || accept_loop(shared, listener))
                .map_err(|e| Error::exec(format!("spawn acceptor: {e}")))?
        };
        Ok(NetServer { shared, acceptor: Some(acceptor), addr })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::Acquire)
    }

    /// Whether drain has started.
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Graceful shutdown, bounded by `deadline`: stop accepting, let
    /// in-flight requests finish and their responses flush, send
    /// GOODBYE on every connection, then close. Connections still busy
    /// at the deadline are shut down hard and counted as aborted.
    pub fn drain(mut self, deadline: Duration) -> DrainReport {
        self.drain_inner(deadline)
    }

    fn drain_inner(&mut self, deadline: Duration) -> DrainReport {
        self.shared.draining.store(true, Ordering::Release);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let start = Instant::now();
        while self.shared.active.load(Ordering::Acquire) > 0 && start.elapsed() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut aborted = 0;
        if self.shared.active.load(Ordering::Acquire) > 0 {
            // Deadline passed: kick the stragglers off the socket. Their
            // connection threads unblock (reads/writes fail) and exit.
            let conns = self.shared.conns.lock().unwrap();
            aborted = conns.len();
            for stream in conns.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            drop(conns);
            // Bounded grace for the aborted threads to unwind — they are
            // off the socket already, this only tidies the counters.
            let grace = Instant::now();
            while self.shared.active.load(Ordering::Acquire) > 0
                && grace.elapsed() < Duration::from_secs(2)
            {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let drained = aborted == 0 && self.shared.active.load(Ordering::Acquire) == 0;
        self.shared.metrics().add("server.net.drains", 1);
        DrainReport { drained, aborted }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            // Not explicitly drained: shut down with a short deadline so
            // tests and the CLI never leak the acceptor.
            self.drain_inner(Duration::from_secs(1));
        }
    }
}

fn accept_loop(shared: Arc<NetShared>, listener: TcpListener) {
    while !shared.draining.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                shared.active.fetch_add(1, Ordering::AcqRel);
                shared.metrics().add("server.net.connections.opened", 1);
                shared.metrics().gauge_add("server.net.connections.active", 1);
                if let Ok(clone) = stream.try_clone() {
                    shared.conns.lock().unwrap().insert(id, clone);
                }
                let conn_shared = Arc::clone(&shared);
                let spawned =
                    std::thread::Builder::new().name(format!("net-conn-{id}")).spawn(move || {
                        run_connection(&conn_shared, stream, id);
                        finish_connection(&conn_shared, id);
                    });
                if spawned.is_err() {
                    finish_connection(&shared, id);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    // Dropping the listener here closes the socket: refused connections
    // during drain come from the OS, not from a thread we keep around.
}

fn finish_connection(shared: &NetShared, id: u64) {
    shared.conns.lock().unwrap().remove(&id);
    shared.metrics().add("server.net.connections.closed", 1);
    shared.metrics().gauge_add("server.net.connections.active", -1);
    shared.active.fetch_sub(1, Ordering::AcqRel);
}

/// One message from reader to writer: a decoded request, or the typed
/// protocol error that ended the stream.
type Inbound = std::result::Result<Request, ProtocolError>;

fn run_connection(shared: &Arc<NetShared>, mut stream: TcpStream, id: u64) {
    let _ = stream.set_nodelay(true);
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::sync_channel::<Inbound>(shared.max_pipeline);
    let done = Arc::new(AtomicBool::new(false));
    let reader = {
        let shared = Arc::clone(shared);
        let done = Arc::clone(&done);
        std::thread::Builder::new()
            .name(format!("net-read-{id}"))
            .spawn(move || reader_loop(reader_stream, tx, shared, done))
    };
    let reader = match reader {
        Ok(h) => h,
        Err(_) => return,
    };
    writer_loop(shared, &mut stream, rx);
    // Writer is finished (goodbye sent or error): stop the reader and
    // close our half.
    done.store(true, Ordering::Release);
    let _ = stream.shutdown(Shutdown::Both);
    let _ = reader.join();
}

fn reader_loop(
    mut stream: TcpStream,
    tx: SyncSender<Inbound>,
    shared: Arc<NetShared>,
    done: Arc<AtomicBool>,
) {
    let counters = shared.counters.clone();
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 64 * 1024];
    loop {
        if done.load(Ordering::Acquire) || shared.draining.load(Ordering::Acquire) {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                if dec.pending() > 0 {
                    // EOF mid-frame: the client vanished partway through
                    // a request.
                    bump(&counters.malformed, 1);
                    let _ = tx.send(Err(ProtocolError::Truncated));
                }
                return;
            }
            Ok(n) => {
                bump(&counters.bytes_in, n as u64);
                dec.feed(&buf[..n]);
                loop {
                    match dec.next_frame() {
                        Ok(Some(Frame::Request(req))) => {
                            bump(&counters.frames_in, 1);
                            let is_goodbye = matches!(req, Request::Goodbye);
                            if tx.send(Ok(req)).is_err() {
                                return; // writer gone
                            }
                            if is_goodbye {
                                return; // nothing follows a goodbye
                            }
                        }
                        Ok(Some(Frame::Response(_))) => {
                            bump(&counters.malformed, 1);
                            let _ = tx.send(Err(ProtocolError::Malformed(
                                "response frame from client".to_string(),
                            )));
                            return;
                        }
                        Ok(None) => break,
                        Err(e) => {
                            // Decoder errors are terminal: framing is lost.
                            bump(&counters.malformed, 1);
                            let _ = tx.send(Err(e));
                            return;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

fn send(stream: &mut TcpStream, counters: &NetCounters, resp: &Response) -> std::io::Result<()> {
    let bytes = encode_response(resp);
    stream.write_all(&bytes)?;
    bump(&counters.bytes_out, bytes.len() as u64);
    bump(&counters.frames_out, 1);
    Ok(())
}

fn writer_loop(shared: &NetShared, stream: &mut TcpStream, rx: Receiver<Inbound>) {
    let mut session = shared.server.session();
    let counters = &shared.counters;
    // rx.iter() ends when the reader hangs up: client EOF, goodbye, a
    // protocol error, or drain. Whatever was already decoded still gets
    // executed and answered — that is the "finish in-flight" half of the
    // drain contract.
    for inbound in rx.iter() {
        match inbound {
            Ok(req) => {
                bump(&counters.requests, 1);
                let goodbye = matches!(req, Request::Goodbye);
                if handle_request(shared, &mut session, stream, req).is_err() {
                    return; // client unreachable; nothing left to say
                }
                if goodbye {
                    return; // handle_request sent the goodbye frame
                }
            }
            Err(proto) => {
                // Answer the protocol error so the client knows why the
                // connection is going away, then stop: framing is lost.
                let _ = send(
                    stream,
                    counters,
                    &Response::Error { code: 3, message: format!("protocol: {proto}") },
                );
                return;
            }
        }
    }
    // Channel closed without a client goodbye — drain or client EOF.
    // Say goodbye either way; on a dead socket the write just fails.
    let _ = send(stream, counters, &Response::Goodbye);
}

/// Execute one request and write its response frames. `Err` means the
/// *socket* failed (responses unsendable) — request-level failures are
/// answered in-band and return `Ok`.
fn handle_request(
    shared: &NetShared,
    session: &mut Session,
    stream: &mut TcpStream,
    req: Request,
) -> std::io::Result<()> {
    let counters = &shared.counters;
    match req {
        Request::Hello { version } => {
            if version != PROTOCOL_VERSION {
                send(
                    stream,
                    counters,
                    &Response::Error {
                        code: 6,
                        message: format!(
                            "protocol version {version} unsupported (server speaks {PROTOCOL_VERSION})"
                        ),
                    },
                )
            } else {
                send(
                    stream,
                    counters,
                    &Response::Ok {
                        version: PROTOCOL_VERSION,
                        info: "xmlpub publishing service".to_string(),
                    },
                )
            }
        }
        Request::Sql { sql } => answer_rows(stream, counters, session.execute(&sql)),
        Request::Prepare { name, sql } => match session.prepare(&name, &sql) {
            Ok(hit) => send(
                stream,
                counters,
                &Response::Ok {
                    version: PROTOCOL_VERSION,
                    info: if hit { "hit".to_string() } else { "miss".to_string() },
                },
            ),
            Err(e) => answer_error(stream, counters, &e),
        },
        Request::ExecPrepared { name } => {
            answer_rows(stream, counters, session.execute_prepared(&name))
        }
        Request::Publish { view, pretty } => {
            let resolved = resolve_view(session.database(), &view);
            let view = match resolved {
                Ok(v) => v,
                Err(e) => return answer_error(stream, counters, &e),
            };
            let sink = match stream.try_clone() {
                Ok(clone) => XmlChunkWriter::new(clone, counters.clone()),
                Err(e) => return Err(e),
            };
            // The pool worker writes XmlChunk frames straight to the
            // socket while we block here; we append the final partial
            // chunk and the End frame after it returns, so frame order
            // is total.
            match session.publish_to(&view, pretty, sink) {
                Ok((sink, rows, stats)) => {
                    sink.finish()?;
                    send(stream, counters, &Response::End { rows, stats })
                }
                Err(e) => answer_error(stream, counters, &e),
            }
        }
        Request::Goodbye => send(stream, counters, &Response::Goodbye),
    }
}

fn answer_rows(
    stream: &mut TcpStream,
    counters: &NetCounters,
    result: Result<(xmlpub_common::Relation, xmlpub_engine::ExecStats)>,
) -> std::io::Result<()> {
    match result {
        Ok((rel, stats)) => {
            for frame in result_frames(&rel, &stats) {
                send(stream, counters, &frame)?;
            }
            Ok(())
        }
        Err(e) => answer_error(stream, counters, &e),
    }
}

/// Answer a request-level failure: sheds become BUSY (retryable,
/// nothing executed), everything else a typed error frame.
fn answer_error(stream: &mut TcpStream, counters: &NetCounters, e: &Error) -> std::io::Result<()> {
    if matches!(e, Error::Busy(_)) {
        bump(&counters.busy, 1);
        send(stream, counters, &Response::Busy { message: e.to_string() })
    } else {
        send(
            stream,
            counters,
            &Response::Error { code: encode_error_code(e), message: e.to_string() },
        )
    }
}

/// An `io::Write` sink that frames tagger output into `XmlChunk`
/// frames on a socket, buffered to [`XML_CHUNK_BYTES`] so tiny tagger
/// writes don't become tiny frames.
struct XmlChunkWriter {
    stream: TcpStream,
    buf: Vec<u8>,
    counters: NetCounters,
}

impl XmlChunkWriter {
    fn new(stream: TcpStream, counters: NetCounters) -> Self {
        XmlChunkWriter { stream, buf: Vec::with_capacity(XML_CHUNK_BYTES), counters }
    }

    fn flush_chunk(&mut self) -> std::io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let chunk = std::mem::take(&mut self.buf);
        let bytes = encode_response(&Response::XmlChunk(chunk));
        self.stream.write_all(&bytes)?;
        bump(&self.counters.bytes_out, bytes.len() as u64);
        bump(&self.counters.frames_out, 1);
        Ok(())
    }

    /// Flush the final partial chunk; called by the connection writer
    /// after `publish_to` hands the sink back.
    fn finish(mut self) -> std::io::Result<()> {
        self.flush_chunk()
    }
}

impl Write for XmlChunkWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        if self.buf.len() >= XML_CHUNK_BYTES {
            self.flush_chunk()?;
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.flush_chunk()
    }
}
