//! A small blocking client for the framed protocol.
//!
//! One request in flight at a time: each call writes a request frame
//! and reads frames until the response terminator (`Ok`, `End`,
//! `Error`, `Busy`, or `Goodbye`). Pipelining is a *server* capability
//! — clients that want it write raw frames back-to-back (the tests
//! do); this client keeps the call-site simple for the CLI and the
//! differential tests.

use std::io::Write;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use xmlpub_common::{Error, Relation, Result, Schema, Tuple};
use xmlpub_engine::ExecStats;

use crate::frame::{
    decode_error, encode_request, read_frame, Frame, ProtocolError, Request, Response,
    PROTOCOL_VERSION,
};

/// A request's outcome: done, or shed by admission control (nothing
/// executed; retry after a backoff if you want the answer).
#[derive(Debug)]
pub enum Reply<T> {
    /// The request executed.
    Done(T),
    /// The server answered BUSY; the message carries the shed detail.
    Busy(String),
}

impl<T> Reply<T> {
    /// Unwrap `Done`, turning `Busy` back into the typed
    /// [`Error::Busy`] the server shed the request with.
    pub fn expect_done(self) -> Result<T> {
        match self {
            Reply::Done(v) => Ok(v),
            Reply::Busy(msg) => Err(Error::Busy(msg)),
        }
    }
}

/// Retry bookkeeping for shed requests, kept apart from service times:
/// a shed costs a retry and a backoff sleep, never a latency sample.
#[derive(Debug, Clone, Copy, Default)]
pub struct RetryStats {
    /// Sheds received (each one retried).
    pub busy_retries: u64,
    /// Total time slept backing off.
    pub backoff: Duration,
}

impl RetryStats {
    /// Fold another accumulator into this one.
    pub fn merge(&mut self, other: &RetryStats) {
        self.busy_retries += other.busy_retries;
        self.backoff += other.backoff;
    }
}

/// A connected client (handshake already done).
pub struct NetClient {
    stream: TcpStream,
}

impl NetClient {
    /// Connect and handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<NetClient> {
        let stream =
            TcpStream::connect(addr).map_err(|e| Error::exec(format!("connect failed: {e}")))?;
        let _ = stream.set_nodelay(true);
        let mut client = NetClient { stream };
        client.send(&Request::Hello { version: PROTOCOL_VERSION })?;
        match client.next_response()? {
            Response::Ok { .. } => Ok(client),
            Response::Error { code, message } => Err(decode_error(code, message)),
            other => Err(unexpected(&other, "Ok")),
        }
    }

    fn send(&mut self, req: &Request) -> Result<()> {
        self.stream
            .write_all(&encode_request(req))
            .map_err(|e| Error::exec(format!("socket write failed: {e}")))
    }

    fn next_response(&mut self) -> Result<Response> {
        match read_frame(&mut self.stream)? {
            Some(Frame::Response(resp)) => Ok(resp),
            Some(Frame::Request(_)) => {
                Err(ProtocolError::Malformed("request frame from server".to_string()).into())
            }
            None => Err(Error::exec("server closed the connection mid-response")),
        }
    }

    /// Run a SQL query; `Busy` if it was shed.
    pub fn sql(&mut self, sql: &str) -> Result<Reply<(Relation, ExecStats)>> {
        self.send(&Request::Sql { sql: sql.to_string() })?;
        self.read_rows()
    }

    /// Prepare a named statement; `Done(true)` if planning hit the
    /// shared cache.
    pub fn prepare(&mut self, name: &str, sql: &str) -> Result<Reply<bool>> {
        self.send(&Request::Prepare { name: name.to_string(), sql: sql.to_string() })?;
        match self.next_response()? {
            Response::Ok { info, .. } => Ok(Reply::Done(info == "hit")),
            Response::Busy { message } => Ok(Reply::Busy(message)),
            Response::Error { code, message } => Err(decode_error(code, message)),
            other => Err(unexpected(&other, "Ok")),
        }
    }

    /// Execute a prepared statement; `Busy` if it was shed.
    pub fn exec_prepared(&mut self, name: &str) -> Result<Reply<(Relation, ExecStats)>> {
        self.send(&Request::ExecPrepared { name: name.to_string() })?;
        self.read_rows()
    }

    /// Publish a named view, collecting the streamed chunks into a
    /// document. Returns the XML plus the row count and engine counters
    /// from the End frame.
    pub fn publish(&mut self, view: &str, pretty: bool) -> Result<Reply<(String, u64, ExecStats)>> {
        self.send(&Request::Publish { view: view.to_string(), pretty })?;
        let mut xml = Vec::new();
        loop {
            match self.next_response()? {
                Response::XmlChunk(mut bytes) => xml.append(&mut bytes),
                Response::End { rows, stats } => {
                    let xml = String::from_utf8(xml)
                        .map_err(|_| Error::Xml("published document is not UTF-8".to_string()))?;
                    return Ok(Reply::Done((xml, rows, stats)));
                }
                Response::Busy { message } => return Ok(Reply::Busy(message)),
                Response::Error { code, message } => return Err(decode_error(code, message)),
                other => return Err(unexpected(&other, "XmlChunk/End")),
            }
        }
    }

    /// Retry `op` until it is not shed, backing off exponentially from
    /// 10µs (capped at ~1ms) so a shed client sleeps instead of
    /// busy-spinning a core away from the workers it is waiting on. The
    /// retry cost goes into `retries`, never into the caller's
    /// service-time clock — re-time the successful attempt yourself.
    pub fn retry_busy<T>(
        &mut self,
        retries: &mut RetryStats,
        mut op: impl FnMut(&mut NetClient) -> Result<Reply<T>>,
    ) -> Result<T> {
        let mut backoff = Duration::from_micros(10);
        loop {
            match op(self).and_then(Reply::expect_done) {
                Err(Error::Busy(_)) => {
                    retries.busy_retries += 1;
                    let slept = Instant::now();
                    std::thread::sleep(backoff);
                    retries.backoff += slept.elapsed();
                    backoff = (backoff * 2).min(Duration::from_millis(1));
                }
                other => return other,
            }
        }
    }

    /// Say goodbye and wait for the server's goodbye + FIN.
    pub fn goodbye(mut self) -> Result<()> {
        self.send(&Request::Goodbye)?;
        match self.next_response()? {
            Response::Goodbye => {}
            other => return Err(unexpected(&other, "Goodbye")),
        }
        let _ = self.stream.shutdown(Shutdown::Both);
        Ok(())
    }

    fn read_rows(&mut self) -> Result<Reply<(Relation, ExecStats)>> {
        let mut schema: Option<Schema> = None;
        let mut rows: Vec<Tuple> = Vec::new();
        loop {
            match self.next_response()? {
                Response::Schema(s) => schema = Some(s),
                Response::RowBatch(mut batch) => rows.append(&mut batch),
                Response::End { stats, .. } => {
                    let schema = schema.ok_or_else(|| {
                        Error::from(ProtocolError::Malformed("End before Schema".to_string()))
                    })?;
                    let rel = Relation::new(schema, rows)?;
                    return Ok(Reply::Done((rel, stats)));
                }
                Response::Busy { message } => return Ok(Reply::Busy(message)),
                Response::Error { code, message } => return Err(decode_error(code, message)),
                other => return Err(unexpected(&other, "Schema/RowBatch/End")),
            }
        }
    }
}

fn unexpected(got: &Response, wanted: &str) -> Error {
    let kind = match got {
        Response::Ok { .. } => "Ok",
        Response::Schema(_) => "Schema",
        Response::RowBatch(_) => "RowBatch",
        Response::XmlChunk(_) => "XmlChunk",
        Response::End { .. } => "End",
        Response::Error { .. } => "Error",
        Response::Busy { .. } => "Busy",
        Response::Goodbye => "Goodbye",
    };
    ProtocolError::Malformed(format!("unexpected {kind} frame (wanted {wanted})")).into()
}
