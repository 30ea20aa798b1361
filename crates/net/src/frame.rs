//! The framed wire protocol.
//!
//! Every message on the socket is one *frame*:
//!
//! ```text
//! frame   := len:u32be  kind:u8  payload:bytes[len-1]
//! ```
//!
//! `len` counts the kind byte plus the payload, so a frame occupies
//! `4 + len` bytes on the wire. `len == 0` and `len > MAX_FRAME_LEN` are
//! protocol errors — a decoder never allocates based on an unvalidated
//! length, and a reader that hits EOF mid-frame reports a typed
//! [`ProtocolError::Truncated`] instead of hanging or panicking.
//!
//! Payloads are built from four primitives, all big-endian:
//! `u8`, `u32`, `u64`/`i64`, and `str` (`u32` length + UTF-8 bytes).
//! Values carry a one-byte type tag. The grammar of every frame kind is
//! documented on [`Request`] and [`Response`]; `docs/serving.md` has the
//! prose version.
//!
//! The decoder is deliberately *pull-based and incremental*
//! ([`FrameDecoder::feed`] / [`FrameDecoder::next_frame`]): the
//! connection reader can hand it arbitrary byte slices as they arrive
//! from the socket, and fuzzing random prefixes through it
//! (`tests/frame_fuzz.rs`) shows it either yields frames, asks for more
//! bytes, or fails with a typed error — never panics, never loops.

use std::io::Read;

use xmlpub_common::{DataType, Error, Field, Relation, Result, Schema, Tuple, Value};
use xmlpub_engine::ExecStats;

/// Protocol version exchanged in `Hello`/`Ok`.
pub const PROTOCOL_VERSION: u32 = 1;

/// Hard ceiling on `len` (kind + payload). Anything larger is rejected
/// at the length word, *before* any allocation, so a hostile or corrupt
/// peer cannot make the server reserve gigabytes. 16 MiB comfortably
/// fits the largest row batch / XML chunk the server emits (batches are
/// re-chunked at [`ROW_BATCH_ROWS`] rows and [`ROW_BATCH_BYTE_BUDGET`]
/// encoded bytes, XML at [`XML_CHUNK_BYTES`]).
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Rows per `RowBatch` frame when the server serialises a result.
pub const ROW_BATCH_ROWS: usize = 1024;

/// Target XML bytes per `XmlChunk` frame (the streaming tagger's sink
/// flushes at this granularity).
pub const XML_CHUNK_BYTES: usize = 32 * 1024;

/// A typed protocol-level failure. Distinct from [`Error`] so the
/// connection layer can count malformed traffic (`server.net.malformed`)
/// and answer with a protocol error frame instead of tearing down the
/// process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The length word was zero — every frame has at least a kind byte.
    ZeroLength,
    /// The length word exceeded [`MAX_FRAME_LEN`].
    Oversized {
        /// The advertised length.
        len: u64,
    },
    /// The stream ended (or a payload ran out) mid-frame.
    Truncated,
    /// The kind byte is not a known frame kind.
    UnknownKind(u8),
    /// The payload did not match the frame kind's grammar.
    Malformed(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::ZeroLength => write!(f, "zero-length frame"),
            ProtocolError::Oversized { len } => {
                write!(f, "oversized frame: {len} bytes > max {MAX_FRAME_LEN}")
            }
            ProtocolError::Truncated => write!(f, "truncated frame"),
            ProtocolError::UnknownKind(k) => write!(f, "unknown frame kind 0x{k:02x}"),
            ProtocolError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
        }
    }
}

impl From<ProtocolError> for Error {
    fn from(e: ProtocolError) -> Error {
        Error::exec(format!("protocol: {e}"))
    }
}

// Frame kind bytes. Requests are < 0x80, responses >= 0x80.
const K_HELLO: u8 = 0x01;
const K_SQL: u8 = 0x02;
const K_PREPARE: u8 = 0x03;
const K_EXEC_PREPARED: u8 = 0x04;
const K_PUBLISH: u8 = 0x05;
const K_GOODBYE: u8 = 0x06;

const K_OK: u8 = 0x81;
const K_SCHEMA: u8 = 0x82;
const K_ROW_BATCH: u8 = 0x83;
const K_XML_CHUNK: u8 = 0x84;
const K_END: u8 = 0x85;
const K_ERROR: u8 = 0x86;
const K_BUSY: u8 = 0x87;
const K_SRV_GOODBYE: u8 = 0x88;

/// A client → server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `0x01` — handshake: `version:u32`. Answered with [`Response::Ok`].
    Hello {
        /// Client protocol version.
        version: u32,
    },
    /// `0x02` — run SQL: `sql:str`. Answered with `Schema RowBatch* End`
    /// (or `Busy`/`Error`).
    Sql {
        /// Query text (the `gapply` extension included).
        sql: String,
    },
    /// `0x03` — prepare a named statement: `name:str sql:str`. Answered
    /// with [`Response::Ok`] whose info is `"hit"` or `"miss"`.
    Prepare {
        /// Statement name.
        name: String,
        /// Query text.
        sql: String,
    },
    /// `0x04` — execute a prepared statement: `name:str`. Answered like
    /// [`Request::Sql`].
    ExecPrepared {
        /// Statement name.
        name: String,
    },
    /// `0x05` — publish a named XML view: `view:str pretty:u8`.
    /// Answered with `XmlChunk* End` (or `Busy`/`Error`).
    Publish {
        /// Registered view name (`supplier_parts`, `customer_orders`).
        view: String,
        /// Indented output when true.
        pretty: bool,
    },
    /// `0x06` — client is done; the server answers [`Response::Goodbye`]
    /// and closes.
    Goodbye,
}

/// A server → client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `0x81` — generic acknowledgement: `version:u32 info:str`.
    Ok {
        /// Server protocol version.
        version: u32,
        /// Human-readable detail (handshake banner, prepare hit/miss).
        info: String,
    },
    /// `0x82` — result schema, sent once before the first `RowBatch`:
    /// `nfields:u32 (has_qual:u8 [qual:str] name:str dtype:u8)*`.
    Schema(Schema),
    /// `0x83` — a slice of result rows: `nrows:u32 ncols:u32 value*`
    /// (row-major).
    RowBatch(Vec<Tuple>),
    /// `0x84` — a slice of the XML document: raw UTF-8 bytes.
    XmlChunk(Vec<u8>),
    /// `0x85` — end of one response: `rows:u64 nstats:u8 u64*` (engine
    /// counters in `stats_fields` order).
    End {
        /// Rows in the full result (or rows streamed through the tagger).
        rows: u64,
        /// Engine counters for the request.
        stats: ExecStats,
    },
    /// `0x86` — the request failed: `code:u8 msg:str`.
    Error {
        /// Maps onto [`Error`] variants (see [`encode_error_code`]).
        code: u8,
        /// The error message.
        message: String,
    },
    /// `0x87` — the request was shed by admission control: `msg:str`.
    /// The client may retry after a backoff; nothing was executed.
    Busy {
        /// The shed message.
        message: String,
    },
    /// `0x88` — the server is draining; no more requests will be
    /// answered on this connection. FIN follows.
    Goodbye,
}

// ---------------------------------------------------------------------
// Payload primitives.

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// A cursor over a frame payload; every getter is bounds-checked and
/// returns [`ProtocolError::Truncated`]/[`ProtocolError::Malformed`]
/// instead of slicing out of range.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> std::result::Result<&'a [u8], ProtocolError> {
        if self.buf.len() - self.pos < n {
            return Err(ProtocolError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> std::result::Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> std::result::Result<u32, ProtocolError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> std::result::Result<u64, ProtocolError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> std::result::Result<String, ProtocolError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ProtocolError::Malformed("string is not UTF-8".into()))
    }

    fn finish(self) -> std::result::Result<(), ProtocolError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtocolError::Malformed(format!(
                "{} trailing payload bytes",
                self.buf.len() - self.pos
            )))
        }
    }
}

// ---------------------------------------------------------------------
// Value / schema / stats codecs.

const V_NULL: u8 = 0;
const V_BOOL: u8 = 1;
const V_INT: u8 = 2;
const V_FLOAT: u8 = 3;
const V_STR: u8 = 4;

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(V_NULL),
        Value::Bool(b) => {
            buf.push(V_BOOL);
            buf.push(u8::from(*b));
        }
        Value::Int(i) => {
            buf.push(V_INT);
            buf.extend_from_slice(&i.to_be_bytes());
        }
        Value::Float(f) => {
            buf.push(V_FLOAT);
            buf.extend_from_slice(&f.to_bits().to_be_bytes());
        }
        Value::Str(s) => {
            buf.push(V_STR);
            put_str(buf, s);
        }
    }
}

fn get_value(c: &mut Cursor<'_>) -> std::result::Result<Value, ProtocolError> {
    match c.u8()? {
        V_NULL => Ok(Value::Null),
        V_BOOL => Ok(Value::Bool(c.u8()? != 0)),
        V_INT => Ok(Value::Int(c.u64()? as i64)),
        V_FLOAT => Ok(Value::Float(f64::from_bits(c.u64()?))),
        V_STR => Ok(Value::str(c.str()?)),
        tag => Err(ProtocolError::Malformed(format!("unknown value tag {tag}"))),
    }
}

fn dtype_code(t: DataType) -> u8 {
    match t {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Str => 3,
        DataType::Null => 4,
    }
}

fn dtype_of(code: u8) -> std::result::Result<DataType, ProtocolError> {
    Ok(match code {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Str,
        4 => DataType::Null,
        other => return Err(ProtocolError::Malformed(format!("unknown dtype code {other}"))),
    })
}

fn put_schema(buf: &mut Vec<u8>, schema: &Schema) {
    put_u32(buf, schema.len() as u32);
    for f in schema.fields() {
        match &f.qualifier {
            Some(q) => {
                buf.push(1);
                put_str(buf, q);
            }
            None => buf.push(0),
        }
        put_str(buf, &f.name);
        buf.push(dtype_code(f.data_type));
    }
}

fn get_schema(c: &mut Cursor<'_>) -> std::result::Result<Schema, ProtocolError> {
    let n = c.u32()? as usize;
    // A schema is tiny; cap the count so a corrupt length can't force a
    // huge reservation even inside an otherwise-valid frame.
    if n > 1 << 16 {
        return Err(ProtocolError::Malformed(format!("schema with {n} fields")));
    }
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let qualifier = if c.u8()? != 0 { Some(c.str()?) } else { None };
        let name = c.str()?;
        let data_type = dtype_of(c.u8()?)?;
        fields.push(match qualifier {
            Some(q) => Field::qualified(q, name, data_type),
            None => Field::new(name, data_type),
        });
    }
    Ok(Schema::new(fields))
}

/// The engine counters carried by an `End` frame, in wire order. The
/// count prefix makes the format forward-compatible: a newer server may
/// append counters and an older client skips the extras.
fn stats_fields(s: &ExecStats) -> [u64; 11] {
    [
        s.rows_scanned,
        s.group_rows_scanned,
        s.join_probes,
        s.groups_processed,
        s.pgq_executions,
        s.apply_inner_executions,
        s.apply_cache_hits,
        s.rows_sorted,
        s.rows_hashed,
        s.plan_cache_hits,
        s.plan_cache_misses,
    ]
}

fn put_stats(buf: &mut Vec<u8>, s: &ExecStats) {
    let fields = stats_fields(s);
    buf.push(fields.len() as u8);
    for v in fields {
        put_u64(buf, v);
    }
}

fn get_stats(c: &mut Cursor<'_>) -> std::result::Result<ExecStats, ProtocolError> {
    let n = c.u8()? as usize;
    let mut vals = [0u64; 11];
    for i in 0..n {
        let v = c.u64()?;
        if i < vals.len() {
            vals[i] = v;
        }
    }
    let mut s = ExecStats::default();
    [
        s.rows_scanned,
        s.group_rows_scanned,
        s.join_probes,
        s.groups_processed,
        s.pgq_executions,
        s.apply_inner_executions,
        s.apply_cache_hits,
        s.rows_sorted,
        s.rows_hashed,
        s.plan_cache_hits,
        s.plan_cache_misses,
    ] = vals;
    Ok(s)
}

/// Map an [`Error`] variant onto a wire code (and back, lossily: parse
/// positions are folded into the message).
pub fn encode_error_code(e: &Error) -> u8 {
    match e {
        Error::Parse { .. } => 0,
        Error::Bind(_) => 1,
        Error::Plan(_) => 2,
        // A shed travels as a BUSY frame, never as an ERROR code; a stray
        // one is reported as the execution failure it would otherwise be.
        Error::Execution(_) | Error::Busy(_) => 3,
        Error::Catalog(_) => 4,
        Error::Xml(_) => 5,
        Error::Unsupported(_) => 6,
    }
}

/// Reconstruct an [`Error`] from a wire code + message.
pub fn decode_error(code: u8, message: String) -> Error {
    match code {
        0 => Error::Parse { message, line: 0, column: 0 },
        1 => Error::Bind(message),
        2 => Error::Plan(message),
        4 => Error::Catalog(message),
        5 => Error::Xml(message),
        6 => Error::Unsupported(message),
        _ => Error::Execution(message),
    }
}

// ---------------------------------------------------------------------
// Frame encode.

fn frame_bytes(kind: u8, payload: &[u8]) -> Vec<u8> {
    let len = 1 + payload.len();
    debug_assert!(len <= MAX_FRAME_LEN, "emitting an oversized frame ({len} bytes)");
    let mut out = Vec::with_capacity(4 + len);
    put_u32(&mut out, len as u32);
    out.push(kind);
    out.extend_from_slice(payload);
    out
}

/// Encode a request into its on-wire bytes (length word included).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut p = Vec::new();
    let kind = match req {
        Request::Hello { version } => {
            put_u32(&mut p, *version);
            K_HELLO
        }
        Request::Sql { sql } => {
            put_str(&mut p, sql);
            K_SQL
        }
        Request::Prepare { name, sql } => {
            put_str(&mut p, name);
            put_str(&mut p, sql);
            K_PREPARE
        }
        Request::ExecPrepared { name } => {
            put_str(&mut p, name);
            K_EXEC_PREPARED
        }
        Request::Publish { view, pretty } => {
            put_str(&mut p, view);
            p.push(u8::from(*pretty));
            K_PUBLISH
        }
        Request::Goodbye => K_GOODBYE,
    };
    frame_bytes(kind, &p)
}

/// Encode a response into its on-wire bytes (length word included).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut p = Vec::new();
    let kind = match resp {
        Response::Ok { version, info } => {
            put_u32(&mut p, *version);
            put_str(&mut p, info);
            K_OK
        }
        Response::Schema(schema) => {
            put_schema(&mut p, schema);
            K_SCHEMA
        }
        Response::RowBatch(rows) => {
            put_u32(&mut p, rows.len() as u32);
            let ncols = rows.first().map(|r| r.len()).unwrap_or(0);
            put_u32(&mut p, ncols as u32);
            for row in rows {
                debug_assert_eq!(row.len(), ncols, "ragged row batch");
                for v in row.values() {
                    put_value(&mut p, v);
                }
            }
            K_ROW_BATCH
        }
        Response::XmlChunk(bytes) => {
            p.extend_from_slice(bytes);
            K_XML_CHUNK
        }
        Response::End { rows, stats } => {
            put_u64(&mut p, *rows);
            put_stats(&mut p, stats);
            K_END
        }
        Response::Error { code, message } => {
            p.push(*code);
            put_str(&mut p, message);
            K_ERROR
        }
        Response::Busy { message } => {
            put_str(&mut p, message);
            K_BUSY
        }
        Response::Goodbye => K_SRV_GOODBYE,
    };
    frame_bytes(kind, &p)
}

// ---------------------------------------------------------------------
// Frame decode.

/// Either side's frame, as decoded off the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A client → server frame.
    Request(Request),
    /// A server → client frame.
    Response(Response),
}

fn decode_payload(kind: u8, payload: &[u8]) -> std::result::Result<Frame, ProtocolError> {
    let mut c = Cursor::new(payload);
    let frame = match kind {
        K_HELLO => Frame::Request(Request::Hello { version: c.u32()? }),
        K_SQL => Frame::Request(Request::Sql { sql: c.str()? }),
        K_PREPARE => Frame::Request(Request::Prepare { name: c.str()?, sql: c.str()? }),
        K_EXEC_PREPARED => Frame::Request(Request::ExecPrepared { name: c.str()? }),
        K_PUBLISH => Frame::Request(Request::Publish { view: c.str()?, pretty: c.u8()? != 0 }),
        K_GOODBYE => Frame::Request(Request::Goodbye),
        K_OK => Frame::Response(Response::Ok { version: c.u32()?, info: c.str()? }),
        K_SCHEMA => Frame::Response(Response::Schema(get_schema(&mut c)?)),
        K_ROW_BATCH => {
            let nrows = c.u32()? as usize;
            let ncols = c.u32()? as usize;
            // Guard the reservation: every value occupies at least its
            // one-byte type tag, so the claimed shape must fit in the
            // bytes that actually arrived. Zero-column rows carry no
            // bytes at all, so a nonzero row count there is unbounded
            // by the payload and rejected outright — the reservation
            // below never exceeds the (already length-checked) payload.
            let remaining = payload.len().saturating_sub(8);
            if (ncols == 0 && nrows > 0) || nrows.saturating_mul(ncols) > remaining {
                return Err(ProtocolError::Malformed(format!(
                    "row batch claims {nrows} x {ncols} values in {remaining} payload bytes"
                )));
            }
            let mut rows = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                let mut vals = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    vals.push(get_value(&mut c)?);
                }
                rows.push(Tuple::new(vals));
            }
            Frame::Response(Response::RowBatch(rows))
        }
        K_XML_CHUNK => {
            let bytes = payload.to_vec();
            c.pos = payload.len();
            Frame::Response(Response::XmlChunk(bytes))
        }
        K_END => Frame::Response(Response::End { rows: c.u64()?, stats: get_stats(&mut c)? }),
        K_ERROR => Frame::Response(Response::Error { code: c.u8()?, message: c.str()? }),
        K_BUSY => Frame::Response(Response::Busy { message: c.str()? }),
        K_SRV_GOODBYE => Frame::Response(Response::Goodbye),
        other => return Err(ProtocolError::UnknownKind(other)),
    };
    c.finish()?;
    Ok(frame)
}

/// Incremental frame decoder over a growing byte buffer.
///
/// Feed it whatever the socket produced; [`next_frame`](Self::next_frame) yields complete
/// frames and compacts the buffer. All length validation happens here,
/// so the connection layer sees either a valid [`Frame`] or a typed
/// [`ProtocolError`] — a decoder error is terminal for the stream (the
/// bytes after a malformed frame cannot be trusted to re-align).
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Append raw socket bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decode the next complete frame, `Ok(None)` if more bytes are
    /// needed. Length-word validation (zero, oversized) happens before
    /// any payload is awaited, so a hostile length fails fast.
    pub fn next_frame(&mut self) -> std::result::Result<Option<Frame>, ProtocolError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            self.compact();
            return Ok(None);
        }
        let len = frame_len(avail[..4].try_into().unwrap())?;
        if avail.len() < 4 + len {
            self.compact();
            return Ok(None);
        }
        let kind = avail[4];
        let frame = decode_payload(kind, &avail[5..4 + len])?;
        self.pos += 4 + len;
        self.compact();
        Ok(Some(frame))
    }

    fn compact(&mut self) {
        // Reclaim consumed prefix once it dominates the buffer.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// The payload length a frame's length word announces, rejected when
/// zero or above [`MAX_FRAME_LEN`].
fn frame_len(word: [u8; 4]) -> std::result::Result<usize, ProtocolError> {
    match u32::from_be_bytes(word) as usize {
        0 => Err(ProtocolError::ZeroLength),
        len if len > MAX_FRAME_LEN => Err(ProtocolError::Oversized { len: len as u64 }),
        len => Ok(len),
    }
}

// ---------------------------------------------------------------------
// Blocking IO helpers.

/// Read one frame from a blocking reader. `Ok(None)` on clean EOF at a
/// frame boundary; EOF mid-frame is [`ProtocolError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>> {
    let mut len_buf = [0u8; 4];
    match read_exact_or_eof(r, &mut len_buf)? {
        ReadOutcome::Eof => return Ok(None),
        ReadOutcome::Partial => return Err(ProtocolError::Truncated.into()),
        ReadOutcome::Full => {}
    }
    let len = frame_len(len_buf)?;
    let mut body = vec![0u8; len];
    match read_exact_or_eof(r, &mut body)? {
        ReadOutcome::Full => {}
        _ => return Err(ProtocolError::Truncated.into()),
    }
    decode_payload(body[0], &body[1..]).map(Some).map_err(Error::from)
}

enum ReadOutcome {
    Full,
    Partial,
    Eof,
}

fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<ReadOutcome> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Ok(if filled == 0 { ReadOutcome::Eof } else { ReadOutcome::Partial }),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(Error::exec(format!("socket read failed: {e}"))),
        }
    }
    Ok(ReadOutcome::Full)
}

/// Encoded payload bytes of one value, mirroring [`put_value`].
fn encoded_value_len(v: &Value) -> usize {
    match v {
        Value::Null => 1,
        Value::Bool(_) => 2,
        Value::Int(_) | Value::Float(_) => 9,
        Value::Str(s) => 5 + s.len(),
    }
}

/// Byte budget for one `RowBatch` payload: comfortably under
/// [`MAX_FRAME_LEN`] so the frame (kind byte included) always encodes.
pub const ROW_BATCH_BYTE_BUDGET: usize = MAX_FRAME_LEN - 1024;

/// Chunk a materialised relation into `Schema RowBatch* End` frames.
///
/// Batches split at [`ROW_BATCH_ROWS`] rows *and* at
/// [`ROW_BATCH_BYTE_BUDGET`] encoded bytes — rows carrying large
/// strings must not push a frame past [`MAX_FRAME_LEN`], which the
/// client would reject as a protocol violation. A single row too big
/// for any frame becomes an in-band [`Response::Error`] instead.
pub fn result_frames(rel: &Relation, stats: &ExecStats) -> Vec<Response> {
    let mut out = Vec::with_capacity(2 + rel.len() / ROW_BATCH_ROWS);
    out.push(Response::Schema(rel.schema().clone()));
    let mut batch: Vec<Tuple> = Vec::new();
    let mut batch_bytes = 8usize; // the nrows + ncols words
    for row in rel.rows() {
        let row_bytes: usize = row.values().iter().map(encoded_value_len).sum();
        if 8 + row_bytes > ROW_BATCH_BYTE_BUDGET {
            out.push(Response::Error {
                code: encode_error_code(&Error::exec("")),
                message: format!(
                    "result row encodes to {row_bytes} bytes, exceeding the \
                     {MAX_FRAME_LEN}-byte frame limit"
                ),
            });
            return out;
        }
        if !batch.is_empty()
            && (batch.len() == ROW_BATCH_ROWS || batch_bytes + row_bytes > ROW_BATCH_BYTE_BUDGET)
        {
            out.push(Response::RowBatch(std::mem::take(&mut batch)));
            batch_bytes = 8;
        }
        batch_bytes += row_bytes;
        batch.push(row.clone());
    }
    if !batch.is_empty() {
        out.push(Response::RowBatch(batch));
    }
    out.push(Response::End { rows: rel.len() as u64, stats: stats.clone() });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlpub_common::row;

    fn round_trip(frame: Frame) {
        let bytes = match &frame {
            Frame::Request(r) => encode_request(r),
            Frame::Response(r) => encode_response(r),
        };
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert_eq!(dec.next_frame().unwrap(), Some(frame));
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn all_frame_kinds_round_trip() {
        round_trip(Frame::Request(Request::Hello { version: PROTOCOL_VERSION }));
        round_trip(Frame::Request(Request::Sql { sql: "select 1".into() }));
        round_trip(Frame::Request(Request::Prepare { name: "q1".into(), sql: "select 2".into() }));
        round_trip(Frame::Request(Request::ExecPrepared { name: "q1".into() }));
        round_trip(Frame::Request(Request::Publish {
            view: "supplier_parts".into(),
            pretty: true,
        }));
        round_trip(Frame::Request(Request::Goodbye));
        round_trip(Frame::Response(Response::Ok { version: 1, info: "hello".into() }));
        let schema = Schema::new(vec![
            Field::qualified("s", "s_suppkey", DataType::Int),
            Field::new("avgprice", DataType::Float),
            Field::new("pad", DataType::Null),
        ]);
        round_trip(Frame::Response(Response::Schema(schema)));
        round_trip(Frame::Response(Response::RowBatch(vec![
            row![1, 2.5, "a&b"],
            row![Value::Null, Value::Bool(true), Value::Float(-0.0)],
        ])));
        round_trip(Frame::Response(Response::XmlChunk(b"<a>x</a>".to_vec())));
        let stats = ExecStats { rows_scanned: 7, plan_cache_hits: 1, ..Default::default() };
        round_trip(Frame::Response(Response::End { rows: 42, stats }));
        round_trip(Frame::Response(Response::Error { code: 3, message: "boom".into() }));
        round_trip(Frame::Response(Response::Busy { message: "queue full".into() }));
        round_trip(Frame::Response(Response::Goodbye));
    }

    #[test]
    fn empty_row_batch_and_empty_chunk_round_trip() {
        round_trip(Frame::Response(Response::RowBatch(Vec::new())));
        round_trip(Frame::Response(Response::XmlChunk(Vec::new())));
    }

    #[test]
    fn zero_length_frame_is_rejected() {
        let mut dec = FrameDecoder::new();
        dec.feed(&[0, 0, 0, 0, K_GOODBYE]);
        assert_eq!(dec.next_frame(), Err(ProtocolError::ZeroLength));
    }

    #[test]
    fn oversized_frame_is_rejected_at_the_length_word() {
        let mut dec = FrameDecoder::new();
        // Claims 1 GiB; only 4 bytes ever arrive. The decoder must
        // reject at the length word, not wait for a payload.
        dec.feed(&(1u32 << 30).to_be_bytes());
        assert!(matches!(dec.next_frame(), Err(ProtocolError::Oversized { .. })));
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let mut dec = FrameDecoder::new();
        dec.feed(&frame_bytes(0x7f, &[]));
        assert_eq!(dec.next_frame(), Err(ProtocolError::UnknownKind(0x7f)));
    }

    #[test]
    fn truncated_payload_is_a_typed_error() {
        // A Sql frame whose string length runs past the payload.
        let mut p = Vec::new();
        put_u32(&mut p, 100); // string claims 100 bytes
        p.extend_from_slice(b"short");
        let bytes = frame_bytes(K_SQL, &p);
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert_eq!(dec.next_frame(), Err(ProtocolError::Truncated));
    }

    #[test]
    fn trailing_garbage_in_payload_is_malformed() {
        let mut p = Vec::new();
        put_u32(&mut p, PROTOCOL_VERSION);
        p.push(0xee); // one extra byte
        let bytes = frame_bytes(K_HELLO, &p);
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert!(matches!(dec.next_frame(), Err(ProtocolError::Malformed(_))));
    }

    #[test]
    fn byte_at_a_time_feeding_decodes_identically() {
        let frames = [
            encode_request(&Request::Sql { sql: "select count(*) from part".into() }),
            encode_response(&Response::Busy { message: "full".into() }),
        ]
        .concat();
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in frames {
            dec.feed(&[b]);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got.len(), 2);
        assert!(matches!(got[0], Frame::Request(Request::Sql { .. })));
        assert!(matches!(got[1], Frame::Response(Response::Busy { .. })));
    }

    #[test]
    fn read_frame_reports_clean_eof_and_truncation() {
        let bytes = encode_request(&Request::Goodbye);
        let mut full = std::io::Cursor::new(bytes.clone());
        assert!(matches!(read_frame(&mut full).unwrap(), Some(Frame::Request(Request::Goodbye))));
        assert!(read_frame(&mut full).unwrap().is_none()); // clean EOF
        for cut in 1..bytes.len() {
            let mut partial = std::io::Cursor::new(bytes[..cut].to_vec());
            let err = read_frame(&mut partial).unwrap_err();
            assert!(err.to_string().contains("truncated"), "cut={cut}: {err}");
        }
    }

    #[test]
    fn row_batch_counts_are_bounded_by_payload_bytes() {
        // nrows = u32::MAX with ncols = 0: nothing in the payload bounds
        // the row count, so the decoder must refuse before reserving.
        let mut p = Vec::new();
        put_u32(&mut p, u32::MAX);
        put_u32(&mut p, 0);
        let mut dec = FrameDecoder::new();
        dec.feed(&frame_bytes(K_ROW_BATCH, &p));
        assert!(matches!(dec.next_frame(), Err(ProtocolError::Malformed(_))));

        // A huge claimed shape with a tiny payload is likewise rejected
        // at the counts, not trusted into Vec::with_capacity.
        let mut p = Vec::new();
        put_u32(&mut p, u32::MAX);
        put_u32(&mut p, 2);
        p.push(V_NULL);
        let mut dec = FrameDecoder::new();
        dec.feed(&frame_bytes(K_ROW_BATCH, &p));
        assert!(matches!(dec.next_frame(), Err(ProtocolError::Malformed(_))));
    }

    #[test]
    fn result_frames_split_batches_by_encoded_bytes() {
        // 5 rows of ~6 MiB each: a 1024-row batch would encode to ~30
        // MiB, far past MAX_FRAME_LEN. Byte-aware chunking must keep
        // every emitted frame within the wire limit.
        let schema = Schema::new(vec![Field::new("s", DataType::Str)]);
        let big = "x".repeat(6 * 1024 * 1024);
        let rows: Vec<_> = (0..5).map(|_| row![big.clone()]).collect();
        let rel = Relation::new(schema, rows).unwrap();
        let frames = result_frames(&rel, &ExecStats::default());
        let batches = frames.iter().filter(|f| matches!(f, Response::RowBatch(_))).count();
        assert!(batches >= 3, "expected byte-split batches, got {batches}");
        let mut rows_seen = 0;
        for f in &frames {
            if let Response::RowBatch(rows) = f {
                rows_seen += rows.len();
            }
            assert!(encode_response(f).len() <= 4 + MAX_FRAME_LEN, "oversized frame on the wire");
        }
        assert_eq!(rows_seen, 5);
        assert!(matches!(frames.last(), Some(Response::End { rows: 5, .. })));
    }

    #[test]
    fn result_frames_answer_unframeable_row_with_error() {
        // A single row bigger than any frame cannot be shipped; the
        // response must degrade to an in-band Error, not an oversized
        // frame the client would treat as a protocol violation.
        let schema = Schema::new(vec![Field::new("s", DataType::Str)]);
        let rel = Relation::new(schema, vec![row!["x".repeat(MAX_FRAME_LEN)]]).unwrap();
        let frames = result_frames(&rel, &ExecStats::default());
        assert!(matches!(frames.last(), Some(Response::Error { .. })));
        for f in &frames {
            assert!(encode_response(f).len() <= 4 + MAX_FRAME_LEN);
        }
    }

    #[test]
    fn result_frames_chunk_large_relations() {
        let schema = Schema::new(vec![Field::new("n", DataType::Int)]);
        let rows: Vec<_> = (0..2500i64).map(|i| row![i]).collect();
        let rel = Relation::new(schema, rows).unwrap();
        let frames = result_frames(&rel, &ExecStats::default());
        // Schema + ceil(2500/1024)=3 batches + End.
        assert_eq!(frames.len(), 5);
        assert!(matches!(frames[0], Response::Schema(_)));
        assert!(matches!(frames.last(), Some(Response::End { rows: 2500, .. })));
    }
}
