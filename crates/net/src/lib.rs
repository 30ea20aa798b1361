//! xmlpub-net: the publishing service on the wire.
//!
//! Everything below `crates/server` is a library: a [`Server`] owns the
//! shared database, plan cache and bounded worker pool, and in-process
//! [`Session`]s drive it. This crate is the missing network face — the
//! paper's middleware (§2) is a *server* clients talk to, not a crate
//! they link:
//!
//! - [`frame`] — the length-prefixed wire protocol: request frames
//!   (SQL, prepared-exec, publish, control), response frames (schema +
//!   row batches, streamed XML chunks, end-of-stream with `ExecStats`,
//!   typed errors, BUSY), and a panic-free incremental decoder.
//! - [`server`] — [`NetServer`]: a TCP acceptor over `std::net` plus a
//!   reader/writer thread pair per connection. Requests pipeline per
//!   connection, execution stays on the shared bounded `WorkerPool`
//!   (admission-control sheds surface as BUSY frames), published XML
//!   streams from the tagger straight onto the socket, and
//!   [`NetServer::drain`] shuts down gracefully: stop accepting, finish
//!   in-flight work, GOODBYE + FIN, bounded by a deadline.
//! - [`client`] — [`NetClient`]: a small blocking client used by the
//!   CLI's `--connect` mode, the benchmark under `benchmark/`, and the
//!   differential tests that pin socket output byte-identical to
//!   in-process results. [`NetClient::retry_busy`] retries shed
//!   requests with capped backoff, counting them in [`RetryStats`].
//!
//! Net-layer traffic is observable as `server.net.*` counters in the
//! server's own metrics registry, so `\metrics` and the text exposition
//! include them with no extra plumbing.

pub mod client;
pub mod frame;
pub mod server;

pub use client::{NetClient, Reply, RetryStats};
pub use frame::{
    encode_request, encode_response, Frame, FrameDecoder, ProtocolError, Request, Response,
    MAX_FRAME_LEN, PROTOCOL_VERSION,
};
pub use server::{resolve_view, DrainReport, NetConfig, NetServer};

#[cfg(doc)]
use xmlpub_server::{Server, Session};
