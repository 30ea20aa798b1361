//! The load driver over the paper's Figure 8 workloads.
//!
//! One driver serves every harness in the repository — the CLI's
//! `\workload`, the `xmlpub-loadgen` binary in both of its modes, and
//! the `serve`/`obs` benches — over two axes that are plain data:
//!
//! * the **transport** ([`Transport`]): an in-process [`Session`]
//!   ([`InProcess`]) or a TCP connection (`xmlpub_net::NetClient`);
//! * the **arrival process** ([`Arrival`]): *closed loop* — a client
//!   never has more than one request in flight and issues the next as
//!   soon as the last one answers, so offered load scales with client
//!   count (good for throughput ceilings) — or *open loop* at a fixed
//!   rate — request `k` is scheduled at `t0 + k/rate` regardless of how
//!   request `k-1` fared, the way real traffic arrives (good for
//!   latency under a fixed arrival process).
//!
//! Each client thread opens its own transport, prepares the five
//! Figure 8 queries (Q1–Q4 plus the reordered Q4 variant) in their
//! `gapply` form when the run is warm, then issues them round-robin.
//! Threads split the global schedule (thread `t` issues requests
//! `t, t+clients, ...`). `t0` is taken at a barrier *after* every
//! thread has connected and warmed up, so setup cost is outside the
//! measured window and an open-loop run never starts with a sleep
//! deficit.
//!
//! Accounting rules: a service time is the successful attempt alone.
//! Shed requests ([`Error::Busy`]) are retried after a capped
//! exponential backoff; sheds and backoff sleeps are counted separately
//! and never become latency samples. Open-loop lateness (the scheduler
//! falling behind the arrival process because every client is stuck
//! waiting) is reported so a saturated run is visibly not measuring the
//! rate it claims.
//!
//! With a non-zero `update_mix` the clients interleave **writes**: a
//! deterministic fraction of requests become update-then-republish
//! operations (rename one supplier, then [`Session::republish`] the
//! Figure 1 view), exercising the delta-maintained document path under
//! concurrent query load. Update latencies are reported separately.
//! Only transports with write verbs can do this — the wire has none.

use std::collections::BTreeMap;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use xmlpub_common::{DeltaBatch, Error, Result, Tuple, Value};
use xmlpub_obs::HistogramSnapshot;
use xmlpub_xml::workloads::figure8_workloads;
use xmlpub_xml::XmlView;

use crate::{Server, Session};

/// How requests arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Each client sends its next request when the previous one answers.
    Closed,
    /// Request `k` is due at `t0 + k / rate_per_sec`, across all clients.
    Open {
        /// Target arrival rate, requests/second.
        rate_per_sec: f64,
    },
}

/// Load-run shape.
#[derive(Debug, Clone, Copy)]
pub struct LoadOptions {
    /// Concurrent client threads (each with its own transport).
    pub clients: usize,
    /// Total query requests across all clients.
    pub requests: usize,
    /// The arrival process.
    pub arrival: Arrival,
    /// Prepare statements first (warm plan cache / warm path). When
    /// false every request re-plans through the cache by SQL text.
    pub warm: bool,
    /// Fraction of requests (0.0–1.0) that are followed by an
    /// update-then-republish operation. 0 disables writes entirely.
    pub update_mix: f64,
}

impl LoadOptions {
    /// The closed-loop shape: every one of `clients` makes `iters`
    /// round-robin passes over the Figure 8 workload set, warm.
    pub fn passes(clients: usize, iters: usize) -> Self {
        LoadOptions {
            clients,
            requests: clients.max(1) * iters * figure8_workloads().len(),
            arrival: Arrival::Closed,
            warm: true,
            update_mix: 0.0,
        }
    }
}

/// What a load client talks through. Every request method reports a shed
/// as [`Error::Busy`] (nothing executed; the driver retries it).
pub trait Transport: Sized {
    /// Prepare a named statement.
    fn prepare(&mut self, name: &str, sql: &str) -> Result<()>;
    /// Run ad-hoc SQL, discarding the rows.
    fn execute(&mut self, sql: &str) -> Result<()>;
    /// Run a prepared statement, discarding the rows.
    fn execute_prepared(&mut self, name: &str) -> Result<()>;
    /// Apply one write to the served data. Never shed.
    fn update(&mut self) -> Result<()> {
        Err(Error::Unsupported("this transport has no write verbs".to_string()))
    }
    /// Republish the Figure 1 view; `true` when the cached document was
    /// reused (clean or spliced) rather than recomputed.
    fn republish(&mut self) -> Result<bool> {
        Err(Error::Unsupported("this transport has no write verbs".to_string()))
    }
    /// Hang up.
    fn close(self) -> Result<()> {
        Ok(())
    }
}

/// The in-process transport: a [`Session`] on `server`, writing through
/// a churn source shared by all clients of the run.
pub struct InProcess<'s> {
    server: &'s Server,
    session: Session,
    churn: &'s ChurnSource,
    view: XmlView,
}

impl<'s> InProcess<'s> {
    /// Open a session on `server`.
    pub fn new(server: &'s Server, churn: &'s ChurnSource) -> Result<Self> {
        let view = xmlpub_xml::supplier_parts_view(server.database().catalog())?;
        Ok(InProcess { server, session: server.session(), churn, view })
    }
}

impl Transport for InProcess<'_> {
    fn prepare(&mut self, name: &str, sql: &str) -> Result<()> {
        self.session.prepare(name, sql).map(drop)
    }

    fn execute(&mut self, sql: &str) -> Result<()> {
        self.session.execute(sql).map(drop)
    }

    fn execute_prepared(&mut self, name: &str) -> Result<()> {
        self.session.execute_prepared(name).map(drop)
    }

    fn update(&mut self) -> Result<()> {
        self.churn.mutate_one(self.server)
    }

    fn republish(&mut self) -> Result<bool> {
        let (_, outcome) = self.session.republish(&self.view, false)?;
        Ok(outcome.is_incremental())
    }
}

/// Serialized churn source shared by all writer clients: renames one
/// supplier per tick, reading the current tuple under the lock so the
/// delete side of the batch always matches.
#[derive(Default)]
pub struct ChurnSource {
    tick: Mutex<u64>,
}

impl ChurnSource {
    /// Rename one supplier (round-robin by tick) through
    /// [`crate::Server::database`]'s delta path.
    pub fn mutate_one(&self, server: &Server) -> Result<()> {
        let mut tick = self.tick.lock().map_err(|_| Error::exec("churn lock poisoned"))?;
        *tick += 1;
        let db = server.database();
        let name_col = db.catalog().table("supplier")?.schema.resolve(None, "s_name")?;
        let data = db.catalog().data("supplier")?;
        let rows = data.rows();
        if rows.is_empty() {
            return Err(Error::exec("supplier table is empty; nothing to churn"));
        }
        let old = rows[(*tick as usize) % rows.len()].clone();
        let mut vals = old.values().to_vec();
        let base = match &vals[name_col] {
            Value::Str(s) => s.split(" u#").next().unwrap_or(s).to_string(),
            other => return Err(Error::exec(format!("s_name should be a string, got {other:?}"))),
        };
        vals[name_col] = Value::str(format!("{base} u#{}", *tick));
        let batch = DeltaBatch::new(vec![Tuple::new(vals)], vec![old]);
        db.apply_delta("supplier", &batch)?;
        Ok(())
    }
}

/// Retry bookkeeping for shed requests, kept separate from service
/// times: a shed costs a retry and a backoff sleep, never a latency
/// sample.
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

/// Run `attempt` until it is not shed, backing off exponentially
/// (capped at ~1ms) so a shed client sleeps instead of busy-spinning a
/// core away from the workers it is waiting on. Returns the value with
/// the service time, in microseconds, of the attempt that completed —
/// each attempt restarts the clock, so sheds and backoff sleeps surface
/// only through `retries`.
pub fn retry_busy<T>(
    retries: &mut RetryStats,
    mut attempt: impl FnMut() -> Result<T>,
) -> Result<(T, u64)> {
    let mut backoff = Duration::from_micros(10);
    loop {
        let start = Instant::now();
        match attempt() {
            Err(Error::Busy(_)) => {
                retries.busy_retries += 1;
                let slept = Instant::now();
                std::thread::sleep(backoff);
                retries.backoff += slept.elapsed();
                backoff = (backoff * 2).min(Duration::from_millis(1));
            }
            other => return other.map(|v| (v, start.elapsed().as_micros() as u64)),
        }
    }
}

/// Latency summary for one workload query.
#[derive(Debug, Clone)]
pub struct QueryStats {
    /// Workload name (Q1…Q4R).
    pub name: &'static str,
    /// Completed requests.
    pub requests: u64,
    /// Mean latency in microseconds.
    pub mean_us: f64,
    /// Median latency.
    pub p50_us: f64,
    /// 95th-percentile latency.
    pub p95_us: f64,
    /// 99th-percentile latency.
    pub p99_us: f64,
}

impl QueryStats {
    fn summarize(name: &'static str, mut samples: Vec<u64>) -> QueryStats {
        samples.sort_unstable();
        let mean_us = if samples.is_empty() {
            0.0
        } else {
            samples.iter().sum::<u64>() as f64 / samples.len() as f64
        };
        QueryStats {
            name,
            requests: samples.len() as u64,
            mean_us,
            p50_us: percentile(&samples, 50.0),
            p95_us: percentile(&samples, 95.0),
            p99_us: percentile(&samples, 99.0),
        }
    }
}

/// The full report of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The options the run used.
    pub options: LoadOptions,
    /// Per-query service-time summaries, in workload order.
    pub per_query: Vec<QueryStats>,
    /// Update-then-republish latency summary, present when the run had
    /// a non-zero `update_mix`. Not counted in `total_requests`.
    pub update_stats: Option<QueryStats>,
    /// Republishes that reused the cached document (clean or spliced)
    /// rather than recomputing it.
    pub incremental_republishes: u64,
    /// Total completed requests across all clients and queries.
    pub total_requests: u64,
    /// Requests shed by admission control and retried.
    pub shed_retries: u64,
    /// Wall time spent sleeping in shed backoff, summed across clients.
    /// Together with `shed_retries` this is the full cost of admission
    /// control — it is *excluded* from the per-query service-time
    /// percentiles, which time only the attempt that completed.
    pub retry_backoff: Duration,
    /// Open loop: requests issued more than 1ms after their scheduled
    /// arrival — when this is a large fraction, the run was not
    /// actually open loop at the target rate.
    pub late_arrivals: u64,
    /// Wall clock for the measured window: from the post-connect,
    /// post-warmup barrier to the last client finishing.
    pub wall: Duration,
    /// Completed requests per second of wall time.
    pub throughput_qps: f64,
    /// The server's own `server.query_us` histogram after the run —
    /// percentiles as the *service* measured them (including queueing),
    /// independent of the client-side samples above. Filled by
    /// [`run_fig8_load`], which has the server at hand.
    pub server_query_us: Option<HistogramSnapshot>,
}

impl std::fmt::Display for LoadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let o = &self.options;
        write!(f, "== load report ==  ")?;
        match o.arrival {
            Arrival::Closed => {
                write!(f, "closed loop: {} clients, {} requests", o.clients, o.requests)?
            }
            Arrival::Open { rate_per_sec } => write!(
                f,
                "open loop: {} clients, {} requests at {rate_per_sec:.0}/s",
                o.clients, o.requests
            )?,
        }
        writeln!(f, " ({} path)", if o.warm { "prepared/warm" } else { "ad-hoc/cold" })?;
        writeln!(
            f,
            "  {:>5}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}",
            "query", "requests", "mean_us", "p50_us", "p95_us", "p99_us"
        )?;
        for q in self.per_query.iter().chain(&self.update_stats) {
            write!(
                f,
                "  {:>5}  {:>8}  {:>10.1}  {:>10.1}  {:>10.1}  {:>10.1}",
                q.name, q.requests, q.mean_us, q.p50_us, q.p95_us, q.p99_us
            )?;
            if q.name == UPDATE_NAME {
                write!(
                    f,
                    "  ({} of {} republishes incremental)",
                    self.incremental_republishes, q.requests
                )?;
            }
            writeln!(f)?;
        }
        write!(
            f,
            "  total {} requests in {:.3}s -> {:.1} q/s ({} shed-then-retried, {:.3}s backoff, excluded from percentiles",
            self.total_requests,
            self.wall.as_secs_f64(),
            self.throughput_qps,
            self.shed_retries,
            self.retry_backoff.as_secs_f64()
        )?;
        if o.arrival != Arrival::Closed {
            write!(f, "; {} late arrivals", self.late_arrivals)?;
        }
        write!(f, ")")?;
        if let Some(h) = &self.server_query_us {
            write!(
                f,
                "\n  server registry: {} samples, mean {:.1}us, p50<={}us, p95<={}us, p99<={}us",
                h.count,
                h.mean_us(),
                h.percentile_us(50.0),
                h.percentile_us(95.0),
                h.percentile_us(99.0)
            )?;
        }
        Ok(())
    }
}

/// Nearest-rank percentile over an ascending-sorted sample, `p` in 0–100.
fn percentile(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted_us[idx] as f64
}

/// Pseudo-query name update-then-republish samples are reported under.
const UPDATE_NAME: &str = "upd";

/// What one client thread measured.
#[derive(Default)]
struct ClientOutcome {
    samples: BTreeMap<&'static str, Vec<u64>>,
    retries: RetryStats,
    incremental_republishes: u64,
    late: u64,
}

/// Run the Figure 8 workloads in-process against `server`, and read the
/// service's own view of the run back through the text exposition — the
/// same path `\metrics` and external scrapers use.
pub fn run_fig8_load(server: &Server, options: LoadOptions) -> Result<LoadReport> {
    let churn = ChurnSource::default();
    let mut report = run_load(|| InProcess::new(server, &churn), options)?;
    report.server_query_us = xmlpub::parse_text(&server.metrics_text())
        .ok()
        .and_then(|snap| snap.histogram("server.query_us").cloned());
    Ok(report)
}

/// Run the Figure 8 workloads over transports opened by `connect`, one
/// per client thread.
pub fn run_load<T: Transport>(
    connect: impl Fn() -> Result<T> + Sync,
    options: LoadOptions,
) -> Result<LoadReport> {
    let interval = match options.arrival {
        Arrival::Closed => None,
        Arrival::Open { rate_per_sec } if rate_per_sec > 0.0 => {
            Some(Duration::from_secs_f64(1.0 / rate_per_sec))
        }
        Arrival::Open { .. } => return Err(Error::exec("open-loop rate must be positive")),
    };
    let workloads = figure8_workloads();
    let clients = options.clients.max(1);
    // Clients park here once their transport is ready (warm-up
    // included); the arrival clock starts only after release. The extra
    // participant is the coordinating thread, which takes the
    // wall-clock origin at the same instant.
    let barrier = Barrier::new(clients + 1);

    let (wall, outcomes): (Duration, Vec<Result<ClientOutcome>>) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let (workloads, barrier, connect) = (&workloads, &barrier, &connect);
                s.spawn(move || -> Result<ClientOutcome> {
                    // Setup failures still hit the barrier — a client
                    // that can't connect must not strand the others.
                    let setup = (|| -> Result<T> {
                        let mut transport = connect()?;
                        if options.warm {
                            for w in workloads {
                                transport.prepare(w.name, &w.gapply_sql)?;
                            }
                            // Warm the document cache too, so measured
                            // republishes start from a baseline.
                            if options.update_mix > 0.0 {
                                transport.republish()?;
                            }
                        }
                        Ok(transport)
                    })();
                    barrier.wait();
                    let start = Instant::now();
                    let mut transport = setup?;
                    let mut out = ClientOutcome::default();
                    // Deterministic update schedule: accumulate the mix
                    // fraction per request and fire on whole-number
                    // crossings — no RNG, exact ratio over the run.
                    let mut update_acc = 0.0f64;
                    // This client owns global request indices t, t+C, ...
                    // and walks the workload set round-robin.
                    for (turn, k) in (t..options.requests).step_by(clients).enumerate() {
                        if let Some(interval) = interval {
                            let scheduled = interval.mul_f64(k as f64);
                            let now = start.elapsed();
                            if now < scheduled {
                                std::thread::sleep(scheduled - now);
                            } else if now > scheduled + Duration::from_millis(1) {
                                out.late += 1;
                            }
                        }
                        update_acc += options.update_mix;
                        while update_acc >= 1.0 {
                            update_acc -= 1.0;
                            let mutate = Instant::now();
                            transport.update()?;
                            let mutate_us = mutate.elapsed().as_micros() as u64;
                            let (incremental, us) =
                                retry_busy(&mut out.retries, || transport.republish())?;
                            out.incremental_republishes += u64::from(incremental);
                            out.samples.entry(UPDATE_NAME).or_default().push(mutate_us + us);
                        }
                        let w = &workloads[turn % workloads.len()];
                        let ((), us) = retry_busy(&mut out.retries, || {
                            if options.warm {
                                transport.execute_prepared(w.name)
                            } else {
                                transport.execute(&w.gapply_sql)
                            }
                        })?;
                        out.samples.entry(w.name).or_default().push(us);
                    }
                    transport.close()?;
                    Ok(out)
                })
            })
            .collect();
        barrier.wait();
        let run_start = Instant::now();
        let outcomes =
            handles.into_iter().map(|h| h.join().expect("load client panicked")).collect();
        (run_start.elapsed(), outcomes)
    });

    let mut merged = ClientOutcome::default();
    for outcome in outcomes {
        let outcome = outcome?;
        for (name, samples) in outcome.samples {
            merged.samples.entry(name).or_default().extend(samples);
        }
        merged.retries.merge(&outcome.retries);
        merged.incremental_republishes += outcome.incremental_republishes;
        merged.late += outcome.late;
    }

    let update_stats =
        merged.samples.remove(UPDATE_NAME).map(|s| QueryStats::summarize(UPDATE_NAME, s));
    let per_query: Vec<QueryStats> = workloads
        .iter()
        .map(|w| QueryStats::summarize(w.name, merged.samples.remove(w.name).unwrap_or_default()))
        .collect();
    let total_requests = per_query.iter().map(|q| q.requests).sum::<u64>();
    let secs = wall.as_secs_f64();
    Ok(LoadReport {
        options,
        per_query,
        update_stats,
        incremental_republishes: merged.incremental_republishes,
        total_requests,
        shed_retries: merged.retries.busy_retries,
        retry_backoff: merged.retries.backoff,
        late_arrivals: merged.late,
        wall,
        throughput_qps: if secs > 0.0 { total_requests as f64 / secs } else { 0.0 },
        server_query_us: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerConfig;
    use xmlpub::Database;

    #[test]
    fn tiny_load_run_completes_and_reports() {
        let server = Server::new(
            Database::tpch(0.001).unwrap(),
            ServerConfig { workers: 2, queue_depth: 8, ..ServerConfig::default() },
        );
        let report = run_fig8_load(&server, LoadOptions::passes(2, 2)).unwrap();
        // 2 clients x 2 iters x 5 workloads.
        assert_eq!(report.total_requests, 20);
        assert_eq!(report.per_query.len(), 5);
        for q in &report.per_query {
            assert_eq!(q.requests, 4);
            assert!(q.p50_us <= q.p95_us && q.p95_us <= q.p99_us);
        }
        assert!(report.throughput_qps > 0.0);
        // The server-side histogram saw every completed request.
        let h = report.server_query_us.as_ref().expect("server registry histogram");
        assert_eq!(h.count, report.total_requests);
        assert!(h.percentile_us(50.0) <= h.percentile_us(99.0));
        let text = report.to_string();
        assert!(text.contains("p95_us") && text.contains("q/s"), "{text}");
        assert!(text.contains("server registry:"), "{text}");
        // Retry cost is reported separately from the service-time
        // percentiles; a run with no sheds slept for nothing.
        assert!(text.contains("backoff, excluded from percentiles"), "{text}");
        if report.shed_retries == 0 {
            assert_eq!(report.retry_backoff, Duration::ZERO);
        }
        // The warm path really warmed the cache. The five workloads
        // share four distinct gapply plans (Q4r re-prepares Q4's text),
        // and both clients warm *concurrently*: simultaneous misses on
        // one key both build (the loser adopts the winner's entry), so
        // the exact hit/miss split is timing-dependent. Assert the
        // race-free invariants instead: every lookup accounted, all
        // four plans resident, and each client's own Q4r prepare hits
        // the Q4 entry it just planted.
        let stats = server.stats();
        assert_eq!(stats.cache.entries, 4, "expected 4 distinct warm plans, got {stats}");
        assert_eq!(stats.cache.evictions, 0, "nothing should be evicted, got {stats}");
        assert_eq!(
            stats.cache.hits + stats.cache.misses,
            10,
            "2 clients x 5 prepares, got {stats}"
        );
        assert!(stats.cache.hits >= 2, "expected at least the intra-client hits, got {stats}");
    }

    #[test]
    fn update_mix_interleaves_writes_and_republishes() {
        let server = Server::new(
            Database::tpch(0.001).unwrap(),
            ServerConfig { workers: 2, queue_depth: 16, ..ServerConfig::default() },
        );
        let options = LoadOptions { update_mix: 0.5, ..LoadOptions::passes(2, 3) };
        let report = run_fig8_load(&server, options).unwrap();
        // 2 clients x 3 iters x 5 workloads x mix 0.5 => 7 updates each
        // (the accumulator fires on whole-number crossings of 0.5/step).
        let upd = report.update_stats.as_ref().expect("update stats present");
        assert_eq!(upd.name, "upd");
        assert_eq!(upd.requests, 14, "{report}");
        assert!(upd.p50_us > 0.0);
        // Queries are unaffected by the interleaved writes.
        assert_eq!(report.total_requests, 30);
        // Warm sessions republish from a baseline, so single-supplier
        // churn should take the incremental path nearly always (a
        // concurrent writer can at worst force a conservative re-check,
        // never a wrong answer).
        assert!(
            report.incremental_republishes > 0,
            "no republish took the incremental path: {report}"
        );
        let text = report.to_string();
        assert!(text.contains("republishes incremental"), "{text}");
        // The session metrics saw the writes too.
        let snap = xmlpub::parse_text(&server.metrics_text()).unwrap();
        assert_eq!(snap.counter("server.republish.count").unwrap_or(0), upd.requests + 2);
    }

    /// The arrival process is data: the same in-process transport runs
    /// open loop, splits an uneven request count across clients, and
    /// refuses a non-positive rate.
    #[test]
    fn open_loop_runs_over_the_in_process_transport() {
        let server = Server::new(
            Database::tpch(0.001).unwrap(),
            ServerConfig { workers: 2, queue_depth: 8, ..ServerConfig::default() },
        );
        let open = |rate_per_sec| LoadOptions {
            requests: 13,
            arrival: Arrival::Open { rate_per_sec },
            ..LoadOptions::passes(2, 0)
        };
        let report = run_fig8_load(&server, open(2000.0)).unwrap();
        assert_eq!(report.total_requests, 13);
        assert!(report.wall >= Duration::from_micros(12 * 500), "{report}");
        assert!(report.to_string().contains("open loop: 2 clients, 13 requests at 2000/s"));
        assert!(report.to_string().contains("late arrivals"), "{report}");
        assert!(run_fig8_load(&server, open(0.0)).is_err());
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 50.0), 51.0);
        assert_eq!(percentile(&samples, 99.0), 99.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7], 99.0), 7.0);
    }
}
