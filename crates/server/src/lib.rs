//! `xmlpub-server` — a concurrent XML publishing service over the
//! shared engine.
//!
//! The paper's pipeline (§2–§3) is a single-query story: one SQL or
//! XQuery request becomes one sorted-outer-union plan, executed once and
//! tagged once. This crate is the serving layer that turns the same
//! read-only [`Database`] into a multi-client service:
//!
//! * [`Server`] owns the database behind an [`Arc`] plus a bounded
//!   [worker pool](pool) with an admission-control queue — overload
//!   sheds requests with an explicit error instead of queueing without
//!   bound;
//! * [`Session`]s are the per-client handles: prepared statements
//!   (parse/bind/optimize once, execute many) and per-session [`Config`]
//!   overrides such as `engine.batch_size`, executed against the shared
//!   catalog;
//! * the shared [`PlanCache`] memoizes optimized plans across sessions,
//!   keyed by normalized SQL plus the plan-relevant config, keeping each
//!   plan's rule-firing audit so cached plans stay lint-verifiable.
//!
//! Everything here is safe to share because the engine layers are
//! `Send + Sync` by construction (no interior mutability below the
//! server); the `const` block at the bottom of this file makes that a
//! compile-time guarantee rather than a convention.

pub mod cache;
pub mod incremental;
pub mod pool;
pub mod session;
pub mod slowlog;

use std::fmt;
use std::sync::Arc;

use xmlpub::{Config, Database, MetricsHandle};

pub use cache::{cache_key, normalize_sql, CacheCounters, CachedPlan, PlanCache};
pub use incremental::{segment_rows, splice, RepublishOutcome, Segment, SegmentedDoc, Segmenter};
pub use pool::PoolCounters;
pub use session::{PublishedDoc, Session, DEFAULT_REPUBLISH_DIRTY_THRESHOLD};
pub use slowlog::{SlowQuery, SlowQueryLog};

use pool::WorkerPool;

/// Server-level knobs; everything else is per-session [`Config`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads executing requests.
    pub workers: usize,
    /// Admission queue depth; a request arriving when this many are
    /// already waiting is shed with [`xmlpub::Error::Busy`].
    pub queue_depth: usize,
    /// Maximum plans the shared cache retains (LRU beyond this).
    pub plan_cache_capacity: usize,
    /// Total engine-thread budget across concurrent requests: each
    /// request may run its GApply with at most `dop_budget / workers`
    /// worker threads (floor 1), so a fully loaded pool never schedules
    /// more than ~`dop_budget` engine threads at once. `0` (the
    /// default) means auto: `max(workers, available_parallelism)`,
    /// which degenerates to serial per-request execution whenever the
    /// pool alone can saturate the machine.
    pub dop_budget: usize,
    /// Slow-query log threshold in microseconds; requests at or above
    /// it are recorded. `0` (the default) disables the log. Runtime
    /// adjustable via [`SlowQueryLog::set_threshold_us`].
    pub slow_query_us: u64,
    /// Entries the slow-query log retains (oldest evicted first).
    pub slow_query_capacity: usize,
    /// Default per-session configuration handed to new sessions.
    pub defaults: Config,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            plan_cache_capacity: 64,
            dop_budget: 0,
            slow_query_us: 0,
            slow_query_capacity: 32,
            defaults: Config::default(),
        }
    }
}

impl ServerConfig {
    /// A configuration whose execution behavior is fully pinned — no
    /// knob derived from the host machine — so snapshot tests produce
    /// identical output everywhere. Two workers (enough to prove the
    /// pool path without queueing serial tests), a dop budget sized so
    /// each request may run its GApply at exactly `dop` workers
    /// (sessions still set `engine.dop = dop` themselves; this only
    /// guarantees the server-side cap does not clamp below it), and
    /// the slow-query log off.
    pub fn deterministic(dop: usize) -> ServerConfig {
        ServerConfig {
            workers: 2,
            dop_budget: 2 * dop.max(1),
            slow_query_us: 0,
            ..ServerConfig::default()
        }
    }

    /// The per-request GApply dop cap this configuration implies.
    pub fn dop_cap(&self) -> usize {
        let budget = if self.dop_budget == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).max(self.workers)
        } else {
            self.dop_budget
        };
        (budget / self.workers.max(1)).max(1)
    }
}

/// What every session shares: the read-only database, the plan cache,
/// and the server-wide per-request dop cap.
pub(crate) struct ServerShared {
    pub db: Database,
    pub cache: PlanCache,
    /// Sessions clamp `engine.dop` to this at execution time (the
    /// session config itself is untouched, and the clamp never reaches
    /// the plan-cache key — dop is an engine knob, not a plan knob).
    pub dop_cap: usize,
    /// Server-wide metrics registry: every session records its request
    /// latencies and counts here (the text exposition is the service's
    /// primary tuning signal).
    pub metrics: MetricsHandle,
    /// Slow-query log shared by all sessions.
    pub slow: SlowQueryLog,
}

/// The service: shared state plus the worker pool.
pub struct Server {
    shared: Arc<ServerShared>,
    pool: WorkerPool,
    defaults: Config,
}

impl Server {
    /// Start a server over `db` with the given configuration. Worker
    /// threads are spawned immediately and joined on drop.
    pub fn new(db: Database, config: ServerConfig) -> Self {
        Server {
            shared: Arc::new(ServerShared {
                db,
                cache: PlanCache::new(config.plan_cache_capacity),
                dop_cap: config.dop_cap(),
                metrics: MetricsHandle::new_registry(),
                slow: SlowQueryLog::new(config.slow_query_us, config.slow_query_capacity),
            }),
            pool: WorkerPool::new(config.workers, config.queue_depth),
            defaults: config.defaults,
        }
    }

    /// [`Server::new`] with [`ServerConfig::default`].
    pub fn with_defaults(db: Database) -> Self {
        Server::new(db, ServerConfig::default())
    }

    /// Open a session. Sessions are independent: each starts from the
    /// server's default [`Config`] and may override it locally.
    pub fn session(&self) -> Session {
        Session::new(Arc::clone(&self.shared), self.pool.handle(), self.defaults)
    }

    /// The underlying database (read-only).
    pub fn database(&self) -> &Database {
        &self.shared.db
    }

    /// The server-wide metrics registry; sessions record request latency
    /// histograms and counters into it.
    pub fn metrics(&self) -> &MetricsHandle {
        &self.shared.metrics
    }

    /// The shared slow-query log (`\slow` in the CLI).
    pub fn slow_query_log(&self) -> &SlowQueryLog {
        &self.shared.slow
    }

    /// Text exposition of the server-wide registry (`\metrics` in the
    /// CLI; parsed back by tests via `parse_text`). Pool and
    /// plan-cache counters are mirrored in as gauges at snapshot time
    /// so one parseable document carries the whole service state.
    pub fn metrics_text(&self) -> String {
        let stats = self.stats();
        let m = &self.shared.metrics;
        m.gauge_set("server.workers", stats.workers as i64);
        m.gauge_set("server.dop_cap", stats.dop_cap as i64);
        m.gauge_set("server.cache.entries", stats.cache.entries as i64);
        m.gauge_set("server.cache.hits", stats.cache.hits as i64);
        m.gauge_set("server.cache.misses", stats.cache.misses as i64);
        m.gauge_set("server.cache.evictions", stats.cache.evictions as i64);
        m.gauge_set("server.pool.admitted", stats.pool.admitted as i64);
        m.gauge_set("server.pool.executed", stats.pool.executed as i64);
        m.gauge_set("server.pool.shed", stats.pool.shed as i64);
        m.gauge_set("server.pool.panicked", stats.pool.panicked as i64);
        m.gauge_set("server.pool.in_queue", stats.pool.in_queue as i64);
        m.gauge_set("server.slow.threshold_us", self.shared.slow.threshold_us() as i64);
        m.gauge_set("server.slow.seen", self.shared.slow.total_seen() as i64);
        m.snapshot().map(|snap| xmlpub::render_text(&snap)).unwrap_or_default()
    }

    /// Snapshot the service counters (`\server-stats` in the CLI).
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            workers: self.pool.worker_count(),
            queue_depth: self.pool.queue_depth(),
            dop_cap: self.shared.dop_cap,
            cache: self.shared.cache.counters(),
            pool: self.pool.counters(),
        }
    }
}

/// A point-in-time snapshot of every service counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Worker threads.
    pub workers: usize,
    /// Configured admission queue depth.
    pub queue_depth: usize,
    /// Per-request GApply dop cap (see [`ServerConfig::dop_budget`]).
    pub dop_cap: usize,
    /// Plan-cache counters.
    pub cache: CacheCounters,
    /// Worker-pool counters.
    pub pool: PoolCounters,
}

impl fmt::Display for ServerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== server stats ==")?;
        writeln!(
            f,
            "  {} workers, queue depth {}, dop cap {}",
            self.workers, self.queue_depth, self.dop_cap
        )?;
        f.write_str(&counter_lines(&self.cache, &self.pool))
    }
}

/// The plan-cache and pool counter lines, as `\server-stats` and the
/// server section of `\explain --analyze` both print them.
pub(crate) fn counter_lines(cache: &CacheCounters, pool: &PoolCounters) -> String {
    format!(
        "  plan cache: {} entries, {} hits, {} misses, {} evictions\n  \
         pool: {} admitted, {} executed, {} shed, {} panicked, {} in queue",
        cache.entries,
        cache.hits,
        cache.misses,
        cache.evictions,
        pool.admitted,
        pool.executed,
        pool.shed,
        pool.panicked,
        pool.in_queue
    )
}

/// Satellite: the thread-safety contract, checked at compile time. If a
/// future change introduces interior mutability (`Rc`, `RefCell`, raw
/// `static mut`) anywhere under these types, this block stops compiling.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<Database>();
    assert_send_sync::<xmlpub::Catalog>();
    assert_send_sync::<xmlpub::Relation>();
    assert_send_sync::<xmlpub::TupleBatch>();
    assert_send_sync::<CachedPlan>();
    assert_send_sync::<PlanCache>();
    assert_send_sync::<Server>();
    assert_send_sync::<Session>();
    assert_send_sync::<ServerStats>();
    assert_send_sync::<SlowQueryLog>();
    assert_send_sync::<MetricsHandle>();
    assert_send_sync::<xmlpub::Observability>();
    assert_send_sync::<xmlpub::TraceHandle>();
};

#[cfg(test)]
mod tests {
    use super::*;

    /// Runtime counterpart of the `const` assertions: a shared
    /// [`Database`] really is queried from several threads at once.
    #[test]
    fn database_is_shared_across_threads() {
        let db = Arc::new(Database::tpch(0.001).unwrap());
        let expected = db.sql("select count(*) from partsupp").unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let db = Arc::clone(&db);
                let expected = &expected;
                s.spawn(move || {
                    let got = db.sql("select count(*) from partsupp").unwrap();
                    assert_eq!(&got, expected);
                });
            }
        });
    }

    #[test]
    fn stats_render_mentions_every_counter_family() {
        let server = Server::with_defaults(Database::tpch(0.001).unwrap());
        let text = server.stats().to_string();
        for needle in
            ["plan cache", "hits", "misses", "evictions", "admitted", "shed", "in queue", "dop cap"]
        {
            assert!(text.contains(needle), "missing {needle:?} in {text}");
        }
    }

    #[test]
    fn dop_cap_divides_budget_across_workers() {
        // Auto budget: at least serial, regardless of the machine.
        assert!(ServerConfig::default().dop_cap() >= 1);
        // Explicit budget: 16 engine threads over 2 workers → 8 each.
        let cfg = ServerConfig { workers: 2, dop_budget: 16, ..ServerConfig::default() };
        assert_eq!(cfg.dop_cap(), 8);
        // More workers than budget: floor at serial execution.
        let cfg = ServerConfig { workers: 8, dop_budget: 4, ..ServerConfig::default() };
        assert_eq!(cfg.dop_cap(), 1);
        let server = Server::new(Database::tpch(0.001).unwrap(), cfg);
        assert_eq!(server.stats().dop_cap, 1);
    }
}
