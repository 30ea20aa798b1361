//! Sessions: the per-client face of the service.
//!
//! A [`Session`] is cheap to open and owns nothing shared: a clone of the
//! server's default [`Config`] (override freely — `batch_size`, rule
//! flags, `skip_optimizer` — without affecting other clients), a handle
//! for submitting work to the bounded pool, and a private map of
//! prepared statements. Planning — parse, bind, optimize — happens on
//! the *client* thread through the shared [`PlanCache`]; only execution
//! is shipped to a worker, so a shed request costs no planning work and
//! a cache hit skips planning entirely.
//!
//! Every request is the same lifecycle (see [`xmlpub::request`]): pick a
//! *plan source* — SQL text via the plan cache, a prepared handle, a
//! view's sorted outer union via the plan cache, or a key-restricted
//! union optimized per request — and a *sink* — rows, streamed XML, or
//! segmented XML — and hand both to the one `run_request`, which adds
//! what only a server has: the pool hop, the dop clamp, plan-cache
//! hit/miss stamping and the request instruments.
//!
//! [`PlanCache`]: crate::PlanCache

use std::collections::{BTreeMap, HashMap};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use xmlpub::{
    analyze_report, optimize, optimize_view, parse, run, Config, Database, EngineConfig, Executed,
    ObsContext, RowSink, Sink, XmlSink,
};
use xmlpub_algebra::LogicalPlan;
use xmlpub_common::{Error, Relation, Result};
use xmlpub_engine::{dirty_keys, ExecStats, TableDeltas};
use xmlpub_obs::{saturating_us_since, MetricsHandle, SpanGuard};
use xmlpub_xml::souq::{sorted_outer_union, sorted_outer_union_for_keys, SortedOuterUnion};
use xmlpub_xml::view::XmlView;

use crate::cache::{cache_key, CachedPlan};
use crate::incremental::{self, RepublishOutcome, SegmentedDoc, Segmenter};
use crate::pool::PoolHandle;
use crate::ServerShared;

/// Default republish fallback threshold: when more than this fraction
/// of the cached document's root groups is dirty, the splice overhead
/// is no longer worth it and [`Session::republish`] recomputes from
/// scratch. Tunable per session via
/// [`Session::set_republish_threshold`].
pub const DEFAULT_REPUBLISH_DIRTY_THRESHOLD: f64 = 0.5;

/// A cached published document: the segmented bytes plus the catalog
/// version of every scanned table at build time — the baseline the next
/// republish diffs against.
#[derive(Debug, Clone)]
pub struct PublishedDoc {
    /// The segmented document (header / per-group ranges / footer).
    pub doc: Arc<SegmentedDoc>,
    /// Per-table catalog versions captured *before* the build executed,
    /// so a concurrent writer can only make them stale-low — the next
    /// republish then re-propagates a delta it already absorbed, which
    /// is conservative (extra dirty groups), never wrong.
    pub versions: BTreeMap<String, u64>,
}

/// What a republish worker hands back to the session thread.
struct Republished {
    /// The new document (full recompute or splice); `None` when there
    /// were no output-visible changes and the cached bytes stay valid.
    doc: Option<SegmentedDoc>,
    /// The versions the document is current at. Returned even when
    /// clean so the baseline still advances (otherwise a no-op delta
    /// would be re-propagated forever and eventually fall out of the
    /// bounded delta log).
    versions: BTreeMap<String, u64>,
    outcome: RepublishOutcome,
}

/// One request's root span and the observer its phases run under.
struct Request {
    /// `query`, `publish` or `republish`: the span name and the
    /// `server.*` / `session.*` instrument family.
    kind: &'static str,
    span: SpanGuard,
    obs: ObsContext,
}

/// The worker-side half of a request: the shared state, the request's
/// cached plan, and the engine configuration and observer to run under.
struct Worker<'a> {
    shared: &'a ServerShared,
    plan: &'a CachedPlan,
    engine: EngineConfig,
    obs: ObsContext,
}

impl Worker<'_> {
    fn run<S: Sink>(
        &self,
        plan: &LogicalPlan,
        sink: S,
        profile: bool,
    ) -> Result<Executed<S::Output>> {
        run(self.shared.db.catalog(), &self.engine, &self.obs, plan, sink, profile)
    }
}

/// A client connection to a [`crate::Server`].
pub struct Session {
    shared: Arc<ServerShared>,
    pool: PoolHandle,
    config: Config,
    prepared: HashMap<String, Arc<CachedPlan>>,
    /// Per-session metrics registry: the same families as the
    /// server-wide one (`session.*` instead of `server.*`), scoped to
    /// this client's requests.
    metrics: MetricsHandle,
    /// Per-(session, view, pretty) published-document cache for
    /// [`Session::republish`], keyed like the plan cache by the SOU
    /// plan's rendered form.
    published: HashMap<String, PublishedDoc>,
    /// See [`DEFAULT_REPUBLISH_DIRTY_THRESHOLD`].
    republish_threshold: f64,
}

impl Session {
    pub(crate) fn new(shared: Arc<ServerShared>, pool: PoolHandle, config: Config) -> Self {
        Session {
            shared,
            pool,
            config,
            prepared: HashMap::new(),
            metrics: MetricsHandle::new_registry(),
            published: HashMap::new(),
            republish_threshold: DEFAULT_REPUBLISH_DIRTY_THRESHOLD,
        }
    }

    /// This session's private metrics registry.
    pub fn metrics(&self) -> &MetricsHandle {
        &self.metrics
    }

    /// Fold one finished request into the per-session and server-wide
    /// registries and the shared slow-query log.
    fn observe_request(&self, kind: &str, label: &str, us: u64, rows: u64) {
        self.shared.metrics.add(&format!("server.{kind}.count"), 1);
        self.shared.metrics.record_us(&format!("server.{kind}_us"), us);
        self.metrics.add(&format!("session.{kind}.count"), 1);
        self.metrics.record_us(&format!("session.{kind}_us"), us);
        self.shared.slow.observe(label, us, rows);
    }

    /// This session's configuration.
    pub fn config(&self) -> Config {
        self.config
    }

    /// Override this session's configuration (other sessions and the
    /// server defaults are unaffected). Plans are cached per config
    /// fingerprint, so changing plan-relevant flags mid-session simply
    /// routes to different cache entries.
    pub fn config_mut(&mut self) -> &mut Config {
        &mut self.config
    }

    /// The shared database (read-only).
    pub fn database(&self) -> &Database {
        &self.shared.db
    }

    /// The engine config a worker will actually run with: the session's,
    /// with `dop` clamped to the server-wide per-request cap so
    /// concurrent requests can't oversubscribe the machine no matter
    /// what a session asks for. The session config itself is untouched.
    fn engine_for_exec(&self) -> EngineConfig {
        let mut engine = self.config.engine;
        engine.dop = engine.dop.min(self.shared.dop_cap).max(1);
        engine
    }

    /// Open a request: its root span, and the shared database's
    /// observer re-parented under it. Planning and execution both nest
    /// there, so the span covers the request from plan lookup through
    /// queue wait to the last batch.
    fn begin(&self, kind: &'static str) -> Request {
        let observability = self.shared.db.observability();
        let span = observability.tracer.span(kind, 0, &[]);
        let obs = observability.context(span.id());
        Request { kind, span, obs }
    }

    /// Plan source: SQL text through the shared cache, optimized under
    /// *this session's* config on a miss — sessions may flip rule flags
    /// the server default doesn't have. Returns the entry and whether it
    /// was a hit.
    fn plan_cached(&self, sql: &str, obs: &ObsContext) -> Result<(Arc<CachedPlan>, bool)> {
        let key = cache_key(sql, &self.config);
        self.shared.cache.get_or_build(key.clone(), || {
            let db = &self.shared.db;
            let bound = parse(db.catalog(), obs, sql)?;
            let (plan, firings) = optimize(&self.config, db.statistics(), obs, bound)?;
            Ok(CachedPlan { key, plan, firings })
        })
    }

    /// Plan source: a view's sorted outer union through the shared
    /// cache. Views have no SQL text, so the key is the bound plan's
    /// rendered form `text` (it pins tables, join columns and projected
    /// fields); `\u{1}publish` cannot collide with a normalized SQL key.
    fn publish_plan_cached(
        &self,
        sou: &SortedOuterUnion,
        text: &str,
        obs: &ObsContext,
    ) -> Result<(Arc<CachedPlan>, bool)> {
        let key = format!(
            "\u{1}publish\u{1f}{text}\u{1f}{:?}\u{1f}{}",
            self.config.optimizer, self.config.skip_optimizer
        );
        self.shared.cache.get_or_build(key.clone(), || {
            let (plan, firings) =
                optimize_view(&self.config, self.shared.db.statistics(), obs, sou)?;
            Ok(CachedPlan { key, plan, firings })
        })
    }

    /// Prepare a statement under `name`: parse, bind and optimize now
    /// (through the shared cache), execute later any number of times.
    /// Returns whether planning was answered from the cache.
    pub fn prepare(&mut self, name: &str, sql: &str) -> Result<bool> {
        let obs = self.shared.db.observability().context(0);
        let (plan, hit) = self.plan_cached(sql, &obs)?;
        self.prepared.insert(name.to_string(), plan);
        Ok(hit)
    }

    /// The cached plan behind a prepared statement (for inspection and
    /// lint verification via [`CachedPlan::verify`]).
    pub fn prepared_plan(&self, name: &str) -> Option<&Arc<CachedPlan>> {
        self.prepared.get(name)
    }

    /// Run a SQL query: plan through the shared cache, execute on the
    /// worker pool. `stats.plan_cache_hits`/`misses` record how planning
    /// was served for *this* request.
    pub fn execute(&self, sql: &str) -> Result<(Relation, ExecStats)> {
        let req = self.begin("query");
        let plan = self.plan_cached(sql, &req.obs)?;
        let done = self.query(req, sql, plan, false)?;
        Ok((done.output, done.stats))
    }

    /// Execute a previously prepared statement. Planning was done at
    /// prepare time, so this always counts as a plan-cache hit.
    pub fn execute_prepared(&self, name: &str) -> Result<(Relation, ExecStats)> {
        let plan = self
            .prepared
            .get(name)
            .ok_or_else(|| Error::exec(format!("no prepared statement named {name:?}")))?;
        let req = self.begin("query");
        let done = self.query(req, &format!("prepared:{name}"), (Arc::clone(plan), true), false)?;
        Ok((done.output, done.stats))
    }

    /// `\explain --analyze` through the service: the optimized plan, the
    /// per-operator breakdown and engine counters — plus the server-side
    /// counters (plan cache, pool) the standalone engine can't know.
    pub fn execute_analyzed(&self, sql: &str) -> Result<(Relation, String)> {
        let req = self.begin("query");
        let (cached, hit) = self.plan_cached(sql, &req.obs)?;
        let done = self.query(req, sql, (Arc::clone(&cached), hit), true)?;
        let engine = self.engine_for_exec();
        let knobs = format!(
            "  batch size {}\n  dop {} (session {}, server cap {})\n",
            engine.batch_size, engine.dop, self.config.engine.dop, self.shared.dop_cap
        );
        let server = format!(
            "  this query: plan cache {}\n{}\n",
            if hit { "hit" } else { "miss" },
            crate::counter_lines(&self.shared.cache.counters(), &self.pool.counters())
        );
        let report = analyze_report(&cached.plan, &done, &knobs, Some(&server));
        Ok((done.output, report))
    }

    /// The rows-sink request behind every `execute*`.
    fn query(
        &self,
        mut req: Request,
        label: &str,
        plan: (Arc<CachedPlan>, bool),
        profile: bool,
    ) -> Result<Executed<Relation>> {
        self.run_request(&mut req, label, plan, move |w| {
            w.run(&w.plan.plan, RowSink::default(), profile)
        })
    }

    /// Publish an XML view through the service: the sorted-outer-union
    /// plan goes through the shared cache and a worker streams batches
    /// straight into the tagger, so even concurrent publishes hold at
    /// most one batch plus the open-element stack per request.
    pub fn publish(&self, view: &XmlView, pretty: bool) -> Result<String> {
        let (bytes, _rows, _stats) = self.publish_to(view, pretty, Vec::new())?;
        Ok(String::from_utf8(bytes).expect("tagger emits UTF-8 only"))
    }

    /// Publish an XML view straight into an arbitrary sink: the worker
    /// thread writes tagged XML into `sink` as batches stream out of the
    /// engine, so the full document is never materialised. This is how
    /// the network layer streams XML to a socket — the sink there wraps
    /// a `TcpStream` and flushes chunk frames as the tagger produces
    /// bytes. Returns the sink, the number of tagged rows, and the
    /// request's engine counters (so transports can report real stats,
    /// e.g. in an `End` frame).
    ///
    /// The sink crosses onto a pool worker, hence `Send + 'static`; the
    /// calling thread blocks until the request finishes, so a sink
    /// borrowing from the *connection* (via clones/Arcs) sees no
    /// concurrent use.
    pub fn publish_to<W>(
        &self,
        view: &XmlView,
        pretty: bool,
        sink: W,
    ) -> Result<(W, u64, ExecStats)>
    where
        W: std::io::Write + Send + 'static,
    {
        let sou = sorted_outer_union(view)?;
        let mut req = self.begin("publish");
        let plan = self.publish_plan_cached(&sou, &sou.plan.explain(), &req.obs)?;
        let tag_plan = sou.tag_plan;
        let done = self.run_request(&mut req, "publish", plan, move |w| {
            w.run(&w.plan.plan, XmlSink::new(sink, &tag_plan, pretty), false)
        })?;
        Ok((done.output, done.rows, done.stats))
    }

    /// The republish fallback threshold (fraction of dirty root groups
    /// beyond which a full recompute is cheaper than splicing).
    pub fn republish_threshold(&self) -> f64 {
        self.republish_threshold
    }

    /// Override the republish fallback threshold for this session.
    /// `0.0` forces a full recompute whenever anything changed (useful
    /// as a baseline); `1.0` never falls back on dirty fraction alone.
    pub fn set_republish_threshold(&mut self, threshold: f64) {
        self.republish_threshold = threshold.clamp(0.0, 1.0);
    }

    /// Cached published documents this session holds (one per
    /// (view, pretty) republished so far).
    pub fn published_doc_count(&self) -> usize {
        self.published.len()
    }

    /// The cached published document for `view`/`pretty`, if any.
    pub fn published_doc(&self, view: &XmlView, pretty: bool) -> Option<&PublishedDoc> {
        let sou = sorted_outer_union(view).ok()?;
        self.published.get(&published_doc_key(&sou.plan.explain(), pretty))
    }

    /// Publish `view` incrementally: diff the catalog against the
    /// version baseline of this session's cached document, re-tag only
    /// the root groups the deltas may have touched through a
    /// key-restricted sorted-outer-union, and splice the clean groups'
    /// bytes verbatim (see [`crate::incremental`]). Falls back to a
    /// full segmented recompute through the cached publish plan — never
    /// to a wrong answer — when there is no cached document yet, the
    /// bounded delta log has trimmed past the baseline, delta
    /// propagation cannot handle the plan shape, or the dirty fraction
    /// exceeds [`Session::republish_threshold`].
    ///
    /// The returned document is byte-identical to what
    /// [`Session::publish`] would produce at the same catalog state.
    pub fn republish(
        &mut self,
        view: &XmlView,
        pretty: bool,
    ) -> Result<(String, RepublishOutcome)> {
        let sou = sorted_outer_union(view)?;
        let text = sou.plan.explain();
        let doc_key = published_doc_key(&text, pretty);
        let mut req = self.begin("republish");
        let plan = self.publish_plan_cached(&sou, &text, &req.obs)?;
        let cached = self.published.get(&doc_key).cloned();
        let threshold = self.republish_threshold;
        let config = self.config;
        let view = view.clone();
        let done = self.run_request(&mut req, "republish", plan, move |w| {
            republish_on_worker(w, &view, &sou, pretty, cached, threshold, &config)
        })?;
        let Republished { doc, versions, outcome } = done.output;
        req.span.annotate("outcome", &outcome);
        let bytes = match doc {
            Some(doc) => {
                let bytes = doc.bytes.clone();
                self.published.insert(doc_key, PublishedDoc { doc: Arc::new(doc), versions });
                bytes
            }
            None => {
                let entry = self
                    .published
                    .get_mut(&doc_key)
                    .expect("clean republish implies a cached document");
                entry.versions = versions;
                entry.doc.bytes.clone()
            }
        };
        let count = |name: &str, n: u64| {
            self.shared.metrics.add(&format!("server.republish.{name}"), n);
            self.metrics.add(&format!("session.republish.{name}"), n);
        };
        match &outcome {
            RepublishOutcome::Full { reason } => {
                count("fallback.count", 1);
                count(&format!("fallback.{reason}"), 1);
            }
            RepublishOutcome::Clean => count("clean.count", 1),
            RepublishOutcome::Incremental { dirty_groups, spliced_groups } => {
                count("incremental.count", 1);
                count("dirty_groups", *dirty_groups as u64);
                count("spliced_groups", *spliced_groups as u64);
            }
        }
        Ok((String::from_utf8(bytes).expect("tagger emits UTF-8 only"), outcome))
    }

    /// What a server adds to the request path, for every kind of
    /// request: the pool hop (admission-control shedding surfaces here
    /// as [`Error::Busy`]), the dop clamp, the request instruments and
    /// the plan-cache hit/miss stamp. `work` is the worker-side half; it
    /// runs against the cached plan it was planned with.
    fn run_request<T, F>(
        &self,
        req: &mut Request,
        label: &str,
        (plan, hit): (Arc<CachedPlan>, bool),
        work: F,
    ) -> Result<Executed<T>>
    where
        T: Send + 'static,
        F: FnOnce(&Worker) -> Result<Executed<T>> + Send + 'static,
    {
        let engine = self.engine_for_exec();
        let obs = req.obs.clone();
        let shared = Arc::clone(&self.shared);
        let (tx, rx) = mpsc::channel();
        let start = Instant::now();
        if let Err(e) = self.pool.submit(Box::new(move || {
            let worker = Worker { shared: &shared, plan: &plan, engine, obs };
            // The client may have given up; a closed channel is fine.
            let _ = tx.send(work(&worker));
        })) {
            self.shared.metrics.add("server.shed.count", 1);
            self.metrics.add("session.shed.count", 1);
            return Err(e);
        }
        let mut done = rx.recv().map_err(|_| {
            Error::exec("worker dropped the request (job panicked or server shutting down)")
        })??;
        req.span.annotate("rows", done.rows);
        self.observe_request(req.kind, label, saturating_us_since(start), done.rows);
        done.stats.plan_cache_hits = u64::from(hit);
        done.stats.plan_cache_misses = u64::from(!hit);
        Ok(done)
    }
}

/// Cache key for a published document, from the view's bound plan
/// rendered as `plan_text`. `\u{2}doc` cannot collide with SQL keys or
/// `\u{1}publish` plan keys; the text pins the bound plan and `pretty`
/// changes the bytes, so it is part of the key.
fn published_doc_key(plan_text: &str, pretty: bool) -> String {
    format!("\u{2}doc\u{1f}{plan_text}\u{1f}{pretty}")
}

/// The republish decision procedure, run on a pool worker. See
/// [`Session::republish`] for the policy; this function implements it:
/// capture versions → collect deltas → propagate to dirty root keys →
/// threshold check → restricted re-tag → splice — with a full
/// segmented recompute through the request's cached publish plan at
/// every exit where incremental maintenance is unavailable.
fn republish_on_worker(
    w: &Worker,
    view: &XmlView,
    sou: &SortedOuterUnion,
    pretty: bool,
    cached: Option<PublishedDoc>,
    threshold: f64,
    config: &Config,
) -> Result<Executed<Republished>> {
    let catalog = w.shared.db.catalog();
    let tables = incremental::scan_tables(&sou.plan);
    // Capture versions BEFORE reading any data: a concurrent writer can
    // only make the recorded baseline older than the rows the build
    // sees, so the next republish re-propagates a delta this document
    // already absorbed — conservative, never a missed update.
    let mut versions = BTreeMap::new();
    for t in &tables {
        versions.insert(t.clone(), catalog.version(t)?);
    }
    let answer = |doc: Option<SegmentedDoc>, rows, versions, outcome, stats| Executed {
        output: Republished { doc, versions, outcome },
        rows,
        stats,
        profiles: Vec::new(),
    };
    let full = |reason: &'static str, versions| {
        let done = w.run(&w.plan.plan, Segmenter::new(&sou.tag_plan, pretty)?, false)?;
        let outcome = RepublishOutcome::Full { reason };
        Ok(answer(Some(done.output), done.rows, versions, outcome, done.stats))
    };
    let clean = |prev: &PublishedDoc, versions| {
        Ok(answer(None, prev.doc.rows(), versions, RepublishOutcome::Clean, ExecStats::default()))
    };

    let Some(prev) = cached else {
        return full("first-publish", versions);
    };
    let mut deltas = TableDeltas::new();
    for t in &tables {
        let since = prev.versions.get(t).copied().unwrap_or(0);
        match catalog.deltas_since(t, since)? {
            // The bounded log no longer reaches back to the baseline.
            None => return full("delta-log-trimmed", versions),
            Some(batches) => {
                for batch in batches {
                    deltas.add(t, batch);
                }
            }
        }
    }
    if deltas.is_empty() {
        return clean(&prev, versions);
    }

    let dirty =
        match dirty_keys(&sou.plan, sou.tag_plan.root_key_cols(), catalog, &w.engine, &deltas) {
            Ok(Some(keys)) => keys,
            // Plan shape the propagator doesn't handle (or propagation
            // failed): recompute rather than guess.
            Ok(None) | Err(_) => return full("unsupported-plan", versions),
        };
    if dirty.is_empty() {
        // Deltas exist but touch no output row (e.g. filtered out);
        // the document is unchanged — just advance the baseline.
        return clean(&prev, versions);
    }
    let total_groups = prev.doc.segments.len().max(1);
    if dirty.len() as f64 / total_groups as f64 > threshold {
        return full("dirty-fraction", versions);
    }

    // The incremental path proper: re-tag only the dirty groups through
    // the key-restricted SOU (optimized per request, deliberately NOT
    // plan-cached — the key list churns every republish), then splice.
    let restricted = sorted_outer_union_for_keys(view, &dirty)?;
    let (plan, _) = optimize(config, w.shared.db.statistics(), &w.obs, restricted.plan)?;
    let fresh = w.run(&plan, Segmenter::new(&restricted.tag_plan, pretty)?, false)?;
    let doc = incremental::splice(&prev.doc, &dirty, &fresh.output);
    let outcome = RepublishOutcome::Incremental {
        dirty_groups: dirty.len(),
        spliced_groups: doc.segments.len() - fresh.output.segments.len(),
    };
    let rows = doc.rows();
    Ok(answer(Some(doc), rows, versions, outcome, fresh.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Server, ServerConfig};
    use std::sync::atomic::{AtomicU64, Ordering};
    use xmlpub_common::{DeltaBatch, Tuple, Value};
    use xmlpub_xml::supplier_parts_view;

    const Q: &str = "select gapply(select count(*), avg(p_retailprice) from g) as (n, avgprice) \
                     from partsupp, part where ps_partkey = p_partkey \
                     group by ps_suppkey : g";

    fn server() -> Server {
        Server::new(
            Database::tpch(0.001).unwrap(),
            ServerConfig { workers: 2, queue_depth: 16, ..ServerConfig::default() },
        )
    }

    #[test]
    fn session_execute_matches_direct_database() {
        let server = server();
        let session = server.session();
        let (via_server, stats) = session.execute(Q).unwrap();
        let direct = server.database().sql(Q).unwrap();
        assert_eq!(via_server, direct);
        assert_eq!((stats.plan_cache_hits, stats.plan_cache_misses), (0, 1));
        // Same SQL again: planning is served from the shared cache.
        let (_, stats) = session.execute(Q).unwrap();
        assert_eq!((stats.plan_cache_hits, stats.plan_cache_misses), (1, 0));
    }

    #[test]
    fn prepared_statements_execute_many_times() {
        let server = server();
        let mut session = server.session();
        assert!(!session.prepare("q1", Q).unwrap());
        let direct = server.database().sql(Q).unwrap();
        for _ in 0..3 {
            let (rel, stats) = session.execute_prepared("q1").unwrap();
            assert_eq!(rel, direct);
            assert_eq!(stats.plan_cache_hits, 1);
        }
        // The cached plan is still lint-verifiable.
        let plan = session.prepared_plan("q1").unwrap();
        assert!(plan.verify().is_empty(), "cached plan fails lint: {:?}", plan.verify());
        assert!(!plan.firings.is_empty(), "optimizer audit should ride along");
        // Unknown names fail cleanly.
        assert!(session.execute_prepared("nope").is_err());
    }

    #[test]
    fn per_session_batch_size_overrides_are_isolated() {
        let server = server();
        let mut tuple_at_a_time = server.session();
        tuple_at_a_time.config_mut().engine.batch_size = 1;
        let vectorized = server.session();
        assert_eq!(vectorized.config().engine.batch_size, xmlpub::DEFAULT_BATCH_SIZE);
        let (a, _) = tuple_at_a_time.execute(Q).unwrap();
        let (b, stats_b) = vectorized.execute(Q).unwrap();
        assert_eq!(a, b);
        // batch_size is engine-only: both sessions share one cached plan.
        assert_eq!(stats_b.plan_cache_hits, 1, "engine knobs must not split the plan cache");
        // The override really reaches the engine.
        let (_, report) = tuple_at_a_time.execute_analyzed(Q).unwrap();
        assert!(report.contains("batch size 1\n"), "override missing from report");
    }

    #[test]
    fn sessions_with_different_optimizer_flags_get_different_plans() {
        let server = server();
        let baseline = server.session();
        let mut unoptimized = server.session();
        unoptimized.config_mut().skip_optimizer = true;
        let (a, _) = baseline.execute(Q).unwrap();
        let (b, stats) = unoptimized.execute(Q).unwrap();
        assert_eq!(a, b, "skip_optimizer changes the plan, not the answer");
        assert_eq!(stats.plan_cache_misses, 1, "different config fingerprint, different entry");
    }

    #[test]
    fn analyzed_report_carries_server_counters() {
        let server = server();
        let session = server.session();
        let (_, report) = session.execute_analyzed(Q).unwrap();
        for needle in
            ["== optimized plan ==", "== operators (analyze) ==", "== server counters ==", "pool:"]
        {
            assert!(report.contains(needle), "missing {needle:?} in report");
        }
    }

    #[test]
    fn server_dop_budget_caps_session_dop() {
        let server = Server::new(
            Database::tpch(0.001).unwrap(),
            ServerConfig { workers: 2, queue_depth: 16, dop_budget: 16, ..ServerConfig::default() },
        );
        let mut greedy = server.session();
        greedy.config_mut().engine.dop = 64;
        let (_, report) = greedy.execute_analyzed(Q).unwrap();
        assert!(
            report.contains("dop 8 (session 64, server cap 8)"),
            "expected the clamp in the report:\n{report}"
        );
        // The clamp is execution-side only: a serial session shares the
        // greedy session's cached plan.
        let (_, stats) = server.session().execute(Q).unwrap();
        assert_eq!(stats.plan_cache_hits, 1, "dop must not split the plan cache");
        // The session config itself is untouched by execution.
        assert_eq!(greedy.config().engine.dop, 64);
    }

    /// Stress: many client threads hammer parallel-GApply queries and
    /// publishes through a small pool with an explicit thread budget
    /// (forcing dop > 1 per request even on a single-core CI box). Every
    /// answer must match the serial direct result — under contention,
    /// shedding is the only acceptable failure — and the text exposition
    /// must account for exactly the requests that succeeded.
    #[test]
    fn concurrent_parallel_queries_stay_deterministic() {
        let server = Server::new(
            Database::tpch(0.001).unwrap(),
            ServerConfig { workers: 2, queue_depth: 32, dop_budget: 8, ..ServerConfig::default() },
        );
        let direct = server.database().sql(Q).unwrap();
        let view = supplier_parts_view(server.database().catalog()).unwrap();
        let xml = server.database().publish(&view, false).unwrap();
        // Successful requests, counted client-side.
        let (queries, publishes) = (AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|s| {
            for t in 0..4 {
                let server = &server;
                let direct = &direct;
                let view = &view;
                let xml = &xml;
                let (queries, publishes) = (&queries, &publishes);
                s.spawn(move || {
                    let mut session = server.session();
                    session.config_mut().engine.dop = 4;
                    for i in 0..5 {
                        if (t + i) % 2 == 0 {
                            match session.execute(Q) {
                                Ok((rel, _)) => {
                                    assert_eq!(&rel, direct);
                                    queries.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(e) => assert!(matches!(e, Error::Busy(_)), "{e}"),
                            }
                        } else {
                            match session.publish(view, false) {
                                Ok(out) => {
                                    assert_eq!(&out, xml);
                                    publishes.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(e) => assert!(matches!(e, Error::Busy(_)), "{e}"),
                            }
                        }
                    }
                });
            }
        });
        let snap = xmlpub::parse_text(&server.metrics_text()).unwrap();
        assert_eq!(snap.counter("server.query.count").unwrap_or(0), queries.into_inner());
        assert_eq!(snap.counter("server.publish.count").unwrap_or(0), publishes.into_inner());
        // Every latency histogram holds one sample per counted request.
        let mut paired = 0;
        for (name, h) in &snap.histograms {
            let counter = format!("{}.count", name.trim_end_matches("_us"));
            if let Some(count) = snap.counter(&counter) {
                assert_eq!(h.count, count, "{name} vs {counter}");
                paired += 1;
            }
        }
        assert!(paired >= 2, "query and publish histograms missing: {snap:?}");
    }

    #[test]
    fn sessions_record_into_both_registries_and_slow_log() {
        let server = Server::new(
            Database::tpch(0.001).unwrap(),
            ServerConfig {
                workers: 2,
                queue_depth: 16,
                // Threshold 1us: everything observable counts as slow.
                slow_query_us: 1,
                ..ServerConfig::default()
            },
        );
        let a = server.session();
        let b = server.session();
        a.execute(Q).unwrap();
        a.execute(Q).unwrap();
        b.execute(Q).unwrap();
        let view = supplier_parts_view(server.database().catalog()).unwrap();
        b.publish(&view, false).unwrap();

        // Server-wide registry aggregates across sessions.
        let snap = server.metrics().snapshot().unwrap();
        assert_eq!(snap.counter("server.query.count"), Some(3));
        assert_eq!(snap.counter("server.publish.count"), Some(1));
        assert_eq!(snap.histogram("server.query_us").map(|h| h.count), Some(3));
        assert_eq!(snap.histogram("server.publish_us").map(|h| h.count), Some(1));
        // Per-session registries stay private.
        assert_eq!(a.metrics().snapshot().unwrap().counter("session.query.count"), Some(2));
        let b_snap = b.metrics().snapshot().unwrap();
        assert_eq!(b_snap.counter("session.query.count"), Some(1));
        assert_eq!(b_snap.counter("session.publish.count"), Some(1));
        // The slow log saw everything and labels each kind.
        let labels: Vec<String> =
            server.slow_query_log().entries().into_iter().map(|e| e.label).collect();
        assert_eq!(labels.len(), 4, "{labels:?}");
        assert!(labels.iter().any(|l| l.contains("gapply")), "{labels:?}");
        assert!(labels.contains(&"publish".to_string()), "{labels:?}");
        // Prepared executions are labelled by statement name.
        let mut c = server.session();
        c.prepare("q1", Q).unwrap();
        c.execute_prepared("q1").unwrap();
        let labels: Vec<String> =
            server.slow_query_log().entries().into_iter().map(|e| e.label).collect();
        assert!(labels.contains(&"prepared:q1".to_string()), "{labels:?}");
    }

    #[test]
    fn metrics_text_round_trips_with_service_gauges() {
        let server = server();
        server.session().execute(Q).unwrap();
        let text = server.metrics_text();
        let snap = xmlpub::parse_text(&text).expect("exposition must parse");
        assert_eq!(snap.counter("server.query.count"), Some(1));
        assert!(snap.gauge("server.workers").unwrap_or(0) > 0);
        assert!(snap.histogram("server.query_us").is_some());
        // Percentiles are computable from the parsed exposition.
        let h = snap.histogram("server.query_us").unwrap();
        assert!(h.percentile_us(50.0) <= h.percentile_us(99.0));
    }

    /// The incremental republish pipeline end to end: first publish is
    /// a full recompute, a quiescent republish is clean, a one-row
    /// delete dirties exactly one root group and splices the rest, and
    /// every result is byte-identical to a from-scratch publish at the
    /// same catalog state.
    #[test]
    fn republish_is_incremental_and_byte_identical() {
        let server = server();
        let mut session = server.session();
        let view = supplier_parts_view(server.database().catalog()).unwrap();

        let (first, outcome) = session.republish(&view, false).unwrap();
        assert_eq!(outcome, RepublishOutcome::Full { reason: "first-publish" });
        assert_eq!(first, server.database().publish(&view, false).unwrap());
        assert_eq!(session.published_doc_count(), 1);

        let (again, outcome) = session.republish(&view, false).unwrap();
        assert_eq!(outcome, RepublishOutcome::Clean);
        assert_eq!(again, first);

        // Delete one partsupp row: exactly one supplier group dirties.
        let ps = server.database().catalog().data("partsupp").unwrap();
        let victim = ps.rows()[0].clone();
        server.database().apply_delta("partsupp", &DeltaBatch::deletes(vec![victim])).unwrap();
        let (incr, outcome) = session.republish(&view, false).unwrap();
        match outcome {
            RepublishOutcome::Incremental { dirty_groups, spliced_groups } => {
                assert_eq!(dirty_groups, 1);
                assert!(spliced_groups > 0);
            }
            other => panic!("expected incremental republish, got {other}"),
        }
        assert_eq!(incr, server.database().publish(&view, false).unwrap());
        assert_ne!(incr, first, "the delete must be visible in the document");

        // Append a brand-new supplier: a new root group spliced in.
        let sup = server.database().catalog().data("supplier").unwrap();
        let mut vals: Vec<Value> = sup.rows()[0].values().to_vec();
        vals[0] = Value::Int(999_999);
        server
            .database()
            .apply_delta("supplier", &DeltaBatch::appends(vec![Tuple::new(vals)]))
            .unwrap();
        let (ins, outcome) = session.republish(&view, false).unwrap();
        assert!(
            matches!(outcome, RepublishOutcome::Incremental { dirty_groups: 1, .. }),
            "expected one dirty group, got {outcome}"
        );
        assert_eq!(ins, server.database().publish(&view, false).unwrap());

        // Every path left its counter.
        let snap = server.metrics().snapshot().unwrap();
        assert_eq!(snap.counter("server.republish.count"), Some(4));
        assert_eq!(snap.counter("server.republish.incremental.count"), Some(2));
        assert_eq!(snap.counter("server.republish.fallback.count"), Some(1));
        assert_eq!(snap.counter("server.republish.fallback.first-publish"), Some(1));
        assert_eq!(snap.counter("server.republish.clean.count"), Some(1));
        assert_eq!(snap.counter("server.republish.dirty_groups"), Some(2));
    }

    /// A zero threshold forces the dirty-fraction fallback; the answer
    /// is still exact.
    #[test]
    fn republish_threshold_zero_forces_full_recompute() {
        let server = server();
        let mut session = server.session();
        session.set_republish_threshold(0.0);
        assert_eq!(session.republish_threshold(), 0.0);
        let view = supplier_parts_view(server.database().catalog()).unwrap();
        session.republish(&view, false).unwrap();
        let ps = server.database().catalog().data("partsupp").unwrap();
        let victim = ps.rows()[0].clone();
        server.database().apply_delta("partsupp", &DeltaBatch::deletes(vec![victim])).unwrap();
        let (out, outcome) = session.republish(&view, false).unwrap();
        assert_eq!(outcome, RepublishOutcome::Full { reason: "dirty-fraction" });
        assert_eq!(out, server.database().publish(&view, false).unwrap());
    }

    /// Overrun the bounded delta log between republishes: the session
    /// must detect the trimmed history and fall back, not splice stale
    /// bytes.
    #[test]
    fn republish_falls_back_when_delta_log_trims() {
        let server = server();
        let mut session = server.session();
        let view = supplier_parts_view(server.database().catalog()).unwrap();
        session.republish(&view, false).unwrap();
        let ps = server.database().catalog().data("partsupp").unwrap();
        let row = ps.rows()[0].clone();
        // Churn one row in and out until the log forgets the baseline.
        for _ in 0..(xmlpub_algebra::DELTA_LOG_CAPACITY / 2 + 1) {
            server
                .database()
                .apply_delta("partsupp", &DeltaBatch::deletes(vec![row.clone()]))
                .unwrap();
            server
                .database()
                .apply_delta("partsupp", &DeltaBatch::appends(vec![row.clone()]))
                .unwrap();
        }
        let (out, outcome) = session.republish(&view, false).unwrap();
        assert_eq!(outcome, RepublishOutcome::Full { reason: "delta-log-trimmed" });
        assert_eq!(out, server.database().publish(&view, false).unwrap());
        // And the fallback re-established a usable baseline.
        let (_, outcome) = session.republish(&view, false).unwrap();
        assert_eq!(outcome, RepublishOutcome::Clean);
    }

    #[test]
    fn publish_through_session_matches_database_publish() {
        let server = server();
        let session = server.session();
        let view = supplier_parts_view(server.database().catalog()).unwrap();
        for pretty in [false, true] {
            let via_server = session.publish(&view, pretty).unwrap();
            let direct = server.database().publish(&view, pretty).unwrap();
            assert_eq!(via_server, direct);
        }
        // Second publish hits the cached SOU plan.
        let before = server.stats().cache.hits;
        session.publish(&view, false).unwrap();
        assert!(server.stats().cache.hits > before);
    }
}
