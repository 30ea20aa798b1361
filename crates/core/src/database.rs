//! The `Database` facade.

use std::time::Instant;

use xmlpub_algebra::{Catalog, LogicalPlan, TableDef};
use xmlpub_analysis::explain_with_properties;
use xmlpub_common::{Relation, Result};
use xmlpub_engine::{EngineConfig, ExecStats};
use xmlpub_lint::{Diagnostic, LintRegistry};
use xmlpub_obs::{saturating_us_since, ObsContext};
use xmlpub_optimizer::{OptimizerConfig, RuleFiring, Statistics};
use xmlpub_tpch::TpchGenerator;
use xmlpub_xml::souq::sorted_outer_union;
use xmlpub_xml::view::XmlView;

use crate::request::{
    analyze_report, optimize, optimize_view, parse, run, Executed, RowSink, Sink, XmlSink,
};

/// End-to-end configuration: which rules the optimizer may fire and how
/// the engine executes (partition strategy, apply caching).
#[derive(Debug, Clone, Copy, Default)]
pub struct Config {
    /// Optimizer rules (§4). Default: every rule, cost-gated
    /// group/aggregate selection; [`OptimizerConfig::none`] runs bound
    /// plans as bound.
    pub optimizer: OptimizerConfig,
    /// Engine knobs (§3 partitioning strategy, apply caching).
    pub engine: EngineConfig,
}

/// An in-memory database: catalog + statistics + configuration.
pub struct Database {
    catalog: Catalog,
    stats: Statistics,
    config: Config,
    obs: ObsContext,
}

impl Database {
    /// An empty database. Observability is configured from the
    /// environment (`XMLPUB_TRACE`, `XMLPUB_METRICS`) and fully
    /// disabled by default.
    pub fn new() -> Self {
        Database {
            catalog: Catalog::new(),
            stats: Statistics::empty(),
            config: Config::default(),
            obs: ObsContext::from_env(),
        }
    }

    /// Wrap an existing catalog (gathers statistics immediately).
    pub fn from_catalog(catalog: Catalog) -> Self {
        let stats = Statistics::from_catalog(&catalog);
        Database { catalog, stats, config: Config::default(), obs: ObsContext::from_env() }
    }

    /// A database pre-loaded with the three core TPC-H tables
    /// (supplier, part, partsupp) at the given scale factor.
    pub fn tpch(scale: f64) -> Result<Self> {
        Ok(Database::from_catalog(TpchGenerator::with_scale(scale).core_catalog()?))
    }

    /// A database pre-loaded with all seven TPC-H tables.
    pub fn tpch_full(scale: f64) -> Result<Self> {
        Ok(Database::from_catalog(TpchGenerator::with_scale(scale).catalog()?))
    }

    /// Register a table and refresh statistics.
    pub fn register_table(&mut self, def: TableDef, data: Relation) -> Result<()> {
        self.catalog.register(def, data)?;
        self.stats = Statistics::from_catalog(&self.catalog);
        Ok(())
    }

    /// Apply a batch of appends/deletes to a base table, returning the
    /// table's new version. Takes `&self`: the catalog's table store is
    /// interior-mutable and versioned, so readers running concurrently
    /// keep the snapshot they started on. The planner statistics are
    /// deliberately *not* refreshed per batch — they only steer cost
    /// decisions (key/FK facts come from the immutable definitions),
    /// and re-deriving them would make update cost proportional to the
    /// data instead of the delta. Call [`Database::refresh_statistics`]
    /// after bulk loads where the data distribution shifted materially.
    pub fn apply_delta(&self, table: &str, delta: &xmlpub_common::DeltaBatch) -> Result<u64> {
        self.catalog.apply_delta(table, delta)
    }

    /// Re-gather planner statistics from the current table snapshots.
    pub fn refresh_statistics(&mut self) {
        self.stats = Statistics::from_catalog(&self.catalog);
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The gathered statistics.
    pub fn statistics(&self) -> &Statistics {
        &self.stats
    }

    /// Current configuration.
    pub fn config(&self) -> Config {
        self.config
    }

    /// Mutable configuration access.
    pub fn config_mut(&mut self) -> &mut Config {
        &mut self.config
    }

    /// Observability handles (metrics registry + tracer) at the root
    /// span. Disabled unless configured via the environment or
    /// [`Database::set_observability`].
    pub fn observability(&self) -> &ObsContext {
        &self.obs
    }

    /// Install observability handles — e.g. a server-shared metrics
    /// registry or a trace sink pointed at a file/buffer. Requests root
    /// their spans at 0 whatever `obs.parent_span` says.
    pub fn set_observability(&mut self, obs: ObsContext) {
        self.obs = obs.under(0);
    }

    /// Parse and bind a SQL query (no optimization).
    pub fn plan(&self, sql: &str) -> Result<LogicalPlan> {
        parse(&self.catalog, &ObsContext::disabled(), sql)
    }

    /// Parse, bind and optimize, returning the plan and the rule firings.
    pub fn optimized_plan(&self, sql: &str) -> Result<(LogicalPlan, Vec<RuleFiring>)> {
        let plan = self.plan(sql)?;
        self.optimize_plan(plan)
    }

    /// Optimize a pre-built (bound) plan under this database's
    /// configuration and observability.
    pub fn optimize_plan(&self, plan: LogicalPlan) -> Result<(LogicalPlan, Vec<RuleFiring>)> {
        optimize(&self.config, &self.stats, &self.obs, plan)
    }

    /// Run a SQL query end-to-end.
    pub fn sql(&self, sql: &str) -> Result<Relation> {
        Ok(self.sql_with_stats(sql)?.0)
    }

    /// Run a SQL query end-to-end, also returning the engine counters.
    pub fn sql_with_stats(&self, sql: &str) -> Result<(Relation, ExecStats)> {
        let (_, done) = self.run_sql(sql, false)?;
        Ok((done.output, done.stats))
    }

    /// Run a SQL query with per-operator profiling (`\explain --analyze`):
    /// returns the result plus a report combining the optimized plan, a
    /// per-operator runtime breakdown (opens/next calls/batches/rows) and
    /// the global engine counters.
    pub fn sql_analyzed(&self, sql: &str) -> Result<(Relation, String)> {
        let (plan, done) = self.run_sql(sql, true)?;
        let knobs = format!("  batch size {}\n", self.config.engine.batch_size);
        let report = analyze_report(&plan, &done, &knobs, None);
        Ok((done.output, report))
    }

    fn run_sql(&self, sql: &str, profile: bool) -> Result<(LogicalPlan, Executed<Relation>)> {
        let source = |obs: &ObsContext| {
            let bound = parse(&self.catalog, obs, sql)?;
            Ok(optimize(&self.config, &self.stats, obs, bound)?.0)
        };
        self.request(&QUERY, &[("sql", sql)], source, RowSink::default(), profile)
    }

    /// The lifecycle of every request this facade serves: a root span,
    /// the plan source (its parse/optimize spans nest under the root),
    /// [`run`] into the sink, and the family's count and total-latency
    /// instruments.
    fn request<S: Sink>(
        &self,
        family: &Family,
        attrs: &[(&str, &str)],
        source: impl FnOnce(&ObsContext) -> Result<LogicalPlan>,
        sink: S,
        profile: bool,
    ) -> Result<(LogicalPlan, Executed<S::Output>)> {
        let start = Instant::now();
        let mut span = self.obs.tracer.span(family.span, 0, attrs);
        let obs = self.obs.under(span.id());
        let plan = source(&obs)?;
        let done = run(&self.catalog, &self.config.engine, &obs, &plan, sink, profile)?;
        span.annotate("rows", done.rows);
        self.obs.metrics.add(family.count, 1);
        self.obs.metrics.record_us(family.total_us, saturating_us_since(start));
        Ok((plan, done))
    }

    /// Execute a pre-built logical plan with this database's engine
    /// configuration.
    pub fn execute_plan(&self, plan: &LogicalPlan) -> Result<(Relation, ExecStats)> {
        let done =
            run(&self.catalog, &self.config.engine, &self.obs, plan, RowSink::default(), false)?;
        Ok((done.output, done.stats))
    }

    /// Run the full lint registry over the bound (unoptimized) plan of a
    /// query. An empty result means the plan satisfies every structural
    /// invariant the linter knows about.
    pub fn lint(&self, sql: &str) -> Result<Vec<Diagnostic>> {
        let plan = self.plan(sql)?;
        Ok(self.lint_registry().lint_plan(&plan))
    }

    /// The full lint registry seeded with this database's catalog
    /// constraint facts, so the properties pass re-derives keys and
    /// cardinalities from the same ground truth the optimizer used.
    fn lint_registry(&self) -> LintRegistry {
        LintRegistry::default_with_properties(self.stats.catalog_properties().clone())
    }

    /// PROPS: the bound and optimized plans, each node annotated with
    /// the analyzer's derived properties (candidate keys, sort order,
    /// cardinality interval, non-null columns).
    pub fn props(&self, sql: &str) -> Result<String> {
        let bound = self.plan(sql)?;
        let (optimized, _) = self.optimize_plan(bound.clone())?;
        let facts = self.stats.catalog_properties();
        let mut out = String::from("== bound plan ==\n");
        out.push_str(&explain_with_properties(&bound, facts));
        out.push_str("\n== optimized plan ==\n");
        out.push_str(&explain_with_properties(&optimized, facts));
        Ok(out)
    }

    /// EXPLAIN: the bound plan, the optimized plan, and the fired rules
    /// (with the plan path each one fired at).
    pub fn explain(&self, sql: &str) -> Result<String> {
        self.explain_with(sql, false)
    }

    /// [`Database::explain`], optionally with per-rewrite verification:
    /// when `verify` is set, the optimizer lints every rule firing and
    /// the report carries each firing's diagnostics plus a final lint of
    /// both plans.
    pub fn explain_with(&self, sql: &str, verify: bool) -> Result<String> {
        let bound = self.plan(sql)?;
        // Verification forces per-firing linting regardless of build
        // profile.
        let mut config = self.config;
        config.optimizer.verify_rewrites |= verify;
        let (optimized, log) = optimize(&config, &self.stats, &self.obs, bound.clone())?;
        let mut out = String::from("== bound plan ==\n");
        out.push_str(&bound.explain());
        out.push_str("\n== optimized plan ==\n");
        out.push_str(&optimized.explain());
        if !log.is_empty() {
            out.push_str("\n== rules fired ==\n");
            for f in &log {
                out.push_str(&format!("  {} at {}\n", f.rule, f.path));
                if verify {
                    for c in &f.properties {
                        out.push_str(&format!("    consumed: {c}\n"));
                    }
                }
                for d in &f.diagnostics {
                    out.push_str(&format!("    {d}\n"));
                }
            }
        }
        if verify {
            out.push_str("\n== lint ==\n");
            let diags = self.lint_registry().lint_plan(&optimized);
            if diags.is_empty() {
                let fired = log.iter().filter(|f| !f.diagnostics.is_empty()).count();
                if fired == 0 {
                    out.push_str("  clean: every firing and the final plan pass all lint passes\n");
                } else {
                    out.push_str(&format!(
                        "  final plan clean, but {fired} firing(s) carry diagnostics (above)\n"
                    ));
                }
            } else {
                for d in &diags {
                    out.push_str(&format!("  {d}\n"));
                }
            }
        }
        Ok(out)
    }

    /// Publish an XML view: build the sorted outer union, execute it and
    /// run the constant-space tagger, collecting the document into a
    /// `String`. Streams internally — see [`Database::publish_to`].
    pub fn publish(&self, view: &XmlView, pretty: bool) -> Result<String> {
        let bytes = self.publish_to(view, pretty, Vec::new())?;
        Ok(String::from_utf8(bytes).expect("tagger emits UTF-8 only"))
    }

    /// Publish an XML view incrementally into an [`io::Write`] sink: the
    /// sorted-outer-union plan is executed as a batch stream and each
    /// batch is tagged and written as it arrives, so peak memory is one
    /// batch plus the tagger's open-element stack — never the whole
    /// document or the whole relational result. Returns the sink.
    ///
    /// [`io::Write`]: std::io::Write
    pub fn publish_to<W: std::io::Write>(
        &self,
        view: &XmlView,
        pretty: bool,
        sink: W,
    ) -> Result<W> {
        let sou = sorted_outer_union(view)?;
        let source = |obs: &ObsContext| Ok(optimize_view(&self.config, &self.stats, obs, &sou)?.0);
        let sink = XmlSink::new(sink, &sou.tag_plan, pretty);
        Ok(self.request(&PUBLISH, &[], source, sink, false)?.1.output)
    }
}

/// The span and instrument names of one request family.
struct Family {
    span: &'static str,
    count: &'static str,
    total_us: &'static str,
}

const QUERY: Family = Family { span: "query", count: "query.count", total_us: "query.total_us" };
const PUBLISH: Family =
    Family { span: "publish", count: "publish.count", total_us: "publish.total_us" };

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlpub_common::{row, DataType, Field, Schema, Value};

    #[test]
    fn empty_database_register_and_query() {
        let mut db = Database::new();
        let def = TableDef::new(
            "t",
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Float)]),
        );
        let data = Relation::new(def.schema.clone(), vec![row![1, 2.0], row![1, 4.0]]).unwrap();
        db.register_table(def, data).unwrap();
        let r = db.sql("select k, avg(v) from t group by k").unwrap();
        assert_eq!(r.rows(), &[row![1, 3.0]]);
        assert_eq!(db.statistics().rows("t"), 2);
    }

    #[test]
    fn tpch_database_runs_gapply() {
        let db = Database::tpch(0.001).unwrap();
        let (r, stats) = db
            .sql_with_stats(
                "select gapply(select max(p_retailprice) from g) as (maxp) \
                 from partsupp, part where ps_partkey = p_partkey \
                 group by ps_suppkey : g",
            )
            .unwrap();
        assert_eq!(r.len(), 10);
        // The pure-aggregate PGQ converts to a plain group-by, so no
        // groups are processed by a GApply operator at all.
        assert_eq!(stats.groups_processed, 0);
    }

    #[test]
    fn empty_rule_set_keeps_gapply() {
        let mut db = Database::tpch(0.001).unwrap();
        db.config_mut().optimizer = OptimizerConfig::none();
        let (r, stats) = db
            .sql_with_stats(
                "select gapply(select max(p_retailprice) from g) as (maxp) \
                 from partsupp, part where ps_partkey = p_partkey \
                 group by ps_suppkey : g",
            )
            .unwrap();
        assert_eq!(r.len(), 10);
        assert_eq!(stats.groups_processed, 10);
    }

    #[test]
    fn explain_mentions_rules() {
        let db = Database::tpch(0.001).unwrap();
        let text = db
            .explain(
                "select gapply(select avg(p_retailprice) from g) \
                 from partsupp, part where ps_partkey = p_partkey \
                 group by ps_suppkey : g",
            )
            .unwrap();
        assert!(text.contains("== bound plan =="), "{text}");
        assert!(text.contains("GApply"), "{text}");
        assert!(text.contains("gapply-to-groupby"), "{text}");
    }

    #[test]
    fn lint_reports_clean_for_valid_queries() {
        let db = Database::tpch(0.001).unwrap();
        let diags = db
            .lint(
                "select gapply(select max(p_retailprice) from g) as (maxp) \
                 from partsupp, part where ps_partkey = p_partkey \
                 group by ps_suppkey : g",
            )
            .unwrap();
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn verified_explain_reports_clean_lint() {
        let db = Database::tpch(0.001).unwrap();
        let text = db
            .explain_with(
                "select gapply(select avg(p_retailprice) from g) \
                 from partsupp, part where ps_partkey = p_partkey \
                 group by ps_suppkey : g",
                true,
            )
            .unwrap();
        assert!(text.contains("== lint =="), "{text}");
        assert!(text.contains("clean"), "{text}");
        // Firings carry the plan path they applied at.
        assert!(text.contains(" at $"), "{text}");
    }

    #[test]
    fn verified_explain_lists_consumed_side_conditions() {
        let db = Database::tpch(0.001).unwrap();
        // The invariant-grouping workload: the fk-join level above the
        // grouping column is skipped, and the firing must record the
        // key fact it consumed to prove that legal.
        let text =
            db.explain_with(&xmlpub_xml::workloads::invariant_grouping_sweep_sql(), true).unwrap();
        assert!(text.contains("invariant-grouping"), "{text}");
        assert!(text.contains("consumed: "), "{text}");
        assert!(text.contains("key within"), "{text}");
    }

    #[test]
    fn props_annotates_both_plans() {
        let db = Database::tpch(0.001).unwrap();
        let text = db
            .props(
                "select gapply(select max(p_retailprice) from g) as (maxp) \
                 from partsupp, part where ps_partkey = p_partkey \
                 group by ps_suppkey : g",
            )
            .unwrap();
        assert!(text.contains("== bound plan =="), "{text}");
        assert!(text.contains("== optimized plan =="), "{text}");
        // Derived facts are printed per node: keys, order, row bounds.
        assert!(text.contains("keys={"), "{text}");
        assert!(text.contains("rows=["), "{text}");
    }

    #[test]
    fn sql_analyzed_reports_operator_breakdown() {
        let db = Database::tpch(0.001).unwrap();
        let (r, report) =
            db.sql_analyzed("select p_name from part where p_retailprice > 1500.0").unwrap();
        let plain = db.sql("select p_name from part where p_retailprice > 1500.0").unwrap();
        assert!(r.bag_eq(&plain), "{}", r.bag_diff(&plain));
        assert!(report.contains("== operators (analyze) =="), "{report}");
        assert!(report.contains("TableScan(part)"), "{report}");
        assert!(report.contains("rows_out"), "{report}");
    }

    #[test]
    fn batch_size_one_matches_default() {
        let mut db = Database::tpch(0.001).unwrap();
        let sql = "select gapply(select p_name, max(p_retailprice) from g group by p_name) \
                   from partsupp, part where ps_partkey = p_partkey group by ps_suppkey : g";
        let batched = db.sql(sql).unwrap();
        db.config_mut().engine.batch_size = 1;
        let tuple_at_a_time = db.sql(sql).unwrap();
        assert!(batched.bag_eq(&tuple_at_a_time), "{}", batched.bag_diff(&tuple_at_a_time));
    }

    #[test]
    fn publish_produces_xml() {
        let db = Database::tpch(0.001).unwrap();
        let view = xmlpub_xml::supplier_parts_view(db.catalog()).unwrap();
        let xml = db.publish(&view, false).unwrap();
        assert!(xml.starts_with("<suppliers>"));
        assert_eq!(xml.matches("<supplier s_suppkey=").count(), 10);
    }

    #[test]
    fn publish_to_sink_matches_publish_string() {
        let db = Database::tpch(0.001).unwrap();
        let view = xmlpub_xml::supplier_parts_view(db.catalog()).unwrap();
        for pretty in [false, true] {
            let s = db.publish(&view, pretty).unwrap();
            let bytes = db.publish_to(&view, pretty, Vec::new()).unwrap();
            assert_eq!(s.as_bytes(), &bytes[..], "pretty={pretty}");
        }
    }

    #[test]
    fn optimizer_and_unoptimized_agree() {
        let db = Database::tpch(0.001).unwrap();
        let mut db_raw = Database::tpch(0.001).unwrap();
        db_raw.config_mut().optimizer = OptimizerConfig::none();
        for sql in [
            "select gapply(select p_name from g where p_retailprice > 1500.0) \
             from partsupp, part where ps_partkey = p_partkey group by ps_suppkey : g",
            "select gapply(select count(*), null from g where p_retailprice >= \
               (select avg(p_retailprice) from g) \
             union all select null, count(*) from g where p_retailprice < \
               (select avg(p_retailprice) from g)) \
             from partsupp, part where ps_partkey = p_partkey group by ps_suppkey : g",
        ] {
            let a = db.sql(sql).unwrap();
            let b = db_raw.sql(sql).unwrap();
            assert!(a.bag_eq(&b), "{sql}\n{}", a.bag_diff(&b));
        }
    }

    #[test]
    fn error_surfaces_from_all_layers() {
        let db = Database::tpch(0.001).unwrap();
        assert!(db.sql("selectt nonsense").is_err()); // parse
        assert!(db.sql("select nope from part").is_err()); // bind
        let r = db.sql("select p_name from part where p_retailprice > 'x'");
        assert!(r.is_err()); // execution type error
    }

    /// Fresh metrics registry + tracer writing into the returned sink.
    fn buffered_obs() -> (ObsContext, xmlpub_obs::BufferSink) {
        let sink = xmlpub_obs::BufferSink::new();
        let obs = ObsContext {
            metrics: xmlpub_obs::MetricsHandle::new_registry(),
            tracer: xmlpub_obs::TraceHandle::new(Box::new(sink.clone())),
            parent_span: 0,
        };
        (obs, sink)
    }

    #[test]
    fn traced_query_matches_untraced_and_emits_lifecycle_spans() {
        let mut db = Database::tpch(0.001).unwrap();
        let sql = "select gapply(select max(p_retailprice) from g) as (maxp) \
                   from partsupp, part where ps_partkey = p_partkey \
                   group by ps_suppkey : g";
        let plain = db.sql(sql).unwrap();
        let (obs, sink) = buffered_obs();
        db.set_observability(obs);
        let traced = db.sql(sql).unwrap();
        assert!(plain.bag_eq(&traced), "{}", plain.bag_diff(&traced));

        let records = xmlpub_obs::SpanRecord::parse_all(&sink.contents()).unwrap();
        let names: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
        for expected in ["query", "parse", "optimize", "execute"] {
            assert!(names.contains(&expected), "missing span {expected:?} in {names:?}");
        }
        // Per-operator spans synthesized from the profiles.
        assert!(names.iter().any(|n| n.starts_with("op:")), "{names:?}");

        let snap = db.observability().metrics.snapshot().unwrap();
        assert_eq!(snap.counter("query.count"), Some(1));
        for h in ["query.parse_us", "query.optimize_us", "query.exec_us", "query.total_us"] {
            assert_eq!(snap.histogram(h).map(|s| s.count), Some(1), "{h}");
        }
        assert!(snap.counter("engine.rows_out").unwrap_or(0) > 0);
    }

    #[test]
    fn traced_publish_is_byte_identical_and_spans_tag_phase() {
        let mut db = Database::tpch(0.001).unwrap();
        let view = xmlpub_xml::supplier_parts_view(db.catalog()).unwrap();
        let plain = db.publish(&view, false).unwrap();
        let (obs, sink) = buffered_obs();
        db.set_observability(obs);
        let traced = db.publish(&view, false).unwrap();
        assert_eq!(plain, traced);

        let records = xmlpub_obs::SpanRecord::parse_all(&sink.contents()).unwrap();
        let names: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
        for expected in ["publish", "optimize", "execute", "tag"] {
            assert!(names.contains(&expected), "missing span {expected:?} in {names:?}");
        }
        let snap = db.observability().metrics.snapshot().unwrap();
        assert_eq!(snap.counter("publish.count"), Some(1));
        assert_eq!(snap.histogram("publish.total_us").map(|s| s.count), Some(1));
    }

    #[test]
    fn metrics_only_observability_skips_tracing() {
        let mut db = Database::tpch(0.001).unwrap();
        db.set_observability(ObsContext::with_metrics());
        let r = db.sql("select p_name from part").unwrap();
        assert!(!r.rows().is_empty());
        let snap = db.observability().metrics.snapshot().unwrap();
        assert_eq!(snap.counter("query.count"), Some(1));
        // No tracer => no forced profiling and no spans, but phase
        // histograms still record.
        assert_eq!(snap.histogram("query.exec_us").map(|s| s.count), Some(1));
    }

    #[test]
    fn partition_strategy_is_configurable() {
        let mut db = Database::tpch(0.001).unwrap();
        db.config_mut().optimizer = OptimizerConfig::none();
        let sql = "select gapply(select min(p_retailprice) from g) \
                   from partsupp, part where ps_partkey = p_partkey \
                   group by ps_suppkey : g";
        let hash = db.sql(sql).unwrap();
        db.config_mut().engine.partition_strategy = xmlpub_engine::PartitionStrategy::Sort;
        let sort = db.sql(sql).unwrap();
        assert!(hash.bag_eq(&sort), "{}", hash.bag_diff(&sort));
        // Sort partitioning clusters output by key.
        let keys: Vec<Value> = sort.rows().iter().map(|r| r.value(0).clone()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
