//! The one request path: plan → execute → sink.
//!
//! Every request the system serves — ad-hoc SQL, a prepared statement,
//! a published view, an incremental republish, through [`Database`] or
//! through a server session — is the same three steps: obtain an
//! optimized plan ([`parse`] + [`optimize`], or a cached one), [`run`]
//! it on the engine, and feed the batches to a [`Sink`] (rows into a
//! [`Relation`], XML through the streaming tagger, segmented XML for
//! splicing). The facades differ only in which *plan source* and which
//! sink they pick.
//!
//! Observability is not a second path. Each step takes an
//! [`ObsContext`] that is always present and possibly disabled; spans,
//! phase histograms and `op:*` span synthesis are emitted through its
//! handles unconditionally, and a disabled handle costs one branch per
//! call. The only thing an enabled tracer changes is a *value*:
//! per-operator profiling is switched on so the operator spans can be
//! synthesized after the run.
//!
//! [`Database`]: crate::Database

use std::io::Write;
use std::time::Instant;

use xmlpub_algebra::{validate, Catalog, LogicalPlan};
use xmlpub_common::{Error, Relation, Result, Schema, Tuple, TupleBatch};
use xmlpub_engine::{
    emit_operator_spans, execute_stream_with_obs, render_profiles, EngineConfig, ExecStats,
    OpProfile,
};
use xmlpub_obs::{saturating_ns_since, saturating_us_since, ObsContext};
use xmlpub_optimizer::{Optimizer, RuleFiring, Statistics};
use xmlpub_sql::Binder;
use xmlpub_xml::souq::{SortedOuterUnion, TagPlan};
use xmlpub_xml::StreamingTagger;

use crate::Config;

/// Parse and bind SQL text into a validated logical plan, under a
/// `parse` span and the `query.parse_us` histogram.
pub fn parse(catalog: &Catalog, obs: &ObsContext, sql: &str) -> Result<LogicalPlan> {
    let start = Instant::now();
    let _span = obs.tracer.span("parse", obs.parent_span, &[]);
    let plan = xmlpub_sql::parse(sql)
        .and_then(|query| Binder::new(catalog).bind_query(&query))
        .and_then(|plan| validate(&plan).map(|()| plan));
    obs.metrics.record_us("query.parse_us", saturating_us_since(start));
    plan
}

/// Optimize a bound plan under `config`, returning the rewritten plan
/// and the rule firings. Each firing becomes a child span of an
/// `optimize` span and a per-rule counter; latency lands in
/// `query.optimize_us`. An empty rule set returns the bound plan
/// untouched, with no span and no sample. This is the only place an
/// [`Optimizer`] is constructed.
pub fn optimize(
    config: &Config,
    stats: &Statistics,
    obs: &ObsContext,
    plan: LogicalPlan,
) -> Result<(LogicalPlan, Vec<RuleFiring>)> {
    if config.optimizer.rules.is_empty() {
        return Ok((plan, Vec::new()));
    }
    let start = Instant::now();
    let (optimized, log) = Optimizer::new(config.optimizer, stats).optimize(plan, obs);
    obs.metrics.record_us("query.optimize_us", saturating_us_since(start));
    validate(&optimized)?;
    Ok((optimized, log))
}

/// [`optimize`] for a view's sorted outer union, refusing a result whose
/// derived sort order does not provably cluster rows by element (§2):
/// the constant-space tagger silently produces interleaved documents on
/// out-of-order input, so an optimizer bug that breaks the union's
/// `ORDER BY` must fail loudly here instead.
pub fn optimize_view(
    config: &Config,
    stats: &Statistics,
    obs: &ObsContext,
    sou: &SortedOuterUnion,
) -> Result<(LogicalPlan, Vec<RuleFiring>)> {
    let (plan, firings) = optimize(config, stats, obs, sou.plan.clone())?;
    match xmlpub_lint::passes::check_tagger_safety(
        &plan,
        sou.tag_plan.lvl_col,
        stats.catalog_properties(),
    ) {
        Some(diag) => Err(Error::plan(format!("publish aborted: {diag}"))),
        None => Ok((plan, firings)),
    }
}

/// Where a request's result batches go.
pub trait Sink {
    /// What the sink hands back once the stream is exhausted.
    type Output;

    /// Consume one (non-empty) batch.
    fn write_batch(&mut self, batch: TupleBatch) -> Result<()>;

    /// The stream is exhausted; `schema` is the result's schema.
    fn finish(self, schema: &Schema) -> Result<Self::Output>;

    /// Tagging sinks report their pretty-printing flag; [`run`] then
    /// accounts the time spent inside the sink as the `tag` phase.
    fn tags_pretty(&self) -> Option<bool> {
        None
    }
}

/// Rows → a materialised [`Relation`].
#[derive(Default)]
pub struct RowSink(Vec<Tuple>);

impl Sink for RowSink {
    type Output = Relation;

    fn write_batch(&mut self, batch: TupleBatch) -> Result<()> {
        self.0.extend(batch.into_rows());
        Ok(())
    }

    fn finish(self, schema: &Schema) -> Result<Relation> {
        Ok(Relation::from_rows_unchecked(schema.clone(), self.0))
    }
}

/// XML → any [`Write`]r through the constant-space [`StreamingTagger`]:
/// each batch is tagged and written as it arrives, so peak memory is
/// one batch plus the open-element stack.
pub struct XmlSink<'p, W: Write> {
    tagger: StreamingTagger<'p, W>,
    pretty: bool,
}

impl<'p, W: Write> XmlSink<'p, W> {
    /// Tag into `out` following `tag_plan`.
    pub fn new(out: W, tag_plan: &'p TagPlan, pretty: bool) -> Self {
        XmlSink { tagger: StreamingTagger::new(out, tag_plan, pretty), pretty }
    }
}

impl<W: Write> Sink for XmlSink<'_, W> {
    type Output = W;

    fn write_batch(&mut self, batch: TupleBatch) -> Result<()> {
        batch.rows().iter().try_for_each(|row| self.tagger.write_row(row))
    }

    fn finish(self, _schema: &Schema) -> Result<W> {
        self.tagger.finish()
    }

    fn tags_pretty(&self) -> Option<bool> {
        Some(self.pretty)
    }
}

/// What [`run`] hands back.
#[derive(Debug)]
pub struct Executed<T> {
    /// The sink's output.
    pub output: T,
    /// Rows the engine produced (and the sink consumed).
    pub rows: u64,
    /// Engine counters for this run.
    pub stats: ExecStats,
    /// Per-operator profiles, pre-order; empty unless profiling was on.
    pub profiles: Vec<OpProfile>,
}

/// Execute an optimized plan and stream its batches into `sink` — the
/// only caller of the engine outside the engine itself.
///
/// Emits an `execute` span under `obs.parent_span` (parallel workers
/// nest under it through the context), one synthesized `op:*` span per
/// profiled operator, and the `query.exec_us` histogram; for tagging
/// sinks also a `tag` span and `publish.tag_us`, accumulated around the
/// sink calls because tagging interleaves with execution batch by
/// batch. `profile` forces per-operator profiling, as does an enabled
/// tracer.
pub fn run<S: Sink>(
    catalog: &Catalog,
    engine: &EngineConfig,
    obs: &ObsContext,
    plan: &LogicalPlan,
    mut sink: S,
    profile: bool,
) -> Result<Executed<S::Output>> {
    let start = Instant::now();
    let mut engine = *engine;
    engine.profile_ops |= profile || obs.tracer.enabled();
    let mut span = obs.tracer.span("execute", obs.parent_span, &[]);
    span.annotate("dop", engine.dop);
    let mut stream = execute_stream_with_obs(plan, catalog, &engine, obs.under(span.id()))?;
    let pretty = sink.tags_pretty();
    let mut sink_ns = 0u64;
    let mut rows = 0u64;
    while let Some(batch) = stream.next_batch()? {
        rows += batch.len() as u64;
        let sink_start = Instant::now();
        sink.write_batch(batch)?;
        sink_ns = sink_ns.saturating_add(saturating_ns_since(sink_start));
    }
    let sink_start = Instant::now();
    let output = sink.finish(stream.schema())?;
    sink_ns = sink_ns.saturating_add(saturating_ns_since(sink_start));
    emit_operator_spans(&obs.tracer, span.id(), stream.profiles());
    span.annotate("rows", rows);
    drop(span);
    if let Some(pretty) = pretty {
        obs.tracer.emit_span(
            "tag",
            obs.parent_span,
            obs.tracer.now_us(),
            sink_ns / 1_000,
            &[("rows", &rows.to_string()), ("pretty", if pretty { "true" } else { "false" })],
        );
        obs.metrics.record_us("publish.tag_us", sink_ns / 1_000);
    }
    obs.metrics.record_us("query.exec_us", saturating_us_since(start));
    Ok(Executed {
        output,
        rows,
        stats: stream.stats().clone(),
        profiles: stream.profiles().to_vec(),
    })
}

/// The `\explain --analyze` report: the optimized plan, the per-operator
/// runtime breakdown and the engine counters. `knobs` are the
/// (indented, newline-terminated) configuration lines printed above the
/// counters; a server passes its own counters as a final section.
pub fn analyze_report<T>(
    plan: &LogicalPlan,
    done: &Executed<T>,
    knobs: &str,
    server_counters: Option<&str>,
) -> String {
    let mut out = format!(
        "== optimized plan ==\n{}\n== operators (analyze) ==\n{}\n== engine counters ==\n{knobs}  {:?}\n",
        plan.explain(),
        render_profiles(&done.profiles),
        done.stats
    );
    if let Some(counters) = server_counters {
        out.push_str("\n== server counters ==\n");
        out.push_str(counters);
    }
    out
}
