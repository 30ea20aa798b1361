//! The one file that imports the `xmlpub*` crates.
//!
//! Everything the benchmark needs from the program under test goes
//! through here, so the signatures a later refactor must keep (or wrap)
//! are the ones this file calls — see `benchmark/README.md` for the
//! list. The rest of the benchmark sees only the types defined here.
//!
//! End-to-end runs use: `TpchGenerator::{catalog, core_catalog}`,
//! `Database::{from_catalog, sql, publish, apply_delta}`,
//! `Server::{new, session, stats, database}`, `NetServer::{start,
//! local_addr, drain}`, `NetClient::{connect, prepare, exec_prepared,
//! sql, publish, goodbye}`, `Session::{prepare, execute,
//! execute_prepared, publish, republish}` and `resolve_view`.
//! The traced run ([`ByHand`]) adds the per-layer public functions.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use xmlpub::Database;
use xmlpub_algebra::{validate, Catalog, LogicalPlan};
use xmlpub_common::{DeltaBatch, Relation, Tuple, Value};
use xmlpub_engine::{dirty_keys, execute_stream, EngineConfig, ExecStats, TableDeltas};
use xmlpub_net::frame::{result_frames, XML_CHUNK_BYTES};
use xmlpub_net::{
    encode_response, resolve_view, FrameDecoder, NetClient, NetConfig, NetServer,
    Reply as NetReply, Response,
};
use xmlpub_server::{
    segment_rows, splice, RepublishOutcome, SegmentedDoc, Server, ServerConfig, Session,
};
use xmlpub_sql::{parse, Binder};
use xmlpub_tpch::{TpchConfig, TpchGenerator};
use xmlpub_xml::souq::SortedOuterUnion;
use xmlpub_xml::workloads::{
    aggregate_selection_sweep_sql, exists_sweep_sql, figure8_workloads, q3, selection_sweep_sql,
};
use xmlpub_xml::xquery::{ChildCond, ReturnItem, ViewSql};
use xmlpub_xml::{sorted_outer_union, sorted_outer_union_for_keys, StreamingTagger};

use crate::stats::Fnv;
use crate::trace::Recorder;
use crate::workloads::Request;

type Res<T> = Result<T, String>;

fn msg(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---------------------------------------------------------------------
// Request texts

/// The ten Fig. 8 statements: Q1–Q4 and Q4r, classic then gapply.
pub fn fig8_statements() -> Vec<(String, String)> {
    figure8_workloads()
        .into_iter()
        .flat_map(|w| {
            let name = w.name.to_ascii_lowercase();
            [(format!("{name}_classic"), w.classic_sql), (format!("{name}_gapply"), w.gapply_sql)]
        })
        .collect()
}

pub const ADHOC_TEMPLATES: usize = 6;

/// Ad-hoc text number `template` with its literal drawn from `u` in
/// `[0, 1)`: the three Table 1 sweeps that take a threshold, the Q3
/// shape in both formulations, and the Q4 gapply shape with a price
/// floor. TPC-H retail prices span [900, 2099).
pub fn adhoc_sql(template: usize, u: f64) -> String {
    let price = ((900.0 + u * 1199.0) * 100.0).round() / 100.0;
    match template {
        0 => selection_sweep_sql(price),
        1 => exists_sweep_sql(price),
        2 => aggregate_selection_sweep_sql(price),
        3 | 4 => {
            let mut xq = q3().xquery.expect("Q3 is XQuery-born");
            let delta = (u * 0.2 * 10_000.0).round() / 10_000.0;
            for (item, s) in xq.return_items.iter_mut().zip([0.75 + delta, 1.05 + delta]) {
                if let ReturnItem::Nested {
                    filter: Some(ChildCond::CompareToAgg { scale, .. }),
                    ..
                } = item
                {
                    *scale = s;
                }
            }
            let view = ViewSql::supplier_parts();
            if template == 3 {
                xq.to_gapply_sql(&view)
            } else {
                xq.to_classic_sql(&view)
            }
        }
        _ => format!(
            "select gapply(select p_name, p_retailprice from g \
             where p_retailprice > (select avg(p_retailprice) from g)) as (p_name, p_retailprice) \
             from partsupp, part where ps_partkey = p_partkey and p_retailprice > {price} \
             group by ps_suppkey, p_size : g"
        ),
    }
}

// ---------------------------------------------------------------------
// Answers

/// The engine counters an `END` frame carries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub rows_scanned: u64,
    pub join_probes: u64,
    pub groups_processed: u64,
    pub pgq_executions: u64,
    pub rows_sorted: u64,
    pub rows_hashed: u64,
    pub plan_cache_hits: u64,
    pub plan_cache_misses: u64,
}

impl From<&ExecStats> for Counts {
    fn from(s: &ExecStats) -> Self {
        Counts {
            rows_scanned: s.rows_scanned,
            join_probes: s.join_probes,
            groups_processed: s.groups_processed,
            pgq_executions: s.pgq_executions,
            rows_sorted: s.rows_sorted,
            rows_hashed: s.rows_hashed,
            plan_cache_hits: s.plan_cache_hits,
            plan_cache_misses: s.plan_cache_misses,
        }
    }
}

/// Length (rows or bytes) and hash of an answer: what every response of
/// a measured run is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub len: u64,
    pub hash: u64,
}

enum Body {
    Rows(Relation),
    Xml(String),
}

/// A complete answer as the client received it.
pub struct Reply {
    body: Body,
    pub counts: Counts,
}

impl Reply {
    pub fn answer(&self) -> Answer {
        match &self.body {
            Body::Rows(rel) => {
                let mut h = Fnv::default();
                rel.schema().len().hash(&mut h);
                rel.rows().hash(&mut h);
                Answer { len: rel.len() as u64, hash: h.finish() }
            }
            Body::Xml(xml) => Answer { len: xml.len() as u64, hash: Fnv::of(xml.as_bytes()) },
        }
    }

    /// Exact comparison: same schema and row sequence, or the same bytes.
    pub fn same_as(&self, other: &Reply) -> bool {
        match (&self.body, &other.body) {
            (Body::Rows(a), Body::Rows(b)) => a == b,
            (Body::Xml(a), Body::Xml(b)) => a == b,
            _ => false,
        }
    }
}

/// One attempt at one request.
pub enum Outcome {
    Done(Reply),
    /// BUSY: shed by admission control, nothing executed.
    Refused,
    Failed(String),
}

fn rows_outcome<E: std::fmt::Display>(r: Result<NetReply<(Relation, ExecStats)>, E>) -> Outcome {
    match r {
        Ok(NetReply::Done((rel, stats))) => {
            Outcome::Done(Reply { body: Body::Rows(rel), counts: (&stats).into() })
        }
        Ok(NetReply::Busy(_)) => Outcome::Refused,
        Err(e) => Outcome::Failed(msg(e)),
    }
}

// ---------------------------------------------------------------------
// The hosted service

/// Generated TPC-H tables, not yet loaded.
pub struct Data(Catalog);

/// Generate TPC-H at `scale` from `seed`.
pub fn generate(scale: f64, full_catalog: bool, seed: u64) -> Res<Data> {
    let gen = TpchGenerator::new(TpchConfig { scale, seed, skew: 0.0 });
    let catalog = if full_catalog { gen.catalog() } else { gen.core_catalog() };
    catalog.map(Data).map_err(msg)
}

/// Pool and plan-cache counters of the hosted server.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolSnapshot {
    pub admitted: u64,
    pub shed: u64,
    pub in_queue: u64,
}

/// `Server` + `NetServer` in this process on an ephemeral localhost port.
pub struct Host {
    server: Arc<Server>,
    net: NetServer,
    addr: SocketAddr,
    dop: usize,
}

impl Host {
    /// Load `data`, start the pool (two workers: one per core of the
    /// box the seed numbers were taken on) and the listener.
    pub fn start(data: Data, dop: usize) -> Res<Host> {
        let db = Database::from_catalog(data.0);
        let mut defaults = db.config();
        defaults.engine.dop = dop;
        let config =
            ServerConfig { workers: 2, dop_budget: 2 * dop, defaults, ..ServerConfig::default() };
        assert_eq!(config.dop_cap(), dop, "dop_budget must not clamp the session's dop");
        let server = Arc::new(Server::new(db, config));
        let net = NetServer::start(Arc::clone(&server), NetConfig::default()).map_err(msg)?;
        let addr = net.local_addr();
        Ok(Host { server, net, addr, dop })
    }

    pub fn connect(&self) -> Res<Wire> {
        NetClient::connect(self.addr).map(|client| Wire { client }).map_err(msg)
    }

    pub fn session(&self) -> InProc {
        InProc { session: self.server.session() }
    }

    /// The reference answer: serial, in-process, no server involved.
    pub fn reference(&self, req: &Request, statements: &[(String, String)]) -> Res<Reply> {
        let db = self.server.database();
        let body = match req {
            Request::Prepared(i) => Body::Rows(db.sql(&statements[*i].1).map_err(msg)?),
            Request::Sql(sql) => Body::Rows(db.sql(sql).map_err(msg)?),
            Request::Publish { view, pretty } => {
                let view = resolve_view(db, view).map_err(msg)?;
                Body::Xml(db.publish(&view, *pretty).map_err(msg)?)
            }
            Request::Churn { .. } => return Err("a churn request has no fixed answer".into()),
        };
        Ok(Reply { body, counts: Counts::default() })
    }

    pub fn pool(&self) -> PoolSnapshot {
        let s = self.server.stats();
        PoolSnapshot {
            admitted: s.pool.admitted,
            shed: s.pool.shed,
            in_queue: s.pool.in_queue as u64,
        }
    }

    /// Rows in `supplier`: the root groups of `supplier_parts`.
    pub fn root_groups(&self) -> Res<usize> {
        Ok(self.server.database().catalog().data("supplier").map_err(msg)?.len())
    }

    pub fn apply_delta(&self, delta: &Delta) -> Res<()> {
        self.server.database().apply_delta("supplier", &delta.0).map(drop).map_err(msg)
    }

    /// Drain the listener; an unclean drain is an error.
    pub fn shutdown(self) -> Res<()> {
        let report = self.net.drain(Duration::from_secs(10));
        if report.drained {
            Ok(())
        } else {
            Err(format!("drain aborted {} connection(s)", report.aborted))
        }
    }
}

/// A wire client: one connection, one request in flight.
pub struct Wire {
    client: NetClient,
}

impl Wire {
    pub fn prepare(&mut self, name: &str, sql: &str) -> Res<()> {
        self.client.prepare(name, sql).and_then(NetReply::expect_done).map(drop).map_err(msg)
    }

    /// Write the request frame and read frames up to `END`.
    pub fn call(&mut self, req: &Request, statements: &[(String, String)]) -> Outcome {
        match req {
            Request::Prepared(i) => rows_outcome(self.client.exec_prepared(&statements[*i].0)),
            Request::Sql(sql) => rows_outcome(self.client.sql(sql)),
            Request::Publish { view, pretty } => match self.client.publish(view, *pretty) {
                Ok(NetReply::Done((xml, _rows, stats))) => {
                    Outcome::Done(Reply { body: Body::Xml(xml), counts: (&stats).into() })
                }
                Ok(NetReply::Busy(_)) => Outcome::Refused,
                Err(e) => Outcome::Failed(msg(e)),
            },
            Request::Churn { .. } => Outcome::Failed("the wire has no write verbs".into()),
        }
    }

    pub fn close(self) -> Res<()> {
        self.client.goodbye().map_err(msg)
    }
}

/// How a republish was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Republished {
    Full,
    Clean,
    Incremental { dirty_groups: u64, spliced_groups: u64 },
}

/// An in-process session on the same server.
pub struct InProc {
    session: Session,
}

impl InProc {
    pub fn prepare(&mut self, name: &str, sql: &str) -> Res<()> {
        self.session.prepare(name, sql).map(drop).map_err(msg)
    }

    /// The same request the wire would carry, through `Session`.
    pub fn call(&mut self, req: &Request, statements: &[(String, String)]) -> Outcome {
        let rows = |r: xmlpub_common::Result<(Relation, ExecStats)>| match r {
            Ok((rel, stats)) => {
                Outcome::Done(Reply { body: Body::Rows(rel), counts: (&stats).into() })
            }
            Err(e) => Outcome::Failed(msg(e)),
        };
        match req {
            Request::Prepared(i) => rows(self.session.execute_prepared(&statements[*i].0)),
            Request::Sql(sql) => rows(self.session.execute(sql)),
            Request::Publish { view, pretty } => {
                let published = resolve_view(self.session.database(), view)
                    .and_then(|view| self.session.publish(&view, *pretty));
                match published {
                    Ok(xml) => {
                        Outcome::Done(Reply { body: Body::Xml(xml), counts: Counts::default() })
                    }
                    Err(e) => Outcome::Failed(msg(e)),
                }
            }
            Request::Churn { .. } => {
                Outcome::Failed("churn goes through apply_delta + republish".into())
            }
        }
    }

    /// `Session::republish(supplier_parts, compact)`.
    pub fn republish(&mut self) -> Res<(Reply, Republished)> {
        let view = resolve_view(self.session.database(), "supplier_parts").map_err(msg)?;
        let (xml, outcome) = self.session.republish(&view, false).map_err(msg)?;
        let how = match outcome {
            RepublishOutcome::Full { .. } => Republished::Full,
            RepublishOutcome::Clean => Republished::Clean,
            RepublishOutcome::Incremental { dirty_groups, spliced_groups } => {
                Republished::Incremental {
                    dirty_groups: dirty_groups as u64,
                    spliced_groups: spliced_groups as u64,
                }
            }
        };
        Ok((Reply { body: Body::Xml(xml), counts: Counts::default() }, how))
    }

    /// A full `Session::publish` of the same view at the current
    /// catalog state — what every republished document must equal.
    pub fn publish_full(&mut self) -> Res<Reply> {
        match self.call(&Request::Publish { view: "supplier_parts", pretty: false }, &[]) {
            Outcome::Done(reply) => Ok(reply),
            Outcome::Refused => Err("full publish was shed".into()),
            Outcome::Failed(e) => Err(e),
        }
    }
}

/// One delta batch against `supplier`.
pub struct Delta(DeltaBatch);

/// Supplier renames. Remembers every row's current contents so that the
/// delete side of the next batch matches exactly. A rename toggles a
/// suffix, so the set of names ever used stays bounded: with a fresh
/// name per rename the `s_name` dictionary grows with every delta and
/// republish latency climbs steadily through a run (6 → 10 ms over a
/// minute at the seed state), which would make every number depend on
/// how many requests came before.
pub struct Churn {
    current: Vec<Tuple>,
    name_col: usize,
}

impl Churn {
    pub fn new(host: &Host) -> Res<Churn> {
        let catalog = host.server.database().catalog();
        let name_col =
            catalog.table("supplier").map_err(msg)?.schema.resolve(None, "s_name").map_err(msg)?;
        let current = catalog.data("supplier").map_err(msg)?.rows().to_vec();
        Ok(Churn { current, name_col })
    }

    /// The batch renaming the suppliers at `victims`.
    pub fn rename(&mut self, victims: &[usize]) -> Delta {
        const SUFFIX: &str = " (renamed)";
        let mut batch = DeltaBatch::default();
        for &v in victims {
            let old = self.current[v].clone();
            let mut vals = old.values().to_vec();
            let renamed = match &vals[self.name_col] {
                Value::Str(s) => match s.strip_suffix(SUFFIX) {
                    Some(base) => base.to_string(),
                    None => format!("{s}{SUFFIX}"),
                },
                other => panic!("s_name should be a string, got {other:?}"),
            };
            vals[self.name_col] = Value::str(renamed);
            let renamed = Tuple::new(vals);
            self.current[v] = renamed.clone();
            batch.deleted.push(old);
            batch.appended.push(renamed);
        }
        Delta(batch)
    }
}

// ---------------------------------------------------------------------
// The traced run's third way: the same request by hand, one span per
// call into a layer's public function.

/// What the by-hand path counted for one request.
#[derive(Debug, Clone, Copy, Default)]
pub struct HandCounts {
    pub rule_firings: u64,
    pub frames_out: u64,
    pub bytes_out: u64,
    pub xml_bytes: u64,
    pub rows_tagged: u64,
}

pub struct ByHand<'h> {
    db: &'h Database,
    engine: EngineConfig,
    /// Optimized plans of the PREPAREd statements.
    prepared: Vec<LogicalPlan>,
    /// Optimized publish plans by view name: the server keeps these in
    /// its plan cache, so only a first request optimizes.
    publish_plans: HashMap<&'static str, LogicalPlan>,
    /// The by-hand republish pipeline's own cached document.
    doc: Option<SegmentedDoc>,
}

impl<'h> ByHand<'h> {
    pub fn new(host: &'h Host, statements: &[(String, String)]) -> Res<ByHand<'h>> {
        let db = host.server.database();
        let mut engine = db.config().engine;
        engine.dop = host.dop;
        let prepared = statements
            .iter()
            .map(|(_, sql)| db.optimized_plan(sql).map(|(plan, _)| plan).map_err(msg))
            .collect::<Res<Vec<_>>>()?;
        Ok(ByHand { db, engine, prepared, publish_plans: HashMap::new(), doc: None })
    }

    /// Serve `req` layer by layer. The spans are `sql.parse`, `sql.bind`,
    /// `optimizer.optimize`, `xml.souq`, `engine.execute`, `xml.tag`,
    /// `net.encode` and `net.decode`.
    pub fn call(&mut self, req: &Request, rec: &mut Recorder) -> Res<(Answer, HandCounts)> {
        let mut hc = HandCounts::default();
        let frames: Vec<Vec<u8>>;
        let answer;
        match req {
            Request::Prepared(_) | Request::Sql(_) => {
                let planned;
                let plan = match req {
                    Request::Prepared(i) => &self.prepared[*i],
                    Request::Sql(sql) => {
                        let ast = rec.span("sql.parse", |_| parse(sql)).map_err(msg)?;
                        let bound = rec
                            .span("sql.bind", |_| {
                                let plan = Binder::new(self.db.catalog()).bind_query(&ast)?;
                                validate(&plan)?;
                                Ok::<_, xmlpub_common::Error>(plan)
                            })
                            .map_err(msg)?;
                        let (plan, firings) = rec
                            .span("optimizer.optimize", |_| self.db.optimize_plan(bound))
                            .map_err(msg)?;
                        hc.rule_firings = firings.len() as u64;
                        planned = plan;
                        &planned
                    }
                    _ => unreachable!(),
                };
                let (rel, stats, _) = rec
                    .span("engine.execute", |_| {
                        execute_stream(plan, self.db.catalog(), &self.engine)?.materialize()
                    })
                    .map_err(msg)?;
                frames = rec.span("net.encode", |_| {
                    result_frames(&rel, &stats).iter().map(encode_response).collect()
                });
                answer = Reply { body: Body::Rows(rel), counts: (&stats).into() }.answer();
            }
            Request::Publish { view, pretty } => {
                let sou = rec
                    .span("xml.souq", |_| {
                        resolve_view(self.db, view).and_then(|view| sorted_outer_union(&view))
                    })
                    .map_err(msg)?;
                if !self.publish_plans.contains_key(view) {
                    let (plan, firings) = rec
                        .span("optimizer.optimize", |_| self.db.optimize_plan(sou.plan.clone()))
                        .map_err(msg)?;
                    hc.rule_firings = firings.len() as u64;
                    self.publish_plans.insert(view, plan);
                }
                let plan = &self.publish_plans[view];
                let mut stream =
                    execute_stream(plan, self.db.catalog(), &self.engine).map_err(msg)?;
                let mut tagger = StreamingTagger::new(Vec::new(), &sou.tag_plan, *pretty);
                while let Some(batch) =
                    rec.span("engine.execute", |_| stream.next_batch()).map_err(msg)?
                {
                    rec.span("xml.tag", |_| {
                        batch.rows().iter().try_for_each(|row| tagger.write_row(row))
                    })
                    .map_err(msg)?;
                    hc.rows_tagged += batch.len() as u64;
                }
                let stats = stream.stats().clone();
                let xml = rec.span("xml.tag", |_| tagger.finish()).map_err(msg)?;
                hc.xml_bytes = xml.len() as u64;
                frames = rec.span("net.encode", |_| {
                    let mut frames: Vec<Vec<u8>> = xml
                        .chunks(XML_CHUNK_BYTES)
                        .map(|chunk| encode_response(&Response::XmlChunk(chunk.to_vec())))
                        .collect();
                    frames.push(encode_response(&Response::End { rows: hc.rows_tagged, stats }));
                    frames
                });
                answer = Answer { len: xml.len() as u64, hash: Fnv::of(&xml) };
            }
            Request::Churn { .. } => return Err("churn is served by ByHand::republish".into()),
        }
        hc.frames_out = frames.len() as u64;
        hc.bytes_out = frames.iter().map(|f| f.len() as u64).sum();
        let decoded = rec
            .span("net.decode", |_| {
                let mut dec = FrameDecoder::new();
                let mut n = 0u64;
                for f in &frames {
                    dec.feed(f);
                    while dec.next_frame()?.is_some() {
                        n += 1;
                    }
                }
                Ok::<_, xmlpub_net::ProtocolError>(n)
            })
            .map_err(msg)?;
        if decoded != hc.frames_out {
            return Err(format!("decoded {decoded} of {} frames", hc.frames_out));
        }
        Ok((answer, hc))
    }

    /// The republish pipeline by hand, after `delta` was applied:
    /// `engine.dirty_keys`, `xml.souq`, `optimizer.optimize`,
    /// `engine.execute`, `server.segment` and `server.splice`, with the
    /// server's own fallback rule (more than half the groups dirty, or
    /// no cached document yet, recomputes in full).
    pub fn republish(&mut self, delta: &Delta, rec: &mut Recorder) -> Res<Answer> {
        let view = resolve_view(self.db, "supplier_parts").map_err(msg)?;
        let catalog = self.db.catalog();
        let dirty = match &self.doc {
            None => None,
            Some(doc) => {
                let full = rec.span("xml.souq", |_| sorted_outer_union(&view)).map_err(msg)?;
                let mut deltas = TableDeltas::new();
                deltas.add("supplier", delta.0.clone());
                let keys = rec
                    .span("engine.dirty_keys", |_| {
                        dirty_keys(
                            &full.plan,
                            full.tag_plan.root_key_cols(),
                            catalog,
                            &self.engine,
                            &deltas,
                        )
                    })
                    .map_err(msg)?
                    .ok_or("delta propagation does not support the publish plan")?;
                (keys.len() * 2 <= doc.segments.len().max(1)).then_some(keys)
            }
        };
        let sou: SortedOuterUnion = rec
            .span("xml.souq", |_| match &dirty {
                Some(keys) => sorted_outer_union_for_keys(&view, keys),
                None => sorted_outer_union(&view),
            })
            .map_err(msg)?;
        let (plan, _) =
            rec.span("optimizer.optimize", |_| self.db.optimize_plan(sou.plan)).map_err(msg)?;
        let (rel, _, _) = rec
            .span("engine.execute", |_| execute_stream(&plan, catalog, &self.engine)?.materialize())
            .map_err(msg)?;
        let fresh = rec
            .span("server.segment", |_| segment_rows(rel.rows(), &sou.tag_plan, false))
            .map_err(msg)?;
        let doc = match (&self.doc, &dirty) {
            (Some(cached), Some(keys)) => {
                rec.span("server.splice", |_| splice(cached, keys, &fresh))
            }
            _ => fresh,
        };
        let answer = Answer { len: doc.bytes.len() as u64, hash: Fnv::of(&doc.bytes) };
        self.doc = Some(doc);
        Ok(answer)
    }
}
