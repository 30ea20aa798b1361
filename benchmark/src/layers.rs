//! The traced run: replay the first requests of the workload three
//! ways and turn the spans into per-layer metrics.
//!
//! (a) over the wire — span `request`; (b) through `Session` in-process
//! — span `server.session`; (c) by hand through each layer's public
//! function — span `layers` with one child per call. `server.dispatch`
//! and `net.transport` are residuals: (b) − Σ(c) and (a) − (b) − encode
//! − decode. An untraced pass of (a) comes first; the difference to the
//! traced one is the tracing overhead.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use crate::loadgen::{Env, LoadResult, RepublishTotals};
use crate::metrics::{Metric, PER_LAYER};
use crate::stats::{median, percentile, supported_tail};
use crate::surface::{ByHand, Counts, HandCounts, Outcome};
use crate::sys;
use crate::trace::{self_ns_by_request, Recorder, Span};
use crate::workloads::{Request, Spec};

type Res<T> = Result<T, String>;

/// The server's plan cache holds this many entries.
const PLAN_CACHE_ENTRIES: usize = 64;

/// Requests the traced run replays: `spec.replay` at the default ten
/// seconds, fewer on a shorter run, never more (the cache flush between
/// passes needs ad-hoc texts the replay did not use).
pub fn replay_len(spec: &Spec, seconds: f64, order_len: usize) -> usize {
    ((spec.replay as f64 * seconds / 10.0) as usize).clamp(10, spec.replay).min(order_len)
}

/// What the replay passes produced besides spans.
pub struct Replay {
    pub n: usize,
    pub recorder: Recorder,
    /// `(distinct index, ms)` of the untraced and of the traced wire pass.
    pub untraced_ms: Vec<(usize, f64)>,
    pub traced_ms: Vec<(usize, f64)>,
    /// Process CPU seconds the untraced pass took.
    pub untraced_cpu_s: f64,
    /// `END`-frame counters of the traced wire pass.
    pub wire_counts: Vec<Counts>,
    pub hand: Vec<HandCounts>,
    pub republish: RepublishTotals,
    pub full_publish_ms: Vec<f64>,
}

/// Evict every plan the previous pass cached, by sending ad-hoc texts
/// that are not part of the replay, so that a cold request is cold in
/// every pass. A workload without ad-hoc SQL has nothing to flush.
fn flush_plan_cache(env: &mut Env, replayed: &HashSet<usize>) -> Res<()> {
    let plan = &env.plan;
    let is_sql = |i: &usize| matches!(plan.distinct[*i], Request::Sql(_));
    if !replayed.iter().any(is_sql) {
        return Ok(());
    }
    let spare: Vec<usize> = (0..plan.distinct.len())
        .filter(|i| is_sql(i) && !replayed.contains(i))
        .take(PLAN_CACHE_ENTRIES + 8)
        .collect();
    if spare.len() < PLAN_CACHE_ENTRIES {
        return Err(format!(
            "only {} spare ad-hoc texts to flush the plan cache with",
            spare.len()
        ));
    }
    for idx in spare {
        if !matches!(env.wires[0].call(&plan.distinct[idx], &plan.statements), Outcome::Done(_)) {
            return Err("plan-cache flush request failed".into());
        }
    }
    Ok(())
}

/// Replay the first `n` requests of the workload.
pub fn replay(env: &mut Env, n: usize) -> Res<Replay> {
    let mut out = Replay {
        n,
        recorder: Recorder::new(true),
        untraced_ms: Vec::new(),
        traced_ms: Vec::new(),
        untraced_cpu_s: 0.0,
        wire_counts: Vec::new(),
        hand: Vec::new(),
        republish: RepublishTotals::default(),
        full_publish_ms: Vec::new(),
    };
    if env.spec.connections == 0 {
        let cpu = sys::cpu_seconds();
        out.untraced_ms = replay_churn(env, n, &mut Recorder::new(false), false, &mut out)?;
        out.untraced_cpu_s = sys::cpu_seconds() - cpu;
        let mut rec = Recorder::new(true);
        out.republish = RepublishTotals::default();
        out.full_publish_ms.clear();
        out.traced_ms = replay_churn(env, n, &mut rec, true, &mut out)?;
        out.recorder = rec;
        return Ok(out);
    }

    let order: Vec<usize> = env.plan.order[..n].to_vec();
    let replayed: HashSet<usize> = order.iter().copied().collect();

    // Untraced wire pass, through the same code with a recorder that
    // records nothing.
    flush_plan_cache(env, &replayed)?;
    let cpu = sys::cpu_seconds();
    let mut off = Recorder::new(false);
    out.untraced_ms = wire_pass(env, &order, &mut off, &mut Vec::new())?;
    out.untraced_cpu_s = sys::cpu_seconds() - cpu;

    let mut rec = Recorder::new(true);
    // (a) the wire request.
    flush_plan_cache(env, &replayed)?;
    out.traced_ms = wire_pass(env, &order, &mut rec, &mut out.wire_counts)?;

    // (b) the same request through Session in-process.
    flush_plan_cache(env, &replayed)?;
    for (i, &idx) in order.iter().enumerate() {
        rec.begin_request(i as u32 + 1);
        let outcome = rec.span("server.session", |_| {
            env.inproc.call(&env.plan.distinct[idx], &env.plan.statements)
        });
        match outcome {
            Outcome::Done(reply) if Some(reply.answer()) == env.references[idx] => {}
            Outcome::Done(_) => {
                return Err(format!("session answer for request {idx} differs from its reference"))
            }
            Outcome::Refused => return Err("session replay was shed".into()),
            Outcome::Failed(e) => return Err(e),
        }
    }

    // (c) the same request by hand, one span per call into a layer.
    let mut by_hand = ByHand::new(&env.host, &env.plan.statements)?;
    for (i, &idx) in order.iter().enumerate() {
        rec.begin_request(i as u32 + 1);
        let (answer, counts) =
            rec.span("layers", |rec| by_hand.call(&env.plan.distinct[idx], rec))?;
        if Some(answer) != env.references[idx] {
            return Err(format!("by-hand answer for request {idx} differs from its reference"));
        }
        out.hand.push(counts);
    }
    out.recorder = rec;
    Ok(out)
}

/// One closed-loop pass of `order` on the first connection, each
/// request inside a `request` span.
fn wire_pass(
    env: &mut Env,
    order: &[usize],
    rec: &mut Recorder,
    counts: &mut Vec<Counts>,
) -> Res<Vec<(usize, f64)>> {
    let mut latencies = Vec::with_capacity(order.len());
    for (i, &idx) in order.iter().enumerate() {
        rec.begin_request(i as u32 + 1);
        let sent = Instant::now();
        let outcome = rec
            .span("request", |_| env.wires[0].call(&env.plan.distinct[idx], &env.plan.statements));
        let latency = sent.elapsed();
        match outcome {
            Outcome::Done(reply) if Some(reply.answer()) == env.references[idx] => {
                counts.push(reply.counts)
            }
            Outcome::Done(_) => {
                return Err(format!("replayed answer for request {idx} differs from its reference"))
            }
            Outcome::Refused => return Err("replayed request was shed".into()),
            Outcome::Failed(e) => return Err(e),
        }
        latencies.push((idx, latency.as_secs_f64() * 1e3));
    }
    Ok(latencies)
}

/// The churn replay: `request` = `common.apply_delta` + `server.session`
/// (the republish call); with `by_hand`, the same delta then goes
/// through the by-hand pipeline under `layers` and both documents must
/// agree. Every tenth request a full publish is timed beside it.
fn replay_churn(
    env: &mut Env,
    n: usize,
    rec: &mut Recorder,
    by_hand: bool,
    out: &mut Replay,
) -> Res<Vec<(usize, f64)>> {
    let Env { host, plan, inproc, churn, .. } = env;
    let churn = churn.as_mut().ok_or("churn workload without churn state")?;
    let mut hand = if by_hand { Some(ByHand::new(host, &[])?) } else { None };
    let mut latencies = Vec::with_capacity(n);
    for (i, &idx) in plan.order[..n].iter().enumerate() {
        let Request::Churn { victims } = &plan.distinct[idx] else { unreachable!("churn plan") };
        let delta = churn.rename(victims);
        rec.begin_request(i as u32 + 1);
        let sent = Instant::now();
        let (doc, how) = rec.span("request", |rec| {
            rec.span("common.apply_delta", |_| host.apply_delta(&delta))?;
            rec.span("server.session", |_| inproc.republish())
        })?;
        latencies.push((idx, sent.elapsed().as_secs_f64() * 1e3));
        out.republish.record(how);
        if let Some(hand) = hand.as_mut() {
            let answer = rec.span("layers", |rec| hand.republish(&delta, rec))?;
            if answer != doc.answer() {
                return Err(format!("by-hand republish {i} differs from Session::republish"));
            }
        }
        if i % 10 == 9 {
            let t = Instant::now();
            let full = inproc.publish_full()?;
            out.full_publish_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if !doc.same_as(&full) {
                return Err(format!("republished document {i} differs from a full publish"));
            }
        }
    }
    Ok(latencies)
}

/// The same requests on a second server started with dop 1, untraced:
/// `(median ms, CPU s per request)` — the base of `engine.dop2_*`.
pub fn dop1_baseline(env: &Env, seed: u64, n: usize) -> Res<(f64, f64)> {
    let data = crate::surface::generate(env.spec.scale, env.spec.full_catalog, seed)?;
    let host = crate::surface::Host::start(data, 1)?;
    let mut wire = host.connect()?;
    for (name, sql) in &env.plan.statements {
        wire.prepare(name, sql)?;
    }
    let mut run = |timed: bool| -> Res<Vec<f64>> {
        let mut ms = Vec::new();
        for &idx in &env.plan.order[..n] {
            let t = Instant::now();
            match wire.call(&env.plan.distinct[idx], &env.plan.statements) {
                Outcome::Done(reply) if Some(reply.answer()) == env.references[idx] => {}
                _ => return Err("dop-1 baseline answer differs from its reference".into()),
            }
            if timed {
                ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        Ok(ms)
    };
    run(false)?;
    let cpu = sys::cpu_seconds();
    let ms = run(true)?;
    let cpu_per_req = (sys::cpu_seconds() - cpu) / n as f64;
    wire.close()?;
    host.shutdown()?;
    Ok((median(&ms), cpu_per_req))
}

fn total_ns_by_request(spans: &[Span]) -> BTreeMap<u32, BTreeMap<&'static str, u64>> {
    let mut out: BTreeMap<u32, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for s in spans {
        *out.entry(s.request_id).or_default().entry(s.name).or_default() += s.duration_ns();
    }
    out
}

/// The spans under `layers` that are work of the server proper; the
/// `net.*` spans are the transport's.
const SERVER_LAYERS: [&str; 9] = [
    "sql.parse",
    "sql.bind",
    "optimizer.optimize",
    "xml.souq",
    "engine.execute",
    "engine.dirty_keys",
    "xml.tag",
    "server.segment",
    "server.splice",
];

/// The per-layer metrics of a run, as they are collected.
struct Collected(Vec<Metric>);

impl Collected {
    fn put(&mut self, name: &'static str, value: f64, n: usize) {
        self.0.push(Metric::of(&PER_LAYER, name, value, n));
    }

    /// Median (µs) of a per-request quantity (ns) over the requests that
    /// have it.
    fn median_us(&mut self, name: &'static str, ns: &[f64]) {
        self.put(name, median(ns) / 1e3, ns.len());
    }
}

/// Assemble every per-layer metric of a traced run.
pub fn layer_metrics(
    env: &Env,
    load: &LoadResult,
    replay: &Replay,
    dop1: Option<(f64, f64)>,
) -> Vec<Metric> {
    let mut out = Collected(Vec::new());
    let t = &env.times;
    out.put("tpch.generate_s", t.generate_s, 1);
    out.put("server.start_s", t.start_s, 1);
    out.put("server.prepare_s", t.prepare_s, 1);
    out.put("loadgen.reference_s", t.reference_s, 1);
    out.put("loadgen.warmup_s", t.warmup_s, 1);
    out.put("sys.peak_rss_mb", load.peak_rss_mib, 1);

    // The observed load, pooled over its whole (short) window: the
    // median and the highest percentile with ten samples beyond it.
    let mut lat: Vec<f64> = load.log.samples.iter().map(|s| s.latency_ms).collect();
    lat.sort_by(f64::total_cmp);
    out.put("loadgen.req_p50_ms", percentile(&lat, 50.0), lat.len());
    let tail = supported_tail(lat.len()).unwrap_or(50.0);
    out.put("loadgen.req_tail_ms", percentile(&lat, tail), lat.len());
    out.put("loadgen.req_tail_pct", tail, lat.len());
    out.put("loadgen.throughput_rps", lat.len() as f64 / load.wall_s.max(1e-9), lat.len());
    out.put("loadgen.failed_frac", load.log.tally.failed_frac(), load.log.tally.attempted as usize);
    out.put("loadgen.late_frac", load.late_frac(), load.log.lags_ms.len());
    let mut lags = load.log.lags_ms.clone();
    lags.sort_by(f64::total_cmp);
    out.put("loadgen.send_lag_p95_ms", percentile(&lags, 95.0), lags.len());
    let offered = load.admitted + load.shed;
    out.put(
        "server.pool.shed_ratio",
        if offered == 0 { 0.0 } else { load.shed as f64 / offered as f64 },
        offered as usize,
    );
    out.put("server.pool.in_queue_peak", load.in_queue_peak as f64, 1);

    // Counts, exact at a fixed seed: means over the replayed requests.
    let n = replay.n.max(1) as f64;
    let wire_sum = |f: fn(&Counts) -> u64| replay.wire_counts.iter().map(f).sum::<u64>() as f64;
    if !replay.wire_counts.is_empty() {
        out.put("engine.rows_scanned", wire_sum(|c| c.rows_scanned) / n, replay.n);
        out.put("engine.join_probes", wire_sum(|c| c.join_probes) / n, replay.n);
        out.put("engine.groups_processed", wire_sum(|c| c.groups_processed) / n, replay.n);
        out.put("engine.pgq_executions", wire_sum(|c| c.pgq_executions) / n, replay.n);
        out.put("engine.rows_sorted", wire_sum(|c| c.rows_sorted) / n, replay.n);
        out.put("engine.rows_hashed", wire_sum(|c| c.rows_hashed) / n, replay.n);
        let (hits, misses) = (wire_sum(|c| c.plan_cache_hits), wire_sum(|c| c.plan_cache_misses));
        out.put(
            "server.plan_cache_hit_ratio",
            hits / (hits + misses).max(1.0),
            (hits + misses) as usize,
        );
    }
    if !replay.hand.is_empty() {
        let hand_sum = |f: fn(&HandCounts) -> u64| replay.hand.iter().map(f).sum::<u64>() as f64;
        out.put("optimizer.rule_firings", hand_sum(|h| h.rule_firings) / n, replay.n);
        out.put("net.bytes_out_per_req", hand_sum(|h| h.bytes_out) / n, replay.n);
        out.put("net.frames_out_per_req", hand_sum(|h| h.frames_out) / n, replay.n);
        let rows = hand_sum(|h| h.rows_tagged);
        if rows > 0.0 {
            out.put("xml.bytes_per_row", hand_sum(|h| h.xml_bytes) / rows, rows as usize);
        }
    }
    let r = &replay.republish;
    if r.republishes > 0 {
        let total = r.republishes as f64;
        out.put(
            "server.republish.incremental_ratio",
            r.incremental as f64 / total,
            r.republishes as usize,
        );
        out.put("server.republish.fallback_ratio", r.full as f64 / total, r.republishes as usize);
        out.put(
            "server.republish.dirty_groups_per_req",
            r.dirty_groups as f64 / total,
            r.republishes as usize,
        );
        out.put(
            "server.republish.spliced_groups_per_req",
            r.spliced_groups as f64 / total,
            r.republishes as usize,
        );
    }

    // Times: medians per request over the requests that have the span.
    let spans = replay.recorder.spans();
    let self_ns = self_ns_by_request(spans);
    let total_ns = total_ns_by_request(spans);
    let of = |by: &BTreeMap<u32, BTreeMap<&'static str, u64>>, name: &str| -> Vec<f64> {
        by.values().filter_map(|spans| spans.get(name)).map(|&ns| ns as f64).collect()
    };
    for (metric, span) in [
        ("sql.parse_us", "sql.parse"),
        ("sql.bind_us", "sql.bind"),
        ("optimizer.optimize_us", "optimizer.optimize"),
        ("engine.execute_us", "engine.execute"),
        ("engine.dirty_keys_us", "engine.dirty_keys"),
        ("xml.souq_us", "xml.souq"),
        ("xml.tag_us", "xml.tag"),
        ("net.encode_us", "net.encode"),
        ("net.decode_us", "net.decode"),
        ("common.apply_delta_us", "common.apply_delta"),
        ("server.segment_us", "server.segment"),
        ("server.splice_us", "server.splice"),
    ] {
        let values = of(&self_ns, span);
        if !values.is_empty() {
            out.median_us(metric, &values);
        }
    }
    let requests = of(&total_ns, "request");
    let sessions = of(&total_ns, "server.session");
    out.median_us("trace.request_us", &requests);
    out.median_us("trace.session_us", &sessions);
    if env.spec.connections == 0 {
        out.median_us("server.republish_us", &sessions);
    }

    // Residuals and coverage, per request.
    let (mut dispatch, mut transport, mut coverage) = (Vec::new(), Vec::new(), Vec::new());
    for (id, totals) in &total_ns {
        let (Some(&session), Some(layers)) = (totals.get("server.session"), self_ns.get(id)) else {
            continue;
        };
        let server_work: u64 = SERVER_LAYERS.iter().filter_map(|l| layers.get(l)).sum();
        dispatch.push(session as f64 - server_work as f64);
        coverage.push(server_work as f64 / (session as f64).max(1.0));
        if let (Some(&request), true) = (totals.get("request"), env.spec.connections > 0) {
            let net = layers.get("net.encode").copied().unwrap_or(0)
                + layers.get("net.decode").copied().unwrap_or(0);
            transport.push(request as f64 - session as f64 - net as f64);
        }
    }
    out.put("server.dispatch_us", median(&dispatch) / 1e3, dispatch.len());
    out.put("trace.coverage", median(&coverage), coverage.len());
    if !transport.is_empty() {
        out.put("net.transport_us", median(&transport) / 1e3, transport.len());
    }
    let ms = |v: &[(usize, f64)]| v.iter().map(|&(_, ms)| ms).collect::<Vec<_>>();
    let untraced = median(&ms(&replay.untraced_ms));
    out.put(
        "trace.overhead_frac",
        median(&ms(&replay.traced_ms)) / untraced.max(1e-9) - 1.0,
        replay.n,
    );

    // xml.tag throughput over the publishes of the replay.
    let tag_ns: f64 = of(&self_ns, "xml.tag").iter().sum();
    let xml_bytes: u64 = replay.hand.iter().map(|h| h.xml_bytes).sum();
    if tag_ns > 0.0 && xml_bytes > 0 {
        out.put("xml.tag_mb_s", xml_bytes as f64 / 1e6 / (tag_ns / 1e9), xml_bytes as usize);
    }
    if !replay.full_publish_ms.is_empty() {
        let republish_ms = median(&sessions) / 1e6;
        out.put(
            "server.republish.speedup_vs_full",
            median(&replay.full_publish_ms) / republish_ms.max(1e-9),
            replay.full_publish_ms.len(),
        );
    }

    // Paper Fig. 8: classic median ÷ gapply median per query, over both
    // wire passes.
    if env.spec.name.starts_with("fig8") {
        let both: Vec<(usize, f64)> =
            replay.untraced_ms.iter().chain(&replay.traced_ms).copied().collect();
        let median_of = |statement: String| {
            let idx = env.plan.statements.iter().position(|(name, _)| *name == statement);
            let v: Vec<f64> =
                both.iter().filter(|(i, _)| Some(*i) == idx).map(|&(_, ms)| ms).collect();
            (median(&v), v.len())
        };
        for (metric, q) in [
            ("engine.fig8.speedup.q1", "q1"),
            ("engine.fig8.speedup.q2", "q2"),
            ("engine.fig8.speedup.q3", "q3"),
            ("engine.fig8.speedup.q4", "q4"),
            ("engine.fig8.speedup.q4r", "q4r"),
        ] {
            let (classic, n) = median_of(format!("{q}_classic"));
            let (gapply, _) = median_of(format!("{q}_gapply"));
            out.put(metric, classic / gapply.max(1e-9), n);
        }
    }
    if let Some((dop1_ms, dop1_cpu)) = dop1 {
        out.put("engine.dop2_speedup", dop1_ms / untraced.max(1e-9), replay.n);
        let dop2_cpu = replay.untraced_cpu_s / replay.n.max(1) as f64;
        out.put("engine.dop2_cpu_inflation", dop2_cpu / dop1_cpu.max(1e-9), replay.n);
    }
    out.0
}
