//! Set-up, the correctness gate and the load drivers.
//!
//! Set-up is everything between process start and the first measured
//! request: TPC-H generation, server start, connect + PREPARE, the
//! reference answers (serial, in-process) checked byte-for-byte against
//! the wire, and a second warm-up pass. The measured phase then drives
//! the workload closed loop, open loop or in-process, timing each
//! request at the client and checking every answer by length and hash.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::stats::Tally;
use crate::surface::{self, Answer, Churn, Host, InProc, Outcome, Republished, Wire};
use crate::sys;
use crate::workloads::{Arrival, Plan, Request, Spec};

type Res<T> = Result<T, String>;

/// A BUSY answer is retried this often, with backoff, before the
/// request counts as refused.
pub const BUSY_RETRIES: u32 = 5;
/// An open-loop request sent more than this after it was due is late.
/// Ten milliseconds, twice the median request of `mixed_open`: with
/// both cores busy a woken sender regularly waits out a 3 ms scheduler
/// slice, which delays one request (and is charged to its latency) but
/// does not lower the offered load; a sender that is late by more has
/// run out of free connections.
pub const LATE_MS: f64 = 10.0;
/// Every this-many churn requests (and the last) the republished
/// document is compared with a full publish, outside the timed section.
const CHURN_CHECK_EVERY: usize = 50;

#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub start_s: f64,
    pub prepare_s: f64,
    pub reference_s: f64,
    pub warmup_s: f64,
    pub total_s: f64,
}

/// A hosted server with warmed connections, ready to be measured.
pub struct Env {
    pub spec: &'static Spec,
    pub plan: Plan,
    pub host: Host,
    pub wires: Vec<Wire>,
    pub inproc: InProc,
    /// Present on `republish_churn`.
    pub churn: Option<Churn>,
    /// Reference answer per distinct request (none for churn requests,
    /// whose documents are checked against a full publish instead).
    pub references: Vec<Option<Answer>>,
    pub times: SetupTimes,
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Build the environment of `spec` for `seed`. Fails on the first
/// answer that differs from its serial in-process reference.
pub fn setup(spec: &'static Spec, seed: u64, seconds: f64) -> Res<Env> {
    let begin = Instant::now();
    let plan = crate::workloads::plan(spec, seed, seconds);
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let data = surface::generate(spec.scale, spec.full_catalog, seed)?;
    times.generate_s = secs(t);

    let t = Instant::now();
    let host = Host::start(data, spec.dop)?;
    times.start_s = secs(t);
    if host.root_groups()? != spec.root_groups() {
        return Err(format!(
            "expected {} suppliers, generated {}",
            spec.root_groups(),
            host.root_groups()?
        ));
    }

    let t = Instant::now();
    let mut wires = (0..spec.connections).map(|_| host.connect()).collect::<Res<Vec<_>>>()?;
    let mut inproc = host.session();
    for (name, sql) in &plan.statements {
        for wire in &mut wires {
            wire.prepare(name, sql)?;
        }
        inproc.prepare(name, sql)?;
    }
    times.prepare_s = secs(t);

    let mut env =
        Env { spec, plan, host, wires, inproc, churn: None, references: Vec::new(), times };
    if spec.connections == 0 {
        warm_churn(&mut env)?;
    } else {
        warm_wire(&mut env)?;
    }
    env.times.total_s = secs(begin);
    Ok(env)
}

/// First pass: every distinct request once over the wire, compared
/// exactly with the serial in-process answer. Second pass: every
/// distinct request once more, spread over all connections, checked by
/// hash like the measured run.
fn warm_wire(env: &mut Env) -> Res<()> {
    let t = Instant::now();
    let statements = &env.plan.statements;
    for req in &env.plan.distinct {
        let reference = env.host.reference(req, statements)?;
        let got = match attempt(&mut env.wires[0], req, statements) {
            Outcome::Done(reply) => reply,
            Outcome::Refused => return Err(format!("reference pass: {req:?} was refused")),
            Outcome::Failed(e) => return Err(format!("reference pass: {req:?} failed: {e}")),
        };
        if !got.same_as(&reference) {
            return Err(format!("wire answer differs from serial in-process answer for {req:?}"));
        }
        env.references.push(Some(reference.answer()));
    }
    env.times.reference_s = secs(t);

    let t = Instant::now();
    let (plan, references) = (&env.plan, &env.references);
    let connections = env.wires.len();
    let logs: Vec<Log> = std::thread::scope(|s| {
        let handles: Vec<_> = env
            .wires
            .iter_mut()
            .enumerate()
            .map(|(c, wire)| {
                s.spawn(move || {
                    let mut log = Log::default();
                    for idx in (c..plan.distinct.len()).step_by(connections) {
                        let start = Instant::now();
                        let outcome = attempt(wire, &plan.distinct[idx], &plan.statements);
                        log.judge(idx, outcome, references[idx], start.elapsed(), start.elapsed());
                    }
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("warm-up client panicked")).collect()
    });
    let mut all = Log::default();
    logs.into_iter().for_each(|l| all.merge(l));
    if all.tally.failed() > 0 {
        return Err(format!(
            "warm-up: {} failed: {}",
            all.tally.failed(),
            all.first_error.unwrap_or_default()
        ));
    }
    env.times.warmup_s = secs(t);
    Ok(())
}

/// The first republish (a full build) is the reference pass; one burst
/// cycle of churn requests, each compared with a full publish, is the
/// warm-up.
fn warm_churn(env: &mut Env) -> Res<()> {
    let t = Instant::now();
    env.churn = Some(Churn::new(&env.host)?);
    let (first, _) = env.inproc.republish()?;
    if !first.same_as(&env.inproc.publish_full()?) {
        return Err("first republish differs from a full publish".into());
    }
    env.references = vec![None; env.plan.distinct.len()];
    env.times.reference_s = secs(t);

    let t = Instant::now();
    let churn = env.churn.as_mut().expect("just set");
    for req in env.plan.distinct.iter().take(crate::workloads::BURST_EVERY) {
        let Request::Churn { victims } = req else { unreachable!("churn plan") };
        env.host.apply_delta(&churn.rename(victims))?;
        let (doc, _) = env.inproc.republish()?;
        if !doc.same_as(&env.inproc.publish_full()?) {
            return Err("republished document differs from a full publish".into());
        }
    }
    env.times.warmup_s = secs(t);
    Ok(())
}

/// One request, BUSY retried with capped exponential backoff.
fn attempt(wire: &mut Wire, req: &Request, statements: &[(String, String)]) -> Outcome {
    let mut backoff = Duration::from_micros(200);
    for _ in 0..BUSY_RETRIES {
        match wire.call(req, statements) {
            Outcome::Refused => {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(5));
            }
            other => return other,
        }
    }
    wire.call(req, statements)
}

/// A request that completed with the right answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Seconds into the measured phase: when a closed-loop request
    /// completed, when an open-loop request was due.
    pub at_s: f64,
    pub latency_ms: f64,
}

/// What one client thread saw.
#[derive(Debug, Default)]
pub struct Log {
    pub samples: Vec<Sample>,
    pub tally: Tally,
    /// Open loop: how long after its due time each request was sent.
    pub lags_ms: Vec<f64>,
    pub first_error: Option<String>,
}

/// Why a request yielded no latency sample.
#[derive(Debug)]
pub enum Failure {
    /// Wrong bytes.
    Mismatch,
    /// Still BUSY after the retry budget.
    Refused,
    Error(String),
}

impl Log {
    /// Account one finished request: a wrong answer, an error or a
    /// refusal is a failure and yields no latency sample.
    pub fn record(
        &mut self,
        request: usize,
        result: Result<(), Failure>,
        at: Duration,
        latency: Duration,
    ) {
        self.tally.attempted += 1;
        let error = match result {
            Ok(()) => {
                self.samples.push(Sample { at_s: at.as_secs_f64(), latency_ms: ms(latency) });
                return;
            }
            Err(Failure::Mismatch) => {
                self.tally.mismatched += 1;
                format!("request {request}: answer differs from its reference")
            }
            Err(Failure::Refused) => {
                self.tally.refused += 1;
                format!("request {request}: still BUSY after {BUSY_RETRIES} retries")
            }
            Err(Failure::Error(e)) => {
                self.tally.errors += 1;
                format!("request {request}: {e}")
            }
        };
        self.first_error.get_or_insert(error);
    }

    /// [`Log::record`] of a wire outcome, checked against `reference`.
    pub fn judge(
        &mut self,
        request: usize,
        outcome: Outcome,
        reference: Option<Answer>,
        at: Duration,
        latency: Duration,
    ) {
        let result = match outcome {
            Outcome::Done(reply) if reference.is_some_and(|r| r != reply.answer()) => {
                Err(Failure::Mismatch)
            }
            Outcome::Done(_) => Ok(()),
            Outcome::Refused => Err(Failure::Refused),
            Outcome::Failed(e) => Err(Failure::Error(e)),
        };
        self.record(request, result, at, latency);
    }

    pub fn merge(&mut self, other: Log) {
        self.samples.extend(other.samples);
        self.tally.merge(&other.tally);
        self.lags_ms.extend(other.lags_ms);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

/// How the republishes of a run were served.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepublishTotals {
    pub republishes: u64,
    pub incremental: u64,
    pub full: u64,
    pub dirty_groups: u64,
    pub spliced_groups: u64,
}

impl RepublishTotals {
    pub fn record(&mut self, how: Republished) {
        self.republishes += 1;
        match how {
            Republished::Full => self.full += 1,
            Republished::Clean => self.incremental += 1,
            Republished::Incremental { dirty_groups, spliced_groups } => {
                self.incremental += 1;
                self.dirty_groups += dirty_groups;
                self.spliced_groups += spliced_groups;
            }
        }
    }
}

/// The measured phase is cut into this many equal segments; every
/// timing is computed per segment and the median over the segments is
/// reported. The box the numbers come from is a shared VM whose memory
/// system slows by 10–20 % for a few seconds at a time; a burst that
/// hits fewer than half the segments leaves a median of segments
/// untouched, where a statistic pooled over the run absorbs its share.
pub const SEGMENTS: usize = 5;

/// What one segment of the measured phase saw.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Segment {
    /// Latencies of the samples whose `at_s` falls in the segment, ascending.
    pub latencies_ms: Vec<f64>,
    pub seconds: f64,
    /// Process CPU seconds spent during the segment.
    pub cpu_s: f64,
}

impl Segment {
    pub fn throughput_rps(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.seconds
    }

    pub fn cpu_ms_per_req(&self) -> f64 {
        self.cpu_s * 1e3 / self.latencies_ms.len().max(1) as f64
    }
}

/// Everything a measured phase produced.
#[derive(Debug, Default)]
pub struct LoadResult {
    pub log: Log,
    /// Length of the measured window.
    pub seconds: f64,
    /// From the start of the window to the last answer.
    pub wall_s: f64,
    /// `VmHWM` when the phase ended.
    pub peak_rss_mib: f64,
    /// Process CPU seconds at the `SEGMENTS + 1` segment boundaries.
    pub cpu_marks: Vec<f64>,
    /// Open loop: requests due inside the window that were never sent
    /// because the window (plus its grace) had closed — a growing backlog.
    pub unsent: u64,
    pub republish: RepublishTotals,
    /// Pool admissions and sheds during the phase.
    pub admitted: u64,
    pub shed: u64,
    /// Largest admission-queue length seen by the 10 ms poller (only
    /// when observing).
    pub in_queue_peak: u64,
}

impl LoadResult {
    pub fn late(&self) -> u64 {
        self.log.lags_ms.iter().filter(|&&l| l > LATE_MS).count() as u64
    }

    /// Share of the scheduled requests that were sent late or not at all.
    pub fn late_frac(&self) -> f64 {
        let scheduled = self.log.lags_ms.len() as u64 + self.unsent;
        if scheduled == 0 {
            0.0
        } else {
            (self.late() + self.unsent) as f64 / scheduled as f64
        }
    }

    /// The samples by segment. A closed-loop request that completed
    /// after the window closed belongs to no segment.
    pub fn segments(&self) -> Vec<Segment> {
        let length = self.seconds / SEGMENTS as f64;
        let mut segments: Vec<Segment> = (0..SEGMENTS)
            .map(|k| Segment {
                latencies_ms: Vec::new(),
                seconds: length,
                cpu_s: self
                    .cpu_marks
                    .get(k + 1)
                    .zip(self.cpu_marks.get(k))
                    .map_or(0.0, |(b, a)| b - a),
            })
            .collect();
        for s in &self.log.samples {
            if let Some(segment) = segments.get_mut((s.at_s / length) as usize) {
                segment.latencies_ms.push(s.latency_ms);
            }
        }
        for segment in &mut segments {
            segment.latencies_ms.sort_by(f64::total_cmp);
        }
        segments
    }
}

/// Median over the segments that saw requests of a per-segment value.
pub fn segment_median(segments: &[Segment], value: impl Fn(&Segment) -> f64) -> f64 {
    let values: Vec<f64> =
        segments.iter().filter(|s| !s.latencies_ms.is_empty()).map(value).collect();
    crate::stats::median(&values)
}

/// Drive the workload for `seconds`. A sampler reads the process CPU
/// clock at the segment boundaries. With `observe`, a poller also
/// samples the admission queue every 10 ms (traced runs only: end-to-end
/// numbers are taken with nothing else running in the process).
pub fn run_load(env: &mut Env, seconds: f64, observe: bool) -> Res<LoadResult> {
    let pool_before = env.host.pool();
    let stop = AtomicBool::new(false);
    let (mut result, cpu_marks, in_queue_peak) = std::thread::scope(|s| {
        let host = &env.host;
        let stop = &stop;
        let start = Instant::now();
        let sampler = s.spawn(move || {
            let mut marks = vec![sys::cpu_seconds()];
            for k in 1..=SEGMENTS {
                let boundary = Duration::from_secs_f64(seconds * k as f64 / SEGMENTS as f64);
                std::thread::sleep(boundary.saturating_sub(start.elapsed()));
                marks.push(sys::cpu_seconds());
            }
            marks
        });
        let poller = observe.then(|| {
            s.spawn(move || {
                let mut peak = 0;
                while !stop.load(Ordering::Relaxed) {
                    peak = peak.max(host.pool().in_queue);
                    std::thread::sleep(Duration::from_millis(10));
                }
                peak
            })
        });
        let result = match (env.spec.connections, env.spec.arrival) {
            (0, _) => {
                run_churn(host, &env.plan, &mut env.inproc, env.churn.as_mut(), start, seconds)
            }
            (_, Arrival::Closed) => {
                Ok(run_closed(&env.plan, &env.references, &mut env.wires, start, seconds))
            }
            (_, Arrival::Open { .. }) => {
                Ok(run_open(&env.plan, &env.references, &mut env.wires, start, seconds))
            }
        };
        let wall_s = secs(start);
        stop.store(true, Ordering::Relaxed);
        let marks = sampler.join().expect("sampler panicked");
        (
            result.map(|r| LoadResult { wall_s, ..r }),
            marks,
            poller.map_or(0, |p| p.join().expect("poller panicked")),
        )
    });
    if let Ok(r) = &mut result {
        r.seconds = seconds;
        r.peak_rss_mib = sys::peak_rss_mib();
        r.cpu_marks = cpu_marks;
        let pool_after = env.host.pool();
        r.admitted = pool_after.admitted - pool_before.admitted;
        r.shed = pool_after.shed - pool_before.shed;
        r.in_queue_peak = in_queue_peak;
    }
    result
}

/// Closed loop: connection `c` sends requests `c, c + C, c + 2C, …` of
/// the (cycled) order, each after its previous one completed.
fn run_closed(
    plan: &Plan,
    references: &[Option<Answer>],
    wires: &mut [Wire],
    start: Instant,
    seconds: f64,
) -> LoadResult {
    let connections = wires.len();
    let window = Duration::from_secs_f64(seconds);
    let logs: Vec<Log> = std::thread::scope(|s| {
        let handles: Vec<_> = wires
            .iter_mut()
            .enumerate()
            .map(|(c, wire)| {
                s.spawn(move || {
                    let mut log = Log::default();
                    let mut k = c;
                    while start.elapsed() < window {
                        let idx = plan.order[k % plan.order.len()];
                        let sent = Instant::now();
                        let outcome = attempt(wire, &plan.distinct[idx], &plan.statements);
                        let latency = sent.elapsed();
                        log.judge(idx, outcome, references[idx], start.elapsed(), latency);
                        k += connections;
                    }
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut result = LoadResult::default();
    logs.into_iter().for_each(|l| result.log.merge(l));
    result
}

/// Open loop: request `i` is due at `arrivals_s[i]` whatever happened to
/// the requests before it; a free connection claims the next one,
/// sleeps until it is due and sends it. Latency counts from the due
/// time, so a stall is charged to every request it delays.
fn run_open(
    plan: &Plan,
    references: &[Option<Answer>],
    wires: &mut [Wire],
    start: Instant,
    seconds: f64,
) -> LoadResult {
    // Past the window plus a fifth, nothing new is sent: what is still
    // unsent then is a backlog the server did not keep up with.
    let close = Duration::from_secs_f64(seconds * 1.2);
    // The plan is scheduled for the whole run; a shorter (observed) load
    // sends the arrivals that fall inside its window.
    let scheduled = plan.arrivals_s.partition_point(|&due| due < seconds);
    let next = AtomicUsize::new(0);
    let logs: Vec<Log> = std::thread::scope(|s| {
        let handles: Vec<_> = wires
            .iter_mut()
            .map(|wire| {
                let next = &next;
                s.spawn(move || {
                    let mut log = Log::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= scheduled || start.elapsed() > close {
                            return log;
                        }
                        let due = Duration::from_secs_f64(plan.arrivals_s[i]);
                        if let Some(wait) = due.checked_sub(start.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        log.lags_ms.push(ms(start.elapsed().saturating_sub(due)));
                        let idx = plan.order[i];
                        let outcome = attempt(wire, &plan.distinct[idx], &plan.statements);
                        let latency = open_loop_latency(start, due, Instant::now());
                        log.judge(idx, outcome, references[idx], due, latency);
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut result = LoadResult::default();
    logs.into_iter().for_each(|l| result.log.merge(l));
    result.unsent = (scheduled as u64).saturating_sub(result.log.lags_ms.len() as u64);
    result
}

/// Latency of an open-loop request: from the instant it was due, not
/// from the instant the (possibly late) sender got round to it.
pub fn open_loop_latency(start: Instant, due: Duration, done: Instant) -> Duration {
    done.duration_since(start).saturating_sub(due)
}

/// In-process churn: `apply_delta` then `republish`, timed together.
fn run_churn(
    host: &Host,
    plan: &Plan,
    inproc: &mut InProc,
    churn: Option<&mut Churn>,
    start: Instant,
    seconds: f64,
) -> Res<LoadResult> {
    let churn = churn.ok_or("churn workload without churn state")?;
    let window = Duration::from_secs_f64(seconds);
    let mut result = LoadResult::default();
    let mut unchecked = None;
    let mut k = 0;
    while start.elapsed() < window {
        let idx = plan.order[k % plan.order.len()];
        let Request::Churn { victims } = &plan.distinct[idx] else { unreachable!("churn plan") };
        let delta = churn.rename(victims);
        let sent = Instant::now();
        let republished = host.apply_delta(&delta).and_then(|()| inproc.republish());
        let latency = sent.elapsed();
        let at = start.elapsed();
        k += 1;
        match republished {
            Ok((doc, how)) => {
                result.republish.record(how);
                let correct = if k % CHURN_CHECK_EVERY == 0 {
                    unchecked = None;
                    doc.same_as(&inproc.publish_full()?)
                } else {
                    unchecked = Some(doc);
                    true
                };
                let verdict = if correct { Ok(()) } else { Err(Failure::Mismatch) };
                result.log.record(idx, verdict, at, latency);
            }
            Err(e) => result.log.record(idx, Err(Failure::Error(e)), at, latency),
        }
    }
    // The last document is always checked.
    if let Some(doc) = unchecked {
        if !doc.same_as(&inproc.publish_full()?) {
            result.log.tally.mismatched += 1;
            result.log.samples.pop();
            result
                .log
                .first_error
                .get_or_insert("last republished document differs from a full publish".into());
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_counts_from_the_due_time_when_the_sender_runs_late() {
        let start = Instant::now();
        let due = Duration::from_millis(100);
        // Sent 40 ms late, answered 15 ms after that: the request waited
        // 55 ms from the instant it should have gone out.
        let done = start + Duration::from_millis(155);
        assert_eq!(open_loop_latency(start, due, done), Duration::from_millis(55));
        // Never negative, whatever the clock granularity.
        assert_eq!(
            open_loop_latency(start, due, start + Duration::from_millis(99)),
            Duration::ZERO
        );
    }

    #[test]
    fn failures_yield_no_latency_sample() {
        let mut log = Log::default();
        let (at, latency) = (Duration::from_millis(10), Duration::from_millis(5));
        log.record(0, Ok(()), at, latency);
        log.record(1, Err(Failure::Refused), at, latency);
        log.record(2, Err(Failure::Mismatch), at, latency);
        log.record(3, Err(Failure::Error("boom".into())), at, latency);
        assert_eq!(log.samples, vec![Sample { at_s: 0.01, latency_ms: 5.0 }]);
        assert_eq!((log.tally.attempted, log.tally.failed(), log.tally.refused), (4, 3, 1));
        assert!(log.first_error.as_deref().is_some_and(|e| e.contains("BUSY")));
    }

    #[test]
    fn a_burst_in_a_minority_of_segments_leaves_the_segment_median_alone() {
        let mut result = LoadResult { seconds: 10.0, ..LoadResult::default() };
        result.cpu_marks = (0..=SEGMENTS).map(|k| k as f64).collect();
        // 100 requests per 2 s segment at 10 ms; the second and fourth
        // segments are slowed to 30 ms by interference.
        for k in 0..SEGMENTS {
            let latency_ms = if k % 2 == 1 { 30.0 } else { 10.0 };
            for i in 0..100 {
                result
                    .log
                    .samples
                    .push(Sample { at_s: 2.0 * k as f64 + i as f64 * 0.02, latency_ms });
            }
        }
        // A straggler past the window belongs to no segment.
        result.log.samples.push(Sample { at_s: 10.3, latency_ms: 500.0 });
        let segments = result.segments();
        assert!(segments.iter().all(|s| s.latencies_ms.len() == 100 && s.cpu_s == 1.0));
        let p50 = |s: &Segment| crate::stats::percentile(&s.latencies_ms, 50.0);
        assert_eq!(segment_median(&segments, p50), 10.0);
        assert_eq!(segment_median(&segments, Segment::throughput_rps), 50.0);
        assert_eq!(segment_median(&segments, Segment::cpu_ms_per_req), 10.0);
    }
}
