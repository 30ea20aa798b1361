//! The six workloads: what each sends, in which order, and why.
//!
//! A workload is a [`Spec`] (fixed: scale, connections, loop type) and
//! a [`Plan`] generated from the seed (statements to PREPARE, the
//! request sequence, the open-loop arrival times). The program under
//! test only ever sees the generated requests.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use crate::stats::{Fnv, Rng};
use crate::surface;

/// One request as the client issues it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Request {
    /// EXEC_PREPARED of `Plan::statements[i]`.
    Prepared(usize),
    /// Ad-hoc SQL text (parsed, bound and optimized per request).
    Sql(String),
    /// PUBLISH of a named view.
    Publish { view: &'static str, pretty: bool },
    /// Rename these suppliers (positions in the supplier table) in one
    /// delta batch, then republish `supplier_parts`.
    Churn { victims: Vec<usize> },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Each connection sends its next request when the previous one
    /// completed.
    Closed,
    /// Requests are due at seeded Poisson arrival times at this rate
    /// (requests/s), whatever the server is doing.
    Open { rate: f64 },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// TPC-H scale factor.
    pub scale: f64,
    /// All eight tables (`customer_orders` needs them) or the three the
    /// paper's examples use.
    pub full_catalog: bool,
    /// `defaults.engine.dop`; the server's `dop_budget` is sized so its
    /// per-request cap equals it.
    pub dop: usize,
    /// Client threads, one connection each. `0` = in-process session on
    /// the calling thread (the wire has no write verbs).
    pub connections: usize,
    pub arrival: Arrival,
    /// Requests the traced run replays when `--seconds` is 10.
    pub replay: usize,
}

/// Every `BURST_EVERY`-th churn request renames 60 % of the groups and
/// must fall back to a full recompute. One in twelve (8.3 %) rather
/// than one in twenty: with exactly 5 % bursts p95 would sit on the
/// edge between the two modes and flip from run to run; at 8.3 % it is
/// the lower-middle of the bursts.
pub const BURST_EVERY: usize = 12;
/// Distinct ad-hoc texts `adhoc_cold` cycles through (the plan cache
/// holds 64).
pub const ADHOC_TEXTS: usize = 600;
/// Distinct ad-hoc texts `mixed_open` cycles through.
const MIXED_ADHOC_TEXTS: usize = 128;
/// Fixed offered load of `mixed_open`, about 40 % of what this box
/// sustains on the same mix in a closed loop. Hard-coded so that two
/// commits are offered the same load.
pub const MIXED_RATE: f64 = 150.0;

pub const SPECS: [Spec; 6] = [
    Spec {
        name: "fig8_dop1",
        why: "paper Fig. 8 through the real path: ten prepared statements, one connection, serial engine; engine is >95% of a request, plan cache bypasses sql/optimizer, xml idle",
        scale: 0.01,
        full_catalog: false,
        dop: 1,
        connections: 1,
        arrival: Arrival::Closed,
        replay: 50,
    },
    Spec {
        name: "fig8_dop2",
        why: "same requests and seed as fig8_dop1 with engine dop 2: parallel benefit shows only here, parallel overhead shows as cpu_ms_per_req rising while fig8_dop1 stays flat",
        scale: 0.01,
        full_catalog: false,
        dop: 2,
        connections: 1,
        arrival: Arrival::Closed,
        replay: 50,
    },
    Spec {
        name: "publish_stream",
        why: "PUBLISH of two views, compact and pretty, on two connections: the only workload where the outer union, the tagger and the XML_CHUNK writer do measurable work and two requests contend for the pool",
        scale: 0.004,
        full_catalog: true,
        dop: 1,
        connections: 2,
        arrival: Arrival::Closed,
        replay: 48,
    },
    Spec {
        name: "adhoc_cold",
        why: "600 distinct SQL texts on tiny data so the 64-entry plan cache always misses: parse, bind, optimize and dispatch are at least half the request; engine changes should not move it",
        scale: 0.0002,
        full_catalog: false,
        dop: 1,
        connections: 2,
        arrival: Arrival::Closed,
        replay: 200,
    },
    Spec {
        name: "republish_churn",
        why: "writes beside reads: rename 1 group, 1% or 10% of suppliers then republish incrementally, every 12th request a 60% burst that falls back to full; small dirty sets, not full documents",
        scale: 0.02,
        full_catalog: false,
        dop: 1,
        connections: 0,
        arrival: Arrival::Closed,
        replay: 120,
    },
    Spec {
        name: "mixed_open",
        why: "open loop at a fixed 150 req/s: 60% prepared gapply, 20% PUBLISH, 20% cold ad-hoc; the only workload where queue wait behind other requests reaches req_p95_ms",
        scale: 0.002,
        full_catalog: false,
        dop: 1,
        connections: 8,
        arrival: Arrival::Open { rate: MIXED_RATE },
        replay: 200,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// Suppliers at this scale — the root groups of `supplier_parts`.
    pub fn root_groups(&self) -> usize {
        ((10_000.0 * self.scale).round() as usize).max(1)
    }
}

/// Everything the seed decides.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// `(name, sql)` PREPAREd once per connection before timing.
    pub statements: Vec<(String, String)>,
    /// The distinct requests; each has one reference answer.
    pub distinct: Vec<Request>,
    /// The request sequence, as positions in `distinct`. Closed loops
    /// cycle through it; the open loop sends exactly `arrivals_s.len()`.
    pub order: Vec<usize>,
    /// Open loop only: when each request is due, seconds from the start
    /// of the measured phase.
    pub arrivals_s: Vec<f64>,
}

impl Plan {
    /// Hash of everything generated: equal seeds give equal
    /// fingerprints, different seeds differ.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        self.statements.hash(&mut h);
        self.distinct.hash(&mut h);
        self.order.hash(&mut h);
        for a in &self.arrivals_s {
            a.to_bits().hash(&mut h);
        }
        h.finish()
    }
}

/// Generate the plan of `spec` for `seed`; an open loop is scheduled
/// for `seconds`.
pub fn plan(spec: &Spec, seed: u64, seconds: f64) -> Plan {
    // fig8_dop1 and fig8_dop2 must see identical requests, so the
    // workload name is not mixed into the seed.
    let mut rng = Rng::new(seed);
    match spec.name {
        "fig8_dop1" | "fig8_dop2" => {
            let statements = surface::fig8_statements();
            let distinct: Vec<Request> = (0..statements.len()).map(Request::Prepared).collect();
            let order = shuffled_cycles(&mut rng, &(0..distinct.len()).collect::<Vec<_>>(), 50);
            Plan { statements, distinct, order, arrivals_s: Vec::new() }
        }
        "publish_stream" => {
            let distinct = vec![
                Request::Publish { view: "supplier_parts", pretty: false },
                Request::Publish { view: "supplier_parts", pretty: true },
                Request::Publish { view: "customer_orders", pretty: false },
                Request::Publish { view: "customer_orders", pretty: true },
            ];
            // Three small documents to one large: p50 then lies among the
            // small ones and p95 among the large ones, instead of the
            // median falling in the gap between the two sizes.
            let order = shuffled_cycles(&mut rng, &[0, 0, 0, 1, 1, 1, 2, 3], 50);
            Plan { statements: Vec::new(), distinct, order, arrivals_s: Vec::new() }
        }
        "adhoc_cold" => {
            let distinct = adhoc_texts(&mut rng, ADHOC_TEXTS);
            let order = (0..distinct.len()).collect();
            Plan { statements: Vec::new(), distinct, order, arrivals_s: Vec::new() }
        }
        "republish_churn" => {
            let groups = spec.root_groups();
            let sizes = [1, (groups / 100).max(1), (groups / 10).max(1)];
            let distinct: Vec<Request> = (1..=50 * BURST_EVERY)
                .map(|i| {
                    let k = if i % BURST_EVERY == 0 { groups * 6 / 10 } else { sizes[i % 3] };
                    Request::Churn { victims: sample_distinct(&mut rng, groups, k) }
                })
                .collect();
            let order = (0..distinct.len()).collect();
            Plan { statements: Vec::new(), distinct, order, arrivals_s: Vec::new() }
        }
        "mixed_open" => {
            let Arrival::Open { rate } = spec.arrival else {
                unreachable!("mixed_open is open loop")
            };
            // The five gapply formulations only.
            let statements: Vec<(String, String)> = surface::fig8_statements()
                .into_iter()
                .filter(|(n, _)| n.ends_with("gapply"))
                .collect();
            let mut distinct: Vec<Request> = (0..statements.len()).map(Request::Prepared).collect();
            let publish = distinct.len();
            distinct.push(Request::Publish { view: "supplier_parts", pretty: false });
            let adhoc0 = distinct.len();
            distinct.extend(adhoc_texts(&mut rng, MIXED_ADHOC_TEXTS));
            // The same number of arrivals, at uniform instants, in every
            // segment of the run: a Poisson process conditioned on its
            // count per segment, so the gaps are exponential at the scale
            // of a request but every seed and every segment offers the
            // same load.
            let segment_s = seconds / crate::loadgen::SEGMENTS as f64;
            let per_segment = (rate * segment_s).round() as usize;
            let mut arrivals_s: Vec<f64> = (0..crate::loadgen::SEGMENTS * per_segment)
                .map(|i| ((i / per_segment) as f64 + rng.unit()) * segment_s)
                .collect();
            arrivals_s.sort_by(f64::total_cmp);
            // Blocks of ten keep the 60/20/20 mix exact for every seed.
            let mut order = Vec::with_capacity(arrivals_s.len() + 10);
            let mut next_adhoc = 0;
            while order.len() < arrivals_s.len() {
                let mut block: Vec<usize> = (0..6).map(|_| rng.below(statements.len())).collect();
                block.extend([publish, publish]);
                for _ in 0..2 {
                    block.push(adhoc0 + next_adhoc % MIXED_ADHOC_TEXTS);
                    next_adhoc += 1;
                }
                rng.shuffle(&mut block);
                order.extend(block);
            }
            order.truncate(arrivals_s.len());
            Plan { statements, distinct, order, arrivals_s }
        }
        other => unreachable!("no plan for workload {other}"),
    }
}

/// `cycles` independently shuffled copies of `cycle`, concatenated: the
/// order is seeded but the mix is exact.
fn shuffled_cycles(rng: &mut Rng, cycle: &[usize], cycles: usize) -> Vec<usize> {
    let mut order = Vec::with_capacity(cycle.len() * cycles);
    for _ in 0..cycles {
        let mut c = cycle.to_vec();
        rng.shuffle(&mut c);
        order.extend(c);
    }
    order
}

/// `n` pairwise distinct ad-hoc texts: the templates in turn, each with
/// a seeded literal.
fn adhoc_texts(rng: &mut Rng, n: usize) -> Vec<Request> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let sql = surface::adhoc_sql(out.len() % surface::ADHOC_TEMPLATES, rng.unit());
        if seen.insert(sql.clone()) {
            out.push(Request::Sql(sql));
        }
    }
    out
}

/// `k` distinct positions below `n`, in draw order.
fn sample_distinct(rng: &mut Rng, n: usize, k: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = i + rng.below(n - i);
        all.swap(i, j);
    }
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_fingerprints_and_different_seeds_differ() {
        for spec in &SPECS {
            let a = plan(spec, 11, 2.0);
            assert_eq!(a.fingerprint(), plan(spec, 11, 2.0).fingerprint(), "{}", spec.name);
            assert_ne!(a.fingerprint(), plan(spec, 12, 2.0).fingerprint(), "{}", spec.name);
            assert!(a.order.iter().all(|&i| i < a.distinct.len()), "{}", spec.name);
        }
    }

    #[test]
    fn fig8_dop1_and_dop2_send_identical_requests() {
        let a = plan(spec("fig8_dop1").unwrap(), 5, 1.0);
        let b = plan(spec("fig8_dop2").unwrap(), 5, 1.0);
        assert_eq!(a, b);
        assert_eq!(a.statements.len(), 10);
    }

    #[test]
    fn adhoc_working_set_exceeds_the_plan_cache() {
        let p = plan(spec("adhoc_cold").unwrap(), 3, 1.0);
        let texts: HashSet<&Request> = p.distinct.iter().collect();
        assert_eq!(texts.len(), ADHOC_TEXTS);
        const { assert!(ADHOC_TEXTS >= 512) };
    }

    #[test]
    fn churn_cycles_group_counts_and_bursts() {
        let s = spec("republish_churn").unwrap();
        assert_eq!(s.root_groups(), 200);
        let p = plan(s, 9, 1.0);
        let sizes: Vec<usize> = p
            .distinct
            .iter()
            .take(BURST_EVERY)
            .map(|r| match r {
                Request::Churn { victims } => {
                    let set: HashSet<_> = victims.iter().collect();
                    assert_eq!(set.len(), victims.len(), "victims are distinct");
                    victims.len()
                }
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(sizes, vec![2, 20, 1, 2, 20, 1, 2, 20, 1, 2, 20, 120]);
    }

    #[test]
    fn mixed_open_keeps_its_mix_and_rate() {
        let s = spec("mixed_open").unwrap();
        let p = plan(s, 4, 10.0);
        let n = p.arrivals_s.len() as f64;
        assert_eq!(n, MIXED_RATE * 10.0);
        assert!(
            p.arrivals_s.windows(2).all(|w| w[0] <= w[1])
                && p.arrivals_s[p.arrivals_s.len() - 1] < 10.0
        );
        assert_eq!(p.order.len(), p.arrivals_s.len());
        let prepared =
            p.order.iter().filter(|&&i| matches!(p.distinct[i], Request::Prepared(_))).count();
        assert!((prepared as f64 / n - 0.6).abs() < 0.01);
    }
}
