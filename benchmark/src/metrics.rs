//! The vocabulary: every metric's name, unit and direction, the
//! regression bounds, and `BENCHMARK.json` generated from them so that
//! the manifest and the program cannot drift apart.

use crate::workloads::SPECS;

/// Seconds one run measures when the driver does not say.
pub const RUN_SECONDS: u32 = 15;

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Def {
    Def { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better, bound: 0.0 }
}

/// What a user of the service sees. Failures are not a metric here
/// because the contract wants metrics that are never 0: they travel as
/// `attempted` / `failed` beside the metrics, and any failure makes the
/// run incorrect.
///
/// The bounds are the contract's maximum. It accepts a benchmark only
/// while the spread of ten runs stays within the bound, and on the
/// shared two-core VM the seed numbers come from that spread is
/// 0.02–0.10 in quiet periods and up to 0.24 in noisy ones
/// (`out/agreement.txt`); medians of ten runs repeat within 0.05.
/// Peak memory does not repeat within a tenth on `fig8_*` (59–75 MiB at
/// one seed, by how glibc's arenas fall), so it is the per-layer
/// metric `sys.peak_rss_mb`.
pub const END_TO_END: [Def; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("req_p50_ms", "ms", "lower", 0.25),
    e2e("req_p95_ms", "ms", "lower", 0.25),
    e2e("throughput_rps", "req/s", "higher", 0.25),
    e2e("cpu_ms_per_req", "ms", "lower", 0.25),
];

/// One layer each. `count/req` metrics are exact at a fixed seed.
pub const PER_LAYER: [Def; 58] = [
    layer("sys.peak_rss_mb", "MiB", "lower"),
    layer("tpch.generate_s", "s", "lower"),
    layer("server.start_s", "s", "lower"),
    layer("server.prepare_s", "s", "lower"),
    layer("loadgen.reference_s", "s", "lower"),
    layer("loadgen.warmup_s", "s", "lower"),
    layer("sql.parse_us", "us", "lower"),
    layer("sql.bind_us", "us", "lower"),
    layer("optimizer.optimize_us", "us", "lower"),
    layer("optimizer.rule_firings", "count/req", "lower"),
    layer("server.plan_cache_hit_ratio", "ratio", "higher"),
    layer("server.dispatch_us", "us", "lower"),
    layer("server.pool.shed_ratio", "ratio", "lower"),
    layer("server.pool.in_queue_peak", "count", "lower"),
    layer("engine.execute_us", "us", "lower"),
    layer("engine.dirty_keys_us", "us", "lower"),
    layer("engine.rows_scanned", "count/req", "lower"),
    layer("engine.join_probes", "count/req", "lower"),
    layer("engine.groups_processed", "count/req", "lower"),
    layer("engine.pgq_executions", "count/req", "lower"),
    layer("engine.rows_sorted", "count/req", "lower"),
    layer("engine.rows_hashed", "count/req", "lower"),
    layer("engine.fig8.speedup.q1", "ratio", "higher"),
    layer("engine.fig8.speedup.q2", "ratio", "higher"),
    layer("engine.fig8.speedup.q3", "ratio", "higher"),
    layer("engine.fig8.speedup.q4", "ratio", "higher"),
    layer("engine.fig8.speedup.q4r", "ratio", "higher"),
    layer("engine.dop2_speedup", "ratio", "higher"),
    layer("engine.dop2_cpu_inflation", "ratio", "lower"),
    layer("xml.souq_us", "us", "lower"),
    layer("xml.tag_us", "us", "lower"),
    layer("xml.tag_mb_s", "MB/s", "higher"),
    layer("xml.bytes_per_row", "B/row", "lower"),
    layer("net.encode_us", "us", "lower"),
    layer("net.decode_us", "us", "lower"),
    layer("net.transport_us", "us", "lower"),
    layer("net.bytes_out_per_req", "B/req", "lower"),
    layer("net.frames_out_per_req", "count/req", "lower"),
    layer("common.apply_delta_us", "us", "lower"),
    layer("server.republish_us", "us", "lower"),
    layer("server.segment_us", "us", "lower"),
    layer("server.splice_us", "us", "lower"),
    layer("server.republish.incremental_ratio", "ratio", "higher"),
    layer("server.republish.fallback_ratio", "ratio", "lower"),
    layer("server.republish.dirty_groups_per_req", "count/req", "lower"),
    layer("server.republish.spliced_groups_per_req", "count/req", "higher"),
    layer("server.republish.speedup_vs_full", "ratio", "higher"),
    layer("loadgen.late_frac", "ratio", "lower"),
    layer("loadgen.send_lag_p95_ms", "ms", "lower"),
    layer("loadgen.failed_frac", "ratio", "lower"),
    layer("loadgen.req_p50_ms", "ms", "lower"),
    layer("loadgen.req_tail_ms", "ms", "lower"),
    layer("loadgen.req_tail_pct", "%", "higher"),
    layer("loadgen.throughput_rps", "req/s", "higher"),
    layer("trace.request_us", "us", "lower"),
    layer("trace.session_us", "us", "lower"),
    layer("trace.coverage", "ratio", "higher"),
    layer("trace.overhead_frac", "ratio", "lower"),
];

/// A measured value, printed as `workload name value unit n`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

impl Metric {
    /// `value` under `name`, with the unit `table` declares for it.
    pub fn of(table: &'static [Def], name: &'static str, value: f64, n: usize) -> Metric {
        Metric { name, value, unit: def(table, name).unit, n }
    }
}

/// Look a definition up by name; a metric the tables do not list is a
/// bug in the benchmark.
pub fn def(table: &'static [Def], name: &str) -> &'static Def {
    table.iter().find(|d| d.name == name).unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// A value for every metric of `table`, in table order: what was
/// measured, and 0 for a metric this workload does not exercise.
pub fn complete(table: &'static [Def], measured: Vec<Metric>) -> Vec<Metric> {
    table
        .iter()
        .map(|d| {
            measured.iter().find(|m| m.name == d.name).cloned().unwrap_or(Metric {
                name: d.name,
                value: 0.0,
                unit: d.unit,
                n: 0,
            })
        })
        .collect()
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = SPECS
        .iter()
        .map(|s| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", s.name, s.why))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name, d.unit, d.better, d.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name, d.unit, d.better
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn manifest_meets_the_contract_limits() {
        let mut names: Vec<&str> = Vec::new();
        names.extend(SPECS.iter().map(|s| s.name));
        names.extend(END_TO_END.iter().map(|d| d.name));
        names.extend(PER_LAYER.iter().map(|d| d.name));
        for n in &names {
            assert!(well_formed_name(n), "{n}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                d.unit.len() <= 16
                    && d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
            assert!(d.better == "lower" || d.better == "higher");
        }
        for d in &END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "{}", d.name);
        }
        let setup = def(&END_TO_END, "setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound), "setup_s has the largest bound");
        for s in &SPECS {
            assert!(
                s.why.len() <= 200 && !s.why.contains('\n') && !s.why.contains('"'),
                "{}",
                s.name
            );
        }
        assert!((2..=8).contains(&SPECS.len()) && PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(manifest().len() < 64 * 1024);
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        // Absent when the crate is tested outside a checkout.
        if let Ok(committed) =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        {
            assert_eq!(
                committed,
                manifest(),
                "regenerate with `benchmark/run.sh manifest > BENCHMARK.json`"
            );
        }
    }

    #[test]
    fn complete_fills_unexercised_metrics_with_zero() {
        let all =
            complete(&END_TO_END, vec![Metric { name: "setup_s", value: 1.5, unit: "s", n: 3 }]);
        assert_eq!(all.len(), END_TO_END.len());
        assert_eq!(all[0].value, 1.5);
        assert!(all[1..].iter().all(|m| m.value == 0.0 && m.n == 0));
    }
}
