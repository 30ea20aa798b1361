//! The wire-to-XML ledger.
//!
//! `xmlpub-benchmark --workload W --seed N --seconds S --trace 0|1`
//! measures one workload in this process and prints, after one line
//! per metric (`workload metric value unit n`), one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Without `--trace` it runs the selected workloads (all by default),
//! each measurement in a fresh child process, and writes
//! `benchmark/out/results.json`. `agree` runs the whole set twice and
//! compares; `manifest` prints `BENCHMARK.json`.

mod layers;
mod loadgen;
mod metrics;
mod stats;
mod surface;
mod sys;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write;
use std::process::{Command, ExitCode};
use std::time::Duration;

use loadgen::{segment_median, Env, Segment};
use metrics::{complete, Metric, END_TO_END, PER_LAYER, RUN_SECONDS};
use stats::{median, percentile, spread, supported_tail, Tally};
use workloads::{Arrival, Spec, SPECS};

type Res<T> = Result<T, String>;

const DEFAULT_SEED: u64 = 20030609;
const OUT_DIR: &str = "benchmark/out";
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// An open-loop run is void when more than this share of its requests
/// was sent late or not at all: it did not offer the load it claims.
/// A tenth, not a hundredth: one 100 ms stall of the host delays fifteen
/// requests, two of them are 1.3 % of a run, and a void run fails the
/// whole benchmark; at ten times the rate the share is 0.99.
const MAX_LATE_FRAC: f64 = 0.10;

#[derive(Debug, Clone)]
struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    /// Multiplies the open-loop rate. Only to show that an overloaded
    /// `mixed_open` is detected and rejected; never set by the driver.
    rate_scale: f64,
    /// `agree`: runs per workload and set.
    runs: usize,
}

fn parse_args() -> Res<Args> {
    let mut a = Args {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: None,
        rate_scale: 1.0,
        runs: 10,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{what} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => a.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                a.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--rate-scale" => {
                a.rate_scale =
                    value("--rate-scale")?.parse().map_err(|e| format!("--rate-scale: {e}"))?
            }
            "--runs" => a.runs = value("--runs")?.parse().map_err(|e| format!("--runs: {e}"))?,
            "agree" | "manifest" if a.command.is_none() => a.command = Some(arg),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if let Some(w) = &a.workload {
        if workloads::spec(w).is_none() {
            let known: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
            return Err(format!("unknown workload {w:?} (known: {})", known.join(", ")));
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match (args.command.as_deref(), args.trace) {
        (Some("manifest"), _) => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        (Some("agree"), _) => agree(&args),
        (_, Some(trace)) => measure(&args, trace),
        (_, None) => run_set(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("xmlpub-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------
// One workload, measured in this process.

/// What a measurement reports.
struct Report {
    tally: Tally,
    metrics: Vec<Metric>,
    fingerprint: u64,
}

fn measure(args: &Args, trace: bool) -> Res<bool> {
    let name = args.workload.as_deref().ok_or("--trace needs --workload")?;
    let mut spec: &'static Spec = workloads::spec(name).expect("checked by parse_args");
    if let (Arrival::Open { rate }, true) = (spec.arrival, args.rate_scale != 1.0) {
        spec = Box::leak(Box::new(Spec {
            arrival: Arrival::Open { rate: rate * args.rate_scale },
            ..*spec
        }));
    }
    // A request that never returns must not hang the driver: well past
    // any healthy run, give up without printing a result.
    let limit = Duration::from_secs_f64(args.seconds * 3.0 + 120.0);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("xmlpub-benchmark: no result after {limit:?}, giving up");
        std::process::exit(3);
    });

    let report = if trace { measure_layers(spec, args)? } else { measure_end_to_end(spec, args)? };
    let correct = report.tally.failed() == 0;
    let mut out = std::io::stdout().lock();
    let line =
        |out: &mut std::io::StdoutLock, metric: &str, value: String, unit: &str, n: usize| {
            writeln!(out, "{name} {metric} {value} {unit} {n}").map_err(|e| e.to_string())
        };
    line(&mut out, "workload.fingerprint", format!("{:016x}", report.fingerprint), "hash", 1)?;
    line(&mut out, "workload.seed", args.seed.to_string(), "seed", 1)?;
    line(&mut out, "requests.attempted", report.tally.attempted.to_string(), "count", 1)?;
    line(&mut out, "requests.failed", report.tally.failed().to_string(), "count", 1)?;
    for m in &report.metrics {
        line(&mut out, m.name, number(m.value), m.unit, m.n)?;
    }
    let fields: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, number(m.value), m.unit)
        })
        .collect();
    writeln!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.attempted.max(1),
        report.tally.failed(),
        fields.join(", ")
    )
    .map_err(|e| e.to_string())?;
    Ok(correct)
}

/// A JSON number with all its digits.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn teardown(env: Env) -> Res<()> {
    for wire in env.wires {
        wire.close()?;
    }
    env.host.shutdown()
}

fn failure_detail(log: &loadgen::Log) {
    if let Some(e) = &log.first_error {
        eprintln!(
            "xmlpub-benchmark: {} of {} requests failed; first: {e}",
            log.tally.failed(),
            log.tally.attempted
        );
    }
}

/// Tracing off: set up and measure — the state a freshly started server
/// is in — and only then set up again, for the median `setup_s` is.
fn measure_end_to_end(spec: &'static Spec, args: &Args) -> Res<Report> {
    let mut env = loadgen::setup(spec, args.seed, args.seconds)?;
    let mut setups = vec![env.times.total_s];
    let load = loadgen::run_load(&mut env, args.seconds, false)?;
    let fingerprint = env.plan.fingerprint();
    teardown(env)?;
    failure_detail(&load.log);
    if matches!(spec.arrival, Arrival::Open { .. }) && load.late_frac() > MAX_LATE_FRAC {
        return Err(format!(
            "{}: {} of {} scheduled requests were sent late and {} never: the offered load was not met (late_frac {:.4} > {MAX_LATE_FRAC})",
            spec.name,
            load.late(),
            load.log.lags_ms.len(),
            load.unsent,
            load.late_frac()
        ));
    }

    while setups.len() < SETUPS {
        let again = loadgen::setup(spec, args.seed, args.seconds)?;
        setups.push(again.times.total_s);
        teardown(again)?;
    }

    let n = load.log.samples.len();
    if supported_tail(n).is_none_or(|p| p < 95.0) {
        eprintln!(
            "xmlpub-benchmark: {}: only {n} samples, p95 has fewer than ten beyond it",
            spec.name
        );
    }
    // An open loop completes what the schedule offers, segment by
    // segment the same number; what can vary is how long the whole took.
    let segments = load.segments();
    let over_segments = |value: fn(&Segment) -> f64| segment_median(&segments, value);
    let throughput = match spec.arrival {
        Arrival::Open { .. } => n as f64 / load.wall_s,
        Arrival::Closed => over_segments(Segment::throughput_rps),
    };
    let m = |name, value, n| Metric::of(&END_TO_END, name, value, n);
    let measured = vec![
        m("setup_s", median(&setups), setups.len()),
        m("req_p50_ms", over_segments(|s| percentile(&s.latencies_ms, 50.0)), n),
        m("req_p95_ms", over_segments(|s| percentile(&s.latencies_ms, 95.0)), n),
        m("throughput_rps", throughput, n),
        m("cpu_ms_per_req", over_segments(Segment::cpu_ms_per_req), n),
    ];
    Ok(Report { tally: load.log.tally, metrics: complete(&END_TO_END, measured), fingerprint })
}

/// Tracing on: a shorter observed load (queue poller running), then the
/// three-way replay.
fn measure_layers(spec: &'static Spec, args: &Args) -> Res<Report> {
    let mut env = loadgen::setup(spec, args.seed, args.seconds)?;
    let load = loadgen::run_load(&mut env, args.seconds * 0.4, true)?;
    failure_detail(&load.log);
    let n = layers::replay_len(spec, args.seconds, env.plan.order.len());
    let replay = layers::replay(&mut env, n)?;
    let dop1 = if spec.dop > 1 { Some(layers::dop1_baseline(&env, args.seed, n)?) } else { None };
    let measured = layers::layer_metrics(&env, &load, &replay, dop1);

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/trace-{}.jsonl", spec.name);
    let mut file =
        std::io::BufWriter::new(std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?);
    replay
        .recorder
        .write_jsonl(&mut file)
        .and_then(|()| file.flush())
        .map_err(|e| format!("{path}: {e}"))?;

    let value = |name: &str| measured.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
    let hit_ratio = value("server.plan_cache_hit_ratio");
    if spec.name.starts_with("fig8") && hit_ratio < 0.99 {
        return Err(format!("{}: plan cache hit ratio {hit_ratio} < 0.99", spec.name));
    }
    if spec.name == "adhoc_cold" && hit_ratio > 0.01 {
        return Err(format!(
            "adhoc_cold: plan cache hit ratio {hit_ratio} > 0.01, the cache is not cold"
        ));
    }
    if spec.connections <= 1 && load.shed > 0 {
        return Err(format!("{}: {} requests shed with a single client", spec.name, load.shed));
    }
    let fingerprint = env.plan.fingerprint();
    teardown(env)?;
    let mut tally = load.log.tally;
    // Every replayed request was checked against its reference (a
    // mismatch aborts the run), three ways plus the untraced pass.
    tally.attempted += 4 * n as u64;
    Ok(Report { tally, metrics: complete(&PER_LAYER, measured), fingerprint })
}

// ---------------------------------------------------------------------
// Sets of runs, each in a fresh child process.

/// One child run: its metric lines by metric name, as printed.
struct ChildRun {
    values: BTreeMap<String, (String, String, String)>,
}

impl ChildRun {
    fn number(&self, metric: &str) -> f64 {
        self.values.get(metric).and_then(|(v, _, _)| v.parse().ok()).unwrap_or(0.0)
    }
}

fn child(spec: &Spec, seed: u64, seconds: f64, trace: bool, echo: bool) -> Res<ChildRun> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "--workload",
            spec.name,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut values = BTreeMap::new();
    for l in text.lines() {
        let f: Vec<&str> = l.split_whitespace().collect();
        if f.len() == 5 && f[0] == spec.name {
            if echo {
                println!("{l}");
            }
            values.insert(f[1].to_string(), (f[2].to_string(), f[3].to_string(), f[4].to_string()));
        }
    }
    if !output.status.success() {
        return Err(format!(
            "{} --trace {} --seed {seed} exited with {}",
            spec.name,
            u8::from(trace),
            output.status
        ));
    }
    Ok(ChildRun { values })
}

fn selected(args: &Args) -> Vec<&'static Spec> {
    SPECS.iter().filter(|s| args.workload.as_deref().is_none_or(|w| w == s.name)).collect()
}

/// Run the selected workloads once, untraced and traced, print every
/// metric and write `results.json`.
fn run_set(args: &Args) -> Res<bool> {
    let (cores, model) = sys::machine();
    let mut json = format!(
        "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"nproc\": {cores},\n  \"cpu\": \"{model}\",\n  \"workloads\": {{\n",
        args.seed, args.seconds
    );
    let specs = selected(args);
    for (i, spec) in specs.iter().enumerate() {
        let mut runs = Vec::new();
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let run = child(spec, args.seed, args.seconds, trace, true)?;
            let fields: Vec<String> = run
                .values
                .iter()
                .map(|(metric, (value, unit, n))| {
                    let value = if unit == "hash" { format!("\"{value}\"") } else { value.clone() };
                    format!("        \"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\", \"n\": {n}}}")
                })
                .collect();
            runs.push(format!("      \"{key}\": {{\n{}\n      }}", fields.join(",\n")));
        }
        let comma = if i + 1 < specs.len() { "," } else { "" };
        json.push_str(&format!("    \"{}\": {{\n{}\n    }}{comma}\n", spec.name, runs.join(",\n")));
    }
    json.push_str("  }\n}\n");
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    std::fs::write(format!("{OUT_DIR}/results.json"), json).map_err(|e| e.to_string())?;
    Ok(true)
}

/// Two sets of `runs` end-to-end runs per workload (seeds `seed`,
/// `seed + 1`, …) on the same build, plus one traced run per workload
/// and set. Prints, per workload × end-to-end metric, both medians,
/// their relative difference and both spreads beside the bound; fails
/// when a difference or a spread exceeds its bound, when any request
/// failed, or when an exact count differs between the sets.
fn agree(args: &Args) -> Res<bool> {
    let (cores, model) = sys::machine();
    println!(
        "# agreement of two sets of {} runs, {} s each, seeds {}.., {cores} x {model}",
        args.runs, args.seconds, args.seed
    );
    println!("# workload metric median_1 median_2 worse_by spread_1 spread_2 bound verdict");
    let mut ok = true;
    for spec in selected(args) {
        let mut sets: Vec<BTreeMap<&str, Vec<f64>>> = Vec::new();
        let mut counts: Vec<BTreeMap<String, String>> = Vec::new();
        for _set in 0..2 {
            let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
            for r in 0..args.runs {
                let run = child(spec, args.seed + r as u64, args.seconds, false, false)?;
                if run.number("requests.failed") != 0.0 {
                    println!("{} seed {} had failed requests", spec.name, args.seed + r as u64);
                    ok = false;
                }
                for d in &END_TO_END {
                    values.entry(d.name).or_default().push(run.number(d.name));
                }
            }
            sets.push(values);
            let traced = child(spec, args.seed, args.seconds, true, false)?;
            counts.push(
                traced
                    .values
                    .iter()
                    .filter(|(_, (_, unit, _))| unit == "count/req")
                    .map(|(k, (v, _, _))| (k.clone(), v.clone()))
                    .collect(),
            );
        }
        for d in &END_TO_END {
            let (a, b) = (&sets[0][d.name], &sets[1][d.name]);
            let (m1, m2) = (median(a), median(b));
            let worse_by = if d.better == "lower" { (m2 - m1) / m1 } else { (m1 - m2) / m1 };
            let (s1, s2) = (spread(a), spread(b));
            // The driver does not hold setup_s to a spread, only to a drift.
            let steady = d.name == "setup_s" || (s1 <= d.bound && s2 <= d.bound);
            let verdict = if worse_by <= d.bound && steady { "ok" } else { "BREACH" };
            ok &= verdict == "ok";
            println!(
                "{} {} {m1:.4} {m2:.4} {worse_by:+.4} {s1:.4} {s2:.4} {} {verdict}",
                spec.name, d.name, d.bound
            );
        }
        let same = counts[0] == counts[1];
        ok &= same;
        println!(
            "{} exact_counts {} metrics {}",
            spec.name,
            counts[0].len(),
            if same { "identical" } else { "DIFFER" }
        );
    }
    println!("# {}", if ok { "all within bounds" } else { "BREACH" });
    Ok(ok)
}
