//! `experiments` — regenerate the paper's evaluation artifacts.
//!
//! ```text
//! experiments [fig8|table1|calibration|ablation|all] [--scale S] [--reps N]
//!             [--sort] [--json PATH]
//! ```
//!
//! Defaults: scale 0.01 (≈ 100 suppliers, 8 000 partsupp rows), 3 reps,
//! hash partitioning. EXPERIMENTS.md records a run at scale 0.02.
//! `table1` times each plan at least 3 times whatever `--reps` says.
//!
//! After the figure, `fig8` prints each operator kind's summed self
//! time over one profiled run of every plan (the timed reps stay
//! unprofiled). A `fig8` (or `all`) run also writes a machine-readable
//! summary — name, median and p95 latency per query — to
//! `BENCH_fig8.json` (override with `--json`), the companion to the prose
//! `docs/experiment_log.txt`.

use xmlpub::PartitionStrategy;
use xmlpub_bench::{ablation, calibration, fig8, table1};

struct Args {
    command: String,
    scale: f64,
    reps: usize,
    strategy: PartitionStrategy,
    json: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        command: "all".to_string(),
        scale: 0.01,
        reps: 3,
        strategy: PartitionStrategy::Hash,
        json: "BENCH_fig8.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "fig8" | "table1" | "calibration" | "ablation" | "all" => args.command = a,
            "--scale" => {
                args.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"))
            }
            "--reps" => {
                args.reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--reps needs an integer"))
            }
            "--sort" => args.strategy = PartitionStrategy::Sort,
            "--json" => args.json = it.next().unwrap_or_else(|| die("--json needs a path")),
            other => die(&format!("unknown argument '{other}'")),
        }
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: experiments [fig8|table1|calibration|ablation|all] \
         [--scale S] [--reps N] [--sort] [--json PATH]\n\
         (table1 times each plan at least 3 times: --reps below 3 counts as 3)"
    );
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    println!(
        "== reproduction of 'On Relational Support for XML Publishing' (SIGMOD 2003) ==\n\
         scale factor {}, {} reps, {:?} partitioning\n",
        args.scale, args.reps, args.strategy
    );
    let run = |name: &str| args.command == name || args.command == "all";

    if run("fig8") {
        let rows = fig8::run_fig8(args.scale, args.strategy, args.reps).expect("figure 8 failed");
        println!("{}", fig8::render(&rows));
        println!("{}", fig8::render_operator_costs(&rows));
        let json = fig8::render_json(&rows, args.scale, args.reps);
        match std::fs::write(&args.json, &json) {
            Ok(()) => println!("wrote {}", args.json),
            Err(e) => eprintln!("could not write {}: {e}", args.json),
        }
    }
    if run("table1") {
        let rows = table1::run_table1(args.scale, args.reps).expect("table 1 failed");
        println!("{}", table1::render(&rows));
    }
    if run("calibration") {
        let rows = calibration::run_calibration(args.scale, args.strategy, args.reps)
            .expect("calibration failed");
        println!("{}", calibration::render(&rows));
    }
    if run("ablation") {
        println!("{}", ablation::partitioning(args.scale, args.reps).expect("partitioning"));
        println!("{}", ablation::cost_gate(args.scale, args.reps).expect("cost gate"));
        println!("{}", ablation::skew(args.scale, args.reps).expect("skew"));
        println!("{}", ablation::apply_memo(args.scale, args.reps).expect("memoization"));
        println!("{}", ablation::join_order(args.scale, args.reps).expect("join order"));
    }
}
