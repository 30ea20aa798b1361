//! `xmlpub-testkit` — the declarative scenario corpus runner.
//!
//! A *scenario* is a data file (`tests/scenarios/**/*.scn`, see
//! [`scenario`]) describing a catalog setup and a statement sequence.
//! The [`runner`] executes each scenario across the full knob matrix —
//! batch size × dop × plan-cache cold/warm × trace off/on, checking
//! every incremental republish against `publish` — and asserts
//! the rendered output (rows, plans, invariant engine counters,
//! published XML) is byte-identical in every cell *and* to the pinned
//! `.snap` file next to the scenario.
//!
//! Adding a scenario is a data-only change: drop a `.scn` file in the
//! corpus, run `cargo run -p xmlpub-testkit --bin bless` (or
//! `XMLPUB_BLESS=1 cargo test`) to pin its snapshot, and review the
//! generated `.snap` like any other golden file. See `docs/testing.md`.

pub mod normalize;
pub mod runner;
pub mod scenario;
pub mod snapshot;

use std::path::{Path, PathBuf};

pub use runner::render_scenario;
pub use scenario::Scenario;

/// Environment variable that switches snapshot checking to blessing.
pub const BLESS_ENV: &str = "XMLPUB_BLESS";

/// The `.snap` path for a scenario file: same directory, same stem.
pub fn snap_path(scn: &Path) -> PathBuf {
    scn.with_extension("snap")
}

/// All `.scn` files under `dir`, recursively, in sorted order.
pub fn scenario_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    collect_scn(dir, &mut out)?;
    out.sort();
    Ok(out)
}

fn collect_scn(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_scn(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "scn") {
            out.push(path);
        }
    }
    Ok(())
}

/// Run one scenario file: execute the matrix, then check the snapshot
/// (or re-pin it when `XMLPUB_BLESS=1`).
pub fn run_scenario_file(path: &Path) -> Result<(), String> {
    let sc = scenario::parse_file(path)?;
    let rendered = runner::render_scenario(&sc)?;
    let snap = snap_path(path);
    if std::env::var(BLESS_ENV).map(|v| v == "1").unwrap_or(false) {
        snapshot::bless(&snap, &rendered)?;
        Ok(())
    } else {
        snapshot::check(&snap, &rendered)
    }
}

/// Run every scenario under `dir`, collecting all failures. Returns the
/// number of scenarios run. This is what `tests/scenario_corpus.rs`
/// calls — a new scenario file is picked up with zero new Rust.
pub fn run_dir(dir: &Path) -> Result<usize, String> {
    let files = scenario_files(dir)?;
    if files.is_empty() {
        return Err(format!("no .scn files under {}", dir.display()));
    }
    let mut failures = Vec::new();
    for file in &files {
        if let Err(e) = run_scenario_file(file) {
            failures.push(format!("• {}:\n{e}", file.display()));
        }
    }
    if failures.is_empty() {
        Ok(files.len())
    } else {
        Err(format!(
            "{} of {} scenario(s) failed:\n\n{}",
            failures.len(),
            files.len(),
            failures.join("\n\n")
        ))
    }
}

/// Re-bless every scenario under `dir`; returns `(path, changed)` per
/// scenario. Used by the `bless` binary and the CI drift check.
pub fn bless_dir(dir: &Path) -> Result<Vec<(PathBuf, bool)>, String> {
    let files = scenario_files(dir)?;
    if files.is_empty() {
        return Err(format!("no .scn files under {}", dir.display()));
    }
    let mut out = Vec::new();
    for file in &files {
        let sc = scenario::parse_file(file)?;
        let rendered =
            runner::render_scenario(&sc).map_err(|e| format!("{}: {e}", file.display()))?;
        let snap = snap_path(file);
        let changed = snapshot::bless(&snap, &rendered)?;
        out.push((snap, changed));
    }
    Ok(out)
}
