//! The declarative scenario corpus (`tests/scenarios/**/*.scn`).
//!
//! Each test below enumerates one corpus directory and hands every
//! `.scn` file to `xmlpub-testkit`, which runs the scenario across the
//! full batch × dop × plan-cache × trace matrix (checking every
//! republish against `publish` of the same view) and pins the rendered
//! output against the `.snap` file next to it. Adding a scenario is a
//! data-only change: drop a file under `tests/scenarios/` and bless it
//! with `cargo run -p xmlpub-testkit --bin bless`. See `docs/testing.md`.

use std::path::{Path, PathBuf};

fn corpus() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/scenarios")
}

fn run(subdir: &str) -> usize {
    match xmlpub_testkit::run_dir(&corpus().join(subdir)) {
        Ok(count) => count,
        Err(e) => panic!("{e}"),
    }
}

#[test]
fn fig8_scenarios() {
    assert!(run("fig8") >= 5, "Fig. 8 corpus shrank");
}

#[test]
fn rollup_scenarios() {
    assert!(run("rollup") >= 4, "rollup/cube corpus shrank");
}

#[test]
fn edge_scenarios() {
    assert!(run("edge") >= 3, "edge-case corpus shrank");
}

#[test]
fn incremental_scenarios() {
    assert!(run("incremental") >= 1, "incremental corpus shrank");
}

/// The acceptance floor for the corpus as a whole: at least 12
/// scenarios, each with a pinned snapshot.
#[test]
fn corpus_is_populated() {
    let files = xmlpub_testkit::scenario_files(&corpus()).unwrap();
    assert!(files.len() >= 12, "corpus has only {} scenarios", files.len());
    for scn in &files {
        let snap = xmlpub_testkit::snap_path(scn);
        assert!(snap.exists(), "missing snapshot for {}", scn.display());
    }
}
