//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation (§5).
//!
//! * [`fig8`] — Figure 8: speedup of the gapply formulation over the
//!   classic sorted-outer-union formulation for Q1–Q4;
//! * [`table1`] — Table 1: per-rule benefit sweeps (maximum / average /
//!   average-over-wins);
//! * [`calibration`] — the §5.2 Q4 experiment calibrating the §5.1
//!   client-side simulation against the native operator (~+20 % in the
//!   paper);
//! * [`ablation`] — studies the paper mentions but does not tabulate:
//!   hash vs sort partitioning ("the impact of GApply is comparable
//!   whether we perform partitioning through sorting or through
//!   hashing"), cost-gated vs always-fired group selection, and a
//!   group-size skew sweep stressing the §4.4 uniformity assumption;
//! * [`incremental`] — incremental republish vs full recompute per churn
//!   level (`BENCH_incremental.json`).
//!
//! The `experiments` binary prints these as paper-style text tables.

pub mod ablation;
pub mod calibration;
pub mod fig8;
pub mod harness;
pub mod incremental;
pub mod table1;

pub use fig8::{run_fig8, Fig8Row};
pub use incremental::{run_incremental, IncrementalRow};
pub use table1::{run_table1, Table1Row};
