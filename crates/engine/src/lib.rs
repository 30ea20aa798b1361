//! Physical execution engine (vectorized Volcano model).
//!
//! Each operator implements `open`/`next_batch`/`close`, exchanging
//! [`TupleBatch`](xmlpub_common::TupleBatch)es of up to
//! `EngineConfig::batch_size` rows (default 1024; 1 degenerates to the
//! classic tuple-at-a-time model) over an [`ExecContext`] that carries
//! the two kinds of runtime bindings the paper's execution model needs:
//!
//! * **relation-valued parameters** — the `$group` temporary relation a
//!   `GApply` binds before running its per-group query ("when the leaf
//!   scan operator receives the relation-valued parameter, it understands
//!   this to be a temporary relation and reads from it", §3);
//! * **scalar outer rows** — the current outer tuple of each enclosing
//!   `Apply`, which correlated expressions read.
//!
//! The [`ops::gapply`] module implements the operator's two phases exactly
//! as §3 describes: a *partition* phase (hash-based or sort-based,
//! selectable via [`EngineConfig`]) and a nested-loops *execution* phase
//! that runs the per-group plan once per group.
//!
//! [`client_sim`] reimplements the paper's §5.1 client-side simulation of
//! GApply (materialise the outer result, partition it, extract each group
//! into a fresh temporary relation, run the per-group query per group,
//! pay per-query overhead) so the §5.2 "simulation is ~20% conservative"
//! calibration can be reproduced against the native operator.

pub mod client_sim;
pub mod context;
pub mod delta;
pub mod executor;
pub mod ops;
pub mod parallel;
pub mod planner;
pub mod prop_check;

#[cfg(test)]
pub(crate) mod test_support;

pub use context::{emit_operator_spans, render_profiles, ExecContext, ExecStats, OpProfile};
pub use delta::{dirty_keys, propagate_touched, TableDeltas};
pub use executor::{
    execute, execute_stream, execute_stream_with_obs, execute_with_config, execute_with_stats,
    ResultStream,
};
pub use ops::gapply::PartitionStrategy;
pub use ops::PhysicalOp;
pub use planner::{EngineConfig, PhysicalPlanner};
pub use prop_check::PropChecker;
pub use xmlpub_obs::ObsContext;
