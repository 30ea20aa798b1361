//! Logical algebra: relational operators extended with `GApply`.
//!
//! This crate is the paper's Section 3 made concrete:
//!
//! * [`LogicalPlan`] — the operator tree. Besides the classical operators
//!   (scan, select, project, join, group-by, scalar aggregate, union all,
//!   distinct, order-by) it has the subquery operators `Apply`/`Exists`
//!   in the style of Galindo-Legaria & Joshi, and the paper's
//!   **`GApply(GCols, PGQ)`**, whose per-group query reads the bound
//!   relation-valued variable through [`LogicalPlan::GroupScan`];
//! * [`catalog`] — table definitions with key/foreign-key metadata (the
//!   invariant-grouping rule needs to know which joins are FK joins) and
//!   the in-memory table store;
//! * [`analysis`] — the paper's static analyses over per-group queries:
//!   **covering ranges** and **emptyOnEmpty** (§4.1, Theorem 1),
//!   **eval / gp-eval columns** and the **adapted per-group query**
//!   (§4.3, Theorem 2);
//! * [`mod@validate`] — the one checker of the §3 structural rules,
//!   including the paper's restriction of per-group queries to
//!   scan/select/project/distinct/apply/exists/union-all/groupby/
//!   aggregate/orderby over the single temporary relation; [`validate()`]
//!   reports its first finding.

pub mod analysis;
pub mod catalog;
pub mod plan;
pub mod validate;

pub use analysis::{
    adapted_pgq, adapted_pgq_with_map, covering_range, empty_on_empty, gp_eval_columns,
};
pub use catalog::{Catalog, ForeignKey, ResolvedForeignKey, TableDef, DELTA_LOG_CAPACITY};
pub use plan::{ApplyMode, LogicalPlan, ProjectItem, SortKey};
pub use validate::validate;
