//! Rule-based optimizer for plans containing `GApply` (paper §4).
//!
//! The crate provides:
//!
//! * [`stats`] — table/column statistics gathered from the catalog and
//!   the selectivity estimation they support;
//! * [`cost`] — cardinality and cost estimation, including the §4.4
//!   GApply costing: *cost of evaluating the per-group query on one
//!   (average) group × number of groups*, under the uniformity
//!   assumption;
//! * [`rules`] — the transformation rules:
//!   - the pull-through identities `σ(R GA R₂) = R GA σ(R₂)` and
//!     `π_{C∪B}(R GA R₂) = R GA π_B(R₂)`;
//!   - *Placing Projections Before GApply*;
//!   - *Placing Selections Before GApply* (covering range +
//!     emptyOnEmpty, Theorem 1), with elimination of per-group
//!     selections logically equivalent to the pushed range;
//!   - *Converting GApply to groupby* (both variants);
//!   - *Group Selection* (exists) and *Aggregate Selection*, cost-gated
//!     because the paper observes they can hurt;
//!   - *Invariant Grouping* (pushing GApply below foreign-key joins,
//!     Theorem 2) with the adapted per-group query;
//!   - classical selection pushdown through joins, used to sink the
//!     selections the GApply rules introduce on the outer query;
//!   - cost-based join reordering and, last, column pruning: every join
//!     narrowed to the columns its parent reads.
//! * [`Optimizer`] — a pass-ordered driver over one table of rules in
//!   firing order, each enabled or not by the config's [`RuleSet`] (so
//!   the Table 1 experiments can measure each rule in isolation, and an
//!   empty set runs the bound plan as bound), and a firing log for
//!   EXPLAIN-style reporting.

pub mod cost;
pub mod optimizer;
pub mod rules;
pub mod stats;

pub use cost::CostModel;
pub use optimizer::{Optimizer, OptimizerConfig, RuleFiring, RuleSet};
pub use rules::VetoProbe;
pub use stats::Statistics;
