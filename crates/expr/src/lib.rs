//! Scalar expressions and aggregate functions.
//!
//! The paper's algebra annotates operators with scalar predicates and
//! aggregate lists; this crate supplies both:
//!
//! * [`Expr`] — column references (including *correlated* references into
//!   an enclosing `Apply`'s outer row, the subquery model of
//!   Galindo-Legaria & Joshi), literals, arithmetic, comparisons with SQL
//!   three-valued logic, `CASE`, `LIKE`, `IS NULL` and key-set
//!   membership (`InSet`);
//! * [`AggExpr`]/[`AggFunc`] — `count(*)`, `count`, `count(distinct)`,
//!   `sum`, `avg`, `min`, `max` with incremental [`Accumulator`]s;
//! * predicate utilities — conjunct splitting/joining, column extraction
//!   and remapping, and the normalised structural equivalence used when a
//!   selection inside a per-group query is "logically equivalent to the
//!   covering range" and can be eliminated (§4.1).

pub mod agg;
pub mod expr;
pub mod like;
pub mod predicate;

pub use agg::{Accumulator, AggExpr, AggFunc};
pub use expr::{BinOp, Expr, UnaryOp};
pub use predicate::{conjunction, conjuncts, normalize, split_equi_join};
