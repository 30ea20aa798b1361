//! # xmlpub-analysis
//!
//! Whole-plan property inference: a bottom-up abstract interpretation
//! over [`xmlpub_algebra::LogicalPlan`] that derives, per operator,
//!
//! * candidate **keys** and **functional dependencies** (seeded from
//!   catalog primary/foreign keys),
//! * the maintained **sort order** (with prefix subsumption),
//! * per-column **nullability**, and
//! * a **cardinality interval** `[lo, hi]`.
//!
//! The derivation is deliberately conservative: every fact it states is
//! a promise, every fact it forgets is sound. Consumers:
//!
//! * the optimizer gates rule side conditions on derived properties and
//!   records the [`Claim`]s each firing consumed,
//! * the lint `properties` pass re-derives claims independently and
//!   attributes violations to the guilty rule,
//! * the engine's `XMLPUB_CHECK_PROPS=1` mode asserts derived
//!   properties against actual batches at runtime.
//!
//! See `docs/analysis.md` for the lattice and the per-operator transfer
//! functions.

pub mod catalog;
pub mod claim;
pub mod derive;
pub mod props;
pub mod render;

pub use catalog::{CatalogProperties, TableProperties};
pub use claim::{Claim, ClaimKind, ClaimSubject};
pub use derive::{derive, derive_at, derive_in_group, GroupAmbient};
pub use props::{CardRange, Fd, OrderKey, PlanProperties};
pub use render::explain_with_properties;
