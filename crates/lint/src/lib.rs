//! Plan linter: multi-pass static analysis over
//! [`xmlpub_algebra::LogicalPlan`].
//!
//! The optimizer of *On Relational Support for XML Publishing* (SIGMOD
//! 2003) rewrites GApply plans under theorem side conditions (§4.1
//! Theorem 1, §4.3 Theorem 2). This crate checks those invariants
//! statically and independently of the rules themselves:
//!
//! * **the per-node pass** ([`passes::Structure`]) runs the §3 checker
//!   of `xmlpub_algebra::validate` (per-group query operator whitelist,
//!   group-scan schemas, correlation depth, column bounds) over every
//!   node of a plan, reporting every finding with a path to the
//!   offending node, where `validate` reports only the first;
//! * **per-rewrite passes** compare the subtree before and after a rule
//!   firing: the schema must be preserved, provable column provenance
//!   must be preserved, and the firing rule's theorem side conditions
//!   must actually hold ([`passes::SideConditions`]).
//!
//! The optimizer runs the registry after every firing when its
//! `verify_rewrites` flag is set, attributing diagnostics to the firing
//! that introduced them.

pub mod context;
pub mod diagnostic;
pub mod passes;
pub mod registry;

#[cfg(test)]
mod tests;

pub use context::Ambient;
pub use diagnostic::{Diagnostic, PlanPath, Severity};
pub use registry::{LintPass, LintRegistry};
