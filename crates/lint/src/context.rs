//! A plan walk carrying each node's ambient context and path.
//!
//! The context is [`Ambient`] from `xmlpub_algebra::validate`, which owns
//! the rule for how a child's context follows from its parent's; the
//! linter additionally threads a [`PlanPath`] so diagnostics can point at
//! the offending node.

use crate::diagnostic::PlanPath;
pub use xmlpub_algebra::validate::Ambient;
use xmlpub_algebra::LogicalPlan;

/// Pre-order walk over `plan` carrying the ambient context and path.
pub fn walk(
    plan: &LogicalPlan,
    ambient: &Ambient,
    path: &PlanPath,
    f: &mut impl FnMut(&LogicalPlan, &Ambient, &PlanPath),
) {
    f(plan, ambient, path);
    for (i, child) in plan.children().into_iter().enumerate() {
        walk(child, &ambient.child(plan, i), &path.child(i), f);
    }
}
