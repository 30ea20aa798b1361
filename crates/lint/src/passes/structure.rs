//! The §3 structural rules as a lint pass.
//!
//! The rules live in `xmlpub_algebra::validate::check`, the checker
//! `xmlpub_algebra::validate` runs on every request. `validate` stops at
//! the first finding; this pass reports every finding of every node, at
//! the node's path and under the rule's id (`pgq-operators`,
//! `column-bounds`, `correlation-depth`).

use crate::context::Ambient;
use crate::diagnostic::{Diagnostic, PlanPath};
use crate::registry::LintPass;
use xmlpub_algebra::validate::check;
use xmlpub_algebra::LogicalPlan;

/// Every §3 structural rule, per node.
pub struct Structure;

impl LintPass for Structure {
    fn name(&self) -> &'static str {
        "structure"
    }

    fn check_node(
        &self,
        node: &LogicalPlan,
        ambient: &Ambient,
        path: &PlanPath,
        out: &mut Vec<Diagnostic>,
    ) {
        let mut findings = Vec::new();
        check(node, ambient, &mut findings);
        out.extend(
            findings.into_iter().map(|f| Diagnostic::error(f.kind.id(), path.clone(), f.message)),
        );
    }
}
