//! Column provenance across rewrites.
//!
//! [`lineage`] (the one column-lineage walk, shared with the optimizer's
//! per-group analyses and the foreign-key test) traces each output column
//! of a plan back to a base-table or `$group` column where that trace is
//! unambiguous. Aggregates and computed expressions trace to `None`.
//!
//! The rewrite check then demands that wherever *both* the old and the
//! new subtree have a provable origin for an output position, the
//! origins agree. A rewrite that silently swaps two same-typed columns —
//! the classic sorting-and-tagging bug the paper's outer-union plans are
//! prone to — passes the schema check but fails this one.

use crate::context::Ambient;
use crate::diagnostic::{Diagnostic, PlanPath};
use crate::registry::LintPass;
use xmlpub_algebra::analysis::lineage;
use xmlpub_algebra::LogicalPlan;

/// Demands origin agreement between the two sides of a rewrite.
pub struct ColumnProvenance;

impl LintPass for ColumnProvenance {
    fn name(&self) -> &'static str {
        "column-provenance"
    }

    fn check_rewrite(
        &self,
        rule: &str,
        before: &LogicalPlan,
        after: &LogicalPlan,
        _ambient: &Ambient,
        out: &mut Vec<Diagnostic>,
    ) {
        let old = lineage(before);
        let new = lineage(after);
        for (i, (o, n)) in old.iter().zip(new.iter()).enumerate() {
            if let (Some((ot, oc)), Some((nt, nc))) = (o, n) {
                if (ot, oc) != (nt, nc) {
                    out.push(Diagnostic::error(
                        self.name(),
                        PlanPath::root(),
                        format!(
                            "rewrite `{rule}` rerouted output column #{i}: it traced to \
                             {ot}.#{oc} before but {nt}.#{nc} after"
                        ),
                    ));
                }
            }
        }
    }
}
