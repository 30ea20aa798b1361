//! Schema preservation across rewrites.
//!
//! Every optimizer rule replaces a subtree with an equivalent one, so
//! the replacement must produce the same relation shape: same arity,
//! same column names, compatible column types. Qualifiers are
//! deliberately ignored — invariant grouping's restore projection
//! rebuilds columns under their bare names — and types are compared up
//! to `DataType::unify`, because NULL-typed placeholders legitimately
//! acquire concrete types.

use crate::context::Ambient;
use crate::diagnostic::{Diagnostic, PlanPath};
use crate::registry::LintPass;
use xmlpub_algebra::LogicalPlan;

/// Compares the subtree schema before and after a rewrite.
pub struct SchemaPreservation;

impl LintPass for SchemaPreservation {
    fn name(&self) -> &'static str {
        "schema-preservation"
    }

    fn check_rewrite(
        &self,
        rule: &str,
        before: &LogicalPlan,
        after: &LogicalPlan,
        _ambient: &Ambient,
        out: &mut Vec<Diagnostic>,
    ) {
        let old = before.schema();
        let new = after.schema();
        if old.len() != new.len() {
            out.push(Diagnostic::error(
                self.name(),
                PlanPath::root(),
                format!(
                    "rewrite `{rule}` changed the arity: {} column(s) {old} became {} {new}",
                    old.len(),
                    new.len()
                ),
            ));
            return;
        }
        for (i, (o, n)) in old.fields().iter().zip(new.fields()).enumerate() {
            if !o.name.eq_ignore_ascii_case(&n.name) {
                out.push(Diagnostic::error(
                    self.name(),
                    PlanPath::root(),
                    format!(
                        "rewrite `{rule}` renamed output column #{i} from `{}` to `{}`",
                        o.name, n.name
                    ),
                ));
            }
            if o.data_type.unify(n.data_type).is_none() {
                out.push(Diagnostic::error(
                    self.name(),
                    PlanPath::root(),
                    format!(
                        "rewrite `{rule}` changed the type of output column #{i} (`{}`) from \
                         {} to {}",
                        o.name, o.data_type, n.data_type
                    ),
                ));
            }
        }
    }
}
