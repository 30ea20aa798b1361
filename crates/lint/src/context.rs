//! Ambient context threaded through a plan walk.
//!
//! The two pieces of context `xmlpub_algebra::validate::check` takes
//! besides the node: whether we are inside a per-group query (and if so,
//! against which group schema the `GroupScan` leaves must resolve), and
//! how many `Apply` operators enclose the current node (the bound on
//! correlated reference levels). The linter additionally threads a
//! [`PlanPath`] so diagnostics can point at the offending node.

use crate::diagnostic::PlanPath;
use xmlpub_algebra::LogicalPlan;
use xmlpub_common::Schema;

/// Context a node sits in, independent of the node itself.
#[derive(Debug, Clone, Default)]
pub struct Ambient {
    /// `Some(schema of the grouped input)` when inside a per-group
    /// query; `GroupScan` leaves must match it.
    pub group_schema: Option<Schema>,
    /// Number of enclosing `Apply` operators: correlated references must
    /// stay strictly below this level.
    pub apply_depth: usize,
}

impl Ambient {
    /// The context of a plan root: not in a PGQ, no enclosing applies.
    pub fn root() -> Self {
        Ambient::default()
    }

    /// The ambient context of each child of `plan`, in
    /// [`LogicalPlan::children`] order.
    ///
    /// `GApply` puts its per-group query in a context whose group schema
    /// is the (grouped) input's schema; `Apply` deepens the correlation
    /// level for its inner side; everything else passes the context
    /// through unchanged.
    pub fn children_for(&self, plan: &LogicalPlan) -> Vec<Ambient> {
        match plan {
            LogicalPlan::GApply { input, .. } => vec![
                self.clone(),
                Ambient { group_schema: Some(input.schema()), apply_depth: self.apply_depth },
            ],
            LogicalPlan::Apply { .. } => vec![
                self.clone(),
                Ambient {
                    group_schema: self.group_schema.clone(),
                    apply_depth: self.apply_depth + 1,
                },
            ],
            other => other.children().iter().map(|_| self.clone()).collect(),
        }
    }
}

/// Pre-order walk over `plan` carrying the ambient context and path.
pub fn walk(
    plan: &LogicalPlan,
    ambient: &Ambient,
    path: &PlanPath,
    f: &mut impl FnMut(&LogicalPlan, &Ambient, &PlanPath),
) {
    f(plan, ambient, path);
    let child_ambients = ambient.children_for(plan);
    for (i, (child, amb)) in plan.children().iter().zip(child_ambients.iter()).enumerate() {
        walk(child, amb, &path.child(i), f);
    }
}
