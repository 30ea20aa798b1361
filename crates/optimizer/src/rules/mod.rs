//! The transformation rules of §4.
//!
//! Each rule pattern-matches at the root of a subtree and, when it fires,
//! returns a semantically equivalent replacement (multiset semantics).
//! The driver in [`crate::optimizer`] decides where and how often rules
//! run; rules themselves are pure plan → plan functions, which is what
//! makes them property-testable (see `tests/` at the workspace root:
//! every rewrite is checked for bag-equality against the original plan
//! on generated databases).

use crate::stats::Statistics;
use xmlpub_algebra::LogicalPlan;
use xmlpub_analysis::{Claim, PlanProperties};

pub mod decorrelate;
pub mod group_selection;
pub mod invariant_grouping;
pub mod join_reorder;
pub mod project_before;
pub mod prune_columns;
pub mod pull_through;
pub mod select_before;
pub mod select_pushdown;
pub mod to_groupby;

pub use decorrelate::DecorrelateScalarAgg;
pub use group_selection::{AggregateSelection, ExistsGroupSelection};
pub use invariant_grouping::InvariantGrouping;
pub use join_reorder::JoinReorder;
pub use project_before::ProjectBeforeGApply;
pub use prune_columns::PruneColumns;
pub use pull_through::{ProjectIntoPgq, RemoveIdentityProject, SelectIntoPgq};
pub use select_before::SelectBeforeGApply;
pub use select_pushdown::SelectPushdown;
pub use to_groupby::ConvertToGroupBy;

/// Collects the property [`Claim`]s a rule consumed while deciding to
/// fire. The driver drains the probe into the corresponding
/// [`crate::optimizer::RuleFiring`] record, where the claims become
/// both EXPLAIN output (`\explain --verify` lists consumed side
/// conditions) and lint obligations (the `properties` pass re-derives
/// each claim and attributes failures to the claiming rule).
#[derive(Debug, Default)]
pub struct ClaimProbe(std::cell::RefCell<Vec<Claim>>);

impl ClaimProbe {
    /// Record a consumed side condition.
    pub fn record(&self, claim: Claim) {
        self.0.borrow_mut().push(claim);
    }

    /// Drain the recorded claims.
    pub fn take(&self) -> Vec<Claim> {
        std::mem::take(&mut self.0.borrow_mut())
    }
}

/// Records cost-gate rejections ("vetoes") during an optimization run,
/// so the observability layer can expose per-rule fire/veto counters. A
/// rule that matched but whose rewrite the cost model rejected is
/// invisible in the firing log; this probe is the only trace it leaves.
#[derive(Debug, Default)]
pub struct VetoProbe(std::cell::RefCell<Vec<&'static str>>);

impl VetoProbe {
    /// Record that `rule` matched but was vetoed by the cost gate.
    pub fn record(&self, rule: &'static str) {
        self.0.borrow_mut().push(rule);
    }

    /// Drain the recorded vetoes (rule names, in veto order).
    pub fn take(&self) -> Vec<&'static str> {
        std::mem::take(&mut self.0.borrow_mut())
    }
}

/// Context handed to every rule application.
pub struct RuleContext<'a> {
    /// Statistics for cost-gated rules.
    pub stats: &'a Statistics,
    /// When true, group/aggregate selection fire only if the cost model
    /// prefers the rewrite; when false they fire whenever they match
    /// (used by the Table 1 sweeps to measure the rule itself).
    pub cost_gate: bool,
    /// Optional veto recorder; rules call
    /// [`record_veto`](RuleContext::record_veto) when the cost gate
    /// rejects a matching rewrite.
    pub vetoes: Option<&'a VetoProbe>,
    /// Optional claim recorder; rules call
    /// [`claim`](RuleContext::claim) for every derived property their
    /// side conditions consumed.
    pub claims: Option<&'a ClaimProbe>,
}

impl<'a> RuleContext<'a> {
    /// A bare context: no cost gate, no veto probe, no claim probe.
    pub fn new(stats: &'a Statistics) -> Self {
        RuleContext { stats, cost_gate: false, vetoes: None, claims: None }
    }

    /// Note a cost-gate veto of `rule` (no-op without a probe).
    pub fn record_veto(&self, rule: &'static str) {
        if let Some(probe) = self.vetoes {
            probe.record(rule);
        }
    }

    /// Derive plan properties against the catalog facts behind the
    /// statistics. This is how rule side conditions consult the
    /// analyzer.
    pub fn derive(&self, plan: &LogicalPlan) -> PlanProperties {
        xmlpub_analysis::derive(plan, self.stats.catalog_properties())
    }

    /// Record a consumed side condition (no-op without a probe).
    pub fn claim(&self, claim: Claim) {
        if let Some(probe) = self.claims {
            probe.record(claim);
        }
    }
}

/// A transformation rule.
pub trait Rule {
    /// Stable rule name (appears in firing logs and EXPERIMENTS.md).
    fn name(&self) -> &'static str;
    /// Try to rewrite the subtree rooted at `plan`.
    fn apply(&self, plan: &LogicalPlan, ctx: &RuleContext<'_>) -> Option<LogicalPlan>;
}
