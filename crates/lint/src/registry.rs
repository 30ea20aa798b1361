//! The lint pass trait and the registry that drives all passes.

use crate::context::{walk, Ambient};
use crate::diagnostic::{Diagnostic, PlanPath};
use xmlpub_algebra::LogicalPlan;
use xmlpub_analysis::{CatalogProperties, Claim};

/// One lint pass. A pass can inspect individual nodes of a plan
/// (`check_node`, called for every node of a walk) and/or a whole
/// rewrite (`check_rewrite`, called once per optimizer rule firing with
/// the subtree before and after the rule ran).
pub trait LintPass {
    /// Stable identifier of the pass (diagnostics may refine it, e.g.
    /// the side-condition pass emits per-rule `audit-*` ids).
    fn name(&self) -> &'static str;

    /// Inspect one node in its ambient context.
    fn check_node(
        &self,
        _node: &LogicalPlan,
        _ambient: &Ambient,
        _path: &PlanPath,
        _out: &mut Vec<Diagnostic>,
    ) {
    }

    /// Inspect one rewrite: `before` was replaced by `after` at a site
    /// whose context is `ambient`, by the optimizer rule named `rule`.
    fn check_rewrite(
        &self,
        _rule: &str,
        _before: &LogicalPlan,
        _after: &LogicalPlan,
        _ambient: &Ambient,
        _out: &mut Vec<Diagnostic>,
    ) {
    }

    /// Verify the property claims a rule firing recorded (see
    /// [`xmlpub_analysis::Claim`]). Only invoked through
    /// [`LintRegistry::lint_rewrite_claimed`]; passes that cannot judge
    /// claims keep the default no-op.
    fn check_claims(
        &self,
        _rule: &str,
        _before: &LogicalPlan,
        _after: &LogicalPlan,
        _claims: &[Claim],
        _out: &mut Vec<Diagnostic>,
    ) {
    }
}

/// An ordered collection of lint passes.
pub struct LintRegistry {
    passes: Vec<Box<dyn LintPass + Send + Sync>>,
}

impl Default for LintRegistry {
    /// Every built-in pass, in reporting order, with the properties
    /// pass seeded from no catalog facts (it still cross-checks
    /// rewrites; callers with a catalog should prefer
    /// [`LintRegistry::default_with_properties`]).
    fn default() -> Self {
        LintRegistry::default_with_properties(CatalogProperties::empty())
    }
}

impl LintRegistry {
    /// Every built-in pass, with the properties pass seeded from the
    /// given catalog constraint facts — the registry the optimizer uses
    /// so claim re-derivations see the same keys/FKs the rules did.
    pub fn default_with_properties(props: CatalogProperties) -> Self {
        LintRegistry {
            passes: vec![
                Box::new(crate::passes::Structure),
                Box::new(crate::passes::SchemaPreservation),
                Box::new(crate::passes::ColumnProvenance),
                Box::new(crate::passes::SideConditions),
                Box::new(crate::passes::Properties::new(props)),
            ],
        }
    }

    /// A registry with no passes; use `push` to build a custom set.
    pub fn empty() -> Self {
        LintRegistry { passes: Vec::new() }
    }

    /// Add a pass.
    pub fn push(&mut self, pass: Box<dyn LintPass + Send + Sync>) {
        self.passes.push(pass);
    }

    /// Lint a whole plan from the root context.
    pub fn lint_plan(&self, plan: &LogicalPlan) -> Vec<Diagnostic> {
        self.lint_plan_at(plan, &Ambient::root())
    }

    /// Lint a (sub)plan that sits in the given ambient context.
    pub fn lint_plan_at(&self, plan: &LogicalPlan, ambient: &Ambient) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        walk(plan, ambient, &PlanPath::root(), &mut |node, amb, path| {
            for pass in &self.passes {
                pass.check_node(node, amb, path, &mut out);
            }
        });
        sort_diagnostics(&mut out);
        out
    }

    /// Lint one rewrite: structural passes over the rewritten subtree
    /// plus every rewrite-level check. Paths in the result are relative
    /// to the rewrite site (the root of `after`).
    pub fn lint_rewrite(
        &self,
        rule: &str,
        before: &LogicalPlan,
        after: &LogicalPlan,
        ambient: &Ambient,
    ) -> Vec<Diagnostic> {
        let mut out = self.lint_plan_at(after, ambient);
        for pass in &self.passes {
            pass.check_rewrite(rule, before, after, ambient, &mut out);
        }
        sort_diagnostics(&mut out);
        out
    }

    /// [`lint_rewrite`](Self::lint_rewrite) plus verification of the
    /// property claims the firing recorded.
    pub fn lint_rewrite_claimed(
        &self,
        rule: &str,
        before: &LogicalPlan,
        after: &LogicalPlan,
        ambient: &Ambient,
        claims: &[Claim],
    ) -> Vec<Diagnostic> {
        let mut out = self.lint_rewrite(rule, before, after, ambient);
        for pass in &self.passes {
            pass.check_claims(rule, before, after, claims, &mut out);
        }
        sort_diagnostics(&mut out);
        out
    }
}

/// Errors before warnings; within a severity, keep discovery order
/// (stable sort), so the first diagnostic is the most actionable one.
fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by_key(|d| std::cmp::Reverse(d.severity));
}
