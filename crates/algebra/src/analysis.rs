//! Static analyses over per-group queries (paper §4.1 and §4.3).
//!
//! All five analyses answer questions *in terms of the group's schema*
//! (the columns of the `$group` temporary relation):
//!
//! * [`covering_range`] — the selection condition σ such that
//!   `PGQ($gp) = PGQ(σ($gp))` (Theorem 1). Used by the
//!   *Placing Selections Before GApply* rule.
//! * [`empty_on_empty`] — does `PGQ(∅) = ∅`? The side condition of the
//!   same rule: only then may the covering range move to the outer query.
//! * [`gp_eval_columns`] — the columns *needed to evaluate* the per-group
//!   query (§4.3): selection columns, grouping keys, aggregated and
//!   ordering columns — but **not** plainly projected columns, which "could
//!   potentially be obtained by performing joins later".
//! * [`used_columns`] — the *live* group columns: the gp-eval columns
//!   plus the columns the PGQ's output depends on. A projection item no
//!   ancestor reads keeps nothing alive. This drives the
//!   *Placing Projections Before GApply* rule.
//! * [`adapted_pgq`] — rewrite a PGQ against a narrower group schema,
//!   "eliminating the columns not available at n from all project lists"
//!   (§4.3), for the invariant-grouping rule.
//!
//! Columns inside a PGQ are positional, so each analysis threads a
//! mapping from a node's output columns back to group-scan columns:
//! a *direct map* (`Vec<Option<usize>>`, exact pass-through) for rewriting
//! predicates, and a *dependency map* (`Vec<ColumnSet>`, which scan
//! columns feed each output) for column accounting. The dependency map
//! and the gp-eval columns come from one bottom-up walk, which
//! [`dependency_map`], [`gp_eval_columns`] and [`used_columns`] read.
//!
//! The direct map is one reading of the crate's single column-lineage
//! walk, [`lineage`], which traces any plan's columns to base-table or
//! `$group` columns. The lint's column-provenance check reads it too, and
//! [`follows_foreign_key`] — the one test of whether a join follows a
//! declared foreign key (Definition 2, condition 3) — reads it per scan
//! through [`scan_lineage`].

use crate::catalog::ResolvedForeignKey;
use crate::plan::{ApplyMode, LogicalPlan, ProjectItem, SortKey};
use xmlpub_common::{ColumnSet, Schema};
use xmlpub_expr::{AggExpr, Expr};

// ---------------------------------------------------------------------
// Column mappings
// ---------------------------------------------------------------------

/// A provable source of a column: base table (lowercased) or [`GROUP`]
/// plus the column's position within it.
pub type Origin = (String, usize);

/// The table name [`lineage`] gives the `$group` temporary relation.
pub const GROUP: &str = "$group";

/// Column lineage: for each output column of `plan`, the base-table or
/// `$group` column it passes through from unchanged, if any. The trace
/// follows selections, `distinct`, `order by`, bare-column projection
/// items, join and apply concatenation, group-by keys, GApply group
/// columns and the per-group outputs that pass a group column through,
/// and union-all branches that agree. Aggregates, computed expressions
/// and the NULL-padded side of an outer join or a left-outer or scalar
/// apply trace to `None`.
pub fn lineage(plan: &LogicalPlan) -> Vec<Option<Origin>> {
    lineage_by(plan, &|leaf, i| match leaf {
        LogicalPlan::Scan { table, .. } => Some((table.to_ascii_lowercase(), i)),
        _ => Some((GROUP.to_string(), i)),
    })
}

/// For each output column of `plan` (a per-group query node), the group
/// scan column it passes through unchanged, if any: the [`GROUP`]
/// entries of [`lineage`].
pub fn direct_map(plan: &LogicalPlan) -> Vec<Option<usize>> {
    lineage_by(plan, &|leaf, i| matches!(leaf, LogicalPlan::GroupScan { .. }).then_some(i))
}

/// One column of one scan node: [`lineage`] told apart per scan, so the
/// two copies of a table in a self-join stay two sources.
#[derive(Debug, Clone, Copy)]
pub struct ScanColumn<'p> {
    scan: &'p LogicalPlan,
    table: &'p str,
    column: usize,
}

impl PartialEq for ScanColumn<'_> {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.scan, other.scan) && self.column == other.column
    }
}

/// [`lineage`] at the granularity of scan nodes; `$group` columns trace
/// to `None`. The input of [`follows_foreign_key`].
pub fn scan_lineage(plan: &LogicalPlan) -> Vec<Option<ScanColumn<'_>>> {
    lineage_by(plan, &|leaf, column| match leaf {
        LogicalPlan::Scan { table, .. } => Some(ScanColumn { scan: leaf, table, column }),
        _ => None,
    })
}

/// The one column-lineage walk behind [`lineage`], [`direct_map`] and
/// [`scan_lineage`]; `leaf` labels column `i` of a scan or group scan.
fn lineage_by<'p, T: Clone + PartialEq>(
    plan: &'p LogicalPlan,
    leaf: &dyn Fn(&'p LogicalPlan, usize) -> Option<T>,
) -> Vec<Option<T>> {
    match plan {
        LogicalPlan::Scan { schema, .. } | LogicalPlan::GroupScan { schema } => {
            (0..schema.len()).map(|i| leaf(plan, i)).collect()
        }
        LogicalPlan::Select { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::OrderBy { input, .. } => lineage_by(input, leaf),
        LogicalPlan::Project { input, items } => {
            let inner = lineage_by(input, leaf);
            items
                .iter()
                .map(|it| match &it.expr {
                    Expr::Column(i) => inner.get(*i).cloned().flatten(),
                    _ => None,
                })
                .collect()
        }
        LogicalPlan::Join { left, right, .. }
        | LogicalPlan::Apply { outer: left, inner: right, mode: ApplyMode::Cross } => {
            let mut out = lineage_by(left, leaf);
            out.extend(lineage_by(right, leaf));
            out
        }
        // A NULL-padded side may carry a NULL its base column never
        // held, so a foreign key there does not promise a match.
        LogicalPlan::LeftOuterJoin { left, right, .. }
        | LogicalPlan::Apply { outer: left, inner: right, .. } => {
            let mut out = lineage_by(left, leaf);
            out.extend(std::iter::repeat_n(None, right.arity()));
            out
        }
        LogicalPlan::GroupBy { input, keys, aggs } => {
            let inner = lineage_by(input, leaf);
            let mut out: Vec<Option<T>> =
                keys.iter().map(|&k| inner.get(k).cloned().flatten()).collect();
            out.extend(std::iter::repeat_n(None, aggs.len()));
            out
        }
        LogicalPlan::GApply { input, group_cols, pgq } => {
            // Per-group outputs that pass a group column through inherit
            // the grouped input's lineage there.
            let inner = lineage_by(input, leaf);
            let at = |c: Option<usize>| c.and_then(|c| inner.get(c).cloned().flatten());
            group_cols
                .iter()
                .map(|&c| at(Some(c)))
                .chain(direct_map(pgq).into_iter().map(at))
                .collect()
        }
        LogicalPlan::ScalarAgg { aggs, .. } => vec![None; aggs.len()],
        LogicalPlan::UnionAll { inputs } => {
            let mut branches = inputs.iter().map(|b| lineage_by(b, leaf));
            let Some(first) = branches.next() else {
                return vec![];
            };
            branches.fold(first, |acc, b| {
                acc.into_iter().zip(b).map(|(a, b)| if a == b { a } else { None }).collect()
            })
        }
        LogicalPlan::Exists { .. } => vec![],
    }
}

/// Whether a join follows a declared foreign key: some foreign key of a
/// left scan's table maps each of its columns, pair by pair, onto the
/// referenced key column of one right scan of the referenced table.
/// `left` and `right` are the two sides' [`scan_lineage`], `pairs` the
/// `(left column, right-local column)` equi-pairs of
/// [`xmlpub_expr::split_equi_join`], and `foreign_keys` the resolved
/// foreign keys of a table. This is the one foreign-key test: the binder
/// sets `fk_left_to_right` with it, join reorder flags the joins it
/// builds with it, and property derivation reads join totality off it.
pub fn follows_foreign_key<'c>(
    left: &[Option<ScanColumn<'_>>],
    right: &[Option<ScanColumn<'_>>],
    pairs: &[(usize, usize)],
    foreign_keys: impl Fn(&str) -> &'c [ResolvedForeignKey],
) -> bool {
    let traced: Vec<(ScanColumn, ScanColumn)> =
        pairs.iter().filter_map(|&(l, r)| Some(((*left.get(l)?)?, (*right.get(r)?)?))).collect();
    traced.iter().any(|(l, r)| {
        foreign_keys(l.table).iter().any(|fk| {
            fk.ref_table.eq_ignore_ascii_case(r.table)
                && fk.columns.iter().zip(&fk.ref_columns).all(|(&c, &rc)| {
                    traced.contains(&(
                        ScanColumn { column: c, ..*l },
                        ScanColumn { column: rc, ..*r },
                    ))
                })
        })
    })
}

/// For each output column of `plan`, the set of group-scan columns it
/// depends on (empty for literals and columns synthesised out of nothing).
pub fn dependency_map(plan: &LogicalPlan) -> Vec<ColumnSet> {
    column_use(plan).deps
}

/// The group columns one subtree uses: what [`column_use`] computes.
struct ColumnUse {
    /// Per output column, the group-scan columns it depends on.
    deps: Vec<ColumnSet>,
    /// The gp-eval columns of the subtree.
    eval: ColumnSet,
}

/// The one bottom-up walk behind [`dependency_map`], [`gp_eval_columns`]
/// and [`used_columns`]: every node reads its children's dependency
/// maps to add the columns it evaluates.
fn column_use(plan: &LogicalPlan) -> ColumnUse {
    let leaf = |deps| ColumnUse { deps, eval: ColumnSet::new() };
    match plan {
        LogicalPlan::GroupScan { schema } => {
            leaf((0..schema.len()).map(|i| ColumnSet::from_iter_cols([i])).collect())
        }
        LogicalPlan::Scan { schema, .. } => leaf(vec![ColumnSet::new(); schema.len()]),
        LogicalPlan::Select { input, predicate } => {
            let mut u = column_use(input);
            u.eval = u.eval.union(&deps_of_expr(predicate, &u.deps));
            u
        }
        LogicalPlan::OrderBy { input, keys } => {
            let mut u = column_use(input);
            for k in keys {
                u.eval = u.eval.union(&deps_of_expr(&k.expr, &u.deps));
            }
            u
        }
        LogicalPlan::Distinct { input } => {
            // Distinct compares its input values, so they are needed to
            // evaluate it. (A conservative extension of the paper's list,
            // which does not treat distinct explicitly.)
            let mut u = column_use(input);
            u.eval = u.deps.iter().fold(u.eval, |acc, d| acc.union(d));
            u
        }
        LogicalPlan::Project { input, items } => {
            let child = column_use(input);
            let deps = items.iter().map(|it| deps_of_expr(&it.expr, &child.deps)).collect();
            ColumnUse { deps, eval: child.eval }
        }
        LogicalPlan::GroupBy { input, keys, aggs } => {
            let child = column_use(input);
            let keys: Vec<ColumnSet> =
                keys.iter().map(|&k| child.deps.get(k).cloned().unwrap_or_default()).collect();
            let aggs = agg_deps(aggs, &child.deps);
            let eval = keys.iter().chain(&aggs).fold(child.eval, |acc, d| acc.union(d));
            ColumnUse { deps: keys.into_iter().chain(aggs).collect(), eval }
        }
        LogicalPlan::ScalarAgg { input, aggs } => {
            let child = column_use(input);
            let deps = agg_deps(aggs, &child.deps);
            let eval = deps.iter().fold(child.eval, |acc, d| acc.union(d));
            ColumnUse { deps, eval }
        }
        LogicalPlan::UnionAll { inputs } => {
            let mut branches = inputs.iter().map(column_use);
            let Some(first) = branches.next() else {
                return leaf(vec![]);
            };
            branches.fold(first, |acc, b| ColumnUse {
                deps: acc.deps.into_iter().zip(b.deps).map(|(a, b)| a.union(&b)).collect(),
                eval: acc.eval.union(&b.eval),
            })
        }
        LogicalPlan::Apply { outer, inner, .. } => {
            let (mut o, i) = (column_use(outer), column_use(inner));
            // The outer columns the inner reads through correlated
            // references are needed to evaluate it, like selection columns.
            let correlated = deps_of_columns(&inner.outer_columns(0), &o.deps);
            o.eval = o.eval.union(&i.eval).union(&correlated);
            o.deps.extend(i.deps);
            o
        }
        LogicalPlan::Exists { input, .. } => {
            ColumnUse { deps: vec![], eval: column_use(input).eval }
        }
        LogicalPlan::Join { left, right, .. } | LogicalPlan::LeftOuterJoin { left, right, .. } => {
            let (mut l, r) = (column_use(left), column_use(right));
            l.eval = l.eval.union(&r.eval);
            l.deps.extend(r.deps);
            l
        }
        LogicalPlan::GApply { .. } => leaf(vec![]),
    }
}

/// Per aggregate, the group-scan columns its argument depends on.
fn agg_deps(aggs: &[AggExpr], child: &[ColumnSet]) -> Vec<ColumnSet> {
    aggs.iter()
        .map(|a| a.arg.as_ref().map(|e| deps_of_expr(e, child)).unwrap_or_default())
        .collect()
}

fn deps_of_expr(expr: &Expr, child: &[ColumnSet]) -> ColumnSet {
    deps_of_columns(&expr.columns(), child)
}

fn deps_of_columns(cols: &ColumnSet, child: &[ColumnSet]) -> ColumnSet {
    let mut out = ColumnSet::new();
    for c in cols.iter() {
        if let Some(d) = child.get(c) {
            out = out.union(d);
        }
    }
    out
}

// ---------------------------------------------------------------------
// Covering ranges (§4.1)
// ---------------------------------------------------------------------

/// Does the subtree contain an `apply`, `groupby` or `aggregate`? A
/// selection above one of these contributes nothing to the covering
/// range (its condition may depend on the *whole* group through the
/// blocked computation below it).
pub fn has_blocking_descendant(plan: &LogicalPlan) -> bool {
    plan.any_node(&|p| {
        matches!(
            p,
            LogicalPlan::Apply { .. } | LogicalPlan::GroupBy { .. } | LogicalPlan::ScalarAgg { .. }
        )
    })
}

/// Compute the covering range of a per-group query: a predicate over the
/// group schema such that running the PGQ on the σ-filtered group equals
/// running it on the whole group (Theorem 1). `Expr::Literal(true)` means
/// "the whole group".
///
/// Per the paper: scan → `true`; select → child's range ANDed with its
/// condition unless it has an apply/groupby/aggregate descendant (then
/// child's range); other unary operators → child's range; apply and
/// union(all) → disjunction of the children's ranges. A select condition
/// participates only when it rewrites cleanly onto group-scan columns and
/// is uncorrelated — otherwise it is conservatively ignored (range stays
/// the child's, which is always sound).
pub fn covering_range(pgq: &LogicalPlan) -> Expr {
    match pgq {
        LogicalPlan::GroupScan { .. } | LogicalPlan::Scan { .. } => Expr::lit(true),
        LogicalPlan::Select { input, predicate } => {
            let child = covering_range(input);
            if has_blocking_descendant(input) {
                return child;
            }
            let map = direct_map(input);
            match rewrite_onto_scan(predicate, &map) {
                Some(cond) => and_range(child, cond),
                None => child,
            }
        }
        LogicalPlan::Project { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::OrderBy { input, .. }
        | LogicalPlan::GroupBy { input, .. }
        | LogicalPlan::ScalarAgg { input, .. }
        | LogicalPlan::Exists { input, .. } => covering_range(input),
        LogicalPlan::UnionAll { inputs } => or_ranges(inputs.iter().map(covering_range).collect()),
        LogicalPlan::Apply { outer, inner, .. } => {
            or_ranges(vec![covering_range(outer), covering_range(inner)])
        }
        // Join/GApply cannot occur inside a valid PGQ; whole group is safe.
        _ => Expr::lit(true),
    }
}

/// Rewrite a predicate so it reads group-scan columns directly, if every
/// referenced column is a clean pass-through and nothing is correlated.
fn rewrite_onto_scan(pred: &Expr, map: &[Option<usize>]) -> Option<Expr> {
    if pred.has_correlated() {
        return None;
    }
    pred.remap_columns(&|c| map.get(c).copied().flatten())
}

fn and_range(a: Expr, b: Expr) -> Expr {
    let true_lit = Expr::lit(true);
    if a == true_lit {
        return b;
    }
    if b == true_lit {
        return a;
    }
    a.and(b)
}

fn or_ranges(ranges: Vec<Expr>) -> Expr {
    // true ∨ anything = true: if any child needs the whole group, so do we.
    if ranges.iter().any(|r| *r == Expr::lit(true)) {
        return Expr::lit(true);
    }
    let mut it = ranges.into_iter();
    let first = it.next().unwrap_or_else(|| Expr::lit(true));
    it.fold(first, |acc, r| acc.or(r))
}

// ---------------------------------------------------------------------
// emptyOnEmpty (§4.1)
// ---------------------------------------------------------------------

/// Does the per-group query produce an empty output on an empty input?
/// (The `emptyOnEmpty` bit of §4.1. An `aggregate` breaks the property —
/// `count(*)` over ∅ returns a row — while every other operator preserves
/// it; `apply` looks only at its outer child; unions need all branches.)
pub fn empty_on_empty(pgq: &LogicalPlan) -> bool {
    match pgq {
        LogicalPlan::GroupScan { .. } | LogicalPlan::Scan { .. } => true,
        LogicalPlan::Select { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::GroupBy { input, .. }
        | LogicalPlan::OrderBy { input, .. }
        | LogicalPlan::Exists { input, negated: false } => empty_on_empty(input),
        // NOT EXISTS of an empty input yields the unit tuple.
        LogicalPlan::Exists { negated: true, .. } => false,
        LogicalPlan::ScalarAgg { .. } => false,
        LogicalPlan::Apply { outer, .. } => empty_on_empty(outer),
        LogicalPlan::UnionAll { inputs } => inputs.iter().all(empty_on_empty),
        _ => false,
    }
}

// ---------------------------------------------------------------------
// gp-eval columns and used columns (§4.3)
// ---------------------------------------------------------------------

/// The gp-eval columns of a per-group query: group columns needed to
/// *evaluate* it (selection, grouping, aggregation, ordering columns),
/// excluding plainly projected pass-throughs.
pub fn gp_eval_columns(pgq: &LogicalPlan) -> ColumnSet {
    column_use(pgq).eval
}

/// The live group columns of a PGQ: its gp-eval columns plus the group
/// columns its output depends on. A column that only feeds projection
/// items no ancestor reads (such as the binder's all-columns `Project`
/// under a scalar aggregate) is dead. Grouping columns are *not*
/// implicitly included — the caller (the projection-before-GApply rule)
/// adds them.
pub fn used_columns(pgq: &LogicalPlan) -> ColumnSet {
    let u = column_use(pgq);
    u.deps.iter().fold(u.eval, |acc, d| acc.union(d))
}

// ---------------------------------------------------------------------
// Adapted per-group query (§4.3)
// ---------------------------------------------------------------------

/// Rewrite a per-group query against a narrower group schema.
///
/// `base_map[i]` gives the new group-scan index of old group column `i`
/// (`None` when the column is unavailable at the push-down target node).
/// Per §4.3, unavailable columns are eliminated from project lists; any
/// other use of an unavailable column (selection, aggregation, grouping,
/// ordering, distinct input, or a correlated reference) makes the
/// adaptation fail (`None`) — in a correct invariant-grouping firing this
/// cannot happen because gp-eval ⊆ available is checked first.
pub fn adapted_pgq(
    pgq: &LogicalPlan,
    base_map: &[Option<usize>],
    new_schema: &Schema,
) -> Option<LogicalPlan> {
    adapt(pgq, base_map, new_schema, &mut Vec::new()).map(|(p, _)| p)
}

/// Like [`adapted_pgq`], but also returns the mapping from the original
/// per-group query's output columns to the adapted one's (`None` marks a
/// dropped projection item). The invariant-grouping rule uses the map to
/// re-attach dropped columns above the re-ordered joins.
pub fn adapted_pgq_with_map(
    pgq: &LogicalPlan,
    base_map: &[Option<usize>],
    new_schema: &Schema,
) -> Option<(LogicalPlan, Vec<Option<usize>>)> {
    adapt(pgq, base_map, new_schema, &mut Vec::new())
}

/// For each output column of an old plan node, its position in the
/// rewritten node (`None`: the column was dropped).
pub type ColMap = Vec<Option<usize>>;

/// Recursive adaptation. Returns the new plan and the mapping from the
/// old node's output columns to the new node's output columns.
/// `corr_stack` holds the output mappings of enclosing applies' outer
/// sides, for remapping `Expr::Correlated` references.
fn adapt(
    plan: &LogicalPlan,
    base_map: &[Option<usize>],
    new_schema: &Schema,
    corr_stack: &mut Vec<ColMap>,
) -> Option<(LogicalPlan, ColMap)> {
    match plan {
        LogicalPlan::GroupScan { .. } => {
            Some((LogicalPlan::group_scan(new_schema.clone()), base_map.to_vec()))
        }
        LogicalPlan::Select { input, predicate } => {
            let (child, map) = adapt(input, base_map, new_schema, corr_stack)?;
            let pred = remap_full(predicate, &map, corr_stack)?;
            Some((child.select(pred), map))
        }
        LogicalPlan::Project { input, items } => {
            let (child, map) = adapt(input, base_map, new_schema, corr_stack)?;
            let mut new_items = Vec::new();
            let mut out_map: ColMap = Vec::with_capacity(items.len());
            for it in items {
                match remap_full(&it.expr, &map, corr_stack) {
                    Some(e) => {
                        out_map.push(Some(new_items.len()));
                        new_items.push(ProjectItem { expr: e, alias: it.alias.clone() });
                    }
                    // §4.3: eliminate columns not available at n from
                    // project lists.
                    None => out_map.push(None),
                }
            }
            if new_items.is_empty() {
                return None;
            }
            Some((child.project(new_items), out_map))
        }
        LogicalPlan::Distinct { input } => {
            let (child, map) = adapt(input, base_map, new_schema, corr_stack)?;
            // Dropping a column under DISTINCT would change multiplicities.
            if map.iter().any(|m| m.is_none()) {
                return None;
            }
            Some((child.distinct(), map))
        }
        LogicalPlan::OrderBy { input, keys } => {
            let (child, map) = adapt(input, base_map, new_schema, corr_stack)?;
            let new_keys = keys
                .iter()
                .map(|k| {
                    remap_full(&k.expr, &map, corr_stack).map(|expr| SortKey { expr, asc: k.asc })
                })
                .collect::<Option<Vec<_>>>()?;
            Some((child.order_by(new_keys), map))
        }
        LogicalPlan::GroupBy { input, keys, aggs } => {
            let (child, map) = adapt(input, base_map, new_schema, corr_stack)?;
            let new_keys =
                keys.iter().map(|&k| map.get(k).copied().flatten()).collect::<Option<Vec<_>>>()?;
            let new_aggs =
                aggs.iter().map(|a| remap_agg(a, &map, corr_stack)).collect::<Option<Vec<_>>>()?;
            let out_len = new_keys.len() + new_aggs.len();
            Some((child.group_by(new_keys, new_aggs), (0..out_len).map(Some).collect()))
        }
        LogicalPlan::ScalarAgg { input, aggs } => {
            let (child, map) = adapt(input, base_map, new_schema, corr_stack)?;
            let new_aggs =
                aggs.iter().map(|a| remap_agg(a, &map, corr_stack)).collect::<Option<Vec<_>>>()?;
            let n = new_aggs.len();
            Some((child.scalar_agg(new_aggs), (0..n).map(Some).collect()))
        }
        LogicalPlan::UnionAll { inputs } => {
            let mut branches = Vec::with_capacity(inputs.len());
            let mut common: Option<ColMap> = None;
            for b in inputs {
                let (nb, m) = adapt(b, base_map, new_schema, corr_stack)?;
                match &common {
                    None => common = Some(m),
                    // All branches must drop the same output positions or
                    // the union stops lining up.
                    Some(c) => {
                        let same_mask = c.len() == m.len()
                            && c.iter().zip(&m).all(|(a, b)| a.is_some() == b.is_some());
                        if !same_mask {
                            return None;
                        }
                    }
                }
                branches.push(nb);
            }
            Some((LogicalPlan::union_all(branches), common?))
        }
        LogicalPlan::Apply { outer, inner, mode } => {
            let (new_outer, outer_map) = adapt(outer, base_map, new_schema, corr_stack)?;
            corr_stack.push(outer_map.clone());
            let inner_result = adapt(inner, base_map, new_schema, corr_stack);
            corr_stack.pop();
            let (new_inner, inner_map) = inner_result?;
            let outer_new_len = outer_map.iter().filter(|m| m.is_some()).count();
            let mut out_map = outer_map;
            out_map.extend(inner_map.into_iter().map(|m| m.map(|j| j + outer_new_len)));
            Some((new_outer.apply(new_inner, *mode), out_map))
        }
        LogicalPlan::Exists { input, negated } => {
            let (child, _) = adapt(input, base_map, new_schema, corr_stack)?;
            let plan = if *negated { child.not_exists() } else { child.exists() };
            Some((plan, vec![]))
        }
        // Scan/Join/GApply do not occur inside a valid PGQ.
        _ => None,
    }
}

/// Remap local column references through `local` and correlated ones
/// through `corr_stack`, the column maps of the enclosing applies' outer
/// sides (innermost last); `None` if anything references a dropped
/// column.
pub fn remap_full(expr: &Expr, local: &ColMap, corr_stack: &[ColMap]) -> Option<Expr> {
    let ok = std::cell::Cell::new(true);
    let out = expr.clone().transform(&|e| match e {
        Expr::Column(i) => match local.get(i).copied().flatten() {
            Some(j) => Expr::Column(j),
            None => {
                ok.set(false);
                Expr::Column(i)
            }
        },
        Expr::Correlated { level, index } => {
            // corr_stack is innermost-last; level 0 = last entry. A level
            // beyond the stack refers to an apply outside this PGQ and
            // stays untouched.
            match corr_stack.len().checked_sub(1 + level) {
                Some(pos) => match corr_stack[pos].get(index).copied().flatten() {
                    Some(j) => Expr::Correlated { level, index: j },
                    None => {
                        ok.set(false);
                        Expr::Correlated { level, index }
                    }
                },
                None => Expr::Correlated { level, index },
            }
        }
        other => other,
    });
    ok.get().then_some(out)
}

/// [`remap_full`] over an aggregate's argument.
pub fn remap_agg(
    agg: &xmlpub_expr::AggExpr,
    local: &ColMap,
    corr_stack: &[ColMap],
) -> Option<xmlpub_expr::AggExpr> {
    let arg = match &agg.arg {
        Some(a) => Some(remap_full(a, local, corr_stack)?),
        None => None,
    };
    Some(xmlpub_expr::AggExpr { func: agg.func, arg, output_name: agg.output_name.clone() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{null_item, ApplyMode};
    use xmlpub_common::{DataType, Field};
    use xmlpub_expr::predicate::equivalent;
    use xmlpub_expr::AggExpr;

    /// Group schema used throughout: the partsupp ⋈ part join output.
    fn gschema() -> Schema {
        Schema::new(vec![
            Field::new("ps_suppkey", DataType::Int),
            Field::new("ps_partkey", DataType::Int),
            Field::new("p_partkey", DataType::Int),
            Field::new("p_name", DataType::Str),
            Field::new("p_brand", DataType::Str),
            Field::new("p_retailprice", DataType::Float),
        ])
    }

    fn gs() -> LogicalPlan {
        LogicalPlan::group_scan(gschema())
    }

    const PRICE: usize = 5;
    const BRAND: usize = 4;
    const NAME: usize = 3;

    /// The paper's Figure 3 per-group query: parts of brand A priced above
    /// the average price of brand-B parts.
    fn figure3_pgq() -> LogicalPlan {
        let brand_a = gs().select(Expr::col(BRAND).eq(Expr::lit("Brand#A")));
        let avg_b = gs()
            .select(Expr::col(BRAND).eq(Expr::lit("Brand#B")))
            .scalar_agg(vec![AggExpr::avg(Expr::col(PRICE), "avgb")]);
        brand_a
            .apply(avg_b, ApplyMode::Cross)
            .select(Expr::col(PRICE).gt(Expr::col(6)))
            .project(vec![ProjectItem::col(NAME), ProjectItem::col(PRICE)])
    }

    #[test]
    fn covering_range_of_plain_scan_is_true() {
        assert_eq!(covering_range(&gs()), Expr::lit(true));
    }

    #[test]
    fn covering_range_collects_select_condition() {
        let p = gs().select(Expr::col(PRICE).gt(Expr::lit(100.0)));
        assert_eq!(covering_range(&p), Expr::col(PRICE).gt(Expr::lit(100.0)));
    }

    #[test]
    fn covering_range_ands_stacked_selects() {
        let p = gs()
            .select(Expr::col(PRICE).gt(Expr::lit(100.0)))
            .select(Expr::col(BRAND).eq(Expr::lit("B")));
        let r = covering_range(&p);
        assert!(equivalent(
            &r,
            &Expr::col(PRICE).gt(Expr::lit(100.0)).and(Expr::col(BRAND).eq(Expr::lit("B")))
        ));
    }

    #[test]
    fn covering_range_figure3_is_brand_a_or_brand_b() {
        // The paper's own example: range = brand=A ∨ brand=B; the price
        // comparison above the apply contributes nothing.
        let r = covering_range(&figure3_pgq());
        let expected =
            Expr::col(BRAND).eq(Expr::lit("Brand#A")).or(Expr::col(BRAND).eq(Expr::lit("Brand#B")));
        assert!(equivalent(&r, &expected), "got {r:?}");
    }

    #[test]
    fn covering_range_union_is_disjunction() {
        let u = LogicalPlan::union_all(vec![
            gs().select(Expr::col(BRAND).eq(Expr::lit("A"))).project_cols(&[NAME]),
            gs().select(Expr::col(BRAND).eq(Expr::lit("B"))).project_cols(&[NAME]),
        ]);
        let r = covering_range(&u);
        assert!(equivalent(
            &r,
            &Expr::col(BRAND).eq(Expr::lit("A")).or(Expr::col(BRAND).eq(Expr::lit("B")))
        ));
    }

    #[test]
    fn covering_range_union_with_unfiltered_branch_is_true() {
        let u = LogicalPlan::union_all(vec![
            gs().select(Expr::col(BRAND).eq(Expr::lit("A"))).project_cols(&[NAME]),
            gs().project_cols(&[NAME]),
        ]);
        assert_eq!(covering_range(&u), Expr::lit(true));
    }

    #[test]
    fn covering_range_select_above_aggregate_ignored() {
        let p = gs()
            .scalar_agg(vec![AggExpr::avg(Expr::col(PRICE), "a")])
            .select(Expr::col(0).gt(Expr::lit(10)));
        assert_eq!(covering_range(&p), Expr::lit(true));
    }

    #[test]
    fn covering_range_condition_through_projection() {
        // A select above a renaming projection still rewrites onto the
        // scan when the referenced column is a pass-through.
        let p = gs()
            .project(vec![ProjectItem::col(PRICE), ProjectItem::col(BRAND)])
            .select(Expr::col(1).eq(Expr::lit("A")));
        assert_eq!(covering_range(&p), Expr::col(BRAND).eq(Expr::lit("A")));
    }

    #[test]
    fn covering_range_computed_column_ignored() {
        // price*2 > 10 references a computed column: not rewritable, so
        // the range stays `true`.
        let p = gs()
            .project(vec![ProjectItem::named(
                Expr::binary(xmlpub_expr::BinOp::Mul, Expr::col(PRICE), Expr::lit(2)),
                "double",
            )])
            .select(Expr::col(0).gt(Expr::lit(10)));
        assert_eq!(covering_range(&p), Expr::lit(true));
    }

    #[test]
    fn covering_range_correlated_condition_ignored() {
        let inner = gs().select(Expr::col(PRICE).gt(Expr::Correlated { level: 0, index: PRICE }));
        let p = gs().apply(inner.exists(), ApplyMode::Cross);
        // outer range true ∨ inner range true = true
        assert_eq!(covering_range(&p), Expr::lit(true));
    }

    #[test]
    fn empty_on_empty_basics() {
        assert!(empty_on_empty(&gs()));
        assert!(empty_on_empty(&gs().select(Expr::lit(true))));
        assert!(empty_on_empty(&gs().project_cols(&[0])));
        assert!(empty_on_empty(&gs().distinct()));
        assert!(empty_on_empty(&gs().group_by(vec![0], vec![AggExpr::count_star("c")])));
        assert!(!empty_on_empty(&gs().scalar_agg(vec![AggExpr::count_star("c")])));
    }

    #[test]
    fn empty_on_empty_union_needs_all_branches() {
        let good =
            LogicalPlan::union_all(vec![gs().project_cols(&[NAME]), gs().project_cols(&[NAME])]);
        assert!(empty_on_empty(&good));
        let bad = LogicalPlan::union_all(vec![
            gs().project_cols(&[NAME]),
            gs().scalar_agg(vec![AggExpr::count_star("c")]).project(vec![null_item("x")]),
        ]);
        assert!(!empty_on_empty(&bad));
    }

    #[test]
    fn empty_on_empty_apply_uses_outer_child() {
        // Q2 shape: apply over the group with a scalar-agg inner — outer
        // child is the scan, so the apply is emptyOnEmpty...
        let inner = gs().scalar_agg(vec![AggExpr::avg(Expr::col(PRICE), "a")]);
        let ap = gs().apply(inner, ApplyMode::Cross);
        assert!(empty_on_empty(&ap));
        // ...but a scalar aggregate on top breaks it.
        let full = ap.scalar_agg(vec![AggExpr::count_star("c")]);
        assert!(!empty_on_empty(&full));
    }

    #[test]
    fn empty_on_empty_exists_variants() {
        assert!(empty_on_empty(&gs().exists()));
        assert!(!empty_on_empty(&gs().not_exists()));
    }

    #[test]
    fn figure3_is_empty_on_empty() {
        // The Figure 3 PGQ's root chain is select→project over an apply
        // whose *outer* child is a scan: empty group in, empty result out,
        // so the brand range may move to the outer query.
        assert!(empty_on_empty(&figure3_pgq()));
    }

    #[test]
    fn gp_eval_collects_selection_and_aggregation_columns() {
        let e = gp_eval_columns(&figure3_pgq());
        // brand (both selects) and price (aggregated + compared) are
        // gp-eval; p_name is only projected, so it is not.
        assert!(e.contains(BRAND));
        assert!(e.contains(PRICE));
        assert!(!e.contains(NAME));
    }

    #[test]
    fn gp_eval_groupby_keys_count() {
        let p = gs().group_by(vec![1], vec![AggExpr::avg(Expr::col(PRICE), "a")]);
        let e = gp_eval_columns(&p);
        assert!(e.contains(1));
        assert!(e.contains(PRICE));
        assert!(!e.contains(NAME));
    }

    #[test]
    fn gp_eval_orderby_and_distinct() {
        let p = gs().project_cols(&[NAME, PRICE]).order_by(vec![SortKey::asc(1)]);
        let e = gp_eval_columns(&p);
        assert!(e.contains(PRICE));
        assert!(!e.contains(NAME));

        let d = gs().project_cols(&[NAME]).distinct();
        let e = gp_eval_columns(&d);
        assert!(e.contains(NAME));
    }

    #[test]
    fn used_columns_include_passthrough_projections() {
        let u = used_columns(&figure3_pgq());
        assert!(u.contains(NAME));
        assert!(u.contains(BRAND));
        assert!(u.contains(PRICE));
        assert!(!u.contains(0));
        assert!(!u.contains(1));
    }

    #[test]
    fn used_columns_of_bare_scan_is_everything() {
        assert_eq!(used_columns(&gs()), ColumnSet::all(gschema().len()));
    }

    #[test]
    fn used_columns_ignore_a_dead_computed_project_item() {
        // The `dead` item reads p_brand, but the aggregate above reads
        // only the price item, so p_brand is not live.
        let dead = Expr::col(BRAND).eq(Expr::lit("Brand#A"));
        let pgq = gs()
            .project(vec![ProjectItem::col(PRICE), ProjectItem::named(dead, "dead")])
            .scalar_agg(vec![AggExpr::avg(Expr::col(0), "a")]);
        assert_eq!(used_columns(&pgq).into_vec(), vec![PRICE]);
    }

    #[test]
    fn used_columns_keep_a_column_read_only_through_a_correlated_reference() {
        // The Exists-sweep shape with the outer row narrowed first: the
        // outer's column #1 (group column ps_partkey) is read only by the
        // inner's correlated reference, never by the outer side itself.
        let inner =
            gs().select(Expr::col(PRICE).gt(Expr::Correlated { level: 0, index: 1 })).exists();
        let pgq = gs().project_cols(&[NAME, 1]).apply(inner, ApplyMode::Cross).project_cols(&[0]);
        assert_eq!(used_columns(&pgq).into_vec(), vec![1, NAME, PRICE]);
        assert!(gp_eval_columns(&pgq).contains(1));
    }

    /// `σ(price op avg)` over the group applied to its own average, under
    /// the binder's all-columns `Project` (the Q2–Q4 per-group shape).
    fn compare_with_own_average(op: fn(Expr, Expr) -> Expr) -> LogicalPlan {
        let avg = gs().scalar_agg(vec![AggExpr::avg(Expr::col(PRICE), "avg")]);
        let all: Vec<usize> = (0..gschema().len()).collect();
        gs().apply(avg, ApplyMode::Scalar)
            .select(op(Expr::col(PRICE), Expr::col(gschema().len())))
            .project_cols(&all)
    }

    #[test]
    fn used_columns_of_the_q2_and_q4_shapes_are_the_read_columns() {
        // Q2: count the rows on either side of the group's average.
        let branch = |op, first: bool| {
            let count = ProjectItem::col(0);
            let items =
                if first { vec![count, null_item("b")] } else { vec![null_item("a"), count] };
            compare_with_own_average(op).scalar_agg(vec![AggExpr::count_star("n")]).project(items)
        };
        let q2 = LogicalPlan::union_all(vec![branch(Expr::gt_eq, true), branch(Expr::lt, false)]);
        assert_eq!(used_columns(&q2).into_vec(), vec![PRICE]);
        // Q4: the rows above the group's average, name and price.
        let q4 = compare_with_own_average(Expr::gt).project_cols(&[NAME, PRICE]);
        assert_eq!(used_columns(&q4).into_vec(), vec![NAME, PRICE]);
    }

    #[test]
    fn direct_map_through_operators() {
        let p = gs().project_cols(&[PRICE, BRAND]).select(Expr::lit(true));
        assert_eq!(direct_map(&p), vec![Some(PRICE), Some(BRAND)]);
        let g = gs().group_by(vec![0], vec![AggExpr::count_star("c")]);
        assert_eq!(direct_map(&g), vec![Some(0), None]);
        let sa = gs().scalar_agg(vec![AggExpr::count_star("c")]);
        assert_eq!(direct_map(&sa), vec![None]);
    }

    #[test]
    fn direct_map_union_requires_agreement() {
        let u = LogicalPlan::union_all(vec![
            gs().project_cols(&[NAME, PRICE]),
            gs().project_cols(&[NAME, BRAND]),
        ]);
        assert_eq!(direct_map(&u), vec![Some(NAME), None]);
    }

    #[test]
    fn fk_test_matches_pairs_within_one_scan() {
        // a(a1, a2) references b(b1, b2) as a whole.
        let int = |n: &str| Field::new(n, DataType::Int);
        let a = || LogicalPlan::scan("a", Schema::new(vec![int("a1"), int("a2")]));
        let b = LogicalPlan::scan("B", Schema::new(vec![int("b1"), int("b2")]));
        let fks = [ResolvedForeignKey {
            columns: vec![0, 1],
            ref_table: "b".into(),
            ref_columns: vec![0, 1],
        }];
        let fk = |left: &LogicalPlan, pairs: &[(usize, usize)]| {
            follows_foreign_key(&scan_lineage(left), &scan_lineage(&b), pairs, |t| {
                if t == "a" {
                    &fks[..]
                } else {
                    &[]
                }
            })
        };
        let single = a();
        assert!(fk(&single, &[(1, 1), (0, 0)]));
        assert!(!fk(&single, &[(0, 1), (1, 0)]), "crosswise pairs");
        assert!(!fk(&single, &[(0, 0)]), "half the key");
        // Each copy of `a` in a self-join supplies one of the two pairs:
        // no single row of `a` is equated with a row of `b`.
        let copies = a().join(a(), Expr::lit(true));
        assert!(!fk(&copies, &[(0, 0), (3, 1)]));
        assert!(fk(&copies, &[(2, 0), (3, 1)]));
        // Lineage reaches the scan through a derived table's renaming
        // projection and a group-by key.
        let renamed = a().group_by(vec![1, 0], vec![]).project(vec![
            ProjectItem::named(Expr::col(1), "x"),
            ProjectItem::named(Expr::col(0), "y"),
        ]);
        assert!(fk(&renamed, &[(0, 0), (1, 1)]));
    }

    fn narrow_schema() -> Schema {
        // Columns 0..4 survive (drop p_retailprice is NOT the case here;
        // we drop p_brand and p_retailprice to keep the test interesting).
        Schema::new(vec![
            Field::new("ps_suppkey", DataType::Int),
            Field::new("ps_partkey", DataType::Int),
            Field::new("p_partkey", DataType::Int),
            Field::new("p_name", DataType::Str),
        ])
    }

    #[test]
    fn adapted_pgq_drops_projected_columns() {
        // PGQ projects (p_name, p_brand); p_brand becomes unavailable.
        let pgq = gs().project_cols(&[NAME, BRAND]);
        let base: Vec<Option<usize>> = vec![Some(0), Some(1), Some(2), Some(3), None, None];
        let adapted = adapted_pgq(&pgq, &base, &narrow_schema()).unwrap();
        match &adapted {
            LogicalPlan::Project { items, .. } => {
                assert_eq!(items.len(), 1);
                assert_eq!(items[0].expr, Expr::col(3));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn adapted_pgq_fails_when_selection_needs_dropped_column() {
        let pgq = gs().select(Expr::col(BRAND).eq(Expr::lit("A"))).project_cols(&[NAME]);
        let base: Vec<Option<usize>> = vec![Some(0), Some(1), Some(2), Some(3), None, None];
        assert!(adapted_pgq(&pgq, &base, &narrow_schema()).is_none());
    }

    #[test]
    fn adapted_pgq_fails_under_distinct_drop() {
        let pgq = gs().project_cols(&[NAME, BRAND]).distinct();
        let base: Vec<Option<usize>> = vec![Some(0), Some(1), Some(2), Some(3), None, None];
        assert!(adapted_pgq(&pgq, &base, &narrow_schema()).is_none());
    }

    #[test]
    fn adapted_pgq_keeps_aggregation_when_columns_available() {
        // Figure 7 shape: PGQ keeps only columns present below the
        // supplier join (suppose s_name was old column 4/5 here — we use
        // brand/price as the stand-in and keep price available instead).
        let keep_price_schema = Schema::new(vec![
            Field::new("ps_suppkey", DataType::Int),
            Field::new("ps_partkey", DataType::Int),
            Field::new("p_partkey", DataType::Int),
            Field::new("p_name", DataType::Str),
            Field::new("p_retailprice", DataType::Float),
        ]);
        let base: Vec<Option<usize>> = vec![Some(0), Some(1), Some(2), Some(3), None, Some(4)];
        let pgq = gs().scalar_agg(vec![AggExpr::min(Expr::col(PRICE), "m")]);
        let adapted = adapted_pgq(&pgq, &base, &keep_price_schema).unwrap();
        match &adapted {
            LogicalPlan::ScalarAgg { aggs, .. } => {
                assert_eq!(aggs[0].arg, Some(Expr::col(4)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn adapted_pgq_union_branches_must_align() {
        let base: Vec<Option<usize>> = vec![Some(0), Some(1), Some(2), Some(3), None, None];
        // Both branches lose their second column → aligned.
        let u = LogicalPlan::union_all(vec![
            gs().project_cols(&[NAME, BRAND]),
            gs().project_cols(&[NAME, BRAND]),
        ]);
        assert!(adapted_pgq(&u, &base, &narrow_schema()).is_some());
        // One branch loses a column the other keeps → misaligned.
        let u = LogicalPlan::union_all(vec![
            gs().project_cols(&[NAME, BRAND]),
            gs().project_cols(&[NAME, NAME]),
        ]);
        assert!(adapted_pgq(&u, &base, &narrow_schema()).is_none());
    }

    #[test]
    fn adapted_pgq_identity_mapping_roundtrips() {
        let base: Vec<Option<usize>> = (0..gschema().len()).map(Some).collect();
        let pgq = figure3_pgq();
        let adapted = adapted_pgq(&pgq, &base, &gschema()).unwrap();
        assert_eq!(adapted, pgq);
    }

    #[test]
    fn adapted_pgq_remaps_correlated_refs() {
        let inner = gs().select(Expr::col(PRICE).gt(Expr::Correlated { level: 0, index: PRICE }));
        let pgq = gs().apply(inner.exists(), ApplyMode::Cross).project_cols(&[NAME]);
        // Keep everything but reorder: price moves from 5 to 0.
        let reordered = Schema::new(vec![
            Field::new("p_retailprice", DataType::Float),
            Field::new("ps_suppkey", DataType::Int),
            Field::new("ps_partkey", DataType::Int),
            Field::new("p_partkey", DataType::Int),
            Field::new("p_name", DataType::Str),
            Field::new("p_brand", DataType::Str),
        ]);
        let base: Vec<Option<usize>> = vec![Some(1), Some(2), Some(3), Some(4), Some(5), Some(0)];
        let adapted = adapted_pgq(&pgq, &base, &reordered).unwrap();
        // Dig out the correlated reference and check it now points at 0.
        let mut found = false;
        fn find_corr(p: &LogicalPlan, found: &mut bool) {
            if let LogicalPlan::Select { predicate, .. } = p {
                predicate.visit(&mut |e| {
                    if let Expr::Correlated { index, .. } = e {
                        assert_eq!(*index, 0);
                        *found = true;
                    }
                });
            }
            for c in p.children() {
                find_corr(c, found);
            }
        }
        find_corr(&adapted, &mut found);
        assert!(found);
    }
}
