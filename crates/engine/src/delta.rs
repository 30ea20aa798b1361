//! Delta propagation: push base-table [`DeltaBatch`]es up a logical plan
//! to find out *which output rows could have changed*.
//!
//! The product of this module is deliberately modest — not a maintained
//! materialised view, but a conservative **touched-row superset**: every
//! output row of the old or new plan result that the applied deltas
//! could have added, removed, or altered appears in the propagated set
//! (possibly alongside rows that did not actually change). That is
//! exactly what incremental publishing needs, because the paper's
//! group-key discipline (§3) localises change: a group's subtree can
//! only differ if one of its input tuples does, so projecting the
//! touched rows onto the group keys yields the **dirty groups** — the
//! only subtrees the re-tagger has to recompute.
//!
//! Propagation rules (per operator, Δ = touched rows of the input):
//!
//! * `Scan(T)` — the appended ∪ deleted tuples of `T`'s delta;
//! * `Select(p)` — Δ filtered by `p` (a tuple failing `p` in both the
//!   old and new state cannot affect the output; appends and deletes
//!   are both present in Δ, so state flips are covered);
//! * `Project(e…)` — Δ mapped through the expressions;
//! * `Join(L, R)` — `ΔL ⋈ R_new ∪ L_new ⋈ ΔR ∪ ΔL ⋈ ΔR`, each term a
//!   hash join built on the *unchanged* side (and skipped entirely when
//!   the driving delta is empty — the common case where one table of a
//!   view churns and the rest hold still). The third term is what makes
//!   the rule sound when matching rows disappear from **both** sides at
//!   once: neither `R_new` nor `L_new` still holds the partner, but the
//!   deleted partners meet in `ΔL ⋈ ΔR`;
//! * `UnionAll` — concatenation; `OrderBy` — pass-through (the touched
//!   *set* is order-blind).
//!
//! Anything else (`GroupBy`, `Distinct`, `Apply`, aggregation — where a
//! delta's effect is not row-local) reports *unsupported* (`None`) and
//! the caller falls back to full recomputation. Correctness never
//! depends on propagation succeeding; only speed does.

use std::collections::{BTreeSet, HashMap};

use xmlpub_algebra::{Catalog, LogicalPlan};
use xmlpub_common::{DeltaBatch, Result, Tuple, Value};
use xmlpub_expr::{split_equi_join, Expr};

use crate::executor::execute_with_config;
use crate::planner::EngineConfig;

/// Per-table deltas for one propagation round, keyed by lower-cased
/// table name. Batches added for the same table merge in order.
#[derive(Debug, Clone, Default)]
pub struct TableDeltas {
    deltas: std::collections::BTreeMap<String, DeltaBatch>,
}

impl TableDeltas {
    /// No changes anywhere.
    pub fn new() -> Self {
        TableDeltas::default()
    }

    /// Record a batch against `table` (merging with any earlier batch).
    pub fn add(&mut self, table: &str, delta: DeltaBatch) {
        let key = table.to_ascii_lowercase();
        match self.deltas.get_mut(&key) {
            Some(existing) => existing.merge(delta),
            None => {
                self.deltas.insert(key, delta);
            }
        }
    }

    /// The merged batch for `table`, if any.
    pub fn get(&self, table: &str) -> Option<&DeltaBatch> {
        self.deltas.get(&table.to_ascii_lowercase())
    }

    /// True when no table has any changes.
    pub fn is_empty(&self) -> bool {
        self.deltas.values().all(|d| d.is_empty())
    }

    /// The tables with recorded changes.
    pub fn tables(&self) -> impl Iterator<Item = &str> {
        self.deltas.keys().map(String::as_str)
    }
}

/// Push `deltas` through `plan`, returning the touched-row superset in
/// the plan's output arity — or `None` when the plan contains an
/// operator delta propagation does not support.
///
/// `catalog` must already reflect the **new** state (deltas applied):
/// the join rule executes unchanged sides against it.
pub fn propagate_touched(
    plan: &LogicalPlan,
    catalog: &Catalog,
    config: &EngineConfig,
    deltas: &TableDeltas,
) -> Result<Option<Vec<Tuple>>> {
    match plan {
        LogicalPlan::Scan { table, .. } => {
            let touched = match deltas.get(table) {
                Some(d) => d.touched().cloned().collect(),
                None => Vec::new(),
            };
            Ok(Some(touched))
        }
        LogicalPlan::Select { input, predicate } => {
            let Some(rows) = propagate_touched(input, catalog, config, deltas)? else {
                return Ok(None);
            };
            let mut out = Vec::with_capacity(rows.len());
            for r in rows {
                if predicate.eval_predicate(&r, &[])? {
                    out.push(r);
                }
            }
            Ok(Some(out))
        }
        LogicalPlan::Project { input, items } => {
            let Some(rows) = propagate_touched(input, catalog, config, deltas)? else {
                return Ok(None);
            };
            let mut out = Vec::with_capacity(rows.len());
            for r in rows {
                let vals: Result<Vec<Value>> =
                    items.iter().map(|item| item.expr.eval(&r, &[])).collect();
                out.push(Tuple::new(vals?));
            }
            Ok(Some(out))
        }
        LogicalPlan::Join { left, right, predicate, .. } => {
            let left_width = left.schema().len();
            let Some((lk, rk)) = equi_key_columns(predicate, left_width) else {
                return Ok(None);
            };
            let Some(dl) = propagate_touched(left, catalog, config, deltas)? else {
                return Ok(None);
            };
            let Some(dr) = propagate_touched(right, catalog, config, deltas)? else {
                return Ok(None);
            };
            let mut out = Vec::new();
            if !dl.is_empty() {
                // ΔL ⋈ R_new — only now is the right side worth running.
                let r_new = execute_with_config(right, catalog, config)?;
                join_touched(&dl, r_new.rows(), &lk, &rk, true, predicate, &mut out)?;
            }
            if !dr.is_empty() {
                let l_new = execute_with_config(left, catalog, config)?;
                join_touched(&dr, l_new.rows(), &rk, &lk, false, predicate, &mut out)?;
            }
            if !dl.is_empty() && !dr.is_empty() {
                // Partners deleted from both sides meet only here.
                join_touched(&dl, &dr, &lk, &rk, true, predicate, &mut out)?;
            }
            Ok(Some(out))
        }
        LogicalPlan::UnionAll { inputs } => {
            let mut out = Vec::new();
            for input in inputs {
                let Some(mut rows) = propagate_touched(input, catalog, config, deltas)? else {
                    return Ok(None);
                };
                out.append(&mut rows);
            }
            Ok(Some(out))
        }
        LogicalPlan::OrderBy { input, .. } => propagate_touched(input, catalog, config, deltas),
        // Non-row-local operators: a delta can change *other* rows'
        // output (aggregates, duplicate elimination) or needs per-row
        // re-execution (Apply, GApply bodies). Full recompute territory.
        _ => Ok(None),
    }
}

/// The distinct `key_cols` prefixes among the touched rows at the top of
/// `plan`, sorted by the engine's total order (the order the sorted
/// outer union clusters by). `None` when propagation is unsupported.
pub fn dirty_keys(
    plan: &LogicalPlan,
    key_cols: &[usize],
    catalog: &Catalog,
    config: &EngineConfig,
    deltas: &TableDeltas,
) -> Result<Option<Vec<Tuple>>> {
    let Some(rows) = touched_keys(plan, key_cols, catalog, config, deltas)? else {
        return Ok(None);
    };
    let set: BTreeSet<Tuple> = rows.into_iter().collect();
    Ok(Some(set.into_iter().collect()))
}

/// Propagate only the **projection onto `cols`** of the touched rows —
/// a superset of `π_cols(touched(plan))`, usually without materialising
/// the touched rows themselves.
///
/// The point is cost: [`propagate_touched`]'s join rule must execute the
/// unchanged side to reconstruct full output rows, which makes a
/// one-row delta cost O(data) when the unchanged side is the big one.
/// But when every requested column lives on **one** side of a join —
/// exactly the shape of a sorted-outer-union branch, where the root key
/// is replicated from the root table — the projection is available
/// without the join:
///
/// * a delta on the *key side* contributes `π(Δ_keyside)` directly
///   (joining it with the other side can only drop or duplicate keys,
///   never invent new ones), so nothing is executed at all;
/// * a delta on the *other* side contributes the keys of the key-side
///   rows it joins to — a semi-join that executes only the key side,
///   which in a nested view is the small ancestor table, not the fat
///   descendant.
///
/// Falls back to [`propagate_touched`] + projection when the columns
/// straddle a join or pass through a computed projection, and reports
/// `None` exactly where full propagation would.
fn touched_keys(
    plan: &LogicalPlan,
    cols: &[usize],
    catalog: &Catalog,
    config: &EngineConfig,
    deltas: &TableDeltas,
) -> Result<Option<Vec<Tuple>>> {
    fn project(rows: &[Tuple], cols: &[usize]) -> Vec<Tuple> {
        rows.iter()
            .map(|r| Tuple::new(cols.iter().map(|&c| r.value(c).clone()).collect()))
            .collect()
    }
    match plan {
        LogicalPlan::Scan { table, .. } => Ok(Some(match deltas.get(table) {
            Some(d) => d
                .touched()
                .map(|r| Tuple::new(cols.iter().map(|&c| r.value(c).clone()).collect()))
                .collect(),
            None => Vec::new(),
        })),
        // Superset: a filter only narrows the touched set, and the keys
        // of a narrower set are a subset of what we report.
        LogicalPlan::Select { input, .. } => touched_keys(input, cols, catalog, config, deltas),
        LogicalPlan::Project { input, items } => {
            let mut src = Vec::with_capacity(cols.len());
            for &c in cols {
                match &items[c].expr {
                    Expr::Column(i) => src.push(*i),
                    // Computed key column: reconstruct the full rows.
                    _ => {
                        let Some(rows) = propagate_touched(plan, catalog, config, deltas)? else {
                            return Ok(None);
                        };
                        return Ok(Some(project(&rows, cols)));
                    }
                }
            }
            touched_keys(input, &src, catalog, config, deltas)
        }
        LogicalPlan::Join { left, right, predicate, .. } => {
            let left_width = left.schema().len();
            let Some((lk, rk)) = equi_key_columns(predicate, left_width) else {
                return Ok(None);
            };
            let (key_side, other, key_cols_local, key_join, other_join): (
                &LogicalPlan,
                &LogicalPlan,
                Vec<usize>,
                &[usize],
                &[usize],
            ) = if cols.iter().all(|&c| c < left_width) {
                (left, right, cols.to_vec(), &lk, &rk)
            } else if cols.iter().all(|&c| c >= left_width) {
                (right, left, cols.iter().map(|&c| c - left_width).collect(), &rk, &lk)
            } else {
                // Keys straddle the join: no shortcut.
                let Some(rows) = propagate_touched(plan, catalog, config, deltas)? else {
                    return Ok(None);
                };
                return Ok(Some(project(&rows, cols)));
            };
            // Δ on the key side (covers the ΔK ⋈ O and ΔK ⋈ ΔO terms):
            // their keys all come from ΔK itself. No execution needed.
            let Some(mut out) = touched_keys(key_side, &key_cols_local, catalog, config, deltas)?
            else {
                return Ok(None);
            };
            // Δ on the other side (the K_new ⋈ ΔO term): semi-join the
            // executed key side against the delta's join-key values.
            let Some(d_other) = propagate_touched(other, catalog, config, deltas)? else {
                return Ok(None);
            };
            if !d_other.is_empty() {
                let k_new = execute_with_config(key_side, catalog, config)?;
                semi_join_keys(
                    &d_other,
                    other_join,
                    k_new.rows(),
                    key_join,
                    &key_cols_local,
                    &mut out,
                );
            }
            Ok(Some(out))
        }
        LogicalPlan::UnionAll { inputs } => {
            let mut out = Vec::new();
            for input in inputs {
                let Some(mut keys) = touched_keys(input, cols, catalog, config, deltas)? else {
                    return Ok(None);
                };
                out.append(&mut keys);
            }
            Ok(Some(out))
        }
        LogicalPlan::OrderBy { input, .. } => touched_keys(input, cols, catalog, config, deltas),
        _ => Ok(None),
    }
}

/// For each executed key-side row whose join key appears among the
/// delta rows' join keys, emit its projection onto `cols` (key-side
/// relative). NULL join keys never match, per SQL equality.
fn semi_join_keys(
    delta_rows: &[Tuple],
    delta_join_cols: &[usize],
    exec_rows: &[Tuple],
    exec_join_cols: &[usize],
    cols: &[usize],
    out: &mut Vec<Tuple>,
) {
    use std::collections::HashSet;
    let mut wanted: HashSet<Vec<Value>> = HashSet::new();
    for row in delta_rows {
        let key: Vec<Value> = delta_join_cols.iter().map(|&c| row.value(c).clone()).collect();
        if !key.iter().any(|v| matches!(v, Value::Null)) {
            wanted.insert(key);
        }
    }
    if wanted.is_empty() {
        return;
    }
    for row in exec_rows {
        let key: Vec<Value> = exec_join_cols.iter().map(|&c| row.value(c).clone()).collect();
        if key.iter().any(|v| matches!(v, Value::Null)) {
            continue;
        }
        if wanted.contains(&key) {
            out.push(Tuple::new(cols.iter().map(|&c| row.value(c).clone()).collect()));
        }
    }
}

/// The key columns of a join predicate that is nothing but cross-side
/// column equalities (`l.a = r.x AND l.b = r.y …`). `None` when any
/// conjunct is residual — the hash-join delta rule then does not apply
/// and the caller falls back.
fn equi_key_columns(pred: &Expr, left_width: usize) -> Option<(Vec<usize>, Vec<usize>)> {
    let (keys, residual) = split_equi_join(pred, left_width);
    residual.is_empty().then(|| keys.into_iter().unzip())
}

/// Hash-join a (small) delta against the other side: build an index on
/// `build` keyed by `build_keys`, probe with `probe`, re-check the full
/// predicate on each candidate (NULL keys never match, per SQL
/// equality). `probe_is_left` fixes the concatenation order so the
/// output matches the join's schema.
fn join_touched(
    probe: &[Tuple],
    build: &[Tuple],
    probe_keys: &[usize],
    build_keys: &[usize],
    probe_is_left: bool,
    predicate: &Expr,
    out: &mut Vec<Tuple>,
) -> Result<()> {
    if probe.is_empty() || build.is_empty() {
        return Ok(());
    }
    let mut index: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for (i, row) in build.iter().enumerate() {
        let key: Vec<Value> = build_keys.iter().map(|&c| row.value(c).clone()).collect();
        if key.iter().any(|v| matches!(v, Value::Null)) {
            continue;
        }
        index.entry(key).or_default().push(i);
    }
    for row in probe {
        let key: Vec<Value> = probe_keys.iter().map(|&c| row.value(c).clone()).collect();
        if key.iter().any(|v| matches!(v, Value::Null)) {
            continue;
        }
        let Some(candidates) = index.get(&key) else {
            continue;
        };
        for &i in candidates {
            let combined: Vec<Value> = if probe_is_left {
                row.values().iter().chain(build[i].values()).cloned().collect()
            } else {
                build[i].values().iter().chain(row.values()).cloned().collect()
            };
            let t = Tuple::new(combined);
            if predicate.eval_predicate(&t, &[])? {
                out.push(t);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlpub_algebra::{ProjectItem, TableDef};
    use xmlpub_common::{row, DataType, Field, Schema};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let sup = TableDef::new(
            "supplier",
            Schema::new(vec![
                Field::new("s_suppkey", DataType::Int),
                Field::new("s_name", DataType::Str),
            ]),
        )
        .with_primary_key(&["s_suppkey"]);
        cat.register(
            sup.clone(),
            xmlpub_common::Relation::new(
                sup.schema.clone(),
                vec![row![1, "Acme"], row![2, "Globex"], row![3, "Initech"]],
            )
            .unwrap(),
        )
        .unwrap();
        let ps = TableDef::new(
            "partsupp",
            Schema::new(vec![
                Field::new("ps_suppkey", DataType::Int),
                Field::new("ps_partkey", DataType::Int),
            ]),
        )
        .with_primary_key(&["ps_suppkey", "ps_partkey"])
        .with_foreign_key(&["ps_suppkey"], "supplier", &["s_suppkey"]);
        cat.register(
            ps.clone(),
            xmlpub_common::Relation::new(
                ps.schema.clone(),
                vec![row![1, 10], row![1, 11], row![2, 20]],
            )
            .unwrap(),
        )
        .unwrap();
        cat
    }

    fn join_plan(cat: &Catalog) -> LogicalPlan {
        // supplier ⋈ partsupp on suppkey, projecting (s_suppkey, ps_partkey).
        let sup = LogicalPlan::scan("supplier", cat.table("supplier").unwrap().schema.clone());
        let ps = LogicalPlan::scan("partsupp", cat.table("partsupp").unwrap().schema.clone());
        let join = LogicalPlan::join(sup, ps, Expr::col(0).eq(Expr::col(2)));
        LogicalPlan::project(join, vec![ProjectItem::col(0), ProjectItem::col(3)])
    }

    #[test]
    fn scan_select_project_propagate_row_local_deltas() {
        let cat = catalog();
        let config = EngineConfig::default();
        let plan = LogicalPlan::select(
            LogicalPlan::scan("supplier", cat.table("supplier").unwrap().schema.clone()),
            Expr::col(0).eq(Expr::lit(2)),
        );
        let mut deltas = TableDeltas::new();
        deltas.add("supplier", DeltaBatch::new(vec![row![4, "Umbrella"]], vec![row![2, "Globex"]]));
        let touched = propagate_touched(&plan, &cat, &config, &deltas).unwrap().unwrap();
        // The appended row fails the filter; the deleted row passes it.
        assert_eq!(touched, vec![row![2, "Globex"]]);
        // No deltas at all: empty touched set, still supported.
        let none = propagate_touched(&plan, &cat, &config, &TableDeltas::new()).unwrap().unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn join_delta_builds_against_unchanged_side() {
        let cat = catalog();
        let config = EngineConfig::default();
        let plan = join_plan(&cat);
        // Churn partsupp only: append (3,30), delete (1,11). The new
        // catalog state is "after": apply to the catalog first.
        let delta = DeltaBatch::new(vec![row![3, 30]], vec![row![1, 11]]);
        cat.apply_delta("partsupp", &delta).unwrap();
        let mut deltas = TableDeltas::new();
        deltas.add("partsupp", delta);
        let mut touched = propagate_touched(&plan, &cat, &config, &deltas).unwrap().unwrap();
        touched.sort();
        // Both the appended and the deleted partsupp row join to their
        // (unchanged) suppliers: suppliers 1 and 3 are touched.
        assert_eq!(touched, vec![row![1, 11], row![3, 30]]);
        let keys = dirty_keys(&plan, &[0], &cat, &config, &deltas).unwrap().unwrap();
        assert_eq!(keys, vec![row![1], row![3]]);
    }

    #[test]
    fn join_delta_catches_both_sides_deleted() {
        let cat = catalog();
        let config = EngineConfig::default();
        let plan = join_plan(&cat);
        // Supplier 2 and its only partsupp row vanish together: neither
        // new side still holds the partner, so only the ΔL ⋈ ΔR term
        // can report supplier 2 as touched.
        let sup_delta = DeltaBatch::deletes(vec![row![2, "Globex"]]);
        let ps_delta = DeltaBatch::deletes(vec![row![2, 20]]);
        cat.apply_delta("supplier", &sup_delta).unwrap();
        cat.apply_delta("partsupp", &ps_delta).unwrap();
        let mut deltas = TableDeltas::new();
        deltas.add("supplier", sup_delta);
        deltas.add("partsupp", ps_delta);
        let keys = dirty_keys(&plan, &[0], &cat, &config, &deltas).unwrap().unwrap();
        assert_eq!(keys, vec![row![2]], "the vanished pair must still dirty supplier 2");
    }

    #[test]
    fn union_and_order_pass_through_aggregates_fall_back() {
        let cat = catalog();
        let config = EngineConfig::default();
        let scan = LogicalPlan::scan("supplier", cat.table("supplier").unwrap().schema.clone());
        let union = LogicalPlan::union_all(vec![scan.clone(), scan.clone()]);
        let ordered = LogicalPlan::order_by(union, vec![xmlpub_algebra::SortKey::asc(0)]);
        let mut deltas = TableDeltas::new();
        deltas.add("supplier", DeltaBatch::appends(vec![row![5, "Wonka"]]));
        let touched = propagate_touched(&ordered, &cat, &config, &deltas).unwrap().unwrap();
        assert_eq!(touched.len(), 2, "both union branches report the append");
        // Duplicate elimination is not row-local: unsupported.
        let distinct = LogicalPlan::distinct(scan);
        assert!(propagate_touched(&distinct, &cat, &config, &deltas).unwrap().is_none());
    }
}
