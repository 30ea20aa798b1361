//! Bottom-up property derivation: one transfer function per logical
//! operator.
//!
//! Every function here maps input [`PlanProperties`] to output
//! properties, erring on the side of *forgetting* facts. The only
//! context threaded through the recursion is the optional
//! [`GroupAmbient`] — what a `GroupScan` leaf is allowed to assume
//! about the group relation the nearest enclosing `GApply` binds.

use crate::catalog::CatalogProperties;
use crate::props::{CardRange, Fd, OrderKey, PlanProperties};
use xmlpub_algebra::analysis::{follows_foreign_key, scan_lineage};
use xmlpub_algebra::{LogicalPlan, ProjectItem, SortKey};
use xmlpub_common::ColumnSet;
use xmlpub_expr::{conjuncts, split_equi_join, AggFunc, Expr, UnaryOp};

/// What the analyzer knows about the group relation bound by the
/// nearest enclosing `GApply`: the properties of the GApply's input
/// (each group is a sub-bag of it, so keys, FDs and nullability carry
/// over) plus the grouping columns (constant within a group).
#[derive(Debug, Clone)]
pub struct GroupAmbient {
    /// Properties of the enclosing GApply's input stream.
    pub props: PlanProperties,
    /// Grouping columns of the enclosing GApply (indices into that
    /// input's schema).
    pub group_cols: ColumnSet,
}

/// Derive the properties of a top-level plan (no enclosing GApply).
pub fn derive(plan: &LogicalPlan, catalog: &CatalogProperties) -> PlanProperties {
    derive_with(plan, catalog, None)
}

/// Derive the properties of a per-group query under a known group
/// binding.
pub fn derive_in_group(
    plan: &LogicalPlan,
    catalog: &CatalogProperties,
    ambient: &GroupAmbient,
) -> PlanProperties {
    derive_with(plan, catalog, Some(ambient))
}

/// Derive the properties of the node addressed by `path` (child
/// indices from the root, [`LogicalPlan::children`] order), tracking
/// the GApply group binding along the way. `None` if the path does not
/// resolve.
pub fn derive_at(
    root: &LogicalPlan,
    path: &[usize],
    catalog: &CatalogProperties,
) -> Option<PlanProperties> {
    fn go(
        plan: &LogicalPlan,
        path: &[usize],
        catalog: &CatalogProperties,
        group: Option<&GroupAmbient>,
    ) -> Option<PlanProperties> {
        let Some((&idx, rest)) = path.split_first() else {
            return Some(derive_with(plan, catalog, group));
        };
        // Descending into a GApply's per-group query (child 1) swaps
        // the ambient group binding.
        if let LogicalPlan::GApply { input, group_cols, pgq } = plan {
            if idx == 1 {
                let ambient = GroupAmbient {
                    props: derive_with(input, catalog, group),
                    group_cols: group_cols.iter().copied().collect(),
                };
                return go(pgq, rest, catalog, Some(&ambient));
            }
        }
        go(*plan.children().get(idx)?, rest, catalog, group)
    }
    go(root, path, catalog, None)
}

fn derive_with(
    plan: &LogicalPlan,
    catalog: &CatalogProperties,
    group: Option<&GroupAmbient>,
) -> PlanProperties {
    match plan {
        LogicalPlan::Scan { table, schema } => {
            let mut p = PlanProperties::bottom(schema.len());
            if let Some(t) = catalog.table(table) {
                p.cardinality = CardRange::exact(t.rows);
                if let Some(key) = &t.key {
                    p.fds.push(Fd {
                        determinant: key.clone(),
                        dependents: ColumnSet::all(schema.len()).difference(key),
                    });
                    p.add_key(key.clone());
                }
            }
            p
        }
        LogicalPlan::GroupScan { schema } => match group {
            // Each group is a non-empty sub-bag of the GApply input:
            // keys, FDs and nullability carry over; the grouping
            // columns are constant within the group (FD ∅ → gcols).
            Some(g) if g.props.arity == schema.len() => {
                let mut p = g.props.clone();
                p.order = Vec::new();
                p.cardinality = CardRange { lo: 1, hi: g.props.cardinality.hi };
                if !g.group_cols.is_empty() {
                    p.fds.push(Fd {
                        determinant: ColumnSet::new(),
                        dependents: g.group_cols.clone(),
                    });
                }
                p
            }
            _ => PlanProperties::bottom(schema.len()),
        },
        LogicalPlan::Select { input, predicate } => {
            let mut p = derive_with(input, catalog, group);
            p.cardinality = p.cardinality.filtered();
            mark_nonnull_from_predicate(predicate, &mut p.nullable);
            p
        }
        LogicalPlan::Project { input, items } => {
            derive_project(&derive_with(input, catalog, group), items)
        }
        LogicalPlan::Join { left, right, predicate, .. } => derive_join(
            &derive_with(left, catalog, group),
            &derive_with(right, catalog, group),
            JoinShape { left, right, predicate, outer: false },
            catalog,
        ),
        LogicalPlan::LeftOuterJoin { left, right, predicate } => derive_join(
            &derive_with(left, catalog, group),
            &derive_with(right, catalog, group),
            JoinShape { left, right, predicate, outer: true },
            catalog,
        ),
        LogicalPlan::GApply { input, group_cols, pgq } => {
            let in_props = derive_with(input, catalog, group);
            let ambient = GroupAmbient {
                props: in_props.clone(),
                group_cols: group_cols.iter().copied().collect(),
            };
            let pgq_props = derive_with(pgq, catalog, Some(&ambient));
            derive_gapply(&in_props, group_cols, &pgq_props)
        }
        LogicalPlan::GroupBy { input, keys, aggs } => {
            let in_props = derive_with(input, catalog, group);
            let mut p = PlanProperties::bottom(keys.len() + aggs.len());
            p.add_key((0..keys.len()).collect());
            p.fds.push(Fd {
                determinant: (0..keys.len()).collect(),
                dependents: (keys.len()..p.arity).collect(),
            });
            for (out, &k) in keys.iter().enumerate() {
                p.nullable[out] = in_props.nullable[k];
            }
            for (i, agg) in aggs.iter().enumerate() {
                p.nullable[keys.len() + i] = !is_count_family(agg.func);
            }
            // One row per distinct key combination: at most one row per
            // input row, at least one group when the input is non-empty.
            p.cardinality = CardRange {
                lo: u64::from(in_props.cardinality.lo > 0),
                hi: in_props.cardinality.hi,
            };
            p
        }
        LogicalPlan::ScalarAgg { input, aggs } => {
            // Always exactly one row, even on empty input.
            let _ = derive_with(input, catalog, group);
            let mut p = PlanProperties::bottom(aggs.len());
            p.add_key(ColumnSet::new());
            for (i, agg) in aggs.iter().enumerate() {
                p.nullable[i] = !is_count_family(agg.func);
            }
            p.cardinality = CardRange::exact(1);
            p
        }
        LogicalPlan::UnionAll { inputs } => {
            let arity = plan.schema().len();
            let mut p = PlanProperties::bottom(arity);
            let mut card = CardRange::exact(0);
            let mut nullable = vec![false; arity];
            for branch in inputs {
                let bp = derive_with(branch, catalog, group);
                card = card.plus(bp.cardinality);
                for (i, n) in nullable.iter_mut().enumerate() {
                    *n = *n || bp.nullable.get(i).copied().unwrap_or(true);
                }
            }
            p.cardinality = card;
            p.nullable = nullable;
            p
        }
        LogicalPlan::Distinct { input } => {
            let mut p = derive_with(input, catalog, group);
            p.add_key(ColumnSet::all(p.arity));
            p.order = Vec::new(); // hash-based: physical order destroyed
            p.cardinality = CardRange { lo: u64::from(p.cardinality.lo > 0), hi: p.cardinality.hi };
            p
        }
        LogicalPlan::OrderBy { input, keys } => {
            let mut p = derive_with(input, catalog, group);
            p.order = derived_order(keys);
            p
        }
        LogicalPlan::Apply { outer, inner, mode } => {
            let o = derive_with(outer, catalog, group);
            // Inner properties hold per evaluation; correlated refs are
            // opaque values, so the per-evaluation derivation is sound
            // for every outer row.
            let i = derive_with(inner, catalog, group);
            derive_apply(&o, &i, *mode)
        }
        LogicalPlan::Exists { input, .. } => {
            let _ = derive_with(input, catalog, group);
            let mut p = PlanProperties::bottom(0);
            p.add_key(ColumnSet::new());
            p.cardinality = CardRange::between(0, 1);
            p
        }
    }
}

// ---- Per-operator helpers ----------------------------------------------

fn derive_project(input: &PlanProperties, items: &[ProjectItem]) -> PlanProperties {
    let mut p = PlanProperties::bottom(items.len());
    // Map each input column to its *first* bare pass-through position.
    let mut col_map: Vec<Option<usize>> = vec![None; input.arity];
    for (out, item) in items.iter().enumerate() {
        if let Expr::Column(c) = &item.expr {
            if *c < input.arity && col_map[*c].is_none() {
                col_map[*c] = Some(out);
            }
        }
    }
    let remap = |c: usize| col_map.get(c).copied().flatten();
    for key in &input.keys {
        let k = key.remap(remap);
        if k.len() == key.len() {
            p.add_key(k);
        }
    }
    for fd in &input.fds {
        let det = fd.determinant.remap(remap);
        if det.len() != fd.determinant.len() {
            continue; // determinant column dropped: FD lost
        }
        let deps = fd.dependents.remap(remap);
        if !deps.is_empty() {
            p.fds.push(Fd { determinant: det, dependents: deps });
        }
    }
    // Duplicate pass-throughs of one input column are mutually
    // determined copies.
    for (out, item) in items.iter().enumerate() {
        if let Expr::Column(c) = &item.expr {
            if let Some(first) = remap(*c) {
                if first != out {
                    p.fds.push(Fd {
                        determinant: std::iter::once(first).collect(),
                        dependents: std::iter::once(out).collect(),
                    });
                    p.fds.push(Fd {
                        determinant: std::iter::once(out).collect(),
                        dependents: std::iter::once(first).collect(),
                    });
                }
            }
        }
    }
    // Longest prefix of the input order that survives the projection.
    for ok in &input.order {
        match remap(ok.col) {
            Some(out) => p.order.push(OrderKey { col: out, asc: ok.asc }),
            None => break,
        }
    }
    for (out, item) in items.iter().enumerate() {
        p.nullable[out] = !expr_nonnull(&item.expr, &input.nullable);
    }
    p.cardinality = input.cardinality;
    p
}

struct JoinShape<'a> {
    left: &'a LogicalPlan,
    right: &'a LogicalPlan,
    predicate: &'a Expr,
    outer: bool,
}

fn derive_join(
    l: &PlanProperties,
    r: &PlanProperties,
    shape: JoinShape<'_>,
    catalog: &CatalogProperties,
) -> PlanProperties {
    let nl = l.arity;
    let arity = nl + r.arity;
    let mut p = PlanProperties::bottom(arity);
    // Equi-join pairs `(left col, right-local col)` and the other conjuncts.
    let (pairs, residual) = split_equi_join(shape.predicate, nl);

    let left_equi: ColumnSet = pairs.iter().map(|&(a, _)| a).collect();
    let right_equi: ColumnSet = pairs.iter().map(|&(_, b)| b).collect();
    // Probing on a key of one side matches at most one row there, so the
    // other side's keys survive unchanged.
    let right_covered = r.has_key_within(&right_equi);
    let left_covered = l.has_key_within(&left_equi);

    if right_covered {
        for k in &l.keys {
            p.add_key(k.clone());
        }
    }
    if left_covered && !shape.outer {
        for k in &r.keys {
            p.add_key(shift_set(k, nl));
        }
    }
    // A (left key, right key) union always identifies the output pair:
    // for an outer join the NULL-padded rows are still told apart by the
    // left key.
    for lk in &l.keys {
        for rk in &r.keys {
            p.add_key(lk.union(&shift_set(rk, nl)));
        }
    }

    p.nullable[..nl].copy_from_slice(&l.nullable);
    if shape.outer {
        // Unmatched left rows pad the right side with NULLs.
        for n in &mut p.nullable[nl..] {
            *n = true;
        }
    } else {
        p.nullable[nl..].copy_from_slice(&r.nullable);
        // An inner-join predicate must evaluate to true, so its
        // null-rejecting conjuncts imply non-nullness.
        mark_nonnull_from_predicate(shape.predicate, &mut p.nullable);
    }

    p.fds.extend(l.fds.iter().cloned());
    if !shape.outer {
        p.fds.extend(r.fds.iter().map(|fd| Fd {
            determinant: shift_set(&fd.determinant, nl),
            dependents: shift_set(&fd.dependents, nl),
        }));
        for &(a, b) in &pairs {
            let (a, b) = (a, b + nl);
            p.fds.push(Fd {
                determinant: std::iter::once(a).collect(),
                dependents: std::iter::once(b).collect(),
            });
            p.fds.push(Fd {
                determinant: std::iter::once(b).collect(),
                dependents: std::iter::once(a).collect(),
            });
        }
    }

    // Cardinality. The lower bound `lo = lo(left)` needs *totality*:
    // every left row finds a match. That is exactly what a declared
    // foreign key promises (`follows_foreign_key`, the test the binder
    // sets the fk flag with — declared constraints are trusted, as for
    // key seeding), provided no residual predicate filters pairs away
    // AND the right side is the *whole* referenced table. A pushed-down
    // selection under the join keeps the fk flag but voids the
    // guarantee, so anything but a bare scan on the right forfeits
    // totality. An outer join is total by construction.
    let total = shape.outer
        || (residual.iter().all(|c| *c == Expr::lit(true))
            && matches!(shape.right, LogicalPlan::Scan { .. })
            && follows_foreign_key(
                &scan_lineage(shape.left),
                &scan_lineage(shape.right),
                &pairs,
                |t| catalog.foreign_keys(t),
            ));
    // Upper bound: probing a covered right key gives ≤ 1 match per left
    // row; a covered left key bounds the inner join by hi(right); an
    // unmatched-left-padded outer join multiplies by max(hi(right), 1).
    let hi = if right_covered {
        l.cardinality.hi
    } else if left_covered && !shape.outer {
        r.cardinality.hi
    } else {
        let per_left =
            if shape.outer { r.cardinality.hi.map(|h| h.max(1)) } else { r.cardinality.hi };
        l.cardinality.hi.zip(per_left).map(|(a, b)| a.saturating_mul(b))
    };
    p.cardinality = CardRange { lo: if total { l.cardinality.lo } else { 0 }, hi };
    p
}

fn derive_gapply(
    input: &PlanProperties,
    group_cols: &[usize],
    pgq: &PlanProperties,
) -> PlanProperties {
    let k = group_cols.len();
    let arity = k + pgq.arity;
    let mut p = PlanProperties::bottom(arity);
    // Rows from different groups differ on the group columns, rows
    // within one group are told apart by any per-group-query key.
    for pk in &pgq.keys {
        let mut key: ColumnSet = (0..k).collect();
        key = key.union(&shift_set(pk, k));
        p.add_key(key);
    }
    for fd in &pgq.fds {
        // A per-group FD lifts globally once the group identity joins
        // the determinant.
        let mut det: ColumnSet = (0..k).collect();
        det = det.union(&shift_set(&fd.determinant, k));
        p.fds.push(Fd { determinant: det, dependents: shift_set(&fd.dependents, k) });
    }
    for (out, &g) in group_cols.iter().enumerate() {
        p.nullable[out] = input.nullable.get(g).copied().unwrap_or(true);
    }
    p.nullable[k..].copy_from_slice(&pgq.nullable);
    // ≥ 1 group when the input is non-empty; ≤ hi(input) groups, each
    // emitting pgq rows.
    p.cardinality = CardRange {
        lo: if input.cardinality.lo > 0 { pgq.cardinality.lo } else { 0 },
        hi: input.cardinality.hi.zip(pgq.cardinality.hi).map(|(a, b)| a.saturating_mul(b)),
    };
    p
}

fn derive_apply(
    o: &PlanProperties,
    i: &PlanProperties,
    mode: xmlpub_algebra::plan::ApplyMode,
) -> PlanProperties {
    use xmlpub_algebra::plan::ApplyMode;
    let no = o.arity;
    let arity = no + i.arity;
    let mut p = PlanProperties::bottom(arity);
    p.nullable[..no].copy_from_slice(&o.nullable);
    match mode {
        ApplyMode::Cross => p.nullable[no..].copy_from_slice(&i.nullable),
        // Empty inner results pad with NULLs.
        ApplyMode::LeftOuter | ApplyMode::Scalar => {}
    }
    // Outer-key ∪ inner-key identifies (outer row, inner row) pairs:
    // the inner key holds within each per-row evaluation, the outer key
    // separates evaluations (NULL padding included, as for outer join).
    for ok in &o.keys {
        for ik in &i.keys {
            p.add_key(ok.union(&shift_set(ik, no)));
        }
    }
    match mode {
        // Exactly one output row per outer row.
        ApplyMode::Scalar => {
            for ok in &o.keys {
                p.add_key(ok.clone());
            }
            p.fds.extend(o.fds.iter().cloned());
            p.cardinality = o.cardinality;
        }
        ApplyMode::Cross => {
            p.fds.extend(o.fds.iter().cloned());
            p.cardinality = o.cardinality.times(i.cardinality);
        }
        ApplyMode::LeftOuter => {
            p.fds.extend(o.fds.iter().cloned());
            p.cardinality = CardRange {
                lo: o.cardinality.lo,
                hi: o
                    .cardinality
                    .hi
                    .zip(i.cardinality.hi.map(|h| h.max(1)))
                    .map(|(a, b)| a.saturating_mul(b)),
            };
        }
    }
    p
}

// ---- Predicate analysis ------------------------------------------------

/// Mark columns non-null that a true-evaluating predicate forces to be
/// non-null: null-rejecting comparison conjuncts (a NULL operand makes
/// the comparison NULL, which rejects the row), key-set membership (a
/// NULL component never matches) and `IS NOT NULL`.
fn mark_nonnull_from_predicate(predicate: &Expr, nullable: &mut [bool]) {
    let mut mark = |e: &Expr| {
        for col in e.columns().iter() {
            if col < nullable.len() {
                nullable[col] = false;
            }
        }
    };
    for c in conjuncts(predicate) {
        match &c {
            Expr::Binary { op, left, right }
                if op.is_comparison() && null_propagating(left) && null_propagating(right) =>
            {
                mark(left);
                mark(right);
            }
            Expr::InSet { exprs, .. } => {
                exprs.iter().filter(|e| null_propagating(e)).for_each(&mut mark)
            }
            Expr::Unary { op: UnaryOp::IsNotNull, expr } => {
                if let Expr::Column(_) = expr.as_ref() {
                    mark(expr);
                }
            }
            _ => {}
        }
    }
}

/// Does a NULL in any referenced column force the expression to NULL?
fn null_propagating(expr: &Expr) -> bool {
    match expr {
        Expr::Column(_) | Expr::Correlated { .. } => true,
        Expr::Literal(v) => !v.is_null(),
        Expr::Unary { op: UnaryOp::Neg, expr } => null_propagating(expr),
        Expr::Binary { op, left, right } if !op.is_logical() => {
            null_propagating(left) && null_propagating(right)
        }
        _ => false,
    }
}

/// Does the expression provably never evaluate to NULL, given which
/// input columns are non-null?
fn expr_nonnull(expr: &Expr, nullable: &[bool]) -> bool {
    match expr {
        Expr::Column(c) => nullable.get(*c).is_some_and(|n| !n),
        Expr::Literal(v) => !v.is_null(),
        Expr::Unary { op: UnaryOp::IsNull | UnaryOp::IsNotNull, .. } => true,
        Expr::Unary { op: UnaryOp::Not | UnaryOp::Neg, expr } => expr_nonnull(expr, nullable),
        Expr::Binary { left, right, .. } => {
            expr_nonnull(left, nullable) && expr_nonnull(right, nullable)
        }
        _ => false,
    }
}

/// The count aggregates return Int 0 on empty/all-NULL input, so they
/// never produce NULL; every other aggregate does.
fn is_count_family(func: AggFunc) -> bool {
    matches!(func, AggFunc::CountStar | AggFunc::Count | AggFunc::CountDistinct)
}

/// Shift every column of a set by `by` (for right-side/inner columns in
/// a concatenated output schema).
fn shift_set(set: &ColumnSet, by: usize) -> ColumnSet {
    set.iter().map(|c| c + by).collect()
}

/// The sort order established by an ORDER BY: the longest prefix of its
/// keys that are bare columns.
fn derived_order(keys: &[SortKey]) -> Vec<OrderKey> {
    let mut out = Vec::new();
    for k in keys {
        match &k.expr {
            Expr::Column(c) => out.push(OrderKey { col: *c, asc: k.asc }),
            _ => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlpub_algebra::plan::ApplyMode;
    use xmlpub_algebra::{Catalog, TableDef};
    use xmlpub_common::{row, DataType, Field, Relation, Schema};
    use xmlpub_expr::AggExpr;

    fn cs(cols: &[usize]) -> ColumnSet {
        cols.iter().copied().collect()
    }

    fn dept_schema() -> Schema {
        Schema::new(vec![Field::new("d_id", DataType::Int), Field::new("d_name", DataType::Str)])
    }

    fn emp_schema() -> Schema {
        Schema::new(vec![
            Field::new("e_id", DataType::Int),
            Field::new("e_dept", DataType::Int),
            Field::new("e_salary", DataType::Float),
        ])
    }

    fn catalog() -> (Catalog, CatalogProperties) {
        let mut cat = Catalog::new();
        cat.register(
            TableDef::new("dept", dept_schema()).with_primary_key(&["d_id"]),
            Relation::new(dept_schema(), vec![row![1, "eng"], row![2, "ops"]]).unwrap(),
        )
        .unwrap();
        cat.register(
            TableDef::new("emp", emp_schema()).with_primary_key(&["e_id"]).with_foreign_key(
                &["e_dept"],
                "dept",
                &["d_id"],
            ),
            Relation::new(
                emp_schema(),
                vec![row![10, 1, 100.0], row![11, 1, 120.0], row![12, 2, 90.0]],
            )
            .unwrap(),
        )
        .unwrap();
        let props = CatalogProperties::from_catalog(&cat);
        (cat, props)
    }

    fn scan(cat: &Catalog, table: &str) -> LogicalPlan {
        LogicalPlan::scan(table, cat.table(table).unwrap().schema.clone())
    }

    #[test]
    fn scan_seeds_key_and_rowcount() {
        let (cat, props) = catalog();
        let p = derive(&scan(&cat, "emp"), &props);
        assert_eq!(p.keys, vec![cs(&[0])]);
        assert_eq!(p.cardinality, CardRange::exact(3));
        assert_eq!(p.fds.len(), 1);
        assert_eq!(p.fds[0].determinant, cs(&[0]));
    }

    #[test]
    fn empty_relation_has_exact_zero_cardinality() {
        let mut cat = Catalog::new();
        cat.register(
            TableDef::new("v", dept_schema()).with_primary_key(&["d_id"]),
            Relation::empty(dept_schema()),
        )
        .unwrap();
        let props = CatalogProperties::from_catalog(&cat);
        let p = derive(&scan(&cat, "v"), &props);
        assert_eq!(p.cardinality, CardRange::exact(0));
        // Selecting from it stays [0, 0].
        let sel = scan(&cat, "v").select(Expr::col(0).gt(Expr::lit(5)));
        assert_eq!(derive(&sel, &props).cardinality, CardRange::exact(0));
    }

    #[test]
    fn select_keeps_keys_zeroes_lo_and_infers_nonnull() {
        let (cat, props) = catalog();
        let sel = scan(&cat, "emp").select(Expr::col(2).gt(Expr::lit(100.0)));
        let p = derive(&sel, &props);
        assert_eq!(p.keys, vec![cs(&[0])]);
        assert_eq!(p.cardinality, CardRange::between(0, 3));
        assert!(!p.nullable[2], "comparison conjunct implies non-null");
        assert!(p.nullable[1]);
    }

    #[test]
    fn project_remaps_keys_and_order() {
        let (cat, props) = catalog();
        let plan = scan(&cat, "emp")
            .order_by(vec![SortKey::asc(0), SortKey::desc(2)])
            .project_cols(&[2, 0]);
        let p = derive(&plan, &props);
        assert_eq!(p.keys, vec![cs(&[1])]);
        assert_eq!(p.order, vec![OrderKey::asc(1), OrderKey { col: 0, asc: false }]);
    }

    #[test]
    fn project_dropping_key_column_drops_key() {
        let (cat, props) = catalog();
        let p = derive(&scan(&cat, "emp").project_cols(&[1, 2]), &props);
        assert!(p.keys.is_empty());
    }

    #[test]
    fn duplicate_column_projection_keeps_one_key_and_copy_fds() {
        let (cat, props) = catalog();
        let p = derive(&scan(&cat, "emp").project_cols(&[0, 0, 2]), &props);
        // The key maps to the first occurrence only.
        assert_eq!(p.keys, vec![cs(&[0])]);
        // The copies determine each other.
        assert!(p.fds.iter().any(|fd| fd.determinant == cs(&[0]) && fd.dependents.contains(1)));
        assert!(p.fds.iter().any(|fd| fd.determinant == cs(&[1]) && fd.dependents.contains(0)));
        assert_eq!(p.nullable.len(), 3);
    }

    #[test]
    fn fk_join_on_right_key_keeps_left_key_and_cardinality() {
        let (cat, props) = catalog();
        let join = scan(&cat, "emp").fk_join(scan(&cat, "dept"), Expr::col(1).eq(Expr::col(3)));
        let p = derive(&join, &props);
        // Probing dept's key: emp's key survives; totality keeps lo.
        assert!(p.has_key_within(&cs(&[0])));
        assert_eq!(p.cardinality, CardRange::exact(3));
        // Equi columns are non-null on both sides.
        assert!(!p.nullable[1]);
        assert!(!p.nullable[3]);
    }

    #[test]
    fn declared_fk_is_detected_without_the_flag() {
        let (cat, props) = catalog();
        let join = scan(&cat, "emp").join(scan(&cat, "dept"), Expr::col(1).eq(Expr::col(3)));
        let p = derive(&join, &props);
        assert_eq!(p.cardinality, CardRange::exact(3), "catalog FK implies totality");
    }

    #[test]
    fn null_padded_fk_column_is_not_total() {
        let (cat, props) = catalog();
        // No dept row matches, so every e_dept of the outer join is NULL
        // and finds no dept row despite the declared foreign key.
        let padded = scan(&cat, "dept").left_outer_join(scan(&cat, "emp"), Expr::lit(false));
        let join = padded.join(scan(&cat, "dept"), Expr::col(3).eq(Expr::col(5)));
        assert_eq!(derive(&join, &props).cardinality.lo, 0);
    }

    #[test]
    fn non_key_join_multiplies_cardinality_and_unions_keys() {
        let (cat, props) = catalog();
        let join = scan(&cat, "emp").join(scan(&cat, "emp"), Expr::col(2).gt(Expr::col(5)));
        let p = derive(&join, &props);
        assert_eq!(p.cardinality, CardRange::between(0, 9));
        assert!(p.has_key_within(&cs(&[0, 3])));
        assert!(!p.has_key_within(&cs(&[0])));
    }

    #[test]
    fn left_outer_join_nullifies_right_side() {
        let (cat, props) = catalog();
        let loj =
            scan(&cat, "dept").left_outer_join(scan(&cat, "emp"), Expr::col(0).eq(Expr::col(3)));
        let p = derive(&loj, &props);
        assert!(p.nullable[2..].iter().all(|&n| n), "right side nullable");
        // lo preserved (an outer join is total by construction).
        assert_eq!(p.cardinality, CardRange::between(2, 6));
        // Right keys are dropped; the pairwise union survives.
        assert!(!p.has_key_within(&cs(&[2])));
        assert!(p.has_key_within(&cs(&[0, 2])));
    }

    #[test]
    fn gapply_key_is_group_cols_plus_pgq_key() {
        let (cat, props) = catalog();
        let input = scan(&cat, "emp");
        let pgq = LogicalPlan::group_scan(input.schema());
        let plan = input.gapply(vec![1], pgq);
        let p = derive(&plan, &props);
        // pgq inherits emp's key {0}; output = [e_dept] ++ emp cols, so
        // the key is {0 (group col)} ∪ {1 (shifted e_id)}.
        assert!(p.has_key_within(&cs(&[0, 1])));
        assert_eq!(p.cardinality, CardRange::between(1, 9));
    }

    #[test]
    fn nested_gapply_propagates_keys_through_both_levels() {
        let (cat, props) = catalog();
        let input = scan(&cat, "emp");
        let inner_pgq = LogicalPlan::group_scan(input.schema());
        let outer_pgq = LogicalPlan::group_scan(input.schema()).gapply(vec![0], inner_pgq);
        let plan = input.gapply(vec![1], outer_pgq);
        let p = derive(&plan, &props);
        // Output layout: [e_dept] ++ ([e_id] ++ emp columns).
        // Inner GApply keys its output by {0} ∪ shift(emp key {0}) =
        // {0, 1}; the outer lifts it to {0} ∪ shift({0,1}) = {0, 1, 2}.
        assert!(p.has_key_within(&cs(&[0, 1, 2])), "keys: {:?}", p.keys);
        assert_eq!(p.arity, 1 + 1 + 3);
    }

    #[test]
    fn group_scan_without_ambient_is_bottom() {
        let props = CatalogProperties::empty();
        let p = derive(&LogicalPlan::group_scan(emp_schema()), &props);
        assert!(p.keys.is_empty());
        assert_eq!(p.cardinality, CardRange::unknown());
    }

    #[test]
    fn groupby_keys_output_and_null_group_keys_survive_outer_join() {
        let (cat, props) = catalog();
        // Decorrelation's shape: LOJ output feeds a projection whose
        // group-key columns come from the nullable side.
        let loj =
            scan(&cat, "dept").left_outer_join(scan(&cat, "emp"), Expr::col(0).eq(Expr::col(3)));
        let gb = loj.group_by(vec![3], vec![AggExpr::count_star("n")]);
        let p = derive(&gb, &props);
        assert_eq!(p.keys, vec![cs(&[0])]);
        assert!(p.nullable[0], "group key from the outer-join null side stays nullable");
        assert!(!p.nullable[1], "count(*) never NULL");
        assert_eq!(p.cardinality, CardRange::between(1, 6));
    }

    #[test]
    fn scalar_agg_is_exactly_one_row() {
        let (cat, props) = catalog();
        let p = derive(&scan(&cat, "emp").scalar_agg(vec![AggExpr::count_star("n")]), &props);
        assert_eq!(p.cardinality, CardRange::exact(1));
        assert!(p.has_key_within(&ColumnSet::new()));
        assert!(!p.nullable[0]);
    }

    #[test]
    fn distinct_adds_all_columns_key() {
        let (cat, props) = catalog();
        let p = derive(&scan(&cat, "emp").project_cols(&[1]).distinct(), &props);
        assert_eq!(p.keys, vec![cs(&[0])]);
        assert_eq!(p.cardinality, CardRange::between(1, 3));
    }

    #[test]
    fn union_all_sums_cardinality_and_merges_nullability() {
        let (cat, props) = catalog();
        let b1 = scan(&cat, "dept");
        let b2 = scan(&cat, "dept").select(Expr::col(0).gt(Expr::lit(1)));
        let p = derive(&LogicalPlan::union_all(vec![b1, b2]), &props);
        assert_eq!(p.cardinality, CardRange::between(2, 4));
        assert!(p.keys.is_empty());
        assert!(p.nullable[0], "non-null in one branch only does not lift");
    }

    #[test]
    fn order_by_establishes_order_and_apply_modes_differ() {
        let (cat, props) = catalog();
        let ordered = scan(&cat, "emp").order_by(vec![SortKey::asc(1), SortKey::asc(0)]);
        let p = derive(&ordered, &props);
        assert!(p.order_satisfies(&[OrderKey::asc(1)]));

        let inner = scan(&cat, "dept").scalar_agg(vec![AggExpr::count_star("n")]);
        let scalar = scan(&cat, "emp").apply(inner.clone(), ApplyMode::Scalar);
        let sp = derive(&scalar, &props);
        assert_eq!(sp.cardinality, CardRange::exact(3));
        assert!(sp.has_key_within(&cs(&[0])));
        assert!(sp.nullable[3], "scalar apply may pad NULL");

        let cross = scan(&cat, "emp").apply(inner, ApplyMode::Cross);
        let cp = derive(&cross, &props);
        assert_eq!(cp.cardinality, CardRange::exact(3));
        assert!(!cp.nullable[3], "cross apply keeps inner nullability");
    }

    #[test]
    fn exists_is_zero_or_one_rows() {
        let (cat, props) = catalog();
        let p = derive(&scan(&cat, "emp").exists(), &props);
        assert_eq!(p.arity, 0);
        assert_eq!(p.cardinality, CardRange::between(0, 1));
    }

    #[test]
    fn derive_at_tracks_group_ambient() {
        let (cat, props) = catalog();
        let input = scan(&cat, "emp");
        let pgq = LogicalPlan::group_scan(input.schema());
        let plan = input.gapply(vec![1], pgq);
        // Path [1] = the per-group query: it must see emp's key.
        let p = derive_at(&plan, &[1], &props).unwrap();
        assert_eq!(p.keys, vec![cs(&[0])]);
        assert_eq!(p.cardinality, CardRange::between(1, 3));
        assert!(derive_at(&plan, &[2], &props).is_none());
    }
}
