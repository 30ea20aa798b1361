//! The §3 structural rules of a plan, checked in one place.
//!
//! [`check`] inspects one node in the context it sits in and records
//! every rule the node breaks: column indices out of range, union
//! branches with incompatible schemas, correlated references with no
//! enclosing `Apply`, and the paper's restrictions on per-group queries —
//! a PGQ "can operate only on the temporary relation associated with the
//! group" and uses only scan/select/project/distinct/apply/exists/
//! union-all/groupby/aggregate/orderby (§3). [`validate`] walks a plan
//! and reports the first finding; the plan linter (`xmlpub-lint`) walks
//! the same checker over every node and reports all of them, each with
//! the path to its node.

use crate::plan::LogicalPlan;
use xmlpub_common::{Error, Result, Schema};
use xmlpub_expr::Expr;

/// The rule a [`Finding`] breaks. [`FindingKind::id`] is the id the plan
/// linter reports it under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// The per-group query operator whitelist, plus the shape rules of
    /// `GroupScan`, `GApply`, `ScalarAgg` and `UnionAll`.
    PgqOperators,
    /// A column index outside the schema it is evaluated against.
    ColumnBounds,
    /// A correlated reference with too few enclosing `Apply` operators.
    CorrelationDepth,
}

impl FindingKind {
    /// The stable id of the rule.
    pub fn id(self) -> &'static str {
        match self {
            FindingKind::PgqOperators => "pgq-operators",
            FindingKind::ColumnBounds => "column-bounds",
            FindingKind::CorrelationDepth => "correlation-depth",
        }
    }
}

/// One broken rule at one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule.
    pub kind: FindingKind,
    /// Human-readable description.
    pub message: String,
}

/// The context a node sits in, which [`check`] reads besides the node
/// itself. [`Ambient::child`] is the one statement of how a child's
/// context follows from its parent's.
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

    /// The context of child `i` of `plan`, in [`LogicalPlan::children`]
    /// order. A `GApply`'s per-group query reads the grouped input's
    /// schema, which is the only schema this derives; an `Apply`'s inner
    /// side sits one correlation level deeper; every other child shares
    /// its parent's context.
    pub fn child(&self, plan: &LogicalPlan, i: usize) -> Ambient {
        match plan {
            LogicalPlan::GApply { input, .. } if i == 1 => {
                Ambient { group_schema: Some(input.schema()), apply_depth: self.apply_depth }
            }
            LogicalPlan::Apply { .. } if i == 1 => {
                Ambient { apply_depth: self.apply_depth + 1, ..self.clone() }
            }
            _ => self.clone(),
        }
    }
}

/// Validate a plan tree: the first finding of a pre-order walk (children
/// in [`LogicalPlan::children`] order), as a plan error. On a valid plan
/// the only schemas derived are each `GApply` input's (the group schema
/// its per-group query is checked against) and `UnionAll` branches'.
pub fn validate(plan: &LogicalPlan) -> Result<()> {
    let mut out = Vec::new();
    walk(plan, &Ambient::root(), &mut out);
    match out.into_iter().next() {
        Some(f) => Err(Error::plan(f.message)),
        None => Ok(()),
    }
}

/// Check `plan` and then its subtree, stopping after the first node with
/// findings; true once one is found. A child's context is derived only
/// once the children before it are clean.
fn walk(plan: &LogicalPlan, ambient: &Ambient, out: &mut Vec<Finding>) -> bool {
    check(plan, ambient, out);
    !out.is_empty()
        || plan
            .children()
            .into_iter()
            .enumerate()
            .any(|(i, c)| walk(c, &ambient.child(plan, i), out))
}

/// Record every §3 rule `node` itself breaks (its children are not
/// inspected), in the context `ambient`: inside a per-group query its
/// `GroupScan` leaves must match the group schema, and its correlated
/// references must stay below its `Apply` depth. Bounds are checked
/// against input arities, so a valid node records nothing and derives no
/// schema — except a `UnionAll`, whose branch types must be compared.
pub fn check(node: &LogicalPlan, ambient: &Ambient, out: &mut Vec<Finding>) {
    let group_schema = ambient.group_schema.as_ref();
    if group_schema.is_some() {
        check_pgq_operator(node, out);
    }
    let mut pgq = |message: String| out.push(Finding { kind: FindingKind::PgqOperators, message });
    match node {
        LogicalPlan::GroupScan { schema } => match group_schema {
            None => pgq("GroupScan outside a per-group query".to_string()),
            Some(expected) => check_group_schema(schema, expected, &mut pgq),
        },
        LogicalPlan::GApply { input, group_cols, .. } => {
            if group_cols.is_empty() {
                pgq("GApply requires at least one grouping column".to_string());
            }
            for &c in group_cols.iter().filter(|&&c| c >= input.arity()) {
                let in_schema = input.schema();
                pgq(format!("GApply grouping column #{c} out of range for schema {in_schema}"));
            }
        }
        LogicalPlan::ScalarAgg { aggs, .. } if aggs.is_empty() => {
            pgq("ScalarAgg requires at least one aggregate".to_string());
        }
        LogicalPlan::UnionAll { inputs } => {
            if inputs.len() < 2 {
                pgq("UnionAll requires at least two branches".to_string());
            }
            if let Some(first) = inputs.first() {
                let first = first.schema();
                for (n, branch) in inputs.iter().enumerate().skip(1) {
                    check_union_branch(&first, &branch.schema(), n, &mut pgq);
                }
            }
        }
        _ => {}
    }
    check_exprs(node, ambient.apply_depth, out);
}

/// The §3 operator whitelist for per-group queries, which is also the
/// audit of what a parallel `GApply` may run on a worker thread: each
/// worker runs the per-group query against a cloned plan, a snapshot of
/// the outer and group bindings and the shared read-only catalog, which
/// is sound only for operators that are deterministic and
/// self-contained. There is no wildcard arm, so a new operator does not
/// compile until it is classified here.
fn check_pgq_operator(node: &LogicalPlan, out: &mut Vec<Finding>) {
    let message = match node {
        // Cleared: reads only the group binding the worker owns.
        LogicalPlan::GroupScan { .. } => return,
        // Cleared: pure row-at-a-time evaluation of deterministic
        // expressions (the expression language has no time, random or
        // I/O primitives).
        LogicalPlan::Select { .. } | LogicalPlan::Project { .. } => return,
        // Cleared: build state is worker-local (each worker owns a fresh
        // clone) and results are order-canonicalised downstream.
        LogicalPlan::GroupBy { .. }
        | LogicalPlan::ScalarAgg { .. }
        | LogicalPlan::Distinct { .. } => return,
        // Cleared: stable sort over deterministic keys.
        LogicalPlan::OrderBy { .. } => return,
        // Cleared: branch order is fixed by the plan.
        LogicalPlan::UnionAll { .. } => return,
        // Cleared: the inner plan re-binds per outer row within the
        // worker; its result memo is plan-local and each worker owns a
        // cloned plan.
        LogicalPlan::Apply { .. } | LogicalPlan::Exists { .. } => return,
        LogicalPlan::Scan { table, .. } => format!(
            "base-table scan of `{table}` inside a per-group query, which \
             may only scan the group's temporary relation, not base tables"
        ),
        LogicalPlan::Join { .. } | LogicalPlan::LeftOuterJoin { .. } => {
            "join is not a permitted per-group query operator".to_string()
        }
        LogicalPlan::GApply { .. } => {
            "GApply may not be nested inside a per-group query".to_string()
        }
    };
    out.push(Finding { kind: FindingKind::PgqOperators, message });
}

/// A `GroupScan` must carry the group's schema: same arity, and per
/// column the same (unqualified) name and a compatible type. Qualifiers
/// are ignored — projection pushdown rebuilds group schemas from
/// projected fields whose qualifiers legitimately differ.
fn check_group_schema(schema: &Schema, expected: &Schema, push: &mut impl FnMut(String)) {
    if schema.len() != expected.len() {
        push(format!(
            "GroupScan schema {schema} has {} column(s) but the group schema {expected} has {}",
            schema.len(),
            expected.len()
        ));
        return;
    }
    for (i, (got, want)) in schema.fields().iter().zip(expected.fields()).enumerate() {
        if !got.name.eq_ignore_ascii_case(&want.name) {
            push(format!(
                "GroupScan column #{i} is named `{}` but the group schema calls it `{}`",
                got.name, want.name
            ));
        }
        if got.data_type.unify(want.data_type).is_none() {
            push(format!(
                "GroupScan column #{i} (`{}`) has type {} but the group schema says {}",
                got.name, got.data_type, want.data_type
            ));
        }
    }
}

/// Union branches must be positionally compatible; name the offending
/// column rather than just dumping both schemas.
fn check_union_branch(first: &Schema, branch: &Schema, n: usize, push: &mut impl FnMut(String)) {
    if branch.len() != first.len() {
        push(format!(
            "UnionAll branch {n} has {} column(s) but branch 0 has {}",
            branch.len(),
            first.len()
        ));
        return;
    }
    for (i, (f, b)) in first.fields().iter().zip(branch.fields()).enumerate() {
        if f.data_type.unify(b.data_type).is_none() {
            push(format!(
                "UnionAll branch {n} column #{i} (`{}`) has type {} which does not unify with \
                 branch 0's {}",
                b.name, b.data_type, f.data_type
            ));
        }
    }
}

/// Every column an operator's expressions (and a `GroupBy`'s keys)
/// mention must exist in the input they are evaluated against, and every
/// correlated reference must resolve to an enclosing `Apply`. Only the
/// input's arity is needed; its schema is derived to word a finding.
fn check_exprs(node: &LogicalPlan, apply_depth: usize, out: &mut Vec<Finding>) {
    let width = match node {
        LogicalPlan::Select { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::GroupBy { input, .. }
        | LogicalPlan::ScalarAgg { input, .. }
        | LogicalPlan::OrderBy { input, .. } => input.arity(),
        LogicalPlan::Join { left, right, .. } | LogicalPlan::LeftOuterJoin { left, right, .. } => {
            left.arity() + right.arity()
        }
        LogicalPlan::Scan { .. }
        | LogicalPlan::GroupScan { .. }
        | LogicalPlan::GApply { .. }
        | LogicalPlan::UnionAll { .. }
        | LogicalPlan::Distinct { .. }
        | LogicalPlan::Apply { .. }
        | LogicalPlan::Exists { .. } => return,
    };
    // A join's expressions see both inputs, concatenated.
    let schema = || {
        let children = node.children();
        children[1..].iter().fold(children[0].schema(), |s, c| s.join(&c.schema()))
    };
    if let LogicalPlan::GroupBy { keys, .. } = node {
        for &k in keys.iter().filter(|&&k| k >= width) {
            out.push(Finding {
                kind: FindingKind::ColumnBounds,
                message: format!("GroupBy key #{k} out of range for schema {}", schema()),
            });
        }
    }
    node.for_each_expr(&mut |expr, role| {
        expr.visit(&mut |e| match e {
            Expr::Column(i) if *i >= width => out.push(Finding {
                kind: FindingKind::ColumnBounds,
                message: format!("{role}: column #{i} out of range for schema {}", schema()),
            }),
            Expr::Correlated { level, index } if *level >= apply_depth => out.push(Finding {
                kind: FindingKind::CorrelationDepth,
                message: format!(
                    "{role}: correlated reference outer[{level}]#{index} but only {apply_depth} \
                     enclosing Apply operator(s)"
                ),
            }),
            _ => {}
        })
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ApplyMode, ProjectItem};
    use xmlpub_common::{DataType, Field};
    use xmlpub_expr::AggExpr;

    fn schema3() -> Schema {
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
            Field::new("s", DataType::Str),
        ])
    }

    fn scan() -> LogicalPlan {
        LogicalPlan::scan("t", schema3())
    }

    #[test]
    fn valid_simple_plans() {
        validate(&scan()).unwrap();
        validate(&scan().select(Expr::col(1).gt(Expr::lit(1.0)))).unwrap();
        validate(&scan().project_cols(&[2, 0])).unwrap();
        validate(&scan().group_by(vec![0], vec![AggExpr::avg(Expr::col(1), "a")])).unwrap();
        validate(&scan().order_by(vec![crate::plan::SortKey::asc(0)])).unwrap();
    }

    #[test]
    fn column_out_of_range() {
        assert!(validate(&scan().select(Expr::col(7).gt(Expr::lit(1)))).is_err());
        assert!(validate(&scan().project(vec![ProjectItem::col(9)])).is_err());
        assert!(validate(&scan().group_by(vec![9], vec![])).is_err());
        assert!(validate(&scan().group_by(vec![0], vec![AggExpr::avg(Expr::col(9), "a")])).is_err());
    }

    #[test]
    fn group_scan_needs_gapply() {
        assert!(validate(&LogicalPlan::group_scan(schema3())).is_err());
    }

    #[test]
    fn valid_gapply() {
        let pgq =
            LogicalPlan::group_scan(schema3()).scalar_agg(vec![AggExpr::avg(Expr::col(1), "a")]);
        validate(&scan().gapply(vec![0], pgq)).unwrap();
    }

    #[test]
    fn gapply_grouping_columns_checked() {
        let pgq = LogicalPlan::group_scan(schema3()).scalar_agg(vec![AggExpr::count_star("c")]);
        assert!(validate(&scan().gapply(vec![9], pgq.clone())).is_err());
        assert!(validate(&scan().gapply(vec![], pgq)).is_err());
    }

    #[test]
    fn pgq_may_not_scan_base_tables() {
        let pgq = scan().scalar_agg(vec![AggExpr::count_star("c")]);
        let err = validate(&scan().gapply(vec![0], pgq)).unwrap_err();
        assert!(err.to_string().contains("temporary relation"), "{err}");
    }

    #[test]
    fn pgq_may_not_join_or_nest_gapply() {
        let joined = LogicalPlan::group_scan(schema3())
            .join(LogicalPlan::group_scan(schema3()), Expr::lit(true));
        assert!(validate(&scan().gapply(vec![0], joined)).is_err());

        let nested_pgq = LogicalPlan::group_scan(schema3()).gapply(
            vec![0],
            LogicalPlan::group_scan(schema3()).scalar_agg(vec![AggExpr::count_star("c")]),
        );
        assert!(validate(&scan().gapply(vec![0], nested_pgq)).is_err());
    }

    #[test]
    fn group_scan_schema_must_match() {
        let wrong = Schema::new(vec![Field::new("x", DataType::Int)]);
        let pgq = LogicalPlan::group_scan(wrong).scalar_agg(vec![AggExpr::count_star("c")]);
        assert!(validate(&scan().gapply(vec![0], pgq)).is_err());
    }

    #[test]
    fn group_scan_field_names_and_types_checked() {
        // Same arity but a renamed column: caught, and the error names it.
        let renamed = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
            Field::new("zzz", DataType::Str),
        ]);
        let pgq = LogicalPlan::group_scan(renamed).scalar_agg(vec![AggExpr::count_star("c")]);
        let err = validate(&scan().gapply(vec![0], pgq)).unwrap_err();
        assert!(err.to_string().contains("`zzz`"), "{err}");

        // Same names but a type that does not unify: caught by column.
        let retyped = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Str),
            Field::new("s", DataType::Str),
        ]);
        let pgq = LogicalPlan::group_scan(retyped).scalar_agg(vec![AggExpr::count_star("c")]);
        let err = validate(&scan().gapply(vec![0], pgq)).unwrap_err();
        assert!(err.to_string().contains("column #1"), "{err}");

        // Int vs Float unifies, so a numeric widening is tolerated.
        let widened = Schema::new(vec![
            Field::new("k", DataType::Float),
            Field::new("v", DataType::Float),
            Field::new("s", DataType::Str),
        ]);
        let pgq = LogicalPlan::group_scan(widened).scalar_agg(vec![AggExpr::count_star("c")]);
        validate(&scan().gapply(vec![0], pgq)).unwrap();
    }

    #[test]
    fn union_error_names_the_offending_column() {
        let u = LogicalPlan::union_all(vec![
            scan().project_cols(&[0, 1]),
            scan().project_cols(&[0, 2]),
        ]);
        let err = validate(&u).unwrap_err();
        assert!(err.to_string().contains("column #1"), "{err}");
    }

    #[test]
    fn union_checks() {
        let u = LogicalPlan::union_all(vec![scan().project_cols(&[0])]);
        assert!(validate(&u).is_err());
        let u =
            LogicalPlan::union_all(vec![scan().project_cols(&[0]), scan().project_cols(&[0, 1])]);
        assert!(validate(&u).is_err());
        let u = LogicalPlan::union_all(vec![scan().project_cols(&[0]), scan().project_cols(&[2])]);
        assert!(validate(&u).is_err()); // int vs str
        let u = LogicalPlan::union_all(vec![scan().project_cols(&[0]), scan().project_cols(&[1])]);
        validate(&u).unwrap(); // int unifies with float
    }

    #[test]
    fn correlated_needs_apply() {
        let sel = scan().select(Expr::Correlated { level: 0, index: 0 }.eq(Expr::col(0)));
        assert!(validate(&sel).is_err());
        // Inside an Apply's inner it is fine.
        let inner = scan().select(Expr::Correlated { level: 0, index: 0 }.eq(Expr::col(0)));
        let ap = scan().apply(inner, ApplyMode::Cross);
        validate(&ap).unwrap();
        // Level too deep still fails.
        let inner = scan().select(Expr::Correlated { level: 1, index: 0 }.eq(Expr::col(0)));
        let ap = scan().apply(inner, ApplyMode::Cross);
        assert!(validate(&ap).is_err());
    }

    #[test]
    fn check_records_every_finding_and_validate_reports_the_first() {
        let pred = Expr::col(7)
            .gt(Expr::col(8))
            .and(Expr::Correlated { level: 0, index: 0 }.eq(Expr::col(0)));
        let plan = scan().select(pred);
        let mut out = Vec::new();
        check(&plan, &Ambient::root(), &mut out);
        let kinds: Vec<&str> = out.iter().map(|f| f.kind.id()).collect();
        assert_eq!(kinds, ["column-bounds", "column-bounds", "correlation-depth"]);
        assert_eq!(validate(&plan), Err(Error::plan(out[0].message.clone())));

        // The walk is pre-order: a broken parent is reported before its
        // broken child.
        let plan = scan().select(Expr::col(9).gt(Expr::lit(1))).project_cols(&[5]);
        let err = validate(&plan).unwrap_err().to_string();
        assert!(err.contains("Project item: column #5"), "{err}");
    }

    #[test]
    fn scalar_agg_requires_aggregates() {
        assert!(validate(&scan().scalar_agg(vec![])).is_err());
    }

    #[test]
    fn pgq_with_apply_and_exists_is_valid() {
        // Q2-shaped per-group query: count over a selection comparing to a
        // scalar subquery over the same group.
        let gs = || LogicalPlan::group_scan(schema3());
        let avg_inner = gs().scalar_agg(vec![AggExpr::avg(Expr::col(1), "a")]);
        let pgq = gs()
            .apply(avg_inner, ApplyMode::Cross)
            .select(Expr::col(1).gt_eq(Expr::col(3)))
            .scalar_agg(vec![AggExpr::count_star("c")]);
        validate(&scan().gapply(vec![0], pgq)).unwrap();

        let ex = gs().select(Expr::col(1).gt(Expr::lit(100.0))).exists();
        let pgq = gs().apply(ex, ApplyMode::Cross);
        validate(&scan().gapply(vec![0], pgq)).unwrap();
    }
}
