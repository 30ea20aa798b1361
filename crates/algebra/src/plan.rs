//! The logical operator tree.
//!
//! Operator repertoire = the paper's §3/§4 algebra. Multiset semantics
//! throughout; `distinct` is explicit. Every node can derive its output
//! [`Schema`] from its inputs, and the tree renders as an indented
//! EXPLAIN-style listing via [`LogicalPlan::explain`].

use std::fmt;
use xmlpub_common::{ColumnSet, DataType, Field, Schema, Value};
use xmlpub_expr::{AggExpr, Expr};

/// One projection item: an expression and an optional output alias.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectItem {
    /// The computed expression (often a bare column).
    pub expr: Expr,
    /// Output name; defaults to the source column's name for bare columns.
    pub alias: Option<String>,
}

impl ProjectItem {
    /// A bare column pass-through.
    pub fn col(index: usize) -> Self {
        ProjectItem { expr: Expr::col(index), alias: None }
    }

    /// An expression with an output alias.
    pub fn named(expr: Expr, alias: impl Into<String>) -> Self {
        ProjectItem { expr, alias: Some(alias.into()) }
    }

    /// Derive the output field against the input schema.
    pub fn output_field(&self, input: &Schema, position: usize) -> Field {
        match (&self.expr, &self.alias) {
            (Expr::Column(i), None) => input
                .fields()
                .get(*i)
                .cloned()
                .unwrap_or_else(|| Field::new(format!("_c{position}"), DataType::Null)),
            (expr, alias) => {
                let name = alias.clone().unwrap_or_else(|| format!("_c{position}"));
                // A NULL literal keeps type Null so unions can unify it
                // against the sibling branch (sorted-outer-union padding).
                // An alias of the form `qualifier.name` produces a
                // qualified field — how the binder re-qualifies derived
                // table columns under their FROM alias.
                match name.split_once('.') {
                    Some((q, n)) => Field::qualified(q, n, expr.data_type(input)),
                    None => Field::new(name, expr.data_type(input)),
                }
            }
        }
    }
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// Sort expression (usually a column).
    pub expr: Expr,
    /// Ascending?
    pub asc: bool,
}

impl SortKey {
    /// Ascending sort on a column.
    pub fn asc(col: usize) -> Self {
        SortKey { expr: Expr::col(col), asc: true }
    }

    /// Descending sort on a column.
    pub fn desc(col: usize) -> Self {
        SortKey { expr: Expr::col(col), asc: false }
    }
}

/// How an `Apply` combines each outer row with its inner result
/// (the subquery execution model of \[12\] in the paper's references).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyMode {
    /// `R A E = ⋃_{r∈R} {r} × E(r)`: an outer row with an empty inner
    /// result disappears. This is the paper's `apply`.
    Cross,
    /// Keep outer rows whose inner result is empty, padding with NULLs.
    LeftOuter,
    /// Scalar-subquery apply: inner must yield ≤ 1 row; 0 rows pad with
    /// NULLs, > 1 row is a runtime error.
    Scalar,
}

impl ApplyMode {
    fn label(self) -> &'static str {
        match self {
            ApplyMode::Cross => "cross",
            ApplyMode::LeftOuter => "outer",
            ApplyMode::Scalar => "scalar",
        }
    }
}

/// A logical query plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan of a named base table.
    Scan {
        /// Table name in the catalog.
        table: String,
        /// The table schema (qualified by the binder's alias).
        schema: Schema,
    },
    /// Scan of the relation-valued variable bound by the enclosing
    /// `GApply` (the paper's `$group` temporary relation). Only legal
    /// inside a per-group query.
    GroupScan {
        /// Schema of the bound group — the (possibly projected) outer
        /// schema of the owning `GApply`.
        schema: Schema,
    },
    /// `σ_predicate(input)`.
    Select {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Boolean predicate (SQL WHERE semantics: NULL rejects).
        predicate: Expr,
    },
    /// Generalised projection `π_items(input)` (computes expressions).
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Output expressions in order.
        items: Vec<ProjectItem>,
    },
    /// Inner join with an arbitrary predicate over the concatenated
    /// schema (left columns first).
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join predicate over `left.schema ++ right.schema`.
        predicate: Expr,
        /// Whether this is a *foreign-key join*: the predicate is a
        /// key/foreign-key equality where the left child has a foreign
        /// key referencing the right child's key, so every left row
        /// matches exactly one right row. Set by the binder from catalog
        /// metadata; required by the invariant-grouping rule (§4.3).
        fk_left_to_right: bool,
    },
    /// Left outer join: every left row survives; unmatched rows pad the
    /// right side with NULLs. Produced by the scalar-subquery
    /// decorrelation rewrite (Galindo-Legaria & Joshi style); not part of
    /// the paper's §4 rule patterns, which therefore never match it.
    LeftOuterJoin {
        /// Preserved side.
        left: Box<LogicalPlan>,
        /// Nullable side.
        right: Box<LogicalPlan>,
        /// Join predicate over `left.schema ++ right.schema`.
        predicate: Expr,
    },
    /// The paper's `GApply(GCols, PGQ)`.
    GApply {
        /// Outer query (the stream to partition).
        input: Box<LogicalPlan>,
        /// Grouping (partitioning) column indices into `input`'s schema.
        group_cols: Vec<usize>,
        /// Per-group query; its leaves are `GroupScan`s over the group.
        pgq: Box<LogicalPlan>,
    },
    /// Grouping aggregation: one output row per distinct key combination.
    GroupBy {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Grouping column indices.
        keys: Vec<usize>,
        /// Aggregates computed per group.
        aggs: Vec<AggExpr>,
    },
    /// The paper's `aggregate` operator: aggregates over the whole input,
    /// always producing exactly one row (even on empty input — the root
    /// of the emptyOnEmpty analysis).
    ScalarAgg {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Aggregates to compute.
        aggs: Vec<AggExpr>,
    },
    /// Bag union of 2+ compatible inputs.
    UnionAll {
        /// The branches.
        inputs: Vec<LogicalPlan>,
    },
    /// Duplicate elimination.
    Distinct {
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// Sort (presentational; also used to cluster rows for the tagger).
    OrderBy {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys, major first.
        keys: Vec<SortKey>,
    },
    /// Correlated apply: evaluate `inner` once per outer row, with the
    /// outer row visible to the inner plan through
    /// `Expr::Correlated { level: 0, .. }`.
    Apply {
        /// Outer input.
        outer: Box<LogicalPlan>,
        /// Parameterised inner plan.
        inner: Box<LogicalPlan>,
        /// Combination mode.
        mode: ApplyMode,
    },
    /// The paper's `exists`: `{()}` (one tuple over the null schema) if
    /// the input is non-empty, else `∅`. With `negated` the two cases
    /// swap, giving NOT EXISTS.
    Exists {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// NOT EXISTS?
        negated: bool,
    },
}

impl LogicalPlan {
    /// Scan constructor.
    pub fn scan(table: impl Into<String>, schema: Schema) -> LogicalPlan {
        LogicalPlan::Scan { table: table.into(), schema }
    }

    /// Group-scan constructor.
    pub fn group_scan(schema: Schema) -> LogicalPlan {
        LogicalPlan::GroupScan { schema }
    }

    /// Wrap in a selection.
    pub fn select(self, predicate: Expr) -> LogicalPlan {
        LogicalPlan::Select { input: Box::new(self), predicate }
    }

    /// Wrap in a projection.
    pub fn project(self, items: Vec<ProjectItem>) -> LogicalPlan {
        LogicalPlan::Project { input: Box::new(self), items }
    }

    /// Project onto bare columns.
    pub fn project_cols(self, cols: &[usize]) -> LogicalPlan {
        self.project(cols.iter().map(|&c| ProjectItem::col(c)).collect())
    }

    /// Join with another plan.
    pub fn join(self, right: LogicalPlan, predicate: Expr) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            predicate,
            fk_left_to_right: false,
        }
    }

    /// Left outer join with another plan.
    pub fn left_outer_join(self, right: LogicalPlan, predicate: Expr) -> LogicalPlan {
        LogicalPlan::LeftOuterJoin { left: Box::new(self), right: Box::new(right), predicate }
    }

    /// Join annotated as a foreign-key join (left has FK to right).
    pub fn fk_join(self, right: LogicalPlan, predicate: Expr) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            predicate,
            fk_left_to_right: true,
        }
    }

    /// Wrap in a GApply.
    pub fn gapply(self, group_cols: Vec<usize>, pgq: LogicalPlan) -> LogicalPlan {
        LogicalPlan::GApply { input: Box::new(self), group_cols, pgq: Box::new(pgq) }
    }

    /// Wrap in a group-by.
    pub fn group_by(self, keys: Vec<usize>, aggs: Vec<AggExpr>) -> LogicalPlan {
        LogicalPlan::GroupBy { input: Box::new(self), keys, aggs }
    }

    /// Wrap in a scalar aggregate.
    pub fn scalar_agg(self, aggs: Vec<AggExpr>) -> LogicalPlan {
        LogicalPlan::ScalarAgg { input: Box::new(self), aggs }
    }

    /// Bag-union with other branches.
    pub fn union_all(inputs: Vec<LogicalPlan>) -> LogicalPlan {
        LogicalPlan::UnionAll { inputs }
    }

    /// Wrap in duplicate elimination.
    pub fn distinct(self) -> LogicalPlan {
        LogicalPlan::Distinct { input: Box::new(self) }
    }

    /// Wrap in a sort.
    pub fn order_by(self, keys: Vec<SortKey>) -> LogicalPlan {
        LogicalPlan::OrderBy { input: Box::new(self), keys }
    }

    /// Correlated apply.
    pub fn apply(self, inner: LogicalPlan, mode: ApplyMode) -> LogicalPlan {
        LogicalPlan::Apply { outer: Box::new(self), inner: Box::new(inner), mode }
    }

    /// Existence test.
    pub fn exists(self) -> LogicalPlan {
        LogicalPlan::Exists { input: Box::new(self), negated: false }
    }

    /// Negated existence test.
    pub fn not_exists(self) -> LogicalPlan {
        LogicalPlan::Exists { input: Box::new(self), negated: true }
    }

    /// Derive the output schema.
    pub fn schema(&self) -> Schema {
        match self {
            LogicalPlan::Scan { schema, .. } | LogicalPlan::GroupScan { schema } => schema.clone(),
            LogicalPlan::Select { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::OrderBy { input, .. } => input.schema(),
            LogicalPlan::Project { input, items } => {
                let in_schema = input.schema();
                Schema::new(
                    items
                        .iter()
                        .enumerate()
                        .map(|(i, item)| item.output_field(&in_schema, i))
                        .collect(),
                )
            }
            LogicalPlan::Join { left, right, .. }
            | LogicalPlan::LeftOuterJoin { left, right, .. } => left.schema().join(&right.schema()),
            LogicalPlan::GApply { input, group_cols, pgq } => {
                let in_schema = input.schema();
                let key_fields: Vec<Field> =
                    group_cols.iter().map(|&c| in_schema.field(c).clone()).collect();
                Schema::new(key_fields).join(&pgq.schema())
            }
            LogicalPlan::GroupBy { input, keys, aggs } => {
                let in_schema = input.schema();
                let mut fields: Vec<Field> =
                    keys.iter().map(|&k| in_schema.field(k).clone()).collect();
                fields.extend(
                    aggs.iter().map(|a| Field::new(a.output_name.clone(), a.data_type(&in_schema))),
                );
                Schema::new(fields)
            }
            LogicalPlan::ScalarAgg { input, aggs } => {
                let in_schema = input.schema();
                Schema::new(
                    aggs.iter()
                        .map(|a| Field::new(a.output_name.clone(), a.data_type(&in_schema)))
                        .collect(),
                )
            }
            LogicalPlan::UnionAll { inputs } => {
                let mut schema = inputs
                    .first()
                    .map(|p| p.schema().without_qualifiers())
                    .unwrap_or_else(Schema::empty);
                for branch in inputs.iter().skip(1) {
                    // Branch compatibility is enforced by validate(); here
                    // unify types best-effort so NULL-padded branches
                    // (sorted outer unions) get the concrete sibling type.
                    if let Ok(unified) = schema.union_schema(&branch.schema()) {
                        schema = unified;
                    }
                }
                schema
            }
            LogicalPlan::Apply { outer, inner, .. } => outer.schema().join(&inner.schema()),
            LogicalPlan::Exists { .. } => Schema::empty(),
        }
    }

    /// The number of output columns: `self.schema().len()`, without
    /// deriving (and allocating) the schema.
    pub fn arity(&self) -> usize {
        match self {
            LogicalPlan::Scan { schema, .. } | LogicalPlan::GroupScan { schema } => schema.len(),
            LogicalPlan::Select { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::OrderBy { input, .. } => input.arity(),
            LogicalPlan::Project { items, .. } => items.len(),
            LogicalPlan::Join { left, right, .. }
            | LogicalPlan::LeftOuterJoin { left, right, .. } => left.arity() + right.arity(),
            LogicalPlan::GApply { group_cols, pgq, .. } => group_cols.len() + pgq.arity(),
            LogicalPlan::GroupBy { keys, aggs, .. } => keys.len() + aggs.len(),
            LogicalPlan::ScalarAgg { aggs, .. } => aggs.len(),
            LogicalPlan::UnionAll { inputs } => inputs.first().map_or(0, |p| p.arity()),
            LogicalPlan::Apply { outer, inner, .. } => outer.arity() + inner.arity(),
            LogicalPlan::Exists { .. } => 0,
        }
    }

    /// Borrow the child plans in a fixed order (outer/left before
    /// inner/right; union branches in order).
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::GroupScan { .. } => vec![],
            LogicalPlan::Select { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::GroupBy { input, .. }
            | LogicalPlan::ScalarAgg { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::OrderBy { input, .. }
            | LogicalPlan::Exists { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. }
            | LogicalPlan::LeftOuterJoin { left, right, .. } => vec![left, right],
            LogicalPlan::GApply { input, pgq, .. } => vec![input, pgq],
            LogicalPlan::UnionAll { inputs } => inputs.iter().collect(),
            LogicalPlan::Apply { outer, inner, .. } => vec![outer, inner],
        }
    }

    /// Rebuild this node with children produced by `f` (applied in the
    /// same order as [`LogicalPlan::children`]).
    pub fn map_children(self, f: &mut impl FnMut(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
        match self {
            leaf @ (LogicalPlan::Scan { .. } | LogicalPlan::GroupScan { .. }) => leaf,
            LogicalPlan::Select { input, predicate } => {
                LogicalPlan::Select { input: Box::new(f(*input)), predicate }
            }
            LogicalPlan::Project { input, items } => {
                LogicalPlan::Project { input: Box::new(f(*input)), items }
            }
            LogicalPlan::Join { left, right, predicate, fk_left_to_right } => LogicalPlan::Join {
                left: Box::new(f(*left)),
                right: Box::new(f(*right)),
                predicate,
                fk_left_to_right,
            },
            LogicalPlan::LeftOuterJoin { left, right, predicate } => LogicalPlan::LeftOuterJoin {
                left: Box::new(f(*left)),
                right: Box::new(f(*right)),
                predicate,
            },
            LogicalPlan::GApply { input, group_cols, pgq } => LogicalPlan::GApply {
                input: Box::new(f(*input)),
                group_cols,
                pgq: Box::new(f(*pgq)),
            },
            LogicalPlan::GroupBy { input, keys, aggs } => {
                LogicalPlan::GroupBy { input: Box::new(f(*input)), keys, aggs }
            }
            LogicalPlan::ScalarAgg { input, aggs } => {
                LogicalPlan::ScalarAgg { input: Box::new(f(*input)), aggs }
            }
            LogicalPlan::UnionAll { inputs } => {
                LogicalPlan::UnionAll { inputs: inputs.into_iter().map(f).collect() }
            }
            LogicalPlan::Distinct { input } => LogicalPlan::Distinct { input: Box::new(f(*input)) },
            LogicalPlan::OrderBy { input, keys } => {
                LogicalPlan::OrderBy { input: Box::new(f(*input)), keys }
            }
            LogicalPlan::Apply { outer, inner, mode } => {
                LogicalPlan::Apply { outer: Box::new(f(*outer)), inner: Box::new(f(*inner)), mode }
            }
            LogicalPlan::Exists { input, negated } => {
                LogicalPlan::Exists { input: Box::new(f(*input)), negated }
            }
        }
    }

    /// Visit every scalar expression this node carries (not its
    /// children's), with a short role label for diagnostics.
    pub fn for_each_expr(&self, f: &mut impl FnMut(&Expr, &'static str)) {
        match self {
            LogicalPlan::Select { predicate, .. } => f(predicate, "Select predicate"),
            LogicalPlan::Project { items, .. } => {
                for it in items {
                    f(&it.expr, "Project item");
                }
            }
            LogicalPlan::Join { predicate, .. } | LogicalPlan::LeftOuterJoin { predicate, .. } => {
                f(predicate, "join predicate")
            }
            LogicalPlan::GroupBy { aggs, .. } | LogicalPlan::ScalarAgg { aggs, .. } => {
                for arg in aggs.iter().filter_map(|a| a.arg.as_ref()) {
                    f(arg, "aggregate argument");
                }
            }
            LogicalPlan::OrderBy { keys, .. } => {
                for k in keys {
                    f(&k.expr, "OrderBy key");
                }
            }
            LogicalPlan::Scan { .. }
            | LogicalPlan::GroupScan { .. }
            | LogicalPlan::GApply { .. }
            | LogicalPlan::UnionAll { .. }
            | LogicalPlan::Distinct { .. }
            | LogicalPlan::Apply { .. }
            | LogicalPlan::Exists { .. } => {}
        }
    }

    /// The outer-row columns this subtree reads through correlated
    /// references that escape to the `Apply` `level` levels above its
    /// root. The inner side of an `Apply` inside the subtree is walked at
    /// `level + 1`. Empty when the subtree is uncorrelated at `level`.
    pub fn outer_columns(&self, level: usize) -> ColumnSet {
        let mut out = ColumnSet::new();
        self.outer_columns_into(level, &mut out);
        out
    }

    fn outer_columns_into(&self, level: usize, out: &mut ColumnSet) {
        self.for_each_expr(&mut |expr, _| {
            expr.visit(&mut |e| {
                if let Expr::Correlated { level: l, index } = e {
                    if *l == level {
                        out.insert(*index);
                    }
                }
            })
        });
        match self {
            LogicalPlan::Apply { outer, inner, .. } => {
                outer.outer_columns_into(level, out);
                inner.outer_columns_into(level + 1, out);
            }
            other => {
                for c in other.children() {
                    c.outer_columns_into(level, out);
                }
            }
        }
    }

    /// Whether any node in this subtree satisfies `pred`.
    pub fn any_node(&self, pred: &impl Fn(&LogicalPlan) -> bool) -> bool {
        pred(self) || self.children().iter().any(|c| c.any_node(pred))
    }

    /// Count nodes in the subtree (used by optimizer termination tests).
    pub fn node_count(&self) -> usize {
        1 + self.children().iter().map(|c| c.node_count()).sum::<usize>()
    }

    /// Short operator label for EXPLAIN.
    pub fn label(&self) -> String {
        match self {
            LogicalPlan::Scan { table, .. } => format!("Scan {table}"),
            LogicalPlan::GroupScan { .. } => "GroupScan $group".to_string(),
            LogicalPlan::Select { predicate, input } => {
                format!("Select {}", predicate.display(&input.schema()))
            }
            LogicalPlan::Project { items, input } => {
                let in_schema = input.schema();
                let cols: Vec<String> = items
                    .iter()
                    .map(|it| match &it.alias {
                        Some(a) => format!("{} as {a}", it.expr.display(&in_schema)),
                        None => it.expr.display(&in_schema),
                    })
                    .collect();
                format!("Project [{}]", cols.join(", "))
            }
            LogicalPlan::Join { predicate, fk_left_to_right, left, right } => {
                let schema = left.schema().join(&right.schema());
                format!(
                    "Join{} on {}",
                    if *fk_left_to_right { " (fk)" } else { "" },
                    predicate.display(&schema)
                )
            }
            LogicalPlan::LeftOuterJoin { predicate, left, right } => {
                let schema = left.schema().join(&right.schema());
                format!("LeftOuterJoin on {}", predicate.display(&schema))
            }
            LogicalPlan::GApply { group_cols, input, .. } => {
                let schema = input.schema();
                let cols: Vec<String> =
                    group_cols.iter().map(|&c| schema.field(c).qualified_name()).collect();
                format!("GApply group=[{}]", cols.join(", "))
            }
            LogicalPlan::GroupBy { keys, aggs, input } => {
                let schema = input.schema();
                let ks: Vec<String> =
                    keys.iter().map(|&k| schema.field(k).qualified_name()).collect();
                let ags: Vec<String> = aggs.iter().map(|a| a.display(&schema)).collect();
                format!("GroupBy keys=[{}] aggs=[{}]", ks.join(", "), ags.join(", "))
            }
            LogicalPlan::ScalarAgg { aggs, input } => {
                let schema = input.schema();
                let ags: Vec<String> = aggs.iter().map(|a| a.display(&schema)).collect();
                format!("ScalarAgg [{}]", ags.join(", "))
            }
            LogicalPlan::UnionAll { inputs } => format!("UnionAll ({} branches)", inputs.len()),
            LogicalPlan::Distinct { .. } => "Distinct".to_string(),
            LogicalPlan::OrderBy { keys, input } => {
                let schema = input.schema();
                let ks: Vec<String> = keys
                    .iter()
                    .map(|k| {
                        format!("{}{}", k.expr.display(&schema), if k.asc { "" } else { " desc" })
                    })
                    .collect();
                format!("OrderBy [{}]", ks.join(", "))
            }
            LogicalPlan::Apply { mode, .. } => format!("Apply ({})", mode.label()),
            LogicalPlan::Exists { negated, .. } => {
                if *negated {
                    "NotExists".to_string()
                } else {
                    "Exists".to_string()
                }
            }
        }
    }

    /// Render the subtree as an indented EXPLAIN listing.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&self.label());
        out.push('\n');
        match self {
            // GApply prints its per-group query under a marker so the
            // relation-valued boundary is visible.
            LogicalPlan::GApply { input, pgq, .. } => {
                input.explain_into(out, depth + 1);
                out.push_str(&"  ".repeat(depth + 1));
                out.push_str("per-group:\n");
                pgq.explain_into(out, depth + 2);
            }
            _ => {
                for c in self.children() {
                    c.explain_into(out, depth + 1);
                }
            }
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

/// Convenience: a literal NULL project item named `name` (the padding
/// column of a sorted outer union branch).
pub fn null_item(name: impl Into<String>) -> ProjectItem {
    ProjectItem::named(Expr::Literal(Value::Null), name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlpub_common::DataType;

    fn partsupp_part() -> Schema {
        Schema::new(vec![
            Field::qualified("partsupp", "ps_suppkey", DataType::Int),
            Field::qualified("partsupp", "ps_partkey", DataType::Int),
            Field::qualified("part", "p_partkey", DataType::Int),
            Field::qualified("part", "p_name", DataType::Str),
            Field::qualified("part", "p_retailprice", DataType::Float),
        ])
    }

    /// The paper's Q1 per-group query: project(name, price, NULL) union
    /// all project(NULL, NULL, avg(price)).
    fn q1_pgq(group_schema: &Schema) -> LogicalPlan {
        let name = group_schema.resolve(None, "p_name").unwrap();
        let price = group_schema.resolve(None, "p_retailprice").unwrap();
        let branch1 = LogicalPlan::group_scan(group_schema.clone()).project(vec![
            ProjectItem::col(name),
            ProjectItem::col(price),
            null_item("avgprice"),
        ]);
        let branch2 = LogicalPlan::group_scan(group_schema.clone())
            .scalar_agg(vec![AggExpr::avg(Expr::col(price), "a")])
            .project(vec![null_item("p_name"), null_item("p_retailprice"), ProjectItem::col(0)]);
        LogicalPlan::union_all(vec![branch1, branch2])
    }

    #[test]
    fn scan_and_select_schema() {
        let s = LogicalPlan::scan("partsupp", partsupp_part());
        assert_eq!(s.schema().len(), 5);
        let sel = s.select(Expr::col(4).gt(Expr::lit(100.0)));
        assert_eq!(sel.schema().len(), 5);
    }

    #[test]
    fn project_schema_names() {
        let p = LogicalPlan::scan("t", partsupp_part()).project(vec![
            ProjectItem::col(3),
            ProjectItem::named(Expr::col(4).gt(Expr::lit(1)), "expensive"),
            null_item("pad"),
        ]);
        let schema = p.schema();
        assert_eq!(schema.field(0).name, "p_name");
        assert_eq!(schema.field(0).qualifier.as_deref(), Some("part"));
        assert_eq!(schema.field(1).name, "expensive");
        assert_eq!(schema.field(1).data_type, DataType::Bool);
        assert_eq!(schema.field(2).data_type, DataType::Null);
    }

    #[test]
    fn gapply_schema_is_keys_then_pgq() {
        let outer = LogicalPlan::scan("j", partsupp_part());
        let pgq = q1_pgq(&outer.schema());
        let plan = outer.gapply(vec![0], pgq);
        let schema = plan.schema();
        assert_eq!(schema.len(), 4);
        assert_eq!(schema.field(0).name, "ps_suppkey");
        assert_eq!(schema.field(1).name, "p_name");
        // Union unifies the NULL pad with avg's float.
        assert_eq!(schema.field(3).data_type, DataType::Float);
    }

    #[test]
    fn groupby_and_scalar_agg_schema() {
        let g = LogicalPlan::scan("t", partsupp_part())
            .group_by(vec![0], vec![AggExpr::avg(Expr::col(4), "avgprice")]);
        let schema = g.schema();
        assert_eq!(schema.len(), 2);
        assert_eq!(schema.field(1).name, "avgprice");
        assert_eq!(schema.field(1).data_type, DataType::Float);

        let sa = LogicalPlan::scan("t", partsupp_part()).scalar_agg(vec![AggExpr::count_star("n")]);
        assert_eq!(sa.schema().len(), 1);
        assert_eq!(sa.schema().field(0).data_type, DataType::Int);
    }

    #[test]
    fn apply_and_exists_schema() {
        let outer = LogicalPlan::scan("t", partsupp_part());
        let inner = LogicalPlan::group_scan(partsupp_part())
            .scalar_agg(vec![AggExpr::avg(Expr::col(4), "a")]);
        let ap = outer.clone().apply(inner, ApplyMode::Cross);
        assert_eq!(ap.schema().len(), 6);

        let ex = outer.apply(LogicalPlan::scan("u", partsupp_part()).exists(), ApplyMode::Cross);
        assert_eq!(ex.schema().len(), 5); // exists contributes no columns
    }

    #[test]
    fn join_schema_concatenates() {
        let l = LogicalPlan::scan("a", partsupp_part());
        let r = LogicalPlan::scan("b", partsupp_part());
        let j = l.join(r, Expr::col(1).eq(Expr::col(7)));
        assert_eq!(j.schema().len(), 10);
    }

    #[test]
    fn children_and_map_children() {
        let plan =
            LogicalPlan::scan("t", partsupp_part()).select(Expr::lit(true)).project_cols(&[0, 1]);
        assert_eq!(plan.children().len(), 1);
        assert_eq!(plan.node_count(), 3);
        // Replace the child with a bare scan.
        let swapped = plan.map_children(&mut |_| LogicalPlan::scan("x", partsupp_part()));
        match &swapped {
            LogicalPlan::Project { input, .. } => {
                assert!(matches!(**input, LogicalPlan::Scan { .. }))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn any_node_finds_gapply() {
        let outer = LogicalPlan::scan("j", partsupp_part());
        let pgq = q1_pgq(&outer.schema());
        let plan = outer.gapply(vec![0], pgq).order_by(vec![SortKey::asc(0)]);
        assert!(plan.any_node(&|p| matches!(p, LogicalPlan::GApply { .. })));
        assert!(!plan.any_node(&|p| matches!(p, LogicalPlan::Distinct { .. })));
    }

    #[test]
    fn explain_shows_per_group_marker() {
        let outer = LogicalPlan::scan("j", partsupp_part());
        let pgq = q1_pgq(&outer.schema());
        let plan = outer.gapply(vec![0], pgq);
        let text = plan.explain();
        assert!(text.contains("GApply group=[partsupp.ps_suppkey]"), "{text}");
        assert!(text.contains("per-group:"), "{text}");
        assert!(text.contains("UnionAll"), "{text}");
    }

    #[test]
    fn union_schema_unifies_null_padding() {
        let b1 = LogicalPlan::scan("t", partsupp_part())
            .project(vec![ProjectItem::col(0), null_item("x")]);
        let b2 = LogicalPlan::scan("t", partsupp_part())
            .project(vec![ProjectItem::col(0), ProjectItem::named(Expr::col(4), "x")]);
        let u = LogicalPlan::union_all(vec![b1, b2]);
        assert_eq!(u.schema().field(1).data_type, DataType::Float);
    }

    #[test]
    fn outer_columns_reads_every_expression_bearing_variant() {
        let t = || LogicalPlan::scan("t", partsupp_part());
        // One node of each expression-bearing variant, reading outer
        // column #1 at `level`.
        let cases = |level| {
            let outer = Expr::Correlated { level, index: 1 };
            vec![
                t().select(Expr::col(0).eq(outer.clone())),
                t().project(vec![ProjectItem::named(outer.clone(), "o")]),
                t().join(t(), Expr::col(0).eq(outer.clone())),
                t().left_outer_join(t(), Expr::col(0).eq(outer.clone())),
                t().group_by(vec![0], vec![AggExpr::sum(outer.clone(), "s")]),
                t().scalar_agg(vec![AggExpr::sum(outer.clone(), "s")]),
                t().order_by(vec![SortKey { expr: outer, asc: true }]),
            ]
        };
        for plan in cases(0) {
            assert_eq!(plan.outer_columns(0).into_vec(), vec![1], "{plan}");
            assert!(plan.outer_columns(1).is_empty(), "{plan}");
            // Inside an Apply's inner, a level-0 reference binds to that
            // Apply and does not escape it.
            assert!(t().apply(plan, ApplyMode::Cross).outer_columns(0).is_empty());
        }
        for plan in cases(1) {
            // The inner is walked one level deeper, so a level-1
            // reference escapes to the Apply above.
            let nested = t().apply(plan, ApplyMode::Cross);
            assert_eq!(nested.outer_columns(0).into_vec(), vec![1], "{nested}");
        }
        // Through GApply, Distinct and UnionAll the level is unchanged.
        let outer = |index| Expr::Correlated { level: 0, index };
        let sel = t().select(Expr::col(0).eq(outer(2)).and(Expr::col(1).eq(outer(0))));
        let plan = LogicalPlan::union_all(vec![sel.clone().distinct(), t()]).gapply(vec![0], sel);
        assert_eq!(plan.outer_columns(0).into_vec(), vec![0, 2]);
    }

    #[test]
    fn display_modes() {
        assert_eq!(ApplyMode::Cross.label(), "cross");
        assert_eq!(ApplyMode::Scalar.label(), "scalar");
        let e = LogicalPlan::scan("t", partsupp_part()).not_exists();
        assert_eq!(e.label(), "NotExists");
    }
}
