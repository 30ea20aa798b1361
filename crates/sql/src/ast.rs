//! Abstract syntax tree for the supported dialect.

use xmlpub_common::Value;

/// A full query: a set expression plus an optional ORDER BY.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The body (selects combined with UNION \[ALL\]).
    pub body: SetExpr,
    /// ORDER BY items (empty when absent).
    pub order_by: Vec<OrderItem>,
}

/// Select bodies combined by set operators.
#[derive(Debug, Clone, PartialEq)]
pub enum SetExpr {
    /// A single SELECT.
    Select(Box<Select>),
    /// `left UNION ALL right` (when `all`) or `left UNION right`.
    Union {
        /// Left branch.
        left: Box<SetExpr>,
        /// Right branch.
        right: Box<SetExpr>,
        /// UNION ALL vs UNION (distinct).
        all: bool,
    },
}

/// One ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Sort expression (often a bare column or output name).
    pub expr: AstExpr,
    /// Ascending unless `DESC` was written.
    pub asc: bool,
}

/// A SELECT block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Select {
    /// SELECT DISTINCT?
    pub distinct: bool,
    /// Regular projection items; empty when `gapply` is used.
    pub items: Vec<SelectItem>,
    /// The paper's `gapply(<per-group query>) [as (cols)]` select form.
    pub gapply: Option<GApplyClause>,
    /// FROM clause.
    pub from: Vec<TableRef>,
    /// WHERE predicate.
    pub selection: Option<AstExpr>,
    /// GROUP BY expressions (column references).
    pub group_by: Vec<AstExpr>,
    /// The `: x` relation-valued variable of the GApply extension.
    pub group_binding: Option<String>,
    /// HAVING predicate.
    pub having: Option<AstExpr>,
}

/// The gapply select clause.
#[derive(Debug, Clone, PartialEq)]
pub struct GApplyClause {
    /// The per-group query (its FROM references the `: x` binding).
    pub query: Box<Query>,
    /// Optional `as (c1, c2, …)` output column names for the per-group
    /// part of the result.
    pub columns: Option<Vec<String>>,
}

/// One item in a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// An expression with an optional alias.
    Expr {
        /// The expression.
        expr: AstExpr,
        /// `AS alias`.
        alias: Option<String>,
    },
}

/// A FROM-clause relation.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// A named table with an optional alias.
    Table {
        /// Table name.
        name: String,
        /// Alias (defaults to the table name).
        alias: Option<String>,
    },
    /// A parenthesised subquery with a mandatory alias.
    Derived {
        /// The subquery.
        query: Box<Query>,
        /// Alias.
        alias: String,
        /// Optional column renames `as t(c1, c2)`.
        columns: Option<Vec<String>>,
    },
    /// `left [INNER] JOIN right ON condition`.
    Join {
        /// Left input.
        left: Box<TableRef>,
        /// Right input.
        right: Box<TableRef>,
        /// ON condition.
        on: AstExpr,
    },
}

/// Binary operators at the AST level (same set as the algebra).
pub use xmlpub_expr::BinOp;

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum AstExpr {
    /// `[qualifier.]name`
    Column {
        /// Table alias, if written.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// A literal.
    Literal(Value),
    /// Binary operator application.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<AstExpr>,
        /// Right operand.
        right: Box<AstExpr>,
    },
    /// `NOT e`
    Not(Box<AstExpr>),
    /// `-e`
    Neg(Box<AstExpr>),
    /// `e IS [NOT] NULL`
    IsNull {
        /// Operand.
        expr: Box<AstExpr>,
        /// IS NOT NULL?
        negated: bool,
    },
    /// `e [NOT] LIKE 'pattern'`
    Like {
        /// Operand.
        expr: Box<AstExpr>,
        /// Pattern literal.
        pattern: String,
        /// NOT LIKE?
        negated: bool,
    },
    /// `e [NOT] IN (v1, v2, …)`
    InList {
        /// Operand.
        expr: Box<AstExpr>,
        /// List items.
        list: Vec<AstExpr>,
        /// NOT IN?
        negated: bool,
    },
    /// Searched CASE.
    Case {
        /// WHEN/THEN pairs.
        branches: Vec<(AstExpr, AstExpr)>,
        /// ELSE arm.
        else_expr: Option<Box<AstExpr>>,
    },
    /// A function call — aggregates (`count`, `sum`, `avg`, `min`, `max`)
    /// are recognised by the binder.
    Function {
        /// Lower-cased function name.
        name: String,
        /// Arguments (empty for `count(*)`).
        args: Vec<AstExpr>,
        /// `DISTINCT` argument modifier.
        distinct: bool,
        /// `*` argument (count(*)).
        star: bool,
    },
    /// Scalar subquery `(select …)`.
    Subquery(Box<Query>),
    /// `[NOT] EXISTS (select …)`.
    Exists {
        /// The subquery.
        query: Box<Query>,
        /// NOT EXISTS?
        negated: bool,
    },
}

impl AstExpr {
    /// Column shorthand.
    pub fn column(name: &str) -> AstExpr {
        AstExpr::Column { qualifier: None, name: name.to_string() }
    }

    /// Does this expression contain an aggregate function call (not
    /// nested inside a subquery)?
    pub fn contains_aggregate(&self) -> bool {
        match self {
            AstExpr::Function { name, .. } => {
                matches!(name.as_str(), "count" | "sum" | "avg" | "min" | "max")
            }
            AstExpr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            AstExpr::Not(e) | AstExpr::Neg(e) => e.contains_aggregate(),
            AstExpr::IsNull { expr, .. } | AstExpr::Like { expr, .. } => expr.contains_aggregate(),
            AstExpr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(|e| e.contains_aggregate())
            }
            AstExpr::Case { branches, else_expr } => {
                branches.iter().any(|(c, r)| c.contains_aggregate() || r.contains_aggregate())
                    || else_expr.as_ref().is_some_and(|e| e.contains_aggregate())
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_detection() {
        let agg = AstExpr::Function {
            name: "avg".into(),
            args: vec![AstExpr::column("x")],
            distinct: false,
            star: false,
        };
        assert!(agg.contains_aggregate());
        let wrapped = AstExpr::Binary {
            op: BinOp::Gt,
            left: Box::new(agg),
            right: Box::new(AstExpr::Literal(Value::Int(1))),
        };
        assert!(wrapped.contains_aggregate());
        assert!(!AstExpr::column("x").contains_aggregate());
        // Subqueries shield their aggregates.
        let sub = AstExpr::Subquery(Box::new(Query {
            body: SetExpr::Select(Box::default()),
            order_by: vec![],
        }));
        assert!(!sub.contains_aggregate());
    }
}
