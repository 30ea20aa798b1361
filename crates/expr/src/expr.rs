//! The scalar expression AST and its evaluator.
//!
//! Expressions reference input columns **positionally** (the binder turns
//! names into indices), which keeps the optimizer's column remapping
//! explicit and testable. Correlated references into an enclosing `Apply`
//! are a separate variant carrying a nesting *level*: level 0 is the
//! nearest enclosing apply's current outer row, level 1 the next one out.
//!
//! Comparison and boolean evaluation follow SQL three-valued logic: any
//! comparison with NULL yields NULL, and `AND`/`OR` are Kleene operators.
//! Selection predicates keep a row only when the predicate is *true*
//! (NULL and false both reject) — the evaluator exposes
//! [`Expr::eval_predicate`] for that.

use crate::like::like_match;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use xmlpub_common::{DataType, Error, Result, Schema, Tuple, Value};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (float division; integer inputs widen)
    Div,
    /// `%` (modulo on integers)
    Mod,
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// Kleene AND
    And,
    /// Kleene OR
    Or,
}

impl BinOp {
    /// Whether this operator is a comparison producing a boolean.
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq)
    }

    /// Whether this operator is `AND`/`OR`.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// The mirrored comparison (`a < b` ⇔ `b > a`); identity for
    /// non-comparisons.
    pub fn flip(self) -> BinOp {
        match self {
            BinOp::Lt => BinOp::Gt,
            BinOp::LtEq => BinOp::GtEq,
            BinOp::Gt => BinOp::Lt,
            BinOp::GtEq => BinOp::LtEq,
            other => other,
        }
    }

    /// SQL token for display.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "and",
            BinOp::Or => "or",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Boolean NOT (Kleene: NOT NULL = NULL).
    Not,
    /// Numeric negation.
    Neg,
    /// `IS NULL` — never returns NULL.
    IsNull,
    /// `IS NOT NULL` — never returns NULL.
    IsNotNull,
}

/// A scalar expression over one input row (plus the correlated outer rows
/// of enclosing applies).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Input column by position.
    Column(usize),
    /// Correlated reference: column `index` of the outer row of the
    /// `level`-th enclosing `Apply` (0 = innermost).
    Correlated { level: usize, index: usize },
    /// A literal value.
    Literal(Value),
    /// Unary operator application.
    Unary { op: UnaryOp, expr: Box<Expr> },
    /// Binary operator application.
    Binary { op: BinOp, left: Box<Expr>, right: Box<Expr> },
    /// Searched CASE: the first branch whose condition is true wins.
    Case { branches: Vec<(Expr, Expr)>, else_expr: Option<Box<Expr>> },
    /// `expr LIKE pattern` with `%` and `_` wildcards.
    Like { expr: Box<Expr>, pattern: String, negated: bool },
    /// Key-set membership: the tuple of `exprs` is one of `keys`. An
    /// empty set is false; otherwise a NULL component yields NULL, so a
    /// key with a NULL component never matches. As a selection this
    /// keeps exactly the rows the `OR` of per-key equality conjunctions
    /// keeps, at one set lookup per row.
    InSet { exprs: Vec<Expr>, keys: Arc<BTreeSet<Tuple>> },
}

impl Expr {
    /// Column reference shorthand.
    pub fn col(index: usize) -> Expr {
        Expr::Column(index)
    }

    /// Literal shorthand.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Binary application shorthand.
    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary { op, left: Box::new(left), right: Box::new(right) }
    }

    /// `self = other`
    pub fn eq(self, other: Expr) -> Expr {
        Expr::binary(BinOp::Eq, self, other)
    }

    /// `self <> other`
    pub fn neq(self, other: Expr) -> Expr {
        Expr::binary(BinOp::NotEq, self, other)
    }

    /// `self < other`
    pub fn lt(self, other: Expr) -> Expr {
        Expr::binary(BinOp::Lt, self, other)
    }

    /// `self <= other`
    pub fn lt_eq(self, other: Expr) -> Expr {
        Expr::binary(BinOp::LtEq, self, other)
    }

    /// `self > other`
    pub fn gt(self, other: Expr) -> Expr {
        Expr::binary(BinOp::Gt, self, other)
    }

    /// `self >= other`
    pub fn gt_eq(self, other: Expr) -> Expr {
        Expr::binary(BinOp::GtEq, self, other)
    }

    /// `self AND other`
    pub fn and(self, other: Expr) -> Expr {
        Expr::binary(BinOp::And, self, other)
    }

    /// `self OR other`
    pub fn or(self, other: Expr) -> Expr {
        Expr::binary(BinOp::Or, self, other)
    }

    /// `NOT self`
    #[allow(clippy::should_implement_trait)] // builder symmetry with and/or
    pub fn not(self) -> Expr {
        Expr::Unary { op: UnaryOp::Not, expr: Box::new(self) }
    }

    /// Evaluate against a row, with `outer` as the stack of enclosing
    /// apply outer rows (innermost last).
    pub fn eval(&self, row: &Tuple, outer: &[Tuple]) -> Result<Value> {
        match self {
            Expr::Column(i) => row.values().get(*i).cloned().ok_or_else(|| {
                Error::exec(format!("column #{i} out of range for {}-wide row", row.len()))
            }),
            Expr::Correlated { level, index } => {
                let pos = outer
                    .len()
                    .checked_sub(1 + level)
                    .ok_or_else(|| Error::exec(format!("no outer binding at level {level}")))?;
                outer[pos].values().get(*index).cloned().ok_or_else(|| {
                    Error::exec(format!("correlated column #{index} out of range at level {level}"))
                })
            }
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Unary { op, expr } => {
                let v = expr.eval(row, outer)?;
                eval_unary(*op, v)
            }
            Expr::Binary { op, left, right } => {
                // Short-circuit AND/OR need Kleene handling of NULL, so we
                // evaluate both sides (no side effects exist) and combine.
                let l = left.eval(row, outer)?;
                let r = right.eval(row, outer)?;
                eval_binary(*op, l, r)
            }
            Expr::Case { branches, else_expr } => {
                for (cond, result) in branches {
                    if cond.eval(row, outer)?.as_bool() == Some(true) {
                        return result.eval(row, outer);
                    }
                }
                match else_expr {
                    Some(e) => e.eval(row, outer),
                    None => Ok(Value::Null),
                }
            }
            Expr::Like { expr, pattern, negated } => {
                let v = expr.eval(row, outer)?;
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Str(s) => {
                        let m = like_match(&s, pattern);
                        Ok(Value::Bool(if *negated { !m } else { m }))
                    }
                    other => Err(Error::exec(format!("LIKE applied to non-string value {other}"))),
                }
            }
            // A one-column key, the common case, is probed without
            // allocating a buffer.
            Expr::InSet { exprs, keys } => match exprs.as_slice() {
                [e] => Ok(in_set(std::slice::from_ref(&e.eval(row, outer)?), keys)),
                _ => {
                    let probe =
                        exprs.iter().map(|e| e.eval(row, outer)).collect::<Result<Vec<_>>>()?;
                    Ok(in_set(&probe, keys))
                }
            },
        }
    }

    /// Evaluate as a selection predicate: true keeps the row; false and
    /// NULL reject it (SQL WHERE semantics).
    pub fn eval_predicate(&self, row: &Tuple, outer: &[Tuple]) -> Result<bool> {
        Ok(self.eval(row, outer)?.as_bool() == Some(true))
    }

    /// Static result type against an input schema. `None` for NULL
    /// literals whose type is context-dependent.
    pub fn data_type(&self, schema: &Schema) -> DataType {
        match self {
            Expr::Column(i) => {
                schema.fields().get(*i).map(|f| f.data_type).unwrap_or(DataType::Null)
            }
            // The binder validates correlated references against the outer
            // schema; locally we cannot see it, so report the widest type.
            Expr::Correlated { .. } => DataType::Null,
            Expr::Literal(v) => v.data_type(),
            Expr::Unary { op, expr } => match op {
                UnaryOp::Not | UnaryOp::IsNull | UnaryOp::IsNotNull => DataType::Bool,
                UnaryOp::Neg => expr.data_type(schema),
            },
            Expr::Binary { op, left, right } => {
                if op.is_comparison() || op.is_logical() {
                    DataType::Bool
                } else {
                    match (left.data_type(schema), right.data_type(schema)) {
                        (DataType::Int, DataType::Int) if *op != BinOp::Div => DataType::Int,
                        _ => DataType::Float,
                    }
                }
            }
            Expr::Case { branches, else_expr } => {
                let mut ty = DataType::Null;
                for (_, r) in branches {
                    ty = ty.unify(r.data_type(schema)).unwrap_or(DataType::Str);
                }
                if let Some(e) = else_expr {
                    ty = ty.unify(e.data_type(schema)).unwrap_or(DataType::Str);
                }
                ty
            }
            Expr::Like { .. } | Expr::InSet { .. } => DataType::Bool,
        }
    }

    /// Collect every local (non-correlated) column index referenced.
    pub fn collect_columns(&self, out: &mut xmlpub_common::ColumnSet) {
        self.visit(&mut |e| {
            if let Expr::Column(i) = e {
                out.insert(*i);
            }
        });
    }

    /// The set of local columns referenced.
    pub fn columns(&self) -> xmlpub_common::ColumnSet {
        let mut s = xmlpub_common::ColumnSet::new();
        self.collect_columns(&mut s);
        s
    }

    /// Whether the expression contains a correlated reference at exactly
    /// the given level.
    pub fn has_correlated_at(&self, level: usize) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if let Expr::Correlated { level: l, .. } = e {
                if *l == level {
                    found = true;
                }
            }
        });
        found
    }

    /// Whether the expression contains any correlated reference.
    pub fn has_correlated(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(e, Expr::Correlated { .. }) {
                found = true;
            }
        });
        found
    }

    /// Visit every node (pre-order).
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Unary { expr, .. } => expr.visit(f),
            Expr::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            Expr::Case { branches, else_expr } => {
                for (c, r) in branches {
                    c.visit(f);
                    r.visit(f);
                }
                if let Some(e) = else_expr {
                    e.visit(f);
                }
            }
            Expr::Like { expr, .. } => expr.visit(f),
            Expr::InSet { exprs, .. } => {
                for e in exprs {
                    e.visit(f);
                }
            }
            _ => {}
        }
    }

    /// Rewrite every node bottom-up through `f`.
    pub fn transform(self, f: &impl Fn(Expr) -> Expr) -> Expr {
        let rebuilt = match self {
            Expr::Unary { op, expr } => Expr::Unary { op, expr: Box::new(expr.transform(f)) },
            Expr::Binary { op, left, right } => Expr::Binary {
                op,
                left: Box::new(left.transform(f)),
                right: Box::new(right.transform(f)),
            },
            Expr::Case { branches, else_expr } => Expr::Case {
                branches: branches
                    .into_iter()
                    .map(|(c, r)| (c.transform(f), r.transform(f)))
                    .collect(),
                else_expr: else_expr.map(|e| Box::new(e.transform(f))),
            },
            Expr::Like { expr, pattern, negated } => {
                Expr::Like { expr: Box::new(expr.transform(f)), pattern, negated }
            }
            Expr::InSet { exprs, keys } => {
                Expr::InSet { exprs: exprs.into_iter().map(|e| e.transform(f)).collect(), keys }
            }
            leaf => leaf,
        };
        f(rebuilt)
    }

    /// Remap local column indices through a function. Panics (via the
    /// caller's mapping) must be avoided: unmapped columns are a logic
    /// error in the optimizer, so this returns `None` when any referenced
    /// column has no image.
    pub fn remap_columns(&self, mapping: &impl Fn(usize) -> Option<usize>) -> Option<Expr> {
        let ok = std::cell::Cell::new(true);
        let out = self.clone().transform(&|e| match e {
            Expr::Column(i) => match mapping(i) {
                Some(j) => Expr::Column(j),
                None => {
                    ok.set(false);
                    Expr::Column(i)
                }
            },
            other => other,
        });
        ok.get().then_some(out)
    }

    /// Render against a schema (for EXPLAIN output).
    pub fn display(&self, schema: &Schema) -> String {
        match self {
            Expr::Column(i) => schema
                .fields()
                .get(*i)
                .map(|f| f.qualified_name())
                .unwrap_or_else(|| format!("#{i}")),
            Expr::Correlated { level, index } => format!("outer[{level}]#{index}"),
            Expr::Literal(v) => display_literal(v),
            Expr::Unary { op, expr } => match op {
                UnaryOp::Not => format!("not ({})", expr.display(schema)),
                UnaryOp::Neg => format!("-({})", expr.display(schema)),
                UnaryOp::IsNull => format!("({}) is null", expr.display(schema)),
                UnaryOp::IsNotNull => format!("({}) is not null", expr.display(schema)),
            },
            Expr::Binary { op, left, right } => {
                format!("({} {} {})", left.display(schema), op.symbol(), right.display(schema))
            }
            Expr::Case { branches, else_expr } => {
                let mut s = String::from("case");
                for (c, r) in branches {
                    s.push_str(&format!(" when {} then {}", c.display(schema), r.display(schema)));
                }
                if let Some(e) = else_expr {
                    s.push_str(&format!(" else {}", e.display(schema)));
                }
                s.push_str(" end");
                s
            }
            Expr::Like { expr, pattern, negated } => {
                format!(
                    "{} {}like '{}'",
                    expr.display(schema),
                    if *negated { "not " } else { "" },
                    pattern
                )
            }
            // Keys print in set (total) order, so EXPLAIN output is stable.
            Expr::InSet { exprs, keys } => {
                let probe = display_tuple(exprs.iter().map(|e| e.display(schema)).collect());
                let keys: Vec<String> = keys
                    .iter()
                    .map(|k| display_tuple(k.values().iter().map(display_literal).collect()))
                    .collect();
                format!("{probe} in ({})", keys.join(", "))
            }
        }
    }
}

fn display_literal(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("'{s}'"),
        other => other.to_string(),
    }
}

/// One item bare, several parenthesised.
fn display_tuple(mut items: Vec<String>) -> String {
    if items.len() == 1 {
        items.pop().expect("one item")
    } else {
        format!("({})", items.join(", "))
    }
}

/// Key-set membership of one probe (see [`Expr::InSet`]).
fn in_set(probe: &[Value], keys: &BTreeSet<Tuple>) -> Value {
    if keys.is_empty() {
        Value::Bool(false)
    } else if probe.iter().any(Value::is_null) {
        Value::Null
    } else {
        Value::Bool(keys.contains(probe))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display(&Schema::empty()))
    }
}

pub(crate) fn eval_unary(op: UnaryOp, v: Value) -> Result<Value> {
    Ok(match op {
        UnaryOp::Not => match v {
            Value::Null => Value::Null,
            Value::Bool(b) => Value::Bool(!b),
            other => return Err(Error::exec(format!("NOT applied to non-boolean {other}"))),
        },
        UnaryOp::Neg => match v {
            Value::Null => Value::Null,
            Value::Int(i) => Value::Int(-i),
            Value::Float(f) => Value::Float(-f),
            other => return Err(Error::exec(format!("negation of non-number {other}"))),
        },
        UnaryOp::IsNull => Value::Bool(v.is_null()),
        UnaryOp::IsNotNull => Value::Bool(!v.is_null()),
    })
}

pub(crate) fn eval_binary(op: BinOp, l: Value, r: Value) -> Result<Value> {
    use BinOp::*;
    match op {
        And => Ok(kleene_and(l, r)?),
        Or => Ok(kleene_or(l, r)?),
        Eq | NotEq | Lt | LtEq | Gt | GtEq => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let ord = compare_sql(&l, &r)?;
            let b = match op {
                Eq => ord == std::cmp::Ordering::Equal,
                NotEq => ord != std::cmp::Ordering::Equal,
                Lt => ord == std::cmp::Ordering::Less,
                LtEq => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                GtEq => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        Add | Sub | Mul | Div | Mod => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            arith(op, l, r)
        }
    }
}

/// SQL comparison: numbers compare numerically across Int/Float; strings
/// with strings; booleans with booleans. Cross-class comparison is a type
/// error (the binder prevents it; execution double-checks).
fn compare_sql(l: &Value, r: &Value) -> Result<std::cmp::Ordering> {
    match (l, r) {
        (Value::Int(_), Value::Int(_))
        | (Value::Float(_), Value::Float(_))
        | (Value::Int(_), Value::Float(_))
        | (Value::Float(_), Value::Int(_))
        | (Value::Str(_), Value::Str(_))
        | (Value::Bool(_), Value::Bool(_)) => Ok(l.total_cmp(r)),
        _ => Err(Error::exec(format!("cannot compare {l} with {r}"))),
    }
}

fn arith(op: BinOp, l: Value, r: Value) -> Result<Value> {
    // Integer arithmetic stays integral except division, which widens.
    if let (Value::Int(a), Value::Int(b)) = (&l, &r) {
        match op {
            BinOp::Add => return Ok(Value::Int(a.wrapping_add(*b))),
            BinOp::Sub => return Ok(Value::Int(a.wrapping_sub(*b))),
            BinOp::Mul => return Ok(Value::Int(a.wrapping_mul(*b))),
            BinOp::Mod => {
                if *b == 0 {
                    return Ok(Value::Null);
                }
                return Ok(Value::Int(a.wrapping_rem(*b)));
            }
            BinOp::Div => {
                if *b == 0 {
                    return Ok(Value::Null);
                }
                return Ok(Value::Float(*a as f64 / *b as f64));
            }
            _ => {}
        }
    }
    let (a, b) = match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err(Error::exec(format!("arithmetic on non-numbers {l}, {r}"))),
    };
    let v = match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => {
            if b == 0.0 {
                return Ok(Value::Null);
            }
            a / b
        }
        BinOp::Mod => {
            if b == 0.0 {
                return Ok(Value::Null);
            }
            a % b
        }
        _ => unreachable!(),
    };
    // Normalise -0.0 so grouping keys derived from arithmetic stay canonical.
    Ok(Value::Float(if v == 0.0 { 0.0 } else { v }))
}

fn kleene_and(l: Value, r: Value) -> Result<Value> {
    Ok(match (to3(l)?, to3(r)?) {
        (Some(false), _) | (_, Some(false)) => Value::Bool(false),
        (Some(true), Some(true)) => Value::Bool(true),
        _ => Value::Null,
    })
}

fn kleene_or(l: Value, r: Value) -> Result<Value> {
    Ok(match (to3(l)?, to3(r)?) {
        (Some(true), _) | (_, Some(true)) => Value::Bool(true),
        (Some(false), Some(false)) => Value::Bool(false),
        _ => Value::Null,
    })
}

fn to3(v: Value) -> Result<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(b)),
        other => Err(Error::exec(format!("boolean operator applied to {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlpub_common::row;

    fn ev(e: &Expr) -> Value {
        e.eval(&row![10, 2.5, "abc"], &[]).unwrap()
    }

    #[test]
    fn columns_and_literals() {
        assert_eq!(ev(&Expr::col(0)), Value::Int(10));
        assert_eq!(ev(&Expr::col(1)), Value::Float(2.5));
        assert_eq!(ev(&Expr::lit(7)), Value::Int(7));
        assert!(Expr::col(9).eval(&row![1], &[]).is_err());
    }

    #[test]
    fn arithmetic_typing() {
        assert_eq!(ev(&Expr::binary(BinOp::Add, Expr::lit(1), Expr::lit(2))), Value::Int(3));
        assert_eq!(ev(&Expr::binary(BinOp::Div, Expr::lit(7), Expr::lit(2))), Value::Float(3.5));
        assert_eq!(ev(&Expr::binary(BinOp::Mod, Expr::lit(7), Expr::lit(4))), Value::Int(3));
        assert_eq!(ev(&Expr::binary(BinOp::Mul, Expr::lit(2.0), Expr::lit(3))), Value::Float(6.0));
        // Division by zero yields NULL (permissive SQL mode).
        assert_eq!(ev(&Expr::binary(BinOp::Div, Expr::lit(1), Expr::lit(0))), Value::Null);
        assert_eq!(ev(&Expr::binary(BinOp::Mod, Expr::lit(1), Expr::lit(0))), Value::Null);
    }

    #[test]
    fn null_propagates_through_arithmetic_and_comparison() {
        let null = Expr::lit(Value::Null);
        assert_eq!(ev(&Expr::binary(BinOp::Add, null.clone(), Expr::lit(1))), Value::Null);
        assert_eq!(ev(&null.clone().eq(Expr::lit(1))), Value::Null);
        assert_eq!(ev(&null.clone().lt(null.clone())), Value::Null);
    }

    #[test]
    fn three_valued_logic() {
        let t = Expr::lit(true);
        let f = Expr::lit(false);
        let n = Expr::lit(Value::Null);
        assert_eq!(ev(&f.clone().and(n.clone())), Value::Bool(false));
        assert_eq!(ev(&n.clone().and(t.clone())), Value::Null);
        assert_eq!(ev(&t.clone().or(n.clone())), Value::Bool(true));
        assert_eq!(ev(&f.clone().or(n.clone())), Value::Null);
        assert_eq!(ev(&n.clone().not()), Value::Null);
        assert_eq!(ev(&t.clone().not()), Value::Bool(false));
    }

    #[test]
    fn predicate_semantics_reject_null() {
        let n = Expr::lit(Value::Null);
        assert!(!n.eval_predicate(&row![1], &[]).unwrap());
        assert!(Expr::lit(true).eval_predicate(&row![1], &[]).unwrap());
        assert!(!Expr::lit(false).eval_predicate(&row![1], &[]).unwrap());
    }

    #[test]
    fn comparisons() {
        assert_eq!(ev(&Expr::col(0).gt(Expr::lit(5))), Value::Bool(true));
        assert_eq!(ev(&Expr::col(0).lt_eq(Expr::lit(5))), Value::Bool(false));
        assert_eq!(ev(&Expr::col(2).eq(Expr::lit("abc"))), Value::Bool(true));
        assert_eq!(ev(&Expr::lit(1).neq(Expr::lit(1.0))), Value::Bool(false));
        assert_eq!(ev(&Expr::lit(1).gt_eq(Expr::lit(1))), Value::Bool(true));
        // Cross-class comparison errors.
        assert!(Expr::lit("x").lt(Expr::lit(1)).eval(&row![1], &[]).is_err());
    }

    #[test]
    fn is_null_family() {
        let n = Expr::lit(Value::Null);
        let isnull = Expr::Unary { op: UnaryOp::IsNull, expr: Box::new(n.clone()) };
        assert_eq!(ev(&isnull), Value::Bool(true));
        let notnull = Expr::Unary { op: UnaryOp::IsNotNull, expr: Box::new(Expr::lit(3)) };
        assert_eq!(ev(&notnull), Value::Bool(true));
    }

    #[test]
    fn case_expression() {
        let e = Expr::Case {
            branches: vec![
                (Expr::col(0).gt(Expr::lit(100)), Expr::lit("big")),
                (Expr::col(0).gt(Expr::lit(5)), Expr::lit("mid")),
            ],
            else_expr: Some(Box::new(Expr::lit("small"))),
        };
        assert_eq!(ev(&e), Value::str("mid"));
        let no_else =
            Expr::Case { branches: vec![(Expr::lit(false), Expr::lit(1))], else_expr: None };
        assert_eq!(ev(&no_else), Value::Null);
    }

    #[test]
    fn like_evaluation() {
        let like = |pat: &str, neg: bool| Expr::Like {
            expr: Box::new(Expr::col(2)),
            pattern: pat.to_string(),
            negated: neg,
        };
        assert_eq!(ev(&like("a%", false)), Value::Bool(true));
        assert_eq!(ev(&like("a%", true)), Value::Bool(false));
        assert_eq!(ev(&like("_bc", false)), Value::Bool(true));
        assert_eq!(ev(&like("x%", false)), Value::Bool(false));
        let null_like = Expr::Like {
            expr: Box::new(Expr::lit(Value::Null)),
            pattern: "a%".into(),
            negated: false,
        };
        assert_eq!(ev(&null_like), Value::Null);
    }

    #[test]
    fn correlated_references() {
        let e = Expr::Correlated { level: 0, index: 1 };
        let outer = [row![7, 8], row![100, 200]];
        assert_eq!(e.eval(&row![0], &outer).unwrap(), Value::Int(200));
        let e1 = Expr::Correlated { level: 1, index: 0 };
        assert_eq!(e1.eval(&row![0], &outer).unwrap(), Value::Int(7));
        assert!(e1.eval(&row![0], &outer[1..]).is_err());
        assert!(e.has_correlated());
        assert!(e.has_correlated_at(0));
        assert!(!e.has_correlated_at(1));
        assert!(!Expr::col(0).has_correlated());
    }

    #[test]
    fn column_collection_and_remap() {
        let e = Expr::col(2).gt(Expr::col(0)).and(Expr::col(2).eq(Expr::lit(1)));
        assert_eq!(e.columns().as_slice(), &[0, 2]);
        let remapped = e.remap_columns(&|c| if c == 2 { Some(0) } else { Some(5) }).unwrap();
        assert_eq!(remapped.columns().as_slice(), &[0, 5]);
        assert!(e.remap_columns(&|c| (c == 2).then_some(0)).is_none());
    }

    #[test]
    fn data_types() {
        let schema = Schema::new(vec![
            xmlpub_common::Field::new("a", DataType::Int),
            xmlpub_common::Field::new("b", DataType::Float),
        ]);
        assert_eq!(Expr::col(0).data_type(&schema), DataType::Int);
        assert_eq!(
            Expr::binary(BinOp::Add, Expr::col(0), Expr::col(0)).data_type(&schema),
            DataType::Int
        );
        assert_eq!(
            Expr::binary(BinOp::Div, Expr::col(0), Expr::col(0)).data_type(&schema),
            DataType::Float
        );
        assert_eq!(
            Expr::binary(BinOp::Add, Expr::col(0), Expr::col(1)).data_type(&schema),
            DataType::Float
        );
        assert_eq!(Expr::col(0).gt(Expr::col(1)).data_type(&schema), DataType::Bool);
    }

    #[test]
    fn display_renders_names() {
        let schema = Schema::new(vec![xmlpub_common::Field::qualified(
            "p",
            "p_retailprice",
            DataType::Float,
        )]);
        let e = Expr::col(0).gt_eq(Expr::lit(100));
        assert_eq!(e.display(&schema), "(p.p_retailprice >= 100)");
        assert_eq!(Expr::lit("x").to_string(), "'x'");
    }

    #[test]
    fn in_set_membership_and_display() {
        let keys = |ks: Vec<Tuple>| Arc::new(ks.into_iter().collect::<BTreeSet<_>>());
        let pair = Expr::InSet {
            exprs: vec![Expr::col(0), Expr::col(2)],
            keys: keys(vec![row![10, "zz"], row![10, "abc"], row![1, Value::Null]]),
        };
        assert_eq!(ev(&pair), Value::Bool(true));
        // A NULL probe component is unknown; a NULL key component never matches.
        assert_eq!(pair.eval(&row![Value::Null, 0, "abc"], &[]).unwrap(), Value::Null);
        assert_eq!(pair.eval(&row![1, 0, Value::Null], &[]).unwrap(), Value::Null);
        let int_key = Expr::InSet { exprs: vec![Expr::col(1)], keys: keys(vec![row![2.5]]) };
        assert_eq!(ev(&int_key), Value::Bool(true));
        let empty = Expr::InSet { exprs: vec![Expr::col(0)], keys: keys(vec![]) };
        assert_eq!(empty.eval(&row![Value::Null], &[]).unwrap(), Value::Bool(false));
        // Keys render in set order, whatever order they were inserted in.
        let schema = Schema::new(vec![
            xmlpub_common::Field::new("a", DataType::Int),
            xmlpub_common::Field::new("b", DataType::Float),
            xmlpub_common::Field::new("c", DataType::Str),
        ]);
        assert_eq!(pair.display(&schema), "(a, c) in ((1, NULL), (10, 'abc'), (10, 'zz'))");
        assert_eq!(int_key.display(&schema), "b in (2.5)");
        assert_eq!(empty.to_string(), "#0 in ()");
        assert_eq!(pair.columns().as_slice(), &[0, 2]);
    }

    #[test]
    fn flip_and_classify() {
        assert_eq!(BinOp::Lt.flip(), BinOp::Gt);
        assert_eq!(BinOp::GtEq.flip(), BinOp::LtEq);
        assert_eq!(BinOp::Eq.flip(), BinOp::Eq);
        assert!(BinOp::Eq.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::And.is_logical());
    }

    #[test]
    fn negation() {
        assert_eq!(
            Expr::Unary { op: UnaryOp::Neg, expr: Box::new(Expr::lit(3)) }
                .eval(&row![0], &[])
                .unwrap(),
            Value::Int(-3)
        );
        assert_eq!(
            Expr::Unary { op: UnaryOp::Neg, expr: Box::new(Expr::lit(2.5)) }
                .eval(&row![0], &[])
                .unwrap(),
            Value::Float(-2.5)
        );
    }
}
