//! Predicate manipulation utilities.
//!
//! The optimizer rules constantly take predicates apart and put them back
//! together: selection pushdown splits conjunctions, the covering-range
//! analysis builds disjunctions over union branches, and the §4.1 rule
//! eliminates a selection inside the per-group query when it is *logically
//! equivalent* to the covering range pushed outside. Full logical
//! equivalence is undecidable in general; [`normalize`] implements the
//! conservative, sound structural check the paper's rule needs —
//! flattening and canonically ordering AND/OR trees, orienting
//! comparisons, and folding boolean literals.

use crate::expr::{BinOp, Expr};
use std::cmp::Ordering;
use xmlpub_common::Value;

/// Split a predicate into its top-level conjuncts. `a AND (b AND c)`
/// yields `[a, b, c]`; a non-AND expression yields itself.
pub fn conjuncts(expr: &Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    collect_conjuncts(expr, &mut out);
    out
}

fn collect_conjuncts(expr: &Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::Binary { op: BinOp::And, left, right } => {
            collect_conjuncts(left, out);
            collect_conjuncts(right, out);
        }
        other => out.push(other.clone()),
    }
}

/// AND a list of predicates back together. The empty list is `true`.
pub fn conjunction(mut preds: Vec<Expr>) -> Expr {
    match preds.len() {
        0 => Expr::lit(true),
        1 => preds.pop().unwrap(),
        _ => {
            let mut it = preds.into_iter();
            let first = it.next().unwrap();
            it.fold(first, |acc, p| acc.and(p))
        }
    }
}

/// Split a join predicate over `left_len` left columns into its hash-join
/// keys and the rest: every top-level conjunct `left.col = right.col`
/// (either operand order) becomes a `(left col, right-local col)` pair,
/// every other conjunct is residual. Each join consumer reads its own
/// answer off this one split: a hash join needs a key pair, delta
/// propagation an empty residual.
pub fn split_equi_join(predicate: &Expr, left_len: usize) -> (Vec<(usize, usize)>, Vec<Expr>) {
    let mut keys = Vec::new();
    let mut residual = Vec::new();
    for c in conjuncts(predicate) {
        if let Expr::Binary { op: BinOp::Eq, left, right } = &c {
            match (&**left, &**right) {
                (Expr::Column(a), Expr::Column(b)) if *a < left_len && *b >= left_len => {
                    keys.push((*a, *b - left_len));
                    continue;
                }
                (Expr::Column(b), Expr::Column(a)) if *a < left_len && *b >= left_len => {
                    keys.push((*a, *b - left_len));
                    continue;
                }
                _ => {}
            }
        }
        residual.push(c);
    }
    (keys, residual)
}

/// OR a list of predicates together. The empty list is `false`.
pub fn disjunction(mut preds: Vec<Expr>) -> Expr {
    match preds.len() {
        0 => Expr::lit(false),
        1 => preds.pop().unwrap(),
        _ => {
            let mut it = preds.into_iter();
            let first = it.next().unwrap();
            it.fold(first, |acc, p| acc.or(p))
        }
    }
}

/// Canonical ordering on expressions used to sort AND/OR operand lists.
fn expr_order(a: &Expr, b: &Expr) -> Ordering {
    // Debug formatting is a stable total order for our AST and avoids
    // writing a bespoke 60-line comparator; these lists are tiny.
    format!("{a:?}").cmp(&format!("{b:?}"))
}

/// Normalise a predicate to a canonical structural form:
///
/// * flatten nested `AND`/`OR` chains and sort + dedup their operands;
/// * orient comparisons so the structurally smaller operand is on the
///   left (`5 < x` becomes `x > 5`);
/// * fold `true`/`false` identity/absorbing elements;
/// * drop double negation.
///
/// Two predicates with equal normal forms are logically equivalent (the
/// converse need not hold — the check is conservative).
pub fn normalize(expr: &Expr) -> Expr {
    match expr {
        Expr::Binary { op: op @ (BinOp::And | BinOp::Or), .. } => {
            let mut operands = Vec::new();
            flatten(expr, *op, &mut operands);
            let mut normed: Vec<Expr> = operands.iter().map(normalize).collect();
            // Fold boolean literals.
            let (identity, absorber) = match op {
                BinOp::And => (true, false),
                _ => (false, true),
            };
            if normed.iter().any(|e| *e == Expr::lit(absorber)) {
                return Expr::lit(absorber);
            }
            normed.retain(|e| *e != Expr::lit(identity));
            normed.sort_by(expr_order);
            normed.dedup();
            match op {
                BinOp::And => conjunction(normed),
                _ => disjunction(normed),
            }
        }
        Expr::Binary { op, left, right } if op.is_comparison() => {
            let l = normalize(left);
            let r = normalize(right);
            if expr_order(&l, &r) == Ordering::Greater {
                Expr::binary(op.flip(), r, l)
            } else {
                Expr::binary(*op, l, r)
            }
        }
        Expr::Binary { op, left, right } => Expr::binary(*op, normalize(left), normalize(right)),
        Expr::Unary { op: crate::expr::UnaryOp::Not, expr: inner } => {
            let n = normalize(inner);
            match n {
                // NOT NOT e = e (sound in 3VL).
                Expr::Unary { op: crate::expr::UnaryOp::Not, expr: e } => *e,
                Expr::Literal(Value::Bool(b)) => Expr::lit(!b),
                other => other.not(),
            }
        }
        Expr::Unary { op, expr: inner } => {
            Expr::Unary { op: *op, expr: Box::new(normalize(inner)) }
        }
        Expr::Case { branches, else_expr } => Expr::Case {
            branches: branches.iter().map(|(c, r)| (normalize(c), normalize(r))).collect(),
            else_expr: else_expr.as_ref().map(|e| Box::new(normalize(e))),
        },
        Expr::Like { expr: inner, pattern, negated } => Expr::Like {
            expr: Box::new(normalize(inner)),
            pattern: pattern.clone(),
            negated: *negated,
        },
        Expr::InSet { exprs, keys } => {
            Expr::InSet { exprs: exprs.iter().map(normalize).collect(), keys: keys.clone() }
        }
        leaf => leaf.clone(),
    }
}

fn flatten(expr: &Expr, op: BinOp, out: &mut Vec<Expr>) {
    match expr {
        Expr::Binary { op: o, left, right } if *o == op => {
            flatten(left, op, out);
            flatten(right, op, out);
        }
        other => out.push(other.clone()),
    }
}

/// Conservative logical-equivalence check: equal normal forms.
pub fn equivalent(a: &Expr, b: &Expr) -> bool {
    normalize(a) == normalize(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: usize) -> Expr {
        Expr::col(i)
    }

    #[test]
    fn conjunct_splitting() {
        let p = c(0).eq(Expr::lit(1)).and(c(1).gt(Expr::lit(2)).and(c(2).lt(Expr::lit(3))));
        let cs = conjuncts(&p);
        assert_eq!(cs.len(), 3);
        assert_eq!(conjuncts(&c(0).eq(Expr::lit(1))).len(), 1);
    }

    /// One row per predicate shape; each consumer's answer is read off
    /// the split as it does: the planner (and the cost model) hash iff
    /// there are keys, delta propagation needs an empty residual, and
    /// plan-property derivation ignores a literal `TRUE` conjunct.
    #[test]
    fn equi_join_split() {
        // Two left columns: 0, 1 are left, 2, 3 are right. The answers
        // are [hash join, delta key columns, derive sees a residual].
        let check = |name, pred: Expr, keys: &[(usize, usize)], residual, answers: [bool; 3]| {
            let (k, r) = split_equi_join(&pred, 2);
            assert_eq!(k, keys, "{name}");
            assert_eq!(r.len(), residual, "{name}");
            let derive = r.iter().any(|c| *c != Expr::lit(true));
            assert_eq!([!k.is_empty(), r.is_empty(), derive], answers, "{name}");
        };
        let t = Expr::lit(true);
        let plus0 = Expr::binary(BinOp::Add, c(3), Expr::lit(0));
        check("key", c(0).eq(c(2)), &[(0, 0)], 0, [true, true, false]);
        check("reversed operands", c(3).eq(c(1)), &[(1, 1)], 0, [true, true, false]);
        check("same-side equality", c(0).eq(c(1)), &[], 1, [false, false, true]);
        check("inequality", c(0).lt(c(2)), &[], 1, [false, false, true]);
        let nested = c(0).eq(c(2)).and(c(3).eq(c(1)).and(c(1).eq(c(2))));
        check("nested AND", nested, &[(0, 0), (1, 1), (1, 0)], 0, [true, true, false]);
        check("literal TRUE", c(0).eq(c(2)).and(t.clone()), &[(0, 0)], 1, [true, false, false]);
        check("TRUE alone", t, &[], 1, [false, false, false]);
        let non_column = c(0).eq(Expr::lit(1)).and(c(2).eq(plus0));
        check("non-column equality", non_column, &[], 2, [false, false, true]);
        let mixed = c(0).eq(c(2)).and(c(1).gt(c(3)));
        check("keys and residual", mixed, &[(0, 0)], 1, [true, false, true]);
    }

    #[test]
    fn conjunction_roundtrip() {
        let parts = vec![c(0).eq(Expr::lit(1)), c(1).gt(Expr::lit(2))];
        let joined = conjunction(parts.clone());
        assert_eq!(conjuncts(&joined), parts);
        assert_eq!(conjunction(vec![]), Expr::lit(true));
        assert_eq!(disjunction(vec![]), Expr::lit(false));
        assert_eq!(conjunction(vec![c(0)]), c(0));
    }

    #[test]
    fn normalize_sorts_and_dedups_conjuncts() {
        let a = c(1).gt(Expr::lit(2)).and(c(0).eq(Expr::lit(1)));
        let b = c(0).eq(Expr::lit(1)).and(c(1).gt(Expr::lit(2)));
        assert!(equivalent(&a, &b));
        let dup = c(0).eq(Expr::lit(1)).and(c(0).eq(Expr::lit(1)));
        assert!(equivalent(&dup, &c(0).eq(Expr::lit(1))));
    }

    #[test]
    fn normalize_orients_comparisons() {
        let a = Expr::lit(5).lt(c(0));
        let b = c(0).gt(Expr::lit(5));
        assert!(equivalent(&a, &b));
        let a = Expr::lit(5).eq(c(0));
        let b = c(0).eq(Expr::lit(5));
        assert!(equivalent(&a, &b));
    }

    #[test]
    fn normalize_folds_literals() {
        let p = c(0).gt(Expr::lit(1));
        assert!(equivalent(&p.clone().and(Expr::lit(true)), &p));
        assert!(equivalent(&p.clone().and(Expr::lit(false)), &Expr::lit(false)));
        assert!(equivalent(&p.clone().or(Expr::lit(false)), &p));
        assert!(equivalent(&p.clone().or(Expr::lit(true)), &Expr::lit(true)));
    }

    #[test]
    fn double_negation() {
        let p = c(0).gt(Expr::lit(1));
        assert!(equivalent(&p.clone().not().not(), &p));
        assert!(equivalent(&Expr::lit(true).not(), &Expr::lit(false)));
    }

    #[test]
    fn or_flattening() {
        let a = c(0).eq(Expr::lit(1)).or(c(1).eq(Expr::lit(2)).or(c(2).eq(Expr::lit(3))));
        let b = c(2).eq(Expr::lit(3)).or(c(0).eq(Expr::lit(1))).or(c(1).eq(Expr::lit(2)));
        assert!(equivalent(&a, &b));
    }

    #[test]
    fn inequivalent_predicates_stay_distinct() {
        assert!(!equivalent(&c(0).gt(Expr::lit(1)), &c(0).gt_eq(Expr::lit(1))));
        assert!(!equivalent(
            &c(0).eq(Expr::lit(1)).and(c(1).eq(Expr::lit(2))),
            &c(0).eq(Expr::lit(1)).or(c(1).eq(Expr::lit(2)))
        ));
    }

    #[test]
    fn covering_range_style_equivalence() {
        // The shape produced by the §4.1 analysis: a disjunction of the
        // two union branches' selection conditions, in either order.
        let brand_a = c(3).eq(Expr::lit("Brand#A"));
        let brand_b = c(3).eq(Expr::lit("Brand#B"));
        let range1 = brand_a.clone().or(brand_b.clone());
        let range2 = brand_b.or(brand_a);
        assert!(equivalent(&range1, &range2));
    }
}
