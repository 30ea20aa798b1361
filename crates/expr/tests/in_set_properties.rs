//! Property tests for the key-set filter: `Expr::InSet` must select
//! exactly the rows the `OR` of per-key `AND`-of-equalities selects —
//! the predicate it replaces in key-restricted republish plans.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use xmlpub_common::{Tuple, Value};
use xmlpub_expr::Expr;

/// A small numeric domain with NULLs, where `Int(n)` and `Float(n.0)`
/// compare equal, so matches (and cross-type matches) are common.
fn value() -> impl Strategy<Value = Value> {
    (0u8..7, 0i64..5).prop_map(|(class, n)| match class {
        0 => Value::Null,
        1 => Value::Float(2.5),
        2 | 3 => Value::Float(n as f64),
        _ => Value::Int(n),
    })
}

/// The `OR`-chain of per-key `AND`-chains (`false` for no keys).
fn or_chain(cols: &[usize], keys: &[Tuple]) -> Expr {
    keys.iter()
        .map(|k| {
            cols.iter()
                .enumerate()
                .map(|(i, &c)| Expr::col(c).eq(Expr::lit(k.value(i).clone())))
                .reduce(Expr::and)
                .expect("at least one key column")
        })
        .reduce(Expr::or)
        .unwrap_or_else(|| Expr::lit(false))
}

fn in_set(cols: &[usize], keys: &[Tuple]) -> Expr {
    Expr::InSet {
        exprs: cols.iter().map(|&c| Expr::col(c)).collect(),
        keys: Arc::new(keys.iter().cloned().collect::<BTreeSet<_>>()),
    }
}

/// `(key columns, keys, rows)`: a 1- or 2-column key over 3-wide rows,
/// and a key set that is empty, one key, or up to 64 keys.
fn case() -> impl Strategy<Value = (Vec<usize>, Vec<Tuple>, Vec<Tuple>)> {
    (
        (0usize..3, 0usize..3),
        0u8..3,
        proptest::collection::vec((value(), value()), 0..=64),
        proptest::collection::vec((value(), value(), value()), 0..40),
    )
        .prop_map(|((first, shape), set_size, raw_keys, raw_rows)| {
            let cols = match shape {
                0 => vec![first],
                d => vec![first, (first + d) % 3],
            };
            let take = match set_size {
                0 => 0,
                1 => 1,
                _ => raw_keys.len(),
            };
            let keys = raw_keys
                .into_iter()
                .take(take)
                .map(|(a, b)| Tuple::new(vec![a, b].into_iter().take(cols.len()).collect()))
                .collect();
            let rows = raw_rows.into_iter().map(|(a, b, c)| Tuple::new(vec![a, b, c])).collect();
            (cols, keys, rows)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn in_set_selects_what_the_or_chain_selects(case in case()) {
        let (cols, keys, rows) = case;
        let select = |e: &Expr| -> Vec<bool> {
            rows.iter().map(|row| e.eval_predicate(row, &[]).unwrap()).collect()
        };
        prop_assert_eq!(select(&in_set(&cols, &keys)), select(&or_chain(&cols, &keys)));
    }

    #[test]
    fn in_set_display_is_independent_of_key_order(case in case()) {
        let (cols, keys, _) = case;
        // `Int(n)` and `Float(n.0)` are one set element, spelled as
        // whichever was inserted first; keep one spelling per element.
        let mut keys: Vec<Tuple> = keys
            .into_iter()
            .map(|k| {
                k.values()
                    .iter()
                    .map(|v| match v {
                        Value::Float(f) if f.fract() == 0.0 => Value::Int(*f as i64),
                        other => other.clone(),
                    })
                    .collect()
            })
            .collect();
        let shown = in_set(&cols, &keys).to_string();
        keys.reverse();
        prop_assert_eq!(in_set(&cols, &keys).to_string(), shown.clone());
        keys.sort();
        keys.dedup();
        prop_assert_eq!(in_set(&cols, &keys).to_string(), shown);
    }
}
