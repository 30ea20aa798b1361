//! Differential properties of the row operators that build output rows
//! without copying their inputs: `Project` against row-at-a-time
//! `Expr::eval`, `HashJoin` against `NestedLoopJoin` with the equivalent
//! predicate, a `HashJoin` with a fused output list against `Project`
//! over the plain join, `HashAggregate` against a first-seen-order model,
//! and `Filter` and `ScalarAggregate` against per-row `Expr::eval_predicate`
//! and `AggExpr::update`. Each runs over inputs that arrive as scan
//! windows (borrowed catalog rows) and as owned batches, at batch sizes 1
//! and 1024 (and 7).

use proptest::collection::vec;
use proptest::prelude::*;
use xmlpub_algebra::{Catalog, ProjectItem, TableDef};
use xmlpub_common::{DataType, Field, Relation, Schema, Tuple, Value};
use xmlpub_engine::ops::{
    drain, BoxedOp, Filter, HashAggregate, HashJoin, NestedLoopJoin, Project, ScalarAggregate,
    TableScan, ValuesOp,
};
use xmlpub_engine::ExecContext;
use xmlpub_expr::{Accumulator, AggExpr, BinOp, Expr};

/// Key-like values: NULLs, Ints, and Floats equal to some of the Ints
/// (`1 = 1.0`), plus both zeros.
fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (0i64..4).prop_map(Value::Int),
        prop_oneof![Just(0.0), Just(-0.0), Just(1.0), Just(2.0), Just(2.5)].prop_map(Value::Float),
    ]
}

fn rows(width: usize, max: usize) -> impl Strategy<Value = Vec<Tuple>> {
    vec(vec(value(), width..=width).prop_map(Tuple::new), 0..max)
}

fn schema(names: &[&str]) -> Schema {
    Schema::new(names.iter().map(|n| Field::new(*n, DataType::Float)).collect())
}

/// A source over `rows`: a scan of a catalog table (every batch a window
/// onto the table's rows) or a literal source (every batch owned).
fn source(cat: &mut Catalog, table: &str, sch: &Schema, rows: &[Tuple], window: bool) -> BoxedOp {
    if window {
        let def = TableDef::new(table, sch.clone());
        cat.register(def, Relation::new(sch.clone(), rows.to_vec()).unwrap()).unwrap();
        Box::new(TableScan::new(table, sch.clone()))
    } else {
        Box::new(ValuesOp::new(sch.clone(), rows.to_vec()))
    }
}

/// Tuple-at-a-time and the default batch size.
fn batch_size() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(1024)]
}

/// Run `op` to exhaustion at `batch_size` with `outers` bound.
fn run(op: &mut BoxedOp, cat: &Catalog, batch_size: usize, outers: &[Tuple]) -> Vec<Tuple> {
    let mut ctx = ExecContext::with_batch_size(cat, batch_size);
    ctx.outers.extend(outers.iter().cloned());
    drain(op.as_mut(), &mut ctx).unwrap()
}

/// Computed project items over a 3-wide input: columns, literals and
/// NULLs, arithmetic, `CASE`, and correlated references into a 2-wide
/// outer row.
fn item() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0usize..3).prop_map(Expr::col),
        value().prop_map(Expr::Literal),
        (0usize..2).prop_map(|index| Expr::Correlated { level: 0, index }),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::binary(BinOp::Add, l, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::binary(BinOp::Mul, l, r)),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, t, e)| Expr::Case {
                branches: vec![(c.gt(Expr::lit(1)), t)],
                else_expr: Some(Box::new(e)),
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn project_matches_row_at_a_time_eval(
        input in rows(3, 40),
        outer in vec(value(), 2..=2).prop_map(Tuple::new),
        exprs in vec(prop_oneof![(0usize..3).prop_map(Expr::col), item()], 1..8),
        window in any::<bool>(),
        batch_size in batch_size(),
    ) {
        let outers = vec![outer];
        let items: Vec<ProjectItem> = exprs
            .iter()
            .enumerate()
            .map(|(i, e)| match e {
                Expr::Column(c) => ProjectItem::col(*c),
                e => ProjectItem::named(e.clone(), format!("e{i}")),
            })
            .collect();
        let expected: Vec<Tuple> = input
            .iter()
            .map(|row| exprs.iter().map(|e| e.eval(row, &outers).unwrap()).collect())
            .collect();
        let mut cat = Catalog::new();
        let src = source(&mut cat, "t", &schema(&["a", "b", "c"]), &input, window);
        let mut op: BoxedOp = Box::new(Project::new(src, items));
        prop_assert_eq!(run(&mut op, &cat, batch_size, &outers), expected);
    }

    #[test]
    fn hash_join_matches_nested_loops(
        left in rows(3, 30),
        right in rows(3, 30),
        two_keys in any::<bool>(),
        residual in any::<bool>(),
        left_outer in any::<bool>(),
        left_window in any::<bool>(),
        right_window in any::<bool>(),
        batch_size in batch_size(),
    ) {
        // Tag each left row with its position so the nested-loops output
        // regroups per left row unambiguously.
        let left: Vec<Tuple> = left
            .into_iter()
            .enumerate()
            .map(|(i, r)| Tuple::new([vec![Value::Int(i as i64)], r.into_values()].concat()))
            .collect();
        let (lw, rw) = (4, 3);
        let keys: Vec<(usize, usize)> = if two_keys { vec![(1, 0), (2, 1)] } else { vec![(1, 0)] };
        let residual = residual.then(|| Expr::col(3).lt(Expr::col(lw + 2)));
        let mut predicate = residual.clone().unwrap_or(Expr::lit(true));
        for &(l, r) in &keys {
            predicate = Expr::col(l).eq(Expr::col(lw + r)).and(predicate);
        }
        let lsch = schema(&["id", "k1", "k2", "v"]);
        let rsch = schema(&["k1", "k2", "v"]);

        let mut cat = Catalog::new();
        let mut nlj: BoxedOp = Box::new(NestedLoopJoin::new(
            source(&mut cat, "l", &lsch, &left, false),
            source(&mut cat, "r", &rsch, &right, false),
            predicate,
        ));
        let inner = run(&mut nlj, &cat, batch_size, &[]);
        let mut expected = Vec::new();
        for l in &left {
            let matched: Vec<Tuple> =
                inner.iter().filter(|row| row.value(0) == l.value(0)).cloned().collect();
            if matched.is_empty() && left_outer {
                expected.push(l.concat(&Tuple::new(vec![Value::Null; rw])));
            }
            expected.extend(matched);
        }

        let mut cat = Catalog::new();
        let mut hj: BoxedOp = Box::new(HashJoin::with_mode(
            source(&mut cat, "l", &lsch, &left, left_window),
            source(&mut cat, "r", &rsch, &right, right_window),
            keys.iter().map(|k| k.0).collect(),
            keys.iter().map(|k| k.1).collect(),
            residual,
            left_outer,
        ));
        prop_assert_eq!(run(&mut hj, &cat, batch_size, &[]), expected);
    }

    #[test]
    fn fused_hash_join_output_matches_project_over_the_join(
        left in rows(3, 30),
        right in rows(3, 30),
        two_keys in any::<bool>(),
        residual in any::<bool>(),
        left_outer in any::<bool>(),
        left_window in any::<bool>(),
        right_window in any::<bool>(),
        // Any columns, repeats allowed, or right-side columns only.
        output in prop_oneof![vec(0usize..6, 1..9), vec(3usize..6, 1..4)],
        batch_size in prop_oneof![Just(1usize), Just(7), Just(1024)],
    ) {
        let lw = 3;
        let keys: Vec<(usize, usize)> = if two_keys { vec![(0, 0), (1, 1)] } else { vec![(0, 0)] };
        let residual = residual.then(|| Expr::col(2).lt(Expr::col(lw + 2)));
        let (lsch, rsch) = (schema(&["k1", "k2", "v"]), schema(&["rk1", "rk2", "rv"]));
        let join = |cat: &mut Catalog| {
            HashJoin::with_mode(
                source(cat, "l", &lsch, &left, left_window),
                source(cat, "r", &rsch, &right, right_window),
                keys.iter().map(|k| k.0).collect(),
                keys.iter().map(|k| k.1).collect(),
                residual.clone(),
                left_outer,
            )
        };
        let items: Vec<ProjectItem> = output.iter().map(|&c| ProjectItem::col(c)).collect();
        let mut cat = Catalog::new();
        let mut projected: BoxedOp = Box::new(Project::new(Box::new(join(&mut cat)), items));
        let expected = run(&mut projected, &cat, batch_size, &[]);

        let mut cat = Catalog::new();
        let mut fused: BoxedOp =
            Box::new(join(&mut cat).with_output(output, projected.schema().clone()));
        prop_assert_eq!(fused.schema(), projected.schema());
        prop_assert_eq!(run(&mut fused, &cat, batch_size, &[]), expected);
    }

    #[test]
    fn hash_aggregate_groups_in_first_seen_order(
        input in rows(3, 60),
        two_keys in any::<bool>(),
        window in any::<bool>(),
        batch_size in prop_oneof![Just(1usize), Just(7), Just(1024)],
    ) {
        let keys: Vec<usize> = if two_keys { vec![0, 1] } else { vec![0] };
        // Model: groups in first-seen key order (equal keys such as 1 and
        // 1.0 share a group, under the first-seen key), NULL keys
        // grouping together.
        let mut groups: Vec<(Vec<Value>, Vec<&Tuple>)> = Vec::new();
        for row in &input {
            let key: Vec<Value> = keys.iter().map(|&k| row.value(k).clone()).collect();
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(row),
                None => groups.push((key, vec![row])),
            }
        }
        let aggs = vec![
            AggExpr::count_star("n"),
            AggExpr::count(Expr::col(2), "c"),
            AggExpr::sum(Expr::col(2), "s"),
            AggExpr::min(Expr::col(2), "lo"),
        ];
        let expected: Vec<Tuple> = groups
            .into_iter()
            .map(|(key, members)| {
                let mut values = key;
                for agg in &aggs {
                    let mut acc = agg.accumulator();
                    for row in &members {
                        agg.update(&mut acc, row, &[]).unwrap();
                    }
                    values.push(acc.finish());
                }
                Tuple::new(values)
            })
            .collect();
        let mut cat = Catalog::new();
        let src = source(&mut cat, "t", &schema(&["a", "b", "c"]), &input, window);
        let mut op: BoxedOp = Box::new(HashAggregate::new(src, keys, aggs));
        prop_assert_eq!(run(&mut op, &cat, batch_size, &[]), expected);
    }

    #[test]
    fn filter_and_scalar_aggregate_match_per_row_models(
        input in rows(3, 60),
        outer in vec(value(), 2..=2).prop_map(Tuple::new),
        predicate in item().prop_map(|e| e.gt(Expr::lit(1))),
        arg in item(),
        window in any::<bool>(),
        batch_size in prop_oneof![Just(1usize), Just(7), Just(1024)],
    ) {
        let outers = vec![outer];
        let sch = schema(&["a", "b", "c"]);
        let kept: Vec<Tuple> = input
            .iter()
            .filter(|row| predicate.eval_predicate(row, &outers).unwrap())
            .cloned()
            .collect();
        let mut cat = Catalog::new();
        let src = source(&mut cat, "t", &sch, &input, window);
        let mut filter: BoxedOp = Box::new(Filter::new(src, predicate));
        prop_assert_eq!(run(&mut filter, &cat, batch_size, &outers), kept);

        let aggs = vec![
            AggExpr::count_star("n"),
            AggExpr::count(arg.clone(), "c"),
            AggExpr::sum(arg.clone(), "s"),
            AggExpr::avg(Expr::col(2), "a"),
            AggExpr::max(arg, "hi"),
        ];
        let mut accs: Vec<Accumulator> = aggs.iter().map(AggExpr::accumulator).collect();
        for row in &input {
            for (agg, acc) in aggs.iter().zip(&mut accs) {
                agg.update(acc, row, &outers).unwrap();
            }
        }
        let expected: Tuple = accs.iter().map(Accumulator::finish).collect();
        let mut cat = Catalog::new();
        let src = source(&mut cat, "t", &sch, &input, window);
        let mut op: BoxedOp = Box::new(ScalarAggregate::new(src, aggs));
        prop_assert_eq!(run(&mut op, &cat, batch_size, &outers), vec![expected]);
    }
}
