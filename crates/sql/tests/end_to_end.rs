//! End-to-end SQL tests: parse → bind → execute against a small
//! hand-built catalog and against generated TPC-H data, including the
//! paper's own Q1/Q2 in both the classic formulation (§2) and the
//! gapply formulation (§3.1).

use xmlpub_algebra::{Catalog, LogicalPlan, TableDef};
use xmlpub_common::{row, DataType, Field, Relation, Schema, Value};
use xmlpub_engine::{execute, execute_with_config, EngineConfig};
use xmlpub_sql::compile;

fn mini_catalog() -> Catalog {
    let mut cat = Catalog::new();
    let supplier = TableDef::new(
        "supplier",
        Schema::new(vec![
            Field::new("s_suppkey", DataType::Int),
            Field::new("s_name", DataType::Str),
        ]),
    )
    .with_primary_key(&["s_suppkey"]);
    let supplier_data = Relation::new(
        supplier.schema.clone(),
        vec![row![1, "Acme"], row![2, "Globex"], row![3, "Initech"]],
    )
    .unwrap();
    cat.register(supplier, supplier_data).unwrap();

    let partsupp = TableDef::new(
        "partsupp",
        Schema::new(vec![
            Field::new("ps_suppkey", DataType::Int),
            Field::new("ps_partkey", DataType::Int),
        ]),
    )
    .with_primary_key(&["ps_suppkey", "ps_partkey"])
    .with_foreign_key(&["ps_suppkey"], "supplier", &["s_suppkey"])
    .with_foreign_key(&["ps_partkey"], "part", &["p_partkey"]);
    let partsupp_data = Relation::new(
        partsupp.schema.clone(),
        vec![row![1, 10], row![1, 11], row![2, 10], row![2, 12], row![3, 11]],
    )
    .unwrap();
    cat.register(partsupp, partsupp_data).unwrap();

    let part = TableDef::new(
        "part",
        Schema::new(vec![
            Field::new("p_partkey", DataType::Int),
            Field::new("p_name", DataType::Str),
            Field::new("p_retailprice", DataType::Float),
        ]),
    )
    .with_primary_key(&["p_partkey"]);
    let part_data = Relation::new(
        part.schema.clone(),
        vec![row![10, "bolt", 10.0], row![11, "nut", 30.0], row![12, "cam", 100.0]],
    )
    .unwrap();
    cat.register(part, part_data).unwrap();
    cat
}

fn run(cat: &Catalog, sql: &str) -> Relation {
    let plan = compile(sql, cat).unwrap_or_else(|e| panic!("compile failed: {e}\n{sql}"));
    execute(&plan, cat).unwrap_or_else(|e| panic!("execute failed: {e}\n{sql}"))
}

#[test]
fn simple_select_where() {
    let cat = mini_catalog();
    let r = run(&cat, "select p_name from part where p_retailprice > 20");
    let expected = Relation::new(r.schema().clone(), vec![row!["nut"], row!["cam"]]).unwrap();
    assert!(r.bag_eq(&expected), "{}", r.bag_diff(&expected));
}

#[test]
fn qualified_columns_and_aliases() {
    let cat = mini_catalog();
    let r = run(
        &cat,
        "select s.s_name, p.p_name from supplier s, partsupp ps, part p \
         where s.s_suppkey = ps.ps_suppkey and ps.ps_partkey = p.p_partkey \
         and p.p_retailprice >= 100",
    );
    let expected = Relation::new(r.schema().clone(), vec![row!["Globex", "cam"]]).unwrap();
    assert!(r.bag_eq(&expected), "{}", r.bag_diff(&expected));
}

#[test]
fn join_on_syntax_gets_fk_annotation() {
    let cat = mini_catalog();
    let plan = compile("select s_name from partsupp join supplier on ps_suppkey = s_suppkey", &cat)
        .unwrap();
    let mut found_fk = false;
    fn walk(p: &LogicalPlan, found: &mut bool) {
        if let LogicalPlan::Join { fk_left_to_right: true, .. } = p {
            *found = true;
        }
        for c in p.children() {
            walk(c, found);
        }
    }
    walk(&plan, &mut found_fk);
    assert!(found_fk, "{}", plan.explain());
}

/// The foreign-key flags of a plan's joins, pre-order.
fn fk_flags(plan: &LogicalPlan) -> Vec<bool> {
    let mut out = Vec::new();
    if let LogicalPlan::Join { fk_left_to_right, .. } = plan {
        out.push(*fk_left_to_right);
    }
    for c in plan.children() {
        out.extend(fk_flags(c));
    }
    out
}

#[test]
fn composite_fk_is_matched_pair_by_pair() {
    // a(a1, a2) references b(b1, b2) as a whole: a1 -> b1 and a2 -> b2.
    let int = |n: &str| Field::new(n, DataType::Int);
    let mut cat = Catalog::new();
    let b =
        TableDef::new("b", Schema::new(vec![int("b1"), int("b2")])).with_primary_key(&["b1", "b2"]);
    cat.register(b.clone(), Relation::new(b.schema.clone(), vec![row![1, 2]]).unwrap()).unwrap();
    let a = TableDef::new("a", Schema::new(vec![int("a1"), int("a2")])).with_foreign_key(
        &["a1", "a2"],
        "b",
        &["b1", "b2"],
    );
    cat.register(a.clone(), Relation::new(a.schema.clone(), vec![row![1, 2]]).unwrap()).unwrap();

    // Both foreign-key columns are equated, but crosswise: no FK join,
    // and so no promise that every row of `a` finds its `b` row.
    let swapped = compile("select * from a, b where a1 = b2 and a2 = b1", &cat).unwrap();
    assert_eq!(fk_flags(&swapped), vec![false], "{}", swapped.explain());
    let config = EngineConfig { check_props: true, ..EngineConfig::default() };
    let rows = execute_with_config(&swapped, &cat, &config).unwrap();
    assert_eq!(rows.len(), 0);

    let straight = compile("select * from a, b where a1 = b1 and a2 = b2", &cat).unwrap();
    assert_eq!(fk_flags(&straight), vec![true], "{}", straight.explain());
    assert_eq!(execute_with_config(&straight, &cat, &config).unwrap().len(), 1);
}

#[test]
fn comma_join_distributes_where_onto_joins() {
    let cat = mini_catalog();
    let plan =
        compile("select p_name from partsupp, part where ps_partkey = p_partkey", &cat).unwrap();
    // The equi conjunct must live in the Join predicate, not a top Select.
    let mut join_pred_nontrivial = false;
    fn walk(p: &LogicalPlan, found: &mut bool) {
        if let LogicalPlan::Join { predicate, .. } = p {
            if !matches!(predicate, xmlpub_expr::Expr::Literal(_)) {
                *found = true;
            }
        }
        for c in p.children() {
            walk(c, found);
        }
    }
    walk(&plan, &mut join_pred_nontrivial);
    assert!(join_pred_nontrivial, "{}", plan.explain());
    // And the comma-join also detects the FK (partsupp → part).
    let mut fk = false;
    fn walk_fk(p: &LogicalPlan, found: &mut bool) {
        if let LogicalPlan::Join { fk_left_to_right: true, .. } = p {
            *found = true;
        }
        for c in p.children() {
            walk_fk(c, found);
        }
    }
    walk_fk(&plan, &mut fk);
    assert!(fk, "{}", plan.explain());
}

#[test]
fn group_by_aggregates_and_having() {
    let cat = mini_catalog();
    let r = run(
        &cat,
        "select ps_suppkey, count(*) as n, avg(p_retailprice) as ap \
         from partsupp, part where ps_partkey = p_partkey \
         group by ps_suppkey having count(*) > 1 order by ps_suppkey",
    );
    let expected =
        Relation::new(r.schema().clone(), vec![row![1, 2, 20.0], row![2, 2, 55.0]]).unwrap();
    assert!(r.bag_eq(&expected), "{}", r.bag_diff(&expected));
    // ORDER BY applied: first row is supplier 1.
    assert_eq!(r.rows()[0].value(0), &Value::Int(1));
}

#[test]
fn scalar_aggregate_without_group_by() {
    let cat = mini_catalog();
    let r = run(&cat, "select count(*), min(p_retailprice) from part");
    assert_eq!(r.rows(), &[row![3, 10.0]]);
}

#[test]
fn distinct_and_union() {
    let cat = mini_catalog();
    let r = run(&cat, "select distinct ps_suppkey from partsupp");
    assert_eq!(r.len(), 3);
    let r = run(
        &cat,
        "select p_name from part where p_retailprice > 50 \
         union all select s_name from supplier where s_suppkey = 1",
    );
    let expected = Relation::new(r.schema().clone(), vec![row!["cam"], row!["Acme"]]).unwrap();
    assert!(r.bag_eq(&expected), "{}", r.bag_diff(&expected));
    // Plain UNION deduplicates.
    let r = run(&cat, "select ps_suppkey from partsupp union select ps_suppkey from partsupp");
    assert_eq!(r.len(), 3);
}

#[test]
fn correlated_scalar_subquery() {
    // Parts priced above the average price of the parts their supplier
    // supplies — the classic correlated formulation from the paper's Q2.
    let cat = mini_catalog();
    let r = run(
        &cat,
        "select ps_suppkey, p_name from partsupp ps1, part \
         where p_partkey = ps_partkey and p_retailprice >= \
           (select avg(p_retailprice) from partsupp, part \
            where p_partkey = ps_partkey and ps_suppkey = ps1.ps_suppkey) \
         order by ps_suppkey",
    );
    // supplier 1: avg(10,30)=20 → nut; supplier 2: avg(10,100)=55 → cam;
    // supplier 3: avg(30)=30 → nut.
    let expected =
        Relation::new(r.schema().clone(), vec![row![1, "nut"], row![2, "cam"], row![3, "nut"]])
            .unwrap();
    assert!(r.bag_eq(&expected), "{}", r.bag_diff(&expected));
}

#[test]
fn exists_and_not_exists() {
    let cat = mini_catalog();
    let r = run(
        &cat,
        "select s_name from supplier where exists \
         (select 1 from partsupp, part where ps_partkey = p_partkey \
          and ps_suppkey = s_suppkey and p_retailprice > 50)",
    );
    assert_eq!(r.rows(), &[row!["Globex"]]);
    let r = run(
        &cat,
        "select s_name from supplier where not exists \
         (select 1 from partsupp, part where ps_partkey = p_partkey \
          and ps_suppkey = s_suppkey and p_retailprice > 50)",
    );
    let expected = Relation::new(r.schema().clone(), vec![row!["Acme"], row!["Initech"]]).unwrap();
    assert!(r.bag_eq(&expected), "{}", r.bag_diff(&expected));
}

#[test]
fn derived_tables_resolve_by_alias() {
    let cat = mini_catalog();
    let r = run(
        &cat,
        "select tmp.k, tmp.n from \
         (select ps_suppkey, count(*) from partsupp group by ps_suppkey) \
         as tmp(k, n) where tmp.n > 1 order by tmp.k",
    );
    let expected = Relation::new(r.schema().clone(), vec![row![1, 2], row![2, 2]]).unwrap();
    assert!(r.bag_eq(&expected), "{}", r.bag_diff(&expected));
}

#[test]
fn paper_q1_gapply_formulation() {
    let cat = mini_catalog();
    let r = run(
        &cat,
        "select gapply(
             select p_name, p_retailprice, null from tmpSupp
             union all
             select null, null, avg(p_retailprice) from tmpSupp
         ) as (p_name, p_retailprice, avgprice)
         from partsupp, part
         where ps_partkey = p_partkey
         group by ps_suppkey : tmpSupp",
    );
    let n = Value::Null;
    let expected = Relation::new(
        r.schema().clone(),
        vec![
            row![1, "bolt", 10.0, n.clone()],
            row![1, "nut", 30.0, n.clone()],
            row![1, n.clone(), n.clone(), 20.0],
            row![2, "bolt", 10.0, n.clone()],
            row![2, "cam", 100.0, n.clone()],
            row![2, n.clone(), n.clone(), 55.0],
            row![3, "nut", 30.0, n.clone()],
            row![3, n.clone(), n.clone(), 30.0],
        ],
    )
    .unwrap();
    assert!(r.bag_eq(&expected), "{}", r.bag_diff(&expected));
    // Output columns carry the AS names.
    assert_eq!(r.schema().field(1).name, "p_name");
    assert_eq!(r.schema().field(3).name, "avgprice");
}

#[test]
fn paper_q2_gapply_formulation() {
    let cat = mini_catalog();
    let r = run(
        &cat,
        "select gapply(
             select count(*), null from tmpSupp
             where p_retailprice >= (select avg(p_retailprice) from tmpSupp)
             union all
             select null, count(*) from tmpSupp
             where p_retailprice < (select avg(p_retailprice) from tmpSupp)
         ) as (above, below)
         from partsupp, part
         where ps_partkey = p_partkey
         group by ps_suppkey : tmpSupp",
    );
    let n = Value::Null;
    let expected = Relation::new(
        r.schema().clone(),
        vec![
            row![1, 1, n.clone()], // supplier 1: nut(30) >= 20
            row![1, n.clone(), 1], // bolt(10) < 20
            row![2, 1, n.clone()], // cam(100) >= 55
            row![2, n.clone(), 1], // bolt(10) < 55
            row![3, 1, n.clone()], // nut(30) >= 30
            row![3, n.clone(), 0],
        ],
    )
    .unwrap();
    assert!(r.bag_eq(&expected), "{}", r.bag_diff(&expected));
}

#[test]
fn classic_q1_and_gapply_q1_agree() {
    // The §2 sorted-outer-union formulation and the §3.1 gapply
    // formulation must produce the same bag of rows.
    let cat = mini_catalog();
    let classic = run(
        &cat,
        "(select ps_suppkey, p_name, p_retailprice, null from partsupp, part \
          where ps_partkey = p_partkey \
          union all \
          select ps_suppkey, null, null, avg(p_retailprice) \
          from partsupp, part where ps_partkey = p_partkey group by ps_suppkey) \
         order by ps_suppkey",
    );
    let gapply = run(
        &cat,
        "select gapply(
             select p_name, p_retailprice, null from g
             union all
             select null, null, avg(p_retailprice) from g
         ) from partsupp, part where ps_partkey = p_partkey \
         group by ps_suppkey : g",
    );
    assert!(classic.bag_eq(&gapply), "{}", classic.bag_diff(&gapply));
}

#[test]
fn gapply_group_selection_query() {
    // §4.2's exists-style query in gapply syntax: suppliers supplying
    // some expensive part, returning the whole group.
    let cat = mini_catalog();
    let r = run(
        &cat,
        "select gapply(select * from g where exists \
             (select 1 from g where p_retailprice > 50)) \
         from partsupp, part where ps_partkey = p_partkey \
         group by ps_suppkey : g",
    );
    // Only supplier 2 has a part > 50; its whole 2-row group returns.
    assert_eq!(r.len(), 2);
    assert!(r.rows().iter().all(|t| t.value(0) == &Value::Int(2)));
}

#[test]
fn bind_errors_are_informative() {
    let cat = mini_catalog();
    let err = compile("select nope from part", &cat).unwrap_err().to_string();
    assert!(err.contains("no such column 'nope'"), "{err}");
    let err = compile("select p_name from ghost", &cat).unwrap_err().to_string();
    assert!(err.contains("no such table"), "{err}");
    let err = compile("select p_name from part, part", &cat).unwrap_err().to_string();
    assert!(err.contains("duplicate table alias"), "{err}");
    let err = compile("select p_name from part group by p_partkey", &cat).unwrap_err().to_string();
    assert!(err.contains("must appear in GROUP BY"), "{err}");
    let err = compile("select avg(p_retailprice) from part where avg(p_retailprice) > 1", &cat)
        .unwrap_err()
        .to_string();
    assert!(err.contains("aggregate"), "{err}");
}

#[test]
fn order_by_position_and_desc() {
    let cat = mini_catalog();
    let r = run(&cat, "select p_name, p_retailprice from part order by 2 desc");
    assert_eq!(r.rows()[0].value(0), &Value::str("cam"));
    let err = compile("select p_name from part order by 9", &cat).unwrap_err();
    assert!(err.to_string().contains("out of range"), "{err}");
}

#[test]
fn case_and_like_and_in() {
    let cat = mini_catalog();
    let r = run(
        &cat,
        "select p_name, case when p_retailprice > 50 then 'expensive' \
         else 'cheap' end as bucket from part where p_name like '%t' \
         and p_partkey in (10, 11, 999)",
    );
    let expected =
        Relation::new(r.schema().clone(), vec![row!["bolt", "cheap"], row!["nut", "cheap"]])
            .unwrap();
    assert!(r.bag_eq(&expected), "{}", r.bag_diff(&expected));
}

#[test]
fn works_on_generated_tpch() {
    let cat = xmlpub_tpch::TpchGenerator::with_scale(0.001).core_catalog().unwrap();
    let r = run(
        &cat,
        "select gapply(select count(*), avg(p_retailprice) from g) as (n, ap) \
         from partsupp, part where ps_partkey = p_partkey \
         group by ps_suppkey : g",
    );
    // 10 suppliers at SF 0.001, each supplied ≥ 1 part.
    assert_eq!(r.len(), 10);
    for t in r.rows() {
        assert!(t.value(1).as_int().unwrap() > 0);
        assert!(t.value(2).as_f64().unwrap() > 0.0);
    }
}

#[test]
fn scalar_subquery_in_select_list() {
    let cat = mini_catalog();
    let r = run(
        &cat,
        "select s_name, (select count(*) from partsupp where ps_suppkey = s_suppkey) \
         as nparts from supplier order by s_name",
    );
    let expected = Relation::new(
        r.schema().clone(),
        vec![row!["Acme", 2], row!["Globex", 2], row!["Initech", 1]],
    )
    .unwrap();
    assert!(r.bag_eq(&expected), "{}", r.bag_diff(&expected));
}

#[test]
fn group_by_without_aggregates_deduplicates_keys() {
    let cat = mini_catalog();
    let r = run(&cat, "select ps_suppkey from partsupp group by ps_suppkey");
    assert_eq!(r.len(), 3);
}

#[test]
fn having_without_matching_groups_is_empty() {
    let cat = mini_catalog();
    let r = run(
        &cat,
        "select ps_suppkey, count(*) from partsupp group by ps_suppkey \
         having count(*) > 99",
    );
    assert!(r.is_empty());
}

#[test]
fn between_and_not_like() {
    let cat = mini_catalog();
    let r = run(
        &cat,
        "select p_name from part where p_retailprice between 10 and 50 \
         and p_name not like 'b%'",
    );
    assert_eq!(r.rows(), &[row!["nut"]]);
}

#[test]
fn union_all_inside_pgq_with_three_branches() {
    let cat = mini_catalog();
    let r = run(
        &cat,
        "select gapply(
             select min(p_retailprice), null, null from g
             union all
             select null, max(p_retailprice), null from g
             union all
             select null, null, avg(p_retailprice) from g
         ) as (lo, hi, mean)
         from partsupp, part where ps_partkey = p_partkey
         group by ps_suppkey : g",
    );
    // 3 rows per supplier.
    assert_eq!(r.len(), 9);
}

#[test]
fn gapply_rejects_having_and_distinct() {
    let cat = mini_catalog();
    let err = compile(
        "select gapply(select * from g) from partsupp group by ps_suppkey : g \
         having count(*) > 1",
        &cat,
    )
    .unwrap_err();
    assert!(err.to_string().contains("HAVING"), "{err}");
    let err = compile(
        "select distinct gapply(select * from g) from partsupp group by ps_suppkey : g",
        &cat,
    )
    .unwrap_err();
    assert!(err.to_string().contains("DISTINCT"), "{err}");
}

#[test]
fn gapply_as_rename_arity_checked() {
    let cat = mini_catalog();
    let err = compile(
        "select gapply(select p_name from g) as (a, b) \
         from partsupp, part where ps_partkey = p_partkey group by ps_suppkey : g",
        &cat,
    )
    .unwrap_err();
    assert!(err.to_string().contains("returns 1"), "{err}");
}

#[test]
fn binding_variable_shadows_catalog_tables() {
    // A `: part` binding makes `from part` inside the PGQ read the GROUP,
    // not the base table — the binding wins, as §3.1's semantics demand.
    let cat = mini_catalog();
    let r = run(
        &cat,
        "select gapply(select count(*) from part) as (n) \
         from partsupp group by ps_suppkey : part",
    );
    // Counts per supplier from partsupp (2, 2, 1), not 3 = |part| rows.
    let counts: Vec<i64> = r.rows().iter().map(|t| t.value(1).as_int().unwrap()).collect();
    let mut sorted = counts.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![1, 2, 2]);
}
