//! The paper's evaluation workloads (§5.2) and the Table 1 sweep
//! queries, as SQL text in both formulations.
//!
//! Everything here is plain query text compiled through the workspace's
//! own SQL front end, so the benches exercise the full stack: parse →
//! bind → (optionally optimize) → execute.

use crate::xquery::{ChildCond, ReturnItem, ViewSql, XAgg, XQueryFor};
use xmlpub_expr::BinOp;

/// One benchmark query: name, both SQL formulations, and the XQuery it
/// came from when the workload is XQuery-born.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short name (Q1..Q4).
    pub name: &'static str,
    /// Natural-language description.
    pub description: &'static str,
    /// The XQuery origin, when applicable.
    pub xquery: Option<XQueryFor>,
    /// The §2 classic formulation.
    pub classic_sql: String,
    /// The §3.1 gapply formulation.
    pub gapply_sql: String,
}

/// Q1 (§2): per supplier, all part names/prices plus the overall average.
pub fn q1() -> Workload {
    let view = ViewSql::supplier_parts();
    let xq = XQueryFor {
        var: "s".to_string(),
        where_clause: None,
        return_items: vec![
            ReturnItem::Nested {
                fields: vec!["p_name".into(), "p_retailprice".into()],
                filter: None,
            },
            ReturnItem::Aggregate { agg: XAgg::Avg, field: "p_retailprice".into(), filter: None },
        ],
    };
    Workload {
        name: "Q1",
        description: "per supplier: every part (name, price) and the average price of all \
                      parts supplied",
        classic_sql: xq.to_classic_sql(&view),
        gapply_sql: xq.to_gapply_sql(&view),
        xquery: Some(xq),
    }
}

/// Q2 (§2): per supplier, counts of parts priced above/below the
/// supplier's average.
pub fn q2() -> Workload {
    let view = ViewSql::supplier_parts();
    let xq = XQueryFor {
        var: "s".to_string(),
        where_clause: None,
        return_items: vec![
            ReturnItem::CountCompare {
                field: "p_retailprice".into(),
                op: BinOp::GtEq,
                agg: XAgg::Avg,
                agg_field: "p_retailprice".into(),
            },
            ReturnItem::CountCompare {
                field: "p_retailprice".into(),
                op: BinOp::Lt,
                agg: XAgg::Avg,
                agg_field: "p_retailprice".into(),
            },
        ],
    };
    Workload {
        name: "Q2",
        description: "per supplier: how many parts are priced at/above and below the \
                      supplier's average price",
        classic_sql: xq.to_classic_sql(&view),
        gapply_sql: xq.to_gapply_sql(&view),
        xquery: Some(xq),
    }
}

/// Q3 (§5.2): per supplier, high-end and low-end parts (relative to the
/// supplier's max/min price).
pub fn q3() -> Workload {
    let view = ViewSql::supplier_parts();
    let xq = XQueryFor {
        var: "s".to_string(),
        where_clause: None,
        return_items: vec![
            ReturnItem::Nested {
                fields: vec!["p_name".into(), "p_retailprice".into()],
                filter: Some(ChildCond::CompareToAgg {
                    field: "p_retailprice".into(),
                    op: BinOp::GtEq,
                    scale: 0.9,
                    agg: XAgg::Max,
                    agg_field: "p_retailprice".into(),
                }),
            },
            ReturnItem::Nested {
                fields: vec!["p_name".into(), "p_retailprice".into()],
                filter: Some(ChildCond::CompareToAgg {
                    field: "p_retailprice".into(),
                    op: BinOp::LtEq,
                    scale: 1.1,
                    agg: XAgg::Min,
                    agg_field: "p_retailprice".into(),
                }),
            },
        ],
    };
    Workload {
        name: "Q3",
        description: "per supplier: parts priced high-end (≥ 0.9 × max) or low-end \
                      (≤ 1.1 × min)",
        classic_sql: xq.to_classic_sql(&view),
        gapply_sql: xq.to_gapply_sql(&view),
        xquery: Some(xq),
    }
}

/// Q4 (§5.2): per supplier and part size, the parts priced above the
/// (supplier, size) average. The classic formulation is the paper's
/// derived-table join, with the FROM clause exactly as printed in §5.2
/// (derived table first). The optimizer's `join-reorder` pass rebuilds
/// that order into [`q4_reordered`]'s, so both run the same plan;
/// without the pass this text runs the naive FROM order.
pub fn q4() -> Workload {
    Workload {
        name: "Q4",
        description: "per supplier and part size: parts priced above the average price \
                      for that supplier and size (paper-literal FROM order)",
        xquery: None,
        classic_sql: "select tmp.k, p_name, p_size, p_retailprice \
                      from (select ps_suppkey, p_size, avg(p_retailprice) \
                            from partsupp, part where p_partkey = ps_partkey \
                            group by ps_suppkey, p_size) as tmp(k, s, avgprice), \
                           partsupp, part \
                      where ps_partkey = p_partkey and ps_suppkey = tmp.k \
                        and p_size = tmp.s and p_retailprice > tmp.avgprice \
                      order by tmp.k"
            .to_string(),
        gapply_sql: "select gapply(\
                         select p_name, p_retailprice from g \
                         where p_retailprice > (select avg(p_retailprice) from g)\
                     ) as (p_name, p_retailprice) \
                     from partsupp, part where ps_partkey = p_partkey \
                     group by ps_suppkey, p_size : g"
            .to_string(),
    }
}

/// Q4 with the derived table moved to the end of the FROM clause — the
/// join order a reordering optimizer (like the paper's SQL Server) would
/// pick, written by hand. It is the control for [`q4`]: the optimizer's
/// `join-reorder` pass gives paper-literal Q4 exactly this plan.
pub fn q4_reordered() -> Workload {
    let mut w = q4();
    w.name = "Q4r";
    w.description = "Q4 with the classic baseline's joins in the optimal order";
    w.classic_sql = "select tmp.k, p_name, p_size, p_retailprice \
                     from partsupp, part, \
                          (select ps_suppkey, p_size, avg(p_retailprice) \
                           from partsupp, part where p_partkey = ps_partkey \
                           group by ps_suppkey, p_size) as tmp(k, s, avgprice) \
                     where ps_partkey = p_partkey and ps_suppkey = tmp.k \
                       and p_size = tmp.s and p_retailprice > tmp.avgprice \
                     order by tmp.k"
        .to_string();
    w
}

/// The Figure 8 workloads: Q1–Q4, plus Q4r, the hand-ordered control
/// for Q4's classic baseline (the same plan once joins are reordered).
pub fn figure8_workloads() -> Vec<Workload> {
    vec![q1(), q2(), q3(), q4(), q4_reordered()]
}

// ---------------------------------------------------------------------
// Table 1 sweep queries (one parameterised gapply query per rule).
// ---------------------------------------------------------------------

/// Selection-before-GApply sweep: the per-group query keeps rows priced
/// above `threshold`; the covering range pushes it into the outer join.
/// TPC-H retail prices span [900, 2099).
pub fn selection_sweep_sql(threshold: f64) -> String {
    format!(
        "select gapply(select p_name, p_retailprice from g \
         where p_retailprice > {threshold}) as (p_name, p_retailprice) \
         from partsupp, part where ps_partkey = p_partkey \
         group by ps_suppkey : g"
    )
}

/// Projection-before-GApply sweep: the per-group query touches only the
/// price column while the outer join carries every part column
/// (`use_wide_pgq` keeps more columns alive, shrinking the benefit).
pub fn projection_sweep_sql(use_wide_pgq: bool) -> String {
    let pgq = if use_wide_pgq {
        "select p_name, p_brand, p_type, p_container, avg(p_retailprice) from g \
         group by p_name, p_brand, p_type, p_container"
    } else {
        "select avg(p_retailprice), count(*) from g"
    };
    format!(
        "select gapply({pgq}) from partsupp, part where ps_partkey = p_partkey \
         group by ps_suppkey : g"
    )
}

/// GApply→groupby sweep: a pure aggregate per-group query.
pub fn to_groupby_sweep_sql() -> String {
    "select gapply(select avg(p_retailprice), min(p_retailprice), max(p_retailprice), \
     count(*) from g) from partsupp, part where ps_partkey = p_partkey \
     group by ps_suppkey : g"
        .to_string()
}

/// Exists group-selection sweep (the paper's own parameterised query):
/// suppliers supplying some part priced above `threshold`, returning the
/// whole group.
pub fn exists_sweep_sql(threshold: f64) -> String {
    format!(
        "select gapply(select * from g where exists \
         (select 1 from g where p_retailprice > {threshold})) \
         from partsupp, part where ps_partkey = p_partkey \
         group by ps_suppkey : g"
    )
}

/// Aggregate-selection sweep: suppliers whose average part price exceeds
/// `threshold`, returning the whole group.
pub fn aggregate_selection_sweep_sql(threshold: f64) -> String {
    format!(
        "select gapply(select * from g where \
         (select avg(p_retailprice) from g) > {threshold}) \
         from partsupp, part where ps_partkey = p_partkey \
         group by ps_suppkey : g"
    )
}

/// Invariant-grouping sweep (the Figure 7 query): per supplier, the
/// supplier name and the least expensive part. The supplier join is a
/// foreign-key join above the grouping, so the GApply can sink below it.
pub fn invariant_grouping_sweep_sql() -> String {
    "select gapply(select p_name, p_retailprice, s_name from g \
     where p_retailprice = (select min(p_retailprice) from g)) \
     as (p_name, p_retailprice, s_name) \
     from partsupp, part, supplier \
     where ps_partkey = p_partkey and ps_suppkey = s_suppkey \
     group by ps_suppkey : g"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlpub_engine::execute;
    use xmlpub_sql::compile;
    use xmlpub_tpch::TpchGenerator;

    #[test]
    fn all_figure8_workloads_compile_and_agree() {
        let cat = TpchGenerator::with_scale(0.001).core_catalog().unwrap();
        for w in figure8_workloads() {
            let classic = compile(&w.classic_sql, &cat)
                .unwrap_or_else(|e| panic!("{} classic: {e}\n{}", w.name, w.classic_sql));
            let gapply = compile(&w.gapply_sql, &cat)
                .unwrap_or_else(|e| panic!("{} gapply: {e}\n{}", w.name, w.gapply_sql));
            let rc = execute(&classic, &cat).unwrap();
            let rg = execute(&gapply, &cat).unwrap();
            assert!(!rg.is_empty(), "{} produced nothing", w.name);
            match w.name {
                // Q1 and Q3's outputs are directly comparable bags
                // (key + same columns).
                "Q1" | "Q3" => {
                    assert!(rc.bag_eq(&rg), "{}: {}", w.name, rc.bag_diff(&rg));
                }
                // Q2's classic group-by drops empty groups; compare the
                // non-empty part.
                "Q2" => {
                    assert!(rc.len() <= rg.len(), "{}", w.name);
                }
                // Q4's gapply groups by (supplier, size): both report the
                // same above-average parts. Classic carries p_size too,
                // so compare cardinalities.
                "Q4" | "Q4r" => {
                    assert_eq!(rc.len(), rg.len(), "{}", w.name);
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn sweep_queries_compile_and_run() {
        let cat = TpchGenerator::with_scale(0.001).core_catalog().unwrap();
        for sql in [
            selection_sweep_sql(1800.0),
            projection_sweep_sql(false),
            projection_sweep_sql(true),
            to_groupby_sweep_sql(),
            exists_sweep_sql(2000.0),
            aggregate_selection_sweep_sql(1500.0),
            invariant_grouping_sweep_sql(),
        ] {
            let plan = compile(&sql, &cat).unwrap_or_else(|e| panic!("{e}\n{sql}"));
            let r = execute(&plan, &cat).unwrap_or_else(|e| panic!("{e}\n{sql}"));
            // Every sweep query produces something at a permissive
            // parameter; selective ones may legitimately produce little.
            let _ = r;
        }
    }

    #[test]
    fn q2_descriptions_match_paper_counts() {
        // Cross-check Q2's gapply result against a direct computation.
        let cat = TpchGenerator::with_scale(0.001).core_catalog().unwrap();
        let w = q2();
        let plan = compile(&w.gapply_sql, &cat).unwrap();
        let r = execute(&plan, &cat).unwrap();
        // 10 suppliers × 2 rows (above + below).
        assert_eq!(r.len(), 20);
    }

    #[test]
    fn exists_sweep_selectivity_monotone() {
        let cat = TpchGenerator::with_scale(0.001).core_catalog().unwrap();
        let lo = execute(&compile(&exists_sweep_sql(1000.0), &cat).unwrap(), &cat).unwrap();
        let hi = execute(&compile(&exists_sweep_sql(2090.0), &cat).unwrap(), &cat).unwrap();
        assert!(lo.len() >= hi.len());
    }

    #[test]
    fn invariant_grouping_query_has_fk_spine() {
        use xmlpub_algebra::LogicalPlan;
        let cat = TpchGenerator::with_scale(0.001).core_catalog().unwrap();
        let plan = compile(&invariant_grouping_sweep_sql(), &cat).unwrap();
        // The supplier join under the GApply must carry the FK flag for
        // the invariant-grouping rule to fire.
        let mut fk_found = false;
        fn walk(p: &LogicalPlan, found: &mut bool) {
            if let LogicalPlan::Join { fk_left_to_right: true, .. } = p {
                *found = true;
            }
            for c in p.children() {
                walk(c, found);
            }
        }
        walk(&plan, &mut fk_found);
        assert!(fk_found, "{}", plan.explain());
    }
}
