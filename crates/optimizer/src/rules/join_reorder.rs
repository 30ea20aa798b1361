//! Join order from the cost model.
//!
//! The binder turns a FROM list into a left-deep join tree in text
//! order, so a query's join order is whatever order its author wrote.
//! The paper's "without GApply" baselines ran on an optimizer that
//! reorders joins, and "XQuery Join Graph Isolation" makes the same
//! move for XQuery: isolate the join bundle so that one ordinary
//! join-order search sees it whole. This rule is that search, greedy and
//! left-deep:
//!
//! 1. flatten a maximal tree of inner [`LogicalPlan::Join`]s into its
//!    leaves (any non-`Join` node: outer joins, applies, GApplys,
//!    aggregations and projections are boundaries) and its predicate
//!    conjuncts;
//! 2. start from the connected pair of leaves whose join the model
//!    rates cheapest, then keep adding the connected leaf that keeps the
//!    partial tree cheapest as the right (build) side; each conjunct
//!    sits at the lowest join that covers its columns, ties keep the
//!    bound order, and no cross product is built while a connected leaf
//!    remains;
//! 3. keep the rebuilt tree only when its own cost, accumulated step by
//!    step while it was built, is at least [`MIN_GAIN`] times below
//!    [`CostModel::cost`] of the bound one;
//! 4. restore the bound column order with a permuting projection,
//!    folded into the parent when the parent is already a projection.
//!
//! Every join the rule builds gets its foreign-key flag from
//! [`follows_foreign_key`], the test the binder flags joins with, never
//! from the tree it replaces. Every step is priced by `CostModel::join`,
//! the join formula of the model's own walk, so the greedy tree's
//! accumulated cost is exactly what [`CostModel::cost`] says of it.
//!
//! The rule treats the join it is handed as the root of a maximal tree;
//! the driver only offers it joins whose parent is not a join (and
//! projections directly over such a join).

use crate::cost::{CostModel, Costed};
use crate::rules::{Rule, RuleContext};
use crate::stats::Statistics;
use xmlpub_algebra::analysis::{follows_foreign_key, scan_lineage, ScanColumn};
use xmlpub_algebra::{LogicalPlan, ProjectItem};
use xmlpub_expr::{conjunction, conjuncts, split_equi_join, Expr};

/// How many times cheaper than the bound tree the model must rate the
/// rebuilt one before the rule fires. The model's default selectivities
/// are coarse, and every firing changes the tie order of unsorted
/// results, so a marginal estimated win is not worth taking.
pub const MIN_GAIN: f64 = 2.0;

/// Trees with more leaves than this keep their bound order (leaf sets
/// are `u64` bit masks).
const MAX_LEAVES: usize = 64;

/// The greedy join-reorder rule.
pub struct JoinReorder;

impl Rule for JoinReorder {
    fn name(&self) -> &'static str {
        "join-reorder"
    }

    fn apply(&self, plan: &LogicalPlan, ctx: &RuleContext<'_>) -> Option<LogicalPlan> {
        match plan {
            LogicalPlan::Project { input, items }
                if matches!(**input, LogicalPlan::Join { .. }) =>
            {
                let (tree, new_pos) = worthwhile(input, ctx)?;
                let items = items
                    .iter()
                    .map(|it| ProjectItem {
                        expr: it
                            .expr
                            .remap_columns(&|c| new_pos.get(c).copied())
                            .expect("a projection over a join reads only the join's columns"),
                        alias: it.alias.clone(),
                    })
                    .collect();
                Some(tree.project(items))
            }
            LogicalPlan::Join { .. } => {
                let (tree, new_pos) = worthwhile(plan, ctx)?;
                Some(tree.project(new_pos.into_iter().map(ProjectItem::col).collect()))
            }
            _ => None,
        }
    }
}

/// The greedy tree for `join`, if it differs from the bound order and
/// clears the [`MIN_GAIN`] margin (a miss is recorded as a veto).
fn worthwhile(join: &LogicalPlan, ctx: &RuleContext<'_>) -> Option<(LogicalPlan, Vec<usize>)> {
    let (tree, new_pos, cost) = greedy_order(join, ctx.stats)?;
    if CostModel::new(ctx.stats).cost(join) < MIN_GAIN * cost {
        ctx.record_veto(JoinReorder.name());
        return None;
    }
    Some((tree, new_pos))
}

/// Rebuild the maximal inner-join tree rooted at `join` greedily,
/// without the [`MIN_GAIN`] margin. Returns the new tree, for every
/// column of the bound tree its position in the new one, and the new
/// tree's cost; `None` when `join` is not a join, has fewer than three
/// leaves, or the greedy order is the bound order.
pub fn greedy_order(
    join: &LogicalPlan,
    stats: &Statistics,
) -> Option<(LogicalPlan, Vec<usize>, f64)> {
    let LogicalPlan::Join { .. } = join else {
        return None;
    };
    let mut leaves = Vec::new();
    let mut exprs = Vec::new();
    let width = flatten(join, 0, &mut leaves, &mut exprs);
    if leaves.len() < 3 || leaves.len() > MAX_LEAVES {
        return None;
    }
    let graph = JoinGraph::new(leaves, exprs, width, stats);
    let (tree, order, cost) = graph.greedy();
    if order.iter().enumerate().all(|(i, &l)| i == l) {
        return None;
    }
    Some((tree, graph.new_positions(&order), cost))
}

/// One leaf of a flattened join tree.
struct Leaf<'p> {
    plan: &'p LogicalPlan,
    /// First column in the bound tree's schema.
    offset: usize,
    width: usize,
    costed: Costed,
    lineage: Vec<Option<ScanColumn<'p>>>,
}

/// One predicate conjunct, in the bound tree's column coordinates.
struct Conjunct {
    expr: Expr,
    /// Bit mask of the leaves it references (empty for constant and
    /// purely correlated conjuncts).
    leaves: u64,
}

/// A partial left-deep tree: the leaves joined so far, in join order,
/// and the predicate and foreign-key flag of each join.
struct Partial {
    order: Vec<usize>,
    joins: Vec<(Expr, bool)>,
    mask: u64,
    width: usize,
    costed: Costed,
    placed: Vec<bool>,
}

/// One candidate join of a partial tree with a further leaf.
struct Step {
    leaf: usize,
    predicate: Expr,
    fk: bool,
    costed: Costed,
    placed: Vec<usize>,
}

struct JoinGraph<'p, 's> {
    leaves: Vec<Leaf<'p>>,
    conjuncts: Vec<Conjunct>,
    /// Leaf owning each column of the bound tree.
    leaf_of: Vec<usize>,
    stats: &'s Statistics,
    model: CostModel<'s>,
}

/// Collect the leaves and (non-`true`) conjuncts of the inner-join tree
/// at `plan`, whose columns start at `offset`; returns its width.
/// Conjuncts come bottom-up, so a left-deep tree yields its lowest
/// join's conjuncts first.
fn flatten<'p>(
    plan: &'p LogicalPlan,
    offset: usize,
    leaves: &mut Vec<(&'p LogicalPlan, usize, usize)>,
    exprs: &mut Vec<Expr>,
) -> usize {
    match plan {
        LogicalPlan::Join { left, right, predicate, .. } => {
            let lw = flatten(left, offset, leaves, exprs);
            let rw = flatten(right, offset + lw, leaves, exprs);
            for c in conjuncts(predicate) {
                if c != Expr::lit(true) {
                    exprs.push(c.remap_columns(&|i| Some(i + offset)).expect("shift is total"));
                }
            }
            lw + rw
        }
        leaf => {
            let width = leaf.schema().len();
            leaves.push((leaf, offset, width));
            width
        }
    }
}

impl<'p, 's> JoinGraph<'p, 's> {
    fn new(
        leaves: Vec<(&'p LogicalPlan, usize, usize)>,
        exprs: Vec<Expr>,
        width: usize,
        stats: &'s Statistics,
    ) -> Self {
        let model = CostModel::new(stats);
        let mut leaf_of = vec![0; width];
        let leaves: Vec<Leaf<'p>> = leaves
            .into_iter()
            .enumerate()
            .map(|(i, (plan, offset, width))| {
                leaf_of[offset..offset + width].fill(i);
                let (costed, lineage) = (model.costed(plan), scan_lineage(plan));
                Leaf { plan, offset, width, costed, lineage }
            })
            .collect();
        let conjuncts = exprs
            .into_iter()
            .map(|expr| {
                let leaves = expr.columns().iter().fold(0u64, |m, c| m | 1 << leaf_of[c]);
                Conjunct { expr, leaves }
            })
            .collect();
        JoinGraph { leaves, conjuncts, leaf_of, stats, model }
    }

    /// The greedy left-deep tree, its leaf order and its cost.
    fn greedy(&self) -> (LogicalPlan, Vec<usize>, f64) {
        let n = self.leaves.len();
        let single = |l: usize| Partial {
            order: vec![l],
            joins: Vec::new(),
            mask: 1 << l,
            width: self.leaves[l].width,
            costed: self.leaves[l].costed.clone(),
            placed: vec![false; self.conjuncts.len()],
        };
        // The starting pair: the cheapest join among connected pairs (any
        // pair when nothing is connected), left leaf first in bound
        // order. Ranking by cost rather than output size charges each
        // leaf what it costs to produce: an aggregate over a join is no
        // cheap first input just because its output is small.
        let mut best: Option<(usize, Step)> = None;
        for connected in [true, false] {
            for a in 0..n {
                let start = single(a);
                for b in a + 1..n {
                    if connected && !self.connected(&start, b) {
                        continue;
                    }
                    let step = self.step(&start, b);
                    if best.as_ref().is_none_or(|(_, s)| step.costed.cost < s.costed.cost) {
                        best = Some((a, step));
                    }
                }
            }
            if best.is_some() {
                break;
            }
        }
        let (a, step) = best.expect("at least two leaves");
        let mut tree = self.extend(single(a), step);
        while tree.order.len() < n {
            let remaining: Vec<usize> = (0..n).filter(|l| tree.mask & (1 << l) == 0).collect();
            let connected: Vec<usize> =
                remaining.iter().copied().filter(|&l| self.connected(&tree, l)).collect();
            let pool = if connected.is_empty() { remaining } else { connected };
            let step = pool
                .into_iter()
                .map(|l| self.step(&tree, l))
                .reduce(|best, s| if s.costed.cost < best.costed.cost { s } else { best })
                .expect("a leaf remains");
            tree = self.extend(tree, step);
        }
        let mut leaves = tree.order.iter().map(|&l| self.leaves[l].plan.clone());
        let first = leaves.next().expect("at least two leaves");
        let plan = leaves.zip(tree.joins).fold(first, |left, (right, (predicate, fk))| {
            LogicalPlan::Join {
                left: Box::new(left),
                right: Box::new(right),
                predicate,
                fk_left_to_right: fk,
            }
        });
        (plan, tree.order, tree.costed.cost)
    }

    /// Whether some unplaced conjunct links `leaf` to the partial tree
    /// and is fully covered once `leaf` joins.
    fn connected(&self, tree: &Partial, leaf: usize) -> bool {
        let bit = 1u64 << leaf;
        let covered = tree.mask | bit;
        self.conjuncts.iter().zip(&tree.placed).any(|(c, &placed)| {
            !placed && c.leaves & bit != 0 && c.leaves & tree.mask != 0 && c.leaves & !covered == 0
        })
    }

    /// The join of `tree` with `leaf` as its right side: the conjuncts
    /// it newly covers, rebased onto the new column order, its
    /// foreign-key flag, and the cost and estimate of the partial tree.
    fn step(&self, tree: &Partial, leaf: usize) -> Step {
        let covered = tree.mask | (1u64 << leaf);
        let mut order = tree.order.clone();
        order.push(leaf);
        let new_offset = self.new_offsets(&order);
        let placed: Vec<usize> = (0..self.conjuncts.len())
            .filter(|&i| !tree.placed[i] && self.conjuncts[i].leaves & !covered == 0)
            .collect();
        let exprs: Vec<Expr> = placed
            .iter()
            .map(|&i| {
                self.conjuncts[i]
                    .expr
                    .remap_columns(&|c| {
                        let l = self.leaf_of[c];
                        new_offset[l].map(|o| o + c - self.leaves[l].offset)
                    })
                    .expect("placed conjuncts reference joined leaves only")
            })
            .collect();
        let predicate = conjunction(exprs);
        let right = &self.leaves[leaf];
        // The partial tree's lineage is its leaves' in join order.
        let left: Vec<_> =
            tree.order.iter().flat_map(|&l| self.leaves[l].lineage.iter().copied()).collect();
        let (pairs, _) = split_equi_join(&predicate, tree.width);
        let fk = follows_foreign_key(&left, &right.lineage, &pairs, |t| {
            self.stats.catalog_properties().foreign_keys(t)
        });
        let costed =
            self.model.join(tree.costed.clone(), right.costed.clone(), &predicate, fk, tree.width);
        Step { leaf, predicate, fk, costed, placed }
    }

    fn extend(&self, mut tree: Partial, step: Step) -> Partial {
        for i in step.placed {
            tree.placed[i] = true;
        }
        tree.joins.push((step.predicate, step.fk));
        tree.order.push(step.leaf);
        tree.mask |= 1 << step.leaf;
        tree.width += self.leaves[step.leaf].width;
        tree.costed = step.costed;
        tree
    }

    /// New first column of each leaf under a (partial) order.
    fn new_offsets(&self, order: &[usize]) -> Vec<Option<usize>> {
        let mut out = vec![None; self.leaves.len()];
        let mut at = 0;
        for &l in order {
            out[l] = Some(at);
            at += self.leaves[l].width;
        }
        out
    }

    /// For every bound column, its position under the complete `order`.
    fn new_positions(&self, order: &[usize]) -> Vec<usize> {
        let offsets = self.new_offsets(order);
        (0..self.leaf_of.len())
            .map(|c| {
                let l = self.leaf_of[c];
                offsets[l].expect("complete order") + c - self.leaves[l].offset
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::VetoProbe;
    use xmlpub_algebra::{ApplyMode, Catalog, TableDef};
    use xmlpub_common::{DataType, Field, Relation, Schema, Tuple, Value};
    use xmlpub_expr::AggExpr;

    fn ctx(stats: &Statistics) -> RuleContext<'_> {
        RuleContext::new(stats)
    }

    /// `big(b_id, b_val)` (few distinct ids), `fact(f_id, f_dim, f_val)`
    /// with a declared foreign key onto `dim(d_id, d_name)`.
    fn catalog() -> Catalog {
        let int = |n: &str| Field::new(n, DataType::Int);
        let big = Schema::new(vec![int("b_id"), int("b_val")]);
        let fact = Schema::new(vec![int("f_id"), int("f_dim"), int("f_val")]);
        let dim = Schema::new(vec![int("d_id"), Field::new("d_name", DataType::Str)]);
        let rows = |n: i64, f: &dyn Fn(i64) -> Vec<Value>| -> Vec<Tuple> {
            (0..n).map(|i| Tuple::new(f(i))).collect()
        };
        let mut cat = Catalog::new();
        cat.register(
            TableDef::new("big", big.clone()),
            Relation::new(big, rows(400, &|i| vec![Value::Int(i % 10), Value::Int(i % 7)]))
                .unwrap(),
        )
        .unwrap();
        cat.register(
            TableDef::new("fact", fact.clone()).with_primary_key(&["f_id"]).with_foreign_key(
                &["f_dim"],
                "dim",
                &["d_id"],
            ),
            Relation::new(
                fact,
                rows(200, &|i| vec![Value::Int(i), Value::Int(i % 5), Value::Int(i % 3)]),
            )
            .unwrap(),
        )
        .unwrap();
        cat.register(
            TableDef::new("dim", dim.clone()).with_primary_key(&["d_id"]),
            Relation::new(dim, rows(5, &|i| vec![Value::Int(i), Value::str(format!("d{i}"))]))
                .unwrap(),
        )
        .unwrap();
        cat
    }

    fn bind(cat: &Catalog, sql: &str) -> LogicalPlan {
        xmlpub_sql::compile(sql, cat).unwrap()
    }

    /// The topmost join of a plan (the root of its first maximal tree).
    fn top_join(plan: &LogicalPlan) -> &LogicalPlan {
        if let LogicalPlan::Join { .. } = plan {
            return plan;
        }
        plan.children().into_iter().map(top_join).next().expect("plan has a join")
    }

    /// The foreign-key flags of a tree's joins, pre-order.
    fn fk_flags(plan: &LogicalPlan) -> Vec<bool> {
        let mut out = Vec::new();
        let mut cur = plan;
        while let LogicalPlan::Join { left, fk_left_to_right, .. } = cur {
            out.push(*fk_left_to_right);
            cur = left;
        }
        out
    }

    /// The cost `greedy_order` accumulates step by step is the model's
    /// cost of the tree it returns, bit for bit.
    fn assert_priced_by_the_model(join: &LogicalPlan, stats: &Statistics) {
        let (tree, _, cost) = greedy_order(join, stats).expect("the greedy order differs");
        let model = CostModel::new(stats).cost(&tree);
        assert_eq!(cost.to_bits(), model.to_bits(), "{cost} vs {model}\n{}", tree.explain());
    }

    /// The greedy tree under its restoring projection: same schema and
    /// same bag of rows as the bound tree.
    fn rebuilt(join: &LogicalPlan, stats: &Statistics, cat: &Catalog) -> LogicalPlan {
        assert_priced_by_the_model(join, stats);
        let (tree, pos, _) = greedy_order(join, stats).expect("the greedy order differs");
        let out = tree.project(pos.into_iter().map(ProjectItem::col).collect());
        assert_eq!(out.schema(), join.schema());
        let a = xmlpub_engine::execute(join, cat).unwrap();
        let b = xmlpub_engine::execute(&out, cat).unwrap();
        assert!(a.bag_eq(&b), "{}", a.bag_diff(&b));
        out
    }

    /// `big ⋈ fact` fans out (b_id = f_val matches 40 rows a row) while
    /// `fact ⋈ σ(dim)` shrinks, so the bound order is the worst one.
    const STAR: &str =
        "select * from big, fact, dim where b_id = f_val and f_dim = d_id and d_name = 'd1'";

    #[test]
    fn greedy_cost_is_the_models_cost_of_the_greedy_tree() {
        let cat = catalog();
        let stats = Statistics::from_catalog(&cat);
        let dim_first = "select * from big, dim, fact \
                         where b_id = f_val and f_dim = d_id and d_name = 'd1'";
        for sql in [STAR, dim_first] {
            assert_priced_by_the_model(top_join(&bind(&cat, sql)), &stats);
        }
        let scan = |t: &str| LogicalPlan::scan(t, cat.table(t).unwrap().schema.clone());
        let residual =
            conjunction(vec![Expr::col(3).eq(Expr::col(5)), Expr::col(1).gt(Expr::col(5))]);
        let join = scan("big")
            .join(scan("fact"), Expr::col(0).eq(Expr::col(2)))
            .join(scan("dim"), residual);
        assert_priced_by_the_model(&join, &stats);

        let cat = xmlpub_tpch::TpchGenerator::with_scale(0.001).catalog().unwrap();
        let stats = Statistics::from_catalog(&cat);
        let plan = bind(
            &cat,
            "select * from orders, customer, nation \
             where o_custkey = c_custkey and c_nationkey = n_nationkey",
        );
        assert_priced_by_the_model(top_join(&plan), &stats);
    }

    #[test]
    fn q4_gets_the_q4r_join_tree() {
        let cat = xmlpub_tpch::TpchGenerator::with_scale(0.01).core_catalog().unwrap();
        let stats = Statistics::from_catalog(&cat);
        let q4 = bind(
            &cat,
            "select tmp.k, p_name, p_size, p_retailprice \
             from (select ps_suppkey, p_size, avg(p_retailprice) \
                   from partsupp, part where p_partkey = ps_partkey \
                   group by ps_suppkey, p_size) as tmp(k, s, avgprice), partsupp, part \
             where ps_partkey = p_partkey and ps_suppkey = tmp.k \
               and p_size = tmp.s and p_retailprice > tmp.avgprice order by tmp.k",
        );
        let q4r = bind(
            &cat,
            "select tmp.k, p_name, p_size, p_retailprice \
             from partsupp, part, (select ps_suppkey, p_size, avg(p_retailprice) \
                   from partsupp, part where p_partkey = ps_partkey \
                   group by ps_suppkey, p_size) as tmp(k, s, avgprice) \
             where ps_partkey = p_partkey and ps_suppkey = tmp.k \
               and p_size = tmp.s and p_retailprice > tmp.avgprice order by tmp.k",
        );
        // OrderBy → Project → join tree: the rule fires on the projection
        // and folds the permutation into it.
        let LogicalPlan::OrderBy { input: q4_project, .. } = &q4 else { panic!("{q4:?}") };
        let LogicalPlan::OrderBy { input: q4r_project, .. } = &q4r else { panic!("{q4r:?}") };
        let out = JoinReorder.apply(q4_project, &ctx(&stats)).expect("Q4 is reordered");
        // Same tree, same predicates, same foreign-key flags as the
        // binder gives the hand-ordered text.
        assert_eq!(&out, &**q4r_project);
        assert_eq!(fk_flags(top_join(&out)), vec![false, true]);
        // Q4r is already in greedy order.
        assert!(greedy_order(top_join(&q4r), &stats).is_none());
    }

    #[test]
    fn two_leaf_trees_and_good_orders_do_not_fire() {
        let cat = catalog();
        let stats = Statistics::from_catalog(&cat);
        let two = bind(&cat, "select * from big, fact where b_id = f_id");
        assert!(greedy_order(top_join(&two), &stats).is_none());
        let good = bind(
            &cat,
            "select * from fact, dim, big where b_id = f_val and f_dim = d_id and d_name = 'd1'",
        );
        assert!(greedy_order(top_join(&good), &stats).is_none());
        assert!(JoinReorder.apply(top_join(&good), &ctx(&stats)).is_none());
    }

    #[test]
    fn star_is_reordered_and_keeps_its_schema() {
        let cat = catalog();
        let stats = Statistics::from_catalog(&cat);
        let plan = bind(&cat, STAR);
        let join = top_join(&plan);
        let out = JoinReorder.apply(join, &ctx(&stats)).expect("fires");
        // Names, qualifiers and order survive the wrap.
        assert_eq!(out.schema(), join.schema());
        let LogicalPlan::Project { input, .. } = &out else { panic!("{out:?}") };
        // fact ⋈ dim first (the FK join), big joins last as the build side.
        assert_eq!(fk_flags(input), vec![false, true]);
        let LogicalPlan::Join { right, .. } = &**input else { panic!() };
        assert!(matches!(&**right, LogicalPlan::Scan { table, .. } if table == "big"));
        rebuilt(join, &stats, &cat);

        // Folded into a parent projection: no extra projection appears.
        let parent = join
            .clone()
            .project(vec![ProjectItem::named(Expr::col(4), "dname"), ProjectItem::col(0)]);
        let folded = JoinReorder.apply(&parent, &ctx(&stats)).expect("fires");
        assert_eq!(folded.schema(), parent.schema());
        let LogicalPlan::Project { input, .. } = &folded else { panic!("{folded:?}") };
        assert!(matches!(**input, LogicalPlan::Join { .. }));
        let a = xmlpub_engine::execute(&parent, &cat).unwrap();
        let b = xmlpub_engine::execute(&folded, &cat).unwrap();
        assert!(a.bag_eq(&b), "{}", a.bag_diff(&b));
    }

    #[test]
    fn fk_flags_equal_the_binders() {
        let cat = catalog();
        let stats = Statistics::from_catalog(&cat);
        let (tree, _, _) = greedy_order(top_join(&bind(&cat, STAR)), &stats).unwrap();
        let bound = bind(
            &cat,
            "select * from fact, dim, big where f_dim = d_id and d_name = 'd1' and b_id = f_val",
        );
        assert_eq!(fk_flags(&tree), vec![false, true]);
        assert_eq!(fk_flags(&tree), fk_flags(top_join(&bound)));
        // With dim bound before fact the pair keeps that orientation, and
        // dim ⋈ fact is no FK join, for the rule as for the binder.
        let dim_first = "where b_id = f_val and f_dim = d_id and d_name = 'd1'";
        let plan = bind(&cat, &format!("select * from big, dim, fact {dim_first}"));
        let (tree, _, _) = greedy_order(top_join(&plan), &stats).unwrap();
        let bound = bind(&cat, &format!("select * from dim, fact, big {dim_first}"));
        assert_eq!(fk_flags(&tree), vec![false, false]);
        assert_eq!(fk_flags(&tree), fk_flags(top_join(&bound)));
    }

    #[test]
    fn below_the_margin_is_a_veto() {
        // orders ⋈ customer ⋈ nation: the model prefers another order,
        // but by less than MIN_GAIN.
        let cat = xmlpub_tpch::TpchGenerator::with_scale(0.001).catalog().unwrap();
        let stats = Statistics::from_catalog(&cat);
        let plan = bind(
            &cat,
            "select * from orders, customer, nation \
             where o_custkey = c_custkey and c_nationkey = n_nationkey",
        );
        let join = top_join(&plan);
        let (tree, _, _) = greedy_order(join, &stats).expect("the greedy order differs");
        let model = CostModel::new(&stats);
        let gain = model.cost(join) / model.cost(&tree);
        assert!(gain > 1.0 && gain < MIN_GAIN, "gain {gain}");
        let vetoes = VetoProbe::default();
        let ctx =
            RuleContext { stats: &stats, cost_gate: true, vetoes: Some(&vetoes), claims: None };
        assert!(JoinReorder.apply(join, &ctx).is_none());
        assert_eq!(vetoes.take(), vec!["join-reorder"]);
    }

    #[test]
    fn conjuncts_land_at_the_lowest_covering_join() {
        let cat = catalog();
        let stats = Statistics::from_catalog(&cat);
        // big(0..2) fact(2..5) dim(5..7), everything on the top join.
        let scan = |t: &str| LogicalPlan::scan(t, cat.table(t).unwrap().schema.clone());
        let residual = Expr::col(1).gt(Expr::col(5)); // b_val > d_id
        let constant = Expr::lit(1).eq(Expr::lit(1));
        let correlated = Expr::col(4).gt(Expr::Correlated { level: 0, index: 0 }); // f_val
        let local = Expr::col(6).neq(Expr::lit("none")); // d_name, one leaf
        let pred = conjunction(vec![
            Expr::col(3).eq(Expr::col(5)), // f_dim = d_id
            residual,
            constant.clone(),
            correlated,
            local,
        ]);
        let join =
            scan("big").join(scan("fact"), Expr::col(0).eq(Expr::col(2))).join(scan("dim"), pred);
        let (tree, _, _) = greedy_order(&join, &stats).expect("reordered");
        // New layout: fact(0..3) dim(3..5) big(5..7).
        let LogicalPlan::Join { left, predicate: top, .. } = &tree else { panic!() };
        let LogicalPlan::Join { predicate: bottom, .. } = &**left else { panic!() };
        assert_eq!(
            conjuncts(bottom),
            vec![
                Expr::col(1).eq(Expr::col(3)),
                constant,
                Expr::col(2).gt(Expr::Correlated { level: 0, index: 0 }),
                Expr::col(4).neq(Expr::lit("none")),
            ]
        );
        assert_eq!(
            conjuncts(top),
            vec![Expr::col(5).eq(Expr::col(0)), Expr::col(6).gt(Expr::col(3))]
        );
    }

    #[test]
    fn outer_joins_applies_and_gapplys_are_leaves() {
        let cat = catalog();
        let stats = Statistics::from_catalog(&cat);
        let scan = |t: &str| LogicalPlan::scan(t, cat.table(t).unwrap().schema.clone());
        // Each boundary wraps a join of its own and stands in for `big`
        // (first column b_id-like): it must come through whole.
        let inner = scan("big").join(scan("dim"), Expr::col(0).eq(Expr::col(2)));
        let boundaries = [
            scan("big").left_outer_join(scan("dim"), Expr::col(0).eq(Expr::col(2))),
            scan("big").apply(inner.clone().project_cols(&[1]), ApplyMode::Cross),
            inner.clone().gapply(
                vec![0],
                LogicalPlan::group_scan(inner.schema()).scalar_agg(vec![AggExpr::count_star("n")]),
            ),
        ];
        for leaf in boundaries {
            let w = leaf.schema().len();
            let join = leaf
                .clone()
                .join(scan("fact"), Expr::col(0).eq(Expr::col(w)))
                .join(scan("dim"), Expr::col(w + 1).eq(Expr::col(w + 3)));
            let out = rebuilt(&join, &stats, &cat);
            let LogicalPlan::Project { input, .. } = &out else { panic!() };
            let LogicalPlan::Join { right, .. } = &**input else { panic!() };
            assert_eq!(**right, leaf, "the boundary joins last, untouched");
        }
    }
}
