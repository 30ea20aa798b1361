//! Column pruning: carry only the columns something reads.
//!
//! §4.1's *Placing Projections Before GApply* narrows the stream a
//! GApply partitions; this pass does the same for every other operator.
//! It is one top-down walk carrying the set of output columns each
//! parent reads, and returning, for each node, where its old output
//! columns went (its *column map*), so the parent can remap its own
//! expressions:
//!
//! * a `Project` drops the items nobody reads (all of them when its
//!   parent reads nothing: the `Project` disappears, as does one left
//!   an identity) and folds into a `Project` directly below it;
//! * a `Join` or `LeftOuterJoin` whose parent reads a strict subset of
//!   its output is wrapped in a bare-column `Project` — which the engine
//!   fuses into the hash join's output list, so the join never builds
//!   the columns nobody reads;
//! * `Scan`s and `GroupScan`s are never wrapped (their batches are
//!   zero-copy windows), a GApply's input keeps its width (narrowing it
//!   is *Placing Projections Before GApply*'s job, which also adapts the
//!   per-group query), and union branches, `Distinct` inputs and
//!   per-group query outputs keep theirs;
//! * an `Apply`'s outer side keeps every column the inner reads through
//!   a correlated reference, and those references are remapped with the
//!   outer side's column map.

use crate::rules::{Rule, RuleContext};
use xmlpub_algebra::analysis::{remap_agg, remap_full, ColMap};
use xmlpub_algebra::{LogicalPlan, ProjectItem};
use xmlpub_common::ColumnSet;
use xmlpub_expr::Expr;

/// The column-pruning pass, offered once at the plan root.
pub struct PruneColumns;

impl Rule for PruneColumns {
    fn name(&self) -> &'static str {
        "prune-columns"
    }

    fn apply(&self, plan: &LogicalPlan, _ctx: &RuleContext<'_>) -> Option<LogicalPlan> {
        let mut pruner = Pruner { outer_maps: Vec::new() };
        let (pruned, _) = pruner.prune(plan, &ColumnSet::all(plan.arity()))?;
        (pruned != *plan).then_some(pruned)
    }
}

fn identity(n: usize) -> ColMap {
    (0..n).map(Some).collect()
}

struct Pruner {
    /// The column maps of the enclosing `Apply`s' outer sides, innermost
    /// last: where `Expr::Correlated` references now point.
    outer_maps: Vec<ColMap>,
}

impl Pruner {
    /// Rebuild `plan` producing at least its `required` output columns.
    /// `None` when a reference cannot be remapped (a malformed plan): the
    /// pass then leaves the whole plan alone.
    fn prune(&mut self, plan: &LogicalPlan, required: &ColumnSet) -> Option<(LogicalPlan, ColMap)> {
        Some(match plan {
            LogicalPlan::Scan { .. } | LogicalPlan::GroupScan { .. } => {
                (plan.clone(), identity(plan.arity()))
            }
            LogicalPlan::Select { input, predicate } => {
                let (child, map) = self.prune(input, &required.union(&predicate.columns()))?;
                let predicate = remap_full(predicate, &map, &self.outer_maps)?;
                (child.select(predicate), map)
            }
            LogicalPlan::Project { input, items } => self.prune_project(input, items, required)?,
            LogicalPlan::Join { left, right, predicate, .. }
            | LogicalPlan::LeftOuterJoin { left, right, predicate } => {
                let width = left.arity();
                let needed = required.union(&predicate.columns());
                let (l, left_map) =
                    self.prune(left, &needed.remap(|c| (c < width).then_some(c)))?;
                let (r, right_map) = self.prune(right, &needed.remap(|c| c.checked_sub(width)))?;
                let new_width = l.arity();
                let mut map = left_map;
                map.extend(right_map.into_iter().map(|m| m.map(|c| c + new_width)));
                let predicate = remap_full(predicate, &map, &self.outer_maps)?;
                let join = match plan {
                    LogicalPlan::Join { fk_left_to_right, .. } => LogicalPlan::Join {
                        left: Box::new(l),
                        right: Box::new(r),
                        predicate,
                        fk_left_to_right: *fk_left_to_right,
                    },
                    _ => l.left_outer_join(r, predicate),
                };
                narrow(join, map, required)?
            }
            LogicalPlan::GApply { input, group_cols, pgq } => {
                let (input, _) = self.prune(input, &ColumnSet::all(input.arity()))?;
                let (pgq, _) = self.prune(pgq, &ColumnSet::all(pgq.arity()))?;
                (input.gapply(group_cols.clone(), pgq), identity(plan.arity()))
            }
            LogicalPlan::GroupBy { input, keys, aggs } => {
                let mut needed = ColumnSet::from_iter_cols(keys.iter().copied());
                for arg in aggs.iter().filter_map(|a| a.arg.as_ref()) {
                    needed = needed.union(&arg.columns());
                }
                let (child, map) = self.prune(input, &needed)?;
                let keys =
                    keys.iter().map(|&k| map.get(k).copied().flatten()).collect::<Option<_>>()?;
                let aggs = aggs
                    .iter()
                    .map(|a| remap_agg(a, &map, &self.outer_maps))
                    .collect::<Option<_>>()?;
                (child.group_by(keys, aggs), identity(plan.arity()))
            }
            LogicalPlan::ScalarAgg { input, aggs } => {
                let mut needed = ColumnSet::new();
                for arg in aggs.iter().filter_map(|a| a.arg.as_ref()) {
                    needed = needed.union(&arg.columns());
                }
                let (child, map) = self.prune(input, &needed)?;
                let aggs = aggs
                    .iter()
                    .map(|a| remap_agg(a, &map, &self.outer_maps))
                    .collect::<Option<_>>()?;
                (child.scalar_agg(aggs), identity(plan.arity()))
            }
            LogicalPlan::UnionAll { inputs } => {
                let all = ColumnSet::all(plan.arity());
                let inputs =
                    inputs.iter().map(|b| Some(self.prune(b, &all)?.0)).collect::<Option<_>>()?;
                (LogicalPlan::union_all(inputs), identity(plan.arity()))
            }
            LogicalPlan::Distinct { input } => {
                let (child, _) = self.prune(input, &ColumnSet::all(input.arity()))?;
                (child.distinct(), identity(plan.arity()))
            }
            LogicalPlan::OrderBy { input, keys } => {
                let mut needed = required.clone();
                for k in keys {
                    needed = needed.union(&k.expr.columns());
                }
                let (child, map) = self.prune(input, &needed)?;
                let keys = keys
                    .iter()
                    .map(|k| {
                        Some(xmlpub_algebra::SortKey {
                            expr: remap_full(&k.expr, &map, &self.outer_maps)?,
                            asc: k.asc,
                        })
                    })
                    .collect::<Option<_>>()?;
                (child.order_by(keys), map)
            }
            LogicalPlan::Apply { outer, inner, mode } => {
                let width = outer.arity();
                // The outer side keeps what the parent reads of it plus
                // every column the inner reads through a correlated
                // reference.
                let outer_needed =
                    required.remap(|c| (c < width).then_some(c)).union(&inner.outer_columns(0));
                let (o, outer_map) = self.prune(outer, &outer_needed)?;
                self.outer_maps.push(outer_map.clone());
                let pruned_inner = self.prune(inner, &required.remap(|c| c.checked_sub(width)));
                self.outer_maps.pop();
                let (i, inner_map) = pruned_inner?;
                let new_width = o.arity();
                let mut map = outer_map;
                map.extend(inner_map.into_iter().map(|m| m.map(|c| c + new_width)));
                (o.apply(i, *mode), map)
            }
            LogicalPlan::Exists { input, negated } => {
                let (child, _) = self.prune(input, &ColumnSet::new())?;
                (if *negated { child.not_exists() } else { child.exists() }, vec![])
            }
        })
    }

    /// A `Project` keeping only its read items, folded into a `Project`
    /// directly below it, and dropped when it is (or becomes) an
    /// identity.
    fn prune_project(
        &mut self,
        input: &LogicalPlan,
        items: &[ProjectItem],
        required: &ColumnSet,
    ) -> Option<(LogicalPlan, ColMap)> {
        let kept: Vec<usize> = required.iter().filter(|&i| i < items.len()).collect();
        let mut needed = ColumnSet::new();
        for &i in &kept {
            needed = needed.union(&items[i].expr.columns());
        }
        let (child, child_map) = self.prune(input, &needed)?;
        let mut map = vec![None; items.len()];
        if kept.is_empty() {
            // Nobody reads any item: the rows pass through unprojected.
            return Some((child, map));
        }
        let mut new_items = Vec::with_capacity(kept.len());
        for (pos, &i) in kept.iter().enumerate() {
            map[i] = Some(pos);
            let item = ProjectItem {
                expr: remap_full(&items[i].expr, &child_map, &self.outer_maps)?,
                ..items[i].clone()
            };
            new_items.push(if pos == i { item } else { named(item, i) });
        }
        let (child, new_items) = match child {
            LogicalPlan::Project { input: below, items: below_items } => {
                match fold(&new_items, &below_items, &below) {
                    Some(folded) => (*below, folded),
                    None => (LogicalPlan::Project { input: below, items: below_items }, new_items),
                }
            }
            child => (child, new_items),
        };
        let is_identity = new_items.len() == child.arity()
            && new_items
                .iter()
                .enumerate()
                .all(|(i, it)| it.alias.is_none() && it.expr == Expr::Column(i));
        if is_identity {
            return Some((child, map));
        }
        Some((child.project(new_items), map))
    }
}

/// Wrap a join in a bare-column `Project` of the `required` columns when
/// its parent reads a strict, non-empty subset of its output.
fn narrow(join: LogicalPlan, map: ColMap, required: &ColumnSet) -> Option<(LogicalPlan, ColMap)> {
    if required.is_empty() || required.len() >= join.arity() {
        return Some((join, map));
    }
    let mut narrowed = vec![None; map.len()];
    let mut items = Vec::with_capacity(required.len());
    for (pos, c) in required.iter().enumerate() {
        narrowed[c] = Some(pos);
        items.push(ProjectItem::col(map.get(c).copied().flatten()?));
    }
    Some((join.project(items), narrowed))
}

/// `item` under the output name it had at position `pos`, for moving it
/// elsewhere: an unaliased computed item is named after its position.
fn named(item: ProjectItem, pos: usize) -> ProjectItem {
    match (&item.expr, &item.alias) {
        (Expr::Column(_), _) | (_, Some(_)) => item,
        _ => ProjectItem { alias: Some(format!("_c{pos}")), ..item },
    }
}

/// Fold `upper` into the `Project` of `lower` over `below`, when that
/// neither computes an expression twice nor hides a bare-column
/// projection the engine would fuse into a join: `upper` picks `lower`'s
/// items by bare columns (each computed item at most once), or `lower`
/// only renames columns of something other than a join.
fn fold(
    upper: &[ProjectItem],
    lower: &[ProjectItem],
    below: &LogicalPlan,
) -> Option<Vec<ProjectItem>> {
    let bare = |it: &ProjectItem| match it.expr {
        Expr::Column(c) => Some(c),
        _ => None,
    };
    let picks: Option<Vec<usize>> = upper.iter().map(bare).collect();
    if let Some(picks) = picks {
        let computed_twice = picks
            .iter()
            .enumerate()
            .any(|(n, &j)| bare(&lower[j]).is_none() && picks[n + 1..].contains(&j));
        if computed_twice {
            return None;
        }
        let folded = upper.iter().zip(&picks).map(|(it, &j)| {
            let below_item = named(lower[j].clone(), j);
            ProjectItem { alias: it.alias.clone().or(below_item.alias), expr: below_item.expr }
        });
        return Some(folded.collect());
    }
    let renames: Option<Vec<usize>> = lower.iter().map(bare).collect();
    let over_join = matches!(below, LogicalPlan::Join { .. } | LogicalPlan::LeftOuterJoin { .. });
    let renames = renames.filter(|_| !over_join)?;
    upper
        .iter()
        .map(|it| {
            let expr = it.expr.remap_columns(&|c| renames.get(c).copied())?;
            let alias = match it.expr {
                Expr::Column(j) => it.alias.clone().or(lower[j].alias.clone()),
                _ => it.alias.clone(),
            };
            Some(ProjectItem { expr, alias })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Statistics;
    use xmlpub_algebra::{ApplyMode, Catalog, TableDef};
    use xmlpub_common::{row, DataType, Field, Relation, Schema};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let t = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("a", DataType::Float),
            Field::new("b", DataType::Str),
            Field::new("c", DataType::Int),
        ]);
        let rows = vec![row![1, 1.5, "x", 7], row![1, 2.5, "y", 8], row![2, 9.0, "z", 7]];
        cat.register(TableDef::new("t", t.clone()), Relation::new(t, rows).unwrap()).unwrap();
        let u =
            Schema::new(vec![Field::new("uk", DataType::Int), Field::new("name", DataType::Str)]);
        let rows = vec![row![1, "one"], row![2, "two"], row![3, "three"]];
        cat.register(TableDef::new("u", u.clone()), Relation::new(u, rows).unwrap()).unwrap();
        cat
    }

    fn scan(cat: &Catalog, table: &str) -> LogicalPlan {
        LogicalPlan::scan(table, cat.table(table).unwrap().schema.clone())
    }

    /// Prune `plan`, check the result answers the same, and return it.
    fn prune(plan: &LogicalPlan, cat: &Catalog) -> Option<LogicalPlan> {
        let stats = Statistics::empty();
        let out = PruneColumns.apply(plan, &RuleContext::new(&stats))?;
        assert_eq!(out.schema(), plan.schema(), "{out}");
        xmlpub_algebra::validate(&out).unwrap();
        let a = xmlpub_engine::execute(plan, cat).unwrap();
        let b = xmlpub_engine::execute(&out, cat).unwrap();
        assert!(a.bag_eq(&b), "{}\n{out}", a.bag_diff(&b));
        // Idempotent: the pruned plan has nothing left to prune.
        assert!(PruneColumns.apply(&out, &RuleContext::new(&stats)).is_none(), "{out}");
        Some(out)
    }

    #[test]
    fn drops_dead_items_and_folds_projects() {
        let cat = catalog();
        let doubled = Expr::binary(xmlpub_expr::BinOp::Mul, Expr::col(1), Expr::lit(2.0));
        let plan = scan(&cat, "t")
            .project(vec![
                ProjectItem::col(0),
                ProjectItem::named(doubled.clone(), "dead"),
                ProjectItem::named(doubled, "twice"),
            ])
            .project_cols(&[2, 0]);
        let out = prune(&plan, &cat).unwrap();
        let LogicalPlan::Project { input, items } = &out else { panic!("{out}") };
        assert!(matches!(**input, LogicalPlan::Scan { .. }), "{out}");
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].alias.as_deref(), Some("twice"));

        // A computed item over a renaming projection folds into one
        // projection over the scan...
        let renamed = scan(&cat, "t").project(vec![ProjectItem::named(Expr::col(1), "x")]);
        let sum = Expr::binary(xmlpub_expr::BinOp::Add, Expr::col(0), Expr::lit(1.0));
        let out =
            prune(&renamed.project(vec![ProjectItem::named(sum.clone(), "y")]), &cat).unwrap();
        let LogicalPlan::Project { input, .. } = &out else { panic!("{out}") };
        assert!(matches!(**input, LogicalPlan::Scan { .. }), "{out}");
        // ...but not over a join, where the bare projection is the join's
        // output list.
        let join = scan(&cat, "t").join(scan(&cat, "u"), Expr::col(0).eq(Expr::col(4)));
        let plan = join.project_cols(&[1]).project(vec![ProjectItem::named(sum, "y")]);
        assert!(prune(&plan, &cat).is_none());
    }

    #[test]
    fn narrows_a_join_to_the_columns_its_parent_reads() {
        let cat = catalog();
        // The GroupBy reads t.k and u.name of the five join columns.
        let join = scan(&cat, "t").join(scan(&cat, "u"), Expr::col(0).eq(Expr::col(4)));
        let plan = join.group_by(vec![5], vec![xmlpub_expr::AggExpr::count_star("n")]);
        let out = prune(&plan, &cat).unwrap();
        let LogicalPlan::GroupBy { input, keys, .. } = &out else { panic!("{out}") };
        assert_eq!(keys, &vec![0]);
        let LogicalPlan::Project { input, items } = &**input else { panic!("{out}") };
        assert_eq!(items, &vec![ProjectItem::col(5)]);
        assert!(matches!(**input, LogicalPlan::Join { .. }), "{out}");
    }

    #[test]
    fn never_projects_over_a_scan() {
        let cat = catalog();
        let plan = scan(&cat, "t").select(Expr::col(3).gt(Expr::lit(7))).project_cols(&[2]);
        assert!(prune(&plan, &cat).is_none());
    }

    #[test]
    fn keeps_and_remaps_outer_columns_an_apply_inner_reads() {
        let cat = catalog();
        // The outer drops column a; column c is read only by the inner's
        // correlated reference and moves from #2 to #1.
        let outer = scan(&cat, "t").project_cols(&[0, 1, 3]);
        let inner =
            scan(&cat, "u").select(Expr::col(0).eq(Expr::Correlated { level: 0, index: 2 }));
        let plan = outer.apply(inner.not_exists(), ApplyMode::Cross).project_cols(&[0]);
        let out = prune(&plan, &cat).unwrap();
        assert_eq!(out.outer_columns(0).len(), 0);
        let LogicalPlan::Project { input, .. } = &out else { panic!("{out}") };
        let LogicalPlan::Apply { outer, inner, .. } = &**input else { panic!("{out}") };
        assert_eq!(outer.arity(), 2);
        assert_eq!(inner.outer_columns(0).into_vec(), vec![1]);
    }

    #[test]
    fn leaves_a_gapply_input_to_projection_before_gapply() {
        let cat = catalog();
        let join = scan(&cat, "t").join(scan(&cat, "u"), Expr::col(0).eq(Expr::col(4)));
        let pgq = LogicalPlan::group_scan(join.schema())
            .scalar_agg(vec![xmlpub_expr::AggExpr::max(Expr::col(1), "m")]);
        let plan = join.gapply(vec![0], pgq);
        assert!(prune(&plan, &cat).is_none());
    }
}
