//! Top-level execution entry points.
//!
//! Two consumption styles share one pipeline:
//!
//! * the `execute*` family materialises the whole result into a
//!   [`Relation`] (tests, the CLI table printer, benches);
//! * [`execute_stream`] hands back a [`ResultStream`] that yields
//!   [`TupleBatch`]es as the root operator produces them — the publishing
//!   service and the streaming tagger consume results this way so a
//!   document is emitted incrementally instead of being buffered whole.
//!
//! Both styles, plus the §5.1 client simulator, funnel through the same
//! open → `next_batch`* → close loop ([`crate::ops::drain`] /
//! [`ResultStream::next_batch`]); there is deliberately no second
//! materialisation helper anywhere in the workspace.

use crate::context::{ExecContext, ExecStats, OpProfile};
use crate::ops::BoxedOp;
use crate::planner::{EngineConfig, PhysicalPlanner};
use crate::prop_check::PropChecker;
use xmlpub_algebra::{validate, Catalog, LogicalPlan};
use xmlpub_analysis::CatalogProperties;
use xmlpub_common::{Relation, Result, Schema, TupleBatch};
use xmlpub_obs::ObsContext;

/// Validate, lower and execute a logical plan with the default
/// configuration, materialising the result.
pub fn execute(plan: &LogicalPlan, catalog: &Catalog) -> Result<Relation> {
    execute_with_config(plan, catalog, &EngineConfig::default())
}

/// Execute with an explicit configuration.
pub fn execute_with_config(
    plan: &LogicalPlan,
    catalog: &Catalog,
    config: &EngineConfig,
) -> Result<Relation> {
    Ok(execute_with_stats(plan, catalog, config)?.0)
}

/// Execute and also return the engine counters (scan/join/apply work),
/// which the tests and benches use to demonstrate where the classic
/// plans do redundant work.
pub fn execute_with_stats(
    plan: &LogicalPlan,
    catalog: &Catalog,
    config: &EngineConfig,
) -> Result<(Relation, ExecStats)> {
    let (result, stats, _) = execute_stream(plan, catalog, config)?.materialize()?;
    Ok((result, stats))
}

/// Validate and lower a logical plan, returning a [`ResultStream`] that
/// produces batches on demand. Nothing runs until the first
/// [`ResultStream::next_batch`] call.
pub fn execute_stream<'a>(
    plan: &LogicalPlan,
    catalog: &'a Catalog,
    config: &EngineConfig,
) -> Result<ResultStream<'a>> {
    execute_stream_with_obs(plan, catalog, config, ObsContext::disabled())
}

/// [`execute_stream`] with an explicit observability context. The
/// stream's [`ExecContext`] carries the handles, so `Profiled` operators
/// report into the metrics registry and parallel GApply workers emit
/// `gapply.worker` spans parented under `obs.parent_span`. A disabled
/// context (the default everywhere else) costs nothing.
pub fn execute_stream_with_obs<'a>(
    plan: &LogicalPlan,
    catalog: &'a Catalog,
    config: &EngineConfig,
    obs: ObsContext,
) -> Result<ResultStream<'a>> {
    validate(plan)?;
    let planner = PhysicalPlanner::new(*config);
    let op = planner.plan(plan)?;
    let mut ctx = ExecContext::with_batch_size(catalog, config.batch_size);
    ctx.obs = obs;
    let checker = config.check_props.then(|| {
        let facts = CatalogProperties::from_catalog(catalog);
        PropChecker::new(xmlpub_analysis::derive(plan, &facts))
    });
    Ok(ResultStream { op, ctx, opened: false, done: false, checker })
}

/// A lazily-executed query result: batches come out as the root operator
/// produces them, so a consumer (the streaming tagger, a network writer)
/// can process rows without the executor ever holding the full result.
///
/// The operator is opened on the first [`next_batch`](Self::next_batch)
/// call and closed when it reports exhaustion (or when the stream is
/// dropped early, via [`Drop`]).
pub struct ResultStream<'a> {
    op: BoxedOp,
    ctx: ExecContext<'a>,
    opened: bool,
    done: bool,
    /// Present under [`EngineConfig::check_props`]: asserts derived
    /// plan properties against every batch this stream yields.
    checker: Option<PropChecker>,
}

impl<'a> ResultStream<'a> {
    /// The output schema.
    pub fn schema(&self) -> &Schema {
        self.op.schema()
    }

    /// Produce the next non-empty batch, or `None` once exhausted. The
    /// underlying operator tree is closed on exhaustion, after which the
    /// engine counters ([`stats`](Self::stats)) are final.
    pub fn next_batch(&mut self) -> Result<Option<TupleBatch>> {
        if self.done {
            return Ok(None);
        }
        if !self.opened {
            self.op.open(&mut self.ctx)?;
            self.opened = true;
        }
        match self.op.next_batch(&mut self.ctx)? {
            Some(batch) => {
                // Operator-boundary invariant: batches flowing between
                // operators are non-empty; exhaustion is `None` only.
                debug_assert!(!batch.is_empty(), "root operator produced an empty batch");
                if let Some(checker) = &mut self.checker {
                    checker.observe(&batch)?;
                }
                Ok(Some(batch))
            }
            None => {
                self.op.close(&mut self.ctx)?;
                self.done = true;
                if let Some(checker) = &self.checker {
                    checker.finish()?;
                }
                Ok(None)
            }
        }
    }

    /// Engine counters accumulated so far (final once the stream is
    /// exhausted).
    pub fn stats(&self) -> &ExecStats {
        &self.ctx.stats
    }

    /// Per-operator profiles (populated only under `profile_ops`).
    pub fn profiles(&self) -> &[OpProfile] {
        &self.ctx.profiles
    }

    /// Drain the remaining batches into a materialised [`Relation`],
    /// returning it with the final counters and profiles.
    pub fn materialize(mut self) -> Result<(Relation, ExecStats, Vec<OpProfile>)> {
        let schema = self.op.schema().clone();
        // Drain through `next_batch` so property checking (and any
        // other per-batch instrumentation) sees materialised results
        // exactly as it sees streamed ones.
        let mut rows = Vec::new();
        while let Some(batch) = self.next_batch()? {
            rows.extend(batch.into_rows());
        }
        let stats = std::mem::take(&mut self.ctx.stats);
        let profiles = std::mem::take(&mut self.ctx.profiles);
        Ok((Relation::from_rows_unchecked(schema, rows), stats, profiles))
    }
}

impl Drop for ResultStream<'_> {
    fn drop(&mut self) {
        // A consumer that stops early (e.g. a client disconnect in the
        // publishing service) must still release operator buffers.
        if self.opened && !self.done {
            let _ = self.op.close(&mut self.ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{drain, PartitionStrategy};
    use xmlpub_algebra::{plan::null_item, ApplyMode, ProjectItem, TableDef};
    use xmlpub_common::{row, DataType, Field, Schema, Value};
    use xmlpub_expr::{AggExpr, Expr};

    /// A small parts-per-supplier fixture:
    ///   supplier 1 → prices 10, 20, 30
    ///   supplier 2 → prices 5, 100
    fn fixture() -> Catalog {
        let schema = Schema::new(vec![
            Field::new("ps_suppkey", DataType::Int),
            Field::new("p_name", DataType::Str),
            Field::new("p_retailprice", DataType::Float),
        ]);
        let def = TableDef::new("sp", schema);
        let data = Relation::new(
            def.schema.clone(),
            vec![
                row![1, "bolt", 10.0],
                row![1, "nut", 20.0],
                row![1, "cam", 30.0],
                row![2, "gear", 5.0],
                row![2, "axle", 100.0],
            ],
        )
        .unwrap();
        let mut cat = Catalog::new();
        cat.register(def, data).unwrap();
        cat
    }

    fn scan(cat: &Catalog) -> LogicalPlan {
        LogicalPlan::scan("sp", cat.table("sp").unwrap().schema.clone())
    }

    #[test]
    fn executes_select_project() {
        let cat = fixture();
        let plan = scan(&cat).select(Expr::col(2).gt(Expr::lit(15.0))).project_cols(&[1, 2]);
        let result = execute(&plan, &cat).unwrap();
        let expected = Relation::new(
            result.schema().clone(),
            vec![row!["nut", 20.0], row!["cam", 30.0], row!["axle", 100.0]],
        )
        .unwrap();
        assert!(result.bag_eq(&expected), "{}", result.bag_diff(&expected));
    }

    #[test]
    fn executes_q1_shaped_gapply() {
        // Q1: per supplier, all (name, price) plus the overall average.
        let cat = fixture();
        let outer = scan(&cat);
        let gschema = outer.schema();
        let branch1 = LogicalPlan::group_scan(gschema.clone()).project(vec![
            ProjectItem::col(1),
            ProjectItem::col(2),
            null_item("avgprice"),
        ]);
        let branch2 = LogicalPlan::group_scan(gschema.clone())
            .scalar_agg(vec![AggExpr::avg(Expr::col(2), "avg")])
            .project(vec![null_item("p_name"), null_item("p_retailprice"), ProjectItem::col(0)]);
        let pgq = LogicalPlan::union_all(vec![branch1, branch2]);
        let plan = outer.gapply(vec![0], pgq);
        let (result, stats) = execute_with_stats(
            &plan,
            &cat,
            &EngineConfig { partition_strategy: PartitionStrategy::Sort, ..Default::default() },
        )
        .unwrap();
        let n = Value::Null;
        let expected = Relation::new(
            result.schema().clone(),
            vec![
                row![1, "bolt", 10.0, n.clone()],
                row![1, "nut", 20.0, n.clone()],
                row![1, "cam", 30.0, n.clone()],
                row![1, n.clone(), n.clone(), 20.0],
                row![2, "gear", 5.0, n.clone()],
                row![2, "axle", 100.0, n.clone()],
                row![2, n.clone(), n.clone(), 52.5],
            ],
        )
        .unwrap();
        assert!(result.bag_eq(&expected), "{}", result.bag_diff(&expected));
        // One partition pass over 5 rows, 2 groups, and crucially only
        // ONE scan of the base table.
        assert_eq!(stats.groups_processed, 2);
        assert_eq!(stats.rows_scanned, 5);
    }

    #[test]
    fn executes_q2_shaped_gapply() {
        // Q2: per supplier, count parts priced ≥ avg and < avg.
        let cat = fixture();
        let outer = scan(&cat);
        let gschema = outer.schema();
        let gs = || LogicalPlan::group_scan(gschema.clone());
        let avg = || gs().scalar_agg(vec![AggExpr::avg(Expr::col(2), "avg")]);
        let above = gs()
            .apply(avg(), ApplyMode::Scalar)
            .select(Expr::col(2).gt_eq(Expr::col(3)))
            .scalar_agg(vec![AggExpr::count_star("above")])
            .project(vec![ProjectItem::col(0), null_item("below")]);
        let below = gs()
            .apply(avg(), ApplyMode::Scalar)
            .select(Expr::col(2).lt(Expr::col(3)))
            .scalar_agg(vec![AggExpr::count_star("below")])
            .project(vec![null_item("above"), ProjectItem::col(0)]);
        let plan = outer.gapply(vec![0], LogicalPlan::union_all(vec![above, below]));
        let result = execute(&plan, &cat).unwrap();
        let n = Value::Null;
        // supplier 1: avg 20 → above (>=): 20,30 → 2; below: 10 → 1
        // supplier 2: avg 52.5 → above: 100 → 1; below: 5 → 1
        let expected = Relation::new(
            result.schema().clone(),
            vec![
                row![1, 2, n.clone()],
                row![1, n.clone(), 1],
                row![2, 1, n.clone()],
                row![2, n.clone(), 1],
            ],
        )
        .unwrap();
        assert!(result.bag_eq(&expected), "{}", result.bag_diff(&expected));
    }

    #[test]
    fn hash_and_sort_partitioning_agree() {
        let cat = fixture();
        let outer = scan(&cat);
        let pgq = LogicalPlan::group_scan(outer.schema())
            .scalar_agg(vec![AggExpr::max(Expr::col(2), "maxp")]);
        let plan = outer.gapply(vec![0], pgq);
        let hash = execute_with_config(
            &plan,
            &cat,
            &EngineConfig { partition_strategy: PartitionStrategy::Hash, ..Default::default() },
        )
        .unwrap();
        let sort = execute_with_config(
            &plan,
            &cat,
            &EngineConfig { partition_strategy: PartitionStrategy::Sort, ..Default::default() },
        )
        .unwrap();
        assert!(hash.bag_eq(&sort), "{}", hash.bag_diff(&sort));
    }

    #[test]
    fn streaming_matches_materialized_execution() {
        let cat = fixture();
        let plan = scan(&cat).select(Expr::col(2).gt(Expr::lit(7.0)));
        let config = EngineConfig { batch_size: 2, ..Default::default() };
        let mut stream = execute_stream(&plan, &cat, &config).unwrap();
        assert_eq!(stream.schema().len(), 3);
        let mut rows = Vec::new();
        while let Some(batch) = stream.next_batch().unwrap() {
            assert!(!batch.is_empty(), "streams never yield empty batches");
            rows.extend(batch.into_rows());
        }
        // Exhaustion is sticky and the counters are final.
        assert!(stream.next_batch().unwrap().is_none());
        assert_eq!(stream.stats().rows_scanned, 5);
        let direct = execute(&plan, &cat).unwrap();
        assert_eq!(rows, direct.rows());
    }

    #[test]
    fn partially_consumed_stream_materializes_the_rest() {
        let cat = fixture();
        let plan = scan(&cat);
        let config = EngineConfig { batch_size: 2, ..Default::default() };
        let mut stream = execute_stream(&plan, &cat, &config).unwrap();
        let first = stream.next_batch().unwrap().unwrap();
        assert_eq!(first.len(), 2);
        let (rest, stats, _) = stream.materialize().unwrap();
        assert_eq!(rest.len(), 3);
        assert_eq!(stats.rows_scanned, 5);
    }

    #[test]
    fn dropping_a_stream_early_is_clean() {
        let cat = fixture();
        let plan = scan(&cat);
        let mut stream =
            execute_stream(&plan, &cat, &EngineConfig { batch_size: 1, ..Default::default() })
                .unwrap();
        assert!(stream.next_batch().unwrap().is_some());
        drop(stream); // must close the operator tree without panicking
    }

    #[test]
    fn invalid_plans_are_rejected_before_execution() {
        let cat = fixture();
        let bad = LogicalPlan::group_scan(Schema::empty());
        assert!(execute(&bad, &cat).is_err());
    }

    #[test]
    fn formal_definition_cross_check() {
        // GApply(C, PGQ) must equal ⋃_{c} {c} × PGQ(σ_{C=c}(input)).
        let cat = fixture();
        let outer = scan(&cat);
        let gschema = outer.schema();
        let pgq = LogicalPlan::group_scan(gschema.clone())
            .select(Expr::col(2).gt(Expr::lit(9.0)))
            .scalar_agg(vec![AggExpr::count_star("n"), AggExpr::min(Expr::col(2), "cheapest")]);
        let plan = outer.clone().gapply(vec![0], pgq.clone());
        let via_operator = execute(&plan, &cat).unwrap();

        // Naive evaluation of the formal definition.
        let input = execute(&outer, &cat).unwrap();
        let mut rows = Vec::new();
        for key in input.distinct_values(0) {
            let group_rows: Vec<_> =
                input.rows().iter().filter(|r| r.value(0) == &key).cloned().collect();
            let group = Relation::from_rows_unchecked(input.schema().clone(), group_rows);
            // Execute the PGQ against the bound group.
            let planner = PhysicalPlanner::default();
            let mut op = planner.plan(&pgq).unwrap();
            let mut ctx = ExecContext::new(&cat);
            ctx.groups.push(std::sync::Arc::new(group));
            for r in drain(op.as_mut(), &mut ctx).unwrap() {
                rows.push(Tuple::new(
                    std::iter::once(key.clone()).chain(r.into_values()).collect(),
                ));
            }
        }
        let naive = Relation::from_rows_unchecked(via_operator.schema().clone(), rows);
        assert!(via_operator.bag_eq(&naive), "{}", via_operator.bag_diff(&naive));
    }

    use xmlpub_common::Tuple;
}
