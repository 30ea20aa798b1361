//! Aggregation: grouped (hash) and scalar.

use crate::context::ExecContext;
use crate::ops::{key_of, next_window, BoxedOp, PhysicalOp};
use std::collections::HashMap;
use std::sync::Arc;
use xmlpub_common::{Field, Relation, Result, Schema, Tuple, TupleBatch, Value};
use xmlpub_expr::{Accumulator, AggExpr};

/// Hash-based GROUP BY: one output row per distinct key combination.
/// NULL keys group together (SQL GROUP BY semantics). Blocking.
pub struct HashAggregate {
    input: BoxedOp,
    keys: Vec<usize>,
    aggs: Vec<AggExpr>,
    schema: Schema,
    /// Materialised results, in first-seen key order (deterministic),
    /// emitted as windows.
    results: Option<Arc<Relation>>,
    pos: usize,
}

impl HashAggregate {
    /// Group `input` by `keys` computing `aggs`.
    pub fn new(input: BoxedOp, keys: Vec<usize>, aggs: Vec<AggExpr>) -> Self {
        let in_schema = input.schema();
        let mut fields: Vec<Field> = keys.iter().map(|&k| in_schema.field(k).clone()).collect();
        fields
            .extend(aggs.iter().map(|a| Field::new(a.output_name.clone(), a.data_type(in_schema))));
        HashAggregate { input, keys, aggs, schema: Schema::new(fields), results: None, pos: 0 }
    }

    /// Fold `rows` into per-group accumulators, in row order, against a
    /// persistent key index (`index`/`groups` survive across calls so the
    /// fold streams batch by batch). `index` maps a key to its slot in
    /// `groups`, which is first-seen key order; a key is allocated only
    /// when its group is new.
    fn fold_rows(
        &self,
        rows: &[Tuple],
        outers: &[Tuple],
        index: &mut HashMap<Vec<Value>, usize>,
        groups: &mut Vec<Vec<Accumulator>>,
    ) -> Result<()> {
        let mut key = Vec::with_capacity(self.keys.len());
        for row in rows {
            let k = key_of(row.values(), &self.keys, &mut key);
            let slot = match index.get(k) {
                Some(&slot) => slot,
                None => {
                    groups.push(self.aggs.iter().map(|a| a.accumulator()).collect());
                    index.insert(k.to_vec(), groups.len() - 1);
                    groups.len() - 1
                }
            };
            for (acc, agg) in groups[slot].iter_mut().zip(&self.aggs) {
                agg.update(acc, row, outers)?;
            }
        }
        Ok(())
    }
}

impl PhysicalOp for HashAggregate {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.results = None;
        self.pos = 0;
        self.input.open(ctx)?;
        let mut index = HashMap::new();
        let mut groups = Vec::new();
        while let Some(batch) = self.input.next_batch(ctx)? {
            ctx.stats.rows_hashed += batch.len() as u64;
            self.fold_rows(batch.rows(), &ctx.outers, &mut index, &mut groups)?;
        }
        self.input.close(ctx)?;
        // The index owns the keys; put each back beside its group's
        // accumulators, in first-seen order.
        let mut keys = vec![Vec::new(); groups.len()];
        for (key, slot) in index {
            keys[slot] = key;
        }
        let rows = keys
            .into_iter()
            .zip(groups)
            .map(|(mut vals, accs)| {
                vals.extend(accs.iter().map(Accumulator::finish));
                Tuple::new(vals)
            })
            .collect();
        self.results = Some(Arc::new(Relation::from_rows_unchecked(self.schema.clone(), rows)));
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<TupleBatch>> {
        let results = self.results.as_ref().expect("HashAggregate::next_batch before open");
        Ok(next_window(results, &self.schema, &mut self.pos, ctx.batch_size))
    }

    fn close(&mut self, _ctx: &mut ExecContext<'_>) -> Result<()> {
        self.results = None;
        self.pos = 0;
        Ok(())
    }
}

/// The paper's `aggregate` operator: aggregates the whole input into
/// exactly one row — including on empty input, which is the behaviour the
/// emptyOnEmpty analysis (§4.1) revolves around.
pub struct ScalarAggregate {
    input: BoxedOp,
    aggs: Vec<AggExpr>,
    schema: Schema,
    result: Option<Tuple>,
    emitted: bool,
}

impl ScalarAggregate {
    /// Aggregate `input` with `aggs`.
    pub fn new(input: BoxedOp, aggs: Vec<AggExpr>) -> Self {
        let in_schema = input.schema();
        let schema = Schema::new(
            aggs.iter()
                .map(|a| Field::new(a.output_name.clone(), a.data_type(in_schema)))
                .collect(),
        );
        ScalarAggregate { input, aggs, schema, result: None, emitted: false }
    }
}

impl PhysicalOp for ScalarAggregate {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.emitted = false;
        self.input.open(ctx)?;
        let mut accs: Vec<Accumulator> = self.aggs.iter().map(|a| a.accumulator()).collect();
        while let Some(batch) = self.input.next_batch(ctx)? {
            for row in batch.rows() {
                for (agg, acc) in self.aggs.iter().zip(accs.iter_mut()) {
                    agg.update(acc, row, &ctx.outers)?;
                }
            }
        }
        self.input.close(ctx)?;
        self.result = Some(Tuple::new(accs.iter().map(Accumulator::finish).collect()));
        Ok(())
    }

    fn next_batch(&mut self, _ctx: &mut ExecContext<'_>) -> Result<Option<TupleBatch>> {
        if self.emitted {
            return Ok(None);
        }
        self.emitted = true;
        Ok(self.result.clone().map(|row| TupleBatch::new(self.schema.clone(), vec![row])))
    }

    fn close(&mut self, _ctx: &mut ExecContext<'_>) -> Result<()> {
        self.result = None;
        self.emitted = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::drain;
    use crate::test_support::{ctx_with, values_op2};
    use xmlpub_common::row;
    use xmlpub_expr::Expr;

    #[test]
    fn groups_and_aggregates() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let input = values_op2(vec![row![1, 10.0], row![2, 20.0], row![1, 30.0]]);
        let mut g = HashAggregate::new(
            input,
            vec![0],
            vec![AggExpr::avg(Expr::col(1), "a"), AggExpr::count_star("c")],
        );
        let rows = drain(&mut g, &mut ctx).unwrap();
        // First-seen key order is deterministic.
        assert_eq!(rows, vec![row![1, 20.0, 2], row![2, 20.0, 1]]);
        assert_eq!(g.schema().field(1).name, "a");
    }

    #[test]
    fn null_keys_group_together() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let n = xmlpub_common::Value::Null;
        let input = values_op2(vec![row![n.clone(), 1.0], row![n.clone(), 2.0]]);
        let mut g = HashAggregate::new(input, vec![0], vec![AggExpr::count_star("c")]);
        let rows = drain(&mut g, &mut ctx).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0], row![n, 2]);
    }

    #[test]
    fn empty_input_groupby_vs_scalar() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        // GROUP BY over empty input: no rows (emptyOnEmpty = true).
        let mut g = HashAggregate::new(values_op2(vec![]), vec![0], vec![AggExpr::count_star("c")]);
        assert!(drain(&mut g, &mut ctx).unwrap().is_empty());
        // Scalar aggregate over empty input: one row (emptyOnEmpty = false).
        let mut s = ScalarAggregate::new(
            values_op2(vec![]),
            vec![AggExpr::count_star("c"), AggExpr::avg(Expr::col(1), "a")],
        );
        let rows = drain(&mut s, &mut ctx).unwrap();
        assert_eq!(rows, vec![row![0, xmlpub_common::Value::Null]]);
    }

    #[test]
    fn scalar_aggregate_reopens() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let mut s = ScalarAggregate::new(
            values_op2(vec![row![1, 4.0], row![2, 6.0]]),
            vec![AggExpr::avg(Expr::col(1), "a")],
        );
        assert_eq!(drain(&mut s, &mut ctx).unwrap(), vec![row![5.0]]);
        assert_eq!(drain(&mut s, &mut ctx).unwrap(), vec![row![5.0]]);
    }
}
