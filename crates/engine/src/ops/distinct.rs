//! Duplicate elimination.

use crate::context::ExecContext;
use crate::ops::{BoxedOp, PhysicalOp};
use std::collections::HashSet;
use xmlpub_common::{Result, Schema, Tuple, TupleBatch};

/// Hash-based DISTINCT, streaming in input order (first occurrence wins).
pub struct HashDistinct {
    input: BoxedOp,
    schema: Schema,
    seen: HashSet<Tuple>,
}

impl HashDistinct {
    /// Deduplicate `input`.
    pub fn new(input: BoxedOp) -> Self {
        let schema = input.schema().clone();
        HashDistinct { input, schema, seen: HashSet::new() }
    }
}

impl PhysicalOp for HashDistinct {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.seen.clear();
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<TupleBatch>> {
        while let Some(batch) = self.input.next_batch(ctx)? {
            ctx.stats.rows_hashed += batch.len() as u64;
            let fresh: Vec<Tuple> =
                batch.into_rows().into_iter().filter(|row| self.seen.insert(row.clone())).collect();
            if !fresh.is_empty() {
                return Ok(Some(TupleBatch::new(self.schema.clone(), fresh)));
            }
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.seen.clear();
        self.input.close(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::drain;
    use crate::test_support::{ctx_with, values_op2};
    use xmlpub_common::{row, Value};

    #[test]
    fn removes_duplicates_keeps_order() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let input = values_op2(vec![row![2, "b"], row![1, "a"], row![2, "b"], row![1, "x"]]);
        let mut d = HashDistinct::new(input);
        let rows = drain(&mut d, &mut ctx).unwrap();
        assert_eq!(rows, vec![row![2, "b"], row![1, "a"], row![1, "x"]]);
    }

    #[test]
    fn nulls_deduplicate() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let input = values_op2(vec![row![Value::Null, "a"], row![Value::Null, "a"]]);
        let mut d = HashDistinct::new(input);
        assert_eq!(drain(&mut d, &mut ctx).unwrap().len(), 1);
    }

    #[test]
    fn reopen_resets_seen_set() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let input = values_op2(vec![row![1, "a"]]);
        let mut d = HashDistinct::new(input);
        assert_eq!(drain(&mut d, &mut ctx).unwrap().len(), 1);
        assert_eq!(drain(&mut d, &mut ctx).unwrap().len(), 1);
    }
}
