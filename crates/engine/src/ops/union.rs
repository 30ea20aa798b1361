//! Bag union.

use crate::context::ExecContext;
use crate::ops::{BoxedOp, PhysicalOp};
use xmlpub_common::{Result, Schema, TupleBatch};

/// UNION ALL over n branches, streamed in branch order.
pub struct UnionAll {
    inputs: Vec<BoxedOp>,
    schema: Schema,
    current: usize,
}

impl UnionAll {
    /// Union the given branches. Schemas must be union-compatible; the
    /// output schema unifies the branch types (NULL padding widens to the
    /// sibling's type, as sorted outer unions rely on).
    pub fn new(inputs: Vec<BoxedOp>) -> Self {
        assert!(!inputs.is_empty(), "UnionAll needs at least one branch");
        let mut schema = inputs[0].schema().without_qualifiers();
        for b in inputs.iter().skip(1) {
            if let Ok(u) = schema.union_schema(b.schema()) {
                schema = u;
            }
        }
        UnionAll { inputs, schema, current: 0 }
    }
}

impl PhysicalOp for UnionAll {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.current = 0;
        // Branches are opened lazily, one at a time, so only one branch
        // holds buffers at once (matters when branches contain sorts).
        if let Some(first) = self.inputs.first_mut() {
            first.open(ctx)?;
        }
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<TupleBatch>> {
        while self.current < self.inputs.len() {
            if let Some(batch) = self.inputs[self.current].next_batch(ctx)? {
                // Re-wrap under the unified schema (the branch's own
                // schema may be narrower-typed).
                return Ok(Some(TupleBatch::new(self.schema.clone(), batch.into_rows())));
            }
            self.inputs[self.current].close(ctx)?;
            self.current += 1;
            if let Some(nxt) = self.inputs.get_mut(self.current) {
                nxt.open(ctx)?;
            }
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        if self.current < self.inputs.len() {
            self.inputs[self.current].close(ctx)?;
        }
        self.current = self.inputs.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::drain;
    use crate::test_support::{ctx_with, values_op2};
    use xmlpub_common::row;

    #[test]
    fn concatenates_branches_in_order() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let mut u = UnionAll::new(vec![
            values_op2(vec![row![1, "a"]]),
            values_op2(vec![]),
            values_op2(vec![row![2, "b"], row![3, "c"]]),
        ]);
        let rows = drain(&mut u, &mut ctx).unwrap();
        assert_eq!(rows, vec![row![1, "a"], row![2, "b"], row![3, "c"]]);
    }

    #[test]
    fn reopens() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let mut u =
            UnionAll::new(vec![values_op2(vec![row![1, "a"]]), values_op2(vec![row![2, "b"]])]);
        assert_eq!(drain(&mut u, &mut ctx).unwrap().len(), 2);
        assert_eq!(drain(&mut u, &mut ctx).unwrap().len(), 2);
    }
}
