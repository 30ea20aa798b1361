//! Literal row source (VALUES) — used by tests and the client-side
//! simulation to feed materialised intermediates back into plans.

use crate::context::ExecContext;
use crate::ops::{next_window, PhysicalOp};
use std::sync::Arc;
use xmlpub_common::{Relation, Result, Schema, Tuple, TupleBatch};

/// Produces a fixed list of rows, as windows onto them.
pub struct ValuesOp {
    schema: Schema,
    rows: Arc<Relation>,
    pos: usize,
}

impl ValuesOp {
    /// A source yielding `rows` with the given schema.
    pub fn new(schema: Schema, rows: Vec<Tuple>) -> Self {
        ValuesOp::from_relation(Relation::from_rows_unchecked(schema, rows))
    }

    /// A source over a materialised relation.
    pub fn from_relation(rel: Relation) -> Self {
        ValuesOp { schema: rel.schema().clone(), rows: Arc::new(rel), pos: 0 }
    }
}

impl PhysicalOp for ValuesOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, _ctx: &mut ExecContext<'_>) -> Result<()> {
        self.pos = 0;
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<TupleBatch>> {
        Ok(next_window(&self.rows, &self.schema, &mut self.pos, ctx.batch_size))
    }

    fn close(&mut self, _ctx: &mut ExecContext<'_>) -> Result<()> {
        self.pos = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::drain;
    use xmlpub_algebra::Catalog;
    use xmlpub_common::{row, DataType, Field};

    #[test]
    fn yields_rows_and_reopens() {
        let cat = Catalog::new();
        let mut ctx = ExecContext::new(&cat);
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let mut v = ValuesOp::new(schema, vec![row![1], row![2]]);
        assert_eq!(drain(&mut v, &mut ctx).unwrap().len(), 2);
        assert_eq!(drain(&mut v, &mut ctx).unwrap().len(), 2);
    }

    #[test]
    fn from_relation_keeps_schema() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let rel = Relation::new(schema.clone(), vec![row![3]]).unwrap();
        let v = ValuesOp::from_relation(rel);
        assert_eq!(v.schema(), &schema);
    }
}
