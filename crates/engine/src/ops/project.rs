//! Generalised projection.

use crate::context::ExecContext;
use crate::ops::{BoxedOp, PhysicalOp};
use xmlpub_algebra::ProjectItem;
use xmlpub_common::{Result, Schema, TupleBatch};

/// Computes one output column per item over each input batch, then
/// zips the columns into output rows.
pub struct Project {
    input: BoxedOp,
    items: Vec<ProjectItem>,
    schema: Schema,
}

impl Project {
    /// Project `input` through `items`.
    pub fn new(input: BoxedOp, items: Vec<ProjectItem>) -> Self {
        let in_schema = input.schema();
        let schema = Schema::new(
            items.iter().enumerate().map(|(i, it)| it.output_field(in_schema, i)).collect(),
        );
        Project { input, items, schema }
    }

    /// Evaluate every output expression over `batch`.
    fn project_batch(
        &self,
        batch: &TupleBatch,
        outers: &[xmlpub_common::Tuple],
    ) -> Result<TupleBatch> {
        let vals = self
            .items
            .iter()
            .map(|it| it.expr.eval_batch(batch.rows(), outers))
            .collect::<Result<Vec<_>>>()?;
        let mut its: Vec<_> = vals.into_iter().map(Vec::into_iter).collect();
        let rows = (0..batch.len())
            .map(|_| {
                xmlpub_common::Tuple::new(
                    its.iter_mut().map(|it| it.next().expect("value per row")).collect(),
                )
            })
            .collect();
        Ok(TupleBatch::new(self.schema.clone(), rows))
    }
}

impl PhysicalOp for Project {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<TupleBatch>> {
        match self.input.next_batch(ctx)? {
            Some(batch) => Ok(Some(self.project_batch(&batch, &ctx.outers)?)),
            None => Ok(None),
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.input.close(ctx)
    }

    fn clone_op(&self) -> BoxedOp {
        // Hand the clone the already-computed schema handle (Schema is
        // Arc-backed) instead of re-deriving an identical allocation.
        Box::new(Project {
            input: self.input.clone_op(),
            items: self.items.clone(),
            schema: self.schema.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::drain;
    use crate::test_support::{ctx_with, values_op2};
    use xmlpub_common::{row, Value};
    use xmlpub_expr::{BinOp, Expr};

    #[test]
    fn computes_expressions() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let input = values_op2(vec![row![2, 3]]);
        let mut p = Project::new(
            input,
            vec![
                ProjectItem::col(1),
                ProjectItem::named(Expr::binary(BinOp::Add, Expr::col(0), Expr::col(1)), "sum"),
                ProjectItem::named(Expr::Literal(Value::Null), "pad"),
            ],
        );
        assert_eq!(p.schema().field(1).name, "sum");
        let rows = drain(&mut p, &mut ctx).unwrap();
        assert_eq!(rows, vec![row![3, 5, Value::Null]]);
    }
}
