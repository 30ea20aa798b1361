//! Selection.

use crate::context::ExecContext;
use crate::ops::{BoxedOp, PhysicalOp};
use xmlpub_common::{Result, Schema, TupleBatch};
use xmlpub_expr::Expr;

/// Filters rows through a predicate with SQL WHERE semantics (NULL and
/// false reject), one selection mask per batch. A batch that passes
/// whole is forwarded untouched — a scan window stays a window.
pub struct Filter {
    input: BoxedOp,
    predicate: Expr,
    schema: Schema,
}

impl Filter {
    /// Filter `input` by `predicate`.
    pub fn new(input: BoxedOp, predicate: Expr) -> Self {
        let schema = input.schema().clone();
        Filter { input, predicate, schema }
    }
}

impl PhysicalOp for Filter {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.input.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<TupleBatch>> {
        while let Some(mut batch) = self.input.next_batch(ctx)? {
            let mask = self.predicate.eval_batch_predicate(batch.rows(), &ctx.outers)?;
            if mask.iter().all(|&keep| keep) {
                return Ok(Some(batch));
            }
            batch.retain(&mask);
            if !batch.is_empty() {
                return Ok(Some(batch));
            }
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.input.close(ctx)
    }

    fn clone_op(&self) -> BoxedOp {
        Box::new(Filter::new(self.input.clone_op(), self.predicate.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::drain;
    use crate::test_support::{ctx_with, values_op};
    use xmlpub_common::{row, Value};

    #[test]
    fn filters_rows() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let input = values_op(vec![row![1], row![5], row![3]]);
        let mut f = Filter::new(input, Expr::col(0).gt(Expr::lit(2)));
        let rows = drain(&mut f, &mut ctx).unwrap();
        assert_eq!(rows, vec![row![5], row![3]]);
    }

    #[test]
    fn null_predicate_rejects() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let input = values_op(vec![row![Value::Null], row![4]]);
        let mut f = Filter::new(input, Expr::col(0).gt(Expr::lit(2)));
        let rows = drain(&mut f, &mut ctx).unwrap();
        assert_eq!(rows, vec![row![4]]);
    }

    #[test]
    fn correlated_predicate_reads_outer_stack() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        ctx.outers.push(row![10]);
        let input = values_op(vec![row![5], row![15]]);
        let mut f = Filter::new(input, Expr::col(0).gt(Expr::Correlated { level: 0, index: 0 }));
        let rows = drain(&mut f, &mut ctx).unwrap();
        assert_eq!(rows, vec![row![15]]);
    }
}
