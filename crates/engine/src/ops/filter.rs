//! Selection.

use crate::context::ExecContext;
use crate::ops::{BoxedOp, PhysicalOp};
use xmlpub_common::{Result, Schema, TupleBatch};
use xmlpub_expr::Expr;

/// Filters rows through a predicate with SQL WHERE semantics (NULL and
/// false reject), evaluated row by row into a keep-mask per batch. A
/// batch that passes whole is forwarded untouched — a scan window stays
/// a window — and a window copies out only the rows it keeps.
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
            let mask = batch
                .rows()
                .iter()
                .map(|row| self.predicate.eval_predicate(row, &ctx.outers))
                .collect::<Result<Vec<_>>>()?;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::drain;
    use crate::test_support::{ctx_with, values_op, values_op2};
    use xmlpub_common::{row, Error, Value};

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

    #[test]
    fn errors_report_the_first_failing_row() {
        // Row 0 fails only the second conjunct, row 1 only the first.
        // Evaluated row by row, `Expr` reports row 0's error; the filter
        // must too, at every batch size.
        let like =
            |c| Expr::Like { expr: Box::new(Expr::col(c)), pattern: "%".into(), negated: false };
        let predicate = like(0).and(like(1));
        let rows = vec![row!["a", 1], row![2, "b"]];
        let first = Error::exec("LIKE applied to non-string value 1");
        let per_row: Result<Vec<bool>> =
            rows.iter().map(|row| predicate.eval_predicate(row, &[])).collect();
        assert_eq!(per_row, Err(first.clone()));
        let (cat, _) = ctx_with();
        for batch_size in [1, 1024] {
            let mut ctx = ExecContext::with_batch_size(&cat, batch_size);
            let mut f = Filter::new(values_op2(rows.clone()), predicate.clone());
            assert_eq!(drain(&mut f, &mut ctx), Err(first.clone()), "batch size {batch_size}");
        }
    }
}
