//! Generalised projection.

use crate::context::ExecContext;
use crate::ops::{BoxedOp, PhysicalOp};
use xmlpub_algebra::ProjectItem;
use xmlpub_common::{Error, Result, Schema, Tuple, TupleBatch, Value};
use xmlpub_expr::Expr;

/// Builds each output row from its input row: the computed items are
/// evaluated with `Expr::eval` into one reused buffer, then a bare column
/// item takes its value straight from the input row. A batch that owns
/// its rows gives each column's last use the value itself; a window's
/// values are cloned.
pub struct Project {
    input: BoxedOp,
    items: Vec<ProjectItem>,
    /// Per item: a bare column no later item reads again, whose value an
    /// owned input row can give up.
    last_use: Vec<bool>,
    schema: Schema,
}

impl Project {
    /// Project `input` through `items`.
    pub fn new(input: BoxedOp, items: Vec<ProjectItem>) -> Self {
        let in_schema = input.schema();
        let schema = Schema::new(
            items.iter().enumerate().map(|(i, it)| it.output_field(in_schema, i)).collect(),
        );
        let last_use = items
            .iter()
            .enumerate()
            .map(|(n, it)| match it.expr {
                Expr::Column(c) => {
                    !items[n + 1..].iter().any(|later| later.expr == Expr::Column(c))
                }
                _ => false,
            })
            .collect();
        Project { input, items, last_use, schema }
    }

    /// Build the output rows of `batch`.
    fn project_batch(&self, batch: TupleBatch, outers: &[Tuple]) -> Result<TupleBatch> {
        let mut computed = Vec::new();
        let rows = match batch.into_owned_rows() {
            Ok(rows) => rows
                .into_iter()
                .map(|row| {
                    self.eval_computed(&row, outers, &mut computed)?;
                    let mut values = row.into_values();
                    self.build_row(&mut computed, values.len(), |c, last| match last {
                        true => std::mem::replace(&mut values[c], Value::Null),
                        false => values[c].clone(),
                    })
                })
                .collect::<Result<_>>()?,
            Err(window) => window
                .rows()
                .iter()
                .map(|row| {
                    self.eval_computed(row, outers, &mut computed)?;
                    self.build_row(&mut computed, row.len(), |c, _| row.value(c).clone())
                })
                .collect::<Result<_>>()?,
        };
        Ok(TupleBatch::new(self.schema.clone(), rows))
    }

    /// Evaluate `row`'s computed items, in item order, into `computed`.
    /// It runs before anything moves out of an owned row, so every item
    /// sees the whole input row.
    fn eval_computed(
        &self,
        row: &Tuple,
        outers: &[Tuple],
        computed: &mut Vec<Value>,
    ) -> Result<()> {
        computed.clear();
        for it in &self.items {
            if !matches!(it.expr, Expr::Column(_)) {
                computed.push(it.expr.eval(row, outers)?);
            }
        }
        Ok(())
    }

    /// One output row from a `width`-wide input row: `column(c, last)`
    /// yields input column `c` (`last`: no later item reads it), and each
    /// computed item takes the next value `eval_computed` left in
    /// `computed`, which holds one per computed item.
    fn build_row(
        &self,
        computed: &mut Vec<Value>,
        width: usize,
        mut column: impl FnMut(usize, bool) -> Value,
    ) -> Result<Tuple> {
        let mut computed = computed.drain(..);
        let mut values = Vec::with_capacity(self.items.len());
        for (it, &last) in self.items.iter().zip(&self.last_use) {
            values.push(match it.expr {
                Expr::Column(c) if c < width => column(c, last),
                Expr::Column(c) => {
                    return Err(Error::exec(format!(
                        "column #{c} out of range for {width}-wide row"
                    )))
                }
                _ => computed.next().unwrap_or(Value::Null),
            });
        }
        Ok(Tuple::new(values))
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
            Some(batch) => Ok(Some(self.project_batch(batch, &ctx.outers)?)),
            None => Ok(None),
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.input.close(ctx)
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

    #[test]
    fn out_of_range_column_is_a_typed_error() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let mut p = Project::new(values_op2(vec![row![2, 3]]), vec![ProjectItem::col(2)]);
        let err = drain(&mut p, &mut ctx).unwrap_err();
        assert_eq!(err, Error::exec("column #2 out of range for 2-wide row"));
        // The same error `Expr::eval` reports.
        assert_eq!(Some(err), Expr::col(2).eval(&row![2, 3], &[]).err());
    }
}
