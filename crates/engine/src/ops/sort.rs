//! In-memory sort.

use crate::context::ExecContext;
use crate::ops::{next_window, BoxedOp, PhysicalOp};
use std::cmp::Ordering;
use std::sync::Arc;
use xmlpub_algebra::SortKey;
use xmlpub_common::{Relation, Result, Schema, Tuple, TupleBatch, Value};

/// Materialising sort. Stable, so equal keys keep input order. The
/// sorted rows are emitted as windows onto one shared buffer.
pub struct Sort {
    input: BoxedOp,
    keys: Vec<SortKey>,
    schema: Schema,
    buffer: Option<Arc<Relation>>,
    pos: usize,
}

impl Sort {
    /// Sort `input` by `keys` (major key first).
    pub fn new(input: BoxedOp, keys: Vec<SortKey>) -> Self {
        let schema = input.schema().clone();
        Sort { input, keys, schema, buffer: None, pos: 0 }
    }
}

impl PhysicalOp for Sort {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.buffer = None;
        self.pos = 0;
        self.input.open(ctx)?;
        let mut keyed: Vec<(Vec<Value>, Tuple)> = Vec::new();
        while let Some(batch) = self.input.next_batch(ctx)? {
            ctx.stats.rows_sorted += batch.len() as u64;
            for row in batch.into_rows() {
                let mut key = Vec::with_capacity(self.keys.len());
                for k in &self.keys {
                    key.push(k.expr.eval(&row, &ctx.outers)?);
                }
                keyed.push((key, row));
            }
        }
        self.input.close(ctx)?;
        let dirs: Vec<bool> = self.keys.iter().map(|k| k.asc).collect();
        keyed.sort_by(|(a, _), (b, _)| {
            for (i, asc) in dirs.iter().enumerate() {
                let ord = a[i].total_cmp(&b[i]);
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        let rows = keyed.into_iter().map(|(_, t)| t).collect();
        self.buffer = Some(Arc::new(Relation::from_rows_unchecked(self.schema.clone(), rows)));
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<TupleBatch>> {
        let buffer = self.buffer.as_ref().expect("Sort::next_batch before open");
        Ok(next_window(buffer, &self.schema, &mut self.pos, ctx.batch_size))
    }

    fn close(&mut self, _ctx: &mut ExecContext<'_>) -> Result<()> {
        self.buffer = None;
        self.pos = 0;
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
    fn sorts_ascending_and_descending() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let input = values_op2(vec![row![2, "b"], row![1, "a"], row![3, "c"]]);
        let mut s = Sort::new(input, vec![SortKey::desc(0)]);
        let rows = drain(&mut s, &mut ctx).unwrap();
        assert_eq!(rows, vec![row![3, "c"], row![2, "b"], row![1, "a"]]);
        assert_eq!(ctx.stats.rows_sorted, 3);
    }

    #[test]
    fn multi_key_stable() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let input = values_op2(vec![row![1, "z"], row![1, "a"], row![0, "m"], row![1, "z"]]);
        let mut s = Sort::new(input, vec![SortKey::asc(0), SortKey::asc(1)]);
        let rows = drain(&mut s, &mut ctx).unwrap();
        assert_eq!(rows, vec![row![0, "m"], row![1, "a"], row![1, "z"], row![1, "z"]]);
    }

    #[test]
    fn sorted_batches_are_windows_onto_one_buffer() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::with_batch_size(&cat, 2);
        let input = values_op2((0..5).rev().map(|i| row![i, "x"]).collect());
        let mut s = Sort::new(input, vec![SortKey::asc(0)]);
        s.open(&mut ctx).unwrap();
        let (mut first, mut seen, mut sizes) = (None, 0, Vec::new());
        while let Some(b) = s.next_batch(&mut ctx).unwrap() {
            let base = *first.get_or_insert(b.rows().as_ptr());
            assert_eq!(
                b.rows().as_ptr(),
                base.wrapping_add(seen),
                "sorted batches must borrow, not copy, the sort buffer"
            );
            assert!(b.rows().iter().zip(seen..).all(|(r, i)| r == &row![i as i64, "x"]));
            seen += b.len();
            sizes.push(b.len());
        }
        s.close(&mut ctx).unwrap();
        assert_eq!(sizes, vec![2, 2, 1]);
    }

    #[test]
    fn nulls_sort_first() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let input = values_op2(vec![row![1, "a"], row![xmlpub_common::Value::Null, "n"]]);
        let mut s = Sort::new(input, vec![SortKey::asc(0)]);
        let rows = drain(&mut s, &mut ctx).unwrap();
        assert!(rows[0].value(0).is_null());
    }
}
