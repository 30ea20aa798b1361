//! Tuple batches — the unit of data flow between the engine's operators.
//!
//! Operators exchange [`TupleBatch`]es instead of single tuples so the
//! per-call overhead (virtual dispatch, context threading) is amortised
//! over up to [`DEFAULT_BATCH_SIZE`] rows; operators evaluate
//! expressions one row at a time. A batch
//! carries its schema so consumers can materialise a [`Relation`] or
//! re-wrap rows without consulting the producing operator.
//!
//! A batch either owns its rows ([`TupleBatch::new`]) or is a *window*
//! onto a shared relation ([`TupleBatch::window`]): a row range of an
//! `Arc<Relation>`. Scans emit windows, so [`rows`] borrows the table's
//! own tuples and a scan copies nothing. A window is copied into owned
//! rows only when something filters it or takes its rows by value
//! ([`retain`], [`into_rows`]), and [`retain`] copies only the rows it
//! keeps.
//!
//! [`Relation`]: crate::Relation
//! [`rows`]: TupleBatch::rows
//! [`retain`]: TupleBatch::retain
//! [`into_rows`]: TupleBatch::into_rows

use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Default target number of rows per batch. Operators treat this (via the
/// execution context) as a *target*, not a hard bound: an operator whose
/// output expands one input batch (a join, an apply) may exceed it rather
/// than buffer across calls.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// Where a batch's rows live.
#[derive(Clone)]
enum Rows {
    Owned(Vec<Tuple>),
    Window(Arc<Relation>, Range<usize>),
}

/// A schema-carrying batch of rows, owned or borrowed from a relation.
///
/// Invariant maintained by the engine (checked by a `debug_assert!` at
/// the executor's operator boundary): batches flowing between operators
/// are non-empty — exhaustion is signalled by `None` from `next_batch`,
/// never by an empty batch.
#[derive(Clone)]
pub struct TupleBatch {
    schema: Schema,
    rows: Rows,
}

impl TupleBatch {
    /// A batch owning `rows`, with the given schema.
    pub fn new(schema: Schema, rows: Vec<Tuple>) -> Self {
        debug_assert!(rows.iter().all(|r| r.len() == schema.len()), "row arity mismatch");
        TupleBatch { schema, rows: Rows::Owned(rows) }
    }

    /// A batch over rows `range` of `data`, sharing them instead of
    /// copying; `schema` must have `data`'s arity.
    pub fn window(schema: Schema, data: Arc<Relation>, range: Range<usize>) -> Self {
        debug_assert_eq!(schema.len(), data.schema().len(), "window arity mismatch");
        debug_assert!(range.end <= data.len(), "window past the end of the relation");
        TupleBatch { schema, rows: Rows::Window(data, range) }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows().len()
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The batch schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The rows, borrowed (a window borrows the relation's rows).
    pub fn rows(&self) -> &[Tuple] {
        match &self.rows {
            Rows::Owned(rows) => rows,
            Rows::Window(data, range) => &data.rows()[range.clone()],
        }
    }

    /// Consume the batch into its rows (a window copies them).
    pub fn into_rows(self) -> Vec<Tuple> {
        match self.rows {
            Rows::Owned(rows) => rows,
            Rows::Window(data, range) => data.rows()[range].to_vec(),
        }
    }

    /// The rows by value when the batch owns them; a window is handed
    /// back unchanged, so the caller can borrow its rows instead of
    /// copying them.
    pub fn into_owned_rows(self) -> std::result::Result<Vec<Tuple>, TupleBatch> {
        match self.rows {
            Rows::Owned(rows) => Ok(rows),
            rows @ Rows::Window(..) => Err(TupleBatch { schema: self.schema, rows }),
        }
    }

    /// Keep only the rows whose mask entry is true, one entry per row.
    /// A window copies only the rows it keeps.
    pub fn retain(&mut self, mask: &[bool]) {
        debug_assert_eq!(mask.len(), self.len(), "selection mask length mismatch");
        match &mut self.rows {
            Rows::Owned(rows) => {
                let mut keep = mask.iter();
                rows.retain(|_| keep.next() == Some(&true));
            }
            Rows::Window(data, range) => {
                let kept = data.rows()[range.clone()]
                    .iter()
                    .zip(mask)
                    .filter(|(_, &keep)| keep)
                    .map(|(row, _)| row.clone())
                    .collect();
                self.rows = Rows::Owned(kept);
            }
        }
    }
}

impl PartialEq for TupleBatch {
    /// Logical equality: same schema, same rows in order (owned or
    /// windowed does not matter).
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rows() == other.rows()
    }
}

impl fmt::Debug for TupleBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TupleBatch")
            .field("schema", &self.schema)
            .field("rows", &self.rows())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;
    use crate::{row, Field};

    fn schema() -> Schema {
        Schema::new(vec![Field::new("x", DataType::Int)])
    }

    fn table(rows: Vec<Tuple>) -> Arc<Relation> {
        Arc::new(Relation::new(schema(), rows).unwrap())
    }

    #[test]
    fn construction_and_access() {
        assert!(TupleBatch::new(schema(), vec![]).is_empty());
        let b = TupleBatch::new(schema(), vec![row![1], row![2]]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.rows(), &[row![1], row![2]]);
        assert_eq!(b.schema(), &schema());
        assert_eq!(b.into_rows(), vec![row![1], row![2]]);
    }

    #[test]
    fn retain_applies_selection_mask() {
        let mut b = TupleBatch::new(schema(), vec![row![1], row![2], row![3]]);
        b.retain(&[true, false, true]);
        assert_eq!(b.rows(), &[row![1], row![3]]);
        let mut w = TupleBatch::window(schema(), table(vec![row![1], row![2], row![3]]), 1..3);
        w.retain(&[false, true]);
        assert_eq!(w.rows(), &[row![3]]);
    }

    #[test]
    fn windows_borrow_until_filtered() {
        let data = table(vec![row![1], row![2], row![3], row![4]]);
        let w = TupleBatch::window(schema(), Arc::clone(&data), 1..3);
        assert_eq!(w.len(), 2);
        assert_eq!(w.rows().as_ptr(), data.rows()[1..].as_ptr(), "a window must not copy");
        assert_eq!(w, TupleBatch::new(schema(), vec![row![2], row![3]]));
        let mut kept = w.clone();
        kept.retain(&[true, true]);
        assert_ne!(kept.rows().as_ptr(), data.rows()[1..].as_ptr());
        assert_eq!(kept, w);
        assert_eq!(data.rows(), &[row![1], row![2], row![3], row![4]]);
        assert_eq!(w.into_rows(), vec![row![2], row![3]]);
    }

    #[test]
    fn zero_width_batches_track_length() {
        let unit = Schema::new(vec![]);
        let b = TupleBatch::new(unit.clone(), vec![crate::Tuple::unit(), crate::Tuple::unit()]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.rows(), &[crate::Tuple::unit(), crate::Tuple::unit()]);
        let data = Arc::new(Relation::new(unit.clone(), b.rows().to_vec()).unwrap());
        let w = TupleBatch::window(unit, data, 0..2);
        assert_eq!(w.rows(), &[crate::Tuple::unit(), crate::Tuple::unit()]);
    }
}
