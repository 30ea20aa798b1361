//! Tuple batches — the unit of data flow in the vectorized engine.
//!
//! Operators exchange [`TupleBatch`]es instead of single tuples so the
//! per-call overhead (virtual dispatch, context threading, expression
//! dispatch) is amortised over up to [`DEFAULT_BATCH_SIZE`] rows. A batch
//! carries its schema so consumers can materialise a [`Relation`] or
//! re-wrap rows without consulting the producing operator.
//!
//! A batch is *dual-representation*: the producer hands over whichever
//! layout it naturally has — row tuples ([`TupleBatch::new`]) or
//! [`ColumnVec`]s ([`TupleBatch::from_columns`], see [`crate::column`]) —
//! and that layout stays primary. The other view ([`rows`] / [`columns`])
//! is derived lazily on first access and cached, so a row-producing
//! operator feeding a row-consuming one never pays a transpose, while
//! columnar scans feeding expression kernels never materialise tuples.
//! Operators that have both a columnar and a row code path pick via
//! [`is_columnar`] / [`columnar`] instead of forcing a conversion.
//!
//! [`Relation`]: crate::Relation
//! [`rows`]: TupleBatch::rows
//! [`columns`]: TupleBatch::columns
//! [`is_columnar`]: TupleBatch::is_columnar
//! [`columnar`]: TupleBatch::columnar

use crate::column::ColumnVec;
use crate::schema::Schema;
use crate::tuple::Tuple;
use std::sync::OnceLock;

/// Default target number of rows per batch. Operators treat this (via the
/// execution context) as a *target*, not a hard bound: an operator whose
/// output expands one input batch (a join, an apply) may exceed it rather
/// than buffer across calls.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// Primary storage: whichever representation the producer handed over.
#[derive(Debug, Clone)]
enum Cells {
    Rows(Vec<Tuple>),
    Columns(Vec<ColumnVec>),
}

/// A schema-carrying batch with lazily derived row/column views.
///
/// Invariant maintained by the engine (checked by a `debug_assert!` at
/// the executor's operator boundary): batches flowing between operators
/// are non-empty — exhaustion is signalled by `None` from `next_batch`,
/// never by an empty batch.
#[derive(Debug, Clone)]
pub struct TupleBatch {
    schema: Schema,
    cells: Cells,
    /// Row count, tracked separately so zero-width schemas (the unit
    /// relation behind `EXISTS`) still know their cardinality.
    len: usize,
    /// Lazily transposed row view of a column-primary batch;
    /// invalidated by every mutation.
    rows_cache: OnceLock<Vec<Tuple>>,
    /// Lazily columnified view of a row-primary batch; invalidated by
    /// every mutation.
    cols_cache: OnceLock<Vec<ColumnVec>>,
}

impl TupleBatch {
    /// A row-primary batch over `rows` with the given schema (no
    /// transpose; the columnar view is built on demand).
    pub fn new(schema: Schema, rows: Vec<Tuple>) -> Self {
        let len = rows.len();
        debug_assert!(rows.iter().all(|r| r.len() == schema.len()), "row arity mismatch");
        TupleBatch {
            schema,
            cells: Cells::Rows(rows),
            len,
            rows_cache: OnceLock::new(),
            cols_cache: OnceLock::new(),
        }
    }

    /// A column-primary batch directly over columns (all of length `len`).
    pub fn from_columns(schema: Schema, columns: Vec<ColumnVec>, len: usize) -> Self {
        debug_assert_eq!(columns.len(), schema.len(), "column count mismatch");
        debug_assert!(columns.iter().all(|c| c.len() == len), "column length mismatch");
        TupleBatch {
            schema,
            cells: Cells::Columns(columns),
            len,
            rows_cache: OnceLock::new(),
            cols_cache: OnceLock::new(),
        }
    }

    /// An empty row-primary batch (used as a builder seed).
    pub fn empty(schema: Schema) -> Self {
        TupleBatch::new(schema, Vec::new())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The batch schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Whether the *primary* representation is columnar. Operators with
    /// both a vectorized and a row code path branch on this so neither
    /// representation is ever converted just to be consumed.
    pub fn is_columnar(&self) -> bool {
        matches!(self.cells, Cells::Columns(_))
    }

    /// The columns, but only if already materialised (column-primary, or
    /// a row-primary batch whose columnar view was previously forced) —
    /// never triggers a columnification.
    pub fn columnar(&self) -> Option<&[ColumnVec]> {
        match &self.cells {
            Cells::Columns(cols) => Some(cols),
            Cells::Rows(_) => self.cols_cache.get().map(Vec::as_slice),
        }
    }

    /// The columns, borrowed; a row-primary batch columnifies on first
    /// access and caches the result.
    pub fn columns(&self) -> &[ColumnVec] {
        match &self.cells {
            Cells::Columns(cols) => cols,
            Cells::Rows(rows) => self.cols_cache.get_or_init(|| columnify(rows, self.schema.len())),
        }
    }

    /// The column at `i`, borrowed.
    pub fn column(&self, i: usize) -> &ColumnVec {
        &self.columns()[i]
    }

    /// The rows, borrowed; a column-primary batch transposes on first
    /// access and caches the result.
    pub fn rows(&self) -> &[Tuple] {
        match &self.cells {
            Cells::Rows(rows) => rows,
            Cells::Columns(cols) => self.rows_cache.get_or_init(|| transpose(cols, self.len)),
        }
    }

    /// Consume the batch into its rows.
    pub fn into_rows(self) -> Vec<Tuple> {
        match self.cells {
            Cells::Rows(rows) => rows,
            Cells::Columns(cols) => match self.rows_cache.into_inner() {
                Some(rows) => rows,
                None => transpose(&cols, self.len),
            },
        }
    }

    /// Consume the batch into its columns.
    pub fn into_columns(self) -> Vec<ColumnVec> {
        match self.cells {
            Cells::Columns(cols) => cols,
            Cells::Rows(rows) => match self.cols_cache.into_inner() {
                Some(cols) => cols,
                None => columnify(&rows, self.schema.len()),
            },
        }
    }

    /// Append one row.
    pub fn push(&mut self, row: Tuple) {
        debug_assert_eq!(row.len(), self.schema.len(), "row arity mismatch");
        match &mut self.cells {
            Cells::Rows(rows) => rows.push(row),
            Cells::Columns(cols) => {
                for (col, v) in cols.iter_mut().zip(row.into_values()) {
                    col.push(v);
                }
            }
        }
        self.len += 1;
        self.rows_cache.take();
        self.cols_cache.take();
    }

    /// Keep only the rows whose mask entry is true (a selection mask as
    /// produced by `Expr::eval_batch_predicate`).
    pub fn retain(&mut self, mask: &[bool]) {
        debug_assert_eq!(mask.len(), self.len, "selection mask length mismatch");
        match &mut self.cells {
            Cells::Rows(rows) => {
                let mut keep = mask.iter();
                rows.retain(|_| *keep.next().expect("mask covers every row"));
            }
            Cells::Columns(cols) => {
                for col in cols.iter_mut() {
                    col.retain(mask);
                }
            }
        }
        self.len = mask.iter().filter(|k| **k).count();
        self.rows_cache.take();
        self.cols_cache.take();
    }
}

impl PartialEq for TupleBatch {
    /// Logical equality: same schema, same values row by row (the
    /// physical representation — rows or columns — does not matter).
    fn eq(&self, other: &Self) -> bool {
        if self.schema != other.schema || self.len != other.len {
            return false;
        }
        if let (Cells::Columns(a), Cells::Columns(b)) = (&self.cells, &other.cells) {
            return a == b;
        }
        self.rows() == other.rows()
    }
}

/// Build the row view from columns.
fn transpose(columns: &[ColumnVec], len: usize) -> Vec<Tuple> {
    (0..len).map(|i| Tuple::new(columns.iter().map(|c| c.get(i)).collect())).collect()
}

/// Build the columnar view from rows.
fn columnify(rows: &[Tuple], width: usize) -> Vec<ColumnVec> {
    (0..width)
        .map(|c| ColumnVec::from_values(rows.iter().map(|r| r.value(c).clone()).collect()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;
    use crate::{row, Field};

    fn schema() -> Schema {
        Schema::new(vec![Field::new("x", DataType::Int)])
    }

    #[test]
    fn construction_and_access() {
        let mut b = TupleBatch::empty(schema());
        assert!(b.is_empty());
        b.push(row![1]);
        b.push(row![2]);
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
        let mut c = TupleBatch::from_columns(schema(), b.columns().to_vec(), b.len());
        c.retain(&[false, true]);
        assert_eq!(c.rows(), &[row![3]]);
    }

    #[test]
    fn columnar_and_row_views_agree() {
        let schema =
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("s", DataType::Str)]);
        let rows = vec![row![1, "a"], row![2, "b"], row![3, "a"]];
        let b = TupleBatch::new(schema.clone(), rows.clone());
        assert_eq!(b.columns().len(), 2);
        assert_eq!(b.column(0).get(2), crate::Value::Int(3));
        assert_eq!(b.rows(), &rows[..]);
        let via_cols = TupleBatch::from_columns(schema, b.columns().to_vec(), b.len());
        assert_eq!(via_cols, b);
    }

    #[test]
    fn representation_is_lazy_and_preserved() {
        let b = TupleBatch::new(schema(), vec![row![1], row![2], row![3]]);
        assert!(!b.is_columnar());
        assert!(b.columnar().is_none(), "row-primary batch must not pre-columnify");
        let _ = b.columns(); // force (and cache) the columnar view
        assert!(b.columnar().is_some());
        assert!(!b.is_columnar(), "forcing a view must not flip the primary representation");
        let c = TupleBatch::from_columns(schema(), b.columns().to_vec(), b.len());
        assert!(c.is_columnar());
        assert_eq!(c, b);
    }

    #[test]
    fn mutations_invalidate_cached_views() {
        let mut b = TupleBatch::new(schema(), vec![row![1], row![2]]);
        assert_eq!(b.columns()[0].get(1), crate::Value::Int(2)); // build the column cache
        b.push(row![3]);
        assert_eq!(b.columns()[0].get(2), crate::Value::Int(3));
        let mut c = TupleBatch::from_columns(schema(), b.columns().to_vec(), b.len());
        assert_eq!(c.rows().len(), 3); // build the row cache
        c.retain(&[true, false, true]);
        assert_eq!(c.rows(), &[row![1], row![3]]);
    }

    #[test]
    fn zero_width_batches_track_length() {
        let unit = Schema::new(vec![]);
        let b = TupleBatch::new(unit.clone(), vec![crate::Tuple::unit(), crate::Tuple::unit()]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.rows(), &[crate::Tuple::unit(), crate::Tuple::unit()]);
        let c = TupleBatch::from_columns(unit, vec![], 2);
        assert_eq!(c.rows(), &[crate::Tuple::unit(), crate::Tuple::unit()]);
    }
}
