//! In-memory multiset tables.
//!
//! A [`Relation`] is a schema plus a bag of tuples. It backs base tables in
//! the catalog, the temporary relation a `GApply` group binds to, and fully
//! materialised query results. Because the whole paper operates under
//! multiset semantics, equality helpers here compare *bags*, not sets or
//! sequences.
//!
//! Storage is one `Vec<Tuple>` in physical order plus a version stamp;
//! scans hand out zero-copy windows onto it (see [`TupleBatch`]).
//!
//! [`TupleBatch`]: crate::TupleBatch

use crate::delta::DeltaBatch;
use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;

/// A schema plus a multiset of rows.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    rows: Vec<Tuple>,
    /// Monotonically increasing mutation stamp. Every mutating call
    /// (`push`, `sort_by_columns`, `apply_delta`) bumps it, so readers
    /// holding derived state — cached documents, propagated deltas —
    /// can detect that the relation they derived from has moved on.
    version: u64,
}

impl Relation {
    /// An empty relation with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Relation::from_rows_unchecked(schema, Vec::new())
    }

    /// Build a relation, checking every row's arity against the schema.
    /// The hot path is one length compare per row; the rich diagnostic
    /// is only rendered once a row actually mismatches.
    pub fn new(schema: Schema, rows: Vec<Tuple>) -> Result<Self> {
        let width = schema.len();
        if let Some(i) = rows.iter().position(|r| r.len() != width) {
            return Err(arity_error(&schema, rows[i].len(), i));
        }
        Ok(Relation::from_rows_unchecked(schema, rows))
    }

    /// Build without arity checking (used on hot paths where the caller
    /// constructed the rows against this very schema).
    pub fn from_rows_unchecked(schema: Schema, rows: Vec<Tuple>) -> Self {
        debug_assert!(rows.iter().all(|r| r.len() == schema.len()));
        Relation { schema, rows, version: 0 }
    }

    /// The mutation stamp: bumped by every mutating call. Fresh builds
    /// start at 0; two relations with equal versions are *not*
    /// necessarily equal (versions are per-instance), but one instance
    /// observed at two equal versions has not changed in between.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The rows, in their current physical order.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a row. Panics in debug builds if the arity is wrong.
    pub fn push(&mut self, row: Tuple) {
        debug_assert_eq!(row.len(), self.schema.len());
        self.rows.push(row);
        self.version += 1;
    }

    /// Apply a batch of appends and deletes atomically.
    ///
    /// Deletes go first (so a batch can delete a row and append its
    /// replacement), each removing the *first* matching occurrence in
    /// physical order; a delete with no matching row is an error and the
    /// relation is left untouched. Appends land at the end, so the cost
    /// of a batch is one pass for its deletes plus its appends.
    pub fn apply_delta(&mut self, delta: &DeltaBatch) -> Result<()> {
        let width = self.schema.len();
        if let Some(i) = delta.appended.iter().position(|r| r.len() != width) {
            return Err(arity_error(&self.schema, delta.appended[i].len(), i));
        }
        if let Some(i) = delta.deleted.iter().position(|r| r.len() != width) {
            return Err(arity_error(&self.schema, delta.deleted[i].len(), i));
        }
        if delta.is_empty() {
            return Ok(());
        }

        if !delta.deleted.is_empty() {
            // Bag delete: count the requested removals, then scan the
            // rows once building a keep mask that drops the first
            // matching occurrences. Checked *before* any mutation.
            let mut pending: BTreeMap<&Tuple, usize> = BTreeMap::new();
            for t in &delta.deleted {
                *pending.entry(t).or_insert(0) += 1;
            }
            let mut remaining = delta.deleted.len();
            let keep: Vec<bool> = self
                .rows
                .iter()
                .map(|r| {
                    if remaining > 0 {
                        if let Some(c) = pending.get_mut(r) {
                            if *c > 0 {
                                *c -= 1;
                                remaining -= 1;
                                return false;
                            }
                        }
                    }
                    true
                })
                .collect();
            if remaining > 0 {
                let sample = pending
                    .iter()
                    .find(|(_, c)| **c > 0)
                    .map(|(t, _)| t.to_string())
                    .unwrap_or_default();
                return Err(Error::plan(format!(
                    "delete of {remaining} row(s) not present in the relation, e.g. {sample}"
                )));
            }
            let mut it = keep.iter();
            self.rows.retain(|_| *it.next().expect("mask covers every row"));
        }

        self.rows.extend(delta.appended.iter().cloned());
        self.version += 1;
        Ok(())
    }

    /// Consume into rows.
    pub fn into_rows(self) -> Vec<Tuple> {
        self.rows
    }

    /// Sort rows by the engine-internal total order on the given columns
    /// (ascending). Stable, so it can implement multi-pass ORDER BY.
    pub fn sort_by_columns(&mut self, columns: &[usize]) {
        self.rows.sort_by(|a, b| {
            for &c in columns {
                let ord = a.value(c).total_cmp(b.value(c));
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        self.version += 1;
    }

    /// Multiset (bag) equality: same schema arity and same rows regardless
    /// of order. This is the notion of result equivalence the paper's
    /// Theorems 1 and 2 are stated in, and what every property test checks.
    pub fn bag_eq(&self, other: &Relation) -> bool {
        if self.schema.len() != other.schema.len() || self.len() != other.len() {
            return false;
        }
        let mut counts: BTreeMap<&Tuple, i64> = BTreeMap::new();
        for r in self.rows() {
            *counts.entry(r).or_insert(0) += 1;
        }
        for r in other.rows() {
            match counts.get_mut(r) {
                Some(c) => *c -= 1,
                None => return false,
            }
        }
        counts.values().all(|&c| c == 0)
    }

    /// A short human-readable diff used in assertion messages: rows present
    /// in `self` but not `other` and vice versa (bag difference, truncated).
    pub fn bag_diff(&self, other: &Relation) -> String {
        let mut counts: BTreeMap<&Tuple, i64> = BTreeMap::new();
        for r in self.rows() {
            *counts.entry(r).or_insert(0) += 1;
        }
        for r in other.rows() {
            *counts.entry(r).or_insert(0) -= 1;
        }
        let mut only_left = Vec::new();
        let mut only_right = Vec::new();
        for (t, c) in counts {
            if c > 0 {
                only_left.push(format!("{t}x{c}"));
            } else if c < 0 {
                only_right.push(format!("{t}x{}", -c));
            }
        }
        only_left.truncate(5);
        only_right.truncate(5);
        format!("only-left: [{}]; only-right: [{}]", only_left.join(" "), only_right.join(" "))
    }

    /// Collect the distinct values of one column, sorted.
    pub fn distinct_values(&self, column: usize) -> Vec<Value> {
        let mut vals: Vec<Value> = self.rows.iter().map(|r| r.value(column).clone()).collect();
        vals.sort();
        vals.dedup();
        vals
    }

    /// Render as an ASCII table (for examples and debugging).
    pub fn to_table_string(&self) -> String {
        let headers: Vec<String> =
            self.schema.fields().iter().map(|f| f.qualified_name()).collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows()
            .iter()
            .map(|r| r.values().iter().map(|v| v.render().into_owned()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (h, w) in headers.iter().zip(&widths) {
            out.push_str(&format!(" {h:<w$} |"));
        }
        out.push('\n');
        sep(&mut out);
        for row in &rendered {
            out.push('|');
            for (cell, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {cell:<w$} |"));
            }
            out.push('\n');
        }
        sep(&mut out);
        out
    }
}

/// Rich arity diagnostic, kept off the hot construction path.
#[cold]
#[inline(never)]
fn arity_error(schema: &Schema, row_len: usize, i: usize) -> Error {
    Error::plan(format!(
        "row {i} has {row_len} values but schema {} has {} columns",
        schema,
        schema.len()
    ))
}

impl PartialEq for Relation {
    /// Logical equality: same schema, same row sequence (the version
    /// stamp does not matter).
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rows == other.rows
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} rows {}", self.len(), self.schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::Field;
    use crate::value::DataType;

    fn schema2() -> Schema {
        Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Str)])
    }

    #[test]
    fn new_checks_arity() {
        assert!(Relation::new(schema2(), vec![row![1, "a"]]).is_ok());
        let err = Relation::new(schema2(), vec![row![1, "a"], row![1]]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("row 1 has 1 values"), "{msg}");
        assert!(msg.contains("has 2 columns"), "{msg}");
    }

    #[test]
    fn bag_eq_ignores_order_but_not_multiplicity() {
        let a = Relation::new(schema2(), vec![row![1, "a"], row![2, "b"], row![1, "a"]]).unwrap();
        let b = Relation::new(schema2(), vec![row![2, "b"], row![1, "a"], row![1, "a"]]).unwrap();
        assert!(a.bag_eq(&b));
        let c = Relation::new(schema2(), vec![row![1, "a"], row![2, "b"], row![2, "b"]]).unwrap();
        assert!(!a.bag_eq(&c));
        let d = Relation::new(schema2(), vec![row![1, "a"], row![2, "b"]]).unwrap();
        assert!(!a.bag_eq(&d));
    }

    #[test]
    fn bag_diff_reports_both_sides() {
        let a = Relation::new(schema2(), vec![row![1, "a"]]).unwrap();
        let b = Relation::new(schema2(), vec![row![2, "b"]]).unwrap();
        let d = a.bag_diff(&b);
        assert!(d.contains("[1, a]x1"), "{d}");
        assert!(d.contains("[2, b]x1"), "{d}");
    }

    #[test]
    fn sort_by_columns_is_stable() {
        let mut r =
            Relation::new(schema2(), vec![row![2, "x"], row![1, "b"], row![1, "a"], row![2, "a"]])
                .unwrap();
        r.sort_by_columns(&[0]);
        // Ties keep input order: (1,"b") before (1,"a").
        assert_eq!(r.rows()[0], row![1, "b"]);
        assert_eq!(r.rows()[1], row![1, "a"]);
        r.sort_by_columns(&[1]);
        assert_eq!(r.rows()[0], row![1, "a"]);
    }

    #[test]
    fn distinct_values_sorted() {
        let r = Relation::new(schema2(), vec![row![3, "a"], row![1, "b"], row![3, "c"]]).unwrap();
        assert_eq!(r.distinct_values(0), vec![Value::Int(1), Value::Int(3)]);
    }

    #[test]
    fn table_rendering() {
        let r = Relation::new(schema2(), vec![row![1, "alice"]]).unwrap();
        let s = r.to_table_string();
        assert!(s.contains("| k | v     |"), "{s}");
        assert!(s.contains("| 1 | alice |"), "{s}");
    }

    #[test]
    fn push_and_into_rows() {
        let mut r = Relation::empty(schema2());
        assert!(r.is_empty());
        r.push(row![1, "a"]);
        assert_eq!(r.len(), 1);
        assert_eq!(r.into_rows(), vec![row![1, "a"]]);
    }

    #[test]
    fn apply_delta_appends_deletes_and_bumps_version() {
        let mut r =
            Relation::new(schema2(), vec![row![1, "a"], row![2, "b"], row![1, "a"]]).unwrap();
        assert_eq!(r.version(), 0);
        let delta = crate::DeltaBatch::new(vec![row![3, "c"]], vec![row![1, "a"]]);
        r.apply_delta(&delta).unwrap();
        assert_eq!(r.version(), 1);
        // Bag delete removes the FIRST matching occurrence; appends land at the end.
        assert_eq!(r.rows(), &[row![2, "b"], row![1, "a"], row![3, "c"]]);
        // Empty batch is a no-op (no version bump).
        r.apply_delta(&crate::DeltaBatch::default()).unwrap();
        assert_eq!(r.version(), 1);
        // Phantom delete: error, relation untouched.
        let err = r.apply_delta(&crate::DeltaBatch::deletes(vec![row![9, "z"]])).unwrap_err();
        assert!(err.to_string().contains("not present"), "{err}");
        assert_eq!(r.version(), 1);
        assert_eq!(r.len(), 3);
        // Arity mismatch is rejected up front.
        assert!(r.apply_delta(&crate::DeltaBatch::appends(vec![row![1]])).is_err());
    }

    #[test]
    fn mutating_paths_bump_the_version_stamp() {
        let mut r = Relation::new(schema2(), vec![row![2, "b"], row![1, "a"]]).unwrap();
        r.push(row![3, "c"]);
        assert_eq!(r.version(), 1);
        r.sort_by_columns(&[0]);
        assert_eq!(r.version(), 2);
        assert_eq!(r.rows()[0], row![1, "a"]);
    }
}
