//! Debug-mode runtime validation of statically inferred plan properties.
//!
//! When [`EngineConfig::check_props`](crate::EngineConfig::check_props)
//! is on (`XMLPUB_CHECK_PROPS=1`), the executor derives
//! [`PlanProperties`] for the plan it is about to run and asserts every
//! inferred fact against the actual result stream: candidate keys stay
//! duplicate-free, the derived sort order holds across batch boundaries,
//! non-nullable columns never produce NULL, and the final row count
//! lands inside the derived cardinality interval. A violation means a
//! transfer function (or an operator) is wrong and surfaces as an
//! execution error naming the broken property — the runtime half of the
//! differential oracle, complementing the lint pass's re-derivations.

use std::cmp::Ordering;
use std::collections::HashSet;
use xmlpub_analysis::PlanProperties;
use xmlpub_common::{Error, Result, Tuple, TupleBatch, Value};

/// Stop tracking key uniqueness once this many rows have been
/// remembered, so the checker cannot hold a large result in memory
/// twice. Order, nullability and cardinality checks are O(1) per row
/// and stay active regardless.
const KEY_TRACK_LIMIT: usize = 1 << 20;

/// Asserts a stream of batches against statically derived properties.
pub struct PropChecker {
    props: PlanProperties,
    rows_seen: u64,
    last_row: Option<Tuple>,
    /// One seen-set per derived candidate key (same index as
    /// `props.keys`), or `None` once the tracking limit is hit.
    key_seen: Option<Vec<HashSet<Vec<Value>>>>,
}

impl PropChecker {
    /// A checker for a stream claimed to satisfy `props`.
    pub fn new(props: PlanProperties) -> Self {
        let key_seen = Some(props.keys.iter().map(|_| HashSet::new()).collect());
        PropChecker { props, rows_seen: 0, last_row: None, key_seen }
    }

    /// Validate one batch (call in stream order).
    pub fn observe(&mut self, batch: &TupleBatch) -> Result<()> {
        for row in batch.rows() {
            self.observe_row(row)?;
        }
        self.rows_seen += batch.len() as u64;
        if let Some(hi) = self.props.cardinality.hi {
            if self.rows_seen > hi {
                return Err(self.violation(format!(
                    "produced {} rows, exceeding the derived cardinality {}",
                    self.rows_seen, self.props.cardinality
                )));
            }
        }
        if self
            .key_seen
            .as_ref()
            .is_some_and(|s| s.iter().map(HashSet::len).sum::<usize>() > KEY_TRACK_LIMIT)
        {
            self.key_seen = None;
        }
        Ok(())
    }

    /// Validate clean exhaustion of the stream (the lower cardinality
    /// bound can only be judged once every row has been produced).
    pub fn finish(&self) -> Result<()> {
        if self.rows_seen < self.props.cardinality.lo {
            return Err(self.violation(format!(
                "produced {} rows, below the derived cardinality {}",
                self.rows_seen, self.props.cardinality
            )));
        }
        Ok(())
    }

    fn observe_row(&mut self, row: &Tuple) -> Result<()> {
        if row.len() != self.props.arity {
            return Err(self.violation(format!(
                "row has {} columns, derived arity is {}",
                row.len(),
                self.props.arity
            )));
        }
        for (col, nullable) in self.props.nullable.iter().enumerate() {
            if !nullable && matches!(row.value(col), Value::Null) {
                return Err(self.violation(format!(
                    "column #{col} was derived non-nullable but produced NULL"
                )));
            }
        }
        if let Some(prev) = &self.last_row {
            for key in &self.props.order {
                match prev.value(key.col).total_cmp(row.value(key.col)) {
                    Ordering::Equal => continue,
                    Ordering::Less if key.asc => break,
                    Ordering::Greater if !key.asc => break,
                    _ => {
                        return Err(self.violation(format!(
                            "rows out of the derived sort order at column {key}"
                        )))
                    }
                }
            }
        }
        if let Some(seen) = &mut self.key_seen {
            for (key, set) in self.props.keys.iter().zip(seen.iter_mut()) {
                let projected: Vec<Value> = key.iter().map(|c| row.value(c).clone()).collect();
                if !set.insert(projected) {
                    let shown = key.to_string();
                    return Err(self.violation(format!(
                        "two rows agree on the derived candidate key {shown}"
                    )));
                }
            }
        }
        self.last_row = Some(row.clone());
        Ok(())
    }

    fn violation(&self, msg: String) -> Error {
        Error::exec(format!("property check failed: {msg} (derived: {})", self.props.summary()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlpub_analysis::{CardRange, OrderKey};
    use xmlpub_common::{row, DataType, Field, Schema};

    fn props2() -> PlanProperties {
        let mut p = PlanProperties::bottom(2);
        p.add_key(std::iter::once(0).collect());
        p.order = vec![OrderKey::asc(0)];
        p.nullable = vec![false, true];
        p.cardinality = CardRange::between(1, 3);
        p
    }

    fn batch(rows: Vec<Tuple>) -> TupleBatch {
        let schema =
            Schema::new(vec![Field::new("a", DataType::Int), Field::new("b", DataType::Int)]);
        TupleBatch::new(schema, rows)
    }

    #[test]
    fn clean_stream_passes() {
        let mut c = PropChecker::new(props2());
        c.observe(&batch(vec![row![1, Value::Null], row![2, 5]])).unwrap();
        c.observe(&batch(vec![row![3, 5]])).unwrap();
        c.finish().unwrap();
    }

    #[test]
    fn duplicate_key_is_caught() {
        let mut c = PropChecker::new(props2());
        let err = c.observe(&batch(vec![row![1, 1], row![1, 2]])).unwrap_err();
        assert!(err.to_string().contains("candidate key"), "{err}");
    }

    #[test]
    fn order_violation_is_caught_across_batches() {
        let mut c = PropChecker::new(props2());
        c.observe(&batch(vec![row![2, 1]])).unwrap();
        let err = c.observe(&batch(vec![row![1, 1]])).unwrap_err();
        assert!(err.to_string().contains("sort order"), "{err}");
    }

    #[test]
    fn null_in_nonnull_column_is_caught() {
        let err =
            PropChecker::new(props2()).observe(&batch(vec![row![Value::Null, 1]])).unwrap_err();
        assert!(err.to_string().contains("non-nullable"), "{err}");
    }

    /// Batches have one (row) representation, so the per-row arity
    /// check is the only path; the name predates the columnar layer.
    #[test]
    fn arity_mismatch_is_caught_for_both_representations() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
            Field::new("c", DataType::Int),
        ]);
        let wide = TupleBatch::new(schema, vec![row![1, 2, 3]]);
        let err = PropChecker::new(props2()).observe(&wide).unwrap_err();
        assert!(err.to_string().contains("derived arity"), "{err}");
    }

    #[test]
    fn cardinality_bounds_are_enforced() {
        let mut c = PropChecker::new(props2());
        let err =
            c.observe(&batch(vec![row![1, 1], row![2, 1], row![3, 1], row![4, 1]])).unwrap_err();
        assert!(err.to_string().contains("exceeding"), "{err}");

        let c = PropChecker::new(props2());
        let err = c.finish().unwrap_err();
        assert!(err.to_string().contains("below"), "{err}");
    }
}
