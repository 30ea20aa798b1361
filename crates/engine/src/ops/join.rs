//! Joins: hash join for equi-conjuncts, nested loops for the rest.

use crate::context::ExecContext;
use crate::ops::{key_of, BoxedOp, PhysicalOp};
use std::collections::HashMap;
use xmlpub_common::{Result, Schema, Tuple, TupleBatch, Value};
use xmlpub_expr::Expr;

/// Build-side hash join on `left_keys = right_keys`, with an optional
/// residual predicate over the concatenated row. The *right* input is the
/// build side (in the paper's left-deep trees the right child is a leaf).
/// The build keeps its input batches as they came, so a scan's window
/// stays a window and no build row is copied; the table maps each key to
/// its rows' positions in those batches.
///
/// Each output row is built from one output column list, indices into
/// `left ++ right`: the identity by default, or the bare columns of a
/// projection the planner fused into the join, so a joined row carries
/// only the columns its consumer reads. A probe batch that owns its rows
/// gives each left column's last use in a row's last match (or its pad)
/// the value itself; a window's values are cloned.
pub struct HashJoin {
    left: BoxedOp,
    right: BoxedOp,
    /// Key column indices into the left schema.
    left_keys: Vec<usize>,
    /// Key column indices into the right schema.
    right_keys: Vec<usize>,
    residual: Option<Expr>,
    /// Left outer join: unmatched left rows survive NULL-padded.
    left_outer: bool,
    left_width: usize,
    right_width: usize,
    /// The output columns, indices into `left ++ right`.
    output: Vec<usize>,
    /// Per output column: no later output column reads the same input
    /// column, so an owned row can give its value up.
    last_use: Vec<bool>,
    schema: Schema,
    /// The build input's batches.
    build: Vec<TupleBatch>,
    /// Build key → `(batch, row)` positions in `build`, in build order.
    table: HashMap<Vec<Value>, Vec<(usize, usize)>>,
    built: bool,
}

/// A probe row: borrowed from a window (values cloned) or owned (a value
/// can be moved out at its last use).
trait ProbeRow {
    fn values(&self) -> &[Value];
    /// Column `c`; `last`: no later output of this row reads it.
    fn take(&mut self, c: usize, last: bool) -> Value;
}

impl ProbeRow for &Tuple {
    fn values(&self) -> &[Value] {
        Tuple::values(self)
    }

    fn take(&mut self, c: usize, _last: bool) -> Value {
        self.value(c).clone()
    }
}

impl ProbeRow for Vec<Value> {
    fn values(&self) -> &[Value] {
        self
    }

    fn take(&mut self, c: usize, last: bool) -> Value {
        match last {
            true => std::mem::replace(&mut self[c], Value::Null),
            false => self[c].clone(),
        }
    }
}

impl HashJoin {
    /// Create an inner hash join.
    pub fn new(
        left: BoxedOp,
        right: BoxedOp,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        residual: Option<Expr>,
    ) -> Self {
        HashJoin::with_mode(left, right, left_keys, right_keys, residual, false)
    }

    /// Create a hash join, optionally left-outer.
    pub fn with_mode(
        left: BoxedOp,
        right: BoxedOp,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        residual: Option<Expr>,
        left_outer: bool,
    ) -> Self {
        assert_eq!(left_keys.len(), right_keys.len());
        assert!(!left_keys.is_empty(), "hash join needs at least one key pair");
        let left_width = left.schema().len();
        let right_width = right.schema().len();
        let schema = left.schema().join(right.schema());
        let output: Vec<usize> = (0..left_width + right_width).collect();
        HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
            left_outer,
            left_width,
            right_width,
            last_use: vec![true; output.len()],
            output,
            schema,
            build: Vec::new(),
            table: HashMap::new(),
            built: false,
        }
    }

    /// Emit only the `output` columns of each joined row (indices into
    /// `left ++ right`, repeats allowed), under `schema`: the bare-column
    /// projection a planner fuses into the join.
    pub fn with_output(mut self, output: Vec<usize>, schema: Schema) -> Self {
        assert_eq!(output.len(), schema.len(), "one output column per schema field");
        assert!(output.iter().all(|&c| c < self.left_width + self.right_width));
        self.last_use = (0..output.len()).map(|n| !output[n + 1..].contains(&output[n])).collect();
        self.output = output;
        self.schema = schema;
        self
    }

    fn is_identity(&self) -> bool {
        self.output.len() == self.left_width + self.right_width
            && self.output.iter().enumerate().all(|(i, &c)| i == c)
    }

    /// Probe `batch` against the build table, producing the joined output
    /// in left-row order (each row's matches in build order).
    fn probe(&self, batch: TupleBatch, outers: &[Tuple]) -> Result<Vec<Tuple>> {
        match batch.into_owned_rows() {
            Ok(rows) => self.probe_rows(rows.into_iter().map(Tuple::into_values), outers),
            Err(window) => self.probe_rows(window.rows().iter(), outers),
        }
    }

    /// Without a residual, each match is emitted straight from the probe
    /// row; with one, each candidate is built full width and judged as it
    /// is built, and only a survivor is cut down to the output columns.
    fn probe_rows<R: ProbeRow>(
        &self,
        rows: impl Iterator<Item = R>,
        outers: &[Tuple],
    ) -> Result<Vec<Tuple>> {
        let identity = self.is_identity();
        let mut key = Vec::with_capacity(self.left_keys.len());
        let mut out = Vec::new();
        for mut left_row in rows {
            let start = out.len();
            let matches = self.matches(left_row.values(), &mut key);
            for (n, &(b, r)) in matches.iter().enumerate() {
                let build_row = &self.build[b].rows()[r];
                match &self.residual {
                    None => {
                        let last = n + 1 == matches.len();
                        out.push(self.emit(&mut left_row, last, |c| build_row.value(c).clone()));
                    }
                    Some(residual) => {
                        let left = left_row.values().iter();
                        let row = Tuple::new(left.chain(build_row.values()).cloned().collect());
                        if residual.eval_predicate(&row, outers)? {
                            out.push(if identity { row } else { self.cut(row) });
                        }
                    }
                }
            }
            // Outer join: a left row with no surviving match pads the
            // right side with NULLs.
            if self.left_outer && out.len() == start {
                out.push(self.emit(&mut left_row, true, |_| Value::Null));
            }
        }
        Ok(out)
    }

    /// A full-width joined row cut down to the output columns.
    fn cut(&self, row: Tuple) -> Tuple {
        let mut values = row.into_values();
        let cols = self.output.iter().zip(&self.last_use);
        Tuple::new(cols.map(|(&c, &last)| values.take(c, last)).collect())
    }

    /// The build positions matching `left`'s key; none for a NULL key
    /// (NULL never joins; under left-outer the row falls through to the
    /// pad).
    fn matches<'a>(&'a self, left: &[Value], key: &mut Vec<Value>) -> &'a [(usize, usize)] {
        let k = key_of(left, &self.left_keys, key);
        if k.iter().any(Value::is_null) {
            return &[];
        }
        self.table.get(k).map_or(&[], Vec::as_slice)
    }

    /// One output row from `left_row` and a right side given by
    /// `right(c)`; `last`: this is the row's last output, so its owned
    /// values may move at their last use.
    fn emit<R: ProbeRow>(
        &self,
        left_row: &mut R,
        last: bool,
        right: impl Fn(usize) -> Value,
    ) -> Tuple {
        Tuple::new(
            self.output
                .iter()
                .zip(&self.last_use)
                .map(|(&c, &last_use)| match c.checked_sub(self.left_width) {
                    None => left_row.take(c, last && last_use),
                    Some(rc) => right(rc),
                })
                .collect(),
        )
    }
}

impl PhysicalOp for HashJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.build.clear();
        self.table.clear();
        self.built = false;
        self.left.open(ctx)?;
        // Build phase over the right input.
        self.right.open(ctx)?;
        let mut key = Vec::with_capacity(self.right_keys.len());
        while let Some(batch) = self.right.next_batch(ctx)? {
            let b = self.build.len();
            for (r, row) in batch.rows().iter().enumerate() {
                let k = key_of(row.values(), &self.right_keys, &mut key);
                // NULL keys never match, so they are never hashed.
                if k.iter().any(Value::is_null) {
                    continue;
                }
                ctx.stats.rows_hashed += 1;
                match self.table.get_mut(k) {
                    Some(positions) => positions.push((b, r)),
                    None => {
                        self.table.insert(k.to_vec(), vec![(b, r)]);
                    }
                }
            }
            self.build.push(batch);
        }
        self.right.close(ctx)?;
        self.built = true;
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<TupleBatch>> {
        debug_assert!(self.built, "HashJoin::next_batch before open");
        loop {
            let Some(batch) = self.left.next_batch(ctx)? else {
                return Ok(None);
            };
            ctx.stats.join_probes += batch.len() as u64;
            let out = self.probe(batch, &ctx.outers)?;
            if !out.is_empty() {
                return Ok(Some(TupleBatch::new(self.schema.clone(), out)));
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.build.clear();
        self.table.clear();
        self.built = false;
        self.left.close(ctx)
    }
}

/// Nested-loops inner join with an arbitrary predicate. The right side is
/// materialised at open.
pub struct NestedLoopJoin {
    left: BoxedOp,
    right: BoxedOp,
    predicate: Expr,
    schema: Schema,
    right_rows: Vec<Tuple>,
}

impl NestedLoopJoin {
    /// Create a nested-loops join.
    pub fn new(left: BoxedOp, right: BoxedOp, predicate: Expr) -> Self {
        let schema = left.schema().join(right.schema());
        NestedLoopJoin { left, right, predicate, schema, right_rows: Vec::new() }
    }
}

impl PhysicalOp for NestedLoopJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.right_rows.clear();
        self.left.open(ctx)?;
        self.right.open(ctx)?;
        while let Some(batch) = self.right.next_batch(ctx)? {
            self.right_rows.extend(batch.into_rows());
        }
        self.right.close(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<TupleBatch>> {
        loop {
            let Some(batch) = self.left.next_batch(ctx)? else {
                return Ok(None);
            };
            ctx.stats.join_probes += batch.len() as u64;
            let mut out = Vec::new();
            for left_row in batch.rows() {
                for right_row in &self.right_rows {
                    let row = left_row.concat(right_row);
                    if self.predicate.eval_predicate(&row, &ctx.outers)? {
                        out.push(row);
                    }
                }
            }
            if !out.is_empty() {
                return Ok(Some(TupleBatch::new(self.schema.clone(), out)));
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.right_rows.clear();
        self.left.close(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::drain;
    use crate::test_support::{ctx_with, values_op2};
    use xmlpub_common::row;

    #[test]
    fn hash_join_matches_keys() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let left = values_op2(vec![row![1, "a"], row![2, "b"], row![3, "c"]]);
        let right = values_op2(vec![row![2, "x"], row![2, "y"], row![4, "z"]]);
        let mut j = HashJoin::new(left, right, vec![0], vec![0], None);
        let rows = drain(&mut j, &mut ctx).unwrap();
        assert_eq!(rows, vec![row![2, "b", 2, "x"], row![2, "b", 2, "y"]]);
        assert_eq!(ctx.stats.rows_hashed, 3);
        assert_eq!(ctx.stats.join_probes, 3);
    }

    #[test]
    fn hash_join_null_keys_never_match() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let left = values_op2(vec![row![xmlpub_common::Value::Null, "l"]]);
        let right = values_op2(vec![row![xmlpub_common::Value::Null, "r"]]);
        let mut j = HashJoin::new(left, right, vec![0], vec![0], None);
        assert!(drain(&mut j, &mut ctx).unwrap().is_empty());
    }

    #[test]
    fn hash_join_residual_filters() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let left = values_op2(vec![row![1, "a"], row![1, "b"]]);
        let right = values_op2(vec![row![1, "b"], row![1, "c"]]);
        // join on col0, residual left.str = right.str
        let mut j =
            HashJoin::new(left, right, vec![0], vec![0], Some(Expr::col(1).eq(Expr::col(3))));
        let rows = drain(&mut j, &mut ctx).unwrap();
        assert_eq!(rows, vec![row![1, "b", 1, "b"]]);
    }

    #[test]
    fn nested_loop_join_arbitrary_predicate() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let left = values_op2(vec![row![1, "a"], row![5, "b"]]);
        let right = values_op2(vec![row![3, "x"], row![4, "y"]]);
        let mut j = NestedLoopJoin::new(left, right, Expr::col(0).lt(Expr::col(2)));
        let rows = drain(&mut j, &mut ctx).unwrap();
        assert_eq!(rows, vec![row![1, "a", 3, "x"], row![1, "a", 4, "y"]]);
    }

    #[test]
    fn left_outer_join_pads_unmatched_rows() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let left = values_op2(vec![row![1, "a"], row![2, "b"], row![3, "c"]]);
        let right = values_op2(vec![row![2, "x"], row![2, "y"]]);
        let mut j = HashJoin::with_mode(left, right, vec![0], vec![0], None, true);
        let rows = drain(&mut j, &mut ctx).unwrap();
        let n = xmlpub_common::Value::Null;
        assert_eq!(
            rows,
            vec![
                row![1, "a", n.clone(), n.clone()],
                row![2, "b", 2, "x"],
                row![2, "b", 2, "y"],
                row![3, "c", n.clone(), n.clone()],
            ]
        );
    }

    #[test]
    fn left_outer_join_null_left_key_survives_padded() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let n = xmlpub_common::Value::Null;
        let left = values_op2(vec![row![n.clone(), "l"]]);
        let right = values_op2(vec![row![n.clone(), "r"], row![1, "x"]]);
        let mut j = HashJoin::with_mode(left, right, vec![0], vec![0], None, true);
        let rows = drain(&mut j, &mut ctx).unwrap();
        // NULL never equals NULL, but the left row survives padded.
        assert_eq!(rows, vec![row![n.clone(), "l", n.clone(), n.clone()]]);
    }

    #[test]
    fn left_outer_join_residual_failure_still_pads() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let left = values_op2(vec![row![1, "a"]]);
        let right = values_op2(vec![row![1, "x"]]);
        // Residual rejects the only match → padded row.
        let mut j =
            HashJoin::with_mode(left, right, vec![0], vec![0], Some(Expr::lit(false)), true);
        let rows = drain(&mut j, &mut ctx).unwrap();
        let n = xmlpub_common::Value::Null;
        assert_eq!(rows, vec![row![1, "a", n.clone(), n.clone()]]);
    }

    #[test]
    fn joins_reopen_cleanly() {
        let (cat, _) = ctx_with();
        let mut ctx = ExecContext::new(&cat);
        let left = values_op2(vec![row![1, "a"]]);
        let right = values_op2(vec![row![1, "x"]]);
        let mut j = HashJoin::new(left, right, vec![0], vec![0], None);
        let a = drain(&mut j, &mut ctx).unwrap();
        let b = drain(&mut j, &mut ctx).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
    }
}
