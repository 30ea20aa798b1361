//! Leaf scans: base tables and the `$group` temporary relation.
//!
//! Both scans emit zero-copy windows onto the relation they read (a
//! catalog snapshot or the bound `GApply` group): each batch is a row
//! range of the shared `Arc<Relation>`, so scanning clones no tuple.
//! Rows are copied only by an operator that keeps or owns them — a
//! filter copies the rows it keeps, a hash build the rows it stores.

use crate::context::ExecContext;
use crate::ops::{BoxedOp, PhysicalOp};
use std::sync::Arc;
use xmlpub_common::{Relation, Result, Schema, TupleBatch};

/// The next `batch_size`-row window onto `data`, advancing `pos`;
/// `None` once exhausted.
fn next_window(
    data: &Arc<Relation>,
    schema: &Schema,
    pos: &mut usize,
    batch_size: usize,
) -> Option<TupleBatch> {
    let len = data.len();
    if *pos >= len {
        return None;
    }
    let end = (*pos + batch_size.max(1)).min(len);
    let range = *pos..end;
    *pos = end;
    Some(TupleBatch::window(schema.clone(), Arc::clone(data), range))
}

/// Full scan of a catalog table.
pub struct TableScan {
    table: String,
    schema: Schema,
    data: Option<Arc<Relation>>,
    pos: usize,
}

impl TableScan {
    /// Scan `table`; `schema` is the binder-qualified schema.
    pub fn new(table: impl Into<String>, schema: Schema) -> Self {
        TableScan { table: table.into(), schema, data: None, pos: 0 }
    }
}

impl PhysicalOp for TableScan {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.data = Some(ctx.catalog.data(&self.table)?);
        self.pos = 0;
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<TupleBatch>> {
        let data = self.data.as_ref().expect("TableScan::next_batch before open");
        match next_window(data, &self.schema, &mut self.pos, ctx.batch_size) {
            Some(batch) => {
                ctx.stats.rows_scanned += batch.len() as u64;
                Ok(Some(batch))
            }
            None => Ok(None),
        }
    }

    fn close(&mut self, _ctx: &mut ExecContext<'_>) -> Result<()> {
        self.data = None;
        self.pos = 0;
        Ok(())
    }

    fn clone_op(&self) -> BoxedOp {
        Box::new(TableScan::new(self.table.clone(), self.schema.clone()))
    }
}

/// Scan of the relation-valued parameter bound by the nearest enclosing
/// `GApply` — the paper's "leaf scan operator \[that\] understands this to
/// be a temporary relation and reads from it".
pub struct GroupScan {
    schema: Schema,
    data: Option<Arc<Relation>>,
    pos: usize,
}

impl GroupScan {
    /// Scan the bound group; `schema` must match the binding.
    pub fn new(schema: Schema) -> Self {
        GroupScan { schema, data: None, pos: 0 }
    }
}

impl PhysicalOp for GroupScan {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.data = Some(Arc::clone(ctx.current_group()?));
        self.pos = 0;
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<TupleBatch>> {
        let data = self.data.as_ref().expect("GroupScan::next_batch before open");
        match next_window(data, &self.schema, &mut self.pos, ctx.batch_size) {
            Some(batch) => {
                ctx.stats.group_rows_scanned += batch.len() as u64;
                Ok(Some(batch))
            }
            None => Ok(None),
        }
    }

    fn close(&mut self, _ctx: &mut ExecContext<'_>) -> Result<()> {
        self.data = None;
        self.pos = 0;
        Ok(())
    }

    fn clone_op(&self) -> BoxedOp {
        Box::new(GroupScan::new(self.schema.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::drain;
    use xmlpub_algebra::{Catalog, TableDef};
    use xmlpub_common::{row, DataType, Field};

    fn test_catalog() -> Catalog {
        let schema =
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Str)]);
        let def = TableDef::new("t", schema);
        let data = Relation::new(def.schema.clone(), vec![row![1, "a"], row![2, "b"]]).unwrap();
        let mut cat = Catalog::new();
        cat.register(def, data).unwrap();
        cat
    }

    #[test]
    fn table_scan_reads_all_rows_and_counts() {
        let cat = test_catalog();
        let mut ctx = ExecContext::new(&cat);
        let mut scan = TableScan::new("t", cat.table("t").unwrap().schema.clone());
        let rows = drain(&mut scan, &mut ctx).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(ctx.stats.rows_scanned, 2);
        // Re-openable: a second drain yields the same rows.
        let rows2 = drain(&mut scan, &mut ctx).unwrap();
        assert_eq!(rows, rows2);
    }

    #[test]
    fn table_scan_missing_table_errors_at_open() {
        let cat = Catalog::new();
        let mut ctx = ExecContext::new(&cat);
        let mut scan = TableScan::new("ghost", Schema::empty());
        assert!(scan.open(&mut ctx).is_err());
    }

    #[test]
    fn group_scan_reads_binding() {
        let cat = test_catalog();
        let mut ctx = ExecContext::new(&cat);
        let schema = cat.table("t").unwrap().schema.clone();
        let group = Relation::new(schema.clone(), vec![row![7, "x"]]).unwrap();
        ctx.groups.push(Arc::new(group));
        let mut scan = GroupScan::new(schema);
        let rows = drain(&mut scan, &mut ctx).unwrap();
        assert_eq!(rows, vec![row![7, "x"]]);
        assert_eq!(ctx.stats.group_rows_scanned, 1);
    }

    #[test]
    fn scan_batches_borrow_the_table_rows() {
        let cat = test_catalog();
        let mut ctx = ExecContext::with_batch_size(&cat, 1);
        let mut scan = TableScan::new("t", cat.table("t").unwrap().schema.clone());
        scan.open(&mut ctx).unwrap();
        let table = cat.data("t").unwrap();
        let mut batches = 0;
        while let Some(mut b) = scan.next_batch(&mut ctx).unwrap() {
            assert_eq!(b.len(), 1);
            assert_eq!(
                b.rows().as_ptr(),
                table.rows()[batches..].as_ptr(),
                "scan batches must borrow, not copy, the table rows"
            );
            // Filtering copies out only the kept rows; the table is untouched.
            b.retain(&[true]);
            assert_ne!(b.rows().as_ptr(), table.rows()[batches..].as_ptr());
            assert_eq!(b.rows(), &table.rows()[batches..=batches]);
            batches += 1;
        }
        scan.close(&mut ctx).unwrap();
        assert_eq!(batches, 2);
    }

    #[test]
    fn group_scan_without_binding_errors() {
        let cat = test_catalog();
        let mut ctx = ExecContext::new(&cat);
        let mut scan = GroupScan::new(Schema::empty());
        assert!(scan.open(&mut ctx).is_err());
    }
}
