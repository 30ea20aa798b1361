//! Catalog: table definitions, key metadata, and the in-memory store.
//!
//! The invariant-grouping rule (§4.3) may only move a `GApply` below a
//! *foreign-key join*, so the catalog records primary keys and foreign
//! keys alongside schemas. Table data lives here too — this workspace's
//! "storage engine" is an in-memory [`Relation`] per table.
//!
//! Since the update workload opened (PR 9), table data is *versioned
//! and interior-mutable*: each table holds its relation behind an
//! `RwLock` next to a monotonically increasing version and a bounded
//! log of the [`DeltaBatch`]es that produced recent versions. Readers
//! ([`Catalog::data`]) snapshot the `Arc<Relation>` — a scan holds the
//! version it started on for its whole lifetime, unperturbed by
//! concurrent writers — while [`Catalog::apply_delta`] installs the
//! next version copy-on-write (in place when no reader still pins the
//! previous snapshot). Incremental consumers call
//! [`Catalog::deltas_since`] to catch up from the version they derived
//! their state at; `None` means the log has been trimmed past that
//! point and the consumer must rebuild from scratch.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, RwLock};
use xmlpub_common::{DeltaBatch, Error, Relation, Result, Schema};

/// Delta-log entries retained per table. Bounds memory under a sustained
/// update stream; consumers further behind than this fall back to a full
/// rebuild (`deltas_since` returns `None`).
pub const DELTA_LOG_CAPACITY: usize = 64;

/// A foreign-key constraint: `columns` of the owning table reference
/// `ref_columns` (a key) of `ref_table`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing columns (in the owning table).
    pub columns: Vec<String>,
    /// Referenced table.
    pub ref_table: String,
    /// Referenced key columns.
    pub ref_columns: Vec<String>,
}

/// A [`ForeignKey`] resolved to column positions when its tables are
/// registered: `columns[i]` of the owning table references
/// `ref_columns[i]` of `ref_table`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedForeignKey {
    /// Referencing columns (positions in the owning table).
    pub columns: Vec<usize>,
    /// Referenced table (lowercase).
    pub ref_table: String,
    /// Referenced columns (positions in `ref_table`).
    pub ref_columns: Vec<usize>,
}

/// A table definition: schema plus key metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDef {
    /// Table name (lower-cased for lookup).
    pub name: String,
    /// Column schema (fields qualified by the table name).
    pub schema: Schema,
    /// Primary-key column names (empty when keyless).
    pub primary_key: Vec<String>,
    /// Outgoing foreign keys.
    pub foreign_keys: Vec<ForeignKey>,
}

impl TableDef {
    /// A keyless table definition.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let name = name.into();
        let schema = schema.with_qualifier(&name);
        TableDef { name, schema, primary_key: Vec::new(), foreign_keys: Vec::new() }
    }

    /// Set the primary key.
    pub fn with_primary_key(mut self, cols: &[&str]) -> Self {
        self.primary_key = cols.iter().map(|c| c.to_string()).collect();
        self
    }

    /// Add a foreign key.
    pub fn with_foreign_key(mut self, cols: &[&str], ref_table: &str, ref_cols: &[&str]) -> Self {
        self.foreign_keys.push(ForeignKey {
            columns: cols.iter().map(|c| c.to_string()).collect(),
            ref_table: ref_table.to_string(),
            ref_columns: ref_cols.iter().map(|c| c.to_string()).collect(),
        });
        self
    }
}

/// One table's mutable state: the current snapshot, its version, and
/// the recent delta history.
#[derive(Debug)]
struct TableState {
    /// Current snapshot. Readers clone the `Arc`; writers install the
    /// next version with `Arc::make_mut` (in place when unshared).
    data: Arc<Relation>,
    /// Version of `data`. 0 at registration, +1 per applied batch.
    version: u64,
    /// Recent history: `(v, batch)` means applying `batch` to version
    /// `v - 1` produced version `v`. Contiguous, newest at the back,
    /// trimmed at [`DELTA_LOG_CAPACITY`].
    log: VecDeque<(u64, DeltaBatch)>,
}

#[derive(Debug)]
struct TableEntry {
    /// Definition — immutable after registration, readable without
    /// taking the state lock (the binder and the static analyses only
    /// ever touch this part).
    def: TableDef,
    /// The declared foreign keys whose tables are both registered.
    foreign_keys: Vec<ResolvedForeignKey>,
    state: RwLock<TableState>,
}

/// A named collection of tables with their (versioned) data.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: BTreeMap<String, TableEntry>,
}

impl Clone for Catalog {
    /// Snapshot clone: the new catalog sees every table at its current
    /// version with an empty history, and is not connected to the
    /// original — updates on either side are invisible to the other.
    fn clone(&self) -> Self {
        let tables = self
            .tables
            .iter()
            .map(|(k, e)| {
                let state = e.state.read().expect("catalog lock poisoned");
                (
                    k.clone(),
                    TableEntry {
                        def: e.def.clone(),
                        foreign_keys: e.foreign_keys.clone(),
                        state: RwLock::new(TableState {
                            data: Arc::clone(&state.data),
                            version: state.version,
                            log: state.log.clone(),
                        }),
                    },
                )
            })
            .collect();
        Catalog { tables }
    }
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a table. The relation's schema must have the same arity
    /// as the definition.
    pub fn register(&mut self, def: TableDef, data: Relation) -> Result<()> {
        let key = def.name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(Error::Catalog(format!("table '{}' already exists", def.name)));
        }
        if def.schema.len() != data.schema().len() {
            return Err(Error::Catalog(format!(
                "table '{}': definition has {} columns but data has {}",
                def.name,
                def.schema.len(),
                data.schema().len()
            )));
        }
        self.tables.insert(
            key,
            TableEntry {
                def,
                foreign_keys: Vec::new(),
                state: RwLock::new(TableState {
                    data: Arc::new(data),
                    version: 0,
                    log: VecDeque::new(),
                }),
            },
        );
        // Resolve every table's foreign keys again: the new table may be
        // the one another table's key references.
        let resolved: Vec<_> =
            self.tables.values().map(|e| self.resolve_foreign_keys(&e.def)).collect();
        for (e, fks) in self.tables.values_mut().zip(resolved) {
            e.foreign_keys = fks;
        }
        Ok(())
    }

    /// The foreign keys of `def` whose referenced table is registered,
    /// with every column name resolved. A key whose names do not all
    /// resolve, or whose two sides differ in length, is dropped.
    fn resolve_foreign_keys(&self, def: &TableDef) -> Vec<ResolvedForeignKey> {
        let positions = |schema: &Schema, names: &[String]| -> Option<Vec<usize>> {
            names.iter().map(|n| schema.resolve(None, n).ok()).collect()
        };
        def.foreign_keys
            .iter()
            .filter_map(|fk| {
                let target = self.table(&fk.ref_table).ok()?;
                let columns = positions(&def.schema, &fk.columns)?;
                let ref_columns = positions(&target.schema, &fk.ref_columns)?;
                (!columns.is_empty() && columns.len() == ref_columns.len()).then(|| {
                    ResolvedForeignKey {
                        columns,
                        ref_table: target.name.to_ascii_lowercase(),
                        ref_columns,
                    }
                })
            })
            .collect()
    }

    fn entry(&self, name: &str) -> Result<&TableEntry> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| Error::Catalog(format!("no such table '{name}'")))
    }

    /// Look up a table definition.
    pub fn table(&self, name: &str) -> Result<&TableDef> {
        self.entry(name).map(|e| &e.def)
    }

    /// Look up a table's data — a snapshot: the returned `Arc` keeps
    /// observing the version current at the call even if a writer
    /// installs newer versions afterwards.
    pub fn data(&self, name: &str) -> Result<Arc<Relation>> {
        let e = self.entry(name)?;
        Ok(Arc::clone(&e.state.read().expect("catalog lock poisoned").data))
    }

    /// The current version of a table (0 until the first delta).
    pub fn version(&self, name: &str) -> Result<u64> {
        Ok(self.entry(name)?.state.read().expect("catalog lock poisoned").version)
    }

    /// Apply a batch of appends/deletes to a table, returning the new
    /// version. The new snapshot is installed copy-on-write: when no
    /// reader still pins the previous `Arc` the relation is extended in
    /// place, so
    /// steady-state update cost tracks the batch, not the table; a
    /// pinned snapshot forces one fork and is itself never touched.
    pub fn apply_delta(&self, name: &str, delta: &DeltaBatch) -> Result<u64> {
        let e = self.entry(name)?;
        let mut state = e.state.write().expect("catalog lock poisoned");
        if delta.is_empty() {
            return Ok(state.version);
        }
        // `Relation::apply_delta` validates the whole batch (arity,
        // phantom deletes) before it mutates, so a failed apply leaves
        // the published contents as they were even after a fork.
        Arc::make_mut(&mut state.data).apply_delta(delta)?;
        state.version += 1;
        let v = state.version;
        state.log.push_back((v, delta.clone()));
        while state.log.len() > DELTA_LOG_CAPACITY {
            state.log.pop_front();
        }
        Ok(v)
    }

    /// The contiguous run of deltas that advances version `since` to the
    /// current version, oldest first. `Some(vec![])` when the table is
    /// still at `since`; `None` when the log no longer reaches back that
    /// far (or `since` is from the future) — the caller must rebuild
    /// from a fresh snapshot.
    pub fn deltas_since(&self, name: &str, since: u64) -> Result<Option<Vec<DeltaBatch>>> {
        let e = self.entry(name)?;
        let state = e.state.read().expect("catalog lock poisoned");
        if since > state.version {
            return Ok(None);
        }
        if since == state.version {
            return Ok(Some(Vec::new()));
        }
        match state.log.front() {
            Some(&(oldest, _)) if oldest <= since + 1 => Ok(Some(
                state.log.iter().filter(|(v, _)| *v > since).map(|(_, b)| b.clone()).collect(),
            )),
            _ => Ok(None),
        }
    }

    /// Iterate registered table definitions (sorted by name).
    pub fn tables(&self) -> impl Iterator<Item = &TableDef> {
        self.tables.values().map(|e| &e.def)
    }

    /// The declared foreign keys of `table`, resolved to column
    /// positions (empty for an unknown table).
    pub fn foreign_keys(&self, table: &str) -> &[ResolvedForeignKey] {
        self.entry(table).map_or(&[], |e| e.foreign_keys.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogicalPlan;
    use xmlpub_common::{row, DataType, Field};

    fn supplier_def() -> TableDef {
        TableDef::new(
            "supplier",
            Schema::new(vec![
                Field::new("s_suppkey", DataType::Int),
                Field::new("s_name", DataType::Str),
            ]),
        )
        .with_primary_key(&["s_suppkey"])
    }

    fn partsupp_def() -> TableDef {
        TableDef::new(
            "partsupp",
            Schema::new(vec![
                Field::new("ps_suppkey", DataType::Int),
                Field::new("ps_partkey", DataType::Int),
            ]),
        )
        .with_primary_key(&["ps_suppkey", "ps_partkey"])
        .with_foreign_key(&["ps_suppkey"], "supplier", &["s_suppkey"])
    }

    fn sample_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let sup = supplier_def();
        let data =
            Relation::new(sup.schema.clone(), vec![row![1, "Acme"], row![2, "Globex"]]).unwrap();
        cat.register(sup, data).unwrap();
        let ps = partsupp_def();
        let data = Relation::new(ps.schema.clone(), vec![row![1, 10], row![1, 11]]).unwrap();
        cat.register(ps, data).unwrap();
        cat
    }

    #[test]
    fn register_and_lookup() {
        let cat = sample_catalog();
        assert_eq!(cat.table("SUPPLIER").unwrap().name, "supplier");
        assert_eq!(cat.data("supplier").unwrap().len(), 2);
        assert!(cat.table("nope").is_err());
        assert!(cat.data("nope").is_err());
        assert_eq!(cat.tables().count(), 2);
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut cat = sample_catalog();
        let dup = supplier_def();
        let data = Relation::empty(dup.schema.clone());
        assert!(cat.register(dup, data).is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut cat = Catalog::new();
        let def = supplier_def();
        let bad = Relation::empty(Schema::new(vec![Field::new("x", DataType::Int)]));
        assert!(cat.register(def, bad).is_err());
    }

    #[test]
    fn table_schema_is_qualified() {
        let cat = sample_catalog();
        let def = cat.table("supplier").unwrap();
        assert_eq!(def.schema.field(0).qualifier.as_deref(), Some("supplier"));
    }

    #[test]
    fn fk_join_detection() {
        use crate::analysis::{follows_foreign_key, scan_lineage};
        use xmlpub_expr::{split_equi_join, Expr};
        // Registered before the table it references: the key onto
        // supplier resolves once supplier arrives; the key onto part,
        // never registered, stays unresolved.
        let mut cat = Catalog::new();
        let ps = partsupp_def().with_foreign_key(&["PS_PARTKEY"], "Part", &["p_partkey"]);
        cat.register(ps.clone(), Relation::empty(ps.schema.clone())).unwrap();
        assert!(cat.foreign_keys("partsupp").is_empty());
        let sup = supplier_def();
        cat.register(sup.clone(), Relation::empty(sup.schema.clone())).unwrap();
        let to_supplier = ResolvedForeignKey {
            columns: vec![0],
            ref_table: "supplier".into(),
            ref_columns: vec![0],
        };
        assert_eq!(cat.foreign_keys("PARTSUPP"), [to_supplier]);
        assert!(cat.foreign_keys("nope").is_empty());

        let scan = |t: &str| LogicalPlan::scan(t, cat.table(t).unwrap().schema.clone());
        let fk = |l: &str, r: &str, pred: Expr| {
            let (left, right) = (scan(l), scan(r));
            let left_lineage = scan_lineage(&left);
            let (pairs, _) = split_equi_join(&pred, left_lineage.len());
            follows_foreign_key(&left_lineage, &scan_lineage(&right), &pairs, |t| {
                cat.foreign_keys(t)
            })
        };
        assert!(fk("partsupp", "supplier", Expr::col(0).eq(Expr::col(2))));
        assert!(fk("PARTSUPP", "Supplier", Expr::col(2).eq(Expr::col(0))));
        assert!(!fk("supplier", "partsupp", Expr::col(0).eq(Expr::col(2))));
        assert!(!fk("partsupp", "supplier", Expr::col(1).eq(Expr::col(2))));
    }

    #[test]
    fn apply_delta_versions_snapshots_and_log() {
        let cat = sample_catalog();
        assert_eq!(cat.version("supplier").unwrap(), 0);
        // A reader snapshot taken before the delta keeps seeing v0.
        let before = cat.data("supplier").unwrap();
        let v = cat
            .apply_delta(
                "supplier",
                &DeltaBatch::new(vec![row![3, "Initech"]], vec![row![2, "Globex"]]),
            )
            .unwrap();
        assert_eq!(v, 1);
        assert_eq!(before.len(), 2, "pre-delta snapshot is immutable");
        let after = cat.data("supplier").unwrap();
        assert_eq!(after.len(), 2);
        assert_eq!(after.rows()[1], row![3, "Initech"]);
        // Catch-up: everything since v0 in one contiguous run.
        let run = cat.deltas_since("supplier", 0).unwrap().expect("log covers v0");
        assert_eq!(run.len(), 1);
        assert_eq!(run[0].appended, vec![row![3, "Initech"]]);
        assert_eq!(cat.deltas_since("supplier", 1).unwrap(), Some(vec![]));
        // Future versions and empty batches.
        assert_eq!(cat.deltas_since("supplier", 9).unwrap(), None);
        assert_eq!(cat.apply_delta("supplier", &DeltaBatch::default()).unwrap(), 1);
        // A failed apply (phantom delete) leaves version and data alone.
        assert!(cat.apply_delta("supplier", &DeltaBatch::deletes(vec![row![99, "nope"]])).is_err());
        assert_eq!(cat.version("supplier").unwrap(), 1);
        assert_eq!(cat.data("supplier").unwrap().len(), 2);
        assert!(cat.apply_delta("nope", &DeltaBatch::default()).is_err());
    }

    #[test]
    fn apply_delta_reuses_the_allocation_unless_a_reader_pins_it() {
        let cat = sample_catalog();
        let ptr = |cat: &Catalog| Arc::as_ptr(&cat.data("supplier").unwrap());
        // Unpinned: the relation is extended in place.
        let before = ptr(&cat);
        cat.apply_delta("supplier", &DeltaBatch::appends(vec![row![3, "Initech"]])).unwrap();
        assert_eq!(ptr(&cat), before, "unpinned delta must not copy the table");
        // Pinned: the writer forks, the reader's snapshot is untouched.
        let pinned = cat.data("supplier").unwrap();
        cat.apply_delta("supplier", &DeltaBatch::appends(vec![row![4, "Umbrella"]])).unwrap();
        assert_ne!(ptr(&cat), Arc::as_ptr(&pinned), "pinned snapshot must be forked");
        assert_eq!(pinned.len(), 3);
        assert_eq!(cat.data("supplier").unwrap().len(), 4);
    }

    #[test]
    fn delta_log_is_bounded_and_trims_oldest() {
        let cat = sample_catalog();
        for i in 0..(DELTA_LOG_CAPACITY as i64 + 8) {
            cat.apply_delta("supplier", &DeltaBatch::appends(vec![row![100 + i, "S"]])).unwrap();
        }
        let v = cat.version("supplier").unwrap();
        assert_eq!(v, DELTA_LOG_CAPACITY as u64 + 8);
        // Too far behind: trimmed.
        assert_eq!(cat.deltas_since("supplier", 0).unwrap(), None);
        // Within the window: a contiguous suffix.
        let run = cat.deltas_since("supplier", v - 5).unwrap().expect("recent");
        assert_eq!(run.len(), 5);
    }

    #[test]
    fn clone_is_a_disconnected_snapshot() {
        let cat = sample_catalog();
        cat.apply_delta("supplier", &DeltaBatch::appends(vec![row![3, "Initech"]])).unwrap();
        let copy = cat.clone();
        assert_eq!(copy.version("supplier").unwrap(), 1);
        cat.apply_delta("supplier", &DeltaBatch::appends(vec![row![4, "Umbrella"]])).unwrap();
        assert_eq!(cat.version("supplier").unwrap(), 2);
        assert_eq!(copy.version("supplier").unwrap(), 1);
        assert_eq!(copy.data("supplier").unwrap().len(), 3);
        copy.apply_delta("supplier", &DeltaBatch::appends(vec![row![5, "Wonka"]])).unwrap();
        assert_eq!(cat.data("supplier").unwrap().len(), 4);
    }
}
