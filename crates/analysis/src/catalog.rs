//! Base facts the analyzer seeds from the catalog: primary keys and
//! foreign keys resolved to column indices, plus exact row counts.

use std::collections::BTreeMap;
use xmlpub_algebra::{Catalog, ResolvedForeignKey};
use xmlpub_common::ColumnSet;

/// Declared constraints of one table, resolved to column positions.
#[derive(Debug, Clone, Default)]
pub struct TableProperties {
    /// Primary key as column indices, if one is declared and every
    /// named column resolves.
    pub key: Option<ColumnSet>,
    /// Exact row count at the time the properties were captured.
    pub rows: u64,
    /// Declared foreign keys, resolved to positions on both sides.
    pub foreign_keys: Vec<ResolvedForeignKey>,
}

/// Catalog-derived base facts, the seed of every derivation.
#[derive(Debug, Clone, Default)]
pub struct CatalogProperties {
    tables: BTreeMap<String, TableProperties>,
}

impl CatalogProperties {
    /// No base facts: every scan derives `bottom`.
    pub fn empty() -> Self {
        CatalogProperties::default()
    }

    /// Capture key/FK/row-count facts from a catalog. A key whose
    /// columns fail to resolve is dropped (sound: the analyzer just
    /// knows less); foreign keys come as the catalog resolved them.
    pub fn from_catalog(catalog: &Catalog) -> Self {
        let mut tables = BTreeMap::new();
        for def in catalog.tables() {
            let key = if def.primary_key.is_empty() {
                None
            } else {
                def.primary_key.iter().map(|n| def.schema.resolve(None, n).ok()).collect()
            };
            let foreign_keys = catalog.foreign_keys(&def.name).to_vec();
            let rows = catalog.data(&def.name).map(|r| r.len() as u64).unwrap_or(0);
            tables
                .insert(def.name.to_ascii_lowercase(), TableProperties { key, rows, foreign_keys });
        }
        CatalogProperties { tables }
    }

    /// Base facts for `name`, if captured.
    pub fn table(&self, name: &str) -> Option<&TableProperties> {
        self.tables.get(&name.to_ascii_lowercase())
    }

    /// The resolved foreign keys of `name` (empty if not captured).
    pub fn foreign_keys(&self, name: &str) -> &[ResolvedForeignKey] {
        self.table(name).map_or(&[], |t| t.foreign_keys.as_slice())
    }
}
