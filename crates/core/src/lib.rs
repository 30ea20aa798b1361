//! `xmlpub` — the public facade of the reproduction.
//!
//! A downstream user gets one type, [`Database`]: register tables (or
//! generate TPC-H data), run SQL — including the paper's `gapply`
//! extension — through the full parse → bind → optimize → execute stack,
//! inspect plans before and after the §4 transformation rules, and
//! publish XML views through the sorted-outer-union + constant-space
//! tagger pipeline.
//!
//! ```
//! use xmlpub::Database;
//!
//! let db = Database::tpch(0.001).unwrap();
//! let result = db
//!     .sql(
//!         "select gapply(select count(*), avg(p_retailprice) from g) as (n, avgprice) \
//!          from partsupp, part where ps_partkey = p_partkey \
//!          group by ps_suppkey : g",
//!     )
//!     .unwrap();
//! assert_eq!(result.len(), 10); // one row per supplier at SF 0.001
//! ```

pub mod database;
pub mod request;

pub use database::{Config, Database};
pub use request::{
    analyze_report, optimize, optimize_view, parse, run, Executed, RowSink, Sink, XmlSink,
};

// Re-export the workspace layers under stable paths.
pub use xmlpub_algebra as algebra;
pub use xmlpub_common as common;
pub use xmlpub_engine as engine;
pub use xmlpub_expr as expr;
pub use xmlpub_lint as lint;
pub use xmlpub_obs as obs;
pub use xmlpub_optimizer as optimizer;
pub use xmlpub_sql as sql;
pub use xmlpub_tpch as tpch;
pub use xmlpub_xml as xml;

// The everyday types at the crate root.
pub use xmlpub_algebra::{Catalog, LogicalPlan, TableDef};
pub use xmlpub_common::{
    DataType, Error, Field, Relation, Result, Schema, Tuple, TupleBatch, Value, DEFAULT_BATCH_SIZE,
};
pub use xmlpub_engine::{EngineConfig, ExecStats, OpProfile, PartitionStrategy};
pub use xmlpub_lint::{Diagnostic, LintRegistry, Severity};
pub use xmlpub_obs::{
    normalized_tree, parse_text, render_text, BufferSink, MetricsHandle, MetricsSnapshot,
    ObsContext, Registry, SpanRecord, TraceHandle,
};
pub use xmlpub_optimizer::{OptimizerConfig, RuleFiring, RuleSet};
