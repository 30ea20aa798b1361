//! Shared data model for the XML-publishing reproduction workspace.
//!
//! This crate defines the bottom layer every other crate builds on:
//!
//! * [`Value`] — a dynamically typed SQL value with NULL, total ordering
//!   and hashing (so values can key hash tables even when they are floats);
//! * [`DataType`], [`Field`] and [`Schema`] — column metadata with
//!   qualified-name resolution for the binder;
//! * [`Tuple`] and [`Relation`] — rows and in-memory multiset tables
//!   (the engine follows the paper's multiset semantics throughout);
//! * [`TupleBatch`] — the schema-carrying batch of rows the engine's
//!   operators pass between them (owned, or a zero-copy window onto a
//!   relation);
//! * [`ColumnSet`] — ordered column-index sets used by the paper's static
//!   analyses (covering ranges, gp-eval columns, required columns);
//! * [`Error`] — the workspace-wide error type.

pub mod batch;
pub mod colset;
pub mod delta;
pub mod error;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod value;

pub use batch::{TupleBatch, DEFAULT_BATCH_SIZE};
pub use colset::ColumnSet;
pub use delta::DeltaBatch;
pub use error::{Error, Result};
pub use relation::Relation;
pub use schema::{Field, Schema};
pub use tuple::Tuple;
pub use value::{DataType, Value};
