//! The built-in lint passes.

mod properties;
mod provenance;
mod schema_preservation;
mod side_conditions;
mod structure;

pub use properties::{check_tagger_safety, Properties};
pub use provenance::{origins, ColumnProvenance, Origin};
pub use schema_preservation::SchemaPreservation;
pub use side_conditions::SideConditions;
pub use structure::Structure;
