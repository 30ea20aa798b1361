//! XML publishing middleware.
//!
//! The application layer the paper's queries come from:
//!
//! * [`view`] — XML view definitions over relational data in the style of
//!   Figure 1: a tree of element nodes, each backed by a query and bound
//!   to its parent through join columns;
//! * [`souq`] — the *sorted outer union* query generator (XPeranto
//!   style, \[17\]): one relational plan whose output, clustered by the
//!   element keys, drives a constant-space tagger;
//! * [`tagger`] — the constant-space tagger: a single pass over the
//!   key-clustered tuple stream emitting XML text, holding only the
//!   current ancestor path;
//! * [`xquery`] — the XQuery subset the paper's examples use (FLWR over
//!   a view, per-element aggregates, where-clauses over the subtree) and
//!   its translation to *both* SQL formulations: the classic §2 form
//!   (sorted outer union with correlated subqueries) and the §3.1
//!   `gapply` form;
//! * [`workloads`] — the paper's evaluation queries Q1–Q4, each in both
//!   formulations, plus the parameterised queries behind the Table 1
//!   rule sweeps.

pub mod souq;
pub mod tagger;
pub mod view;
pub mod workloads;
pub mod xquery;

pub use souq::{sorted_outer_union, sorted_outer_union_for_keys};
pub use tagger::{tag, StreamingTagger};
pub use view::{
    customer_orders_view, named_view, supplier_parts_view, view_names, FieldKind, FieldMap,
    ViewNode, XmlView,
};
