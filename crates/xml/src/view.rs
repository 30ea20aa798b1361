//! XML view definitions (Figure 1 style).
//!
//! A view is a tree of element nodes. Each node is backed by a base
//! table (or any bound plan), exposes a subset of its columns as child
//! elements, and nests under its parent through an equality between a
//! parent column and one of its own ("the parts are bound to the
//! corresponding suppliers through the binding variable `$s`").

use xmlpub_algebra::{Catalog, LogicalPlan};
use xmlpub_common::{Error, Result};

/// How a relational column appears in the XML output — "relational
/// attributes can be mapped to sub-elements or attributes" (§2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FieldKind {
    /// `<name>value</name>` inside the element.
    #[default]
    Element,
    /// `name="value"` on the element's open tag.
    Attribute,
}

/// One exposed column: source column, output name, and mapping kind.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldMap {
    /// Column index into the node's source schema.
    pub column: usize,
    /// Output element/attribute name.
    pub name: String,
    /// Sub-element or attribute.
    pub kind: FieldKind,
}

impl FieldMap {
    /// A sub-element mapping.
    pub fn element(column: usize, name: impl Into<String>) -> Self {
        FieldMap { column, name: name.into(), kind: FieldKind::Element }
    }

    /// An attribute mapping.
    pub fn attribute(column: usize, name: impl Into<String>) -> Self {
        FieldMap { column, name: name.into(), kind: FieldKind::Attribute }
    }
}

/// One element node of a view.
#[derive(Debug, Clone)]
pub struct ViewNode {
    /// Element name emitted per row (e.g. `supplier`, `part`).
    pub element: String,
    /// The node's relational source.
    pub source: LogicalPlan,
    /// Key columns of `source` identifying one element instance (by
    /// index into `source`'s schema). Also the clustering keys of the
    /// sorted outer union.
    pub key_columns: Vec<usize>,
    /// Exposed columns (sub-elements and attributes).
    pub fields: Vec<FieldMap>,
    /// Child nodes, each with its linkage to this node.
    pub children: Vec<ChildLink>,
}

/// A child node plus its parent linkage.
#[derive(Debug, Clone)]
pub struct ChildLink {
    /// Parent column (index into the parent source schema).
    pub parent_col: usize,
    /// Child column (index into the child source schema) equated with
    /// `parent_col`.
    pub child_col: usize,
    /// The child node.
    pub node: ViewNode,
}

/// A full view: a document element wrapping one top-level node.
#[derive(Debug, Clone)]
pub struct XmlView {
    /// Document element (e.g. `suppliers`).
    pub document_element: String,
    /// The repeated top-level node.
    pub root: ViewNode,
}

impl ViewNode {
    /// Structural validation: key/field/link columns in range, child
    /// links consistent, at every level.
    pub fn validate(&self) -> Result<()> {
        let width = self.source.schema().len();
        let check = |c: usize, what: &str| -> Result<()> {
            if c >= width {
                return Err(Error::Xml(format!(
                    "view node '{}': {what} column #{c} out of range ({width} columns)",
                    self.element
                )));
            }
            Ok(())
        };
        if self.key_columns.is_empty() {
            return Err(Error::Xml(format!(
                "view node '{}' needs at least one key column",
                self.element
            )));
        }
        for &k in &self.key_columns {
            check(k, "key")?;
        }
        for f in &self.fields {
            check(f.column, "field")?;
        }
        for link in &self.children {
            check(link.parent_col, "child-link parent")?;
            let cw = link.node.source.schema().len();
            if link.child_col >= cw {
                return Err(Error::Xml(format!(
                    "view node '{}': child-link column #{} out of range for child '{}'",
                    self.element, link.child_col, link.node.element
                )));
            }
            link.node.validate()?;
        }
        Ok(())
    }

    /// Depth of the node tree (1 for a leaf).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(|c| c.node.depth()).max().unwrap_or(0)
    }
}

impl XmlView {
    /// Validate the whole view.
    pub fn validate(&self) -> Result<()> {
        self.root.validate()
    }
}

/// Builds one named view over a catalog.
type ViewBuilder = fn(&Catalog) -> Result<XmlView>;

/// The named views. The wire protocol and the scenario corpus both name
/// views through this list; neither ships view definitions.
const NAMED_VIEWS: &[(&str, ViewBuilder)] =
    &[("supplier_parts", supplier_parts_view), ("customer_orders", customer_orders_view)];

/// The known view names.
pub fn view_names() -> impl Iterator<Item = &'static str> {
    NAMED_VIEWS.iter().map(|(name, _)| *name)
}

/// Build the view named `name` over `catalog`; an unknown name is an
/// error that lists the known ones.
pub fn named_view(catalog: &Catalog, name: &str) -> Result<XmlView> {
    match NAMED_VIEWS.iter().find(|(n, _)| *n == name) {
        Some((_, build)) => build(catalog),
        None => Err(Error::Catalog(format!(
            "unknown view {name:?} (known: {})",
            view_names().collect::<Vec<_>>().join(", ")
        ))),
    }
}

/// The paper's Figure 1 view: `suppliers / supplier / part`, with the
/// parts of a supplier found through the `partsupp ⋈ part` join.
pub fn supplier_parts_view(catalog: &Catalog) -> Result<XmlView> {
    let supplier = catalog.table("supplier")?;
    let s_schema = &supplier.schema;
    let s_key = s_schema.resolve(None, "s_suppkey")?;
    let s_name = s_schema.resolve(None, "s_name")?;

    let partsupp = catalog.table("partsupp")?;
    let part = catalog.table("part")?;
    let ps_schema = &partsupp.schema;
    let joined_schema = ps_schema.join(&part.schema);
    let ps_partkey = ps_schema.resolve(None, "ps_partkey")?;
    let p_partkey_joined = joined_schema.resolve(None, "p_partkey")?;
    let parts_plan = LogicalPlan::scan("partsupp", ps_schema.clone()).fk_join(
        LogicalPlan::scan("part", part.schema.clone()),
        xmlpub_expr::Expr::col(ps_partkey).eq(xmlpub_expr::Expr::col(p_partkey_joined)),
    );
    let parts_schema = parts_plan.schema();
    let ps_suppkey = parts_schema.resolve(None, "ps_suppkey")?;
    let p_name = parts_schema.resolve(None, "p_name")?;
    let p_price = parts_schema.resolve(None, "p_retailprice")?;
    let p_key = parts_schema.resolve(None, "p_partkey")?;

    let view = XmlView {
        document_element: "suppliers".to_string(),
        root: ViewNode {
            element: "supplier".to_string(),
            source: LogicalPlan::scan("supplier", s_schema.clone()),
            key_columns: vec![s_key],
            fields: vec![
                FieldMap::attribute(s_key, "s_suppkey"),
                FieldMap::element(s_name, "s_name"),
            ],
            children: vec![ChildLink {
                parent_col: s_key,
                child_col: ps_suppkey,
                node: ViewNode {
                    element: "part".to_string(),
                    source: parts_plan,
                    key_columns: vec![p_key],
                    fields: vec![
                        FieldMap::element(p_name, "p_name"),
                        FieldMap::element(p_price, "p_retailprice"),
                    ],
                    children: vec![],
                },
            }],
        },
    };
    view.validate()?;
    Ok(view)
}

/// A three-level view over the full TPC-H subset:
/// `customers / customer / order / lineitem`. Exercises ancestor-key
/// replication and multi-level clustering in the sorted outer union.
pub fn customer_orders_view(catalog: &Catalog) -> Result<XmlView> {
    let customer = catalog.table("customer")?;
    let c_schema = &customer.schema;
    let c_key = c_schema.resolve(None, "c_custkey")?;
    let c_name = c_schema.resolve(None, "c_name")?;

    let orders = catalog.table("orders")?;
    let o_schema = &orders.schema;
    let o_key = o_schema.resolve(None, "o_orderkey")?;
    let o_cust = o_schema.resolve(None, "o_custkey")?;
    let o_price = o_schema.resolve(None, "o_totalprice")?;

    let lineitem = catalog.table("lineitem")?;
    let l_schema = &lineitem.schema;
    let l_order = l_schema.resolve(None, "l_orderkey")?;
    let l_line = l_schema.resolve(None, "l_linenumber")?;
    let l_qty = l_schema.resolve(None, "l_quantity")?;
    let l_price = l_schema.resolve(None, "l_extendedprice")?;

    let view = XmlView {
        document_element: "customers".to_string(),
        root: ViewNode {
            element: "customer".to_string(),
            source: LogicalPlan::scan("customer", c_schema.clone()),
            key_columns: vec![c_key],
            fields: vec![FieldMap::attribute(c_key, "key"), FieldMap::element(c_name, "c_name")],
            children: vec![ChildLink {
                parent_col: c_key,
                child_col: o_cust,
                node: ViewNode {
                    element: "order".to_string(),
                    source: LogicalPlan::scan("orders", o_schema.clone()),
                    key_columns: vec![o_key],
                    fields: vec![FieldMap::element(o_price, "o_totalprice")],
                    children: vec![ChildLink {
                        parent_col: o_key,
                        child_col: l_order,
                        node: ViewNode {
                            element: "lineitem".to_string(),
                            source: LogicalPlan::scan("lineitem", l_schema.clone()),
                            key_columns: vec![l_order, l_line],
                            fields: vec![
                                FieldMap::element(l_qty, "l_quantity"),
                                FieldMap::element(l_price, "l_extendedprice"),
                            ],
                            children: vec![],
                        },
                    }],
                },
            }],
        },
    };
    view.validate()?;
    Ok(view)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlpub_tpch::TpchGenerator;

    #[test]
    fn figure1_view_builds_and_validates() {
        let cat = TpchGenerator::with_scale(0.001).core_catalog().unwrap();
        let view = supplier_parts_view(&cat).unwrap();
        assert_eq!(view.document_element, "suppliers");
        assert_eq!(view.root.element, "supplier");
        assert_eq!(view.root.depth(), 2);
        assert_eq!(view.root.children.len(), 1);
        assert_eq!(view.root.children[0].node.element, "part");
    }

    #[test]
    fn validation_catches_bad_columns() {
        let cat = TpchGenerator::with_scale(0.001).core_catalog().unwrap();
        let mut view = supplier_parts_view(&cat).unwrap();
        view.root.key_columns = vec![99];
        assert!(view.validate().is_err());

        let mut view = supplier_parts_view(&cat).unwrap();
        view.root.key_columns.clear();
        assert!(view.validate().is_err());

        let mut view = supplier_parts_view(&cat).unwrap();
        view.root.children[0].child_col = 99;
        assert!(view.validate().is_err());

        let mut view = supplier_parts_view(&cat).unwrap();
        view.root.fields.push(FieldMap::element(42, "oops"));
        assert!(view.validate().is_err());
    }
}
