//! Sorted outer union query generation.
//!
//! Publishing a view through the middleware tagger requires one
//! relational query whose result is *clustered by the element keys* —
//! "the result tuples must be clustered by the element to which they
//! correspond; the only way of ensuring this in SQL is by ordering them
//! by the key" (§2). This module builds that query: one UNION ALL branch
//! per view node, ancestor keys replicated into every branch, NULL
//! padding elsewhere, and an ORDER BY over the interleaved
//! key/branch-ordinal columns that makes parents sort immediately before
//! their children.

use crate::view::{ViewNode, XmlView};
use std::collections::BTreeSet;
use std::sync::Arc;
use xmlpub_algebra::{plan::null_item, LogicalPlan, ProjectItem, SortKey};
use xmlpub_common::{Result, Tuple, Value};
use xmlpub_expr::Expr;

/// Tagging metadata for one view node (one union branch).
#[derive(Debug, Clone)]
pub struct BranchTag {
    /// Element name to open for each row of this branch.
    pub element: String,
    /// Depth in the view tree (root = 0).
    pub depth: usize,
    /// For every level `0..=depth`, the absolute output columns of that
    /// level's keys.
    pub key_cols: Vec<Vec<usize>>,
    /// `(absolute output column, output name, mapping kind)` for this
    /// node's fields.
    pub field_cols: Vec<(usize, String, crate::view::FieldKind)>,
}

/// Everything the tagger needs to interpret the sorted-outer-union rows.
#[derive(Debug, Clone)]
pub struct TagPlan {
    /// Document element wrapping the output.
    pub document_element: String,
    /// Column carrying the branch id.
    pub lvl_col: usize,
    /// Branch metadata, indexed by branch id.
    pub branches: Vec<BranchTag>,
}

impl TagPlan {
    /// The absolute output columns of the *root* element's keys. These
    /// are the leading sort columns, so each root element's subtree is a
    /// contiguous run of rows — and of output bytes — which is what the
    /// incremental splice re-tagger exploits.
    pub fn root_key_cols(&self) -> &[usize] {
        &self.branches[0].key_cols[0]
    }

    /// Whether `row` is a root-element row (depth 0) — the first row of
    /// its subtree in the clustered stream.
    pub fn is_root_row(&self, row: &Tuple) -> Result<bool> {
        Ok(self.branches[branch_id(row, self)?].depth == 0)
    }

    /// The root-key values of `row` as a tuple (every branch replicates
    /// the root keys, so this works at any depth).
    pub fn root_key_of(&self, row: &Tuple) -> Tuple {
        Tuple::new(self.root_key_cols().iter().map(|&c| row.value(c).clone()).collect())
    }
}

/// A generated sorted outer union: the plan plus its tagging metadata.
#[derive(Debug, Clone)]
pub struct SortedOuterUnion {
    /// The relational plan (UnionAll under OrderBy).
    pub plan: LogicalPlan,
    /// Tagging metadata.
    pub tag_plan: TagPlan,
}

/// Per-node info gathered during layout.
struct NodeInfo<'v> {
    node: &'v ViewNode,
    /// Root-to-node path as indices into `infos`.
    path: Vec<usize>,
    /// Child ordinal within the parent (0 for the root).
    ordinal: usize,
}

/// Build the sorted outer union for a view.
pub fn sorted_outer_union(view: &XmlView) -> Result<SortedOuterUnion> {
    build_sorted_outer_union(view, None)
}

/// Build a sorted outer union **restricted to the given root keys**: the
/// root source is filtered to the rows whose key columns match one of
/// `root_keys`, and every child branch joins against that restricted
/// root, so the plan computes exactly the selected subtrees — clustered
/// and ordered exactly as the corresponding run of the full document
/// (the final ORDER BY covers the entire key prefix, and the key
/// discipline leaves it no ties to break, so the restriction cannot
/// reorder anything). With no keys the plan yields the empty stream.
///
/// This is the re-tagger's workhorse: republish cost becomes the cost
/// of the dirty subtrees, not the document.
pub fn sorted_outer_union_for_keys(
    view: &XmlView,
    root_keys: &[Tuple],
) -> Result<SortedOuterUnion> {
    build_sorted_outer_union(view, Some(root_keys))
}

/// Key-set filter matching `key_columns` against the tuples of `keys`:
/// one set lookup per row, however many keys are dirty.
fn key_match_predicate(key_columns: &[usize], keys: &[Tuple]) -> Expr {
    Expr::InSet {
        exprs: key_columns.iter().map(|&c| Expr::col(c)).collect(),
        keys: Arc::new(keys.iter().cloned().collect::<BTreeSet<_>>()),
    }
}

fn build_sorted_outer_union(
    view: &XmlView,
    root_keys: Option<&[Tuple]>,
) -> Result<SortedOuterUnion> {
    view.validate()?;
    // DFS preorder over the nodes.
    let mut infos: Vec<NodeInfo<'_>> = Vec::new();
    fn collect<'v>(
        node: &'v ViewNode,
        path: Vec<usize>,
        ordinal: usize,
        infos: &mut Vec<NodeInfo<'v>>,
    ) {
        let my_idx = infos.len();
        let mut my_path = path;
        my_path.push(my_idx);
        infos.push(NodeInfo { node, path: my_path.clone(), ordinal });
        for (i, link) in node.children.iter().enumerate() {
            collect(&link.node, my_path.clone(), i, infos);
        }
    }
    collect(&view.root, Vec::new(), 0, &mut infos);

    // ---- Column layout -------------------------------------------------
    // Sort prefix: keys of the nodes along each level position, in DFS
    // order per node (each node gets its own key block + an ordinal
    // column, except the root which needs no ordinal). A chain view gets
    // the classic keys0, ord1, keys1, … layout; trees linearise by node.
    let mut key_start = vec![0usize; infos.len()];
    let mut ord_col = vec![None::<usize>; infos.len()];
    let mut cursor = 0usize;
    for (i, info) in infos.iter().enumerate() {
        if i > 0 {
            ord_col[i] = Some(cursor);
            cursor += 1;
        }
        key_start[i] = cursor;
        cursor += info.node.key_columns.len();
    }
    let lvl_col = cursor;
    cursor += 1;
    let mut field_start = vec![0usize; infos.len()];
    for (i, info) in infos.iter().enumerate() {
        field_start[i] = cursor;
        cursor += info.node.fields.len();
    }
    let total_width = cursor;

    // ---- Branch plans ----------------------------------------------------
    let mut branches = Vec::with_capacity(infos.len());
    let mut tag_branches = Vec::with_capacity(infos.len());
    for (branch_id, info) in infos.iter().enumerate() {
        // Join the sources along the path; offsets[i] = column offset of
        // path node i's source within the joined plan.
        let mut offsets = vec![0usize];
        let mut plan = infos[info.path[0]].node.source.clone();
        // Restricted build: filter the root source, and — whenever the
        // link columns carry the root key down the path — filter each
        // child source directly too, so the engine never materialises
        // an unrestricted child-side join just to throw most of it
        // away. `link_key_map[j]` is the column of the *current* path
        // node's source known equal to root key column `j` (dies as
        // soon as a link joins on something other than the root key;
        // the inner joins still restrict those levels transitively).
        let mut link_key_map: Option<Vec<usize>> = None;
        if let Some(keys) = root_keys {
            let root = infos[info.path[0]].node;
            plan = plan.select(key_match_predicate(&root.key_columns, keys));
            link_key_map = Some(root.key_columns.clone());
        }
        for window in info.path.windows(2) {
            let (parent_idx, child_idx) = (window[0], window[1]);
            let parent = infos[parent_idx].node;
            let child = infos[child_idx].node;
            let link = parent
                .children
                .iter()
                .find(|l| std::ptr::eq(&l.node as *const _, child as *const _))
                .expect("path child is a child of its parent");
            let parent_off = *offsets.last().unwrap();
            let left_width = plan.schema().len();
            offsets.push(left_width);
            let mut child_source = child.source.clone();
            if let Some(keys) = root_keys {
                link_key_map = link_key_map.as_ref().and_then(|m| {
                    m.iter()
                        .map(|&pc| (pc == link.parent_col).then_some(link.child_col))
                        .collect::<Option<Vec<usize>>>()
                });
                if let Some(map) = &link_key_map {
                    child_source = child_source.select(key_match_predicate(map, keys));
                }
            }
            plan = plan.join(
                child_source,
                Expr::col(parent_off + link.parent_col).eq(Expr::col(left_width + link.child_col)),
            );
        }

        // Projection into the global layout.
        let mut items: Vec<Option<ProjectItem>> = vec![None; total_width];
        for (pos_in_path, &node_idx) in info.path.iter().enumerate() {
            let node = infos[node_idx].node;
            let off = offsets[pos_in_path];
            for (ki, &k) in node.key_columns.iter().enumerate() {
                items[key_start[node_idx] + ki] = Some(ProjectItem {
                    expr: Expr::col(off + k),
                    alias: Some(format!("k{node_idx}_{ki}")),
                });
            }
            if let Some(oc) = ord_col[node_idx] {
                items[oc] = Some(ProjectItem::named(
                    Expr::lit(infos[node_idx].ordinal as i64),
                    format!("ord{node_idx}"),
                ));
            }
        }
        items[lvl_col] = Some(ProjectItem::named(Expr::lit(branch_id as i64), "lvl".to_string()));
        let this = info.node;
        for (fi, f) in this.fields.iter().enumerate() {
            let off = *offsets.last().unwrap();
            items[field_start[branch_id] + fi] = Some(ProjectItem {
                expr: Expr::col(off + f.column),
                alias: Some(format!("f{branch_id}_{fi}")),
            });
        }
        let items: Vec<ProjectItem> = items
            .into_iter()
            .enumerate()
            .map(|(i, it)| it.unwrap_or_else(|| null_item(format!("n{i}"))))
            .collect();
        branches.push(plan.project(items));

        tag_branches.push(BranchTag {
            element: this.element.clone(),
            depth: info.path.len() - 1,
            key_cols: info
                .path
                .iter()
                .map(|&ni| {
                    (0..infos[ni].node.key_columns.len()).map(|ki| key_start[ni] + ki).collect()
                })
                .collect(),
            field_cols: this
                .fields
                .iter()
                .enumerate()
                .map(|(fi, f)| (field_start[branch_id] + fi, f.name.clone(), f.kind))
                .collect(),
        });
    }

    let union = if branches.len() == 1 {
        branches.pop().expect("one branch")
    } else {
        LogicalPlan::union_all(branches)
    };
    // Cluster: sort by the whole key/ordinal prefix (NULL-first ordering
    // puts each parent row immediately before its children).
    let sort_keys: Vec<SortKey> = (0..lvl_col).map(SortKey::asc).collect();
    let plan = union.order_by(sort_keys);

    Ok(SortedOuterUnion {
        plan,
        tag_plan: TagPlan {
            document_element: view.document_element.clone(),
            lvl_col,
            branches: tag_branches,
        },
    })
}

/// Branch-id helper for tests and the tagger.
pub fn branch_id(row: &xmlpub_common::Tuple, tag_plan: &TagPlan) -> Result<usize> {
    match row.value(tag_plan.lvl_col) {
        Value::Int(b) if (*b as usize) < tag_plan.branches.len() => Ok(*b as usize),
        other => Err(xmlpub_common::Error::Xml(format!("bad branch id {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::supplier_parts_view;
    use xmlpub_engine::execute;
    use xmlpub_tpch::TpchGenerator;

    #[test]
    fn figure1_sou_layout() {
        let cat = TpchGenerator::with_scale(0.001).core_catalog().unwrap();
        let view = supplier_parts_view(&cat).unwrap();
        let sou = sorted_outer_union(&view).unwrap();
        // keys0(1) + ord1(1) + keys1(1) + lvl(1) + sup fields(2) + part
        // fields(2) = 8 columns.
        assert_eq!(sou.plan.schema().len(), 8);
        assert_eq!(sou.tag_plan.lvl_col, 3);
        assert_eq!(sou.tag_plan.branches.len(), 2);
        assert_eq!(sou.tag_plan.branches[0].element, "supplier");
        assert_eq!(sou.tag_plan.branches[1].element, "part");
        assert_eq!(sou.tag_plan.branches[1].depth, 1);
    }

    #[test]
    fn sou_rows_are_clustered_parent_first() {
        let cat = TpchGenerator::with_scale(0.001).core_catalog().unwrap();
        let view = supplier_parts_view(&cat).unwrap();
        let sou = sorted_outer_union(&view).unwrap();
        let result = execute(&sou.plan, &cat).unwrap();
        // 10 suppliers + 800 partsupp rows.
        assert_eq!(result.len(), 810);
        // Walk the stream: every part row's supplier key must equal the
        // most recent supplier row's key.
        let mut current_supplier: Option<Value> = None;
        for row in result.rows() {
            let b = branch_id(row, &sou.tag_plan).unwrap();
            if b == 0 {
                // New supplier element; key must increase.
                let k = row.value(0).clone();
                if let Some(prev) = &current_supplier {
                    assert!(*prev < k, "suppliers out of order");
                }
                current_supplier = Some(k);
            } else {
                assert_eq!(Some(row.value(0)), current_supplier.as_ref());
            }
        }
    }

    #[test]
    fn restricted_sou_matches_the_full_plan_rows_for_those_keys() {
        let cat = TpchGenerator::with_scale(0.001).core_catalog().unwrap();
        let view = supplier_parts_view(&cat).unwrap();
        let sou = sorted_outer_union(&view).unwrap();
        let full = execute(&sou.plan, &cat).unwrap();
        use xmlpub_common::row;
        let keys = vec![row![3], row![7]];
        let restricted = sorted_outer_union_for_keys(&view, &keys).unwrap();
        assert_eq!(restricted.tag_plan.lvl_col, sou.tag_plan.lvl_col, "same layout");
        let got = execute(&restricted.plan, &cat).unwrap();
        // Exactly the full stream's rows for suppliers 3 and 7, in the
        // same relative order — the splice invariant.
        let expected: Vec<_> = full
            .rows()
            .iter()
            .filter(|r| matches!(r.value(0), Value::Int(3) | Value::Int(7)))
            .cloned()
            .collect();
        assert!(!expected.is_empty());
        assert_eq!(got.rows(), &expected[..]);
        // No keys: empty stream, same shape.
        let none = sorted_outer_union_for_keys(&view, &[]).unwrap();
        assert_eq!(execute(&none.plan, &cat).unwrap().len(), 0);
    }

    #[test]
    fn tag_plan_root_key_helpers() {
        let cat = TpchGenerator::with_scale(0.001).core_catalog().unwrap();
        let view = supplier_parts_view(&cat).unwrap();
        let sou = sorted_outer_union(&view).unwrap();
        assert_eq!(sou.tag_plan.root_key_cols(), &[0]);
        let result = execute(&sou.plan, &cat).unwrap();
        let first = &result.rows()[0];
        assert!(sou.tag_plan.is_root_row(first).unwrap());
        use xmlpub_common::row;
        assert_eq!(sou.tag_plan.root_key_of(first), row![1]);
        assert!(!sou.tag_plan.is_root_row(&result.rows()[1]).unwrap());
    }

    #[test]
    fn sou_branch_counts() {
        let cat = TpchGenerator::with_scale(0.001).core_catalog().unwrap();
        let view = supplier_parts_view(&cat).unwrap();
        let sou = sorted_outer_union(&view).unwrap();
        let result = execute(&sou.plan, &cat).unwrap();
        let mut counts = [0usize; 2];
        for row in result.rows() {
            counts[branch_id(row, &sou.tag_plan).unwrap()] += 1;
        }
        assert_eq!(counts, [10, 800]);
    }
}
