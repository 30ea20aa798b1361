//! Name resolution and lowering to the logical algebra.
//!
//! Highlights:
//!
//! * the `gapply` clause lowers directly to a `GApply` node — the binder
//!   pushes the `: x` relation-valued binding, under which `FROM x`
//!   resolves to a `GroupScan` (including inside the per-group query's
//!   own subqueries);
//! * scalar subqueries and `EXISTS` lower to `Apply` per the subquery
//!   model of \[12\]: the subquery is bound in a child scope, references
//!   that escape to an enclosing scope become `Expr::Correlated`;
//! * comma-joins are folded into the left-deep annotated join trees the
//!   paper's §4 assumes, WHERE conjuncts are distributed onto the
//!   deepest join that covers their columns, and each join is annotated
//!   as a foreign-key join when the catalog metadata proves it — the
//!   precondition of the invariant-grouping rule.

use crate::ast::{AstExpr, GApplyClause, OrderItem, Query, Select, SelectItem, SetExpr, TableRef};
use xmlpub_algebra::{ApplyMode, Catalog, LogicalPlan, ProjectItem, SortKey};
use xmlpub_common::{Error, Result, Schema, Value};
use xmlpub_expr::{conjunction, AggExpr, AggFunc, BinOp, Expr, UnaryOp};

/// The binder. Create per catalog; `bind_query` may be called repeatedly.
pub struct Binder<'a> {
    catalog: &'a Catalog,
    /// Stack of `: x` relation-valued bindings (name, group schema).
    group_bindings: Vec<(String, Schema)>,
}

impl<'a> Binder<'a> {
    /// A binder over a catalog.
    pub fn new(catalog: &'a Catalog) -> Self {
        Binder { catalog, group_bindings: Vec::new() }
    }

    /// Bind a top-level query.
    pub fn bind_query(&mut self, query: &Query) -> Result<LogicalPlan> {
        self.bind_query_scoped(query, &[])
    }

    fn bind_query_scoped(&mut self, query: &Query, outer: &[Schema]) -> Result<LogicalPlan> {
        let plan = self.bind_set(&query.body, outer)?;
        if query.order_by.is_empty() {
            return Ok(plan);
        }
        let schema = plan.schema();
        let keys = query
            .order_by
            .iter()
            .map(|item| self.bind_order_item(item, &schema, outer))
            .collect::<Result<Vec<_>>>()?;
        Ok(plan.order_by(keys))
    }

    fn bind_order_item(
        &mut self,
        item: &OrderItem,
        schema: &Schema,
        outer: &[Schema],
    ) -> Result<SortKey> {
        // `ORDER BY 2` means output position 2.
        if let AstExpr::Literal(Value::Int(pos)) = &item.expr {
            let idx = *pos - 1;
            if idx < 0 || idx as usize >= schema.len() {
                return Err(Error::bind(format!(
                    "ORDER BY position {pos} out of range (1..={})",
                    schema.len()
                )));
            }
            return Ok(SortKey { expr: Expr::col(idx as usize), asc: item.asc });
        }
        let mut subplans = Vec::new();
        let expr = self.bind_expr(&item.expr, schema, outer, &mut subplans, None)?;
        if !subplans.is_empty() {
            return Err(Error::bind("subqueries are not supported in ORDER BY"));
        }
        Ok(SortKey { expr, asc: item.asc })
    }

    fn bind_set(&mut self, set: &SetExpr, outer: &[Schema]) -> Result<LogicalPlan> {
        match set {
            SetExpr::Select(s) => self.bind_select(s, outer),
            SetExpr::Union { left, right, all } => {
                let l = self.bind_set(left, outer)?;
                let r = self.bind_set(right, outer)?;
                if !l.schema().union_compatible(&r.schema()) {
                    return Err(Error::bind(format!(
                        "UNION branches are not compatible: {} vs {}",
                        l.schema(),
                        r.schema()
                    )));
                }
                // Flatten chains of UNION ALL into one n-ary node.
                let mut branches = Vec::new();
                for side in [l, r] {
                    match side {
                        LogicalPlan::UnionAll { inputs } if *all => branches.extend(inputs),
                        other => branches.push(other),
                    }
                }
                let u = LogicalPlan::union_all(branches);
                Ok(if *all { u } else { u.distinct() })
            }
        }
    }

    // ---- SELECT ------------------------------------------------------

    fn bind_select(&mut self, select: &Select, outer: &[Schema]) -> Result<LogicalPlan> {
        if select.from.is_empty() {
            return Err(Error::bind("FROM clause is required"));
        }
        // FROM → left-deep join tree + alias→table map for FK detection.
        let (mut plan, aliases) = self.bind_from(&select.from, outer)?;

        // WHERE.
        if let Some(where_expr) = &select.selection {
            plan = self.apply_where(plan, where_expr, outer)?;
            // Conjuncts distributed onto comma-joins may have completed a
            // key/foreign-key equality; re-derive the FK annotations.
            plan = self.annotate_fk_joins(plan, &aliases);
        }

        // The gapply extension.
        if let Some(clause) = &select.gapply {
            return self.bind_gapply(plan, select, clause, outer);
        }

        // GROUP BY / aggregates / plain projection.
        let has_aggs = select.items.iter().any(|it| match it {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            _ => false,
        }) || select.having.as_ref().is_some_and(|h| h.contains_aggregate());

        let mut plan = if !select.group_by.is_empty() || has_aggs {
            self.bind_aggregate_select(plan, select, outer)?
        } else {
            if select.having.is_some() {
                return Err(Error::bind("HAVING requires GROUP BY or aggregates"));
            }
            self.bind_projection(plan, &select.items, outer)?
        };
        if select.distinct {
            plan = plan.distinct();
        }
        let _ = aliases;
        Ok(plan)
    }

    /// Plain (non-aggregate) SELECT list.
    fn bind_projection(
        &mut self,
        plan: LogicalPlan,
        items: &[SelectItem],
        outer: &[Schema],
    ) -> Result<LogicalPlan> {
        let schema = plan.schema();
        let mut proj = Vec::new();
        let mut subplans = Vec::new();
        for item in items {
            match item {
                SelectItem::Wildcard => {
                    proj.extend((0..schema.len()).map(ProjectItem::col));
                }
                SelectItem::QualifiedWildcard(q) => {
                    let mut any = false;
                    for (i, f) in schema.fields().iter().enumerate() {
                        if f.qualifier.as_deref().is_some_and(|fq| fq.eq_ignore_ascii_case(q)) {
                            proj.push(ProjectItem::col(i));
                            any = true;
                        }
                    }
                    if !any {
                        return Err(Error::bind(format!("unknown table alias '{q}' in {q}.*")));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let bound = self.bind_expr(expr, &schema, outer, &mut subplans, None)?;
                    proj.push(ProjectItem { expr: bound, alias: alias.clone() });
                }
            }
        }
        // Scalar subqueries in the select list: apply them, then project.
        let plan = subplans.into_iter().fold(plan, |p, (inner, mode)| p.apply(inner, mode));
        Ok(plan.project(proj))
    }

    /// SELECT with GROUP BY and/or aggregates.
    fn bind_aggregate_select(
        &mut self,
        plan: LogicalPlan,
        select: &Select,
        outer: &[Schema],
    ) -> Result<LogicalPlan> {
        let in_schema = plan.schema();
        // Keys must be column references.
        let mut keys = Vec::new();
        for g in &select.group_by {
            match g {
                AstExpr::Column { qualifier, name } => {
                    keys.push(in_schema.resolve(qualifier.as_deref(), name)?);
                }
                other => {
                    return Err(Error::bind(format!(
                        "GROUP BY supports column references only, found {other:?}"
                    )))
                }
            }
        }
        let mut aggs: Vec<AggExpr> = Vec::new();
        // Bind items against the future GroupBy output.
        let mut proj = Vec::new();
        for item in &select.items {
            match item {
                SelectItem::Expr { expr, alias } => {
                    let bound = self.bind_agg_expr(expr, &in_schema, &keys, &mut aggs, outer)?;
                    proj.push(ProjectItem { expr: bound, alias: alias.clone() });
                }
                _ => return Err(Error::bind("wildcards are not allowed in an aggregate SELECT")),
            }
        }
        let having = match &select.having {
            Some(h) => Some(self.bind_agg_expr(h, &in_schema, &keys, &mut aggs, outer)?),
            None => None,
        };
        let mut plan = if keys.is_empty() {
            plan.scalar_agg(aggs.clone())
        } else {
            plan.group_by(keys.clone(), aggs.clone())
        };
        // In the keyed case the GroupBy output is keys ++ aggs and the
        // bound expressions already target that layout. In the scalar
        // case the output is just aggs, so references (key_len = 0) are
        // already correct too.
        if let Some(h) = having {
            plan = plan.select(h);
        }
        Ok(plan.project(proj))
    }

    /// Bind an expression in aggregate context: column references must be
    /// grouping keys; aggregate calls bind their argument against the
    /// pre-aggregation schema and are collected into `aggs`.
    fn bind_agg_expr(
        &mut self,
        expr: &AstExpr,
        in_schema: &Schema,
        keys: &[usize],
        aggs: &mut Vec<AggExpr>,
        outer: &[Schema],
    ) -> Result<Expr> {
        match expr {
            AstExpr::Function { name, args, distinct, star } if is_aggregate_name(name) => {
                let agg =
                    self.bind_aggregate_call(name, args, *distinct, *star, in_schema, outer)?;
                let idx = aggs.len();
                aggs.push(agg);
                Ok(Expr::col(keys.len() + idx))
            }
            AstExpr::Column { qualifier, name } => {
                let idx = in_schema.resolve(qualifier.as_deref(), name)?;
                match keys.iter().position(|&k| k == idx) {
                    Some(pos) => Ok(Expr::col(pos)),
                    None => Err(Error::bind(format!(
                        "column '{name}' must appear in GROUP BY or inside an aggregate"
                    ))),
                }
            }
            AstExpr::Literal(v) => Ok(Expr::Literal(v.clone())),
            AstExpr::Binary { op, left, right } => Ok(Expr::binary(
                *op,
                self.bind_agg_expr(left, in_schema, keys, aggs, outer)?,
                self.bind_agg_expr(right, in_schema, keys, aggs, outer)?,
            )),
            AstExpr::Not(e) => Ok(self.bind_agg_expr(e, in_schema, keys, aggs, outer)?.not()),
            AstExpr::Neg(e) => Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(self.bind_agg_expr(e, in_schema, keys, aggs, outer)?),
            }),
            AstExpr::IsNull { expr, negated } => Ok(Expr::Unary {
                op: if *negated { UnaryOp::IsNotNull } else { UnaryOp::IsNull },
                expr: Box::new(self.bind_agg_expr(expr, in_schema, keys, aggs, outer)?),
            }),
            AstExpr::Case { branches, else_expr } => {
                let branches = branches
                    .iter()
                    .map(|(c, r)| {
                        Ok((
                            self.bind_agg_expr(c, in_schema, keys, aggs, outer)?,
                            self.bind_agg_expr(r, in_schema, keys, aggs, outer)?,
                        ))
                    })
                    .collect::<Result<Vec<_>>>()?;
                let else_expr = match else_expr {
                    Some(e) => Some(Box::new(self.bind_agg_expr(e, in_schema, keys, aggs, outer)?)),
                    None => None,
                };
                Ok(Expr::Case { branches, else_expr })
            }
            other => {
                Err(Error::bind(format!("unsupported expression in aggregate context: {other:?}")))
            }
        }
    }

    fn bind_aggregate_call(
        &mut self,
        name: &str,
        args: &[AstExpr],
        distinct: bool,
        star: bool,
        in_schema: &Schema,
        outer: &[Schema],
    ) -> Result<AggExpr> {
        let output_name = if star { format!("{name}(*)") } else { name.to_string() };
        if star {
            if name != "count" {
                return Err(Error::bind(format!("{name}(*) is not valid")));
            }
            return Ok(AggExpr::count_star(output_name));
        }
        if args.len() != 1 {
            return Err(Error::bind(format!(
                "{name} takes exactly one argument, got {}",
                args.len()
            )));
        }
        let mut subplans = Vec::new();
        let arg = self.bind_expr(&args[0], in_schema, outer, &mut subplans, None)?;
        if !subplans.is_empty() {
            return Err(Error::bind("subqueries are not allowed inside aggregates"));
        }
        let func = match (name, distinct) {
            ("count", true) => AggFunc::CountDistinct,
            ("count", false) => AggFunc::Count,
            ("sum", false) => AggFunc::Sum,
            ("avg", false) => AggFunc::Avg,
            ("min", false) => AggFunc::Min,
            ("max", false) => AggFunc::Max,
            (n, true) => {
                return Err(Error::bind(format!("DISTINCT is only supported for count, not {n}")))
            }
            (n, _) => return Err(Error::bind(format!("unknown aggregate '{n}'"))),
        };
        Ok(AggExpr::new(func, arg, output_name))
    }

    // ---- GApply --------------------------------------------------------

    fn bind_gapply(
        &mut self,
        plan: LogicalPlan,
        select: &Select,
        clause: &GApplyClause,
        outer: &[Schema],
    ) -> Result<LogicalPlan> {
        let binding =
            select.group_binding.as_ref().expect("parser guarantees a binding with gapply");
        if select.having.is_some() {
            return Err(Error::bind("HAVING cannot be combined with gapply"));
        }
        if select.distinct {
            return Err(Error::bind("SELECT DISTINCT cannot be combined with gapply"));
        }
        let in_schema = plan.schema();
        let mut group_cols = Vec::new();
        for g in &select.group_by {
            match g {
                AstExpr::Column { qualifier, name } => {
                    group_cols.push(in_schema.resolve(qualifier.as_deref(), name)?);
                }
                other => {
                    return Err(Error::bind(format!(
                        "gapply grouping columns must be column references, found {other:?}"
                    )))
                }
            }
        }
        // Bind the per-group query with the relation-valued variable in
        // scope: `FROM <binding>` resolves to a GroupScan over the outer
        // schema ("all columns in the joining tables are associated with
        // x", §3.1).
        self.group_bindings.push((binding.clone(), in_schema.clone()));
        let pgq = self.bind_query_scoped(&clause.query, outer);
        self.group_bindings.pop();
        let pgq = pgq?;

        let gapply = plan.gapply(group_cols.clone(), pgq);
        // Optional output renames: `as (c1, …)` names the per-group part.
        match &clause.columns {
            None => Ok(gapply),
            Some(names) => {
                let key_len = group_cols.len();
                let width = gapply.schema().len() - key_len;
                if names.len() != width {
                    return Err(Error::bind(format!(
                        "gapply AS lists {} columns but the per-group query returns {width}",
                        names.len()
                    )));
                }
                let items = (0..key_len)
                    .map(ProjectItem::col)
                    .chain(
                        names
                            .iter()
                            .enumerate()
                            .map(|(i, n)| ProjectItem::named(Expr::col(key_len + i), n.clone())),
                    )
                    .collect();
                Ok(gapply.project(items))
            }
        }
    }

    // ---- FROM ----------------------------------------------------------

    /// Bind the FROM clause into a left-deep join tree. Returns the plan
    /// and the (alias → table) pairs for FK detection.
    fn bind_from(
        &mut self,
        from: &[TableRef],
        outer: &[Schema],
    ) -> Result<(LogicalPlan, Vec<(String, String)>)> {
        let mut aliases: Vec<(String, String)> = Vec::new();
        let mut plan: Option<LogicalPlan> = None;
        for tref in from {
            let right = self.bind_table_ref(tref, outer, &mut aliases)?;
            plan = Some(match plan {
                None => right,
                Some(left) => self.make_join(left, right, Expr::lit(true), &aliases),
            });
        }
        Ok((plan.expect("FROM checked non-empty"), aliases))
    }

    fn bind_table_ref(
        &mut self,
        tref: &TableRef,
        outer: &[Schema],
        aliases: &mut Vec<(String, String)>,
    ) -> Result<LogicalPlan> {
        match tref {
            TableRef::Table { name, alias } => {
                // A `: x` relation-valued binding shadows catalog tables.
                if let Some((_, gschema)) =
                    self.group_bindings.iter().rev().find(|(b, _)| b.eq_ignore_ascii_case(name))
                {
                    return Ok(LogicalPlan::group_scan(gschema.clone()));
                }
                let def = self.catalog.table(name)?;
                let alias_name = alias.clone().unwrap_or_else(|| name.clone());
                self.check_alias_unique(&alias_name, aliases)?;
                aliases.push((alias_name.to_ascii_lowercase(), def.name.to_ascii_lowercase()));
                let schema = def.schema.with_qualifier(&alias_name);
                Ok(LogicalPlan::scan(def.name.clone(), schema))
            }
            TableRef::Derived { query, alias, columns } => {
                let plan = self.bind_query_scoped(query, outer)?;
                self.check_alias_unique(alias, aliases)?;
                // Derived tables have no catalog entry; record the alias
                // with an empty table name so FK detection skips them.
                aliases.push((alias.to_ascii_lowercase(), String::new()));
                let schema = plan.schema();
                if let Some(cols) = columns {
                    if cols.len() != schema.len() {
                        return Err(Error::bind(format!(
                            "derived table '{alias}' renames {} columns but the query \
                             returns {}",
                            cols.len(),
                            schema.len()
                        )));
                    }
                }
                // Re-qualify every output column under the FROM alias
                // (the `qualifier.name` alias form of ProjectItem).
                let items: Vec<ProjectItem> = (0..schema.len())
                    .map(|i| {
                        let name = match columns {
                            Some(cols) => cols[i].clone(),
                            None => schema.field(i).name.clone(),
                        };
                        ProjectItem::named(Expr::col(i), format!("{alias}.{name}"))
                    })
                    .collect();
                Ok(plan.project(items))
            }
            TableRef::Join { left, right, on } => {
                let l = self.bind_table_ref(left, outer, aliases)?;
                let r = self.bind_table_ref(right, outer, aliases)?;
                let combined = l.schema().join(&r.schema());
                let mut subplans = Vec::new();
                let pred = self.bind_expr(on, &combined, outer, &mut subplans, None)?;
                if !subplans.is_empty() {
                    return Err(Error::bind("subqueries are not allowed in JOIN ... ON"));
                }
                Ok(self.make_join(l, r, pred, aliases))
            }
        }
    }

    fn check_alias_unique(&self, alias: &str, aliases: &[(String, String)]) -> Result<()> {
        if aliases.iter().any(|(a, _)| a.eq_ignore_ascii_case(alias)) {
            return Err(Error::bind(format!("duplicate table alias '{alias}'")));
        }
        Ok(())
    }

    /// Build a join and annotate it as a foreign-key join when the
    /// predicate's equi-conjuncts match declared FK metadata.
    fn make_join(
        &self,
        left: LogicalPlan,
        right: LogicalPlan,
        predicate: Expr,
        aliases: &[(String, String)],
    ) -> LogicalPlan {
        let fk = self.is_fk_predicate(&left, &right, &predicate, aliases);
        LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            predicate,
            fk_left_to_right: fk,
        }
    }

    /// Recompute the FK annotation of every join in the (already bound)
    /// tree from its current predicate.
    fn annotate_fk_joins(&self, plan: LogicalPlan, aliases: &[(String, String)]) -> LogicalPlan {
        let plan = plan.map_children(&mut |c| self.annotate_fk_joins(c, aliases));
        match plan {
            LogicalPlan::Join { left, right, predicate, fk_left_to_right } => {
                let fk =
                    fk_left_to_right || self.is_fk_predicate(&left, &right, &predicate, aliases);
                LogicalPlan::Join { left, right, predicate, fk_left_to_right: fk }
            }
            other => other,
        }
    }

    fn is_fk_predicate(
        &self,
        left: &LogicalPlan,
        right: &LogicalPlan,
        predicate: &Expr,
        aliases: &[(String, String)],
    ) -> bool {
        let left_schema = left.schema();
        let right_schema = right.schema();
        let left_len = left_schema.len();
        // Collect equi pairs (left field, right field) grouped by the
        // pair of source aliases.
        let mut by_tables: std::collections::BTreeMap<
            (String, String),
            (Vec<String>, Vec<String>),
        > = std::collections::BTreeMap::new();
        for c in xmlpub_expr::conjuncts(predicate) {
            let Expr::Binary { op: BinOp::Eq, left: a, right: b } = &c else {
                continue;
            };
            let (la, rb) = match (&**a, &**b) {
                (Expr::Column(x), Expr::Column(y)) if *x < left_len && *y >= left_len => {
                    (*x, *y - left_len)
                }
                (Expr::Column(y), Expr::Column(x)) if *x < left_len && *y >= left_len => {
                    (*x, *y - left_len)
                }
                _ => continue,
            };
            let lf = left_schema.field(la);
            let rf = right_schema.field(rb);
            let (Some(lq), Some(rq)) = (&lf.qualifier, &rf.qualifier) else {
                continue;
            };
            let entry =
                by_tables.entry((lq.to_ascii_lowercase(), rq.to_ascii_lowercase())).or_default();
            entry.0.push(lf.name.clone());
            entry.1.push(rf.name.clone());
        }
        let table_of = |alias: &str| -> Option<&str> {
            aliases.iter().find(|(a, _)| a == alias).map(|(_, t)| t.as_str())
        };
        by_tables.iter().any(|((la, ra), (lcols, rcols))| {
            let (Some(lt), Some(rt)) = (table_of(la), table_of(ra)) else {
                return false;
            };
            let lrefs: Vec<&str> = lcols.iter().map(String::as_str).collect();
            let rrefs: Vec<&str> = rcols.iter().map(String::as_str).collect();
            self.catalog.is_foreign_key_join(lt, &lrefs, rt, &rrefs)
        })
    }

    // ---- WHERE ---------------------------------------------------------

    /// Apply a WHERE clause: distribute plain conjuncts onto the join
    /// tree first (so subqueries run over the joined, filtered stream,
    /// not a cross product), then turn subquery conjuncts into Applies.
    fn apply_where(
        &mut self,
        plan: LogicalPlan,
        where_expr: &AstExpr,
        outer: &[Schema],
    ) -> Result<LogicalPlan> {
        let conjs = split_ast_conjuncts(where_expr);
        let mut plain: Vec<Expr> = Vec::new();
        let mut subquery_conjs: Vec<AstExpr> = Vec::new();
        let base_schema = plan.schema();
        for c in conjs {
            if ast_contains_subquery(&c) {
                subquery_conjs.push(c);
            } else {
                let mut subplans = Vec::new();
                let bound = self.bind_expr(&c, &base_schema, outer, &mut subplans, None)?;
                debug_assert!(subplans.is_empty());
                plain.push(bound);
            }
        }
        // Phase 1: join predicates and filters sink onto the join tree.
        let mut plan = if plain.is_empty() { plan } else { distribute_conjuncts(plan, plain) };
        // Phase 2: subquery conjuncts become Applies over the joined,
        // filtered stream.
        let width = base_schema.len();
        for c in subquery_conjs {
            match c {
                AstExpr::Exists { query, negated } => {
                    let inner = self.bind_subquery(&query, &plan.schema(), outer)?;
                    let test = if negated { inner.not_exists() } else { inner.exists() };
                    plan = plan.apply(test, ApplyMode::Cross);
                }
                other => {
                    let schema = plan.schema();
                    let mut subplans = Vec::new();
                    let bound = self.bind_expr(&other, &schema, outer, &mut subplans, None)?;
                    let mut p = plan;
                    for (inner, mode) in subplans {
                        p = p.apply(inner, mode);
                    }
                    p = p.select(bound);
                    plan = p.project_cols(&(0..width).collect::<Vec<_>>());
                }
            }
        }
        Ok(plan)
    }

    /// Bind a subquery producing a plan, in a child scope whose enclosing
    /// scopes are `[outer…, schema]`.
    fn bind_subquery(
        &mut self,
        query: &Query,
        schema: &Schema,
        outer: &[Schema],
    ) -> Result<LogicalPlan> {
        let mut scopes: Vec<Schema> = outer.to_vec();
        scopes.push(schema.clone());
        self.bind_query_scoped(query, &scopes)
    }

    // ---- expressions ---------------------------------------------------

    /// Bind a scalar expression. Scalar subqueries are collected into
    /// `subplans`; the returned expression references their (future)
    /// appended output column.
    fn bind_expr(
        &mut self,
        expr: &AstExpr,
        schema: &Schema,
        outer: &[Schema],
        subplans: &mut Vec<(LogicalPlan, ApplyMode)>,
        agg_note: Option<()>,
    ) -> Result<Expr> {
        let _ = agg_note;
        match expr {
            AstExpr::Column { qualifier, name } => {
                if let Some(idx) = schema.try_resolve(qualifier.as_deref(), name)? {
                    return Ok(Expr::col(idx));
                }
                // Walk enclosing scopes: innermost first → level 0.
                for (level, s) in outer.iter().rev().enumerate() {
                    if let Some(idx) = s.try_resolve(qualifier.as_deref(), name)? {
                        return Ok(Expr::Correlated { level, index: idx });
                    }
                }
                Err(Error::bind(format!(
                    "no such column '{}{}'; in scope: {}",
                    qualifier.as_deref().map(|q| format!("{q}.")).unwrap_or_default(),
                    name,
                    schema
                )))
            }
            AstExpr::Literal(v) => Ok(Expr::Literal(v.clone())),
            AstExpr::Binary { op, left, right } => Ok(Expr::binary(
                *op,
                self.bind_expr(left, schema, outer, subplans, None)?,
                self.bind_expr(right, schema, outer, subplans, None)?,
            )),
            AstExpr::Not(e) => Ok(self.bind_expr(e, schema, outer, subplans, None)?.not()),
            AstExpr::Neg(e) => Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(self.bind_expr(e, schema, outer, subplans, None)?),
            }),
            AstExpr::IsNull { expr, negated } => Ok(Expr::Unary {
                op: if *negated { UnaryOp::IsNotNull } else { UnaryOp::IsNull },
                expr: Box::new(self.bind_expr(expr, schema, outer, subplans, None)?),
            }),
            AstExpr::Like { expr, pattern, negated } => Ok(Expr::Like {
                expr: Box::new(self.bind_expr(expr, schema, outer, subplans, None)?),
                pattern: pattern.clone(),
                negated: *negated,
            }),
            AstExpr::InList { expr, list, negated } => {
                let e = self.bind_expr(expr, schema, outer, subplans, None)?;
                let mut disj: Option<Expr> = None;
                for item in list {
                    let i = self.bind_expr(item, schema, outer, subplans, None)?;
                    let eq = e.clone().eq(i);
                    disj = Some(match disj {
                        None => eq,
                        Some(d) => d.or(eq),
                    });
                }
                let d = disj.ok_or_else(|| Error::bind("empty IN list"))?;
                Ok(if *negated { d.not() } else { d })
            }
            AstExpr::Case { branches, else_expr } => {
                let branches = branches
                    .iter()
                    .map(|(c, r)| {
                        Ok((
                            self.bind_expr(c, schema, outer, subplans, None)?,
                            self.bind_expr(r, schema, outer, subplans, None)?,
                        ))
                    })
                    .collect::<Result<Vec<_>>>()?;
                let else_expr = match else_expr {
                    Some(e) => Some(Box::new(self.bind_expr(e, schema, outer, subplans, None)?)),
                    None => None,
                };
                Ok(Expr::Case { branches, else_expr })
            }
            AstExpr::Function { name, .. } if is_aggregate_name(name) => Err(Error::bind(format!(
                "aggregate '{name}' is not allowed here (only in SELECT/HAVING of an \
                     aggregate query)"
            ))),
            AstExpr::Function { name, .. } => {
                Err(Error::bind(format!("unknown function '{name}'")))
            }
            AstExpr::Subquery(q) => {
                let inner = self.bind_subquery(q, schema, outer)?;
                let width = inner.schema().len();
                if width != 1 {
                    return Err(Error::bind(format!(
                        "scalar subquery must return one column, returns {width}"
                    )));
                }
                // The appended column's index: current schema width plus
                // one column for every previously collected subquery.
                let idx = schema.len() + subplans.len();
                subplans.push((inner, ApplyMode::Scalar));
                Ok(Expr::col(idx))
            }
            AstExpr::Exists { .. } => {
                Err(Error::bind("EXISTS is only supported as a top-level WHERE/HAVING conjunct"))
            }
        }
    }
}

/// Does the expression contain a subquery (scalar or EXISTS)?
fn ast_contains_subquery(expr: &AstExpr) -> bool {
    match expr {
        AstExpr::Subquery(_) | AstExpr::Exists { .. } => true,
        AstExpr::Binary { left, right, .. } => {
            ast_contains_subquery(left) || ast_contains_subquery(right)
        }
        AstExpr::Not(e) | AstExpr::Neg(e) => ast_contains_subquery(e),
        AstExpr::IsNull { expr, .. } | AstExpr::Like { expr, .. } => ast_contains_subquery(expr),
        AstExpr::InList { expr, list, .. } => {
            ast_contains_subquery(expr) || list.iter().any(ast_contains_subquery)
        }
        AstExpr::Case { branches, else_expr } => {
            branches.iter().any(|(c, r)| ast_contains_subquery(c) || ast_contains_subquery(r))
                || else_expr.as_deref().is_some_and(ast_contains_subquery)
        }
        _ => false,
    }
}

/// Split an AST expression on top-level ANDs.
fn split_ast_conjuncts(expr: &AstExpr) -> Vec<AstExpr> {
    match expr {
        AstExpr::Binary { op: BinOp::And, left, right } => {
            let mut out = split_ast_conjuncts(left);
            out.extend(split_ast_conjuncts(right));
            out
        }
        other => vec![other.clone()],
    }
}

/// Attach conjuncts to the deepest join whose combined schema covers
/// their columns; leftovers become a selection on top.
fn distribute_conjuncts(plan: LogicalPlan, conjs: Vec<Expr>) -> LogicalPlan {
    // Collect spine widths (top-down).
    fn widths(plan: &LogicalPlan, out: &mut Vec<usize>) {
        if let LogicalPlan::Join { left, right, .. } = plan {
            out.push(left.schema().len() + right.schema().len());
            widths(left, out);
        }
    }
    let mut spine_widths = Vec::new();
    widths(&plan, &mut spine_widths);
    if spine_widths.is_empty() {
        return if conjs.is_empty() { plan } else { plan.select(conjunction(conjs)) };
    }
    // For each conjunct pick the deepest spine join that covers it;
    // depth d counts joins from the top (0 = topmost).
    let mut per_depth: Vec<Vec<Expr>> = vec![Vec::new(); spine_widths.len()];
    let mut leftover = Vec::new();
    for c in conjs {
        if c.has_correlated() {
            leftover.push(c);
            continue;
        }
        let max_col = c.columns().iter().max();
        let Some(max_col) = max_col else {
            leftover.push(c);
            continue;
        };
        // Deepest join whose width covers max_col.
        let mut chosen = None;
        for (d, w) in spine_widths.iter().enumerate() {
            if *w > max_col {
                chosen = Some(d);
            } else {
                break;
            }
        }
        match chosen {
            Some(d) => per_depth[d].push(c),
            None => leftover.push(c),
        }
    }
    fn rebuild(plan: LogicalPlan, per_depth: &mut [Vec<Expr>], depth: usize) -> LogicalPlan {
        match plan {
            LogicalPlan::Join { left, right, predicate, fk_left_to_right }
                if depth < per_depth.len() =>
            {
                let new_left = rebuild(*left, per_depth, depth + 1);
                let extra = std::mem::take(&mut per_depth[depth]);
                let predicate = if extra.is_empty() {
                    predicate
                } else {
                    let mut all = vec![predicate];
                    all.extend(extra);
                    // Drop a leading literal-true placeholder.
                    let all: Vec<Expr> =
                        all.into_iter().filter(|e| *e != Expr::lit(true)).collect();
                    conjunction(all)
                };
                LogicalPlan::Join { left: Box::new(new_left), right, predicate, fk_left_to_right }
            }
            other => other,
        }
    }
    let plan = rebuild(plan, &mut per_depth, 0);
    if leftover.is_empty() {
        plan
    } else {
        plan.select(conjunction(leftover))
    }
}

fn is_aggregate_name(name: &str) -> bool {
    matches!(name, "count" | "sum" | "avg" | "min" | "max")
}
