//! Unit tests for the lint passes.

use crate::context::Ambient;
use crate::registry::LintRegistry;
use crate::Severity;
use xmlpub_algebra::{LogicalPlan, ProjectItem};
use xmlpub_common::{DataType, Field, Schema};
use xmlpub_expr::{AggExpr, Expr};

fn schema3() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Float),
        Field::new("s", DataType::Str),
    ])
}

fn scan() -> LogicalPlan {
    LogicalPlan::scan("t", schema3())
}

fn rules_of(diags: &[crate::Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

#[test]
fn clean_gapply_plan_lints_clean() {
    let pgq = LogicalPlan::group_scan(schema3())
        .select(Expr::col(1).gt(Expr::lit(10.0)))
        .scalar_agg(vec![AggExpr::avg(Expr::col(1), "avg_v")]);
    let plan = scan().gapply(vec![0], pgq);
    let diags = LintRegistry::default().lint_plan(&plan);
    assert!(diags.is_empty(), "unexpected diagnostics: {diags:?}");
}

#[test]
fn base_scan_inside_pgq_is_flagged_with_path() {
    let plan = scan().gapply(vec![0], scan());
    let diags = LintRegistry::default().lint_plan(&plan);
    assert!(rules_of(&diags).contains(&"pgq-operators"), "{diags:?}");
    let d = diags.iter().find(|d| d.rule == "pgq-operators").unwrap();
    assert_eq!(d.path.0, vec![1], "should point at the pgq child: {d}");
    assert_eq!(d.severity, Severity::Error);
}

#[test]
fn group_scan_outside_pgq_is_flagged() {
    let plan = LogicalPlan::group_scan(schema3());
    let diags = LintRegistry::default().lint_plan(&plan);
    assert!(rules_of(&diags).contains(&"pgq-operators"), "{diags:?}");
}

#[test]
fn group_scan_type_mismatch_names_the_column() {
    let wrong = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Str), // Float in the group schema
        Field::new("s", DataType::Str),
    ]);
    let plan = scan().gapply(vec![0], LogicalPlan::group_scan(wrong));
    let diags = LintRegistry::default().lint_plan(&plan);
    let d = diags.iter().find(|d| d.rule == "pgq-operators").unwrap();
    assert!(d.message.contains("column #1"), "{d}");
    assert!(d.message.contains("`v`"), "{d}");
}

#[test]
fn group_scan_name_mismatch_is_flagged() {
    let wrong = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("wrong", DataType::Float),
        Field::new("s", DataType::Str),
    ]);
    let plan = scan().gapply(vec![0], LogicalPlan::group_scan(wrong));
    let diags = LintRegistry::default().lint_plan(&plan);
    assert!(rules_of(&diags).contains(&"pgq-operators"), "{diags:?}");
}

#[test]
fn nested_gapply_and_join_in_pgq_are_flagged() {
    let inner_ga =
        LogicalPlan::group_scan(schema3()).gapply(vec![0], LogicalPlan::group_scan(schema3()));
    let plan = scan().gapply(vec![0], inner_ga);
    let diags = LintRegistry::default().lint_plan(&plan);
    assert!(diags.iter().any(|d| d.message.contains("nested")), "{diags:?}");

    let join_pgq = LogicalPlan::group_scan(schema3()).join(scan(), Expr::col(0).eq(Expr::col(3)));
    let plan = scan().gapply(vec![0], join_pgq);
    let diags = LintRegistry::default().lint_plan(&plan);
    assert!(diags.iter().any(|d| d.message.contains("join")), "{diags:?}");
}

#[test]
fn parallel_safety_audits_every_whitelisted_pgq_operator() {
    // A PGQ exercising the whole §3 whitelist — group scan, select,
    // project, sort, distinct, apply/exists, aggregation, union — whose
    // operators are also the ones cleared for worker-thread execution:
    // pgq-operators stays silent.
    let branch = || {
        LogicalPlan::group_scan(schema3())
            .select(Expr::col(1).gt(Expr::lit(10.0)))
            .project_cols(&[0, 1, 2])
            .order_by(vec![xmlpub_algebra::SortKey::asc(0)])
            .distinct()
    };
    let pgq = LogicalPlan::union_all(vec![branch(), branch()])
        .apply(
            LogicalPlan::group_scan(schema3()).select(Expr::col(0).gt(Expr::lit(0))).exists(),
            xmlpub_algebra::ApplyMode::Cross,
        )
        .apply(
            LogicalPlan::group_scan(schema3()).scalar_agg(vec![AggExpr::count_star("n")]),
            xmlpub_algebra::ApplyMode::Cross,
        )
        .group_by(vec![0], vec![AggExpr::avg(Expr::col(1), "avg_v")]);
    let plan = scan().gapply(vec![0], pgq);
    let diags = LintRegistry::default().lint_plan(&plan);
    assert!(diags.is_empty(), "whitelisted PGQ operators must lint clean: {diags:?}");
}

#[test]
fn parallel_safety_flags_unaudited_pgq_operators() {
    // A join inside the PGQ is outside the whitelist, so pgq-operators
    // refuses it (and with it, worker-thread execution) at the join.
    let join_pgq = LogicalPlan::group_scan(schema3()).join(scan(), Expr::col(0).eq(Expr::col(3)));
    let plan = scan().gapply(vec![0], join_pgq);
    let diags = LintRegistry::default().lint_plan(&plan);
    let d = diags
        .iter()
        .find(|d| d.rule == "pgq-operators" && d.path.0 == vec![1])
        .unwrap_or_else(|| panic!("join in PGQ must be flagged at the join: {diags:?}"));
    assert!(d.message.contains("not a permitted per-group query operator"), "{d}");
    assert_eq!(d.severity, Severity::Error);
    // Outside a PGQ the same join is legal.
    let diags =
        LintRegistry::default().lint_plan(&scan().join(scan(), Expr::col(0).eq(Expr::col(3))));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn out_of_range_column_is_flagged() {
    let plan = scan().select(Expr::col(7).gt(Expr::lit(1)));
    let diags = LintRegistry::default().lint_plan(&plan);
    assert!(rules_of(&diags).contains(&"column-bounds"), "{diags:?}");
}

#[test]
fn unbound_correlated_reference_is_flagged() {
    let plan = scan().select(Expr::col(0).eq(Expr::Correlated { level: 0, index: 0 }));
    let diags = LintRegistry::default().lint_plan(&plan);
    assert!(rules_of(&diags).contains(&"correlation-depth"), "{diags:?}");

    // The same reference under an Apply is fine.
    let inner = scan().select(Expr::col(0).eq(Expr::Correlated { level: 0, index: 0 }));
    let plan = scan().apply(inner, xmlpub_algebra::ApplyMode::Cross);
    let diags = LintRegistry::default().lint_plan(&plan);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn union_type_conflict_names_the_column() {
    let other = LogicalPlan::scan(
        "u",
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Str), // Float in branch 0
            Field::new("s", DataType::Str),
        ]),
    );
    let plan = LogicalPlan::UnionAll { inputs: vec![scan(), other] };
    let diags = LintRegistry::default().lint_plan(&plan);
    let d = diags.iter().find(|d| d.rule == "pgq-operators").unwrap();
    assert!(d.message.contains("column #1"), "{d}");
}

#[test]
fn schema_preservation_catches_renames_and_arity() {
    let reg = LintRegistry::default();
    let before = scan();
    let renamed = scan().project(vec![
        ProjectItem::col(0),
        ProjectItem::named(Expr::col(1), "renamed"),
        ProjectItem::col(2),
    ]);
    let diags = reg.lint_rewrite("some-rule", &before, &renamed, &Ambient::root());
    assert!(rules_of(&diags).contains(&"schema-preservation"), "{diags:?}");

    let narrowed = scan().project_cols(&[0, 1]);
    let diags = reg.lint_rewrite("some-rule", &before, &narrowed, &Ambient::root());
    assert!(diags.iter().any(|d| d.message.contains("arity")), "{diags:?}");

    // Identity rewrite is clean.
    let diags = reg.lint_rewrite("some-rule", &before, &scan(), &Ambient::root());
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn provenance_catches_column_swap() {
    let reg = LintRegistry::default();
    // Both sides expose (k, v, s) by name, but the rewrite swaps the two
    // Str-typed sources for column 2 vs a second table — simulate by
    // projecting a different source column under the same alias/type.
    let wide = Schema::new(vec![Field::new("a", DataType::Str), Field::new("b", DataType::Str)]);
    let t = LogicalPlan::scan("w", wide);
    let before = t.clone().project(vec![ProjectItem::col(0), ProjectItem::col(1)]);
    let after = t.project(vec![
        ProjectItem::named(Expr::col(1), "a"),
        ProjectItem::named(Expr::col(0), "b"),
    ]);
    let diags = reg.lint_rewrite("some-rule", &before, &after, &Ambient::root());
    assert!(rules_of(&diags).contains(&"column-provenance"), "{diags:?}");
    assert!(diags.iter().any(|d| d.message.contains("rerouted")), "{diags:?}");
}

#[test]
fn origins_trace_through_gapply() {
    let pgq = LogicalPlan::group_scan(schema3())
        .select(Expr::col(1).gt(Expr::lit(1.0)))
        .project_cols(&[2, 1]);
    let plan = scan().gapply(vec![0], pgq);
    let or = crate::passes::origins(&plan);
    assert_eq!(or[0], Some(("t".to_string(), 0))); // key
    assert_eq!(or[1], Some(("t".to_string(), 2))); // projected s
    assert_eq!(or[2], Some(("t".to_string(), 1))); // projected v
}

#[test]
fn select_before_gapply_audit_accepts_the_sound_shape() {
    let reg = LintRegistry::default();
    let pred = Expr::col(1).gt(Expr::lit(10.0));
    let pgq = LogicalPlan::group_scan(schema3()).select(pred.clone());
    let before = scan().gapply(vec![0], pgq.clone());
    let after = scan().select(pred).gapply(vec![0], pgq);
    let diags = reg.lint_rewrite("select-before-gapply", &before, &after, &Ambient::root());
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn select_before_gapply_audit_rejects_wrong_predicate() {
    let reg = LintRegistry::default();
    let pred = Expr::col(1).gt(Expr::lit(10.0));
    let wrong = Expr::col(1).gt(Expr::lit(99.0));
    let pgq = LogicalPlan::group_scan(schema3()).select(pred);
    let before = scan().gapply(vec![0], pgq.clone());
    let after = scan().select(wrong).gapply(vec![0], pgq);
    let diags = reg.lint_rewrite("select-before-gapply", &before, &after, &Ambient::root());
    assert!(rules_of(&diags).contains(&"audit-select-before-gapply"), "{diags:?}");
}

#[test]
fn to_groupby_audit_checks_keys_and_shape() {
    let reg = LintRegistry::default();
    let pgq = LogicalPlan::group_scan(schema3()).scalar_agg(vec![AggExpr::count_star("n")]);
    let before = scan().gapply(vec![0], pgq);
    let good = scan().group_by(vec![0], vec![AggExpr::count_star("n")]);
    let diags = reg.lint_rewrite("gapply-to-groupby", &before, &good, &Ambient::root());
    assert!(diags.is_empty(), "{diags:?}");

    // Wrong keys: group on a different column.
    let bad = scan().group_by(vec![1], vec![AggExpr::count_star("n")]);
    let diags = reg.lint_rewrite("gapply-to-groupby", &before, &bad, &Ambient::root());
    assert!(rules_of(&diags).contains(&"audit-gapply-to-groupby"), "{diags:?}");
}

#[test]
fn properties_pass_attributes_broken_claims_to_the_guilty_rule() {
    use xmlpub_analysis::{Claim, ClaimSubject};
    let reg = LintRegistry::default();
    let before = scan().distinct();
    let after = scan().distinct();

    // An honest claim — distinct makes the whole row a key — verifies.
    let good = Claim::key_within(
        ClaimSubject::Output,
        vec![],
        (0..3).collect(),
        "distinct output row is a key",
    );
    let diags = reg.lint_rewrite_claimed("honest-rule", &before, &after, &Ambient::root(), &[good]);
    assert!(diags.is_empty(), "{diags:?}");

    // A rule inventing a single-column key is caught, attributed by
    // name, and the re-derived facts appear in the message.
    let bad = Claim::key_within(
        ClaimSubject::Output,
        vec![],
        std::iter::once(1).collect(),
        "invented key",
    );
    let diags = reg.lint_rewrite_claimed("buggy-rule", &before, &after, &Ambient::root(), &[bad]);
    let d = diags
        .iter()
        .find(|d| d.rule == "properties")
        .expect("broken claim must produce a properties diagnostic");
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("buggy-rule"), "{d}");
    assert!(d.message.contains("key within {#1}"), "{d}");

    // A claim whose path no longer resolves is also an error.
    let lost = Claim::key_within(
        ClaimSubject::Input,
        vec![0, 0, 0, 0],
        std::iter::once(0).collect(),
        "dangling path",
    );
    let diags = reg.lint_rewrite_claimed("buggy-rule", &before, &after, &Ambient::root(), &[lost]);
    assert!(
        diags.iter().any(|d| d.rule == "properties" && d.message.contains("does not resolve")),
        "{diags:?}"
    );
}

#[test]
fn properties_pass_rejects_disjoint_cardinality_rewrites() {
    let reg = LintRegistry::default();
    // A scalar aggregate returns exactly one row; a union of two scalar
    // aggregates returns exactly two. The intervals are disjoint, so
    // whichever side is wrong, the rewrite cannot be right.
    let one = scan().scalar_agg(vec![AggExpr::count_star("n")]);
    let two = LogicalPlan::union_all(vec![
        scan().scalar_agg(vec![AggExpr::count_star("n")]),
        scan().scalar_agg(vec![AggExpr::count_star("n")]),
    ]);
    let diags = reg.lint_rewrite("bad-cardinality-rule", &one, &two, &Ambient::root());
    let d = diags
        .iter()
        .find(|d| d.rule == "properties")
        .expect("disjoint cardinality must be flagged");
    assert!(d.message.contains("bad-cardinality-rule"), "{d}");
    assert!(d.message.contains("disjoint"), "{d}");
}

#[test]
fn properties_pass_rejects_destroyed_sort_order() {
    let reg = LintRegistry::default();
    let sorted = scan().order_by(vec![xmlpub_algebra::SortKey::asc(0)]);
    let unsorted = scan();
    let diags = reg.lint_rewrite("order-dropping-rule", &sorted, &unsorted, &Ambient::root());
    assert!(
        diags.iter().any(|d| d.rule == "properties" && d.message.contains("sort order")),
        "{diags:?}"
    );
    // Keeping (or strengthening) the order is fine.
    let stronger =
        scan().order_by(vec![xmlpub_algebra::SortKey::asc(0), xmlpub_algebra::SortKey::asc(1)]);
    let diags = reg.lint_rewrite("order-keeping-rule", &sorted, &stronger, &Ambient::root());
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn tagger_safety_requires_a_provable_sort_prefix() {
    use crate::passes::check_tagger_safety;
    use xmlpub_analysis::CatalogProperties;
    let cat = CatalogProperties::empty();
    let sorted =
        scan().order_by(vec![xmlpub_algebra::SortKey::asc(0), xmlpub_algebra::SortKey::asc(1)]);
    assert!(check_tagger_safety(&sorted, 2, &cat).is_none());
    let d = check_tagger_safety(&scan(), 2, &cat).expect("unsorted root must be flagged");
    assert_eq!(d.rule, "tagger-safety");
    assert!(d.message.contains("0..2"), "{d}");
}

#[test]
fn errors_sort_before_warnings() {
    use crate::diagnostic::{Diagnostic, PlanPath};
    use crate::registry::LintPass;

    struct Noisy;
    impl LintPass for Noisy {
        fn name(&self) -> &'static str {
            "noisy"
        }
        fn check_node(
            &self,
            _node: &LogicalPlan,
            _ambient: &Ambient,
            path: &PlanPath,
            out: &mut Vec<Diagnostic>,
        ) {
            out.push(Diagnostic::warning("noisy", path.clone(), "w"));
            out.push(Diagnostic::error("noisy", path.clone(), "e"));
        }
    }
    let mut reg = LintRegistry::empty();
    reg.push(Box::new(Noisy));
    let diags = reg.lint_plan(&scan());
    assert_eq!(diags[0].severity, Severity::Error);
}
