//! # gpivot-analyze
//!
//! Static analysis over the `gpivot-algebra` [`Plan`] IR: a bottom-up
//! dataflow ([`facts`]) derives per-node properties — inferred candidate
//! keys and functional dependencies, key preservation (§5.1 of the paper),
//! duplicate-sensitivity, aggregate self-maintainability, GPIVOT output
//! collision sets, pairwise combinability of adjacent pivots (§4.2.3) —
//! and a lint-rule registry ([`rules()`]) turns them into structured
//! [`Diagnostic`]s with stable `GP0xx` codes.
//!
//! The same codes are carried by the runtime rewrite rules in
//! `gpivot-core` (`CoreError::RuleNotApplicable`), so the static verdicts
//! and the rules' runtime rejections can be cross-checked against each
//! other; `ViewManager::register_view` runs [`analyze`] and refuses plans
//! with `Error`-severity findings.
//!
//! ```
//! use gpivot_algebra::{PivotSpec, Plan};
//! use gpivot_storage::{DataType, Schema, Value};
//! use std::collections::BTreeMap;
//! use std::sync::Arc;
//!
//! // A keyless input: pivoting it violates the §2.1 key requirement.
//! let mut schemas = BTreeMap::new();
//! schemas.insert(
//!     "t".to_string(),
//!     Arc::new(Schema::from_pairs(&[("a", DataType::Str), ("b", DataType::Int)]).unwrap()),
//! );
//! let plan = Plan::scan("t").gpivot(PivotSpec::simple("a", "b", vec![Value::str("x")]));
//!
//! let report = gpivot_analyze::analyze(&plan, &schemas);
//! assert!(report.has_errors());
//! assert_eq!(report.diagnostics[0].code.as_str(), "GP001");
//! ```

pub mod diagnostic;
pub mod facts;
pub mod rules;
pub mod shard;

pub use diagnostic::{json_escape, DiagCode, Diagnostic, Severity};
pub use facts::{derive_facts, fd_closure, Fd, NodeFacts};
pub use rules::{code_for_algebra_error, evaluate, rules, LintRule};
pub use shard::{shard_safety, ShardRouting, ShardVerdict, TableRoute};

use gpivot_algebra::{Plan, SchemaProvider};

/// The result of analyzing one plan: diagnostics (most severe first) plus
/// the facts tree they were derived from.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// All findings, sorted most-severe-first.
    pub diagnostics: Vec<Diagnostic>,
    /// The derived per-node facts (root of the tree).
    pub facts: NodeFacts,
    /// Plan size, for reporting.
    pub node_count: usize,
    /// Number of GPIVOT nodes.
    pub pivot_count: usize,
}

impl AnalysisReport {
    /// Error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Warn-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
    }

    /// True iff any finding is an error. `ViewManager::register_view`
    /// refuses such plans (unless lint is skipped).
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// True iff there are no findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The static maintenance-safety verdict the oracle tests validate:
    /// no error-severity finding means the view compiles and every
    /// registered maintenance strategy refreshes it exactly.
    pub fn maintenance_safe(&self) -> bool {
        !self.has_errors()
    }

    /// Distinct codes present, in code order.
    pub fn codes(&self) -> Vec<DiagCode> {
        let mut codes: Vec<DiagCode> = self.diagnostics.iter().map(|d| d.code).collect();
        codes.sort();
        codes.dedup();
        codes
    }

    /// Findings with a given code.
    pub fn with_code(&self, code: DiagCode) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Machine-readable JSON for this report (hand-rolled; no serde in the
    /// workspace).
    pub fn to_json(&self) -> String {
        let diags: Vec<String> = self.diagnostics.iter().map(|d| d.to_json()).collect();
        format!(
            "{{\"node_count\":{},\"pivot_count\":{},\"errors\":{},\"warnings\":{},\
             \"infos\":{},\"diagnostics\":[{}]}}",
            self.node_count,
            self.pivot_count,
            self.errors().count(),
            self.warnings().count(),
            self.diagnostics
                .iter()
                .filter(|d| d.severity == Severity::Info)
                .count(),
            diags.join(",")
        )
    }

    /// Render the plan tree (`Plan::explain`) with diagnostic markers on
    /// the offending lines, followed by the findings.
    pub fn render(&self, plan: &Plan) -> String {
        let explain = plan.explain();
        let mut lines: Vec<String> = explain.lines().map(String::from).collect();
        let width = lines.iter().map(|l| l.len()).max().unwrap_or(0);
        for d in &self.diagnostics {
            if let Some(idx) = d.explain_line(plan) {
                if let Some(line) = lines.get_mut(idx) {
                    let pad = width - line.len() + 2;
                    line.push_str(&" ".repeat(pad));
                    line.push_str(&format!("<-- {}[{}]", d.severity, d.code));
                }
            }
        }
        let mut out = lines.join("\n");
        if !self.diagnostics.is_empty() {
            out.push('\n');
            for d in &self.diagnostics {
                out.push('\n');
                out.push_str(&d.to_string());
            }
        }
        out
    }
}

/// Analyze a plan against a schema provider (a `Catalog` or a
/// `BTreeMap<String, SchemaRef>`). Infallible: plans that do not
/// type-check produce `Error`-severity diagnostics attributed to the
/// offending node rather than failing the analysis.
pub fn analyze<P: SchemaProvider>(plan: &Plan, provider: &P) -> AnalysisReport {
    let facts = derive_facts(plan, provider);
    let diagnostics = evaluate(plan, &facts);
    AnalysisReport {
        diagnostics,
        node_count: plan.node_count(),
        pivot_count: plan.pivot_count(),
        facts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpivot_algebra::{AggSpec, Expr, PivotSpec, PlanBuilder};
    use gpivot_storage::{DataType, Schema, SchemaRef, Value};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn provider() -> BTreeMap<String, SchemaRef> {
        let mut m = BTreeMap::new();
        m.insert(
            "iteminfo".to_string(),
            Arc::new(
                Schema::from_pairs_keyed(
                    &[
                        ("id", DataType::Int),
                        ("attr", DataType::Str),
                        ("val", DataType::Float),
                    ],
                    &["id", "attr"],
                )
                .unwrap(),
            ),
        );
        m.insert(
            "product".to_string(),
            Arc::new(
                Schema::from_pairs_keyed(
                    &[("pid", DataType::Int), ("maker", DataType::Str)],
                    &["pid"],
                )
                .unwrap(),
            ),
        );
        m
    }

    fn pivot() -> PlanBuilder {
        PlanBuilder::scan("iteminfo").gpivot(PivotSpec::simple(
            "attr",
            "val",
            vec![Value::str("TV"), Value::str("VCR")],
        ))
    }

    #[test]
    fn clean_pivot_join_plan() {
        let plan = pivot()
            .join(PlanBuilder::scan("product"), vec![("id", "pid")])
            .build();
        let report = analyze(&plan, &provider());
        assert!(report.is_clean(), "unexpected: {:?}", report.diagnostics);
        assert!(report.maintenance_safe());
        assert_eq!(report.pivot_count, 1);
    }

    #[test]
    fn keyless_pivot_is_gp001() {
        let mut p = provider();
        p.insert(
            "nokey".to_string(),
            Arc::new(Schema::from_pairs(&[("a", DataType::Str), ("b", DataType::Int)]).unwrap()),
        );
        let plan = Plan::scan("nokey").gpivot(PivotSpec::simple("a", "b", vec![Value::str("x")]));
        let report = analyze(&plan, &p);
        assert!(report.has_errors());
        assert_eq!(report.codes(), vec![DiagCode::Gp001PivotInputNoKey]);
        assert_eq!(report.diagnostics[0].plan_path, Vec::<usize>::new());
    }

    #[test]
    fn measure_in_key_is_gp002() {
        let mut p = provider();
        p.insert(
            "t".to_string(),
            Arc::new(
                Schema::from_pairs_keyed(
                    &[("a", DataType::Str), ("b", DataType::Int)],
                    &["a", "b"],
                )
                .unwrap(),
            ),
        );
        let plan = Plan::scan("t").gpivot(PivotSpec::simple("a", "b", vec![Value::str("x")]));
        let report = analyze(&plan, &p);
        assert_eq!(report.codes(), vec![DiagCode::Gp002MeasureInKey]);
    }

    #[test]
    fn null_tolerant_select_over_cells_is_gp011() {
        let cell = gpivot_algebra::encode_pivot_col(&[Value::str("TV")], "val");
        let plan = pivot()
            .select(Expr::IsNull(Box::new(Expr::col(cell))))
            .build();
        let report = analyze(&plan, &provider());
        assert_eq!(report.codes(), vec![DiagCode::Gp011SelectOverCells]);
        // A null-intolerant predicate over the same cell is clean.
        let cell = gpivot_algebra::encode_pivot_col(&[Value::str("TV")], "val");
        let plan = pivot().select(Expr::col(cell).gt(Expr::lit(10.0))).build();
        assert!(analyze(&plan, &provider()).is_clean());
    }

    #[test]
    fn project_dropping_cells_is_gp012_and_key_loss_gp010() {
        let cell = gpivot_algebra::encode_pivot_col(&[Value::str("TV")], "val");
        // Drops the VCR cell *and* the key column `id`.
        let plan = pivot().project_cols(&[cell.as_str()]).build();
        let report = analyze(&plan, &provider());
        let codes = report.codes();
        assert!(codes.contains(&DiagCode::Gp010KeyNotPreserved));
        assert!(codes.contains(&DiagCode::Gp012ProjectDropsCells));
    }

    #[test]
    fn join_on_cells_is_gp013() {
        let cell = gpivot_algebra::encode_pivot_col(&[Value::str("TV")], "val");
        let plan = pivot()
            .join(PlanBuilder::scan("product"), vec![(cell.as_str(), "pid")])
            .build();
        let report = analyze(&plan, &provider());
        assert!(report.codes().contains(&DiagCode::Gp013JoinOnCells));
    }

    #[test]
    fn count_over_pivot_is_gp015() {
        let cell = gpivot_algebra::encode_pivot_col(&[Value::str("TV")], "val");
        let cell2 = gpivot_algebra::encode_pivot_col(&[Value::str("VCR")], "val");
        let plan = pivot()
            .group_by(
                &["id"],
                vec![
                    AggSpec::count(cell.as_str(), "n"),
                    AggSpec::sum(cell2.as_str(), "s"),
                ],
            )
            .build();
        let report = analyze(&plan, &provider());
        assert!(report
            .codes()
            .contains(&DiagCode::Gp015AggNotBottomRespecting));
        // All-SUM coverage of every cell is clean.
        let plan = pivot()
            .group_by(
                &["id"],
                vec![
                    AggSpec::sum(cell.as_str(), "a"),
                    AggSpec::sum(cell2.as_str(), "b"),
                ],
            )
            .build();
        assert!(analyze(&plan, &provider()).is_clean());
    }

    #[test]
    fn min_feeding_pivot_is_gp016() {
        let plan = PlanBuilder::scan("iteminfo")
            .group_by(&["id", "attr"], vec![AggSpec::min("val", "lo")])
            .gpivot(PivotSpec::simple(
                "attr",
                "lo",
                vec![Value::str("TV"), Value::str("VCR")],
            ))
            .build();
        let report = analyze(&plan, &provider());
        assert_eq!(report.codes(), vec![DiagCode::Gp016AggNotSelfMaintainable]);
    }

    #[test]
    fn stacked_uncombinable_pivots_are_gp017() {
        // The outer pivot leaves the inner's VCR cell in its key.
        let cell = gpivot_algebra::encode_pivot_col(&[Value::str("TV")], "val");
        let plan = pivot()
            .gpivot(PivotSpec::new(
                vec!["id"],
                vec![cell.as_str()],
                vec![vec![Value::Int(1)]],
            ))
            .build();
        let report = analyze(&plan, &provider());
        assert!(report.codes().contains(&DiagCode::Gp017PivotsNotCombinable));
    }

    #[test]
    fn union_before_pivot_is_gp018_and_gp001() {
        let plan = PlanBuilder::scan("iteminfo")
            .union(PlanBuilder::scan("iteminfo"))
            .gpivot(PivotSpec::simple("attr", "val", vec![Value::str("TV")]))
            .build();
        let report = analyze(&plan, &provider());
        let codes = report.codes();
        assert!(codes.contains(&DiagCode::Gp001PivotInputNoKey));
        assert!(codes.contains(&DiagCode::Gp018UnionLosesKey));
        assert!(report.has_errors());
    }

    #[test]
    fn pivot_under_union_is_stuck_gp021() {
        let plan = pivot().union(pivot()).build();
        let report = analyze(&plan, &provider());
        assert!(report.codes().contains(&DiagCode::Gp021StuckPivot));
        assert_eq!(report.with_code(DiagCode::Gp021StuckPivot).count(), 2);
    }

    #[test]
    fn render_marks_offending_line() {
        let mut p = provider();
        p.insert(
            "nokey".to_string(),
            Arc::new(Schema::from_pairs(&[("a", DataType::Str), ("b", DataType::Int)]).unwrap()),
        );
        let plan = Plan::scan("nokey")
            .gpivot(PivotSpec::simple("a", "b", vec![Value::str("x")]))
            .project_cols(&["x**b"]);
        let report = analyze(&plan, &p);
        let rendered = report.render(&plan);
        // The GPivot line (preorder line 1) carries the GP001 marker.
        let marked: Vec<&str> = rendered
            .lines()
            .filter(|l| l.contains("<-- error[GP001]"))
            .collect();
        assert_eq!(marked.len(), 1);
        assert!(marked[0].trim_start().starts_with("GPivot") || marked[0].contains("GPIVOT"));
    }

    #[test]
    fn json_report_shape() {
        let plan = pivot().build();
        let report = analyze(&plan, &provider());
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"node_count\":2"));
        assert!(json.contains("\"pivot_count\":1"));
        assert!(json.contains("\"diagnostics\":[]"));
    }
}
