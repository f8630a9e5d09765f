//! Structured diagnostics with stable `GP0xx` codes.
//!
//! Every verdict the analyzer (and, since this PR, the runtime rewrite
//! rules in `gpivot-core`) can produce carries one of the codes below, so
//! static analysis and runtime rule rejections speak the same language.
//! Codes are **stable**: tools may match on them, so a code is never
//! renumbered — retired codes are left reserved.
//!
//! The full rule table (code → paper section/equation → meaning) lives in
//! `DESIGN.md` §4d.

use gpivot_algebra::Plan;
use std::fmt;

/// Severity of a [`Diagnostic`].
///
/// * `Error` — the plan violates a hard precondition of the paper's
///   operators (e.g. the §2.1 `(K, A1..Am)` key requirement); compilation
///   or maintenance **will** fail. `ViewManager::register_view` refuses
///   such plans unless [`ViewOptions::skip_plan_lint`] is set.
/// * `Warn` — the plan is executable but loses an optimization the paper
///   provides (pullup blocked, self-maintainability lost, …); maintenance
///   falls back to a slower strategy.
/// * `Info` — advisory facts about the plan shape.
///
/// [`ViewOptions::skip_plan_lint`]: https://docs.rs/gpivot-core
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Info,
    Warn,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warn => write!(f, "warn"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes for GPIVOT plan analysis.
///
/// `GP001`–`GP009` are hard errors (the plan cannot be compiled or
/// maintained); `GP010`–`GP019` are warnings (an optimization of the paper
/// is lost); `GP020`+ are advisory. The same codes are carried by runtime
/// `CoreError::RuleNotApplicable` rejections so the static analyzer and
/// the rewrite engine can be cross-checked against each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagCode {
    /// §2.1: the GPIVOT input declares no candidate key, so the
    /// `(K, A1..Am)` key requirement cannot hold.
    Gp001PivotInputNoKey,
    /// §2.1: a pivot measure (`on`) column is part of the input key — the
    /// key would be destroyed by pivoting it away.
    Gp002MeasureInKey,
    /// The pivot/unpivot spec itself is malformed (empty or duplicate
    /// dimension/measure lists, group arity mismatch, …).
    Gp003InvalidSpec,
    /// §4.1: an encoded pivot output column collides with a carried-through
    /// `K` column, so the output schema would contain duplicate names.
    Gp004OutputCollision,
    /// The plan does not type-check for a reason outside the pivot spec
    /// (unknown table/column, schema mismatch in Union/Diff, …).
    Gp005TypeCheck,
    /// §5.1 / Fig. 8: an operator above a pivot does not preserve the
    /// candidate key, blocking pullup; maintenance falls back to
    /// insert/delete propagation or recompute.
    Gp010KeyNotPreserved,
    /// Eq. 7 / Fig. 29: a selection over pivoted output columns is not
    /// null-intolerant (or not in pushable form), so the self-join
    /// pushdown and `SelectPivotUpdate` strategy do not apply.
    Gp011SelectOverCells,
    /// §5.1.2: a projection above a pivot drops pivoted output columns,
    /// so the pivot cannot be pulled above it.
    Gp012ProjectDropsCells,
    /// §5.1.3: a join above a pivot constrains pivoted output columns
    /// (join keys or residual), blocking join pullup.
    Gp013JoinOnCells,
    /// Outer joins are outside the paper's delta-propagation rules; views
    /// containing them are maintained by recomputation.
    Gp014OuterJoin,
    /// Eq. 8 / §5.1.4: an aggregate above a pivot is not ⊥-respecting
    /// (`COUNT`/`COUNT(*)`/`AVG`) or its aggregate list does not match the
    /// pivoted cells, so groupby pullup does not apply.
    Gp015AggNotBottomRespecting,
    /// Fig. 27/28: a `MIN`/`MAX`/`AVG` aggregate feeding a pivot is not
    /// self-maintainable under deletes; `GroupPivotUpdate` degrades to
    /// `GroupByInsDel` or recompute on deletions.
    Gp016AggNotSelfMaintainable,
    /// §4.2.3 / Fig. 7: two adjacent GPIVOTs are not combinable; the
    /// verdict names the obstruction case.
    Gp017PivotsNotCombinable,
    /// Bag `Union` discards the candidate key (duplicates possible), so no
    /// key-requiring operator (notably GPIVOT) can sit above it.
    Gp018UnionLosesKey,
    /// §5.1.4: a GROUPBY groups on pivoted output columns — the pulled-up
    /// form is inexpressible.
    Gp019GroupByOnCells,
    /// A rewrite rule's structural pattern did not match (wrong operator
    /// shape at the top). Runtime-only: the analyzer does not flag shape
    /// mismatches because they carry no information about the plan itself.
    Gp020RuleShapeMismatch,
    /// Fig. 22: a pivot is trapped below an operator no pullup rule crosses
    /// (Union/Diff), so deltas reaching it use generic insert/delete
    /// propagation.
    Gp021StuckPivot,
    /// Eq. 9/10/12: a pivot/unpivot pair does not exactly reverse (or
    /// their parameters overlap), so cancellation/swap does not apply.
    Gp022PivotUnpivotMismatch,
    /// §4.2.3: the shard-safety dataflow could not prove the plan exact
    /// over disjoint hash partitions; the serve tier maintains it on a
    /// single shard instead of sharding it.
    Gp023NotShardSafe,
    /// §4.2.3: the plan is proven shard-safe; the message names the
    /// chosen partition layout (shard key per table).
    Gp024ShardSafe,
}

impl DiagCode {
    /// Every defined code, in numeric order.
    pub const ALL: [DiagCode; 20] = [
        DiagCode::Gp001PivotInputNoKey,
        DiagCode::Gp002MeasureInKey,
        DiagCode::Gp003InvalidSpec,
        DiagCode::Gp004OutputCollision,
        DiagCode::Gp005TypeCheck,
        DiagCode::Gp010KeyNotPreserved,
        DiagCode::Gp011SelectOverCells,
        DiagCode::Gp012ProjectDropsCells,
        DiagCode::Gp013JoinOnCells,
        DiagCode::Gp014OuterJoin,
        DiagCode::Gp015AggNotBottomRespecting,
        DiagCode::Gp016AggNotSelfMaintainable,
        DiagCode::Gp017PivotsNotCombinable,
        DiagCode::Gp018UnionLosesKey,
        DiagCode::Gp019GroupByOnCells,
        DiagCode::Gp020RuleShapeMismatch,
        DiagCode::Gp021StuckPivot,
        DiagCode::Gp022PivotUnpivotMismatch,
        DiagCode::Gp023NotShardSafe,
        DiagCode::Gp024ShardSafe,
    ];

    /// The stable wire form, e.g. `"GP010"`.
    pub fn as_str(self) -> &'static str {
        match self {
            DiagCode::Gp001PivotInputNoKey => "GP001",
            DiagCode::Gp002MeasureInKey => "GP002",
            DiagCode::Gp003InvalidSpec => "GP003",
            DiagCode::Gp004OutputCollision => "GP004",
            DiagCode::Gp005TypeCheck => "GP005",
            DiagCode::Gp010KeyNotPreserved => "GP010",
            DiagCode::Gp011SelectOverCells => "GP011",
            DiagCode::Gp012ProjectDropsCells => "GP012",
            DiagCode::Gp013JoinOnCells => "GP013",
            DiagCode::Gp014OuterJoin => "GP014",
            DiagCode::Gp015AggNotBottomRespecting => "GP015",
            DiagCode::Gp016AggNotSelfMaintainable => "GP016",
            DiagCode::Gp017PivotsNotCombinable => "GP017",
            DiagCode::Gp018UnionLosesKey => "GP018",
            DiagCode::Gp019GroupByOnCells => "GP019",
            DiagCode::Gp020RuleShapeMismatch => "GP020",
            DiagCode::Gp021StuckPivot => "GP021",
            DiagCode::Gp022PivotUnpivotMismatch => "GP022",
            DiagCode::Gp023NotShardSafe => "GP023",
            DiagCode::Gp024ShardSafe => "GP024",
        }
    }

    /// The severity the analyzer assigns when it emits this code.
    pub fn default_severity(self) -> Severity {
        match self {
            DiagCode::Gp001PivotInputNoKey
            | DiagCode::Gp002MeasureInKey
            | DiagCode::Gp003InvalidSpec
            | DiagCode::Gp004OutputCollision
            | DiagCode::Gp005TypeCheck => Severity::Error,
            DiagCode::Gp010KeyNotPreserved
            | DiagCode::Gp011SelectOverCells
            | DiagCode::Gp012ProjectDropsCells
            | DiagCode::Gp013JoinOnCells
            | DiagCode::Gp014OuterJoin
            | DiagCode::Gp015AggNotBottomRespecting
            | DiagCode::Gp016AggNotSelfMaintainable
            | DiagCode::Gp017PivotsNotCombinable
            | DiagCode::Gp018UnionLosesKey => Severity::Warn,
            DiagCode::Gp019GroupByOnCells
            | DiagCode::Gp020RuleShapeMismatch
            | DiagCode::Gp021StuckPivot
            | DiagCode::Gp022PivotUnpivotMismatch
            | DiagCode::Gp023NotShardSafe
            | DiagCode::Gp024ShardSafe => Severity::Info,
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One analyzer finding, anchored to a plan node.
///
/// `plan_path` is the path of child indexes from the root (unary operators
/// have one child at index 0; `Join`/`Union`/`Diff` have left = 0,
/// right = 1), matching [`Plan::children`] order — and therefore the
/// preorder line produced by `Plan::explain`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub code: DiagCode,
    pub severity: Severity,
    /// Child-index path from the plan root to the offending node.
    pub plan_path: Vec<usize>,
    pub message: String,
    /// What to do about it, when the analyzer has a concrete suggestion.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// A diagnostic at `path` with the code's default severity.
    pub fn new(code: DiagCode, path: Vec<usize>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity(),
            plan_path: path,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Attach a remediation suggestion.
    pub fn with_suggestion(mut self, s: impl Into<String>) -> Self {
        self.suggestion = Some(s.into());
        self
    }

    /// The node this diagnostic anchors to, if the path is still valid for
    /// `plan`.
    pub fn node<'p>(&self, plan: &'p Plan) -> Option<&'p Plan> {
        let mut node = plan;
        for &i in &self.plan_path {
            node = *node.children().get(i)?;
        }
        Some(node)
    }

    /// The 0-based line of the offending node in `Plan::explain` output:
    /// `explain` prints one line per node in preorder, so the line index is
    /// the number of nodes visited before the target.
    pub fn explain_line(&self, plan: &Plan) -> Option<usize> {
        fn walk(node: &Plan, path: &[usize], line: &mut usize) -> Option<usize> {
            if path.is_empty() {
                return Some(*line);
            }
            let children = node.children();
            let target = path[0];
            if target >= children.len() {
                return None;
            }
            *line += 1;
            for (i, child) in children.into_iter().enumerate() {
                if i == target {
                    return walk(child, &path[1..], line);
                }
                *line += child.node_count();
            }
            None
        }
        let mut line = 0;
        walk(plan, &self.plan_path, &mut line)
    }

    /// Render this diagnostic as JSON (hand-rolled; the workspace has no
    /// serde).
    pub fn to_json(&self) -> String {
        let path: Vec<String> = self.plan_path.iter().map(|i| i.to_string()).collect();
        let mut out = format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"plan_path\":[{}],\"message\":\"{}\"",
            self.code,
            self.severity,
            path.join(","),
            json_escape(&self.message),
        );
        if let Some(s) = &self.suggestion {
            out.push_str(&format!(",\"suggestion\":\"{}\"", json_escape(s)));
        }
        out.push('}');
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let path: Vec<String> = self.plan_path.iter().map(|i| i.to_string()).collect();
        write!(
            f,
            "{}[{}] at plan node /{}: {}",
            self.severity,
            self.code,
            path.join("/"),
            self.message
        )?;
        if let Some(s) = &self.suggestion {
            write!(f, " (suggestion: {s})")?;
        }
        Ok(())
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpivot_algebra::{Expr, PivotSpec};
    use gpivot_storage::Value;

    fn plan() -> Plan {
        // Join(Select(Scan), GPivot(Scan)) — 5 nodes.
        Plan::scan("t")
            .select(Expr::col("a").gt(Expr::lit(1i64)))
            .join(
                Plan::scan("u").gpivot(PivotSpec::simple("k", "v", vec![Value::str("x")])),
                vec![("a", "b")],
            )
    }

    #[test]
    fn codes_are_unique_and_ordered() {
        let strs: Vec<&str> = DiagCode::ALL.iter().map(|c| c.as_str()).collect();
        let mut sorted = strs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), DiagCode::ALL.len(), "duplicate code strings");
    }

    #[test]
    fn path_resolves_to_node() {
        let p = plan();
        let d = Diagnostic::new(DiagCode::Gp001PivotInputNoKey, vec![1], "x");
        assert!(matches!(d.node(&p), Some(Plan::GPivot { .. })));
        let d = Diagnostic::new(DiagCode::Gp005TypeCheck, vec![0, 0], "x");
        assert!(matches!(d.node(&p), Some(Plan::Scan { .. })));
        let d = Diagnostic::new(DiagCode::Gp005TypeCheck, vec![7], "x");
        assert!(d.node(&p).is_none());
    }

    #[test]
    fn explain_line_matches_preorder() {
        let p = plan();
        // Preorder: 0 Join, 1 Select, 2 Scan t, 3 GPivot, 4 Scan u.
        let line = |path: Vec<usize>| {
            Diagnostic::new(DiagCode::Gp005TypeCheck, path, "x").explain_line(&p)
        };
        assert_eq!(line(vec![]), Some(0));
        assert_eq!(line(vec![0]), Some(1));
        assert_eq!(line(vec![0, 0]), Some(2));
        assert_eq!(line(vec![1]), Some(3));
        assert_eq!(line(vec![1, 0]), Some(4));
        // The explain text must have exactly one line per node.
        assert_eq!(p.explain().lines().count(), p.node_count());
    }

    #[test]
    fn json_escapes_specials() {
        let d = Diagnostic::new(DiagCode::Gp005TypeCheck, vec![0, 1], "a \"quoted\"\nline")
            .with_suggestion("back\\slash");
        let j = d.to_json();
        assert!(j.contains("\\\"quoted\\\""));
        assert!(j.contains("\\n"));
        assert!(j.contains("back\\\\slash"));
        assert!(j.contains("\"plan_path\":[0,1]"));
    }
}
