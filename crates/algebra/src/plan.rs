//! The logical operator tree.
//!
//! Operators mirror the paper's algebra: `SELECT` (σ), `PROJECT` (π),
//! `JOIN` (⨝, plus left/full outer variants used by the pivot definition),
//! `GROUPBY` (𝓕), bag `UNION`/`DIFF` (⊎ / ∸), and the generalized pivots
//! [`Plan::GPivot`] / [`Plan::GUnpivot`] (Eq. 3, 4). The simple `PIVOT` /
//! `UNPIVOT` of Eq. 1–2 are constructed as the 1-dimension special case via
//! [`PivotSpec::simple`] / [`UnpivotSpec::simple`].
//!
//! Plans are built by chaining the constructors, so the paper's example
//! views read almost like their algebra trees:
//!
//! ```
//! use gpivot_algebra::{PivotSpec, Plan};
//! use gpivot_storage::Value;
//!
//! // Figure 32: GPIVOT(lineitem) ⋈ orders
//! let view = Plan::scan("lineitem")
//!     .gpivot(PivotSpec::simple(
//!         "l_linenumber",
//!         "l_extendedprice",
//!         vec![Value::Int(1), Value::Int(2), Value::Int(3)],
//!     ))
//!     .join(Plan::scan("orders"), vec![("l_orderkey", "o_orderkey")]);
//! assert_eq!(view.pivot_count(), 1);
//! ```

use crate::aggregate::AggSpec;
use crate::error::{AlgebraError, Result};
use crate::expr::Expr;
use crate::names::encode_pivot_col;
use gpivot_storage::{Schema, Value};
use std::collections::BTreeSet;
use std::fmt;

/// Join kinds. The paper's GPIVOT definition uses full outer joins; its
/// update propagation rules use left outer joins between delta and view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    Inner,
    LeftOuter,
    FullOuter,
}

impl fmt::Display for JoinKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JoinKind::Inner => "inner",
            JoinKind::LeftOuter => "left-outer",
            JoinKind::FullOuter => "full-outer",
        };
        f.write_str(s)
    }
}

/// Parameters of a GPIVOT (Eq. 3).
///
/// Pivots the measure columns `on = [B1..Bn]` by the dimension columns
/// `by = [A1..Am]`, producing one output column per (output group, measure)
/// pair. `groups` are the *output parameters* `[(a¹₁..a¹ₘ), …, (aᵖ₁..aᵖₘ)]`.
#[derive(Debug, Clone, PartialEq)]
pub struct PivotSpec {
    /// Dimension columns `A1..Am` whose values become column-name segments.
    pub by: Vec<String>,
    /// Measure columns `B1..Bn` whose values fill the pivoted cells.
    pub on: Vec<String>,
    /// Output dimension-value tuples, each of arity `by.len()`.
    pub groups: Vec<Vec<Value>>,
}

impl PivotSpec {
    /// Build a generalized pivot spec.
    pub fn new(
        by: Vec<impl Into<String>>,
        on: Vec<impl Into<String>>,
        groups: Vec<Vec<Value>>,
    ) -> Self {
        PivotSpec {
            by: by.into_iter().map(Into::into).collect(),
            on: on.into_iter().map(Into::into).collect(),
            groups,
        }
    }

    /// The simple PIVOT of Eq. 1: one dimension column, one measure column.
    pub fn simple(by: impl Into<String>, on: impl Into<String>, values: Vec<Value>) -> Self {
        PivotSpec {
            by: vec![by.into()],
            on: vec![on.into()],
            groups: values.into_iter().map(|v| vec![v]).collect(),
        }
    }

    /// Cross-product constructor: `{Sony, Panasonic} × {TV, VCR}` style
    /// output parameters (Figure 5 in the paper).
    pub fn cross(
        by: Vec<impl Into<String>>,
        on: Vec<impl Into<String>>,
        dim_values: Vec<Vec<Value>>,
    ) -> Self {
        let by: Vec<String> = by.into_iter().map(Into::into).collect();
        assert_eq!(by.len(), dim_values.len(), "one value list per dimension");
        let mut groups: Vec<Vec<Value>> = vec![vec![]];
        for values in &dim_values {
            let mut next = Vec::with_capacity(groups.len() * values.len());
            for g in &groups {
                for v in values {
                    let mut g2 = g.clone();
                    g2.push(v.clone());
                    next.push(g2);
                }
            }
            groups = next;
        }
        PivotSpec {
            by,
            on: on.into_iter().map(Into::into).collect(),
            groups,
        }
    }

    /// Number of dimension columns `m`.
    pub fn dims(&self) -> usize {
        self.by.len()
    }

    /// Number of measure columns `n`.
    pub fn measures(&self) -> usize {
        self.on.len()
    }

    /// Encoded output column name for output group `gi` and measure `bj`.
    pub fn col_name(&self, gi: usize, bj: usize) -> String {
        encode_pivot_col(&self.groups[gi], &self.on[bj])
    }

    /// All pivoted output column names, group-major (`g0·B0, g0·B1, …`).
    pub fn output_col_names(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.groups.len() * self.on.len());
        for gi in 0..self.groups.len() {
            for bj in 0..self.on.len() {
                out.push(self.col_name(gi, bj));
            }
        }
        out
    }

    /// Validate the spec against an input schema; returns the `K` column
    /// names (input columns that are neither `by` nor `on`, in input order).
    pub fn validate(&self, input: &Schema) -> Result<Vec<String>> {
        if self.by.is_empty() || self.on.is_empty() {
            return Err(AlgebraError::InvalidPivotSpec(
                "pivot needs at least one `by` and one `on` column".into(),
            ));
        }
        if self.groups.is_empty() {
            return Err(AlgebraError::InvalidPivotSpec(
                "pivot needs at least one output group".into(),
            ));
        }
        let by_set: BTreeSet<&str> = self.by.iter().map(String::as_str).collect();
        let on_set: BTreeSet<&str> = self.on.iter().map(String::as_str).collect();
        if by_set.len() != self.by.len() || on_set.len() != self.on.len() {
            return Err(AlgebraError::InvalidPivotSpec(
                "duplicate column in `by` or `on`".into(),
            ));
        }
        if !by_set.is_disjoint(&on_set) {
            return Err(AlgebraError::InvalidPivotSpec(
                "`by` and `on` columns must be disjoint".into(),
            ));
        }
        for c in self.by.iter().chain(self.on.iter()) {
            input.index_of(c)?;
        }
        let mut seen = BTreeSet::new();
        for g in &self.groups {
            if g.len() != self.by.len() {
                return Err(AlgebraError::InvalidPivotSpec(format!(
                    "output group {g:?} has arity {} but there are {} `by` columns",
                    g.len(),
                    self.by.len()
                )));
            }
            if !seen.insert(g.clone()) {
                return Err(AlgebraError::InvalidPivotSpec(format!(
                    "duplicate output group {g:?}"
                )));
            }
        }
        Ok(input
            .column_names()
            .into_iter()
            .filter(|c| !by_set.contains(c) && !on_set.contains(c))
            .map(str::to_string)
            .collect())
    }

    /// Index of the output group equal to `tags`, if listed.
    pub fn group_index(&self, tags: &[Value]) -> Option<usize> {
        self.groups.iter().position(|g| g.as_slice() == tags)
    }
}

impl fmt::Display for PivotSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GPIVOT[")?;
        for (i, g) in self.groups.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "(")?;
            for (j, v) in g.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, ")")?;
        }
        write!(f, "] {} on {}", self.by.join(","), self.on.join(","))
    }
}

/// One unpivot group: the dimension values it decodes to, and the input
/// columns carrying its measures.
#[derive(Debug, Clone, PartialEq)]
pub struct UnpivotGroup {
    /// Dimension values `a¹..aᵐ` this group stands for.
    pub tags: Vec<Value>,
    /// Input column names (one per measure), e.g. `["Sony**TV**Price",
    /// "Sony**TV**Quantity"]`.
    pub cols: Vec<String>,
}

/// Parameters of a GUNPIVOT (Eq. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct UnpivotSpec {
    /// The groups to fold back into rows.
    pub groups: Vec<UnpivotGroup>,
    /// Output dimension column names (`A1..Am`).
    pub name_cols: Vec<String>,
    /// Output measure column names (`B1..Bn`).
    pub value_cols: Vec<String>,
}

impl UnpivotSpec {
    /// Build a generalized unpivot spec.
    pub fn new(
        groups: Vec<UnpivotGroup>,
        name_cols: Vec<impl Into<String>>,
        value_cols: Vec<impl Into<String>>,
    ) -> Self {
        UnpivotSpec {
            groups,
            name_cols: name_cols.into_iter().map(Into::into).collect(),
            value_cols: value_cols.into_iter().map(Into::into).collect(),
        }
    }

    /// The simple UNPIVOT of Eq. 2: each listed column becomes one group
    /// tagged with its own name, producing `(name_col, value_col)` pairs.
    pub fn simple(
        cols: Vec<impl Into<String>>,
        name_col: impl Into<String>,
        value_col: impl Into<String>,
    ) -> Self {
        let groups = cols
            .into_iter()
            .map(Into::into)
            .map(|c: String| UnpivotGroup {
                tags: vec![Value::str(&c)],
                cols: vec![c],
            })
            .collect();
        UnpivotSpec {
            groups,
            name_cols: vec![name_col.into()],
            value_cols: vec![value_col.into()],
        }
    }

    /// Build the spec that exactly reverses `pivot` (used by the
    /// cancellation rules, Eq. 9 / Eq. 12).
    pub fn reversing(pivot: &PivotSpec) -> Self {
        let groups = pivot
            .groups
            .iter()
            .enumerate()
            .map(|(gi, g)| UnpivotGroup {
                tags: g.clone(),
                cols: (0..pivot.on.len())
                    .map(|bj| pivot.col_name(gi, bj))
                    .collect(),
            })
            .collect();
        UnpivotSpec {
            groups,
            name_cols: pivot.by.clone(),
            value_cols: pivot.on.clone(),
        }
    }

    /// Validate against an input schema; returns the `K` column names
    /// (input columns not consumed by any group, in input order).
    pub fn validate(&self, input: &Schema) -> Result<Vec<String>> {
        if self.groups.is_empty() {
            return Err(AlgebraError::InvalidUnpivotSpec(
                "unpivot needs at least one group".into(),
            ));
        }
        if self.name_cols.is_empty() && self.value_cols.is_empty() {
            return Err(AlgebraError::InvalidUnpivotSpec(
                "unpivot needs output columns".into(),
            ));
        }
        let mut consumed: BTreeSet<&str> = BTreeSet::new();
        for g in &self.groups {
            if g.tags.len() != self.name_cols.len() {
                return Err(AlgebraError::InvalidUnpivotSpec(format!(
                    "group tags {:?} arity != {} name columns",
                    g.tags,
                    self.name_cols.len()
                )));
            }
            if g.cols.len() != self.value_cols.len() {
                return Err(AlgebraError::InvalidUnpivotSpec(format!(
                    "group cols {:?} arity != {} value columns",
                    g.cols,
                    self.value_cols.len()
                )));
            }
            for c in &g.cols {
                input.index_of(c)?;
                if !consumed.insert(c) {
                    return Err(AlgebraError::InvalidUnpivotSpec(format!(
                        "column `{c}` used by more than one unpivot group"
                    )));
                }
            }
        }
        Ok(input
            .column_names()
            .into_iter()
            .filter(|c| !consumed.contains(c))
            .map(str::to_string)
            .collect())
    }
}

impl fmt::Display for UnpivotSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GUNPIVOT[{} groups] → ({}; {})",
            self.groups.len(),
            self.name_cols.join(","),
            self.value_cols.join(",")
        )
    }
}

/// A projection item: an expression and its output name.
pub type ProjItem = (Expr, String);

/// A logical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan a named base table.
    Scan { table: String },
    /// σ — keep rows where `predicate` is true.
    Select { input: Box<Plan>, predicate: Expr },
    /// π — compute named output expressions (generalizes both positive and
    /// negative projection; no duplicate elimination, bag semantics).
    Project {
        input: Box<Plan>,
        items: Vec<ProjItem>,
    },
    /// ⨝ — equi-join on column-name pairs with an optional residual
    /// predicate over the concatenated schema.
    Join {
        left: Box<Plan>,
        right: Box<Plan>,
        kind: JoinKind,
        on: Vec<(String, String)>,
        residual: Option<Expr>,
    },
    /// 𝓕 — grouping with aggregates.
    GroupBy {
        input: Box<Plan>,
        group_by: Vec<String>,
        aggs: Vec<AggSpec>,
    },
    /// ⊎ — bag union (schemas must match).
    Union { left: Box<Plan>, right: Box<Plan> },
    /// ∸ — bag difference (schemas must match).
    Diff { left: Box<Plan>, right: Box<Plan> },
    /// GPIVOT (Eq. 3).
    GPivot { input: Box<Plan>, spec: PivotSpec },
    /// GUNPIVOT (Eq. 4).
    GUnpivot { input: Box<Plan>, spec: UnpivotSpec },
}

impl Plan {
    /// Scan constructor.
    pub fn scan(table: impl Into<String>) -> Plan {
        Plan::Scan {
            table: table.into(),
        }
    }

    /// σ constructor.
    pub fn select(self, predicate: Expr) -> Plan {
        Plan::Select {
            input: Box::new(self),
            predicate,
        }
    }

    /// π constructor from `(expr, name)` items.
    pub fn project(self, items: Vec<ProjItem>) -> Plan {
        Plan::Project {
            input: Box::new(self),
            items,
        }
    }

    /// Positive projection: keep exactly these columns, in this order.
    pub fn project_cols(self, cols: &[&str]) -> Plan {
        self.project(
            cols.iter()
                .map(|c| (Expr::col(*c), (*c).to_string()))
                .collect(),
        )
    }

    /// Inner equi-join constructor.
    pub fn join(self, right: Plan, on: Vec<(&str, &str)>) -> Plan {
        self.join_kind(right, JoinKind::Inner, on, None)
    }

    /// Join constructor with an explicit kind and optional residual predicate.
    pub fn join_kind(
        self,
        right: Plan,
        kind: JoinKind,
        on: Vec<(&str, &str)>,
        residual: Option<Expr>,
    ) -> Plan {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(right),
            kind,
            on: on
                .into_iter()
                .map(|(l, r)| (l.to_string(), r.to_string()))
                .collect(),
            residual,
        }
    }

    /// 𝓕 constructor.
    pub fn group_by(self, group_by: &[&str], aggs: Vec<AggSpec>) -> Plan {
        Plan::GroupBy {
            input: Box::new(self),
            group_by: group_by.iter().map(|s| s.to_string()).collect(),
            aggs,
        }
    }

    /// ⊎ constructor.
    pub fn union(self, right: Plan) -> Plan {
        Plan::Union {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// ∸ constructor.
    pub fn diff(self, right: Plan) -> Plan {
        Plan::Diff {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// GPIVOT constructor.
    pub fn gpivot(self, spec: PivotSpec) -> Plan {
        Plan::GPivot {
            input: Box::new(self),
            spec,
        }
    }

    /// GUNPIVOT constructor.
    pub fn gunpivot(self, spec: UnpivotSpec) -> Plan {
        Plan::GUnpivot {
            input: Box::new(self),
            spec,
        }
    }

    /// Immutable children, in order.
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Scan { .. } => vec![],
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::GroupBy { input, .. }
            | Plan::GPivot { input, .. }
            | Plan::GUnpivot { input, .. } => vec![input],
            Plan::Join { left, right, .. }
            | Plan::Union { left, right }
            | Plan::Diff { left, right } => vec![left, right],
        }
    }

    /// Names of all base tables scanned anywhere in the tree.
    pub fn base_tables(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_tables(&mut out);
        out
    }

    fn collect_tables(&self, out: &mut BTreeSet<String>) {
        if let Plan::Scan { table } = self {
            out.insert(table.clone());
        }
        for c in self.children() {
            c.collect_tables(out);
        }
    }

    /// Count of operator nodes (used to compare rewritten plans).
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }

    /// Number of GPIVOT nodes in the tree.
    pub fn pivot_count(&self) -> usize {
        let own = usize::from(matches!(self, Plan::GPivot { .. }));
        own + self
            .children()
            .iter()
            .map(|c| c.pivot_count())
            .sum::<usize>()
    }

    /// Operator name, for display.
    pub fn op_name(&self) -> &'static str {
        match self {
            Plan::Scan { .. } => "Scan",
            Plan::Select { .. } => "Select",
            Plan::Project { .. } => "Project",
            Plan::Join { .. } => "Join",
            Plan::GroupBy { .. } => "GroupBy",
            Plan::Union { .. } => "Union",
            Plan::Diff { .. } => "Diff",
            Plan::GPivot { .. } => "GPivot",
            Plan::GUnpivot { .. } => "GUnpivot",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpivot_storage::DataType;

    fn iteminfo_schema() -> Schema {
        Schema::from_pairs_keyed(
            &[
                ("AuctionID", DataType::Int),
                ("Attribute", DataType::Str),
                ("Value", DataType::Str),
            ],
            &["AuctionID", "Attribute"],
        )
        .unwrap()
    }

    #[test]
    fn simple_pivot_spec_names() {
        let spec = PivotSpec::simple(
            "Attribute",
            "Value",
            vec![Value::str("Manufacturer"), Value::str("Type")],
        );
        assert_eq!(
            spec.output_col_names(),
            vec!["Manufacturer**Value", "Type**Value"]
        );
        let k = spec.validate(&iteminfo_schema()).unwrap();
        assert_eq!(k, vec!["AuctionID"]);
    }

    #[test]
    fn cross_spec_builds_product() {
        let spec = PivotSpec::cross(
            vec!["Manu", "Type"],
            vec!["Price"],
            vec![
                vec![Value::str("Sony"), Value::str("Panasonic")],
                vec![Value::str("TV"), Value::str("VCR")],
            ],
        );
        assert_eq!(spec.groups.len(), 4);
        assert_eq!(spec.groups[0], vec![Value::str("Sony"), Value::str("TV")]);
        assert_eq!(spec.col_name(3, 0), "Panasonic**VCR**Price");
    }

    #[test]
    fn pivot_spec_rejects_overlapping_columns() {
        let spec = PivotSpec::simple("Attribute", "Attribute", vec![Value::str("x")]);
        let schema = iteminfo_schema();
        assert!(matches!(
            PivotSpec {
                by: spec.by.clone(),
                on: spec.by.clone(),
                groups: spec.groups.clone()
            }
            .validate(&schema),
            Err(AlgebraError::InvalidPivotSpec(_))
        ));
    }

    #[test]
    fn pivot_spec_rejects_bad_group_arity() {
        let spec = PivotSpec::new(
            vec!["Attribute"],
            vec!["Value"],
            vec![vec![Value::str("a"), Value::str("b")]],
        );
        assert!(spec.validate(&iteminfo_schema()).is_err());
    }

    #[test]
    fn pivot_spec_rejects_duplicate_groups() {
        let spec = PivotSpec::simple("Attribute", "Value", vec![Value::str("a"), Value::str("a")]);
        assert!(spec.validate(&iteminfo_schema()).is_err());
    }

    #[test]
    fn group_index_lookup() {
        let spec = PivotSpec::simple("A", "B", vec![Value::str("x"), Value::str("y")]);
        assert_eq!(spec.group_index(&[Value::str("y")]), Some(1));
        assert_eq!(spec.group_index(&[Value::str("z")]), None);
    }

    #[test]
    fn reversing_unpivot_matches_pivot() {
        let pivot = PivotSpec::cross(
            vec!["Manu", "Type"],
            vec!["Price", "Qty"],
            vec![
                vec![Value::str("Sony")],
                vec![Value::str("TV"), Value::str("VCR")],
            ],
        );
        let un = UnpivotSpec::reversing(&pivot);
        assert_eq!(un.groups.len(), 2);
        assert_eq!(un.name_cols, vec!["Manu", "Type"]);
        assert_eq!(un.value_cols, vec!["Price", "Qty"]);
        assert_eq!(un.groups[0].cols, vec!["Sony**TV**Price", "Sony**TV**Qty"]);
    }

    #[test]
    fn unpivot_validate_rejects_column_reuse() {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("c", DataType::Int)]).unwrap();
        let spec = UnpivotSpec::new(
            vec![
                UnpivotGroup {
                    tags: vec![Value::str("a")],
                    cols: vec!["c".into()],
                },
                UnpivotGroup {
                    tags: vec![Value::str("b")],
                    cols: vec!["c".into()],
                },
            ],
            vec!["name"],
            vec!["val"],
        );
        assert!(spec.validate(&schema).is_err());
    }

    #[test]
    fn unpivot_simple_tags_by_column_name() {
        let spec = UnpivotSpec::simple(vec!["p", "q"], "name", "val");
        assert_eq!(spec.groups.len(), 2);
        assert_eq!(spec.groups[0].tags, vec![Value::str("p")]);
        assert_eq!(spec.groups[1].cols, vec!["q"]);
    }

    #[test]
    fn plan_tree_navigation() {
        let p = Plan::scan("a").join(Plan::scan("b"), vec![("x", "y")]);
        assert_eq!(p.children().len(), 2);
        assert_eq!(p.node_count(), 3);
        assert_eq!(
            p.base_tables().into_iter().collect::<Vec<_>>(),
            vec!["a".to_string(), "b".to_string()]
        );
    }

    #[test]
    fn builds_nested_tree() {
        let plan = Plan::scan("a")
            .select(Expr::col("x").gt(Expr::lit(1)))
            .join(Plan::scan("b"), vec![("x", "y")])
            .group_by(&["x"], vec![AggSpec::count_star("cnt")]);
        assert_eq!(plan.node_count(), 5);
        assert_eq!(plan.op_name(), "GroupBy");
    }

    #[test]
    fn union_and_diff() {
        let p = Plan::scan("a").union(Plan::scan("a"));
        assert_eq!(p.op_name(), "Union");
        let p = Plan::scan("a").diff(Plan::scan("a"));
        assert_eq!(p.op_name(), "Diff");
    }

    #[test]
    fn gpivot_chain() {
        let p = Plan::scan("t").gpivot(PivotSpec::simple("a", "b", vec![Value::str("x")]));
        assert_eq!(p.pivot_count(), 1);
    }

    #[test]
    fn pivot_count_counts_gpivots() {
        let p = Plan::scan("t").gpivot(PivotSpec::simple("a", "b", vec![Value::str("x")]));
        assert_eq!(p.pivot_count(), 1);
        assert_eq!(Plan::scan("t").pivot_count(), 0);
    }
}
