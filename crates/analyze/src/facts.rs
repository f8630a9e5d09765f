//! Bottom-up dataflow over the plan tree.
//!
//! For every node the pass derives the facts the lint rules consume:
//! output schema (when inferable), declared and inferred candidate keys,
//! functional dependencies, key preservation (§5.1), duplicate-freeness,
//! and which output columns carry pivoted cell data (the `a1**…**Bj`
//! columns of §4.1, tracked through renames, joins and groupings).
//!
//! Schema inference itself is delegated to `gpivot_algebra::schema_infer`
//! — the analyzer calls it *per node* so a failure is attributed to the
//! exact operator that caused it (`schema_error` on that node), while
//! analysis continues best-effort above it.

use gpivot_algebra::{AlgebraError, Expr, JoinKind, Plan, SchemaProvider};
use gpivot_storage::SchemaRef;
use std::collections::BTreeSet;

/// A functional dependency `determinant → dependents` over output columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fd {
    pub determinant: Vec<String>,
    pub dependents: Vec<String>,
}

impl Fd {
    fn new(determinant: Vec<String>, dependents: Vec<String>) -> Self {
        Fd {
            determinant,
            dependents,
        }
    }
}

/// Derived properties of one plan node.
#[derive(Debug, Clone)]
pub struct NodeFacts {
    /// Operator name (`Plan::op_name`).
    pub op: &'static str,
    /// Child-index path from the root.
    pub path: Vec<usize>,
    /// Output schema, when all inputs type-check and this node does too.
    pub schema: Option<SchemaRef>,
    /// The inference error raised *at this node* (children were fine).
    pub schema_error: Option<AlgebraError>,
    /// Declared candidate key (column names) from the inferred schema.
    pub key: Option<Vec<String>>,
    /// Candidate keys: the declared key plus FD-closure-inferred ones.
    pub candidate_keys: Vec<Vec<String>>,
    /// Functional dependencies over this node's output columns.
    pub fds: Vec<Fd>,
    /// §5.1: false iff some input carried a candidate key and this
    /// operator's output does not.
    pub key_preserved: bool,
    /// True when the output provably contains no duplicate rows.
    pub duplicate_free: bool,
    /// A GPIVOT exists in this subtree (including this node).
    pub contains_pivot: bool,
    /// Output columns that carry pivoted cell data (possibly renamed).
    pub pivot_cells: BTreeSet<String>,
    /// Facts of the children, in `Plan::children` order.
    pub children: Vec<NodeFacts>,
}

impl NodeFacts {
    /// Column names of this node's output, if its schema is known.
    pub fn column_names(&self) -> Option<Vec<String>> {
        self.schema
            .as_ref()
            .map(|s| s.column_names().into_iter().map(String::from).collect())
    }

    /// Preorder iteration over this facts tree.
    pub fn walk(&self, f: &mut impl FnMut(&NodeFacts)) {
        f(self);
        for c in &self.children {
            c.walk(f);
        }
    }
}

/// Closure of `cols` under `fds`.
pub fn fd_closure(cols: &BTreeSet<String>, fds: &[Fd]) -> BTreeSet<String> {
    let mut out = cols.clone();
    loop {
        let mut grew = false;
        for fd in fds {
            if fd.determinant.iter().all(|c| out.contains(c)) {
                for d in &fd.dependents {
                    grew |= out.insert(d.clone());
                }
            }
        }
        if !grew {
            return out;
        }
    }
}

/// Compute the facts tree for `plan` bottom-up.
pub fn derive_facts<P: SchemaProvider>(plan: &Plan, provider: &P) -> NodeFacts {
    derive_node(plan, provider, Vec::new())
}

fn derive_node<P: SchemaProvider>(plan: &Plan, provider: &P, path: Vec<usize>) -> NodeFacts {
    let children: Vec<NodeFacts> = plan
        .children()
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            let mut p = path.clone();
            p.push(i);
            derive_node(c, provider, p)
        })
        .collect();

    let children_ok = children.iter().all(|c| c.schema.is_some());
    let (schema, schema_error) = if children_ok {
        match plan.schema(provider) {
            Ok(s) => (Some(s), None),
            Err(e) => (None, Some(e)),
        }
    } else {
        // A descendant already failed; don't re-attribute its error here.
        (None, None)
    };

    let key: Option<Vec<String>> = schema.as_ref().and_then(|s| {
        s.key_names()
            .map(|k| k.into_iter().map(String::from).collect())
    });

    let fds = derive_fds(plan, &children, &schema, &key);
    let candidate_keys = derive_candidate_keys(&schema, &key, &fds);

    let any_child_keyed = children.iter().any(|c| c.key.is_some());
    let key_preserved = !(any_child_keyed && key.is_none());
    let duplicate_free = match plan {
        Plan::Union { .. } => false,
        _ => key.is_some() || !candidate_keys.is_empty(),
    };

    let contains_pivot =
        matches!(plan, Plan::GPivot { .. }) || children.iter().any(|c| c.contains_pivot);
    let pivot_cells = derive_pivot_cells(plan, &children, &schema);

    NodeFacts {
        op: plan.op_name(),
        path,
        schema,
        schema_error,
        key,
        candidate_keys,
        fds,
        key_preserved,
        duplicate_free,
        contains_pivot,
        pivot_cells,
        children,
    }
}

/// Functional dependencies of a node's output, from its children's FDs and
/// its own semantics.
fn derive_fds(
    plan: &Plan,
    children: &[NodeFacts],
    schema: &Option<SchemaRef>,
    key: &Option<Vec<String>>,
) -> Vec<Fd> {
    let Some(schema) = schema else {
        return Vec::new();
    };
    let out_cols: BTreeSet<String> = schema
        .column_names()
        .into_iter()
        .map(String::from)
        .collect();
    // Restrict an inherited FD to the surviving columns.
    let restrict = |fds: &[Fd]| -> Vec<Fd> {
        fds.iter()
            .filter(|fd| fd.determinant.iter().all(|c| out_cols.contains(c)))
            .filter_map(|fd| {
                let deps: Vec<String> = fd
                    .dependents
                    .iter()
                    .filter(|c| out_cols.contains(*c))
                    .cloned()
                    .collect();
                (!deps.is_empty()).then(|| Fd::new(fd.determinant.clone(), deps))
            })
            .collect()
    };

    let mut fds: Vec<Fd> = Vec::new();
    match plan {
        Plan::Scan { .. } => {
            // The declared key determines every other column.
            if let Some(k) = key {
                let deps: Vec<String> = out_cols
                    .iter()
                    .filter(|c| !k.contains(c))
                    .cloned()
                    .collect();
                if !deps.is_empty() {
                    fds.push(Fd::new(k.clone(), deps));
                }
            }
        }
        Plan::Select { .. } | Plan::Diff { .. } => {
            fds = restrict(&children[0].fds);
        }
        Plan::Project { items, .. } => {
            // Track FDs through bare-column renames only.
            let renamed: Vec<Fd> = children[0]
                .fds
                .iter()
                .map(|fd| {
                    Fd::new(
                        fd.determinant
                            .iter()
                            .map(|c| rename_through(items, c).unwrap_or_else(|| c.clone()))
                            .collect(),
                        fd.dependents
                            .iter()
                            .map(|c| rename_through(items, c).unwrap_or_else(|| c.clone()))
                            .collect(),
                    )
                })
                .collect();
            fds = restrict(&renamed);
        }
        Plan::Join { on, kind, .. } => {
            match kind {
                JoinKind::Inner => {
                    fds.extend(restrict(&children[0].fds));
                    fds.extend(restrict(&children[1].fds));
                    for (l, r) in on {
                        fds.push(Fd::new(vec![l.clone()], vec![r.clone()]));
                        fds.push(Fd::new(vec![r.clone()], vec![l.clone()]));
                    }
                }
                JoinKind::LeftOuter => {
                    // The right side may be ⊥-extended; only left FDs hold.
                    fds.extend(restrict(&children[0].fds));
                }
                JoinKind::FullOuter => {}
            }
        }
        Plan::GroupBy { group_by, aggs, .. } => {
            let outputs: Vec<String> = aggs.iter().map(|a| a.output.clone()).collect();
            if !outputs.is_empty() {
                fds.push(Fd::new(group_by.clone(), outputs));
            }
            fds.extend(restrict(&children[0].fds));
        }
        Plan::GPivot { spec, .. } => {
            // K determines every pivoted cell (Eq. 3: one row per K value).
            if let Some(k) = key {
                let cells = spec.output_col_names();
                if !cells.is_empty() {
                    fds.push(Fd::new(k.clone(), cells));
                }
            }
            fds.extend(restrict(&children[0].fds));
        }
        Plan::GUnpivot { .. } => {
            fds = restrict(&children[0].fds);
        }
        Plan::Union { .. } => {
            // An FD of either branch need not hold across the bag union.
        }
    }
    // Dedup (joins on a key column can re-derive an inherited FD).
    let mut seen: Vec<Fd> = Vec::new();
    for fd in fds {
        if !seen.contains(&fd) {
            seen.push(fd);
        }
    }
    seen
}

/// Candidate keys: the declared key plus any FD determinant whose closure
/// covers every output column.
fn derive_candidate_keys(
    schema: &Option<SchemaRef>,
    key: &Option<Vec<String>>,
    fds: &[Fd],
) -> Vec<Vec<String>> {
    let Some(schema) = schema else {
        return Vec::new();
    };
    let all: BTreeSet<String> = schema
        .column_names()
        .into_iter()
        .map(String::from)
        .collect();
    let mut keys: Vec<Vec<String>> = Vec::new();
    if let Some(k) = key {
        keys.push(k.clone());
    }
    for fd in fds {
        let det: BTreeSet<String> = fd.determinant.iter().cloned().collect();
        if !det.iter().all(|c| all.contains(c)) {
            continue;
        }
        if fd_closure(&det, fds).is_superset(&all) {
            let mut k: Vec<String> = fd.determinant.clone();
            k.sort();
            k.dedup();
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
    }
    keys
}

/// Which output columns carry pivoted cell data.
fn derive_pivot_cells(
    plan: &Plan,
    children: &[NodeFacts],
    schema: &Option<SchemaRef>,
) -> BTreeSet<String> {
    let mut cells: BTreeSet<String> = match plan {
        Plan::Scan { .. } => BTreeSet::new(),
        Plan::GPivot { spec, .. } => {
            let mut c: BTreeSet<String> = spec.output_col_names().into_iter().collect();
            c.extend(children[0].pivot_cells.iter().cloned());
            c
        }
        Plan::Project { items, .. } => children[0]
            .pivot_cells
            .iter()
            .filter_map(|c| rename_through(items, c))
            .collect(),
        Plan::GroupBy { group_by, .. } => {
            // Aggregate outputs are new values; only grouping columns can
            // still carry raw cell data.
            children[0]
                .pivot_cells
                .iter()
                .filter(|c| group_by.contains(c))
                .cloned()
                .collect()
        }
        Plan::Join { .. } => {
            let mut c = children[0].pivot_cells.clone();
            c.extend(children[1].pivot_cells.iter().cloned());
            c
        }
        _ => children
            .first()
            .map(|c| c.pivot_cells.clone())
            .unwrap_or_default(),
    };
    // Only columns that actually appear in the output survive (GUnpivot
    // consumes cells; Select/Diff pass everything through).
    if let Some(s) = schema {
        let out: BTreeSet<&str> = s.column_names().into_iter().collect();
        cells.retain(|c| out.contains(c.as_str()));
    }
    cells
}

/// Where does input column `col` land under a projection, if it passes
/// through as a bare column?
fn rename_through(items: &[(Expr, String)], col: &str) -> Option<String> {
    items.iter().find_map(|(e, name)| match e {
        Expr::Col(c) if c == col => Some(name.clone()),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpivot_algebra::{AggSpec, PivotSpec, Plan};
    use gpivot_storage::{DataType, Schema, Value};
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
                        ("val", DataType::Str),
                    ],
                    &["id", "attr"],
                )
                .unwrap(),
            ),
        );
        m
    }

    fn pivot() -> Plan {
        Plan::scan("iteminfo").gpivot(PivotSpec::simple(
            "attr",
            "val",
            vec![Value::str("Manufacturer"), Value::str("Type")],
        ))
    }

    #[test]
    fn scan_key_determines_rest() {
        let f = derive_facts(&Plan::scan("iteminfo"), &provider());
        assert_eq!(
            f.key.as_deref(),
            Some(&["id".to_string(), "attr".to_string()][..])
        );
        assert_eq!(f.fds.len(), 1);
        assert_eq!(f.fds[0].dependents, vec!["val".to_string()]);
        assert!(f.duplicate_free);
        assert!(f.key_preserved);
    }

    #[test]
    fn pivot_cells_and_fds() {
        let f = derive_facts(&pivot(), &provider());
        assert!(f.contains_pivot);
        assert_eq!(f.key.as_deref(), Some(&["id".to_string()][..]));
        assert_eq!(f.pivot_cells.len(), 2);
        assert!(f.pivot_cells.contains("Manufacturer**val"));
        // K → cells is among the FDs.
        assert!(f
            .fds
            .iter()
            .any(|fd| fd.determinant == vec!["id".to_string()]
                && fd.dependents.contains(&"Manufacturer**val".to_string())));
    }

    #[test]
    fn schema_error_attributed_to_offending_node() {
        // Union clears the key, so a pivot directly above must fail §2.1.
        let u = Plan::scan("iteminfo")
            .union(Plan::scan("iteminfo"))
            .gpivot(PivotSpec::simple("attr", "val", vec![Value::str("Type")]));
        let f = derive_facts(&u, &provider());
        assert!(f.schema.is_none());
        assert!(matches!(
            f.schema_error,
            Some(AlgebraError::PivotRequiresKey { .. })
        ));
        // The union child itself type-checked (keyless, duplicate-prone).
        assert!(f.children[0].schema.is_some());
        assert!(f.children[0].key.is_none());
        assert!(!f.children[0].duplicate_free);
    }

    #[test]
    fn join_equality_fds_infer_candidate_key() {
        let mut p = provider();
        p.insert(
            "product".to_string(),
            Arc::new(
                Schema::from_pairs_keyed(
                    &[("pid", DataType::Int), ("maker", DataType::Str)],
                    &["pid"],
                )
                .unwrap(),
            ),
        );
        let plan = Plan::scan("iteminfo").join(Plan::scan("product"), vec![("id", "pid")]);
        let f = derive_facts(&plan, &p);
        let declared = f.key.clone().unwrap();
        assert!(f.candidate_keys.contains(&declared));
        // id = pid lets {pid, attr} reach everything through the closure.
        let seed: BTreeSet<String> = ["pid".to_string(), "attr".to_string()].into();
        let closure = fd_closure(&seed, &f.fds);
        assert!(closure.contains("val"));
        assert!(closure.contains("maker"));
    }

    #[test]
    fn groupby_output_keyed_by_grouping_columns() {
        let plan = Plan::scan("iteminfo").group_by(&["id"], vec![AggSpec::count("val", "n")]);
        let f = derive_facts(&plan, &provider());
        assert_eq!(f.key.as_deref(), Some(&["id".to_string()][..]));
        assert!(f.key_preserved);
        assert!(f
            .fds
            .iter()
            .any(|fd| fd.determinant == vec!["id".to_string()]
                && fd.dependents == vec!["n".to_string()]));
    }

    #[test]
    fn project_drop_key_column_loses_preservation() {
        let plan = pivot().project_cols(&["Manufacturer**val"]);
        let f = derive_facts(&plan, &provider());
        assert!(f.key.is_none());
        assert!(!f.key_preserved);
        assert!(f.pivot_cells.contains("Manufacturer**val"));
    }
}
