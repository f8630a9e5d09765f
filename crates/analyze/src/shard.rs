//! Shard-safety analysis: can a view plan be maintained over disjoint
//! hash partitions of its base tables and recombined exactly?
//!
//! The paper's §4.2.3 combinability argument shows GPIVOT commutes with
//! partitioning on its group key `K`: pivot groups over disjoint slices of
//! `K` never interact, so per-partition maintenance followed by a bag
//! union of the partition outputs equals maintenance of the whole. This
//! module generalizes that observation into a plan-wide dataflow that
//! *proves* a layout (which base tables to hash-partition, on which
//! column, which to replicate) under which every operator in the plan is
//! local to a shard:
//!
//! * **Phase A — candidate keys.** Column lineage maps every output
//!   column back to the base column it was scanned from (through renames,
//!   filters, group-bys and pivot carry-through). Equi-join pairs and
//!   union/diff column alignment seed a union-find over base columns; the
//!   resulting equivalence classes are the candidate shard keys (a class
//!   partitions every table it touches, all remaining tables replicate).
//! * **Phase B — per-candidate dataflow.** Each node gets a state:
//!   `Replicated` (every shard computes the identical full result) or
//!   `Partitioned{aligned}` (shard *i* computes exactly the slice of the
//!   full result whose `aligned` columns hash to *i*; the shard outputs
//!   are disjoint and bag-union to the whole). Tuple-wise operators
//!   (σ, π, GUNPIVOT) are linear over bag union and pass the state
//!   through; joins need a matched pair of aligned columns (or one
//!   replicated side); GROUPBY/GPIVOT need a group-key column aligned
//!   with the partition so no group straddles shards; outer joins over a
//!   partitioned non-preserved side and mixed union/diff are rejected.
//!
//! A plan whose root proves `Partitioned` under some candidate is
//! **shard-safe**: the serve tier may maintain it per shard and merge by
//! bag union. Candidates are reported in preference order (most tables
//! partitioned first, then lexicographic) so a sharded catalog can pick
//! the first candidate compatible with layouts already chosen by other
//! views. Unprovable plans are not errors — they carry a `GP023` Info
//! diagnostic and fall back to single-shard maintenance.

use crate::diagnostic::{DiagCode, Diagnostic};
use gpivot_algebra::{Expr, JoinKind, Plan, SchemaProvider};
use std::collections::{BTreeMap, BTreeSet};

/// How one base table is laid out across shards under a routing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableRoute {
    /// Every shard holds a full copy of the table.
    Replicated,
    /// Rows are hash-partitioned across shards by this column's value.
    Partitioned { column: String },
}

/// A complete shard layout for the base tables of one plan: every table
/// the plan scans is either partitioned on a named column or replicated.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardRouting {
    /// Table name → route, covering exactly the plan's base tables.
    pub routes: BTreeMap<String, TableRoute>,
}

impl ShardRouting {
    /// The `(table, partition column)` pairs this routing partitions.
    pub fn partitioned(&self) -> impl Iterator<Item = (&str, &str)> {
        self.routes.iter().filter_map(|(t, r)| match r {
            TableRoute::Partitioned { column } => Some((t.as_str(), column.as_str())),
            TableRoute::Replicated => None,
        })
    }

    /// The route for a table, if the plan scans it.
    pub fn route(&self, table: &str) -> Option<&TableRoute> {
        self.routes.get(table)
    }

    /// Human summary, e.g.
    /// `customer↦c_custkey, orders↦o_custkey; lineitem replicated`.
    pub fn describe(&self) -> String {
        let parts: Vec<String> = self
            .partitioned()
            .map(|(t, c)| format!("{t}\u{21a6}{c}"))
            .collect();
        let reps: Vec<&str> = self
            .routes
            .iter()
            .filter(|(_, r)| **r == TableRoute::Replicated)
            .map(|(t, _)| t.as_str())
            .collect();
        let mut out = parts.join(", ");
        if !reps.is_empty() {
            if !out.is_empty() {
                out.push_str("; ");
            }
            out.push_str(&reps.join(", "));
            out.push_str(" replicated");
        }
        out
    }
}

/// The analyzer's shard-safety verdict for one plan.
#[derive(Debug, Clone)]
pub enum ShardVerdict {
    /// At least one routing was proven exact. `candidates` is non-empty
    /// and in preference order: most tables partitioned first, ties
    /// broken lexicographically, so a catalog can scan for the first
    /// candidate compatible with layouts other views already fixed.
    Safe { candidates: Vec<ShardRouting> },
    /// No routing could be proven; the view must be maintained on a
    /// single shard. Carries the obstruction from the best candidate.
    Unprovable { reason: String },
}

impl ShardVerdict {
    /// True iff at least one routing was proven exact.
    pub fn is_safe(&self) -> bool {
        matches!(self, ShardVerdict::Safe { .. })
    }

    /// The preferred routing, if any.
    pub fn preferred(&self) -> Option<&ShardRouting> {
        match self {
            ShardVerdict::Safe { candidates } => candidates.first(),
            ShardVerdict::Unprovable { .. } => None,
        }
    }

    /// All proven routings, in preference order (empty when unprovable).
    pub fn candidates(&self) -> &[ShardRouting] {
        match self {
            ShardVerdict::Safe { candidates } => candidates,
            ShardVerdict::Unprovable { .. } => &[],
        }
    }

    /// The advisory diagnostic for this verdict: `GP024` (proven, names
    /// the shard key) or `GP023` (unprovable, names the obstruction).
    pub fn diagnostic(&self) -> Diagnostic {
        match self {
            ShardVerdict::Safe { candidates } => Diagnostic::new(
                DiagCode::Gp024ShardSafe,
                vec![],
                format!(
                    "plan proven shard-safe; preferred layout: {}",
                    candidates[0].describe()
                ),
            ),
            ShardVerdict::Unprovable { reason } => Diagnostic::new(
                DiagCode::Gp023NotShardSafe,
                vec![],
                format!("plan not provably shard-safe ({reason}); maintained single-shard"),
            )
            .with_suggestion(
                "align join keys with the pivot/group key so every operator is shard-local",
            ),
        }
    }
}

/// `(table, column)` identity of a base column.
type Origin = (String, String);

/// Union-find over base columns, seeded by equi-join pairs.
#[derive(Default)]
struct UnionFind {
    parent: BTreeMap<Origin, Origin>,
}

impl UnionFind {
    fn add(&mut self, o: Origin) {
        self.parent.entry(o.clone()).or_insert(o);
    }

    fn find(&mut self, o: &Origin) -> Origin {
        let p = match self.parent.get(o) {
            Some(p) => p.clone(),
            None => {
                self.add(o.clone());
                return o.clone();
            }
        };
        if p == *o {
            return p;
        }
        let root = self.find(&p);
        self.parent.insert(o.clone(), root.clone());
        root
    }

    fn union(&mut self, a: &Origin, b: &Origin) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            // Deterministic: the smaller origin becomes the root.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent.insert(hi, lo);
        }
    }

    /// All equivalence classes, each sorted, in root order.
    fn classes(&mut self) -> Vec<Vec<Origin>> {
        let members: Vec<Origin> = self.parent.keys().cloned().collect();
        let mut by_root: BTreeMap<Origin, Vec<Origin>> = BTreeMap::new();
        for m in members {
            let r = self.find(&m);
            by_root.entry(r).or_default().push(m);
        }
        by_root.into_values().collect()
    }
}

/// Column lineage: output column name → originating base column, for
/// columns that flow unchanged from a scan (through renames, filters,
/// group-by keys and pivot carry-through). Computed columns (aggregates,
/// pivot cells, non-trivial projections) have no lineage.
fn lineage<P: SchemaProvider>(
    plan: &Plan,
    provider: &P,
    uf: &mut UnionFind,
) -> Result<BTreeMap<String, Origin>, String> {
    match plan {
        Plan::Scan { table } => {
            let schema = provider
                .base_schema(table)
                .map_err(|e| format!("unknown base table {table}: {e}"))?;
            let mut map = BTreeMap::new();
            for col in schema.column_names().into_iter() {
                let origin = (table.clone(), col.to_string());
                uf.add(origin.clone());
                map.insert(col.to_string(), origin);
            }
            Ok(map)
        }
        Plan::Select { input, .. } => lineage(input, provider, uf),
        Plan::Project { input, items } => {
            let inner = lineage(input, provider, uf)?;
            let mut map = BTreeMap::new();
            for (expr, name) in items {
                if let Expr::Col(c) = expr {
                    if let Some(origin) = inner.get(c) {
                        map.insert(name.clone(), origin.clone());
                    }
                }
            }
            Ok(map)
        }
        Plan::Join {
            left, right, on, ..
        } => {
            let l = lineage(left, provider, uf)?;
            let r = lineage(right, provider, uf)?;
            for (lc, rc) in on {
                if let (Some(lo), Some(ro)) = (l.get(lc), r.get(rc)) {
                    uf.union(lo, ro);
                }
            }
            let mut map = l;
            for (name, origin) in r {
                map.entry(name).or_insert(origin);
            }
            Ok(map)
        }
        Plan::GroupBy {
            input, group_by, ..
        } => {
            let inner = lineage(input, provider, uf)?;
            Ok(inner
                .into_iter()
                .filter(|(name, _)| group_by.contains(name))
                .collect())
        }
        Plan::GPivot { input, spec } => {
            let inner = lineage(input, provider, uf)?;
            // Carry-through K columns keep their lineage; the consumed
            // dimension/measure columns and the new cells have none.
            Ok(inner
                .into_iter()
                .filter(|(name, _)| !spec.by.contains(name) && !spec.on.contains(name))
                .collect())
        }
        Plan::GUnpivot { input, .. } => {
            let inner = lineage(input, provider, uf)?;
            let out = plan
                .schema(provider)
                .map_err(|e| format!("plan does not type-check: {e}"))?;
            let out_cols: BTreeSet<&str> = out.column_names().into_iter().collect();
            Ok(inner
                .into_iter()
                .filter(|(name, _)| out_cols.contains(name.as_str()))
                .collect())
        }
        Plan::Union { left, right } | Plan::Diff { left, right } => {
            let l = lineage(left, provider, uf)?;
            let r = lineage(right, provider, uf)?;
            // Schemas match by name; a column aligned on both sides must
            // be co-partitioned, so union the origins and keep lineage
            // only where both sides have one.
            let mut map = BTreeMap::new();
            for (name, lo) in &l {
                if let Some(ro) = r.get(name) {
                    uf.union(lo, ro);
                    map.insert(name.clone(), lo.clone());
                }
            }
            Ok(map)
        }
    }
}

/// Per-node partitioning state under one candidate routing.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PState {
    /// Every shard computes the identical full result.
    Replicated,
    /// Shard *i* computes exactly the slice of the full result whose
    /// `aligned` columns hash to *i*; shard outputs are disjoint and
    /// bag-union to the full result. `aligned` may drain to empty (the
    /// slices stay disjoint but no visible column witnesses the key).
    Partitioned { aligned: BTreeSet<String> },
}

use PState::{Partitioned, Replicated};

fn flow<P: SchemaProvider>(
    plan: &Plan,
    routing: &ShardRouting,
    provider: &P,
) -> Result<PState, String> {
    match plan {
        Plan::Scan { table } => Ok(match routing.route(table) {
            Some(TableRoute::Partitioned { column }) => Partitioned {
                aligned: BTreeSet::from([column.clone()]),
            },
            _ => Replicated,
        }),
        // σ is tuple-wise (linear over bag union): filtering each shard's
        // slice equals slicing the filtered whole.
        Plan::Select { input, .. } => flow(input, routing, provider),
        Plan::Project { input, items } => Ok(match flow(input, routing, provider)? {
            Replicated => Replicated,
            Partitioned { aligned } => Partitioned {
                // Only bare column renames keep alignment; the output is
                // still a disjoint partition either way (π is tuple-wise).
                aligned: items
                    .iter()
                    .filter_map(|(expr, name)| match expr {
                        Expr::Col(c) if aligned.contains(c) => Some(name.clone()),
                        _ => None,
                    })
                    .collect(),
            },
        }),
        Plan::Join {
            left,
            right,
            kind,
            on,
            ..
        } => {
            let l = flow(left, routing, provider)?;
            let r = flow(right, routing, provider)?;
            let pair_aligned = |al: &BTreeSet<String>, ar: &BTreeSet<String>| {
                on.iter().any(|(lc, rc)| al.contains(lc) && ar.contains(rc))
            };
            match (kind, l, r) {
                // Both sides fully present on every shard.
                (_, Replicated, Replicated) => Ok(Replicated),
                (JoinKind::Inner, Partitioned { aligned: al }, Partitioned { aligned: ar }) => {
                    if pair_aligned(&al, &ar) {
                        // Matching rows agree on the joined pair, so both
                        // sides' aligned columns survive.
                        Ok(Partitioned {
                            aligned: al.union(&ar).cloned().collect(),
                        })
                    } else {
                        Err(
                            "inner join of two partitioned inputs has no equi-join pair on \
                             their partition keys (matches would cross shards)"
                                .into(),
                        )
                    }
                }
                (JoinKind::Inner, Partitioned { aligned }, Replicated)
                | (JoinKind::Inner, Replicated, Partitioned { aligned }) => {
                    Ok(Partitioned { aligned })
                }
                // Left outer: exact iff every left row finds all its
                // matches (and its non-match evidence) on its own shard.
                (JoinKind::LeftOuter, Partitioned { aligned }, Replicated) => {
                    Ok(Partitioned { aligned })
                }
                (JoinKind::LeftOuter, Partitioned { aligned: al }, Partitioned { aligned: ar }) => {
                    if pair_aligned(&al, &ar) {
                        // Right columns may be ⊥-extended, so only the
                        // left side's alignment survives.
                        Ok(Partitioned { aligned: al })
                    } else {
                        Err(
                            "left outer join of two partitioned inputs has no equi-join \
                             pair on their partition keys"
                                .into(),
                        )
                    }
                }
                (JoinKind::LeftOuter, Replicated, Partitioned { .. }) => Err(
                    "left outer join with a replicated left input over a partitioned right \
                     would emit a \u{22a5}-extension on every shard that lacks the match"
                        .into(),
                ),
                (JoinKind::FullOuter, _, _) => Err(
                    "full outer join over a partitioned input is outside the provable \
                     fragment"
                        .into(),
                ),
            }
        }
        Plan::GroupBy {
            input, group_by, ..
        } => match flow(input, routing, provider)? {
            Replicated => Ok(Replicated),
            Partitioned { aligned } => {
                let keep: BTreeSet<String> = group_by
                    .iter()
                    .filter(|g| aligned.contains(*g))
                    .cloned()
                    .collect();
                if keep.is_empty() {
                    Err(
                        "no group-by column aligns with the partition key (groups would \
                         straddle shards)"
                            .into(),
                    )
                } else {
                    Ok(Partitioned { aligned: keep })
                }
            }
        },
        Plan::GPivot { input, spec } => match flow(input, routing, provider)? {
            Replicated => Ok(Replicated),
            Partitioned { aligned } => {
                // §4.2.3: GPIVOT groups by K = input − by − on; exact per
                // shard iff the partition key is part of K.
                let input_schema = input
                    .schema(provider)
                    .map_err(|e| format!("plan does not type-check: {e}"))?;
                let keep: BTreeSet<String> = input_schema
                    .column_names()
                    .into_iter()
                    .filter(|c| {
                        aligned.contains(*c)
                            && !spec.by.iter().any(|b| b == c)
                            && !spec.on.iter().any(|o| o == c)
                    })
                    .map(String::from)
                    .collect();
                if keep.is_empty() {
                    Err(
                        "no pivot group-key (K) column aligns with the partition key \
                         (pivot groups would straddle shards)"
                            .into(),
                    )
                } else {
                    Ok(Partitioned { aligned: keep })
                }
            }
        },
        // GUNPIVOT is tuple-wise: each input row expands independently.
        Plan::GUnpivot { input, .. } => match flow(input, routing, provider)? {
            Replicated => Ok(Replicated),
            Partitioned { aligned } => {
                let out = plan
                    .schema(provider)
                    .map_err(|e| format!("plan does not type-check: {e}"))?;
                let out_cols: BTreeSet<&str> = out.column_names().into_iter().collect();
                Ok(Partitioned {
                    aligned: aligned
                        .into_iter()
                        .filter(|c| out_cols.contains(c.as_str()))
                        .collect(),
                })
            }
        },
        Plan::Union { left, right } => {
            match (
                flow(left, routing, provider)?,
                flow(right, routing, provider)?,
            ) {
                (Replicated, Replicated) => Ok(Replicated),
                (Partitioned { aligned: a }, Partitioned { aligned: b }) => Ok(Partitioned {
                    aligned: a.intersection(&b).cloned().collect(),
                }),
                _ => Err(
                    "bag union mixes a partitioned input with a replicated one (the \
                     replicated side would be counted once per shard)"
                        .into(),
                ),
            }
        }
        Plan::Diff { left, right } => {
            match (
                flow(left, routing, provider)?,
                flow(right, routing, provider)?,
            ) {
                (Replicated, Replicated) => Ok(Replicated),
                (Partitioned { aligned: a }, Partitioned { aligned: b }) => {
                    let shared: BTreeSet<String> = a.intersection(&b).cloned().collect();
                    if shared.is_empty() {
                        Err("bag difference needs both inputs partitioned on a shared \
                             column (equal rows could sit on different shards)"
                            .into())
                    } else {
                        Ok(Partitioned { aligned: shared })
                    }
                }
                _ => Err("bag difference mixes a partitioned input with a replicated one".into()),
            }
        }
    }
}

/// Prove shard-safety of `plan` and enumerate the exact layouts.
///
/// Returns [`ShardVerdict::Safe`] with every candidate routing the
/// dataflow could prove (preference-ordered), or
/// [`ShardVerdict::Unprovable`] with the obstruction found for the most
/// promising candidate. Plans that do not type-check are unprovable, not
/// errors — shard-safety is advisory (`GP023`/`GP024` are Info-severity).
pub fn shard_safety<P: SchemaProvider>(plan: &Plan, provider: &P) -> ShardVerdict {
    let tables: BTreeSet<String> = plan.base_tables().into_iter().collect();
    if tables.is_empty() {
        return ShardVerdict::Unprovable {
            reason: "plan scans no base tables".into(),
        };
    }
    let mut uf = UnionFind::default();
    if let Err(reason) = lineage(plan, provider, &mut uf) {
        return ShardVerdict::Unprovable { reason };
    }
    // Candidate shard keys: every base-column equivalence class, most
    // tables partitioned first, then lexicographic on the first member.
    let mut classes = uf.classes();
    classes.sort_by_key(|class| {
        let tables: BTreeSet<&str> = class.iter().map(|(t, _)| t.as_str()).collect();
        (usize::MAX - tables.len(), class[0].clone())
    });

    let mut candidates = Vec::new();
    let mut first_reason: Option<String> = None;
    for class in classes {
        // One partition column per table: the class's smallest column
        // for that table (class members are sorted). Columns equated
        // only transitively within one table are *not* aligned, so the
        // dataflow re-checks every join under the chosen column.
        let mut routes: BTreeMap<String, TableRoute> = BTreeMap::new();
        for (table, column) in &class {
            routes
                .entry(table.clone())
                .or_insert(TableRoute::Partitioned {
                    column: column.clone(),
                });
        }
        for table in &tables {
            routes
                .entry(table.clone())
                .or_insert(TableRoute::Replicated);
        }
        let routing = ShardRouting { routes };
        match flow(plan, &routing, provider) {
            Ok(Partitioned { .. }) => candidates.push(routing),
            Ok(Replicated) => {
                // The class partitions no table the plan reads.
            }
            Err(reason) => {
                if first_reason.is_none() {
                    first_reason = Some(reason);
                }
            }
        }
    }
    if candidates.is_empty() {
        ShardVerdict::Unprovable {
            reason: first_reason
                .unwrap_or_else(|| "no candidate shard key reaches the plan root".into()),
        }
    } else {
        ShardVerdict::Safe { candidates }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpivot_storage::SchemaRef;
    use gpivot_tpch::gen::{customer_schema, lineitem_schema, orders_schema};
    use gpivot_tpch::views::VIEW2_THRESHOLD;
    use gpivot_tpch::{view1, view2, view3};

    fn provider() -> BTreeMap<String, SchemaRef> {
        let mut m = BTreeMap::new();
        m.insert("lineitem".to_string(), lineitem_schema());
        m.insert("orders".to_string(), orders_schema());
        m.insert("customer".to_string(), customer_schema());
        m
    }

    fn expect_safe(plan: &gpivot_algebra::Plan) -> ShardRouting {
        let verdict = shard_safety(plan, &provider());
        match &verdict {
            ShardVerdict::Safe { candidates } => candidates[0].clone(),
            ShardVerdict::Unprovable { reason } => panic!("expected safe, got: {reason}"),
        }
    }

    #[test]
    fn view1_proves_shard_safe_on_custkey() {
        let routing = expect_safe(&view1());
        assert_eq!(
            routing.route("customer"),
            Some(&TableRoute::Partitioned {
                column: "c_custkey".into()
            })
        );
        assert_eq!(
            routing.route("orders"),
            Some(&TableRoute::Partitioned {
                column: "o_custkey".into()
            })
        );
        assert_eq!(routing.route("lineitem"), Some(&TableRoute::Replicated));
    }

    #[test]
    fn view1_also_admits_the_orderkey_layout() {
        let verdict = shard_safety(&view1(), &provider());
        let wants = |r: &ShardRouting| {
            r.route("lineitem")
                == Some(&TableRoute::Partitioned {
                    column: "l_orderkey".into(),
                })
                && r.route("orders")
                    == Some(&TableRoute::Partitioned {
                        column: "o_orderkey".into(),
                    })
        };
        assert!(
            verdict.candidates().iter().any(wants),
            "orderkey layout missing from {:?}",
            verdict.candidates()
        );
    }

    #[test]
    fn view2_and_view3_prove_shard_safe_on_custkey() {
        for plan in [view2(VIEW2_THRESHOLD), view3()] {
            let routing = expect_safe(&plan);
            assert_eq!(
                routing.route("orders"),
                Some(&TableRoute::Partitioned {
                    column: "o_custkey".into()
                }),
                "plan: {}",
                plan.explain()
            );
            assert_eq!(
                routing.route("customer"),
                Some(&TableRoute::Partitioned {
                    column: "c_custkey".into()
                })
            );
        }
    }

    #[test]
    fn view3_rejects_the_orderkey_layout() {
        // Partitioning on the orderkey class splits (c_custkey,
        // c_nationkey, o_year) groups across shards, so it must not be
        // among view3's proven candidates.
        let verdict = shard_safety(&view3(), &provider());
        for r in verdict.candidates() {
            assert_ne!(
                r.route("lineitem"),
                Some(&TableRoute::Partitioned {
                    column: "l_orderkey".into()
                }),
                "unsound candidate {r:?}"
            );
        }
    }

    #[test]
    fn full_outer_join_is_unprovable() {
        let plan = gpivot_algebra::Plan::scan("orders").join_kind(
            gpivot_algebra::Plan::scan("customer"),
            JoinKind::FullOuter,
            vec![("o_custkey", "c_custkey")],
            None,
        );
        let verdict = shard_safety(&plan, &provider());
        assert!(!verdict.is_safe(), "full outer joins must be unprovable");
        let diag = verdict.diagnostic();
        assert_eq!(diag.code, DiagCode::Gp023NotShardSafe);
        assert_eq!(diag.severity, crate::Severity::Info);
    }

    #[test]
    fn grouping_off_the_join_key_is_unprovable() {
        // GROUP BY a computed-only column set that shares nothing with
        // any join class: group on o_year only.
        let plan = gpivot_algebra::Plan::scan("lineitem")
            .join(
                gpivot_algebra::Plan::scan("orders"),
                vec![("l_orderkey", "o_orderkey")],
            )
            .group_by(
                &["o_year"],
                vec![gpivot_algebra::AggSpec::sum("l_extendedprice", "s")],
            );
        let verdict = shard_safety(&plan, &provider());
        // o_year forms its own singleton class, so partitioning orders
        // by o_year is actually provable (lineitem replicated). Verify
        // the *orderkey* class was rejected instead.
        for r in verdict.candidates() {
            assert_ne!(
                r.route("lineitem"),
                Some(&TableRoute::Partitioned {
                    column: "l_orderkey".into()
                })
            );
        }
    }

    #[test]
    fn safe_diagnostic_names_the_key() {
        let verdict = shard_safety(&view3(), &provider());
        let diag = verdict.diagnostic();
        assert_eq!(diag.code, DiagCode::Gp024ShardSafe);
        assert!(diag.message.contains("o_custkey"), "{}", diag.message);
        assert!(
            diag.message.contains("lineitem replicated"),
            "{}",
            diag.message
        );
    }

    #[test]
    fn union_of_copartitioned_scans_is_safe() {
        // orders ∪ orders: both sides partition on the same column.
        let plan = gpivot_algebra::Plan::scan("orders").union(gpivot_algebra::Plan::scan("orders"));
        let verdict = shard_safety(&plan, &provider());
        assert!(verdict.is_safe());
    }

    #[test]
    fn type_error_is_unprovable_not_panic() {
        let plan = gpivot_algebra::Plan::scan("nonexistent");
        let verdict = shard_safety(&plan, &provider());
        assert!(!verdict.is_safe());
    }
}
