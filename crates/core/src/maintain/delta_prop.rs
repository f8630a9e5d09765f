//! The **propagate phase**: push source deltas up a view's plan as signed
//! multisets (§6.2; relational rules after [11, 18], GPIVOT/GUNPIVOT rules
//! after Fig. 22), by a [`DeltaProgram`] compiled once, when the view is
//! registered.
//!
//! Conventions:
//!
//! * The catalog holds the **pre-update** state; source deltas are the
//!   pending changes. [`DeltaProgram::propagate`] returns `Δ(plan) =
//!   plan(post) − plan(pre)` as [`SignedRows`]: a flat list of weighted
//!   rows in which equal rows may repeat and their weights add.
//! * **Consolidation happens only where a rule needs it.** σ, π, ⋈, ∪ and
//!   `GUNPIVOT` are linear in a signed multiset, so they filter, join and
//!   concatenate without ever adding up equal rows. The rules that build a
//!   post state (`GROUPBY`, an intermediate `GPIVOT`, `Diff`) consolidate
//!   their input first, because [`post_state_table`] needs each row once;
//!   so do the apply rules that test a row's presence.
//!
//! **What registration resolves.** [`DeltaProgram::compile`] turns the plan
//! into a tree of *steps* with every name resolved to a position: the
//! columns each σ and π reads, each bound predicate and join residual,
//! each join's key positions, and for every place the rules fetch
//! pre-state rows, the probe path to them — which side of each join the
//! restriction reaches first, and each index lookup as a `(table, column
//! positions)` pair ([`DeltaProgram::access_paths`]). Registration builds
//! those indexes ([`DeltaProgram::declare`]), so no epoch builds one. The
//! program keeps the schema each base table had when it was compiled, and
//! refuses to run over a table whose schema has changed since
//! ([`CoreError::SchemaChanged`]): compiled positions would read the wrong
//! columns.
//!
//! **SPJ cores run as one pipeline.** Each maximal block of inner
//! equi-joins, σ and π over scans is one *core* step. Its intermediate
//! results are *tuples*: a weight plus one borrowed `&Row` per leaf, each
//! leaf row a source-delta row or a pre-state base row, so a join appends
//! references and σ reads a column where it sits. Every join keeps the
//! exact three-term bag identity `Δ(A ⋈ B) = ΔA ⋈ B_pre ⊎ A_pre ⋈ ΔB ⊎
//! ΔA ⋈ ΔB` (signed weights multiply in the last term, a small
//! delta–delta hash join). A pre-state term probes the other side with
//! each delta tuple's join key, read in place: a scan is an index lookup
//! ([`gpivot_storage::TableIndex::get_values`]), a join below is probed
//! side by side, and a join probe skips a `NULL` key, which joins nothing.
//! Only pre states appear, and only the rows a delta's keys reach are
//! fetched: propagation costs O(|Δ| · fan-out), not O(|base|). A core's
//! output rows are built once, at its root, from one gather list of
//! `(leaf, column)` pairs (a computed π at the root evaluates there too).
//!
//! **The other operators stay materialized steps**, with their layouts
//! resolved at registration:
//!
//! * `GROUPBY` inside the tree uses the insert/delete rules of \[18\]:
//!   identify affected groups, fetch their pre-state input rows, recompute
//!   them from pre and post states and emit delete+insert pairs — the
//!   "costly identification and then recomputation of affected groups" the
//!   paper measures (§7.3).
//! * An intermediate `GPIVOT` uses the Fig. 22 insert/delete rules: the
//!   affected keys' old output rows are re-derived from the pre state and
//!   new rows from the post state — the cost the GPIVOT pullup avoids.
//! * `GUNPIVOT` is linear (Fig. 22's union-distribution), `Union` concatenates,
//!   and `Diff` is not delta-linear, so it recomputes both states.
//! * An outer join is not maintainable: touching one fails the refresh with
//!   [`CoreError::NotMaintainable`].
//!
//! A materialized step below a σ, π or join is a leaf of the core above it.
//! Fetching its pre-state rows by key crosses it where whole groups are in
//! or out — group keys of a `GROUPBY`, `K` of a `GPIVOT`, pass-through
//! columns of a π — and otherwise evaluates it in full and filters
//! ([`PropagationCtx::eval_pre`]), exactly what the old walk did there.
//! Such a restriction matches `NULL` = `NULL`, as `GROUPBY` does.
//!
//! **Counting.** [`PropagationCtx::rows_evaluated`] (surfaced as
//! `MaintenanceOutcome::rows_propagated`) counts the rows the program
//! fetches and the rows it emits: every row an index probe returns, every
//! row a step builds — each core's output rows, each group or pivot kernel
//! output — and every row a full evaluation produces. Intermediate tuples
//! are references, not rows, and are not counted.

use crate::error::{CoreError, Result};
use crate::maintain::SourceDeltas;
use gpivot_algebra::plan::{JoinKind, PivotSpec, Plan, UnpivotSpec};
use gpivot_algebra::{AggFunc, AggSpec, BoundExpr, Expr};
use gpivot_exec::pivot::{PivotLayout, UnpivotLayout};
use gpivot_exec::{Executor, Overlay, TableProvider};
use gpivot_storage::{Catalog, Delta, Row, RowMap, RowSet, RowState, SchemaRef, Table, Value};
use std::cell::{Cell, OnceCell};
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

/// A signed multiset as a flat list: each row carries a non-zero weight
/// (negative = deleted), equal rows may repeat, and their weights add.
/// Propagation produces it; a rule that needs each row once calls
/// [`consolidate`].
pub type SignedRows = Vec<(Row, i64)>;

/// Add up the weights of equal rows, dropping the ones that cancel.
pub fn consolidate(rows: impl IntoIterator<Item = (Row, i64)>) -> Delta {
    rows.into_iter().collect()
}

/// Propagation context: pre-state catalog plus pending source deltas, and
/// the count of rows the propagation fetched and emitted.
pub struct PropagationCtx<'a> {
    pub catalog: &'a Catalog,
    pub deltas: &'a SourceDeltas,
    rows_evaluated: Cell<usize>,
}

impl<'a> PropagationCtx<'a> {
    pub fn new(catalog: &'a Catalog, deltas: &'a SourceDeltas) -> Self {
        PropagationCtx {
            catalog,
            deltas,
            rows_evaluated: Cell::new(0),
        }
    }

    /// Rows fetched and emitted so far by every program run and every
    /// [`PropagationCtx::eval_pre`] / [`PropagationCtx::eval_post`] call
    /// on this context (see the module docs) — the propagate phase's work
    /// proxy surfaced in `MaintenanceOutcome::rows_propagated`.
    pub fn rows_evaluated(&self) -> usize {
        self.rows_evaluated.get()
    }

    fn count(&self, rows: usize) {
        self.rows_evaluated.set(self.rows_evaluated.get() + rows);
    }

    /// Does a pending delta change one of `tables`?
    fn changes_any(&self, tables: &[String]) -> bool {
        (tables.iter()).any(|t| self.deltas.delta(t).is_some_and(|d| !d.is_empty()))
    }

    /// A base table for a probe, resolved through the provider so the
    /// `Scan` fault site fires as for any scan.
    fn scan(&self, table: &str) -> Result<&'a Table> {
        Ok(self.catalog.get_table(table)?)
    }

    /// Evaluate a subplan against the pre-update state, in full: the step
    /// for a node no restriction can cross, the `Diff` rule, and the test
    /// oracle.
    pub fn eval_pre(&self, plan: &Plan) -> Result<Table> {
        let (table, trace) = Executor::new().run_traced(plan, self.catalog)?;
        self.count(trace.total_rows());
        Ok(table)
    }

    /// Evaluate a subplan against the post-update state (pre ⊕ deltas).
    pub fn eval_post(&self, plan: &Plan) -> Result<Table> {
        let mut overlay = Overlay::new(self.catalog);
        for table in plan.base_tables() {
            if let Some(delta) = self.deltas.delta(&table) {
                if !delta.is_empty() {
                    let pre = self.catalog.table(&table)?;
                    let rows = delta.iter().map(|(r, &w)| (r, w));
                    overlay.put(table.clone(), post_state_table(pre, rows));
                }
            }
        }
        let (table, trace) = Executor::new().run_traced(plan, &overlay)?;
        self.count(trace.total_rows());
        Ok(table)
    }
}

/// Build the post-update state of one table as a bag (pre ⊕ delta).
/// `delta` must be consolidated — each row at most once, as a [`Delta`]
/// iterates — since a row's weight says how many copies to drop or add.
pub fn post_state_table<'r>(pre: &Table, delta: impl IntoIterator<Item = (&'r Row, i64)>) -> Table {
    let mut deleted: RowMap<&Row, i64> = RowMap::default();
    let mut inserted = Vec::new();
    for (row, w) in delta {
        if w < 0 {
            deleted.insert(row, -w);
        } else {
            inserted.extend(std::iter::repeat_n(row, w as usize));
        }
    }
    let mut rows = Vec::with_capacity(pre.len() + inserted.len());
    for row in pre.iter() {
        match deleted.get_mut(row) {
            Some(c) if *c > 0 => *c -= 1,
            _ => rows.push(row.clone()),
        }
    }
    rows.extend(inserted.into_iter().cloned());
    Table::bag(pre.schema().clone(), rows)
}

/// The old rows retracted and the new rows inserted, unconsolidated: the
/// output of the rules that recompute affected groups or keys.
fn replace_rows(old: &Table, new: &Table) -> SignedRows {
    let old = old.iter().map(|r| (r.clone(), -1));
    old.chain(new.iter().map(|r| (r.clone(), 1))).collect()
}

/// A step's position in [`DeltaProgram`]'s step list.
type StepId = usize;

/// A column of a tuple: `(leaf, column)`, the leaf counted from the first
/// leaf of the node the tuple belongs to.
type ColRef = (usize, usize);

/// A view's delta program: its plan compiled, at registration, into steps
/// with every position resolved (see the module docs). Children come
/// before their parents in the step list.
#[derive(Debug, Clone)]
pub struct DeltaProgram {
    steps: Vec<Step>,
    root: StepId,
    /// Every base table the program reads, with the schema it was
    /// compiled against.
    tables: Vec<(String, SchemaRef)>,
    /// Fig. 29's candidate restriction of the root, when the view has one.
    candidates: Option<Restriction>,
}

#[derive(Debug, Clone)]
struct Step {
    /// The subplan this step computes: evaluated in full where no
    /// restriction crosses it.
    plan: Plan,
    schema: SchemaRef,
    /// The base tables under the step: an untouched step has no delta.
    tables: Vec<String>,
    kind: StepKind,
}

#[derive(Debug, Clone)]
enum StepKind {
    Core(Core),
    Group {
        input: StepId,
        group_idx: Vec<usize>,
        aggs: Vec<AggSpec>,
        /// Each aggregate's input position (unused by `count(*)`).
        agg_inputs: Vec<usize>,
        /// The affected groups' input rows.
        fetch: Fetch,
    },
    Pivot {
        input: StepId,
        spec: PivotSpec,
        layout: PivotLayout,
        /// The affected keys' input rows.
        fetch: Fetch,
    },
    Unpivot {
        input: StepId,
        spec: UnpivotSpec,
        layout: UnpivotLayout,
    },
    Union(StepId, StepId),
    Diff,
    Outer(JoinKind),
}

/// A block of inner equi-joins, σ and π over leaves, run as one pipeline.
#[derive(Debug, Clone)]
struct Core {
    leaves: Vec<Leaf>,
    root: Node,
    /// The gather list: where each output column comes from.
    out: Vec<Out>,
    /// The columns a computed output expression is bound against.
    expr_cols: Vec<ColRef>,
}

#[derive(Debug, Clone)]
enum Leaf {
    Table(String),
    Step(StepId),
}

#[derive(Debug, Clone)]
enum Out {
    Col(ColRef),
    Expr(BoundExpr),
}

#[derive(Debug, Clone)]
enum Node {
    /// The leaf at this position of the core's leaf list.
    Leaf(usize),
    Filter {
        input: Box<Node>,
        pred: BoundExpr,
        /// The input's columns, which `pred` is bound against.
        cols: Vec<ColRef>,
    },
    Join {
        left: Box<Node>,
        right: Box<Node>,
        /// The left side's leaf count: a right column's leaf is shifted by
        /// it in a joined tuple.
        split: usize,
        left_key: Vec<ColRef>,
        right_key: Vec<ColRef>,
        residual: Option<BoundExpr>,
        /// The joined tuple's columns, which `residual` is bound against.
        cols: Vec<ColRef>,
        /// `B_pre` by `ΔA`'s keys, and `A_pre` by `ΔB`'s.
        probe_right: Box<Probe>,
        probe_left: Box<Probe>,
    },
}

/// A compiled path to the pre-state tuples of a node whose columns equal a
/// probing tuple's key.
#[derive(Debug, Clone)]
enum Probe {
    /// An index lookup: the base rows whose `cols` equal the key (every
    /// row when `cols` is empty).
    Table { table: String, cols: Vec<usize> },
    /// A materialized step's rows whose `cols` equal the key: fetched once
    /// for the batch's distinct keys, then looked up by hash.
    Step {
        step: StepId,
        fetch: Box<Fetch>,
        cols: Vec<usize>,
    },
    Filter {
        input: Box<Probe>,
        pred: BoundExpr,
        cols: Vec<ColRef>,
    },
    /// Probe the side holding the key first (`first_keys` are the key's
    /// positions that side reads), then the other side by the join key;
    /// `post` checks the rest of the key on the second side.
    Join {
        first: Box<Probe>,
        first_keys: Vec<usize>,
        then: Box<Probe>,
        join_key: Vec<ColRef>,
        post: Vec<(usize, ColRef)>,
        left_first: bool,
        residual: Option<BoundExpr>,
        cols: Vec<ColRef>,
    },
}

/// A compiled path to a step's pre-state rows whose columns equal one of
/// a set of keys. Such a restriction matches `NULL` = `NULL`.
#[derive(Debug, Clone)]
enum Fetch {
    Core {
        step: StepId,
        probe: Probe,
    },
    Group {
        step: StepId,
        input: Box<Fetch>,
    },
    Pivot {
        step: StepId,
        input: Box<Fetch>,
    },
    /// No restriction crosses the step: evaluate it in full and filter.
    Full {
        step: StepId,
        cols: Vec<usize>,
    },
}

/// A compiled read of a program's output rows whose columns (by name, at
/// [`DeltaProgram::restrict`]) equal one of a set of keys.
#[derive(Debug, Clone)]
pub struct Restriction {
    fetch: Fetch,
}

/// Do the items only pass columns through (renaming, dropping,
/// reordering or repeating them)?
fn pure(items: &[(Expr, String)]) -> bool {
    items.iter().all(|(e, _)| matches!(e, Expr::Col(_)))
}

/// Positions of the named columns in `schema`.
fn positions(schema: &gpivot_storage::Schema, cols: &[String]) -> Result<Vec<usize>> {
    Ok(cols
        .iter()
        .map(|c| schema.index_of(c))
        .collect::<gpivot_storage::Result<_>>()?)
}

/// The compile pass of [`DeltaProgram::compile`].
struct Compiler<'c> {
    catalog: &'c Catalog,
    steps: Vec<Step>,
    tables: Vec<(String, SchemaRef)>,
}

impl Compiler<'_> {
    /// A base table's schema, recorded for the schema guard.
    fn table(&mut self, name: &str) -> Result<SchemaRef> {
        let schema = self.catalog.table(name)?.schema().clone();
        if !self.tables.iter().any(|(t, _)| t == name) {
            self.tables.push((name.to_string(), schema.clone()));
        }
        Ok(schema)
    }

    fn step(&mut self, plan: &Plan) -> Result<StepId> {
        let schema = plan.schema(self.catalog)?;
        let tables: Vec<String> = plan.base_tables().into_iter().collect();
        for t in &tables {
            self.table(t)?;
        }
        let kind = match plan {
            Plan::Join { kind, .. } if *kind != JoinKind::Inner => StepKind::Outer(*kind),
            Plan::Scan { .. } | Plan::Select { .. } | Plan::Project { .. } | Plan::Join { .. } => {
                StepKind::Core(self.core(plan)?)
            }
            Plan::GroupBy {
                input,
                group_by,
                aggs,
            } => {
                let in_schema = input.schema(self.catalog)?;
                let agg_inputs = aggs
                    .iter()
                    .map(|a| match a.func {
                        AggFunc::CountStar => Ok(usize::MAX),
                        _ => in_schema.index_of(&a.input),
                    })
                    .collect::<gpivot_storage::Result<_>>()?;
                let group_idx = positions(&in_schema, group_by)?;
                let input = self.step(input)?;
                let fetch = compile_fetch(&self.steps, input, group_idx.clone())?;
                StepKind::Group {
                    input,
                    group_idx,
                    aggs: aggs.clone(),
                    agg_inputs,
                    fetch,
                }
            }
            Plan::GPivot { input, spec } => {
                let layout = PivotLayout::resolve(spec, &*input.schema(self.catalog)?)?;
                let input = self.step(input)?;
                let fetch = compile_fetch(&self.steps, input, layout.k_idx.clone())?;
                StepKind::Pivot {
                    input,
                    spec: spec.clone(),
                    layout,
                    fetch,
                }
            }
            Plan::GUnpivot { input, spec } => StepKind::Unpivot {
                layout: UnpivotLayout::resolve(spec, &*input.schema(self.catalog)?)?,
                input: self.step(input)?,
                spec: spec.clone(),
            },
            Plan::Union { left, right } => StepKind::Union(self.step(left)?, self.step(right)?),
            Plan::Diff { .. } => StepKind::Diff,
        };
        self.steps.push(Step {
            plan: plan.clone(),
            schema,
            tables,
            kind,
        });
        Ok(self.steps.len() - 1)
    }

    /// A core rooted at `plan`: a computed π on top is gathered at the
    /// root; below, σ, pure π and inner joins stay in the core.
    fn core(&mut self, plan: &Plan) -> Result<Core> {
        let mut leaves = Vec::new();
        let (root, out, expr_cols) = match plan {
            Plan::Project { input, items } if !pure(items) => {
                let schema = input.schema(self.catalog)?;
                let (root, cols) = self.node(input, &mut leaves)?;
                let out = items
                    .iter()
                    .map(|(e, _)| {
                        Ok(match e {
                            Expr::Col(c) => Out::Col(cols[schema.index_of(c)?]),
                            e => Out::Expr(e.bind(&schema)?),
                        })
                    })
                    .collect::<Result<_>>()?;
                (root, out, cols)
            }
            _ => {
                let (root, cols) = self.node(plan, &mut leaves)?;
                (root, cols.into_iter().map(Out::Col).collect(), Vec::new())
            }
        };
        Ok(Core {
            leaves,
            root,
            out,
            expr_cols,
        })
    }

    /// Compile `plan` into a core node over new entries of `leaves`, with
    /// its output columns.
    fn node(&mut self, plan: &Plan, leaves: &mut Vec<Leaf>) -> Result<(Node, Vec<ColRef>)> {
        let catalog = self.catalog;
        match plan {
            Plan::Scan { table } => {
                let arity = self.table(table)?.arity();
                leaves.push(Leaf::Table(table.clone()));
                Ok((
                    Node::Leaf(leaves.len() - 1),
                    (0..arity).map(|c| (0, c)).collect(),
                ))
            }
            Plan::Select { input, predicate } => {
                let pred = predicate.bind(&*input.schema(catalog)?)?;
                let (input, cols) = self.node(input, leaves)?;
                let node = Node::Filter {
                    input: Box::new(input),
                    pred,
                    cols: cols.clone(),
                };
                Ok((node, cols))
            }
            Plan::Project { input, items } if pure(items) => {
                let schema = input.schema(catalog)?;
                let (node, cols) = self.node(input, leaves)?;
                let picked = items
                    .iter()
                    .map(|(e, _)| match e {
                        Expr::Col(c) => Ok(cols[schema.index_of(c)?]),
                        e => unreachable!("a pure projection computes {e}"),
                    })
                    .collect::<Result<_>>()?;
                Ok((node, picked))
            }
            Plan::Join {
                left,
                right,
                kind: JoinKind::Inner,
                on,
                residual,
            } => {
                let (left_schema, right_schema) = (left.schema(catalog)?, right.schema(catalog)?);
                let first = leaves.len();
                let (left, left_cols) = self.node(left, leaves)?;
                let split = leaves.len() - first;
                let (right, right_cols) = self.node(right, leaves)?;
                let key = |cols: &[ColRef], schema: &gpivot_storage::Schema, name: &String| {
                    Ok::<_, CoreError>(cols[schema.index_of(name)?])
                };
                let left_key = (on.iter().map(|(l, _)| key(&left_cols, &left_schema, l)))
                    .collect::<Result<Vec<_>>>()?;
                let right_key = (on.iter().map(|(_, r)| key(&right_cols, &right_schema, r)))
                    .collect::<Result<Vec<_>>>()?;
                let shifted = right_cols.iter().map(|&(s, c)| (s + split, c));
                let cols: Vec<ColRef> = left_cols.iter().copied().chain(shifted).collect();
                let residual = match residual {
                    Some(e) => Some(e.bind(&*plan.schema(catalog)?)?),
                    None => None,
                };
                let probe_right = Box::new(compile_probe(&self.steps, &right, leaves, &right_key)?);
                let probe_left = Box::new(compile_probe(&self.steps, &left, leaves, &left_key)?);
                let node = Node::Join {
                    left: Box::new(left),
                    right: Box::new(right),
                    split,
                    left_key,
                    right_key,
                    residual,
                    cols: cols.clone(),
                    probe_right,
                    probe_left,
                };
                Ok((node, cols))
            }
            _ => {
                let step = self.step(plan)?;
                leaves.push(Leaf::Step(step));
                let arity = self.steps[step].schema.arity();
                Ok((
                    Node::Leaf(leaves.len() - 1),
                    (0..arity).map(|c| (0, c)).collect(),
                ))
            }
        }
    }
}

/// The probe path of `node` (whose leaves are entries of `leaves`) by the
/// columns `want`.
fn compile_probe(steps: &[Step], node: &Node, leaves: &[Leaf], want: &[ColRef]) -> Result<Probe> {
    Ok(match node {
        Node::Leaf(leaf) => {
            let cols: Vec<usize> = want.iter().map(|&(_, c)| c).collect();
            match &leaves[*leaf] {
                Leaf::Table(table) => Probe::Table {
                    table: table.clone(),
                    cols,
                },
                Leaf::Step(step) => Probe::Step {
                    step: *step,
                    fetch: Box::new(compile_fetch(steps, *step, cols.clone())?),
                    cols,
                },
            }
        }
        Node::Filter { input, pred, cols } => Probe::Filter {
            input: Box::new(compile_probe(steps, input, leaves, want)?),
            pred: pred.clone(),
            cols: cols.clone(),
        },
        Node::Join {
            left,
            right,
            split,
            left_key,
            right_key,
            residual,
            cols,
            ..
        } => {
            // Restrict the side the key reaches (the left one when the key
            // spans both sides, or is empty), then the other by the join
            // key; the rest of the key is checked on the second side.
            let on_left = |j: &usize| want[*j].0 < *split;
            let left_first = want.is_empty() || (0..want.len()).any(|j| on_left(&j));
            let (first_keys, rest): (Vec<usize>, Vec<usize>) =
                (0..want.len()).partition(|j| on_left(j) == left_first);
            let first_want: Vec<ColRef> = first_keys
                .iter()
                .map(|&j| {
                    let (s, c) = want[j];
                    (if left_first { s } else { s - split }, c)
                })
                .collect();
            let post = rest.iter().map(|&j| (j, (want[j].0 - split, want[j].1)));
            let (first, then, join_key, then_key) = if left_first {
                (left, right, left_key, right_key)
            } else {
                (right, left, right_key, left_key)
            };
            Probe::Join {
                first: Box::new(compile_probe(steps, first, leaves, &first_want)?),
                first_keys,
                then: Box::new(compile_probe(steps, then, leaves, then_key)?),
                join_key: join_key.clone(),
                post: post.collect(),
                left_first,
                residual: residual.clone(),
                cols: cols.clone(),
            }
        }
    })
}

/// The fetch path of step `id`'s rows by its output columns `cols`.
fn compile_fetch(steps: &[Step], id: StepId, cols: Vec<usize>) -> Result<Fetch> {
    let step = &steps[id];
    // The input columns carrying the same values as `cols`, by name: an
    // output column of a GROUPBY's group keys or of a GPIVOT's `K`.
    let through = |input: StepId, names: &[String]| -> Option<Vec<usize>> {
        let in_schema = &steps[input].schema;
        (cols.iter())
            .map(|&c| {
                let name = &step.schema.field_at(c).name;
                names
                    .contains(name)
                    .then(|| in_schema.index_of(name).ok())?
            })
            .collect()
    };
    Ok(match (&step.kind, &step.plan) {
        (StepKind::Core(core), _) => {
            let refs: Option<Vec<ColRef>> = (cols.iter())
                .map(|&c| match &core.out[c] {
                    Out::Col(r) => Some(*r),
                    Out::Expr(_) => None,
                })
                .collect();
            match refs {
                Some(want) => Fetch::Core {
                    step: id,
                    probe: compile_probe(steps, &core.root, &core.leaves, &want)?,
                },
                None => Fetch::Full { step: id, cols },
            }
        }
        (StepKind::Group { input, .. }, Plan::GroupBy { group_by, .. }) => {
            match through(*input, group_by) {
                Some(in_cols) => Fetch::Group {
                    step: id,
                    input: Box::new(compile_fetch(steps, *input, in_cols)?),
                },
                None => Fetch::Full { step: id, cols },
            }
        }
        (StepKind::Pivot { input, spec, .. }, _) => {
            match through(*input, &spec.validate(&steps[*input].schema)?) {
                Some(in_cols) => Fetch::Pivot {
                    step: id,
                    input: Box::new(compile_fetch(steps, *input, in_cols)?),
                },
                None => Fetch::Full { step: id, cols },
            }
        }
        _ => Fetch::Full { step: id, cols },
    })
}

impl DeltaProgram {
    /// Compile `plan` against `catalog`'s schemas. Fails where the plan
    /// does not type-check (the executor would refuse it too); an outer
    /// join compiles, and fails the refresh that touches it.
    pub fn compile(plan: &Plan, catalog: &Catalog) -> Result<DeltaProgram> {
        let mut compiler = Compiler {
            catalog,
            steps: Vec::new(),
            tables: Vec::new(),
        };
        let root = compiler.step(plan)?;
        Ok(DeltaProgram {
            steps: compiler.steps,
            root,
            tables: compiler.tables,
            candidates: None,
        })
    }

    /// [`DeltaProgram::compile`], plus Fig. 29's candidate restriction:
    /// a read of the pre-state output rows restricted to keys on the named
    /// output columns ([`DeltaProgram::candidates`]).
    pub fn with_candidates(
        plan: &Plan,
        catalog: &Catalog,
        cols: &[String],
    ) -> Result<DeltaProgram> {
        let mut program = DeltaProgram::compile(plan, catalog)?;
        program.candidates = Some(program.restrict(cols)?);
        Ok(program)
    }

    /// The candidate restriction compiled by [`DeltaProgram::with_candidates`].
    pub fn candidates(&self) -> Option<&Restriction> {
        self.candidates.as_ref()
    }

    /// Compile a read of the program's pre-state output rows restricted to
    /// keys on the named output columns.
    pub fn restrict(&self, cols: &[String]) -> Result<Restriction> {
        let cols = positions(&self.steps[self.root].schema, cols)?;
        Ok(Restriction {
            fetch: compile_fetch(&self.steps, self.root, cols)?,
        })
    }

    /// The index lookups the program makes, as `(table, column
    /// positions)`, sorted and each once. The schema key's columns are
    /// listed too (their lookups reuse the key index).
    pub fn access_paths(&self) -> Vec<(String, Vec<usize>)> {
        fn probe(p: &Probe, out: &mut Vec<(String, Vec<usize>)>) {
            match p {
                Probe::Table { table, cols } if !cols.is_empty() => {
                    out.push((table.clone(), cols.clone()));
                }
                Probe::Table { .. } => {}
                Probe::Step { fetch: f, .. } => fetch(f, out),
                Probe::Filter { input, .. } => probe(input, out),
                Probe::Join { first, then, .. } => {
                    probe(first, out);
                    probe(then, out);
                }
            }
        }
        fn fetch(f: &Fetch, out: &mut Vec<(String, Vec<usize>)>) {
            match f {
                Fetch::Core { probe: p, .. } => probe(p, out),
                Fetch::Group { input, .. } | Fetch::Pivot { input, .. } => fetch(input, out),
                Fetch::Full { .. } => {}
            }
        }
        fn node(n: &Node, out: &mut Vec<(String, Vec<usize>)>) {
            match n {
                Node::Leaf(_) => {}
                Node::Filter { input, .. } => node(input, out),
                Node::Join {
                    left,
                    right,
                    probe_left,
                    probe_right,
                    ..
                } => {
                    node(left, out);
                    node(right, out);
                    probe(probe_left, out);
                    probe(probe_right, out);
                }
            }
        }
        let mut out = Vec::new();
        for step in &self.steps {
            match &step.kind {
                StepKind::Core(core) => node(&core.root, &mut out),
                StepKind::Group { fetch: f, .. } | StepKind::Pivot { fetch: f, .. } => {
                    fetch(f, &mut out)
                }
                _ => {}
            }
        }
        if let Some(c) = &self.candidates {
            fetch(&c.fetch, &mut out);
        }
        out.sort();
        out.dedup();
        out
    }

    /// [`DeltaProgram::access_paths`] with column names.
    pub fn access_path_names(&self) -> Vec<(String, Vec<String>)> {
        (self.access_paths().into_iter())
            .map(|(table, cols)| {
                let (_, schema) = (self.tables.iter().find(|(t, _)| *t == table))
                    .expect("every probed table is one the program compiled");
                let names = cols.iter().map(|&c| schema.field_at(c).name.clone());
                (table, names.collect())
            })
            .collect()
    }

    /// Build the index behind every access path, so no epoch builds one.
    pub fn declare(&self, catalog: &Catalog) -> Result<()> {
        for (table, cols) in self.access_paths() {
            catalog.table(&table)?.index_on(&cols);
        }
        Ok(())
    }

    /// Refuse a catalog in which a table the program reads no longer has
    /// the schema it was compiled against.
    fn check_schemas(&self, catalog: &Catalog) -> Result<()> {
        for (name, compiled) in &self.tables {
            let now = catalog.table(name)?.schema();
            if !Arc::ptr_eq(now, compiled) && now != compiled {
                return Err(CoreError::SchemaChanged {
                    table: name.clone(),
                });
            }
        }
        Ok(())
    }

    /// Propagate the context's source deltas through the program:
    /// `Δ(plan)` as signed rows, not consolidated.
    pub fn propagate(&self, ctx: &PropagationCtx<'_>) -> Result<SignedRows> {
        self.check_schemas(ctx.catalog)?;
        let (tables, signed) = (Arena::default(), Arena::default());
        let run = Run {
            ctx,
            tables: &tables,
            signed: &signed,
        };
        self.step_delta(self.root, &run)
    }

    /// The pre-state output rows whose restricted columns equal one of
    /// `keys` — bag-equal to filtering [`PropagationCtx::eval_pre`] of the
    /// compiled plan.
    pub fn fetch<S: BuildHasher>(
        &self,
        restriction: &Restriction,
        ctx: &PropagationCtx<'_>,
        keys: &RowSet<Row, S>,
    ) -> Result<Table> {
        self.check_schemas(ctx.catalog)?;
        let (tables, signed) = (Arena::default(), Arena::default());
        let run = Run {
            ctx,
            tables: &tables,
            signed: &signed,
        };
        let keys: Vec<Row> = keys.iter().cloned().collect();
        let rows = self.fetch_rows(&restriction.fetch, &run, &keys)?;
        Ok(Table::bag(self.steps[self.root].schema.clone(), rows))
    }
}

/// Values a run makes that its tuples borrow: each kept value stays put
/// until the run ends. A chain of write-once cells, so no kept value ever
/// moves; a run keeps a handful.
struct Arena<T> {
    value: OnceCell<T>,
    next: OnceCell<Box<Arena<T>>>,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena {
            value: OnceCell::new(),
            next: OnceCell::new(),
        }
    }
}

impl<T> Arena<T> {
    fn keep(&self, mut value: T) -> &T {
        let mut at = self;
        loop {
            match at.value.set(value) {
                Ok(()) => return at.value.get().expect("just set"),
                Err(v) => value = v,
            }
            at = at.next.get_or_init(Box::default);
        }
    }
}

/// One program run: the context, and the arenas holding what its tuples
/// borrow besides the catalog and the deltas.
struct Run<'a> {
    ctx: &'a PropagationCtx<'a>,
    tables: &'a Arena<Table>,
    signed: &'a Arena<SignedRows>,
}

/// Tuples of one node: `width` borrowed rows each (one per leaf), plus a
/// tag — a weight, or the position of the probing tuple a hit answers.
struct Tuples<'a, T> {
    width: usize,
    rows: Vec<&'a Row>,
    tags: Vec<T>,
}

impl<'a, T: Copy> Tuples<'a, T> {
    fn new(width: usize) -> Self {
        Tuples {
            width,
            rows: Vec::new(),
            tags: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.tags.len()
    }

    fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    fn tuple(&self, i: usize) -> &[&'a Row] {
        &self.rows[i * self.width..][..self.width]
    }

    fn push(&mut self, tuple: &[&'a Row], tag: T) {
        self.rows.extend_from_slice(tuple);
        self.tags.push(tag);
    }

    /// Push `left ++ right` unless `residual`, bound against `cols` of the
    /// joined tuple, rejects it.
    fn push_joined(
        &mut self,
        left: &[&'a Row],
        right: &[&'a Row],
        tag: T,
        residual: Option<&BoundExpr>,
        cols: &[ColRef],
    ) {
        let start = self.rows.len();
        self.rows.extend_from_slice(left);
        self.rows.extend_from_slice(right);
        let joined = &self.rows[start..];
        if residual.is_none_or(|p| p.holds_with(&|i| at(joined, cols[i]))) {
            self.tags.push(tag);
        } else {
            self.rows.truncate(start);
        }
    }

    /// Keep the tuples `keep` accepts.
    fn retain(&mut self, keep: impl Fn(&[&'a Row]) -> bool) {
        let w = self.width;
        let mut kept = 0;
        for i in 0..self.len() {
            if keep(self.tuple(i)) {
                self.rows.copy_within(i * w..(i + 1) * w, kept * w);
                self.tags[kept] = self.tags[i];
                kept += 1;
            }
        }
        self.rows.truncate(kept * w);
        self.tags.truncate(kept);
    }
}

/// The value at `col` of a tuple.
fn at<'a>(tuple: &[&'a Row], (leaf, col): ColRef) -> &'a Value {
    &tuple[leaf][col]
}

/// The hash of a tuple's values at `key`, `None` if one is `NULL` (a join
/// key that joins nothing).
fn join_hash(state: &RowState, tuple: &[&Row], key: &[ColRef]) -> Option<u64> {
    let mut h = state.build_hasher();
    for &r in key {
        let v = at(tuple, r);
        if v.is_null() {
            return None;
        }
        v.hash(&mut h);
    }
    Some(h.finish())
}

/// "No position": the end of a chain.
const NIL: usize = usize::MAX;

/// A batch's tuples grouped by their values at a join key, so a join term
/// probes each distinct key once and emits one key's rows together, and
/// the other side's delta finds its partners with [`KeyGroups::find`]. A
/// key holding `NULL` joins nothing, so its tuples are in no group.
struct KeyGroups<'a, 'k> {
    key: &'k [ColRef],
    state: RowState,
    /// Bucket → first group on its chain, group → next group (`NIL` ends).
    buckets: Vec<usize>,
    chain: Vec<usize>,
    /// Each group's first tuple, in first-seen order.
    firsts: Tuples<'a, ()>,
    /// Each group's first member, and each member's next (`NIL` ends).
    head: Vec<usize>,
    next: Vec<usize>,
}

impl<'a, 'k> KeyGroups<'a, 'k> {
    fn of<T: Copy>(tuples: &Tuples<'a, T>, key: &'k [ColRef]) -> Self {
        let mut groups = KeyGroups {
            key,
            state: RowState::default(),
            buckets: vec![NIL; tuples.len().next_power_of_two()],
            chain: Vec::new(),
            firsts: Tuples::new(tuples.width),
            head: Vec::new(),
            next: vec![NIL; tuples.len()],
        };
        let mut last = Vec::new();
        for i in 0..tuples.len() {
            let t = tuples.tuple(i);
            let Some(h) = join_hash(&groups.state, t, key) else {
                continue;
            };
            if let Some(g) = groups.walk(h, t, key) {
                groups.next[last[g]] = i;
                last[g] = i;
            } else {
                let mask = groups.buckets.len() - 1;
                let bucket = &mut groups.buckets[h as usize & mask];
                groups.chain.push(*bucket);
                *bucket = groups.head.len();
                groups.firsts.push(t, ());
                groups.head.push(i);
                last.push(i);
            }
        }
        groups
    }

    /// The group whose key equals `tuple`'s values at `key`, if any.
    fn find(&self, tuple: &[&Row], key: &[ColRef]) -> Option<u32> {
        let h = join_hash(&self.state, tuple, key)?;
        self.walk(h, tuple, key).map(|g| g as u32)
    }

    /// Walk the chain of hash `h`'s bucket for `tuple`'s key.
    fn walk(&self, h: u64, tuple: &[&Row], key: &[ColRef]) -> Option<usize> {
        let mut g = self.buckets[h as usize & (self.buckets.len() - 1)];
        while g != NIL {
            let first = self.firsts.tuple(g);
            if self
                .key
                .iter()
                .zip(key)
                .all(|(&a, &b)| at(first, a) == at(tuple, b))
            {
                return Some(g);
            }
            g = self.chain[g];
        }
        None
    }

    /// The positions of group `g`'s tuples, in batch order.
    fn members(&self, g: u32) -> impl Iterator<Item = usize> + '_ {
        let mut i = self.head[g as usize];
        std::iter::from_fn(move || {
            let at = i;
            (at != NIL).then(|| {
                i = self.next[at];
                at
            })
        })
    }
}

impl Core {
    /// The output row of a root tuple: built once, from the gather list.
    fn gather(&self, tuple: &[&Row]) -> Row {
        let value = |o: &Out| match o {
            Out::Col(r) => at(tuple, *r).clone(),
            Out::Expr(e) => e.eval_with(&|i| at(tuple, self.expr_cols[i])),
        };
        self.out.iter().map(value).collect()
    }
}

impl DeltaProgram {
    fn step_delta<'a>(&self, id: StepId, run: &Run<'a>) -> Result<SignedRows> {
        let step = &self.steps[id];
        let ctx = run.ctx;
        // Untouched subtrees contribute no delta.
        if !ctx.changes_any(&step.tables) {
            return Ok(SignedRows::new());
        }
        match &step.kind {
            StepKind::Core(core) => {
                let tuples = self.node_delta(core, &core.root, run)?;
                let rows: SignedRows = (0..tuples.len())
                    .map(|i| (core.gather(tuples.tuple(i)), tuples.tags[i]))
                    .collect();
                ctx.count(rows.len());
                Ok(rows)
            }
            StepKind::Group {
                input,
                group_idx,
                aggs,
                agg_inputs,
                fetch,
            } => {
                // Insert/delete rules of [18]: recompute affected groups.
                let din = consolidate(self.step_delta(*input, run)?);
                if din.is_empty() {
                    return Ok(SignedRows::new());
                }
                // Only the affected groups' input rows are fetched; every
                // row of `din` belongs to one of them.
                let affected = din.distinct_values_at(group_idx);
                let in_schema = self.steps[*input].schema.clone();
                let pre_in = Table::bag(in_schema, self.fetch_rows(fetch, run, &affected)?);
                let post_in = post_state_table(&pre_in, din.iter().map(|(r, &w)| (r, w)));
                let group = |t: &Table| {
                    gpivot_exec::group::hash_group_by(
                        t,
                        group_idx,
                        aggs,
                        agg_inputs,
                        step.schema.clone(),
                    )
                };
                let (old, new) = (group(&pre_in)?, group(&post_in)?);
                ctx.count(old.len() + new.len());
                Ok(replace_rows(&old, &new))
            }
            StepKind::Pivot {
                input,
                spec,
                layout,
                fetch,
            } => {
                // Fig. 22 insert/delete rules: re-derive the affected keys'
                // pivot rows from the pre state (deletes) and the post state
                // (inserts). Accessing "the original pivoted result" is
                // exactly the cost the paper attributes to intermediate
                // pivots (§2.3).
                let din = consolidate(self.step_delta(*input, run)?);
                // Only delta rows whose dimension tuple is an output
                // parameter (and with a non-⊥ measure) affect the output.
                let relevant = din.filter_rows(|r| {
                    layout.group_lookup.contains_key(&r.project(&layout.by_idx))
                        && !layout.on_idx.iter().all(|&oi| r[oi].is_null())
                });
                if relevant.is_empty() {
                    return Ok(SignedRows::new());
                }
                let affected = relevant.distinct_values_at(&layout.k_idx);
                // The affected keys' pre-state input rows, and their post
                // state from the part of `din` that touches those keys.
                let in_schema = self.steps[*input].schema.clone();
                let pre_in = Table::bag(in_schema, self.fetch_rows(fetch, run, &affected)?);
                let keys: RowSet<&Row> = affected.iter().collect();
                let din_affected = din.filter_rows(|r| keys.contains(&r.project(&layout.k_idx)));
                let post_in = post_state_table(&pre_in, din_affected.iter().map(|(r, &w)| (r, w)));
                let pivot = |t: &Table| gpivot_exec::pivot::gpivot(t, spec, step.schema.clone());
                let (old, new) = (pivot(&pre_in)?, pivot(&post_in)?);
                ctx.count(old.len() + new.len());
                Ok(replace_rows(&old, &new))
            }
            StepKind::Unpivot {
                input,
                spec,
                layout,
            } => {
                // Fig. 22: GUNPIVOT distributes over bag union/difference.
                let mut out = SignedRows::new();
                for (row, w) in self.step_delta(*input, run)? {
                    for (g, cols) in spec.groups.iter().zip(&layout.group_cols) {
                        if cols.iter().all(|&c| row[c].is_null()) {
                            continue;
                        }
                        let mut v =
                            Vec::with_capacity(layout.k_idx.len() + g.tags.len() + cols.len());
                        v.extend(layout.k_idx.iter().map(|&i| row[i].clone()));
                        v.extend(g.tags.iter().cloned());
                        v.extend(cols.iter().map(|&c| row[c].clone()));
                        out.push((Row::new(v), w));
                    }
                }
                Ok(out)
            }
            StepKind::Union(left, right) => {
                let mut d = self.step_delta(*left, run)?;
                d.extend(self.step_delta(*right, run)?);
                Ok(d)
            }
            StepKind::Diff => {
                // Bag difference is not delta-linear; recompute both states.
                // Consolidated, so what flows on is the difference, not two
                // whole results.
                let pre = ctx.eval_pre(&step.plan)?;
                let post = ctx.eval_post(&step.plan)?;
                Ok(consolidate(replace_rows(&pre, &post))
                    .into_counts()
                    .collect())
            }
            StepKind::Outer(kind) => Err(CoreError::NotMaintainable(format!(
                "delta propagation through {kind} joins is not supported; \
                 use full recomputation"
            ))),
        }
    }

    /// The delta tuples of a core node.
    fn node_delta<'a>(&self, core: &Core, node: &Node, run: &Run<'a>) -> Result<Tuples<'a, i64>> {
        let mut out = Tuples::new(1);
        match node {
            Node::Leaf(leaf) => match &core.leaves[*leaf] {
                Leaf::Table(table) => {
                    if let Some(delta) = run.ctx.deltas.delta(table) {
                        for (row, &w) in delta.iter() {
                            out.push(&[row], w);
                        }
                    }
                }
                Leaf::Step(step) => {
                    for (row, w) in run.signed.keep(self.step_delta(*step, run)?) {
                        out.push(&[row], *w);
                    }
                }
            },
            Node::Filter { input, pred, cols } => {
                out = self.node_delta(core, input, run)?;
                out.retain(|t| pred.holds_with(&|i| at(t, cols[i])));
            }
            Node::Join {
                left,
                right,
                left_key,
                right_key,
                residual,
                cols,
                probe_right,
                probe_left,
                ..
            } => {
                let dl = self.node_delta(core, left, run)?;
                let dr = self.node_delta(core, right, run)?;
                out = Tuples::new(dl.width + dr.width);
                if dl.is_empty() && dr.is_empty() {
                    return Ok(out);
                }
                let _s = tracing::span("maintain.delta_join").enter();
                let residual = residual.as_ref();
                // ΔA ⋈ B_pre: probe B once per distinct join key of ΔA,
                // and join the hits to every ΔA tuple with that key.
                let left_groups = KeyGroups::of(&dl, left_key);
                if !dl.is_empty() {
                    let hits =
                        self.probe(probe_right, run, &left_groups.firsts, left_key, false)?;
                    for j in 0..hits.len() {
                        for i in left_groups.members(hits.tags[j]) {
                            out.push_joined(dl.tuple(i), hits.tuple(j), dl.tags[i], residual, cols);
                        }
                    }
                }
                // A_post ⋈ ΔB = A_pre ⋈ ΔB ⊎ ΔA ⋈ ΔB.
                if !dr.is_empty() {
                    let groups = KeyGroups::of(&dr, right_key);
                    let hits = self.probe(probe_left, run, &groups.firsts, right_key, false)?;
                    for j in 0..hits.len() {
                        for i in groups.members(hits.tags[j]) {
                            out.push_joined(hits.tuple(j), dr.tuple(i), dr.tags[i], residual, cols);
                        }
                    }
                    // ΔA ⋈ ΔB: each ΔB tuple joins the ΔA group of its key,
                    // signed weights multiplying; nothing when ΔA is empty.
                    let probing = if dl.is_empty() { 0 } else { dr.len() };
                    for j in 0..probing {
                        let r = dr.tuple(j);
                        let Some(g) = left_groups.find(r, right_key) else {
                            continue;
                        };
                        for i in left_groups.members(g) {
                            out.push_joined(
                                dl.tuple(i),
                                r,
                                dl.tags[i] * dr.tags[j],
                                residual,
                                cols,
                            );
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// The pre-state tuples `p` reaches for each probing tuple's values at
    /// `key`, each tagged with the probing tuple's position. With
    /// `nulls_match` off (a join's probe), a key holding `NULL` reaches
    /// nothing; on (a restriction), `NULL` matches `NULL`.
    fn probe<'a, T: Copy>(
        &self,
        p: &Probe,
        run: &Run<'a>,
        probing: &Tuples<'_, T>,
        key: &[ColRef],
        nulls_match: bool,
    ) -> Result<Tuples<'a, u32>> {
        let mut hits = Tuples::new(1);
        let skip = |t: &[&Row]| !nulls_match && key.iter().any(|&r| at(t, r).is_null());
        match p {
            Probe::Table { table, cols } => {
                let _s = tracing::span("maintain.probe").enter();
                let base = run.ctx.scan(table)?;
                if cols.is_empty() {
                    for i in 0..probing.len() {
                        for row in base.rows() {
                            hits.push(&[row], i as u32);
                        }
                    }
                } else {
                    let index = base.index_on(cols);
                    // A key read from one row is looked up by its columns.
                    let one_row = key.iter().all(|r| r.0 == key[0].0);
                    let key_cols: Vec<usize> = key.iter().map(|r| r.1).collect();
                    for i in 0..probing.len() {
                        let t = probing.tuple(i);
                        if skip(t) {
                            continue;
                        }
                        if one_row {
                            for row in index.get_of(t[key[0].0], &key_cols) {
                                hits.push(&[row], i as u32);
                            }
                        } else {
                            for row in index.get_values(key.iter().map(|&r| at(t, r))) {
                                hits.push(&[row], i as u32);
                            }
                        }
                    }
                }
                run.ctx.count(hits.len());
            }
            Probe::Step { step, fetch, cols } => {
                let mut keys: RowSet<Row> = RowSet::default();
                for i in 0..probing.len() {
                    let t = probing.tuple(i);
                    if !skip(t) {
                        keys.insert(Row::new(key.iter().map(|&r| at(t, r).clone()).collect()));
                    }
                }
                let keys: Vec<Row> = keys.into_iter().collect();
                let rows = self.fetch_rows(fetch, run, &keys)?;
                let fetched = run
                    .tables
                    .keep(Table::bag(self.steps[*step].schema.clone(), rows));
                let index = fetched.index_on(cols);
                for i in 0..probing.len() {
                    let t = probing.tuple(i);
                    if skip(t) {
                        continue;
                    }
                    for row in index.get_values(key.iter().map(|&r| at(t, r))) {
                        hits.push(&[row], i as u32);
                    }
                }
            }
            Probe::Filter { input, pred, cols } => {
                hits = self.probe(input, run, probing, key, nulls_match)?;
                hits.retain(|t| pred.holds_with(&|i| at(t, cols[i])));
            }
            Probe::Join {
                first,
                first_keys,
                then,
                join_key,
                post,
                left_first,
                residual,
                cols,
            } => {
                let first_key: Vec<ColRef> = first_keys.iter().map(|&j| key[j]).collect();
                let found = self.probe(first, run, probing, &first_key, nulls_match)?;
                let next = self.probe(then, run, &found, join_key, false)?;
                hits = Tuples::new(found.width + next.width);
                for j in 0..next.len() {
                    let (v, f) = (next.tuple(j), next.tags[j] as usize);
                    let (u, i) = (found.tuple(f), found.tags[f]);
                    let p = probing.tuple(i as usize);
                    let matches = post.iter().all(|&(k, r)| {
                        let (want, got) = (at(p, key[k]), at(v, r));
                        want == got && (nulls_match || !want.is_null())
                    });
                    if !matches {
                        continue;
                    }
                    let (l, r) = if *left_first { (u, v) } else { (v, u) };
                    hits.push_joined(l, r, i, residual.as_ref(), cols);
                }
            }
        }
        Ok(hits)
    }

    /// The pre-state rows of a step whose fetched columns equal one of
    /// `keys` (distinct rows, one value per column). `NULL` matches `NULL`.
    fn fetch_rows(&self, f: &Fetch, run: &Run<'_>, keys: &[Row]) -> Result<Vec<Row>> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        Ok(match f {
            Fetch::Core { step, probe } => {
                let StepKind::Core(core) = &self.steps[*step].kind else {
                    unreachable!("a core fetch names a core step");
                };
                let mut probing = Tuples::new(1);
                for k in keys {
                    probing.push(&[k], ());
                }
                let key: Vec<ColRef> = (0..keys[0].arity()).map(|c| (0, c)).collect();
                let hits = self.probe(probe, run, &probing, &key, true)?;
                let rows: Vec<Row> = (0..hits.len())
                    .map(|j| core.gather(hits.tuple(j)))
                    .collect();
                run.ctx.count(rows.len());
                rows
            }
            Fetch::Group { step, input } => {
                let StepKind::Group {
                    input: in_step,
                    group_idx,
                    aggs,
                    agg_inputs,
                    ..
                } = &self.steps[*step].kind
                else {
                    unreachable!("a group fetch names a group step");
                };
                let in_schema = self.steps[*in_step].schema.clone();
                let pre_in = Table::bag(in_schema, self.fetch_rows(input, run, keys)?);
                let out_schema = self.steps[*step].schema.clone();
                let out = gpivot_exec::group::hash_group_by(
                    &pre_in, group_idx, aggs, agg_inputs, out_schema,
                )?;
                run.ctx.count(out.len());
                out.rows().to_vec()
            }
            Fetch::Pivot { step, input } => {
                let StepKind::Pivot {
                    input: in_step,
                    spec,
                    ..
                } = &self.steps[*step].kind
                else {
                    unreachable!("a pivot fetch names a pivot step");
                };
                let in_schema = self.steps[*in_step].schema.clone();
                let pre_in = Table::bag(in_schema, self.fetch_rows(input, run, keys)?);
                let out_schema = self.steps[*step].schema.clone();
                let out = gpivot_exec::pivot::gpivot(&pre_in, spec, out_schema)?;
                run.ctx.count(out.len());
                out.rows().to_vec()
            }
            Fetch::Full { step, cols } => {
                let full = run.ctx.eval_pre(&self.steps[*step].plan)?;
                let keys: RowSet<&Row> = keys.iter().collect();
                (full.iter())
                    .filter(|r| keys.contains(&r.project(cols)))
                    .cloned()
                    .collect()
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpivot_algebra::{AggSpec, Expr, PivotSpec, Plan};
    use gpivot_storage::{row, DataType, Schema};
    use std::collections::HashSet;
    use std::sync::Arc;

    /// `plan`'s delta program, compiled and run: `Δ(plan)` consolidated.
    fn propagate(plan: &Plan, ctx: &PropagationCtx<'_>) -> Delta {
        consolidate(signed(plan, ctx))
    }

    /// [`propagate`] before consolidation.
    fn signed(plan: &Plan, ctx: &PropagationCtx<'_>) -> SignedRows {
        let program = DeltaProgram::compile(plan, ctx.catalog).unwrap();
        program.propagate(ctx).unwrap()
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let items = Arc::new(
            Schema::from_pairs_keyed(
                &[
                    ("id", DataType::Int),
                    ("attr", DataType::Str),
                    ("val", DataType::Int),
                ],
                &["id", "attr"],
            )
            .unwrap(),
        );
        c.register(
            "items",
            Table::from_rows(
                items,
                vec![
                    row![1, "a", 10],
                    row![1, "b", 20],
                    row![2, "a", 30],
                    row![3, "b", 40],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        let names = Arc::new(
            Schema::from_pairs_keyed(&[("nid", DataType::Int), ("name", DataType::Str)], &["nid"])
                .unwrap(),
        );
        c.register(
            "names",
            Table::from_rows(
                names,
                vec![row![1, "one"], row![2, "two"], row![3, "three"]],
            )
            .unwrap(),
        )
        .unwrap();
        c
    }

    /// Incremental-vs-recompute oracle: Δ(plan) must equal
    /// plan(post) − plan(pre).
    fn assert_delta_correct(plan: &Plan, catalog: &Catalog, deltas: &SourceDeltas) {
        let ctx = PropagationCtx::new(catalog, deltas);
        let got = propagate(plan, &ctx);
        let pre = ctx.eval_pre(plan).unwrap();
        let post = ctx.eval_post(plan).unwrap();
        let mut expected = Delta::from_deletes(pre.rows().iter().cloned());
        expected.merge(&Delta::from_inserts(post.rows().iter().cloned()));
        assert_eq!(got, expected, "delta mismatch for plan:\n{plan}");
    }

    fn mixed_deltas() -> SourceDeltas {
        let mut d = SourceDeltas::new();
        d.delete_rows("items", vec![row![1, "b", 20]]);
        d.insert_rows("items", vec![row![1, "b", 99], row![4, "a", 7]]);
        d
    }

    #[test]
    fn select_propagation() {
        let plan = Plan::scan("items").select(Expr::col("val").gt(Expr::lit(15)));
        assert_delta_correct(&plan, &catalog(), &mixed_deltas());
    }

    #[test]
    fn project_propagation() {
        let plan = Plan::scan("items").project_cols(&["id", "val"]);
        assert_delta_correct(&plan, &catalog(), &mixed_deltas());
    }

    #[test]
    fn join_propagation_left_delta() {
        let plan = Plan::scan("items").join(Plan::scan("names"), vec![("id", "nid")]);
        assert_delta_correct(&plan, &catalog(), &mixed_deltas());
    }

    #[test]
    fn join_propagation_both_sides() {
        let plan = Plan::scan("items").join(Plan::scan("names"), vec![("id", "nid")]);
        let mut d = mixed_deltas();
        d.delete_rows("names", vec![row![2, "two"]]);
        d.insert_rows("names", vec![row![4, "four"]]);
        assert_delta_correct(&plan, &catalog(), &d);
    }

    // --- The three-term join identity `ΔA ⋈ B ⊎ A ⋈ ΔB ⊎ ΔA ⋈ ΔB` ---

    fn items_join_names() -> Plan {
        Plan::scan("items").join(Plan::scan("names"), vec![("id", "nid")])
    }

    #[test]
    fn join_both_sides_inserted_on_the_same_key() {
        // A new name *and* its items in one batch: every output row comes
        // from the ΔA ⋈ ΔB term alone.
        let mut d = SourceDeltas::new();
        d.insert_rows("names", vec![row![4, "four"]]);
        d.insert_rows("items", vec![row![4, "a", 7], row![4, "b", 8]]);
        assert_delta_correct(&items_join_names(), &catalog(), &d);
    }

    #[test]
    fn join_both_sides_deleted_on_the_same_key() {
        // ΔA ⋈ B_pre and A_pre ⋈ ΔB each retract the joined rows once;
        // ΔA ⋈ ΔB (−1 · −1) adds them back once.
        let mut d = SourceDeltas::new();
        d.delete_rows("names", vec![row![1, "one"]]);
        d.delete_rows("items", vec![row![1, "a", 10], row![1, "b", 20]]);
        assert_delta_correct(&items_join_names(), &catalog(), &d);
    }

    #[test]
    fn join_both_sides_updated_on_the_same_key() {
        // Rename id 2 while re-valuing its item.
        let mut d = SourceDeltas::new();
        d.update_row("names", row![2, "two"], row![2, "deux"]);
        d.update_row("items", row![2, "a", 30], row![2, "a", 31]);
        assert_delta_correct(&items_join_names(), &catalog(), &d);
    }

    #[test]
    fn self_join_needs_the_delta_delta_term() {
        // items ⋈ items on id: both sides carry the same delta, so a new
        // id's pairs exist only in ΔA ⋈ ΔB.
        let renamed = Plan::scan("items").project(vec![
            (Expr::col("id"), "id2".into()),
            (Expr::col("attr"), "attr2".into()),
            (Expr::col("val"), "val2".into()),
        ]);
        let plan = Plan::scan("items").join(renamed, vec![("id", "id2")]);
        let mut d = mixed_deltas();
        d.insert_rows("items", vec![row![4, "b", 8]]);
        assert_delta_correct(&plan, &catalog(), &d);
    }

    /// Un-keyed bags with duplicate rows on both join sides.
    fn bag_catalog() -> Catalog {
        let mut c = Catalog::new();
        let l =
            Arc::new(Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]).unwrap());
        c.register(
            "l",
            Table::bag(l, vec![row![1, 10], row![1, 10], row![2, 20]]),
        )
        .unwrap();
        let r =
            Arc::new(Schema::from_pairs(&[("k2", DataType::Int), ("w", DataType::Int)]).unwrap());
        c.register(
            "r",
            Table::bag(r, vec![row![1, 5], row![1, 5], row![1, 6], row![2, 30]]),
        )
        .unwrap();
        c
    }

    #[test]
    fn join_bag_multiplicities_above_one_on_both_sides() {
        let plan = Plan::scan("l").join(Plan::scan("r"), vec![("k", "k2")]);
        let mut d = SourceDeltas::new();
        // +2 copies of an existing row, −1 of a duplicated one, +2 fresh.
        d.insert_rows("l", vec![row![1, 10], row![1, 10], row![3, 1]]);
        d.delete_rows("r", vec![row![1, 5]]);
        d.insert_rows("r", vec![row![3, 9], row![3, 9]]);
        assert_delta_correct(&plan, &bag_catalog(), &d);
    }

    #[test]
    fn join_residual_rejects_some_delta_delta_pairs() {
        let plan = Plan::Join {
            left: Box::new(Plan::scan("l")),
            right: Box::new(Plan::scan("r")),
            kind: JoinKind::Inner,
            on: vec![("k".into(), "k2".into())],
            residual: Some(Expr::col("v").gt(Expr::col("w"))),
        };
        let mut d = SourceDeltas::new();
        // Of the four new (l, r) pairs on key 3 only (8,7) and (8,2) pass.
        d.insert_rows("l", vec![row![3, 8], row![3, 1]]);
        d.insert_rows("r", vec![row![3, 7], row![3, 2]]);
        d.delete_rows("l", vec![row![2, 20]]);
        assert_delta_correct(&plan, &bag_catalog(), &d);
    }

    #[test]
    fn group_by_propagation() {
        let plan = Plan::scan("items").group_by(
            &["attr"],
            vec![AggSpec::sum("val", "total"), AggSpec::count_star("cnt")],
        );
        assert_delta_correct(&plan, &catalog(), &mixed_deltas());
    }

    #[test]
    fn group_by_group_death_and_birth() {
        let plan = Plan::scan("items").group_by(&["attr"], vec![AggSpec::count_star("cnt")]);
        let mut d = SourceDeltas::new();
        // Kill group "b" entirely, create group "z".
        d.delete_rows("items", vec![row![1, "b", 20], row![3, "b", 40]]);
        d.insert_rows("items", vec![row![5, "z", 1]]);
        assert_delta_correct(&plan, &catalog(), &d);
    }

    #[test]
    fn intermediate_pivot_propagation() {
        let plan = Plan::scan("items")
            .gpivot(PivotSpec::simple(
                "attr",
                "val",
                vec![Value::str("a"), Value::str("b")],
            ))
            .join(Plan::scan("names"), vec![("id", "nid")]);
        assert_delta_correct(&plan, &catalog(), &mixed_deltas());
    }

    #[test]
    fn pivot_key_disappearance() {
        let plan = Plan::scan("items").gpivot(PivotSpec::simple(
            "attr",
            "val",
            vec![Value::str("a"), Value::str("b")],
        ));
        let mut d = SourceDeltas::new();
        // Remove every row of id=1: the pivot row must disappear.
        d.delete_rows("items", vec![row![1, "a", 10], row![1, "b", 20]]);
        assert_delta_correct(&plan, &catalog(), &d);
    }

    #[test]
    fn unpivot_propagation_is_linear() {
        let pivot = PivotSpec::simple("attr", "val", vec![Value::str("a"), Value::str("b")]);
        let unspec = gpivot_algebra::plan::UnpivotSpec::reversing(&pivot);
        let plan = Plan::scan("items").gpivot(pivot).gunpivot(unspec);
        assert_delta_correct(&plan, &catalog(), &mixed_deltas());
    }

    /// Deleting a name and one of its items in one batch: the join's
    /// signed rows retract that item's joined row twice and restore it
    /// once, so an operator that builds a post state must add the weights
    /// up first.
    fn deleted_on_both_join_sides() -> SourceDeltas {
        let mut d = SourceDeltas::new();
        d.delete_rows("names", vec![row![1, "one"]]);
        d.delete_rows("items", vec![row![1, "a", 10]]);
        d
    }

    #[test]
    fn group_by_over_a_two_sided_join_consolidates_its_input() {
        let plan = items_join_names().group_by(
            &["name"],
            vec![AggSpec::sum("val", "total"), AggSpec::count_star("cnt")],
        );
        let deltas = deleted_on_both_join_sides();
        let cat = catalog();
        let ctx = PropagationCtx::new(&cat, &deltas);
        let join = signed(&items_join_names(), &ctx);
        assert!(join.len() > consolidate(join.clone()).distinct_len());
        assert_delta_correct(&plan, &cat, &deltas);
    }

    #[test]
    fn pivot_over_a_two_sided_join_consolidates_its_input() {
        let plan = items_join_names().gpivot(PivotSpec::simple(
            "attr",
            "val",
            vec![Value::str("a"), Value::str("b")],
        ));
        assert_delta_correct(&plan, &catalog(), &deleted_on_both_join_sides());
    }

    #[test]
    fn union_propagation() {
        let plan = Plan::scan("items").union(Plan::scan("items"));
        assert_delta_correct(&plan, &catalog(), &mixed_deltas());
    }

    #[test]
    fn untouched_tree_yields_empty_delta() {
        let plan = Plan::scan("names");
        let deltas = mixed_deltas(); // only touches `items`
        let cat = catalog();
        let ctx = PropagationCtx::new(&cat, &deltas);
        assert!(propagate(&plan, &ctx).is_empty());
    }

    #[test]
    fn post_state_table_applies_signed_delta() {
        let c = catalog();
        let pre = c.table("items").unwrap();
        let mut d = Delta::new();
        d.add(row![1, "a", 10], -1);
        d.add(row![9, "z", 9], 1);
        let post = post_state_table(pre, d.iter().map(|(r, &w)| (r, w)));
        assert_eq!(post.len(), 4);
        assert!(post.rows().contains(&row![9, "z", 9]));
        assert!(!post.rows().contains(&row![1, "a", 10]));
    }

    // --- The pipeline's shapes, each against recompute ---

    /// [`catalog`] plus `kinds` (kind, weight) keyed on kind, joined to
    /// `items.attr`: a three-way join.
    fn three_table_catalog() -> Catalog {
        let mut c = catalog();
        let kinds = Arc::new(
            Schema::from_pairs_keyed(
                &[("kind", DataType::Str), ("weight", DataType::Int)],
                &["kind"],
            )
            .unwrap(),
        );
        let rows = vec![row!["a", 1], row!["b", 25], row!["c", 3]];
        c.register("kinds", Table::from_rows(kinds, rows).unwrap())
            .unwrap();
        c
    }

    fn three_way() -> Plan {
        items_join_names().join(Plan::scan("kinds"), vec![("attr", "kind")])
    }

    #[test]
    fn deltas_on_all_three_tables_of_a_three_way_join() {
        // The `bulk` shape: every table changes in one batch, on keys
        // that meet, so every term of both joins contributes.
        let mut d = mixed_deltas();
        d.insert_rows("items", vec![row![4, "c", 9], row![2, "b", 5]]);
        d.update_row("names", row![1, "one"], row![1, "uno"]);
        d.insert_rows("names", vec![row![4, "four"]]);
        d.update_row("kinds", row!["b", 25], row!["b", 26]);
        d.delete_rows("kinds", vec![row!["a", 1]]);
        assert_delta_correct(&three_way(), &three_table_catalog(), &d);
    }

    #[test]
    fn a_residual_reads_leaves_on_both_sides_of_a_join() {
        let Plan::Join {
            left, right, on, ..
        } = three_way()
        else {
            unreachable!()
        };
        let plan = Plan::Join {
            left,
            right,
            kind: JoinKind::Inner,
            on,
            residual: Some(Expr::col("val").gt(Expr::col("weight"))),
        };
        let mut d = mixed_deltas();
        d.update_row("kinds", row!["b", 25], row!["b", 50]);
        d.insert_rows("names", vec![row![4, "four"]]);
        assert_delta_correct(&plan, &three_table_catalog(), &d);
    }

    #[test]
    fn a_self_join_reads_one_delta_through_both_leaves() {
        // Both leaves scan `items`, one behind a σ: each delta row meets
        // the pre state on the other side and the other leaf's copy of
        // the same delta.
        let renamed = Plan::scan("items")
            .select(Expr::col("val").gt(Expr::lit(8)))
            .project(vec![
                (Expr::col("id"), "id2".into()),
                (Expr::col("val"), "val2".into()),
            ]);
        let plan = Plan::scan("items").join(renamed, vec![("id", "id2")]);
        let mut d = mixed_deltas();
        d.insert_rows("items", vec![row![4, "b", 8], row![4, "c", 100]]);
        d.delete_rows("items", vec![row![2, "a", 30]]);
        assert_delta_correct(&plan, &catalog(), &d);
    }

    #[test]
    fn a_null_join_key_joins_nothing_but_a_null_group_is_a_group() {
        let mut c = bag_catalog();
        let null_key = |v: i64| Row::new(vec![Value::Null, Value::Int(v)]);
        c.apply_delta("l", &Delta::from_inserts(vec![null_key(7)]))
            .unwrap();
        c.apply_delta("r", &Delta::from_inserts(vec![null_key(8)]))
            .unwrap();
        let mut d = SourceDeltas::new();
        d.insert_rows("l", vec![null_key(70), row![1, 11]]);
        d.insert_rows("r", vec![null_key(80)]);
        d.delete_rows("l", vec![null_key(7)]);
        let join = Plan::scan("l").join(Plan::scan("r"), vec![("k", "k2")]);
        assert_delta_correct(&join, &c, &d);
        // The NULL group's pre-state rows are fetched by a NULL key.
        let grouped = Plan::scan("l").group_by(&["k"], vec![AggSpec::sum("v", "s")]);
        assert_delta_correct(&grouped, &c, &d);
        assert_delta_correct(
            &join.group_by(&["k"], vec![AggSpec::count_star("n")]),
            &c,
            &d,
        );
    }

    #[test]
    fn a_select_on_one_join_leaf() {
        let plan = Plan::scan("items")
            .select(Expr::col("val").gt(Expr::lit(15)))
            .join(Plan::scan("names"), vec![("id", "nid")]);
        let mut d = mixed_deltas();
        d.update_row("names", row![1, "one"], row![1, "uno"]);
        d.insert_rows("names", vec![row![4, "four"]]);
        assert_delta_correct(&plan, &catalog(), &d);
    }

    #[test]
    fn a_computed_projection_below_a_join() {
        // The computed column is the join key: the π is a materialized
        // leaf, fetched by full evaluation when probed on it.
        let shifted = Plan::scan("items").project(vec![
            (Expr::col("id").add(Expr::lit(1)), "next".into()),
            (Expr::col("val"), "val".into()),
        ]);
        let plan = shifted.join(Plan::scan("names"), vec![("next", "nid")]);
        let mut d = mixed_deltas();
        d.update_row("names", row![2, "two"], row![2, "deux"]);
        d.insert_rows("names", vec![row![5, "five"]]);
        assert_delta_correct(&plan, &catalog(), &d);
    }

    #[test]
    fn a_pivot_leaf_under_a_join_with_deltas_on_both_sides() {
        // The `StuckPivot` shape: the pivot is a step feeding the join.
        let plan = Plan::scan("items")
            .gpivot(PivotSpec::simple(
                "attr",
                "val",
                vec![Value::str("a"), Value::str("b")],
            ))
            .join(Plan::scan("names"), vec![("id", "nid")]);
        let mut d = mixed_deltas();
        d.update_row("names", row![2, "two"], row![2, "deux"]);
        d.delete_rows("names", vec![row![3, "three"]]);
        d.insert_rows("names", vec![row![4, "four"]]);
        assert_delta_correct(&plan, &catalog(), &d);
    }

    #[test]
    fn restrictions_cross_joins_groups_and_pivots() {
        // Restricted on a column of each join side at once, on group
        // keys, on pivot keys and on a computed column (evaluated in full).
        let c = three_table_catalog();
        let no_deltas = SourceDeltas::new();
        let ctx = PropagationCtx::new(&c, &no_deltas);
        let pivot = Plan::scan("items").gpivot(PivotSpec::simple(
            "attr",
            "val",
            vec![Value::str("a"), Value::str("b")],
        ));
        let cases: [(Plan, &[&str]); 4] = [
            (three_way(), &["name", "weight"]),
            (
                three_way().group_by(&["name"], vec![AggSpec::count_star("n")]),
                &["name"],
            ),
            (
                pivot.join(Plan::scan("names"), vec![("id", "nid")]),
                &["id"],
            ),
            (
                Plan::scan("items").project(vec![(Expr::col("val").add(Expr::lit(1)), "v".into())]),
                &["v"],
            ),
        ];
        for (plan, cols) in cases {
            let cols: Vec<String> = cols.iter().map(|c| c.to_string()).collect();
            let full = ctx.eval_pre(&plan).unwrap();
            let idx = positions(full.schema(), &cols).unwrap();
            let keys: HashSet<Row> = full.iter().step_by(2).map(|r| r.project(&idx)).collect();
            let program = DeltaProgram::compile(&plan, &c).unwrap();
            let got = (program.fetch(&program.restrict(&cols).unwrap(), &ctx, &keys)).unwrap();
            let want = full.iter().filter(|r| keys.contains(&r.project(&idx)));
            let want = Table::bag(full.schema().clone(), want.cloned().collect());
            assert!(
                got.bag_eq(&want),
                "{cols:?} on\n{plan}\ngot:\n{got}\nwant:\n{want}"
            );
        }
    }

    #[test]
    fn a_program_declares_its_probes_and_refuses_a_swapped_schema() {
        let c = three_table_catalog();
        let program = DeltaProgram::compile(&three_way(), &c).unwrap();
        // ΔA ⋈ B probes names and kinds by key; Δnames and Δkinds probe
        // items by `id` and by `attr` (its key is (id, attr)).
        let paths = program.access_path_names();
        let path = |t: &str, cols: &[&str]| {
            let cols: Vec<String> = cols.iter().map(|c| c.to_string()).collect();
            paths.contains(&(t.to_string(), cols))
        };
        assert!(
            path("names", &["nid"]) && path("kinds", &["kind"]),
            "{paths:?}"
        );
        assert!(
            path("items", &["id"]) && path("items", &["attr"]),
            "{paths:?}"
        );
        program.declare(&c).unwrap();
        let built = c.table("items").unwrap().indexed_columns();
        assert_eq!(built, vec![vec![0], vec![1]]);

        let mut swapped = c.clone();
        let wider = Arc::new(
            Schema::from_pairs_keyed(
                &[
                    ("nid", DataType::Int),
                    ("extra", DataType::Int),
                    ("name", DataType::Str),
                ],
                &["nid"],
            )
            .unwrap(),
        );
        swapped.replace("names", Table::new(wider));
        let d = mixed_deltas();
        let ctx = PropagationCtx::new(&swapped, &d);
        assert!(matches!(
            program.propagate(&ctx),
            Err(CoreError::SchemaChanged { table }) if table == "names"
        ));
    }
}
