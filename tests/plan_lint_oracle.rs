//! Cross-validation of the static plan analyzer against the runtime:
//!
//! * analyzer says *maintenance-safe* (no `Error` diagnostics) ⇒ the view
//!   registers, and incremental refresh equals recomputation on random
//!   insert/delete workloads;
//! * analyzer says a pullup rule is blocked (GP011/GP013/GP014/GP015) ⇒
//!   the corresponding rewrite rule really rejects, with the same code;
//! * analyzer says *unsafe* (GP001) ⇒ registration is refused with
//!   [`CoreError::PlanLint`] carrying that code.
//!
//! Plus deterministic anchors: the paper's three TPC-H evaluation views
//! all register lint-clean.

use gpivot::core::rewrite::pullup;
use gpivot::prelude::*;
use proptest::prelude::{any, prop, prop_assert, prop_oneof, proptest, Just, ProptestConfig};
use proptest::strategy::Strategy as _;
use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::BTreeSet;
use std::sync::Arc;

const ATTRS: [&str; 2] = ["a", "b"];

/// The view shapes the generator chooses between, each with a known
/// analyzer verdict to cross-check at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// `GPivot(facts)` — clean.
    PurePivot,
    /// Select on a K column above the pivot — clean, pullup applies.
    SelectOnK,
    /// Null-intolerant select on a cell — clean (Fig. 29 machinery).
    SelectCellStrict,
    /// Null-tolerant select on a cell — GP011, both select rules reject.
    SelectCellNullTolerant,
    /// Join on K — clean, pullup applies.
    JoinOnK,
    /// Join condition on a pivoted cell — GP013, pullup-join rejects.
    JoinOnCell,
    /// Left outer join above the pivot — GP014, pullup-join rejects.
    OuterJoin,
    /// COUNT over a cell — GP015, Eq. 8 pullup rejects.
    GroupByCount,
    /// SUM covering every cell — clean, Eq. 8 pullup applies.
    GroupBySum,
    /// Pivot over a keyless table — GP001, registration refused.
    KeylessPivot,
}

const SHAPES: [Shape; 10] = [
    Shape::PurePivot,
    Shape::SelectOnK,
    Shape::SelectCellStrict,
    Shape::SelectCellNullTolerant,
    Shape::JoinOnK,
    Shape::JoinOnCell,
    Shape::OuterJoin,
    Shape::GroupByCount,
    Shape::GroupBySum,
    Shape::KeylessPivot,
];

#[derive(Debug, Clone)]
struct Scenario {
    shape_pick: usize,
    facts: Vec<(i64, usize, Option<i64>)>,
    dims: Vec<(i64, i64)>,
    deletes: Vec<usize>,
    inserts: Vec<(i64, usize, Option<i64>)>,
    /// `dims` changes on the d_ids the facts delta touches: `(which
    /// touched d_id, kind, new grp)`, see [`build_deltas`].
    dim_changes: Vec<(prop::sample::Index, u8, i64)>,
}

fn arb_scenario() -> impl proptest::strategy::Strategy<Value = Scenario> {
    let facts = prop::collection::btree_set((0i64..10, 0usize..ATTRS.len()), 0..24)
        .prop_flat_map(|keys| {
            let keys: Vec<_> = keys.into_iter().collect();
            let n = keys.len();
            (
                Just(keys),
                prop::collection::vec(prop_oneof![Just(None), (1i64..100).prop_map(Some)], n),
            )
        })
        .prop_map(|(keys, vals)| {
            keys.into_iter()
                .zip(vals)
                .map(|((id, attr), val)| (id, attr, val))
                .collect::<Vec<_>>()
        });
    (
        0usize..SHAPES.len(),
        facts,
        prop::collection::vec(0i64..4, 10),
        (
            prop::collection::vec(any::<prop::sample::Index>(), 0..5),
            prop::collection::vec((any::<prop::sample::Index>(), 0u8..2, 0i64..4), 0..4),
        ),
        prop::collection::btree_set((0i64..12, 0usize..ATTRS.len()), 0..6),
        prop::collection::vec(prop_oneof![Just(None), (1i64..100).prop_map(Some)], 6),
    )
        .prop_map(
            |(shape_pick, facts, grps, (delete_picks, dim_changes), insert_keys, insert_vals)| {
                let dims: Vec<(i64, i64)> = (0i64..10).zip(grps).collect();
                let mut deletes: BTreeSet<usize> = BTreeSet::new();
                if !facts.is_empty() {
                    for p in delete_picks {
                        deletes.insert(p.index(facts.len()));
                    }
                }
                let surviving: BTreeSet<(i64, usize)> = facts
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !deletes.contains(i))
                    .map(|(_, &(id, attr, _))| (id, attr))
                    .collect();
                let inserts: Vec<(i64, usize, Option<i64>)> = insert_keys
                    .into_iter()
                    .zip(insert_vals)
                    .filter(|((id, attr), _)| !surviving.contains(&(*id, *attr)))
                    .map(|((id, attr), val)| (id, attr, val))
                    .collect();
                Scenario {
                    shape_pick,
                    facts,
                    dims,
                    deletes: deletes.into_iter().collect(),
                    inserts,
                    dim_changes,
                }
            },
        )
}

fn fact_row(&(id, attr, val): &(i64, usize, Option<i64>)) -> Row {
    Row::new(vec![
        Value::Int(id),
        Value::str(ATTRS[attr]),
        val.map(Value::Int).unwrap_or(Value::Null),
    ])
}

/// `facts(id, attr, val)` keyed, `log` with the same columns but *no*
/// key, and `dims(d_id, grp)`.
fn build_catalog(s: &Scenario) -> Catalog {
    let cols = [
        ("id", DataType::Int),
        ("attr", DataType::Str),
        ("val", DataType::Int),
    ];
    let keyed = Schema::from_pairs_keyed(&cols, &["id", "attr"]).unwrap();
    let rows: Vec<Row> = s.facts.iter().map(fact_row).collect();
    let facts = Table::from_rows(Arc::new(keyed), rows.clone()).unwrap();
    let unkeyed = Schema::from_pairs(&cols).unwrap();
    let log = Table::from_rows(Arc::new(unkeyed), rows).unwrap();
    let dim_schema = Schema::from_pairs_keyed(
        &[("d_id", DataType::Int), ("grp", DataType::Int)],
        &["d_id"],
    )
    .unwrap();
    let dims = Table::from_rows(
        Arc::new(dim_schema),
        s.dims
            .iter()
            .map(|&(id, grp)| Row::new(vec![Value::Int(id), Value::Int(grp)]))
            .collect(),
    )
    .unwrap();
    let mut c = Catalog::new();
    c.register("facts", facts).unwrap();
    c.register("log", log).unwrap();
    c.register("dims", dims).unwrap();
    c
}

/// The facts delta, plus a two-sided part: `dims` rows deleted, inserted
/// and re-grouped on the d_ids the facts delta touches — as a join key
/// (`id`, for `JoinOnK`) or as a pivoted cell value (`val`, for
/// `JoinOnCell`) — so joins see ΔA ⋈ ΔB terms and pairs that cancel. The
/// first inserted fact's dims row is always deleted (or, if it has none,
/// inserted) in the same step.
fn build_deltas(s: &Scenario) -> SourceDeltas {
    let mut d = SourceDeltas::new();
    let deleted: Vec<_> = s.deletes.iter().map(|&i| s.facts[i]).collect();
    d.delete_rows("facts", deleted.iter().map(fact_row).collect());
    d.insert_rows("facts", s.inserts.iter().map(fact_row).collect());

    let touched: Vec<i64> = deleted
        .iter()
        .chain(&s.inserts)
        .flat_map(|&(id, _, val)| std::iter::once(id).chain(val))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let first = s.inserts.first().map(|&(id, _, _)| (id, 0, 0));
    let picked = s
        .dim_changes
        .iter()
        .filter(|_| !touched.is_empty())
        .map(|(pick, kind, grp)| (touched[pick.index(touched.len())], *kind, *grp));
    let dim_row = |id: i64, grp: i64| Row::new(vec![Value::Int(id), Value::Int(grp)]);
    let mut dims: BTreeMap<i64, i64> = s.dims.iter().copied().collect();
    let (mut gone, mut fresh) = (Vec::new(), Vec::new());
    // Kind 0 deletes a present row, kind 1 re-groups it; either inserts
    // an absent one.
    for (id, kind, grp) in first.into_iter().chain(picked) {
        match (kind, dims.get(&id).copied()) {
            (0, Some(old)) => {
                gone.push(dim_row(id, old));
                dims.remove(&id);
            }
            (_, Some(old)) if old != grp => {
                gone.push(dim_row(id, old));
                fresh.push(dim_row(id, grp));
                dims.insert(id, grp);
            }
            (_, Some(_)) => {}
            (_, None) => {
                fresh.push(dim_row(id, grp));
                dims.insert(id, grp);
            }
        }
    }
    d.delete_rows("dims", gone);
    d.insert_rows("dims", fresh);
    d
}

fn spec() -> PivotSpec {
    PivotSpec::simple(
        "attr",
        "val",
        ATTRS.iter().map(|a| Value::str(*a)).collect(),
    )
}

fn cell(attr: &str) -> String {
    gpivot::algebra::encode_pivot_col(&[Value::str(attr)], "val")
}

fn build_view(shape: Shape) -> Plan {
    let pivoted = Plan::scan("facts").gpivot(spec());
    match shape {
        Shape::PurePivot => pivoted,
        Shape::SelectOnK => pivoted.select(Expr::col("id").gt(Expr::lit(3))),
        Shape::SelectCellStrict => pivoted.select(Expr::col(cell("a")).gt(Expr::lit(25))),
        Shape::SelectCellNullTolerant => pivoted.select(Expr::col(cell("a")).is_null()),
        Shape::JoinOnK => pivoted.join(Plan::scan("dims"), vec![("id", "d_id")]),
        Shape::JoinOnCell => pivoted.join(Plan::scan("dims"), vec![(cell("a").as_str(), "d_id")]),
        Shape::OuterJoin => Plan::Join {
            left: Box::new(pivoted),
            right: Box::new(Plan::scan("dims")),
            kind: gpivot::algebra::JoinKind::LeftOuter,
            on: vec![("id".into(), "d_id".into())],
            residual: None,
        },
        Shape::GroupByCount => pivoted.group_by(&["id"], vec![AggSpec::count(cell("a"), "n")]),
        Shape::GroupBySum => pivoted.group_by(
            &["id"],
            vec![AggSpec::sum(cell("a"), "sa"), AggSpec::sum(cell("b"), "sb")],
        ),
        Shape::KeylessPivot => Plan::scan("log").gpivot(spec()),
    }
}

/// The analyzer code each unsafe-ish shape must report, if any.
fn expected_code(shape: Shape) -> Option<DiagCode> {
    match shape {
        Shape::SelectCellNullTolerant => Some(DiagCode::Gp011SelectOverCells),
        Shape::JoinOnCell => Some(DiagCode::Gp013JoinOnCells),
        Shape::OuterJoin => Some(DiagCode::Gp014OuterJoin),
        Shape::GroupByCount => Some(DiagCode::Gp015AggNotBottomRespecting),
        Shape::KeylessPivot => Some(DiagCode::Gp001PivotInputNoKey),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 40,
        ..ProptestConfig::default()
    })]

    /// The three-way agreement: analyzer verdict vs registration vs
    /// refresh-equals-recompute, on random data and workloads.
    #[test]
    fn analyzer_verdicts_match_runtime(s in arb_scenario()) {
        let shape = SHAPES[s.shape_pick];
        let plan = build_view(shape);
        let catalog = build_catalog(&s);
        let report = analyze(&plan, &catalog);

        // 1. The generator's expectation holds statically.
        if let Some(code) = expected_code(shape) {
            prop_assert!(
                report.codes().contains(&code),
                "{shape:?}: analyzer missed {code}: {report:?}"
            );
        }

        // 2. Analyzer "rule blocked" verdicts are confirmed by the rules.
        match shape {
            Shape::SelectCellNullTolerant => {
                for (rule_name, res) in [
                    ("pullup-select", pullup::pullup_through_select(&plan, &catalog)),
                    (
                        "select-selfjoin",
                        pullup::push_select_below_pivot_selfjoin(&plan, &catalog),
                    ),
                ] {
                    match res {
                        Err(CoreError::RuleNotApplicable { code, .. }) => prop_assert!(
                            code == DiagCode::Gp011SelectOverCells,
                            "{rule_name}: wrong code {code}"
                        ),
                        other => panic!("{rule_name}: expected rejection, got {other:?}"),
                    }
                }
            }
            Shape::JoinOnCell | Shape::OuterJoin => {
                let want = expected_code(shape).unwrap();
                match pullup::pullup_through_join(&plan, &catalog) {
                    Err(CoreError::RuleNotApplicable { code, .. }) => prop_assert!(
                        code == want,
                        "pullup-join: wrong code {code}, want {want}"
                    ),
                    other => panic!("pullup-join: expected rejection, got {other:?}"),
                }
            }
            Shape::GroupByCount => {
                match pullup::pullup_through_group_by(&plan, &catalog) {
                    Err(CoreError::RuleNotApplicable { code, .. }) => prop_assert!(
                        code == DiagCode::Gp015AggNotBottomRespecting,
                        "pullup-groupby: wrong code {code}"
                    ),
                    other => panic!("pullup-groupby: expected rejection, got {other:?}"),
                }
            }
            Shape::GroupBySum => {
                // Clean verdict ⇒ Eq. 8 pullup actually applies.
                prop_assert!(
                    pullup::pullup_through_group_by(&plan, &catalog).is_ok(),
                    "clean GroupBySum must pull up"
                );
            }
            _ => {}
        }

        // 3. Registration gates on exactly the analyzer's error verdict,
        //    and safe views converge to recomputation after refresh.
        let mut vm = ViewManager::new(catalog);
        let registered = vm.register_view("v", plan.clone());
        if report.maintenance_safe() {
            let strategy = registered
                .unwrap_or_else(|e| panic!("{shape:?}: safe view refused: {e}"));
            vm.refresh(&build_deltas(&s))
                .unwrap_or_else(|e| panic!("{shape:?}/{strategy}: refresh failed: {e}"));
            prop_assert!(
                vm.verify_view("v").unwrap(),
                "{shape:?}/{strategy} diverged from recomputation\nscenario: {s:?}"
            );
        } else {
            match registered {
                Err(CoreError::PlanLint { diagnostics, .. }) => {
                    let codes: Vec<DiagCode> = diagnostics.iter().map(|d| d.code).collect();
                    prop_assert!(
                        codes.contains(&expected_code(shape).unwrap()),
                        "{shape:?}: PlanLint missing expected code: {codes:?}"
                    );
                }
                other => panic!("{shape:?}: expected PlanLint, got {other:?}"),
            }
            // Opting out of the lint surfaces the underlying algebra
            // error instead — the gate never *hides* failures.
            let opted = vm.register_view_with(
                "v2",
                plan.clone(),
                ViewOptions::new().skip_plan_lint(),
            );
            prop_assert!(
                !matches!(opted, Err(CoreError::PlanLint { .. })),
                "skip_plan_lint must bypass the lint gate"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// plan → install: planning reads, installing writes, stale plans are refused
//
// The epoch commit rests on three properties of the refresh halves, checked
// here for every strategy that compiles for each of the ten shapes:
// `plan_refresh` leaves the view exactly as it was (same row allocation,
// same rows); `install` of the planned patch makes the view bag-equal to
// recomputing its definition on the post-delta tables; and a plan that has
// been overtaken by any manager mutation is refused at commit with the
// view and every base table untouched — after which planning again
// commits.
// ---------------------------------------------------------------------------

fn rows_of(vm: &ViewManager) -> Vec<Arc<Vec<Row>>> {
    let mut held = vec![vm.view("v").unwrap().table().shared_rows()];
    for t in vm.catalog().table_names() {
        held.push(vm.catalog().table(t).unwrap().shared_rows());
    }
    held
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 40,
        ..ProptestConfig::default()
    })]

    #[test]
    fn planning_reads_installing_writes_and_stale_plans_are_refused(
        s in arb_scenario(),
        mutation in 0usize..4,
    ) {
        let shape = SHAPES[s.shape_pick];
        let plan = build_view(shape);
        let deltas = build_deltas(&s);
        let exec = Executor::new();
        for strategy in Strategy::ALL {
            let mut vm = ViewManager::new(build_catalog(&s));
            if vm.register_view_with("v", plan.clone(), strategy).is_err() {
                continue; // refused by the lint, or the shape does not fit
            }
            // "Recompute" is the maintained (normalized) form on the
            // post-delta tables — what `verify_view` compares against.
            let mut post = vm.catalog().clone();
            for t in deltas.tables() {
                post.apply_delta(t, deltas.delta(t).unwrap()).unwrap();
            }
            let maintained = vm.view("v").unwrap().normalized().plan.clone();
            let expected = exec.run(&maintained, &post).unwrap();

            // Planning is read-only.
            let mut view = vm.view("v").unwrap().clone();
            let before = view.table().shared_rows();
            let planned = view.plan_refresh(vm.catalog(), &deltas, &exec);
            prop_assert!(Arc::ptr_eq(&before, &view.table().shared_rows()));
            prop_assert!(view.table().rows() == vm.view("v").unwrap().table().rows());
            drop(before);
            let Ok((patch, _)) = planned else {
                // Not delta-propagatable (outer join under a forced
                // incremental strategy): nothing was planned, nothing moved.
                continue;
            };

            // Installing the patch is the refresh.
            view.install(patch);
            prop_assert!(
                view.table().bag_eq(&expected),
                "{shape:?}/{strategy}: install diverged from recomputation\nscenario: {s:?}"
            );

            // A plan overtaken by a manager mutation is refused whole.
            let stale = vm.plan_epoch(&deltas).unwrap();
            match mutation {
                0 => drop(vm.catalog_mut()),
                1 => {
                    let dropped = vm.drop_view("v").unwrap();
                    vm.install_view(dropped);
                }
                2 => {
                    let empty = SourceDeltas::new();
                    vm.commit_epoch(vm.plan_commit(&empty).unwrap()).unwrap();
                }
                _ => {
                    vm.register_view_with("other", Plan::scan("dims"), Strategy::Recompute)
                        .unwrap();
                }
            }
            let held = rows_of(&vm);
            prop_assert!(vm.commit_epoch(stale).is_err(), "{shape:?}/{strategy}: stale plan accepted");
            for (then, now) in held.iter().zip(rows_of(&vm)) {
                prop_assert!(Arc::ptr_eq(then, &now), "a refused plan wrote something");
            }
            prop_assert!(vm.verify_view("v").unwrap());
            drop(held);

            // Planning again against the current state commits.
            let fresh = vm.plan_epoch(&deltas).unwrap();
            vm.commit_epoch(fresh).unwrap();
            prop_assert!(vm.view("v").unwrap().table().bag_eq(&expected));
        }
    }
}

// ---------------------------------------------------------------------------
// Reads: `query()` ≡ project(table), in table order ≡ the definition
//
// A view whose output reshapes its table is read from projected rows kept
// beside the table and patched by the same row ops. After every step of a
// random delta schedule — each strategy that compiles (so the whole-table
// and bag patches too), the ten shapes plus two whose output drops the
// pivot's key column or reorders and renames, steps that empty the view's
// first row (a swap-remove into slot 0) or its last, steps nobody reads
// after (so both the patched and the rebuilt-on-read paths run) — a read is
// row for row the table's rows projected, and bag-equal to executing the
// definition; and of two copies of a manager, refreshing either leaves the
// other's reads as they were.
// ---------------------------------------------------------------------------

/// `(kind, delete picks, insert keys, insert values, read after?)`.
type Step = (
    u8,
    Vec<prop::sample::Index>,
    BTreeSet<(i64, usize)>,
    Vec<Option<i64>>,
    bool,
);

fn arb_steps() -> impl proptest::strategy::Strategy<Value = Vec<Step>> {
    let val = || prop_oneof![Just(None), (1i64..100).prop_map(Some)];
    prop::collection::vec(
        (
            0u8..4,
            prop::collection::vec(any::<prop::sample::Index>(), 0..4),
            prop::collection::btree_set((0i64..12, 0usize..ATTRS.len()), 0..5),
            prop::collection::vec(val(), 5),
            any::<bool>(),
        ),
        1..6,
    )
}

fn read_shapes() -> Vec<Plan> {
    let as_is = |col: String| (Expr::col(col.clone()), col);
    let pivoted = || Plan::scan("facts").gpivot(spec());
    let mut plans: Vec<Plan> = SHAPES.iter().map(|&s| build_view(s)).collect();
    plans.push(pivoted().project(vec![as_is(cell("b")), as_is(cell("a"))]));
    plans.push(pivoted().project(vec![
        as_is(cell("b")),
        (Expr::col("id"), "ident".to_string()),
    ]));
    plans
}

/// `view`'s table rows pushed through its output map, in table order.
fn projected(view: &gpivot::core::MaterializedView) -> Vec<Row> {
    let schema = view.table().schema();
    let idx: Vec<usize> = view
        .normalized()
        .output
        .iter()
        .map(|(from, _)| schema.index_of(from).unwrap())
        .collect();
    view.table().iter().map(|r| r.project(&idx)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        ..ProptestConfig::default()
    })]

    #[test]
    fn reads_are_the_projected_table_after_every_step(
        s in arb_scenario(),
        pick in 0usize..12,
        steps in arb_steps(),
    ) {
        let plan = read_shapes()[pick].clone();
        let exec = Executor::new();
        for strategy in Strategy::ALL {
            let mut vm = ViewManager::new(build_catalog(&s));
            if vm.register_view_with("v", plan.clone(), strategy).is_err() {
                continue; // refused by the lint, or the shape does not fit
            }
            let mut facts: BTreeMap<(i64, usize), Option<i64>> =
                s.facts.iter().map(|&(id, attr, val)| ((id, attr), val)).collect();
            for (kind, delete_picks, insert_keys, insert_vals, read) in &steps {
                // Resolve the step against the facts as they are now.
                let table = vm.view("v").unwrap().table();
                let id_col = table.schema().index_of("id").ok();
                let target = match kind {
                    1 => table.rows().first(),
                    2 => table.rows().last(),
                    _ => None,
                };
                let deletes: BTreeSet<(i64, usize)> = match (target, id_col) {
                    (Some(row), Some(c)) => facts
                        .keys()
                        .filter(|(id, _)| Value::Int(*id) == row[c])
                        .copied()
                        .collect(),
                    _ if facts.is_empty() => BTreeSet::new(),
                    _ => delete_picks
                        .iter()
                        .map(|p| *facts.keys().nth(p.index(facts.len())).unwrap())
                        .collect(),
                };
                let mut deltas = SourceDeltas::new();
                let gone = deletes.iter().map(|k| fact_row(&(k.0, k.1, facts[k]))).collect();
                deltas.delete_rows("facts", gone);
                facts.retain(|k, _| !deletes.contains(k));
                let mut fresh = Vec::new();
                for (&(id, attr), &val) in insert_keys.iter().zip(insert_vals) {
                    if let Entry::Vacant(slot) = facts.entry((id, attr)) {
                        slot.insert(val);
                        fresh.push(fact_row(&(id, attr, val)));
                    }
                }
                deltas.insert_rows("facts", fresh);

                // Refresh one copy; the other's reads stay what they were.
                let mut fork = vm.clone();
                let before = read.then(|| vm.query_view("v").unwrap().rows().to_vec());
                if vm.refresh(&deltas).is_err() {
                    break; // not delta-propagatable under this strategy
                }
                if let Some(before) = before {
                    prop_assert!(fork.query_view("v").unwrap().rows() == &before[..]);
                    let now = vm.query_view("v").unwrap();
                    prop_assert!(
                        now.rows() == &projected(vm.view("v").unwrap())[..],
                        "plan {pick}/{strategy}: read is not the projected table\nscenario: {s:?}\nsteps: {steps:?}"
                    );
                    let expected = exec.run(&plan, vm.catalog()).unwrap();
                    prop_assert!(
                        now.bag_eq(&expected),
                        "plan {pick}/{strategy}: read diverged from the definition\nscenario: {s:?}\nsteps: {steps:?}"
                    );
                    fork.refresh(&deltas).unwrap();
                    prop_assert!(fork.query_view("v").unwrap().bag_eq(&expected));
                    prop_assert!(
                        vm.query_view("v").unwrap().rows() == now.rows(),
                        "refreshing a copy changed the original's read"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// `eval_pre_matching` ≡ filter ∘ `eval_pre`
//
// The key-restricted pre-state evaluator every delta rule fetches rows with
// must be bag-equal to evaluating in full and filtering — whichever arm it
// takes. Checked over the ten shapes above (restricting on every output
// column, so both the push-down arms and the fallback arm run: a K column
// pushes down to an index probe, a pivoted cell or an aggregate does not,
// and a column pair spanning both join sides cannot), a projection with a
// renamed pass-through and a computed column, and direct scans — over data
// whose values exercise `Value`'s equality: NULL, NaN, −0.0 vs Int 0, 2⁵³
// as Int and Float, and a bag with duplicate rows.
// ---------------------------------------------------------------------------

const P53: i64 = 1 << 53;

/// The values restricted columns and key sets are drawn from.
fn awkward_values() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Float(f64::NAN),
        Value::Float(-0.0),
        Value::Int(0),
        Value::Int(P53),
        Value::Float(P53 as f64),
        Value::Int(P53 + 1),
        Value::Int(3),
        Value::Float(3.0),
        Value::Int(40),
    ]
}

/// `facts` / `log` / `dims` as in [`build_catalog`], but `val` holds the
/// awkward values and `log` carries every row twice.
fn awkward_catalog(cells: &[(i64, usize, usize)]) -> Catalog {
    let pool = awkward_values();
    let cols = [
        ("id", DataType::Int),
        ("attr", DataType::Str),
        ("val", DataType::Any),
    ];
    let rows: Vec<Row> = cells
        .iter()
        .map(|&(id, attr, v)| {
            Row::new(vec![
                Value::Int(id),
                Value::str(ATTRS[attr]),
                pool[v % pool.len()].clone(),
            ])
        })
        .collect();
    let keyed = Arc::new(Schema::from_pairs_keyed(&cols, &["id", "attr"]).unwrap());
    let unkeyed = Arc::new(Schema::from_pairs(&cols).unwrap());
    let dim_schema = Arc::new(
        Schema::from_pairs_keyed(
            &[("d_id", DataType::Int), ("grp", DataType::Int)],
            &["d_id"],
        )
        .unwrap(),
    );
    let mut c = Catalog::new();
    c.register("facts", Table::from_rows(keyed, rows.clone()).unwrap())
        .unwrap();
    let doubled = rows.iter().chain(&rows).cloned().collect();
    c.register("log", Table::bag(unkeyed, doubled)).unwrap();
    c.register(
        "dims",
        Table::from_rows(
            dim_schema,
            (0i64..6)
                .map(|i| Row::new(vec![Value::Int(i), Value::Int(i % 3)]))
                .collect(),
        )
        .unwrap(),
    )
    .unwrap();
    c
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn restricted_evaluation_equals_filtered_full_evaluation(
        cells in prop::collection::btree_set((0i64..8, 0usize..ATTRS.len()), 1..14),
        vals in prop::collection::vec(0usize..10, 14),
        picks in prop::collection::vec(any::<bool>(), 24),
    ) {
        use gpivot::core::maintain::PropagationCtx;
        use std::collections::HashSet;

        let cells: Vec<(i64, usize, usize)> = cells
            .into_iter()
            .zip(&vals)
            .map(|((id, attr), &v)| (id, attr, v))
            .collect();
        let catalog = awkward_catalog(&cells);
        let deltas = SourceDeltas::new();
        let ctx = PropagationCtx::new(&catalog, &deltas);

        let mut plans: Vec<Plan> = SHAPES.iter().map(|&s| build_view(s)).collect();
        plans.push(Plan::scan("log"));
        plans.push(Plan::scan("facts").select(Expr::col("val").gt(Expr::lit(2))));
        plans.push(Plan::scan("log").project(vec![
            (Expr::col("id"), "key".into()),
            (Expr::col("val"), "val".into()),
            (Expr::col("val").add(Expr::lit(1)), "bumped".into()),
        ]));

        for plan in &plans {
            // The keyless pivot does not evaluate at all (that is GP001);
            // restricting it must fail the same way, not return rows.
            let Ok(full) = ctx.eval_pre(plan) else {
                prop_assert!(ctx
                    .eval_pre_matching(plan, &["id".to_string()], &HashSet::new())
                    .is_err());
                continue;
            };
            let names: Vec<String> = full
                .schema()
                .column_names()
                .iter()
                .map(|c| c.to_string())
                .collect();
            // Every single column, plus the first/last pair (for the join
            // shapes: one column from each side).
            let mut col_sets: Vec<Vec<String>> = names.iter().map(|n| vec![n.clone()]).collect();
            col_sets.push(vec![names[0].clone(), names[names.len() - 1].clone()]);

            for cols in &col_sets {
                let idx: Vec<usize> = cols
                    .iter()
                    .map(|c| full.schema().index_of(c).unwrap())
                    .collect();
                // Keys: a random subset of those present, plus every
                // awkward value (some alias present keys, some are absent).
                let mut keys: HashSet<Row> = full
                    .iter()
                    .map(|r| r.project(&idx))
                    .zip(picks.iter().cycle())
                    .filter(|(_, &keep)| keep)
                    .map(|(k, _)| k)
                    .collect();
                for v in awkward_values().into_iter().chain([Value::Int(999)]) {
                    let mut key = vec![v; cols.len()];
                    key[0] = Value::Int(2);
                    keys.insert(Row::new(key.clone()));
                    key[0] = key[cols.len() - 1].clone();
                    keys.insert(Row::new(key));
                }

                let want = Table::bag(
                    full.schema().clone(),
                    full.iter()
                        .filter(|r| keys.contains(&r.project(&idx)))
                        .cloned()
                        .collect(),
                );
                let got = ctx.eval_pre_matching(plan, cols, &keys).unwrap();
                prop_assert!(
                    got.bag_eq(&want),
                    "restricting on {cols:?} diverged\nplan:\n{plan}\ngot:\n{got}\nwant:\n{want}"
                );
                prop_assert!(got.schema() == want.schema(), "schema changed for {cols:?}");
            }
        }
    }
}

/// The paper's three evaluation views register lint-clean: no errors, no
/// warnings recorded on the installed views.
#[test]
fn tpch_views_register_lint_clean() {
    let catalog = gpivot::tpch::generate(&gpivot::tpch::TpchConfig::scale(0.01));
    let mut vm = ViewManager::new(catalog);
    for (name, plan) in [
        ("view1", gpivot::tpch::view1()),
        (
            "view2",
            gpivot::tpch::view2(gpivot::tpch::views::VIEW2_THRESHOLD),
        ),
        ("view3", gpivot::tpch::view3()),
    ] {
        let report = analyze(&plan, vm.catalog());
        assert!(report.is_clean(), "{name} not lint-clean: {report:?}");
        vm.register_view(name, plan)
            .unwrap_or_else(|e| panic!("{name}: register failed: {e}"));
        assert!(
            vm.view(name).unwrap().lint_warnings().is_empty(),
            "{name} carries lint warnings"
        );
    }
}
