//! Property-based tests for the storage substrate: the signed-multiset
//! delta algebra, value ordering/hashing laws, and keyed-table invariants.

use gpivot_storage::{Catalog, DataType, Delta, Row, Schema, Table, Value};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-50i64..50).prop_map(Value::Int),
        (-50i64..50).prop_map(|i| Value::Float(i as f64 / 2.0)),
        "[a-c]{0,3}".prop_map(Value::str),
        (-100i32..100).prop_map(Value::Date),
    ]
}

fn arb_row() -> impl Strategy<Value = Row> {
    prop::collection::vec(arb_value(), 1..4).prop_map(Row::new)
}

fn arb_delta() -> impl Strategy<Value = Delta> {
    prop::collection::vec((arb_row(), -3i64..=3), 0..12)
        .prop_map(|entries| entries.into_iter().collect())
}

proptest! {
    #[test]
    fn value_total_order_is_antisymmetric_and_consistent(a in arb_value(), b in arb_value()) {
        use std::cmp::Ordering;
        let ab = a.total_cmp(&b);
        let ba = b.total_cmp(&a);
        prop_assert_eq!(ab, ba.reverse());
        prop_assert_eq!(ab == Ordering::Equal, a == b);
    }

    #[test]
    fn value_order_is_transitive(a in arb_value(), b in arb_value(), c in arb_value()) {
        let mut v = [a, b, c];
        v.sort();
        prop_assert!(v[0] <= v[1] && v[1] <= v[2] && v[0] <= v[2]);
    }

    #[test]
    fn equal_values_hash_equal(a in arb_value(), b in arb_value()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        if a == b {
            let mut ha = DefaultHasher::new();
            let mut hb = DefaultHasher::new();
            a.hash(&mut ha);
            b.hash(&mut hb);
            prop_assert_eq!(ha.finish(), hb.finish());
        }
    }

    #[test]
    fn sql_eq_none_iff_null_operand(a in arb_value(), b in arb_value()) {
        prop_assert_eq!(a.sql_eq(&b).is_none(), a.is_null() || b.is_null());
    }

    #[test]
    fn delta_merge_is_commutative(a in arb_delta(), b in arb_delta()) {
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn delta_merge_is_associative(a in arb_delta(), b in arb_delta(), c in arb_delta()) {
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn delta_negation_is_inverse(a in arb_delta()) {
        let mut x = a.clone();
        x.merge(&a.negated());
        prop_assert!(x.is_empty());
    }

    #[test]
    fn delta_split_roundtrips(a in arb_delta()) {
        prop_assert_eq!(Delta::from_split(&a.split()), a);
    }

    #[test]
    fn delta_total_multiplicity_additive_under_disjoint_sign(a in arb_delta()) {
        let s = a.split();
        prop_assert_eq!(
            a.total_multiplicity() as usize,
            s.inserts.len() + s.deletes.len()
        );
    }

    #[test]
    fn map_rows_preserves_total_weight_sum(a in arb_delta()) {
        // Projection may merge rows but the signed weight sum is invariant.
        let total: i64 = a.iter().map(|(_, &w)| w).sum();
        let mapped = a.map_rows(|r| r.project(&[0]));
        let mapped_total: i64 = mapped.iter().map(|(_, &w)| w).sum();
        prop_assert_eq!(total, mapped_total);
    }
}

/// Fixed-arity rows (chunks require uniform arity, as tables enforce).
fn arb_fixed_row(arity: usize) -> impl Strategy<Value = Row> {
    prop::collection::vec(arb_value(), arity).prop_map(Row::new)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// The columnar image is lossless: chunking a table and materializing
    /// it back reproduces the rows exactly — ⊥ slots through the validity
    /// bitmap, strings through the dictionary, and numerics bit-for-bit.
    #[test]
    fn chunked_table_roundtrips_rows_exactly(
        rows in prop::collection::vec(arb_fixed_row(3), 0..40)
    ) {
        let schema = Arc::new(
            Schema::from_pairs(&[
                ("a", DataType::Any),
                ("b", DataType::Any),
                ("c", DataType::Any),
            ])
            .unwrap(),
        );
        let t = Table::bag(schema, rows.clone());
        let c = t.chunk();
        prop_assert_eq!(c.to_rows(), rows.clone());
        for (i, r) in rows.iter().enumerate() {
            prop_assert_eq!(&c.row(i), r);
            for j in 0..3 {
                prop_assert_eq!(c.value(i, j), r.values()[j].clone());
                prop_assert_eq!(c.column(j).is_null(i), r.values()[j].is_null());
            }
        }
    }

    /// Columnar key hashing feeds hashers the same bytes as row-at-a-time
    /// `Value::hash`, for arbitrary value mixes and key column subsets.
    #[test]
    fn chunked_key_hash_matches_row_hash(
        rows in prop::collection::vec(arb_fixed_row(3), 1..30),
        k1 in 0usize..3,
        k2 in 0usize..3,
    ) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let schema = Arc::new(
            Schema::from_pairs(&[
                ("a", DataType::Any),
                ("b", DataType::Any),
                ("c", DataType::Any),
            ])
            .unwrap(),
        );
        let key_idx = [k1, k2];
        let t = Table::bag(schema, rows.clone());
        let got = t.chunk().hash_rows(&key_idx, DefaultHasher::new);
        for (i, r) in rows.iter().enumerate() {
            let mut h = DefaultHasher::new();
            for &k in &key_idx {
                r.values()[k].hash(&mut h);
            }
            prop_assert_eq!(got[i], h.finish());
        }
    }
}

/// Numerics clustered around the 2⁵³ f64-representability boundary (and the
/// 2⁶³ i64 range edge), where the pre-fix `as f64` comparison collapsed
/// distinct values. Every order law must hold here exactly as it does for
/// small values.
fn arb_boundary_numeric() -> impl Strategy<Value = Value> {
    const P53: i64 = 1 << 53;
    prop_oneof![
        (-4i64..=4).prop_map(|d| Value::Int(P53 + d)),
        (-4i64..=4).prop_map(|d| Value::Int(-P53 + d)),
        (-4i64..=4).prop_map(|d| Value::Float((P53 + d) as f64)),
        (-4i64..=4).prop_map(|d| Value::Float((-P53 + d) as f64)),
        (-4i64..=4).prop_map(|d| Value::Int(i64::MAX - d.unsigned_abs() as i64)),
        (-4i64..=4).prop_map(|d| Value::Int(i64::MIN + d.unsigned_abs() as i64)),
        Just(Value::Float(9_223_372_036_854_775_808.0)),
        Just(Value::Float(-9_223_372_036_854_775_808.0)),
        Just(Value::Float(f64::INFINITY)),
        Just(Value::Float(f64::NEG_INFINITY)),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(-0.0)),
        (-4i64..=4).prop_map(|d| Value::Float(d as f64 + 0.5)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn boundary_order_is_antisymmetric(a in arb_boundary_numeric(), b in arb_boundary_numeric()) {
        use std::cmp::Ordering;
        prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        prop_assert_eq!(a.total_cmp(&b) == Ordering::Equal, a == b);
    }

    #[test]
    fn boundary_order_is_transitive(
        a in arb_boundary_numeric(),
        b in arb_boundary_numeric(),
        c in arb_boundary_numeric(),
    ) {
        let mut v = [a, b, c];
        v.sort();
        prop_assert!(v[0] <= v[1] && v[1] <= v[2] && v[0] <= v[2]);
    }

    #[test]
    fn boundary_equality_implies_hash_equality(
        a in arb_boundary_numeric(),
        b in arb_boundary_numeric(),
    ) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        if a == b {
            let mut ha = DefaultHasher::new();
            let mut hb = DefaultHasher::new();
            a.hash(&mut ha);
            b.hash(&mut hb);
            prop_assert_eq!(ha.finish(), hb.finish());
        }
    }

    #[test]
    fn boundary_distinct_ints_never_collapse_through_floats(d in 1i64..=4) {
        // The exact regression: Int(2^53 + d) must stay strictly above
        // Float(2^53) for every positive d, not equal to it.
        const P53: i64 = 1 << 53;
        prop_assert!(Value::Int(P53 + d) > Value::Float(P53 as f64));
        prop_assert!(Value::Int(-P53 - d) < Value::Float(-P53 as f64));
    }
}

// Model-based test: a keyed table behaves like a HashMap from key to row.
proptest! {
    #[test]
    fn keyed_table_matches_hashmap_model(
        ops in prop::collection::vec((0u8..4, 0i64..12, "[a-z]{1,2}"), 0..60)
    ) {
        let schema = Arc::new(
            Schema::from_pairs_keyed(
                &[("id", DataType::Int), ("payload", DataType::Str)],
                &["id"],
            )
            .unwrap(),
        );
        let mut table = Table::new(schema);
        let mut model: HashMap<i64, String> = HashMap::new();

        for (op, id, payload) in ops {
            let key = Row::new(vec![Value::Int(id)]);
            let row = Row::new(vec![Value::Int(id), Value::str(&payload)]);
            match op {
                0 => {
                    // insert: fails iff key present
                    let expect_err = model.contains_key(&id);
                    let result = table.insert(row);
                    prop_assert_eq!(result.is_err(), expect_err);
                    if !expect_err {
                        model.insert(id, payload);
                    }
                }
                1 => {
                    // upsert
                    table.upsert(row).unwrap();
                    model.insert(id, payload);
                }
                2 => {
                    // delete by key
                    let removed = table.delete_by_key(&key);
                    prop_assert_eq!(removed.is_some(), model.remove(&id).is_some());
                }
                _ => {
                    // lookup
                    let got = table.get_by_key(&key).map(|r| r[1].clone());
                    let want = model.get(&id).map(Value::str);
                    prop_assert_eq!(got, want);
                }
            }
        }
        prop_assert_eq!(table.len(), model.len());
        for (id, payload) in &model {
            let key = Row::new(vec![Value::Int(*id)]);
            let row = table.get_by_key(&key).unwrap();
            prop_assert_eq!(row[1].clone(), Value::str(payload));
        }
    }

    #[test]
    fn apply_delta_then_inverse_restores_table(
        base_ids in prop::collection::btree_set(0i64..15, 0..10),
        delete_picks in prop::collection::vec(any::<prop::sample::Index>(), 0..5),
        insert_ids in prop::collection::btree_set(20i64..35, 0..5),
    ) {
        let schema = Arc::new(
            Schema::from_pairs_keyed(&[("id", DataType::Int)], &["id"]).unwrap(),
        );
        let rows: Vec<Row> = base_ids.iter().map(|&i| Row::new(vec![Value::Int(i)])).collect();
        let mut table = Table::from_rows(schema, rows.clone()).unwrap();
        let original = table.clone();

        let mut delta = Delta::new();
        if !rows.is_empty() {
            for pick in &delete_picks {
                delta.add(rows[pick.index(rows.len())].clone(), -1);
            }
        }
        for &i in &insert_ids {
            delta.add(Row::new(vec![Value::Int(i)]), 1);
        }
        // Deduplicate repeated deletes of the same row (a row exists once).
        let delta: Delta = delta
            .iter()
            .map(|(r, &w)| (r.clone(), w.clamp(-1, 1)))
            .collect();

        table.apply_delta(&delta).unwrap();
        table.apply_delta(&delta.negated()).unwrap();
        prop_assert!(table.bag_eq(&original));
    }
}

/// Every probe of `index_on(cols)` must return exactly the rows a scan
/// would: checked for each key present in the table, plus keys that are
/// absent, against both a filter over `rows()` and an index rebuilt from
/// scratch on a fresh bag of the same rows.
fn assert_index_matches_scan(table: &Table, cols: &[usize], absent: &[Row]) {
    let rebuilt = Table::bag(table.schema().clone(), table.rows().to_vec());
    let mut keys: Vec<Row> = table.iter().map(|r| r.project(cols)).collect();
    keys.extend(absent.iter().cloned());
    keys.sort();
    keys.dedup();
    for key in &keys {
        let mut want: Vec<Row> = table
            .iter()
            .filter(|r| r.project(cols) == *key)
            .cloned()
            .collect();
        want.sort();
        let mut got: Vec<Row> = table.index_on(cols).get(key).cloned().collect();
        got.sort();
        assert_eq!(got, want, "index on {cols:?} diverged for key {key:?}");
        let mut fresh: Vec<Row> = rebuilt.index_on(cols).get(key).cloned().collect();
        fresh.sort();
        assert_eq!(fresh, want, "rebuilt index on {cols:?} wrong for {key:?}");
    }
}

/// Index key values with awkward equality: NULL, NaN, ±0.0, Int/Float
/// aliases, 2⁵³ (where `as f64` stops being exact).
fn arb_index_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (0i64..4).prop_map(Value::Int),
        (0i64..4).prop_map(|i| Value::Float(i as f64)),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(-0.0)),
        Just(Value::Int(1 << 53)),
        Just(Value::Float((1u64 << 53) as f64)),
        Just(Value::Int((1 << 53) + 1)),
        "[ab]".prop_map(Value::str),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Secondary indexes are maintained, not rebuilt: after any sequence
    /// of keyed mutations each index built so far still answers every
    /// probe like a scan, and mutating a clone never disturbs the table it
    /// was cloned from (or the indexes its readers hold).
    #[test]
    fn secondary_indexes_follow_every_mutation(
        ops in prop::collection::vec(
            (0u8..6, 0i64..10, arb_index_value(), 0i64..3),
            1..50,
        ),
    ) {
        let schema = Arc::new(
            Schema::from_pairs_keyed(
                &[("id", DataType::Int), ("g", DataType::Any), ("h", DataType::Int)],
                &["id"],
            )
            .unwrap(),
        );
        let col_sets: [&[usize]; 4] = [&[1], &[1, 2], &[2], &[0]];
        let absent = [
            Row::new(vec![Value::Int(99)]),
            Row::new(vec![Value::Int(99), Value::Int(0)]),
            Row::new(vec![Value::Null, Value::Null]),
        ];
        let mut table = Table::new(schema);
        for i in 0..6 {
            table
                .insert(Row::new(vec![Value::Int(i), Value::Int(i % 2), Value::Int(i % 3)]))
                .unwrap();
        }
        // First probe builds (8 buckets; ten ids force a regrow);
        // everything after must maintain.
        for cols in col_sets {
            let _ = table.index_on(cols);
        }
        for (op, id, g, h) in ops {
            let key = Row::new(vec![Value::Int(id)]);
            let row = Row::new(vec![Value::Int(id), g, Value::Int(h)]);
            match op {
                0 => {
                    let _ = table.insert(row);
                }
                1 => {
                    table.delete_by_key(&key);
                }
                2 => {
                    table.update_by_key(&key, row);
                }
                3 => {
                    // A mixed delta: replace the row under `id` (if any)
                    // and add a fresh key.
                    let mut d = Delta::new();
                    if let Some(old) = table.get_by_key(&key) {
                        d.add(old.clone(), -1);
                    }
                    d.add(row, 1);
                    table.apply_delta(&d).unwrap();
                }
                4 => {
                    // Copy-on-write: mutate a clone, then check the
                    // original — rows and indexes — is exactly as it was.
                    let before = table.rows().to_vec();
                    let mut staged = table.clone();
                    staged.upsert(row).unwrap();
                    staged.delete_by_key(&Row::new(vec![Value::Int((id + 1) % 10)]));
                    prop_assert_eq!(table.rows(), &before[..]);
                    for cols in col_sets {
                        assert_index_matches_scan(&table, cols, &absent);
                        assert_index_matches_scan(&staged, cols, &absent);
                    }
                    // ...and carry on from the detached copy.
                    table = staged;
                }
                _ => {
                    table.upsert(row).unwrap();
                }
            }
            for cols in col_sets {
                assert_index_matches_scan(&table, cols, &absent);
            }
        }
    }

    /// Un-keyed bags (duplicates allowed) maintain their indexes through
    /// `insert` and the scan-based `delete_row`.
    #[test]
    fn bag_indexes_follow_duplicates_and_row_deletes(
        ops in prop::collection::vec((any::<bool>(), arb_index_value(), 0i64..3), 1..40),
    ) {
        let schema = Arc::new(
            Schema::from_pairs(&[("g", DataType::Any), ("h", DataType::Int)]).unwrap(),
        );
        let mut table = Table::new(schema);
        let _ = table.index_on(&[0]);
        let _ = table.index_on(&[1, 0]);
        let absent = [Row::new(vec![Value::Int(99)])];
        for (insert, g, h) in ops {
            let row = Row::new(vec![g, Value::Int(h)]);
            if insert {
                table.insert(row.clone()).unwrap();
                table.insert(row).unwrap();
            } else {
                table.delete_row(&row);
            }
            assert_index_matches_scan(&table, &[0], &absent);
            assert_index_matches_scan(&table, &[1, 0], &[]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// `check_delta` answers exactly "would `apply_delta` succeed?" — over
    /// keyed tables and bags, and deltas with duplicate keys, a key deleted
    /// and re-inserted, deletes that match a key but not its row,
    /// multiplicities other than ±1 and rows of the wrong arity, it is `Ok`
    /// iff applying to a copy is, with the same error. After a passed check
    /// the in-place apply leaves the live table bag-equal to the staged
    /// copy with every index still answering like a scan; after a failed
    /// one nothing has moved.
    #[test]
    fn check_delta_predicts_apply_and_in_place_matches_staged(
        keyed in any::<bool>(),
        entries in prop::collection::vec(
            (0u8..8, 0i64..9, arb_index_value(), 0i64..3, -2i64..=2),
            0..10,
        ),
    ) {
        let fields = [("id", DataType::Int), ("g", DataType::Any), ("h", DataType::Int)];
        let schema = if keyed {
            Schema::from_pairs_keyed(&fields, &["id"]).unwrap()
        } else {
            Schema::from_pairs(&fields).unwrap()
        };
        let mut table = Table::new(Arc::new(schema));
        for i in 0..6 {
            table
                .insert(Row::new(vec![Value::Int(i), Value::Int(i % 2), Value::Int(i % 3)]))
                .unwrap();
        }
        let col_sets: [&[usize]; 3] = [&[1], &[2, 1], &[0]];
        for cols in col_sets {
            let _ = table.index_on(cols);
        }
        let mut delta = Delta::new();
        for (shape, id, g, h, w) in entries {
            let stored = table.iter().find(|r| r[0] == Value::Int(id)).cloned();
            let row = Row::new(vec![Value::Int(id), g.clone(), Value::Int(h)]);
            match (shape, stored) {
                // Replace the row under `id`: delete it, insert another.
                (0, Some(old)) => {
                    delta.add(old, -1);
                    delta.add(row, 1);
                }
                // The stored row itself: an exact delete, or a re-insert.
                (1, Some(old)) => delta.add(old, w),
                // Too narrow for the schema.
                (2, _) => delta.add(Row::new(vec![Value::Int(id), g]), w),
                // Anything: fresh keys, taken keys, deletes of rows that
                // are not there or share only their key with a stored row.
                _ => delta.add(row, w),
            }
        }

        let mut catalog = Catalog::new();
        catalog.register("t", table).unwrap();
        let before = catalog.table("t").unwrap().rows().to_vec();

        let checked = catalog.check_delta("t", &delta);
        let mut copy = catalog.table("t").unwrap().clone();
        let applied_to_copy = copy.apply_delta(&delta).map_err(|e| e.in_table("t"));
        prop_assert_eq!(&checked, &applied_to_copy);
        let staged = catalog.stage_delta("t", &delta);
        prop_assert_eq!(&checked, &staged.as_ref().map(|_| ()).map_err(Clone::clone));

        if let Ok(staged) = staged {
            catalog.table_mut("t").unwrap().apply_delta(&delta).unwrap();
            let live = catalog.table("t").unwrap();
            prop_assert!(live.bag_eq(&staged));
            prop_assert!(live.bag_eq(&copy));
            let absent = [Row::new(vec![Value::Int(99)]), Row::new(vec![Value::Int(0), Value::Int(99)])];
            for cols in col_sets {
                assert_index_matches_scan(live, cols, &absent);
            }
        }
        if checked.is_err() {
            prop_assert_eq!(catalog.table("t").unwrap().rows(), &before[..]);
        }
    }
}

#[test]
fn catalog_round_trip() {
    let schema = Arc::new(Schema::from_pairs(&[("x", DataType::Int)]).unwrap());
    let mut c = Catalog::new();
    c.register("t", Table::bag(schema, vec![])).unwrap();
    assert!(c.contains("t"));
    assert_eq!(c.deregister("t").unwrap().len(), 0);
}

// ---------------------------------------------------------------------------
// Delta coalescing laws — the algebra the serve-layer ingestion queue relies
// on when folding producer batches together (see gpivot-serve).
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn delta_absorb_equals_merge(a in arb_delta(), b in arb_delta()) {
        let mut merged = a.clone();
        merged.merge(&b);
        let mut absorbed = a.clone();
        absorbed.absorb(b);
        prop_assert_eq!(absorbed, merged);
    }

    #[test]
    fn insert_delete_pairs_cancel_to_empty(rows in prop::collection::vec(arb_row(), 0..12)) {
        let mut d = Delta::from_inserts(rows.clone());
        d.merge(&Delta::from_deletes(rows));
        prop_assert!(d.is_empty());
        prop_assert_eq!(d.total_multiplicity(), 0);
    }

    #[test]
    fn absorbing_the_negation_cancels(d in arb_delta()) {
        let mut sum = d.clone();
        sum.absorb(d.negated());
        prop_assert!(sum.is_empty());
    }

    #[test]
    fn delta_split_counts_are_exact(d in arb_delta()) {
        let split = d.split();
        prop_assert_eq!(Delta::from_split(&split), d.clone());
        // Insert/delete counts match the positive/negative multiplicities.
        let pos: i64 = d.iter().map(|(_, &w)| w.max(0)).sum();
        let neg: i64 = d.iter().map(|(_, &w)| (-w).max(0)).sum();
        prop_assert_eq!(split.inserts.len() as i64, pos);
        prop_assert_eq!(split.deletes.len() as i64, neg);
    }

    #[test]
    fn empty_is_the_merge_identity(d in arb_delta()) {
        let mut left = Delta::new();
        left.merge(&d);
        prop_assert_eq!(&left, &d);
        let mut right = d.clone();
        right.merge(&Delta::new());
        prop_assert_eq!(&right, &d);
        let mut absorbed = Delta::new();
        absorbed.absorb(d.clone());
        prop_assert_eq!(&absorbed, &d);
    }
}
