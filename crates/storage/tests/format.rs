//! Golden on-disk fixtures: the checkpoint and WAL byte formats are pinned.
//!
//! `golden/checkpoint.hex` and `golden/wal.hex` hold the bytes the encoder
//! produced for [`golden_checkpoint`] and [`golden_records`] when the
//! formats were fixed. A change to either encoder must reproduce them byte
//! for byte, and the readers must decode them back to the same values.
//! Every delta below has at most one distinct row: `Delta` iterates a hash
//! map, so a multi-row delta has no single byte image.

use gpivot_storage::checkpoint::{checkpoint_path, load_latest, write_checkpoint};
use gpivot_storage::wal::{encode_frame, read_wal};
use gpivot_storage::{
    CheckpointData, DataType, Delta, FaultInjector, Row, Schema, Table, Value, ViewSnapshot,
    WalRecord,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const CHECKPOINT_HEX: &str = include_str!("golden/checkpoint.hex");
const WAL_HEX: &str = include_str!("golden/wal.hex");

fn unhex(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn tmp_dir(stem: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("gpivot-format-{}-{stem}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn one_row_delta(row: Row, weight: i64) -> Delta {
    let mut d = Delta::new();
    d.add(row, weight);
    d
}

/// Keyed and unkeyed tables, a view, pending deltas, and the awkward
/// values: NaN, −0.0, 2⁵³ (as Int and as Float), ⊥, multi-byte strings.
fn golden_checkpoint() -> CheckpointData {
    let two_53 = 1i64 << 53;
    let keyed = Arc::new(
        Schema::from_pairs_keyed(
            &[
                ("id", DataType::Int),
                ("name", DataType::Str),
                ("price", DataType::Float),
                ("day", DataType::Date),
                ("ok", DataType::Bool),
            ],
            &["id"],
        )
        .unwrap(),
    );
    let orders = Table::from_rows(
        keyed,
        vec![
            Row::new(vec![
                Value::Int(1),
                Value::str("café"),
                Value::Float(f64::NAN),
                Value::Date(9580),
                Value::Bool(true),
            ]),
            Row::new(vec![
                Value::Int(two_53),
                Value::str("日本語 ✓"),
                Value::Float(-0.0),
                Value::Date(-1),
                Value::Null,
            ]),
            Row::new(vec![
                Value::Int(-7),
                Value::str(""),
                Value::Float(two_53 as f64),
                Value::Null,
                Value::Bool(false),
            ]),
        ],
    )
    .unwrap();
    let unkeyed =
        Arc::new(Schema::from_pairs(&[("x", DataType::Any), ("y", DataType::Float)]).unwrap());
    let events = Table::bag(
        unkeyed,
        vec![
            Row::new(vec![Value::Null, Value::Float(-0.0)]),
            Row::new(vec![Value::Int(two_53), Value::Float(f64::NAN)]),
            Row::new(vec![Value::Null, Value::Float(-0.0)]),
        ],
    );
    let vschema = Arc::new(
        Schema::from_pairs_keyed(
            &[("id", DataType::Int), ("price_Ω", DataType::Float)],
            &["id"],
        )
        .unwrap(),
    );
    let vtable = Table::from_rows(
        vschema,
        vec![
            Row::new(vec![Value::Int(1), Value::Null]),
            Row::new(vec![Value::Int(two_53), Value::Float(-0.0)]),
        ],
    )
    .unwrap();
    CheckpointData {
        epoch: 42,
        wal_gen: 7,
        tables: vec![("orders".into(), orders), ("événements".into(), events)],
        views: vec![ViewSnapshot {
            name: "v_pivot".into(),
            definition_sql: "SELECT id, price AS \"price_Ω\" FROM orders".into(),
            strategy: "pivot-update".into(),
            stale: true,
            table: vtable,
        }],
        pending: vec![
            (
                "orders".into(),
                one_row_delta(
                    Row::new(vec![
                        Value::Int(3),
                        Value::str("straße"),
                        Value::Float(f64::NAN),
                        Value::Null,
                        Value::Bool(true),
                    ]),
                    2,
                ),
            ),
            (
                "événements".into(),
                one_row_delta(Row::new(vec![Value::Null, Value::Float(-0.0)]), -1),
            ),
            ("orders".into(), Delta::new()),
        ],
        queue_raw_rows: 11,
        queue_batches: 4,
    }
}

/// Every [`WalRecord`] variant, in a plausible log order.
fn golden_records() -> Vec<WalRecord> {
    vec![
        WalRecord::Checkpoint {
            epoch: 42,
            wal_gen: 7,
        },
        WalRecord::RegisterView {
            name: "v_pivot".into(),
            definition_sql: "SELECT id, price AS \"price_Ω\" FROM orders".into(),
            strategy: "pivot-update".into(),
        },
        WalRecord::IngestDelta {
            table: "événements".into(),
            delta: one_row_delta(
                Row::new(vec![Value::Int(1 << 53), Value::Float(f64::NAN)]),
                -3,
            ),
        },
        WalRecord::IngestDelta {
            table: "orders".into(),
            delta: Delta::new(),
        },
        WalRecord::EpochBegin { epoch: 43 },
        WalRecord::EpochCommit { epoch: 43 },
        WalRecord::DropView {
            name: "v_pivot".into(),
        },
    ]
}

#[test]
fn checkpoint_bytes_match_the_golden_fixture() {
    let dir = tmp_dir("ckpt-write");
    let data = golden_checkpoint();
    let written = write_checkpoint(&dir, &data, &FaultInjector::disabled()).unwrap();
    let bytes = std::fs::read(checkpoint_path(&dir, data.wal_gen)).unwrap();
    assert_eq!(
        written,
        bytes.len() as u64,
        "returned size is the file size"
    );
    assert_eq!(
        hex(&bytes),
        hex(&unhex(CHECKPOINT_HEX)),
        "checkpoint format drifted"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn golden_checkpoint_decodes() {
    let dir = tmp_dir("ckpt-read");
    std::fs::write(checkpoint_path(&dir, 7), unhex(CHECKPOINT_HEX)).unwrap();
    let loaded = load_latest(&dir).unwrap().expect("fixture must validate");
    assert_eq!(loaded.skipped_corrupt, 0);
    assert_eq!(loaded.data, golden_checkpoint());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wal_frames_match_the_golden_fixture() {
    let bytes: Vec<u8> = golden_records().iter().flat_map(encode_frame).collect();
    assert_eq!(hex(&bytes), hex(&unhex(WAL_HEX)), "wal format drifted");
}

#[test]
fn golden_wal_decodes() {
    let dir = tmp_dir("wal-read");
    let path = dir.join("wal-0000000007.log");
    std::fs::write(&path, unhex(WAL_HEX)).unwrap();
    let scan = read_wal(&path).unwrap();
    assert!(!scan.torn);
    assert_eq!(scan.valid_len, scan.total_len);
    assert_eq!(scan.records, golden_records());
    std::fs::remove_dir_all(&dir).unwrap();
}
