//! A tiny hand-rolled binary codec for the storage types the durability
//! layer persists ([`Value`], [`Row`], [`Delta`], [`Schema`], [`Table`]).
//!
//! The container has no serde, so the WAL and checkpoint formats are built
//! on these primitives: little-endian fixed-width integers, length-prefixed
//! byte strings, and one tag byte per `Value` variant. Decoding is fully
//! bounds-checked and never panics — every malformed input surfaces as
//! [`StorageError::Corrupt`], which the recovery code maps to
//! truncate-at-last-valid-record (WAL tails) or skip-this-file
//! (checkpoints).

use crate::error::{Result, StorageError};
use crate::{DataType, Delta, Field, Row, Schema, SchemaRef, Table, Value};
use std::sync::Arc;

/// Hard cap on any single length prefix (strings, row counts, payloads).
/// Corrupt length bytes must never drive a multi-gigabyte allocation.
const MAX_LEN: u64 = 1 << 32;

fn corrupt(what: impl Into<String>) -> StorageError {
    StorageError::Corrupt { what: what.into() }
}

// ---------------------------------------------------------------- writers

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(out, 0),
        Value::Bool(b) => {
            put_u8(out, 1);
            put_u8(out, u8::from(*b));
        }
        Value::Int(i) => {
            put_u8(out, 2);
            put_i64(out, *i);
        }
        Value::Float(f) => {
            put_u8(out, 3);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            put_u8(out, 4);
            put_str(out, s);
        }
        Value::Date(d) => {
            put_u8(out, 5);
            out.extend_from_slice(&d.to_le_bytes());
        }
    }
}

pub(crate) fn put_row(out: &mut Vec<u8>, row: &Row) {
    put_u64(out, row.arity() as u64);
    for v in row.values() {
        put_value(out, v);
    }
}

pub(crate) fn put_delta(out: &mut Vec<u8>, delta: &Delta) {
    put_u64(out, delta.distinct_len() as u64);
    for (row, &w) in delta.iter() {
        put_row(out, row);
        put_i64(out, w);
    }
}

pub(crate) fn put_schema(out: &mut Vec<u8>, schema: &Schema) {
    put_u64(out, schema.arity() as u64);
    for f in schema.fields() {
        put_str(out, &f.name);
        put_u8(
            out,
            match f.data_type {
                DataType::Bool => 0,
                DataType::Int => 1,
                DataType::Float => 2,
                DataType::Str => 3,
                DataType::Date => 4,
                DataType::Any => 5,
            },
        );
    }
    match schema.key() {
        None => put_u8(out, 0),
        Some(key) => {
            put_u8(out, 1);
            put_u64(out, key.len() as u64);
            for &i in key {
                put_u64(out, i as u64);
            }
        }
    }
}

/// `table` as schema, row count, rows. `after_row(out)` runs after each
/// row: the streaming checkpoint writer hands full pieces of `out` to the
/// file there, so a table never has to fit in one buffer.
pub(crate) fn put_table(
    out: &mut Vec<u8>,
    table: &Table,
    mut after_row: impl FnMut(&mut Vec<u8>) -> Result<()>,
) -> Result<()> {
    put_schema(out, table.schema());
    put_u64(out, table.len() as u64);
    for row in table.iter() {
        put_row(out, row);
        after_row(out)?;
    }
    Ok(())
}

// ---------------------------------------------------------------- reader

/// A bounds-checked cursor over encoded bytes.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("unexpected end of payload"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    pub fn i64(&mut self) -> Result<i64> {
        Ok(self.u64()? as i64)
    }

    /// A length prefix, validated against [`MAX_LEN`] *and* the bytes that
    /// actually remain (for unit-sized elements this rejects corrupt
    /// lengths before any allocation).
    fn len(&mut self, unit: usize) -> Result<usize> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n > MAX_LEN || n.saturating_mul(unit as u64) > remaining {
            return Err(corrupt(format!("implausible length prefix {n}")));
        }
        Ok(n as usize)
    }

    pub fn str(&mut self) -> Result<String> {
        let n = self.len(1)?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| corrupt("invalid utf-8 in string"))
    }

    pub fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.u8()? != 0),
            2 => Value::Int(self.i64()?),
            3 => Value::Float(f64::from_bits(self.u64()?)),
            4 => Value::Str(Arc::from(self.str()?.as_str())),
            5 => Value::Date(self.u32()? as i32),
            t => return Err(corrupt(format!("unknown value tag {t}"))),
        })
    }

    pub fn row(&mut self) -> Result<Row> {
        let arity = self.len(1)?;
        let mut vals = Vec::with_capacity(arity);
        for _ in 0..arity {
            vals.push(self.value()?);
        }
        Ok(Row::new(vals))
    }

    pub fn delta(&mut self) -> Result<Delta> {
        let n = self.len(1)?;
        let mut d = Delta::new();
        for _ in 0..n {
            let row = self.row()?;
            let w = self.i64()?;
            d.add(row, w);
        }
        Ok(d)
    }

    pub fn schema(&mut self) -> Result<SchemaRef> {
        let arity = self.len(1)?;
        let mut fields = Vec::with_capacity(arity);
        for _ in 0..arity {
            let name = self.str()?;
            let dt = match self.u8()? {
                0 => DataType::Bool,
                1 => DataType::Int,
                2 => DataType::Float,
                3 => DataType::Str,
                4 => DataType::Date,
                5 => DataType::Any,
                t => return Err(corrupt(format!("unknown data-type tag {t}"))),
            };
            fields.push(Field::new(name, dt));
        }
        let mut schema = Schema::new(fields).map_err(|e| corrupt(e.to_string()))?;
        if self.u8()? == 1 {
            let klen = self.len(8)?;
            let mut key = Vec::with_capacity(klen);
            for _ in 0..klen {
                // Bound-check the raw u64 *before* the usize cast: on 32-bit
                // targets `as usize` truncates, so a corrupt 2^32+k index
                // would otherwise slip past the range check as k.
                let raw = self.u64()?;
                if raw >= arity as u64 {
                    return Err(corrupt(format!("key index {raw} out of range")));
                }
                key.push(raw as usize);
            }
            schema.set_key(key);
        }
        Ok(Arc::new(schema))
    }

    pub fn table(&mut self) -> Result<Table> {
        let schema = self.schema()?;
        let n = self.len(1)?;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            rows.push(self.row()?);
        }
        if schema.has_key() {
            Table::bag(schema.clone(), rows)
                .into_keyed(schema)
                .map_err(|e| corrupt(format!("keyed table failed to rebuild: {e}")))
        } else {
            Ok(Table::bag(schema, rows))
        }
    }
}

/// Slicing-by-16 tables for CRC-32/IEEE (reflected), built at compile
/// time. `CRC_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC_TABLES[k][b]` is the CRC contribution of byte `b` followed by `k`
/// zero bytes, so one lookup per byte of a 16-byte block folds the whole
/// block into the state at once.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Extend `crc` — the CRC-32 of some prefix, `0` for the empty one — with
/// `bytes`: `crc32_update(crc32(a), b) == crc32(a ∥ b)`, so a checksum can
/// be folded piece by piece while the bytes stream out.
///
/// Table-driven, 16 bytes per step: every WAL frame and every checkpoint
/// byte (megabytes per checkpoint, on the epoch path) passes through here
/// on write and again on recovery, and a bitwise loop ran an order of
/// magnitude slower than the `write(2)` it guarded.
pub(crate) fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !crc;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let x = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][usize::from(b[4])]
            ^ t[10][usize::from(b[5])]
            ^ t[9][usize::from(b[6])]
            ^ t[8][usize::from(b[7])]
            ^ t[7][usize::from(b[8])]
            ^ t[6][usize::from(b[9])]
            ^ t[5][usize::from(b[10])]
            ^ t[4][usize::from(b[11])]
            ^ t[3][usize::from(b[12])]
            ^ t[2][usize::from(b[13])]
            ^ t[1][usize::from(b[14])]
            ^ t[0][usize::from(b[15])];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use proptest::prelude::*;

    #[test]
    fn value_row_roundtrip_all_variants() {
        let r = Row::new(vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Float(3.5),
            Value::str("héllo"),
            Value::Date(9580),
            Value::Float(f64::NAN),
        ]);
        let mut buf = Vec::new();
        put_row(&mut buf, &r);
        let back = Reader::new(&buf).row().unwrap();
        assert_eq!(back, r, "total Eq covers NaN normalization");
    }

    #[test]
    fn delta_roundtrip_preserves_signed_multiplicities() {
        let mut d = Delta::new();
        d.add(row![1, "a"], 3);
        d.add(row![2, "b"], -2);
        let mut buf = Vec::new();
        put_delta(&mut buf, &d);
        let back = Reader::new(&buf).delta().unwrap();
        assert_eq!(back.multiplicity(&row![1, "a"]), 3);
        assert_eq!(back.multiplicity(&row![2, "b"]), -2);
        assert_eq!(back.distinct_len(), 2);
    }

    #[test]
    fn keyed_table_roundtrip_rebuilds_index() {
        let schema = Arc::new(
            Schema::from_pairs_keyed(&[("id", DataType::Int), ("v", DataType::Str)], &["id"])
                .unwrap(),
        );
        let t = Table::from_rows(schema, vec![row![1, "x"], row![2, "y"]]).unwrap();
        let mut buf = Vec::new();
        put_table(&mut buf, &t, |_| Ok(())).unwrap();
        let back = Reader::new(&buf).table().unwrap();
        assert!(back.bag_eq(&t));
        assert_eq!(back.schema().key(), t.schema().key());
        assert!(back.get_by_key(&row![2]).is_some(), "key index rebuilt");
    }

    #[test]
    fn truncated_and_corrupt_inputs_error_not_panic() {
        let mut buf = Vec::new();
        put_row(&mut buf, &row![1, "abc", 2.5]);
        for cut in 0..buf.len() {
            assert!(Reader::new(&buf[..cut]).row().is_err());
        }
        // Implausible length prefix must not allocate or panic.
        let mut bad = Vec::new();
        put_u64(&mut bad, u64::MAX);
        assert!(Reader::new(&bad).row().is_err());
        assert!(Reader::new(&bad).str().is_err());
    }

    #[test]
    fn out_of_range_key_index_is_corrupt_even_past_u32() {
        // Encode a 1-column keyed schema, then rewrite the key index to
        // 2^32 (which truncates to 0 — in range — under a careless
        // `as usize` on 32-bit targets). Decoding must report corruption.
        let schema = Arc::new(Schema::from_pairs_keyed(&[("id", DataType::Int)], &["id"]).unwrap());
        let mut buf = Vec::new();
        put_schema(&mut buf, &schema);
        let idx_at = buf.len() - 8;
        assert_eq!(&buf[idx_at..], &0u64.to_le_bytes(), "layout sanity");
        buf[idx_at..].copy_from_slice(&(1u64 << 32).to_le_bytes());
        let err = Reader::new(&buf).schema().unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "got {err:?}");
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The definition: one bit at a time, no tables. The oracle the
    /// table-driven kernel is checked against.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    fn pseudo_random_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_the_bitwise_oracle_at_every_short_length() {
        // 0..=64 covers every remainder mod 16 with zero to four blocks.
        let bytes = pseudo_random_bytes(64, 0x9E37_79B9);
        for len in 0..=64 {
            assert_eq!(
                crc32(&bytes[..len]),
                crc32_bitwise(&bytes[..len]),
                "len {len}"
            );
        }
        assert_eq!(crc32(&[0xFF; 64]), crc32_bitwise(&[0xFF; 64]));
    }

    proptest! {
        #[test]
        fn crc32_matches_the_bitwise_oracle(
            bytes in prop::collection::vec(any::<u8>(), 0..65_536usize),
            start in 0usize..16,
            cut in any::<u64>(),
        ) {
            // Unaligned sub-slices: the kernel must not care where the
            // slice starts relative to a 16-byte boundary.
            let sub = &bytes[start.min(bytes.len())..];
            prop_assert_eq!(crc32(sub), crc32_bitwise(sub));
            // Folding over any split equals the one-shot checksum.
            let at = (cut % (sub.len() as u64 + 1)) as usize;
            let (a, b) = sub.split_at(at);
            prop_assert_eq!(crc32_update(crc32(a), b), crc32(sub));
        }
    }
}
