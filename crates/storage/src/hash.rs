//! Row hashing: the one [`BuildHasher`] behind every row-keyed hash table
//! on the maintenance path (delta multisets, key and secondary indexes,
//! join builds, group and pivot lookups, MERGE groups).
//!
//! The paper's propagate and apply phases cost O(|Δ|) hash probes each
//! (§6.2, §7.1), so the per-row constant is the hasher. [`RowHasher`]
//! folds every written word into its state with one 64×64→128-bit multiply
//! and mixes once more in [`Hasher::finish`] — a fraction of SipHash's
//! rounds for the tag + 8-byte words [`Value`](crate::Value) writes.
//!
//! Keys are random and per map: [`RowState::default`] draws fresh keys the
//! way `RandomState::new()` does — a random per-thread seed taken from
//! `RandomState`, plus a per-thread counter. Because no two maps share
//! keys, iterating one map and inserting into another cannot cluster
//! (the quadratic case of a fixed-key hasher). Clones keep the keys, so a
//! cloned map or index hashes like its source.

use std::cell::Cell;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// A hash map keyed by rows (or row-like keys) under [`RowState`]. The
/// hasher parameter is there only for functions generic over a caller's
/// set or map, as std's own `S = RandomState` is.
pub type RowMap<K, V, S = RowState> = HashMap<K, V, S>;

/// A hash set of rows (or row-like keys) under [`RowState`]; `S` as for
/// [`RowMap`].
pub type RowSet<K, S = RowState> = HashSet<K, S>;

/// Odd 2⁶⁴/φ: steps the per-thread key counter and salts `finish`.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The 128-bit product of `a` and `b`, its halves xor-folded to 64 bits.
#[inline(always)]
fn fold(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// Randomly keyed [`BuildHasher`] for row keys. See the module docs.
#[derive(Debug, Clone)]
pub struct RowState {
    /// The accumulator every hasher starts from: this map's own key.
    seed: u64,
    /// The per-word multiplier (odd), random per thread.
    mul: u64,
}

impl Default for RowState {
    fn default() -> Self {
        thread_local! {
            /// (random seed, random multiplier, maps keyed so far).
            static KEYS: Cell<(u64, u64, u64)> = Cell::new({
                let s = RandomState::new();
                (s.hash_one(0u64), s.hash_one(1u64), 0)
            });
        }
        KEYS.with(|keys| {
            let (seed, mul, n) = keys.get();
            keys.set((seed, mul, n.wrapping_add(1)));
            // One fold spreads the counter over every bit, so maps made
            // one after another start from unrelated accumulators.
            RowState {
                seed: fold(seed ^ n.wrapping_mul(GOLDEN), mul | 1),
                mul: mul | 1,
            }
        })
    }
}

impl BuildHasher for RowState {
    type Hasher = RowHasher;

    #[inline]
    fn build_hasher(&self) -> RowHasher {
        RowHasher {
            acc: self.seed,
            mul: self.mul,
        }
    }
}

/// The hasher [`RowState`] builds: one multiply-fold per written word.
#[derive(Debug, Clone)]
pub struct RowHasher {
    acc: u64,
    mul: u64,
}

impl Hasher for RowHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(c);
            self.write_u64(u64::from_le_bytes(word));
        }
        let tail = chunks.remainder();
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        // The length keeps "ab" and "ab\0" apart.
        self.write_u64(u64::from_le_bytes(word) ^ ((bytes.len() as u64) << 56));
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.acc = fold(self.acc ^ i, self.mul);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        fold(self.acc, self.mul ^ GOLDEN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{row, Row, Value};

    fn hash_of(s: &RowState, v: &Value) -> u64 {
        s.hash_one(v)
    }

    #[test]
    fn equal_values_hash_equal_under_one_state() {
        let s = RowState::default();
        let pairs = [
            (Value::Int(3), Value::Float(3.0)),
            (Value::Float(0.0), Value::Float(-0.0)),
            (Value::Int(0), Value::Float(-0.0)),
            (
                Value::Float(f64::NAN),
                Value::Float(f64::from_bits(0x7ff8_dead_beef_0001)),
            ),
            (
                Value::Float(f64::NAN),
                Value::Float(-f64::from_bits(0x7ff0_0000_0000_0001)),
            ),
            (Value::Int(1 << 53), Value::Float(9_007_199_254_740_992.0)),
        ];
        for (a, b) in pairs {
            assert_eq!(a, b);
            assert_eq!(hash_of(&s, &a), hash_of(&s, &b), "{a:?} vs {b:?}");
        }
        // Rows hash through their values, so equal rows hash equal too.
        let (r1, r2): (Row, Row) = (row![3, 0.0, "x"], row![3.0, -0.0, "x"]);
        assert_eq!(r1, r2);
        assert_eq!(s.hash_one(&r1), s.hash_one(&r2));
    }

    #[test]
    fn int_beyond_two_pow_53_keeps_apart_from_its_neighbours() {
        let s = RowState::default();
        let big = Value::Int((1 << 53) + 1);
        // 2⁵³ + 1 has no f64 of its own: the nearest floats are 2⁵³ and
        // 2⁵³ + 2, and neither compares equal to it.
        let neighbours = [
            Value::Int(1 << 53),
            Value::Int((1 << 53) + 2),
            Value::Float(9_007_199_254_740_992.0),
            Value::Float(9_007_199_254_740_994.0),
        ];
        for n in &neighbours {
            assert_ne!(&big, n);
            assert_ne!(hash_of(&s, &big), hash_of(&s, n), "{n:?}");
        }
        assert_eq!(hash_of(&s, &big), hash_of(&s, &Value::Int((1 << 53) + 1)));
    }

    #[test]
    fn two_states_key_differently() {
        let (a, b) = (RowState::default(), RowState::default());
        let rows: Vec<Row> = (0..64).map(|i| row![i, "k"]).collect();
        let differ = rows
            .iter()
            .filter(|r| a.hash_one(r) != b.hash_one(r))
            .count();
        assert_eq!(differ, rows.len(), "fresh states must not share keys");
        // A clone keeps its source's keys.
        let c = a.clone();
        assert!(rows.iter().all(|r| a.hash_one(r) == c.hash_one(r)));
    }

    #[test]
    fn byte_strings_of_every_length_are_told_apart() {
        let s = RowState::default();
        let hashes: RowSet<u64> = (0..40)
            .map(|n| s.hash_one(Value::str("a".repeat(n))))
            .collect();
        assert_eq!(hashes.len(), 40);
        assert_ne!(s.hash_one(Value::str("ab")), s.hash_one(Value::str("ab\0")));
    }
}
