//! A column-major copy of a bag of rows, kept only for the frozen
//! benchmark harness, whose `storage.chunk_build_ms` probe times
//! [`Chunk::from_rows`]. Nothing in the engine reads a chunk: every
//! operator runs on rows.

use crate::row::Row;
use crate::value::Value;

/// The rows of a bag transposed into one vector of values per column.
#[doc(hidden)]
#[derive(Debug, Clone, Default)]
pub struct Chunk {
    len: usize,
    columns: Vec<Vec<Value>>,
}

impl Chunk {
    /// Transpose `rows`, each of `arity` values, into columns.
    pub fn from_rows(rows: &[Row], arity: usize) -> Chunk {
        let mut columns: Vec<Vec<Value>> =
            (0..arity).map(|_| Vec::with_capacity(rows.len())).collect();
        for row in rows {
            for (column, value) in columns.iter_mut().zip(row.values()) {
                column.push(value.clone());
            }
        }
        Chunk {
            len: rows.len(),
            columns,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the chunk holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The values of column `col`, in row order.
    pub fn column(&self, col: usize) -> &[Value] {
        &self.columns[col]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    #[test]
    fn from_rows_transposes_without_changing_values() {
        let rows = vec![row![1, "a", Value::Null], row![2, "b", 2.5]];
        let c = Chunk::from_rows(&rows, 3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.column(0), &[Value::Int(1), Value::Int(2)]);
        assert_eq!(c.column(2), &[Value::Null, Value::Float(2.5)]);
        assert!(Chunk::from_rows(&[], 3).is_empty());
    }
}
