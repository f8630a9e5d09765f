//! Schemas: named, typed columns plus optional key metadata.
//!
//! The paper's rewrite framework is driven by *key preservation* (§5.1:
//! "a prerequisite for the pullup applicability is that the operator must
//! also preserve a key"), so schemas here carry the key as structural
//! metadata that every operator's output-schema derivation must maintain.

use crate::error::{Result, StorageError};
use std::fmt;
use std::sync::Arc;

/// Column data types. Typing is advisory (values are dynamically typed) but
/// lets the planner validate expressions and the generator emit sane data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Str,
    Date,
    /// Column whose type is unknown or mixed (e.g. a pivoted value column
    /// whose source column was already `Any`).
    Any,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "bool",
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
            DataType::Date => "date",
            DataType::Any => "any",
        };
        f.write_str(s)
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    pub name: String,
    pub data_type: DataType,
}

impl Field {
    /// Create a field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into(),
            data_type,
        }
    }
}

/// A relation schema: ordered fields plus an optional key (set of column
/// indices whose values uniquely identify a row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
    /// Indices of the key columns, sorted ascending; `None` = no known key.
    key: Option<Vec<usize>>,
}

/// Shared schema handle; plans and tables hold schemas by `Arc`.
pub type SchemaRef = Arc<Schema>;

impl Schema {
    /// Build a schema with no key.
    pub fn new(fields: Vec<Field>) -> Result<Self> {
        let mut seen = std::collections::HashSet::new();
        for f in &fields {
            if !seen.insert(f.name.as_str()) {
                return Err(StorageError::DuplicateColumn(f.name.clone()));
            }
        }
        Ok(Schema { fields, key: None })
    }

    /// Build a schema with a key given by column *names*.
    pub fn with_key(fields: Vec<Field>, key_names: &[&str]) -> Result<Self> {
        let mut schema = Schema::new(fields)?;
        let mut key = Vec::with_capacity(key_names.len());
        for name in key_names {
            key.push(schema.index_of(name)?);
        }
        key.sort_unstable();
        key.dedup();
        schema.key = Some(key);
        Ok(schema)
    }

    /// Convenience: build from `(name, type)` pairs, no key.
    pub fn from_pairs(pairs: &[(&str, DataType)]) -> Result<Self> {
        Schema::new(
            pairs
                .iter()
                .map(|(n, t)| Field::new(*n, *t))
                .collect::<Vec<_>>(),
        )
    }

    /// Convenience: build from `(name, type)` pairs with key column names.
    pub fn from_pairs_keyed(pairs: &[(&str, DataType)], key: &[&str]) -> Result<Self> {
        Schema::with_key(
            pairs
                .iter()
                .map(|(n, t)| Field::new(*n, *t))
                .collect::<Vec<_>>(),
            key,
        )
    }

    /// The fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| StorageError::UnknownColumn {
                name: name.to_string(),
                schema: self.column_names().join(", "),
            })
    }

    /// Field by name.
    pub fn field(&self, name: &str) -> Result<&Field> {
        Ok(&self.fields[self.index_of(name)?])
    }

    /// Field at index.
    pub fn field_at(&self, idx: usize) -> &Field {
        &self.fields[idx]
    }

    /// All column names in order.
    pub fn column_names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// The key column indices, if a key is known.
    pub fn key(&self) -> Option<&[usize]> {
        self.key.as_deref()
    }

    /// The key column names, if a key is known.
    pub fn key_names(&self) -> Option<Vec<&str>> {
        self.key
            .as_ref()
            .map(|k| k.iter().map(|&i| self.fields[i].name.as_str()).collect())
    }

    /// True iff the named column is part of the key.
    pub fn is_key_column(&self, name: &str) -> bool {
        match (&self.key, self.index_of(name)) {
            (Some(key), Ok(idx)) => key.contains(&idx),
            _ => false,
        }
    }

    /// Replace the key with the given column indices (sorted + deduped).
    pub fn set_key(&mut self, mut key: Vec<usize>) {
        key.sort_unstable();
        key.dedup();
        assert!(
            key.iter().all(|&i| i < self.fields.len()),
            "key index out of range"
        );
        self.key = Some(key);
    }

    /// Drop key metadata (e.g. after an operator that loses the key).
    pub fn clear_key(&mut self) {
        self.key = None;
    }

    /// Whether a key is known.
    pub fn has_key(&self) -> bool {
        self.key.is_some()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            let is_key = self.key.as_ref().is_some_and(|k| k.contains(&i));
            if is_key {
                write!(f, "{}*:{}", field.name, field.data_type)?;
            } else {
                write!(f, "{}:{}", field.name, field.data_type)?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::from_pairs_keyed(
            &[
                ("id", DataType::Int),
                ("attr", DataType::Str),
                ("val", DataType::Str),
            ],
            &["id", "attr"],
        )
        .unwrap()
    }

    #[test]
    fn index_and_key_lookup() {
        let s = sample();
        assert_eq!(s.index_of("attr").unwrap(), 1);
        assert_eq!(s.key(), Some(&[0usize, 1][..]));
        assert!(s.is_key_column("id"));
        assert!(!s.is_key_column("val"));
    }

    #[test]
    fn unknown_column_errors() {
        let s = sample();
        assert!(matches!(
            s.index_of("nope"),
            Err(StorageError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn duplicate_column_rejected() {
        let r = Schema::from_pairs(&[("a", DataType::Int), ("a", DataType::Int)]);
        assert!(matches!(r, Err(StorageError::DuplicateColumn(_))));
    }

    #[test]
    fn display_marks_key_columns() {
        let s = sample();
        let d = s.to_string();
        assert!(d.contains("id*:int"));
        assert!(d.contains("val:str"));
    }

    #[test]
    fn set_key_sorts_and_dedups() {
        let mut s = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]).unwrap();
        s.set_key(vec![1, 0, 1]);
        assert_eq!(s.key(), Some(&[0usize, 1][..]));
        s.clear_key();
        assert!(!s.has_key());
    }

    #[test]
    fn key_names_round_trip() {
        let s = sample();
        assert_eq!(s.key_names().unwrap(), vec!["id", "attr"]);
    }
}
