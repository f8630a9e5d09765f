//! Executor errors.

use gpivot_algebra::AlgebraError;
use gpivot_storage::StorageError;
use std::fmt;

/// Errors raised during plan execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Schema/validation error from the algebra layer.
    Algebra(AlgebraError),
    /// Storage error (unknown table, key violation, ...).
    Storage(StorageError),
    /// Two source rows mapped to the same pivot cell — the input violated
    /// the `(K, A1..Am)` key requirement of GPIVOT (§2.1 of the paper).
    DuplicatePivotCell { key: String, group: String },
    /// A numeric aggregate received a non-null value it cannot interpret
    /// numerically (e.g. `AVG` over a string column). NULLs are skipped by
    /// every aggregate; anything else must be numeric — silently dropping
    /// it would make AVG disagree with SUM/COUNT over the same column.
    AggregateTypeMismatch {
        /// The aggregate function (`AVG`, ...).
        func: &'static str,
        /// Rendering of the offending input value.
        value: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Algebra(e) => write!(f, "algebra error: {e}"),
            ExecError::Storage(e) => write!(f, "storage error: {e}"),
            ExecError::DuplicatePivotCell { key, group } => write!(
                f,
                "duplicate pivot cell for key {key}, group {group}: input violates the (K, A1..Am) key requirement"
            ),
            ExecError::AggregateTypeMismatch { func, value } => write!(
                f,
                "{func} over a non-numeric non-null value {value}: only NULLs are skipped by aggregates"
            ),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Algebra(e) => Some(e),
            ExecError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AlgebraError> for ExecError {
    fn from(e: AlgebraError) -> Self {
        ExecError::Algebra(e)
    }
}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> Self {
        ExecError::Storage(e)
    }
}

/// Result alias for execution.
pub type Result<T> = std::result::Result<T, ExecError>;
