//! Error type shared by the storage layer.

use std::fmt;

/// Errors raised by the storage substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A referenced column does not exist in a schema.
    UnknownColumn { name: String, schema: String },
    /// A referenced table does not exist in the catalog.
    UnknownTable(String),
    /// A table with the same name is already registered.
    DuplicateTable(String),
    /// A row violates the table's declared key.
    KeyViolation { table: String, key: String },
    /// A row's arity does not match the table schema.
    ArityMismatch { expected: usize, actual: usize },
    /// Duplicate column name while constructing a schema.
    DuplicateColumn(String),
    /// A fault deliberately injected by [`crate::fault::FaultInjector`]
    /// (chaos testing). Always classified as *transient* by the layers
    /// above: it models a recoverable I/O or scheduling hiccup.
    FaultInjected { site: String, op: String },
    /// A seeded *kill point* fired ([`crate::fault::FaultInjector::with_kill_point`]):
    /// the operation was aborted mid-record to simulate process death.
    /// Deliberately **not** transient — a crashed process does not retry;
    /// the crash-recovery harness abandons the instance and reopens from
    /// disk instead.
    KillPoint { site: String, op: String },
    /// A filesystem operation failed (WAL append, fsync, checkpoint write,
    /// directory scan). The underlying `std::io::Error` is rendered into
    /// `message` so this enum stays `Clone + PartialEq`.
    Io { op: String, message: String },
    /// On-disk bytes failed validation during recovery (bad magic, version,
    /// checksum, or a truncated payload). Recovery code treats a corrupt
    /// *tail* as torn (truncate and continue) and only surfaces this for
    /// corruption it cannot safely skip.
    Corrupt { what: String },
}

impl StorageError {
    /// True iff retrying the failed operation can plausibly succeed.
    /// Injected faults are transient by definition; every real storage
    /// error (unknown table, key violation, ...) is a permanent fact about
    /// the data or the request.
    pub fn is_transient(&self) -> bool {
        matches!(self, StorageError::FaultInjected { .. })
    }

    /// Name the table a [`StorageError::KeyViolation`] happened in. A
    /// [`crate::Table`] does not know what it is registered as, so whoever
    /// owns it by name passes its errors through here.
    pub fn in_table(self, name: &str) -> Self {
        match self {
            StorageError::KeyViolation { key, .. } => StorageError::KeyViolation {
                table: name.to_string(),
                key,
            },
            other => other,
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownColumn { name, schema } => {
                write!(f, "unknown column `{name}` in schema [{schema}]")
            }
            StorageError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            StorageError::DuplicateTable(t) => write!(f, "table `{t}` already exists"),
            StorageError::KeyViolation { table, key } => {
                write!(f, "key violation in table `{table}` for key value {key}")
            }
            StorageError::ArityMismatch { expected, actual } => {
                write!(
                    f,
                    "row arity {actual} does not match schema arity {expected}"
                )
            }
            StorageError::DuplicateColumn(c) => write!(f, "duplicate column name `{c}`"),
            StorageError::FaultInjected { site, op } => {
                write!(f, "injected fault at {site} site during `{op}`")
            }
            StorageError::KillPoint { site, op } => {
                write!(f, "kill point fired at {site} site during `{op}`")
            }
            StorageError::Io { op, message } => write!(f, "i/o error during {op}: {message}"),
            StorageError::Corrupt { what } => write!(f, "corrupt on-disk data: {what}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = StorageError::UnknownColumn {
            name: "x".into(),
            schema: "a, b".into(),
        };
        assert!(e.to_string().contains("unknown column `x`"));
        assert!(StorageError::UnknownTable("t".into())
            .to_string()
            .contains("`t`"));
    }
}
