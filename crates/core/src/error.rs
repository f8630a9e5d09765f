//! Errors for the rewrite + maintenance layers.

use gpivot_algebra::AlgebraError;
use gpivot_analyze::{DiagCode, Diagnostic};
use gpivot_exec::ExecError;
use gpivot_storage::StorageError;
use std::fmt;

/// Errors raised by the core (rewrite / maintenance) layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// Underlying algebra error.
    Algebra(AlgebraError),
    /// Underlying execution error.
    Exec(ExecError),
    /// Underlying storage error.
    Storage(StorageError),
    /// A rewrite rule's precondition does not hold for the given plan. The
    /// [`DiagCode`] matches what the static analyzer (`gpivot-analyze`)
    /// reports for the same obstruction, so runtime and static verdicts
    /// can be cross-checked.
    RuleNotApplicable {
        rule: &'static str,
        code: DiagCode,
        reason: String,
    },
    /// Plan lint refused the view at registration: the static analyzer
    /// found `Error`-severity diagnostics. Opt out per view with
    /// [`ViewOptions::skip_plan_lint`](crate::ViewOptions::skip_plan_lint).
    PlanLint {
        view: String,
        diagnostics: Vec<Diagnostic>,
    },
    /// The requested maintenance strategy cannot maintain this view shape.
    StrategyNotApplicable { strategy: String, reason: String },
    /// A named view was not found in the view manager.
    UnknownView(String),
    /// A view with this name is already registered.
    DuplicateView(String),
    /// The view query is not incrementally maintainable at all and fallback
    /// was disallowed.
    NotMaintainable(String),
    /// A base table a view's compiled delta program reads no longer has
    /// the schema the program was compiled against (the catalog replaced
    /// it): its compiled column positions would read the wrong columns.
    /// Re-register the view to compile it against the new schema.
    SchemaChanged { table: String },
    /// A refresh worker panicked while maintaining a view. The panic was
    /// caught at the task boundary (the view's state was discarded), so
    /// this is an ordinary, retryable error to the caller.
    ViewPanic { view: String, message: String },
    /// An ingestion was rejected (or timed out) because the pending-queue
    /// watermark was reached. Transient by definition: draining an epoch
    /// frees space.
    Backpressure { pending_rows: u64, watermark: u64 },
    /// A configuration builder was given an invalid value (zero workers,
    /// zero shards, ...). Raised by
    /// `ServeConfig::builder()` in `gpivot-serve` at `build()` time so
    /// misconfiguration fails fast instead of misbehaving at runtime.
    InvalidConfig { field: String, message: String },
    /// An epoch plan was refused at commit ([`StalePlan`]).
    StalePlan(StalePlan),
}

/// An [`EpochPlan`](crate::EpochPlan) was computed against a
/// [`ViewManager`](crate::ViewManager) state that has since been mutated
/// (a commit, a registry change, catalog access): its patches describe rows
/// that may no longer be there. The only way
/// [`ViewManager::commit_epoch`](crate::ViewManager::commit_epoch) refuses
/// a plan — raised before anything is touched; re-plan and commit again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StalePlan {
    /// The manager generation the plan was computed against.
    pub planned_at: u64,
    /// The manager's generation when the commit was attempted.
    pub current: u64,
}

impl fmt::Display for StalePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "epoch plan is stale: computed at manager generation {}, now {}",
            self.planned_at, self.current
        )
    }
}

impl From<StalePlan> for CoreError {
    fn from(e: StalePlan) -> Self {
        CoreError::StalePlan(e)
    }
}

/// Coarse retry classification of an error — the taxonomy the service
/// layer's retry/quarantine decisions are built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Retrying the same operation can plausibly succeed (injected faults,
    /// caught worker panics, backpressure).
    Transient,
    /// Retrying is pointless: the error is a fact about the data, the
    /// schema, or the request (key violations, unknown tables, shape
    /// mismatches, ...).
    Permanent,
}

impl CoreError {
    /// Classify this error for retry decisions. Fault-injected storage
    /// errors (wherever they surface in the stack) and caught panics are
    /// [`ErrorClass::Transient`]; every real engine error is
    /// [`ErrorClass::Permanent`].
    pub fn classify(&self) -> ErrorClass {
        let transient = match self {
            CoreError::Storage(e) => e.is_transient(),
            CoreError::Exec(ExecError::Storage(e)) => e.is_transient(),
            // Storage errors can also surface wrapped in algebra errors
            // (schema inference inside plan execution).
            CoreError::Algebra(AlgebraError::Storage(e)) => e.is_transient(),
            CoreError::Exec(ExecError::Algebra(AlgebraError::Storage(e))) => e.is_transient(),
            CoreError::ViewPanic { .. } | CoreError::Backpressure { .. } => true,
            _ => false,
        };
        if transient {
            ErrorClass::Transient
        } else {
            ErrorClass::Permanent
        }
    }

    /// Convenience: `classify() == ErrorClass::Transient`.
    pub fn is_transient(&self) -> bool {
        self.classify() == ErrorClass::Transient
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Algebra(e) => write!(f, "algebra error: {e}"),
            CoreError::Exec(e) => write!(f, "execution error: {e}"),
            CoreError::Storage(e) => write!(f, "storage error: {e}"),
            CoreError::RuleNotApplicable { rule, code, reason } => {
                write!(f, "rule `{rule}` not applicable [{code}]: {reason}")
            }
            CoreError::PlanLint { view, diagnostics } => {
                write!(
                    f,
                    "plan lint refused view `{view}` ({} finding{}):",
                    diagnostics.len(),
                    if diagnostics.len() == 1 { "" } else { "s" }
                )?;
                for d in diagnostics {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            CoreError::StrategyNotApplicable { strategy, reason } => {
                write!(f, "strategy `{strategy}` not applicable: {reason}")
            }
            CoreError::UnknownView(v) => write!(f, "unknown view `{v}`"),
            CoreError::DuplicateView(v) => write!(f, "view `{v}` already exists"),
            CoreError::NotMaintainable(s) => write!(f, "view not maintainable: {s}"),
            CoreError::SchemaChanged { table } => write!(
                f,
                "table `{table}` changed schema since the view's delta program was compiled"
            ),
            CoreError::ViewPanic { view, message } => {
                write!(
                    f,
                    "refresh worker panicked maintaining view `{view}`: {message}"
                )
            }
            CoreError::Backpressure {
                pending_rows,
                watermark,
            } => write!(
                f,
                "ingestion rejected: {pending_rows} pending rows at watermark {watermark}"
            ),
            CoreError::InvalidConfig { field, message } => {
                write!(f, "invalid config: `{field}` {message}")
            }
            CoreError::StalePlan(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Algebra(e) => Some(e),
            CoreError::Exec(e) => Some(e),
            CoreError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AlgebraError> for CoreError {
    fn from(e: AlgebraError) -> Self {
        CoreError::Algebra(e)
    }
}

impl From<ExecError> for CoreError {
    fn from(e: ExecError) -> Self {
        CoreError::Exec(e)
    }
}

impl From<StorageError> for CoreError {
    fn from(e: StorageError) -> Self {
        CoreError::Storage(e)
    }
}

/// Result alias for core operations.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_classifies_for_retry() {
        use gpivot_storage::StorageError;
        let injected = CoreError::Storage(StorageError::FaultInjected {
            site: "scan".into(),
            op: "t".into(),
        });
        assert_eq!(injected.classify(), ErrorClass::Transient);
        let nested = CoreError::Exec(ExecError::Storage(StorageError::FaultInjected {
            site: "scan".into(),
            op: "t".into(),
        }));
        assert!(nested.is_transient());
        assert!(CoreError::ViewPanic {
            view: "v".into(),
            message: "boom".into(),
        }
        .is_transient());
        assert!(CoreError::Backpressure {
            pending_rows: 10,
            watermark: 8,
        }
        .is_transient());
        // Real engine errors are permanent.
        assert_eq!(
            CoreError::UnknownView("v".into()).classify(),
            ErrorClass::Permanent
        );
        assert_eq!(
            CoreError::Storage(StorageError::KeyViolation {
                table: "t".into(),
                key: "k".into(),
            })
            .classify(),
            ErrorClass::Permanent
        );
    }

    #[test]
    fn display_variants() {
        let e = CoreError::RuleNotApplicable {
            rule: "pullup-join",
            code: DiagCode::Gp010KeyNotPreserved,
            reason: "join key not preserved".into(),
        };
        assert!(e.to_string().contains("pullup-join"));
        assert!(e.to_string().contains("[GP010]"));
        let lint = CoreError::PlanLint {
            view: "v".into(),
            diagnostics: vec![Diagnostic::new(
                DiagCode::Gp001PivotInputNoKey,
                vec![0],
                "no key",
            )],
        };
        assert!(lint.to_string().contains("GP001"));
        assert_eq!(lint.classify(), ErrorClass::Permanent);
        assert!(CoreError::UnknownView("v".into())
            .to_string()
            .contains("`v`"));
    }
}
