//! The rewriting framework (§5 of the paper).
//!
//! * [`pullup`] — GPIVOT pullup rules (Eq. 7–10 and the §5.1 cases).
//! * [`pushdown`] — GPIVOT pushdown rules (Eq. 11–12 and the §5.2 cases).
//! * [`unpivot_rules`] — GUNPIVOT pullup/pushdown rules (Eq. 13–18).
//! * [`transpose`] — enabler commutations used by the driver.
//! * [`driver`] — the Fig. 4 normalization: pivots to the top, combined.
//! * [`optimizer`] — a small rule-based query optimizer demonstrating the
//!   dual (query-optimization) use of the same rules.

pub mod driver;
pub mod optimizer;
pub mod pullup;
pub mod pushdown;
pub mod transpose;
pub mod unpivot_rules;

use crate::error::{CoreError, Result};
use gpivot_algebra::plan::Plan;
use gpivot_algebra::SchemaProvider;
use gpivot_analyze::DiagCode;

pub use driver::{normalize_view, normalize_view_with_select_pushdown, NormalizedView, TopShape};

/// A rule's refusal, with the lint code that names why it does not apply.
fn na(rule: &'static str, code: DiagCode, reason: impl Into<String>) -> CoreError {
    CoreError::RuleNotApplicable {
        rule,
        code,
        reason: reason.into(),
    }
}

/// A rewritten plan, refused as not applicable (GP005) unless its schema
/// derives.
fn check<P: SchemaProvider>(plan: Plan, provider: &P, rule: &'static str) -> Result<Plan> {
    plan.schema(provider).map_err(|e| {
        na(
            rule,
            DiagCode::Gp005TypeCheck,
            format!("rewritten plan does not type-check: {e}"),
        )
    })?;
    Ok(plan)
}
