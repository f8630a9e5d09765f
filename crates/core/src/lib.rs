//! # gpivot-core
//!
//! The paper's primary contribution, implemented as three layers:
//!
//! 1. **Combination & split rules** ([`combine`]) — merging adjacent GPIVOT
//!    operators (multicolumn pivot, Eq. 5; pivot composition, Eq. 6), the
//!    §4.2.3 combinability analysis, and the §4.3 split rules.
//! 2. **Rewriting rules** ([`rewrite`]) — pullup and pushdown of GPIVOT and
//!    GUNPIVOT through SELECT / PROJECT / JOIN / GROUPBY (Eq. 7–18), plus
//!    the normalization driver that pulls every pivot to the top of a view
//!    tree (Fig. 4) and a small rule-based query optimizer demonstrating the
//!    rules' dual use (§1: "dual purpose serving both view maintenance and
//!    query optimization").
//! 3. **Incremental view maintenance** ([`maintain`]) — the propagate/apply
//!    framework (§3, §6): per-operator delta propagation, GPIVOT/GUNPIVOT
//!    insert-delete propagation (Fig. 22), the GPIVOT update (MERGE) rules
//!    (Fig. 23), the combined GPIVOT-over-GROUPBY rules (Fig. 27), the
//!    combined SELECT-over-GPIVOT rules (Fig. 29), strategy selection, and
//!    a [`maintain::ViewManager`] tying it all together.

pub mod combine;
pub mod cost;
pub mod error;
pub mod maintain;
pub mod rewrite;

pub use combine::{can_combine, combine_adjacent, CombineVerdict};
pub use error::{CoreError, ErrorClass, Result, StalePlan};
pub use gpivot_analyze::{analyze, AnalysisReport, DiagCode, Diagnostic, Severity};
pub use maintain::{
    EpochPlan, MaintenanceOutcome, MaintenancePlan, MaterializedView, RefreshGroup, RefreshPlan,
    SourceDeltas, Strategy, ViewManager, ViewOptions, ViewPatch,
};
pub use rewrite::{normalize_view, NormalizedView, TopShape};
