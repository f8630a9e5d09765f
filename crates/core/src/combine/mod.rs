//! Combination and split rules for GPIVOT (§4.2, §4.3 of the paper).
//!
//! * [`multicolumn`] — Eq. 5: two pivots of the same input over different
//!   measure sets, natural-joined on `K`, merge into one GPIVOT that pivots
//!   all measures at once.
//! * [`composition`] — Eq. 6: two *stacked* pivots where the outer pivot
//!   consumes all pivoted output columns of the inner merge into one GPIVOT
//!   over the concatenated dimension lists.
//! * [`can_combine`] — the §4.2.3 completeness analysis deciding whether two
//!   adjacent GPIVOTs are combinable, and if not, which of the Figure 7
//!   obstruction cases applies. The analysis itself lives in
//!   `gpivot_algebra::combinability` (it is a pure [`PivotSpec`] property
//!   shared with the static analyzer); re-exported here for compatibility.
//! * [`split`] — §4.3: the reverse rewrites.
//!
//! [`PivotSpec`]: gpivot_algebra::PivotSpec

pub mod composition;
pub mod multicolumn;
pub mod split;

pub use composition::{compose_specs, try_compose};
pub use gpivot_algebra::combinability::{can_combine, CombineVerdict};
pub use multicolumn::{combine_multicolumn_specs, multicolumn_join_plan, try_multicolumn};
pub use split::{split_composition, split_multicolumn, PartitionedPivot};

/// Try to combine two adjacent GPIVOT plan nodes (outer directly over
/// inner); returns the rewritten plan on success. Dispatches to the
/// composition rule; the multicolumn rule has its own join-shaped pattern
/// (see [`try_multicolumn`]).
pub fn combine_adjacent(plan: &gpivot_algebra::Plan) -> crate::error::Result<gpivot_algebra::Plan> {
    composition::try_compose(plan)
}
