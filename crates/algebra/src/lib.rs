//! # gpivot-algebra
//!
//! The logical relational algebra for the GPIVOT engine — the plan language
//! that the paper's rewriting rules (combination, pullup, pushdown) and
//! propagation rules are stated over.
//!
//! The crate provides:
//!
//! * [`expr`] — scalar expressions and predicates with SQL three-valued
//!   logic (the paper's *null-intolerant* predicates are the ones whose
//!   conservative analysis in [`expr::Expr::is_null_intolerant`] returns
//!   true), plus compilation ([`expr::BoundExpr`]) against a schema.
//! * [`aggregate`] — aggregate function specifications for `GROUPBY`.
//! * [`plan`] — the operator tree: `Scan`, `Select`, `Project`, `Join`
//!   (inner / left-outer / full-outer), `GroupBy`, `Union`, `Diff`, and the
//!   paper's stars: [`plan::Plan::GPivot`] and [`plan::Plan::GUnpivot`]
//!   (the simple `PIVOT`/`UNPIVOT` of Eq. 1–2 are the 1×1 special case),
//!   built by chaining its constructors (`Plan::scan(…).gpivot(…).join(…)`).
//! * [`names`] — the pivoted-column naming protocol
//!   `a1**a2**…**am**Bj` (§4.1), with escaping so data values containing
//!   `*` round-trip.
//! * [`schema_infer`] — output-schema **and key** derivation for every
//!   operator; key preservation is the prerequisite for the paper's pullup
//!   rules (§5.1) and is tracked structurally here.
//! * [`combinability`] — the §4.2.3 analysis deciding whether two adjacent
//!   GPIVOTs merge into one ([`can_combine`] / [`CombineVerdict`]), shared
//!   by the rewrite engine and the static plan analyzer.
//! * [`display`] — `EXPLAIN`-style pretty printing.

pub mod aggregate;
pub mod combinability;
pub mod display;
pub mod error;
pub mod expr;
pub mod names;
pub mod plan;
pub mod schema_infer;
pub mod sql;

pub use aggregate::{AggFunc, AggSpec};
pub use combinability::{can_combine, CombineVerdict};
pub use error::{AlgebraError, Result};
pub use expr::{BinOp, BoundExpr, CmpOp, Expr};
pub use names::{decode_pivot_col, encode_pivot_col};
pub use plan::{JoinKind, PivotSpec, Plan, UnpivotGroup, UnpivotSpec};
pub use schema_infer::SchemaProvider;
