//! Combinability analysis for adjacent GPIVOTs (§4.2.3 of the paper).
//!
//! Deciding whether two stacked GPIVOTs merge into one is a property of the
//! two [`PivotSpec`]s alone — no data, no plan context — so the analysis
//! lives here in the algebra crate where both the rewrite engine
//! (`gpivot-core`) and the static plan analyzer (`gpivot-analyze`) can
//! reach it. The Figure 7 obstruction taxonomy is preserved verbatim in
//! [`CombineVerdict`].

use crate::plan::PivotSpec;
use std::collections::BTreeSet;
use std::fmt;

/// Verdict of the §4.2.3 combinability analysis for two adjacent GPIVOTs
/// (`outer` applied to the output of `inner`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CombineVerdict {
    /// Combinable via the composition rule (Eq. 6).
    Composition,
    /// Not combinable: the outer pivot leaves some pivoted output columns of
    /// the inner pivot in its key — data values would have to act as a key
    /// (Fig. 7, cases 1–2; violates observation (1)).
    PivotedColumnsInKey { leftover: Vec<String> },
    /// Not combinable: the outer pivot *pivots on* (consumes as measures the
    /// names of) inner pivoted columns, losing their encoded data values
    /// (Fig. 7, case 3; violates observation (3)).
    PivotedColumnsAsDimensions { used_as_by: Vec<String> },
    /// Not combinable: the outer pivot's measure list mixes inner pivoted
    /// columns with other columns, so output names cannot keep the
    /// `a1**…**am**Bj` structure (Fig. 7, case 4; violates observation (2)).
    MixedMeasures { extra: Vec<String> },
}

impl fmt::Display for CombineVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CombineVerdict::Composition => write!(f, "combinable (composition, Eq. 6)"),
            CombineVerdict::PivotedColumnsInKey { leftover } => write!(
                f,
                "not combinable: pivoted columns {leftover:?} would remain in the key (Fig. 7 cases 1-2)"
            ),
            CombineVerdict::PivotedColumnsAsDimensions { used_as_by } => write!(
                f,
                "not combinable: pivoted columns {used_as_by:?} used as dimensions (Fig. 7 case 3)"
            ),
            CombineVerdict::MixedMeasures { extra } => write!(
                f,
                "not combinable: measure list mixes pivoted and plain columns {extra:?} (Fig. 7 case 4)"
            ),
        }
    }
}

/// Decide whether `outer` (applied to the output of `inner`) can be combined
/// with `inner` into a single GPIVOT — the completeness analysis of §4.2.3.
pub fn can_combine(inner: &PivotSpec, outer: &PivotSpec) -> CombineVerdict {
    let inner_outputs: BTreeSet<String> = inner.output_col_names().into_iter().collect();

    // Case 3: inner pivoted output columns used as outer dimensions — their
    // encoded data values (column names) would be lost.
    let used_as_by: Vec<String> = outer
        .by
        .iter()
        .filter(|c| inner_outputs.contains(*c))
        .cloned()
        .collect();
    if !used_as_by.is_empty() {
        return CombineVerdict::PivotedColumnsAsDimensions { used_as_by };
    }

    let outer_on: BTreeSet<String> = outer.on.iter().cloned().collect();

    // Cases 1-2: some inner pivoted output column is neither consumed as an
    // outer measure nor an outer dimension — it stays in the outer output
    // key, but it is data, not a key.
    let leftover: Vec<String> = inner_outputs
        .iter()
        .filter(|c| !outer_on.contains(*c))
        .cloned()
        .collect();
    if !leftover.is_empty() {
        return CombineVerdict::PivotedColumnsInKey { leftover };
    }

    // Case 4: outer measures include extra columns beyond the inner pivoted
    // outputs — the combined output names cannot keep the required
    // structure.
    let extra: Vec<String> = outer
        .on
        .iter()
        .filter(|c| !inner_outputs.contains(*c))
        .cloned()
        .collect();
    if !extra.is_empty() {
        return CombineVerdict::MixedMeasures { extra };
    }

    CombineVerdict::Composition
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpivot_storage::Value;

    fn inner() -> PivotSpec {
        PivotSpec::simple("Type", "Price", vec![Value::str("TV"), Value::str("VCR")])
    }

    #[test]
    fn composition_verdict_when_all_outputs_consumed() {
        let outer = PivotSpec::new(
            vec!["Manu"],
            vec!["TV**Price", "VCR**Price"],
            vec![vec![Value::str("Sony")]],
        );
        assert_eq!(can_combine(&inner(), &outer), CombineVerdict::Composition);
    }

    #[test]
    fn fig7_case_1_2_leftover_pivoted_columns() {
        // Outer consumes only TV**Price; VCR**Price stays in the key.
        let outer = PivotSpec::new(
            vec!["Manu"],
            vec!["TV**Price"],
            vec![vec![Value::str("Sony")]],
        );
        match can_combine(&inner(), &outer) {
            CombineVerdict::PivotedColumnsInKey { leftover } => {
                assert_eq!(leftover, vec!["VCR**Price"]);
            }
            v => panic!("unexpected verdict {v}"),
        }
    }

    #[test]
    fn fig7_case_3_pivoted_column_as_dimension() {
        let outer = PivotSpec::new(
            vec!["TV**Price"],
            vec!["VCR**Price"],
            vec![vec![Value::Int(100)]],
        );
        assert!(matches!(
            can_combine(&inner(), &outer),
            CombineVerdict::PivotedColumnsAsDimensions { .. }
        ));
    }

    #[test]
    fn fig7_case_4_mixed_measures() {
        let outer = PivotSpec::new(
            vec!["Manu"],
            vec!["TV**Price", "VCR**Price", "Country"],
            vec![vec![Value::str("Sony")]],
        );
        assert!(matches!(
            can_combine(&inner(), &outer),
            CombineVerdict::MixedMeasures { .. }
        ));
    }
}
