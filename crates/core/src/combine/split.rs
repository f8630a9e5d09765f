//! Split rules for GPIVOT (§4.3): the combination rules read right-to-left.
//!
//! Splitting is the *query-optimization* face of the combination rules: a
//! cost-based optimizer may prefer executing a wide GPIVOT as two narrower
//! ones (e.g. to pipeline with different join orders). The §4.3
//! local/global split — pivot partitions of the input, then merge — runs
//! in the executor's partitioned pivot kernel
//! (`gpivot_exec::pivot::gpivot_partitioned`).

use crate::error::{CoreError, Result};
use gpivot_algebra::plan::PivotSpec;
use gpivot_analyze::DiagCode;
use gpivot_storage::Value;

const RULE: &str = "split-gpivot (§4.3)";

/// A pivot split into two specs whose recombination (multicolumn or
/// composition) yields the original.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionedPivot {
    pub first: PivotSpec,
    pub second: PivotSpec,
}

/// Split a GPIVOT by measures (reverse of Eq. 5): the first spec pivots
/// `on[..at]`, the second `on[at..]`, both with the original dimensions and
/// groups.
pub fn split_multicolumn(spec: &PivotSpec, at: usize) -> Result<PartitionedPivot> {
    if at == 0 || at >= spec.on.len() {
        return Err(CoreError::RuleNotApplicable {
            rule: RULE,
            code: DiagCode::Gp020RuleShapeMismatch,
            reason: format!(
                "measure split point {at} must be inside 1..{}",
                spec.on.len()
            ),
        });
    }
    Ok(PartitionedPivot {
        first: PivotSpec {
            by: spec.by.clone(),
            on: spec.on[..at].to_vec(),
            groups: spec.groups.clone(),
        },
        second: PivotSpec {
            by: spec.by.clone(),
            on: spec.on[at..].to_vec(),
            groups: spec.groups.clone(),
        },
    })
}

/// Split a GPIVOT by dimensions (reverse of Eq. 6): the inner spec pivots by
/// `by[at..]`, the outer by `by[..at]` over the inner's output columns. The
/// original groups must form a full cross product of per-dimension value
/// sets for the split to be lossless; the distinct outer/inner tag tuples
/// are extracted from the groups, and the rule refuses if the cross product
/// of those does not reproduce the original group list.
pub fn split_composition(spec: &PivotSpec, at: usize) -> Result<PartitionedPivot> {
    if at == 0 || at >= spec.by.len() {
        return Err(CoreError::RuleNotApplicable {
            rule: RULE,
            code: DiagCode::Gp020RuleShapeMismatch,
            reason: format!(
                "dimension split point {at} must be inside 1..{}",
                spec.by.len()
            ),
        });
    }
    let mut outer_tags: Vec<Vec<Value>> = Vec::new();
    let mut inner_tags: Vec<Vec<Value>> = Vec::new();
    for g in &spec.groups {
        let o = g[..at].to_vec();
        let i = g[at..].to_vec();
        if !outer_tags.contains(&o) {
            outer_tags.push(o);
        }
        if !inner_tags.contains(&i) {
            inner_tags.push(i);
        }
    }
    // Losslessness check: groups must be exactly the cross product.
    let mut cross = Vec::with_capacity(outer_tags.len() * inner_tags.len());
    for o in &outer_tags {
        for i in &inner_tags {
            let mut g = o.clone();
            g.extend(i.iter().cloned());
            cross.push(g);
        }
    }
    if cross != spec.groups {
        return Err(CoreError::RuleNotApplicable {
            rule: RULE,
            code: DiagCode::Gp017PivotsNotCombinable,
            reason: "output groups are not a cross product in group-major order; \
                     a dimension split would change the output"
                .to_string(),
        });
    }

    let inner = PivotSpec {
        by: spec.by[at..].to_vec(),
        on: spec.on.clone(),
        groups: inner_tags,
    };
    // Outer pivots the inner's output columns by the leading dimensions.
    let outer = PivotSpec {
        by: spec.by[..at].to_vec(),
        on: inner.output_col_names(),
        groups: outer_tags,
    };
    Ok(PartitionedPivot {
        first: inner,
        second: outer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::{combine_multicolumn_specs, compose_specs};

    fn wide_spec() -> PivotSpec {
        PivotSpec::cross(
            vec!["Manu", "Type"],
            vec!["Price", "Qty"],
            vec![
                vec![Value::str("Sony"), Value::str("Panasonic")],
                vec![Value::str("TV"), Value::str("VCR")],
            ],
        )
    }

    #[test]
    fn multicolumn_split_roundtrips() {
        let spec = wide_spec();
        let parts = split_multicolumn(&spec, 1).unwrap();
        assert_eq!(parts.first.on, vec!["Price"]);
        assert_eq!(parts.second.on, vec!["Qty"]);
        let back = combine_multicolumn_specs(&parts.first, &parts.second).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn composition_split_roundtrips() {
        let spec = wide_spec();
        let parts = split_composition(&spec, 1).unwrap();
        assert_eq!(parts.first.by, vec!["Type"]);
        assert_eq!(parts.second.by, vec!["Manu"]);
        let back = compose_specs(&parts.first, &parts.second).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn composition_split_rejects_non_cross_product() {
        let spec = PivotSpec::new(
            vec!["Manu", "Type"],
            vec!["Price"],
            vec![
                vec![Value::str("Sony"), Value::str("TV")],
                vec![Value::str("Panasonic"), Value::str("VCR")],
            ],
        );
        assert!(split_composition(&spec, 1).is_err());
    }

    #[test]
    fn split_point_bounds_checked() {
        let spec = wide_spec();
        assert!(split_multicolumn(&spec, 0).is_err());
        assert!(split_multicolumn(&spec, 2).is_err());
        assert!(split_composition(&spec, 0).is_err());
        assert!(split_composition(&spec, 2).is_err());
    }
}
