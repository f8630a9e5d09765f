//! # gpivot-bench
//!
//! Shared scaffolding for regenerating the paper's evaluation (§7).
//!
//! Every figure in the paper's evaluation section is a *maintenance cost vs.
//! delta fraction* plot comparing refresh strategies on one of three views.
//! [`PreparedView`] packages a catalog + compiled materialized view so a
//! single maintenance run can be timed in isolation (view compilation and
//! initial materialization are not part of the measured refresh, matching
//! the paper's setup where the view already exists); [`FigureSpec`] declares
//! a figure's view, workload and strategy set; [`run_figure`] produces the
//! measured series.

pub mod criterion_common;

use gpivot_core::maintain::view::MaterializedView;
use gpivot_core::{SourceDeltas, Strategy};
use gpivot_exec::Executor;
use gpivot_storage::Catalog;
use gpivot_tpch::{
    delete_fraction, generate, insert_new_rows, insert_updates_only, views, TpchConfig,
};
use std::time::{Duration, Instant};

/// Delta fractions (of `lineitem`) swept by every figure, mirroring the
/// paper's x-axis of "percentage of change on the Lineitem table".
pub const FRACTIONS: [f64; 5] = [0.001, 0.005, 0.01, 0.02, 0.05];

/// Default scale factor for the harness (1.0 ≈ 15k orders / ~40k lineitems;
/// the laptop-scale stand-in for the paper's TPC-H SF 1.0).
pub const DEFAULT_SCALE: f64 = 1.0;

/// Build the benchmark catalog at a scale factor.
pub fn bench_catalog(scale: f64) -> Catalog {
    generate(&TpchConfig {
        empty_order_fraction: 0.25,
        ..TpchConfig::scale(scale)
    })
}

/// The workload shapes of §7.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Delete a fraction of lineitem (Figures 33, 37, 40).
    Delete,
    /// Inserts that only update existing view rows (Figure 34).
    InsertUpdates,
    /// Inserts that only create new view rows (Figures 35, 38*, 41).
    InsertNew,
}

impl Workload {
    /// Generate the deltas for this workload at a fraction.
    pub fn deltas(&self, catalog: &Catalog, fraction: f64, seed: u64) -> SourceDeltas {
        match self {
            Workload::Delete => delete_fraction(catalog, "lineitem", fraction, seed),
            Workload::InsertUpdates => insert_updates_only(catalog, fraction, seed),
            Workload::InsertNew => insert_new_rows(catalog, fraction, seed),
        }
    }

    /// Label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Workload::Delete => "delete",
            Workload::InsertUpdates => "insert(update-only)",
            Workload::InsertNew => "insert(new-rows)",
        }
    }
}

/// A catalog + compiled materialized view, ready for timed refreshes.
pub struct PreparedView {
    catalog: Catalog,
    view: MaterializedView,
}

impl PreparedView {
    /// Compile + materialize (untimed).
    pub fn new(
        catalog: Catalog,
        plan: gpivot_algebra::Plan,
        strategy: Strategy,
    ) -> gpivot_core::Result<Self> {
        let view =
            MaterializedView::create_with("bench", plan, strategy, &catalog, &Executor::new())?;
        Ok(PreparedView { catalog, view })
    }

    /// The pre-state catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Rows currently materialized.
    pub fn view_len(&self) -> usize {
        self.view.len()
    }

    /// One timed maintenance run on a fresh copy of the view (the catalog
    /// stays at the pre-state, so runs are independent and repeatable).
    pub fn timed_run(&self, deltas: &SourceDeltas) -> gpivot_core::Result<Duration> {
        let mut view = self.view.clone();
        let start = Instant::now();
        view.maintain_with(&self.catalog, deltas, &Executor::new())?;
        Ok(start.elapsed())
    }

    /// Untimed run returning the refreshed view copy (for verification).
    pub fn run(&self, deltas: &SourceDeltas) -> gpivot_core::Result<MaterializedView> {
        let mut view = self.view.clone();
        view.maintain_with(&self.catalog, deltas, &Executor::new())?;
        Ok(view)
    }
}

/// Declaration of one paper figure.
pub struct FigureSpec {
    /// Figure number in the paper.
    pub figure: u32,
    /// Human title.
    pub title: &'static str,
    /// View plan factory.
    pub view: fn() -> gpivot_algebra::Plan,
    /// Workload shape.
    pub workload: Workload,
    /// Strategies compared, in the paper's order.
    pub strategies: &'static [Strategy],
}

/// All evaluation figures of the paper, in order.
pub fn figure_specs() -> Vec<FigureSpec> {
    use Strategy::*;
    fn v1() -> gpivot_algebra::Plan {
        views::view1()
    }
    fn v2() -> gpivot_algebra::Plan {
        views::view2(views::VIEW2_THRESHOLD)
    }
    fn v3() -> gpivot_algebra::Plan {
        views::view3()
    }
    vec![
        FigureSpec {
            figure: 33,
            title: "View (1), deletion: recompute vs insert/delete vs update rules",
            view: v1,
            workload: Workload::Delete,
            strategies: &[Recompute, InsertDelete, PivotUpdate],
        },
        FigureSpec {
            figure: 34,
            title: "View (1), insertion causing only view updates",
            view: v1,
            workload: Workload::InsertUpdates,
            strategies: &[Recompute, InsertDelete, PivotUpdate],
        },
        FigureSpec {
            figure: 35,
            title: "View (1), insertion causing only view inserts",
            view: v1,
            workload: Workload::InsertNew,
            strategies: &[Recompute, InsertDelete, PivotUpdate],
        },
        FigureSpec {
            figure: 37,
            title: "View (2), deletion: + select-pushdown vs combined σ/GPIVOT rules",
            view: v2,
            workload: Workload::Delete,
            strategies: &[
                Recompute,
                InsertDelete,
                SelectPushdownUpdate,
                SelectPivotUpdate,
            ],
        },
        FigureSpec {
            figure: 38,
            title: "View (2), insertion",
            view: v2,
            workload: Workload::InsertNew,
            strategies: &[
                Recompute,
                InsertDelete,
                SelectPushdownUpdate,
                SelectPivotUpdate,
            ],
        },
        FigureSpec {
            figure: 40,
            title: "View (3), deletion: recompute vs GROUPBY-insdel vs combined rules",
            view: v3,
            workload: Workload::Delete,
            strategies: &[Recompute, GroupByInsDel, GroupPivotUpdate],
        },
        FigureSpec {
            figure: 41,
            title: "View (3), insertion",
            view: v3,
            workload: Workload::InsertNew,
            strategies: &[Recompute, GroupByInsDel, GroupPivotUpdate],
        },
    ]
}

/// One measured series cell.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub fraction: f64,
    pub strategy: Strategy,
    pub duration: Duration,
    pub delta_rows: u64,
}

/// Run one figure: for each fraction × strategy, the median of `repeats`
/// timed maintenance runs.
pub fn run_figure(
    spec: &FigureSpec,
    catalog: &Catalog,
    fractions: &[f64],
    repeats: usize,
) -> gpivot_core::Result<Vec<Measurement>> {
    let mut out = Vec::new();
    for strategy in spec.strategies {
        let prepared = PreparedView::new(catalog.clone(), (spec.view)(), *strategy)?;
        for &fraction in fractions {
            let deltas = spec
                .workload
                .deltas(catalog, fraction, 0xF16 + spec.figure as u64);
            let mut times: Vec<Duration> = (0..repeats.max(1))
                .map(|_| prepared.timed_run(&deltas))
                .collect::<gpivot_core::Result<_>>()?;
            times.sort();
            out.push(Measurement {
                fraction,
                strategy: *strategy,
                duration: times[times.len() / 2],
                delta_rows: deltas.total_changes(),
            });
        }
    }
    Ok(out)
}

/// Render measurements as CSV (`figure,workload,fraction,strategy,ms,delta_rows`)
/// for plotting.
pub fn render_csv(spec: &FigureSpec, measurements: &[Measurement]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("figure,workload,fraction,strategy,ms,delta_rows\n");
    for m in measurements {
        let _ = writeln!(
            out,
            "{},{},{},{},{:.4},{}",
            spec.figure,
            spec.workload.label(),
            m.fraction,
            m.strategy.id(),
            m.duration.as_secs_f64() * 1e3,
            m.delta_rows,
        );
    }
    out
}

/// Render measurements as the paper-style series table (rows = fractions,
/// columns = strategies, cells = seconds).
pub fn render_table(spec: &FigureSpec, measurements: &[Measurement]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "Figure {}: {}", spec.figure, spec.title);
    let _ = writeln!(
        out,
        "workload: {}, x-axis: fraction of lineitem changed",
        spec.workload.label()
    );
    let _ = write!(out, "{:>10}", "fraction");
    for s in spec.strategies {
        let _ = write!(out, " {:>24}", s.id());
    }
    let _ = writeln!(out);
    let mut fractions: Vec<f64> = measurements.iter().map(|m| m.fraction).collect();
    fractions.sort_by(|a, b| a.total_cmp(b));
    fractions.dedup();
    for f in fractions {
        let _ = write!(out, "{:>9.2}%", f * 100.0);
        for s in spec.strategies {
            let m = measurements
                .iter()
                .find(|m| m.fraction == f && m.strategy == *s)
                .expect("measured");
            let _ = write!(out, " {:>22.3}ms", m.duration.as_secs_f64() * 1e3);
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_view_timed_run_is_repeatable() {
        let catalog = bench_catalog(0.02);
        let p = PreparedView::new(catalog.clone(), views::view1(), Strategy::PivotUpdate).unwrap();
        let deltas = Workload::Delete.deltas(&catalog, 0.01, 1);
        let before = p.view_len();
        let _ = p.timed_run(&deltas).unwrap();
        // The prepared view itself is untouched between runs.
        assert_eq!(p.view_len(), before);
    }

    #[test]
    fn figure_specs_cover_all_seven_figures() {
        let figs: Vec<u32> = figure_specs().iter().map(|s| s.figure).collect();
        assert_eq!(figs, vec![33, 34, 35, 37, 38, 40, 41]);
    }

    #[test]
    fn csv_rendering() {
        let catalog = bench_catalog(0.02);
        let specs = figure_specs();
        let m = run_figure(&specs[0], &catalog, &[0.01], 1).unwrap();
        let csv = render_csv(&specs[0], &m);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "figure,workload,fraction,strategy,ms,delta_rows"
        );
        assert_eq!(csv.lines().count(), 1 + m.len());
        assert!(csv.contains("33,delete,0.01,recompute,"));
    }

    #[test]
    fn run_figure_smoke() {
        let catalog = bench_catalog(0.02);
        let specs = figure_specs();
        let m = run_figure(&specs[0], &catalog, &[0.01], 1).unwrap();
        assert_eq!(m.len(), 3); // three strategies × one fraction
        let table = render_table(&specs[0], &m);
        assert!(table.contains("Figure 33"));
        assert!(table.contains("recompute"));
    }
}
