//! Static plan lint over every shipped view definition.
//!
//! Runs the `gpivot-analyze` analyzer over the paper's three TPC-H
//! evaluation views and the plans the bundled examples register
//! (Figure 1's ItemInfo pivot, Figure 2's payment crosstab), then emits
//! one JSON document with the per-plan reports. The CI `plan-lint` job
//! gates on the exit code: any `Error`-severity diagnostic fails the run.
//!
//! ```text
//! plan-lint [--out PATH] [--quiet]
//!
//!   --out    output path (default PLAN_LINT.json)
//!   --quiet  suppress the rendered per-plan trees on stderr
//! ```

use gpivot_algebra::{PivotSpec, Plan};
use gpivot_analyze::{analyze, AnalysisReport};
use gpivot_storage::{Catalog, DataType, Schema, Table, Value};
use gpivot_tpch::{gen, views};
use std::fmt::Write as _;
use std::sync::Arc;

fn main() {
    let mut out_path = String::from("PLAN_LINT.json");
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().unwrap_or_else(|| die("--out needs a path")),
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                println!("usage: plan-lint [--out PATH] [--quiet]");
                return;
            }
            other => die(&format!("unknown argument `{other}`")),
        }
    }

    // Schema-only catalogs: the analyzer only reads schemas, so empty
    // tables are enough — no data generation.
    let tpch = tpch_catalog();
    let examples = example_catalog();

    let cases: Vec<(&str, Plan, &Catalog)> = vec![
        ("tpch/view1", views::view1(), &tpch),
        ("tpch/view2", views::view2(views::VIEW2_THRESHOLD), &tpch),
        ("tpch/view3", views::view3(), &tpch),
        ("examples/quickstart", quickstart_view(), &examples),
        ("examples/auction_crosstab", figure2_view(), &examples),
    ];

    let mut plans_json = String::new();
    let mut total_errors = 0usize;
    let mut total_warnings = 0usize;
    let mut first = true;
    for (name, plan, catalog) in &cases {
        let report: AnalysisReport = analyze(plan, *catalog);
        let errors = report.errors().count();
        let warnings = report.warnings().count();
        total_errors += errors;
        total_warnings += warnings;
        eprintln!(
            "{name}: {} nodes, {} pivots, {errors} errors, {warnings} warnings",
            report.node_count, report.pivot_count,
        );
        if !quiet && !report.is_clean() {
            eprintln!("{}", report.render(plan));
        }
        if !first {
            plans_json.push_str(",\n");
        }
        first = false;
        let _ = write!(
            plans_json,
            "    {{\"name\": \"{name}\", \"report\": {}}}",
            report.to_json()
        );
    }

    let doc = format!(
        "{{\n  \"bench\": \"plan_lint\",\n  \"plan_count\": {},\n  \
         \"total_errors\": {total_errors},\n  \"total_warnings\": {total_warnings},\n  \
         \"clean\": {},\n  \"plans\": [\n{plans_json}\n  ]\n}}\n",
        cases.len(),
        total_errors == 0,
    );
    std::fs::write(&out_path, &doc).unwrap_or_else(|e| die(&format!("write {out_path}: {e}")));
    eprintln!("wrote {out_path}");
    if total_errors > 0 {
        eprintln!("plan lint FAILED: {total_errors} error-severity diagnostics");
        std::process::exit(1);
    }
}

/// The TPC-H table schemas the evaluation views read, with no rows.
fn tpch_catalog() -> Catalog {
    let mut c = Catalog::new();
    for (name, schema) in [
        ("customer", gen::customer_schema()),
        ("orders", gen::orders_schema()),
        ("lineitem", gen::lineitem_schema()),
        ("part", gen::part_schema()),
    ] {
        c.register(name, Table::new(schema))
            .unwrap_or_else(|e| die(&format!("register {name}: {e}")));
    }
    c
}

/// Schemas for the plans the examples register (Figure 1 / Figure 2).
fn example_catalog() -> Catalog {
    let iteminfo = Schema::from_pairs_keyed(
        &[
            ("AuctionID", DataType::Int),
            ("Attribute", DataType::Str),
            ("Value", DataType::Str),
        ],
        &["AuctionID", "Attribute"],
    )
    .expect("iteminfo schema");
    let payment = Schema::from_pairs_keyed(
        &[
            ("ID", DataType::Int),
            ("Payment", DataType::Str),
            ("Price", DataType::Int),
        ],
        &["ID", "Payment"],
    )
    .expect("payment schema");
    let product = Schema::from_pairs_keyed(
        &[
            ("PID", DataType::Int),
            ("Manu", DataType::Str),
            ("Type", DataType::Str),
        ],
        &["PID"],
    )
    .expect("product schema");
    let mut c = Catalog::new();
    for (name, schema) in [
        ("iteminfo", iteminfo),
        ("payment", payment),
        ("product", product),
    ] {
        c.register(name, Table::new(Arc::new(schema)))
            .unwrap_or_else(|e| die(&format!("register {name}: {e}")));
    }
    c
}

/// The quickstart example's view: Figure 1's ItemInfo pivot.
fn quickstart_view() -> Plan {
    Plan::scan("iteminfo").gpivot(PivotSpec::simple(
        "Attribute",
        "Value",
        vec![Value::str("Manufacturer"), Value::str("Type")],
    ))
}

/// The auction_crosstab example's view: Figure 2's two-level crosstab.
fn figure2_view() -> Plan {
    Plan::scan("payment")
        .gpivot(PivotSpec::simple(
            "Payment",
            "Price",
            vec![Value::str("Credit"), Value::str("ByAir")],
        ))
        .join(Plan::scan("product"), vec![("ID", "PID")])
        .group_by(
            &["Manu", "Type"],
            vec![
                gpivot_algebra::AggSpec::sum("Credit**Price", "CreditSum"),
                gpivot_algebra::AggSpec::sum("ByAir**Price", "ByAirSum"),
            ],
        )
        .gpivot(PivotSpec::new(
            vec!["Type"],
            vec!["CreditSum", "ByAirSum"],
            vec![vec![Value::str("TV")], vec![Value::str("VCR")]],
        ))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}
