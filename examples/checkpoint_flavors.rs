//! Tour of the five checkpoint flavors (§3, Table 1): run the same
//! misestimated query under each flavor and compare how (and when) the
//! violation is detected and recovered from.
//!
//! ```text
//! cargo run --release --example checkpoint_flavors
//! ```

use pop::{CheckFlavor, FlavorSet, PopConfig, PopExecutor};
use pop_expr::{Expr, Params};
use pop_plan::QueryBuilder;
use pop_storage::{Catalog, IndexKind};
use pop_types::{DataType, Schema, Value};

fn db() -> Catalog {
    let cat = Catalog::new();
    // customer.grp_a == grp_b == grp_c (a perfect correlation): the
    // optimizer multiplies three 1/4 selectivities and expects 78 rows,
    // but 1250 qualify.
    cat.create_table(
        "customer",
        Schema::from_pairs(&[
            ("cid", DataType::Int),
            ("grp_a", DataType::Int),
            ("grp_b", DataType::Int),
            ("grp_c", DataType::Int),
        ]),
        (0..5000).map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i % 4),
                Value::Int(i % 4),
                Value::Int(i % 4),
            ]
        }),
    )
    .unwrap();
    cat.create_table(
        "orders",
        Schema::from_pairs(&[("oid", DataType::Int), ("cust", DataType::Int)]),
        (0..50_000).map(|i| vec![Value::Int(i), Value::Int(i % 1000)]),
    )
    .unwrap();
    cat.create_index("orders", "cust", IndexKind::Hash).unwrap();
    cat.create_index("customer", "cid", IndexKind::Hash)
        .unwrap();
    cat
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut b = QueryBuilder::new();
    let c = b.table("customer");
    let o = b.table("orders");
    b.join(c, 0, o, 1);
    b.filter(
        c,
        Expr::col(c, 1)
            .eq(Expr::lit(3i64))
            .and(Expr::col(c, 2).eq(Expr::lit(3i64)))
            .and(Expr::col(c, 3).eq(Expr::lit(3i64))),
    );
    b.project(&[(c, 0), (o, 0)]);
    let query = b.build()?;

    let flavors: [(&str, FlavorSet); 5] = [
        ("none (static)", FlavorSet::none()),
        ("LC + LCEM (default)", FlavorSet::default()),
        ("ECB only", FlavorSet::only(CheckFlavor::Ecb)),
        ("ECDC only", FlavorSet::only(CheckFlavor::Ecdc)),
        (
            "everything",
            FlavorSet {
                lc: true,
                lcem: true,
                ecb: true,
                ecwc: true,
                ecdc: true,
            },
        ),
    ];

    println!(
        "{:<22} {:>10} {:>7} {:>10} {:>18}",
        "flavors", "work", "reopts", "rows", "violation"
    );
    for (label, set) in flavors {
        let mut cfg = PopConfig {
            enabled: set.any(),
            ..PopConfig::default()
        };
        cfg.optimizer.flavors = set;
        let exec = PopExecutor::new(db(), cfg)?;
        let res = exec.run(&query, &Params::none())?;
        let violation = res
            .report
            .steps
            .iter()
            .filter_map(|s| s.violation.as_ref())
            .map(|v| format!("{} ({:?})", v.flavor, v.observed))
            .next()
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{:<22} {:>10.0} {:>7} {:>10} {:>18}",
            label,
            res.report.total_work,
            res.report.reopt_count,
            res.rows.len(),
            violation
        );
    }
    println!("\nAll configurations return the same 12,500 rows; they differ in");
    println!("when the misestimate is caught and how much work is reusable.");
    Ok(())
}
