//! Quickstart: build a small database, run a query under POP, inspect the
//! execution report.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pop::{PopConfig, PopExecutor};
use pop_expr::{Expr, Params};
use pop_plan::{AggFunc, QueryBuilder};
use pop_storage::{Catalog, IndexKind};
use pop_types::{ColId, DataType, Schema, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Create tables.
    let catalog = Catalog::new();
    catalog.create_table(
        "customer",
        Schema::from_pairs(&[
            ("cid", DataType::Int),
            ("region", DataType::Str),
            ("segment", DataType::Int),
        ]),
        (0..2000).map(|i| {
            vec![
                Value::Int(i),
                Value::str(["NORTH", "SOUTH", "EAST", "WEST"][(i % 4) as usize]),
                Value::Int(i % 10),
            ]
        }),
    )?;
    catalog.create_table(
        "orders",
        Schema::from_pairs(&[
            ("oid", DataType::Int),
            ("cust", DataType::Int),
            ("amount", DataType::Float),
        ]),
        (0..40_000).map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i % 2000),
                Value::Float(((i * 37) % 500) as f64),
            ]
        }),
    )?;
    // Indexes make index nested-loop joins available to the optimizer.
    catalog.create_index("orders", "cust", IndexKind::Hash)?;
    catalog.create_index("customer", "cid", IndexKind::Hash)?;

    // 2. Create the executor (analyzes statistics) with default POP
    //    settings: LC + LCEM checkpoints, at most 3 re-optimizations.
    let exec = PopExecutor::new(catalog, PopConfig::default())?;

    // 3. Build a query: total order amount per segment for one region.
    let mut b = QueryBuilder::new();
    let c = b.table("customer");
    let o = b.table("orders");
    b.join(c, 0, o, 1);
    b.filter(c, Expr::col(c, 1).eq(Expr::lit("NORTH")));
    b.aggregate(
        &[(c, 2)],
        vec![AggFunc::Count, AggFunc::Sum(ColId::new(o, 2))],
    );
    b.order_by(0, false);
    let query = b.build()?;

    // 4. Inspect the plan...
    println!("plan:\n{}", exec.explain(&query, &Params::none())?);

    // 5. ...and run it.
    let result = exec.run(&query, &Params::none())?;
    println!("segment  orders  total_amount");
    for row in &result.rows {
        println!("{:>7}  {:>6}  {:>12}", row[0], row[1], row[2]);
    }
    println!(
        "\nwork: {:.0} units, re-optimizations: {}",
        result.report.total_work, result.report.reopt_count
    );
    Ok(())
}
