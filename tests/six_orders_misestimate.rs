//! A misestimate that does not change the best plan costs nothing at the
//! default configuration.
//!
//! A DMV-style predicate over four perfectly correlated columns is
//! misestimated by **six orders of magnitude** (est `100 000 / 100⁴ =
//! 0.001`, actual ≈ 1000). The plan's hash build carries an LC CHECK whose
//! validity range already admits the actual count: the plan stays the
//! best one despite the lie. Default POP must therefore run it to the end
//! as static optimization does — no re-optimization, and the same work
//! within 1 %. A runtime trigger that fires on the size of a misestimate
//! rather than on a validity range would only add re-plans and throw
//! work away here.

use pop::{PopConfig, PopExecutor};
use pop_expr::{Expr, Params};
use pop_plan::{QueryBuilder, QuerySpec};
use pop_storage::Catalog;
use pop_types::{DataType, Schema, Value};

const VEHICLES: i64 = 100_000;
const OWNERS: i64 = 500;

/// splitmix64 finalizer: decorrelates row position from column value.
fn mix(i: u64) -> u64 {
    let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The shared group of one vehicle: make, model, trim and body are all
/// this one value — perfect correlation, 100 distinct values per column.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn group(i: i64) -> i64 {
    (mix(i as u64) % 100) as i64
}

fn dmv_style_db() -> Catalog {
    let cat = Catalog::new();
    cat.create_table(
        "vehicles",
        Schema::from_pairs(&[
            ("vid", DataType::Int),
            ("make", DataType::Int),
            ("model", DataType::Int),
            ("trim_level", DataType::Int),
            ("body", DataType::Int),
            ("owner", DataType::Int),
        ]),
        (0..VEHICLES).map(|i| {
            let g = group(i);
            vec![
                Value::Int(i),
                Value::Int(g),
                Value::Int(g),
                Value::Int(g),
                Value::Int(g),
                Value::Int(i % OWNERS),
            ]
        }),
    )
    .unwrap();
    cat.create_table(
        "owners",
        Schema::from_pairs(&[("oid", DataType::Int), ("region", DataType::Int)]),
        (0..OWNERS).map(|i| vec![Value::Int(i), Value::Int(i % 10)]),
    )
    .unwrap();
    cat
}

/// Every vehicle matches exactly one owner, so the join returns exactly
/// the vehicles of group 7.
fn expected_rows() -> usize {
    (0..VEHICLES).filter(|&i| group(i) == 7).count()
}

/// `vehicles ⋈ owners` with the four-way correlated predicate: the
/// independence assumption estimates `100 000 × (1/100)⁴ = 0.001` rows
/// where reality delivers about a thousand.
fn correlated_query() -> QuerySpec {
    let mut b = QueryBuilder::new();
    let v = b.table("vehicles");
    let o = b.table("owners");
    b.join(v, 5, o, 0);
    b.filter(
        v,
        Expr::col(v, 1)
            .eq(Expr::lit(7i64))
            .and(Expr::col(v, 2).eq(Expr::lit(7i64)))
            .and(Expr::col(v, 3).eq(Expr::lit(7i64)))
            .and(Expr::col(v, 4).eq(Expr::lit(7i64))),
    );
    b.build().unwrap()
}

fn run(config: PopConfig) -> pop::QueryResult {
    let exec = PopExecutor::new(dmv_style_db(), config).unwrap();
    let res = exec.run(&correlated_query(), &Params::none()).unwrap();
    assert_eq!(res.rows.len(), expected_rows(), "wrong answer");
    res
}

#[test]
fn default_pop_stays_within_one_percent_of_static() {
    let pop = run(PopConfig::default());
    let fixed = run(PopConfig::without_pop());
    assert_eq!(
        pop.report.reopt_count,
        0,
        "the plan is the best one at the actual count; nothing should re-plan:\n{}",
        pop.report.summary()
    );
    let (p, f) = (pop.report.total_work, fixed.report.total_work);
    assert!(
        p <= f * 1.01,
        "POP {p:.0} work units vs static {f:.0}:\n{}",
        pop.report.summary()
    );
}
