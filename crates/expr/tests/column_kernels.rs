//! Differential tests of the column kernels: `filter_batch` over random
//! typed columns — NULL bitmaps, columns without NULLs, all-NULL columns
//! and one `Mixed` column — must select exactly the rows `passes` accepts
//! row by row, for random selections starting at non-zero offsets (a
//! storage chunk's rows sit at their table positions in the stored
//! columns) and random AND / OR / NOT trees over every kernel shape:
//! `col op lit|param`, `lit op col`, `col op col`, BETWEEN, LIKE, IN, and
//! the row fallback (NOT, IS NULL, arithmetic), with literals of the
//! column's type and of others.

use pop_expr::{ArithOp, BoundExpr, CmpOp, Expr, Params};
use pop_types::column::{Column, Data};
use pop_types::{ColId, Value};
use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRng};

/// The columns of the test table.
const INT: usize = 0;
const INT2: usize = 1;
const FLOAT: usize = 2;
const DATE: usize = 3;
const DATE2: usize = 4;
const STR: usize = 5;
const BOOL: usize = 6;
const MIXED: usize = 7;
const WIDTH: usize = 8;

/// The strings values and patterns draw from (wildcards as literals too).
const TEXTS: [&str; 8] = ["", "a", "b", "ab", "ba", "a%", "_b", "日"];

fn layout() -> Vec<ColId> {
    (0..WIDTH).map(|c| ColId::new(0, c)).collect()
}

/// A non-NULL value of the column's type (any type for `MIXED`).
fn value_of(rng: &mut TestRng, col: usize) -> Value {
    match col {
        INT | INT2 => Value::Int(rng.sample(-4i64..5)),
        FLOAT => match rng.usize_in(0..12) {
            0 => Value::Float(-0.0),
            1 => Value::Float(f64::NAN),
            _ => Value::Float(rng.sample(-8i64..9) as f64 / 2.0),
        },
        DATE | DATE2 => Value::Date(rng.sample(-4i32..5)),
        STR => Value::str(TEXTS[rng.usize_in(0..TEXTS.len())]),
        BOOL => Value::Bool(rng.usize_in(0..2) == 0),
        _ => {
            let col = [INT, FLOAT, DATE, STR, BOOL][rng.usize_in(0..5)];
            value_of(rng, col)
        }
    }
}

/// Rows of the test table and the same values as typed columns, plus a
/// selection of row indices at or after a random offset.
#[derive(Debug)]
struct Table {
    rows: Vec<Vec<Value>>,
    cols: Vec<Column>,
    sel: Vec<u32>,
}

struct Tables;

impl Strategy for Tables {
    type Value = Table;
    fn generate(&self, rng: &mut TestRng) -> Table {
        let n = rng.usize_in(0..40);
        // Per column: no NULLs, some, or only NULLs.
        let null_share: Vec<usize> = (0..WIDTH).map(|_| [0, 4, 1][rng.usize_in(0..3)]).collect();
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|_| {
                (0..WIDTH)
                    .map(|c| match null_share[c] {
                        0 => value_of(rng, c),
                        1 => Value::Null,
                        k if rng.usize_in(0..k) == 0 => Value::Null,
                        _ => value_of(rng, c),
                    })
                    .collect()
            })
            .collect();
        let mut cols = vec![Column::default(); WIDTH];
        for row in &rows {
            for (c, v) in cols.iter_mut().zip(row) {
                c.push(v, n);
            }
        }
        let offset = rng.usize_in(0..n + 1);
        let (all, bits) = (rng.usize_in(0..3) == 0, rng.next_u64());
        let sel = (offset..n)
            .filter(|i| all || bits & (1 << i) != 0)
            .map(|i| i as u32)
            .collect();
        Table { rows, cols, sel }
    }
}

/// Parameter markers the trees may read: `$0` an int, `$1` a float.
fn params() -> Params {
    Params::new(vec![Value::Int(1), Value::Float(0.5)])
}

/// Random predicate trees over every kernel shape, `depth` levels deep at
/// most.
struct Preds {
    depth: usize,
}

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

impl Preds {
    fn leaf(rng: &mut TestRng) -> Expr {
        let op = OPS[rng.usize_in(0..OPS.len())];
        let cmp = |a: Expr, b: Expr| Expr::Cmp(op, Box::new(a), Box::new(b));
        let typed = [INT, FLOAT, DATE, STR, BOOL][rng.usize_in(0..5)];
        let any_col = rng.usize_in(0..WIDTH);
        let lit = |rng: &mut TestRng, c: usize| Expr::lit(value_of(rng, c));
        match rng.usize_in(0..16) {
            // col op lit of the column's type, and flipped.
            0 => cmp(Expr::col(0, typed), lit(rng, typed)),
            1 => cmp(lit(rng, typed), Expr::col(0, typed)),
            // col op param.
            2 => cmp(Expr::col(0, INT), Expr::Param(rng.usize_in(0..2))),
            // col op col of one type.
            3 => {
                let (a, b) =
                    [(INT, INT2), (DATE, DATE2), (FLOAT, FLOAT), (STR, STR)][rng.usize_in(0..4)];
                cmp(Expr::col(0, a), Expr::col(0, b))
            }
            // Cross-type: an Int column against a Float literal, a Date
            // column against an Int one, columns of two types, any
            // column against a literal of any type (NULL included).
            4 => cmp(Expr::col(0, INT), lit(rng, FLOAT)),
            5 => cmp(Expr::col(0, DATE), lit(rng, INT)),
            6 => cmp(
                Expr::col(0, INT),
                Expr::col(0, [FLOAT, DATE, MIXED][rng.usize_in(0..3)]),
            ),
            7 => {
                let v = if rng.usize_in(0..4) == 0 {
                    Value::Null
                } else {
                    value_of(rng, MIXED)
                };
                cmp(Expr::col(0, any_col), Expr::lit(v))
            }
            // BETWEEN: typed bounds, bounds of another type or NULL, a
            // column bound.
            8 => {
                let c = [INT, DATE, FLOAT][rng.usize_in(0..3)];
                Expr::col(0, c).between(lit(rng, c), lit(rng, c))
            }
            9 => {
                let bound = |rng: &mut TestRng| match rng.usize_in(0..3) {
                    0 => Expr::lit(Value::Null),
                    1 => lit(rng, MIXED),
                    _ => Expr::col(0, INT2),
                };
                Expr::col(0, any_col).between(bound(rng), bound(rng))
            }
            10 => Expr::col(0, STR).like(
                (0..rng.usize_in(0..4))
                    .map(|_| ["a", "b", "%", "_", "日"][rng.usize_in(0..5)])
                    .collect::<String>(),
            ),
            // IN: typed lists on their columns, a NULL item, mixed items,
            // typed lists on columns of other types.
            11 => {
                let c = [INT, STR, FLOAT, DATE, MIXED][rng.usize_in(0..5)];
                let from = [INT, STR, MIXED][rng.usize_in(0..3)];
                let mut items: Vec<Value> = (0..rng.usize_in(0..5))
                    .map(|_| value_of(rng, from))
                    .collect();
                if rng.usize_in(0..3) == 0 {
                    items.push(Value::Null);
                }
                Expr::col(0, c).in_list(items)
            }
            12 => Expr::IsNull(Box::new(Expr::col(0, any_col))),
            // Arithmetic (the row fallback), and a constant comparison.
            13 => cmp(
                Expr::Arith(
                    [ArithOp::Add, ArithOp::Mul][rng.usize_in(0..2)],
                    Box::new(Expr::col(0, INT)),
                    Box::new(Expr::col(0, [INT2, FLOAT][rng.usize_in(0..2)])),
                ),
                lit(rng, INT),
            ),
            14 => cmp(lit(rng, INT), lit(rng, MIXED)),
            _ => cmp(Expr::col(0, MIXED), lit(rng, typed)),
        }
    }

    fn tree(rng: &mut TestRng, depth: usize) -> Expr {
        if depth == 0 || rng.usize_in(0..3) == 0 {
            return Self::leaf(rng);
        }
        let kind = rng.usize_in(0..3);
        let mut parts = (0..rng.usize_in(1..4)).map(|_| Self::tree(rng, depth - 1));
        match kind {
            0 => Expr::And(parts.collect()),
            1 => Expr::Or(parts.collect()),
            _ => parts.next().expect("one part at least").not(),
        }
    }
}

impl Strategy for Preds {
    type Value = Expr;
    fn generate(&self, rng: &mut TestRng) -> Expr {
        Self::tree(rng, self.depth)
    }
}

/// `filter_batch` over the columns selects what `passes` does per row.
fn assert_agree(e: &Expr, t: &Table, params: &Params) -> Result<(), TestCaseError> {
    let bound = BoundExpr::bind(e, &layout()).unwrap();
    let per_row: Vec<u32> = t
        .sel
        .iter()
        .copied()
        .filter(|&i| bound.passes(&t.rows[i as usize], params).unwrap())
        .collect();
    let mut batch = t.sel.clone();
    bound.filter_batch(&t.cols, params, &mut batch).unwrap();
    prop_assert_eq!(&batch, &per_row, "filter_batch vs passes for {}", e);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn kernels_select_what_passes_selects(t in Tables, pred in Preds { depth: 3 }) {
        assert_agree(&pred, &t, &params())?;
        assert_agree(&pred.clone().not(), &t, &params())?;
    }
}

#[test]
fn the_table_has_every_column_form() {
    // The generator's columns take every form the kernels branch on.
    let mut rng = TestRng::from_name("column forms");
    let (mut bitmap, mut no_bitmap, mut all_null, mut mixed) = (false, false, false, false);
    for _ in 0..64 {
        let t = Tables.generate(&mut rng);
        for c in &t.cols {
            match c.data() {
                Data::Null(n) if *n > 0 => all_null = true,
                Data::Mixed(_) => mixed = true,
                Data::Int(v) if !v.is_empty() => {
                    bitmap |= c.has_null_bitmap();
                    no_bitmap |= !c.has_null_bitmap();
                }
                _ => {}
            }
        }
    }
    assert!(bitmap && no_bitmap && all_null && mixed);
}

#[test]
fn a_missing_param_is_an_error() {
    let t = Tables.generate(&mut TestRng::from_name("missing param"));
    let sel: Vec<u32> = (0..t.rows.len() as u32).collect();
    assert!(!sel.is_empty());
    for e in [
        Expr::col(0, INT).lt(Expr::Param(2)),
        Expr::Param(2).ge(Expr::col(0, DATE)),
        Expr::col(0, FLOAT).between(Expr::lit(0i64), Expr::Param(2)),
        Expr::col(0, STR)
            .like("a%")
            .or(Expr::col(0, INT).eq(Expr::Param(2))),
    ] {
        let bound = BoundExpr::bind(&e, &layout()).unwrap();
        let mut batch = sel.clone();
        assert!(
            bound.filter_batch(&t.cols, &params(), &mut batch).is_err(),
            "{e}"
        );
    }
}

#[test]
fn like_over_a_non_string_is_the_same_error_on_both_paths() {
    let rows = [
        vec![Value::str("ab")],
        vec![Value::Null],
        vec![Value::Int(7)],
        vec![Value::Float(1.5)],
    ];
    let mut col = Column::default();
    for r in &rows {
        col.push(&r[0], 4);
    }
    assert!(matches!(col.data(), Data::Mixed(_)));
    let bound = BoundExpr::bind(&Expr::col(0, 0).like("a%"), &[ColId::new(0, 0)]).unwrap();
    let per_row = rows
        .iter()
        .map(|r| bound.passes(r, &Params::none()))
        .find(Result::is_err);
    let mut sel = vec![0, 1, 2, 3];
    let batch = bound.filter_batch(&[col], &Params::none(), &mut sel);
    assert_eq!(
        batch,
        Err(per_row.unwrap().unwrap_err()),
        "the first non-string names it"
    );
}
