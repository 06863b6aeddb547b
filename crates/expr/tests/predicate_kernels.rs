//! Differential tests of the compiled predicate forms: for random LIKE
//! patterns, IN-lists and AND/OR/NOT trees over nullable columns, the
//! batch kernels (`filter_batch`), the per-row path (`passes`) and a
//! reference evaluator must select the same rows.
//!
//! The reference is the evaluator as it was before predicates were
//! compiled: a recursive walk over the unbound `Expr` that builds a
//! `Value` per node, with LIKE answered by the shared recursive matcher.

mod common;

use common::like_ref;
use pop_expr::{BoundExpr, CmpOp, Expr, Params};
use pop_types::column::Column;
use pop_types::{ColId, Value};
use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRng};
use std::cmp::Ordering;

/// Columns of every test row: an int, a string and a second int, each
/// nullable (a LIKE column in some tests holds only strings and NULLs).
const WIDTH: usize = 3;

fn layout() -> Vec<ColId> {
    (0..WIDTH).map(|c| ColId::new(0, c)).collect()
}

/// The rows as the typed columns `filter_batch` reads (each typed by its
/// values, a `Value` vector where they mix).
fn columns(rows: &[Vec<Value>]) -> Vec<Column> {
    let mut cols = vec![Column::default(); WIDTH];
    for row in rows {
        for (c, v) in cols.iter_mut().zip(row) {
            c.push(v, rows.len());
        }
    }
    cols
}

fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

fn holds(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

fn bool_or_null(b: Option<bool>) -> Value {
    b.map_or(Value::Null, Value::Bool)
}

/// Three-valued evaluation of the unbound expression (query table 0 only).
fn ref_eval(e: &Expr, row: &[Value]) -> Value {
    match e {
        Expr::Col(c) => row[c.col].clone(),
        Expr::Lit(v) => v.clone(),
        Expr::Cmp(op, a, b) => bool_or_null(
            ref_eval(a, row)
                .sql_cmp(&ref_eval(b, row))
                .map(|o| holds(*op, o)),
        ),
        Expr::And(parts) => {
            let mut saw_null = false;
            for p in parts {
                match truth(&ref_eval(p, row)) {
                    Some(false) => return Value::Bool(false),
                    None => saw_null = true,
                    Some(true) => {}
                }
            }
            bool_or_null((!saw_null).then_some(true))
        }
        Expr::Or(parts) => {
            let mut saw_null = false;
            for p in parts {
                match truth(&ref_eval(p, row)) {
                    Some(true) => return Value::Bool(true),
                    None => saw_null = true,
                    Some(false) => {}
                }
            }
            bool_or_null((!saw_null).then_some(false))
        }
        Expr::Not(e) => bool_or_null(truth(&ref_eval(e, row)).map(|b| !b)),
        Expr::Like(e, pattern) => match ref_eval(e, row) {
            Value::Null => Value::Null,
            Value::Str(s) => Value::Bool(like_ref(&s, pattern)),
            other => panic!("LIKE over {other}"),
        },
        Expr::InList(e, list) => {
            let v = ref_eval(e, row);
            if v.is_null() {
                return Value::Null;
            }
            let mut saw_null = false;
            for item in list {
                match v.sql_cmp(item) {
                    Some(Ordering::Equal) => return Value::Bool(true),
                    None => saw_null = true,
                    _ => {}
                }
            }
            bool_or_null((!saw_null).then_some(false))
        }
        Expr::Between(e, lo, hi) => {
            let v = ref_eval(e, row);
            match (v.sql_cmp(&ref_eval(lo, row)), v.sql_cmp(&ref_eval(hi, row))) {
                (Some(a), Some(b)) => Value::Bool(a != Ordering::Less && b != Ordering::Greater),
                _ => Value::Null,
            }
        }
        Expr::IsNull(e) => Value::Bool(ref_eval(e, row).is_null()),
        other => panic!("not generated: {other:?}"),
    }
}

/// The three answers agree on every row and for every selection: the
/// batch kernel over `sel`, `passes` per row, and the reference.
fn assert_agree(e: &Expr, rows: &[Vec<Value>], sel: &[u32]) -> Result<(), TestCaseError> {
    let bound = BoundExpr::bind(e, &layout()).unwrap();
    let params = Params::none();
    let reference: Vec<u32> = sel
        .iter()
        .copied()
        .filter(|&i| truth(&ref_eval(e, &rows[i as usize])) == Some(true))
        .collect();
    let per_row: Vec<u32> = sel
        .iter()
        .copied()
        .filter(|&i| bound.passes(&rows[i as usize], &params).unwrap())
        .collect();
    let mut batch = sel.to_vec();
    bound
        .filter_batch(&columns(rows), &params, &mut batch)
        .unwrap();
    prop_assert_eq!(&per_row, &reference, "passes vs reference for {}", e);
    prop_assert_eq!(&batch, &reference, "filter_batch vs reference for {}", e);
    for (i, row) in rows.iter().enumerate() {
        prop_assert_eq!(
            bound.eval(row, &params).unwrap(),
            ref_eval(e, row),
            "eval of row {} for {}",
            i,
            e
        );
    }
    Ok(())
}

/// A selection over `n` rows: every row in order, or the rows whose bit
/// is set in `bits`, rotated by `rotate` so the indices are out of order.
fn selection(n: usize, all: bool, bits: u32, rotate: usize) -> Vec<u32> {
    let mut sel: Vec<u32> = (0..n as u32)
        .filter(|&i| all || bits & (1 << i) != 0)
        .collect();
    if !sel.is_empty() {
        let k = rotate % sel.len();
        sel.rotate_left(k);
    }
    sel
}

fn arb_int() -> impl Strategy<Value = Value> {
    let int = || (-4i64..5).prop_map(Value::Int);
    prop_oneof![Just(Value::Null), int(), int(), int()]
}

/// Texts and patterns draw from the same alphabet: multi-byte chars and
/// the wildcards themselves, which a text holds as literals.
const TEXT: &str = "[abé日%_]{0,6}";

fn arb_str() -> impl Strategy<Value = Value> {
    let text = || TEXT.prop_map(Value::str);
    prop_oneof![Just(Value::Null), text(), text(), text()]
}

/// Up to 24 rows of (int, string, int), each column nullable.
fn arb_rows() -> impl Strategy<Value = Vec<Vec<Value>>> {
    prop::collection::vec(
        (arb_int(), arb_str(), arb_int()).prop_map(|(a, s, b)| vec![a, s, b]),
        0..25,
    )
}

/// Any value an IN-list item or a probed column may hold.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-4i64..5).prop_map(Value::Int),
        (-6i64..6).prop_map(|k| Value::Float(k as f64 / 2.0)),
        (-4i32..5).prop_map(Value::Date),
        any::<bool>().prop_map(Value::Bool),
        "[abé]{0,2}".prop_map(Value::str),
    ]
}

/// IN-lists: all ints or all strings (the typed forms) as often as mixed.
fn arb_list() -> impl Strategy<Value = Vec<Value>> {
    prop_oneof![
        prop::collection::vec((-4i64..5).prop_map(Value::Int), 0..5),
        prop::collection::vec("[abé]{0,2}".prop_map(Value::str), 0..5),
        prop::collection::vec(arb_value(), 0..5),
    ]
}

/// Random AND / OR / NOT trees over the three columns, `depth` levels
/// deep at most.
struct PredTree {
    depth: usize,
}

impl PredTree {
    fn leaf(rng: &mut TestRng) -> Expr {
        const OPS: [CmpOp; 6] = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let int_col = Expr::col(0, if rng.usize_in(0..2) == 0 { 0 } else { 2 });
        let op = OPS[rng.usize_in(0..OPS.len())];
        let k = Expr::lit(rng.sample(-4i64..5));
        match rng.usize_in(0..9) {
            0 => Expr::Cmp(op, Box::new(int_col), Box::new(k)),
            1 => Expr::Cmp(op, Box::new(k), Box::new(int_col)),
            2 => Expr::Cmp(op, Box::new(Expr::col(0, 0)), Box::new(int_col)),
            3 => Expr::col(0, 1).like(TEXT.generate(rng)),
            4 => int_col.in_list(arb_list().generate(rng)),
            5 => Expr::col(0, 1).in_list(arb_list().generate(rng)),
            6 => {
                let lo = rng.sample(-4i64..5);
                let hi = rng.sample(-4i64..5);
                int_col.between(Expr::lit(lo), Expr::lit(hi))
            }
            7 => Expr::IsNull(Box::new(int_col)),
            _ => Expr::IsNull(Box::new(Expr::col(0, 1))),
        }
    }

    fn tree(rng: &mut TestRng, depth: usize) -> Expr {
        if depth == 0 || rng.usize_in(0..3) == 0 {
            return Self::leaf(rng);
        }
        let kind = rng.usize_in(0..3);
        let n = rng.usize_in(1..4);
        let mut parts = (0..n).map(|_| Self::tree(rng, depth - 1));
        match kind {
            0 => Expr::And(parts.collect()),
            1 => Expr::Or(parts.collect()),
            _ => parts.next().expect("one part at least").not(),
        }
    }
}

impl Strategy for PredTree {
    type Value = Expr;
    fn generate(&self, rng: &mut TestRng) -> Expr {
        Self::tree(rng, self.depth)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn like_kernels_match_the_reference(
        pattern in TEXT,
        rows in arb_rows(),
        (all, bits, rotate) in (any::<bool>(), any::<u32>(), 0usize..24),
    ) {
        let sel = selection(rows.len(), all, bits, rotate);
        let like = Expr::col(0, 1).like(pattern);
        assert_agree(&like, &rows, &sel)?;
        assert_agree(&like.not(), &rows, &sel)?;
    }

    #[test]
    fn shaped_like_patterns_match_the_reference(
        core in "[abé日]{0,3}",
        (lead, trail) in (0usize..4, 0usize..4),
        around in prop::collection::vec(("[abé日%_]{0,2}", "[abé日%_]{0,2}", any::<bool>()), 0..24),
    ) {
        // Exact / prefix / suffix / infix shapes (and `_`-bearing ones that
        // stay general) around one core, over texts that hold the core at
        // the start, the end, the middle or nowhere.
        let ends = ["", "%", "_", "%%"];
        let pattern = format!("{}{core}{}", ends[lead], ends[trail]);
        let rows: Vec<Vec<Value>> = around
            .into_iter()
            .map(|(pre, post, has_core)| {
                let text = if has_core { format!("{pre}{core}{post}") } else { pre + &post };
                vec![Value::Null, Value::str(text), Value::Null]
            })
            .collect();
        let sel: Vec<u32> = (0..rows.len() as u32).collect();
        let like = Expr::col(0, 1).like(pattern);
        assert_agree(&like, &rows, &sel)?;
        assert_agree(&like.not(), &rows, &sel)?;
    }

    #[test]
    fn in_list_kernels_match_the_reference(
        list in arb_list(),
        probe in prop::collection::vec(arb_value(), 0..16),
    ) {
        // One probed column of any type; the other two are padding.
        let rows: Vec<Vec<Value>> = probe
            .into_iter()
            .map(|v| vec![v, Value::Null, Value::Null])
            .collect();
        let sel: Vec<u32> = (0..rows.len() as u32).collect();
        let in_list = Expr::col(0, 0).in_list(list);
        assert_agree(&in_list, &rows, &sel)?;
        assert_agree(&in_list.not(), &rows, &sel)?;
    }

    #[test]
    fn and_or_not_trees_match_the_reference(
        pred in PredTree { depth: 4 },
        rows in arb_rows(),
        (all, bits, rotate) in (any::<bool>(), any::<u32>(), 0usize..24),
    ) {
        let sel = selection(rows.len(), all, bits, rotate);
        assert_agree(&pred, &rows, &sel)?;
    }
}
