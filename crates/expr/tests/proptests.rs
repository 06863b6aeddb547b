//! Property-based tests for expression evaluation.

mod common;

use common::like_ref;
use pop_expr::{BoundExpr, CmpOp, Expr, LikePattern, Params};
use pop_types::{ColId, Value};
use proptest::prelude::*;

fn like_match(text: &str, pattern: &str) -> bool {
    LikePattern::new(pattern).matches(text)
}

proptest! {
    #[test]
    fn like_matches_reference(
        // Multi-byte chars, and the wildcards as literals in the text.
        text in "[abé日%_]{0,8}",
        pat in "[abé日%_]{0,6}",
    ) {
        prop_assert_eq!(like_match(&text, &pat), like_ref(&text, &pat), "{:?}", LikePattern::new(&pat));
    }

    #[test]
    fn like_percent_always_matches(text in "\\PC{0,16}") {
        prop_assert!(like_match(&text, "%"));
    }

    #[test]
    fn like_self_match(text in "[a-z0-9 ]{0,12}") {
        // A pattern equal to the text (no wildcards) always matches.
        prop_assert!(like_match(&text, &text));
    }
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        (-1e9f64..1e9).prop_map(Value::Float),
        any::<bool>().prop_map(Value::Bool),
        "[a-z]{0,5}".prop_map(Value::str),
        (-5000i32..5000).prop_map(Value::Date),
    ]
}

fn bind(e: &Expr) -> BoundExpr {
    BoundExpr::bind(e, &[ColId::new(0, 0), ColId::new(0, 1)]).unwrap()
}

proptest! {
    #[test]
    fn comparison_totality_and_antisymmetry(a in arb_value(), b in arb_value()) {
        // sql_cmp is None iff either side is NULL.
        let c = a.sql_cmp(&b);
        prop_assert_eq!(c.is_none(), a.is_null() || b.is_null());
        if let Some(ord) = c {
            prop_assert_eq!(b.sql_cmp(&a), Some(ord.reverse()));
        }
        // Total order: Ord is consistent with itself reversed.
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
    }

    #[test]
    fn and_or_are_commutative(a in arb_value(), b in arb_value(), x in arb_value(), y in arb_value()) {
        let row1 = vec![a, b];
        let lhs = Expr::col(0, 0).lt(Expr::lit(0i64));
        let rhs = Expr::col(0, 1).gt(Expr::lit(0i64));
        let _ = (x, y);
        let and_ab = bind(&lhs.clone().and(rhs.clone())).eval(&row1, &Params::none()).unwrap();
        let and_ba = bind(&rhs.clone().and(lhs.clone())).eval(&row1, &Params::none()).unwrap();
        prop_assert_eq!(and_ab, and_ba);
        let or_ab = bind(&lhs.clone().or(rhs.clone())).eval(&row1, &Params::none()).unwrap();
        let or_ba = bind(&rhs.or(lhs)).eval(&row1, &Params::none()).unwrap();
        prop_assert_eq!(or_ab, or_ba);
    }

    #[test]
    fn de_morgan_holds(a in arb_value(), b in arb_value()) {
        // NOT (p AND q) == (NOT p) OR (NOT q) in three-valued logic.
        let row = vec![a, b];
        let p = Expr::col(0, 0).le(Expr::lit(10i64));
        let q = Expr::col(0, 1).ge(Expr::lit(-10i64));
        let lhs = bind(&p.clone().and(q.clone()).not()).eval(&row, &Params::none()).unwrap();
        let rhs = bind(&p.not().or(q.not())).eval(&row, &Params::none()).unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn double_negation(a in arb_value()) {
        let row = vec![a, Value::Null];
        let p = Expr::col(0, 0).eq(Expr::lit(3i64));
        let once = bind(&p.clone()).eval(&row, &Params::none()).unwrap();
        let twice = bind(&p.not().not()).eval(&row, &Params::none()).unwrap();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn between_equals_conjunction(v in arb_value(), lo in -100i64..100, hi in -100i64..100) {
        let row = vec![v, Value::Null];
        let between = bind(&Expr::col(0, 0).between(Expr::lit(lo), Expr::lit(hi)))
            .eval(&row, &Params::none())
            .unwrap();
        let conj = bind(
            &Expr::col(0, 0)
                .ge(Expr::lit(lo))
                .and(Expr::col(0, 0).le(Expr::lit(hi))),
        )
        .eval(&row, &Params::none())
        .unwrap();
        prop_assert_eq!(between, conj);
    }

    #[test]
    fn in_list_equals_disjunction(v in arb_value(), items in prop::collection::vec(-5i64..5, 0..4)) {
        let row = vec![v, Value::Null];
        let list: Vec<Value> = items.iter().map(|i| Value::Int(*i)).collect();
        let in_list = bind(&Expr::col(0, 0).in_list(list))
            .eval(&row, &Params::none())
            .unwrap();
        let disj = if items.is_empty() {
            // x IN () is false unless x is NULL (then NULL per our semantics
            // ... empty IN list: evaluates to false for non-null).
            let x = &row[0];
            if x.is_null() { Value::Null } else { Value::Bool(false) }
        } else {
            let mut e = Expr::col(0, 0).eq(Expr::lit(items[0]));
            for i in &items[1..] {
                e = e.or(Expr::col(0, 0).eq(Expr::lit(*i)));
            }
            bind(&e).eval(&row, &Params::none()).unwrap()
        };
        prop_assert_eq!(in_list, disj);
    }

    #[test]
    fn eval_never_panics_on_numeric_cmps(
        a in arb_value(),
        b in arb_value(),
        op in prop_oneof![
            Just(CmpOp::Eq), Just(CmpOp::Ne), Just(CmpOp::Lt),
            Just(CmpOp::Le), Just(CmpOp::Gt), Just(CmpOp::Ge)
        ],
    ) {
        let row = vec![a, b];
        let e = Expr::Cmp(op, Box::new(Expr::col(0, 0)), Box::new(Expr::col(0, 1)));
        let _ = bind(&e).eval(&row, &Params::none()).unwrap();
    }

    #[test]
    fn fingerprint_is_stable_under_conjunct_permutation(
        k1 in -10i64..10, k2 in -10i64..10, k3 in -10i64..10,
    ) {
        let p1 = Expr::col(0, 0).eq(Expr::lit(k1));
        let p2 = Expr::col(0, 1).lt(Expr::lit(k2));
        let p3 = Expr::col(0, 0).gt(Expr::lit(k3));
        let a = p1.clone().and(p2.clone()).and(p3.clone());
        let b = p3.and(p1).and(p2);
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
