//! Helpers shared by the integration tests.

use pop_types::Value;

/// Assert that two result multisets are equal: same row count, rows
/// compared in sorted order, every value exact except floats, which agree
/// to 1e-9 relative (absolute below magnitude 1) — two plans may add a
/// SUM's floats in a different order.
pub fn assert_rows_equal(mut a: Vec<Vec<Value>>, mut b: Vec<Vec<Value>>, what: &str) {
    a.sort();
    b.sort();
    assert_eq!(a.len(), b.len(), "{what}: row count differs");
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra.len(), rb.len(), "{what}: arity differs");
        for (va, vb) in ra.iter().zip(rb) {
            match (va, vb) {
                (Value::Float(x), Value::Float(y)) => {
                    let tol = 1e-9 * x.abs().max(y.abs()).max(1.0);
                    assert!(x == y || (x - y).abs() <= tol, "{what}: {x} vs {y}");
                }
                _ => assert_eq!(va, vb, "{what}: value differs"),
            }
        }
    }
}
