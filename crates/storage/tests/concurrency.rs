//! Catalog and table thread-safety: the POP driver registers temp MVs
//! while scans hold snapshots; these tests exercise that pattern under
//! real concurrency.

use pop_storage::{Catalog, Table, TempMv};
use pop_types::{ColId, DataType, Schema, Value};
use std::sync::Arc;
use std::thread;

fn schema() -> Schema {
    Schema::from_pairs(&[("a", DataType::Int)])
}

#[test]
fn snapshots_are_immune_to_concurrent_inserts() {
    let cat = Catalog::new();
    let t = cat
        .create_table("t", schema(), (0..1000).map(|i| vec![Value::Int(i)]))
        .unwrap();
    let snap = t.snapshot();
    let handles: Vec<_> = (0..4)
        .map(|k| {
            let t = t.clone();
            thread::spawn(move || {
                for i in 0..250 {
                    t.insert(vec![vec![Value::Int(10_000 + k * 1000 + i)]])
                        .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(snap.len(), 1000, "snapshot changed under writers");
    assert_eq!(t.row_count(), 2000);
}

#[test]
fn concurrent_temp_mv_registration_and_lookup() {
    let cat = Catalog::new();
    let writers: Vec<_> = (0..4)
        .map(|k| {
            let cat = cat.clone();
            thread::spawn(move || {
                for i in 0..50 {
                    let id = cat.allocate_temp_id();
                    let table = Arc::new(Table::new(
                        id,
                        format!("__mv_{k}_{i}"),
                        Schema::from_pairs(&[("a", DataType::Int)]),
                        vec![vec![Value::Int(i)]],
                    ));
                    cat.register_temp_mv(TempMv {
                        table,
                        tables: (k * 50 + i + 1) as u64,
                        layout: vec![ColId::new(0, 0)],
                        actual_card: 1,
                        lineage: None,
                    });
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let cat = cat.clone();
            thread::spawn(move || {
                let mut seen = 0;
                for _ in 0..200 {
                    seen += cat.temp_mvs().len();
                }
                seen
            })
        })
        .collect();
    for h in writers {
        h.join().unwrap();
    }
    for h in readers {
        h.join().unwrap();
    }
    assert_eq!(cat.temp_mv_count(), 200);
    cat.clear_temp_mvs();
    assert_eq!(cat.temp_mv_count(), 0);
    // Every MV table was dropped from the catalog too.
    assert!(cat.table_names().iter().all(|n| !n.starts_with("__mv_")));
}

#[test]
fn table_ids_are_unique_under_concurrent_allocation() {
    let cat = Catalog::new();
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let cat = cat.clone();
            thread::spawn(move || (0..100).map(|_| cat.allocate_temp_id()).collect::<Vec<_>>())
        })
        .collect();
    let mut all: Vec<u32> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    let n = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), n, "duplicate table ids allocated");
}
