//! Every workload in turn, one child process each (`all`, `trace`), and
//! the repeatability check (`check-noise`). The children are this same
//! executable run with `--workload`; the parent reads the run records
//! they leave under `out/`.

use crate::json::{self, Json};
use crate::workload::{self, Options, WORKLOADS};
use std::process::Command;

/// `BENCHMARK.json`, one directory above the benchmark's own.
pub fn contract() -> Json {
    let path = workload::bench_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Run one workload in a child process; its run record and whether it
/// exited cleanly.
fn child(workload: &str, opts: &Options, trace: bool, bless: bool) -> (Json, bool) {
    let mut cmd = Command::new(std::env::current_exe().expect("own path"));
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    if bless {
        cmd.arg("--bless");
    }
    let ok = cmd.status().expect("spawn child").success();
    let file = format!("{}-{workload}.json", if trace { "trace" } else { "run" });
    let path = workload::out_dir().join(file);
    let record = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| json::parse(&text))
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    (record, ok)
}

fn metric(record: &Json, name: &str) -> f64 {
    json::f64_at(record, &["metrics", name, "value"]).unwrap_or(f64::NAN)
}

/// All six workloads, end to end (`trace == false`) or traced. The last
/// line printed is one JSON object with every workload's metrics.
pub fn all(opts: &Options, trace: bool, bless: bool) -> i32 {
    let mut ok = true;
    let mut records = Vec::new();
    for w in &WORKLOADS {
        let (record, clean) = child(w.name, opts, trace, bless);
        ok &= clean;
        records.push((w.name, record));
    }
    let mut derived = Vec::new();
    if !trace {
        let of = |workload: &str, field: fn(&Json) -> f64| {
            let (_, record) = records.iter().find(|(w, _)| *w == workload).expect("ran");
            field(record)
        };
        let suite_s: fn(&Json) -> f64 = |r| metric(r, "suite_s");
        let work: fn(&Json) -> f64 = |r| json::f64_at(r, &["total_work"]).unwrap_or(f64::NAN);
        derived = vec![
            // The paper's Figure 15 asked in milliseconds: above 1, POP's
            // re-optimizations paid for themselves in wall time too.
            (
                "pop_over_static",
                of("dmv.static", suite_s) / of("dmv.pop", suite_s),
            ),
            (
                "pop_over_static_work",
                of("dmv.static", work) / of("dmv.pop", work),
            ),
            (
                "tpch_storage_wait_s",
                of("tpch.paged", suite_s) - of("tpch.mem", suite_s),
            ),
            (
                "dmv_storage_wait_s",
                of("dmv.paged", suite_s) - of("dmv.pop", suite_s),
            ),
        ];
        println!("derived (not gated):");
        for (name, value) in &derived {
            println!("  {name:<28} {value:>14.4}");
        }
    }
    let summary = json::object([
        ("correct", Json::Bool(ok)),
        (
            "workloads",
            json::object(
                records
                    .iter()
                    .map(|(w, r)| (*w, json::get(r, "metrics").cloned().unwrap_or(Json::Null))),
            ),
        ),
        (
            "derived",
            json::object(derived.into_iter().map(|(k, v)| (k, Json::Num(v)))),
        ),
    ]);
    println!("{}", summary.render());
    i32::from(!ok)
}

/// Every workload twice, the second round in reverse order; per
/// (workload, end-to-end metric) the relative difference beside its bound.
/// Non-zero exit if any difference exceeds its bound. A metric that does
/// not repeat needs more passes (`--seconds`), not a wider bound.
pub fn check_noise(opts: &Options) -> i32 {
    let contract = contract();
    let bounds: Vec<(String, f64)> = json::array_at(&contract, &["end_to_end"])
        .iter()
        .map(|m| {
            (
                json::str_at(m, &["name"]).expect("metric name").to_string(),
                json::f64_at(m, &["bound"]).expect("metric bound"),
            )
        })
        .collect();
    let mut ok = true;
    let first: Vec<_> = WORKLOADS
        .iter()
        .map(|w| child(w.name, opts, false, false))
        .collect();
    let mut second: Vec<_> = WORKLOADS
        .iter()
        .rev()
        .map(|w| child(w.name, opts, false, false))
        .collect();
    second.reverse();

    println!(
        "{:<12} {:<18} {:>10} {:>22} {:>10} {:>22} {:>8} {:>6}",
        "workload", "metric", "first", "[q1, q3]", "second", "[q1, q3]", "diff", "bound"
    );
    for ((w, (a, a_ok)), (b, b_ok)) in WORKLOADS.iter().zip(&first).zip(&second) {
        ok &= a_ok & b_ok;
        for (name, bound) in &bounds {
            let (va, vb) = (metric(a, name), metric(b, name));
            let diff = (vb - va).abs() / va;
            let quartiles = |r: &Json| match (
                json::f64_at(r, &["metrics", name, "q1"]),
                json::f64_at(r, &["metrics", name, "q3"]),
            ) {
                (Some(q1), Some(q3)) => format!("[{q1:.4}, {q3:.4}]"),
                _ => "-".to_string(),
            };
            let within = diff <= *bound;
            ok &= within;
            println!(
                "{:<12} {:<18} {:>10.4} {:>22} {:>10.4} {:>22} {:>7.1}% {:>5.0}%{}",
                w.name,
                name,
                va,
                quartiles(a),
                vb,
                quartiles(b),
                diff * 100.0,
                bound * 100.0,
                if within { "" } else { "  EXCEEDED" }
            );
        }
    }
    i32::from(!ok)
}
