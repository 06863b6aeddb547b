//! Runs the benchmark at smoke scale and holds its output to
//! `BENCHMARK.json`: a renamed or dropped metric or workload fails here
//! instead of drifting silently.

use pop_bench_e2e::json::{self, Json};
use pop_bench_e2e::suite;
use std::collections::BTreeSet;
use std::process::Command;

/// Run the benchmark binary; its last line of standard output, parsed.
fn summary_of(args: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
        .args(args)
        .output()
        .expect("run bench_e2e");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "bench_e2e {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    json::parse(stdout.lines().last().expect("some output")).expect("last line is JSON")
}

fn keys(v: Option<&Json>) -> BTreeSet<String> {
    match v {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

// One test, so the two suites never run at the same time: they share `out/`.
#[test]
fn smoke_output_names_exactly_what_benchmark_json_names() {
    let contract = suite::contract();
    let workloads: BTreeSet<String> = json::names_at(&contract, &["workloads"])
        .into_iter()
        .collect();
    assert_eq!(workloads.len(), 6);

    for (command, section) in [("all", "end_to_end"), ("trace", "per_layer")] {
        let summary = summary_of(&[command, "--smoke"]);
        assert_eq!(
            json::get(&summary, "correct"),
            Some(&Json::Bool(true)),
            "{command}"
        );
        assert_eq!(
            keys(json::get(&summary, "workloads")),
            workloads,
            "{command}"
        );
        for workload in &workloads {
            let metrics = json::at(&summary, &["workloads", workload]);
            let expected: BTreeSet<String> =
                json::names_at(&contract, &[section]).into_iter().collect();
            assert_eq!(keys(metrics), expected, "{command} {workload}");
            for declared in json::array_at(&contract, &[section]) {
                let name = json::str_at(declared, &["name"]).expect("name");
                let path = ["workloads", workload.as_str(), name];
                assert_eq!(
                    json::str_at(&summary, &[&path[..], &["unit"]].concat()),
                    json::str_at(declared, &["unit"]),
                    "{workload} {name}"
                );
                let value = json::f64_at(&summary, &[&path[..], &["value"]].concat());
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload} {name}: {value:?}"
                );
            }
        }
    }
}
