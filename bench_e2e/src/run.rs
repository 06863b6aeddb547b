//! The end-to-end run of one workload: five set-ups, one warm-up pass
//! whose results are checked, then timed passes for `--seconds`; one
//! client, queries back to back through `PopExecutor::run`, tracing off.

use crate::clock::{self, Clock, Timing};
use crate::json::{self, Json};
use crate::verify::{self, Fingerprint};
use crate::workload::{self, Dataset, Engine, Options, Workload, PAGE_SIZE};
use pop::{QueryResult, RunReport};
use pop_expr::Params;
use pop_storage::Table;
use std::collections::BTreeSet;
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

/// One reported number with the sample behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Sample the value summarizes (empty for single readings).
    pub sample: Vec<f64>,
    /// The same statistic over raw wall times, where `value` is scaled to
    /// reference memory speed.
    pub raw: Option<f64>,
}

impl Metric {
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            sample: Vec::new(),
            raw: None,
        }
    }

    pub fn median_of(name: &'static str, unit: &'static str, sample: Vec<f64>) -> Metric {
        Metric {
            name,
            unit,
            value: clock::median(&sample),
            sample,
            raw: None,
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("value", Json::Num(self.value)),
            ("unit", json::string(self.unit)),
            ("n", Json::Num(self.sample.len().max(1) as f64)),
        ];
        if !self.sample.is_empty() {
            fields.push(("q1", Json::Num(clock::quantile(&self.sample, 0.25))));
            fields.push(("q3", Json::Num(clock::quantile(&self.sample, 0.75))));
        }
        if let Some(raw) = self.raw {
            fields.push(("raw_wall", Json::Num(raw)));
        }
        json::object(fields)
    }

    fn print(&self) {
        let mut line = format!("  {:<28} {:>14.4} {:<8}", self.name, self.value, self.unit);
        if !self.sample.is_empty() {
            line += &format!(
                " n={:<4} q1={:.4} q3={:.4}",
                self.sample.len(),
                clock::quantile(&self.sample, 0.25),
                clock::quantile(&self.sample, 0.75)
            );
        }
        if let Some(raw) = self.raw {
            line += &format!(" raw_wall={raw:.4}");
        }
        println!("{line}");
    }
}

/// One `PopExecutor::run` call of a pass.
#[derive(Debug)]
pub struct Outcome {
    pub timing: Timing,
    pub result: Result<QueryResult, String>,
}

/// The workload's queries, once each, in their fixed order. Results are
/// kept until the pass ends, so dropping them is never timed.
pub fn timed_pass(clock: &mut Clock, engine: &Engine) -> Vec<Outcome> {
    let mut probe = None;
    engine
        .queries
        .iter()
        .map(|(_, spec)| {
            let (result, timing, after) =
                clock.time(probe, || engine.exec.run(spec, &Params::none()));
            probe = Some(after);
            Outcome {
                timing,
                result: result.map_err(|e| e.to_string()),
            }
        })
        .collect()
}

/// Run the queries once untimed-for-metrics and check every result:
/// against the plain-loop oracle (TPC-H Q1/Q6), the goldens and sibling
/// workloads. Returns each query's fingerprint (`None` if it failed) and
/// the failures as `(query, why)`.
pub fn warm_up_and_check(
    clock: &mut Clock,
    engine: &Engine,
    w: &Workload,
    opts: &Options,
    bless: bool,
) -> (Vec<Option<Fingerprint>>, Vec<(String, String)>) {
    let outcomes = timed_pass(clock, engine);
    let mut failures = Vec::new();
    let mut fingerprints = Vec::new();
    for ((name, spec), outcome) in engine.queries.iter().zip(&outcomes) {
        match &outcome.result {
            Ok(r) => fingerprints.push(Some(verify::fingerprint(spec, &r.rows))),
            Err(e) => {
                fingerprints.push(None);
                failures.push((name.clone(), format!("error: {e}")));
            }
        }
    }
    let named: Vec<(String, Fingerprint)> = engine
        .queries
        .iter()
        .zip(&fingerprints)
        .filter_map(|((name, _), fp)| fp.map(|fp| (name.clone(), fp)))
        .collect();
    if w.dataset == Dataset::Tpch {
        for (query, expected) in verify::tpch_oracle(engine.exec.catalog()) {
            let got = named
                .iter()
                .find(|(name, _)| name == query)
                .map(|(_, fp)| *fp);
            if got != Some(expected) {
                failures.push((
                    query.to_string(),
                    format!("engine {got:?}, plain-loop oracle {expected:?}"),
                ));
            }
        }
    }
    failures.extend(verify::check_against_files(
        &opts.data_key(w.dataset),
        w.name,
        &named,
        bless,
    ));
    (fingerprints, failures)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(workload::bench_dir())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        )
}

/// What every output file says about the run that produced it.
pub fn run_header(w: &Workload, opts: &Options, mode: &str) -> Vec<(&'static str, Json)> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    vec![
        ("workload", json::string(w.name)),
        ("mode", json::string(mode)),
        ("seed", Json::Num(opts.seed as f64)),
        ("smoke", Json::Bool(opts.smoke)),
        ("seconds", Json::Num(opts.seconds)),
        ("dataset", json::string(w.dataset.name())),
        ("scale", Json::Num(opts.scale(w.dataset))),
        (
            "backend",
            json::string(if w.pool_bytes.is_some() {
                "paged"
            } else {
                "mem"
            }),
        ),
        (
            "pool_bytes",
            w.pool_bytes.map_or(Json::Null, |b| Json::Num(b as f64)),
        ),
        ("pop", Json::Bool(w.pop)),
        ("threads", Json::Num(w.threads as f64)),
        ("nproc", Json::Num(nproc as f64)),
        ("oversubscribed", Json::Bool(w.threads > nproc)),
        ("clients", Json::Num(1.0)),
        ("ref_probe_ms", Json::Num(clock::REF_PROBE_MS)),
        (
            "git_commit",
            json::string(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", json::string(command_line("rustc", &["-V"]))),
    ]
}

/// Read every row of `table` through `Table::cursor`; returns the pages
/// first touched (x `PAGE_SIZE` = the table's bytes).
pub fn scan(table: &Table) -> u64 {
    let mut cursor = table.cursor(0, table.row_count() as u64).expect("cursor");
    let mut pages = 0;
    while let Some(chunk) = cursor.next_chunk(4096).expect("scan") {
        pages += chunk.new_pages;
        std::hint::black_box(chunk.rows);
    }
    pages
}

/// The dataset's largest table.
pub fn largest_table(engine: &Engine, dataset: Dataset) -> Arc<Table> {
    engine
        .exec
        .catalog()
        .table(dataset.largest_table().0)
        .expect("largest table")
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The last line of standard output: what the driver reads.
fn final_line(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    json::object([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            json::object(metrics.iter().map(|m| {
                (
                    m.name,
                    json::object([
                        ("value", Json::Num(m.value)),
                        ("unit", json::string(m.unit)),
                    ]),
                )
            })),
        ),
    ])
    .render()
}

/// How many query executions a list of `(query, why)` failures stands for
/// when each query ran once.
pub fn distinct_queries(failures: &[(String, String)]) -> usize {
    failures
        .iter()
        .map(|(q, _)| q)
        .collect::<BTreeSet<_>>()
        .len()
}

/// Print the metrics, write the run record to `out/<file>`, and print the
/// final line. Returns the process exit code.
pub fn report(
    file: &str,
    mut record: Vec<(&'static str, Json)>,
    metrics: &[Metric],
    attempted: usize,
    failed: usize,
    failures: &[(String, String)],
) -> i32 {
    for m in metrics {
        m.print();
    }
    for (query, why) in failures {
        println!("FAILED {query}: {why}");
    }
    let fail_share = failed as f64 / attempted as f64;
    println!("fail_share {fail_share} ({failed} of {attempted} query executions)");
    record.push(("attempted", Json::Num(attempted as f64)));
    record.push(("failed", Json::Num(failed as f64)));
    record.push(("fail_share", Json::Num(fail_share)));
    record.push((
        "failures",
        Json::Arr(
            failures
                .iter()
                .map(|(q, why)| json::string(format!("{q}: {why}")))
                .collect(),
        ),
    ));
    record.push((
        "metrics",
        json::object(metrics.iter().map(|m| (m.name, m.to_json()))),
    ));
    let path = workload::out_dir().join(file);
    std::fs::create_dir_all(workload::out_dir()).expect("create out/");
    std::fs::write(&path, json::object(record).render_pretty() + "\n").expect("write run record");
    println!("run record: {}", path.display());
    println!("{}", final_line(attempted, failed, metrics));
    i32::from(failed > 0)
}

/// Everything `RunReport` says that the per-query rows cite.
fn report_row(report: &RunReport) -> [(&'static str, Json); 3] {
    [
        ("reopt_count", Json::Num(report.reopt_count as f64)),
        ("total_work", Json::Num(report.total_work)),
        (
            "est_cost",
            Json::Num(report.steps.last().map_or(f64::NAN, |s| s.est_cost)),
        ),
    ]
}

/// One column of the timings: raw wall or reference-speed milliseconds.
type Pick = fn(&Timing) -> f64;

/// The samples behind the three latency metrics.
struct Latency {
    /// Seconds per pass.
    suite_s: Vec<f64>,
    /// Each query's median over passes, in milliseconds.
    query_medians: Vec<f64>,
    /// Every (query, pass) sample, in milliseconds.
    samples: Vec<f64>,
}

impl Latency {
    /// `passes[pass][query]`, read through `pick`.
    fn of(passes: &[Vec<Timing>], pick: Pick) -> Latency {
        let queries = passes[0].len();
        Latency {
            suite_s: passes
                .iter()
                .map(|p| p.iter().map(pick).sum::<f64>() / 1e3)
                .collect(),
            query_medians: (0..queries)
                .map(|q| clock::median(&passes.iter().map(|p| pick(&p[q])).collect::<Vec<_>>()))
                .collect(),
            samples: passes.iter().flatten().map(pick).collect(),
        }
    }
}

/// The end-to-end run (`--trace 0`). Returns the exit code.
pub fn end_to_end(w: &Workload, opts: &Options, bless: bool) -> i32 {
    let mut clock = Clock::default();
    // The first probes fault the buffer in.
    for _ in 0..3 {
        clock.probe();
    }

    let mut setups = Vec::new();
    let mut engine = None;
    for _ in 0..opts.setups() {
        drop(engine.take());
        let (e, timing, _) = clock.time(None, || workload::setup(w, opts));
        setups.push(timing);
        engine = Some(e);
    }
    let engine = engine.expect("at least one set-up");
    let table = largest_table(&engine, w.dataset);
    let (table_rows, table_bytes) = (table.row_count(), scan(&table) * PAGE_SIZE as u64);

    let (fingerprints, mut failures) = warm_up_and_check(&mut clock, &engine, w, opts, bless);
    let mut attempted = engine.queries.len();
    let mut failed = distinct_queries(&failures);

    let mut passes: Vec<Vec<Timing>> = Vec::new();
    let mut last_reports: Vec<Option<RunReport>> = vec![None; engine.queries.len()];
    let started = Instant::now();
    while passes.len() < opts.min_passes() || started.elapsed().as_secs_f64() < opts.seconds {
        let outcomes = timed_pass(&mut clock, &engine);
        attempted += outcomes.len();
        let mut timings = Vec::with_capacity(outcomes.len());
        for (i, outcome) in outcomes.into_iter().enumerate() {
            let (name, spec) = &engine.queries[i];
            timings.push(outcome.timing);
            match outcome.result {
                Ok(r) => {
                    let fp = verify::fingerprint(spec, &r.rows);
                    if fingerprints[i] != Some(fp) {
                        failed += 1;
                        failures.push((
                            name.clone(),
                            format!(
                                "pass {}: {fp:?}, warm-up {:?}",
                                passes.len(),
                                fingerprints[i]
                            ),
                        ));
                    }
                    last_reports[i] = Some(r.report);
                }
                Err(e) => {
                    failed += 1;
                    failures.push((name.clone(), format!("pass {}: {e}", passes.len())));
                }
            }
        }
        passes.push(timings);
    }
    let rss = peak_rss_mb();

    let scaled = Latency::of(&passes, Timing::ms);
    let raw = Latency::of(&passes, |t| t.raw_ms);
    let setup_s = |pick: Pick| -> Vec<f64> { setups.iter().map(|t| pick(t) / 1e3).collect() };
    let metrics = vec![
        Metric {
            raw: Some(clock::median(&raw.suite_s)),
            ..Metric::median_of("suite_s", "s", scaled.suite_s)
        },
        Metric {
            name: "query_ms_geomean",
            unit: "ms",
            value: clock::geomean(&scaled.query_medians),
            sample: scaled.query_medians.clone(),
            raw: Some(clock::geomean(&raw.query_medians)),
        },
        Metric {
            name: "query_ms_p90",
            unit: "ms",
            value: clock::percentile_nearest_rank(&scaled.samples, 90.0),
            sample: scaled.samples,
            raw: Some(clock::percentile_nearest_rank(&raw.samples, 90.0)),
        },
        Metric {
            raw: Some(clock::median(&setup_s(|t| t.raw_ms))),
            ..Metric::median_of("setup_s", "s", setup_s(Timing::ms))
        },
        Metric::single("peak_rss_mb", "MiB", rss),
    ];

    println!(
        "{} seed {}: {} queries x {} timed passes, one client, {} thread(s); largest table {} rows, {} bytes{}",
        w.name,
        opts.seed,
        engine.queries.len(),
        passes.len(),
        w.threads,
        table_rows,
        table_bytes,
        w.pool_bytes.map_or(String::new(), |pool| format!(
            " = {:.1} x the {pool}-byte pool",
            table_bytes as f64 / pool as f64
        )),
    );
    let queries: Vec<Json> = engine
        .queries
        .iter()
        .enumerate()
        .map(|(q, (name, _))| {
            let ms: Vec<f64> = passes.iter().map(|p| p[q].ms()).collect();
            let mut row = vec![
                ("name", json::string(name.as_str())),
                ("median_ms", Json::Num(clock::median(&ms))),
                ("min_ms", Json::Num(clock::quantile(&ms, 0.0))),
                ("max_ms", Json::Num(clock::quantile(&ms, 1.0))),
                ("raw_wall_median_ms", Json::Num(raw.query_medians[q])),
                (
                    "rows",
                    fingerprints[q].map_or(Json::Null, |fp| Json::Num(fp.rows as f64)),
                ),
            ];
            if let Some(report) = &last_reports[q] {
                row.extend(report_row(report));
            }
            json::object(row)
        })
        .collect();
    let io = engine.exec.catalog().io_stats();

    let mut record = run_header(w, opts, "end_to_end");
    record.extend([
        ("timed_passes", Json::Num(passes.len() as f64)),
        ("setups", Json::Num(setups.len() as f64)),
        (
            "p90_samples",
            Json::Num((passes.len() * engine.queries.len()) as f64),
        ),
        ("largest_table_rows", Json::Num(table_rows as f64)),
        ("largest_table_bytes", Json::Num(table_bytes as f64)),
        (
            "probe_ms_median",
            Json::Num(clock::median(&clock.probes_ms)),
        ),
        (
            "probe_ms_max",
            Json::Num(clock::quantile(&clock.probes_ms, 1.0)),
        ),
        (
            "total_work",
            Json::Num(
                last_reports
                    .iter()
                    .flatten()
                    .map(|r| r.total_work)
                    .sum::<f64>(),
            ),
        ),
        (
            "pool_hit_rate",
            Json::Num(clock::share(
                io.pool_hits as f64,
                (io.pool_hits + io.pool_misses) as f64,
            )),
        ),
        ("queries", Json::Arr(queries)),
        (
            "samples",
            Json::Arr(
                passes
                    .iter()
                    .map(|p| {
                        Json::Arr(
                            p.iter()
                                .map(|t| {
                                    Json::Arr(vec![Json::Num(t.raw_ms), Json::Num(t.probe_ms)])
                                })
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    report(
        &format!("run-{}.json", w.name),
        record,
        &metrics,
        attempted,
        failed,
        &failures,
    )
}
