//! The traced run (`--trace 1`): spans recorded here, in the benchmark,
//! around calls into each layer's public functions, and the per-layer
//! metrics summed from them. Never mixed into the end-to-end numbers.
//!
//! Per query a traced pass calls, in order, `plan`, `lint_plan` +
//! `certify`, `execute_plan` (that plan once, checks off) and `run`; each
//! traced pass is followed by an untraced one, and the ratio of the two
//! is the tracing overhead. Set-up pieces and a raw table scan are traced
//! once per run.

use crate::clock::{self, now_ns, share, Clock};
use crate::json::{self, Json};
use crate::run::{self, Metric};
use crate::verify;
use crate::workload::{self, Engine, Options, Workload, PAGE_SIZE};
use pop::{
    certify, lint_plan, Catalog, LintContext, PopExecutor, QueryResult, QuerySpec, RunReport,
};
use pop_expr::Params;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval. Spans of one query share a `trace_id`
/// (`workload/pass/query`); `parent` indexes the span that caused it.
#[derive(Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    trace_id: String,
}

/// Spans in memory, written out when the run ends.
#[derive(Debug, Default)]
struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    fn record(
        &mut self,
        name: &'static str,
        (start_ns, end_ns): (u64, u64),
        parent: Option<usize>,
        trace_id: &str,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            trace_id: trace_id.to_string(),
        });
        self.spans.len() - 1
    }

    /// Open a span now; `close` ends it.
    fn open(&mut self, name: &'static str, parent: Option<usize>, trace_id: &str) -> usize {
        let now = now_ns();
        self.record(name, (now, now), parent, trace_id)
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end_ns = now_ns();
    }

    /// Run `f` inside a span; returns its value and the span's milliseconds.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        trace_id: &str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let span = self.open(name, parent, trace_id);
        let value = f();
        self.close(span);
        (value, self.ms(span))
    }

    fn ms(&self, span: usize) -> f64 {
        (self.spans[span].end_ns - self.spans[span].start_ns) as f64 / 1e6
    }

    /// Each span's duration minus the part its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(parent) = s.parent {
                own[parent] = own[parent].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    fn to_json(&self) -> Json {
        let own = self.self_ns();
        Json::Arr(
            self.spans
                .iter()
                .zip(own)
                .map(|(s, own)| {
                    json::object([
                        ("name", json::string(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("self_ns", Json::Num(own as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("trace_id", json::string(s.trace_id.as_str())),
                    ])
                })
                .collect(),
        )
    }
}

/// What one query's four traced calls returned.
struct Traced {
    plan_ms: f64,
    lint_ms: f64,
    execute_ms: f64,
    run_ms: f64,
    executed: Result<QueryResult, String>,
    ran: Result<QueryResult, String>,
}

/// Per-pass sums, one entry per traced pass under each name.
#[derive(Default)]
struct Sums(BTreeMap<&'static str, Vec<f64>>);

impl Sums {
    fn add(&mut self, pass: usize, name: &'static str, value: f64) {
        let sample = self.0.entry(name).or_default();
        sample.resize(pass + 1, 0.0);
        sample[pass] += value;
    }

    /// The sum under `name` in traced pass `pass` (0 if nothing was added).
    fn at(&self, name: &str, pass: usize) -> f64 {
        self.0
            .get(name)
            .and_then(|sample| sample.get(pass))
            .copied()
            .unwrap_or(0.0)
    }

    fn sample(&self, name: &str) -> Vec<f64> {
        self.0.get(name).cloned().unwrap_or_else(|| vec![0.0])
    }

    fn median(&self, name: &str) -> f64 {
        clock::median(&self.sample(name))
    }

    fn metric(&self, name: &'static str, unit: &'static str) -> Metric {
        Metric::median_of(name, unit, self.sample(name))
    }
}

/// Counts the engine reports for one `run`, added to the pass's sums.
fn count_report(sums: &mut Sums, pass: usize, report: &RunReport) {
    for step in &report.steps {
        if let Some(memo) = &step.memo {
            sums.add(
                pass,
                "optimizer.memo_rederived",
                memo.groups_rederived as f64,
            );
            sums.add(pass, "optimizer.memo_reused", memo.groups_reused as f64);
        }
        sums.add(
            pass,
            "exec.checks_evaluated",
            step.check_events.len() as f64,
        );
        sums.add(
            pass,
            "exec.monitors_installed",
            step.monitors_installed as f64,
        );
        sums.add(pass, "exec.batches", step.batches_emitted as f64);
        sums.add(pass, "exec.par_regions", step.parallel.len() as f64);
        for worker in step.parallel.iter().flat_map(|region| &region.workers) {
            sums.add(pass, "exec.par_steals", worker.steals as f64);
            sums.add(pass, "par_queue_wait_ns", worker.queue_wait_ns as f64);
            sums.add(pass, "par_compute_ns", worker.compute_ns as f64);
        }
        if step.violation.is_some() {
            sums.add(pass, "wasted_work", step.work());
        }
    }
    let reshaped = report
        .steps
        .windows(2)
        .filter(|pair| pair[0].shape != pair[1].shape)
        .count();
    sums.add(pass, "core.reopts", report.reopt_count as f64);
    sums.add(pass, "useful_reopts", reshaped as f64);
    sums.add(pass, "total_work", report.total_work);
    sums.add(
        pass,
        "core.sample_vets",
        f64::from(u8::from(report.sample_vet.is_some())),
    );
    if let Some(io) = &report.storage {
        sums.add(pass, "pool_hits", io.pool_hits as f64);
        sums.add(pass, "pool_misses", io.pool_misses as f64);
        sums.add(pass, "storage.pages_read", io.pages_read as f64);
        sums.add(pass, "storage.evictions", io.evictions as f64);
        sums.add(pass, "storage.pages_written", io.pages_written as f64);
        sums.add(pass, "storage.wal_bytes", io.wal_bytes as f64);
    }
}

/// Rows of the base tables a query names: what its scans have to read.
fn input_rows(catalog: &Catalog, spec: &QuerySpec) -> f64 {
    spec.tables
        .iter()
        .map(|t| catalog.table(&t.table).map_or(0, |t| t.row_count()) as f64)
        .sum()
}

/// Set the engine up with its pieces as spans, then probe the storage
/// layer: the largest table scanned where the pool is far smaller than it
/// (cold) and where it fits (warm), reloaded into a fresh catalog, and
/// indexed there. Returns the engine, the once-per-run metrics, and the
/// table's rows and bytes.
fn traced_setup(
    w: &Workload,
    opts: &Options,
    clock: &mut Clock,
    tracer: &mut Tracer,
) -> (Engine, Vec<Metric>, f64, u64) {
    let setup_id = format!("{}/setup", w.name);
    let setup_span = tracer.open("setup", None, &setup_id);
    let (engine, timing, _) = clock.time(None, || workload::setup(w, opts));
    tracer.close(setup_span);
    let generate = tracer.record(
        "gen.generate",
        engine.generate_ns,
        Some(setup_span),
        &setup_id,
    );
    tracer.record("core.new", engine.new_ns, Some(setup_span), &setup_id);
    let generate_ms = tracer.ms(generate) * timing.speed();
    let exec = &engine.exec;
    let ((), analyze_ms) = clock_span(clock, tracer, "stats.analyze", &setup_id, || {
        exec.stats().analyze_all(exec.catalog()).expect("analyze");
    });

    let probe_id = format!("{}/storage-probe", w.name);
    let (table_name, column, kind) = w.dataset.largest_table();
    let table = run::largest_table(&engine, w.dataset);
    let rows = table.snapshot();
    let (pages, cold_ms) = clock_span(clock, tracer, "storage.scan_cold", &probe_id, || {
        run::scan(&table)
    });
    let table_bytes = pages * PAGE_SIZE as u64;
    let (roomy, _dir) = workload::storage(w.pool_bytes.map(|_| 2 * table_bytes + (1 << 20)));
    let fresh = Catalog::with_storage(roomy);
    let copy = rows.to_vec();
    let (reloaded, load_ms) = clock_span(clock, tracer, "storage.load", &probe_id, || {
        fresh
            .create_table(table_name, table.schema().clone(), copy)
            .expect("reload")
    });
    let ((), index_ms) = clock_span(clock, tracer, "storage.index_build", &probe_id, || {
        fresh.create_index(table_name, column, kind).expect("index");
    });
    run::scan(&reloaded);
    let (_, warm_ms) = clock_span(clock, tracer, "storage.scan_warm", &probe_id, || {
        run::scan(&reloaded)
    });
    drop((reloaded, fresh));
    let n = rows.len() as f64;
    let once = vec![
        Metric::single("storage.scan_cold_mrows_s", "Mrows/s", n / cold_ms / 1e3),
        Metric::single("storage.scan_warm_mrows_s", "Mrows/s", n / warm_ms / 1e3),
        Metric::single("storage.load_rows_s", "rows/s", n / load_ms * 1e3),
        Metric::single("storage.index_build_ms", "ms", index_ms),
        Metric::single("stats.analyze_ms", "ms", analyze_ms),
        Metric::single("gen.generate_load_ms", "ms", generate_ms),
    ];
    (engine, once, n, table_bytes)
}

/// One query's four traced calls: `plan`, `lint_plan` + `certify`,
/// `execute_plan` of that plan, `run`.
fn traced_query(
    tracer: &mut Tracer,
    exec: &PopExecutor,
    spec: &QuerySpec,
    pass_span: usize,
    id: &str,
) -> Traced {
    let params = Params::none();
    let query = tracer.open("query", Some(pass_span), id);
    let (plan, plan_ms) = tracer.span("optimizer.plan", Some(query), id, || {
        exec.plan(spec, &params)
    });
    let (mut lint_ms, mut execute_ms) = (0.0, 0.0);
    let executed = match &plan {
        Ok(plan) => {
            ((), lint_ms) = tracer.span("planlint.lint", Some(query), id, || {
                let ctx = LintContext::full(exec.catalog(), spec).with_stats(exec.stats());
                std::hint::black_box((lint_plan(plan, &ctx), certify(plan, &ctx)));
            });
            let (result, ms) = tracer.span("exec.execute_plan", Some(query), id, || {
                exec.execute_plan(spec, plan, &params)
            });
            execute_ms = ms;
            result.map_err(|e| e.to_string())
        }
        Err(e) => Err(format!("plan: {e}")),
    };
    let (ran, run_ms) = tracer.span("core.run", Some(query), id, || exec.run(spec, &params));
    tracer.close(query);
    Traced {
        plan_ms,
        lint_ms,
        execute_ms,
        run_ms,
        executed,
        ran: ran.map_err(|e| e.to_string()),
    }
}

/// The traced run. Returns the exit code.
pub fn traced(w: &Workload, opts: &Options) -> i32 {
    let mut clock = Clock::default();
    // The first probes fault the buffer in.
    for _ in 0..3 {
        clock.probe();
    }
    let mut tracer = Tracer::default();
    let (engine, once, table_rows, table_bytes) = traced_setup(w, opts, &mut clock, &mut tracer);
    let exec = &engine.exec;

    let (fingerprints, mut failures) = run::warm_up_and_check(&mut clock, &engine, w, opts, false);
    let mut attempted = engine.queries.len();
    let mut failed = run::distinct_queries(&failures);
    let mut check = |what: &str, result: &Result<QueryResult, String>, q: usize| {
        attempted += 1;
        let (name, spec) = &engine.queries[q];
        let why = match result.as_ref().map(|r| verify::fingerprint(spec, &r.rows)) {
            Ok(fp) if Some(fp) == fingerprints[q] => return,
            Ok(fp) => format!("{fp:?}, warm-up {:?}", fingerprints[q]),
            Err(e) => e.clone(),
        };
        failed += 1;
        failures.push((name.clone(), format!("{what}: {why}")));
    };

    let mut sums = Sums::default();
    let mut untraced_s = Vec::new();
    // Per query across passes, for the calibration correlations.
    let mut execute_ms: Vec<Vec<f64>> = vec![Vec::new(); engine.queries.len()];
    let mut est_cost = vec![f64::NAN; engine.queries.len()];
    let mut plan_work = vec![f64::NAN; engine.queries.len()];
    let started = Instant::now();
    let mut pass = 0;
    while pass == 0 || started.elapsed().as_secs_f64() < opts.seconds {
        let pass_id = format!("{}/{pass}", w.name);
        let pass_span = tracer.open("pass", None, &pass_id);
        let mut probe = None;
        for (q, (name, spec)) in engine.queries.iter().enumerate() {
            let id = format!("{pass_id}/{name}");
            let (t, timing, after) = clock.time(probe, || {
                traced_query(&mut tracer, exec, spec, pass_span, &id)
            });
            probe = Some(after);
            let speed = timing.speed();
            sums.add(pass, "optimizer.plan_ms", t.plan_ms * speed);
            sums.add(pass, "planlint.lint_ms", t.lint_ms * speed);
            sums.add(pass, "exec.execute_ms", t.execute_ms * speed);
            sums.add(pass, "core.run_ms", t.run_ms * speed);
            sums.add(pass, "input_rows", input_rows(exec.catalog(), spec));
            execute_ms[q].push(t.execute_ms * speed);
            check("execute_plan", &t.executed, q);
            if let Ok(r) = &t.executed {
                est_cost[q] = r.report.steps[0].est_cost;
                plan_work[q] = r.report.total_work;
            }
            check("traced run", &t.ran, q);
            if let Ok(r) = &t.ran {
                count_report(&mut sums, pass, &r.report);
            }
        }
        tracer.close(pass_span);

        let outcomes = run::timed_pass(&mut clock, &engine);
        untraced_s.push(outcomes.iter().map(|o| o.timing.ms()).sum::<f64>() / 1e3);
        for (q, outcome) in outcomes.iter().enumerate() {
            check("untraced run", &outcome.result, q);
        }
        pass += 1;
    }

    // Derived per-pass ratios.
    for p in 0..pass {
        let at = |name: &str| sums.at(name, p);
        let derived = [
            (
                "exec.rows_per_s",
                share(at("input_rows"), at("exec.execute_ms") / 1e3),
            ),
            (
                "exec.par_queue_wait_share",
                share(
                    at("par_queue_wait_ns"),
                    at("par_queue_wait_ns") + at("par_compute_ns"),
                ),
            ),
            (
                "core.pop_net_ms",
                at("core.run_ms") - at("optimizer.plan_ms") - at("exec.execute_ms"),
            ),
            (
                "core.reopt_useful_share",
                share(at("useful_reopts"), at("core.reopts")),
            ),
            (
                "core.wasted_work_share",
                share(at("wasted_work"), at("total_work")),
            ),
            (
                "storage.pool_hit_rate",
                share(at("pool_hits"), at("pool_hits") + at("pool_misses")),
            ),
        ];
        for (name, value) in derived {
            sums.add(p, name, value);
        }
    }
    let medians: Vec<f64> = execute_ms.iter().map(|ms| clock::median(ms)).collect();
    let run_s = sums.median("core.run_ms") / 1e3;
    let untraced = clock::median(&untraced_s);

    let mut metrics = vec![
        sums.metric("optimizer.plan_ms", "ms"),
        sums.metric("optimizer.memo_rederived", "count"),
        sums.metric("optimizer.memo_reused", "count"),
        sums.metric("planlint.lint_ms", "ms"),
        sums.metric("exec.execute_ms", "ms"),
        sums.metric("exec.rows_per_s", "rows/s"),
        sums.metric("exec.checks_evaluated", "count"),
        sums.metric("exec.monitors_installed", "count"),
        sums.metric("exec.batches", "count"),
        sums.metric("exec.par_regions", "count"),
        sums.metric("exec.par_steals", "count"),
        sums.metric("exec.par_queue_wait_share", "ratio"),
        sums.metric("core.run_ms", "ms"),
        sums.metric("core.pop_net_ms", "ms"),
        sums.metric("core.reopts", "count"),
        sums.metric("core.reopt_useful_share", "ratio"),
        sums.metric("core.wasted_work_share", "ratio"),
        sums.metric("core.sample_vets", "count"),
        sums.metric("storage.pool_hit_rate", "ratio"),
        sums.metric("storage.pages_read", "count"),
        sums.metric("storage.evictions", "count"),
        sums.metric("storage.pages_written", "count"),
        sums.metric("storage.wal_bytes", "bytes"),
    ];
    metrics.extend(once);
    metrics.extend([
        Metric::single(
            "calib.cost_vs_ms",
            "rho",
            clock::spearman(&est_cost, &medians),
        ),
        Metric::single(
            "calib.work_vs_ms",
            "rho",
            clock::spearman(&plan_work, &medians),
        ),
        Metric::single(
            "calib.cost_vs_work",
            "rho",
            clock::spearman(&est_cost, &plan_work),
        ),
        Metric::single("trace.overhead", "ratio", run_s / untraced),
    ]);

    println!(
        "{} seed {} traced: {} queries x {pass} traced + {pass} untraced passes; {} spans",
        w.name,
        opts.seed,
        engine.queries.len(),
        tracer.spans.len()
    );
    println!(
        "  shares of core.run_ms: optimizer.plan {:.3}, planlint.lint {:.3}, exec.execute_plan {:.3}",
        share(sums.median("optimizer.plan_ms"), sums.median("core.run_ms")),
        share(sums.median("planlint.lint_ms"), sums.median("core.run_ms")),
        share(sums.median("exec.execute_ms"), sums.median("core.run_ms")),
    );
    println!(
        "  trace_overhead {:.3} (traced core.run {run_s:.4} s / untraced pass {untraced:.4} s)",
        run_s / untraced
    );

    let mut record = run::run_header(w, opts, "traced");
    record.extend([
        ("traced_passes", Json::Num(pass as f64)),
        ("largest_table_rows", Json::Num(table_rows)),
        ("largest_table_bytes", Json::Num(table_bytes as f64)),
        ("untraced_suite_s", Json::Num(untraced)),
        (
            "queries",
            Json::Arr(
                engine
                    .queries
                    .iter()
                    .enumerate()
                    .map(|(q, (name, _))| {
                        json::object([
                            ("name", json::string(name.as_str())),
                            ("execute_ms", Json::Num(medians[q])),
                            ("est_cost", Json::Num(est_cost[q])),
                            ("plan_work", Json::Num(plan_work[q])),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("spans", tracer.to_json()),
    ]);
    run::report(
        &format!("trace-{}.json", w.name),
        record,
        &metrics,
        attempted,
        failed,
        &failures,
    )
}

/// Run `f` inside a root span and between two probes; returns its value
/// and its milliseconds at reference memory speed.
fn clock_span<T>(
    clock: &mut Clock,
    tracer: &mut Tracer,
    name: &'static str,
    trace_id: &str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let ((value, _), timing, _) = clock.time(None, || tracer.span(name, None, trace_id, f));
    (value, timing.ms())
}
