//! `bench_e2e`: the benchmark's one command.
//!
//! ```text
//! bench_e2e --workload NAME --seed N --seconds S --trace 0|1   one workload, in this process
//! bench_e2e [all] [--seed N] [--seconds S] [--smoke]           every workload, end to end
//! bench_e2e trace [--seed N] [--seconds S] [--smoke]           every workload, traced
//! bench_e2e check-noise [--seed N] [--seconds S]               every workload twice
//! ```
//!
//! `--bless` rewrites the goldens in `expected/` from this run's results.

use pop_bench_e2e::workload::{self, Options};
use pop_bench_e2e::{run, suite, trace};

const USAGE: &str = "usage: bench_e2e [all|trace|check-noise] [--workload NAME] [--seed N] \
                     [--seconds S] [--trace 0|1] [--smoke] [--bless]";

fn usage(problem: &str) -> ! {
    eprintln!("bench_e2e: {problem}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    // `PopConfig::default()` reads `POP_*`; the benchmark's configuration
    // must not depend on the caller's environment.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("POP_") {
            eprintln!("bench_e2e: ignoring {}", name.to_string_lossy());
            std::env::remove_var(&name);
        }
    }

    let mut command = None;
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = None;
    let mut traced = false;
    let mut smoke = false;
    let mut bless = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{arg} needs {what}")))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("a workload name")),
            "--seed" => {
                seed = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs a whole number"));
            }
            "--seconds" => {
                seconds = Some(
                    value("a number")
                        .parse::<f64>()
                        .ok()
                        .filter(|s| (0.0..=3600.0).contains(s))
                        .unwrap_or_else(|| usage("--seconds needs a number from 0 to 3600")),
                );
            }
            "--trace" => {
                traced = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace needs 0 or 1"),
                };
            }
            "--smoke" => smoke = true,
            "--bless" => bless = true,
            "all" | "trace" | "check-noise" if command.is_none() => command = Some(arg),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let opts = Options {
        seed,
        smoke,
        seconds: seconds.unwrap_or(if smoke { 0.0 } else { 12.0 }),
    };

    let code = match (workload, command.as_deref()) {
        (Some(name), None) => {
            let w = workload::find(&name).unwrap_or_else(|| {
                let known: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                usage(&format!(
                    "unknown workload {name}; known: {}",
                    known.join(", ")
                ))
            });
            if traced {
                trace::traced(w, &opts)
            } else {
                run::end_to_end(w, &opts, bless)
            }
        }
        (Some(_), Some(_)) => usage("--workload runs one workload; drop the subcommand"),
        (None, Some("check-noise")) => suite::check_noise(&opts),
        (None, Some("trace")) => suite::all(&opts, true, false),
        (None, _) => suite::all(&opts, traced, bless),
    };
    std::process::exit(code);
}
