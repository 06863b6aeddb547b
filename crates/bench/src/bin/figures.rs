//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures [all|fig11|fig12|fig13|fig14|fig15|fig16|table1|validity|ablations|extensions]
//! ```
//!
//! Text renderings go to stdout; raw data is written as JSON under
//! `results/`.

use pop_bench::experiments::{
    ablation, extensions, fig11, fig12, fig13, fig14, fig15, table1, validity,
};
use pop_bench::save_json;

fn run(which: &str) {
    match which {
        "fig11" => {
            let r = fig11::run().expect("fig11");
            print!("{}", fig11::render(&r));
            save_json("fig11", &r);
        }
        "fig12" => {
            let r = fig12::run().expect("fig12");
            print!("{}", fig12::render(&r));
            save_json("fig12", &r);
        }
        "fig13" => {
            let r = fig13::run().expect("fig13");
            print!("{}", fig13::render(&r));
            save_json("fig13", &r);
        }
        "fig14" => {
            let r = fig14::run().expect("fig14");
            print!("{}", fig14::render(&r));
            save_json("fig14", &r);
        }
        "fig15" | "fig16" => {
            let r = fig15::run().expect("fig15");
            if which == "fig15" {
                print!("{}", fig15::render_fig15(&r));
            } else {
                print!("{}", fig15::render_fig16(&r));
            }
            save_json(which, &r);
        }
        "table1" => {
            let r = table1::run().expect("table1");
            print!("{}", table1::render(&r));
            save_json("table1", &r);
        }
        "validity" => {
            let r = validity::run().expect("validity");
            print!("{}", validity::render(&r));
            save_json("validity", &r);
        }
        "extensions" => {
            let l = extensions::learning().expect("learning");
            print!("{}", extensions::render_learning(&l));
            save_json("ext_learning", &l);
            let r = extensions::robustness().expect("robustness");
            print!("{}", extensions::render_robustness(&r));
            save_json("ext_robustness", &r);
        }
        "ablations" => {
            for (name, r) in [
                (
                    "ablation_thresholds",
                    ablation::thresholds().expect("thresholds"),
                ),
                ("ablation_mv_reuse", ablation::mv_reuse().expect("mv_reuse")),
                (
                    "ablation_max_reopts",
                    ablation::max_reopts().expect("max_reopts"),
                ),
                ("ablation_flavors", ablation::flavors().expect("flavors")),
            ] {
                print!("{}", ablation::render(&r));
                println!();
                save_json(name, &r);
            }
        }
        other => {
            eprintln!("unknown experiment: {other}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map_or("all", String::as_str);
    if which == "all" {
        for name in [
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "table1",
            "validity",
            "ablations",
            "extensions",
        ] {
            println!("================ {name} ================");
            run(name);
            println!();
        }
    } else {
        run(which);
    }
}
