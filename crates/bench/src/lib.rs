//! Benchmark harness for the POP reproduction.
//!
//! Every table and figure of the paper's evaluation (§5, §6) has a
//! corresponding experiment in [`experiments`], returning serializable
//! result structs; the `figures` binary renders them as text tables and
//! JSON. Ablation studies for the design decisions called out in
//! DESIGN.md live in [`experiments::ablation`].

pub mod experiments;

use pop::{CheckFlavor, FlavorSet};
use serde::Serialize;
use std::fs;

/// Write `value` as pretty JSON to `results/{name}.json` (relative to the
/// working directory), warning on stderr when it cannot. Returns the path
/// written.
pub fn save_json<T: Serialize>(name: &str, value: &T) -> Option<String> {
    let _ = fs::create_dir_all("results");
    let path = format!("results/{name}.json");
    match serde_json::to_string_pretty(value) {
        Ok(s) => match fs::write(&path, s) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("warning: could not write {path}: {e}");
                None
            }
        },
        Err(e) => {
            eprintln!("warning: could not serialize {name}: {e}");
            None
        }
    }
}

/// The checkpoint-flavor configurations the `planlint` sweep plans every
/// workload query under: the default, none, each flavor alone and all
/// five. The planlint tests sweep the same set.
pub fn flavor_configs() -> Vec<(&'static str, FlavorSet)> {
    let all = FlavorSet {
        lc: true,
        lcem: true,
        ecb: true,
        ecwc: true,
        ecdc: true,
    };
    vec![
        ("default", FlavorSet::default()),
        ("none", FlavorSet::none()),
        ("lc", FlavorSet::only(CheckFlavor::Lc)),
        ("lcem", FlavorSet::only(CheckFlavor::Lcem)),
        ("ecb", FlavorSet::only(CheckFlavor::Ecb)),
        ("ecwc", FlavorSet::only(CheckFlavor::Ecwc)),
        ("ecdc", FlavorSet::only(CheckFlavor::Ecdc)),
        ("all", all),
    ]
}
