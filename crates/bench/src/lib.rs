//! Benchmark harness for the POP reproduction.
//!
//! Every table and figure of the paper's evaluation (§5, §6) has a
//! corresponding experiment in [`experiments`], returning serializable
//! result structs; the `figures` binary renders them as text tables and
//! JSON. Ablation studies for the design decisions called out in
//! DESIGN.md live in [`experiments::ablation`].

pub mod experiments;

use pop::{CheckFlavor, FlavorSet};

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
