//! Optimizer and checkpoint-placement configuration.

use pop_plan::CheckFlavor;
use pop_stats::SelectivityDefaults;

/// Which join methods the optimizer may use. Disabling methods is used by
/// the paper's experiments (e.g. Figure 12 disables hash join so the plans
/// are full of SORT materialization points).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinMethods {
    /// Index nested-loop join.
    pub nljn: bool,
    /// Hash join.
    pub hsjn: bool,
    /// Sort-merge join.
    pub mgjn: bool,
}

impl Default for JoinMethods {
    fn default() -> Self {
        JoinMethods {
            nljn: true,
            hsjn: true,
            mgjn: true,
        }
    }
}

/// Which checkpoint flavors the placement post-pass inserts.
///
/// The paper's default prototype behaviour (§4) is LC + LCEM only; ECB,
/// ECWC and ECDC are opt-in because of their higher risk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlavorSet {
    /// Lazy checks above materialization points (SORT/TEMP) and on
    /// hash-join build edges.
    pub lc: bool,
    /// TEMP+CHECK pairs on NLJN outers.
    pub lcem: bool,
    /// BUFCHECK on NLJN outers (instead of LCEM's full materialization).
    pub ecb: bool,
    /// Eager checks below materialization points.
    pub ecwc: bool,
    /// Eager checks in pipelined SPJ plans with deferred compensation.
    pub ecdc: bool,
}

impl Default for FlavorSet {
    fn default() -> Self {
        FlavorSet {
            lc: true,
            lcem: true,
            ecb: false,
            ecwc: false,
            ecdc: false,
        }
    }
}

impl FlavorSet {
    /// No checkpoints at all (classic static optimization).
    pub fn none() -> Self {
        FlavorSet {
            lc: false,
            lcem: false,
            ecb: false,
            ecwc: false,
            ecdc: false,
        }
    }

    /// Exactly one flavor enabled.
    pub fn only(flavor: CheckFlavor) -> Self {
        let mut f = FlavorSet::none();
        match flavor {
            CheckFlavor::Lc => f.lc = true,
            CheckFlavor::Lcem => f.lcem = true,
            CheckFlavor::Ecb => f.ecb = true,
            CheckFlavor::Ecwc => f.ecwc = true,
            CheckFlavor::Ecdc => f.ecdc = true,
        }
        f
    }

    /// Is any flavor enabled?
    pub fn any(&self) -> bool {
        self.lc || self.lcem || self.ecb || self.ecwc || self.ecdc
    }
}

/// How check ranges are derived.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValidityMode {
    /// The paper's method: sensitivity analysis during plan pruning
    /// (Figure 5). Checks fire only when a structurally-equivalent better
    /// plan provably exists.
    Ranges,
    /// The ad-hoc alternative POP improves upon (KD98-style): fire when
    /// the actual cardinality is off by more than a fixed factor from the
    /// estimate. Provided for the ablation benchmark.
    FixedFactor(f64),
}

/// Full optimizer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerConfig {
    /// Join methods available.
    pub joins: JoinMethods,
    /// Checkpoint flavors to place.
    pub flavors: FlavorSet,
    /// How check ranges are computed.
    pub validity_mode: ValidityMode,
    /// Do not place checkpoints in plans cheaper than this (§4: "we do not
    /// place CHECK operators in simple queries with an estimated cost
    /// below a certain threshold").
    pub check_cost_threshold: f64,
    /// ECB buffer size (rows) when ECB placement is enabled.
    pub ecb_buffer: usize,
    /// Use bound parameter-marker values for selectivity estimation (the
    /// "correct selectivity estimate" reference mode of Figure 11).
    pub correct_param_estimates: bool,
    /// Consider temp MVs registered in the catalog as scan alternatives.
    pub use_temp_mvs: bool,
    /// Maximum table count for bushy DP; larger queries use left-deep
    /// enumeration only.
    pub bushy_limit: usize,
    /// Newton-Raphson iteration cap (the paper uses 3).
    pub nr_iterations: usize,
    /// Minimum absolute cost advantage (work units) the alternative plan
    /// must have before a validity bound is declared: the check range is
    /// the region where the chosen plan is within this margin of optimal.
    /// This prices in the fixed overhead of a re-optimization, preventing
    /// hair-trigger checks from firing on estimation noise (the paper
    /// observes exactly this failure mode in §6: "a generous cost model
    /// for reoptimization ... leads to over-eager re-optimizations").
    pub reopt_gain_margin_abs: f64,
    /// Additional margin as a fraction of the guarded subplan's cost — a
    /// proxy for the work a re-optimization would throw away.
    pub reopt_gain_margin_frac: f64,
    /// Default selectivities for predicates that cannot be estimated from
    /// statistics (most importantly parameter markers). Experiments vary
    /// these to reproduce the paper's default-selectivity regime (§5.1).
    pub selectivity_defaults: SelectivityDefaults,
    /// Degree of partition parallelism the parallelize post-pass may plan
    /// for (`Gather`/`Exchange` regions). `1` disables the pass entirely —
    /// the serial default; the driver sets this from `POP_THREADS`.
    pub threads: usize,
    /// Estimated region cardinality below which parallelization is never
    /// attempted: for small intermediate results the per-partition launch
    /// overhead (`CostModel::parallel_startup`) outweighs any speedup.
    pub min_parallel_rows: f64,
    /// Rows per morsel the parallelize pass assumes when modeling a
    /// region's morsel count: the degree of parallelism is capped at the
    /// estimated morsel count of the region's driving scan (there is no
    /// point scheduling more workers than morsels), which is what lets
    /// CHECK feedback widen or narrow the DOP on re-optimization. A
    /// planning estimate only — the runtime's morsel granularity is the
    /// driver-level `POP_MORSEL_SIZE` knob.
    pub morsel_rows: f64,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            joins: JoinMethods::default(),
            flavors: FlavorSet::default(),
            validity_mode: ValidityMode::Ranges,
            check_cost_threshold: 1_000.0,
            ecb_buffer: 1_000,
            correct_param_estimates: false,
            use_temp_mvs: true,
            bushy_limit: 11,
            nr_iterations: 3,
            reopt_gain_margin_abs: 200.0,
            reopt_gain_margin_frac: 0.05,
            selectivity_defaults: SelectivityDefaults::default(),
            threads: 1,
            min_parallel_rows: 8192.0,
            morsel_rows: 16384.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_prototype() {
        let c = OptimizerConfig::default();
        assert!(c.flavors.lc && c.flavors.lcem);
        assert!(!c.flavors.ecb && !c.flavors.ecwc && !c.flavors.ecdc);
        assert_eq!(c.nr_iterations, 3);
        assert_eq!(c.validity_mode, ValidityMode::Ranges);
    }

    #[test]
    fn flavor_only() {
        let f = FlavorSet::only(CheckFlavor::Ecb);
        assert!(f.ecb && !f.lc && !f.lcem && !f.ecwc && !f.ecdc);
        assert!(f.any());
        assert!(!FlavorSet::none().any());
    }
}
