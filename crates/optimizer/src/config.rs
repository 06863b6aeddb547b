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
    /// Consider temp MVs registered in the catalog as scan alternatives.
    pub use_temp_mvs: bool,
    /// Maximum table count for bushy DP; larger queries use left-deep
    /// enumeration only.
    pub bushy_limit: usize,
    /// Newton-Raphson iteration cap (the paper uses 3).
    pub nr_iterations: usize,
    /// Default selectivities for predicates that cannot be estimated from
    /// statistics (most importantly parameter markers). Experiments vary
    /// these to reproduce the paper's default-selectivity regime (§5.1).
    pub selectivity_defaults: SelectivityDefaults,
    /// Accepted and ignored: the engine executes every plan serially.
    /// Kept because the frozen benchmark harness still sets it.
    pub threads: usize,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            joins: JoinMethods::default(),
            flavors: FlavorSet::default(),
            validity_mode: ValidityMode::Ranges,
            check_cost_threshold: 1_000.0,
            use_temp_mvs: true,
            bushy_limit: 11,
            nr_iterations: 3,
            selectivity_defaults: SelectivityDefaults::default(),
            threads: 1,
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
