//! The optimizer's view of its environment.

use crate::{CostModel, FeedbackCache, OptimizerConfig};
use pop_expr::Params;
use pop_stats::{SelectivityDefaults, StatsRegistry};
use pop_storage::Catalog;

/// Everything the optimizer needs, bundled for convenient passing.
#[derive(Debug)]
pub struct OptimizerContext<'a> {
    /// Table/index resolution.
    pub catalog: &'a Catalog,
    /// Statistics source.
    pub stats: &'a StatsRegistry,
    /// Optimizer configuration.
    pub config: &'a OptimizerConfig,
    /// Cost model.
    pub cost: &'a CostModel,
    /// Parameter bindings. They key the memo's binding and never enter
    /// selectivity estimation: a parameter-marker predicate is estimated
    /// with the default selectivities, as the paper's optimizer does.
    pub params: Option<&'a Params>,
    /// Actual-cardinality feedback from previous execution steps.
    pub feedback: &'a FeedbackCache,
    /// Default selectivities for unknowns.
    pub defaults: SelectivityDefaults,
}

impl<'a> OptimizerContext<'a> {
    /// Construct a context with default selectivities.
    pub fn new(
        catalog: &'a Catalog,
        stats: &'a StatsRegistry,
        config: &'a OptimizerConfig,
        cost: &'a CostModel,
        params: Option<&'a Params>,
        feedback: &'a FeedbackCache,
    ) -> Self {
        OptimizerContext {
            catalog,
            stats,
            config,
            cost,
            params,
            feedback,
            defaults: config.selectivity_defaults,
        }
    }
}
