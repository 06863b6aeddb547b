//! Diagnostic codes and the diagnostic record itself.

use std::fmt;

/// Stable diagnostic codes, grouped by pass:
///
/// * `PL0xx` — schema/layout checking
/// * `PL1xx` — validity-range consistency
/// * `PL2xx` — CHECK placement (Table 1 of the paper)
/// * `PL3xx` — cost/cardinality sanity
/// * `PL40x` — temp-MV reuse soundness
///
/// Every code denies: the plan violates an invariant the executor or the
/// re-optimization loop relies on, so it must not run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // each variant is documented by `title()`
pub enum DiagCode {
    Pl001,
    Pl003,
    Pl101,
    Pl102,
    Pl103,
    Pl201,
    Pl202,
    Pl203,
    Pl204,
    Pl205,
    Pl206,
    Pl301,
    Pl302,
    Pl303,
    Pl401,
    Pl402,
}

impl DiagCode {
    /// Every code, in code order (the source of truth for the
    /// `planlint --codes` table).
    pub const ALL: [DiagCode; 16] = [
        DiagCode::Pl001,
        DiagCode::Pl003,
        DiagCode::Pl101,
        DiagCode::Pl102,
        DiagCode::Pl103,
        DiagCode::Pl201,
        DiagCode::Pl202,
        DiagCode::Pl203,
        DiagCode::Pl204,
        DiagCode::Pl205,
        DiagCode::Pl206,
        DiagCode::Pl301,
        DiagCode::Pl302,
        DiagCode::Pl303,
        DiagCode::Pl401,
        DiagCode::Pl402,
    ];
    /// The stable code string, e.g. `"PL001"`.
    pub fn as_str(&self) -> &'static str {
        match self {
            DiagCode::Pl001 => "PL001",
            DiagCode::Pl003 => "PL003",
            DiagCode::Pl101 => "PL101",
            DiagCode::Pl102 => "PL102",
            DiagCode::Pl103 => "PL103",
            DiagCode::Pl201 => "PL201",
            DiagCode::Pl202 => "PL202",
            DiagCode::Pl203 => "PL203",
            DiagCode::Pl204 => "PL204",
            DiagCode::Pl205 => "PL205",
            DiagCode::Pl206 => "PL206",
            DiagCode::Pl301 => "PL301",
            DiagCode::Pl302 => "PL302",
            DiagCode::Pl303 => "PL303",
            DiagCode::Pl401 => "PL401",
            DiagCode::Pl402 => "PL402",
        }
    }

    /// One-line description of what the code means.
    pub fn title(&self) -> &'static str {
        match self {
            DiagCode::Pl001 => {
                "column reference does not resolve (leaf predicate: table schema; else: input layout)"
            }
            DiagCode::Pl003 => "malformed operator arguments",
            DiagCode::Pl101 => "empty validity range (lo > hi)",
            DiagCode::Pl102 => "cardinality estimate outside its validity range",
            DiagCode::Pl103 => "malformed validity-range bound (NaN or negative)",
            DiagCode::Pl201 => "LC checkpoint above an unmaterialized input",
            DiagCode::Pl202 => "LCEM checkpoint without its TEMP",
            DiagCode::Pl203 => "ECDC checkpoint without a rid side-table sink",
            DiagCode::Pl204 => "ECWC checkpoint not below a materialization point",
            DiagCode::Pl205 => "checkpoint flavor does not match operator or context",
            DiagCode::Pl206 => "duplicate checkpoint id",
            DiagCode::Pl301 => "parent cumulative cost below child cost",
            DiagCode::Pl302 => "non-finite or negative cardinality estimate",
            DiagCode::Pl303 => "non-finite or negative cost estimate",
            DiagCode::Pl401 => "MV scan table set unknown to the catalog",
            DiagCode::Pl402 => "MV scan layout does not match the recorded MV",
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding of the analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanDiagnostic {
    /// Stable code.
    pub code: DiagCode,
    /// Operator name of the offending node (e.g. `"HSJN"`).
    pub node: &'static str,
    /// Path from the root as child indexes, e.g. `"$.0.1"` (`"$"` is the
    /// root itself), matching [`pop_plan::PhysNode::children`] order.
    pub path: String,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for PlanDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} at {}: {}",
            self.code, self.node, self.path, self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_titled() {
        assert_eq!(DiagCode::Pl001.as_str(), "PL001");
        assert_eq!(DiagCode::Pl402.as_str(), "PL402");
        for code in DiagCode::ALL {
            assert!(!code.title().is_empty(), "{code}");
        }
    }

    #[test]
    fn display_format() {
        let d = PlanDiagnostic {
            code: DiagCode::Pl101,
            node: "CHECK",
            path: "$.0".into(),
            message: "range [5, 2] is empty".into(),
        };
        assert_eq!(d.to_string(), "PL101 CHECK at $.0: range [5, 2] is empty");
    }
}
