//! Diagnostic codes, severities and the diagnostic record itself.

use std::fmt;

/// How bad a finding is.
///
/// `Deny` means the plan violates an invariant the executor relies on —
/// running it risks a wrong answer or a panic, so the driver refuses to
/// execute it (unless linting is configured down to warn-only). `Warn`
/// marks suspicious-but-runnable constructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but executable.
    Warn,
    /// Invariant violation: the plan must not execute.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

/// Stable diagnostic codes, grouped by pass:
///
/// * `PL0xx` — schema/layout checking
/// * `PL1xx` — validity-range consistency
/// * `PL2xx` — CHECK placement (Table 1 of the paper)
/// * `PL3xx` — cost/cardinality sanity
/// * `PL40x` — temp-MV reuse soundness
/// * `PL41x` — interval dataflow analyses (coverage proof, check
///   reachability)
/// * `PL42x` — monitor-coverage proof (risky edges the runtime
///   suboptimality monitors cannot observe)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // each variant is documented by `title()`
pub enum DiagCode {
    Pl001,
    Pl002,
    Pl003,
    Pl004,
    Pl101,
    Pl102,
    Pl103,
    Pl104,
    Pl201,
    Pl202,
    Pl203,
    Pl204,
    Pl205,
    Pl206,
    Pl207,
    Pl301,
    Pl302,
    Pl303,
    Pl401,
    Pl402,
    Pl403,
    Pl411,
    Pl412,
    Pl413,
    Pl421,
}

impl DiagCode {
    /// Every code, in code order (the source of truth for the
    /// `planlint --codes` table).
    pub const ALL: [DiagCode; 25] = [
        DiagCode::Pl001,
        DiagCode::Pl002,
        DiagCode::Pl003,
        DiagCode::Pl004,
        DiagCode::Pl101,
        DiagCode::Pl102,
        DiagCode::Pl103,
        DiagCode::Pl104,
        DiagCode::Pl201,
        DiagCode::Pl202,
        DiagCode::Pl203,
        DiagCode::Pl204,
        DiagCode::Pl205,
        DiagCode::Pl206,
        DiagCode::Pl207,
        DiagCode::Pl301,
        DiagCode::Pl302,
        DiagCode::Pl303,
        DiagCode::Pl401,
        DiagCode::Pl402,
        DiagCode::Pl403,
        DiagCode::Pl411,
        DiagCode::Pl412,
        DiagCode::Pl413,
        DiagCode::Pl421,
    ];
    /// The stable code string, e.g. `"PL001"`.
    pub fn as_str(&self) -> &'static str {
        match self {
            DiagCode::Pl001 => "PL001",
            DiagCode::Pl002 => "PL002",
            DiagCode::Pl003 => "PL003",
            DiagCode::Pl004 => "PL004",
            DiagCode::Pl101 => "PL101",
            DiagCode::Pl102 => "PL102",
            DiagCode::Pl103 => "PL103",
            DiagCode::Pl104 => "PL104",
            DiagCode::Pl201 => "PL201",
            DiagCode::Pl202 => "PL202",
            DiagCode::Pl203 => "PL203",
            DiagCode::Pl204 => "PL204",
            DiagCode::Pl205 => "PL205",
            DiagCode::Pl206 => "PL206",
            DiagCode::Pl207 => "PL207",
            DiagCode::Pl301 => "PL301",
            DiagCode::Pl302 => "PL302",
            DiagCode::Pl303 => "PL303",
            DiagCode::Pl401 => "PL401",
            DiagCode::Pl402 => "PL402",
            DiagCode::Pl403 => "PL403",
            DiagCode::Pl411 => "PL411",
            DiagCode::Pl412 => "PL412",
            DiagCode::Pl413 => "PL413",
            DiagCode::Pl421 => "PL421",
        }
    }

    /// One-line description of what the code means.
    pub fn title(&self) -> &'static str {
        match self {
            DiagCode::Pl001 => {
                "column reference does not resolve (leaf predicate: table schema; else: input layout)"
            }
            DiagCode::Pl002 => {
                "output layout is not what the operator produces (leaf: ascending subset of its table's columns)"
            }
            DiagCode::Pl003 => "malformed operator arguments",
            DiagCode::Pl004 => "type mismatch in predicate or join key",
            DiagCode::Pl101 => "empty validity range (lo > hi)",
            DiagCode::Pl102 => "cardinality estimate outside its validity range",
            DiagCode::Pl103 => "malformed validity-range bound (NaN or negative)",
            DiagCode::Pl104 => "materialization point not guarded by a checkpoint",
            DiagCode::Pl201 => "LC checkpoint above an unmaterialized input",
            DiagCode::Pl202 => "LCEM checkpoint without its TEMP",
            DiagCode::Pl203 => "ECDC checkpoint without a rid side-table sink",
            DiagCode::Pl204 => "ECWC checkpoint not below a materialization point",
            DiagCode::Pl205 => "checkpoint flavor does not match operator or context",
            DiagCode::Pl206 => "duplicate checkpoint id",
            DiagCode::Pl207 => "BUFCHECK buffer too small for its range",
            DiagCode::Pl301 => "parent cumulative cost below child cost",
            DiagCode::Pl302 => "non-finite or negative cardinality estimate",
            DiagCode::Pl303 => "non-finite or negative cost estimate",
            DiagCode::Pl401 => "MV scan signature unknown to the catalog",
            DiagCode::Pl402 => "MV scan layout does not match the recorded MV",
            DiagCode::Pl403 => "MV scan estimate drifts from the MV's exact count",
            DiagCode::Pl411 => "risky edge reaches a pipeline breaker unguarded",
            DiagCode::Pl412 => "dead checkpoint: its trigger range can never fire",
            DiagCode::Pl413 => "vacuous checkpoint: its trigger range always fires",
            DiagCode::Pl421 => "risky edge neither CHECK-dominated nor monitor-covered",
        }
    }

    /// The severity this code reports at.
    ///
    /// The interval analyses (`PL411`–`PL413`) are Warn by design:
    /// their leaf intervals come from live statistics, and a chaos- or
    /// feedback-poisoned estimate can legitimately place a check range
    /// outside the provable interval — the plan still executes soundly,
    /// it just carries dead weight worth reporting.
    pub fn severity(&self) -> Severity {
        match self {
            DiagCode::Pl004
            | DiagCode::Pl104
            | DiagCode::Pl207
            | DiagCode::Pl403
            | DiagCode::Pl411
            | DiagCode::Pl412
            | DiagCode::Pl413
            | DiagCode::Pl421 => Severity::Warn,
            _ => Severity::Deny,
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
    /// Severity (derived from the code).
    pub severity: Severity,
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
            "{} [{}] {} at {}: {}",
            self.code, self.severity, self.node, self.path, self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_titled() {
        assert_eq!(DiagCode::Pl001.as_str(), "PL001");
        assert_eq!(DiagCode::Pl403.as_str(), "PL403");
        assert_eq!(DiagCode::Pl101.severity(), Severity::Deny);
        assert_eq!(DiagCode::Pl104.severity(), Severity::Warn);
        assert!(!DiagCode::Pl205.title().is_empty());
    }

    #[test]
    fn display_format() {
        let d = PlanDiagnostic {
            code: DiagCode::Pl101,
            severity: DiagCode::Pl101.severity(),
            node: "CHECK",
            path: "$.0".into(),
            message: "range [5, 2] is empty".into(),
        };
        assert_eq!(
            d.to_string(),
            "PL101 [deny] CHECK at $.0: range [5, 2] is empty"
        );
        assert!(Severity::Warn < Severity::Deny);
    }
}
