//! Per-query resource budgets.

/// Resource limits for one query. Every field is optional; `None` means
/// unlimited. The default budget has no limits at all, which puts the
/// [`Governor`](crate::Governor) on its zero-cost disabled path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Budget {
    /// Maximum work units (the engine's deterministic cost-model "time").
    pub max_work: Option<f64>,
    /// Maximum rows returned to the application.
    pub max_rows: Option<u64>,
    /// Maximum wall-clock milliseconds. (The only non-deterministic
    /// limit; chaos runs leave it unset.)
    pub max_wall_ms: Option<u64>,
    /// Maximum resident bytes across memory-hungry operator state:
    /// hash-join build sides, aggregate group tables, sort and TEMP
    /// buffers, BUFCHECK valves and promoted temp MVs.
    pub max_resident_bytes: Option<u64>,
}

impl Budget {
    /// A budget with no limits (the governor stays disabled).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Does any limit apply?
    pub fn is_limited(&self) -> bool {
        self.max_work.is_some()
            || self.max_rows.is_some()
            || self.max_wall_ms.is_some()
            || self.max_resident_bytes.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unlimited() {
        let b = Budget::unlimited();
        assert!(!b.is_limited());
        assert_eq!(b, Budget::default());
    }

    #[test]
    fn any_limit_flips_is_limited() {
        let b = Budget {
            max_rows: Some(10),
            ..Budget::default()
        };
        assert!(b.is_limited());
        let b = Budget {
            max_work: Some(1.0),
            ..Budget::default()
        };
        assert!(b.is_limited());
    }
}
