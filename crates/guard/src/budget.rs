//! Per-query resource budgets.

use std::str::FromStr;

/// Resource limits for one query. Every field is optional; `None` means
/// unlimited. The default budget has no limits at all, which puts the
/// [`Governor`](crate::Governor) on its zero-cost disabled path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Budget {
    /// Maximum work units (the engine's deterministic cost-model "time").
    /// Env: `POP_MAX_WORK`.
    pub max_work: Option<f64>,
    /// Maximum rows returned to the application. Env: `POP_MAX_ROWS`.
    pub max_rows: Option<u64>,
    /// Maximum wall-clock milliseconds. Env: `POP_MAX_WALL_MS`. (The only
    /// non-deterministic limit; chaos runs leave it unset.)
    pub max_wall_ms: Option<u64>,
    /// Maximum resident bytes across memory-hungry operator state:
    /// hash-join build sides, aggregate group tables, sort and TEMP
    /// buffers, BUFCHECK valves and promoted temp MVs. Env: `POP_MAX_BYTES`.
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

    /// Budget from the `POP_MAX_*` environment variables. Unset variables
    /// leave the corresponding limit off; invalid or non-positive values
    /// also leave it off but push a warning (surfaced on `RunReport`)
    /// instead of being silently swallowed.
    pub fn from_env(warnings: &mut Vec<String>) -> Self {
        Budget {
            max_work: env_parsed("POP_MAX_WORK", |v: &f64| *v > 0.0, warnings),
            max_rows: env_parsed("POP_MAX_ROWS", |v: &u64| *v > 0, warnings),
            max_wall_ms: env_parsed("POP_MAX_WALL_MS", |v: &u64| *v > 0, warnings),
            max_resident_bytes: env_parsed("POP_MAX_BYTES", |v: &u64| *v > 0, warnings),
        }
    }
}

/// Parse environment variable `name` as a `T`, requiring `valid`. Returns
/// `None` (and records a warning) for present-but-invalid values, `None`
/// silently when unset; the caller falls back to its default either way.
/// Shared by every valued `POP_*` env knob so none of them swallows a typo.
pub fn env_parsed<T: FromStr>(
    name: &str,
    valid: impl Fn(&T) -> bool,
    warnings: &mut Vec<String>,
) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    match raw.trim().parse::<T>() {
        Ok(v) if valid(&v) => Some(v),
        _ => {
            warnings.push(format!(
                "{name}: invalid value {raw:?}; falling back to the default"
            ));
            None
        }
    }
}

/// On/off switch from environment variable `name`, accepting the natural
/// spellings (`on`/`off`/`true`/`false`/`1`/`0`, case-insensitive);
/// `default` when unset. Anything else falls back to `default` and records
/// a warning. Shared by every boolean `POP_*` switch.
pub fn env_switch(name: &str, default: bool, warnings: &mut Vec<String>) -> bool {
    let Ok(raw) = std::env::var(name) else {
        return default;
    };
    match raw.trim().to_ascii_lowercase().as_str() {
        "on" | "true" | "1" => true,
        "off" | "false" | "0" => false,
        _ => {
            warnings.push(format!(
                "{name}: invalid value {raw:?}; falling back to the default ({default})"
            ));
            default
        }
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

    #[test]
    fn env_parsed_records_warning_on_garbage() {
        // Use a variable name no other test touches.
        std::env::set_var("POP_TEST_GUARD_BUDGET", "not-a-number");
        let mut w = Vec::new();
        let v: Option<u64> = env_parsed("POP_TEST_GUARD_BUDGET", |_| true, &mut w);
        assert_eq!(v, None);
        assert_eq!(w.len(), 1);
        assert!(w[0].contains("POP_TEST_GUARD_BUDGET"), "{w:?}");
        assert!(w[0].ends_with("falling back to the default"), "{w:?}");
        std::env::remove_var("POP_TEST_GUARD_BUDGET");
    }

    #[test]
    fn env_parsed_rejects_invalid_range() {
        std::env::set_var("POP_TEST_GUARD_ZERO", "0");
        let mut w = Vec::new();
        let v: Option<u64> = env_parsed("POP_TEST_GUARD_ZERO", |v| *v > 0, &mut w);
        assert_eq!(v, None);
        assert_eq!(w.len(), 1);
        std::env::remove_var("POP_TEST_GUARD_ZERO");
    }

    #[test]
    fn env_parsed_silent_when_unset() {
        std::env::remove_var("POP_TEST_GUARD_UNSET");
        let mut w = Vec::new();
        let v: Option<u64> = env_parsed("POP_TEST_GUARD_UNSET", |_| true, &mut w);
        assert_eq!(v, None);
        assert!(w.is_empty());
    }
}
