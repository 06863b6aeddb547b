//! SQL LIKE pattern matching (`%` = any sequence, `_` = any single char).
//!
//! A pattern is compiled once, when its predicate is bound
//! ([`LikePattern::new`]): the shapes workloads actually write — an exact
//! string, a prefix, a suffix or an infix, i.e. `_`-free patterns with at
//! most one `%` at each end — become a single `str` test, and everything
//! else keeps the pattern decoded into `char`s for a backtracking walk that
//! never allocates.

/// A LIKE pattern classified at bind time.
#[derive(Debug, Clone, PartialEq)]
pub enum LikePattern {
    /// No wildcard: `'abc'` matches exactly `abc`.
    Exact(Box<str>),
    /// `'abc%'`.
    Prefix(Box<str>),
    /// `'%abc'`.
    Suffix(Box<str>),
    /// `'%abc%'`; `'%%'` is `Contains("")` and matches every string.
    Contains(Box<str>),
    /// Any other pattern, decoded once.
    General(Box<[char]>),
}

impl LikePattern {
    /// Classify `pattern`.
    pub fn new(pattern: &str) -> LikePattern {
        if !pattern.contains('_') {
            let (lead, rest) = match pattern.strip_prefix('%') {
                Some(rest) => (true, rest),
                None => (false, pattern),
            };
            let (trail, core) = match rest.strip_suffix('%') {
                Some(core) => (true, core),
                None => (false, rest),
            };
            if !core.contains('%') {
                let core = Box::from(core);
                return match (lead, trail) {
                    (false, false) => LikePattern::Exact(core),
                    (false, true) => LikePattern::Prefix(core),
                    (true, false) => LikePattern::Suffix(core),
                    (true, true) => LikePattern::Contains(core),
                };
            }
        }
        LikePattern::General(pattern.chars().collect())
    }

    /// Does `text` match? Allocates nothing.
    pub fn matches(&self, text: &str) -> bool {
        match self {
            LikePattern::Exact(s) => text == &**s,
            LikePattern::Prefix(s) => text.starts_with(&**s),
            LikePattern::Suffix(s) => text.ends_with(&**s),
            LikePattern::Contains(s) => text.contains(&**s),
            LikePattern::General(p) => walk(p, text),
        }
    }
}

/// Iterative two-pointer match with backtracking over the last `%`,
/// O(n·m) worst case but linear for typical patterns. The text is walked
/// by UTF-8 offset, decoding one char at a time, so `_` is one char.
fn walk(p: &[char], text: &str) -> bool {
    // The char at byte offset `i` and the offset after it; `None` at the end.
    let at = |i: usize| {
        text.get(i..)
            .and_then(|s| s.chars().next())
            .map(|c| (c, i + c.len_utf8()))
    };
    let (mut ti, mut pi) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None; // (pattern pos after %, text pos)
    while let Some((tc, next)) = at(ti) {
        // The wildcard test must precede the literal test: a literal '%'
        // in the *text* must not consume a '%' in the *pattern*.
        if pi < p.len() && p[pi] == '%' {
            star = Some((pi + 1, ti));
            pi += 1;
        } else if pi < p.len() && (p[pi] == '_' || p[pi] == tc) {
            ti = next;
            pi += 1;
        } else if let Some((sp, st)) = star {
            // Backtrack: let the last % absorb one more character
            // (`st <= ti`, so there is one).
            let Some((_, st)) = at(st) else {
                return false;
            };
            pi = sp;
            ti = st;
            star = Some((sp, st));
        } else {
            return false;
        }
    }
    p[pi..].iter().all(|&c| c == '%')
}

/// The matcher before patterns were compiled: collects text and pattern
/// into `Vec<char>`s on every call. Kept as the oracle the compiled forms
/// are tested against.
#[cfg(test)]
pub(crate) fn like_match(text: &str, pattern: &str) -> bool {
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut ti, mut pi) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None; // (pattern pos after %, text pos)

    while ti < t.len() {
        if pi < p.len() && p[pi] == '%' {
            star = Some((pi + 1, ti));
            pi += 1;
        } else if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            ti += 1;
            pi += 1;
        } else if let Some((sp, st)) = star {
            pi = sp;
            ti = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The compiled pattern's answer, checked against the oracle.
    fn m(text: &str, pattern: &str) -> bool {
        let got = LikePattern::new(pattern).matches(text);
        assert_eq!(got, like_match(text, pattern), "{text:?} LIKE {pattern:?}");
        got
    }

    #[test]
    fn exact_match() {
        assert!(m("abc", "abc"));
        assert!(!m("abc", "abd"));
        assert!(!m("abc", "ab"));
    }

    #[test]
    fn underscore_single_char() {
        assert!(m("abc", "a_c"));
        assert!(!m("ac", "a_c"));
        assert!(m("abc", "___"));
        assert!(!m("abcd", "___"));
        // `_` is one char, not one byte.
        assert!(m("日", "_"));
        assert!(m("aé日", "a__"));
        assert!(!m("aé日", "a_"));
    }

    #[test]
    fn percent_any_sequence() {
        assert!(m("abc", "%"));
        assert!(m("", "%"));
        assert!(m("abc", "a%"));
        assert!(m("abc", "%c"));
        assert!(m("abc", "%b%"));
        assert!(!m("abc", "%d%"));
    }

    #[test]
    fn prefix_suffix_infix() {
        assert!(m("honda civic", "honda%"));
        assert!(m("honda civic", "%civic"));
        assert!(m("honda civic", "%a c%"));
        assert!(!m("honda civic", "toyota%"));
        assert!(m("é日本", "%日%"));
        assert!(!m("é日本", "%本日%"));
    }

    #[test]
    fn multiple_percents_with_backtracking() {
        assert!(m("aXbXc", "a%b%c"));
        assert!(m("aabbcc", "a%b%c"));
        assert!(!m("aabbcc", "a%c%b"));
        assert!(m("mississippi", "%ss%ss%"));
        assert!(!m("mississippi", "%ss%ss%ss%"));
        assert!(m("日é日é", "%é%é"));
        assert!(!m("日é日é", "%é%é%日"));
    }

    #[test]
    fn mixed_wildcards() {
        assert!(m("sedan-4d", "sedan%_d"));
        assert!(m("ab", "%_"));
        assert!(!m("", "%_"));
        assert!(m("aé", "%_"));
    }

    #[test]
    fn empty_cases() {
        assert!(m("", ""));
        assert!(!m("a", ""));
        assert!(!m("", "a"));
        assert!(m("", "%%"));
    }

    #[test]
    fn classification() {
        use LikePattern::*;
        let s = |x: &str| Box::<str>::from(x);
        for (pattern, class) in [
            ("abc%", Prefix(s("abc"))),
            ("%abc", Suffix(s("abc"))),
            ("%abc%", Contains(s("abc"))),
            ("abc", Exact(s("abc"))),
            ("", Exact(s(""))),
            ("%", Suffix(s(""))),
            ("%%", Contains(s(""))),
            ("a_c%", General("a_c%".chars().collect())),
            ("a%c", General("a%c".chars().collect())),
            ("%%a", General("%%a".chars().collect())),
            ("日%", Prefix(s("日"))),
        ] {
            assert_eq!(LikePattern::new(pattern), class, "{pattern:?}");
        }
        // '%' and '%%' match every string (NULL is the caller's).
        for any in ["%", "%%"] {
            for text in ["", "a", "é日", "%"] {
                assert!(m(text, any), "{text:?} LIKE {any:?}");
            }
        }
    }
}
