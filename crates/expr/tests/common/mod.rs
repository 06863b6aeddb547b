//! The reference LIKE matcher the expression tests share.

/// SQL LIKE by plain recursion over chars (`%` = any sequence, `_` = any
/// single char): exponential in the number of `%`, fine for small inputs,
/// and independent of the compiled `LikePattern` it checks.
pub fn like_ref(text: &str, pattern: &str) -> bool {
    fn go(text: &[char], pat: &[char]) -> bool {
        match (text.first(), pat.first()) {
            (_, None) => text.is_empty(),
            (_, Some('%')) => (0..=text.len()).any(|k| go(&text[k..], &pat[1..])),
            (Some(_), Some('_')) => go(&text[1..], &pat[1..]),
            (Some(t), Some(p)) => t == p && go(&text[1..], &pat[1..]),
            (None, Some(_)) => false,
        }
    }
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    go(&t, &p)
}
