//! The little JSON this benchmark needs: a value tree, a renderer that
//! keeps every digit of an `f64`, and a parser for `BENCHMARK.json`, the
//! goldens and the run records child processes leave behind.

/// A JSON document. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Build an object from `(key, value)` pairs, keeping their order.
pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A JSON string.
pub fn string(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

impl Json {
    /// Compact rendering (one line).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(None, &mut out);
        out
    }

    /// Indented rendering.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(Some(0), &mut out);
        out
    }

    fn write(&self, level: Option<usize>, out: &mut String) {
        let inner = level.map(|l| l + 1);
        let newline = |level: Option<usize>, out: &mut String| {
            if let Some(l) = level {
                out.push('\n');
                out.push_str(&"  ".repeat(l));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // JSON has no NaN or infinity.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => out.push_str(&x.to_string()),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(inner, out);
                    item.write(inner, out);
                }
                if !items.is_empty() {
                    newline(level, out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, item)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(inner, out);
                    write_escaped(key, out);
                    out.push(':');
                    if level.is_some() {
                        out.push(' ');
                    }
                    item.write(inner, out);
                }
                if !fields.is_empty() {
                    newline(level, out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Member `key` of an object.
pub fn get<'a>(v: &'a Json, key: &str) -> Option<&'a Json> {
    match v {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Follow `path` through nested objects.
pub fn at<'a>(v: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(v, |v, key| get(v, key))
}

/// The number at `path`.
pub fn f64_at(v: &Json, path: &[&str]) -> Option<f64> {
    match at(v, path)? {
        Json::Num(x) => Some(*x),
        _ => None,
    }
}

/// The string at `path`.
pub fn str_at<'a>(v: &'a Json, path: &[&str]) -> Option<&'a str> {
    match at(v, path)? {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

/// The elements of the array at `path` (empty when absent).
pub fn array_at<'a>(v: &'a Json, path: &[&str]) -> &'a [Json] {
    match at(v, path) {
        Some(Json::Arr(items)) => items,
        _ => &[],
    }
}

/// The `name` member of every element of the array at `path`.
pub fn names_at(v: &Json, path: &[&str]) -> Vec<String> {
    array_at(v, path)
        .iter()
        .filter_map(|item| str_at(item, &["name"]).map(str::to_string))
        .collect()
}

/// Parse a JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos == p.bytes.len() {
        Ok(v)
    } else {
        Err(p.error("trailing characters"))
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("json: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(token.as_bytes());
        if hit {
            self.pos += token.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self
                .members(b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    if !p.eat(":") {
                        return Err(p.error("expected ':'"));
                    }
                    Ok((key, p.value()?))
                })
                .map(Json::Obj),
            Some(b'[') => self.members(b']', Parser::value).map(Json::Arr),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(c) if *c == b'-' || c.is_ascii_digit() => {
                let start = self.pos;
                while self.bytes.get(self.pos).is_some_and(|c| {
                    matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') || c.is_ascii_digit()
                }) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("bad number"))?;
                text.parse()
                    .map(Json::Num)
                    .map_err(|_| self.error("bad number"))
            }
            _ => Err(self.error("expected a value")),
        }
    }

    /// Comma-separated items up to `close`; the opening bracket is current.
    fn members<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) == Some(&close) {
                self.pos += 1;
                return Ok(out);
            }
            if !out.is_empty() {
                if !self.eat(",") {
                    return Err(self.error("expected ','"));
                }
                self.skip_ws();
            }
            out.push(item(self)?);
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.skip_ws();
        if !self.eat("\"") {
            return Err(self.error("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            let c = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| self.error("unterminated string"))?;
            self.pos += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|_| self.error("bad utf-8")),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_what_it_renders() {
        let doc = object([
            ("a", Json::Num(1.25)),
            (
                "b",
                Json::Arr(vec![string("x\"y\n"), Json::Null, Json::Bool(true)]),
            ),
            ("c", object([("d.e", Json::Num(-3e-7))])),
        ]);
        for text in [doc.render(), doc.render_pretty()] {
            assert_eq!(parse(&text).unwrap(), doc, "{text}");
        }
        assert_eq!(f64_at(&doc, &["c", "d.e"]), Some(-3e-7));
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("[1 2]").is_err());
    }
}
