//! # dcn-json
//!
//! A minimal JSON value type, recursive-descent parser, and printer —
//! just enough for the workspace's config files (`dcnsim`) and result
//! files (`dcn-bench`) without an external dependency. Objects preserve
//! insertion order so emitted files stay diff-stable.
//!
//! Parsing is bounded: arrays and objects may nest at most [`MAX_DEPTH`]
//! levels, so a hostile document (a daemon request frame, a damaged
//! file) gets an `Err` instead of overflowing the stack.
//!
//! ```
//! use dcn_json::Json;
//!
//! let v = Json::parse(r#"{"a": [1, 2.5, "x"], "b": true}"#).unwrap();
//! assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
//! assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
//! let round = Json::parse(&v.pretty()).unwrap();
//! assert_eq!(round.get("b").unwrap().as_bool(), Some(true));
//! ```

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts; one level more
/// is an error. Far above anything the workspace writes, far below what
/// the recursive-descent parser needs to exhaust a 2 MiB thread stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Numbers keep an integer representation when the source
/// (or constructor) was integral, so `u64` counters round-trip exactly.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: s.as_bytes(),
            i: 0,
            depth: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }

    /// Object field lookup; `None` on non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::Num(n) => Some(n),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(i) => Some(i),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9e15 => Some(n as i64),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|i| u64::try_from(i).ok())
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Two-space-indented pretty printing (the style of our result files).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, d: usize| {
            for _ in 0..d {
                out.push_str("  ");
            }
        };
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    pad(out, depth + 1);
                    v.write_pretty(out, depth + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, depth);
                out.push('}');
            }
            other => {
                use fmt::Write;
                write!(out, "{other}").unwrap();
            }
        }
    }
}

/// Compact (single-line) rendering.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Num(n) => {
                if n.is_finite() {
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        write!(f, "{:.1}", n)
                    } else {
                        write!(f, "{n}")
                    }
                } else {
                    f.write_str("null") // NaN / ±inf are not JSON
                }
            }
            Json::Str(s) => {
                let mut out = String::new();
                write_escaped(&mut out, s);
                f.write_str(&out)
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    let mut key = String::new();
                    write_escaped(&mut key, k);
                    write!(f, "{key}: {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}
impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}
impl From<u64> for Json {
    fn from(u: u64) -> Json {
        match i64::try_from(u) {
            Ok(i) => Json::Int(i),
            Err(_) => Json::Num(u as f64),
        }
    }
}
impl From<u32> for Json {
    fn from(u: u32) -> Json {
        Json::Int(u as i64)
    }
}
impl From<usize> for Json {
    fn from(u: usize) -> Json {
        Json::from(u as u64)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.i)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.i
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let v = self.value()?;
            fields.push((k, v));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pair handling for completeness.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                if self.b[self.i..].starts_with(b"\\u") {
                                    self.i += 2;
                                    let lo = self.hex4()?;
                                    let c = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(c)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(ch.ok_or("invalid \\u escape")?);
                        }
                        c => return Err(format!("bad escape '\\{}'", c as char)),
                    }
                }
                Some(_) => {
                    // Copy the full UTF-8 character, not byte by byte.
                    let rest = &self.b[self.i..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.i + 4 > self.b.len() {
            return Err("truncated \\u escape".to_string());
        }
        let s = std::str::from_utf8(&self.b[self.i..self.i + 4]).map_err(|e| e.to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|e| e.to_string())?;
        self.i += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.i += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).unwrap();
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("2.5").unwrap(), Json::Num(2.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].get("b"), Some(&Json::Null));
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn parses_example_config_shape() {
        let cfg = r#"{
            "topology": { "kind": "xpander", "net_degree": 5 },
            "lambda": 8000.0,
            "window_ms": [50, 150],
            "seed": 1
        }"#;
        let v = Json::parse(cfg).unwrap();
        assert_eq!(
            v.get("topology").unwrap().get("kind").unwrap().as_str(),
            Some("xpander")
        );
        assert_eq!(v.get("lambda").unwrap().as_f64(), Some(8000.0));
        let w = v.get("window_ms").unwrap().as_array().unwrap();
        assert_eq!((w[0].as_u64(), w[1].as_u64()), (Some(50), Some(150)));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::Str("line1\nline2\t\"quoted\" \\ end".into());
        let round = Json::parse(&original.to_string()).unwrap();
        assert_eq!(round, original);
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(Json::parse(r#""A""#).unwrap(), Json::Str("A".into()));
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
        assert_eq!(Json::parse("\"héllo\"").unwrap(), Json::Str("héllo".into()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn deep_array_nesting_is_an_error_not_a_stack_overflow() {
        let err = Json::parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
    }

    #[test]
    fn deep_object_nesting_is_an_error_not_a_stack_overflow() {
        let err = Json::parse(&"{\"a\":".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
    }

    #[test]
    fn nesting_exactly_at_the_limit_parses() {
        let at = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        let mut v = &Json::parse(&at).unwrap();
        for _ in 1..MAX_DEPTH {
            v = &v.as_array().unwrap()[0];
        }
        assert_eq!(v.as_array().map(|a| a.len()), Some(0));
        let objs = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&objs).is_ok());
        let over = format!("[{at}]");
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn pretty_round_trips() {
        let v = Json::obj(vec![
            ("name", Json::from("fig")),
            ("rows", Json::from(vec![1.5f64, 2.0])),
            ("count", Json::from(3u64)),
            ("empty", Json::Arr(vec![])),
        ]);
        let round = Json::parse(&v.pretty()).unwrap();
        assert_eq!(round, v);
    }

    #[test]
    fn numbers_render_like_serde_json() {
        // Integers bare, whole floats with a trailing .0 — matches what the
        // previous serde_json output looked like for our result files.
        assert_eq!(Json::Int(5).to_string(), "5");
        assert_eq!(Json::Num(5.0).to_string(), "5.0");
        assert_eq!(Json::Num(0.125).to_string(), "0.125");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn u64_counters_round_trip_exactly() {
        let big = u64::MAX / 3;
        let v = Json::from(big);
        assert_eq!(Json::parse(&v.to_string()).unwrap().as_u64(), Some(big));
    }

    #[test]
    fn object_order_preserved() {
        let v = Json::parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
    }
}
