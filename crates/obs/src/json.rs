//! Minimal JSON writer and parser — the workspace's one JSON codec.
//!
//! The workspace has no serde; exporters hand-write JSON through
//! [`escape_into`] and the schema validator, report loader, trace reader
//! and checkpoint loader parse documents with [`parse`]. Objects preserve
//! key order as `Vec<(String, Json)>` pairs — the determinism lint bans
//! `HashMap`, and ordered pairs keep emitted and re-parsed documents
//! byte-stable anyway.
//!
//! Numbers are exact: a literal of plain digits parses as [`Json::U64`], a
//! literal with a leading `-` as [`Json::I64`], and one with a fraction or
//! exponent as [`Json::F64`]. Every number the workspace writes therefore
//! re-serializes to the same bytes, including seeds and hash draws above
//! 2^53 that an `f64`-only parser would round.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer literal (plain digits), exact.
    U64(u64),
    /// A negative integer literal (leading `-`), exact.
    I64(i64),
    /// A literal with a fraction or exponent.
    F64(f64),
    /// String (unescaped).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from ordered key/value pairs.
    pub fn obj<'k>(pairs: impl IntoIterator<Item = (&'k str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The values of an object that has exactly the keys `keys`, in that
    /// order — the strict shape check for fixed-layout records.
    ///
    /// # Errors
    ///
    /// A message naming the first missing, extra, or out-of-order key, or
    /// the value's type when it is not an object.
    pub fn fields<const N: usize>(&self, keys: [&str; N]) -> Result<[&Json; N], String> {
        let Json::Obj(pairs) = self else {
            return Err(format!("expected an object, found {}", self.type_name()));
        };
        let mut out = [&Json::Null; N];
        for (i, key) in keys.iter().enumerate() {
            match pairs.get(i) {
                Some((k, v)) if k == key => out[i] = v,
                Some((k, _)) => return Err(format!("expected key {key:?}, found {k:?}")),
                None => return Err(format!("missing key {key:?}")),
            }
        }
        if let Some((k, _)) = pairs.get(N) {
            return Err(format!("unexpected key {k:?}"));
        }
        Ok(out)
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value of any number, as `f64` (rounded above 2^53).
    pub fn as_num(&self) -> Option<f64> {
        match *self {
            Json::U64(n) => Some(n as f64),
            Json::I64(n) => Some(n as f64),
            Json::F64(n) => Some(n),
            _ => None,
        }
    }

    /// The value of a non-negative integer literal.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(n) => Some(n),
            _ => None,
        }
    }

    /// The value of an integer literal that fits `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::I64(n) => Some(n),
            Json::U64(n) => i64::try_from(n).ok(),
            _ => None,
        }
    }

    /// JSON type name used in validation error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::U64(_) | Json::I64(_) | Json::F64(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::U64(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::U64(u64::from(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::U64(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

/// Appends `s` to `out` with JSON string escaping (no surrounding quotes).
pub fn escape_into(out: &mut String, s: &str) {
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
}

/// Writes a quoted, escaped JSON string.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Writes an `f64` as JSON: integral values without a fractional part,
/// non-finite values as `null` (JSON has no NaN/Inf).
pub fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 9e15 {
        out.push_str(&format!("{}", v as i64));
    } else {
        out.push_str(&format!("{v}"));
    }
}

/// Serializes a [`Json`] value compactly (no whitespace), preserving object
/// key order. Integers print exactly and floats go through [`write_f64`],
/// so a document produced by the workspace's exporters re-serializes
/// byte-identically after [`parse`] — the round-trip property the report,
/// trace and checkpoint tests assert.
pub fn write_value(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::U64(n) => out.push_str(&n.to_string()),
        Json::I64(n) => out.push_str(&n.to_string()),
        Json::F64(n) => write_f64(out, *n),
        Json::Str(s) => write_str(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(out, k);
                out.push(':');
                write_value(out, val);
            }
            out.push('}');
        }
    }
}

/// [`write_value`] into a fresh string.
pub fn to_string(v: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, v);
    out
}

/// Parses a JSON document. Returns an error message with a byte offset on
/// malformed input; trailing non-whitespace after the value is an error.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser { s: input, pos: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

/// Recursive-descent cursor. `pos` only ever stops on ASCII delimiters or
/// after whole scalars, so it always sits on a char boundary of `s`.
struct Parser<'a> {
    s: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'{') => self.obj(),
            Some(b'[') => self.arr(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(_) => self.num(),
        }
    }

    fn lit(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.s[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn num(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = &self.s[start..self.pos];
        let bad = || format!("invalid number {text:?} at byte {start}");
        if text.is_empty() {
            Err(format!("unexpected character at byte {start}"))
        } else if text.contains(['.', 'e', 'E']) {
            text.parse().map(Json::F64).map_err(|_| bad())
        } else if text.starts_with('-') {
            text.parse().map(Json::I64).map_err(|_| bad())
        } else {
            text.parse().map(Json::U64).map_err(|_| bad())
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one slice;
            // both are ASCII, so the cut is on a char boundary.
            let run = self.s[self.pos..]
                .find(['"', '\\'])
                .ok_or_else(|| "unterminated string".to_string())?;
            out.push_str(&self.s[self.pos..self.pos + run]);
            self.pos += run;
            if self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            let esc = self.peek();
            self.pos += 1;
            match esc {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let hex = self
                        .s
                        .get(self.pos..self.pos + 4)
                        .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                        .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                    let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                    // Surrogates are not recombined; the writers never
                    // emit them.
                    let c = char::from_u32(code)
                        .ok_or_else(|| format!("bad \\u code point {code:#x}"))?;
                    out.push(c);
                    self.pos += 4;
                }
                _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
            }
        }
    }

    fn arr(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn obj(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny", "d": true}, "e": null}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2], Json::I64(-3));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.get("e"), Some(&Json::Null));
    }

    #[test]
    fn escape_round_trips() {
        let original = "quote \" backslash \\ newline \n tab \t ctrl \u{1} unicode é";
        let mut buf = String::new();
        write_str(&mut buf, original);
        let parsed = parse(&buf).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("").is_err());
        assert!(parse("\"\\u12\"").is_err());
        assert!(parse("\"\\ud800\"").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn compact_documents_round_trip_bytewise() {
        let doc = r#"{"a":[1,2.5,-3],"b":{"c":"x\ny","d":true},"e":null,"f":[]}"#;
        let parsed = parse(doc).unwrap();
        assert_eq!(to_string(&parsed), doc);
        let again = parse(&to_string(&parsed)).unwrap();
        assert_eq!(again, parsed);
    }

    #[test]
    fn integers_round_trip_exactly_at_full_range() {
        for (doc, value) in [
            ("18446744073709551615", Json::U64(u64::MAX)),
            ("-9223372036854775808", Json::I64(i64::MIN)),
            ("9007199254740993", Json::U64((1 << 53) + 1)),
        ] {
            let parsed = parse(doc).unwrap();
            assert_eq!(parsed, value, "{doc}");
            assert_eq!(to_string(&parsed), doc, "{doc}");
        }
        let arr = "[18446744073709551615,-9223372036854775808,9007199254740993,0.5]";
        assert_eq!(to_string(&parse(arr).unwrap()), arr);
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("-7").unwrap().as_u64(), None);
        assert_eq!(parse("7.0").unwrap().as_u64(), None);
        assert_eq!(parse("-7").unwrap().as_i64(), Some(-7));
        assert_eq!(parse("7").unwrap().as_i64(), Some(7));
        assert_eq!(parse("18446744073709551615").unwrap().as_i64(), None);
        assert_eq!(parse("1e2").unwrap().as_num(), Some(100.0));
        // Integers past the exact range are errors, not silent roundings.
        assert!(parse("18446744073709551616").is_err());
        assert!(parse("-9223372036854775809").is_err());
    }

    #[test]
    fn fields_checks_the_exact_key_sequence() {
        let v = parse(r#"{"a":1,"b":"x"}"#).unwrap();
        let [a, b] = v.fields(["a", "b"]).unwrap();
        assert_eq!((a.as_u64(), b.as_str()), (Some(1), Some("x")));
        assert!(v.fields(["b", "a"]).unwrap_err().contains("expected key"));
        assert!(v.fields(["a"]).unwrap_err().contains("unexpected key"));
        assert!(v
            .fields(["a", "b", "c"])
            .unwrap_err()
            .contains("missing key"));
        assert!(Json::Null.fields(["a"]).is_err());
    }

    #[test]
    fn write_f64_formats() {
        let mut s = String::new();
        write_f64(&mut s, 3.0);
        assert_eq!(s, "3");
        s.clear();
        write_f64(&mut s, 0.35);
        assert_eq!(s, "0.35");
        s.clear();
        write_f64(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }
}
