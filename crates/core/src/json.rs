//! JSON: the one place the workspace reads or writes it.
//!
//! Every report (scenario, campaign, explore), every wire line of the
//! service protocol and the `bench_sim` snapshot is built as a [`Json`]
//! value and rendered by one of two forms:
//!
//! * [`Json::line`] — everything inline, `{"k": v, "k2": v2}` and
//!   `[a, b]`: the single-line wire form;
//! * [`Json::document`] — the report layout. A non-empty object at depth
//!   0 or 1 is written one member per line, and a non-empty array of
//!   objects at depth 1 or 2 one element per line, indented two spaces
//!   per level; everything else is inline. The document ends in a
//!   newline.
//!
//! Numbers keep their literal text ([`Json::Num`]), so integers up to
//! `u64::MAX` round-trip exactly and a writer can hold a float already
//! formatted to fixed places ([`Json::fixed`]). The reader is a strict
//! recursive-descent parser; the vendored `serde` is inert.

use crate::error::HelixError;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, as its literal text. The parser only admits text that
    /// parses as `f64`; [`Json::as_u64`] and [`Json::as_i64`] read the
    /// text exactly.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document. Errors are
    /// [`ErrorKind::Protocol`](crate::error::ErrorKind::Protocol) with a
    /// byte offset.
    pub fn parse(text: &str) -> Result<Json, HelixError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// An empty object, to fill with [`Json::with`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// This object with `key: value` appended.
    ///
    /// # Panics
    ///
    /// If `self` is not an object.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("Json::with on a non-object: {other:?}"),
        }
        self
    }

    /// This object with `key: value` appended when `value` is `Some`.
    pub fn with_opt(self, key: &str, value: Option<impl Into<Json>>) -> Json {
        match value {
            Some(value) => self.with(key, value),
            None => self,
        }
    }

    /// This object with the array `key: items` appended unless `items`
    /// is empty.
    pub fn with_nonempty(self, key: &str, items: Vec<Json>) -> Json {
        if items.is_empty() {
            self
        } else {
            self.with(key, items)
        }
    }

    /// A float written with exactly `places` decimals (`{:.places$}`).
    pub fn fixed(value: f64, places: usize) -> Json {
        Json::Num(format!("{value:.places$}"))
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Bool payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric payload as `f64`, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// Numeric payload as `u64`, if this number is written as a
    /// non-negative integer that fits (`1.5e3` and `1e300` are not).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// Numeric payload as `i64`, if this number is written as an
    /// integer that fits.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// Array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render on one line, with no newline: the wire form.
    pub fn line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        out
    }

    /// Render in the report layout (see the module docs), ending in a
    /// newline.
    pub fn document(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize, document: bool) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(text) => out.push_str(text),
            Json::Str(s) => json_escape(out, s),
            Json::Arr(items) => {
                let split = document
                    && (1..=2).contains(&depth)
                    && !items.is_empty()
                    && items.iter().all(|item| matches!(item, Json::Obj(_)));
                write_seq(out, ('[', ']'), items, depth, split, |out, item| {
                    item.write(out, depth + 1, document)
                });
            }
            Json::Obj(fields) => {
                let split = document && depth <= 1 && !fields.is_empty();
                write_seq(
                    out,
                    ('{', '}'),
                    fields,
                    depth,
                    split,
                    |out, (key, value)| {
                        json_escape(out, key);
                        out.push_str(": ");
                        value.write(out, depth + 1, document);
                    },
                );
            }
        }
    }
}

/// Write `items` between `open` and `close`, either inline (`, `
/// separated) or one per line indented one level below `depth`.
fn write_seq<T>(
    out: &mut String,
    (open, close): (char, char),
    items: &[T],
    depth: usize,
    split: bool,
    mut item: impl FnMut(&mut String, &T),
) {
    out.push(open);
    for (i, x) in items.iter().enumerate() {
        if split {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&"  ".repeat(depth + 1));
        } else if i > 0 {
            out.push_str(", ");
        }
        item(out, x);
    }
    if split {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

/// Write `s` as a quoted JSON string: backslash, quote and control
/// characters are escaped.
fn json_escape(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
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

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<&String> for Json {
    fn from(s: &String) -> Json {
        Json::Str(s.clone())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n.to_string())
            }
        }
    )*};
}

json_from_int!(u32, u64, usize, i64);

impl<T: Into<Json>> From<Option<T>> for Json {
    /// `None` is `null`.
    fn from(value: Option<T>) -> Json {
        value.map_or(Json::Null, Into::into)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> HelixError {
        HelixError::protocol(format!("invalid JSON at byte {}: {message}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), HelixError> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, HelixError> {
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(&b) => Err(self.err(&format!("unexpected byte 0x{b:02x}"))),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, HelixError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, HelixError> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("non-UTF-8 number"))?;
        match text.parse::<f64>() {
            Ok(_) => Ok(Json::Num(text.to_string())),
            Err(_) => Err(self.err(&format!("malformed number '{text}'"))),
        }
    }

    fn string(&mut self) -> Result<String, HelixError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let unit = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xd800..0xdc00).contains(&unit) {
                                if self.bytes.get(self.pos) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 1) != Some(&b'u')
                                {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else if (0xdc00..0xe000).contains(&unit) {
                                return Err(self.err("unpaired low surrogate"));
                            } else {
                                char::from_u32(unit).ok_or_else(|| self.err("invalid codepoint"))?
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(self.err(&format!("invalid escape '\\{}'", other as char)))
                        }
                    }
                }
                Some(&b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 character (multi-byte safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("non-UTF-8 string content"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("empty char"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, HelixError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("non-UTF-8 \\u escape"))?;
        let unit = u32::from_str_radix(text, 16).map_err(|_| self.err("malformed \\u escape"))?;
        self.pos = end;
        Ok(unit)
    }

    fn array(&mut self) -> Result<Json, HelixError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, HelixError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorKind;

    #[test]
    fn parses_bench_shaped_documents() {
        let doc = r#"{
  "harness": "bench_sim",
  "host_threads": 8,
  "workloads": [
    {"name": "175.vpr", "config": "conventional-16", "cycles": 156935,
     "fast_cycles_per_sec": 1.234e7, "speedup": 5.31},
    {"name": "164.gzip", "config": "helix-rc-16", "cycles": 1, "fast_cycles_per_sec": 2.0, "speedup": 1.0}
  ],
  "nested": {"ok": true, "missing": null}
}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("harness").unwrap().as_str(), Some("bench_sim"));
        let ws = v.get("workloads").unwrap().as_array().unwrap();
        assert_eq!(ws.len(), 2);
        assert_eq!(
            ws[0].get("fast_cycles_per_sec").unwrap().as_num(),
            Some(1.234e7)
        );
        assert_eq!(v.get("host_threads").unwrap().as_u64(), Some(8));
        let nested = v.get("nested").unwrap();
        assert_eq!(nested.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(nested.get("missing"), Some(&Json::Null));
        assert_eq!(nested.get("absent"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for malformed in [
            "{",
            "{\"open\": ",
            "{\"a\": }",
            "[1, 2,]",
            "nope",
            "\"\\q\"",
            "{} extra",
            "1e",
            "{]",
        ] {
            let e = Json::parse(malformed).unwrap_err();
            assert_eq!(e.kind, ErrorKind::Protocol, "{malformed}");
        }
    }

    #[test]
    fn string_escapes() {
        let s = Json::parse(r#"{"s": "a\"b\\c\nd\u00e9\/"}"#).unwrap();
        assert_eq!(s.get("s").unwrap().as_str(), Some("a\"b\\c\nd\u{e9}/"));
    }

    /// Integers are read from their text, not through `f64`: every
    /// `u64` survives, and a number that is not written as an integer
    /// is not one.
    #[test]
    fn integers_are_exact() {
        for n in [
            0,
            9_007_199_254_740_993,
            12_345_678_901_234_567_891,
            u64::MAX,
        ] {
            let v = Json::parse(&Json::from(n).line()).unwrap();
            assert_eq!(v.as_u64(), Some(n));
        }
        assert_eq!(
            Json::parse("-9223372036854775808").unwrap().as_i64(),
            Some(i64::MIN)
        );
        for text in ["1.5e3", "1e300", "2.0", "-1", "18446744073709551616"] {
            assert_eq!(Json::parse(text).unwrap().as_u64(), None, "{text}");
        }
        assert_eq!(Json::parse("1.5e3").unwrap().as_num(), Some(1500.0));
    }

    #[test]
    fn line_and_document_forms() {
        let row = |n: u64| Json::obj().with("n", n).with("x", Json::fixed(0.5, 3));
        let doc = Json::obj()
            .with("name", "a\"b")
            .with("empty", Vec::new())
            .with("ints", vec![Json::from(1u64), Json::from(2u64)])
            .with("rows", vec![row(1), row(2)])
            .with(
                "inner",
                Json::obj()
                    .with("nested", vec![row(3)])
                    .with("deep", Json::obj().with("k", Json::Null)),
            )
            .with_opt("skipped", None::<bool>);
        assert_eq!(
            doc.line(),
            r#"{"name": "a\"b", "empty": [], "ints": [1, 2], "rows": [{"n": 1, "x": 0.500}, {"n": 2, "x": 0.500}], "inner": {"nested": [{"n": 3, "x": 0.500}], "deep": {"k": null}}}"#
        );
        assert_eq!(
            doc.document(),
            r#"{
  "name": "a\"b",
  "empty": [],
  "ints": [1, 2],
  "rows": [
    {"n": 1, "x": 0.500},
    {"n": 2, "x": 0.500}
  ],
  "inner": {
    "nested": [
      {"n": 3, "x": 0.500}
    ],
    "deep": {"k": null}
  }
}
"#
        );
        assert_eq!(Json::parse(&doc.document()).unwrap(), doc);
    }
}
