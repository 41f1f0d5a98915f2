//! A minimal JSON value codec: a value type, a strict parser and a
//! writer.
//!
//! Scope is deliberately narrow — this replaces `serde_json` for the one
//! JSON document the suite reads back, the H5SIM object header
//! (`io_layers::hdf5`), plus one-line result parsing in the benchmark's
//! tests. Traces persist as the binary spill log, never as JSON. Two
//! points of fidelity are guaranteed here:
//!
//! * integers are kept exact: numeric literals without a fraction or
//!   exponent parse into a 128-bit integer variant, so `u64` round-trips
//!   losslessly (a float-only value type would corrupt offsets past 2^53);
//! * object member order is preserved (insertion order on build, document
//!   order on parse), so emission is deterministic.

use std::fmt;

/// A parsed or built JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent, kept exact.
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is preserved.
    Obj(Vec<(String, Json)>),
}

/// Decode failure: what went wrong and the byte offset it went wrong at
/// (offset 0 for structural errors raised above the parser).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub msg: String,
    /// Byte offset into the input, when known.
    pub at: usize,
}

impl JsonError {
    /// A structural error (wrong shape/type), not tied to an input offset.
    pub fn shape(msg: impl Into<String>) -> Self {
        JsonError {
            msg: msg.into(),
            at: 0,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse a JSON document (must be a single value with only trailing
    /// whitespace after it).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Render as compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => {
                out.push_str(&n.to_string());
            }
            Json::Float(x) => {
                if x.is_finite() {
                    // `{}` on f64 is the shortest representation that
                    // round-trips, and always includes a '.' or 'e' marker
                    // when needed... except for integral values, where we
                    // add one so re-parsing keeps the Float variant.
                    let s = x.to_string();
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (k, (name, value)) in members.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    write_escaped(name, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Build an object from `(name, value)` pairs.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Member lookup on an object.
    pub fn get(&self, name: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required-member lookup, as a decode error when missing.
    pub fn field(&self, name: &str) -> Result<&Json, JsonError> {
        self.get(name)
            .ok_or_else(|| JsonError::shape(format!("missing field `{name}`")))
    }

    /// The array items, or a shape error.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(JsonError::shape(format!(
                "expected array, got {}",
                other.kind()
            ))),
        }
    }

    /// The string contents, or a shape error.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(JsonError::shape(format!(
                "expected string, got {}",
                other.kind()
            ))),
        }
    }

    /// The numeric value as f64 (Int or Float), or a shape error.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Int(n) => Ok(*n as f64),
            Json::Float(x) => Ok(*x),
            other => Err(JsonError::shape(format!(
                "expected number, got {}",
                other.kind()
            ))),
        }
    }

    /// The exact value as a `u64`, or a shape error: floats don't coerce,
    /// and negative or wider integers are out of range.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Json::Int(n) => {
                u64::try_from(*n).map_err(|_| JsonError::shape(format!("{n} out of range for u64")))
            }
            other => Err(JsonError::shape(format!(
                "expected integer, got {}",
                other.kind()
            ))),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) => "integer",
            Json::Float(_) => "float",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
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
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting the parser accepts. The parser recurses
/// once per level, so an unbounded input could overflow the stack; every
/// document the suite writes nests a few levels at most.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    /// Arrays and objects currently open around the cursor.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            msg: msg.into(),
            at: self.i,
        }
    }

    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", c as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(c @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if c == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let name = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((name, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.i;
            // Fast path: run of plain bytes.
            while self.i < self.b.len() && self.b[self.i] != b'"' && self.b[self.i] != b'\\' {
                self.i += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.b[start..self.i])
                    .expect("input validated as utf-8 and split on ascii"),
            );
            match self.peek() {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uDC00-\uDFFF next.
                                if self.peek() == Some(b'\\') {
                                    self.i += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(cp)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        c => return Err(self.err(format!("bad escape `\\{}`", c as char))),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.i + 4 > self.b.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.b[self.i..self.i + 4])
            .map_err(|_| self.err("non-ascii in \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("non-hex in \\u escape"))?;
        self.i += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.i += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.i += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.i += 1;
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("ascii number");
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err(format!("bad number `{text}`")))
        } else {
            text.parse::<i128>()
                .map(Json::Int)
                // Integers wider than i128 only occur in adversarial input;
                // fall back to f64 like other lenient parsers.
                .or_else(|_| text.parse::<f64>().map(Json::Float))
                .map_err(|_| self.err(format!("bad number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-17", "4.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.render(), text);
        }
    }

    #[test]
    fn u64_extremes_are_exact() {
        let text = Json::Int(u64::MAX as i128).render();
        assert_eq!(text, "18446744073709551615");
        assert_eq!(Json::parse(&text).unwrap().as_u64().unwrap(), u64::MAX);
        let neg = Json::Int(i64::MIN as i128).render();
        assert_eq!(neg, "-9223372036854775808");
        assert_eq!(Json::parse(&neg).unwrap(), Json::Int(i64::MIN as i128));
        for bad in ["-1", "18446744073709551616", "2.5", "\"7\""] {
            assert!(Json::parse(bad).unwrap().as_u64().is_err(), "{bad}");
        }
    }

    #[test]
    fn floats_round_trip_shortest() {
        for x in [0.1f64, 1.0 / 3.0, 1e-300, 2.5e17, -0.0, 123456789.123456789] {
            let text = Json::Float(x).render();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        }
    }

    #[test]
    fn integral_float_stays_float() {
        let text = Json::Float(2.0).render();
        assert_eq!(text, "2.0");
        assert!(matches!(Json::parse(&text).unwrap(), Json::Float(_)));
    }

    #[test]
    fn nonfinite_floats_write_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Float(x).render(), "null");
        }
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "line1\nline2\t\"quoted\" \\slash\\ nul:\u{01} emoji:🎉";
        let text = Json::Str(s.to_string()).render();
        assert_eq!(Json::parse(&text).unwrap().as_str().unwrap(), s);
    }

    #[test]
    fn unicode_escapes_parse() {
        let v = Json::parse(r#""\u0041\u00e9\ud83c\udf89 Aé🎉""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "Aé🎉 Aé🎉");
    }

    #[test]
    fn nesting_up_to_the_limit_parses() {
        let deep = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&deep).is_ok());
        let too_deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let err = Json::parse(&too_deep).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH);
        assert!(err.msg.contains("nesting"), "{err}");
    }

    #[test]
    fn hostile_nesting_is_a_typed_error_not_a_stack_overflow() {
        let arrays = "[".repeat(100_000);
        let err = Json::parse(&arrays).unwrap_err();
        assert!(err.msg.contains("nesting"), "{err}");
        let objects = r#"{"a":"#.repeat(100_000);
        let err = Json::parse(&objects).unwrap_err();
        assert!(err.msg.contains("nesting"), "{err}");
    }

    #[test]
    fn arrays_and_objects_round_trip() {
        let text = r#"{"a":[1,2,3],"b":{"c":null,"d":[true,false]},"e":"x"}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.render(), text);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
    }

    #[test]
    fn object_member_order_is_preserved() {
        let text = r#"{"z":1,"a":2,"m":3}"#;
        assert_eq!(Json::parse(text).unwrap().render(), text);
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : \"x\" } \n").unwrap();
        assert_eq!(v.render(), r#"{"a":[1,2],"b":"x"}"#);
    }

    #[test]
    fn malformed_documents_error_with_position() {
        for bad in [
            "{",
            "[1,",
            "\"unterminated",
            "{\"a\" 1}",
            "tru",
            "01x",
            "[1] []",
            "",
        ] {
            let e = Json::parse(bad).unwrap_err();
            assert!(e.at <= bad.len(), "{bad}: {e}");
        }
    }
}
