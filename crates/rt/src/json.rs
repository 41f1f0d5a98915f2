//! A minimal JSON codec: a value type, a strict parser, a writer, and the
//! [`ToJson`]/[`FromJson`] traits the suite's persisted types implement by
//! hand.
//!
//! Scope is deliberately narrow — this replaces `serde`/`serde_json` for
//! the handful of types that actually hit disk (traces, columnar tables,
//! H5SIM headers, cluster specs), not for arbitrary Rust data. Two points
//! of fidelity matter for those types and are guaranteed here:
//!
//! * integers are kept exact: numeric literals without a fraction or
//!   exponent parse into a 128-bit integer variant, so `u64` round-trips
//!   losslessly (a float-only value type would corrupt offsets past 2^53);
//! * object member order is preserved (insertion order on build, document
//!   order on parse), so emission is deterministic.

use std::collections::HashMap;
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

/// Serialize a value to JSON text.
pub trait ToJson {
    /// Build the JSON tree for this value.
    fn to_json(&self) -> Json;
}

/// Deserialize a value from parsed JSON.
pub trait FromJson: Sized {
    /// Rebuild the value from a JSON tree.
    fn from_json(j: &Json) -> Result<Self, JsonError>;
}

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

    /// Parse from raw bytes (must be UTF-8).
    pub(crate) fn parse_bytes(bytes: &[u8]) -> Result<Json, JsonError> {
        let text = std::str::from_utf8(bytes).map_err(|e| JsonError {
            msg: format!("invalid utf-8: {e}"),
            at: e.valid_up_to(),
        })?;
        Json::parse(text)
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

    /// Decode a required member.
    pub fn decode_field<T: FromJson>(&self, name: &str) -> Result<T, JsonError> {
        T::from_json(self.field(name)?).map_err(|e| JsonError {
            msg: format!("field `{name}`: {}", e.msg),
            at: e.at,
        })
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

    /// The exact integer value, or a shape error (floats don't coerce).
    pub(crate) fn as_int(&self) -> Result<i128, JsonError> {
        match self {
            Json::Int(n) => Ok(*n),
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

// ---------------------------------------------------------------------------
// Blanket impls for the primitives the persisted types are built from.
// ---------------------------------------------------------------------------

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(j.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::shape(format!(
                "expected bool, got {}",
                other.kind()
            ))),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_str().map(str::to_string)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_f64()
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Float(*self as f64)
    }
}

impl FromJson for f32 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(j.as_f64()? as f32)
    }
}

macro_rules! int_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i128)
            }
        }
        impl FromJson for $t {
            fn from_json(j: &Json) -> Result<Self, JsonError> {
                let n = j.as_int()?;
                <$t>::try_from(n).map_err(|_| {
                    JsonError::shape(format!("{n} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}

int_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_arr()?.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for HashMap<String, T> {
    fn to_json(&self) -> Json {
        // Deterministic emission: members in sorted key order.
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort();
        Json::Obj(
            keys.into_iter()
                .map(|k| (k.clone(), self[k].to_json()))
                .collect(),
        )
    }
}

impl<T: FromJson> FromJson for HashMap<String, T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Obj(members) => members
                .iter()
                .map(|(k, v)| Ok((k.clone(), T::from_json(v)?)))
                .collect(),
            other => Err(JsonError::shape(format!(
                "expected object, got {}",
                other.kind()
            ))),
        }
    }
}

/// Serialize any [`ToJson`] value to a compact JSON string.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().render()
}

/// Serialize any [`ToJson`] value to JSON bytes.
pub fn to_vec<T: ToJson + ?Sized>(value: &T) -> Vec<u8> {
    to_string(value).into_bytes()
}

/// Parse and decode a [`FromJson`] value from JSON text.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(text)?)
}

/// Parse and decode a [`FromJson`] value from JSON bytes.
pub fn from_slice<T: FromJson>(bytes: &[u8]) -> Result<T, JsonError> {
    T::from_json(&Json::parse_bytes(bytes)?)
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
        let v = u64::MAX;
        let text = to_string(&v);
        assert_eq!(text, "18446744073709551615");
        assert_eq!(from_str::<u64>(&text).unwrap(), v);
        let neg = to_string(&i64::MIN);
        assert_eq!(from_str::<i64>(&neg).unwrap(), i64::MIN);
    }

    #[test]
    fn floats_round_trip_shortest() {
        for x in [0.1f64, 1.0 / 3.0, 1e-300, 2.5e17, -0.0, 123456789.123456789] {
            let text = to_string(&x);
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        }
    }

    #[test]
    fn integral_float_stays_float() {
        let text = to_string(&2.0f64);
        assert_eq!(text, "2.0");
        assert!(matches!(Json::parse(&text).unwrap(), Json::Float(_)));
    }

    #[test]
    fn nonfinite_floats_write_null() {
        assert_eq!(to_string(&f64::NAN), "null");
        assert_eq!(from_str::<Option<f64>>("null").unwrap(), None);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "line1\nline2\t\"quoted\" \\slash\\ nul:\u{01} emoji:🎉";
        let text = to_string(s);
        let back: String = from_str(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn unicode_escapes_parse() {
        let v: String = from_str(r#""Aé🎉""#).unwrap();
        assert_eq!(v, "Aé🎉");
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

    #[test]
    fn vec_and_option_and_map_impls() {
        let xs: Vec<Option<u32>> = vec![Some(1), None, Some(3)];
        let text = to_string(&xs);
        assert_eq!(text, "[1,null,3]");
        assert_eq!(from_str::<Vec<Option<u32>>>(&text).unwrap(), xs);

        let mut m = HashMap::new();
        m.insert("b".to_string(), 2u64);
        m.insert("a".to_string(), 1u64);
        assert_eq!(to_string(&m), r#"{"a":1,"b":2}"#);
        assert_eq!(from_str::<HashMap<String, u64>>(&to_string(&m)).unwrap(), m);
    }

    #[test]
    fn out_of_range_ints_are_shape_errors() {
        assert!(from_str::<u8>("300").is_err());
        assert!(from_str::<u64>("-1").is_err());
        assert!(from_str::<u32>("2.5").is_err());
    }
}
