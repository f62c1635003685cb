//! Minimal JSON support: a value tree, a deterministic writer, and a strict
//! parser.
//!
//! The workspace builds offline — the vendored `serde` is a traits-only
//! stand-in with no `serde_json` — so trace lines and bench reports are
//! written and read through this hand-rolled subset. Objects preserve
//! insertion order (they are vectors of pairs, not maps), which is what
//! makes the writer deterministic: the emitter chooses the key order once
//! and every run reproduces it byte for byte.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (covers every count and microsecond timestamp we emit).
    Int(i64),
    /// A non-integer number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as ordered key/value pairs (insertion order preserved).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The value under `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as an integer, if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            JsonValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// This value as a float; integer values are widened.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            JsonValue::Float(f) => Some(*f),
            JsonValue::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// This value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace), deterministically.
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Serializes with 2-space indentation, deterministically.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => write_json_int(out, *i),
            JsonValue::Float(f) => write_float(out, *f),
            JsonValue::Str(s) => write_json_string(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_compact(out);
                }
                out.push(']');
            }
            JsonValue::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            JsonValue::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            JsonValue::Object(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_json_string(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Writes `f` as a JSON number. `f64`'s `Display` is the shortest string
/// that round-trips, which is deterministic across runs and platforms;
/// non-finite values (invalid JSON) degrade to `null`.
fn write_float(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{f}");
    // Ensure the token stays a *number* that parses back as Float.
    if !out[start..].contains('.') && !out[start..].contains('e') {
        out.push_str(".0");
    }
}

/// Writes `i` in decimal. Digits are produced into a stack buffer and
/// appended in one go: no formatter, no lookup table, no allocation beyond
/// `out`'s own growth.
pub fn write_json_int(out: &mut String, i: i64) {
    // '-' plus the 19 digits of `i64::MIN`'s magnitude.
    let mut buf = [0u8; 20];
    let mut pos = buf.len();
    let mut n = i.unsigned_abs();
    loop {
        pos -= 1;
        buf[pos] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if i < 0 {
        pos -= 1;
        buf[pos] = b'-';
    }
    out.extend(buf[pos..].iter().map(|&b| b as char));
}

/// Writes `s` as a JSON string literal with the mandatory escapes.
///
/// Every byte that needs escaping is ASCII, so the text between two of
/// them is copied as one slice; a string with none (every name, tag and
/// label the protocol emits) is a single `push_str`.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[copied..i]);
        copied = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[copied..]);
    out.push('"');
}

/// A JSON syntax error with its byte offset in the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (trailing whitespace allowed).
pub fn parse(src: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-sync to char boundary: strings are valid UTF-8.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && (self.bytes[end] & 0xc0) == 0x80 {
                        end += 1;
                    }
                    match std::str::from_utf8(&self.bytes[start..end]) {
                        Ok(s) => {
                            out.push_str(s);
                            self.pos = end;
                        }
                        Err(_) => return Err(self.err("invalid utf-8")),
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if float {
            text.parse::<f64>()
                .map(JsonValue::Float)
                .map_err(|_| self.err("invalid float"))
        } else {
            text.parse::<i64>()
                .map(JsonValue::Int)
                .map_err(|_| self.err("invalid integer"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips_compact() {
        let v = JsonValue::Object(vec![
            ("t".into(), JsonValue::Int(42)),
            ("name".into(), JsonValue::Str("/a/b \"q\"\n".into())),
            ("ok".into(), JsonValue::Bool(true)),
            (
                "xs".into(),
                JsonValue::Array(vec![JsonValue::Int(1), JsonValue::Null]),
            ),
        ]);
        let s = v.to_compact_string();
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn preserves_key_order() {
        let s = r#"{"b":1,"a":2}"#;
        let v = parse(s).unwrap();
        assert_eq!(v.to_compact_string(), s);
    }

    #[test]
    fn parses_floats_and_negatives() {
        assert_eq!(parse("-3").unwrap(), JsonValue::Int(-3));
        assert_eq!(parse("2.5").unwrap(), JsonValue::Float(2.5));
        assert_eq!(parse("1e3").unwrap(), JsonValue::Float(1000.0));
    }

    #[test]
    fn float_always_writes_a_fraction() {
        assert_eq!(JsonValue::Float(2.0).to_compact_string(), "2.0");
        assert_eq!(JsonValue::Float(f64::NAN).to_compact_string(), "null");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("1 2").is_err());
    }

    #[test]
    fn pretty_is_parseable() {
        let v = JsonValue::Object(vec![
            ("a".into(), JsonValue::Array(vec![JsonValue::Int(1)])),
            ("b".into(), JsonValue::Object(vec![])),
        ]);
        assert_eq!(parse(&v.to_pretty_string()).unwrap(), v);
    }

    #[test]
    fn unicode_survives() {
        let v = JsonValue::Str("héllo → wörld".into());
        assert_eq!(parse(&v.to_compact_string()).unwrap(), v);
    }

    /// A one-`char`-at-a-time escaper: the reference the slice-copying
    /// writer is held to.
    fn reference_json_string(s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    fn written_string(s: &str) -> String {
        let mut out = String::new();
        write_json_string(&mut out, s);
        out
    }

    fn written_int(i: i64) -> String {
        let mut out = String::new();
        write_json_int(&mut out, i);
        out
    }

    #[test]
    fn string_writer_escapes_what_it_must_and_copies_the_rest() {
        assert_eq!(written_string("/city/x"), "\"/city/x\"");
        assert_eq!(written_string(""), "\"\"");
        assert_eq!(written_string("a\u{1}\"\n"), "\"a\\u0001\\\"\\n\"");
        for s in ["\"", "\\", "\n\r\t", "\u{1f}x\u{7f}", "héllo → wörld 🚀"] {
            assert_eq!(written_string(s), reference_json_string(s), "{s:?}");
        }
    }

    #[test]
    fn integer_writer_matches_format_at_the_edges() {
        for i in [0, 1, -1, 9, 10, -10, 99, 100, i64::MIN, i64::MAX] {
            assert_eq!(written_int(i), format!("{i}"));
        }
    }

    /// Code points weighted toward the bytes that need escaping, plus two-,
    /// three- and four-byte UTF-8 (the ranges skip the surrogates).
    fn text() -> impl Strategy<Value = String> {
        let code_point = prop_oneof![
            0u32..0x20,
            0x20u32..0x80,
            Just(0x22u32),
            Just(0x5cu32),
            0x80u32..0x800,
            0x800u32..0xd800,
            0x1f300u32..0x1f700,
        ];
        prop::collection::vec(code_point, 0..40)
            .prop_map(|cps| cps.into_iter().filter_map(char::from_u32).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn string_writer_matches_the_reference(s in text()) {
            let written = written_string(&s);
            prop_assert_eq!(&written, &reference_json_string(&s));
            prop_assert_eq!(parse(&written).expect("valid JSON string"), JsonValue::Str(s));
        }

        #[test]
        fn integer_writer_matches_format(i in any::<i64>(), small in -100_000i64..100_000) {
            prop_assert_eq!(written_int(i), format!("{i}"));
            prop_assert_eq!(written_int(small), format!("{small}"));
        }
    }
}
