//! Minimal JSON support: a value tree, a deterministic writer, and a strict
//! parser.
//!
//! The workspace builds offline — the vendored `serde` is a traits-only
//! stand-in with no `serde_json` — so trace lines and bench reports are
//! written and read through this hand-rolled subset. Objects preserve
//! insertion order (they are vectors of pairs, not maps), which is what
//! makes the writer deterministic: the emitter chooses the key order once
//! and every run reproduces it byte for byte.

use std::io::Write as _;

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
        let mut out = Vec::new();
        self.write_compact(&mut out);
        into_string(out)
    }

    /// Serializes with 2-space indentation, deterministically.
    pub fn to_pretty_string(&self) -> String {
        let mut out = Vec::new();
        self.write_pretty(&mut out, 0);
        out.push(b'\n');
        into_string(out)
    }

    fn write_compact(&self, out: &mut Vec<u8>) {
        match self {
            JsonValue::Null => out.extend_from_slice(b"null"),
            JsonValue::Bool(b) => write_json_bool(out, *b),
            JsonValue::Int(i) => write_json_int(out, *i),
            JsonValue::Float(f) => write_float(out, *f),
            JsonValue::Str(s) => write_json_string(out, s),
            JsonValue::Array(items) => {
                out.push(b'[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    v.write_compact(out);
                }
                out.push(b']');
            }
            JsonValue::Object(pairs) => {
                out.push(b'{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    write_json_string(out, k);
                    out.push(b':');
                    v.write_compact(out);
                }
                out.push(b'}');
            }
        }
    }

    fn write_pretty(&self, out: &mut Vec<u8>, depth: usize) {
        match self {
            JsonValue::Array(items) if !items.is_empty() => {
                out.extend_from_slice(b"[\n");
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.extend_from_slice(b",\n");
                    }
                    indent(out, depth + 1);
                    v.write_pretty(out, depth + 1);
                }
                out.push(b'\n');
                indent(out, depth);
                out.push(b']');
            }
            JsonValue::Object(pairs) if !pairs.is_empty() => {
                out.extend_from_slice(b"{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.extend_from_slice(b",\n");
                    }
                    indent(out, depth + 1);
                    write_json_string(out, k);
                    out.extend_from_slice(b": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push(b'\n');
                indent(out, depth);
                out.push(b'}');
            }
            other => other.write_compact(out),
        }
    }
}

fn indent(out: &mut Vec<u8>, depth: usize) {
    for _ in 0..depth {
        out.extend_from_slice(b"  ");
    }
}

/// The text of bytes this module wrote. Every writer here emits UTF-8
/// (ASCII punctuation and digits, and `&str` input copied between ASCII
/// escape points), so the lossy branch is never taken.
pub(crate) fn into_string(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// Writes `f` as a JSON number. `f64`'s `Display` is the shortest string
/// that round-trips, which is deterministic across runs and platforms;
/// non-finite values (invalid JSON) degrade to `null`.
fn write_float(out: &mut Vec<u8>, f: f64) {
    if !f.is_finite() {
        out.extend_from_slice(b"null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{f}");
    // Ensure the token stays a *number* that parses back as Float.
    if !out[start..].iter().any(|&b| b == b'.' || b == b'e') {
        out.extend_from_slice(b".0");
    }
}

/// Writes `true` or `false`.
pub(crate) fn write_json_bool(out: &mut Vec<u8>, b: bool) {
    out.extend_from_slice(if b { b"true" } else { b"false" });
}

/// `"00"`, `"01"`, …, `"99"`: two decimal digits per table lookup.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Writes `n` in decimal: one or two digits (a node index, a hop) as one
/// fixed-size copy; otherwise two digits per division into a stack buffer
/// (`u64::MAX` has 20), then one copy into `out`. No formatter and no
/// allocation beyond `out`'s own growth.
pub(crate) fn write_json_u64(out: &mut Vec<u8>, mut n: u64) {
    if n < 10 {
        out.push(b'0' + n as u8);
        return;
    }
    if n < 100 {
        let pair = n as usize * 2;
        out.extend_from_slice(&[DIGIT_PAIRS[pair], DIGIT_PAIRS[pair + 1]]);
        return;
    }
    let mut buf = [0u8; 20];
    let mut pos = buf.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        pos -= 2;
        buf[pos..pos + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        pos -= 2;
        buf[pos..pos + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        pos -= 1;
        buf[pos] = b'0' + n as u8;
    }
    out.extend_from_slice(&buf[pos..]);
}

/// Writes `i` in decimal: a sign, then its magnitude as `write_json_u64`
/// writes it.
pub fn write_json_int(out: &mut Vec<u8>, i: i64) {
    if i < 0 {
        out.push(b'-');
    }
    write_json_u64(out, i.unsigned_abs());
}

/// Writes `s` as a JSON string literal with the mandatory escapes.
///
/// Every byte that needs escaping is ASCII, so the text between two of
/// them is copied as one slice: a string with none (every name, tag and
/// label the protocol emits) is one copy. Plain text is skipped sixteen
/// bytes at a time by a branch-free test, and only the sixteen bytes that
/// failed it are searched one by one, so a long text with a few escapes (a
/// plan's multi-line rationale) is walked byte by byte nowhere else.
pub fn write_json_string(out: &mut Vec<u8>, s: &str) {
    /// Whether `b` is copied as it is.
    fn plain(b: u8) -> bool {
        (b >= 0x20) & (b != b'"') & (b != b'\\')
    }
    let bytes = s.as_bytes();
    out.reserve(bytes.len() + 2);
    out.push(b'"');
    let mut copied = 0;
    let mut i = 0;
    loop {
        while let Some(chunk) = bytes.get(i..i + 16) {
            if !chunk.iter().fold(true, |all, &b| all & plain(b)) {
                break;
            }
            i += 16;
        }
        let Some(skip) = bytes[i..].iter().position(|&b| !plain(b)) else {
            break;
        };
        i += skip;
        out.extend_from_slice(&bytes[copied..i]);
        match bytes[i] {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        i += 1;
        copied = i;
    }
    out.extend_from_slice(&bytes[copied..]);
    out.push(b'"');
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

/// How deeply arrays and objects may nest in a parsed document. The
/// parser recurses once per level, and its input can come from a peer or a
/// file, so a deeper document is an error rather than a stack overflow.
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (trailing whitespace allowed). Arrays
/// and objects nested more than 128 levels deep are an error.
pub fn parse(src: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
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
    /// Arrays and objects open around `pos`.
    depth: usize,
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
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses an array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
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
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::fmt::Write as _;

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
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = 100_000;
        assert!(parse(&"[".repeat(deep)).is_err());
        assert!(parse(&"{\"a\":".repeat(deep)).is_err());
        let nest = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH);
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
        let mut out = Vec::new();
        write_json_string(&mut out, s);
        String::from_utf8(out).unwrap()
    }

    fn written_int(i: i64) -> String {
        let mut out = Vec::new();
        write_json_int(&mut out, i);
        String::from_utf8(out).unwrap()
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
    pub(crate) fn text() -> impl Strategy<Value = String> {
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
