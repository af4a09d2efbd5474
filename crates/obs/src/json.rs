//! The workspace's dependency-free JSON: one reader and one writer.
//!
//! Every artifact — checkpoints, run profiles, wire messages, bench
//! reports — is written by a hand-formatted emitter with a fixed key order
//! built from the writer half of this module ([`num`], [`num_or_null`],
//! [`string`], [`join`]), and read back by the parser half
//! ([`JsonValue::parse`]). Neither needs an external crate, so parsing and
//! emitting stay available in fully offline builds and on the serving
//! path, where request decoding must not depend on an
//! environment-provided serializer.
//!
//! Design points:
//!
//! - Numbers print as Rust's `Display` does: the shortest decimal that
//!   parses back to the same bits. The reader keeps each number's **raw
//!   token** ([`JsonValue::Num`]) and callers parse it as `f32`/`f64`/`u64`
//!   on demand, so `f32 -> emit -> parse -> f32` is bit-identical — the
//!   determinism contract extends through JSON. The token is held inline
//!   in the node ([`NumToken`]) unless it is longer than 22 bytes, so
//!   reading a pixel, an index or a weight allocates nothing: a 6912-value
//!   frame costs one allocation for its array, not one per element.
//!   Non-finite values, which JSON cannot express, print as `0` ([`num`])
//!   or `null` ([`num_or_null`]) depending on what the reader should make
//!   of them.
//! - Objects preserve insertion order in a `Vec` (no hashing, stable
//!   iteration, duplicate keys resolve to the *first* occurrence).
//! - A hard nesting-depth cap and a byte-length cap on the caller's side
//!   (see `axnn-serve`'s frame limit) keep adversarial inputs from
//!   exhausting the stack; errors carry a byte offset for diagnostics.
//!
//! # Example
//!
//! ```
//! use axnn_obs::json::{self, JsonValue};
//!
//! let xs = [1.5f32, -2.0];
//! let doc = format!(
//!     "{{\"id\": {}, \"xs\": [{}]}}",
//!     json::string("a\"b"),
//!     json::join(xs.iter().map(|&x| json::num(x)), ", "),
//! );
//! assert_eq!(doc, r#"{"id": "a\"b", "xs": [1.5, -2]}"#);
//! let v = JsonValue::parse(doc.as_bytes()).unwrap();
//! assert_eq!(v.get("id").and_then(JsonValue::as_str), Some("a\"b"));
//! let back: Vec<f32> = v.get("xs").unwrap().f32_array().unwrap();
//! assert_eq!(back, xs);
//! ```

use std::fmt;

/// Maximum nesting depth accepted by the parser. Deeper documents are
/// rejected rather than risking stack exhaustion on crafted input.
pub const MAX_DEPTH: usize = 96;

/// A parsed JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    /// Raw number token as it appeared in the input (e.g. `-1.5e3`), kept
    /// inline without a heap allocation unless it is unusually long.
    Num(NumToken),
    Str(String),
    Arr(Vec<JsonValue>),
    /// Key/value pairs in document order.
    Obj(Vec<(String, JsonValue)>),
}

/// A number token exactly as it appeared in the input.
///
/// Tokens of up to 22 bytes live in a fixed array inside the node. That
/// covers every `u64` and the `Display` form of every `f32` that is zero or
/// lies in `1e-11 <= |x| < 1e21`. Longer tokens, which are legal JSON, go
/// to a `Box<str>`. Either way [`NumToken::as_str`] returns the original
/// text, which the [`JsonValue`] accessors parse with `str::parse`.
#[derive(Clone, PartialEq)]
pub struct NumToken(Token);

#[derive(Clone, PartialEq)]
enum Token {
    Inline {
        len: u8,
        bytes: [u8; NumToken::INLINE],
    },
    Heap(Box<str>),
}

impl NumToken {
    /// Longest token stored without a heap allocation; sized so that a
    /// [`JsonValue`] stays 32 bytes.
    const INLINE: usize = 22;

    /// `ascii` is a token the parser scanned, hence ASCII.
    fn new(ascii: &[u8]) -> Self {
        if ascii.len() > Self::INLINE {
            return NumToken(Token::Heap(ascii.iter().map(|&b| char::from(b)).collect()));
        }
        let mut bytes = [0; Self::INLINE];
        bytes[..ascii.len()].copy_from_slice(ascii);
        NumToken(Token::Inline {
            len: ascii.len() as u8,
            bytes,
        })
    }

    /// The token's text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Token::Inline { len, bytes } => {
                std::str::from_utf8(&bytes[..usize::from(*len)]).expect("number tokens are ascii")
            }
            Token::Heap(s) => s,
        }
    }
}

impl fmt::Debug for NumToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// Parse failure: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
    offset: usize,
}

impl JsonError {
    /// Byte offset into the input where parsing failed.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(input: &[u8]) -> Result<JsonValue, JsonError> {
        let mut p = Parser { input, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.input.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Member lookup on an object (first occurrence wins); `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number token parsed as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(raw) => raw.as_str().parse().ok(),
            _ => None,
        }
    }

    /// The number token parsed as `f32` (bit-exact for tokens emitted from
    /// an `f32` via `Display`).
    pub fn as_f32(&self) -> Option<f32> {
        match self {
            JsonValue::Num(raw) => raw.as_str().parse().ok(),
            _ => None,
        }
    }

    /// The number token parsed as `u64` (rejects signs, fractions, exponents).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(raw) => raw.as_str().parse().ok(),
            _ => None,
        }
    }

    /// The number token parsed as `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Num(raw) => raw.as_str().parse().ok(),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// An array of numbers decoded as `f32`, or `None` if this is not an
    /// array or any element is not a number.
    pub fn f32_array(&self) -> Option<Vec<f32>> {
        self.as_array()?.iter().map(JsonValue::as_f32).collect()
    }

    /// An array of numbers decoded as `usize`.
    pub fn usize_array(&self) -> Option<Vec<usize>> {
        self.as_array()?.iter().map(JsonValue::as_usize).collect()
    }
}

/// A JSON number literal; see [`num`] and [`num_or_null`].
#[derive(Debug, Clone, Copy)]
pub struct Num<T> {
    value: T,
    non_finite: &'static str,
}

impl<T: Copy + fmt::Display + Into<f64>> fmt::Display for Num<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.value.into().is_finite() {
            // Forwards the caller's flags, so `{:.6}` fixes the decimals.
            fmt::Display::fmt(&self.value, f)
        } else {
            f.write_str(self.non_finite)
        }
    }
}

/// Prints `x` as the shortest decimal that parses back to the same bits;
/// NaN and ±∞ print as `0`.
pub fn num<T: Copy + fmt::Display + Into<f64>>(x: T) -> Num<T> {
    Num {
        value: x,
        non_finite: "0",
    }
}

/// Like [`num`], but NaN and ±∞ print as `null`, for documents whose
/// reader must see that a value was not finite.
pub fn num_or_null<T: Copy + fmt::Display + Into<f64>>(x: T) -> Num<T> {
    Num {
        value: x,
        non_finite: "null",
    }
}

/// A quoted JSON string literal; see [`string`].
#[derive(Debug, Clone, Copy)]
pub struct Str<'a>(&'a str);

impl fmt::Display for Str<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("\"")?;
        let mut plain = 0;
        for (i, ch) in self.0.char_indices() {
            if ch != '"' && ch != '\\' && ch >= ' ' {
                continue;
            }
            f.write_str(&self.0[plain..i])?;
            match ch {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c => write!(f, "\\u{:04x}", c as u32)?,
            }
            plain = i + ch.len_utf8();
        }
        f.write_str(&self.0[plain..])?;
        f.write_str("\"")
    }
}

/// Prints `s` quoted, escaping `"`, `\` and the control characters.
pub fn string(s: &str) -> Str<'_> {
    Str(s)
}

/// Prints every item, `sep` between neighbours.
pub fn join<I>(items: I, sep: &str) -> String
where
    I: IntoIterator,
    I::Item: fmt::Display,
{
    use fmt::Write;
    let mut out = String::new();
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        let _ = write!(out, "{item}");
    }
    out
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal(b"true", JsonValue::Bool(true)),
            Some(b'f') => self.literal(b"false", JsonValue::Bool(false)),
            Some(b'n') => self.literal(b"null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &[u8], v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.input[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let ch = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.input[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                    char::from_u32(c)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            match ch {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                            continue; // hex4 advanced past the escape already
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the run of plain bytes up to the next quote,
                    // backslash or control byte; input came from &[u8], so
                    // validate rather than assume.
                    let rest = &self.input[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                        .unwrap_or(rest.len());
                    match std::str::from_utf8(&rest[..run]) {
                        Ok(s) => out.push_str(s),
                        Err(e) => {
                            self.pos += e.valid_up_to();
                            return Err(self.err("invalid utf-8 in string"));
                        }
                    }
                    self.pos += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.input.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.input[self.pos..end])
            .map_err(|_| self.err("non-ascii \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("non-hex \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_from {
            return Err(self.err("number has no digits"));
        }
        if self.pos - digits_from > 1 && self.input[digits_from] == b'0' {
            return Err(self.err("number has a leading zero"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_from = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_from {
                return Err(self.err("fraction has no digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_from = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_from {
                return Err(self.err("exponent has no digits"));
            }
        }
        Ok(JsonValue::Num(NumToken::new(&self.input[start..self.pos])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let v =
            JsonValue::parse(br#"{"a": [1, 2.5, -3e2], "b": "x", "c": true, "d": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(v.get("c").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("d"), Some(&JsonValue::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn f32_round_trips_bit_exactly() {
        for bits in [
            0x0000_0001u32,
            0x3f80_0000,
            0x7f7f_ffff,
            0xc0a0_0000,
            0x0034_1234,
        ] {
            let x = f32::from_bits(bits);
            let doc = format!("[{x}]");
            let v = JsonValue::parse(doc.as_bytes()).unwrap();
            let back = v.as_array().unwrap()[0].as_f32().unwrap();
            assert_eq!(back.to_bits(), bits, "{x} must round-trip");
        }
    }

    #[test]
    fn number_tokens_read_exactly_as_str_parse() {
        // Each token alone, inside an array and inside an object: the node
        // keeps the text and every accessor agrees with `str::parse`.
        fn check(token: &str) {
            for doc in [
                token.to_string(),
                format!("[{token}]"),
                format!("{{\"k\": {token}}}"),
            ] {
                let v = JsonValue::parse(doc.as_bytes()).unwrap_or_else(|e| panic!("{doc}: {e}"));
                let n = match &v {
                    JsonValue::Arr(items) => &items[0],
                    JsonValue::Obj(_) => v.get("k").unwrap(),
                    n => n,
                };
                assert!(
                    matches!(n, JsonValue::Num(t) if t.as_str() == token),
                    "{doc}"
                );
                let f32_bits = token.parse::<f32>().ok().map(f32::to_bits);
                assert_eq!(n.as_f32().map(f32::to_bits), f32_bits, "{doc}");
                let f64_bits = token.parse::<f64>().ok().map(f64::to_bits);
                assert_eq!(n.as_f64().map(f64::to_bits), f64_bits, "{doc}");
                assert_eq!(n.as_u64(), token.parse::<u64>().ok(), "{doc}");
                assert_eq!(n.as_usize(), token.parse::<usize>().ok(), "{doc}");
            }
        }
        // Between `lo` and `hi` decimal digits, without a leading zero.
        fn digits(rng: &mut axnn_rng::Rng, lo: usize, hi: usize) -> String {
            (0..rng.gen_range(lo..=hi))
                .map(|i| char::from(b'0' + rng.gen_range(u8::from(i == 0)..10)))
                .collect()
        }
        assert!(std::mem::size_of::<JsonValue>() <= 32);
        check("0");
        check("-0");
        axnn_rng::cases(256, |mut rng| {
            let x = f32::from_bits(rng.gen());
            if x.is_finite() {
                check(&x.to_string());
            }
            let y = f64::from_bits(rng.gen());
            if y.is_finite() {
                check(&y.to_string());
            }
            check(&rng.normal(0.0, 0.05).to_string());
            check(&rng.gen_range(-1e6..1e6f64).to_string());
            check(&rng.gen::<u64>().to_string());
            let int = digits(&mut rng, 1, 3);
            let frac = digits(&mut rng, 1, 7);
            for (e, sign) in [("e", ""), ("E", "+"), ("e", "-")] {
                let exp = rng.gen_range(0..400u32);
                check(&format!("{int}.{frac}{e}{sign}{exp}"));
                check(&format!("-{int}{e}{sign}{exp}"));
            }
            for len in NumToken::INLINE - 2..=NumToken::INLINE + 2 {
                check(&digits(&mut rng, len, len));
                check(&format!("-{}", digits(&mut rng, len - 1, len - 1)));
                check(&format!("0.{}", digits(&mut rng, len - 2, len - 2)));
            }
            check(&digits(&mut rng, 40, 64));
            check(&format!("-0.{}e-7", digits(&mut rng, 40, 64)));
        });
    }

    #[test]
    fn string_escapes_and_unicode() {
        let v = JsonValue::parse(r#""a\"b\\c\ndé😀""#.as_bytes()).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\u{e9}\u{1f600}"));
        // Raw multi-byte UTF-8 passes through.
        let v = JsonValue::parse("\"caf\u{e9}\"".as_bytes()).unwrap();
        assert_eq!(v.as_str(), Some("caf\u{e9}"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            &b"{"[..],
            b"[1,]",
            b"{\"a\" 1}",
            b"01",
            br#""\x""#,
            b"1 2",
            b"tru",
            b"[1 2]",
            b"\"unterminated",
            b"-",
            b"1.",
            b"1e",
        ] {
            assert!(
                JsonValue::parse(bad).is_err(),
                "{:?} should be rejected",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn depth_limit_rejects_pathological_nesting() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let err = JsonValue::parse(deep.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("MAX_DEPTH"));
        let ok = "[".repeat(MAX_DEPTH - 1) + &"]".repeat(MAX_DEPTH - 1);
        assert!(JsonValue::parse(ok.as_bytes()).is_ok());
    }

    #[test]
    fn duplicate_keys_resolve_to_first_and_order_is_kept() {
        let v = JsonValue::parse(br#"{"k": 1, "k": 2, "z": 3, "a": 4}"#).unwrap();
        assert_eq!(v.get("k").and_then(JsonValue::as_u64), Some(1));
        match &v {
            JsonValue::Obj(m) => {
                let keys: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, vec!["k", "k", "z", "a"]);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn errors_carry_byte_offsets() {
        let err = JsonValue::parse(b"[1, x]").unwrap_err();
        assert_eq!(err.offset(), 4);
        // Invalid UTF-8 is reported at its first bad byte, also when a
        // truncated sequence runs into the closing quote or the input end.
        for (bad, at) in [
            (&b"\"ab\xffcd\""[..], 3),
            (b"\"a\xe9\"", 2),
            (b"[\"\xf0\x9f\x98", 2),
        ] {
            let err = JsonValue::parse(bad).unwrap_err();
            assert_eq!(
                (err.offset(), err.to_string().contains("utf-8")),
                (at, true)
            );
        }
    }

    #[test]
    fn parses_profile_emitter_output() {
        // The reader must accept what the workspace's own emitters produce.
        crate::reset();
        crate::set_enabled(true);
        {
            let _s = crate::span("json:demo");
        }
        crate::count(crate::Counter::GemmMacs, 17);
        let profile = crate::RunProfile::capture("json-reader-test");
        crate::set_enabled(false);
        let v = JsonValue::parse(profile.to_json().as_bytes()).unwrap();
        assert_eq!(
            v.get("label").and_then(JsonValue::as_str),
            Some("json-reader-test")
        );
        assert!(v.get("spans").unwrap().as_array().unwrap().len() == 1);
    }
}
