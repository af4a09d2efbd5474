//! The workspace's dependency-free JSON: one reader and one writer.
//!
//! Every artifact — checkpoints, run profiles, wire messages, bench
//! reports — is written by a hand-formatted emitter with a fixed key order
//! built from the writer half of this module ([`num`], [`num_or_null`],
//! [`string`], [`join`]), and read back by the reader half. Neither needs
//! an external crate, so parsing and emitting stay available in fully
//! offline builds and on the serving path, where request decoding must not
//! depend on an environment-provided serializer.
//!
//! The reader is one scanner, the pull [`Cursor`]: each
//! [`Cursor::next_event`] validates and returns one [`Event`] (a container's
//! start or end, a key, a string, a number token, a bool or a null). Hot
//! decoders walk it directly and write values straight into their own
//! buffers, with no document tree: `axnn-serve`'s `Request::parse` (a raw
//! frame's pixels) and `axnn-nn`'s `Checkpoint::from_json` (every tensor's
//! `data` and `shape`). [`Cursor::number_array`] reads a number array on a
//! tight loop, and [`Cursor::byte_array`] reads `u8` pixels on a tighter
//! one. [`JsonValue::parse`] is the cursor client that builds a tree, for
//! documents read by key (run profiles, replies, reports).
//!
//! Design points:
//!
//! - Numbers print as Rust's `Display` does: the shortest decimal that
//!   parses back to the same bits. The reader hands out each number's
//!   **raw token** ([`Event::Num`], [`JsonValue::Num`]) and callers parse
//!   it as `f32`/`f64`/`u64` with `str::parse`, so
//!   `f32 -> emit -> parse -> f32` is bit-identical — the determinism
//!   contract extends through JSON. In a tree the token is held inline in
//!   the node ([`NumToken`]) unless it is longer than 22 bytes, so reading
//!   a pixel, an index or a weight allocates nothing. Non-finite values,
//!   which JSON cannot express, print as `0` ([`num`]) or `null`
//!   ([`num_or_null`]) depending on what the reader should make of them.
//! - Objects preserve insertion order in a `Vec` (no hashing, stable
//!   iteration, duplicate keys resolve to the *first* occurrence); cursor
//!   clients keep the same first-occurrence rule.
//! - A hard nesting-depth cap ([`MAX_DEPTH`]) and a byte-length cap on the
//!   caller's side (see `axnn-serve`'s frame limit) keep adversarial inputs
//!   from exhausting memory or [`JsonValue::parse`]'s stack. Errors carry the
//!   byte offset of the first malformed byte, the same whichever client
//!   reads the document.
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

use std::borrow::Cow;
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
    message: &'static str,
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
        let mut cur = Cursor::new(input);
        let first = cur.next_event()?;
        let v = build(&mut cur, first)?;
        cur.finish()?;
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

/// One step of a [`Cursor`] walk over a JSON document.
///
/// Strings and keys borrow from the input unless they hold an escape;
/// number tokens always borrow ([`Event::Num`] is the token's text, to be
/// read with `str::parse`).
#[derive(Debug, Clone, PartialEq)]
pub enum Event<'a> {
    /// `{`: the members follow as `Key` + value pairs, then `ObjEnd`.
    ObjStart,
    /// `}`.
    ObjEnd,
    /// `[`: the elements follow, then `ArrEnd`.
    ArrStart,
    /// `]`.
    ArrEnd,
    /// An object member's key; its value is the next event.
    Key(Cow<'a, str>),
    /// A string value.
    Str(Cow<'a, str>),
    /// A number token exactly as it appeared in the input.
    Num(&'a str),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// The one top-level value is complete and only whitespace follows it.
    /// Every later call returns `Eof` again.
    Eof,
}

/// Where a [`Cursor`] is between events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// A value is due (document start, after `:`, after `,` in an array).
    Value,
    /// Just inside a `[` or `{`: the first element or key, or the close.
    Open,
    /// After a value: `,`, the close, or (at depth 0) the end of input.
    After,
    /// The document is complete.
    Done,
}

/// A pull reader over one JSON document: the workspace's only JSON
/// scanner.
///
/// Each [`Cursor::next_event`] call validates and returns exactly one
/// [`Event`], so a client can decode straight into its own buffers without
/// a document tree; [`JsonValue::parse`] is the client that builds one. The
/// grammar, the [`MAX_DEPTH`] cap, the error texts and their byte offsets
/// are those of a recursive-descent parser scanning left to right: the
/// first malformed byte is reported wherever the client stops to look.
/// After an error the cursor must not be read further.
///
/// ```
/// use axnn_obs::json::{Cursor, Event};
///
/// let mut cur = Cursor::new(br#"{"xs": [1, 2.5]}"#);
/// let mut nums = Vec::new();
/// loop {
///     match cur.next_event().unwrap() {
///         Event::Num(t) => nums.push(t.parse::<f32>().unwrap()),
///         Event::Eof => break,
///         _ => {}
///     }
/// }
/// assert_eq!(nums, [1.0, 2.5]);
/// ```
#[derive(Debug)]
pub struct Cursor<'a> {
    input: &'a [u8],
    /// `input` when all of it is UTF-8, so tokens and string runs are
    /// sliced without validating each again.
    text: Option<&'a str>,
    pos: usize,
    /// Open containers; a value read now sits at this nesting depth.
    depth: usize,
    /// Bit `d` is set when the container open at depth `d` is an object.
    objects: u128,
    state: State,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `input`, which must hold exactly one JSON
    /// value (surrounding whitespace allowed).
    pub fn new(input: &'a [u8]) -> Self {
        let mut cur = Cursor {
            input,
            text: std::str::from_utf8(input).ok(),
            pos: 0,
            depth: 0,
            objects: 0,
            state: State::Value,
        };
        cur.skip_ws();
        cur
    }

    /// Byte offset of the next unread byte. Right after a [`Event::Key`]
    /// it is where the member's value starts; after the value's last
    /// event, where it ends.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Validates and returns the next event.
    pub fn next_event(&mut self) -> Result<Event<'a>, JsonError> {
        match self.state {
            State::Value => self.value(),
            State::Open => match (self.in_object(), self.peek()) {
                (true, Some(b'}')) => Ok(self.close(Event::ObjEnd)),
                (false, Some(b']')) => Ok(self.close(Event::ArrEnd)),
                (true, _) => self.key(),
                (false, _) => self.value(),
            },
            State::After => {
                self.skip_ws();
                if self.depth == 0 {
                    if self.pos != self.input.len() {
                        return Err(self.err("trailing characters after document"));
                    }
                    self.state = State::Done;
                    return Ok(Event::Eof);
                }
                match (self.in_object(), self.peek()) {
                    (obj, Some(b',')) => {
                        self.pos += 1;
                        self.skip_ws();
                        if obj {
                            self.key()
                        } else {
                            self.value()
                        }
                    }
                    (true, Some(b'}')) => Ok(self.close(Event::ObjEnd)),
                    (false, Some(b']')) => Ok(self.close(Event::ArrEnd)),
                    (true, _) => Err(self.err("expected ',' or '}' in object")),
                    (false, _) => Err(self.err("expected ',' or ']' in array")),
                }
            }
            State::Done => Ok(Event::Eof),
        }
    }

    /// Inside an object, where a key or the object's end is due: the next
    /// member's key, or `None` once the object has closed.
    pub fn key_or_end(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        match self.next_event()? {
            Event::Key(k) => Ok(Some(k)),
            _ => Ok(None),
        }
    }

    /// Inside an array just opened: every element's number token through
    /// `convert`, in order. `None` when an element is not a number or
    /// `convert` refuses it; the array is consumed either way.
    pub fn number_array<T>(
        &mut self,
        mut convert: impl FnMut(&str) -> Option<T>,
    ) -> Result<Option<Vec<T>>, JsonError> {
        let mut out = Vec::new();
        let mut push = |t: &str| convert(t).map(|v| out.push(v)).is_some();
        loop {
            if !self.number_run(&mut push)? {
                break;
            }
            match self.next_event()? {
                Event::ArrEnd => return Ok(Some(out)),
                Event::Num(t) if push(t) => {}
                Event::Num(_) => break,
                other => {
                    self.skip(&other)?;
                    break;
                }
            }
        }
        self.finish_container()?;
        Ok(None)
    }

    /// Inside an array just opened: the elements as bytes, for `u8`
    /// pixel data. `None` when an element is not a number token of one to
    /// three digits worth at most 255; the array is consumed either way.
    pub fn byte_array(&mut self) -> Result<Option<Vec<u8>>, JsonError> {
        let mut out = Vec::new();
        if self.depth <= MAX_DEPTH {
            // Plain bytes on a digit loop; anything else (the array's end,
            // a refused or malformed token) is left to `number_array`.
            let bytes = self.input;
            let digit = |i: usize| {
                bytes
                    .get(i)
                    .filter(|b| b.is_ascii_digit())
                    .map(|b| b - b'0')
            };
            let (mut i, mut state) = (self.pos, self.state);
            loop {
                if state == State::After {
                    let comma = skip_ws(bytes, i);
                    if bytes.get(comma) != Some(&b',') {
                        break;
                    }
                    i = skip_ws(bytes, comma + 1);
                    state = State::Value;
                }
                let Some(first) = digit(i) else { break };
                let mut value = u16::from(first);
                let mut end = i + 1;
                // No digit may follow a leading zero.
                while first != 0 && end < i + 3 {
                    let Some(d) = digit(end) else { break };
                    value = value * 10 + u16::from(d);
                    end += 1;
                }
                let Ok(byte) = u8::try_from(value) else { break };
                if matches!(bytes.get(end), Some(b'0'..=b'9' | b'.' | b'e' | b'E')) {
                    break;
                }
                out.push(byte);
                i = end;
                state = State::After;
            }
            self.pos = i;
            self.state = state;
        }
        let rest = self.number_array(|t| t.parse::<u8>().ok())?;
        Ok(rest.map(|rest| {
            out.extend(rest);
            out
        }))
    }

    /// Inside an array: reads the run of number elements that starts
    /// here, handing each token to `each`, and stops where
    /// [`Cursor::next_event`] must read the following event, or just after
    /// a token `each` refused (then it returns `false`). The same steps as
    /// `next_event`, on a local index, for the long number arrays of
    /// frames and checkpoints.
    #[inline]
    fn number_run(&mut self, mut each: impl FnMut(&'a str) -> bool) -> Result<bool, JsonError> {
        if self.depth > MAX_DEPTH || self.state == State::Done {
            return Ok(true);
        }
        let bytes = self.input;
        let mut i = self.pos;
        let mut state = self.state;
        let accepted = loop {
            if state == State::After {
                i = skip_ws(bytes, i);
                if bytes.get(i) != Some(&b',') {
                    break true;
                }
                i = skip_ws(bytes, i + 1);
                state = State::Value;
            }
            if !matches!(bytes.get(i), Some(b'-' | b'0'..=b'9')) {
                break true;
            }
            let end = match scan_number(bytes, i) {
                Ok(end) => end,
                Err((at, message)) => {
                    self.pos = at;
                    return Err(self.err(message));
                }
            };
            let token = self.ascii(i, end);
            i = end;
            state = State::After;
            if !each(token) {
                break false;
            }
        };
        self.pos = i;
        self.state = state;
        Ok(accepted)
    }

    /// Consumes the rest of the value that `first` began: nothing more for
    /// a scalar, everything up to the matching end for a container.
    pub fn skip(&mut self, first: &Event<'_>) -> Result<(), JsonError> {
        if matches!(first, Event::ObjStart | Event::ArrStart) {
            self.finish_container()?;
        }
        Ok(())
    }

    /// Consumes every event up to and including the end of the innermost
    /// open container.
    fn finish_container(&mut self) -> Result<(), JsonError> {
        let depth = self.depth;
        while self.depth >= depth && self.state != State::Done {
            self.next_event()?;
        }
        Ok(())
    }

    /// After the top-level value: checks that only whitespace follows.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        match self.next_event()? {
            Event::Eof => Ok(()),
            _ => Err(self.err("trailing characters after document")),
        }
    }

    fn in_object(&self) -> bool {
        self.depth > 0 && self.objects >> (self.depth - 1) & 1 == 1
    }

    fn open(&mut self, object: bool) -> Event<'a> {
        self.pos += 1;
        if object {
            self.objects |= 1 << self.depth;
        } else {
            self.objects &= !(1 << self.depth);
        }
        self.depth += 1;
        self.skip_ws();
        self.state = State::Open;
        if object {
            Event::ObjStart
        } else {
            Event::ArrStart
        }
    }

    fn close(&mut self, end: Event<'a>) -> Event<'a> {
        self.pos += 1;
        self.depth -= 1;
        self.state = State::After;
        end
    }

    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            message,
            offset: self.pos,
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        self.pos = skip_ws(self.input, self.pos);
    }

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    /// A member's key and its `:`, leaving the cursor at the value.
    fn key(&mut self) -> Result<Event<'a>, JsonError> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':', "expected ':'")?;
        self.skip_ws();
        self.state = State::Value;
        Ok(Event::Key(key))
    }

    fn value(&mut self) -> Result<Event<'a>, JsonError> {
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        let event = match self.peek() {
            Some(b'{') => return Ok(self.open(true)),
            Some(b'[') => return Ok(self.open(false)),
            Some(b'"') => Event::Str(self.string()?),
            Some(b't') => self.literal("true", Event::Bool(true))?,
            Some(b'f') => self.literal("false", Event::Bool(false))?,
            Some(b'n') => self.literal("null", Event::Null)?,
            Some(c) if c == b'-' || c.is_ascii_digit() => Event::Num(self.number()?),
            Some(_) => return Err(self.err("unexpected character")),
            None => return Err(self.err("unexpected end of input")),
        };
        self.state = State::After;
        Ok(event)
    }

    fn literal(&mut self, word: &str, event: Event<'a>) -> Result<Event<'a>, JsonError> {
        if self.input[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(event)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// A string; borrowed from the input unless it holds an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        // Without an escape the string is one run of plain bytes, which
        // is borrowed; the first escape starts an owned copy.
        let mut plain: &'a str = "";
        let mut owned: Option<String> = None;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(owned.map_or(Cow::Borrowed(plain), Cow::Owned));
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(|| plain.to_string());
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
                            out.push(self.unicode_escape()?);
                            continue; // advanced past the escape already
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // The run of plain bytes up to the next quote,
                    // backslash or control byte; input came from &[u8], so
                    // validate rather than assume.
                    let input: &'a [u8] = self.input;
                    let rest = &input[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                        .unwrap_or(rest.len());
                    let s = match self.text {
                        Some(text) => &text[self.pos..self.pos + run],
                        None => match std::str::from_utf8(&rest[..run]) {
                            Ok(s) => s,
                            Err(e) => {
                                self.pos += e.valid_up_to();
                                return Err(self.err("invalid utf-8 in string"));
                            }
                        },
                    };
                    match &mut owned {
                        Some(out) => out.push_str(s),
                        None => plain = s,
                    }
                    self.pos += run;
                }
            }
        }
    }

    /// The character of a `\uXXXX` escape (after the `\u`), joining a
    /// surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        let ch = if (0xd800..0xdc00).contains(&hi) {
            // Surrogate pair: a second \uXXXX must follow.
            if self.input[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xdc00..0xe000).contains(&lo) {
                    return Err(self.err("invalid low surrogate"));
                }
                char::from_u32(0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00))
            } else {
                None
            }
        } else {
            char::from_u32(hi)
        };
        ch.ok_or_else(|| self.err("invalid \\u escape"))
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

    fn number(&mut self) -> Result<&'a str, JsonError> {
        let start = self.pos;
        match scan_number(self.input, start) {
            Ok(end) => {
                self.pos = end;
                Ok(self.ascii(start, end))
            }
            Err((at, message)) => {
                self.pos = at;
                Err(self.err(message))
            }
        }
    }

    /// The ASCII bytes `start..end` of the input.
    #[inline]
    fn ascii(&self, start: usize, end: usize) -> &'a str {
        match self.text {
            Some(text) => &text[start..end],
            None => std::str::from_utf8(&self.input[start..end]).expect("ascii bytes"),
        }
    }
}

/// The first index at or after `i` that is not JSON whitespace.
#[inline]
fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while matches!(bytes.get(i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        i += 1;
    }
    i
}

/// Scans the number token that starts at `start` (at a `-` or a digit):
/// its end, or the offset and text of the first grammar error.
#[inline]
fn scan_number(bytes: &[u8], start: usize) -> Result<usize, (usize, &'static str)> {
    let digits = |mut i: usize| {
        while bytes.get(i).is_some_and(u8::is_ascii_digit) {
            i += 1;
        }
        i
    };
    let int_from = start + usize::from(bytes.get(start) == Some(&b'-'));
    let mut end = digits(int_from);
    if end == int_from {
        return Err((end, "number has no digits"));
    }
    if end - int_from > 1 && bytes[int_from] == b'0' {
        return Err((end, "number has a leading zero"));
    }
    if bytes.get(end) == Some(&b'.') {
        let frac_end = digits(end + 1);
        if frac_end == end + 1 {
            return Err((frac_end, "fraction has no digits"));
        }
        end = frac_end;
    }
    if matches!(bytes.get(end), Some(b'e' | b'E')) {
        let exp_from = end + 1 + usize::from(matches!(bytes.get(end + 1), Some(b'+' | b'-')));
        end = digits(exp_from);
        if end == exp_from {
            return Err((end, "exponent has no digits"));
        }
    }
    Ok(end)
}

/// Builds the node of the value that `first` began.
fn build(cur: &mut Cursor<'_>, first: Event<'_>) -> Result<JsonValue, JsonError> {
    Ok(match first {
        Event::ObjStart => {
            let mut members = Vec::new();
            while let Some(key) = cur.key_or_end()? {
                let first = cur.next_event()?;
                members.push((key.into_owned(), build(cur, first)?));
            }
            JsonValue::Obj(members)
        }
        Event::ArrStart => {
            let mut items = Vec::new();
            loop {
                cur.number_run(|t| {
                    items.push(JsonValue::Num(NumToken::new(t.as_bytes())));
                    true
                })?;
                match cur.next_event()? {
                    Event::ArrEnd => break,
                    first => items.push(build(cur, first)?),
                }
            }
            JsonValue::Arr(items)
        }
        Event::Str(s) => JsonValue::Str(s.into_owned()),
        Event::Num(t) => JsonValue::Num(NumToken::new(t.as_bytes())),
        Event::Bool(b) => JsonValue::Bool(b),
        Event::Null => JsonValue::Null,
        Event::ObjEnd | Event::ArrEnd | Event::Key(_) | Event::Eof => {
            unreachable!("the cursor emits ends and keys only inside the loops above")
        }
    })
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
    fn cursor_events_and_number_arrays() {
        let doc = br#" {"a": [1, -2.5e3], "b\u0021": {"c": null}, "d": [true, "s"], "e": []} "#;
        let mut cur = Cursor::new(doc);
        let mut events = Vec::new();
        loop {
            match cur.next_event().unwrap() {
                Event::Eof => break,
                e => events.push(e),
            }
        }
        use Event::*;
        assert_eq!(
            events,
            [
                ObjStart,
                Key("a".into()),
                ArrStart,
                Num("1"),
                Num("-2.5e3"),
                ArrEnd,
                Key("b!".into()),
                ObjStart,
                Key("c".into()),
                Null,
                ObjEnd,
                Key("d".into()),
                ArrStart,
                Bool(true),
                Str("s".into()),
                ArrEnd,
                Key("e".into()),
                ArrStart,
                ArrEnd,
                ObjEnd,
            ]
        );
        assert_eq!(cur.next_event(), Ok(Eof), "Eof repeats");
        // A refused or non-number element consumes the rest of its array,
        // nested values included, and the walk goes on after it.
        let bytes = |t: &str| t.parse::<u8>().ok();
        for (doc, want) in [
            (&b"[[], 7]"[..], Some(vec![])),
            (b"[[1, 2, 255], 7]", Some(vec![1, 2, 255])),
            (b"[[1, 256, [3, {\"k\": [4]}], 5], 7]", None),
            (b"[[1, \"2\", 3], 7]", None),
        ] {
            for fast in [false, true] {
                let mut cur = Cursor::new(doc);
                assert_eq!(cur.next_event(), Ok(ArrStart));
                assert_eq!(cur.next_event(), Ok(ArrStart));
                let got = if fast {
                    cur.byte_array()
                } else {
                    cur.number_array(bytes)
                };
                assert_eq!(got, Ok(want.clone()));
                assert_eq!(cur.next_event(), Ok(Num("7")));
                assert_eq!(cur.next_event(), Ok(ArrEnd));
                assert_eq!(cur.finish(), Ok(()));
            }
        }
        // The byte loop hands every token that is not a plain byte to the
        // general path, which refuses it or reports the syntax error.
        for (doc, want) in [
            (
                &b"[0, 9, 10, 99, 100, 255]"[..],
                Ok(Some(vec![0, 9, 10, 99, 100, 255])),
            ),
            (b"[1, 2e0]", Ok(None)),
            (b"[1, -0]", Ok(None)),
            (b"[1, 0.5]", Ok(None)),
            (b"[1, 1000]", Ok(None)),
            (b"[1, 01]", Err(6)),
            (b"[1, 2,]", Err(6)),
            (b"[1 2]", Err(3)),
        ] {
            let mut cur = Cursor::new(doc);
            cur.next_event().unwrap();
            assert_eq!(cur.byte_array().map_err(|e| e.offset()), want);
        }
        // A syntax error inside the array is reported, not skipped.
        let mut cur = Cursor::new(b"[1, 2 3]");
        cur.next_event().unwrap();
        assert_eq!(cur.number_array(bytes).unwrap_err().offset(), 6);
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
