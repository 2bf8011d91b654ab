//! Minimal JSON tree, parser and writer — the wire layer of the workspace.
//!
//! The offline build environment replaces serde with a no-op shim (see
//! `shims/serde`), so anything that must actually cross a process boundary —
//! the `spi-explore` job/lease protocol, exploration results, recorded
//! baselines — needs a real serialization layer. This module supplies one:
//! a [`JsonValue`] tree with a strict recursive-descent parser and a
//! deterministic writer, plus the [`ToJson`]/[`FromJson`] traits the higher
//! layers implement.
//!
//! The representations chosen here are the ones the real serde swap must
//! keep: notably, [`crate::Sym`] serializes as its **resolved string** and is
//! re-interned on parse, because the raw interner index is process-local and
//! meaningless on the other side of a pipe.
//!
//! Design constraints:
//!
//! * **Deterministic output** — object members keep insertion order (the tree
//!   stores them as a `Vec`), so equal values serialize byte-identically; the
//!   regression baselines diff cleanly.
//! * **Integer-exact numbers** — costs and variant indices are `u64`; the
//!   tree keeps integers as `i128` (covering the full `u64`/`i64` ranges)
//!   instead of routing everything through `f64` and silently losing
//!   precision above 2^53.
//! * **ndjson-friendly** — [`JsonValue::to_line`] never emits a newline, so a
//!   value is always exactly one line of a newline-delimited JSON stream.
//! * **Text without trees** — [`members`] and [`elements`] walk a large
//!   object or array (a store snapshot) one entry at a time, each entry the
//!   checked slice of the text that holds it, and [`push_member`] splices a
//!   value held as its line into another line: an owner that keeps values
//!   as lines reads and writes them without building a tree.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};
use std::fmt;

use crate::ids::Sym;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part, kept integer-exact.
    Int(i128),
    /// A number with a fractional part or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; members keep insertion order for deterministic output.
    Object(Vec<(String, JsonValue)>),
}

/// Error raised while parsing or interpreting JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
}

impl JsonError {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

/// Result alias for JSON operations.
pub type JsonResult<T> = std::result::Result<T, JsonError>;

impl JsonValue {
    // --- constructors ---------------------------------------------------------------

    /// Builds an object from `(key, value)` pairs, keeping their order.
    pub fn object(members: impl IntoIterator<Item = (impl Into<String>, JsonValue)>) -> JsonValue {
        JsonValue::Object(
            members
                .into_iter()
                .map(|(key, value)| (key.into(), value))
                .collect(),
        )
    }

    /// Builds a string value.
    pub fn string(value: impl Into<String>) -> JsonValue {
        JsonValue::Str(value.into())
    }

    // --- accessors ------------------------------------------------------------------

    /// Member of an object by key (first match), if this is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members
                .iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// Member by key, as an error if missing.
    pub fn require(&self, key: &str) -> JsonResult<&JsonValue> {
        self.get(key)
            .ok_or_else(|| JsonError::new(format!("missing key `{key}`")))
    }

    /// The string behind this value, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(value) => Some(value),
            _ => None,
        }
    }

    /// The boolean behind this value, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(value) => Some(*value),
            _ => None,
        }
    }

    /// This value as a `u64`, if it is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(value) => u64::try_from(*value).ok(),
            _ => None,
        }
    }

    /// This value as a `usize`, if it is a non-negative integer in range.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|value| usize::try_from(value).ok())
    }

    /// This value as an `f64` (integers widen losslessly up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(value) => Some(*value as f64),
            JsonValue::Float(value) => Some(*value),
            _ => None,
        }
    }

    /// The elements behind this value, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(elements) => Some(elements),
            _ => None,
        }
    }

    /// The members behind this value, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }

    // --- writing --------------------------------------------------------------------

    /// Serializes the value as compact single-line JSON (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Int(value) => out.push_str(&value.to_string()),
            JsonValue::Float(value) => {
                if value.is_finite() {
                    // Guarantee a fractional marker so the value round-trips as Float.
                    let text = format!("{value}");
                    out.push_str(&text);
                    if !text.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    // JSON has no Inf/NaN; null is the least-surprising encoding.
                    out.push_str("null");
                }
            }
            JsonValue::Str(value) => write_string(value, out),
            JsonValue::Array(elements) => {
                out.push('[');
                for (index, element) in elements.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    element.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(members) => {
                out.push('{');
                for (index, (key, value)) in members.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    // --- parsing --------------------------------------------------------------------

    /// Parses one JSON value from `input`, rejecting trailing garbage.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with a byte offset for malformed input.
    pub fn parse(input: &str) -> JsonResult<JsonValue> {
        let mut parser = Parser::new(input);
        parser.skip_whitespace();
        let value = parser.value()?;
        parser.end()?;
        Ok(value)
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_line())
    }
}

/// Appends `value` to `out` as a quoted JSON string, escaped exactly as
/// [`JsonValue::to_line`] escapes strings.
pub fn write_string(value: &str, out: &mut String) {
    out.push('"');
    for c in value.chars() {
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

/// Appends the member `"key":value` to `object`, the canonical line of a
/// JSON object, where `value` is a value's canonical line: `object` becomes
/// the line [`JsonValue::to_line`] renders for the object with that member
/// last. Lets an owner splice a value it holds as text into a line without
/// parsing it.
///
/// # Panics
///
/// When `object` is not an object's line (it does not end with `}`).
pub fn push_member(object: &mut String, key: &str, value: &str) {
    assert_eq!(object.pop(), Some('}'), "`object` must be an object's line");
    if !object.ends_with('{') {
        object.push(',');
    }
    write_string(key, object);
    object.push(':');
    object.push_str(value);
    object.push('}');
}

/// Walks the members of the JSON object `text` one at a time, without
/// building its tree: each member is its key and the slice of `text` that
/// holds its value. The text is checked as [`JsonValue::parse`] checks it:
/// each value before it is yielded (so the slice parses to the value
/// `parse` would build), and the object's end, with nothing but whitespace
/// after it, once the last member is read. A text `parse` rejects yields an
/// error at the first fault, then ends; a text that is no object errs at
/// once. A slice of a text that [`JsonValue::to_line`] rendered is the
/// value's canonical line.
pub fn members(text: &str) -> Members<'_> {
    Members {
        walk: Walk::new(text, b'{', b'}'),
        keys: KeySet::default(),
    }
}

/// Walks the elements of the JSON array `text` one at a time, as
/// [`members`] walks an object's: each element is the slice of `text` that
/// holds it, checked before it is yielded.
pub fn elements(text: &str) -> Elements<'_> {
    Elements {
        walk: Walk::new(text, b'[', b']'),
    }
}

/// The iterator of [`members`].
pub struct Members<'a> {
    walk: Walk<'a>,
    keys: KeySet<'a>,
}

/// The iterator of [`elements`].
pub struct Elements<'a> {
    walk: Walk<'a>,
}

impl<'a> Iterator for Members<'a> {
    type Item = JsonResult<(Cow<'a, str>, &'a str)>;

    fn next(&mut self) -> Option<Self::Item> {
        let keys = &mut self.keys;
        self.walk.step(|parser| {
            let key = parser.key(keys)?;
            Ok((key, parser.slice()?))
        })
    }
}

impl<'a> Iterator for Elements<'a> {
    type Item = JsonResult<&'a str>;

    fn next(&mut self) -> Option<Self::Item> {
        self.walk.step(Parser::slice)
    }
}

/// The cursor of [`members`] and [`elements`] over one container.
struct Walk<'a> {
    parser: Parser<'a>,
    close: u8,
    /// The opening bracket, until it is read.
    open: Option<u8>,
    first: bool,
    done: bool,
}

impl<'a> Walk<'a> {
    fn new(text: &'a str, open: u8, close: u8) -> Self {
        Walk {
            parser: Parser::new(text),
            close,
            open: Some(open),
            first: true,
            done: false,
        }
    }

    /// Reads the next item with `item`, or checks the end of the text; the
    /// walk ends after its last item or its first error.
    fn step<T>(
        &mut self,
        item: impl FnOnce(&mut Parser<'a>) -> JsonResult<T>,
    ) -> Option<JsonResult<T>> {
        if self.done {
            return None;
        }
        let parser = &mut self.parser;
        let next = (|| {
            if let Some(open) = self.open.take() {
                parser.skip_whitespace();
                parser.expect(open)?;
            }
            if parser.more(&mut self.first, self.close)? {
                return item(parser).map(Some);
            }
            parser.end().map(|()| None)
        })();
        self.done = !matches!(next, Ok(Some(_)));
        next.transpose()
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    position: usize,
}

/// The keys of one object read so far, to reject a duplicate. A linear scan
/// is fastest for the small objects that dominate the wire; past
/// [`KeySet::LINEAR_SCAN_LIMIT`] keys a hash set keeps a large object (a
/// snapshot's cache section, a member per cached result) linear.
#[derive(Default)]
struct KeySet<'a> {
    list: Vec<Cow<'a, str>>,
    set: HashSet<Cow<'a, str>>,
}

impl<'a> KeySet<'a> {
    const LINEAR_SCAN_LIMIT: usize = 16;

    /// Adds `key`; false when it was already there.
    fn insert(&mut self, key: Cow<'a, str>) -> bool {
        if self.set.is_empty() {
            if self.list.contains(&key) {
                return false;
            }
            if self.list.len() < Self::LINEAR_SCAN_LIMIT {
                self.list.push(key);
                return true;
            }
            self.set.extend(self.list.drain(..));
        }
        self.set.insert(key)
    }
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            position: 0,
        }
    }

    fn error(&self, message: &str) -> JsonError {
        JsonError::new(format!("{message} at byte {}", self.position))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.position).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.position += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> JsonResult<()> {
        if self.peek() == Some(byte) {
            self.position += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    /// Checks that nothing but whitespace follows the value just read.
    fn end(&mut self) -> JsonResult<()> {
        self.skip_whitespace();
        if self.position != self.bytes.len() {
            return Err(self.error("trailing characters after JSON value"));
        }
        Ok(())
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> JsonResult<JsonValue> {
        if self.bytes[self.position..].starts_with(text.as_bytes()) {
            self.position += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{text}`")))
        }
    }

    fn value(&mut self) -> JsonResult<JsonValue> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(|text| JsonValue::Str(text.into_owned())),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(&format!("unexpected `{}`", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Checks the value at the cursor exactly as [`value`](Self::value)
    /// reads it, building nothing: a string is only copied when it has an
    /// escape, and no container is built.
    fn skip(&mut self) -> JsonResult<()> {
        match self.peek() {
            Some(b'"') => self.string().map(drop),
            Some(b'[') => {
                self.position += 1;
                let mut first = true;
                while self.more(&mut first, b']')? {
                    self.skip()?;
                }
                Ok(())
            }
            Some(b'{') => {
                self.position += 1;
                let (mut keys, mut first) = (KeySet::default(), true);
                while self.more(&mut first, b'}')? {
                    self.key(&mut keys)?;
                    self.skip()?;
                }
                Ok(())
            }
            // Literals and numbers hold nothing on the heap.
            _ => self.value().map(drop),
        }
    }

    /// Checks the value at the cursor (see [`skip`](Self::skip)) and
    /// returns the slice of the input that holds it.
    fn slice(&mut self) -> JsonResult<&'a str> {
        let start = self.position;
        self.skip()?;
        Ok(&self.text[start..self.position])
    }

    /// Inside a container whose opening bracket was read: whether another
    /// item follows (the cursor then on it, past the `,` before it), or the
    /// container ends (its `close` consumed). `first` is true before the
    /// first item, where the container may be empty.
    fn more(&mut self, first: &mut bool, close: u8) -> JsonResult<bool> {
        self.skip_whitespace();
        if std::mem::take(first) {
            let empty = self.peek() == Some(close);
            self.position += usize::from(empty);
            return Ok(!empty);
        }
        match self.peek() {
            Some(b',') => {
                self.position += 1;
                self.skip_whitespace();
                Ok(true)
            }
            Some(byte) if byte == close => {
                self.position += 1;
                Ok(false)
            }
            _ => Err(self.error(&format!("expected `,` or `{}`", close as char))),
        }
    }

    /// Reads an object member's key and the `:` after it, rejecting a key
    /// already in `keys`. Duplicate keys are ambiguous (which member wins?)
    /// and a classic smuggling vector across parsers that disagree on the
    /// answer; the writer never produces them, so the parser rejects them
    /// outright.
    fn key(&mut self, keys: &mut KeySet<'a>) -> JsonResult<Cow<'a, str>> {
        let key = self.string()?;
        if !keys.insert(key.clone()) {
            return Err(self.error(&format!("duplicate object key `{key}`")));
        }
        self.skip_whitespace();
        self.expect(b':')?;
        self.skip_whitespace();
        Ok(key)
    }

    fn array(&mut self) -> JsonResult<JsonValue> {
        self.expect(b'[')?;
        let mut elements = Vec::new();
        let mut first = true;
        while self.more(&mut first, b']')? {
            elements.push(self.value()?);
        }
        Ok(JsonValue::Array(elements))
    }

    fn object(&mut self) -> JsonResult<JsonValue> {
        self.expect(b'{')?;
        let mut members: Vec<(String, JsonValue)> = Vec::new();
        let (mut keys, mut first) = (KeySet::default(), true);
        while self.more(&mut first, b'}')? {
            let key = self.key(&mut keys)?.into_owned();
            members.push((key, self.value()?));
        }
        Ok(JsonValue::Object(members))
    }

    /// Reads a string, borrowing it from the input when it has no escape.
    fn string(&mut self) -> JsonResult<Cow<'a, str>> {
        self.expect(b'"')?;
        // Take the whole run of plain characters up to the next quote or
        // escape straight from the input `&str`: both delimiters are ASCII,
        // so the run ends on a char boundary, and each byte is looked at
        // once.
        let text = self.text;
        let run = |position: usize| -> Option<&'a str> {
            let rest = text.get(position..)?;
            Some(&rest[..rest.find(['"', '\\']).unwrap_or(rest.len())])
        };
        let plain = run(self.position).ok_or_else(|| self.error("invalid utf8"))?;
        self.position += plain.len();
        if self.peek() == Some(b'"') {
            self.position += 1;
            return Ok(Cow::Borrowed(plain));
        }
        let mut out = String::from(plain);
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.position += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.position += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            let code = self.unicode_escape()?;
                            out.push(code);
                            continue;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.position += 1;
                }
                Some(_) => {
                    let plain = run(self.position).ok_or_else(|| self.error("invalid utf8"))?;
                    out.push_str(plain);
                    self.position += plain.len();
                }
            }
        }
    }

    /// Parses the `XXXX` of a `\uXXXX` escape (with surrogate-pair support); the
    /// caller has already consumed the `\` and positioned on the `u`.
    fn unicode_escape(&mut self) -> JsonResult<char> {
        self.position += 1; // the `u`
        let high = self.hex4()?;
        if (0xD800..0xDC00).contains(&high) {
            // High surrogate: a low surrogate must follow.
            if self.peek() == Some(b'\\') {
                self.position += 1;
                if self.peek() == Some(b'u') {
                    self.position += 1;
                    let low = self.hex4()?;
                    if (0xDC00..0xE000).contains(&low) {
                        let combined = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                        return char::from_u32(combined)
                            .ok_or_else(|| self.error("invalid surrogate pair"));
                    }
                }
            }
            return Err(self.error("unpaired surrogate"));
        }
        char::from_u32(high).ok_or_else(|| self.error("invalid unicode escape"))
    }

    fn hex4(&mut self) -> JsonResult<u32> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.error("expected hex digit")),
            };
            value = value * 16 + digit;
            self.position += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> JsonResult<JsonValue> {
        let start = self.position;
        if self.peek() == Some(b'-') {
            self.position += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.position += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.position += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.position += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.position += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.position += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.position += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.position])
            .map_err(|_| self.error("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(JsonValue::Float)
                .map_err(|_| self.error("invalid number"))
        } else {
            text.parse::<i128>()
                .map(JsonValue::Int)
                .map_err(|_| self.error("invalid number"))
        }
    }
}

// --- conversion traits ----------------------------------------------------------------

/// Serialization into the [`JsonValue`] tree.
///
/// This is the workspace's stand-in for `serde::Serialize` until the real
/// dependency can be fetched; impls define the exact representation the real
/// serde swap must preserve.
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> JsonValue;
}

/// Deserialization from the [`JsonValue`] tree; the inverse of [`ToJson`].
pub trait FromJson: Sized {
    /// Rebuilds `Self` from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the value has the wrong shape.
    fn from_json(value: &JsonValue) -> JsonResult<Self>;
}

/// `Sym` crosses process boundaries as its **resolved string** — the raw
/// interner index is process-local and would alias an unrelated name (or
/// nothing at all) in the receiving process.
impl ToJson for Sym {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.as_str().to_string())
    }
}

/// Re-interns the transported string into the receiving process's table.
impl FromJson for Sym {
    fn from_json(value: &JsonValue) -> JsonResult<Sym> {
        value
            .as_str()
            .map(Sym::intern)
            .ok_or_else(|| JsonError::new("expected a string for Sym"))
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> JsonValue {
        JsonValue::Int(*self as i128)
    }
}

impl FromJson for u64 {
    fn from_json(value: &JsonValue) -> JsonResult<u64> {
        value
            .as_u64()
            .ok_or_else(|| JsonError::new("expected a non-negative integer"))
    }
}

impl ToJson for usize {
    fn to_json(&self) -> JsonValue {
        JsonValue::Int(*self as i128)
    }
}

impl FromJson for usize {
    fn from_json(value: &JsonValue) -> JsonResult<usize> {
        value
            .as_usize()
            .ok_or_else(|| JsonError::new("expected a non-negative integer"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(value: &JsonValue) -> JsonResult<String> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::new("expected a string"))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &JsonValue) -> JsonResult<Vec<T>> {
        value
            .as_array()
            .ok_or_else(|| JsonError::new("expected an array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> JsonValue {
        match self {
            Some(inner) => inner.to_json(),
            None => JsonValue::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &JsonValue) -> JsonResult<Option<T>> {
        match value {
            JsonValue::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(
            self.iter()
                .map(|(key, value)| (key.clone(), value.to_json()))
                .collect(),
        )
    }
}

impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn from_json(value: &JsonValue) -> JsonResult<BTreeMap<String, V>> {
        value
            .as_object()
            .ok_or_else(|| JsonError::new("expected an object"))?
            .iter()
            .map(|(key, value)| Ok((key.clone(), V::from_json(value)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-7", "12345678901234567890"] {
            let value = JsonValue::parse(text).unwrap();
            assert_eq!(value.to_line(), text);
        }
        let float = JsonValue::parse("1.5").unwrap();
        assert_eq!(float, JsonValue::Float(1.5));
        assert_eq!(float.to_line(), "1.5");
    }

    #[test]
    fn u64_values_survive_exactly() {
        let value = JsonValue::Int(u64::MAX as i128);
        let reparsed = JsonValue::parse(&value.to_line()).unwrap();
        assert_eq!(reparsed.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn float_without_fraction_keeps_a_marker() {
        let value = JsonValue::Float(2.0);
        assert_eq!(value.to_line(), "2.0");
        assert_eq!(JsonValue::parse("2.0").unwrap(), value);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = "line1\nline2\t\"quoted\" \\ slash \u{1F600} nul:\u{01}";
        let value = JsonValue::string(original);
        let line = value.to_line();
        assert!(!line.contains('\n'), "ndjson values must stay on one line");
        assert_eq!(JsonValue::parse(&line).unwrap().as_str(), Some(original));
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(JsonValue::parse(r#""Aé""#).unwrap().as_str(), Some("Aé"));
        // Surrogate pair for 😀.
        assert_eq!(JsonValue::parse(r#""😀""#).unwrap().as_str(), Some("😀"));
        assert!(JsonValue::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn nested_structures_round_trip() {
        let text = r#"{"op":"submit","job":{"shards":8,"names":["a","b"],"nested":{"x":null}}}"#;
        let value = JsonValue::parse(text).unwrap();
        assert_eq!(value.to_line(), text);
        assert_eq!(
            value.get("job").unwrap().get("shards").unwrap().as_u64(),
            Some(8)
        );
        assert_eq!(value.get("missing"), None);
        assert!(value.require("missing").is_err());
    }

    #[test]
    fn object_member_order_is_preserved() {
        let value = JsonValue::object([("zebra", JsonValue::Int(1)), ("alpha", JsonValue::Int(2))]);
        assert_eq!(value.to_line(), r#"{"zebra":1,"alpha":2}"#);
    }

    #[test]
    fn malformed_input_is_rejected() {
        for text in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "01a",
            "\"unterminated",
            "1 2",
            "{]",
            r#"{"a":1,"a":2}"#,
        ] {
            assert!(JsonValue::parse(text).is_err(), "`{text}` should not parse");
        }
    }

    #[test]
    fn whitespace_is_tolerated() {
        let value = JsonValue::parse(" {\n\t\"a\" : [ 1 , 2 ] }\r\n").unwrap();
        assert_eq!(value.to_line(), r#"{"a":[1,2]}"#);
    }

    #[test]
    fn sym_serializes_as_its_string() {
        let sym = Sym::intern("spi_model::json::tests::wire_name");
        let json = sym.to_json();
        assert_eq!(json.as_str(), Some("spi_model::json::tests::wire_name"));
        let back = Sym::from_json(&json).unwrap();
        assert_eq!(back, sym);
        assert!(Sym::from_json(&JsonValue::Int(3)).is_err());
    }

    #[test]
    fn container_impls_round_trip() {
        let names = vec!["a".to_string(), "b".to_string()];
        assert_eq!(Vec::<String>::from_json(&names.to_json()).unwrap(), names);
        let mut map = BTreeMap::new();
        map.insert("k".to_string(), 7u64);
        assert_eq!(
            BTreeMap::<String, u64>::from_json(&map.to_json()).unwrap(),
            map
        );
        assert_eq!(Option::<u64>::from_json(&JsonValue::Null).unwrap(), None);
        assert_eq!(
            Option::<u64>::from_json(&JsonValue::Int(4)).unwrap(),
            Some(4)
        );
        assert!(u64::from_json(&JsonValue::Int(-1)).is_err());
        assert_eq!(usize::from_json(&JsonValue::Int(9)).unwrap(), 9usize);
    }
}
