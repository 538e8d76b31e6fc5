//! # tfe-encode
//!
//! A minimal, self-contained value model with two syntaxes.
//!
//! - **Text** ([`Value::parse`], [`Value::to_json`]): JSON, full syntax on
//!   read and deterministic sorted-key output on write. Checkpoints,
//!   SavedFunction bundles, serialized graphs and benchmark reports are
//!   stored this way.
//! - **Binary** ([`Value::from_bytes`], [`Value::to_bytes`]): a tagged,
//!   length-prefixed rendering of the same tree, used as the payload of
//!   `tfe-dist` wire frames. Floats keep every bit and a [`Value::Bytes`]
//!   leaf is written raw.
//!
//! [`Value::Bytes`] carries an opaque payload (tensor elements). JSON has no
//! such leaf, so the text syntax writes it as one standard base64 string
//! (RFC 4648 alphabet, `=` padding) and reads it back as a [`Value::Str`];
//! [`Value::as_bytes`] accepts both forms. Both decoders bound nesting at
//! [`MAX_DEPTH`] and check every length against the input before allocating.
//!
//! ```
//! use tfe_encode::Value;
//! # fn main() -> Result<(), tfe_encode::ParseError> {
//! let v = Value::parse(r#"{"name": "add", "inputs": [1, 2.5, true, null]}"#)?;
//! assert_eq!(v.get("name").and_then(Value::as_str), Some("add"));
//! let text = v.to_json();
//! assert_eq!(Value::parse(&text)?, v);
//! assert_eq!(Value::from_bytes(&v.to_bytes())?, v);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Deepest nesting of arrays and objects either decoder accepts. Input comes
/// from wire frames and files, and both decoders recurse per level.
pub const MAX_DEPTH: usize = 128;

/// A JSON value, plus a raw-bytes leaf.
///
/// Numbers are split into `Int` and `Float` so integer payloads (tensor
/// dims, ids) round-trip exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer that fits in `i64` and was written without `.`/`e`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An opaque byte payload; shared, so cloning a value that holds one
    /// does not copy it.
    Bytes(Arc<[u8]>),
    /// An array.
    Array(Vec<Value>),
    /// An object with sorted keys (deterministic output).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Build an object from key/value pairs.
    pub fn object(pairs: impl IntoIterator<Item = (String, Value)>) -> Value {
        Value::Object(pairs.into_iter().collect())
    }

    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Field lookup on objects (`None` elsewhere).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload; floats with integral values also qualify.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 && f.is_finite() => Some(*f as i64),
            _ => None,
        }
    }

    /// Any numeric payload as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The object payload, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The byte payload: a `Bytes` leaf as it is, or a string holding the
    /// base64 text rendering of one (`None` if it is not valid base64).
    pub fn as_bytes(&self) -> Option<Cow<'_, [u8]>> {
        match self {
            Value::Bytes(b) => Some(Cow::Borrowed(b)),
            Value::Str(s) => base64_decode(s).map(Cow::Owned),
            _ => None,
        }
    }

    /// An array of `f64`s (all elements must be numeric).
    pub fn as_f64_array(&self) -> Option<Vec<f64>> {
        self.as_array()?.iter().map(Value::as_f64).collect()
    }

    /// An array of `i64`s (all elements must be integral).
    pub fn as_i64_array(&self) -> Option<Vec<i64>> {
        self.as_array()?.iter().map(Value::as_i64).collect()
    }

    /// Parse a JSON document.
    ///
    /// # Errors
    /// [`ParseError`] describing the position and nature of the failure;
    /// trailing non-whitespace input is an error.
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Serialize compactly (no whitespace), with sorted object keys.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialize with two-space indentation.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    /// Serialize in the binary syntax.
    ///
    /// One tag byte per value, then its payload; lengths and counts are
    /// LEB128 varints, numbers are little-endian:
    ///
    /// ```text
    /// 0 null    1 false    2 true
    /// 3 int     i64
    /// 4 float   f64 bit pattern
    /// 5 str     len, utf-8 bytes
    /// 6 bytes   len, raw bytes
    /// 7 array   count, values
    /// 8 object  count, (key len, key utf-8, value) pairs
    /// ```
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_bytes(&mut out);
        out
    }

    /// Append the binary syntax of this value to `out`.
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        fn blob(out: &mut Vec<u8>, bytes: &[u8]) {
            write_varint(out, bytes.len());
            out.extend_from_slice(bytes);
        }
        match self {
            Value::Null => out.push(TAG_NULL),
            Value::Bool(false) => out.push(TAG_FALSE),
            Value::Bool(true) => out.push(TAG_TRUE),
            Value::Int(i) => {
                out.push(TAG_INT);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(TAG_FLOAT);
                out.extend_from_slice(&f.to_le_bytes());
            }
            Value::Str(s) => {
                out.push(TAG_STR);
                blob(out, s.as_bytes());
            }
            Value::Bytes(b) => {
                out.push(TAG_BYTES);
                blob(out, b);
            }
            Value::Array(items) => {
                out.push(TAG_ARRAY);
                write_varint(out, items.len());
                for item in items {
                    item.write_bytes(out);
                }
            }
            Value::Object(map) => {
                out.push(TAG_OBJECT);
                write_varint(out, map.len());
                for (k, v) in map {
                    blob(out, k.as_bytes());
                    v.write_bytes(out);
                }
            }
        }
    }

    /// Parse the binary syntax written by [`Value::to_bytes`].
    ///
    /// # Errors
    /// [`ParseError`] for an unknown tag, a length or count that exceeds
    /// the bytes that remain (checked before anything is allocated for
    /// it), invalid UTF-8, nesting beyond [`MAX_DEPTH`], or trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Value, ParseError> {
        let mut r = Reader { bytes, pos: 0 };
        let v = r.value(0)?;
        if r.pos != bytes.len() {
            return Err(r.err("trailing bytes after value"));
        }
        Ok(v)
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::Float(f) => {
                if f.is_finite() {
                    // Ensure a float marker so the value re-parses as Float.
                    let s = format!("{f:?}");
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    // JSON has no Inf/NaN; encode as null like serde_json.
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Bytes(b) => {
                // The base64 alphabet needs no escaping.
                out.push('"');
                base64_encode(out, b);
                out.push('"');
            }
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !map.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push('}');
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
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

const BASE64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

fn base64_encode(out: &mut String, bytes: &[u8]) {
    out.reserve(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let mut group = [0u8; 3];
        group[..chunk.len()].copy_from_slice(chunk);
        let n = u32::from_be_bytes([0, group[0], group[1], group[2]]);
        for i in 0..4 {
            if i <= chunk.len() {
                out.push(BASE64[(n >> (18 - 6 * i)) as usize & 63] as char);
            } else {
                out.push('=');
            }
        }
    }
}

/// Sextet of each base64 character; `0xff` marks a byte outside the alphabet.
const SEXTET: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut i = 0;
    while i < 64 {
        table[BASE64[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Strict decode: whole groups of four, `=` only as the last one or two
/// characters.
fn base64_decode(text: &str) -> Option<Vec<u8>> {
    let text = text.as_bytes();
    if !text.len().is_multiple_of(4) {
        return None;
    }
    let padding = text.iter().rev().take(2).take_while(|&&c| c == b'=').count();
    let mut out = Vec::with_capacity(text.len() / 4 * 3);
    // Sextets are below 64, so a set high bit anywhere means a bad byte.
    let mut seen = 0u8;
    for group in text[..text.len() - padding].chunks(4) {
        let mut n = 0u32;
        for &c in group {
            let sextet = SEXTET[c as usize];
            seen |= sextet;
            n = n << 6 | sextet as u32;
        }
        n <<= 6 * (4 - group.len());
        out.extend_from_slice(&n.to_be_bytes()[1..group.len()]);
    }
    (seen & 0xc0 == 0).then_some(out)
}

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_BYTES: u8 = 6;
const TAG_ARRAY: u8 = 7;
const TAG_OBJECT: u8 = 8;

fn write_varint(out: &mut Vec<u8>, mut n: usize) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

/// Cursor over the binary syntax.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError { position: self.pos, message: msg.to_string() }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ParseError> {
        if n > self.bytes.len() - self.pos {
            return Err(self.err("length exceeds the remaining input"));
        }
        let taken = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(taken)
    }

    fn varint(&mut self) -> Result<usize, ParseError> {
        let mut n = 0usize;
        for shift in (0..usize::BITS).step_by(7) {
            let byte = self.take(1)?[0];
            let bits = (byte & 0x7f) as usize;
            if bits << shift >> shift != bits {
                break;
            }
            n |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(n);
            }
        }
        Err(self.err("varint overflows"))
    }

    /// A length-prefixed run of bytes.
    fn blob(&mut self) -> Result<&'a [u8], ParseError> {
        let len = self.varint()?;
        self.take(len)
    }

    fn string(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        std::str::from_utf8(self.blob()?)
            .map(str::to_string)
            .map_err(|e| ParseError { position: start, message: format!("invalid utf-8: {e}") })
    }

    /// An element count. Every element takes at least one byte, so a count
    /// beyond the remaining input is refused before the first push.
    fn count(&mut self) -> Result<usize, ParseError> {
        let n = self.varint()?;
        if n > self.bytes.len() - self.pos {
            return Err(self.err("count exceeds the remaining input"));
        }
        Ok(n)
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        let tag = self.take(1)?[0];
        Ok(match tag {
            TAG_NULL => Value::Null,
            TAG_FALSE => Value::Bool(false),
            TAG_TRUE => Value::Bool(true),
            TAG_INT => Value::Int(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes"))),
            TAG_FLOAT => {
                Value::Float(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
            }
            TAG_STR => Value::Str(self.string()?),
            TAG_BYTES => Value::Bytes(self.blob()?.into()),
            TAG_ARRAY | TAG_OBJECT if depth >= MAX_DEPTH => {
                return Err(self.err("nesting deeper than MAX_DEPTH"))
            }
            TAG_ARRAY => {
                let n = self.count()?;
                let mut items = Vec::new();
                for _ in 0..n {
                    items.push(self.value(depth + 1)?);
                }
                Value::Array(items)
            }
            TAG_OBJECT => {
                let n = self.count()?;
                let mut map = BTreeMap::new();
                for _ in 0..n {
                    let key = self.string()?;
                    map.insert(key, self.value(depth + 1)?);
                }
                Value::Object(map)
            }
            other => {
                self.pos -= 1;
                return Err(self.err(&format!("unknown value tag {other}")));
            }
        })
    }
}

/// A parse failure in either syntax, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError { position: self.pos, message: msg.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{text}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[' | b'{') if depth >= MAX_DEPTH => {
                Err(self.err("nesting deeper than MAX_DEPTH"))
            }
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte in
            // one piece. The input is a `str` and the run ends at an ASCII
            // byte, so it cannot split a multi-byte character.
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8 sequence"))?,
            );
            let c = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Handle surrogate pairs.
                            let ch = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(ch.ok_or_else(|| self.err("invalid unicode escape"))?);
                        }
                        _ => return Err(self.err("invalid escape character")),
                    }
                }
                _ => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| ParseError { position: start, message: "invalid number".to_string() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_tensor::rng::{each_seed, Rng};

    #[test]
    fn parse_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse(" false ").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("42").unwrap(), Value::Int(42));
        assert_eq!(Value::parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(Value::parse("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(Value::parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(Value::parse("\"hi\"").unwrap(), Value::str("hi"));
    }

    #[test]
    fn parse_nested() {
        let v = Value::parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[1].get("b"), Some(&Value::Null));
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn parse_errors() {
        assert!(Value::parse("").is_err());
        assert!(Value::parse("[1,").is_err());
        assert!(Value::parse("{\"a\" 1}").is_err());
        assert!(Value::parse("tru").is_err());
        assert!(Value::parse("1 2").is_err());
        assert!(Value::parse("\"unterminated").is_err());
        assert!(Value::parse("\"bad \\q escape\"").is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" \\ slash / unicode: ünïcødé 👍";
        let v = Value::str(original);
        let parsed = Value::parse(&v.to_json()).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
    }

    #[test]
    fn unicode_escape_parsing() {
        assert_eq!(Value::parse(r#""A""#).unwrap().as_str(), Some("A"));
        // Surrogate pair for 👍 (U+1F44D)
        assert_eq!(Value::parse(r#""👍""#).unwrap().as_str(), Some("👍"));
        assert!(Value::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn int_float_distinction() {
        assert_eq!(Value::parse("5").unwrap(), Value::Int(5));
        assert_eq!(Value::parse("5.0").unwrap(), Value::Float(5.0));
        // Float output always re-parses as float.
        assert_eq!(Value::parse(&Value::Float(5.0).to_json()).unwrap(), Value::Float(5.0));
        // i64 overflow falls back to float.
        assert!(matches!(Value::parse("99999999999999999999").unwrap(), Value::Float(_)));
    }

    #[test]
    fn large_i64_round_trips() {
        let v = Value::Int(i64::MAX);
        assert_eq!(Value::parse(&v.to_json()).unwrap(), v);
        let v = Value::Int(i64::MIN);
        assert_eq!(Value::parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(Value::Float(f64::NAN).to_json(), "null");
        assert_eq!(Value::Float(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn base64_matches_rfc4648_vectors() {
        for (raw, text) in [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ] {
            let v = Value::Bytes(raw.as_bytes().into());
            assert_eq!(v.to_json(), format!("\"{text}\""));
            assert_eq!(Value::str(text).as_bytes().as_deref(), Some(raw.as_bytes()));
        }
        for bad in ["Zg=", "Zg", "Z===", "Zm9v=", "Zm 9", "=m9v", "Zm9\u{e9}"] {
            assert_eq!(Value::str(bad).as_bytes(), None, "{bad:?}");
        }
    }

    #[test]
    fn bytes_leaf_reads_back_through_both_syntaxes() {
        let payload: Vec<u8> = (0..=255).collect();
        let v = Value::object([("data".to_string(), Value::Bytes(payload.clone().into()))]);
        // Binary keeps the leaf; text turns it into a string `as_bytes` reads.
        assert_eq!(Value::from_bytes(&v.to_bytes()).unwrap(), v);
        let reparsed = Value::parse(&v.to_json_pretty()).unwrap();
        assert!(matches!(reparsed.get("data"), Some(Value::Str(_))));
        assert_eq!(reparsed.get("data").unwrap().as_bytes().as_deref(), Some(&payload[..]));
        assert_eq!(v.get("data").unwrap().as_bytes().as_deref(), Some(&payload[..]));
        assert_eq!(Value::Int(3).as_bytes(), None);
    }

    #[test]
    fn binary_keeps_every_float_bit() {
        for bits in [f64::NAN.to_bits(), 0xfff8_0000_dead_beef, 1, (-0.0f64).to_bits()] {
            let v = Value::Float(f64::from_bits(bits));
            match Value::from_bytes(&v.to_bytes()).unwrap() {
                Value::Float(f) => assert_eq!(f.to_bits(), bits),
                other => panic!("decoded {other:?}"),
            }
        }
        assert_eq!(
            Value::from_bytes(&Value::Int(i64::MIN).to_bytes()).unwrap(),
            Value::Int(i64::MIN)
        );
    }

    #[test]
    fn nesting_is_bounded_in_both_syntaxes() {
        // Two million brackets used to overflow the stack.
        assert!(Value::parse(&"[".repeat(2_000_000)).is_err());
        assert!(Value::parse(&"{\"a\":".repeat(2_000_000)).is_err());
        let nested = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        let deepest = Value::parse(&nested(MAX_DEPTH)).unwrap();
        assert!(Value::parse(&nested(MAX_DEPTH + 1)).is_err());

        assert_eq!(Value::from_bytes(&deepest.to_bytes()).unwrap(), deepest);
        let too_deep = Value::Array(vec![deepest]).to_bytes();
        assert!(Value::from_bytes(&too_deep).is_err());
        // An array of one element, two million levels down.
        assert!(Value::from_bytes(&[TAG_ARRAY, 1].repeat(2_000_000)).is_err());
    }

    #[test]
    fn binary_decoder_rejects_malformed_input() {
        let v = Value::object([
            ("s".to_string(), Value::str("héllo")),
            ("b".to_string(), Value::Bytes(vec![1, 2, 3].into())),
            ("a".to_string(), Value::from(vec![1i64, -2])),
            ("f".to_string(), Value::Float(0.5)),
        ]);
        let bytes = v.to_bytes();
        for cut in 0..bytes.len() {
            assert!(Value::from_bytes(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(TAG_NULL);
        assert!(Value::from_bytes(&trailing).is_err());

        assert!(Value::from_bytes(&[9]).is_err(), "unknown tag");
        assert!(Value::from_bytes(&[TAG_BYTES, 5, 1, 2]).is_err(), "blob longer than input");
        assert!(Value::from_bytes(&[TAG_STR, 2, 0xc3, 0x28]).is_err(), "invalid utf-8");
        assert!(Value::from_bytes(&[TAG_ARRAY, 3, TAG_NULL]).is_err(), "count beyond input");
        // Lengths near usize::MAX and a varint that never ends.
        let huge = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff];
        assert!(Value::from_bytes(&[&[TAG_BYTES][..], &huge, &[0x01]].concat()).is_err());
        assert!(Value::from_bytes(&[&[TAG_ARRAY][..], &huge, &[0x01]].concat()).is_err());
        assert!(Value::from_bytes(&[&[TAG_STR][..], &huge, &[0x7f]].concat()).is_err());
        assert!(Value::from_bytes(&[&[TAG_STR][..], &huge, &[0xff, 0xff]].concat()).is_err());
    }

    #[test]
    fn pretty_output_parses() {
        let v = Value::object([
            ("list".to_string(), Value::from(vec![1i64, 2, 3])),
            ("name".to_string(), Value::str("x")),
        ]);
        let pretty = v.to_json_pretty();
        assert!(pretty.contains('\n'));
        assert_eq!(Value::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn typed_array_accessors() {
        let v = Value::parse("[1, 2, 3]").unwrap();
        assert_eq!(v.as_i64_array(), Some(vec![1, 2, 3]));
        assert_eq!(v.as_f64_array(), Some(vec![1.0, 2.0, 3.0]));
        let mixed = Value::parse("[1, \"a\"]").unwrap();
        assert_eq!(mixed.as_i64_array(), None);
    }

    #[test]
    fn deterministic_key_order() {
        let a = Value::parse(r#"{"b": 1, "a": 2}"#).unwrap();
        assert_eq!(a.to_json(), r#"{"a":2,"b":1}"#);
    }

    const ALNUM: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _";
    const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";

    /// Printable ASCII plus a few multibyte characters.
    fn printable() -> String {
        (' '..='~').chain(['\u{e9}', '\u{3b1}', '\u{221a}', '\u{65e5}', '\u{1f600}']).collect()
    }

    /// A string of `len` characters drawn from `chars`.
    fn text(rng: &mut Rng, chars: &str, len: std::ops::RangeInclusive<usize>) -> String {
        let chars: Vec<char> = chars.chars().collect();
        (0..rng.range(len)).map(|_| chars[rng.range(0..chars.len())]).collect()
    }

    fn leaf(rng: &mut Rng) -> Value {
        match rng.range(0u32..5) {
            0 => Value::Null,
            1 => Value::Bool(rng.bool(0.5)),
            2 => Value::Int(rng.u64() as i64),
            3 => Value::Float(rng.range(-1e12..1e12)),
            _ => Value::Str(text(rng, ALNUM, 0..=12)),
        }
    }

    /// Leaves only the binary syntax keeps: raw bytes and any float bits.
    fn binary_leaf(rng: &mut Rng) -> Value {
        match rng.range(0u32..4) {
            0 => Value::Int(rng.u64() as i64),
            1 => Value::Float(f64::from_bits(rng.u64())),
            2 => Value::Str(text(rng, &printable(), 0..=12)),
            _ => Value::Bytes((0..rng.range(0usize..200)).map(|_| rng.u64() as u8).collect()),
        }
    }

    /// A leaf, or with odds two in three (while `depth` lasts) an array or
    /// an object of up to three subtrees.
    fn tree(rng: &mut Rng, depth: u32, leaf: fn(&mut Rng) -> Value) -> Value {
        if depth == 0 || rng.range(0u32..3) == 0 {
            return leaf(rng);
        }
        let n = rng.range(0usize..4);
        if rng.bool(0.5) {
            Value::Array((0..n).map(|_| tree(rng, depth - 1, leaf)).collect())
        } else {
            let entry = |rng: &mut Rng| (text(rng, LOWER, 1..=6), tree(rng, depth - 1, leaf));
            Value::Object((0..n).map(|_| entry(rng)).collect())
        }
    }

    #[test]
    fn round_trip() {
        each_seed(64, |rng| {
            let v = tree(rng, 3, leaf);
            let compact = Value::parse(&v.to_json()).unwrap();
            assert_eq!(&compact, &v);
            let pretty = Value::parse(&v.to_json_pretty()).unwrap();
            assert_eq!(&pretty, &v);
        });
    }

    #[test]
    fn binary_round_trip() {
        each_seed(64, |rng| {
            let v = tree(rng, 3, binary_leaf);
            let bytes = v.to_bytes();
            let back = Value::from_bytes(&bytes).unwrap();
            // Compare re-encodings: NaN floats are not equal to themselves.
            assert_eq!(back.to_bytes(), bytes);
        });
    }

    #[test]
    fn binary_agrees_with_text() {
        each_seed(64, |rng| {
            let v = tree(rng, 3, leaf);
            assert_eq!(&Value::from_bytes(&v.to_bytes()).unwrap(), &v);
        });
    }

    #[test]
    fn arbitrary_strings_round_trip() {
        each_seed(64, |rng| {
            let s = text(rng, &printable(), 0..=24);
            let v = Value::str(s.clone());
            let parsed = Value::parse(&v.to_json()).unwrap();
            assert_eq!(parsed.as_str(), Some(s.as_str()));
        });
    }
}
