//! Minimal JSON parser for the trace format.
//!
//! The workspace's offline `serde_json` shim only *encodes* (nothing in the
//! seed deserialised), but trace replay must parse what the recorder wrote.
//! This module is a small recursive-descent parser over the JSON subset the
//! trace format emits: objects, arrays, strings, integer/float numbers,
//! booleans and null.  Numbers keep their literal text so `u64` bit patterns
//! (which do not round-trip through `f64`) parse exactly.
//!
//! The parsed tree **borrows** from the input: numbers are source slices and
//! strings borrow unless they contain escapes ([`std::borrow::Cow`]), so the
//! trace-decode hot path — dozens of keys and numbers per line — allocates
//! only for the containers, not per token.
//!
//! Nesting is capped at 64 levels of arrays/objects: the parser recurses once
//! per level, so an unbounded run of `[` in untrusted input would otherwise
//! overflow the stack.  The deepest line the trace format writes nests three
//! levels.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// Deepest array/object nesting [`parse`] accepts; deeper input is a
/// [`JsonError`].
const MAX_DEPTH: usize = 64;

/// A parsed JSON value borrowing from the input text.  Numbers keep the
/// source literal so integer bit patterns survive untouched.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, as its source literal.
    Number(&'a str),
    /// A string literal; borrowed from the source unless escapes had to be
    /// resolved.
    String(Cow<'a, str>),
    /// An array.
    Array(Vec<JsonValue<'a>>),
    /// An object; BTreeMap keeps iteration deterministic.
    Object(BTreeMap<Cow<'a, str>, JsonValue<'a>>),
}

impl<'a> JsonValue<'a> {
    /// The value as `u64`, if it is an unsigned integer literal.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The value as `usize`, if it is an unsigned integer literal.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Number(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean literal.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(text) => Some(text),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue<'a>]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up an object member.
    pub fn get(&self, key: &str) -> Option<&JsonValue<'a>> {
        match self {
            JsonValue::Object(members) => members.get(key),
            _ => None,
        }
    }
}

/// A parse failure: what was expected and the byte offset it failed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What the parser expected.
    pub expected: &'static str,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expected {} at byte {}", self.expected, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document, requiring it to span the whole input.  The
/// returned tree borrows from `input`.
pub fn parse(input: &str) -> Result<JsonValue<'_>, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(JsonError { expected: "end of input", offset: pos });
    }
    Ok(value)
}

/// Re-borrows `bytes[start..end]` as text.  The input to [`parse`] is a
/// `&str` and the parser only splits at ASCII delimiters, so this never fails
/// in practice; the error covers direct byte-level misuse.
fn str_slice(bytes: &[u8], start: usize, end: usize) -> Result<&str, JsonError> {
    std::str::from_utf8(&bytes[start..end])
        .map_err(|_| JsonError { expected: "UTF-8 text", offset: start })
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8, what: &'static str) -> Result<(), JsonError> {
    skip_ws(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError { expected: what, offset: *pos })
    }
}

/// Parses the value at `pos`, which sits inside `depth` arrays/objects.
fn parse_value<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    depth: usize,
) -> Result<JsonValue<'a>, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(JsonError { expected: "nesting within the depth limit", offset: *pos })
        }
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        _ => Err(JsonError { expected: "a JSON value", offset: *pos }),
    }
}

fn parse_literal<'a>(
    bytes: &[u8],
    pos: &mut usize,
    literal: &'static str,
    value: JsonValue<'a>,
) -> Result<JsonValue<'a>, JsonError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(JsonError { expected: literal, offset: *pos })
    }
}

fn parse_number<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<JsonValue<'a>, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_start = *pos;
    while matches!(bytes.get(*pos), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
        *pos += 1;
    }
    if *pos == digits_start {
        return Err(JsonError { expected: "digits", offset: *pos });
    }
    Ok(JsonValue::Number(str_slice(bytes, start, *pos)?))
}

fn parse_string<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<Cow<'a, str>, JsonError> {
    expect(bytes, pos, b'"', "a string")?;
    // Fast path: scan the whole literal in one pass; if it contains no escape
    // the result borrows the source.  A byte scan cannot split a multi-byte
    // UTF-8 character, because those never contain the ASCII bytes `"` or
    // `\`.  (Validating per character used to re-scan the entire remaining
    // input for every byte — an O(n²) wall the trace-decode path hit on every
    // object key.)
    let start = *pos;
    while matches!(bytes.get(*pos), Some(b) if *b != b'"' && *b != b'\\') {
        *pos += 1;
    }
    match bytes.get(*pos) {
        None => return Err(JsonError { expected: "closing quote", offset: *pos }),
        Some(b'"') => {
            let literal = str_slice(bytes, start, *pos)?;
            *pos += 1;
            return Ok(Cow::Borrowed(literal));
        }
        _ => {} // an escape: fall through to the owned slow path
    }
    let mut out = String::from(str_slice(bytes, start, *pos)?);
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError { expected: "closing quote", offset: *pos }),
            Some(b'"') => {
                *pos += 1;
                return Ok(Cow::Owned(out));
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or(JsonError { expected: "\\uXXXX escape", offset: *pos })?;
                        out.push(
                            char::from_u32(hex)
                                .ok_or(JsonError { expected: "valid codepoint", offset: *pos })?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(JsonError { expected: "escape character", offset: *pos }),
                }
                *pos += 1;
            }
            Some(_) => {
                let start = *pos;
                while matches!(bytes.get(*pos), Some(b) if *b != b'"' && *b != b'\\') {
                    *pos += 1;
                }
                out.push_str(str_slice(bytes, start, *pos)?);
            }
        }
    }
}

fn parse_array<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    depth: usize,
) -> Result<JsonValue<'a>, JsonError> {
    expect(bytes, pos, b'[', "an array")?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(JsonError { expected: "',' or ']'", offset: *pos }),
        }
    }
}

fn parse_object<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    depth: usize,
) -> Result<JsonValue<'a>, JsonError> {
    expect(bytes, pos, b'{', "an object")?;
    let mut members = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        expect(bytes, pos, b':', "':'")?;
        members.insert(key, parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(members));
            }
            _ => return Err(JsonError { expected: "',' or '}'", offset: *pos }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_trace_subset() {
        let doc =
            r#"{"a":1,"b":[2.5,-3,true,null],"c":{"nested":"va\"lue"},"big":18446744073709551615}"#;
        let value = parse(doc).expect("valid document");
        assert_eq!(value.get("a").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(value.get("big").and_then(JsonValue::as_u64), Some(u64::MAX));
        let items = value.get("b").and_then(JsonValue::as_array).expect("array");
        assert_eq!(items.len(), 4);
        assert_eq!(items[1], JsonValue::Number("-3"));
        assert_eq!(items[2], JsonValue::Bool(true));
        assert_eq!(items[3], JsonValue::Null);
        assert_eq!(
            value.get("c").and_then(|c| c.get("nested")).and_then(JsonValue::as_str),
            Some("va\"lue")
        );
    }

    #[test]
    fn round_trips_the_shim_encoder() {
        // What the vendored serde shim writes, this parser must read.
        let encoded = serde_json::to_string(&vec![Some(1.25f64), None]).expect("encodes");
        let parsed = parse(&encoded).expect("parses");
        let items = parsed.as_array().expect("array");
        assert_eq!(items[0], JsonValue::Number("1.25"));
        assert_eq!(items[1], JsonValue::Null);
    }

    #[test]
    fn plain_strings_borrow_and_escaped_strings_allocate() {
        let value = parse(r#"{"plain":"instructions","escaped":"a\nb"}"#).expect("parses");
        match value.get("plain") {
            Some(JsonValue::String(Cow::Borrowed(text))) => assert_eq!(*text, "instructions"),
            other => panic!("escape-free strings must borrow, got {other:?}"),
        }
        match value.get("escaped") {
            Some(JsonValue::String(Cow::Owned(text))) => assert_eq!(text, "a\nb"),
            other => panic!("escaped strings must resolve to owned text, got {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nope").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        let err = parse("").unwrap_err();
        assert!(err.to_string().contains("expected"));
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.expected.contains("nesting"));
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(parse(&objects).is_err());
    }
}
