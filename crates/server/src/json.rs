//! A minimal JSON reader/writer for the wire protocol.
//!
//! The protocol is line-delimited JSON with a tiny, flat schema, so a
//! hand-rolled recursive-descent parser keeps the crate dependency-free
//! (the same choice the CLI and metrics layers made for their JSON
//! output). Numbers are kept as raw token strings and parsed on demand,
//! so a `u64` seed round-trips without passing through `f64`.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one complete JSON value; trailing garbage is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err(pos, "trailing characters after the value"));
        }
        Ok(value)
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integer token.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as `usize`, if this is a non-negative integer token.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }
}

fn err(at: usize, message: &str) -> JsonError {
    JsonError {
        at,
        message: message.to_owned(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, &format!("expected `{}`", b as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        _ => Err(err(*pos, "expected a value")),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(*pos, &format!("expected `{word}`")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_start = *pos;
    while *pos < bytes.len()
        && (bytes[*pos].is_ascii_digit() || matches!(bytes[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    if *pos == digits_start {
        return Err(err(start, "expected digits"));
    }
    let raw = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number token");
    // Validate the token by parsing it as f64 (covers every JSON form).
    raw.parse::<f64>()
        .map_err(|_| err(start, "malformed number"))?;
    Ok(Json::Num(raw.to_owned()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| err(*pos, "non-ASCII \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        // Surrogates are rejected rather than paired: the
                        // protocol never emits them.
                        let ch = char::from_u32(code)
                            .ok_or_else(|| err(*pos, "\\u escape is not a scalar value"))?;
                        out.push(ch);
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so the
                // bytes are valid UTF-8).
                let rest = std::str::from_utf8(&bytes[*pos..]).expect("valid UTF-8 input");
                let ch = rest.chars().next().expect("non-empty");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected `,` or `]`")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(err(*pos, "expected `,` or `}`")),
        }
    }
}

/// Escapes `s` for embedding inside a JSON string literal (the
/// workspace's one escaper, shared with lint reports and the engine's
/// progress events).
pub use lobist_lint::json_escape as escape;

/// `text`, a JSON value, with the whitespace between its tokens removed:
/// one line, fit for the protocol. String contents are kept as they are
/// (an escaped newline is two characters, so none stays raw).
pub fn compact(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut in_string = false;
    let mut escaped = false;
    for c in text.chars() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
        } else if c == '"' {
            in_string = true;
            out.push(c);
        } else if !matches!(c, ' ' | '\t' | '\n' | '\r') {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let v = Json::parse(
            r#"{"cmd":"synth","design":"input a\nb","jobs":4,"repair":true,"seed":18446744073709551615}"#,
        )
        .expect("valid");
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("synth"));
        assert_eq!(v.get("design").and_then(Json::as_str), Some("input a\nb"));
        assert_eq!(v.get("jobs").and_then(Json::as_usize), Some(4));
        assert_eq!(v.get("repair").and_then(Json::as_bool), Some(true));
        // u64::MAX survives: numbers are raw tokens, not f64.
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(u64::MAX));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parses_nested_values() {
        let v = Json::parse(r#"{"a":[1,2,{"b":null}],"c":false}"#).expect("valid");
        match v.get("a") {
            Some(Json::Arr(items)) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[2].get("b"), Some(&Json::Null));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\":1} extra", "\"open", "nul"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn compact_keeps_the_value_on_one_line() {
        let pretty = "{\n  \"a b\": [1, 2.5e3,\n    {\"c\": \"x \\\" \\n y\"}],\n  \"d\": true\n}";
        let line = compact(pretty);
        assert_eq!(line, r#"{"a b":[1,2.5e3,{"c":"x \" \n y"}],"d":true}"#);
        assert_eq!(Json::parse(&line), Json::parse(pretty));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let original = "line1\nline2\t\"quoted\" \\slash\u{1}\r\u{1b}\u{200b}";
        let wrapped = format!("{{\"s\":\"{}\"}}", escape(original));
        let v = Json::parse(&wrapped).expect("escaped text parses");
        assert_eq!(v.get("s").and_then(Json::as_str), Some(original));
    }
}
