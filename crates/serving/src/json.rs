//! A minimal JSON codec for the REST wire format.
//!
//! Hand-rolled: the workspace vendors no serialisation crate. Supports the
//! full JSON value grammar; numbers are
//! kept as `f64` plus a lossless `u64` fast path for identifiers, which is
//! what the recommendation API traffics in. Not a general-purpose JSON
//! library — strings are UTF-8 with the standard escapes, and the parser
//! rejects trailing garbage.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number; integers ≤ 2⁵³ round-trip exactly.
    Number(f64),
    /// String.
    String(String),
    /// Array.
    Array(Vec<JsonValue>),
    /// Object (sorted keys — deterministic serialisation).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Object field access.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// Number as u64, if it is one (non-negative integral).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Number as f64.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Bool value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Convenience object constructor.
    pub fn object(fields: impl IntoIterator<Item = (&'static str, JsonValue)>) -> JsonValue {
        JsonValue::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Serialises to a compact JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Number(n) => {
                if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
                    // Integral numbers print without the trailing ".0".
                    let _ = fmt::Write::write_fmt(out, format_args!("{}", *n as i64));
                } else {
                    let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
                }
            }
            JsonValue::String(s) => write_escaped(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
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
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document; rejects trailing non-whitespace.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by our wire
                            // format; replace them rather than erroring.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: copy the full sequence.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let slice = self.bytes.get(start..end).ok_or("truncated utf-8")?;
                    out.push_str(std::str::from_utf8(slice).map_err(|_| "invalid utf-8")?);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        // The scanned range is ASCII by construction, but a lexer bug must
        // surface as a parse error on this request, never a worker panic.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| String::from("invalid number encoding"))?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("invalid number {text:?} at offset {start}"))
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
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
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        b if b >= 0xC0 => 2,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for (text, value) in [
            ("null", JsonValue::Null),
            ("true", JsonValue::Bool(true)),
            ("false", JsonValue::Bool(false)),
            ("42", JsonValue::Number(42.0)),
            ("-7", JsonValue::Number(-7.0)),
            ("2.5", JsonValue::Number(2.5)),
            ("\"hi\"", JsonValue::String("hi".into())),
        ] {
            assert_eq!(parse(text).unwrap(), value, "{text}");
            assert_eq!(parse(&value.to_json()).unwrap(), value);
        }
    }

    #[test]
    fn nested_structures_roundtrip() {
        let v = JsonValue::object([
            ("session_id", JsonValue::Number(123456789.0)),
            ("consent", JsonValue::Bool(true)),
            (
                "items",
                JsonValue::Array(vec![JsonValue::Number(1.0), JsonValue::Number(2.0)]),
            ),
            ("note", JsonValue::String("a \"quoted\" string\nwith newline".into())),
        ]);
        let text = v.to_json();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn large_ids_roundtrip_exactly() {
        let id = 9_007_199_254_740_992u64; // 2^53
        let v = JsonValue::Number(id as f64);
        assert_eq!(parse(&v.to_json()).unwrap().as_f64().unwrap() as u64, id);
        // as_u64 accepts up to 2^53.
        assert_eq!(JsonValue::Number(12345.0).as_u64(), Some(12345));
        assert_eq!(JsonValue::Number(-1.0).as_u64(), None);
        assert_eq!(JsonValue::Number(1.5).as_u64(), None);
    }

    #[test]
    fn integral_numbers_print_without_decimal_point() {
        assert_eq!(JsonValue::Number(21.0).to_json(), "21");
        assert_eq!(JsonValue::Number(0.5).to_json(), "0.5");
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = parse("  { \"a\" : [ 1 , 2 ] , \"b\" : null }  ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("b"), Some(&JsonValue::Null));
    }

    #[test]
    fn unicode_strings_roundtrip() {
        let v = JsonValue::String("héllo wörld — ≤7ms ✓".into());
        assert_eq!(parse(&v.to_json()).unwrap(), v);
        assert_eq!(parse("\"\\u0041\"").unwrap(), JsonValue::String("A".into()));
    }

    #[test]
    fn malformed_documents_are_rejected()  {
        for bad in [
            "", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"unterminated",
            "{\"a\" 1}", "[1 2]", "nul",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn accessors_return_none_on_type_mismatch() {
        let v = parse("{\"x\": 1}").unwrap();
        assert!(v.get("x").unwrap().as_bool().is_none());
        assert!(v.get("x").unwrap().as_str().is_none());
        assert!(v.get("missing").is_none());
        assert!(JsonValue::Null.get("x").is_none());
        assert!(JsonValue::Bool(true).as_array().is_none());
    }

    #[test]
    fn control_characters_are_escaped() {
        let v = JsonValue::String("\u{1}".into());
        assert_eq!(v.to_json(), "\"\\u0001\"");
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }
}
