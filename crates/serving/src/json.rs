//! The JSON of the REST wire format: a scanner that reads a body where it
//! lies, and a writer that emits one straight into its output buffer.
//!
//! Hand-rolled: the workspace vendors no serialisation crate. The product's
//! documents are small and flat — a predict body has four fields, the
//! deepest schema nests three levels — so no tree is ever built.
//!
//! * [`parse`] checks a whole document (the full JSON value grammar,
//!   nesting at most [`MAX_DEPTH`] deep, no trailing bytes) and returns a
//!   [`Value`] borrowing from it. A value is read on demand:
//!   [`Value::get`] finds a field — the last one when a key repeats — and
//!   skips the rest however they nest, [`Value::elements`] walks an array,
//!   and [`Value::as_u64`], [`Value::as_f64`], [`Value::as_bool`] and
//!   [`Value::as_str`] read scalars, answering `None` for a value of another type. Nothing is
//!   copied unless a string holds an escape.
//! * [`object`] and [`write_object`] emit an object through [`Object`],
//!   whose fields are written in sorted key order (checked in debug
//!   builds); [`error`] is the one `{"error": …}` body. Integral numbers
//!   print without a `.0`.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Deepest nesting of arrays and objects [`parse`] accepts. The scanner
/// recurses once per level, so the bound is what keeps a body of brackets
/// from overflowing the reactor thread's stack.
pub const MAX_DEPTH: usize = 64;

/// The largest integer every `f64` step below it represents exactly.
const MAX_EXACT: u64 = 1 << 53;

/// Checks `text` as one JSON document and returns its value; rejects
/// trailing non-whitespace.
pub fn parse(text: &str) -> Result<Value<'_>, String> {
    let mut s = Scanner { text, pos: 0 };
    s.skip_ws();
    let value = s.value(0)?;
    s.skip_ws();
    if s.pos != text.len() {
        return Err(format!("trailing characters at offset {}", s.pos));
    }
    Ok(value)
}

/// One well-formed JSON value, borrowed from the document [`parse`] checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Value<'a> {
    text: &'a str,
}

impl<'a> Value<'a> {
    /// The value of field `key` of an object: the last one when the key
    /// repeats; `None` if it is absent or this is not an object.
    pub fn get(self, key: &str) -> Option<Value<'a>> {
        self.fields()?.filter(|(k, _)| k == key).last().map(|(_, v)| v)
    }

    /// The fields of an object in document order, keys unescaped; `None`
    /// for any other value.
    pub fn fields(self) -> Option<Fields<'a>> {
        self.text.starts_with('{').then(|| Fields(self.items()))
    }

    /// The elements of an array; `None` for any other value.
    pub fn elements(self) -> Option<Elements<'a>> {
        self.text.starts_with('[').then(|| Elements(self.items()))
    }

    /// A non-negative integral number no larger than 2⁵³, in any spelling
    /// (`7`, `7.0`, `7e0`).
    pub fn as_u64(self) -> Option<u64> {
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= MAX_EXACT as f64).then_some(n as u64)
    }

    /// A number.
    pub fn as_f64(self) -> Option<f64> {
        self.text.parse().ok()
    }

    /// `true` or `false`.
    pub fn as_bool(self) -> Option<bool> {
        match self.text {
            "true" => Some(true),
            "false" => Some(false),
            _ => None,
        }
    }

    /// A string, unescaped.
    pub fn as_str(self) -> Option<Cow<'a, str>> {
        if !self.text.starts_with('"') {
            return None;
        }
        Scanner { text: self.text, pos: 0 }.string().ok()
    }

    fn items(self) -> Scanner<'a> {
        Scanner { text: self.text, pos: 1 }
    }
}

/// The fields of an object: see [`Value::fields`].
#[derive(Debug, Clone)]
pub struct Fields<'a>(Scanner<'a>);

impl<'a> Iterator for Fields<'a> {
    type Item = (Cow<'a, str>, Value<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next_item(b'}')?;
        self.0.member(0).ok()
    }
}

/// The elements of an array: see [`Value::elements`].
#[derive(Debug, Clone)]
pub struct Elements<'a>(Scanner<'a>);

impl<'a> Iterator for Elements<'a> {
    type Item = Value<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next_item(b']')?;
        self.0.value(0).ok()
    }
}

/// A cursor over a document. [`parse`] runs it over untrusted text; the
/// iterators rerun it over values that text already passed, where it
/// cannot fail.
#[derive(Debug, Clone)]
struct Scanner<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    /// Steps to the next item of a checked array or object: past the
    /// separating comma, or `None` at its `close` (where it stays).
    fn next_item(&mut self, close: u8) -> Option<()> {
        self.skip_ws();
        match self.peek()? {
            b if b == close => None,
            b',' => {
                self.pos += 1;
                self.skip_ws();
                Some(())
            }
            _ => Some(()),
        }
    }

    /// Scans one value at `depth` levels of nesting and returns it.
    fn value(&mut self, depth: usize) -> Result<Value<'a>, String> {
        let start = self.pos;
        match self.peek() {
            Some(b'n') => self.literal("null")?,
            Some(b't') => self.literal("true")?,
            Some(b'f') => self.literal("false")?,
            Some(b'"') => {
                self.string()?;
            }
            Some(b'[') => self.nested(b']', depth + 1)?,
            Some(b'{') => self.nested(b'}', depth + 1)?,
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number()?,
            other => return Err(format!("unexpected {other:?} at offset {}", self.pos)),
        }
        Ok(Value { text: &self.text[start..self.pos] })
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    /// An array (`close` is `]`) or an object (`}`), opened at `self.pos`.
    fn nested(&mut self, close: u8, depth: usize) -> Result<(), String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at offset {}", self.pos));
        }
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            if close == b'}' {
                self.member(depth)?;
            } else {
                self.value(depth)?;
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    let close = close as char;
                    return Err(format!("expected ',' or '{close}' at offset {}", self.pos));
                }
            }
        }
    }

    /// One `"key": value` member of an object.
    fn member(&mut self, depth: usize) -> Result<(Cow<'a, str>, Value<'a>), String> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok((key, self.value(depth)?))
    }

    /// A string, unescaped: borrowed from the text unless it holds an
    /// escape. Surrogate `\u` escapes are not needed by the wire format
    /// and decode to U+FFFD.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut decoded: Option<String> = None;
        // Start of the run not yet copied into `decoded`; every cut is at
        // an ASCII byte, so on a character boundary.
        let mut run = self.pos;
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => {
                    let tail = &self.text[run..self.pos - 1];
                    return Ok(match decoded {
                        None => Cow::Borrowed(tail),
                        Some(mut out) => {
                            out.push_str(tail);
                            Cow::Owned(out)
                        }
                    });
                }
                b'\\' => {
                    let out = decoded.get_or_insert_with(String::new);
                    out.push_str(&self.text[run..self.pos - 1]);
                    let c = self.escape()?;
                    out.push(c);
                    run = self.pos;
                }
                _ => {}
            }
        }
    }

    fn escape(&mut self) -> Result<char, String> {
        let Some(esc) = self.peek() else {
            return Err("unterminated escape".into());
        };
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let hex = self
                    .text
                    .as_bytes()
                    .get(self.pos..self.pos + 4)
                    .ok_or("truncated \\u escape")?;
                let code = u32::from_str_radix(
                    std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                    16,
                )
                .map_err(|_| "bad \\u escape")?;
                self.pos += 4;
                char::from_u32(code).unwrap_or('\u{FFFD}')
            }
            other => return Err(format!("bad escape \\{}", other as char)),
        })
    }

    /// A number: what Rust's `f64` parser accepts of the longest run of
    /// number characters.
    fn number(&mut self) -> Result<(), String> {
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
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(_) => Ok(()),
            Err(_) => Err(format!("invalid number {text:?} at offset {start}")),
        }
    }
}

/// Writes one object into `out`; `fill` adds its fields.
pub fn write_object(out: &mut String, fill: impl FnOnce(&mut Object<'_>)) {
    out.push('{');
    fill(&mut Object { out, last: None });
    out.push('}');
}

/// One object as a new string; `fill` adds its fields.
pub fn object(fill: impl FnOnce(&mut Object<'_>)) -> String {
    let mut out = String::new();
    write_object(&mut out, fill);
    out
}

/// The body of every error answer: `{"error": message}`.
pub fn error(message: &str) -> String {
    object(|o| {
        o.str("error", message);
    })
}

/// An object being written: each method appends one field. Fields go in
/// sorted key order, the order every body has always had on the wire.
pub struct Object<'a> {
    out: &'a mut String,
    last: Option<&'static str>,
}

impl Object<'_> {
    /// A non-negative integer (one past 2⁵³ prints as its `f64`).
    pub fn u64(&mut self, key: &'static str, n: u64) -> &mut Self {
        write_u64(self.key(key), n);
        self
    }

    /// A number; an integral one prints without a `.0`.
    pub fn f64(&mut self, key: &'static str, x: f64) -> &mut Self {
        write_f64(self.key(key), x);
        self
    }

    /// `true` or `false`.
    pub fn bool(&mut self, key: &'static str, b: bool) -> &mut Self {
        self.key(key).push_str(if b { "true" } else { "false" });
        self
    }

    /// A string, escaped.
    pub fn str(&mut self, key: &'static str, s: &str) -> &mut Self {
        write_str(self.key(key), s);
        self
    }

    /// An array of integers.
    pub fn u64s(&mut self, key: &'static str, items: impl IntoIterator<Item = u64>) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, n) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_u64(out, n);
        }
        out.push(']');
        self
    }

    /// An array of objects, one per item; `fill` adds each one's fields.
    pub fn objects<T>(
        &mut self,
        key: &'static str,
        items: impl IntoIterator<Item = T>,
        mut fill: impl FnMut(&mut Object<'_>, T),
    ) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_object(out, |o| fill(o, item));
        }
        out.push(']');
        self
    }

    fn key(&mut self, key: &'static str) -> &mut String {
        if let Some(last) = self.last {
            debug_assert!(last < key, "field {key:?} written after {last:?}: keys go in sorted order");
            self.out.push(',');
        }
        self.last = Some(key);
        write_str(self.out, key);
        self.out.push(':');
        self.out
    }
}

fn write_u64(out: &mut String, n: u64) {
    if n <= MAX_EXACT {
        let _ = write!(out, "{n}");
    } else {
        write_f64(out, n as f64);
    }
}

fn write_f64(out: &mut String, x: f64) {
    if x.fract() == 0.0 && x.abs() <= MAX_EXACT as f64 {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let body = object(|o| {
            o.bool("f", false).u64("n", 42).str("s", "hi").bool("t", true).f64("x", 2.5);
        });
        assert_eq!(body, r#"{"f":false,"n":42,"s":"hi","t":true,"x":2.5}"#);
        let v = parse(&body).unwrap();
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(42));
        assert_eq!(v.get("x").and_then(Value::as_f64), Some(2.5));
        assert_eq!(v.get("t").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("f").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("s").and_then(Value::as_str).as_deref(), Some("hi"));
        assert_eq!(parse("-7").unwrap().as_f64(), Some(-7.0));
        assert_eq!(parse("null").unwrap().as_f64(), None);
    }

    #[test]
    fn nested_structures_roundtrip() {
        let body = object(|o| {
            o.bool("consent", true)
                .objects("items", [1u64, 2], |o, id| {
                    o.u64("item_id", id);
                })
                .str("note", "a \"quoted\" string\nwith newline")
                .u64s("published", [3, 4])
                .u64("session_id", 123_456_789);
        });
        let v = parse(&body).unwrap();
        let ids: Vec<_> = v
            .get("items")
            .and_then(Value::elements)
            .unwrap()
            .map(|item| item.get("item_id").and_then(Value::as_u64))
            .collect();
        assert_eq!(ids, [Some(1), Some(2)]);
        let published: Vec<_> =
            v.get("published").and_then(Value::elements).unwrap().map(Value::as_u64).collect();
        assert_eq!(published, [Some(3), Some(4)]);
        let note = v.get("note").and_then(Value::as_str).unwrap();
        assert_eq!(note, "a \"quoted\" string\nwith newline");
        assert_eq!(v.get("session_id").and_then(Value::as_u64), Some(123_456_789));
        assert_eq!(v.get("consent").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn large_ids_roundtrip_exactly() {
        let u = |text: &str| parse(text).unwrap().as_u64();
        let body = object(|o| {
            o.u64("id", MAX_EXACT);
        });
        assert_eq!(parse(&body).unwrap().get("id").and_then(Value::as_u64), Some(MAX_EXACT));
        // as_u64 accepts non-negative integral numbers up to 2^53, however
        // they are spelled.
        assert_eq!(u("12345"), Some(12345));
        assert_eq!(u("7.0"), Some(7));
        assert_eq!(u("7e0"), Some(7));
        assert_eq!(u("9007199254740994"), None);
        assert_eq!(u("-1"), None);
        assert_eq!(u("1.5"), None);
        assert_eq!(u("1e400"), None);
    }

    #[test]
    fn integral_numbers_print_without_decimal_point() {
        let body = object(|o| {
            o.f64("a", 21.0).f64("b", 0.5).u64("c", 21).u64s("d", [MAX_EXACT + 2]);
        });
        assert_eq!(body, r#"{"a":21,"b":0.5,"c":21,"d":[9007199254740994]}"#);
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = parse("  { \"a\" : [ 1 , 2 ] , \"b\" : null }  ").unwrap();
        assert_eq!(v.get("a").unwrap().elements().unwrap().count(), 2);
        assert_eq!(v.get("b").unwrap(), parse("null").unwrap());
        assert_eq!(parse("[ ]").unwrap().elements().unwrap().count(), 0);
    }

    #[test]
    fn unicode_strings_roundtrip() {
        let text = "héllo wörld — ≤7ms ✓";
        let body = object(|o| {
            o.str("s", text);
        });
        assert_eq!(parse(&body).unwrap().get("s").and_then(Value::as_str).unwrap(), text);
        assert_eq!(parse("\"\\u0041\"").unwrap().as_str().unwrap(), "A");
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"unterminated", "{\"a\" 1}", "[1 2]",
            "nul", "-", "[1,]", "{\"a\":1,}", "\"\\u12\"", "\"\\x\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn accessors_return_none_on_type_mismatch() {
        let v = parse(r#"{"x": 1, "s": "1", "z": null}"#).unwrap();
        let x = v.get("x").unwrap();
        assert!(x.as_bool().is_none());
        assert!(x.as_str().is_none());
        assert!(x.get("x").is_none());
        assert!(x.elements().is_none());
        assert!(x.fields().is_none());
        assert!(v.get("s").and_then(Value::as_u64).is_none());
        assert!(v.get("z").and_then(Value::as_u64).is_none());
        assert!(v.get("missing").is_none());
        assert!(v.elements().is_none());
    }

    #[test]
    fn control_characters_are_escaped() {
        let body = object(|o| {
            o.str("s", "\u{1}\t\\");
        });
        assert_eq!(body, r#"{"s":"\u0001\t\\"}"#);
        assert_eq!(parse(&body).unwrap().get("s").and_then(Value::as_str).unwrap(), "\u{1}\t\\");
    }

    #[test]
    fn the_last_of_a_repeated_key_wins_and_unknown_fields_are_skipped() {
        let v = parse(r#"{"a": 1, "skip": {"b": [1, {"c": "}]"}]}, "a": 2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(2));
        let keys: Vec<_> = v.fields().unwrap().map(|(k, _)| k).collect();
        assert_eq!(keys, ["a", "skip", "a"]);
        let inner = v.get("skip").unwrap().get("b").unwrap();
        assert_eq!(inner.elements().unwrap().count(), 2);
    }

    #[test]
    fn escapes_decode_in_keys_and_values_and_only_then_copy() {
        let v = parse(r#"{"session\u005fid": "a\"b\\c\/d\n\u00e9\ud800", "plain": "x"}"#).unwrap();
        let s = v.get("session_id").and_then(Value::as_str).unwrap();
        assert_eq!(s, "a\"b\\c/d\né\u{FFFD}");
        assert!(matches!(v.get("plain").and_then(Value::as_str), Some(Cow::Borrowed("x"))));
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&deep(MAX_DEPTH + 1)),
            Err(format!("nesting deeper than {MAX_DEPTH} at offset {MAX_DEPTH}"))
        );
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn error_is_the_one_error_body() {
        assert_eq!(error("not \"found\""), r#"{"error":"not \"found\""}"#);
        assert_eq!(object(|_| {}), "{}");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "keys go in sorted order")]
    fn fields_out_of_order_are_caught() {
        object(|o| {
            o.u64("b", 1).u64("a", 2);
        });
    }
}
