//! The one JSON model every bench report is built as, written with and
//! read back through.
//!
//! [`Json`] keeps each number as the token it is written as, so a report
//! fixes a field's precision once (`Json::fixed`) and parsing the
//! written text gives back the same value. [`Json::render`] has one
//! layout rule: a value with no object nested inside it goes on one
//! line; any other value puts one member per line. [`Json::parse`] is
//! strict: trailing data, truncation, duplicate keys and malformed
//! tokens are errors naming the field path where they occur.

use std::fmt::{self, Write as _};

/// Nesting depth past which [`Json::parse`] gives up (reports nest four
/// deep; this only bounds recursion on hostile input).
const MAX_DEPTH: usize = 64;

/// A JSON value. Objects keep their members in insertion order, which
/// is the order the writer emits them in.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, stored as its JSON token.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: `(key, value)` members in order.
    Obj(Vec<(String, Json)>),
}

macro_rules! from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Num(v.to_string())
            }
        }
    )*};
}
from_integer!(u32, u64, usize);

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}

impl Json {
    /// An object from `(key, value)` members, in order.
    pub(crate) fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of values convertible to `Json` (numbers, strings).
    pub(crate) fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// A float with `digits` decimals (`null` if not finite, which JSON
    /// cannot express).
    pub(crate) fn fixed(v: f64, digits: usize) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v:.digits$}"))
        } else {
            Json::Null
        }
    }

    /// A 64-bit checksum as its `"0x%016x"` string.
    pub(crate) fn hex(v: u64) -> Json {
        Json::Str(format!("{v:#018x}"))
    }

    /// The value at a dotted path of object keys (`"adaptive.rebalances"`).
    pub(crate) fn get(&self, path: &str) -> Option<&Json> {
        path.split('.').try_fold(self, |v, key| {
            v.members().iter().find(|(k, _)| k == key).map(|(_, v)| v)
        })
    }

    /// The members of an object (empty for any other value).
    pub(crate) fn members(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(members) => members,
            _ => &[],
        }
    }

    /// The contents of a string value.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The report file text: the value in the one layout, plus a final
    /// newline.
    pub fn render(&self) -> String {
        format!("{self}\n")
    }

    /// Whether an object occurs anywhere below this value: the one
    /// layout rule writes values that answer no on a single line.
    fn nests_object(&self) -> bool {
        let nested = |v: &Json| matches!(v, Json::Obj(_)) || v.nests_object();
        match self {
            Json::Arr(items) => items.iter().any(nested),
            Json::Obj(members) => members.iter().any(|(_, v)| nested(v)),
            _ => false,
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        let (open, close, entries): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => return out.push_str(n),
            Json::Str(s) => return write_str(out, s),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(members) => {
                let entries = members.iter().map(|(k, v)| (Some(k.as_str()), v));
                ('{', '}', entries.collect())
            }
        };
        let multiline = self.nests_object();
        out.push(open);
        for (i, (key, value)) in entries.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if multiline {
                let _ = write!(out, "\n{:1$}", "", indent + 2);
            } else if i > 0 {
                out.push(' ');
            }
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write(out, indent + 2);
        }
        if multiline {
            let _ = write!(out, "\n{:1$}", "", indent);
        }
        out.push(close);
    }

    /// Parses exactly one JSON value (surrounding whitespace allowed).
    /// `\u` escapes of UTF-16 surrogates are not supported.
    ///
    /// # Errors
    ///
    /// `"<field path>: <problem> (byte <offset>)"` for anything but one
    /// well-formed value: truncation, trailing data, a duplicate key, a
    /// malformed token. The path is dotted keys with `[i]` array indices
    /// (`flaky_link.phases[2].checksum`), or `top level` outside any
    /// member.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            src: text,
            pos: 0,
            path: Vec::new(),
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos < text.len() {
            return p.fail("trailing data after the value");
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, 0);
        f.write_str(&out)
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Recursive-descent parser state.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Keys and `[i]` indices from the top level down to the value
    /// being parsed, for error messages.
    path: Vec<String>,
}

impl Parser<'_> {
    /// An error at the current position, naming the field path.
    fn fail<T>(&self, msg: &str) -> Result<T, String> {
        let mut path = String::new();
        for seg in &self.path {
            if !path.is_empty() && !seg.starts_with('[') {
                path.push('.');
            }
            path.push_str(seg);
        }
        if path.is_empty() {
            path.push_str("top level");
        }
        Err(format!("{path}: {msg} (byte {})", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The error for finding `found` (`None`: the end of the input)
    /// where `wanted` belongs.
    fn unexpected<T>(&self, found: Option<u8>, wanted: &str) -> Result<T, String> {
        match found {
            Some(c) => self.fail(&format!("expected {wanted}, found {:?}", char::from(c))),
            None => self.fail(&format!(
                "unexpected end of input, expected {wanted} (truncated?)"
            )),
        }
    }

    /// Skips whitespace and consumes one of the `wanted` bytes,
    /// returning it.
    fn expect(&mut self, wanted: &[u8]) -> Result<u8, String> {
        self.skip_ws();
        match self.peek() {
            Some(c) if wanted.contains(&c) => {
                self.pos += 1;
                Ok(c)
            }
            found => {
                let names: Vec<String> = wanted
                    .iter()
                    .map(|&b| format!("{:?}", char::from(b)))
                    .collect();
                self.unexpected(found, &names.join(" or "))
            }
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        if self.path.len() > MAX_DEPTH {
            return self.fail("nested too deeply");
        }
        self.skip_ws();
        let rest = &self.src[self.pos..];
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => {
                self.pos += 1;
                self.string().map(Json::Str)
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b't' | b'f' | b'n') => {
                let words = [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ];
                match words.into_iter().find(|(word, _)| rest.starts_with(word)) {
                    Some((word, value)) => {
                        self.pos += word.len();
                        Ok(value)
                    }
                    None => self.fail("malformed literal"),
                }
            }
            found => self.unexpected(found, "a JSON value"),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.pos += 1;
        let mut members: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.eat(b"}") {
            return Ok(Json::Obj(members));
        }
        loop {
            self.expect(b"\"")?;
            let key = self.string()?;
            self.path.push(key.clone());
            if members.iter().any(|(k, _)| *k == key) {
                return self.fail("duplicate key");
            }
            self.expect(b":")?;
            let value = self.value()?;
            self.path.pop();
            members.push((key, value));
            if self.expect(b",}")? == b'}' {
                return Ok(Json::Obj(members));
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b"]") {
            return Ok(Json::Arr(items));
        }
        loop {
            self.path.push(format!("[{}]", items.len()));
            items.push(self.value()?);
            self.path.pop();
            if self.expect(b",]")? == b']' {
                return Ok(Json::Arr(items));
            }
        }
    }

    /// The rest of a string whose opening quote is consumed.
    fn string(&mut self) -> Result<String, String> {
        let mut out = String::new();
        loop {
            // The run of plain characters up to the next quote,
            // backslash or control character.
            let rest = &self.src[self.pos..];
            let run = rest.find(|c| c == '"' || c == '\\' || c < ' ');
            let run = run.unwrap_or(rest.len());
            out.push_str(&rest[..run]);
            self.pos += run;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.pos += 1,
                Some(_) => return self.fail("unescaped control character in string"),
                None => return self.unexpected(None, "'\"'"),
            }
            let escape = self.peek();
            self.pos += 1;
            out.push(match escape {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    let hex = self.src.get(self.pos..self.pos + 4).unwrap_or("");
                    let valid = hex.len() == 4 && hex.bytes().all(|b| b.is_ascii_hexdigit());
                    let code = u32::from_str_radix(hex, 16).ok().filter(|_| valid);
                    let Some(c) = code.and_then(char::from_u32) else {
                        return self.fail("malformed or surrogate \\u escape");
                    };
                    self.pos += 4;
                    c
                }
                found => return self.unexpected(found, "an escape character"),
            });
        }
    }

    /// A number token: `-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?`.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b"-");
        if !self.eat(b"0") {
            self.digits()?;
        }
        if self.eat(b".") {
            self.digits()?;
        }
        if self.eat(b"eE") {
            self.eat(b"+-");
            self.digits()?;
        }
        Ok(Json::Num(self.src[start..self.pos].to_owned()))
    }

    /// Consumes the next byte if it is one of `any`.
    fn eat(&mut self, any: &[u8]) -> bool {
        let hit = self.peek().is_some_and(|c| any.contains(&c));
        self.pos += usize::from(hit);
        hit
    }

    fn digits(&mut self) -> Result<(), String> {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return self.fail("malformed number, expected a digit");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_inlines_values_without_nested_objects_and_parses_back() {
        let v = Json::obj([
            ("schema", "demo/v1".into()),
            ("ratio", Json::fixed(0.125, 4)),
            ("none", Json::fixed(f64::NAN, 1)),
            ("flag", Json::Bool(true)),
            (
                "hist",
                Json::obj([("n", 1u64.into()), ("w", Json::arr([4u64, 2]))]),
            ),
            (
                "rows",
                Json::Arr(vec![Json::obj([("s", "a\t\"b\" \\ é".into())])]),
            ),
        ]);
        let text = v.render();
        let expected = r#"{
  "schema": "demo/v1",
  "ratio": 0.1250,
  "none": null,
  "flag": true,
  "hist": {"n": 1, "w": [4, 2]},
  "rows": [
    {"s": "a\u0009\"b\" \\ é"}
  ]
}
"#;
        assert_eq!(text, expected);
        assert_eq!(Json::parse(&text), Ok(v.clone()));
        assert_eq!(v.get("hist.w"), Some(&Json::arr([4u64, 2])));
        assert_eq!(v.get("hist.n.deeper"), None);
        let escapes = Json::parse(r#" ["\u00e9\/\b\f\n\r\t", -0.5e+3, false, {}, []] "#);
        let want = vec![
            "é/\u{8}\u{c}\n\r\t".into(),
            Json::Num("-0.5e+3".into()),
            Json::Bool(false),
            Json::Obj(vec![]),
            Json::Arr(vec![]),
        ];
        assert_eq!(escapes, Ok(Json::Arr(want)));
    }

    #[test]
    fn malformed_input_is_rejected_with_its_field_path() {
        let cases = [
            ("", "top level: unexpected end of input"),
            ("{\"a\": 1} x", "top level: trailing data"),
            (
                "{\"a\": {\"b\": [1, 2",
                "a.b: unexpected end of input, expected ',' or ']'",
            ),
            (
                "{\"a\": \"trunc",
                "a: unexpected end of input, expected '\"'",
            ),
            ("{\"a\": {\"b\": 1, \"b\": 2}}", "a.b: duplicate key"),
            (
                "{\"a\": [1, {\"c\": 01}]}",
                "a[1]: expected ',' or '}', found '1'",
            ),
            ("{\"a\": [1,]}", "a[1]: expected a JSON value, found ']'"),
            ("{\"a\": \"x\ny\"}", "a: unescaped control character"),
            (
                "{\"a\": \"\\q\"}",
                "a: expected an escape character, found 'q'",
            ),
            (
                "{\"a\": \"\\ud800\"}",
                "a: malformed or surrogate \\u escape",
            ),
            (
                "{\"a\": \"\\u+123\"}",
                "a: malformed or surrogate \\u escape",
            ),
            ("{\"a\": tru}", "a: malformed literal"),
            ("{\"a\": -}", "a: malformed number"),
            ("{\"a\": 1.}", "a: malformed number"),
            ("{a: 1}", "top level: expected '\"', found 'a'"),
            ("{\"a\" 1}", "a: expected ':', found '1'"),
            ("NaN", "top level: expected a JSON value, found 'N'"),
        ];
        for (input, want) in cases {
            let err = Json::parse(input).expect_err(input);
            assert!(
                err.starts_with(want),
                "{input:?}: got {err:?}, want {want:?}"
            );
        }
        let deep = "[".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep)
            .unwrap_err()
            .contains("nested too deeply"));
    }
}
