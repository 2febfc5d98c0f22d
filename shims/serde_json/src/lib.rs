//! Offline stand-in for `serde_json` (see `shims/README.md`).
//!
//! Serializes through the `serde` shim's one [`Writer`] — compact
//! (`to_string`) or pretty with 2-space indentation (`to_string_pretty`,
//! matching real serde_json's layout) — and parses JSON text into a
//! [`Value`] tree (`from_str`), which the test suite uses to inspect and
//! validate output.

pub use serde::Value;
use serde::{Serialize, Writer};

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Result alias mirroring `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serialize `value` as a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut w = Writer::new(None);
    value.serialize(&mut w);
    Ok(w.into_string())
}

/// Serialize `value` as pretty-printed JSON (2-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut w = Writer::new(Some("  "));
    value.serialize(&mut w);
    Ok(w.into_string())
}

/// Convert `value` into a [`Value`] tree by parsing its JSON.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    from_str(&to_string(value)?)
}

/// Parse JSON text into a [`Value`] tree.
pub fn from_str(input: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at offset {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
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

    fn eat(&mut self, tok: &str) -> Result<()> {
        if self.bytes[self.pos..].starts_with(tok.as_bytes()) {
            self.pos += tok.len();
            Ok(())
        } else {
            Err(Error(format!("expected `{tok}` at offset {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') => self.eat("null").map(|_| Value::Null),
            Some(b't') => self.eat("true").map(|_| Value::Bool(true)),
            Some(b'f') => self.eat("false").map(|_| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error(format!(
                "unexpected {other:?} at offset {}",
                self.pos
            ))),
        }
    }

    fn string(&mut self) -> Result<String> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            let c = self
                .peek()
                .ok_or_else(|| Error("unterminated string".into()))?;
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or_else(|| Error("bad escape".into()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error("bad \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| Error(e.to_string()))?,
                                16,
                            )
                            .map_err(|e| Error(e.to_string()))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("bad \\u code point".into()))?,
                            );
                        }
                        other => return Err(Error(format!("bad escape \\{}", other as char))),
                    }
                }
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Multi-byte UTF-8: re-decode from the byte stream.
                    let start = self.pos - 1;
                    let s = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|e| Error(e.to_string()))?;
                    let ch = s.chars().next().unwrap();
                    self.pos = start + ch.len_utf8();
                    out.push(ch);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        let int = match (float, text.starts_with('-')) {
            (true, _) => None,
            (false, true) => text.parse::<i64>().ok().map(Value::Int),
            (false, false) => text.parse::<u64>().ok().map(Value::UInt),
        };
        // An integral float of 1e16 or more is written without a fraction;
        // past the integer range it still parses, as a float.
        match int {
            Some(v) => Ok(v),
            None => text
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|e| Error(e.to_string())),
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.eat("[")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => return Err(Error(format!("bad array at {:?}", other))),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.eat("{")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(":")?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => return Err(Error(format!("bad object at {:?}", other))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn compact_rendering_matches_serde_json_layout() {
        let v = Value::Object(vec![
            ("id".into(), Value::Str("FIG2".into())),
            ("rate".into(), Value::Float(5.0)),
            ("conns".into(), Value::UInt(20)),
            (
                "checks".into(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
        ]);
        assert_eq!(
            to_string(&v).unwrap(),
            r#"{"id":"FIG2","rate":5.0,"conns":20,"checks":[true,null]}"#
        );
    }

    #[test]
    fn pretty_rendering_indents_two_spaces() {
        let v = Value::Object(vec![
            ("a".into(), Value::Array(vec![Value::UInt(1)])),
            ("e".into(), Value::Array(vec![])),
        ]);
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            "{\n  \"a\": [\n    1\n  ],\n  \"e\": []\n}"
        );
    }

    #[test]
    fn parse_round_trip() {
        let text =
            r#"{"id":"FIG2","rate":5.5,"n":-3,"ok":true,"xs":[1,2.5,"a\nb"],"nothing":null}"#;
        let v = from_str(text).unwrap();
        assert_eq!(to_string(&v).unwrap(), text);
    }

    #[test]
    fn integers_render_like_display() {
        for v in [0, 7, 10, 99, 100, 101, 999, 1_000, 576_000_000, u64::MAX] {
            assert_eq!(to_string(&v).unwrap(), v.to_string());
        }
        for v in [-1i64, -10, -100, i64::MIN, i64::MAX] {
            assert_eq!(to_string(&v).unwrap(), v.to_string());
        }
    }

    #[test]
    fn float_formatting() {
        let render = |v: f64| to_string(&v).unwrap();
        assert_eq!(render(5.0), "5.0");
        assert_eq!(render(-0.0), "-0.0");
        assert_eq!(render(0.1), "0.1");
        assert_eq!(render(1e16), "10000000000000000");
        assert_eq!(render(f64::NAN), "null");
        assert_eq!(render(f64::NEG_INFINITY), "null");
        // Past the integer range an integral float still parses back.
        assert_eq!(from_str(&render(1e20)).unwrap(), Value::Float(1e20));
    }

    #[test]
    fn string_escapes() {
        let s = "a\"b\\c\nd\re\tf\u{08}g\u{0C}h\u{01}é→";
        let out = to_string(s).unwrap();
        assert_eq!(out, r#""a\"b\\c\nd\re\tf\bg\fh\u0001é→""#);
        assert_eq!(from_str(&out).unwrap(), Value::Str(s.into()));
        assert_eq!(to_string("").unwrap(), r#""""#);
        assert_eq!(to_string("clean").unwrap(), r#""clean""#);
    }

    #[test]
    fn control_characters_are_written_as_u00xx() {
        let named = [b'\n', b'\r', b'\t', 0x08, 0x0C];
        for b in (0u8..0x20).filter(|b| !named.contains(b)) {
            let s = format!("x{}y", b as char);
            let out = to_string(&s).unwrap();
            assert_eq!(out, format!("\"x\\u{b:04x}y\""));
            assert_eq!(from_str(&out).unwrap(), Value::Str(s));
        }
        // DEL is not a control character in JSON's sense.
        assert_eq!(to_string("\u{7f}").unwrap(), "\"\u{7f}\"");
    }

    fn is_zero(v: &u32) -> bool {
        *v == 0
    }

    #[derive(serde::Serialize)]
    struct AllSkipped {
        #[serde(skip_serializing)]
        _hidden: u32,
        #[serde(skip_serializing_if = "is_zero")]
        zero: u32,
        #[serde(skip_serializing_if = "Option::is_none")]
        none: Option<u32>,
    }

    #[test]
    fn an_object_whose_every_field_is_skipped_renders_empty_braces() {
        let v = AllSkipped {
            _hidden: 7,
            zero: 0,
            none: None,
        };
        assert_eq!(to_string(&v).unwrap(), "{}");
        assert_eq!(to_string_pretty(&v).unwrap(), "{}");
        assert_eq!(to_string_pretty(&[&v]).unwrap(), "[\n  {}\n]");
        let shown = AllSkipped {
            _hidden: 7,
            zero: 1,
            none: Some(2),
        };
        assert_eq!(to_string(&shown).unwrap(), r#"{"zero":1,"none":2}"#);
    }

    #[derive(serde::Serialize)]
    struct Named {
        id: &'static str,
        rate: f64,
        n: i32,
    }

    #[derive(serde::Serialize)]
    struct Newtype(u64);

    #[derive(serde::Serialize)]
    struct Pair(u8, bool);

    #[derive(serde::Serialize)]
    struct Unit;

    #[derive(serde::Serialize)]
    enum Tagged {
        Plain,
        One(u32),
        Two(u32, &'static str),
        Fields { a: u32, b: Option<u32> },
    }

    #[derive(serde::Serialize)]
    #[serde(untagged)]
    enum Untagged {
        Nothing,
        Num(f64),
        Two(u32, u32),
        Fields { a: u32 },
    }

    #[test]
    fn derived_shapes_render_like_serde_json() {
        let named = Named {
            id: "x",
            rate: 2.0,
            n: -4,
        };
        assert_eq!(
            to_string(&named).unwrap(),
            r#"{"id":"x","rate":2.0,"n":-4}"#
        );
        assert_eq!(to_string(&Newtype(9)).unwrap(), "9");
        assert_eq!(to_string(&Pair(1, true)).unwrap(), "[1,true]");
        assert_eq!(to_string(&Unit).unwrap(), "null");
        let tagged = [
            Tagged::Plain,
            Tagged::One(1),
            Tagged::Two(2, "t"),
            Tagged::Fields { a: 3, b: None },
        ];
        assert_eq!(
            to_string(&tagged).unwrap(),
            r#"["Plain",{"One":1},{"Two":[2,"t"]},{"Fields":{"a":3,"b":null}}]"#
        );
        assert_eq!(
            to_string_pretty(&tagged[2]).unwrap(),
            "{\n  \"Two\": [\n    2,\n    \"t\"\n  ]\n}"
        );
        let untagged = [
            Untagged::Nothing,
            Untagged::Num(0.5),
            Untagged::Two(1, 2),
            Untagged::Fields { a: 4 },
        ];
        assert_eq!(to_string(&untagged).unwrap(), r#"[null,0.5,[1,2],{"a":4}]"#);
    }

    #[test]
    fn map_keys_are_strings() {
        let ints: BTreeMap<u32, u64> = [(2, 20), (10, 100)].into();
        assert_eq!(to_string(&ints).unwrap(), r#"{"2":20,"10":100}"#);
        let strs: BTreeMap<&str, u64> = [("a\"b", 1)].into();
        assert_eq!(to_string_pretty(&strs).unwrap(), "{\n  \"a\\\"b\": 1\n}");
        assert_eq!(to_string(&BTreeMap::<u32, u32>::new()).unwrap(), "{}");
        let tree = Value::Object(vec![("k\n".into(), Value::Null)]);
        assert_eq!(to_string(&tree).unwrap(), r#"{"k\n":null}"#);
    }

    #[test]
    fn to_value_parses_the_rendered_json() {
        let v = to_value(&Tagged::Fields { a: 3, b: Some(4) }).unwrap();
        let inner = v.get("Fields").expect("externally tagged");
        assert_eq!(inner.get("b").and_then(Value::as_u64), Some(4));
    }
}
