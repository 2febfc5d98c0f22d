//! Offline stand-in for the `serde` crate (see `shims/README.md`).
//!
//! Serialization here writes JSON straight into a [`Writer`], rather than
//! going through serde's `Serializer` visitor architecture — all the
//! workspace needs is `serde_json`'s `to_string` / `to_string_pretty` over
//! derived types. No serialise call builds an intermediate tree.
//!
//! `derive(Serialize)` follows serde's data model for the shapes the
//! workspace uses: named-field structs become objects, newtype structs
//! serialize as their inner value, unit enum variants as strings, data
//! variants as externally-tagged single-key objects, and
//! `#[serde(untagged)]` variants as their bare contents.

pub use serde_derive::Serialize;

use std::collections::BTreeMap;
use std::io::Write as _;

/// A JSON-shaped value tree — what `serde_json::from_str` parses into.
///
/// Object fields keep their order (a `Vec`, not a map), so rendered JSON
/// is deterministic and matches the order the fields were given in.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Floating point.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with ordered fields.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Look up a field of an object (`None` for other variants or missing
    /// keys) — mirrors real serde_json's `Value::get`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string inside [`Value::Str`], if that is what this is.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `u64`, if it is an unsigned or non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => Some(*u),
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }
}

/// `DIGIT_PAIRS[n]` is `n` (0–99) as two ASCII digits.
const DIGIT_PAIRS: [[u8; 2]; 100] = {
    let mut pairs = [[0u8; 2]; 100];
    let mut n = 0;
    while n < 100 {
        pairs[n] = [b'0' + (n / 10) as u8, b'0' + (n % 10) as u8];
        n += 1;
    }
    pairs
};

/// A type that can write itself as JSON.
pub trait Serialize {
    /// Write `self` as one JSON value.
    fn serialize(&self, w: &mut Writer);
}

/// The JSON output every [`Serialize`] impl writes into: compact, or
/// pretty with one `indent` per nesting level (serde_json's layout).
///
/// A container is written as `begin_*`, its members, then `end_*`: an
/// object member is a [`key`](Self::key) followed by its value (or one
/// [`field`](Self::field) call), an array member one [`item`](Self::item).
/// The writer places commas, newlines and indentation, and an empty
/// container renders as `{}` / `[]` in either layout.
pub struct Writer {
    /// Always UTF-8: only `&str` contents and ASCII are ever appended.
    out: Vec<u8>,
    indent: Option<&'static str>,
    depth: usize,
    /// Whether the innermost open container has no member yet.
    empty: bool,
}

impl Writer {
    /// An empty writer: compact output for `None`, else pretty output
    /// indented by `indent` per level.
    pub fn new(indent: Option<&'static str>) -> Self {
        Writer {
            out: Vec::new(),
            indent,
            depth: 0,
            empty: false,
        }
    }

    /// The JSON written so far.
    pub fn into_string(self) -> String {
        String::from_utf8(self.out).expect("the writer appends only UTF-8")
    }

    /// Write `null`.
    pub fn null(&mut self) {
        self.raw("null");
    }

    /// Write `true` or `false`.
    pub fn bool(&mut self, v: bool) {
        self.raw(if v { "true" } else { "false" });
    }

    /// Write an unsigned integer. Digits are produced two at a time into a
    /// stack buffer rather than through `core::fmt`, whose per-call set-up
    /// dominates for the short numbers configs are made of.
    pub fn u64(&mut self, mut v: u64) {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        while v >= 100 {
            start -= 2;
            digits[start..start + 2].copy_from_slice(&DIGIT_PAIRS[(v % 100) as usize]);
            v /= 100;
        }
        if v >= 10 {
            start -= 2;
            digits[start..start + 2].copy_from_slice(&DIGIT_PAIRS[v as usize]);
        } else {
            start -= 1;
            digits[start] = b'0' + v as u8;
        }
        self.out.extend_from_slice(&digits[start..]);
    }

    /// Write a signed integer.
    pub fn i64(&mut self, v: i64) {
        if v < 0 {
            self.out.push(b'-');
        }
        self.u64(v.unsigned_abs());
    }

    /// Write a float: integral values below 1e16 keep a `.0` suffix (as
    /// serde_json/ryu does), others print in shortest round-trip form.
    /// Real serde_json errors on non-finite floats; writing `null` keeps
    /// diagnostics flowing in a simulation report instead of aborting it.
    pub fn f64(&mut self, v: f64) {
        if !v.is_finite() {
            self.null();
        } else if v == v.trunc() && v.abs() < 1e16 {
            // Exact in a u64; the sign is written apart so -0.0 keeps it.
            if v.is_sign_negative() {
                self.out.push(b'-');
            }
            self.u64(v.abs() as u64);
            self.raw(".0");
        } else {
            let _ = write!(self.out, "{v}");
        }
    }

    /// Write a quoted, escaped string. Runs of bytes that need no escape
    /// are copied whole; `"`, `\` and control characters are escaped.
    pub fn str(&mut self, s: &str) {
        self.out.push(b'"');
        let bytes = s.as_bytes();
        let mut clean = 0;
        while let Some(n) = bytes[clean..]
            .iter()
            .position(|&b| b < 0x20 || b == b'"' || b == b'\\')
        {
            let i = clean + n;
            // Escaped bytes are ASCII, so `clean..i` lies on char boundaries.
            self.raw(&s[clean..i]);
            let escape = match bytes[i] {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0x08 => "\\b",
                0x0C => "\\f",
                _ => "",
            };
            if escape.is_empty() {
                let _ = write!(self.out, "\\u{:04x}", bytes[i]);
            } else {
                self.raw(escape);
            }
            clean = i + 1;
        }
        self.raw(&s[clean..]);
        self.out.push(b'"');
    }

    /// Open an object.
    pub fn begin_object(&mut self) {
        self.open(b'{');
    }

    /// Close the innermost object.
    pub fn end_object(&mut self) {
        self.close(b'}');
    }

    /// Open an array.
    pub fn begin_array(&mut self) {
        self.open(b'[');
    }

    /// Close the innermost array.
    pub fn end_array(&mut self) {
        self.close(b']');
    }

    /// Start the next object member: separator, indentation and the key.
    /// `name` is a Rust identifier (a derived field or variant name), so it
    /// is copied without an escape scan; map keys go through the scan.
    pub fn key(&mut self, name: &'static str) {
        debug_assert!(
            name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_'),
            "`{name}` is not an identifier"
        );
        self.element();
        self.out.push(b'"');
        self.raw(name);
        self.out.push(b'"');
        self.colon();
    }

    /// Start the next object member under a map key: strings as they are,
    /// integers and booleans quoted (JSON object keys are strings).
    fn map_key<K: Serialize + ?Sized>(&mut self, key: &K) {
        self.element();
        let start = self.out.len();
        key.serialize(self);
        if self.out[start] != b'"' {
            self.out.insert(start, b'"');
            self.out.push(b'"');
        }
        self.colon();
    }

    /// One object member: [`key`](Self::key) then the value.
    pub fn field<T: Serialize + ?Sized>(&mut self, name: &'static str, value: &T) {
        self.key(name);
        value.serialize(self);
    }

    /// Start the next member: separator and indentation.
    fn element(&mut self) {
        if !self.empty {
            self.out.push(b',');
        }
        self.empty = false;
        self.newline(self.depth);
    }

    /// One array element.
    pub fn item<T: Serialize + ?Sized>(&mut self, value: &T) {
        self.element();
        value.serialize(self);
    }

    fn open(&mut self, bracket: u8) {
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    fn close(&mut self, bracket: u8) {
        self.depth -= 1;
        if !self.empty {
            self.newline(self.depth);
        }
        self.out.push(bracket);
        // The closed container was a member of the one around it.
        self.empty = false;
    }

    fn colon(&mut self) {
        self.raw(if self.indent.is_some() { ": " } else { ":" });
    }

    fn raw(&mut self, s: &str) {
        self.out.extend_from_slice(s.as_bytes());
    }

    fn newline(&mut self, depth: usize) {
        if let Some(pad) = self.indent {
            self.out.push(b'\n');
            for _ in 0..depth {
                self.raw(pad);
            }
        }
    }
}

impl Serialize for Value {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Int(i) => w.i64(*i),
            Value::UInt(u) => w.u64(*u),
            Value::Float(f) => w.f64(*f),
            Value::Str(s) => w.str(s),
            Value::Array(items) => items.serialize(w),
            Value::Object(fields) => {
                w.begin_object();
                for (key, value) in fields {
                    w.map_key(key);
                    value.serialize(w);
                }
                w.end_object();
            }
        }
    }
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) { w.u64(*self as u64) }
        }
    )*};
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) { w.i64(*self as i64) }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64, usize);
impl_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self, w: &mut Writer) {
        w.f64(*self)
    }
}

impl Serialize for bool {
    fn serialize(&self, w: &mut Writer) {
        w.bool(*self)
    }
}

impl Serialize for String {
    fn serialize(&self, w: &mut Writer) {
        w.str(self)
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut Writer) {
        w.str(self)
    }
}

impl Serialize for std::path::PathBuf {
    fn serialize(&self, w: &mut Writer) {
        w.str(&self.display().to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w)
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Some(v) => v.serialize(w),
            None => w.null(),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, w: &mut Writer) {
        w.begin_array();
        for item in self {
            w.item(item);
        }
        w.end_array();
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut Writer) {
        self.as_slice().serialize(w)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, w: &mut Writer) {
        self.as_slice().serialize(w)
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize(&self, w: &mut Writer) {
        w.begin_array();
        w.item(&self.0);
        w.item(&self.1);
        w.end_array();
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, w: &mut Writer) {
        w.begin_object();
        for (key, value) in self {
            w.map_key(key);
            value.serialize(w);
        }
        w.end_object();
    }
}
