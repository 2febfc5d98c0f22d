//! Offline stand-in for the `serde` crate (see `shims/README.md`).
//!
//! Serialization here is a single-step conversion to a JSON-shaped
//! [`Value`] tree (rendered by the `serde_json` shim), rather than serde's
//! visitor architecture — all the workspace needs is `to_string` /
//! `to_string_pretty` over derived types.
//!
//! `derive(Serialize)` follows serde's data model for the shapes the
//! workspace uses: named-field structs become objects, newtype structs
//! serialize as their inner value, unit enum variants as strings, data
//! variants as externally-tagged single-key objects, and
//! `#[serde(untagged)]` variants as their bare contents.

pub use serde_derive::Serialize;

use std::collections::{BTreeMap, HashMap};

/// A JSON-shaped value tree — the output of [`Serialize::to_value`].
///
/// Object fields keep declaration order (a `Vec`, not a map), so rendered
/// JSON is deterministic and matches the struct definition.
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
    /// Render this value as a JSON object key (map keys must be strings).
    pub fn as_key(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            Value::Int(i) => i.to_string(),
            Value::UInt(u) => u.to_string(),
            Value::Bool(b) => b.to_string(),
            other => panic!("unsupported map key type: {other:?}"),
        }
    }

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

/// A type that can convert itself into a [`Value`] tree.
pub trait Serialize {
    /// Convert to a [`Value`].
    fn to_value(&self) -> Value;
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::UInt(*self as u64) }
        }
    )*};
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::Int(*self as i64) }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64, usize);
impl_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(*self as f64)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl Serialize for std::path::PathBuf {
    fn to_value(&self) -> Value {
        Value::Str(self.display().to_string())
    }
}

impl Serialize for std::path::Path {
    fn to_value(&self) -> Value {
        Value::Str(self.display().to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Array(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}

impl<A: Serialize, B: Serialize, C: Serialize, D: Serialize> Serialize for (A, B, C, D) {
    fn to_value(&self) -> Value {
        Value::Array(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
            self.3.to_value(),
        ])
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_value().as_key(), v.to_value()))
                .collect(),
        )
    }
}

impl<K: Serialize, V: Serialize> Serialize for HashMap<K, V> {
    fn to_value(&self) -> Value {
        // Deterministic output: sort by rendered key.
        let mut fields: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.to_value().as_key(), v.to_value()))
            .collect();
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(fields)
    }
}
