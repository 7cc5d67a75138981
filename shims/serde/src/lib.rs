//! Offline stand-in for the `serde` crate.
//!
//! The build container has no access to crates.io, so this shim provides
//! exactly the surface the bench harness (`crates/bench`, its only user)
//! needs to print its JSON artifacts:
//!
//! * The [`Serialize`] trait, implemented for the primitives, strings,
//!   tuples, vectors, options, and maps that flow into
//!   `serde_json::to_string_pretty`.
//! * The [`Value`] tree itself, which the `serde_json` shim re-exports.
//!
//! There are no derive macros and nothing deserializes: the product's
//! own JSON (event and stats lines) is written directly by `vcaml`.

/// A JSON document tree (the `serde_json::Value` this workspace sees).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Any JSON number (stored as `f64`, like `serde_json`'s lossy view).
    Number(f64),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object with insertion-ordered keys.
    Object(Map),
}

/// An insertion-ordered string-keyed map (mirrors `serde_json::Map`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// Creates an empty map.
    pub fn new() -> Self {
        Map {
            entries: Vec::new(),
        }
    }

    /// Inserts a key/value pair, replacing any previous value for the key.
    /// Takes `String` (not `impl Into<String>`) to match `serde_json::Map`,
    /// which call sites rely on for `.into()` inference.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            return Some(std::mem::replace(&mut slot.1, value));
        }
        self.entries.push((key, value));
        None
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &(String, Value)> {
        self.entries.iter()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The value-producing serialization trait this shim exposes.
///
/// Real serde drives a `Serializer`; here every serializable type simply
/// renders itself to a [`Value`] and the `serde_json` shim pretty-prints
/// that tree.
pub trait Serialize {
    /// Converts `self` into a JSON value tree.
    fn to_value(&self) -> Value;
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Serialize for Map {
    fn to_value(&self) -> Value {
        Value::Object(self.clone())
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

macro_rules! impl_serialize_num {
    ($($t:ty),*) => {
        $(impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(*self as f64)
            }
        })*
    };
}
impl_serialize_num!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize, f32, f64);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
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

impl<V: Serialize> Serialize for std::collections::HashMap<String, V> {
    fn to_value(&self) -> Value {
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort();
        let mut m = Map::new();
        for k in keys {
            m.insert(k.clone(), self[k].to_value());
        }
        Value::Object(m)
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        for (k, v) in self {
            m.insert(k.clone(), v.to_value());
        }
        Value::Object(m)
    }
}

macro_rules! impl_value_from_num {
    ($($t:ty),*) => {
        $(impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Number(v as f64)
            }
        })*
    };
}
impl_value_from_num!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize, f32, f64);

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_insert_replaces() {
        let mut m = Map::new();
        assert!(m.insert("a".into(), Value::Number(1.0)).is_none());
        assert_eq!(
            m.insert("a".into(), Value::Number(2.0)),
            Some(Value::Number(1.0))
        );
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn tuples_serialize_as_arrays() {
        let v = (1.0f64, 2.0f64).to_value();
        assert_eq!(
            v,
            Value::Array(vec![Value::Number(1.0), Value::Number(2.0)])
        );
    }
}
