//! Offline stand-in for `serde_json`: re-exports the shim `serde`'s value
//! tree, adds the `json!` constructor macro and a pretty printer. Only the
//! surface the bench harness uses is provided (`Value`, `Map`, `json!`,
//! [`to_string_pretty`]).

pub use serde::{Map, Value};

/// Error type kept for signature compatibility; serialization in the shim
/// cannot fail.
#[derive(Debug)]
pub struct Error;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serde_json shim error")
    }
}

impl std::error::Error for Error {}

/// Appends to a [`Value`] array being built by `json!` (kept out of the
/// macro body so expansions avoid the `vec_init_then_push` lint pattern).
#[doc(hidden)]
pub fn push_value(array: &mut Vec<Value>, value: Value) {
    array.push(value);
}

/// Converts any shim-serializable value into a [`Value`] tree.
pub fn to_value<T: serde::Serialize + ?Sized>(v: &T) -> Value {
    v.to_value()
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null"); // JSON has no NaN/inf; serde_json errors, we degrade
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_pretty(v: &Value, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let pad_in = "  ".repeat(indent + 1);
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => write_number(*n, out),
        Value::String(s) => write_escaped(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad_in);
                write_pretty(item, indent + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            let n = map.len();
            for (i, (k, val)) in map.iter().enumerate() {
                out.push_str(&pad_in);
                write_escaped(k, out);
                out.push_str(": ");
                write_pretty(val, indent + 1, out);
                if i + 1 < n {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push('}');
        }
    }
}

/// Pretty-prints a serializable value as JSON.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_pretty(&value.to_value(), 0, &mut out);
    Ok(out)
}

/// Builds a [`Value`] from JSON-ish syntax, mirroring `serde_json::json!`.
///
/// Values may be nested object/array literals, `null`, or arbitrary Rust
/// expressions implementing the shim `serde::Serialize`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($tt:tt)* ]) => {{
        #[allow(unused_mut)]
        let mut array = Vec::new();
        $crate::json_internal!(@array array $($tt)*);
        $crate::Value::Array(array)
    }};
    ({ $($tt:tt)* }) => {{
        #[allow(unused_mut)]
        let mut object = $crate::Map::new();
        $crate::json_internal!(@object object $($tt)*);
        $crate::Value::Object(object)
    }};
    ($other:expr) => { $crate::to_value(&$other) };
}

/// Token muncher behind [`json!`]; not part of the public API.
#[macro_export]
#[doc(hidden)]
macro_rules! json_internal {
    // ---- array elements ----
    (@array $v:ident) => {};
    (@array $v:ident ,) => {};
    (@array $v:ident null $(, $($rest:tt)*)?) => {
        $crate::push_value(&mut $v, $crate::Value::Null);
        $crate::json_internal!(@array $v $($($rest)*)?);
    };
    (@array $v:ident { $($o:tt)* } $(, $($rest:tt)*)?) => {
        $crate::push_value(&mut $v, $crate::json!({ $($o)* }));
        $crate::json_internal!(@array $v $($($rest)*)?);
    };
    (@array $v:ident [ $($a:tt)* ] $(, $($rest:tt)*)?) => {
        $crate::push_value(&mut $v, $crate::json!([ $($a)* ]));
        $crate::json_internal!(@array $v $($($rest)*)?);
    };
    (@array $v:ident $e:expr, $($rest:tt)*) => {
        $crate::push_value(&mut $v, $crate::to_value(&$e));
        $crate::json_internal!(@array $v $($rest)*);
    };
    (@array $v:ident $e:expr) => {
        $crate::push_value(&mut $v, $crate::to_value(&$e));
    };
    // ---- object entries ----
    (@object $m:ident) => {};
    (@object $m:ident ,) => {};
    (@object $m:ident $key:tt : null $(, $($rest:tt)*)?) => {
        $m.insert(($key).to_string(), $crate::Value::Null);
        $crate::json_internal!(@object $m $($($rest)*)?);
    };
    (@object $m:ident $key:tt : { $($o:tt)* } $(, $($rest:tt)*)?) => {
        $m.insert(($key).to_string(), $crate::json!({ $($o)* }));
        $crate::json_internal!(@object $m $($($rest)*)?);
    };
    (@object $m:ident $key:tt : [ $($a:tt)* ] $(, $($rest:tt)*)?) => {
        $m.insert(($key).to_string(), $crate::json!([ $($a)* ]));
        $crate::json_internal!(@object $m $($($rest)*)?);
    };
    (@object $m:ident $key:tt : $e:expr, $($rest:tt)*) => {
        $m.insert(($key).to_string(), $crate::to_value(&$e));
        $crate::json_internal!(@object $m $($rest)*);
    };
    (@object $m:ident $key:tt : $e:expr) => {
        $m.insert(($key).to_string(), $crate::to_value(&$e));
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_prints_nested() {
        let v = json!({"a": 1, "b": [1.5, true, "x"], "c": {"d": null}});
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains("\"a\": 1"));
        assert!(s.contains("\"b\": ["));
        assert!(s.contains("1.5"));
        assert!(s.contains("\"d\": null"));
    }

    #[test]
    fn exprs_embed_via_serialize() {
        let xs = vec![(1.0f64, 0.5f64)];
        let v = json!({ "cdf": xs });
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains('['));
    }

    #[test]
    fn integers_render_without_decimal() {
        let mut out = String::new();
        write_number(30.0, &mut out);
        assert_eq!(out, "30");
    }
}
