//! The byte format of the two JSON documents the product emits — the
//! event line ([`QoeEvent`](crate::api::QoeEvent)) and the
//! `"type":"stats"` line
//! ([`MonitorSnapshot`](crate::control::MonitorSnapshot)) — written
//! straight into a caller-owned `String`. The string-escaping rule and
//! the number rule live here and nowhere else in the crate.
//!
//! Every writer appends one complete JSON value. Writing into a
//! `String` cannot fail, so `fmt::Result`s are dropped.

use std::fmt::{self, Write};

/// Escapes what passes through it as the inside of a JSON string, so a
/// `Display` type can be written without an intermediate `String`.
struct Escaped<'a>(&'a mut String);

impl Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let mut rest = s;
        // Every byte that needs escaping is ASCII, so the cuts below
        // fall on `char` boundaries.
        while let Some(i) = rest
            .bytes()
            .position(|b| b == b'"' || b == b'\\' || b < 0x20)
        {
            self.0.push_str(&rest[..i]);
            match rest.as_bytes()[i] {
                b'"' => self.0.push_str("\\\""),
                b'\\' => self.0.push_str("\\\\"),
                b'\n' => self.0.push_str("\\n"),
                b'\r' => self.0.push_str("\\r"),
                b'\t' => self.0.push_str("\\t"),
                b => write!(self.0, "\\u{b:04x}")?,
            }
            rest = &rest[i + 1..];
        }
        self.0.push_str(rest);
        Ok(())
    }
}

/// A quoted, escaped string: `"` `\` `\n` `\r` `\t` by name, any other
/// control below 0x20 as `\u00XX`, everything else as is.
pub(crate) fn string(out: &mut String, s: impl fmt::Display) {
    out.push('"');
    let _ = write!(Escaped(out), "{s}");
    out.push('"');
}

/// A number from an `f64`: non-finite values are `null` (JSON has no
/// NaN or infinity), integral ones below 9e15 in magnitude print as
/// integers (`30`, and `-0.0` as `0`), the rest as `f64`'s shortest
/// round-trip `Display`.
pub(crate) fn float(out: &mut String, x: f64) {
    let _ = if !x.is_finite() {
        out.write_str("null")
    } else if x == x.trunc() && x.abs() < 9.0e15 {
        write!(out, "{}", x as i64)
    } else {
        write!(out, "{x}")
    };
}

/// An integer or a `bool`: their `Display` form is their JSON form, so
/// integers are exact at any magnitude.
pub(crate) fn plain(out: &mut String, v: impl fmt::Display) {
    let _ = write!(out, "{v}");
}

/// `null` for `None`, otherwise whatever `some` writes.
pub(crate) fn opt<T>(out: &mut String, value: Option<T>, some: impl FnOnce(&mut String, T)) {
    match value {
        Some(v) => some(out, v),
        None => out.push_str("null"),
    }
}

/// An array with one value per item, written by `each`.
pub(crate) fn array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut each: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(out, item);
    }
    out.push(']');
}

/// An object being written: [`Object::key`] per member, in order, then
/// [`Object::end`].
pub(crate) struct Object<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> Object<'a> {
    pub(crate) fn begin(out: &'a mut String) -> Self {
        out.push('{');
        Object { out, empty: true }
    }

    /// Writes `"key":` and hands back the buffer for the member's value.
    pub(crate) fn key(&mut self, key: impl fmt::Display) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        string(self.out, key);
        self.out.push(':');
        self.out
    }

    pub(crate) fn end(self) {
        self.out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inverse of [`string`] for what it can emit.
    fn unescape(quoted: &str) -> String {
        let mut out = String::new();
        let mut chars = quoted[1..quoted.len() - 1].chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            out.push(match chars.next().expect("escape") {
                'n' => '\n',
                'r' => '\r',
                't' => '\t',
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    char::from_u32(u32::from_str_radix(&hex, 16).expect("hex")).expect("char")
                }
                literal => literal,
            });
        }
        out
    }

    #[test]
    fn every_ascii_char_survives_escaping() {
        let all: String = ('\0'..='\u{7f}')
            .chain("é→𝄞\u{80}\u{2028}".chars())
            .collect();
        let singles = all.chars().map(String::from);
        for text in singles.chain([all.clone(), String::new()]) {
            let mut quoted = String::new();
            string(&mut quoted, &text);
            assert_eq!(unescape(&quoted), text, "{quoted}");
            let mut inner = quoted[1..quoted.len() - 1].chars();
            while let Some(c) = inner.next() {
                assert!(c != '"' && c >= ' ', "raw {c:?} in {quoted}");
                if c == '\\' {
                    inner.next();
                }
            }
        }
    }
}
