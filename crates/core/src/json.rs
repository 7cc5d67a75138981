//! The byte format of the JSON documents the product emits — the event
//! line ([`QoeEvent`](crate::api::QoeEvent)), the `"type":"stats"` line
//! ([`MonitorSnapshot`](crate::control::MonitorSnapshot)) and the alert
//! lines of [`AlertSink`](crate::sink::AlertSink) — written straight
//! into a caller-owned `String`. The string rule (program words only,
//! which need no escaping) and the number rule live here and nowhere
//! else in the crate.
//!
//! Every writer is typed and appends one complete JSON value. None
//! takes a `Display`: on a tap the event stream is mostly lifecycle and
//! reject lines, and a `fmt::Arguments` round trip per key, tag and
//! integer was most of what such a line cost. Two formatter calls
//! remain on the event path, each marked where it is made: a
//! non-integral `f64` (here, in [`float`]) and an IPv6 address
//! ([`FlowKey::write_text`](vcaml_netpkt::FlowKey::write_text)). Off
//! it, [`fixed`] formats the one reading an alert line carries.

use std::fmt::Write;
use vcaml_netpkt::FlowKey;

/// Whether `s` can stand inside a JSON string as it is: nothing to
/// escape in it (no quote, backslash or control character).
fn plain(s: &str) -> bool {
    !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20)
}

/// A quoted program word — a type tag, a reason tag, a method name — as
/// it is: no string the product writes needs escaping, so none is
/// scanned for it. Inlined, as [`Object::key`] is: every caller passes a
/// literal or a `&'static str` from a table, whose length the copy then
/// knows.
#[inline]
pub(crate) fn str(out: &mut String, s: &'static str) {
    debug_assert!(plain(s), "{s:?} needs escaping");
    out.push('"');
    out.push_str(s);
    out.push('"');
}

/// `00` to `99`: [`uint`] emits two digits per division.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// An unsigned integer, exact at any magnitude: digits into a stack
/// buffer from the low end, two at a time, then one copy.
pub(crate) fn uint(out: &mut String, n: u64) {
    digits(out, n, false);
}

/// A signed integer, exact at any magnitude.
pub(crate) fn int(out: &mut String, n: i64) {
    digits(out, n.unsigned_abs(), n < 0);
}

fn digits(out: &mut String, magnitude: u64, negative: bool) {
    // A sign and the 20 digits of `u64::MAX` (`i64::MIN` needs 19).
    let mut buf = [0u8; 21];
    let mut at = buf.len();
    let mut rest = magnitude;
    while rest >= 100 {
        let pair = (rest % 100) as usize * 2;
        rest /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    // The leading one or two digits. (Always writing a pair and
    // skipping its zero is shorter and read 3-4 % slower per event:
    // most numbers in a line are small.)
    if rest >= 10 {
        let pair = rest as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + rest as u8;
    }
    if negative {
        at -= 1;
        buf[at] = b'-';
    }
    // ASCII by construction, so the check cannot fail.
    out.push_str(std::str::from_utf8(&buf[at..]).unwrap_or_default());
}

/// `true` or `false`.
pub(crate) fn bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

/// A number from an `f64`: non-finite values are `null` (JSON has no
/// NaN or infinity), integral ones below 9e15 in magnitude print as
/// integers (`30`, and `-0.0` as `0`), the rest as `f64`'s shortest
/// round-trip `Display`.
pub(crate) fn float(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 9.0e15 {
        int(out, x as i64);
    } else {
        // The formatter stays here: the digits of the shortest form
        // that reads back as the same `f64` are pinned output, and
        // std's implementation is the one that produced them. Writing
        // into a `String` cannot fail.
        let _ = write!(out, "{x}");
    }
}

/// A reading shown to a fixed number of decimals (`29.5`, `812`) — the
/// alert lines' form for the value that tripped a bar. `null` when
/// non-finite, like every number here.
pub(crate) fn fixed(out: &mut String, x: f64, decimals: usize) {
    if x.is_finite() {
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{x:.decimals$}");
    } else {
        out.push_str("null");
    }
}

/// A flow as a string: the key's text form
/// ([`FlowKey::write_text`]), which has nothing in it to escape.
pub(crate) fn flow(out: &mut String, flow: &FlowKey) {
    out.push('"');
    // Writing into a `String` cannot fail.
    let _ = flow.write_text(out);
    out.push('"');
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

/// An object being written: [`Object::key`] (or [`Object::flow_key`])
/// per member, in order, then [`Object::end`].
pub(crate) struct Object<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> Object<'a> {
    pub(crate) fn begin(out: &'a mut String) -> Self {
        out.push('{');
        Object { out, empty: true }
    }

    fn separate(&mut self) {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
    }

    /// Writes `"key":` and hands back the buffer for the member's value.
    /// Keys are the program's own words — field names, reason tags,
    /// method slugs — and are pushed as they are, with no escape scan.
    #[inline]
    pub(crate) fn key(&mut self, key: &'static str) -> &mut String {
        debug_assert!(plain(key), "{key:?} needs escaping");
        self.separate();
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }

    /// [`Object::key`] for a member named after a flow.
    pub(crate) fn flow_key(&mut self, key: &FlowKey) -> &mut String {
        self.separate();
        flow(self.out, key);
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

    #[test]
    fn integers_match_the_formatter_at_every_digit_count() {
        let mut cases = vec![0u64, 9, 10, 99, 100, u64::MAX];
        let mut power = 1u64;
        for _ in 1..20 {
            power *= 10;
            cases.extend([power - 1, power, power + 1]);
        }
        for n in cases {
            let mut text = String::new();
            uint(&mut text, n);
            assert_eq!(text, n.to_string());
            for signed in [n as i64, (n as i64).wrapping_neg(), i64::MIN, i64::MAX] {
                text.clear();
                int(&mut text, signed);
                assert_eq!(text, signed.to_string());
            }
        }
    }

    #[test]
    fn method_names_are_the_debug_names() {
        for m in crate::engine::Method::ALL {
            assert_eq!(m.variant_name(), format!("{m:?}"));
        }
    }

    #[test]
    fn keys_and_values_compose_into_an_object() {
        let mut text = String::new();
        let mut o = Object::begin(&mut text);
        bool(o.key("yes"), true);
        bool(o.key("no"), false);
        fixed(o.key("one_decimal"), 29.96, 1);
        fixed(o.key("no_decimals"), 811.5, 0);
        fixed(o.key("not_a_number"), f64::NAN, 1);
        o.end();
        assert_eq!(
            text,
            r#"{"yes":true,"no":false,"one_decimal":30.0,"no_decimals":812,"not_a_number":null}"#
        );
    }
}
