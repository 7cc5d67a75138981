//! Adversarial clean file: every banned name appears here — inside
//! string literals, raw strings, comments, and char/lifetime
//! positions — and none of it may produce a finding.

// A comment full of trouble: x.unwrap() panic!("no") Vec::new()
// format!("{}", 1) _ => QoeEvent::Dropped .collect() .to_string()

/* Block comment, /* nested */, still hiding: g = m.lock().unwrap();
   tx.send(v) while guard is live — text, not code. */

pub fn strings_are_not_code() -> usize {
    let a = "x.unwrap() and panic!(\"boom\") in a plain string";
    let b = r#"raw string: match e { QoeEvent::FlowOpened { .. } => 1, _ => 0 }"#;
    let c = r##"raw with hashes: "# not the end: .to_vec() "##;
    let d = b"byte string with .expect(\"x\") inside";
    a.len() + b.len() + c.len() + d.len()
}

pub fn chars_and_lifetimes<'a>(x: &'a [u8]) -> (char, &'a [u8]) {
    let quote = '"'; // a char literal that looks like a string start
    let escaped = '\''; // escaped quote char
    let brace = '{';
    let _ = (escaped, brace);
    (quote, x)
}

pub fn raw_identifiers() -> u32 {
    let r#fn = 1u32; // raw ident: must not confuse the fn scanner
    let r#match = 2u32;
    r#fn + r#match
}

// The next line is inside a string, so it must NOT parse as a
// (malformed) annotation:
pub const DOC: &str = "// lint: allow(no-such-rule)";
