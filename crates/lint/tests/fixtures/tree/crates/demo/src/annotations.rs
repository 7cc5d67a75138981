//! Seeded `annotation-grammar` violations.

pub fn reasonless_allow(x: Option<u32>) -> u32 {
    x.unwrap() // lint: allow(no-unwrap-in-lib)
}

// lint: allot(typo-directive) -- close but not a directive
pub fn typoed_directive() {}

pub fn typoed_rule_name(x: Option<u32>) -> u32 {
    x.unwrap() // lint: allow(no-unwrap-in-lb) -- an unknown rule name suppresses nothing
}
