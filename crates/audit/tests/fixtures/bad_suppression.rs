// Fixture: suppressions must carry reasons and name known rules.
pub fn a() -> u64 {
    // jade-audit: allow(nondet-time)
    0
}

pub fn b() -> u64 {
    // jade-audit: allow(made-up-rule): some reason
    0
}

pub fn c() -> u64 {
    // jade-audit: frobnicate
    0
}

// jade-audit: hot
pub fn d() -> u64 {
    0
}
