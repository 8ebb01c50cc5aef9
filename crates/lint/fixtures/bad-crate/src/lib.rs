//! Seeded violations for the `slm-lint` golden tests — exactly one per
//! rule, at positions the tests pin down to line and column.

use std::time::Instant;

pub fn unwrap_site(v: Option<u32>) -> u32 {
    v.unwrap()
}

pub fn expect_site(v: Option<u32>) -> u32 {
    v.expect("seeded violation")
}

pub fn nondet_site() -> Instant {
    Instant::now()
}

pub fn print_site() {
    println!("seeded violation");
}

pub fn float_cmp_site(x: f32) -> bool {
    x == 0.5
}

pub fn lossy_cast_site(n: usize) -> f32 {
    n as f32
}

// slm-lint: allow(no-unwrap)
pub fn bad_waiver_site() {}

pub fn waived_site(v: Option<u32>) -> u32 {
    // slm-lint: allow(no-unwrap) seeded: a documented waiver suppresses the next line
    v.unwrap()
}

// ---- seeded violations for the semantic passes ------------------------
// One per pass, again pinned by the golden tests to exact lines.

/// `protocol` pass: `Orphan` decodes nowhere, no handler arm names it, and
/// the enum lacks a `const ALL` annotation.
pub enum ProtoMsg {
    Hello = 1,
    Data = 2,
    Orphan = 3,
}

impl ProtoMsg {
    pub fn from_u8(b: u8) -> Option<ProtoMsg> {
        match b {
            1 => Some(ProtoMsg::Hello),
            2 => Some(ProtoMsg::Data),
            _ => None,
        }
    }
}

pub fn handler_site(m: ProtoMsg) -> u32 {
    match m {
        ProtoMsg::Hello => 1,
        ProtoMsg::Data => 2,
        _ => 0,
    }
}

/// Minimal publish surface so `--keys` harvests the orphan below.
pub struct Tele;
impl Tele {
    pub fn inc(&mut self, _key: &str) {}
}

/// `keys` pass: published but declared nowhere.
pub fn orphan_key_site(t: &mut Tele) {
    t.inc("bogus.orphan.key");
}

/// `knobs` pass: an `SLM_*` read missing from the knob table.
pub fn undeclared_knob_site() -> Option<String> {
    std::env::var("SLM_BOGUS").ok()
}

/// `determinism` pass: two accumulators per output element.
pub fn split_accumulator_site(xs: &[f32]) -> f32 {
    let mut acc_lo = 0.0f32;
    let mut acc_hi = 0.0f32;
    for k in 0..xs.len() {
        if k % 2 == 0 {
            acc_lo += xs[k];
        } else {
            acc_hi += xs[k];
        }
    }
    acc_lo + acc_hi
}

/// `determinism` pass: non-ascending reduction order over `k`.
pub fn reversed_k_site(xs: &[f32]) -> f32 {
    let mut total = 0.0f32;
    for k in (0..xs.len()).rev() {
        total += xs[k];
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exempt_regions_do_not_fire() {
        assert_eq!(unwrap_site(Some(1)), 1);
        let v: Option<u32> = Some(2);
        assert_eq!(v.unwrap(), 2);
        println!("prints are fine in tests");
    }
}

// ---- later seeded violations, appended after the tests mod so every
// ---- pinned line above stays stable.

/// `unsafe-containment`: `unsafe` outside the sanctioned SIMD module.
pub fn unsafe_site(p: *const u32) -> u32 {
    unsafe { *p }
}

/// `determinism` pass: a fused multiply-add intrinsic rounds once.
pub fn fused_madd_site(a: f32, b: f32, c: f32) -> f32 {
    _mm_fmadd_ss_like(a, b, c)
}

fn _mm_fmadd_ss_like(a: f32, b: f32, c: f32) -> f32 {
    a.mul_add(b, c)
}

/// `determinism` pass: a horizontal lane reduction reassociates the sum.
pub fn lane_reduce_site(v: [f32; 4]) -> f32 {
    _mm_hadd_ps_like(v)
}

fn _mm_hadd_ps_like(v: [f32; 4]) -> f32 {
    ((v[0] + v[1]) + v[2]) + v[3]
}
