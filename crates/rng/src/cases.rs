//! The seeded-case runner behind the workspace's property tests.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::fnv1a_64;
use crate::rngs::StdRng;

/// Runs `body` on `n` cases, each with its own generator to draw inputs
/// from. Case `i` of the test `name` is seeded with
/// `hash(name) + i`, so every run draws the same inputs and renaming a
/// test draws new ones. A case that panics is re-raised with the test
/// name, the case index and its seed; `StdRng::seed_from_u64(seed)`
/// then replays that case alone.
pub fn cases(name: &str, n: usize, mut body: impl FnMut(&mut StdRng)) {
    let base = fnv1a_64(name.as_bytes());
    for i in 0..n {
        let seed = base.wrapping_add(i as u64);
        let mut rng = StdRng::seed_from_u64(seed);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(&mut rng))) {
            let cause = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            panic!("{name}: case {i} failed (seed {seed:#018x}): {cause}");
        }
    }
}
