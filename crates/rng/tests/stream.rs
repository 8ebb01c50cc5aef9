//! The generator's stream is fixed: these are the first outputs of
//! SplitMix64-seeded xoshiro256**, computed independently of the crate.

use sl_rng::rngs::StdRng;
use sl_rng::{cases, fnv1a_64, Rng, RngCore};

#[test]
fn golden_first_outputs() {
    let golden: [(u64, [u64; 4]); 2] = [
        (
            0,
            [
                0x99ec_5f36_cb75_f2b4,
                0xbf6e_1f78_4956_452a,
                0x1a5f_849d_4933_e6e0,
                0x6aa5_94f1_262d_2d2c,
            ],
        ),
        (
            7,
            [
                0xb358_faf7_4ef9_765a,
                0x475c_3d96_4f48_2cd2,
                0xd6f1_d349_952c_7996,
                0xfb29_3873_1e80_7240,
            ],
        ),
    ];
    for (seed, words) in golden {
        let mut rng = StdRng::seed_from_u64(seed);
        for w in words {
            assert_eq!(rng.next_u64(), w, "seed {seed}");
        }
    }
}

#[test]
fn narrow_draws_take_one_step_each() {
    let mut a = StdRng::seed_from_u64(7);
    let mut b = StdRng::seed_from_u64(7);
    assert_eq!(a.next_u32(), 0xb358_faf7);
    let f: f64 = a.random();
    assert_eq!(f, 0.2787512294737843);
    // Two draws of any kind leave the state where two u64 draws do.
    b.next_u64();
    b.next_u64();
    assert_eq!(a, b);
}

#[test]
fn ranges_stay_in_bounds() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut seen = [false; 7];
    for _ in 0..1_000 {
        let k = rng.random_range(3usize..10);
        assert!((3..10).contains(&k));
        seen[k - 3] = true;
        let x: f64 = rng.random_range(-1.0..2.0);
        assert!((-1.0..2.0).contains(&x));
        let y = rng.random_range(0.5f32..=0.75);
        assert!((0.5..=0.75).contains(&y));
        let u: f32 = rng.random();
        assert!((0.0..1.0).contains(&u));
        assert_eq!(rng.random_range(4u32..=4), 4);
    }
    assert!(seen.iter().all(|&s| s), "every value of 3..10 is drawn");
}

#[test]
#[should_panic(expected = "empty range")]
fn empty_ranges_panic() {
    StdRng::seed_from_u64(0).random_range(5usize..5);
}

#[test]
fn restored_state_continues_the_stream() {
    let mut a = StdRng::seed_from_u64(42);
    let _: f64 = a.random();
    let _ = a.random_range(0usize..17);
    let _ = a.next_u32();
    let mut b = StdRng::from_state(a.state());
    assert_eq!(a, b);
    for _ in 0..64 {
        assert_eq!(a.next_u64(), b.next_u64());
    }
}

#[test]
fn cases_run_n_distinct_reproducible_cases() {
    let mut first = Vec::new();
    cases("cases_run_n", 16, |rng| first.push(rng.next_u64()));
    let mut again = Vec::new();
    cases("cases_run_n", 16, |rng| again.push(rng.next_u64()));
    assert_eq!(first.len(), 16);
    assert_eq!(first, again);
    first.sort_unstable();
    first.dedup();
    assert_eq!(first.len(), 16, "every case draws its own stream");
}

#[test]
fn a_failing_case_names_its_seed() {
    let mut entry = Vec::new();
    let failure = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cases("failing_case", 8, |rng| {
            entry.push(rng.clone());
            assert!(entry.len() < 4, "the fourth case fails");
        })
    }));
    let payload = failure.expect_err("case 3 panics");
    let msg = payload
        .downcast_ref::<String>()
        .expect("a formatted message");
    assert!(
        msg.starts_with("failing_case: case 3 failed (seed 0x"),
        "{msg}"
    );
    assert!(msg.ends_with("the fourth case fails"), "{msg}");
    // The named seed replays exactly the generator the failing case got.
    let hex = &msg[msg.find("0x").unwrap() + 2..msg.find(')').unwrap()];
    let seed = u64::from_str_radix(hex, 16).unwrap();
    assert_eq!(entry.len(), 4);
    assert_eq!(StdRng::seed_from_u64(seed), entry[3]);
}

#[test]
fn fnv1a_reference_vectors() {
    // Published FNV-1a 64-bit test vectors.
    assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
}
