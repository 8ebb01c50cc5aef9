//! Explicitly vectorized `std::arch` microkernels with runtime feature
//! detection — the [`crate::backend::BackendKind::Simd`] implementation.
//!
//! Dispatch: `x86_64` checks AVX2 per call via
//! `is_x86_feature_detected!` (the check is a cached flag load, not a
//! `cpuid`), `aarch64` uses baseline NEON unconditionally, and any other
//! target — or an `x86_64` host without AVX2 — falls back to the
//! portable `scalar` kernels in [`crate::backend`]. The fallback makes
//! `SimdBackend` safe to construct everywhere; the global selection in
//! [`crate::backend`] additionally warns and picks `scalar` when the
//! features are missing, so the per-call fallback is a correctness
//! backstop, not the expected path.
//!
//! # Why the vector kernels are bitwise-equal to the scalar ones
//!
//! Each SIMD lane owns one output element. A lane performs exactly the
//! scalar kernel's operation sequence — for each ascending `kk`, one
//! exactly-rounded `multiply` then one exactly-rounded `add` into that
//! element's single accumulator. The kernels never use fused
//! multiply-add (one rounding where the scalar path rounds twice) and
//! never reduce across lanes (which would reorder the sum). Lane width
//! therefore only changes how many output elements progress through `kk`
//! together — the per-element arithmetic, and hence every output bit, is
//! identical to the scalar reference.
//!
//! The AVX2 `a_bt` kernel packs transposed `B` panels into a scratch
//! buffer before the same broadcast-kernel runs; packing is pure data
//! movement and cannot change any accumulation order. NEON has no
//! `a_bt` of its own and uses the scalar one, which transposes `B` the
//! same way (or, for a single row, takes direct ascending-`k` dot
//! products). No `aarch64` timing of that scalar `a_bt` exists yet.
//!
//! The four convolution kernels are the same broadcast-and-accumulate
//! pattern: each lane is one output pixel (`conv_direct`), one weight
//! tap (`conv_weight_taps`) or one channel (`conv_channels_last` and
//! its weight gradient), summed in the scalar loop's order. They exist
//! for AVX2 only; `aarch64`, and tap sets or channel counts that do not
//! fill whole vectors, run the scalar loops.
//!
//! This module (plus its arch submodules) is the only sanctioned home
//! for `unsafe` vector intrinsics in the workspace — the `slm-lint`
//! `unsafe-containment` rule fails any `unsafe` outside
//! `crates/tensor/src/simd/` that lacks an explicit waiver.

use crate::backend::{self, Epilogue, PaddedConv, ReluGrad, TapRegion};

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "aarch64")]
mod neon;

/// Whether this host has the vector features the explicit kernels need
/// (AVX2 on `x86_64`, baseline NEON on `aarch64`). Re-exported as
/// `sl_tensor::simd_supported` so callers and tests can predict the
/// `SLM_BACKEND=auto` choice.
pub fn supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(target_arch = "aarch64")]
    {
        true
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        false
    }
}

/// `out[m×n] = a[m×k] · b[k×n]`.
pub(crate) fn ab(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    #[cfg(target_arch = "aarch64")]
    {
        neon::ab(out, a, b, m, k, n)
    }
    #[cfg(not(target_arch = "aarch64"))]
    {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 availability verified at runtime just above.
            unsafe { avx2::ab(out, a, b, m, k, n) };
            return;
        }
        backend::scalar_ab(out, a, b, m, k, n)
    }
}

/// Rows `i0..i0 + out.len()/n` of `aᵀ · b` (`a: [k×am]`, `b: [k×n]`).
pub(crate) fn at_b(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    i0: usize,
    k: usize,
    am: usize,
    n: usize,
) {
    #[cfg(target_arch = "aarch64")]
    {
        neon::at_b(out, a, b, i0, k, am, n)
    }
    #[cfg(not(target_arch = "aarch64"))]
    {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 availability verified at runtime just above.
            unsafe { avx2::at_b(out, a, b, i0, am, n) };
            return;
        }
        backend::scalar_at_b(out, a, b, i0, k, am, n)
    }
}

/// `out[m×n] = a[m×k] · b[n×k]ᵀ`.
pub(crate) fn a_bt(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    #[cfg(target_arch = "aarch64")]
    {
        // The packed-panel variant is AVX2-only for now; the scalar
        // kernel keeps NEON hosts correct (see DESIGN §13).
        backend::scalar_a_bt(out, a, b, m, k, n)
    }
    #[cfg(not(target_arch = "aarch64"))]
    {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 availability verified at runtime just above.
            unsafe { avx2::a_bt(out, a, b, m, k, n) };
            return;
        }
        backend::scalar_a_bt(out, a, b, m, k, n)
    }
}

/// Elementwise `dst[i] += src[i]`.
pub(crate) fn add_assign(dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "aarch64")]
    {
        neon::add_assign(dst, src)
    }
    #[cfg(not(target_arch = "aarch64"))]
    {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 availability verified at runtime just above.
            unsafe { avx2::add_assign(dst, src) };
            return;
        }
        for (o, &v) in dst.iter_mut().zip(src) {
            *o += v;
        }
    }
}

/// One output channel of a convolution over planar padded input, with
/// its epilogue (see [`crate::backend::Backend::conv_direct`]). No NEON
/// kernel yet: `aarch64` runs the scalar loop.
pub(crate) fn conv_direct(
    out: &mut [f32],
    out_stride: usize,
    xpad: &[f32],
    w: &[f32],
    gm: PaddedConv,
    epi: Epilogue,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 availability verified at runtime just above.
        unsafe { avx2::conv_direct(out, out_stride, xpad, w, gm, epi) };
        return;
    }
    backend::scalar_conv_direct(out, out_stride, xpad, w, gm, epi)
}

/// Channels-last weight gradient and optional bias sums (see
/// [`crate::backend::Backend::conv_weight_taps`]). The AVX2 kernel needs
/// each kernel row's `kw·c_in` taps to fill whole 8-lane vectors; other
/// shapes, and `aarch64`, run the scalar loop.
pub(crate) fn conv_weight_taps(
    acc: &mut [f32],
    xp: &[f32],
    g: &[f32],
    gm: PaddedConv,
    bias: Option<&mut [f32]>,
) {
    #[cfg(target_arch = "x86_64")]
    if (gm.kw * gm.c_in).is_multiple_of(8) && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 availability verified at runtime just above.
        unsafe { avx2::conv_weight_taps(acc, xp, g, gm, bias) };
        return;
    }
    backend::scalar_conv_weight_taps(acc, xp, g, gm, bias)
}

/// 1→C channels-last correlation with its epilogue (see
/// [`crate::backend::Backend::conv_channels_last`]). The AVX2 kernel
/// needs `c` to fill whole 8-lane vectors; other channel counts, and
/// `aarch64`, run the scalar loop.
pub(crate) fn conv_channels_last(
    out: &mut [f32],
    x: &[f32],
    w: &[f32],
    taps: &[usize],
    gm: TapRegion,
    epi: Epilogue,
) {
    #[cfg(target_arch = "x86_64")]
    if gm.c.is_multiple_of(8) && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 availability verified at runtime just above.
        unsafe { avx2::conv_channels_last(out, x, w, taps, gm, epi) };
        return;
    }
    backend::scalar_conv_channels_last(out, x, w, taps, gm, epi)
}

/// Its weight and bias gradients through the ReLU′ mask (see
/// [`crate::backend::Backend::conv_weight_channels_last`]), under the
/// same vector condition.
pub(crate) fn conv_weight_channels_last(
    acc: &mut [f32],
    x: &[f32],
    g: &[f32],
    taps: &[usize],
    gm: TapRegion,
    relu: ReluGrad,
) {
    #[cfg(target_arch = "x86_64")]
    if gm.c.is_multiple_of(8) && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 availability verified at runtime just above.
        unsafe { avx2::conv_weight_channels_last(acc, x, g, taps, gm, relu) };
        return;
    }
    backend::scalar_conv_weight_channels_last(acc, x, g, taps, gm, relu)
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    //! AVX2-specific bitwise checks against the scalar kernels (the
    //! cross-backend tests in `crate::backend` hold both to a textbook
    //! loop and cover the dispatched surface on every arch).

    use crate::backend::{self, Epilogue};

    fn fill(len: usize, seed: u64) -> Vec<f32> {
        let mut s = seed.max(1);
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 2000) as f32 / 1000.0 - 1.0
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// [`bits`] with every NaN canonicalised (NaN payloads are
    /// unspecified), so NaNs compare by position.
    fn nan_bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| {
                if x.is_nan() {
                    f32::NAN.to_bits()
                } else {
                    x.to_bits()
                }
            })
            .collect()
    }

    #[test]
    fn avx2_kernels_bitwise_match_scalar_across_ragged_shapes() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("skipping: host lacks AVX2");
            return;
        }
        // Shapes chosen to hit every tile path: full 4×16 tiles, the
        // 8-wide column step, scalar column tails, ragged row tails and
        // empty inner dimensions.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (4, 16, 64),
            (8, 32, 16),
            (5, 3, 65),
            (7, 33, 17),
            (6, 9, 24),
            (3, 5, 8),
            (2, 7, 7),
            (64, 96, 96),
            (3, 0, 5),
            (13, 21, 31),
        ] {
            let a = fill(m * k, 11);
            let b = fill(k * n, 23);
            let mut want = vec![0.0f32; m * n];
            backend::scalar_ab(&mut want, &a, &b, m, k, n);
            let mut got = vec![f32::NAN; m * n];
            // SAFETY: AVX2 presence checked at the top of the test.
            unsafe { super::avx2::ab(&mut got, &a, &b, m, k, n) };
            assert_eq!(bits(&got), bits(&want), "ab {m}x{k}x{n}");

            let at = fill(k * m, 31);
            let mut want = vec![0.0f32; m * n];
            backend::scalar_at_b(&mut want, &at, &b, 0, k, m, n);
            let mut got = vec![f32::NAN; m * n];
            // SAFETY: AVX2 presence checked at the top of the test.
            unsafe { super::avx2::at_b(&mut got, &at, &b, 0, m, n) };
            assert_eq!(bits(&got), bits(&want), "at_b {m}x{k}x{n}");

            let bt = fill(n * k, 37);
            let mut want = vec![0.0f32; m * n];
            backend::scalar_a_bt(&mut want, &a, &bt, m, k, n);
            let mut got = vec![f32::NAN; m * n];
            // SAFETY: AVX2 presence checked at the top of the test.
            unsafe { super::avx2::a_bt(&mut got, &a, &bt, m, k, n) };
            assert_eq!(bits(&got), bits(&want), "a_bt {m}x{k}x{n}");
        }
    }

    /// Plants NaN, +Inf and -Inf at three spread positions of `v`.
    fn plant_non_finite(v: &mut [f32], seed: usize) {
        let len = v.len();
        for (i, bad) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            v[(seed + i * len / 3) % len] = bad;
        }
    }

    /// The epilogues the conv kernels take, over `bias`.
    fn epilogues(bias: &[f32]) -> [Epilogue<'_>; 3] {
        [
            Epilogue::Store,
            Epilogue::Bias(bias),
            Epilogue::BiasRelu(bias),
        ]
    }

    #[test]
    fn avx2_conv_kernels_bitwise_match_scalar() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("skipping: host lacks AVX2");
            return;
        }
        use crate::backend::PaddedConv;
        // Output widths around the 8-column vectors and the 8-vector row
        // block (67 = 8 vectors + 1 + a 3-column tail), and kernel rows
        // whose `kw·c_in` taps fill whole vectors (8, 24, 48: one
        // register pass, one, two) or do not (3, 9, 15: the scalar
        // fallback behind the dispatcher). NaN and ±Inf are planted in
        // the input, so the sums reach the bias + ReLU epilogue as NaN
        // and ±Inf too. The forward also writes at a row stride wider
        // than the row, into a buffer whose other elements must keep
        // their sentinel.
        let mut seed = 41;
        for &(c_in, kh, kw) in &[
            (1usize, 3usize, 3usize),
            (3, 3, 3),
            (8, 3, 3),
            (8, 1, 1),
            (16, 3, 3),
            (3, 5, 5),
            (8, 1, 3),
            (1, 3, 1),
        ] {
            for &(ho, wo) in &[(1usize, 1usize), (2, 5), (3, 8), (4, 13), (3, 40), (2, 67)] {
                let gm = PaddedConv {
                    c_in,
                    kh,
                    kw,
                    ho,
                    wo,
                };
                let tag = format!("c_in {c_in} k {kh}x{kw} out {ho}x{wo}");
                seed += 4;
                let mut xpad = fill(c_in * gm.hp() * gm.wp(), seed);
                plant_non_finite(&mut xpad, seed as usize);
                let w = fill(gm.taps(), seed + 1);
                let bias = fill(1, seed + 3);
                for epi in epilogues(&bias) {
                    for stride in [wo, wo + 3] {
                        let len = (ho - 1) * stride + wo + 2;
                        let mut want = vec![-7.0f32; len];
                        backend::scalar_conv_direct(&mut want, stride, &xpad, &w, gm, epi);
                        let mut got = vec![-7.0f32; len];
                        // SAFETY: AVX2 presence checked at the top of the test.
                        unsafe { super::avx2::conv_direct(&mut got, stride, &xpad, &w, gm, epi) };
                        let tag = format!("conv_direct {tag} {epi:?} stride {stride}");
                        assert_eq!(nan_bits(&got), nan_bits(&want), "{tag}");
                        let mut untouched =
                            (0..len).filter(|&i| i % stride >= wo || i / stride >= ho);
                        let sentinel = (-7.0f32).to_bits();
                        assert!(untouched.all(|i| got[i].to_bits() == sentinel), "{tag}");
                    }
                }

                for c_out in [1usize, 2] {
                    let g = fill(c_out * gm.pixels(), seed + 2);
                    let mut want = vec![0.0f32; c_out * gm.taps()];
                    let mut want_b = vec![f32::NAN; c_out];
                    backend::scalar_conv_weight_taps(&mut want, &xpad, &g, gm, Some(&mut want_b));
                    let sums: Vec<f32> = g
                        .chunks_exact(gm.pixels())
                        .map(|g| g.iter().sum())
                        .collect();
                    assert_eq!(bits(&want_b), bits(&sums), "scalar taps bias {tag}");
                    let mut got = vec![f32::NAN; c_out * gm.taps()];
                    super::conv_weight_taps(&mut got, &xpad, &g, gm, None);
                    assert_eq!(nan_bits(&got), nan_bits(&want), "taps {tag} c_out {c_out}");
                    if (kw * c_in).is_multiple_of(8) {
                        let mut got = vec![f32::NAN; c_out * gm.taps()];
                        let mut got_b = vec![f32::NAN; c_out];
                        // SAFETY: AVX2 presence checked at the top of the test.
                        unsafe {
                            super::avx2::conv_weight_taps(&mut got, &xpad, &g, gm, Some(&mut got_b))
                        };
                        assert_eq!(nan_bits(&got), nan_bits(&want), "avx2 taps {tag}");
                        assert_eq!(bits(&got_b), bits(&want_b), "avx2 taps bias {tag}");
                    }
                }
            }
        }
    }

    #[test]
    fn avx2_channels_last_kernels_bitwise_match_scalar() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("skipping: host lacks AVX2");
            return;
        }
        use crate::backend::{ReluGrad, TapRegion};
        // Regions around the 12-pixel register block (1, 5, 13, 40, 67
        // columns), map rows wider than the region, and tap sets below,
        // at and above the 12-tap register block, ascending and not. The
        // forward runs each epilogue over sums with NaN and ±Inf planted
        // in `x`; the weight gradient runs through the ReLU′ mask of an
        // activation map (its own row stride) holding NaN, ±0 and ±Inf,
        // over a gradient holding a NaN. `c = 12` is not a
        // multiple of 8, so the dispatcher runs the scalar loops.
        let mut seed = 7;
        for c in [8usize, 16, 24, 12] {
            for &(rows, cols) in &[(1usize, 1usize), (2, 5), (3, 13), (4, 40), (2, 67)] {
                let x_stride = cols + 4;
                let cl_stride = cols + 3;
                let act_stride = cols + 1;
                let tap_sets: [Vec<usize>; 4] = [
                    (0..9).map(|t| (t / 3) * x_stride + t % 3).collect(),
                    (0..9).rev().map(|t| (t / 3) * x_stride + t % 3).collect(),
                    vec![2 * x_stride + 1],
                    (0..13).map(|t| (t % 3) * x_stride + t % 5).collect(),
                ];
                for taps in &tap_sets {
                    let tag = format!("c {c} region {rows}x{cols} taps {taps:?}");
                    let gm = TapRegion {
                        c,
                        rows,
                        cols,
                        x_stride,
                        cl_stride,
                    };
                    seed += 3;
                    let mut x = fill((rows + 2) * x_stride, seed);
                    plant_non_finite(&mut x, seed as usize);
                    let w = fill(taps.len() * c, seed + 1);
                    let bias = fill(c, seed + 4);
                    let map_len = (rows * cl_stride + 2) * c;
                    for epi in epilogues(&bias) {
                        // Outside the region the map must keep its contents.
                        let mut want = fill(map_len, seed + 2);
                        let mut got = want.clone();
                        backend::scalar_conv_channels_last(&mut want, &x, &w, taps, gm, epi);
                        if c.is_multiple_of(8) {
                            // SAFETY: AVX2 presence checked at the top of the test.
                            unsafe {
                                super::avx2::conv_channels_last(&mut got, &x, &w, taps, gm, epi)
                            };
                        } else {
                            super::conv_channels_last(&mut got, &x, &w, taps, gm, epi);
                        }
                        assert_eq!(nan_bits(&got), nan_bits(&want), "forward {tag} {epi:?}");
                    }

                    let mut g = fill(map_len, seed + 3);
                    g[seed as usize % map_len] = f32::NAN;
                    let mut act = fill(rows * act_stride * c, seed + 5);
                    let act_len = act.len();
                    for (i, v) in [f32::NAN, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY]
                        .into_iter()
                        .enumerate()
                    {
                        act[(seed as usize + i * 7) % act_len] = v;
                    }
                    let mut want = vec![0.0f32; taps.len() * c];
                    let mut want_b = vec![f32::NAN; c];
                    let relu = ReluGrad {
                        act: &act,
                        act_stride,
                        bias: &mut want_b,
                    };
                    backend::scalar_conv_weight_channels_last(&mut want, &x, &g, taps, gm, relu);
                    let mut got = vec![f32::NAN; taps.len() * c];
                    let mut got_b = vec![f32::NAN; c];
                    let relu = ReluGrad {
                        act: &act,
                        act_stride,
                        bias: &mut got_b,
                    };
                    if c.is_multiple_of(8) {
                        // SAFETY: AVX2 presence checked at the top of the test.
                        unsafe {
                            super::avx2::conv_weight_channels_last(&mut got, &x, &g, taps, gm, relu)
                        };
                    } else {
                        super::conv_weight_channels_last(&mut got, &x, &g, taps, gm, relu);
                    }
                    assert_eq!(nan_bits(&got), nan_bits(&want), "weight {tag}");
                    assert_eq!(nan_bits(&got_b), nan_bits(&want_b), "bias {tag}");
                }
            }
        }
    }

    #[test]
    fn avx2_kernels_propagate_nan() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("skipping: host lacks AVX2");
            return;
        }
        let a = vec![0.0f32; 5];
        let mut b = vec![0.0f32; 5 * 20];
        b[3] = f32::NAN;
        let mut out = vec![0.0f32; 20];
        // SAFETY: AVX2 presence checked at the top of the test.
        unsafe { super::avx2::ab(&mut out, &a, &b, 1, 5, 20) };
        assert!(out[3].is_nan(), "0 × NaN must reach the accumulator");
    }
}
