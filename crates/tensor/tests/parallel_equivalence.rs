//! Bitwise equivalence of the compute backends against their serial
//! execution: for *any* shape — including ragged tiles that don't fill
//! the SIMD kernels' 4-row × 16/8-column register tiles or the pool's
//! row chunks — running on 2, 3 or 8 threads must produce exactly the
//! bits the one-thread pool produces, and the `simd` backend must
//! produce exactly the bits of the `scalar` one. `scripts/verify.sh`
//! runs this suite under every `SLM_BACKEND={scalar,simd}` ×
//! `SLM_THREADS={1,4}` pairing so the process-wide pool and backend
//! selection are exercised end to end (see
//! `global_backend_matches_scalar_reference` and
//! `global_pool_matches_explicit_serial`).

use std::sync::OnceLock;

use sl_rng::rngs::StdRng;
use sl_rng::{cases, Rng};

use sl_tensor::{
    backend_for, conv2d_backward_in, conv2d_backward_with, conv2d_in, conv2d_with, fused_cnn,
    fused_cnn_backward, global_backend, matmul_a_bt_in, matmul_a_bt_with, matmul_at_b_in,
    matmul_at_b_with, matmul_in, matmul_with, sigmoid, BackendKind, ComputePool, FusedCnnParams,
    Padding, ReluGrad, TapRegion, Tensor,
};

const CASES: usize = 24;

/// One pool per tested width, shared across all cases (workers are
/// detached threads; respawning them per case would dominate the
/// suite's runtime).
fn pools() -> &'static [ComputePool] {
    static POOLS: OnceLock<Vec<ComputePool>> = OnceLock::new();
    POOLS.get_or_init(|| [1, 2, 3, 8].map(ComputePool::new).into_iter().collect())
}

fn serial() -> &'static ComputePool {
    &pools()[0]
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// A tensor of `dims` with values uniform in `[-10, 10)`.
fn random<const R: usize>(rng: &mut StdRng, dims: [usize; R]) -> Tensor {
    Tensor::from_fn(dims, |_| rng.random_range(-10.0f32..10.0))
}

/// Matmul dims `(m, k, n)` span the tiling edges: rows crossing the
/// 4-row SIMD tile and the 16-row job chunks, columns crossing the 8-
/// and 16-wide SIMD steps several times over.
fn mm_dims(rng: &mut StdRng) -> (usize, usize, usize) {
    (
        rng.random_range(1usize..=37),
        rng.random_range(1usize..=19),
        rng.random_range(1usize..=70),
    )
}

/// Conv operands covering multi-image batches (one pool job per image),
/// 1×1 and 3×3 kernels, and both paddings.
fn conv_operands(rng: &mut StdRng) -> (Tensor, Tensor, Tensor, Padding) {
    let n = rng.random_range(1usize..=4);
    let c_in = rng.random_range(1usize..=3);
    let h = rng.random_range(3usize..=9);
    let w = rng.random_range(3usize..=9);
    let c_out = rng.random_range(1usize..=4);
    let k = if rng.random() { 1 } else { 3 };
    let pad = if rng.random() {
        Padding::Same
    } else {
        Padding::Valid
    };
    let x = random(rng, [n, c_in, h, w]);
    let wt = random(rng, [c_out, c_in, k, k]);
    let bias = random(rng, [c_out]);
    (x, wt, bias, pad)
}

#[test]
fn matmul_bitwise_thread_count_independent() {
    cases("matmul_bitwise_thread_count_independent", CASES, |rng| {
        let (m, k, n) = mm_dims(rng);
        let a = random(rng, [m, k]);
        let b = random(rng, [k, n]);
        let want = bits(&matmul_in(serial(), &a, &b));
        for pool in &pools()[1..] {
            assert_eq!(&bits(&matmul_in(pool, &a, &b)), &want);
        }
    });
}

#[test]
fn matmul_at_b_bitwise_thread_count_independent() {
    cases(
        "matmul_at_b_bitwise_thread_count_independent",
        CASES,
        |rng| {
            let (m, k, n) = mm_dims(rng);
            // A is [k, m]: the transposed-A product used by weight gradients.
            let a = random(rng, [k, m]);
            let b = random(rng, [k, n]);
            let want = bits(&matmul_at_b_in(serial(), &a, &b));
            for pool in &pools()[1..] {
                assert_eq!(&bits(&matmul_at_b_in(pool, &a, &b)), &want);
            }
        },
    );
}

#[test]
fn matmul_a_bt_bitwise_thread_count_independent() {
    cases(
        "matmul_a_bt_bitwise_thread_count_independent",
        CASES,
        |rng| {
            let (m, k, n) = mm_dims(rng);
            // B is [n, k]: the transposed-B product used by input gradients.
            let a = random(rng, [m, k]);
            let b = random(rng, [n, k]);
            let want = bits(&matmul_a_bt_in(serial(), &a, &b));
            for pool in &pools()[1..] {
                assert_eq!(&bits(&matmul_a_bt_in(pool, &a, &b)), &want);
            }
        },
    );
}

#[test]
fn matmul_family_bitwise_backend_independent() {
    cases("matmul_family_bitwise_backend_independent", CASES, |rng| {
        // Every backend, at every pool width, must reproduce the scalar
        // reference bit for bit on all three GEMM orientations.
        let (m, k, n) = mm_dims(rng);
        let a = random(rng, [m, k]);
        let b = random(rng, [k, n]);
        let at = random(rng, [k, m]);
        let bt = random(rng, [n, k]);
        let scalar = backend_for(BackendKind::Scalar);
        let want_ab = bits(&matmul_with(serial(), scalar, &a, &b));
        let want_atb = bits(&matmul_at_b_with(serial(), scalar, &at, &b));
        let want_abt = bits(&matmul_a_bt_with(serial(), scalar, &a, &bt));
        for kind in BackendKind::ALL {
            let be = backend_for(kind);
            for pool in pools() {
                assert_eq!(&bits(&matmul_with(pool, be, &a, &b)), &want_ab);
                assert_eq!(&bits(&matmul_at_b_with(pool, be, &at, &b)), &want_atb);
                assert_eq!(&bits(&matmul_a_bt_with(pool, be, &a, &bt)), &want_abt);
            }
        }
    });
}

#[test]
fn conv2d_family_bitwise_backend_independent() {
    cases("conv2d_family_bitwise_backend_independent", CASES, |rng| {
        let (x, w, bias, pad) = conv_operands(rng);
        let scalar = backend_for(BackendKind::Scalar);
        let g = conv2d_with(serial(), scalar, &x, &w, &bias, pad);
        let want_bwd = conv2d_backward_with(serial(), scalar, &x, &w, &g, pad);
        for kind in BackendKind::ALL {
            let be = backend_for(kind);
            for pool in pools() {
                assert_eq!(&bits(&conv2d_with(pool, be, &x, &w, &bias, pad)), &bits(&g));
                let got = conv2d_backward_with(pool, be, &x, &w, &g, pad);
                assert_eq!(&bits(&got.grad_input), &bits(&want_bwd.grad_input));
                assert_eq!(&bits(&got.grad_weight), &bits(&want_bwd.grad_weight));
                assert_eq!(&bits(&got.grad_bias), &bits(&want_bwd.grad_bias));
            }
        }
    });
}

#[test]
fn conv2d_bitwise_thread_count_independent() {
    cases("conv2d_bitwise_thread_count_independent", CASES, |rng| {
        let (x, w, bias, pad) = conv_operands(rng);
        let want = bits(&conv2d_in(serial(), &x, &w, &bias, pad));
        for pool in &pools()[1..] {
            assert_eq!(&bits(&conv2d_in(pool, &x, &w, &bias, pad)), &want);
        }
    });
}

#[test]
fn conv2d_backward_bitwise_thread_count_independent() {
    cases(
        "conv2d_backward_bitwise_thread_count_independent",
        CASES,
        |rng| {
            let (x, w, bias, pad) = conv_operands(rng);
            let g = conv2d_in(serial(), &x, &w, &bias, pad);
            let want = conv2d_backward_in(serial(), &x, &w, &g, pad);
            for pool in &pools()[1..] {
                let got = conv2d_backward_in(pool, &x, &w, &g, pad);
                assert_eq!(&bits(&got.grad_input), &bits(&want.grad_input));
                assert_eq!(&bits(&got.grad_weight), &bits(&want.grad_weight));
                assert_eq!(&bits(&got.grad_bias), &bits(&want.grad_bias));
            }
        },
    );
}

/// Shape-derived data: irrational-step ramp so no two elements repeat
/// and accumulation-order differences cannot cancel out.
fn deterministic(shape: Vec<usize>, salt: u64) -> Tensor {
    let n: usize = shape.iter().product();
    let data = (0..n)
        .map(|i| {
            let x = (i as f32 + salt as f32 * 0.37).mul_add(0.618_034, -0.5 * n as f32);
            (x % 7.3) - 2.1
        })
        .collect();
    Tensor::from_vec(shape, data).unwrap()
}

/// Whatever backend `SLM_BACKEND` selected for this process, the plain
/// `_in` entry points must reproduce the scalar reference bit for bit —
/// this is what makes the per-backend verify.sh runs meaningful.
#[test]
fn global_backend_matches_scalar_reference() {
    let one = ComputePool::new(1);
    let scalar = backend_for(BackendKind::Scalar);
    let a = deterministic(vec![23, 11], 7);
    let b = deterministic(vec![11, 66], 8);
    assert_eq!(
        bits(&matmul_in(&one, &a, &b)),
        bits(&matmul_with(&one, scalar, &a, &b))
    );
    let x = deterministic(vec![3, 2, 8, 7], 9);
    let w = deterministic(vec![4, 2, 3, 3], 10);
    let bias = deterministic(vec![4], 11);
    assert_eq!(
        bits(&conv2d_in(&one, &x, &w, &bias, Padding::Same)),
        bits(&conv2d_with(&one, scalar, &x, &w, &bias, Padding::Same))
    );
}

/// The process-wide pool (whatever width `SLM_THREADS` selected) agrees
/// bitwise with an explicit one-thread pool. Running the suite under
/// `SLM_THREADS=1` and `SLM_THREADS=4` turns this into the end-to-end
/// determinism check that `scripts/verify.sh` relies on.
#[test]
fn global_pool_matches_explicit_serial() {
    let global = ComputePool::global();
    let one = ComputePool::new(1);

    let a = deterministic(vec![23, 11], 7);
    let b = deterministic(vec![11, 66], 8);
    assert_eq!(
        bits(&matmul_in(global, &a, &b)),
        bits(&matmul_in(&one, &a, &b))
    );

    let x = deterministic(vec![3, 2, 8, 7], 9);
    let w = deterministic(vec![4, 2, 3, 3], 10);
    let bias = deterministic(vec![4], 11);
    for pad in [Padding::Same, Padding::Valid] {
        let fg = conv2d_in(global, &x, &w, &bias, pad);
        let fs = conv2d_in(&one, &x, &w, &bias, pad);
        assert_eq!(bits(&fg), bits(&fs));
        let gg = conv2d_backward_in(global, &x, &w, &fg, pad);
        let gs = conv2d_backward_in(&one, &x, &w, &fs, pad);
        assert_eq!(bits(&gg.grad_input), bits(&gs.grad_input));
        assert_eq!(bits(&gg.grad_weight), bits(&gs.grad_weight));
        assert_eq!(bits(&gg.grad_bias), bits(&gs.grad_bias));
    }
}

/// Bit patterns with every NaN canonicalised: an operation's NaN payload
/// is unspecified, so NaNs compare by position only.
fn nan_bits(t: &Tensor) -> Vec<u32> {
    t.data()
        .iter()
        .map(|v| {
            if v.is_nan() {
                f32::NAN.to_bits()
            } else {
                v.to_bits()
            }
        })
        .collect()
}

/// `t` with `f` applied pairwise against `other`'s elements.
fn zip_map(t: &Tensor, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    let data = t
        .data()
        .iter()
        .zip(other.data())
        .map(|(&a, &b)| f(a, b))
        .collect();
    Tensor::from_vec(t.dims().to_vec(), data).unwrap()
}

/// The fused UE CNN against the public chain it replaces, bitwise:
/// `conv2d → ReLU → conv2d → sigmoid` forward and the `conv2d_backward`
/// chain (through sigmoid′ and ReLU′) backward, on the scalar backend at
/// one thread. Compared: the forward output, the input gradient and all
/// four parameter gradients. The fused side runs on the process-wide pool
/// and backend, so `scripts/verify.sh` runs this under every
/// `SLM_BACKEND × SLM_THREADS` pairing. NaN and ±Inf are planted in the
/// image and in the weights.
#[test]
fn fused_cnn_matches_the_unfused_chain_bitwise() {
    let one = ComputePool::new(1);
    let scalar = backend_for(BackendKind::Scalar);
    let conv =
        |x: &Tensor, w: &Tensor, b: &Tensor| conv2d_with(&one, scalar, x, w, b, Padding::Same);
    let conv_bwd = |x: &Tensor, w: &Tensor, g: &Tensor| {
        conv2d_backward_with(&one, scalar, x, w, g, Padding::Same)
    };
    let mut case = 0u64;
    // Channel counts on both sides of the 8-lane vectors; images with an
    // interior and with none (every pixel on the border).
    for c in [1usize, 2, 3, 4, 8, 9, 16] {
        for (h, w) in [(40usize, 40usize), (16, 16), (7, 5), (1, 1), (2, 3), (3, 2)] {
            for n in [1usize, 3] {
                case += 1;
                let mut x = deterministic(vec![n, 1, h, w], case).scale(0.3);
                let mut w1 = deterministic(vec![c, 1, 3, 3], case + 1).scale(0.2);
                let b1 = deterministic(vec![c], case + 2).scale(0.1);
                let mut w2 = deterministic(vec![1, c, 3, 3], case + 3).scale(0.2);
                let b2 = deterministic(vec![1], case + 4).scale(0.1);
                let g = deterministic(vec![n, 1, h, w], case + 5);
                // Cycle through every pairing of a clean or non-finite
                // image with clean weights or a non-finite `w2` at tap 0
                // or tap 8. Tap 0 never reaches the last row and column
                // and tap 8 never the first, so the border must skip
                // them there, as conv2d's input gradient does.
                if case % 2 == 1 {
                    let len = x.numel();
                    let d = x.data_mut();
                    d[len / 3] = f32::NAN;
                    d[len / 2] = f32::INFINITY;
                    d[len - 1] = f32::NEG_INFINITY;
                }
                let weight_case = (case / 2) % 3;
                let weights_finite = weight_case == 0;
                match weight_case {
                    1 => {
                        w1.data_mut()[4] = f32::INFINITY;
                        w2.data_mut()[0] = f32::NAN;
                    }
                    2 => {
                        w1.data_mut()[4] = f32::INFINITY;
                        let last = w2.numel() - 1;
                        w2.data_mut()[last] = f32::NAN;
                    }
                    _ => {}
                }
                let tag = format!("C={c} {n}x{h}x{w} case {case}");

                let hid = conv(&x, &w1, &b1).map(|v| v.max(0.0));
                let y = conv(&hid, &w2, &b2).map(sigmoid);
                // With clean weights the backward gets the real sigmoid
                // output, whose NaNs (from a non-finite image) become NaN
                // upstream gradients at single positions. With a
                // non-finite weight, the forward's padding taps carry it
                // into every output, so the backward is handed a finite
                // sigmoid output instead: then only the tap's reach
                // decides which gradient elements it poisons.
                let y_b = if weights_finite {
                    y.clone()
                } else {
                    y.map(|v| if v.is_finite() { v } else { 0.5 })
                };
                let g2 = zip_map(&g, &y_b, |g, y| g * (y * (1.0 - y)));
                let c2 = conv_bwd(&hid, &w2, &g2);
                let gh = zip_map(&c2.grad_input, &hid, |g, a| {
                    g * if a > 0.0 { 1.0 } else { 0.0 }
                });
                let c1 = conv_bwd(&x, &w1, &gh);

                let params = FusedCnnParams {
                    w1: &w1,
                    b1: &b1,
                    w2: &w2,
                    b2: &b2,
                };
                let got_y = fused_cnn(&x, params);
                assert_eq!(nan_bits(&got_y), nan_bits(&y), "forward {tag}");
                let got = fused_cnn_backward(&x, &y_b, params, &g, true);
                let gx = got.grad_input.expect("input gradient requested");
                assert_eq!(nan_bits(&gx), nan_bits(&c1.grad_input), "grad_input {tag}");
                assert_eq!(
                    nan_bits(&got.grad_w1),
                    nan_bits(&c1.grad_weight),
                    "w1 {tag}"
                );
                assert_eq!(nan_bits(&got.grad_b1), nan_bits(&c1.grad_bias), "b1 {tag}");
                assert_eq!(
                    nan_bits(&got.grad_w2),
                    nan_bits(&c2.grad_weight),
                    "w2 {tag}"
                );
                assert_eq!(nan_bits(&got.grad_b2), nan_bits(&c2.grad_bias), "b2 {tag}");
                // The params-only backward returns the same bits.
                let params_only = fused_cnn_backward(&x, &y_b, params, &g, false);
                assert!(params_only.grad_input.is_none());
                assert_eq!(
                    nan_bits(&params_only.grad_w1),
                    nan_bits(&got.grad_w1),
                    "{tag}"
                );
                assert_eq!(
                    nan_bits(&params_only.grad_b2),
                    nan_bits(&got.grad_b2),
                    "{tag}"
                );
            }
        }
    }
}

/// A dead hidden channel's bias gradient keeps the sign of its zero.
///
/// Channel 0 of an 8-channel UE CNN is dead: a zero `w1` row and a
/// negative `b1` leave its ReLU output `0.0` everywhere, a positive `w2`
/// row and a negative upstream gradient make its gradient into the ReLU
/// negative everywhere, so ReLU′ turns all of it into `-0.0`. The
/// per-image bias sum the backward folds into conv1's weight gradient
/// must then be `-0.0`, as `Iterator::sum` (which starts at `-0.0`)
/// gives; a sum started at `0.0` would give `+0.0`. Channel 1 is dead
/// too, but its gradient changes sign across the image, so its masked
/// gradient mixes `-0.0` and `+0.0` and its sum is `+0.0`.
///
/// The batch-level `grad_b1` that `fused_cnn_backward` returns reduces
/// the per-image sums from `0.0`, as `conv2d_backward` does, so the
/// public value is `+0.0` either way; it is held to the unfused chain
/// bitwise. The sign itself is checked where it is observable: on the
/// process-wide backend's `conv_weight_channels_last` with the ReLU′
/// fold, fed this image's hidden map and hidden gradient, against
/// `Iterator::sum` over the masked gradient. `scripts/verify.sh` runs
/// this under every `SLM_BACKEND × SLM_THREADS` pairing, so the AVX2
/// fold (8 channels fill its lanes) and the scalar one are both held.
#[test]
fn dead_relu_channel_bias_gradient_keeps_the_sign_of_zero() {
    let (c, h, w) = (8usize, 9usize, 11usize);
    // Small weights keep the sigmoid away from saturation, where y(1 - y)
    // would round to zero.
    let x = deterministic(vec![1, 1, h, w], 3).scale(0.1);
    let mut w1 = deterministic(vec![c, 1, 3, 3], 4).scale(0.05);
    let mut b1 = deterministic(vec![c], 5).scale(0.1);
    let mut w2 = deterministic(vec![1, c, 3, 3], 6).scale(0.02);
    let b2 = Tensor::from_slice(&[0.1]);
    // A negative upstream gradient everywhere.
    let g = deterministic(vec![1, 1, h, w], 7).map(|v| -1.0 - v.abs());
    for ch in [0usize, 1] {
        w1.data_mut()[ch * 9..(ch + 1) * 9].fill(0.0);
        b1.data_mut()[ch] = -0.5;
    }
    // Channel 0: every `w2` tap positive. Channel 1: the centre tap
    // positive, the tap that reaches it from the left (not the last
    // column) three times as large and negative, the rest zero.
    w2.data_mut()[..9].fill(0.25);
    w2.data_mut()[9..18].fill(0.0);
    w2.data_mut()[9 + 4] = 1.0;
    w2.data_mut()[9 + 3] = -3.0;
    let params = FusedCnnParams {
        w1: &w1,
        b1: &b1,
        w2: &w2,
        b2: &b2,
    };

    // The unfused chain, on the scalar backend at one thread.
    let one = ComputePool::new(1);
    let scalar = backend_for(BackendKind::Scalar);
    let pre = conv2d_with(&one, scalar, &x, &w1, &b1, Padding::Same);
    let hid = pre.map(|v| v.max(0.0));
    let y = conv2d_with(&one, scalar, &hid, &w2, &b2, Padding::Same).map(sigmoid);
    let gy = zip_map(&g, &y, |g, y| g * (y * (1.0 - y)));
    let c2 = conv2d_backward_with(&one, scalar, &hid, &w2, &gy, Padding::Same);
    let gh = zip_map(&c2.grad_input, &hid, |g, a| {
        g * if a > 0.0 { 1.0 } else { 0.0 }
    });
    let c1 = conv2d_backward_with(&one, scalar, &x, &w1, &gh, Padding::Same);
    let got = fused_cnn_backward(&x, &fused_cnn(&x, params), params, &g, false);
    assert_eq!(bits(&got.grad_b1), bits(&c1.grad_bias), "grad_b1");
    assert_eq!(bits(&got.grad_w1), bits(&c1.grad_weight), "grad_w1");

    // The setup does what the doc says: channel 0's masked gradient is
    // all -0.0, channel 1's mixes the two zeros.
    let p = h * w;
    let plane = |ch: usize| &gh.data()[ch * p..(ch + 1) * p];
    assert!(plane(0).iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));
    assert!(plane(1).iter().all(|&v| v == 0.0));
    assert!(plane(1).iter().any(|v| v.is_sign_positive()));
    assert!(plane(1).iter().any(|v| v.is_sign_negative()));

    // The per-image fold on the process-wide backend: conv1's weight
    // gradient over the zero-padded image, the unmasked hidden gradient
    // and the ReLU output, channels-last.
    let (hp, wp) = (h + 2, w + 2);
    let mut xpad = vec![0.0f32; hp * wp];
    for (y_, row) in x.data().chunks_exact(w).enumerate() {
        xpad[(y_ + 1) * wp + 1..][..w].copy_from_slice(row);
    }
    let channels_last = |t: &Tensor| -> Vec<f32> {
        (0..p)
            .flat_map(|px| (0..c).map(move |ch| (px, ch)))
            .map(|(px, ch)| t.data()[ch * p + px])
            .collect()
    };
    let (g_cl, act_cl) = (channels_last(&c2.grad_input), channels_last(&hid));
    let taps: Vec<usize> = (0..9).map(|t| (t / 3) * wp + t % 3).collect();
    let region = TapRegion {
        c,
        rows: h,
        cols: w,
        x_stride: wp,
        cl_stride: w,
    };
    let mut acc = vec![0.0f32; 9 * c];
    let mut sums = vec![f32::NAN; c];
    let relu = ReluGrad {
        act: &act_cl,
        act_stride: w,
        bias: &mut sums,
    };
    global_backend().conv_weight_channels_last(&mut acc, &xpad, &g_cl, &taps, region, relu);
    let want: Vec<f32> = (0..c).map(|ch| plane(ch).iter().sum()).collect();
    assert_eq!(sums[0].to_bits(), (-0.0f32).to_bits(), "dead channel");
    assert_eq!(sums[1].to_bits(), 0.0f32.to_bits(), "mixed-zero channel");
    assert_eq!(
        sums.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "per-image bias sums"
    );
}
