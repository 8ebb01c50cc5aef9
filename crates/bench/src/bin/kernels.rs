//! `kernels` — compute-backend micro-benchmark recorder.
//!
//! Measures the paper-shaped hot-path kernels, and the fused UE CNN the
//! 1-pixel training step runs (`fused_cnn_fwd` / `fused_cnn_bwd`), at
//! four tiers:
//!
//! * **ref** — the pre-backend scalar loops (naive i-k-j matmul, direct
//!   seven-loop convolution, and for the fused CNN the chain of those
//!   convolutions with a ReLU and a sigmoid), reimplemented here as the
//!   fixed baseline;
//! * **serial** — the portable `scalar` backend on an explicit
//!   one-thread [`ComputePool`];
//! * **pooled** — the `scalar` backend on the process-wide pool
//!   (`SLM_THREADS` wide);
//! * **simd** — the `std::arch` vector backend on one thread (falls
//!   back to the scalar kernels per call on hosts without AVX2/NEON).
//!
//! Tiers pin their backend explicitly, so the numbers mean the same
//! thing regardless of the ambient `SLM_BACKEND` selection. For matmul,
//! **ref** and **serial** share the i-k-j loop order, so the report's
//! `serial×` column there shows only what dropping the zero-skip branch
//! costs or buys.
//!
//! Each workload also asserts the backend's determinism contract: the
//! multi-thread scalar and the simd outputs must be **bitwise
//! identical** to the one-thread scalar one. The resulting batch of
//! [`KERNELS`] entries is appended to
//! `results/BENCH_kernels.json` and can be rendered / gated with
//! `slm-report --kernels [--check]`. Throughputs are recorded for the
//! trajectory but never gated — they are host-dependent.
//!
//! ```sh
//! kernels              # measure, append to results/BENCH_kernels.json
//! kernels --no-append  # measure + print only
//! kernels results2     # use a different results directory
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use sl_rng::rngs::StdRng;

use sl_bench::report::{append_trajectory, check, render_table, trajectory_path, Entry, KERNELS};
use sl_tensor::{
    backend_for, conv2d_backward_with, conv2d_with, fused_cnn_backward_with, fused_cnn_with,
    matmul_with, randn, sigmoid, Backend, BackendKind, ComputePool, FusedCnnParams, Padding,
    Tensor,
};

/// Fixed data seed so successive runs measure identical workloads.
const SEED: u64 = 0x6b65_726e;

const USAGE: &str = "usage: kernels [--no-append] [<results-dir>]";

fn main() -> ExitCode {
    let mut no_append = false;
    let mut results_dir = PathBuf::from("results");
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--no-append" => no_append = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("kernels: unknown flag {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
            dir => results_dir = PathBuf::from(dir),
        }
    }

    let now_s = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let serial = ComputePool::new(1);
    let pooled = ComputePool::global();
    eprintln!(
        "kernels: pooled tier runs {} thread(s) (set SLM_THREADS to change)",
        pooled.threads()
    );

    let pools = [&serial, pooled];
    let mut batch = Vec::new();
    // A dense-layer batch and the GRU gates.
    for (m, k, n) in [(256, 16, 64), (64, 96, 96)] {
        let mut rng = StdRng::seed_from_u64(SEED);
        let a = randn([m, k], 0.0, 1.0, &mut rng);
        let b = randn([k, n], 0.0, 1.0, &mut rng);
        batch.push(measure(
            now_s,
            pools,
            ("matmul", &format!("{m}x{k}x{n}")),
            2.0 * (m * k * n) as f64,
            || {
                std::hint::black_box(ref_matmul(a.data(), b.data(), m, k, n));
            },
            |pool, be| [matmul_with(pool, be, &a, &b)],
        ));
    }
    // Both UE convolutions, 1→8 and the 8→1 layer that dominates the
    // step: a batch of four 40×40 maps through a 3×3 'same' convolution.
    for (c_in, c_out) in [(1, 8), (8, 1)] {
        let mut rng = StdRng::seed_from_u64(SEED ^ c_in as u64);
        let x = randn([4, c_in, 40, 40], 0.0, 1.0, &mut rng);
        let w = randn([c_out, c_in, 3, 3], 0.0, 0.5, &mut rng);
        let b = randn([c_out], 0.0, 0.1, &mut rng);
        let flops = 2.0 * (4 * 40 * 40) as f64 * (c_out * c_in * 3 * 3) as f64;
        let shape = format!("4x{c_in}x40x40*{c_out}x{c_in}x3x3");
        let pad = Padding::Same;
        batch.push(measure(
            now_s,
            pools,
            ("conv2d_fwd", &shape),
            flops,
            || {
                std::hint::black_box(ref_conv2d(&x, &w, &b, pad));
            },
            |pool, be| [conv2d_with(pool, be, &x, &w, &b, pad)],
        ));
        let g = conv2d_with(&serial, backend_for(BackendKind::Scalar), &x, &w, &b, pad);
        // grad_input + grad_weight are each one forward-sized GEMM.
        batch.push(measure(
            now_s,
            pools,
            ("conv2d_bwd", &shape),
            2.0 * flops,
            || {
                std::hint::black_box(ref_conv2d_backward(&x, &w, &g, pad));
            },
            |pool, be| {
                let grads = conv2d_backward_with(pool, be, &x, &w, &g, pad);
                [grads.grad_input, grads.grad_weight, grads.grad_bias]
            },
        ));
    }

    // The fused UE CNN at the step's shape, conv(1→8) → ReLU → conv(8→1)
    // → sigmoid over four 40×40 frames: the kernels the 1-pixel step
    // actually runs. The backward is the parameter-gradient pass the UE
    // takes (no input gradient): a recomputed conv1, conv2's weight and
    // input gradients and conv1's weight gradient, four convolutions'
    // worth of multiply-adds.
    {
        let mut rng = StdRng::seed_from_u64(SEED ^ 0xf0);
        let x = randn([4, 1, 40, 40], 0.0, 1.0, &mut rng);
        let w1 = randn([8, 1, 3, 3], 0.0, 0.5, &mut rng);
        let b1 = randn([8], 0.0, 0.1, &mut rng);
        let w2 = randn([1, 8, 3, 3], 0.0, 0.5, &mut rng);
        let b2 = randn([1], 0.0, 0.1, &mut rng);
        let g = randn([4, 1, 40, 40], 0.0, 1.0, &mut rng);
        let params = FusedCnnParams {
            w1: &w1,
            b1: &b1,
            w2: &w2,
            b2: &b2,
        };
        let conv_flops = 2.0 * (4 * 40 * 40) as f64 * (8 * 3 * 3) as f64;
        let shape = "4x1x40x40*8x1x3x3*1x8x3x3";
        batch.push(measure(
            now_s,
            pools,
            ("fused_cnn_fwd", shape),
            2.0 * conv_flops,
            || {
                std::hint::black_box(ref_fused_cnn(&x, [&w1, &b1, &w2, &b2]));
            },
            |pool, be| [fused_cnn_with(pool, be, &x, params)],
        ));
        let y = fused_cnn_with(&serial, backend_for(BackendKind::Scalar), &x, params);
        batch.push(measure(
            now_s,
            pools,
            ("fused_cnn_bwd", shape),
            4.0 * conv_flops,
            || {
                std::hint::black_box(ref_fused_cnn_backward(&x, [&w1, &b1, &w2], &y, &g));
            },
            |pool, be| {
                let grads = fused_cnn_backward_with(pool, be, &x, &y, params, &g, false);
                [grads.grad_w1, grads.grad_b1, grads.grad_w2, grads.grad_b2]
            },
        ));
    }

    print!("{}", render_table(&KERNELS, &batch));
    let failures = check(&KERNELS, &batch, &[]);
    for f in &failures {
        eprintln!("kernels: FAIL {f}");
    }

    if !no_append {
        let path = trajectory_path(&results_dir, KERNELS.name);
        match append_trajectory(&KERNELS, &path, KERNELS.name, &batch) {
            Ok(total) => eprintln!(
                "kernels: appended {} entries to {} ({total} total)",
                batch.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("kernels: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Times one kernel workload at the four tiers and checks the pooled
/// and simd outputs bitwise against the one-thread scalar output.
/// `reference` runs the pre-backend loop; `run(pool, backend)` runs the
/// backend kernel and returns its output tensors.
fn measure<const N: usize>(
    now_s: u64,
    [serial, pooled]: [&ComputePool; 2],
    (kernel, shape): (&str, &str),
    flops: f64,
    reference: impl FnMut(),
    run: impl Fn(&ComputePool, &dyn Backend) -> [Tensor; N],
) -> Entry {
    let scalar = backend_for(BackendKind::Scalar);
    let tiers = [
        (serial, scalar),
        (pooled, scalar),
        (serial, backend_for(BackendKind::Simd)),
    ];
    let ref_gflops = time_gflops(flops, reference);
    let [serial_gflops, pooled_gflops, simd_gflops] = tiers.map(|(pool, be)| {
        time_gflops(flops, || {
            std::hint::black_box(run(pool, be));
        })
    });
    let want = run(serial, scalar);
    let eq = tiers[1..].iter().all(|&(pool, be)| {
        let got = run(pool, be);
        got.iter().zip(&want).all(|(a, b)| bitwise_equal(a, b))
    });
    eprintln!("kernels: {kernel} {shape}");
    Entry::new()
        .num("timestamp_s", now_s as f64)
        .str("kernel", kernel)
        .str("shape", shape)
        .num("threads", pooled.threads() as f64)
        .num("ref_gflops", ref_gflops)
        .num("serial_gflops", serial_gflops)
        .num("pooled_gflops", pooled_gflops)
        .num("simd_gflops", simd_gflops)
        .bool("bitwise_equal", eq)
}

/// Best-observed throughput for `f`, in GFLOP/s: one warm-up call, then
/// three samples of `reps` calls sized to ~20 ms each.
fn time_gflops(flops: f64, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let reps = ((0.02 / once).ceil() as usize).clamp(1, 2000);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() / reps as f64);
    }
    flops / best.max(1e-9) / 1e9
}

fn bitwise_equal(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The pre-backend matmul idiom: i-k-j accumulation into the output
/// row, with the zero-skip branch the backend removed.
fn ref_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for kk in 0..k {
            let aik = a[i * k + kk];
            // slm-lint: allow(float-cmp) reproducing the removed zero-skip idiom verbatim
            if aik == 0.0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += aik * bv;
            }
        }
    }
    out
}

/// The pre-backend convolution idiom: direct loops over every output
/// position and filter tap, no im2col.
fn ref_conv2d(x: &Tensor, w: &Tensor, bias: &Tensor, pad: Padding) -> Tensor {
    let (n, c_in, h, wi) = dims4(x);
    let (c_out, _, kh, kw) = dims4(w);
    let (ph, pw) = pad.amounts(kh, kw);
    let (ho, wo) = pad.output_size(h, wi, kh, kw);
    let mut out = Tensor::zeros([n, c_out, ho, wo]);
    for img in 0..n {
        for o in 0..c_out {
            for y in 0..ho {
                for xx in 0..wo {
                    let mut acc = bias.data()[o];
                    for c in 0..c_in {
                        for dy in 0..kh {
                            for dx in 0..kw {
                                let iy = y + dy;
                                let ix = xx + dx;
                                if iy >= ph && ix >= pw && iy - ph < h && ix - pw < wi {
                                    acc +=
                                        x.at(&[img, c, iy - ph, ix - pw]) * w.at(&[o, c, dy, dx]);
                                }
                            }
                        }
                    }
                    *out.at_mut(&[img, o, y, xx]) = acc;
                }
            }
        }
    }
    out
}

/// Direct-loop backward matching [`ref_conv2d`]'s summation structure.
fn ref_conv2d_backward(x: &Tensor, w: &Tensor, g: &Tensor, pad: Padding) -> (Tensor, Tensor) {
    let (n, c_in, h, wi) = dims4(x);
    let (c_out, _, kh, kw) = dims4(w);
    let (ph, pw) = pad.amounts(kh, kw);
    let (_, _, ho, wo) = dims4(g);
    let mut gx = Tensor::zeros(x.dims());
    let mut gw = Tensor::zeros(w.dims());
    for img in 0..n {
        for o in 0..c_out {
            for y in 0..ho {
                for xx in 0..wo {
                    let gv = g.at(&[img, o, y, xx]);
                    for c in 0..c_in {
                        for dy in 0..kh {
                            for dx in 0..kw {
                                let iy = y + dy;
                                let ix = xx + dx;
                                if iy >= ph && ix >= pw && iy - ph < h && ix - pw < wi {
                                    *gw.at_mut(&[o, c, dy, dx]) +=
                                        gv * x.at(&[img, c, iy - ph, ix - pw]);
                                    *gx.at_mut(&[img, c, iy - ph, ix - pw]) +=
                                        gv * w.at(&[o, c, dy, dx]);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    (gx, gw)
}

/// The fused UE CNN as the pre-backend loops run it: [`ref_conv2d`],
/// a ReLU, [`ref_conv2d`], a sigmoid.
fn ref_fused_cnn(x: &Tensor, [w1, b1, w2, b2]: [&Tensor; 4]) -> Tensor {
    let hidden = ref_conv2d(x, w1, b1, Padding::Same).map(|v| v.max(0.0));
    ref_conv2d(&hidden, w2, b2, Padding::Same).map(sigmoid)
}

/// The parameter gradients of [`ref_fused_cnn`] from its output `y` and
/// the upstream gradient `g`, through [`ref_conv2d_backward`]: the
/// hidden map is recomputed, as the fused backward does.
fn ref_fused_cnn_backward(
    x: &Tensor,
    [w1, b1, w2]: [&Tensor; 3],
    y: &Tensor,
    g: &Tensor,
) -> (Tensor, Tensor) {
    let hidden = ref_conv2d(x, w1, b1, Padding::Same).map(|v| v.max(0.0));
    let mut gy = g.clone();
    for (d, &yv) in gy.data_mut().iter_mut().zip(y.data()) {
        *d *= yv * (1.0 - yv);
    }
    let (mut gh, gw2) = ref_conv2d_backward(&hidden, w2, &gy, Padding::Same);
    for (d, &a) in gh.data_mut().iter_mut().zip(hidden.data()) {
        *d *= if a > 0.0 { 1.0 } else { 0.0 };
    }
    let (_, gw1) = ref_conv2d_backward(x, w1, &gh, Padding::Same);
    (gw1, gw2)
}

fn dims4(t: &Tensor) -> (usize, usize, usize, usize) {
    let d = t.dims();
    (d[0], d[1], d[2], d[3])
}
