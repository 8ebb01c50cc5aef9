//! 2-D convolution (stride 1) in `NCHW` layout, with the full backward
//! pass needed for training the UE-side CNN.
//!
//! The split network uses 'same'-padded 3×3 convolutions so that the CNN
//! output keeps the `N_H × N_W` spatial size of the raw depth image (the
//! paper's average-pooling cut layer then divides each spatial dimension
//! by the pooling size). Only stride 1 is implemented — the paper's
//! architecture needs nothing else, and leaving stride out keeps the
//! kernels small and auditable.
//!
//! # Lowering
//!
//! Per image, the input is unrolled into a column matrix `Col: [K × P]`
//! (`im2col`, zeros at padding taps), with `K = C_in·kh·kw` and
//! `P = H_out·W_out`. The weight tensor `[C_out, C_in, kh, kw]` is
//! already a row-major `[C_out × K]` matrix, so:
//!
//! * forward: `Out_n = W · Col_n` (+ bias). `Col_n` is never built: the
//!   same sums (ascending `k`, from `0.0`) are accumulated row by row
//!   from a zero-padded copy of the image by the selected [`Backend`]'s
//!   `conv_direct` (`SLM_BACKEND`; `*_with` variants take an explicit
//!   one), which measured faster than `im2col` and an `ab` GEMM at every
//!   shape tried (see `forward_image`);
//! * weight gradient: `∂W_n[co, k] = Σ_p G_n[co, p]·Col_n[k, p]`, reduced
//!   over images serially in ascending image order;
//! * input gradient: `∂X_n = col2im(Wᵀ · G_n)`, as one fused pass.
//!
//! ## Weight gradient: at least 8 outputs in the lanes
//!
//! The textbook form `G_n · Col_nᵀ` is an `a_bt` at skinny shapes
//! (`[1×1600]·[72×1600]ᵀ` and `[8×1600]·[9×1600]ᵀ` for the UE CNN). The
//! vector kernel packs 16-column panels of distinct *output columns*;
//! the ragged columns left over (all 9 of the first shape's, 8 of the
//! second's 72) are scalar dot products, each a dependent add chain
//! `P = 1600` steps long. Those tails are latency-bound — one add latency
//! per step, with nothing else to overlap.
//!
//! The same sums therefore run with the lanes across whichever output
//! axis fills them, picked from the shape alone — the one leaving fewer
//! outputs in a partly filled 8-lane vector (`(columns mod 8) · rows`),
//! taps on a tie:
//!
//! * **channels** — `Col_n · G_nᵀ → [K × C_out]` as an `ab` over the
//!   pre-transposed `G_nᵀ`, transposed into place afterwards (the 1→8
//!   conv: `[9×1600]·[1600×8]`);
//! * **taps** — the image is copied channels-last with its padding, so
//!   each pixel's taps of one kernel row are a contiguous run, added into
//!   a matching run of accumulators pixel by pixel (the 8→1 conv: 72
//!   accumulators fed by three 24-float runs per pixel). This reads the
//!   operand in place instead of writing a `[P × K]` transposed copy,
//!   which at 460 KB per image cost more than the sums.
//!
//! Either way each output is still one accumulator summed in ascending
//! `p`, one multiply then one add per step; the channels orientation
//! only commutes each product's factors, which changes nothing unless
//! both factors are NaNs with different payloads.
//!
//! ## Input gradient: fused `col2im`
//!
//! `∂Col_n = Wᵀ · G_n` is never materialised. For each tap `k` (in
//! `col2im`'s ascending order) and each output row, the row segment of
//! `∂Col_n[k, ·]` is summed over `co` (ascending, from `0.0`) and added
//! straight into `∂X_n` — for one output channel in a single pass. Every
//! input pixel thus receives exactly the adds of the unfused scatter, in
//! the same order.
//!
//! # Fused UE CNN
//!
//! [`fused_cnn`] runs the paper's whole UE CNN, `Conv2d(1→C) → ReLU →
//! Conv2d(C→1) → Sigmoid` ('same' padding), one image per pool job. The
//! image's hidden map lives in the thread's scratch (55 KB at `C = 8`,
//! 40×40) and is never written to a batch tensor. Each operand crosses
//! memory once: the kernels apply every bias, ReLU, ReLU′ and bias
//! gradient on their way through it, so no elementwise sweep is left.
//! The forward runs conv1 by [`Backend::conv_direct`] with a bias + ReLU
//! [`Epilogue`] at an output row stride that writes each channel straight
//! into the interior of conv2's zero-bordered padded planes, then conv2
//! the same way with a bias epilogue, then [`sigmoid`].
//!
//! [`fused_cnn_backward`] keeps nothing from the forward but its input
//! and its sigmoid output, both one channel. Per image it recomputes the
//! hidden map, then runs sigmoid′ → conv2's weight and input gradients →
//! ReLU′ → conv1's weight gradient, plus both bias gradients (and, when
//! asked for, conv1's input gradient), all on that image's buffers, with
//! nothing unrolled. The hidden map and its gradient are kept
//! channels-last (`[pixel × C]`): conv1 and its weight gradient are 1→C
//! correlations over the zero-padded image
//! ([`Backend::conv_channels_last`] with the bias + ReLU epilogue, into
//! a buffer whose border alone is zeroed;
//! [`Backend::conv_weight_channels_last`] with a [`ReluGrad`], which
//! masks the gradient by ReLU′ and sums `b1`'s gradient in the same
//! pass), conv2's weight gradient is [`Backend::conv_weight_taps`] on
//! the padded map in place (summing `b2`'s gradient in its pixel loop),
//! and conv2's input gradient is `conv_channels_last` over the upstream
//! gradient, once per rectangle of elements that the same taps reach
//! (the interior, the edges, the corners). Each image writes its four
//! parameter gradients into its own slot; the slots are reduced in
//! ascending image order, as [`conv2d_backward`] reduces its per-image
//! weight partials.
//!
//! Every output bit equals that of the four-layer chain, NaN positions
//! included. Each conv output and gradient element is still one
//! accumulator summed in ascending `k` (or `p`), one multiply then one
//! add, from `0.0`: the recomputed map is the forward's sum with each
//! product's factors commuted (which changes nothing but a NaN's
//! payload), and conv2's input gradient sums `w·g` over exactly the taps
//! that reach each element, in ascending order, as the fused `col2im`
//! does (its `0.0 + w·g` rounds the same, since a sum that starts at
//! `0.0` is never `-0.0`). ReLU is `max(x, 0)`, ReLU′ a multiply by
//! `1.0` or `0.0` (so a NaN gradient stays NaN), sigmoid′ `g·(y·(1 -
//! y))`, and each image's bias gradients the fold `Iterator::sum`
//! computes (from `-0.0`, in ascending pixel order) — the operations
//! `sl-nn`'s activation layers and [`conv2d_backward`] perform. Folding
//! an operation into a kernel moves where it runs, never its operands,
//! their order or a sum's start, so no bit changes.
//!
//! # Scratch
//!
//! Padded and unrolled operands live in one per-thread scratch buffer
//! that grows to the largest request and is reused across images and
//! calls, so the hot path allocates no per-image buffers. Padding and
//! unrolling write every element (a padded copy zeroes its border and
//! copies, or has a kernel write, its interior), so stale contents never
//! leak.
//!
//! # Determinism
//!
//! Parallelism is one image per pool job: each job owns a disjoint slice
//! of the output (or of per-image gradient slots, reduced afterwards in
//! ascending image order on the calling thread), and within a job every
//! output element is a single accumulator summed in ascending `k` order.
//! Results are therefore bitwise identical at every thread count.
//!
//! Like `linalg`, the kernels deliberately do **not** skip zero weights
//! or zero activations: `0 × NaN` must reach the accumulator so that
//! non-finite blowups propagate to the training-health watchdog instead
//! of being silently masked.

use std::cell::RefCell;
use std::ops::Range;

use sl_telemetry::host;

use crate::backend::{
    global_backend, relu_grad, Backend, Epilogue, PaddedConv, ReluGrad, TapRegion,
};
use crate::pool::ComputePool;
use crate::tensor::Tensor;

/// Spatial padding policy for [`conv2d`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Padding {
    /// No padding; output is `H - kh + 1` × `W - kw + 1`.
    Valid,
    /// Zero-padding of `(k-1)/2` on each side; output keeps the input
    /// spatial size (requires odd kernel sizes).
    Same,
}

impl Padding {
    /// `(pad_h, pad_w)` for a `kh × kw` kernel.
    ///
    /// # Panics
    /// Panics for [`Padding::Same`] with an even kernel size, which cannot
    /// be padded symmetrically.
    pub fn amounts(self, kh: usize, kw: usize) -> (usize, usize) {
        match self {
            Padding::Valid => (0, 0),
            Padding::Same => {
                assert!(
                    kh % 2 == 1 && kw % 2 == 1,
                    "Padding::Same requires odd kernel sizes, got {kh}x{kw}"
                );
                ((kh - 1) / 2, (kw - 1) / 2)
            }
        }
    }

    /// Output spatial size for an `h × w` input and `kh × kw` kernel.
    pub fn output_size(self, h: usize, w: usize, kh: usize, kw: usize) -> (usize, usize) {
        let (ph, pw) = self.amounts(kh, kw);
        assert!(
            h + 2 * ph >= kh && w + 2 * pw >= kw,
            "conv2d: kernel {kh}x{kw} larger than padded input {h}x{w}"
        );
        (h + 2 * ph - kh + 1, w + 2 * pw - kw + 1)
    }
}

/// Lane width the weight-gradient orientation rule packs outputs for
/// (one AVX2 vector of `f32`).
const LANES: usize = 8;

thread_local! {
    /// Per-thread unrolling scratch (see the module docs).
    static SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on this thread's scratch, grown to at least `len` floats.
/// Contents are unspecified on entry.
fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    })
}

/// Shape-checked problem geometry shared by both passes.
#[derive(Clone, Copy)]
struct ConvGeom {
    n: usize,
    c_in: usize,
    c_out: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    ph: usize,
    pw: usize,
    ho: usize,
    wo: usize,
}

impl ConvGeom {
    /// Validates `input: [N, C_in, H, W]` against `weight:
    /// [C_out, C_in, kh, kw]` under `padding`.
    fn new(input: &Tensor, weight: &Tensor, padding: Padding) -> ConvGeom {
        assert_eq!(
            input.shape().rank(),
            4,
            "conv2d: input {} is not NCHW rank-4",
            input.shape()
        );
        assert_eq!(
            weight.shape().rank(),
            4,
            "conv2d: weight {} is not [out_c, in_c, kh, kw] rank-4",
            weight.shape()
        );
        let (n, c_in, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        let (c_out, wc_in, kh, kw) = (
            weight.dims()[0],
            weight.dims()[1],
            weight.dims()[2],
            weight.dims()[3],
        );
        assert_eq!(
            c_in, wc_in,
            "conv2d: input channels {} do not match weight channels {}",
            c_in, wc_in
        );
        let (ph, pw) = padding.amounts(kh, kw);
        let (ho, wo) = padding.output_size(h, w, kh, kw);
        ConvGeom {
            n,
            c_in,
            c_out,
            h,
            w,
            kh,
            kw,
            ph,
            pw,
            ho,
            wo,
        }
    }

    /// Unrolled patch length `K = C_in·kh·kw`.
    fn k(&self) -> usize {
        self.c_in * self.kh * self.kw
    }

    /// Output pixels per channel `P = H_out·W_out`.
    fn p(&self) -> usize {
        self.ho * self.wo
    }

    /// Input floats per image.
    fn x_per(&self) -> usize {
        self.c_in * self.h * self.w
    }

    /// The per-image geometry the [`Backend`] convolution kernels take.
    fn padded(&self) -> PaddedConv {
        PaddedConv {
            c_in: self.c_in,
            kh: self.kh,
            kw: self.kw,
            ho: self.ho,
            wo: self.wo,
        }
    }

    /// Output rows `oy_lo..oy_hi` whose vertical tap `dy` lands inside
    /// the (virtually padded) input.
    fn tap_rows(&self, dy: usize) -> (usize, usize) {
        let lo = self.ph.saturating_sub(dy);
        let hi = (self.h + self.ph).saturating_sub(dy).min(self.ho);
        (lo, hi.max(lo))
    }

    /// Output columns `ox_lo..ox_hi` whose horizontal tap `dx` lands
    /// inside the input.
    fn tap_cols(&self, dx: usize) -> (usize, usize) {
        let lo = self.pw.saturating_sub(dx).min(self.wo);
        let hi = (self.w + self.pw).saturating_sub(dx).min(self.wo);
        (lo, hi.max(lo))
    }
}

/// Unrolls one image `x: [C_in, H, W]` into `col: [K × P]`, writing every
/// element (zeros at padding taps).
fn im2col(col: &mut [f32], x: &[f32], gm: ConvGeom) {
    let (p, hw) = (gm.p(), gm.h * gm.w);
    let mut rows = col.chunks_exact_mut(p);
    for plane in x.chunks_exact(hw) {
        for dy in 0..gm.kh {
            let (oy_lo, oy_hi) = gm.tap_rows(dy);
            for dx in 0..gm.kw {
                let (ox_lo, ox_hi) = gm.tap_cols(dx);
                let Some(row) = rows.next() else { return };
                for (oy, out) in row.chunks_exact_mut(gm.wo).enumerate() {
                    if oy < oy_lo || oy >= oy_hi || ox_lo == ox_hi {
                        out.fill(0.0);
                        continue;
                    }
                    let src = (oy + dy - gm.ph) * gm.w + ox_lo + dx - gm.pw;
                    out[..ox_lo].fill(0.0);
                    out[ox_lo..ox_hi].copy_from_slice(&plane[src..src + (ox_hi - ox_lo)]);
                    out[ox_hi..].fill(0.0);
                }
            }
        }
    }
}

/// Floats of one image's zero-padded copy, planar ([`pad_planes`]) or
/// channels-last ([`pad_channels_last`]).
fn padded_len(gm: ConvGeom) -> usize {
    gm.c_in * (gm.ho + gm.kh - 1) * (gm.wo + gm.kw - 1)
}

/// Zeroes the padding of each `[Hp × Wp]` plane of `buf` (`Hp = H_out +
/// kh - 1`, `Wp = W_out + kw - 1`, `c` floats per pixel: the planar
/// copy's `C_in` planes at `c = 1`, or the channels-last copy's one
/// plane at `c = C_in`), leaving the `H × W` interior at `(ph, pw)` to
/// whoever writes it.
fn zero_border(buf: &mut [f32], gm: ConvGeom, c: usize) {
    let row = (gm.wo + gm.kw - 1) * c;
    let (left, right) = (gm.pw * c, (gm.pw + gm.w) * c);
    for plane in buf.chunks_exact_mut((gm.ho + gm.kh - 1) * row) {
        let (top, rest) = plane.split_at_mut(gm.ph * row);
        let (mid, bottom) = rest.split_at_mut(gm.h * row);
        top.fill(0.0);
        bottom.fill(0.0);
        for r in mid.chunks_exact_mut(row) {
            r[..left].fill(0.0);
            r[right..].fill(0.0);
        }
    }
}

/// Copies one image `x: [C_in, H, W]` into `xpad: [C_in, Hp, Wp]` with
/// its zero padding materialised (`Hp = H_out + kh - 1`,
/// `Wp = W_out + kw - 1`, the window the taps read), so that tap
/// `(ci, dy, dx)` of output row `oy` is the contiguous run starting at
/// `(ci·Hp + oy + dy)·Wp + dx`.
fn pad_planes(xpad: &mut [f32], x: &[f32], gm: ConvGeom) {
    let (hp, wp) = (gm.ho + gm.kh - 1, gm.wo + gm.kw - 1);
    zero_border(xpad, gm, 1);
    for (ci, plane) in x.chunks_exact(gm.h * gm.w).enumerate() {
        for (y, src) in plane.chunks_exact(gm.w).enumerate() {
            let d = (ci * hp + y + gm.ph) * wp + gm.pw;
            xpad[d..d + gm.w].copy_from_slice(src);
        }
    }
}

/// One image's forward with bias into `out_n: [C_out × P]`: the image is
/// padded once (into `scratch`, [`padded_len`] floats), then
/// [`Backend::conv_direct`] runs once per output channel. Each output is
/// `Σ_k W[co, k]·Col[k, p]`, one accumulator summed from `0.0` in
/// ascending `k`; the kernel adds the bias on the way out.
///
/// The direct path beat `im2col` + `ab` in most pairs at every shape
/// measured on a 2-vCPU x86_64 host (AVX2, one thread, 3×3 'same' at
/// 40×40, best of 15 per run, alternating runs, equal output digests):
/// `1 → 8` over 256 images 4.5–6.7 ms against 5.2–7.1 (8 of 9 pairs);
/// every pair at `1 → 2` (1.1–1.5 against 1.8–3.2 ms), `8 → 2`,
/// `8 → 4`, `8 → 8` (3.8–6.3 against 5.3–7.9), `8 → 16`, `16 → 16` and
/// `17 → 9` (4.3–5.6 against 8.9–9.9); 4 of 5 at `3 → 8`, 3 of 4 at
/// `1 → 16` and `8 → 32`.
fn forward_image(
    backend: &dyn Backend,
    out_n: &mut [f32],
    x_n: &[f32],
    wt: &[f32],
    b: &[f32],
    gm: ConvGeom,
    scratch: &mut [f32],
) {
    let (k_sz, p_sz) = (gm.k(), gm.p());
    let xpad = &mut scratch[..padded_len(gm)];
    pad_planes(xpad, x_n, gm);
    let channels = out_n.chunks_exact_mut(p_sz).zip(wt.chunks_exact(k_sz));
    for ((out_c, w_c), b_c) in channels.zip(b.chunks_exact(1)) {
        backend.conv_direct(out_c, gm.wo, xpad, w_c, gm.padded(), Epilogue::Bias(b_c));
    }
}

/// Copies one image `x: [C_in, H, W]` channels-last into `xp`, padding
/// included: `xp[(y·Wp + x)·C_in + ci]` is input `(ci, y - ph, x - pw)`,
/// zero outside the image, over the `(H_out + kh - 1) × Wp` window the
/// taps read (`Wp = W_out + kw - 1`). For each kernel row `dy`, output
/// pixel `(oy, ox)`'s `kw·C_in` taps `(dx, ci)` are then the contiguous
/// run starting at `((oy + dy)·Wp + ox)·C_in`.
fn pad_channels_last(xp: &mut [f32], x: &[f32], gm: ConvGeom) {
    let (c_in, hw, wp) = (gm.c_in, gm.h * gm.w, gm.wo + gm.kw - 1);
    zero_border(xp, gm, c_in);
    // Gather per pixel so the writes stay contiguous.
    for y in 0..gm.h {
        let start = ((y + gm.ph) * wp + gm.pw) * c_in;
        let row = &mut xp[start..start + gm.w * c_in];
        for (xx, px) in row.chunks_exact_mut(c_in).enumerate() {
            for (ci, v) in px.iter_mut().enumerate() {
                *v = x[ci * hw + y * gm.w + xx];
            }
        }
    }
}

/// Index in the channels-last `(dy, dx, ci)` tap order of weight tap `k`
/// (`(ci, dy, dx)` order).
fn channels_last_tap(k: usize, gm: ConvGeom) -> usize {
    let (ci, t) = (k / (gm.kh * gm.kw), k % (gm.kh * gm.kw));
    t * gm.c_in + ci
}

/// `dst[c × r] = srcᵀ` for `src: [r × c]`.
fn transpose_into(dst: &mut [f32], src: &[f32], r: usize, c: usize) {
    // Gather so the writes stay contiguous.
    for (j, dst_row) in dst.chunks_exact_mut(r).take(c).enumerate() {
        for (i, d) in dst_row.iter_mut().enumerate() {
            *d = src[i * c + j];
        }
    }
}

/// Which output axis the weight gradient puts in the vector lanes (see
/// the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WeightGradLayout {
    /// The `K` taps, accumulated from the channels-last image.
    Taps,
    /// The `C_out` channels: `Col_n · G_nᵀ → [K × C_out]` as an `ab`.
    Channels,
}

impl WeightGradLayout {
    fn for_shape(c_out: usize, k: usize) -> WeightGradLayout {
        let ragged = |cols: usize, rows: usize| (cols % LANES) * rows;
        if ragged(k, c_out) <= ragged(c_out, k) {
            WeightGradLayout::Taps
        } else {
            WeightGradLayout::Channels
        }
    }
}

/// One image's weight gradient `gw_n[co, k] = Σ_p g_n[co, p]·Col[k, p]`
/// (ascending `p`, one accumulator per output) into `gw_n: [C_out × K]`.
fn weight_grad(backend: &dyn Backend, gw_n: &mut [f32], x_n: &[f32], g_n: &[f32], gm: ConvGeom) {
    let (c_out, k_sz, p_sz) = (gm.c_out, gm.k(), gm.p());
    match WeightGradLayout::for_shape(c_out, k_sz) {
        WeightGradLayout::Taps => {
            with_scratch(padded_len(gm) + c_out * k_sz, |s| {
                let (xp, acc) = s.split_at_mut(padded_len(gm));
                pad_channels_last(xp, x_n, gm);
                backend.conv_weight_taps(acc, xp, g_n, gm.padded(), None);
                for (dst, src) in gw_n.chunks_exact_mut(k_sz).zip(acc.chunks_exact(k_sz)) {
                    for (k, d) in dst.iter_mut().enumerate() {
                        *d = src[channels_last_tap(k, gm)];
                    }
                }
            });
        }
        WeightGradLayout::Channels => {
            with_scratch(k_sz * p_sz + p_sz * c_out + k_sz * c_out, |s| {
                let (col, rest) = s.split_at_mut(k_sz * p_sz);
                let (g_t, gw_t) = rest.split_at_mut(p_sz * c_out);
                im2col(col, x_n, gm);
                transpose_into(g_t, g_n, c_out, p_sz);
                backend.ab(gw_t, col, g_t, k_sz, p_sz, c_out);
                transpose_into(gw_n, gw_t, k_sz, c_out);
            });
        }
    }
}

/// One image's input gradient `gx_n += col2im(Wᵀ · g_n)`, fused: for
/// each tap `k` (ascending) and output row, the `∂Col[k, ·]` segment
/// `Σ_co W[co, k]·g_n[co, ·]` (ascending `co`, from `0.0`) is added into
/// `gx_n`. The first channel's term is written as `0.0 + w·g` and the last
/// is fused into the add, so one output channel needs no scratch; `seg`
/// holds `W_out` floats for the rest.
fn input_grad(gx_n: &mut [f32], wt: &[f32], g_n: &[f32], seg: &mut [f32], gm: ConvGeom) {
    let (k_sz, p_sz, hw, c_out) = (gm.k(), gm.p(), gm.h * gm.w, gm.c_out);
    let mut k = 0usize;
    for ci in 0..gm.c_in {
        for dy in 0..gm.kh {
            let (oy_lo, oy_hi) = gm.tap_rows(dy);
            for dx in 0..gm.kw {
                let (ox_lo, ox_hi) = gm.tap_cols(dx);
                let len = ox_hi - ox_lo;
                let w = |co: usize| wt[co * k_sz + k];
                let (w_first, w_last) = (w(0), w(c_out - 1));
                for oy in (oy_lo..oy_hi).filter(|_| len > 0) {
                    let o = oy * gm.wo + ox_lo;
                    let g_row = |co: usize| &g_n[co * p_sz + o..co * p_sz + o + len];
                    let d = ci * hw + (oy + dy - gm.ph) * gm.w + ox_lo + dx - gm.pw;
                    let dst = &mut gx_n[d..d + len];
                    if c_out == 1 {
                        for (x, &g) in dst.iter_mut().zip(g_row(0)) {
                            *x += 0.0 + w_first * g;
                        }
                        continue;
                    }
                    let seg = &mut seg[..len];
                    for (s, &g) in seg.iter_mut().zip(g_row(0)) {
                        *s = 0.0 + w_first * g;
                    }
                    for co in 1..c_out - 1 {
                        let wc = w(co);
                        for (s, &g) in seg.iter_mut().zip(g_row(co)) {
                            *s += wc * g;
                        }
                    }
                    for ((x, &s), &g) in dst.iter_mut().zip(seg.iter()).zip(g_row(c_out - 1)) {
                        *x += s + w_last * g;
                    }
                }
                k += 1;
            }
        }
    }
}

/// Stride-1 2-D convolution on the process-wide pool.
///
/// * `input`: `[N, C_in, H, W]`
/// * `weight`: `[C_out, C_in, kh, kw]`
/// * `bias`: `[C_out]`
///
/// Returns `[N, C_out, H_out, W_out]` where the output spatial size follows
/// from `padding` (see [`Padding::output_size`]).
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: &Tensor, padding: Padding) -> Tensor {
    conv2d_in(ComputePool::global(), input, weight, bias, padding)
}

/// [`conv2d`] on an explicit pool and the process-wide backend.
pub fn conv2d_in(
    pool: &ComputePool,
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    padding: Padding,
) -> Tensor {
    conv2d_with(pool, global_backend(), input, weight, bias, padding)
}

/// [`conv2d`] on an explicit pool and backend.
pub fn conv2d_with(
    pool: &ComputePool,
    backend: &dyn Backend,
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    padding: Padding,
) -> Tensor {
    let gm = ConvGeom::new(input, weight, padding);
    assert_eq!(
        bias.numel(),
        gm.c_out,
        "conv2d: bias length {} does not match output channels {}",
        bias.numel(),
        gm.c_out
    );
    let (c_out, p_sz, x_per) = (gm.c_out, gm.p(), gm.x_per());

    host::time("tensor.kernel.conv2d_fwd", || {
        let x = input.data();
        let wt = weight.data();
        let b = bias.data();

        let mut out = vec![0.0f32; gm.n * c_out * p_sz];
        if !out.is_empty() {
            // One image per job: each job owns a disjoint [C_out × P] output
            // slab and unrolls into its thread's scratch.
            pool.run_chunks(&mut out, c_out * p_sz, |img, chunk| {
                let x_n = &x[img * x_per..(img + 1) * x_per];
                with_scratch(padded_len(gm), |s| {
                    forward_image(backend, chunk, x_n, wt, b, gm, s)
                });
            });
        }
        Tensor::from_parts([gm.n, c_out, gm.ho, gm.wo], out)
    })
}

/// Gradients produced by [`conv2d_backward`].
pub struct Conv2dGrads {
    /// Gradient with respect to the input, `[N, C_in, H, W]`.
    pub grad_input: Tensor,
    /// Gradient with respect to the weights, `[C_out, C_in, kh, kw]`.
    pub grad_weight: Tensor,
    /// Gradient with respect to the bias, `[C_out]`.
    pub grad_bias: Tensor,
}

/// Backward pass of [`conv2d`], on the process-wide pool.
///
/// Given the upstream gradient `grad_out` (`[N, C_out, H_out, W_out]`, same
/// shape as the forward output), produces the gradients with respect to
/// the input, weights and bias.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    padding: Padding,
) -> Conv2dGrads {
    conv2d_backward_in(ComputePool::global(), input, weight, grad_out, padding)
}

/// [`conv2d_backward`] on an explicit pool and the process-wide backend.
pub fn conv2d_backward_in(
    pool: &ComputePool,
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    padding: Padding,
) -> Conv2dGrads {
    conv2d_backward_with(pool, global_backend(), input, weight, grad_out, padding)
}

/// [`conv2d_backward`] on an explicit pool and backend.
pub fn conv2d_backward_with(
    pool: &ComputePool,
    backend: &dyn Backend,
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    padding: Padding,
) -> Conv2dGrads {
    let gm = backward_geom(input, weight, grad_out, padding);
    host::time("tensor.kernel.conv2d_bwd", || {
        let (grad_weight, grad_bias) = param_grads(
            pool,
            backend,
            gm,
            input.data(),
            weight.data(),
            grad_out.data(),
        );
        let mut gx = vec![0.0f32; input.numel()];
        input_grads(pool, gm, weight.data(), grad_out.data(), &mut gx);
        Conv2dGrads {
            grad_input: Tensor::from_parts(input.shape().clone(), gx),
            grad_weight,
            grad_bias,
        }
    })
}

/// [`ConvGeom::new`] plus the check that `grad_out` has the forward
/// output's shape.
fn backward_geom(input: &Tensor, weight: &Tensor, grad_out: &Tensor, padding: Padding) -> ConvGeom {
    let gm = ConvGeom::new(input, weight, padding);
    let (n, c_out, ho, wo) = (gm.n, gm.c_out, gm.ho, gm.wo);
    assert_eq!(
        grad_out.dims(),
        &[n, c_out, ho, wo],
        "conv2d_backward: grad_out {} does not match expected [{n}x{c_out}x{ho}x{wo}]",
        grad_out.shape()
    );
    gm
}

/// Weight and bias gradients over all images.
fn param_grads(
    pool: &ComputePool,
    backend: &dyn Backend,
    gm: ConvGeom,
    x: &[f32],
    wt: &[f32],
    g: &[f32],
) -> (Tensor, Tensor) {
    let (n, c_out, p_sz, x_per) = (gm.n, gm.c_out, gm.p(), gm.x_per());
    let w_len = wt.len();
    let g_per = c_out * p_sz;

    // Bias gradient: a cheap serial reduction over the spatial maps, in
    // ascending image order.
    let mut gb = vec![0.0f32; c_out];
    for img in 0..n {
        for (co, gb_co) in gb.iter_mut().enumerate() {
            let base = (img * c_out + co) * p_sz;
            *gb_co += g[base..base + p_sz].iter().sum::<f32>();
        }
    }

    // Per-image weight-gradient partials in disjoint slots, reduced below
    // in ascending image order so the sum's accumulation order never
    // depends on the thread count.
    let mut gw_parts = vec![0.0f32; n * w_len];
    if !gw_parts.is_empty() {
        pool.run_chunks(&mut gw_parts, w_len, |img, gw_n| {
            let x_n = &x[img * x_per..(img + 1) * x_per];
            weight_grad(backend, gw_n, x_n, &g[img * g_per..(img + 1) * g_per], gm);
        });
    }
    let mut gw = vec![0.0f32; w_len];
    if w_len > 0 {
        for part in gw_parts.chunks_exact(w_len) {
            // Per element one exactly-rounded add per image, so the
            // reduction is backend- and lane-width-independent.
            backend.add_assign(&mut gw, part);
        }
    }
    (
        Tensor::from_parts([c_out, gm.c_in, gm.kh, gm.kw], gw),
        Tensor::from_slice(&gb),
    )
}

/// Input gradient over all images into the zeroed `gx: [N, C_in, H, W]`.
/// Images never overlap, so each job's slab is final.
fn input_grads(pool: &ComputePool, gm: ConvGeom, wt: &[f32], g: &[f32], gx: &mut [f32]) {
    let g_per = gm.c_out * gm.p();
    if !gx.is_empty() {
        pool.run_chunks(gx, gm.x_per(), |img, gx_n| {
            with_scratch(gm.wo, |seg| {
                input_grad(gx_n, wt, &g[img * g_per..(img + 1) * g_per], seg, gm)
            });
        });
    }
}

/// Numerically-stable logistic sigmoid: `1 / (1 + e^-x)` for `x ≥ 0`,
/// `e^x / (1 + e^x)` below. Both forms take the one `exp(-|x|)`, so the
/// sign picks a result rather than which `exp` to call, and a map over
/// mixed-sign inputs does not mispredict a branch per element. The fused
/// UE CNN and `sl-nn`'s sigmoid layer and LSTM gates all call this one
/// function, so they agree bit for bit. Inlined across crates: the
/// LSTM gates call it per element.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    let e = (-x.abs()).exp();
    if x >= 0.0 {
        1.0 / (1.0 + e)
    } else {
        e / (1.0 + e)
    }
}

/// Parameters of the fused UE CNN `Conv2d(1→C) → ReLU → Conv2d(C→1) →
/// Sigmoid`: both convolutions stride 1, 'same'-padded, with one odd
/// `kh × kw` kernel size.
#[derive(Clone, Copy)]
pub struct FusedCnnParams<'a> {
    /// First convolution's weights, `[C, 1, kh, kw]`.
    pub w1: &'a Tensor,
    /// First convolution's bias, `[C]`.
    pub b1: &'a Tensor,
    /// Second convolution's weights, `[1, C, kh, kw]`.
    pub w2: &'a Tensor,
    /// Second convolution's bias, `[1]`.
    pub b2: &'a Tensor,
}

/// Gradients produced by [`fused_cnn_backward`], in parameter order.
pub struct FusedCnnGrads {
    /// Gradient with respect to the input images, `[N, 1, H, W]`, when
    /// it was asked for.
    pub grad_input: Option<Tensor>,
    /// `[C, 1, kh, kw]`.
    pub grad_w1: Tensor,
    /// `[C]`.
    pub grad_b1: Tensor,
    /// `[1, C, kh, kw]`.
    pub grad_w2: Tensor,
    /// `[1]`.
    pub grad_b2: Tensor,
}

/// Shape-checked geometry of the fused pass: its two convolutions.
#[derive(Clone, Copy)]
struct FusedGeom {
    conv1: ConvGeom,
    conv2: ConvGeom,
}

impl FusedGeom {
    fn new(input: &Tensor, params: FusedCnnParams) -> FusedGeom {
        let conv1 = ConvGeom::new(input, params.w1, Padding::Same);
        assert_eq!(
            conv1.c_in,
            1,
            "fused_cnn: input {} is not single-channel",
            input.shape()
        );
        let (c, kh, kw) = (conv1.c_out, conv1.kh, conv1.kw);
        assert_eq!(
            params.b1.numel(),
            c,
            "fused_cnn: b1 length {} does not match {c} channels",
            params.b1.numel()
        );
        assert_eq!(
            params.w2.dims(),
            &[1, c, kh, kw],
            "fused_cnn: w2 {} does not match [1x{c}x{kh}x{kw}]",
            params.w2.shape()
        );
        assert_eq!(
            params.b2.numel(),
            1,
            "fused_cnn: b2 length {} is not 1",
            params.b2.numel()
        );
        let conv2 = ConvGeom {
            c_in: c,
            c_out: 1,
            ..conv1
        };
        FusedGeom { conv1, conv2 }
    }

    /// Hidden channels `C`.
    fn c(&self) -> usize {
        self.conv1.c_out
    }

    /// Pixels per image (input, hidden channel and output alike).
    fn p(&self) -> usize {
        self.conv1.p()
    }

    /// Floats of one image's parameter-gradient slot
    /// `[∂w1 | ∂b1 | ∂w2 | ∂b2]`.
    fn params_len(&self) -> usize {
        2 * self.conv1.c_out * self.conv1.k() + self.c() + 1
    }

    /// The image shape, `[N, 1, H, W]`.
    fn image_dims(&self) -> [usize; 4] {
        [self.conv1.n, 1, self.conv1.h, self.conv1.w]
    }

    /// Floats of the forward's scratch: the padded image, then conv2's
    /// padded planes, whose interior conv1 writes.
    fn forward_scratch(&self) -> usize {
        padded_len(self.conv1) + padded_len(self.conv2)
    }

    /// Floats of [`fused_backward_image`]'s scratch: the padded image
    /// and hidden map, the hidden gradient, sigmoid′, one weight
    /// gradient, and the planar hidden gradient plus one output row for
    /// the optional input gradient.
    fn backward_scratch(&self) -> usize {
        let (c, p_sz, k1) = (self.c(), self.p(), self.conv1.k());
        padded_len(self.conv1)
            + padded_len(self.conv2)
            + 2 * c * p_sz
            + p_sz
            + c * k1
            + self.conv1.wo
    }
}

/// The fused UE CNN `sigmoid(conv2(relu(conv1(x) + b1)) + b2)` over
/// `input: [N, 1, H, W]`, on the process-wide pool and backend; returns
/// `[N, 1, H, W]`, bit for bit what [`conv2d`], a ReLU, [`conv2d`] and
/// [`sigmoid`] return in turn (see the module docs).
pub fn fused_cnn(input: &Tensor, params: FusedCnnParams) -> Tensor {
    fused_cnn_with(ComputePool::global(), global_backend(), input, params)
}

/// [`fused_cnn`] on an explicit pool and backend.
pub fn fused_cnn_with(
    pool: &ComputePool,
    backend: &dyn Backend,
    input: &Tensor,
    params: FusedCnnParams,
) -> Tensor {
    let fg = FusedGeom::new(input, params);
    let (g1, g2, p_sz) = (fg.conv1, fg.conv2, fg.p());
    host::time("tensor.kernel.fused_cnn_fwd", || {
        let (x, w1, b1) = (input.data(), params.w1.data(), params.b1.data());
        let (w2, b2) = (params.w2.data(), params.b2.data());
        let mut out = vec![0.0f32; g1.n * p_sz];
        if !out.is_empty() {
            // One image per job; its C-channel hidden map lives in the
            // thread's scratch and never leaves it.
            pool.run_chunks(&mut out, p_sz, |img, out_n| {
                let x_n = &x[img * p_sz..(img + 1) * p_sz];
                with_scratch(fg.forward_scratch(), |s| {
                    let (xpad, hpad) = s.split_at_mut(padded_len(g1));
                    pad_planes(xpad, x_n, g1);
                    // conv1 + b1 + ReLU, written by the kernel straight into
                    // the interior of conv2's zero-bordered padded planes.
                    zero_border(hpad, g2, 1);
                    let (hp, wp) = (g2.padded().hp(), g2.padded().wp());
                    let interior = g2.ph * wp + g2.pw;
                    let channels = w1.chunks_exact(g1.k()).zip(b1.chunks_exact(1));
                    for (co, (w_c, b_c)) in channels.enumerate() {
                        let out_c = &mut hpad[co * hp * wp + interior..];
                        let epi = Epilogue::BiasRelu(b_c);
                        backend.conv_direct(out_c, wp, xpad, w_c, g1.padded(), epi);
                    }
                    // conv2 + b2 (one output channel), then the sigmoid.
                    let epi = Epilogue::Bias(b2);
                    backend.conv_direct(out_n, g2.wo, hpad, w2, g2.padded(), epi);
                    for o in out_n.iter_mut() {
                        *o = sigmoid(*o);
                    }
                });
            });
        }
        Tensor::from_parts(fg.image_dims(), out)
    })
}

/// Backward pass of [`fused_cnn`], on the process-wide pool and backend.
///
/// Takes the forward's `input` and `output` (the sigmoid map, for its
/// derivative) and the upstream `grad_out` (`[N, 1, H, W]`). The hidden
/// map is recomputed per image from `input`. The input gradient is only
/// computed when `with_input_grad` is set; the parameter gradients are
/// the same bits either way, and the same bits as the [`conv2d_backward`]
/// chain (see the module docs).
pub fn fused_cnn_backward(
    input: &Tensor,
    output: &Tensor,
    params: FusedCnnParams,
    grad_out: &Tensor,
    with_input_grad: bool,
) -> FusedCnnGrads {
    fused_cnn_backward_with(
        ComputePool::global(),
        global_backend(),
        input,
        output,
        params,
        grad_out,
        with_input_grad,
    )
}

/// [`fused_cnn_backward`] on an explicit pool and backend.
pub fn fused_cnn_backward_with(
    pool: &ComputePool,
    backend: &dyn Backend,
    input: &Tensor,
    output: &Tensor,
    params: FusedCnnParams,
    grad_out: &Tensor,
    with_input_grad: bool,
) -> FusedCnnGrads {
    let fg = FusedGeom::new(input, params);
    let dims = fg.image_dims();
    for (what, t) in [("output", output), ("grad_out", grad_out)] {
        assert_eq!(
            t.dims(),
            &dims,
            "fused_cnn_backward: {what} {} does not match the input {}",
            t.shape(),
            input.shape()
        );
    }
    let (c, p_sz, params_len) = (fg.c(), fg.p(), fg.params_len());
    let slot = params_len + if with_input_grad { p_sz } else { 0 };
    host::time("tensor.kernel.fused_cnn_bwd", || {
        let (x, y, g) = (input.data(), output.data(), grad_out.data());
        let weights = BackwardWeights::new(params, fg);
        // Per image one slot `[∂w1 | ∂b1 | ∂w2 | ∂b2 | ∂x_n?]`; the parameter
        // parts are reduced below in ascending image order.
        let mut slots = vec![0.0f32; fg.conv1.n * slot];
        if !slots.is_empty() {
            pool.run_chunks(&mut slots, slot, |img, slot_n| {
                let r = img * p_sz..(img + 1) * p_sz;
                let image = (&x[r.clone()], &y[r.clone()], &g[r]);
                with_scratch(fg.backward_scratch(), |s| {
                    fused_backward_image(backend, slot_n, image, &weights, fg, s)
                });
            });
        }
        let mut grads = vec![0.0f32; params_len];
        for slot_n in slots.chunks_exact(slot) {
            // Per element one exactly-rounded add per image, as in
            // `param_grads`.
            backend.add_assign(&mut grads, &slot_n[..params_len]);
        }
        let grad_input = with_input_grad.then(|| {
            let mut gx = vec![0.0f32; fg.conv1.n * p_sz];
            for (gx_n, slot_n) in gx.chunks_exact_mut(p_sz).zip(slots.chunks_exact(slot)) {
                gx_n.copy_from_slice(&slot_n[params_len..]);
            }
            Tensor::from_parts(dims, gx)
        });
        let (k1, kh, kw) = (fg.conv1.k(), fg.conv1.kh, fg.conv1.kw);
        let (gw1, rest) = grads.split_at(c * k1);
        let (gb1, rest) = rest.split_at(c);
        let (gw2, gb2) = rest.split_at(c * k1);
        FusedCnnGrads {
            grad_input,
            grad_w1: Tensor::from_parts([c, 1, kh, kw], gw1.to_vec()),
            grad_b1: Tensor::from_slice(gb1),
            grad_w2: Tensor::from_parts([1, c, kh, kw], gw2.to_vec()),
            grad_b2: Tensor::from_slice(gb2),
        }
    })
}

/// The backward's per-call operands: conv1's weights transposed to
/// `[K × C]` (`w1t[t·C + c] = w1[c, t]` for tap `t = dy·kw + dx`) with
/// the taps its channels-last correlation reads over the zero-padded
/// image (`dy·Wp + dx`, ascending), conv2's input gradient as
/// [`GradRegion`]s, `b1`, and the planar `w1` for the input gradient.
struct BackwardWeights<'a> {
    w1t: Vec<f32>,
    conv1_taps: Vec<usize>,
    conv2_grad: Vec<GradRegion>,
    b1: &'a [f32],
    w1: &'a [f32],
}

impl<'a> BackwardWeights<'a> {
    fn new(params: FusedCnnParams<'a>, fg: FusedGeom) -> Self {
        let (c, k1, g1) = (fg.c(), fg.conv1.k(), fg.conv1);
        let mut w1t = vec![0.0f32; k1 * c];
        transpose_into(&mut w1t, params.w1.data(), c, k1);
        let wp = g1.padded().wp();
        BackwardWeights {
            w1t,
            conv1_taps: (0..g1.kh)
                .flat_map(|dy| (0..g1.kw).map(move |dx| dy * wp + dx))
                .collect(),
            conv2_grad: GradRegion::tile(params.w2.data(), fg.conv2),
            b1: params.b1.data(),
            w1: params.w1.data(),
        }
    }
}

/// One rectangle of conv2's input gradient whose pixels all receive the
/// same kernel taps, as a [`Backend::conv_channels_last`] over the
/// upstream gradient: the taps that reach it, in ascending tap order,
/// with their weights `[taps × C]`.
struct GradRegion {
    /// Offset of the rectangle's first element in the `[pixel × C]` map.
    at: usize,
    region: TapRegion,
    taps: Vec<usize>,
    w: Vec<f32>,
}

impl GradRegion {
    /// Tiles a 'same'-padded, one-output-channel convolution's input
    /// gradient (`w2: [1 × C·kh·kw]`) into rectangles: runs of rows that
    /// the same kernel rows reach, times runs of columns that the same
    /// kernel columns reach. For a 3×3 kernel that is the interior (all
    /// nine taps), four edges and four corners.
    fn tile(w2: &[f32], gm: ConvGeom) -> Vec<GradRegion> {
        let (c, taps_n) = (gm.c_in, gm.kh * gm.kw);
        let mut out = Vec::new();
        for (rows, dys) in reach_runs(gm.h, gm.ph, gm.kh) {
            for (cols, dxs) in reach_runs(gm.w, gm.pw, gm.kw) {
                let mut taps = Vec::new();
                let mut w = Vec::new();
                for (dy, dx) in dys
                    .clone()
                    .flat_map(|dy| dxs.clone().map(move |dx| (dy, dx)))
                {
                    // Element (iy, ix) takes output pixel (iy + ph - dy,
                    // ix + pw - dx): offset from the rectangle's corner.
                    taps.push((rows.start + gm.ph - dy) * gm.wo + cols.start + gm.pw - dx);
                    w.extend((0..c).map(|ci| w2[ci * taps_n + dy * gm.kw + dx]));
                }
                let region = TapRegion {
                    c,
                    rows: rows.len(),
                    cols: cols.len(),
                    x_stride: gm.wo,
                    cl_stride: gm.w,
                };
                let at = (rows.start * gm.w + cols.start) * c;
                out.push(GradRegion {
                    at,
                    region,
                    taps,
                    w,
                });
            }
        }
        out
    }
}

/// Consecutive runs of the `n` input rows (or columns) of a 'same'
/// convolution with padding `pad` and kernel size `k`, each with the
/// kernel rows `d` that reach all of it: `d` reaches input `i` from
/// output `i + pad - d`, which must lie in `0..n`.
fn reach_runs(n: usize, pad: usize, k: usize) -> Vec<(Range<usize>, Range<usize>)> {
    let mut runs: Vec<(Range<usize>, Range<usize>)> = Vec::new();
    for i in 0..n {
        let d = (i + pad + 1).saturating_sub(n)..(i + pad + 1).min(k);
        match runs.last_mut() {
            Some((run, ds)) if *ds == d => run.end = i + 1,
            _ => runs.push((i..i + 1, d)),
        }
    }
    runs
}

/// One image's backward into `slot_n: [∂w1 | ∂b1 | ∂w2 | ∂b2 | ∂x_n?]`
/// from its `image = (input, sigmoid output, upstream gradient)`.
///
/// The hidden map is recomputed and its gradient built channels-last
/// (`[pixel × C]`, the map zero-padded), with nothing unrolled: conv1
/// and its weight gradient are [`Backend::conv_channels_last`] and
/// [`Backend::conv_weight_channels_last`] over the zero-padded image
/// (the padding taps' `w·0` products included, as `im2col` has them),
/// conv2's taps gradient runs on the padded map in place, and conv2's
/// input gradient is one [`Backend::conv_channels_last`] per
/// [`GradRegion`] over the upstream gradient. Every output is still the
/// sum [`conv2d_backward`] forms, in its order. In particular each
/// element of conv2's input gradient takes `w·g` for exactly the taps
/// that reach it, in ascending tap order, as [`input_grad`] does: its
/// sum starts at `0.0` and so never becomes `-0.0`, which makes adding
/// `w·g` round as `input_grad`'s `0.0 + w·g` does, and a non-finite
/// weight whose tap misses an element never touches it.
fn fused_backward_image(
    backend: &dyn Backend,
    slot_n: &mut [f32],
    image: (&[f32], &[f32], &[f32]),
    weights: &BackwardWeights,
    fg: FusedGeom,
    scratch: &mut [f32],
) {
    let (x_n, y_n, g_n) = image;
    let (g1, g2) = (fg.conv1, fg.conv2);
    let (c, p_sz, k1) = (fg.c(), fg.p(), g1.k());
    let (xpad, rest) = scratch.split_at_mut(padded_len(g1));
    let (hp, rest) = rest.split_at_mut(padded_len(g2));
    let (gh_t, rest) = rest.split_at_mut(p_sz * c);
    let (gy, rest) = rest.split_at_mut(p_sz);
    let (acc, rest) = rest.split_at_mut(c * k1);
    let (gw1, rest_slot) = slot_n.split_at_mut(c * k1);
    let (gb1, rest_slot) = rest_slot.split_at_mut(c);
    let (gw2, rest_slot) = rest_slot.split_at_mut(c * k1);
    let (gb2, gx_n) = rest_slot.split_at_mut(1);

    // Recompute conv1 channels-last straight into the interior of the
    // zero-bordered `hp` (the forward's sums with each product's factors
    // commuted), bias and ReLU applied by the kernel on the way out.
    pad_planes(xpad, x_n, g1);
    zero_border(hp, g2, c);
    let (wp1, wp2) = (g1.padded().wp(), g2.padded().wp());
    let interior = (g2.ph * wp2 + g2.pw) * c;
    let conv1 = TapRegion {
        c,
        rows: g1.ho,
        cols: g1.wo,
        x_stride: wp1,
        cl_stride: wp2,
    };
    backend.conv_channels_last(
        &mut hp[interior..],
        xpad,
        &weights.w1t,
        &weights.conv1_taps,
        conv1,
        Epilogue::BiasRelu(weights.b1),
    );
    // Sigmoid': gy = g·y(1 - y).
    for ((d, &g), &y) in gy.iter_mut().zip(g_n).zip(y_n) {
        *d = g * (y * (1.0 - y));
    }
    // Conv2 (C→1): the taps weight gradient, remapped to (ci, dy, dx)
    // order, with b2's gradient summed in its pixel loop; then the
    // input gradient. Every element of `gh_t` lies in one rectangle,
    // which overwrites it.
    backend.conv_weight_taps(acc, hp, gy, g2.padded(), Some(gb2));
    for (k, d) in gw2.iter_mut().enumerate() {
        *d = acc[channels_last_tap(k, g2)];
    }
    for r in &weights.conv2_grad {
        let out = &mut gh_t[r.at..];
        backend.conv_channels_last(out, gy, &r.w, &r.taps, r.region, Epilogue::Store);
    }
    // Conv1 (1→C): ReLU′ (a multiply by 1 or 0, so a NaN gradient stays
    // NaN) and b1's gradient folded into the weight gradient `[K × C]`
    // over the padded image, transposed into place; then the optional
    // input gradient into the zeroed slot tail, from the planar masked
    // gradient.
    let whole = TapRegion {
        cl_stride: g1.wo,
        ..conv1
    };
    let act = &hp[interior..];
    let relu = ReluGrad {
        act,
        act_stride: wp2,
        bias: gb1,
    };
    backend.conv_weight_channels_last(acc, xpad, gh_t, &weights.conv1_taps, whole, relu);
    transpose_into(gw1, acc, k1, c);
    if !gx_n.is_empty() {
        let (gh, seg) = rest.split_at_mut(c * p_sz);
        for (p, gh_px) in gh_t.chunks_exact(c).enumerate() {
            let a_px = &act[((p / g1.wo) * wp2 + p % g1.wo) * c..][..c];
            for (j, (&v, &a)) in gh_px.iter().zip(a_px).enumerate() {
                gh[j * p_sz + p] = v * relu_grad(a);
            }
        }
        input_grad(gx_n, weights.w1, gh, seg, g1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{backend_for, BackendKind};

    /// Reference implementation: direct six-nested-loop convolution with
    /// explicit bounds checks, used to validate the production kernel.
    fn conv2d_naive(input: &Tensor, weight: &Tensor, bias: &Tensor, padding: Padding) -> Tensor {
        let (n, c_in, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        let (c_out, _, kh, kw) = (
            weight.dims()[0],
            weight.dims()[1],
            weight.dims()[2],
            weight.dims()[3],
        );
        let (ph, pw) = padding.amounts(kh, kw);
        let (ho, wo) = padding.output_size(h, w, kh, kw);
        let mut out = Tensor::zeros([n, c_out, ho, wo]);
        for img in 0..n {
            for co in 0..c_out {
                for oy in 0..ho {
                    for ox in 0..wo {
                        let mut acc = bias.data()[co];
                        for ci in 0..c_in {
                            for dy in 0..kh {
                                for dx in 0..kw {
                                    let iy = oy + dy;
                                    let ix = ox + dx;
                                    if iy < ph || ix < pw || iy >= h + ph || ix >= w + pw {
                                        continue;
                                    }
                                    acc += input.at(&[img, ci, iy - ph, ix - pw])
                                        * weight.at(&[co, ci, dy, dx]);
                                }
                            }
                        }
                        *out.at_mut(&[img, co, oy, ox]) = acc;
                    }
                }
            }
        }
        out
    }

    /// The unfused passes this module used to run, kept as the bitwise
    /// reference: im2col into a zeroed `[K × P]` buffer; forward by `ab`;
    /// backward with `∂W_n` by `a_bt`, `∂Col_n` by `at_b` into a
    /// per-image buffer, `col2im` scatter-add, and a `[gx_n | gw_n]` slab
    /// per image reduced in ascending image order — one thread, every
    /// GEMM through the textbook loops in [`crate::backend::textbook`], so
    /// no production kernel checks itself.
    mod unfused {
        use super::*;
        use crate::backend::textbook;

        fn im2col_zeroed(col: &mut [f32], x: &[f32], gm: ConvGeom) {
            let p = gm.p();
            let mut k = 0usize;
            for ci in 0..gm.c_in {
                let in_base = ci * gm.h * gm.w;
                for dy in 0..gm.kh {
                    let oy_lo = gm.ph.saturating_sub(dy);
                    let oy_hi = (gm.h + gm.ph).saturating_sub(dy).min(gm.ho);
                    for dx in 0..gm.kw {
                        let ox_lo = gm.pw.saturating_sub(dx);
                        let ox_hi = (gm.w + gm.pw).saturating_sub(dx).min(gm.wo);
                        let row = &mut col[k * p..(k + 1) * p];
                        if ox_lo < ox_hi {
                            for oy in oy_lo..oy_hi {
                                let irow =
                                    in_base + (oy + dy - gm.ph) * gm.w + (ox_lo + dx - gm.pw);
                                row[oy * gm.wo + ox_lo..oy * gm.wo + ox_hi]
                                    .copy_from_slice(&x[irow..irow + (ox_hi - ox_lo)]);
                            }
                        }
                        k += 1;
                    }
                }
            }
        }

        fn col2im_add(gx: &mut [f32], dcol: &[f32], gm: ConvGeom) {
            let p = gm.p();
            let mut k = 0usize;
            for ci in 0..gm.c_in {
                let in_base = ci * gm.h * gm.w;
                for dy in 0..gm.kh {
                    let oy_lo = gm.ph.saturating_sub(dy);
                    let oy_hi = (gm.h + gm.ph).saturating_sub(dy).min(gm.ho);
                    for dx in 0..gm.kw {
                        let ox_lo = gm.pw.saturating_sub(dx);
                        let ox_hi = (gm.w + gm.pw).saturating_sub(dx).min(gm.wo);
                        let row = &dcol[k * p..(k + 1) * p];
                        if ox_lo < ox_hi {
                            for oy in oy_lo..oy_hi {
                                let irow =
                                    in_base + (oy + dy - gm.ph) * gm.w + (ox_lo + dx - gm.pw);
                                let dst = &mut gx[irow..irow + (ox_hi - ox_lo)];
                                let src = &row[oy * gm.wo + ox_lo..oy * gm.wo + ox_hi];
                                for (o, &v) in dst.iter_mut().zip(src) {
                                    *o += v;
                                }
                            }
                        }
                        k += 1;
                    }
                }
            }
        }

        pub(super) fn forward(
            input: &Tensor,
            weight: &Tensor,
            bias: &Tensor,
            padding: Padding,
        ) -> Tensor {
            let gm = ConvGeom::new(input, weight, padding);
            let (c_out, k_sz, p_sz, x_per) = (gm.c_out, gm.k(), gm.p(), gm.x_per());
            let mut out = vec![0.0f32; gm.n * c_out * p_sz];
            for (img, chunk) in out.chunks_exact_mut(c_out * p_sz).enumerate() {
                let mut col = vec![0.0f32; k_sz * p_sz];
                im2col_zeroed(&mut col, &input.data()[img * x_per..(img + 1) * x_per], gm);
                textbook::ab(chunk, weight.data(), &col, c_out, k_sz, p_sz);
                for (orow, &b) in chunk.chunks_exact_mut(p_sz).zip(bias.data()) {
                    for o in orow {
                        *o += b;
                    }
                }
            }
            Tensor::from_parts([gm.n, c_out, gm.ho, gm.wo], out)
        }

        pub(super) fn backward(
            input: &Tensor,
            weight: &Tensor,
            grad_out: &Tensor,
            padding: Padding,
        ) -> Conv2dGrads {
            let gm = ConvGeom::new(input, weight, padding);
            let (n, c_out, k_sz, p_sz, x_per) = (gm.n, gm.c_out, gm.k(), gm.p(), gm.x_per());
            let (x, wt, g) = (input.data(), weight.data(), grad_out.data());
            let w_len = wt.len();
            let mut gb = vec![0.0f32; c_out];
            for img in 0..n {
                for (co, gb_co) in gb.iter_mut().enumerate() {
                    let base = (img * c_out + co) * p_sz;
                    *gb_co += g[base..base + p_sz].iter().sum::<f32>();
                }
            }
            let mut parts = vec![0.0f32; n * (x_per + w_len)];
            for (img, chunk) in parts.chunks_exact_mut(x_per + w_len).enumerate() {
                let (gx_n, gw_n) = chunk.split_at_mut(x_per);
                let g_n = &g[img * c_out * p_sz..(img + 1) * c_out * p_sz];
                let mut col = vec![0.0f32; k_sz * p_sz];
                im2col_zeroed(&mut col, &x[img * x_per..(img + 1) * x_per], gm);
                textbook::a_bt(gw_n, g_n, &col, c_out, p_sz, k_sz);
                let mut dcol = vec![0.0f32; k_sz * p_sz];
                textbook::at_b(&mut dcol, wt, g_n, 0, k_sz, p_sz);
                col2im_add(gx_n, &dcol, gm);
            }
            let mut gx = vec![0.0f32; n * x_per];
            let mut gw = vec![0.0f32; w_len];
            for img in 0..n {
                let chunk = &parts[img * (x_per + w_len)..(img + 1) * (x_per + w_len)];
                gx[img * x_per..(img + 1) * x_per].copy_from_slice(&chunk[..x_per]);
                for (o, &v) in gw.iter_mut().zip(&chunk[x_per..]) {
                    *o += v;
                }
            }
            Conv2dGrads {
                grad_input: Tensor::from_parts([n, gm.c_in, gm.h, gm.w], gx),
                grad_weight: Tensor::from_parts([c_out, gm.c_in, gm.kh, gm.kw], gw),
                grad_bias: Tensor::from_slice(&gb),
            }
        }
    }

    fn max_abs_diff(a: &Tensor, b: &Tensor) -> f32 {
        a.data()
            .iter()
            .zip(b.data())
            .map(|(&x, &y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    /// Bit patterns with every NaN canonicalised: Rust leaves the sign
    /// and payload of a NaN *result* unspecified (the compiler may commute
    /// an add's or multiply's operands), so NaNs compare by position only.
    fn bits(t: &Tensor) -> Vec<u32> {
        let canon = f32::NAN.to_bits();
        t.data()
            .iter()
            .map(|v| if v.is_nan() { canon } else { v.to_bits() })
            .collect()
    }

    /// Tiny xorshift so the tests need no external RNG.
    fn stream(mut seed: u64) -> impl FnMut() -> f32 {
        move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % 1000) as f32 / 500.0 - 1.0
        }
    }

    #[test]
    fn identity_kernel_same_padding() {
        // A 3x3 kernel with 1 in the centre reproduces the input.
        let input = Tensor::from_fn([1, 1, 4, 4], |i| i as f32);
        let mut weight = Tensor::zeros([1, 1, 3, 3]);
        *weight.at_mut(&[0, 0, 1, 1]) = 1.0;
        let bias = Tensor::zeros([1]);
        let out = conv2d(&input, &weight, &bias, Padding::Same);
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn valid_padding_shrinks_output() {
        let input = Tensor::ones([1, 1, 5, 5]);
        let weight = Tensor::ones([1, 1, 3, 3]);
        let bias = Tensor::zeros([1]);
        let out = conv2d(&input, &weight, &bias, Padding::Valid);
        assert_eq!(out.dims(), &[1, 1, 3, 3]);
        // Every interior window sums 9 ones.
        assert!(out.data().iter().all(|&v| v == 9.0));
    }

    #[test]
    fn bias_is_added_per_channel() {
        let input = Tensor::zeros([1, 1, 3, 3]);
        let weight = Tensor::zeros([2, 1, 3, 3]);
        let bias = Tensor::from_slice(&[1.5, -2.0]);
        let out = conv2d(&input, &weight, &bias, Padding::Same);
        assert_eq!(out.at(&[0, 0, 1, 1]), 1.5);
        assert_eq!(out.at(&[0, 1, 2, 2]), -2.0);
    }

    #[test]
    fn matches_naive_reference_multichannel() {
        let mut next = stream(1234);
        let input = Tensor::from_fn([2, 3, 6, 5], |_| next());
        let weight = Tensor::from_fn([4, 3, 3, 3], |_| next());
        let bias = Tensor::from_fn([4], |_| next());
        for padding in [Padding::Same, Padding::Valid] {
            let fast = conv2d(&input, &weight, &bias, padding);
            let slow = conv2d_naive(&input, &weight, &bias, padding);
            assert!(
                max_abs_diff(&fast, &slow) < 1e-4,
                "kernel disagrees with reference under {padding:?}"
            );
        }
    }

    #[test]
    fn unrolling_writes_every_element_over_stale_scratch() {
        // Both unrollings must overwrite whatever a previous call left in
        // the scratch, padding taps included.
        let mut next = stream(5);
        for (c_in, h, w, k, padding) in [
            (2usize, 5usize, 4usize, 3usize, Padding::Same),
            (3, 6, 7, 5, Padding::Same),
            (2, 6, 5, 3, Padding::Valid),
            (1, 2, 2, 5, Padding::Same),
        ] {
            let x = Tensor::from_fn([1, c_in, h, w], |_| next());
            let gm = ConvGeom::new(&x, &Tensor::zeros([1, c_in, k, k]), padding);
            let (k_sz, p_sz) = (gm.k(), gm.p());
            // Direct per-element unrolling into a zeroed buffer.
            let reference = {
                let mut col = vec![0.0f32; k_sz * p_sz];
                let x = x.data();
                for (kk, row) in col.chunks_exact_mut(p_sz).enumerate() {
                    let (ci, dy, dx) = (kk / (k * k), kk / k % k, kk % k);
                    for oy in 0..gm.ho {
                        for ox in 0..gm.wo {
                            let (iy, ix) =
                                ((oy + dy).wrapping_sub(gm.ph), (ox + dx).wrapping_sub(gm.pw));
                            if iy < h && ix < w {
                                row[oy * gm.wo + ox] = x[(ci * h + iy) * w + ix];
                            }
                        }
                    }
                }
                col
            };
            let mut col = vec![f32::NAN; k_sz * p_sz];
            im2col(&mut col, x.data(), gm);
            assert_eq!(col, reference, "im2col {c_in}x{h}x{w} k{k} {padding:?}");
            // The channels-last copy holds the same taps.
            let mut xp = vec![f32::NAN; padded_len(gm)];
            pad_channels_last(&mut xp, x.data(), gm);
            let wp = gm.wo + k - 1;
            for (kk, ref_row) in reference.chunks_exact(p_sz).enumerate() {
                let (ci, dy, dx) = (kk / (k * k), kk / k % k, kk % k);
                let tap = channels_last_tap(kk, gm);
                assert_eq!(tap, (dy * k + dx) * c_in + ci);
                let got: Vec<f32> = (0..p_sz)
                    .map(|p| xp[((p / gm.wo + dy) * wp + p % gm.wo + dx) * c_in + ci])
                    .collect();
                assert_eq!(
                    got, ref_row,
                    "channels-last tap {kk} {c_in}x{h}x{w} k{k} {padding:?}"
                );
            }
        }
    }

    #[test]
    fn weight_grad_layout_fills_the_lanes() {
        // The UE CNN's two convolutions take opposite orientations.
        assert_eq!(WeightGradLayout::for_shape(1, 72), WeightGradLayout::Taps);
        assert_eq!(
            WeightGradLayout::for_shape(8, 9),
            WeightGradLayout::Channels
        );
        assert_eq!(WeightGradLayout::for_shape(4, 4), WeightGradLayout::Taps);
        assert_eq!(
            WeightGradLayout::for_shape(16, 27),
            WeightGradLayout::Channels
        );
    }

    /// Plants NaN and ±Inf at a few deterministic positions.
    fn plant_non_finite(t: &mut Tensor, salt: usize) {
        let len = t.numel();
        let d = t.data_mut();
        for (i, v) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            d[(salt * 7 + i * 13) % len] = v;
        }
    }

    #[test]
    fn backward_matches_unfused_reference_bitwise() {
        let pools = [ComputePool::new(1), ComputePool::new(4)];
        let mut next = stream(2024);
        let mut cases = 0usize;
        for &c_in in &[1usize, 2, 3, 8, 9, 17] {
            for &c_out in &[1usize, 2, 3, 8, 9, 17] {
                for &k in &[1usize, 3, 5] {
                    for padding in [Padding::Same, Padding::Valid] {
                        for &n in &[1usize, 3] {
                            let (h, w) = (6, 5);
                            let mut input = Tensor::from_fn([n, c_in, h, w], |_| next());
                            let mut weight = Tensor::from_fn([c_out, c_in, k, k], |_| next());
                            let (ho, wo) = padding.output_size(h, w, k, k);
                            let mut grad_out = Tensor::from_fn([n, c_out, ho, wo], |_| next());
                            // Every third case runs with non-finite values planted.
                            if cases.is_multiple_of(3) {
                                plant_non_finite(&mut input, cases);
                                plant_non_finite(&mut weight, cases + 1);
                                plant_non_finite(&mut grad_out, cases + 2);
                            }
                            cases += 1;
                            let want = unfused::backward(&input, &weight, &grad_out, padding);
                            let tag = format!("{n}x{c_in}->{c_out} k{k} {padding:?}");
                            for kind in BackendKind::ALL {
                                let be = backend_for(kind);
                                for pool in &pools {
                                    let got = conv2d_backward_with(
                                        pool, be, &input, &weight, &grad_out, padding,
                                    );
                                    let t = pool.threads();
                                    assert_eq!(
                                        bits(&got.grad_input),
                                        bits(&want.grad_input),
                                        "grad_input {tag} {kind:?} {t}t"
                                    );
                                    assert_eq!(
                                        bits(&got.grad_weight),
                                        bits(&want.grad_weight),
                                        "grad_weight {tag} {kind:?} {t}t"
                                    );
                                    assert_eq!(
                                        bits(&got.grad_bias),
                                        bits(&want.grad_bias),
                                        "grad_bias {tag} {kind:?} {t}t"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 6 * 6 * 3 * 2 * 2);
    }

    #[test]
    fn forward_matches_im2col_reference_bitwise() {
        // The direct path against the unrolled `ab` reference, at one
        // output channel and several.
        let pools = [ComputePool::new(1), ComputePool::new(4)];
        let mut next = stream(31);
        for &c_in in &[1usize, 3, 8] {
            for &c_out in &[1usize, 2, 3, 4, 9] {
                for &k in &[1usize, 3, 5] {
                    for padding in [Padding::Same, Padding::Valid] {
                        let mut input = Tensor::from_fn([2, c_in, 6, 5], |_| next());
                        let mut weight = Tensor::from_fn([c_out, c_in, k, k], |_| next());
                        let bias = Tensor::from_fn([c_out], |_| next());
                        if c_out % 2 == 1 {
                            plant_non_finite(&mut input, c_out);
                            plant_non_finite(&mut weight, k);
                        }
                        let want = unfused::forward(&input, &weight, &bias, padding);
                        for kind in BackendKind::ALL {
                            for pool in &pools {
                                let got = conv2d_with(
                                    pool,
                                    backend_for(kind),
                                    &input,
                                    &weight,
                                    &bias,
                                    padding,
                                );
                                assert_eq!(
                                    bits(&got),
                                    bits(&want),
                                    "{c_in}->{c_out} k{k} {padding:?} {kind:?} {}t",
                                    pool.threads()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn backward_matches_unfused_reference_at_ue_shapes() {
        // The 1-pixel model's two convolutions (1→8 and 8→1, 3×3 same) at
        // the paper's 40×40 frames, where the weight-gradient GEMM takes
        // its two different orientations.
        let mut next = stream(40);
        let pool = ComputePool::new(2);
        for (c_in, c_out) in [(1usize, 8usize), (8, 1)] {
            let input = Tensor::from_fn([2, c_in, 40, 40], |_| next());
            let weight = Tensor::from_fn([c_out, c_in, 3, 3], |_| next());
            let grad_out = Tensor::from_fn([2, c_out, 40, 40], |_| next());
            let want = unfused::backward(&input, &weight, &grad_out, Padding::Same);
            for kind in BackendKind::ALL {
                let got = conv2d_backward_with(
                    &pool,
                    backend_for(kind),
                    &input,
                    &weight,
                    &grad_out,
                    Padding::Same,
                );
                assert_eq!(bits(&got.grad_input), bits(&want.grad_input), "{kind:?}");
                assert_eq!(bits(&got.grad_weight), bits(&want.grad_weight), "{kind:?}");
                assert_eq!(bits(&got.grad_bias), bits(&want.grad_bias), "{kind:?}");
            }
        }
    }

    #[test]
    fn pooled_conv_bitwise_equals_serial() {
        let mut next = stream(7);
        let input = Tensor::from_fn([5, 3, 7, 6], |_| next());
        let weight = Tensor::from_fn([4, 3, 3, 3], |_| next());
        let bias = Tensor::from_fn([4], |_| next());
        let serial = ComputePool::new(1);
        for padding in [Padding::Same, Padding::Valid] {
            let want = conv2d_in(&serial, &input, &weight, &bias, padding);
            let grad_out = Tensor::from_fn(want.dims(), |_| next());
            let want_bwd = conv2d_backward_in(&serial, &input, &weight, &grad_out, padding);
            for threads in [2usize, 3, 8] {
                let pool = ComputePool::new(threads);
                let got = conv2d_in(&pool, &input, &weight, &bias, padding);
                assert_eq!(got, want, "forward differs at {threads} threads");
                let got_bwd = conv2d_backward_in(&pool, &input, &weight, &grad_out, padding);
                assert_eq!(got_bwd.grad_input, want_bwd.grad_input);
                assert_eq!(got_bwd.grad_weight, want_bwd.grad_weight);
                assert_eq!(got_bwd.grad_bias, want_bwd.grad_bias);
            }
        }
    }

    #[test]
    fn conv_backends_agree_bitwise_both_passes() {
        let mut next = stream(77);
        let input = Tensor::from_fn([3, 2, 9, 7], |_| next());
        let weight = Tensor::from_fn([4, 2, 3, 3], |_| next());
        let bias = Tensor::from_fn([4], |_| next());
        let serial = ComputePool::new(1);
        let four = ComputePool::new(4);
        for padding in [Padding::Same, Padding::Valid] {
            let want = conv2d_with(
                &serial,
                backend_for(BackendKind::Scalar),
                &input,
                &weight,
                &bias,
                padding,
            );
            let grad_out = Tensor::from_fn(want.dims(), |_| next());
            let want_bwd = conv2d_backward_with(
                &serial,
                backend_for(BackendKind::Scalar),
                &input,
                &weight,
                &grad_out,
                padding,
            );
            for kind in BackendKind::ALL {
                for pool in [&serial, &four] {
                    let be = backend_for(kind);
                    let got = conv2d_with(pool, be, &input, &weight, &bias, padding);
                    assert_eq!(got, want, "forward {kind:?}");
                    let got_bwd =
                        conv2d_backward_with(pool, be, &input, &weight, &grad_out, padding);
                    assert_eq!(got_bwd.grad_input, want_bwd.grad_input, "{kind:?}");
                    assert_eq!(got_bwd.grad_weight, want_bwd.grad_weight, "{kind:?}");
                    assert_eq!(got_bwd.grad_bias, want_bwd.grad_bias, "{kind:?}");
                }
            }
        }
    }

    #[test]
    fn nan_input_poisons_output_even_under_zero_weights() {
        // Regression test for the removed zero-skip branch: an all-zero
        // kernel must still propagate NaN from the input (0 × NaN = NaN).
        let mut input = Tensor::zeros([1, 1, 3, 3]);
        *input.at_mut(&[0, 0, 1, 1]) = f32::NAN;
        let weight = Tensor::zeros([1, 1, 3, 3]);
        let bias = Tensor::zeros([1]);
        let out = conv2d(&input, &weight, &bias, Padding::Same);
        assert!(out.at(&[0, 0, 1, 1]).is_nan());
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut next = stream(99);
        let input = Tensor::from_fn([1, 2, 4, 4], |_| next());
        let weight = Tensor::from_fn([2, 2, 3, 3], |_| next());
        let bias = Tensor::from_fn([2], |_| next());
        let padding = Padding::Same;

        // Scalar loss: sum of outputs; upstream gradient is all-ones.
        let out = conv2d(&input, &weight, &bias, padding);
        let grad_out = Tensor::ones(out.dims());
        let grads = conv2d_backward(&input, &weight, &grad_out, padding);

        let eps = 1e-2f32;
        // Check a sample of input coordinates.
        for &flat in &[0usize, 5, 13, 21, 31] {
            let mut perturbed = input.clone();
            perturbed.data_mut()[flat] += eps;
            let up = conv2d(&perturbed, &weight, &bias, padding).sum();
            perturbed.data_mut()[flat] -= 2.0 * eps;
            let down = conv2d(&perturbed, &weight, &bias, padding).sum();
            let fd = (up - down) / (2.0 * eps);
            let an = grads.grad_input.data()[flat];
            assert!(
                (fd - an).abs() < 1e-2,
                "input grad mismatch at {flat}: fd={fd} analytic={an}"
            );
        }
        // Check a sample of weight coordinates.
        for &flat in &[0usize, 7, 17, 35] {
            let mut perturbed = weight.clone();
            perturbed.data_mut()[flat] += eps;
            let up = conv2d(&input, &perturbed, &bias, padding).sum();
            perturbed.data_mut()[flat] -= 2.0 * eps;
            let down = conv2d(&input, &perturbed, &bias, padding).sum();
            let fd = (up - down) / (2.0 * eps);
            let an = grads.grad_weight.data()[flat];
            assert!(
                (fd - an).abs() < 2e-2,
                "weight grad mismatch at {flat}: fd={fd} analytic={an}"
            );
        }
        // Bias gradient is the number of output pixels per channel.
        let px = (out.numel() / out.dims()[1]) as f32;
        for &gb in grads.grad_bias.data() {
            assert!((gb - px).abs() < 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "input channels")]
    fn channel_mismatch_panics() {
        conv2d(
            &Tensor::zeros([1, 2, 4, 4]),
            &Tensor::zeros([1, 3, 3, 3]),
            &Tensor::zeros([1]),
            Padding::Same,
        );
    }

    #[test]
    #[should_panic(expected = "odd kernel")]
    fn same_padding_rejects_even_kernels() {
        Padding::Same.amounts(2, 2);
    }
}
