//! Runtime-selectable compute backends: the serial-microkernel seam
//! beneath the pool-partitioned GEMM / convolution entry points.
//!
//! A [`Backend`] supplies the *serial* microkernels that one pool job
//! executes on its disjoint output chunk; the [`crate::pool::ComputePool`]
//! partitioning above it is backend-independent. Two implementations
//! exist:
//!
//! * [`BackendKind::Scalar`] — portable loops in i-k-j form: the output
//!   row is the accumulator, zeroed and then summed in ascending `k`, so
//!   the compiler can vectorize across output columns. The fallback on
//!   hosts without AVX2/NEON.
//! * [`BackendKind::Simd`] — explicitly vectorized `std::arch` kernels
//!   (AVX2 on `x86_64` behind runtime feature detection, NEON on
//!   `aarch64`), falling back to the scalar kernels per call when the
//!   host lacks the features.
//!
//! # Determinism across backends
//!
//! Every backend computes each output element with **one** accumulator
//! whose `k` products are added in ascending-`k` order, and each
//! `multiply` / `add` is an exactly-rounded IEEE-754 operation (the SIMD
//! kernels never use fused multiply-add). Vector lane width therefore
//! changes *which output elements are resident together*, never any
//! element's accumulation order — results are bitwise identical across
//! `{scalar, simd}` at every thread count.
//!
//! # Selection
//!
//! The process-wide backend ([`global_backend`]) is chosen once from the
//! `SLM_BACKEND` environment knob: `auto` (default) picks `simd` when
//! the host supports it and `scalar` otherwise; explicit `scalar` /
//! `simd` force a backend. Requesting `simd` on an unsupported host, or
//! an unrecognized value, warns through `sl_telemetry` and falls back
//! instead of failing — mirroring the `SLM_THREADS` parsing contract.

use std::sync::OnceLock;

use sl_telemetry::Telemetry;

use crate::simd;

/// The selectable backend implementations, in fallback order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Portable i-k-j loops; the fallback without AVX2/NEON.
    Scalar,
    /// Explicit `std::arch` vector kernels with per-call fallback.
    Simd,
}

impl BackendKind {
    /// All backends, in ascending [`BackendKind::index`] order.
    pub const ALL: [BackendKind; 2] = [BackendKind::Scalar, BackendKind::Simd];

    /// The knob value spelling (`SLM_BACKEND=<name>`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Simd => "simd",
        }
    }

    /// Stable numeric id, published as the `tensor.backend` gauge. Id 1
    /// belonged to the removed cache-blocked tier and stays unused, so
    /// older snapshots still decode.
    pub fn index(self) -> usize {
        match self {
            BackendKind::Scalar => 0,
            BackendKind::Simd => 2,
        }
    }
}

/// One image's stride-1 convolution read from a copy of its input with
/// the zero padding written out: `c_in` channels, a `kh × kw` kernel and
/// an `ho × wo` output, so each padded channel is `hp × wp` (see
/// [`PaddedConv::hp`], [`PaddedConv::wp`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaddedConv {
    /// Input channels.
    pub c_in: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Output height.
    pub ho: usize,
    /// Output width.
    pub wo: usize,
}

impl PaddedConv {
    /// Padded height `ho + kh - 1`: the rows the taps read.
    pub fn hp(self) -> usize {
        self.ho + self.kh - 1
    }

    /// Padded width `wo + kw - 1`: the columns the taps read.
    pub fn wp(self) -> usize {
        self.wo + self.kw - 1
    }

    /// Taps per output channel, `c_in·kh·kw`.
    pub fn taps(self) -> usize {
        self.c_in * self.kh * self.kw
    }

    /// Output pixels per channel, `ho·wo`.
    pub fn pixels(self) -> usize {
        self.ho * self.wo
    }
}

/// A `rows × cols` pixel region of a 1→C correlation whose taps are
/// flat offsets into one single-channel operand `x`: region pixel
/// `(r, q)` reads tap `i` at `x[r·x_stride + q + taps[i]]`, and owns the
/// `c` channels at `(r·cl_stride + q)·c` of a channels-last map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapRegion {
    /// Channels per pixel of the channels-last map.
    pub c: usize,
    /// Region rows.
    pub rows: usize,
    /// Region columns.
    pub cols: usize,
    /// Row stride of `x`, in floats.
    pub x_stride: usize,
    /// Row stride of the channels-last map, in pixels (`≥ cols`).
    pub cl_stride: usize,
}

impl TapRegion {
    /// Asserts that the region fits `x` (for the largest of `taps`), a
    /// channels-last map of `cl_len` floats and a `[taps × c]` operand
    /// of `t_len` floats. The vector kernels index unchecked on the
    /// strength of this check.
    pub(crate) fn check(self, x_len: usize, cl_len: usize, t_len: usize, taps: &[usize]) {
        assert!(
            self.c > 0 && self.cols <= self.cl_stride,
            "TapRegion {self:?}"
        );
        assert_eq!(t_len, taps.len() * self.c, "TapRegion: [taps × c] operand");
        if self.rows == 0 || self.cols == 0 {
            return;
        }
        let last = (self.rows - 1) * self.x_stride + self.cols - 1;
        let reach = taps.iter().max().map_or(0, |&t| last + t + 1);
        assert!(
            reach <= x_len,
            "TapRegion: x of {x_len} floats, taps reach {reach}"
        );
        let end = ((self.rows - 1) * self.cl_stride + self.cols) * self.c;
        assert!(
            end <= cl_len,
            "TapRegion: map of {cl_len} floats, region ends at {end}"
        );
    }
}

/// What a convolution kernel does with each finished sum on its way to
/// memory, for output channel `j` (`bias` holds one value per output
/// channel the kernel writes: one for [`Backend::conv_direct`], `c` for
/// [`Backend::conv_channels_last`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Epilogue<'a> {
    /// Store the sum.
    Store,
    /// Store `sum + bias[j]`.
    Bias(&'a [f32]),
    /// Store `max(sum + bias[j], 0.0)` (`f32::max`, so a NaN stores
    /// `0.0`): a ReLU over the biased sum.
    BiasRelu(&'a [f32]),
}

impl Epilogue<'_> {
    /// Output channels whose bias this epilogue holds (`None` for
    /// [`Epilogue::Store`]).
    pub(crate) fn channels(self) -> Option<usize> {
        match self {
            Epilogue::Store => None,
            Epilogue::Bias(b) | Epilogue::BiasRelu(b) => Some(b.len()),
        }
    }

    /// The value stored for the finished sum `s` of output channel `j`.
    #[inline]
    pub(crate) fn apply(self, s: f32, j: usize) -> f32 {
        match self {
            Epilogue::Store => s,
            Epilogue::Bias(b) => s + b[j],
            Epilogue::BiasRelu(b) => (s + b[j]).max(0.0),
        }
    }

    /// Applies the epilogue in place to `run`, whole pixels of
    /// `bias.len()` channels each, as [`Epilogue::apply`] does.
    pub(crate) fn finish(self, run: &mut [f32]) {
        let (bias, relu) = match self {
            Epilogue::Store => return,
            Epilogue::Bias(b) => (b, false),
            Epilogue::BiasRelu(b) => (b, true),
        };
        // Straight loops per case, so the compiler vectorizes them.
        match (bias, relu) {
            ([b], false) => run.iter_mut().for_each(|o| *o += b),
            ([b], true) => run.iter_mut().for_each(|o| *o = (*o + b).max(0.0)),
            (_, false) => {
                for px in run.chunks_exact_mut(bias.len()) {
                    px.iter_mut().zip(bias).for_each(|(o, &b)| *o += b);
                }
            }
            (_, true) => {
                for px in run.chunks_exact_mut(bias.len()) {
                    px.iter_mut()
                        .zip(bias)
                        .for_each(|(o, &b)| *o = (*o + b).max(0.0));
                }
            }
        }
    }
}

/// The value an `f32` bias-gradient sum folds from: `-0.0`, the
/// neutral element of IEEE addition and the start `Iterator::sum`
/// takes, so a sum of nothing but `-0.0` stays `-0.0`.
pub(crate) const SUM_START: f32 = -0.0;

/// The ReLU′ mask and bias-gradient sum that
/// [`Backend::conv_weight_channels_last`] folds into its pass over the
/// gradient: what the backward of an [`Epilogue::BiasRelu`] needs.
#[derive(Debug)]
pub struct ReluGrad<'a> {
    /// The ReLU's output as a channels-last map of the region's `c`
    /// channels: region pixel `(r, q)` at `(r·act_stride + q)·c`. Each
    /// gradient element is multiplied by `1.0` where its activation is
    /// `> 0` and by `0.0` elsewhere (NaN included), so a NaN gradient
    /// stays NaN.
    pub act: &'a [f32],
    /// Row stride of `act`, in pixels (`≥ cols`).
    pub act_stride: usize,
    /// Receives, per channel, the masked gradient summed over the
    /// region's pixels in ascending `(r, q)` from `-0.0` (the fold
    /// `Iterator::sum` computes): the bias gradient.
    pub bias: &'a mut [f32],
}

impl ReluGrad<'_> {
    /// Asserts that `act` covers the region and `bias` has one slot per
    /// channel. The vector kernels index unchecked on the strength of
    /// this check.
    pub(crate) fn check(&self, gm: TapRegion) {
        assert!(
            gm.cols <= self.act_stride && self.bias.len() == gm.c,
            "ReluGrad: stride {} bias {} for {gm:?}",
            self.act_stride,
            self.bias.len()
        );
        if gm.rows > 0 && gm.cols > 0 {
            let end = ((gm.rows - 1) * self.act_stride + gm.cols) * gm.c;
            assert!(
                end <= self.act.len(),
                "ReluGrad: act of {} floats, region ends at {end}",
                self.act.len()
            );
        }
    }
}

/// ReLU′ as a multiplier: `1.0` where the ReLU passed its input
/// (`act > 0`), `0.0` elsewhere, NaN included.
#[inline]
pub(crate) fn relu_grad(act: f32) -> f32 {
    if act > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// Serial microkernels executed by one pool job on its disjoint output
/// chunk. Implementations must preserve the determinism contract in the
/// module docs: one accumulator per output element, ascending-`k`
/// mul-then-add order.
pub trait Backend: Sync {
    /// Which implementation this is.
    fn kind(&self) -> BackendKind;

    /// `out[m×n] = a[m×k] · b[k×n]`.
    fn ab(&self, out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize);

    /// Rows `i0..i0 + out.len()/n` of `aᵀ · b` for `a: [k×am]`,
    /// `b: [k×n]` (with `k = a.len() / am`).
    fn at_b(&self, out: &mut [f32], a: &[f32], b: &[f32], i0: usize, am: usize, n: usize);

    /// `out[m×n] = a[m×k] · b[n×k]ᵀ`.
    fn a_bt(&self, out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize);

    /// Elementwise `dst[i] += src[i]` (used for ascending-order partial
    /// reductions; per-element a single exactly-rounded add, so the
    /// result never depends on lane width).
    fn add_assign(&self, dst: &mut [f32], src: &[f32]);

    /// One output channel of a convolution over the planar padded input
    /// `xpad: [c_in × hp × wp]`: the sum `Σ w[(ci·kh + dy)·kw + dx] ·
    /// xpad[(ci·hp + oy + dy)·wp + ox + dx]`, taken from `0.0` in
    /// ascending tap order `(ci, dy, dx)` (the `ab` GEMM's sums), goes
    /// through `epi` (one bias) into `out[oy·out_stride + ox]`. Row
    /// stride `out_stride ≥ wo` lets the rows land in the interior of a
    /// wider buffer (the next convolution's padded planes); the columns
    /// between them are left alone.
    fn conv_direct(
        &self,
        out: &mut [f32],
        out_stride: usize,
        xpad: &[f32],
        w: &[f32],
        gm: PaddedConv,
        epi: Epilogue,
    );

    /// Weight gradient over the channels-last padded input
    /// `xp: [hp × wp × c_in]` for `g: [C_out × ho·wo]`, in channels-last
    /// tap order: `acc[co·K + (dy·kw + dx)·c_in + ci] = Σ g[co·P + p] ·
    /// xp[((oy + dy)·wp + ox + dx)·c_in + ci]`, summed from `0.0` in
    /// ascending `p = oy·wo + ox` (`K` taps, `P` pixels). With `bias`,
    /// also the bias gradient `bias[co] = Σ_p g[co·P + p]`, in
    /// ascending `p` from `-0.0` (the fold `Iterator::sum` computes).
    fn conv_weight_taps(
        &self,
        acc: &mut [f32],
        xp: &[f32],
        g: &[f32],
        gm: PaddedConv,
        bias: Option<&mut [f32]>,
    );

    /// A 1→C correlation into a channels-last map: for every pixel of
    /// the region, the sum `Σ_i x[r·x_stride + q + taps[i]] · w[i·c +
    /// j]`, taken from `0.0` in the order of `taps` (`w: [taps × c]`),
    /// goes through `epi` (`c` biases) into `out[(r·cl_stride + q)·c +
    /// j]`. Pixels outside the region are left alone.
    fn conv_channels_last(
        &self,
        out: &mut [f32],
        x: &[f32],
        w: &[f32],
        taps: &[usize],
        gm: TapRegion,
        epi: Epilogue,
    );

    /// The weight and bias gradients of a [`Backend::conv_channels_last`]
    /// with an [`Epilogue::BiasRelu`], from the gradient `g` of its
    /// output: `g'` is `g` times ReLU′ of the activation `relu.act`, and
    /// `acc[i·c + j] = Σ x[r·x_stride + q + taps[i]] · g'[(r·cl_stride +
    /// q)·c + j]`, summed from `0.0` over the region's pixels in
    /// ascending `(r, q)` (`acc: [taps × c]`), while `relu.bias`
    /// receives the bias gradient (see [`ReluGrad`]).
    fn conv_weight_channels_last(
        &self,
        acc: &mut [f32],
        x: &[f32],
        g: &[f32],
        taps: &[usize],
        gm: TapRegion,
        relu: ReluGrad,
    );
}

impl PaddedConv {
    /// Asserts that `out` holds `ho` rows of `wo` outputs at row stride
    /// `out_stride`, `xpad` the padded input and `w` the taps, and that
    /// `epi` carries one bias. The vector kernels index unchecked on the
    /// strength of this check.
    pub(crate) fn check_direct(
        self,
        out: &[f32],
        out_stride: usize,
        xpad: &[f32],
        w: &[f32],
        epi: Epilogue,
    ) {
        assert!(
            out_stride >= self.wo && epi.channels().unwrap_or(1) == 1,
            "conv_direct: stride {out_stride} for {self:?}, epilogue {epi:?}"
        );
        let end = self
            .ho
            .checked_sub(1)
            .map_or(0, |r| r * out_stride + self.wo);
        assert!(
            end <= out.len(),
            "conv_direct: out of {} floats, rows end at {end}",
            out.len()
        );
        assert_eq!(xpad.len(), self.c_in * self.hp() * self.wp());
        assert_eq!(w.len(), self.taps());
    }
}

/// Output columns a scalar [`Backend::conv_direct`] sums in one
/// [`DirectBlock`].
const DIRECT_BLOCK: usize = 64;

/// A cache-line-aligned run of row accumulators: each tap's
/// read-modify-write sweep stays aligned whatever the alignment of the
/// output rows (which land at odd offsets inside padded planes).
#[repr(align(64))]
struct DirectBlock([f32; DIRECT_BLOCK]);

/// Scalar [`Backend::conv_direct`]: each block of a row's columns is a
/// run of accumulators, zeroed, swept once per tap, then copied out and
/// finished by the epilogue.
pub(crate) fn scalar_conv_direct(
    out: &mut [f32],
    out_stride: usize,
    xpad: &[f32],
    w: &[f32],
    gm: PaddedConv,
    epi: Epilogue,
) {
    gm.check_direct(out, out_stride, xpad, w, epi);
    let (hp, wp, wo) = (gm.hp(), gm.wp(), gm.wo);
    let mut block = DirectBlock([0.0; DIRECT_BLOCK]);
    for oy in 0..gm.ho {
        let row = &mut out[oy * out_stride..][..wo];
        for (b, dst) in row.chunks_mut(DIRECT_BLOCK).enumerate() {
            let len = dst.len();
            let acc = &mut block.0[..len];
            acc.fill(0.0);
            let mut taps = w.iter();
            for ci in 0..gm.c_in {
                for dy in 0..gm.kh {
                    let base = (ci * hp + oy + dy) * wp + b * DIRECT_BLOCK;
                    for (dx, &wv) in (0..gm.kw).zip(&mut taps) {
                        for (o, &v) in acc.iter_mut().zip(&xpad[base + dx..base + dx + len]) {
                            *o += wv * v;
                        }
                    }
                }
            }
            dst.copy_from_slice(acc);
            epi.finish(dst);
        }
    }
}

/// Scalar [`Backend::conv_weight_taps`]: pixel by pixel, each kernel
/// row's `kw·c_in` taps are one contiguous run of `xp`, added into the
/// matching run of accumulators, and the pixel's gradient into its bias
/// sum.
pub(crate) fn scalar_conv_weight_taps(
    acc: &mut [f32],
    xp: &[f32],
    g: &[f32],
    gm: PaddedConv,
    mut bias: Option<&mut [f32]>,
) {
    let (k_sz, p_sz, run, wp) = (gm.taps(), gm.pixels(), gm.kw * gm.c_in, gm.wp());
    assert_eq!(xp.len(), gm.hp() * wp * gm.c_in);
    assert_eq!(acc.len() / k_sz.max(1), g.len() / p_sz.max(1));
    if let Some(b) = bias.as_deref_mut() {
        assert_eq!(b.len(), g.len() / p_sz.max(1), "conv_weight_taps: bias");
        b.fill(SUM_START);
    }
    acc.fill(0.0);
    for (oy, ox) in (0..gm.ho).flat_map(|oy| (0..gm.wo).map(move |ox| (oy, ox))) {
        let p = oy * gm.wo + ox;
        for (co, g_co) in g.chunks_exact(p_sz).enumerate() {
            let acc_co = &mut acc[co * k_sz..(co + 1) * k_sz];
            let gp = g_co[p];
            if let Some(b) = bias.as_deref_mut() {
                b[co] += gp;
            }
            for (dy, acc_run) in acc_co.chunks_exact_mut(run).enumerate() {
                let src = ((oy + dy) * wp + ox) * gm.c_in;
                for (a, &v) in acc_run.iter_mut().zip(&xp[src..src + run]) {
                    *a += gp * v;
                }
            }
        }
    }
}

/// Scalar [`Backend::conv_channels_last`]: each region row of the map
/// is a run of accumulators, zeroed, swept once per tap, then finished
/// by the epilogue.
pub(crate) fn scalar_conv_channels_last(
    out: &mut [f32],
    x: &[f32],
    w: &[f32],
    taps: &[usize],
    gm: TapRegion,
    epi: Epilogue,
) {
    gm.check(x.len(), out.len(), w.len(), taps);
    let (c, cols) = (gm.c, gm.cols);
    assert!(epi.channels().is_none_or(|n| n == c), "epilogue {epi:?}");
    for r in 0..gm.rows {
        let row = &mut out[r * gm.cl_stride * c..][..cols * c];
        row.fill(0.0);
        for (&off, w_t) in taps.iter().zip(w.chunks_exact(c)) {
            let xs = &x[r * gm.x_stride + off..][..cols];
            for (px, &xv) in row.chunks_exact_mut(c).zip(xs) {
                for (o, &wv) in px.iter_mut().zip(w_t) {
                    *o += xv * wv;
                }
            }
        }
        epi.finish(row);
    }
}

/// Scalar [`Backend::conv_weight_channels_last`]: region row by region
/// row, the row's gradient is masked into a copy whose pixels feed the
/// bias sums; then pixel by pixel, each tap's `c` accumulators take the
/// pixel's masked gradient run times its `x`.
pub(crate) fn scalar_conv_weight_channels_last(
    acc: &mut [f32],
    x: &[f32],
    g: &[f32],
    taps: &[usize],
    gm: TapRegion,
    relu: ReluGrad,
) {
    gm.check(x.len(), g.len(), acc.len(), taps);
    relu.check(gm);
    let (c, cols) = (gm.c, gm.cols);
    acc.fill(0.0);
    relu.bias.fill(SUM_START);
    let mut masked = vec![0.0f32; cols * c];
    for r in 0..gm.rows {
        let g_row = &g[r * gm.cl_stride * c..][..cols * c];
        let a_row = &relu.act[r * relu.act_stride * c..][..cols * c];
        for ((m, &gv), &a) in masked.iter_mut().zip(g_row).zip(a_row) {
            *m = gv * relu_grad(a);
        }
        for px in masked.chunks_exact(c) {
            for (b, &v) in relu.bias.iter_mut().zip(px) {
                *b += v;
            }
        }
        for (q, g_px) in masked.chunks_exact(c).enumerate() {
            let base = r * gm.x_stride + q;
            for (acc_t, &off) in acc.chunks_exact_mut(c).zip(taps) {
                let xv = x[base + off];
                for (a, &gv) in acc_t.iter_mut().zip(g_px) {
                    *a += xv * gv;
                }
            }
        }
    }
}

/// `a.len() / am` guarded against the degenerate `am == 0` (which only
/// occurs alongside an empty `out`).
fn derived_k(a: &[f32], am: usize) -> usize {
    a.len().checked_div(am).unwrap_or(0)
}

fn scalar_add_assign(dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    for (o, &v) in dst.iter_mut().zip(src) {
        *o += v;
    }
}

/// `orow[j] = Σ_kk a[abase + kk·aks] · b[kk·n + j]` with `n = orow.len()`:
/// the output row is zeroed, then each ascending `kk` adds one scaled
/// `b` row into it. Every element is one accumulator summed in
/// ascending `k`; the contiguous inner loop is what the compiler
/// vectorizes.
fn scalar_row(orow: &mut [f32], a: &[f32], abase: usize, aks: usize, b: &[f32], k: usize) {
    let n = orow.len();
    orow.fill(0.0);
    for kk in 0..k {
        let av = a[abase + kk * aks];
        for (o, &bv) in orow.iter_mut().zip(&b[kk * n..(kk + 1) * n]) {
            *o += av * bv;
        }
    }
}

/// Scalar `out[m×n] = a[m×k] · b[k×n]` (i-k-j order).
pub(crate) fn scalar_ab(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        scalar_row(&mut out[i * n..(i + 1) * n], a, i * k, 1, b, k);
    }
}

/// Scalar rows `i0..i0 + out.len()/n` of `aᵀ · b` (`a: [k×am]`,
/// `b: [k×n]`), i-k-j order.
pub(crate) fn scalar_at_b(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    i0: usize,
    k: usize,
    am: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), k * am);
    debug_assert_eq!(b.len(), k * n);
    let rows = out.len().checked_div(n).unwrap_or(0);
    for r in 0..rows {
        scalar_row(&mut out[r * n..(r + 1) * n], a, i0 + r, am, b, k);
    }
}

/// Scalar `out[m×n] = a[m×k] · b[n×k]ᵀ`: `b` is transposed into a local
/// `[k×n]` copy (pure data movement), then [`scalar_ab`] runs on it.
/// A single row (`m == 1`, one streamed frame through a recurrent or
/// dense layer) is instead `n` direct dot products over `b`'s rows: the
/// transpose would cost as much as the product itself there.
pub(crate) fn scalar_a_bt(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    if m == 1 {
        for (j, o) in out.iter_mut().enumerate() {
            let brow = &b[j * k..(j + 1) * k];
            *o = a.iter().zip(brow).fold(0.0, |acc, (&x, &y)| acc + x * y);
        }
        return;
    }
    let mut bt = vec![0.0f32; k * n];
    for (j, brow) in b.chunks_exact(k.max(1)).enumerate() {
        for (kk, &v) in brow.iter().enumerate() {
            bt[kk * n + j] = v;
        }
    }
    scalar_ab(out, a, &bt, m, k, n);
}

/// Portable loops: every output row is one run of accumulators summed
/// in ascending `k` — the order every other backend reproduces bit for
/// bit.
pub struct ScalarBackend;

impl Backend for ScalarBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Scalar
    }

    fn ab(&self, out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        scalar_ab(out, a, b, m, k, n);
    }

    fn at_b(&self, out: &mut [f32], a: &[f32], b: &[f32], i0: usize, am: usize, n: usize) {
        scalar_at_b(out, a, b, i0, derived_k(a, am), am, n);
    }

    fn a_bt(&self, out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        scalar_a_bt(out, a, b, m, k, n);
    }

    fn add_assign(&self, dst: &mut [f32], src: &[f32]) {
        scalar_add_assign(dst, src);
    }

    fn conv_direct(
        &self,
        out: &mut [f32],
        out_stride: usize,
        xpad: &[f32],
        w: &[f32],
        gm: PaddedConv,
        epi: Epilogue,
    ) {
        scalar_conv_direct(out, out_stride, xpad, w, gm, epi);
    }

    fn conv_weight_taps(
        &self,
        acc: &mut [f32],
        xp: &[f32],
        g: &[f32],
        gm: PaddedConv,
        bias: Option<&mut [f32]>,
    ) {
        scalar_conv_weight_taps(acc, xp, g, gm, bias);
    }

    fn conv_channels_last(
        &self,
        out: &mut [f32],
        x: &[f32],
        w: &[f32],
        taps: &[usize],
        gm: TapRegion,
        epi: Epilogue,
    ) {
        scalar_conv_channels_last(out, x, w, taps, gm, epi);
    }

    fn conv_weight_channels_last(
        &self,
        acc: &mut [f32],
        x: &[f32],
        g: &[f32],
        taps: &[usize],
        gm: TapRegion,
        relu: ReluGrad,
    ) {
        scalar_conv_weight_channels_last(acc, x, g, taps, gm, relu);
    }
}

/// Explicit `std::arch` vector kernels (the crate's `simd` module). Safe to
/// construct on any host: each call re-checks the feature and falls back
/// to the scalar kernels when unsupported.
pub struct SimdBackend;

impl Backend for SimdBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Simd
    }

    fn ab(&self, out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        simd::ab(out, a, b, m, k, n);
    }

    fn at_b(&self, out: &mut [f32], a: &[f32], b: &[f32], i0: usize, am: usize, n: usize) {
        if n == 0 {
            return;
        }
        simd::at_b(out, a, b, i0, derived_k(a, am), am, n);
    }

    fn a_bt(&self, out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        simd::a_bt(out, a, b, m, k, n);
    }

    fn add_assign(&self, dst: &mut [f32], src: &[f32]) {
        simd::add_assign(dst, src);
    }

    fn conv_direct(
        &self,
        out: &mut [f32],
        out_stride: usize,
        xpad: &[f32],
        w: &[f32],
        gm: PaddedConv,
        epi: Epilogue,
    ) {
        simd::conv_direct(out, out_stride, xpad, w, gm, epi);
    }

    fn conv_weight_taps(
        &self,
        acc: &mut [f32],
        xp: &[f32],
        g: &[f32],
        gm: PaddedConv,
        bias: Option<&mut [f32]>,
    ) {
        simd::conv_weight_taps(acc, xp, g, gm, bias);
    }

    fn conv_channels_last(
        &self,
        out: &mut [f32],
        x: &[f32],
        w: &[f32],
        taps: &[usize],
        gm: TapRegion,
        epi: Epilogue,
    ) {
        simd::conv_channels_last(out, x, w, taps, gm, epi);
    }

    fn conv_weight_channels_last(
        &self,
        acc: &mut [f32],
        x: &[f32],
        g: &[f32],
        taps: &[usize],
        gm: TapRegion,
        relu: ReluGrad,
    ) {
        simd::conv_weight_channels_last(acc, x, g, taps, gm, relu);
    }
}

/// The static instance behind each [`BackendKind`].
pub fn backend_for(kind: BackendKind) -> &'static dyn Backend {
    match kind {
        BackendKind::Scalar => &ScalarBackend,
        BackendKind::Simd => &SimdBackend,
    }
}

/// Resolves a raw `SLM_BACKEND` value against host SIMD support.
///
/// Pure so the fallback policy is unit-testable without touching the
/// process environment: returns the chosen backend plus an optional
/// warning to emit. `None` / `auto` pick `simd` when `simd_supported`
/// and `scalar` otherwise; `simd` on an unsupported host falls back to
/// `scalar` with a warning; unrecognized values warn and use the
/// auto-detected choice.
pub fn resolve_backend(raw: Option<&str>, simd_supported: bool) -> (BackendKind, Option<String>) {
    let auto = if simd_supported {
        BackendKind::Simd
    } else {
        BackendKind::Scalar
    };
    let Some(raw) = raw else {
        return (auto, None);
    };
    match raw.trim().to_ascii_lowercase().as_str() {
        "" | "auto" => (auto, None),
        "scalar" => (BackendKind::Scalar, None),
        "simd" if simd_supported => (BackendKind::Simd, None),
        "simd" => (
            BackendKind::Scalar,
            Some(format!(
                "SLM_BACKEND={raw} requested but this host lacks the required \
                 vector features (AVX2/NEON); falling back to scalar"
            )),
        ),
        _ => (
            auto,
            Some(format!(
                "unusable SLM_BACKEND value {raw:?} (expected auto | scalar | simd); \
                 using {} (auto-detected)",
                auto.name()
            )),
        ),
    }
}

/// The process-wide backend choice, resolved once from `SLM_BACKEND`
/// (mirroring [`crate::pool::ComputePool::global`] for `SLM_THREADS`).
pub fn global_backend_kind() -> BackendKind {
    static KIND: OnceLock<BackendKind> = OnceLock::new();
    *KIND.get_or_init(|| {
        let raw = std::env::var("SLM_BACKEND").ok();
        let (kind, warning) = resolve_backend(raw.as_deref(), simd::supported());
        if let Some(msg) = warning {
            Telemetry::disabled().warn(&msg);
        }
        kind
    })
}

/// The process-wide backend instance (see [`global_backend_kind`]).
pub fn global_backend() -> &'static dyn Backend {
    backend_for(global_backend_kind())
}

/// The independent test reference: textbook triple loops with one
/// accumulator per output element, summed in ascending `k`, sharing no
/// code with either backend. The backend tests and the convolution
/// tests hold every backend to these, bitwise.
#[cfg(test)]
pub(crate) mod textbook {
    use super::derived_k;

    /// `out[i·n + j] = Σ_kk a(i, kk) · b(kk, j)` for every row of `out`;
    /// `A` and `B` are read through index closures so one loop serves
    /// all three orientations.
    fn gemm(
        out: &mut [f32],
        k: usize,
        n: usize,
        a: impl Fn(usize, usize) -> f32,
        b: impl Fn(usize, usize) -> f32,
    ) {
        for (i, orow) in out.chunks_exact_mut(n.max(1)).enumerate() {
            for (j, o) in orow.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a(i, kk) * b(kk, j);
                }
                *o = acc;
            }
        }
    }

    /// `out[m×n] = a[m×k] · b[k×n]`.
    pub(crate) fn ab(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        assert_eq!(out.len(), m * n);
        gemm(out, k, n, |i, kk| a[i * k + kk], |kk, j| b[kk * n + j]);
    }

    /// Rows `i0..i0 + out.len()/n` of `aᵀ · b` for `a: [k×am]`, `b: [k×n]`.
    pub(crate) fn at_b(out: &mut [f32], a: &[f32], b: &[f32], i0: usize, am: usize, n: usize) {
        let k = derived_k(a, am);
        gemm(
            out,
            k,
            n,
            |i, kk| a[kk * am + i0 + i],
            |kk, j| b[kk * n + j],
        );
    }

    /// `out[m×n] = a[m×k] · b[n×k]ᵀ`.
    pub(crate) fn a_bt(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        assert_eq!(out.len(), m * n);
        gemm(out, k, n, |i, kk| a[i * k + kk], |kk, j| b[j * k + kk]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Ragged shapes around the SIMD tiles (4 rows × 16/8 columns), the
    /// paper's dense, GRU-gate and conv weight-gradient shapes, single
    /// rows, and an empty inner dimension.
    const SHAPES: [(usize, usize, usize); 11] = [
        (1, 1, 1),
        (4, 16, 64),
        (5, 3, 65),
        (7, 33, 17),
        (2, 7, 7),
        (13, 21, 31),
        (64, 96, 96),
        (8, 9, 160),
        (1, 72, 160),
        (3, 0, 5),
        (1, 0, 4),
    ];

    #[test]
    fn every_backend_matches_the_textbook_loop_bitwise() {
        for &(m, k, n) in &SHAPES {
            let a = fill(m * k, 11);
            let b = fill(k * n, 23);
            let at = fill(k * m, 31); // for at_b: A is k×m
            let bt = fill(n * k, 37); // for a_bt: B is n×k
            let mut want_ab = vec![0.0f32; m * n];
            textbook::ab(&mut want_ab, &a, &b, m, k, n);
            let mut want_atb = vec![0.0f32; m * n];
            textbook::at_b(&mut want_atb, &at, &b, 0, m, n);
            let mut want_abt = vec![0.0f32; m * n];
            textbook::a_bt(&mut want_abt, &a, &bt, m, k, n);
            for kind in BackendKind::ALL {
                let be = backend_for(kind);
                assert_eq!(be.kind(), kind);
                let mut out = vec![f32::NAN; m * n];
                be.ab(&mut out, &a, &b, m, k, n);
                assert_eq!(bits(&out), bits(&want_ab), "{kind:?} ab {m}x{k}x{n}");
                let mut out = vec![f32::NAN; m * n];
                be.at_b(&mut out, &at, &b, 0, m, n);
                assert_eq!(bits(&out), bits(&want_atb), "{kind:?} at_b {m}x{k}x{n}");
                let mut out = vec![f32::NAN; m * n];
                be.a_bt(&mut out, &a, &bt, m, k, n);
                assert_eq!(bits(&out), bits(&want_abt), "{kind:?} a_bt {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn at_b_row_chunks_match_the_textbook_loop() {
        // A chunked at_b call (i0 > 0, out covering a row range) must
        // match the corresponding rows of the full product, bitwise —
        // including the last, short chunk and an empty inner dimension.
        for (k, am, n) in [(19usize, 23usize, 41usize), (0, 23, 41)] {
            let a = fill(k * am, 3);
            let b = fill(k * n, 5);
            let mut full = vec![0.0f32; am * n];
            textbook::at_b(&mut full, &a, &b, 0, am, n);
            for kind in BackendKind::ALL {
                let be = backend_for(kind);
                for (i0, rows) in [(7usize, 9usize), (16, 7), (22, 1)] {
                    let mut out = vec![f32::NAN; rows * n];
                    be.at_b(&mut out, &a, &b, i0, am, n);
                    let want = &full[i0 * n..(i0 + rows) * n];
                    assert_eq!(bits(&out), bits(want), "{kind:?} k={k} i0={i0}");
                }
            }
        }
    }

    #[test]
    fn nan_propagates_through_the_kernels() {
        // No kernel may skip a zero operand: 0 × NaN must reach the
        // accumulator in every orientation, or the health watchdog never
        // sees the non-finite value.
        let (m, k, n) = (3usize, 5usize, 20usize);
        for kind in BackendKind::ALL {
            let be = backend_for(kind);
            // ab: A all zeros, one NaN in B row 2 at column 3.
            let a = vec![0.0f32; m * k];
            let mut b = vec![0.0f32; k * n];
            b[2 * n + 3] = f32::NAN;
            let mut out = vec![0.0f32; m * n];
            be.ab(&mut out, &a, &b, m, k, n);
            for i in 0..m {
                assert!(out[i * n + 3].is_nan(), "{kind:?} ab row {i}");
            }
            // at_b: A is k×m zeros; the same NaN in B.
            let mut out = vec![0.0f32; m * n];
            be.at_b(&mut out, &a, &b, 0, m, n);
            assert!(out[n + 3].is_nan(), "{kind:?} at_b");
            // a_bt: B is n×k zeros; NaN in A row 1 reaches every column.
            let mut a = vec![0.0f32; m * k];
            a[k + 4] = f32::NAN;
            let bt = vec![0.0f32; n * k];
            let mut out = vec![0.0f32; m * n];
            be.a_bt(&mut out, &a, &bt, m, k, n);
            assert!(out[n..2 * n].iter().all(|v| v.is_nan()), "{kind:?} a_bt");
            assert!(!out[..n].iter().any(|v| v.is_nan()), "{kind:?} a_bt row 0");
            // a_bt with one row (the direct dot-product path): A zeros,
            // NaN in B row 7 reaches output column 7 only.
            let mut bt = vec![0.0f32; n * k];
            bt[7 * k + 2] = f32::NAN;
            let mut out = vec![0.0f32; n];
            be.a_bt(&mut out, &a[..k], &bt, 1, k, n);
            assert!(out[7].is_nan(), "{kind:?} a_bt m=1");
            assert_eq!(
                out.iter().filter(|v| v.is_nan()).count(),
                1,
                "{kind:?} a_bt m=1"
            );
        }
    }

    #[test]
    fn channels_last_kernels_match_the_definition() {
        // A 3×4 region of a 2-channel-wider map over a 6-wide `x`, four
        // taps in a caller order that is not ascending, a NaN planted in
        // `x` that exactly the pixels whose taps read it must see. The
        // forward runs plain and through a bias + ReLU epilogue; the
        // weight gradient runs through the ReLU′ mask of an activation
        // map with a 5-pixel row stride, and returns its bias sums too.
        for c in [1usize, 3, 8, 16] {
            let gm = TapRegion {
                c,
                rows: 3,
                cols: 4,
                x_stride: 6,
                cl_stride: 6,
            };
            let taps = [7usize, 0, 13, 2];
            let mut x = fill(5 * 6, 3);
            x[8] = f32::NAN;
            let w = fill(taps.len() * c, 5);
            let g = fill(3 * 6 * c, 7);
            let bias = fill(c, 9);
            let act = fill(3 * 5 * c, 11);
            let mut want = vec![-1.0f32; 3 * 6 * c];
            let mut want_relu = want.clone();
            let mut want_masked = vec![0.0f32; taps.len() * c];
            let mut want_bias = vec![-0.0f32; c];
            for (r, q) in (0..3).flat_map(|r| (0..4).map(move |q| (r, q))) {
                for j in 0..c {
                    let x_at = |i: usize| x[r * 6 + q + taps[i]];
                    let gv = g[(r * 6 + q) * c + j];
                    let gm_v = gv
                        * if act[(r * 5 + q) * c + j] > 0.0 {
                            1.0
                        } else {
                            0.0
                        };
                    want_bias[j] += gm_v;
                    let mut acc = 0.0f32;
                    for i in 0..taps.len() {
                        acc += x_at(i) * w[i * c + j];
                        want_masked[i * c + j] += x_at(i) * gm_v;
                    }
                    want[(r * 6 + q) * c + j] = acc;
                    want_relu[(r * 6 + q) * c + j] = (acc + bias[j]).max(0.0);
                }
            }
            let canon = |v: &[f32]| -> Vec<u32> {
                v.iter()
                    .map(|x| {
                        if x.is_nan() {
                            f32::NAN.to_bits()
                        } else {
                            x.to_bits()
                        }
                    })
                    .collect()
            };
            for kind in BackendKind::ALL {
                let be = backend_for(kind);
                let mut out = vec![-1.0f32; 3 * 6 * c];
                be.conv_channels_last(&mut out, &x, &w, &taps, gm, Epilogue::Store);
                assert_eq!(canon(&out), canon(&want), "{kind:?} forward c={c}");
                assert!(out.iter().filter(|v| v.is_nan()).count() > 0);
                let mut out = vec![-1.0f32; 3 * 6 * c];
                let epi = Epilogue::BiasRelu(&bias);
                be.conv_channels_last(&mut out, &x, &w, &taps, gm, epi);
                assert_eq!(bits(&out), bits(&want_relu), "{kind:?} bias+relu c={c}");
                let mut acc = vec![f32::NAN; taps.len() * c];
                let mut b = vec![f32::NAN; c];
                let relu = ReluGrad {
                    act: &act,
                    act_stride: 5,
                    bias: &mut b,
                };
                be.conv_weight_channels_last(&mut acc, &x, &g, &taps, gm, relu);
                assert_eq!(canon(&acc), canon(&want_masked), "{kind:?} masked c={c}");
                assert_eq!(bits(&b), bits(&want_bias), "{kind:?} bias sums c={c}");
            }
        }
    }

    #[test]
    fn add_assign_agrees_across_backends() {
        for len in [0usize, 1, 7, 8, 9, 64, 129] {
            let src = fill(len, 17);
            let base = fill(len, 29);
            let mut want = base.clone();
            scalar_add_assign(&mut want, &src);
            for kind in BackendKind::ALL {
                let mut dst = base.clone();
                backend_for(kind).add_assign(&mut dst, &src);
                assert_eq!(bits(&dst), bits(&want), "{kind:?} len={len}");
            }
        }
    }

    #[test]
    fn resolve_prefers_simd_when_supported() {
        assert_eq!(resolve_backend(None, true), (BackendKind::Simd, None));
        assert_eq!(resolve_backend(None, false), (BackendKind::Scalar, None));
        assert_eq!(
            resolve_backend(Some("auto"), true),
            (BackendKind::Simd, None)
        );
        assert_eq!(
            resolve_backend(Some("Scalar"), true),
            (BackendKind::Scalar, None)
        );
        assert_eq!(
            resolve_backend(Some(" simd "), true),
            (BackendKind::Simd, None)
        );
    }

    #[test]
    fn forcing_simd_without_support_warns_and_falls_back_to_scalar() {
        let (kind, warning) = resolve_backend(Some("simd"), false);
        assert_eq!(kind, BackendKind::Scalar);
        let msg = warning.expect("unsupported simd request must warn");
        assert!(msg.contains("SLM_BACKEND=simd"), "{msg}");
        assert!(msg.contains("falling back to scalar"), "{msg}");
    }

    #[test]
    fn garbage_value_warns_and_uses_auto_detection() {
        // `pooled` named the removed cache-blocked tier; it is now an
        // unknown value like any other.
        for raw in ["garbage", "pooled"] {
            for simd_ok in [true, false] {
                let auto = if simd_ok {
                    BackendKind::Simd
                } else {
                    BackendKind::Scalar
                };
                let (kind, warning) = resolve_backend(Some(raw), simd_ok);
                assert_eq!(kind, auto, "{raw}");
                let msg = warning.expect("unknown value must warn");
                assert!(msg.contains(&format!("{raw:?}")), "{msg}");
                assert!(msg.contains(auto.name()), "{msg}");
            }
        }
    }

    #[test]
    fn names_and_indices_are_stable() {
        // Published `tensor.backend` ids: 0 = scalar, 2 = simd (1 was the
        // removed blocked tier and is never reused).
        assert_eq!(BackendKind::Scalar.index(), 0);
        assert_eq!(BackendKind::Simd.index(), 2);
        assert!(BackendKind::ALL
            .windows(2)
            .all(|w| w[0].index() < w[1].index()));
        for kind in BackendKind::ALL {
            assert_eq!(backend_for(kind).kind(), kind);
            assert_eq!(resolve_backend(Some(kind.name()), true), (kind, None));
        }
    }
}
