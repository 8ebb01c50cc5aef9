//! AVX2 f32 GEMM and convolution microkernels.
//!
//! Structure: a broadcast kernel computes `R`-row × 16-column register
//! tiles — eight 8-lane accumulators live in `ymm` registers across the
//! whole `k` loop, each lane owning one output element. Per `kk` the
//! kernel loads two 8-lane slices of a `B` row, broadcasts one `A`
//! element per row, and issues `mul` then `add` per accumulator —
//! exactly the scalar kernels' per-element operation sequence in the
//! same ascending-`kk` order, so results are bitwise identical (see the
//! module docs in [`crate::simd`]). **No fused multiply-add** (`vfmadd`
//! rounds once where the scalar path rounds twice) and **no horizontal
//! adds** (cross-lane reduction would reorder the sum).
//!
//! The convolution kernels keep the same per-lane contract and fold the
//! UE CNN's elementwise work into their passes, lane for lane what the
//! scalar loops do: an [`Epilogue`] (bias add, then `max` with zero for
//! the ReLU) on the finished sums as they are stored, at any output row
//! stride; a [`ReluGrad`] mask (`cmp > 0`, `and` with `1.0`, `mul`) on
//! each gradient vector as it is loaded, whose bias sum is one more
//! accumulator vector fed in ascending pixel order from `-0.0`; and the
//! taps weight gradient's bias sum as a scalar chain over the gradient
//! values it broadcasts. The pixel loops walk pointers whose per-vector
//! offsets are fixed for the pass, so accumulators and addresses stay in
//! registers.
//!
//! Every public kernel here requires AVX2, enforced by the caller's
//! runtime `is_x86_feature_detected!` check — the `#[target_feature]`
//! attribute makes the calls `unsafe` from ordinary code.

use core::arch::x86_64::{
    __m256, _mm256_add_ps, _mm256_and_ps, _mm256_cmp_ps, _mm256_loadu_ps, _mm256_max_ps,
    _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps, _CMP_GT_OQ,
};

use crate::backend::{Epilogue, PaddedConv, ReluGrad, TapRegion, SUM_START};

/// Rows per register tile: each loaded `B` slice serves `MR` broadcast
/// `A` rows.
const MR: usize = 4;

/// Columns per register tile: two 8-lane vectors.
const NR: usize = 16;

/// One GEMM problem with a strided `A` view, shared by the `A·B` and
/// `Aᵀ·B` entry points: `A(r, kk) = a[base + r·ars + kk·aks]` and
/// `B(kk, j) = b[kk·bs + j]`; the output has `n` columns.
#[derive(Clone, Copy)]
struct Gemm<'x> {
    a: &'x [f32],
    base: usize,
    /// `A` row stride.
    ars: usize,
    /// `A` k stride.
    aks: usize,
    b: &'x [f32],
    /// `B` row stride (≥ the widest column tile touched).
    bs: usize,
    k: usize,
    /// Output row stride / logical column count.
    n: usize,
}

impl Gemm<'_> {
    #[inline]
    fn a_at(&self, r: usize, kk: usize) -> f32 {
        self.a[self.base + r * self.ars + kk * self.aks]
    }
}

/// `out[m×n] = a[m×k] · b[k×n]`.
///
/// # Safety
/// AVX2 must be available (`is_x86_feature_detected!("avx2")`).
#[target_feature(enable = "avx2")]
pub(crate) fn ab(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    let g = Gemm {
        a,
        base: 0,
        ars: k,
        aks: 1,
        b,
        bs: n,
        k,
        n,
    };
    drive(g, out, m);
}

/// Rows `i0..i0 + out.len()/n` of `aᵀ · b` (`a: [k×am]`, `b: [k×n]`).
///
/// # Safety
/// AVX2 must be available (`is_x86_feature_detected!("avx2")`).
#[target_feature(enable = "avx2")]
pub(crate) fn at_b(out: &mut [f32], a: &[f32], b: &[f32], i0: usize, am: usize, n: usize) {
    let k = a.len().checked_div(am).unwrap_or(0);
    debug_assert_eq!(a.len(), k * am);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len() % n.max(1), 0);
    let g = Gemm {
        a,
        base: i0,
        ars: 1,
        aks: am,
        b,
        bs: n,
        k,
        n,
    };
    let rows = out.len().checked_div(n).unwrap_or(0);
    drive(g, out, rows);
}

/// `out[m×n] = a[m×k] · b[n×k]ᵀ` via transposed 16-column `B` panels:
/// pack `panel[kk·16 + c] = b[(j0+c)·k + kk]` (pure data movement), then
/// run the same broadcast kernel over the panel. Ragged columns (< 16)
/// take plain ascending-`k` dot products.
///
/// # Safety
/// AVX2 must be available (`is_x86_feature_detected!("avx2")`).
#[target_feature(enable = "avx2")]
pub(crate) fn a_bt(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    let mut panel = vec![0.0f32; k * NR];
    let mut j0 = 0;
    while j0 + NR <= n {
        for c in 0..NR {
            let src = &b[(j0 + c) * k..(j0 + c + 1) * k];
            for (kk, &v) in src.iter().enumerate() {
                panel[kk * NR + c] = v;
            }
        }
        let g = Gemm {
            a,
            base: 0,
            ars: k,
            aks: 1,
            b: &panel,
            bs: NR,
            k,
            n,
        };
        cols16(g, out, m, j0, 0);
        j0 += NR;
    }
    for r in 0..m {
        let arow = &a[r * k..(r + 1) * k];
        for j in j0..n {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in arow.iter().zip(brow) {
                acc += av * bv;
            }
            out[r * n + j] = acc;
        }
    }
}

/// Elementwise `dst[i] += src[i]`, 8 lanes at a time.
///
/// # Safety
/// AVX2 must be available (`is_x86_feature_detected!("avx2")`).
#[target_feature(enable = "avx2")]
pub(crate) fn add_assign(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len());
    let len = dst.len();
    let mut i = 0;
    while i + 8 <= len {
        // SAFETY: `i + 8 <= len` for both equal-length slices.
        unsafe {
            let dp = dst.as_mut_ptr().add(i);
            let d = _mm256_loadu_ps(dp);
            let s = _mm256_loadu_ps(src.as_ptr().add(i));
            _mm256_storeu_ps(dp, _mm256_add_ps(d, s));
        }
        i += 8;
    }
    while i < len {
        dst[i] += src[i];
        i += 1;
    }
}

/// Full column sweep for one strided GEMM: 16-wide tiles, then one
/// 8-wide step, then a scalar column tail — all per-element ascending-`k`.
#[target_feature(enable = "avx2")]
fn drive(g: Gemm, out: &mut [f32], m: usize) {
    let n = g.n;
    let mut j0 = 0;
    while j0 + NR <= n {
        cols16(g, out, m, j0, j0);
        j0 += NR;
    }
    if j0 + 8 <= n {
        cols8(g, out, m, j0, j0);
        j0 += 8;
    }
    if j0 < n {
        for r in 0..m {
            for j in j0..n {
                let mut acc = 0.0f32;
                for kk in 0..g.k {
                    acc += g.a_at(r, kk) * g.b[kk * g.bs + j];
                }
                out[r * n + j] = acc;
            }
        }
    }
}

/// All row blocks of one 16-column stripe (`j0_out` in the output,
/// `j0_b` in `B` — they differ only for packed panels).
#[target_feature(enable = "avx2")]
fn cols16(g: Gemm, out: &mut [f32], m: usize, j0_out: usize, j0_b: usize) {
    let mut r0 = 0;
    while r0 < m {
        match MR.min(m - r0) {
            4 => tile16::<4>(g, out, r0, j0_out, j0_b),
            3 => tile16::<3>(g, out, r0, j0_out, j0_b),
            2 => tile16::<2>(g, out, r0, j0_out, j0_b),
            _ => tile16::<1>(g, out, r0, j0_out, j0_b),
        }
        r0 += MR;
    }
}

/// All row blocks of one 8-column stripe.
#[target_feature(enable = "avx2")]
fn cols8(g: Gemm, out: &mut [f32], m: usize, j0_out: usize, j0_b: usize) {
    let mut r0 = 0;
    while r0 < m {
        match MR.min(m - r0) {
            4 => tile8::<4>(g, out, r0, j0_out, j0_b),
            3 => tile8::<3>(g, out, r0, j0_out, j0_b),
            2 => tile8::<2>(g, out, r0, j0_out, j0_b),
            _ => tile8::<1>(g, out, r0, j0_out, j0_b),
        }
        r0 += MR;
    }
}

/// One `R`-row × 16-column register tile. `2R` accumulators stay
/// register-resident across the whole `k` loop; each lane is one output
/// element accumulated in ascending `kk` with `mul` then `add`.
#[target_feature(enable = "avx2")]
fn tile16<const R: usize>(g: Gemm, out: &mut [f32], r0: usize, j0_out: usize, j0_b: usize) {
    debug_assert!(j0_b + NR <= g.bs && g.k * g.bs <= g.b.len());
    debug_assert!(j0_out + NR <= g.n && (r0 + R) * g.n <= out.len());
    let mut acc = [[_mm256_setzero_ps(); 2]; R];
    let bp = g.b.as_ptr();
    for kk in 0..g.k {
        // SAFETY: `kk·bs + j0_b + 16 ≤ b.len()` by the tile geometry
        // debug-asserted above.
        let (b0, b1) = unsafe {
            let p = bp.add(kk * g.bs + j0_b);
            (_mm256_loadu_ps(p), _mm256_loadu_ps(p.add(8)))
        };
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_ps(g.a_at(r0 + r, kk));
            acc_r[0] = _mm256_add_ps(acc_r[0], _mm256_mul_ps(av, b0));
            acc_r[1] = _mm256_add_ps(acc_r[1], _mm256_mul_ps(av, b1));
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        // SAFETY: rows `r0..r0+R` at columns `j0_out..j0_out+16` are in
        // bounds per the debug-asserted tile geometry.
        unsafe {
            let p = out.as_mut_ptr().add((r0 + r) * g.n + j0_out);
            _mm256_storeu_ps(p, acc_r[0]);
            _mm256_storeu_ps(p.add(8), acc_r[1]);
        }
    }
}

/// One `R`-row × 8-column register tile (the narrower column step).
#[target_feature(enable = "avx2")]
fn tile8<const R: usize>(g: Gemm, out: &mut [f32], r0: usize, j0_out: usize, j0_b: usize) {
    debug_assert!(j0_b + 8 <= g.bs && g.k * g.bs <= g.b.len());
    debug_assert!(j0_out + 8 <= g.n && (r0 + R) * g.n <= out.len());
    let mut acc = [_mm256_setzero_ps(); R];
    let bp = g.b.as_ptr();
    for kk in 0..g.k {
        // SAFETY: `kk·bs + j0_b + 8 ≤ b.len()` by the tile geometry
        // debug-asserted above.
        let bv = unsafe { _mm256_loadu_ps(bp.add(kk * g.bs + j0_b)) };
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_ps(g.a_at(r0 + r, kk));
            *acc_r = _mm256_add_ps(*acc_r, _mm256_mul_ps(av, bv));
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        // SAFETY: rows `r0..r0+R` at columns `j0_out..j0_out+8` are in
        // bounds per the debug-asserted tile geometry.
        unsafe { _mm256_storeu_ps(out.as_mut_ptr().add((r0 + r) * g.n + j0_out), *acc_r) };
    }
}

/// Most 8-column accumulator vectors per output row in [`conv_direct`]:
/// two rows run together, so up to twelve stay in registers (48
/// columns); wider rows run in several blocks.
const ROW_VECS: usize = 6;

/// Most 8-lane accumulators [`conv_weight_taps`] keeps in registers at
/// once (96 taps); longer tap sets run in several passes over the image.
const TAP_VECS: usize = 12;

/// An [`Epilogue`] for one 8-lane block of output channels: the bias
/// vector to add, and whether a ReLU follows.
#[derive(Clone, Copy)]
struct VecEpilogue {
    bias: Option<__m256>,
    relu: bool,
}

impl VecEpilogue {
    /// Channels `j0..j0 + 8` of `epi`; a single bias (one output
    /// channel) goes to every lane.
    #[target_feature(enable = "avx2")]
    fn new(epi: Epilogue, j0: usize) -> VecEpilogue {
        let (bias, relu) = match epi {
            Epilogue::Store => {
                return VecEpilogue {
                    bias: None,
                    relu: false,
                }
            }
            Epilogue::Bias(b) => (b, false),
            Epilogue::BiasRelu(b) => (b, true),
        };
        let bias = if let [b] = *bias {
            _mm256_set1_ps(b)
        } else {
            let lanes = &bias[j0..j0 + 8];
            // SAFETY: `lanes` holds exactly 8 floats.
            unsafe { _mm256_loadu_ps(lanes.as_ptr()) }
        };
        VecEpilogue {
            bias: Some(bias),
            relu,
        }
    }

    /// The vector stored for the finished sums `v`. The sums start at
    /// `0.0`, so none is `-0.0`, and neither is a sum plus a bias (an
    /// exact cancellation rounds to `+0.0`): `max` never has to order
    /// two zeros. `_mm256_max_ps(v, 0)` returns its second operand when
    /// `v` is NaN, as `f32::max(NaN, 0.0)` returns `0.0`, and ±Inf
    /// compare as numbers in both, so every lane equals the scalar
    /// [`Epilogue::apply`].
    #[inline]
    #[target_feature(enable = "avx2")]
    fn apply(self, v: __m256) -> __m256 {
        let v = match self.bias {
            Some(b) => _mm256_add_ps(v, b),
            None => v,
        };
        if self.relu {
            _mm256_max_ps(v, _mm256_setzero_ps())
        } else {
            v
        }
    }
}

/// The operands of one [`conv_direct`] call.
#[derive(Clone, Copy)]
struct Direct<'x> {
    xpad: &'x [f32],
    w: &'x [f32],
    gm: PaddedConv,
    out_stride: usize,
    epi: VecEpilogue,
}

/// One output channel of a convolution over planar padded input, with
/// its epilogue (see [`crate::backend::Backend::conv_direct`]). Output
/// rows go in pairs, one column block at a time; per pair, up to
/// [`ROW_VECS`] 8-column accumulators per row stay in registers across
/// every tap, each lane one output element summed in ascending tap order
/// with `mul` then `add`, and go through the epilogue on their way to
/// the strided rows. Pairing gives each tap's broadcast weight twice the
/// independent add chains. The columns left over (`wo mod 8`) are scalar
/// accumulators with the same order.
///
/// # Safety
/// AVX2 must be available (`is_x86_feature_detected!("avx2")`).
#[target_feature(enable = "avx2")]
pub(crate) fn conv_direct(
    out: &mut [f32],
    out_stride: usize,
    xpad: &[f32],
    w: &[f32],
    gm: PaddedConv,
    epi: Epilogue,
) {
    gm.check_direct(out, out_stride, xpad, w, epi);
    let (hp, wp, wo) = (gm.hp(), gm.wp(), gm.wo);
    let d = Direct {
        xpad,
        w,
        gm,
        out_stride,
        epi: VecEpilogue::new(epi, 0),
    };
    let mut x0 = 0;
    while x0 + 8 <= wo {
        let vecs = ((wo - x0) / 8).min(ROW_VECS);
        match vecs {
            1 => direct_cols::<1>(out, d, x0),
            2 => direct_cols::<2>(out, d, x0),
            3 => direct_cols::<3>(out, d, x0),
            4 => direct_cols::<4>(out, d, x0),
            5 => direct_cols::<5>(out, d, x0),
            _ => direct_cols::<ROW_VECS>(out, d, x0),
        }
        x0 += 8 * vecs;
    }
    for oy in 0..gm.ho {
        for (ox, o) in out[oy * out_stride..][..wo].iter_mut().enumerate().skip(x0) {
            let mut acc = 0.0f32;
            let mut taps = w.iter();
            for ci in 0..gm.c_in {
                for dy in 0..gm.kh {
                    let base = (ci * hp + oy + dy) * wp + ox;
                    // The slice leads the zip, so no tap is drawn past the
                    // kernel row.
                    for (&v, &wv) in xpad[base..base + gm.kw].iter().zip(&mut taps) {
                        acc += wv * v;
                    }
                }
            }
            *o = epi.apply(acc, 0);
        }
    }
}

/// Columns `x0..x0 + 8V` of every output row: row pairs, then the odd
/// row out, one [`direct_block`] each.
#[target_feature(enable = "avx2")]
fn direct_cols<const V: usize>(out: &mut [f32], d: Direct, x0: usize) {
    let mut oy = 0;
    while oy + 2 <= d.gm.ho {
        direct_block::<2, V>(out, d, oy, x0);
        oy += 2;
    }
    if oy < d.gm.ho {
        direct_block::<1, V>(out, d, oy, x0);
    }
}

/// Columns `x0..x0 + 8V` of output rows `oy..oy + R`, `R·V` register
/// accumulators.
#[inline]
#[target_feature(enable = "avx2")]
fn direct_block<const R: usize, const V: usize>(out: &mut [f32], d: Direct, oy: usize, x0: usize) {
    let gm = d.gm;
    let (hp, wp) = (gm.hp(), gm.wp());
    assert!(x0 + 8 * V <= gm.wo && oy + R <= gm.ho);
    let mut acc = [[_mm256_setzero_ps(); V]; R];
    let mut taps = d.w.iter();
    for ci in 0..gm.c_in {
        for dy in 0..gm.kh {
            let base = (ci * hp + oy + dy) * wp + x0;
            for (dx, &wv) in (0..gm.kw).zip(&mut taps) {
                let wv = _mm256_set1_ps(wv);
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    // SAFETY: the run `base + r·wp + dx .. + 8V` ends at or
                    // before `(ci·hp + oy + r + dy)·wp + x0 + kw - 1 + 8V ≤
                    // … + wp` (`x0 + 8V ≤ wo`), inside row `oy + r + dy <
                    // hp` of channel `ci` (`oy + R ≤ ho`, asserted above;
                    // `xpad`'s length checked by the caller).
                    let p = unsafe { d.xpad.as_ptr().add(base + r * wp + dx) };
                    for (v, acc_v) in acc_r.iter_mut().enumerate() {
                        // SAFETY: see above; lane block `v < V`.
                        let x = unsafe { _mm256_loadu_ps(p.add(8 * v)) };
                        *acc_v = _mm256_add_ps(*acc_v, _mm256_mul_ps(wv, x));
                    }
                }
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        let row = (oy + r) * d.out_stride + x0;
        for (v, acc_v) in acc_r.iter().enumerate() {
            // SAFETY: `(oy + r)·out_stride + x0 + 8v + 8 ≤ (ho - 1)·
            // out_stride + wo ≤ out.len()` (`oy + R ≤ ho` and `x0 + 8V ≤
            // wo` asserted above, the rows' end checked by the caller).
            unsafe { _mm256_storeu_ps(out.as_mut_ptr().add(row + 8 * v), d.epi.apply(*acc_v)) };
        }
    }
}

/// Channels-last weight gradient and optional bias sums (see
/// [`crate::backend::Backend::conv_weight_taps`]) for `kw·c_in` a
/// multiple of 8. Each output channel's `K` accumulators are 8-lane
/// vectors; up to [`TAP_VECS`] of them stay in registers for one pass
/// over the pixels, each lane one output summed in ascending `p` with
/// `mul` then `add`. Each pass also sums the gradient values it
/// broadcasts, a scalar chain whose adds overlap the vector work; the
/// first pass's sum is the channel's bias gradient.
///
/// # Safety
/// AVX2 must be available (`is_x86_feature_detected!("avx2")`).
#[target_feature(enable = "avx2")]
pub(crate) fn conv_weight_taps(
    acc: &mut [f32],
    xp: &[f32],
    g: &[f32],
    gm: PaddedConv,
    mut bias: Option<&mut [f32]>,
) {
    let (k_sz, p_sz) = (gm.taps(), gm.pixels());
    assert!(
        (gm.kw * gm.c_in).is_multiple_of(8),
        "runs must fill whole vectors"
    );
    assert_eq!(xp.len(), gm.hp() * gm.wp() * gm.c_in);
    assert_eq!(acc.len() / k_sz.max(1), g.len() / p_sz.max(1));
    if let Some(b) = bias.as_deref() {
        assert_eq!(b.len(), g.len() / p_sz.max(1), "conv_weight_taps: bias");
    }
    let vecs = k_sz / 8;
    for (co, g_co) in g.chunks_exact(p_sz).enumerate() {
        let acc_co = &mut acc[co * k_sz..(co + 1) * k_sz];
        let mut j0 = 0;
        loop {
            let block = (vecs - j0).min(TAP_VECS);
            let acc_b = &mut acc_co[8 * j0..8 * (j0 + block)];
            let sum = match block {
                0 => taps_block::<0>(acc_b, xp, g_co, gm, j0),
                1 => taps_block::<1>(acc_b, xp, g_co, gm, j0),
                2 => taps_block::<2>(acc_b, xp, g_co, gm, j0),
                3 => taps_block::<3>(acc_b, xp, g_co, gm, j0),
                4 => taps_block::<4>(acc_b, xp, g_co, gm, j0),
                5 => taps_block::<5>(acc_b, xp, g_co, gm, j0),
                6 => taps_block::<6>(acc_b, xp, g_co, gm, j0),
                7 => taps_block::<7>(acc_b, xp, g_co, gm, j0),
                8 => taps_block::<8>(acc_b, xp, g_co, gm, j0),
                9 => taps_block::<9>(acc_b, xp, g_co, gm, j0),
                10 => taps_block::<10>(acc_b, xp, g_co, gm, j0),
                11 => taps_block::<11>(acc_b, xp, g_co, gm, j0),
                _ => taps_block::<TAP_VECS>(acc_b, xp, g_co, gm, j0),
            };
            if let (0, Some(b)) = (j0, bias.as_deref_mut()) {
                b[co] = sum;
            }
            j0 += block;
            if j0 >= vecs {
                break;
            }
        }
    }
}

/// Accumulator vectors `j0..j0 + N` of one output channel (`acc_b`,
/// `8N` floats) in one pass over the pixels; returns the bias sum of
/// `g_co`, a scalar chain that costs one add per pixel beside the vector
/// work. The pixel loop advances one pointer per accumulator vector, so
/// pointers and accumulators stay in registers.
#[target_feature(enable = "avx2")]
fn taps_block<const N: usize>(
    acc_b: &mut [f32],
    xp: &[f32],
    g_co: &[f32],
    gm: PaddedConv,
    j0: usize,
) -> f32 {
    let (run, wp, c_in, wo) = (gm.kw * gm.c_in, gm.wp(), gm.c_in, gm.wo);
    assert_eq!(acc_b.len(), 8 * N);
    assert_eq!(g_co.len(), gm.pixels());
    assert!(8 * (j0 + N) <= gm.taps() && xp.len() == gm.hp() * wp * c_in);
    // Vector j covers taps 8(j0 + j).. of kernel row dy = 8(j0 + j) / run;
    // for pixel (oy, ox) it reads xp at ((oy + dy)·wp + ox)·c_in plus its
    // offset within the row's run.
    let mut off = [0usize; N];
    for (j, o) in off.iter_mut().enumerate() {
        let f = 8 * (j0 + j);
        *o = (f / run) * wp * c_in + f % run;
    }
    let mut acc = [_mm256_setzero_ps(); N];
    let mut sum = SUM_START;
    for oy in 0..gm.ho {
        let g_row = &g_co[oy * wo..][..wo];
        let row = xp[oy * wp * c_in..].as_ptr();
        let mut ptrs = off.map(|o| row.wrapping_add(o));
        for &gp in g_row {
            let gv = _mm256_set1_ps(gp);
            sum += gp;
            for (acc_j, p) in acc.iter_mut().zip(&mut ptrs) {
                // SAFETY: the vector ends at `((oy + dy)·wp + ox)·c_in +
                // o % run + 8 ≤ ((ho - 1 + kh - 1)·wp + wo - 1)·c_in + run
                // = hp·wp·c_in = xp.len()` (`o % run + 8 ≤ run` stays
                // within kernel row dy's run; lengths asserted above).
                let x = unsafe { _mm256_loadu_ps(*p) };
                *acc_j = _mm256_add_ps(*acc_j, _mm256_mul_ps(gv, x));
                *p = p.wrapping_add(c_in);
            }
        }
    }
    for (j, acc_j) in acc.iter().enumerate() {
        // SAFETY: `8j + 8 ≤ 8N = acc_b.len()`, asserted above.
        unsafe { _mm256_storeu_ps(acc_b.as_mut_ptr().add(8 * j), *acc_j) };
    }
    sum
}

/// Most pixels [`conv_channels_last`] keeps in registers per 8-channel
/// block, one accumulator vector each.
const CL_PIXELS: usize = 12;

/// The operands of one 1→C channels-last correlation: the single-channel
/// `x`, the `[taps × c]` weights (forward) or the channels-last gradient
/// map (weight gradient) as `v`, and the tap offsets.
#[derive(Clone, Copy)]
struct TapConv<'x> {
    x: &'x [f32],
    v: &'x [f32],
    taps: &'x [usize],
    gm: TapRegion,
}

/// 1→C channels-last correlation with its epilogue (see
/// [`crate::backend::Backend::conv_channels_last`]) for `c` a multiple
/// of 8. Per region row and 8-channel block, up to [`CL_PIXELS`] pixels'
/// accumulators stay in registers across every tap: each tap loads its
/// weight vector once and broadcasts each pixel's `x`, one lane per
/// channel, summed in tap order with `mul` then `add`; the block's bias
/// and ReLU apply on the way to memory.
///
/// # Safety
/// AVX2 must be available (`is_x86_feature_detected!("avx2")`).
#[target_feature(enable = "avx2")]
pub(crate) fn conv_channels_last(
    out: &mut [f32],
    x: &[f32],
    w: &[f32],
    taps: &[usize],
    gm: TapRegion,
    epi: Epilogue,
) {
    gm.check(x.len(), out.len(), w.len(), taps);
    assert!(gm.c.is_multiple_of(8), "channels must fill whole vectors");
    assert!(epi.channels().is_none_or(|n| n == gm.c), "epilogue {epi:?}");
    let op = TapConv { x, v: w, taps, gm };
    for j0 in (0..gm.c).step_by(8) {
        let ve = VecEpilogue::new(epi, j0);
        for r in 0..gm.rows {
            let mut q0 = 0;
            while q0 < gm.cols {
                let n = (gm.cols - q0).min(CL_PIXELS);
                match n {
                    1 => cl_block::<1>(out, op, r, q0, j0, ve),
                    2 => cl_block::<2>(out, op, r, q0, j0, ve),
                    3 => cl_block::<3>(out, op, r, q0, j0, ve),
                    4 => cl_block::<4>(out, op, r, q0, j0, ve),
                    5 => cl_block::<5>(out, op, r, q0, j0, ve),
                    6 => cl_block::<6>(out, op, r, q0, j0, ve),
                    7 => cl_block::<7>(out, op, r, q0, j0, ve),
                    8 => cl_block::<8>(out, op, r, q0, j0, ve),
                    9 => cl_block::<9>(out, op, r, q0, j0, ve),
                    10 => cl_block::<10>(out, op, r, q0, j0, ve),
                    11 => cl_block::<11>(out, op, r, q0, j0, ve),
                    _ => cl_block::<CL_PIXELS>(out, op, r, q0, j0, ve),
                }
                q0 += n;
            }
        }
    }
}

/// Channels `j0..j0 + 8` of region pixels `(r, q0..q0 + N)`, `N`
/// register accumulators.
#[target_feature(enable = "avx2")]
fn cl_block<const N: usize>(
    out: &mut [f32],
    op: TapConv,
    r: usize,
    q0: usize,
    j0: usize,
    epi: VecEpilogue,
) {
    let (gm, c) = (op.gm, op.gm.c);
    assert!(r < gm.rows && q0 + N <= gm.cols && j0 + 8 <= c);
    let base = r * gm.x_stride + q0;
    let mut acc = [_mm256_setzero_ps(); N];
    for (i, &off) in op.taps.iter().enumerate() {
        // SAFETY: `i·c + j0 + 8 ≤ taps.len()·c = w.len()` (`TapRegion::
        // check` in the caller, `j0 + 8 ≤ c` asserted above).
        let wv = unsafe { _mm256_loadu_ps(op.v.as_ptr().add(i * c + j0)) };
        for (n, acc_n) in acc.iter_mut().enumerate() {
            // SAFETY: `base + off + n ≤ (rows - 1)·x_stride + cols - 1 +
            // off < x.len()` (`q0 + N ≤ cols`, the check's tap reach).
            let xv = _mm256_set1_ps(unsafe { *op.x.as_ptr().add(base + off + n) });
            *acc_n = _mm256_add_ps(*acc_n, _mm256_mul_ps(xv, wv));
        }
    }
    for (n, acc_n) in acc.iter().enumerate() {
        // SAFETY: `(r·cl_stride + q0 + n)·c + j0 + 8 ≤ ((rows - 1)·
        // cl_stride + cols)·c ≤ out.len()` (the check's map end).
        unsafe {
            let p = out.as_mut_ptr().add((r * gm.cl_stride + q0 + n) * c + j0);
            _mm256_storeu_ps(p, epi.apply(*acc_n));
        }
    }
}

/// Weight and bias gradients of [`conv_channels_last`] through the
/// ReLU′ mask (see
/// [`crate::backend::Backend::conv_weight_channels_last`]) for `c` a
/// multiple of 8. Per 8-channel block, up to [`TAP_VECS`] taps'
/// accumulators stay in registers for one pass over the region: each
/// pixel loads its gradient and activation vectors once, multiplies the
/// gradient by `1.0` or `0.0` per lane, and broadcasts each tap's `x`,
/// one lane per channel, summed in ascending pixel order with `mul` then
/// `add`. The bias sums are one more accumulator vector, started at
/// `-0.0` and fed the masked gradient in the same pixel order; the
/// block's first pass stores them.
///
/// # Safety
/// AVX2 must be available (`is_x86_feature_detected!("avx2")`).
#[target_feature(enable = "avx2")]
pub(crate) fn conv_weight_channels_last(
    acc: &mut [f32],
    x: &[f32],
    g: &[f32],
    taps: &[usize],
    gm: TapRegion,
    relu: ReluGrad,
) {
    gm.check(x.len(), g.len(), acc.len(), taps);
    relu.check(gm);
    assert!(gm.c.is_multiple_of(8), "channels must fill whole vectors");
    let op = TapConv { x, v: g, taps, gm };
    let (act, stride) = (relu.act, relu.act_stride);
    for j0 in (0..gm.c).step_by(8) {
        let mut t0 = 0;
        loop {
            let n = (taps.len() - t0).min(TAP_VECS);
            let sums = match n {
                0 => wcl_block::<0>(acc, op, (act, stride), t0, j0),
                1 => wcl_block::<1>(acc, op, (act, stride), t0, j0),
                2 => wcl_block::<2>(acc, op, (act, stride), t0, j0),
                3 => wcl_block::<3>(acc, op, (act, stride), t0, j0),
                4 => wcl_block::<4>(acc, op, (act, stride), t0, j0),
                5 => wcl_block::<5>(acc, op, (act, stride), t0, j0),
                6 => wcl_block::<6>(acc, op, (act, stride), t0, j0),
                7 => wcl_block::<7>(acc, op, (act, stride), t0, j0),
                8 => wcl_block::<8>(acc, op, (act, stride), t0, j0),
                9 => wcl_block::<9>(acc, op, (act, stride), t0, j0),
                10 => wcl_block::<10>(acc, op, (act, stride), t0, j0),
                11 => wcl_block::<11>(acc, op, (act, stride), t0, j0),
                _ => wcl_block::<TAP_VECS>(acc, op, (act, stride), t0, j0),
            };
            if t0 == 0 {
                let lanes = &mut relu.bias[j0..j0 + 8];
                // SAFETY: `lanes` holds exactly 8 floats.
                unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), sums) };
            }
            t0 += n;
            if t0 >= taps.len() {
                break;
            }
        }
    }
}

/// Channels `j0..j0 + 8` of taps `t0..t0 + N` in one pass over the
/// region, `N` register accumulators, the gradient masked by ReLU′ of
/// the activation map `(act, stride)`; returns the pass's bias sums.
#[target_feature(enable = "avx2")]
fn wcl_block<const N: usize>(
    acc: &mut [f32],
    op: TapConv,
    (act, stride): (&[f32], usize),
    t0: usize,
    j0: usize,
) -> __m256 {
    let (gm, c) = (op.gm, op.gm.c);
    assert!(t0 + N <= op.taps.len() && j0 + 8 <= c);
    let mut off = [0usize; N];
    off.copy_from_slice(&op.taps[t0..t0 + N]);
    let mut sums = [_mm256_setzero_ps(); N];
    let mut bias = _mm256_set1_ps(SUM_START);
    let (zero, one) = (_mm256_setzero_ps(), _mm256_set1_ps(1.0));
    // An empty region reads nothing (and its rows need not fit).
    let rows = if gm.cols == 0 { 0 } else { gm.rows };
    for r in 0..rows {
        let g_row = op.v[r * gm.cl_stride * c + j0..].as_ptr();
        let a_row = act[r * stride * c + j0..].as_ptr();
        let x_row = op.x[r * gm.x_stride..].as_ptr();
        for q in 0..gm.cols {
            // SAFETY: `(r·cl_stride + q)·c + j0 + 8 ≤ ((rows - 1)·
            // cl_stride + cols)·c ≤ g.len()` (`TapRegion::check` in the
            // caller, `j0 + 8 ≤ c` asserted above), and likewise for the
            // activation map at its own stride (`ReluGrad::check`).
            let (gv, a) = unsafe {
                (
                    _mm256_loadu_ps(g_row.add(q * c)),
                    _mm256_loadu_ps(a_row.add(q * c)),
                )
            };
            let pass = _mm256_and_ps(_mm256_cmp_ps::<_CMP_GT_OQ>(a, zero), one);
            let gv = _mm256_mul_ps(gv, pass);
            bias = _mm256_add_ps(bias, gv);
            let xq = x_row.wrapping_add(q);
            for (s, &o) in sums.iter_mut().zip(&off) {
                // SAFETY: `r·x_stride + q + o < x.len()` (the check's tap
                // reach).
                let xv = _mm256_set1_ps(unsafe { *xq.add(o) });
                *s = _mm256_add_ps(*s, _mm256_mul_ps(xv, gv));
            }
        }
    }
    for (t, s) in sums.iter().enumerate() {
        // SAFETY: `(t0 + t)·c + j0 + 8 ≤ taps.len()·c = acc.len()`.
        unsafe { _mm256_storeu_ps(acc.as_mut_ptr().add((t0 + t) * c + j0), *s) };
    }
    bias
}
