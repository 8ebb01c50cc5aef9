//! Dense linear-algebra kernels: matrix multiplication variants and
//! vector products.
//!
//! The multiplication variants (`A·B`, `Aᵀ·B`, `A·Bᵀ`) exist because the
//! backward passes of dense and recurrent layers need transposed operands;
//! fusing the transpose into the kernel avoids materializing transposed
//! copies on every SGD step.
//!
//! All three partition output rows over a [`ComputePool`] and run a
//! [`Backend`]'s serial microkernel per job: `matmul(a, b)` uses the
//! process-wide pool (`SLM_THREADS`) and backend (`SLM_BACKEND`), each
//! has a `*_in` variant taking an explicit pool, and a `*_with` variant
//! additionally taking an explicit backend (equivalence tests and
//! benches). Jobs own disjoint `ROWS_PER_JOB`-row output chunks, a
//! count that depends only on the shape, and the backend contract in
//! `crate::backend` fixes each element's accumulation order — so
//! results are bitwise identical at every thread count *and* across
//! backends.
//!
//! Deliberately absent: the old `if a == 0.0 { continue }` zero-skip
//! branches. They made sparse-ish inputs marginally cheaper but silently
//! swallowed NaN/Inf propagation (`0 × NaN` never reached the
//! accumulator), masking exactly the non-finite blowups the training
//! health watchdog exists to catch.

use crate::backend::{global_backend, Backend};
use sl_telemetry::host;

use crate::pool::ComputePool;
use crate::tensor::Tensor;

/// Output rows per pool job. Small enough to load-balance the paper's
/// batch-of-64 activations over several workers, large enough that one
/// job amortizes dispatch.
const ROWS_PER_JOB: usize = 16;

/// `out[m×n] = a[m×k] · b[k×n]`, rows partitioned over the pool, each
/// job running `backend`'s serial microkernel on its disjoint chunk.
fn gemm_ab(
    pool: &ComputePool,
    backend: &dyn Backend,
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
) {
    debug_assert_eq!(out.len() % n.max(1), 0);
    if n == 0 {
        return;
    }
    pool.run_chunks(out, ROWS_PER_JOB * n, |job, chunk| {
        let i0 = job * ROWS_PER_JOB;
        let rows = chunk.len() / n;
        backend.ab(chunk, &a[i0 * k..(i0 + rows) * k], b, rows, k, n);
    });
}

/// `out[m×n] = aᵀ · b` for `a: [k×am]`, `b: [k×n]`, taking `out` rows
/// `0..m` from `a` columns `0..m` (`m == am` for the public entry),
/// partitioned over the pool. `k` is implied by `a.len() / am`.
fn gemm_at_b(
    pool: &ComputePool,
    backend: &dyn Backend,
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    am: usize,
    n: usize,
) {
    debug_assert_eq!(a.len() % am.max(1), 0);
    debug_assert_eq!(b.len() * am, a.len() * n);
    if n == 0 {
        return;
    }
    pool.run_chunks(out, ROWS_PER_JOB * n, |job, chunk| {
        backend.at_b(chunk, a, b, job * ROWS_PER_JOB, am, n);
    });
}

/// `out[m×n] = a[m×k] · b[n×k]ᵀ`, rows partitioned over the pool.
fn gemm_a_bt(
    pool: &ComputePool,
    backend: &dyn Backend,
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
) {
    if n == 0 {
        return;
    }
    pool.run_chunks(out, ROWS_PER_JOB * n, |job, chunk| {
        let i0 = job * ROWS_PER_JOB;
        let rows = chunk.len() / n;
        backend.a_bt(chunk, &a[i0 * k..(i0 + rows) * k], b, rows, k, n);
    });
}

fn dims2(t: &Tensor, op: &str) -> (usize, usize) {
    assert_eq!(
        t.shape().rank(),
        2,
        "{op}: tensor {} is not rank-2",
        t.shape()
    );
    (t.dims()[0], t.dims()[1])
}

/// `C = A · B` for rank-2 tensors `A: [m, k]`, `B: [k, n]`, computed on
/// the process-wide pool.
///
/// # Panics
/// Panics unless both tensors are rank-2 with matching inner dimension.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_in(ComputePool::global(), a, b)
}

/// [`matmul`] on an explicit pool and the process-wide backend.
pub fn matmul_in(pool: &ComputePool, a: &Tensor, b: &Tensor) -> Tensor {
    matmul_with(pool, global_backend(), a, b)
}

/// [`matmul`] on an explicit pool and backend.
pub fn matmul_with(pool: &ComputePool, backend: &dyn Backend, a: &Tensor, b: &Tensor) -> Tensor {
    let (m, ka) = dims2(a, "matmul");
    let (kb, n) = dims2(b, "matmul");
    assert_eq!(
        ka,
        kb,
        "matmul: inner dimensions differ ({} vs {})",
        a.shape(),
        b.shape()
    );
    host::time("tensor.kernel.matmul", || {
        let mut out = vec![0.0f32; m * n];
        gemm_ab(pool, backend, &mut out, a.data(), b.data(), ka, n);
        Tensor::from_parts([m, n], out)
    })
}

/// [`matmul`] into a caller's buffer: `out[m×n] = a[m×k] · b` for
/// `b: [k, n]` and `m = a.len() / k`, on the process-wide pool and
/// backend. It allocates nothing, so a recurrence can reuse one buffer
/// for every step.
///
/// # Panics
/// Panics unless `b` is rank-2 with `k > 0`, `a.len()` is a multiple of
/// `k` and `out.len() == m·n`.
pub fn matmul_into(out: &mut [f32], a: &[f32], b: &Tensor) {
    let (k, n) = dims2(b, "matmul_into");
    assert!(
        k > 0 && a.len().is_multiple_of(k) && out.len() == a.len() / k * n,
        "matmul_into: {} A values and {} outputs do not fit B {}",
        a.len(),
        out.len(),
        b.shape()
    );
    host::time("tensor.kernel.matmul", || {
        gemm_ab(
            ComputePool::global(),
            global_backend(),
            out,
            a,
            b.data(),
            k,
            n,
        );
    });
}

/// `C = Aᵀ · B` for `A: [k, m]`, `B: [k, n]` (yields `[m, n]`), computed
/// on the process-wide pool.
///
/// Equivalent to `matmul(&transpose(a), b)` without the copy.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_at_b_in(ComputePool::global(), a, b)
}

/// [`matmul_at_b`] on an explicit pool and the process-wide backend.
pub fn matmul_at_b_in(pool: &ComputePool, a: &Tensor, b: &Tensor) -> Tensor {
    matmul_at_b_with(pool, global_backend(), a, b)
}

/// [`matmul_at_b`] on an explicit pool and backend.
pub fn matmul_at_b_with(
    pool: &ComputePool,
    backend: &dyn Backend,
    a: &Tensor,
    b: &Tensor,
) -> Tensor {
    let (ka, m) = dims2(a, "matmul_at_b");
    let (kb, n) = dims2(b, "matmul_at_b");
    assert_eq!(
        ka,
        kb,
        "matmul_at_b: leading dimensions differ ({} vs {})",
        a.shape(),
        b.shape()
    );
    host::time("tensor.kernel.matmul_at_b", || {
        let mut out = vec![0.0f32; m * n];
        gemm_at_b(pool, backend, &mut out, a.data(), b.data(), m, n);
        Tensor::from_parts([m, n], out)
    })
}

/// `C = A · Bᵀ` for `A: [m, k]`, `B: [n, k]` (yields `[m, n]`), computed
/// on the process-wide pool.
///
/// Equivalent to `matmul(a, &transpose(b))` without the copy.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_a_bt_in(ComputePool::global(), a, b)
}

/// [`matmul_a_bt`] on an explicit pool and the process-wide backend.
pub fn matmul_a_bt_in(pool: &ComputePool, a: &Tensor, b: &Tensor) -> Tensor {
    matmul_a_bt_with(pool, global_backend(), a, b)
}

/// [`matmul_a_bt`] on an explicit pool and backend.
pub fn matmul_a_bt_with(
    pool: &ComputePool,
    backend: &dyn Backend,
    a: &Tensor,
    b: &Tensor,
) -> Tensor {
    let (m, ka) = dims2(a, "matmul_a_bt");
    let (n, kb) = dims2(b, "matmul_a_bt");
    assert_eq!(
        ka,
        kb,
        "matmul_a_bt: trailing dimensions differ ({} vs {})",
        a.shape(),
        b.shape()
    );
    host::time("tensor.kernel.matmul_a_bt", || {
        let mut out = vec![0.0f32; m * n];
        gemm_a_bt(pool, backend, &mut out, a.data(), b.data(), ka, n);
        Tensor::from_parts([m, n], out)
    })
}

/// Matrix-vector product `A · x` for `A: [m, n]`, `x: [n]` (yields `[m]`).
pub fn matvec(a: &Tensor, x: &Tensor) -> Tensor {
    let (m, n) = dims2(a, "matvec");
    assert_eq!(
        x.numel(),
        n,
        "matvec: vector length {} does not match matrix {}",
        x.numel(),
        a.shape()
    );
    let ad = a.data();
    let xd = x.data();
    let out: Vec<f32> = (0..m)
        .map(|i| {
            ad[i * n..(i + 1) * n]
                .iter()
                .zip(xd)
                .map(|(&a, &b)| a * b)
                .sum()
        })
        .collect();
    Tensor::from_slice(&out)
}

/// Outer product `x ⊗ y` for `x: [m]`, `y: [n]` (yields `[m, n]`).
pub fn outer(x: &Tensor, y: &Tensor) -> Tensor {
    let m = x.numel();
    let n = y.numel();
    let mut out = Vec::with_capacity(m * n);
    for &xi in x.data() {
        for &yj in y.data() {
            out.push(xi * yj);
        }
    }
    Tensor::from_parts([m, n], out)
}

/// Transpose of a rank-2 tensor.
pub fn transpose(a: &Tensor) -> Tensor {
    let (m, n) = dims2(a, "transpose");
    let ad = a.data();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = ad[i * n + j];
        }
    }
    Tensor::from_parts([n, m], out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: [usize; 2], data: &[f32]) -> Tensor {
        Tensor::from_vec(shape, data.to_vec()).unwrap()
    }

    #[test]
    fn matmul_small() {
        let a = t([2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t([3, 2], &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = t([2, 2], &[1.0, 2.0, 3.0, 4.0]);
        let i = t([2, 2], &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(matmul(&a, &i), a);
        assert_eq!(matmul(&i, &a), a);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_checks_dims() {
        matmul(&Tensor::zeros([2, 3]), &Tensor::zeros([2, 3]));
    }

    #[test]
    fn fused_transpose_variants_agree() {
        let a = t([3, 2], &[1.0, -2.0, 0.5, 4.0, -1.0, 3.0]);
        let b = t(
            [3, 4],
            &(0..12).map(|i| i as f32 * 0.3 - 1.0).collect::<Vec<_>>(),
        );
        assert_eq!(matmul_at_b(&a, &b), matmul(&transpose(&a), &b));

        let a2 = t([2, 2], &[1.0, 2.0, 3.0, 4.0]);
        let b2 = t([3, 2], &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        assert_eq!(matmul_a_bt(&a2, &b2), matmul(&a2, &transpose(&b2)));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = t([2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let x = Tensor::from_slice(&[1.0, 0.5, -1.0]);
        let y = matvec(&a, &x);
        let y2 = matmul(&a, &x.reshape([3, 1]));
        assert_eq!(y.data(), y2.data());
    }

    #[test]
    fn outer_product() {
        let x = Tensor::from_slice(&[1.0, 2.0]);
        let y = Tensor::from_slice(&[3.0, 4.0, 5.0]);
        let o = outer(&x, &y);
        assert_eq!(o.dims(), &[2, 3]);
        assert_eq!(o.data(), &[3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = t([2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(transpose(&transpose(&a)), a);
        assert_eq!(transpose(&a).at(&[2, 1]), 6.0);
    }

    #[test]
    fn nan_propagates_despite_zero_operands() {
        // Regression test for the removed zero-skip branches: a NaN
        // multiplied by an exactly-zero operand must still poison the
        // output, in every multiplication variant.
        let z = t([2, 2], &[0.0, 0.0, 0.0, 0.0]);
        let nan = t([2, 2], &[f32::NAN, 1.0, 1.0, 1.0]);
        assert!(matmul(&z, &nan).data()[0].is_nan());
        assert!(matmul(&nan, &z).data()[0].is_nan());
        assert!(matmul_at_b(&z, &nan).data()[0].is_nan());
        assert!(matmul_at_b(&nan, &z).data()[0].is_nan());
        assert!(matmul_a_bt(&z, &nan).data()[0].is_nan());
        assert!(matmul_a_bt(&nan, &z).data()[0].is_nan());
    }

    #[test]
    fn explicit_pools_agree_with_global() {
        let a = t(
            [5, 7],
            &(0..35).map(|i| (i as f32).sin()).collect::<Vec<_>>(),
        );
        let b = t(
            [7, 9],
            &(0..63).map(|i| (i as f32).cos()).collect::<Vec<_>>(),
        );
        let serial = ComputePool::new(1);
        let four = ComputePool::new(4);
        let want = matmul_in(&serial, &a, &b);
        assert_eq!(matmul(&a, &b), want);
        assert_eq!(matmul_in(&four, &a, &b), want);
    }

    #[test]
    fn explicit_backends_agree_with_global() {
        use crate::backend::{backend_for, BackendKind};
        let data =
            |len: usize, f: fn(f32) -> f32| (0..len).map(|i| f(i as f32)).collect::<Vec<_>>();
        // 37 rows: two full ROWS_PER_JOB chunks and a ragged third.
        let a = t([37, 11], &data(407, f32::sin));
        let b = t([11, 17], &data(187, f32::cos));
        let at = t([11, 37], &data(407, f32::cos)); // [k, m] operand for at_b
        let bt = t([17, 11], &data(187, f32::sin)); // [n, k] operand for a_bt
        let want = matmul(&a, &b);
        let want_atb = matmul_at_b(&at, &b);
        let want_abt = matmul_a_bt(&a, &bt);
        for pool in [ComputePool::new(1), ComputePool::new(3)] {
            for kind in BackendKind::ALL {
                let be = backend_for(kind);
                assert_eq!(matmul_with(&pool, be, &a, &b), want, "{kind:?}");
                assert_eq!(matmul_at_b_with(&pool, be, &at, &b), want_atb, "{kind:?}");
                assert_eq!(matmul_a_bt_with(&pool, be, &a, &bt), want_abt, "{kind:?}");
            }
        }
    }
}
