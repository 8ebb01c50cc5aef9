//! # `sl-tensor` — dense `f32` tensor kernels
//!
//! A small, dependency-light tensor library purpose-built for the
//! `split-mmwave` workspace. It provides exactly the kernels the paper's
//! split network needs — dense linear algebra, 2-D convolution, average
//! pooling and the usual elementwise / reduction operations — implemented
//! as straightforward, easily-audited loops (in the spirit of smoltcp's
//! "simplicity and robustness" design goals) rather than as a general
//! autograd framework.
//!
//! Conventions:
//!
//! * All tensors are row-major (C order) `f32` buffers with an explicit
//!   shape; there are no views or strides — slicing copies.
//! * Image batches use the `NCHW` layout: `[batch, channels, height, width]`.
//! * Shape mismatches are programmer errors and **panic** with a message
//!   naming the operation and both shapes. Fallible *data-driven*
//!   constructors (e.g. [`Tensor::from_vec`]) return [`TensorError`]
//!   instead.
//!
//! ## Compute backend
//!
//! The hot kernels (`matmul` variants, `conv2d`/`conv2d_backward`, and
//! the fused UE CNN `fused_cnn`/`fused_cnn_backward`) run on
//! a std-only, lazily-initialized worker pool ([`ComputePool`], sized by
//! `SLM_THREADS`, default: available parallelism), with an im2col
//! lowering for convolution. Work is partitioned into **disjoint output
//! row ranges** whose count depends only on the problem shape, and every
//! output element is one accumulator summed in ascending reduction order
//! — so results are **bitwise identical at every thread count**, keeping
//! checkpoints, golden tests and the determinism lint story intact. Each
//! kernel also has a `*_in` variant taking an explicit pool (used by
//! equivalence tests and benches).
//!
//! The serial microkernel each pool job runs is swappable behind the
//! [`Backend`] trait (`SLM_BACKEND`: `auto` | `scalar` | `simd`):
//! `scalar` is portable i-k-j loops the compiler can vectorize, and the
//! fallback on hosts without AVX2/NEON; `simd` is explicitly vectorized
//! AVX2/NEON kernels with runtime feature detection. Both keep the
//! per-element ascending-order contract, so results are also **bitwise
//! identical across backends** (see `crate::backend`); `*_with`
//! variants take an explicit backend.
//!
//! The split-learning stack built on top of this crate is deterministic:
//! every random initializer takes an explicit `sl_rng::Rng`, so seeding the
//! caller's RNG reproduces training bit-for-bit regardless of `SLM_THREADS`.
//!
//! ```
//! use sl_tensor::{avg_pool2d, matmul, Tensor};
//!
//! // A 2×2 identity times a 2×2 matrix.
//! let eye = Tensor::from_vec([2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
//! let m = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
//! assert_eq!(matmul(&eye, &m), m);
//!
//! // The paper's cut-layer compressor: average-pool a map to one pixel.
//! let map = Tensor::from_fn([1, 1, 4, 4], |i| i as f32);
//! let one_pixel = avg_pool2d(&map, 4, 4);
//! assert_eq!(one_pixel.item(), 7.5);
//! ```

mod backend;
mod conv;
mod init;
mod linalg;
mod pool;
mod pooling;
mod shape;
mod simd;
mod tensor;

pub use backend::{
    backend_for, global_backend, global_backend_kind, resolve_backend, Backend, BackendKind,
    Epilogue, PaddedConv, ReluGrad, ScalarBackend, SimdBackend, TapRegion,
};
pub use conv::{
    conv2d, conv2d_backward, conv2d_backward_in, conv2d_backward_with, conv2d_in, conv2d_with,
    fused_cnn, fused_cnn_backward, fused_cnn_backward_with, fused_cnn_with, sigmoid, Conv2dGrads,
    FusedCnnGrads, FusedCnnParams, Padding,
};
pub use init::{he_normal, randn, uniform, xavier_uniform};
pub use linalg::{
    matmul, matmul_a_bt, matmul_a_bt_in, matmul_a_bt_with, matmul_at_b, matmul_at_b_in,
    matmul_at_b_with, matmul_in, matmul_into, matmul_with, matvec, outer, transpose,
};
pub use pool::{ComputePool, MAX_THREADS};
pub use pooling::{avg_pool2d, avg_pool2d_backward};
pub use shape::{broadcastable, Shape};
pub use simd::supported as simd_supported;
pub use tensor::{Tensor, TensorError};
