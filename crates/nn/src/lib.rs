//! # `sl-nn` — neural-network layers with hand-derived backprop
//!
//! The building blocks of the paper's split network, implemented directly
//! on top of [`sl_tensor`] without an autograd graph: every layer carries
//! its own forward cache and implements an explicit backward pass. This
//! keeps the dataflow obvious — important here, because the *split* in
//! split learning happens between two specific layers, and the trainer in
//! `sl-core` must intercept the cut-layer activations and gradients to
//! ship them over the simulated wireless link.
//!
//! Provided layers: [`FusedCnn`], the UE's `conv → ReLU → conv → sigmoid`
//! CNN as one layer that runs per image and recomputes its hidden map in
//! the backward; [`AvgPool2d`], the cut layer; two recurrent cells,
//! [`Lstm`] (the default) and [`Gru`]; [`Dense`]; and the elementwise
//! [`Activation`] (ReLU/sigmoid/tanh). [`Sequential`] chains them. The
//! optimizer is [`Adam`] behind the [`Optimizer`] trait (the paper trains
//! with Adam, lr 1e-3, β₁ 0.9, β₂ 0.999) and the loss is [`mse_loss`],
//! with [`rmse`] as the validation metric.
//!
//! Every layer is deterministic given its initialization RNG, and every
//! backward pass in this crate is validated against central finite
//! differences in the test suite (see [`check_gradients`]).
//!
//! ```
//! use sl_rng::rngs::StdRng;
//! use sl_nn::{mse_loss, Adam, Dense, Layer, Optimizer};
//! use sl_tensor::Tensor;
//!
//! // Fit y = 2x with a single dense unit.
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut layer = Dense::new(1, 1, &mut rng);
//! let mut opt = Adam::new(0.1, 0.9, 0.999, 1e-8);
//! let x = Tensor::from_vec([4, 1], vec![-1.0, 0.0, 1.0, 2.0]).unwrap();
//! let y = x.scale(2.0);
//! for _ in 0..200 {
//!     let pred = layer.forward(&x);
//!     let loss = mse_loss(&pred, &y);
//!     layer.backward(&loss.grad);
//!     opt.step(&mut layer.params_and_grads());
//!     layer.zero_grads();
//! }
//! let final_loss = mse_loss(&layer.forward(&x), &y).loss;
//! assert!(final_loss < 1e-3);
//! ```

mod activation;
mod dense;
mod fused_cnn;
mod grad_check;
mod gru;
mod loss;
mod lstm;
mod optim;
mod pool_layer;
mod sequential;
pub mod shape;

pub use activation::{Activation, ActivationKind};
pub use dense::Dense;
pub use fused_cnn::FusedCnn;
pub use grad_check::{check_gradients, numerical_gradient, GradCheckReport};
pub use gru::Gru;
pub use loss::{mse_loss, rmse, LossValue};
pub use lstm::Lstm;
pub use optim::{clip_global_norm, Adam, Optimizer};
pub use pool_layer::AvgPool2d;
pub use sequential::Sequential;
pub use shape::{ShapeError, ShapeStep, ShapeTrace};

use sl_tensor::Tensor;

/// A trainable (or stateless) network layer.
///
/// Layers own their parameters, parameter gradients and forward cache.
/// The contract is the classic three-phase SGD step:
///
/// 1. [`Layer::forward`] runs the layer and caches whatever the backward
///    pass needs (inputs, pre-activations, gate values, …).
/// 2. [`Layer::backward`] consumes the most recent cache, **accumulates**
///    parameter gradients in place and returns the gradient with respect
///    to the layer input.
/// 3. The optimizer visits [`Layer::params_and_grads`] and the caller
///    clears accumulated gradients with [`Layer::zero_grads`].
///
/// `backward` must be called at most once per `forward` (caches are
/// consumed); calling it without a preceding `forward` panics.
///
/// Every pass borrows its operand: [`Sequential`] lends each layer the
/// previous layer's output.
pub trait Layer {
    /// Runs the layer on `input`, caching intermediates for `backward`.
    fn forward(&mut self, input: &Tensor) -> Tensor;

    /// Inference: the output [`Layer::forward`] returns, computed
    /// without touching the backward cache or any other state, so it can
    /// run between a training step's forward and backward without
    /// disturbing it.
    fn infer(&self, input: &Tensor) -> Tensor;

    /// Backpropagates `grad_out` (same shape as the last `forward`
    /// output), accumulating parameter gradients and returning the
    /// gradient with respect to the last input.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// [`Layer::backward`] for a caller that discards the input gradient:
    /// accumulates exactly the same parameter gradients, and may skip
    /// computing the gradient with respect to the input.
    fn backward_params(&mut self, grad_out: &Tensor) {
        let _ = self.backward(grad_out);
    }

    /// Mutable `(parameter, gradient)` pairs, in a stable order. Stateless
    /// layers return an empty vector.
    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)>;

    /// Clears accumulated parameter gradients.
    fn zero_grads(&mut self) {
        for (_, g) in self.params_and_grads() {
            g.fill(0.0);
        }
    }

    /// Total number of scalar parameters.
    fn parameter_count(&mut self) -> usize {
        self.params_and_grads().iter().map(|(p, _)| p.numel()).sum()
    }

    /// A short human-readable layer name for diagnostics.
    fn name(&self) -> &'static str;

    /// Static shape contract: the output shape this layer would produce
    /// for an input of shape `input`, or a human-readable reason why the
    /// input is invalid — computed symbolically, without allocating or
    /// running anything. [`Sequential::shape_trace`] chains contracts
    /// through a stack so miswired networks are rejected with a
    /// per-layer trace before any training run.
    ///
    /// The contract must agree with [`Layer::forward`]: whenever
    /// `out_shape(dims)` returns `Ok(out)`, a forward pass on a tensor
    /// of shape `dims` must produce shape `out`; whenever it returns
    /// `Err`, a forward pass must panic.
    fn out_shape(&self, input: &[usize]) -> Result<Vec<usize>, String>;

    /// Modelled floating-point operations for one forward pass over an
    /// input of shape `input_dims`, following the usual convention of
    /// 2 FLOPs per multiply-accumulate. This is an analytic estimate for
    /// the per-layer metrics (the backward pass is charged at 2× forward
    /// by [`Sequential`]), not a measurement; stateless reshapes return 0.
    fn flops_forward(&self, _input_dims: &[usize]) -> f64 {
        0.0
    }
}
