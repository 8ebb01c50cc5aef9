//! Elementwise activation functions as stateless layers.

use sl_tensor::Tensor;

use crate::Layer;

/// The activation nonlinearity to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivationKind {
    /// `max(0, x)` — used by the UE CNN's hidden convolution.
    Relu,
    /// `1 / (1 + e^-x)` — squashes the CNN output into `[0, 1]` so it can
    /// be quantized to `R`-bit pixels for the uplink payload.
    Sigmoid,
    /// `tanh(x)`.
    Tanh,
    /// The identity (useful for disabling a nonlinearity in ablations).
    Identity,
}

impl ActivationKind {
    /// Applies the function to a scalar.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::Sigmoid => sigmoid(x),
            ActivationKind::Tanh => x.tanh(),
            ActivationKind::Identity => x,
        }
    }

    /// Derivative expressed in terms of the *output* `y = f(x)`.
    ///
    /// All four supported activations admit this form, which lets the
    /// backward pass cache only the forward output.
    pub fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            ActivationKind::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActivationKind::Sigmoid => y * (1.0 - y),
            ActivationKind::Tanh => 1.0 - y * y,
            ActivationKind::Identity => 1.0,
        }
    }
}

/// The logistic sigmoid, shared with the fused UE CNN in `sl-tensor` so
/// both compute the same bits.
pub use sl_tensor::sigmoid;

/// A stateless activation layer (any shape; applied elementwise).
pub struct Activation {
    kind: ActivationKind,
    /// Forward output, cached for the output-space derivative. The buffer
    /// outlives the pass and the next forward overwrites it, so a
    /// steady-state training loop allocates no cache.
    cache: Tensor,
    /// Whether `cache` holds an output no backward has consumed yet.
    pending: bool,
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Activation {
            kind,
            cache: Tensor::from_slice(&[]),
            pending: false,
        }
    }

    /// Shorthand for `Activation::new(ActivationKind::Relu)`.
    pub fn relu() -> Self {
        Activation::new(ActivationKind::Relu)
    }

    /// Shorthand for `Activation::new(ActivationKind::Sigmoid)`.
    pub fn sigmoid() -> Self {
        Activation::new(ActivationKind::Sigmoid)
    }

    /// Shorthand for `Activation::new(ActivationKind::Tanh)`.
    pub fn tanh() -> Self {
        Activation::new(ActivationKind::Tanh)
    }

    /// The configured nonlinearity.
    pub fn kind(&self) -> ActivationKind {
        self.kind
    }
}

impl Activation {
    /// The function applied to every element of `input`. The kind is
    /// matched once per call: each arm passes it as a constant, so the
    /// per-element match folds away.
    fn apply(&self, input: &Tensor) -> Tensor {
        use ActivationKind as K;
        match self.kind {
            K::Relu => input.map(|x| K::Relu.apply(x)),
            K::Sigmoid => input.map(|x| K::Sigmoid.apply(x)),
            K::Tanh => input.map(|x| K::Tanh.apply(x)),
            K::Identity => input.clone(),
        }
    }

    /// Copies a forward output into the cache, reusing its buffer.
    fn store(&mut self, out: &Tensor) {
        let mut buf = std::mem::replace(&mut self.cache, Tensor::from_slice(&[])).into_vec();
        buf.clear();
        buf.extend_from_slice(out.data());
        self.cache = Tensor::from_parts(out.shape().clone(), buf);
        self.pending = true;
    }

    /// Scales `grad` in place by the derivative at the cached outputs `y`
    /// (kind matched once per call, as in [`Activation::apply`]).
    fn scale_by_derivative(&self, grad: &mut [f32], y: &[f32]) {
        use ActivationKind as K;
        let pairs = grad.iter_mut().zip(y);
        match self.kind {
            K::Relu => pairs.for_each(|(g, &y)| *g *= K::Relu.derivative_from_output(y)),
            K::Sigmoid => pairs.for_each(|(g, &y)| *g *= K::Sigmoid.derivative_from_output(y)),
            K::Tanh => pairs.for_each(|(g, &y)| *g *= K::Tanh.derivative_from_output(y)),
            K::Identity => pairs.for_each(|(g, &y)| *g *= K::Identity.derivative_from_output(y)),
        }
    }
}

impl Layer for Activation {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = self.apply(input);
        self.store(&out);
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        self.apply(input)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(
            self.pending,
            "Activation::backward called without a preceding forward"
        );
        self.pending = false;
        assert_eq!(
            grad_out.shape(),
            self.cache.shape(),
            "Activation::backward: grad shape {} does not match output {}",
            grad_out.shape(),
            self.cache.shape()
        );
        let mut grad_in = grad_out.clone();
        self.scale_by_derivative(grad_in.data_mut(), self.cache.data());
        grad_in
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        match self.kind {
            ActivationKind::Relu => "relu",
            ActivationKind::Sigmoid => "sigmoid",
            ActivationKind::Tanh => "tanh",
            ActivationKind::Identity => "identity",
        }
    }

    fn out_shape(&self, input: &[usize]) -> Result<Vec<usize>, String> {
        Ok(input.to_vec())
    }

    fn flops_forward(&self, input_dims: &[usize]) -> f64 {
        let numel = input_dims.iter().product::<usize>() as f64;
        // Transcendental activations are charged a nominal 4 FLOPs per
        // element, cheap elementwise ops 1.
        match self.kind {
            ActivationKind::Sigmoid | ActivationKind::Tanh => 4.0 * numel,
            ActivationKind::Relu => numel,
            ActivationKind::Identity => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut layer = Activation::relu();
        let out = layer.forward(&Tensor::from_slice(&[-2.0, -0.5, 0.0, 0.5, 2.0]));
        assert_eq!(out.data(), &[0.0, 0.0, 0.0, 0.5, 2.0]);
    }

    #[test]
    fn sigmoid_range_and_symmetry() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!((sigmoid(5.0) + sigmoid(-5.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(100.0) <= 1.0 && sigmoid(-100.0) >= 0.0);
        // Stable in the extreme tails (no NaN from exp overflow).
        assert!(sigmoid(-1e4).is_finite() && sigmoid(1e4).is_finite());
    }

    #[test]
    fn sigmoid_is_bitwise_the_two_branch_form() {
        let two_branch = |x: f32| {
            if x >= 0.0 {
                1.0 / (1.0 + (-x).exp())
            } else {
                let e = x.exp();
                e / (1.0 + e)
            }
        };
        let mut s = 0x9e37_79b9u32;
        let mut xs = vec![0.0f32, -0.0, 1e-30, -1e-30, 88.0, -88.0, 1e4, -1e4];
        xs.extend(
            std::iter::repeat_with(|| {
                s ^= s << 13;
                s ^= s >> 17;
                s ^= s << 5;
                f32::from_bits(s)
            })
            .filter(|x| x.is_finite())
            .take(20_000),
        );
        for x in xs {
            assert_eq!(sigmoid(x).to_bits(), two_branch(x).to_bits(), "x = {x:e}");
        }
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-3f32;
        for kind in [
            ActivationKind::Relu,
            ActivationKind::Sigmoid,
            ActivationKind::Tanh,
            ActivationKind::Identity,
        ] {
            for &x in &[-1.7f32, -0.3, 0.4, 1.9] {
                let fd = (kind.apply(x + eps) - kind.apply(x - eps)) / (2.0 * eps);
                let an = kind.derivative_from_output(kind.apply(x));
                assert!(
                    (fd - an).abs() < 1e-2,
                    "{kind:?} derivative mismatch at {x}: fd={fd} an={an}"
                );
            }
        }
    }

    #[test]
    fn backward_scales_upstream_gradient() {
        let mut layer = Activation::tanh();
        let x = Tensor::from_slice(&[0.3, -0.8]);
        let y = layer.forward(&x);
        let g = layer.backward(&Tensor::ones([2]));
        for i in 0..2 {
            let expect = 1.0 - y.data()[i] * y.data()[i];
            assert!((g.data()[i] - expect).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "without a preceding forward")]
    fn backward_requires_forward() {
        Activation::relu().backward(&Tensor::ones([1]));
    }

    #[test]
    fn stateless_layer_has_no_params() {
        let mut layer = Activation::sigmoid();
        assert!(layer.params_and_grads().is_empty());
        assert_eq!(layer.parameter_count(), 0);
    }
}
