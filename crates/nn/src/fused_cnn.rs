//! The UE CNN as one layer, backed by `sl-tensor`'s fused per-image pass.

use sl_rng::Rng;

use sl_tensor::{fused_cnn, fused_cnn_backward, he_normal, FusedCnnParams, Tensor};

use crate::Layer;

/// `Conv2d(1→C, k×k, same) → ReLU → Conv2d(C→1, k×k, same) → Sigmoid`
/// as a single layer: the paper's UE CNN, the map the average-pooling cut
/// layer compresses.
///
/// Bit for bit the unfused chain of `sl_tensor`'s `conv2d`, ReLU,
/// `conv2d` and sigmoid, with `conv2d_backward` for the gradients: the
/// same outputs and the same gradients, over parameters in the order
/// `[w1 C×1×k×k, b1 C, w2 1×C×k×k, b2 1]`, He-normal drawn `w1` first.
/// What the fusion saves is memory: each image's C-channel hidden map
/// exists only inside its pool job (see `sl_tensor`'s `fused_cnn`), so
/// the forward caches just the 1-channel input and sigmoid output, and
/// the backward recomputes the hidden map.
pub struct FusedCnn {
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
    grad_w1: Tensor,
    grad_b1: Tensor,
    grad_w2: Tensor,
    grad_b2: Tensor,
    /// The last forward's input and output. The buffers outlive the
    /// pass and the next forward overwrites them, so a steady-state
    /// training loop allocates no cache.
    input: Tensor,
    output: Tensor,
    /// Whether `input`/`output` hold a forward no backward has consumed.
    pending: bool,
}

/// Copies `src` into `buf`, reusing `buf`'s allocation.
fn store(buf: &mut Tensor, src: &Tensor) {
    let mut data = std::mem::replace(buf, Tensor::from_slice(&[])).into_vec();
    data.clear();
    data.extend_from_slice(src.data());
    *buf = Tensor::from_parts(src.shape().clone(), data);
}

impl FusedCnn {
    /// A CNN with `channels` hidden channels and a square `kernel ×
    /// kernel` filter, He-initialized (first `w1`, then `w2`; biases
    /// zero). The kernel must be odd for 'same' padding;
    /// [`Layer::out_shape`] reports an even one.
    pub fn new(channels: usize, kernel: usize, rng: &mut impl Rng) -> Self {
        assert!(
            channels > 0 && kernel > 0,
            "FusedCnn: dimensions must be positive"
        );
        let w1_dims = [channels, 1, kernel, kernel];
        let w2_dims = [1, channels, kernel, kernel];
        let w1 = he_normal(w1_dims, kernel * kernel, rng);
        let w2 = he_normal(w2_dims, channels * kernel * kernel, rng);
        FusedCnn {
            w1,
            b1: Tensor::zeros([channels]),
            w2,
            b2: Tensor::zeros([1]),
            grad_w1: Tensor::zeros(w1_dims),
            grad_b1: Tensor::zeros([channels]),
            grad_w2: Tensor::zeros(w2_dims),
            grad_b2: Tensor::zeros([1]),
            input: Tensor::from_slice(&[]),
            output: Tensor::from_slice(&[]),
            pending: false,
        }
    }

    /// Hidden channels `C`.
    pub fn channels(&self) -> usize {
        self.w1.dims()[0]
    }

    /// Kernel side length.
    pub fn kernel(&self) -> usize {
        self.w1.dims()[2]
    }

    fn params(&self) -> FusedCnnParams<'_> {
        FusedCnnParams {
            w1: &self.w1,
            b1: &self.b1,
            w2: &self.w2,
            b2: &self.b2,
        }
    }

    /// Runs the backward on the cached forward, accumulating the four
    /// parameter gradients; returns the input gradient when asked for.
    fn run_backward(&mut self, grad_out: &Tensor, with_input_grad: bool) -> Option<Tensor> {
        assert!(
            self.pending,
            "FusedCnn::backward called without a preceding forward"
        );
        self.pending = false;
        let grads = fused_cnn_backward(
            &self.input,
            &self.output,
            self.params(),
            grad_out,
            with_input_grad,
        );
        self.grad_w1.add_inplace(&grads.grad_w1);
        self.grad_b1.add_inplace(&grads.grad_b1);
        self.grad_w2.add_inplace(&grads.grad_w2);
        self.grad_b2.add_inplace(&grads.grad_b2);
        grads.grad_input
    }
}

impl Layer for FusedCnn {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = self.infer(input);
        store(&mut self.input, input);
        // The output moves on to the next layer, so the cache keeps a
        // copy (one channel).
        store(&mut self.output, &out);
        self.pending = true;
        out
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        fused_cnn(input, self.params())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.run_backward(grad_out, true)
            // slm-lint: allow(no-expect) fused_cnn_backward returns the input gradient whenever it is asked for
            .expect("fused_cnn_backward returns the input gradient it was asked for")
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        self.run_backward(grad_out, false);
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        vec![
            (&mut self.w1, &mut self.grad_w1),
            (&mut self.b1, &mut self.grad_b1),
            (&mut self.w2, &mut self.grad_w2),
            (&mut self.b2, &mut self.grad_b2),
        ]
    }

    fn name(&self) -> &'static str {
        "fused_cnn"
    }

    fn out_shape(&self, input: &[usize]) -> Result<Vec<usize>, String> {
        if input.len() != 4 {
            return Err(format!(
                "fused_cnn expects rank-4 [N, 1, H, W], got rank-{}",
                input.len()
            ));
        }
        if input[1] != 1 {
            return Err(format!(
                "fused_cnn takes single-channel images, got {} channels",
                input[1]
            ));
        }
        let k = self.kernel();
        if k.is_multiple_of(2) {
            return Err(format!("'same' padding needs an odd kernel, got {k}x{k}"));
        }
        if input[2] == 0 || input[3] == 0 {
            return Err(format!("empty {}x{} image", input[2], input[3]));
        }
        Ok(input.to_vec())
    }

    fn flops_forward(&self, input_dims: &[usize]) -> f64 {
        if input_dims.len() != 4 {
            return 0.0;
        }
        // The unfused chain: two convolutions at 2 FLOPs per MAC, ReLU at
        // 1 per hidden element, sigmoid at 4 per output.
        let px = input_dims[0] * input_dims[2] * input_dims[3];
        let (c, k) = (self.channels(), self.kernel());
        let conv = 2.0 * px as f64 * (c * k * k) as f64;
        2.0 * conv + (px * c) as f64 + 4.0 * px as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad_check::check_gradients;
    use crate::{Activation, ActivationKind, Sequential};
    use sl_rng::rngs::StdRng;
    use sl_tensor::{conv2d, conv2d_backward, sigmoid, Padding};

    /// The unfused chain the layer replaces, on `sl-tensor`'s public
    /// kernels and `cnn`'s parameters: `conv2d → ReLU → conv2d → sigmoid`
    /// forward, `conv2d_backward` through sigmoid′ and ReLU′ backward.
    /// Returns the output, the input gradient and the parameter gradients
    /// in `params_and_grads` order.
    fn unfused(cnn: &FusedCnn, x: &Tensor, g: &Tensor) -> (Tensor, Tensor, [Tensor; 4]) {
        let hid = conv2d(x, &cnn.w1, &cnn.b1, Padding::Same).map(|v| v.max(0.0));
        let y = conv2d(&hid, &cnn.w2, &cnn.b2, Padding::Same).map(sigmoid);
        let gy = g.zip(&y, |g, y| {
            g * ActivationKind::Sigmoid.derivative_from_output(y)
        });
        let c2 = conv2d_backward(&hid, &cnn.w2, &gy, Padding::Same);
        let gh = c2.grad_input.zip(&hid, |g, a| {
            g * ActivationKind::Relu.derivative_from_output(a)
        });
        let c1 = conv2d_backward(x, &cnn.w1, &gh, Padding::Same);
        let grads = [c1.grad_weight, c1.grad_bias, c2.grad_weight, c2.grad_bias];
        (y, c1.grad_input, grads)
    }

    fn fused(channels: usize, seed: u64) -> FusedCnn {
        FusedCnn::new(channels, 3, &mut StdRng::seed_from_u64(seed))
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    fn grad_bits(layer: &mut dyn Layer) -> Vec<Vec<u32>> {
        layer
            .params_and_grads()
            .iter()
            .map(|(_, g)| bits(g))
            .collect()
    }

    #[test]
    fn matches_the_unfused_tensor_chain_bitwise() {
        for (channels, h, w) in [(8usize, 16usize, 16usize), (3, 7, 5), (1, 6, 9)] {
            let mut new = fused(channels, 7);
            // He-normal draws in parameter order, `w1` then `w2`, biases
            // zero.
            let mut rng = StdRng::seed_from_u64(7);
            let w1 = sl_tensor::he_normal([channels, 1, 3, 3], 9, &mut rng);
            let w2 = sl_tensor::he_normal([1, channels, 3, 3], channels * 9, &mut rng);
            let init = [w1, Tensor::zeros([channels]), w2, Tensor::zeros([1])];
            let params: Vec<Vec<u32>> = new
                .params_and_grads()
                .iter()
                .map(|(p, _)| bits(p))
                .collect();
            assert_eq!(
                params,
                init.iter().map(bits).collect::<Vec<_>>(),
                "C={channels}"
            );
            let mut rng = StdRng::seed_from_u64(8);
            let x = sl_tensor::randn([3, 1, h, w], 0.0, 1.0, &mut rng);
            let g = sl_tensor::randn([3, 1, h, w], 0.0, 1.0, &mut rng);
            // Two steps, so the gradients accumulate.
            let mut acc = [
                Tensor::zeros([channels, 1, 3, 3]),
                Tensor::zeros([channels]),
                Tensor::zeros([1, channels, 3, 3]),
                Tensor::zeros([1]),
            ];
            for _ in 0..2 {
                let (y, gx, grads) = unfused(&new, &x, &g);
                for (a, step) in acc.iter_mut().zip(&grads) {
                    a.add_inplace(step);
                }
                assert_eq!(bits(&new.forward(&x)), bits(&y), "forward C={channels}");
                assert_eq!(bits(&new.infer(&x)), bits(&y), "infer C={channels}");
                assert_eq!(
                    bits(&new.backward(&g)),
                    bits(&gx),
                    "grad_input C={channels}"
                );
                assert_eq!(
                    grad_bits(&mut new),
                    acc.iter().map(bits).collect::<Vec<_>>(),
                    "grads C={channels}"
                );
            }
            // The params-only backward accumulates the same gradients.
            let mut params_only = fused(channels, 7);
            let mut full = fused(channels, 7);
            for layer in [&mut params_only, &mut full] {
                layer.forward(&x);
            }
            params_only.backward_params(&g);
            full.backward(&g);
            assert_eq!(grad_bits(&mut params_only), grad_bits(&mut full));
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let layer = FusedCnn::new(3, 3, &mut rng);
        let input = sl_tensor::randn([2, 1, 5, 5], 0.0, 1.0, &mut rng);
        let report = check_gradients(layer, &input, 1e-3, 6);
        assert!(report.max_abs_err < 2e-2, "grad check failed: {report:?}");
    }

    #[test]
    fn infer_between_forward_and_backward_leaves_the_step_bit_identical() {
        let mut clean = fused(4, 10);
        let mut probed = fused(4, 10);
        let mut rng = StdRng::seed_from_u64(11);
        let x = sl_tensor::randn([3, 1, 8, 8], 0.0, 1.0, &mut rng);
        let other = sl_tensor::randn([1, 1, 6, 5], 0.0, 1.0, &mut rng);
        let g = sl_tensor::randn([3, 1, 8, 8], 0.0, 1.0, &mut rng);
        let y = clean.forward(&x);
        assert_eq!(bits(&probed.forward(&x)), bits(&y));
        // Inference mid-step, at another batch and image size.
        probed.infer(&other);
        assert_eq!(bits(&probed.backward(&g)), bits(&clean.backward(&g)));
        assert_eq!(grad_bits(&mut probed), grad_bits(&mut clean));
    }

    #[test]
    fn flops_equal_the_unfused_chain() {
        let (x, h) = ([4usize, 1, 40, 40], [4usize, 8, 40, 40]);
        // Each 'same' convolution: 2 FLOPs per MAC, 8×1×3×3 MACs per
        // pixel.
        let conv = 2.0 * (4 * 40 * 40) as f64 * (8 * 9) as f64;
        let chain = conv
            + Activation::relu().flops_forward(&h)
            + conv
            + Activation::sigmoid().flops_forward(&x);
        assert_eq!(fused(8, 1).flops_forward(&x), chain);
    }

    /// The shape error for `dims` when `layer` heads a stack, located at
    /// the fused layer.
    fn located_error(layer: FusedCnn, dims: &[usize]) -> String {
        let net = Sequential::new().push(layer);
        let err = net.shape_trace(dims).unwrap_err();
        assert_eq!((err.index, err.layer), (0, "fused_cnn"));
        assert!(err.steps.is_empty());
        err.message
    }

    #[test]
    fn out_shape_rejects_a_wrong_rank() {
        let err = located_error(fused(8, 1), &[1, 40, 40]);
        assert!(err.contains("rank-4"), "{err}");
    }

    #[test]
    fn out_shape_rejects_wrong_channels() {
        let err = located_error(fused(8, 1), &[2, 3, 40, 40]);
        assert!(err.contains("single-channel"), "{err}");
    }

    #[test]
    fn out_shape_rejects_an_even_kernel() {
        let layer = FusedCnn::new(8, 4, &mut StdRng::seed_from_u64(1));
        let err = located_error(layer, &[2, 1, 40, 40]);
        assert!(err.contains("odd kernel"), "{err}");
        assert_eq!(
            fused(8, 1).out_shape(&[2, 1, 40, 40]),
            Ok(vec![2, 1, 40, 40])
        );
    }
}
