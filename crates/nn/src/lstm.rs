//! Long short-term memory layer with full backpropagation through time.
//!
//! The BS-side network of the paper is "recurrent NN layers" fed with a
//! length-`L = 4` sequence of concatenated `[pooled image features ‖ RF
//! received power]` vectors; this LSTM (returning the final hidden state)
//! followed by a [`crate::Dense`] head realizes it.
//!
//! Gate layout along the `4H` axis is `[input, forget, cell, output]`.
//! The forget-gate bias is initialized to 1 (the standard Jozefowicz
//! et al. trick) so early training does not immediately erase the cell
//! state. The per-step gate matmuls and their BPTT transposed variants
//! run on `sl-tensor`'s pool-parallel GEMM kernels (`SLM_THREADS`), bitwise
//! identical at every thread count.

use sl_rng::Rng;

use sl_tensor::{matmul, matmul_a_bt, matmul_at_b, xavier_uniform, Tensor};

use crate::activation::sigmoid;
use crate::Layer;

/// Cached values for one time step, needed by BPTT.
struct StepCache {
    x: Tensor,      // [N, X]
    h_prev: Tensor, // [N, H]
    c_prev: Tensor, // [N, H]
    i: Tensor,      // [N, H] input gate (post-sigmoid)
    f: Tensor,      // [N, H] forget gate
    g: Tensor,      // [N, H] cell candidate (post-tanh)
    o: Tensor,      // [N, H] output gate
    tanh_c: Tensor, // [N, H] tanh of the new cell state
}

/// An LSTM over `[N, L, X]` sequences returning the final hidden state
/// `[N, H]`.
pub struct Lstm {
    input_dim: usize,
    hidden_dim: usize,
    /// Input-to-gates weights `[4H, X]`.
    w_x: Tensor,
    /// Hidden-to-gates weights `[4H, H]`.
    w_h: Tensor,
    /// Gate biases `[4H]`.
    bias: Tensor,
    grad_w_x: Tensor,
    grad_w_h: Tensor,
    grad_bias: Tensor,
    cache: Vec<StepCache>,
}

impl Lstm {
    /// Creates an LSTM with `input_dim` features per step and
    /// `hidden_dim` units, Xavier-initialized from `rng`.
    pub fn new(input_dim: usize, hidden_dim: usize, rng: &mut impl Rng) -> Self {
        assert!(
            input_dim > 0 && hidden_dim > 0,
            "Lstm: dimensions must be positive"
        );
        let h4 = 4 * hidden_dim;
        let mut bias = Tensor::zeros([h4]);
        // Forget-gate bias = 1.
        for j in hidden_dim..2 * hidden_dim {
            bias.data_mut()[j] = 1.0;
        }
        Lstm {
            input_dim,
            hidden_dim,
            w_x: xavier_uniform([h4, input_dim], input_dim, hidden_dim, rng),
            w_h: xavier_uniform([h4, hidden_dim], hidden_dim, hidden_dim, rng),
            bias,
            grad_w_x: Tensor::zeros([h4, input_dim]),
            grad_w_h: Tensor::zeros([h4, hidden_dim]),
            grad_bias: Tensor::zeros([h4]),
            cache: Vec::new(),
        }
    }

    /// Features per time step.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden units.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Extracts time step `t` from `[N, L, X]` as `[N, X]`.
    fn step_input(input: &Tensor, t: usize) -> Tensor {
        let (n, l, x) = (input.dims()[0], input.dims()[1], input.dims()[2]);
        let mut out = Vec::with_capacity(n * x);
        for b in 0..n {
            let base = (b * l + t) * x;
            out.extend_from_slice(&input.data()[base..base + x]);
        }
        Tensor::from_parts([n, x], out)
    }

    /// Splits the pre-activation `[N, 4H]` into activated gates.
    fn gates(&self, z: &Tensor) -> (Tensor, Tensor, Tensor, Tensor) {
        let n = z.dims()[0];
        let h = self.hidden_dim;
        let mut i = Tensor::zeros([n, h]);
        let mut f = Tensor::zeros([n, h]);
        let mut g = Tensor::zeros([n, h]);
        let mut o = Tensor::zeros([n, h]);
        for b in 0..n {
            let row = &z.data()[b * 4 * h..(b + 1) * 4 * h];
            for j in 0..h {
                i.data_mut()[b * h + j] = sigmoid(row[j]);
                f.data_mut()[b * h + j] = sigmoid(row[h + j]);
                g.data_mut()[b * h + j] = row[2 * h + j].tanh();
                o.data_mut()[b * h + j] = sigmoid(row[3 * h + j]);
            }
        }
        (i, f, g, o)
    }

    /// Runs the recurrence over the whole sequence, handing each step's
    /// new hidden state and backward cache to `on_step`; returns the last
    /// hidden state.
    fn run(&self, input: &Tensor, mut on_step: impl FnMut(&Tensor, StepCache)) -> Tensor {
        let (n, l) = self.check_input(input);
        assert!(l > 0, "Lstm: empty sequence");
        let mut h = Tensor::zeros([n, self.hidden_dim]);
        let mut c = Tensor::zeros([n, self.hidden_dim]);
        for t in 0..l {
            let x = Self::step_input(input, t);
            let z = matmul_a_bt(&x, &self.w_x)
                .add(&matmul_a_bt(&h, &self.w_h))
                .add(&self.bias);
            let (i, f, g, o) = self.gates(&z);
            let c_new = f.mul(&c).add(&i.mul(&g));
            let tanh_c = c_new.map(f32::tanh);
            let h_new = o.mul(&tanh_c);
            on_step(
                &h_new,
                StepCache {
                    x,
                    h_prev: h,
                    c_prev: c,
                    i,
                    f,
                    g,
                    o,
                    tanh_c,
                },
            );
            h = h_new;
            c = c_new;
        }
        h
    }

    fn check_input(&self, input: &Tensor) -> (usize, usize) {
        assert_eq!(
            input.shape().rank(),
            3,
            "Lstm: input {} is not rank-3 [batch, steps, features]",
            input.shape()
        );
        assert_eq!(
            input.dims()[2],
            self.input_dim,
            "Lstm: input features {} do not match input_dim {}",
            input.dims()[2],
            self.input_dim
        );
        (input.dims()[0], input.dims()[1])
    }
}

impl Layer for Lstm {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut cache = std::mem::take(&mut self.cache);
        cache.clear();
        let h = self.run(input, |_, step| cache.push(step));
        self.cache = cache;
        h
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        self.run(input, |_, _| {})
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(
            !self.cache.is_empty(),
            "Lstm::backward called without a preceding forward"
        );
        let l = self.cache.len();
        let n = self.cache[0].x.dims()[0];
        let h_dim = self.hidden_dim;
        assert_eq!(
            grad_out.dims(),
            &[n, h_dim],
            "Lstm::backward: grad shape {} does not match final hidden [{}x{}]",
            grad_out.shape(),
            n,
            h_dim
        );

        let mut dh = grad_out.clone();
        let mut dc = Tensor::zeros([n, h_dim]);
        let mut grad_input = Tensor::zeros([n, l, self.input_dim]);

        for (t, step) in std::mem::take(&mut self.cache)
            .into_iter()
            .enumerate()
            .rev()
        {
            // h = o ⊙ tanh(c)
            let d_o = dh.mul(&step.tanh_c);
            let d_tanh_c = dh.mul(&step.o);
            dc.add_inplace(&d_tanh_c.mul(&step.tanh_c.map(|v| 1.0 - v * v)));
            // c = f ⊙ c_prev + i ⊙ g
            let d_i = dc.mul(&step.g);
            let d_g = dc.mul(&step.i);
            let d_f = dc.mul(&step.c_prev);
            let dc_prev = dc.mul(&step.f);
            // Through the gate nonlinearities to the pre-activations.
            let dz_i = d_i.mul(&step.i.map(|v| v * (1.0 - v)));
            let dz_f = d_f.mul(&step.f.map(|v| v * (1.0 - v)));
            let dz_g = d_g.mul(&step.g.map(|v| 1.0 - v * v));
            let dz_o = d_o.mul(&step.o.map(|v| v * (1.0 - v)));
            // Pack into [N, 4H] in [i, f, g, o] order.
            let mut dz = Tensor::zeros([n, 4 * h_dim]);
            for b in 0..n {
                let dst = &mut dz.data_mut()[b * 4 * h_dim..(b + 1) * 4 * h_dim];
                dst[..h_dim].copy_from_slice(&dz_i.data()[b * h_dim..(b + 1) * h_dim]);
                dst[h_dim..2 * h_dim].copy_from_slice(&dz_f.data()[b * h_dim..(b + 1) * h_dim]);
                dst[2 * h_dim..3 * h_dim].copy_from_slice(&dz_g.data()[b * h_dim..(b + 1) * h_dim]);
                dst[3 * h_dim..].copy_from_slice(&dz_o.data()[b * h_dim..(b + 1) * h_dim]);
            }
            // Parameter gradients.
            self.grad_w_x.add_inplace(&matmul_at_b(&dz, &step.x));
            self.grad_w_h.add_inplace(&matmul_at_b(&dz, &step.h_prev));
            self.grad_bias.add_inplace(&dz.sum_axis0());
            // Gradients flowing to x_t and h_{t-1}.
            let dx = matmul(&dz, &self.w_x);
            for b in 0..n {
                let base = (b * l + t) * self.input_dim;
                let src = &dx.data()[b * self.input_dim..(b + 1) * self.input_dim];
                grad_input.data_mut()[base..base + self.input_dim].copy_from_slice(src);
            }
            dh = matmul(&dz, &self.w_h);
            dc = dc_prev;
        }
        grad_input
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        vec![
            (&mut self.w_x, &mut self.grad_w_x),
            (&mut self.w_h, &mut self.grad_w_h),
            (&mut self.bias, &mut self.grad_bias),
        ]
    }

    fn name(&self) -> &'static str {
        "lstm"
    }

    fn out_shape(&self, input: &[usize]) -> Result<Vec<usize>, String> {
        crate::gru::recurrent_out_shape("lstm", input, self.input_dim, self.hidden_dim)
    }

    fn flops_forward(&self, input_dims: &[usize]) -> f64 {
        if input_dims.len() != 3 {
            return 0.0;
        }
        let (n, l) = (input_dims[0], input_dims[1]);
        let (f, h) = (self.input_dim, self.hidden_dim);
        // Per step: four gate blocks of H units over [x; h] MACs, plus
        // ~12 elementwise ops per unit for gate nonlinearities and the
        // cell/hidden updates.
        let per_step = 2.0 * (4 * h * (f + h)) as f64 + 12.0 * h as f64;
        (n * l) as f64 * per_step
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad_check::check_gradients;
    use sl_rng::rngs::StdRng;

    #[test]
    fn output_shape_is_final_hidden() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut lstm = Lstm::new(3, 5, &mut rng);
        let out = lstm.forward(&Tensor::zeros([2, 4, 3]));
        assert_eq!(out.dims(), &[2, 5]);
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let mut rng = StdRng::seed_from_u64(2);
        let lstm = Lstm::new(2, 3, &mut rng);
        let b = lstm.bias.data();
        assert!(b[3..6].iter().all(|&v| v == 1.0));
        assert!(b[..3].iter().all(|&v| v == 0.0));
        assert!(b[6..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn hidden_state_bounded_by_one() {
        // h = o ⊙ tanh(c) with o ∈ (0,1) ⇒ |h| < 1 always.
        let mut rng = StdRng::seed_from_u64(3);
        let mut lstm = Lstm::new(4, 6, &mut rng);
        let x = sl_tensor::randn([3, 10, 4], 0.0, 5.0, &mut rng);
        let out = lstm.forward(&x);
        assert!(out.max() < 1.0 && out.min() > -1.0);
    }

    #[test]
    fn longer_context_changes_output() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut lstm = Lstm::new(1, 4, &mut rng);
        // Same final step, different histories -> different outputs
        // (the LSTM actually uses its memory).
        let a = Tensor::from_vec([1, 3, 1], vec![1.0, 1.0, 0.0]).unwrap();
        let b = Tensor::from_vec([1, 3, 1], vec![-1.0, -1.0, 0.0]).unwrap();
        let ha = lstm.forward(&a);
        let hb = lstm.forward(&b);
        assert!(ha.sub(&hb).norm() > 1e-4);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(6);
        let lstm = Lstm::new(3, 4, &mut rng);
        let input = sl_tensor::randn([2, 3, 3], 0.0, 1.0, &mut rng);
        let report = check_gradients(lstm, &input, 1e-2, 6);
        assert!(report.max_abs_err < 5e-2, "grad check failed: {report:?}");
    }

    #[test]
    fn batch_elements_are_independent() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut lstm = Lstm::new(2, 3, &mut rng);
        let x1 = sl_tensor::randn([1, 4, 2], 0.0, 1.0, &mut rng);
        let x2 = sl_tensor::randn([1, 4, 2], 0.0, 1.0, &mut rng);
        let both = Tensor::from_vec([2, 4, 2], [x1.data(), x2.data()].concat()).unwrap();
        let h1 = lstm.forward(&x1);
        let h2 = lstm.forward(&x2);
        let hb = lstm.forward(&both);
        for j in 0..3 {
            assert!((hb.at(&[0, j]) - h1.at(&[0, j])).abs() < 1e-6);
            assert!((hb.at(&[1, j]) - h2.at(&[0, j])).abs() < 1e-6);
        }
    }
}
