//! The optimizer: Adam.
//!
//! The paper trains with Adam at learning rate `0.001` and decay rates
//! `β₁ = 0.9`, `β₂ = 0.999` ([`Adam::paper`]). Optimizer state is keyed
//! positionally: callers must present the same `(param, grad)` list, in
//! the same order, on every step — the
//! [`Layer::params_and_grads`](crate::Layer::params_and_grads) contract
//! guarantees exactly that.

use sl_tensor::Tensor;

/// A first-order optimizer updating parameters in place from gradients.
pub trait Optimizer {
    /// Applies one update step. `params` pairs each parameter tensor with
    /// its accumulated gradient; gradients are *not* cleared (callers
    /// zero them between steps).
    fn step(&mut self, params: &mut [(&mut Tensor, &mut Tensor)]);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;
}

/// Adam (Kingma & Ba, 2015) with bias-corrected moment estimates.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    first_moment: Vec<Tensor>,
    second_moment: Vec<Tensor>,
}

impl Adam {
    /// Adam with custom hyper-parameters.
    pub fn new(lr: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        assert!(lr > 0.0, "Adam: learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2));
        assert!(eps > 0.0);
        Adam {
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            first_moment: Vec::new(),
            second_moment: Vec::new(),
        }
    }

    /// The paper's optimizer: `lr = 0.001`, `β₁ = 0.9`, `β₂ = 0.999`.
    pub fn paper() -> Self {
        Adam::new(1e-3, 0.9, 0.999, 1e-8)
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Exports the optimizer state for checkpointing: the step count and
    /// the flattened first/second moment vectors (empty before the first
    /// step, when the moments are not yet materialised).
    pub fn export_state(&self) -> (u64, Vec<f32>, Vec<f32>) {
        let flatten = |moments: &[Tensor]| -> Vec<f32> {
            moments
                .iter()
                .flat_map(|t| t.data().iter().copied())
                .collect()
        };
        (
            self.t,
            flatten(&self.first_moment),
            flatten(&self.second_moment),
        )
    }

    /// Restores state captured by [`Adam::export_state`]. `param_dims`
    /// must be the parameter shapes the optimizer will step over, in
    /// order — the moment vectors are split back along them. Empty
    /// moment vectors restore the pre-first-step state.
    pub fn restore_state(
        &mut self,
        t: u64,
        first: &[f32],
        second: &[f32],
        param_dims: &[Vec<usize>],
    ) -> Result<(), String> {
        self.t = t;
        if first.is_empty() && second.is_empty() {
            self.first_moment = Vec::new();
            self.second_moment = Vec::new();
            return Ok(());
        }
        let total: usize = param_dims.iter().map(|d| d.iter().product::<usize>()).sum();
        if first.len() != total || second.len() != total {
            return Err(format!(
                "Adam: moment vectors of {} / {} values do not match {total} parameter values",
                first.len(),
                second.len()
            ));
        }
        let split = |flat: &[f32]| -> Vec<Tensor> {
            let mut at = 0usize;
            param_dims
                .iter()
                .map(|dims| {
                    let n: usize = dims.iter().product();
                    let t = Tensor::from_parts(dims.as_slice(), flat[at..at + n].to_vec());
                    at += n;
                    t
                })
                .collect()
        };
        self.first_moment = split(first);
        self.second_moment = split(second);
        Ok(())
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [(&mut Tensor, &mut Tensor)]) {
        if self.first_moment.is_empty() {
            self.first_moment = params
                .iter()
                .map(|(p, _)| Tensor::zeros(p.dims()))
                .collect();
            self.second_moment = params
                .iter()
                .map(|(p, _)| Tensor::zeros(p.dims()))
                .collect();
        }
        assert_eq!(
            self.first_moment.len(),
            params.len(),
            "Adam: parameter list changed length between steps"
        );
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (k, (param, grad)) in params.iter_mut().enumerate() {
            let m = &mut self.first_moment[k];
            let v = &mut self.second_moment[k];
            for (((p, &g), m), v) in param
                .data_mut()
                .iter_mut()
                .zip(grad.data())
                .zip(m.data_mut())
                .zip(v.data_mut())
            {
                *m = self.beta1 * *m + (1.0 - self.beta1) * g;
                *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
                let m_hat = *m / bc1;
                let v_hat = *v / bc2;
                *p -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }
}

/// Scales all gradients so their global L2 norm does not exceed
/// `max_norm`; returns the pre-clip norm. A standard guard for the LSTM's
/// exploding-gradient failure mode.
pub fn clip_global_norm(grads: &mut [&mut Tensor], max_norm: f32) -> f32 {
    assert!(
        max_norm > 0.0,
        "clip_global_norm: max_norm must be positive"
    );
    let total: f32 = grads.iter().map(|g| g.sum_sq()).sum::<f32>().sqrt();
    if total > max_norm && total.is_finite() {
        let scale = max_norm / total;
        for g in grads.iter_mut() {
            g.scale_inplace(scale);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One (param, grad) pair convenience: minimise f(x) = x² from x = 5.
    fn quadratic_descent(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut x = Tensor::from_slice(&[5.0]);
        let mut g = Tensor::zeros([1]);
        for _ in 0..steps {
            g.data_mut()[0] = 2.0 * x.data()[0];
            let mut pairs = [(&mut x, &mut g)];
            opt.step(&mut pairs);
        }
        x.data()[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Adam's per-step movement is bounded by ≈ lr, so give it enough
        // steps to cover the distance from x = 5.
        let mut opt = Adam::new(0.05, 0.9, 0.999, 1e-8);
        let x = quadratic_descent(&mut opt, 1000);
        assert!(x.abs() < 1e-2, "x = {x}");
        assert_eq!(opt.steps(), 1000);
    }

    #[test]
    fn adam_first_step_size_is_lr() {
        // With bias correction the very first Adam step has magnitude ≈ lr
        // regardless of gradient scale.
        for g0 in [1e-4f32, 1.0, 1e4] {
            let mut opt = Adam::new(0.5, 0.9, 0.999, 1e-8);
            let mut x = Tensor::from_slice(&[0.0]);
            let mut g = Tensor::from_slice(&[g0]);
            let mut pairs = [(&mut x, &mut g)];
            opt.step(&mut pairs);
            assert!(
                (x.data()[0].abs() - 0.5).abs() < 1e-3,
                "first step {} for gradient {g0}",
                x.data()[0]
            );
        }
    }

    #[test]
    fn adam_state_round_trip_resumes_bitwise() {
        // Step A 6 times; step B 3 times, checkpoint, restore into a
        // fresh optimizer, step both 3 more — trajectories must match
        // bitwise.
        let descend = |opt: &mut Adam, x: &mut Tensor, steps: usize| {
            let mut g = Tensor::zeros([2]);
            for _ in 0..steps {
                g.data_mut()[0] = 2.0 * x.data()[0];
                g.data_mut()[1] = 4.0 * x.data()[1];
                let mut pairs = [(&mut *x, &mut g)];
                opt.step(&mut pairs);
            }
        };
        let mut full = Adam::paper();
        let mut x_full = Tensor::from_slice(&[5.0, -3.0]);
        descend(&mut full, &mut x_full, 6);

        let mut first = Adam::paper();
        let mut x = Tensor::from_slice(&[5.0, -3.0]);
        descend(&mut first, &mut x, 3);
        let (t, m, v) = first.export_state();
        assert_eq!(t, 3);
        let mut resumed = Adam::paper();
        resumed.restore_state(t, &m, &v, &[vec![2usize]]).unwrap();
        descend(&mut resumed, &mut x, 3);
        assert_eq!(x.data()[0].to_bits(), x_full.data()[0].to_bits());
        assert_eq!(x.data()[1].to_bits(), x_full.data()[1].to_bits());

        // Pre-first-step state restores to lazily-initialised moments.
        let (t0, m0, v0) = Adam::paper().export_state();
        assert_eq!((t0, m0.len(), v0.len()), (0, 0, 0));
        // Mismatched sizes are a typed error.
        assert!(resumed.restore_state(1, &m, &v, &[vec![3usize]]).is_err());
    }

    #[test]
    fn clip_leaves_small_gradients_alone() {
        let mut a = Tensor::from_slice(&[0.3, 0.4]); // norm 0.5
        let before = a.clone();
        let norm = clip_global_norm(&mut [&mut a], 1.0);
        assert!((norm - 0.5).abs() < 1e-6);
        assert_eq!(a, before);
    }

    #[test]
    fn clip_rescales_large_gradients() {
        let mut a = Tensor::from_slice(&[3.0, 4.0]); // norm 5
        let mut b = Tensor::from_slice(&[0.0, 0.0]);
        let norm = clip_global_norm(&mut [&mut a, &mut b], 1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        assert!((a.norm() - 1.0).abs() < 1e-6);
    }
}
