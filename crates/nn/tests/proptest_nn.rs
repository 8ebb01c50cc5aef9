//! Property-based tests of the NN layers: gradient correctness on random
//! shapes/values, loss identities, gradient clipping.

use sl_rng::rngs::StdRng;
use sl_rng::{cases, Rng};

use sl_nn::{
    check_gradients, clip_global_norm, mse_loss, rmse, Activation, ActivationKind, Dense, Layer,
    Lstm,
};
use sl_tensor::Tensor;

const CASES: usize = 24;

/// A tensor of `dims` with values uniform in `[-3, 3)`.
fn tensor<const R: usize>(rng: &mut StdRng, dims: [usize; R]) -> Tensor {
    Tensor::from_fn(dims, |_| rng.random_range(-3.0f32..3.0))
}

// ---- gradients hold for arbitrary inputs --------------------------------

#[test]
fn dense_gradients_on_random_data() {
    cases("dense_gradients_on_random_data", CASES, |rng| {
        let x = tensor(rng, [3, 4]);
        let seed = rng.random_range(0u64..1000);
        let layer = Dense::new(4, 2, &mut StdRng::seed_from_u64(seed));
        let report = check_gradients(layer, &x, 1e-2, 4);
        assert!(report.max_abs_err < 0.1, "err {}", report.max_abs_err);
    });
}

#[test]
fn lstm_gradients_on_random_data() {
    cases("lstm_gradients_on_random_data", CASES, |rng| {
        let x = tensor(rng, [2, 3, 2]);
        let seed = rng.random_range(0u64..1000);
        let layer = Lstm::new(2, 3, &mut StdRng::seed_from_u64(seed));
        let report = check_gradients(layer, &x, 1e-2, 4);
        assert!(report.max_abs_err < 0.1, "err {}", report.max_abs_err);
    });
}

#[test]
fn activation_gradients_on_random_data() {
    cases("activation_gradients_on_random_data", CASES, |rng| {
        let x = tensor(rng, [12]);
        for kind in [
            ActivationKind::Sigmoid,
            ActivationKind::Tanh,
            ActivationKind::Identity,
        ] {
            let report = check_gradients(Activation::new(kind), &x, 1e-3, 6);
            assert!(
                report.max_abs_err < 0.05,
                "{kind:?}: err {}",
                report.max_abs_err
            );
        }
    });
}

// ---- loss identities ------------------------------------------------------

#[test]
fn losses_are_nonnegative_and_zero_at_match() {
    cases("losses_are_nonnegative_and_zero_at_match", CASES, |rng| {
        let p = tensor(rng, [6]);
        let t = tensor(rng, [6]);
        assert!(mse_loss(&p, &t).loss >= 0.0);
        assert!(mse_loss(&p, &p).loss.abs() < 1e-9);
        assert!(rmse(&t, &t).abs() < 1e-9);
    });
}

#[test]
fn rmse_scales_linearly() {
    cases("rmse_scales_linearly", CASES, |rng| {
        let p = tensor(rng, [8]);
        let t = tensor(rng, [8]);
        let s = rng.random_range(0.1f32..5.0);
        let base = rmse(&p, &t);
        let scaled = rmse(&p.scale(s), &t.scale(s));
        assert!((scaled - s * base).abs() < 1e-3 * (1.0 + base * s));
    });
}

#[test]
fn mse_gradient_descends() {
    cases("mse_gradient_descends", CASES, |rng| {
        let p = tensor(rng, [8]);
        let t = tensor(rng, [8]);
        // Stepping against the gradient must not increase the loss.
        let l = mse_loss(&p, &t);
        let stepped = p.sub(&l.grad.scale(0.1));
        assert!(mse_loss(&stepped, &t).loss <= l.loss + 1e-6);
    });
}

// ---- gradient clipping ----------------------------------------------------

#[test]
fn clip_never_increases_norm() {
    cases("clip_never_increases_norm", CASES, |rng| {
        let len = rng.random_range(1usize..20);
        let v: Vec<f32> = (0..len)
            .map(|_| rng.random_range(-100.0f32..100.0))
            .collect();
        let limit = rng.random_range(0.1f32..10.0);
        let mut t = Tensor::from_slice(&v);
        let before = t.norm();
        clip_global_norm(&mut [&mut t], limit);
        assert!(t.norm() <= before + 1e-4);
        assert!(t.norm() <= limit * 1.001 || before <= limit);
    });
}

// ---- layer contracts --------------------------------------------------------

#[test]
fn relu_output_nonnegative_and_sparse_grad() {
    cases("relu_output_nonnegative_and_sparse_grad", CASES, |rng| {
        let x = tensor(rng, [10]);
        let mut layer = Activation::relu();
        let y = layer.forward(&x);
        assert!(y.min() >= 0.0);
        let g = layer.backward(&Tensor::ones([10]));
        // Gradient is 0 exactly where output is 0 (up to ties at x=0).
        for i in 0..10 {
            if y.data()[i] == 0.0 {
                assert_eq!(g.data()[i], 0.0);
            } else {
                assert_eq!(g.data()[i], 1.0);
            }
        }
    });
}

#[test]
fn lstm_output_strictly_bounded() {
    cases("lstm_output_strictly_bounded", CASES, |rng| {
        let x = tensor(rng, [2, 5, 3]);
        let seed = rng.random_range(0u64..100);
        let mut lstm = Lstm::new(3, 4, &mut StdRng::seed_from_u64(seed));
        let h = lstm.forward(&x);
        assert!(h.max() < 1.0 && h.min() > -1.0);
        assert!(h.all_finite());
    });
}
