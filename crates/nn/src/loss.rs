//! Regression losses.
//!
//! The paper minimizes minibatch mean-squared error on the predicted
//! received power and reports accuracy as root-MSE in dB; both live here.

use sl_tensor::Tensor;

/// A scalar loss and its gradient with respect to the prediction.
#[derive(Debug, Clone)]
pub struct LossValue {
    /// The scalar loss (mean over all elements).
    pub loss: f32,
    /// `∂loss/∂prediction`, same shape as the prediction.
    pub grad: Tensor,
}

fn check_shapes(op: &str, prediction: &Tensor, target: &Tensor) {
    assert_eq!(
        prediction.shape(),
        target.shape(),
        "{op}: prediction {} and target {} shapes differ",
        prediction.shape(),
        target.shape()
    );
    assert!(prediction.numel() > 0, "{op}: empty tensors");
}

/// Mean squared error: `mean((ŷ - y)²)` — the paper's training loss.
pub fn mse_loss(prediction: &Tensor, target: &Tensor) -> LossValue {
    check_shapes("mse_loss", prediction, target);
    let n = prediction.numel() as f32;
    let diff = prediction.sub(target);
    LossValue {
        loss: diff.sum_sq() / n,
        grad: diff.scale(2.0 / n),
    }
}

/// Root mean squared error between two equally-shaped tensors — the
/// paper's validation metric ("validation loss in RMSE (dB)").
pub fn rmse(prediction: &Tensor, target: &Tensor) -> f32 {
    check_shapes("rmse", prediction, target);
    (prediction.sub(target).sum_sq() / prediction.numel() as f32).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_zero_at_match() {
        let y = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let l = mse_loss(&y, &y);
        assert_eq!(l.loss, 0.0);
        assert_eq!(l.grad.sum(), 0.0);
    }

    #[test]
    fn mse_value_and_grad() {
        let pred = Tensor::from_slice(&[2.0, 0.0]);
        let target = Tensor::from_slice(&[0.0, 0.0]);
        let l = mse_loss(&pred, &target);
        assert_eq!(l.loss, 2.0); // (4 + 0)/2
        assert_eq!(l.grad.data(), &[2.0, 0.0]); // 2·diff/n
    }

    #[test]
    fn mse_grad_matches_finite_differences() {
        let pred = Tensor::from_slice(&[0.4, -1.2, 2.2]);
        let target = Tensor::from_slice(&[0.0, 1.0, 2.0]);
        let l = mse_loss(&pred, &target);
        let eps = 1e-3;
        for k in 0..3 {
            let mut p = pred.clone();
            p.data_mut()[k] += eps;
            let up = mse_loss(&p, &target).loss;
            p.data_mut()[k] -= 2.0 * eps;
            let down = mse_loss(&p, &target).loss;
            let fd = (up - down) / (2.0 * eps);
            assert!((fd - l.grad.data()[k]).abs() < 1e-3);
        }
    }

    #[test]
    fn rmse_is_sqrt_of_mse() {
        let pred = Tensor::from_slice(&[1.0, 3.0]);
        let target = Tensor::from_slice(&[0.0, 0.0]);
        let m = mse_loss(&pred, &target).loss;
        assert!((rmse(&pred, &target) - m.sqrt()).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "shapes differ")]
    fn shape_mismatch_panics() {
        mse_loss(&Tensor::zeros([2]), &Tensor::zeros([3]));
    }
}
