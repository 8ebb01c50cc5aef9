//! The BS-side network: LSTM over the fused sequence + dense head.

use sl_rng::Rng;

use sl_nn::{Dense, Gru, Layer, Lstm, Sequential};
use sl_tensor::Tensor;

/// Which recurrent cell the BS half uses.
///
/// The paper only says "recurrent NN layers"; LSTM is the default and
/// GRU is provided for the cell-type ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RnnCell {
    /// Long short-term memory (default).
    #[default]
    Lstm,
    /// Gated recurrent unit.
    Gru,
}

impl RnnCell {
    /// Gate count factor for the FLOP model (4 gate blocks for LSTM, 3
    /// for GRU).
    fn gate_blocks(self) -> f64 {
        match self {
            RnnCell::Lstm => 4.0,
            RnnCell::Gru => 3.0,
        }
    }
}

/// The network half that runs at the BS (paper Fig. 1, right): a
/// recurrent cell over the length-`L` sequence of per-step features
/// (pooled image pixels and/or the RF received power), and a dense head
/// mapping the final hidden state to the predicted (normalized) future
/// received power.
///
/// Both layers live in one [`Sequential`] labelled `nn.bs`, so the
/// per-layer metrics show the recurrent cell and the head separately.
pub struct BsNetwork {
    net: Sequential,
    feature_dim: usize,
    hidden_dim: usize,
    cell: RnnCell,
}

/// Builds the BS-side layer stack (the single source of truth for its
/// wiring, shared by [`BsNetwork::with_cell`] and the static shape
/// checker in [`crate::WiringSpec`]).
pub(crate) fn build_stack(
    feature_dim: usize,
    hidden_dim: usize,
    cell: RnnCell,
    rng: &mut impl Rng,
) -> Sequential {
    let net = Sequential::new().labelled("nn.bs");
    match cell {
        RnnCell::Lstm => net.push(Lstm::new(feature_dim, hidden_dim, rng)),
        RnnCell::Gru => net.push(Gru::new(feature_dim, hidden_dim, rng)),
    }
    .push(Dense::new(hidden_dim, 1, rng))
}

impl BsNetwork {
    /// Builds the BS network with the default LSTM cell.
    pub fn new(feature_dim: usize, hidden_dim: usize, rng: &mut impl Rng) -> Self {
        BsNetwork::with_cell(feature_dim, hidden_dim, RnnCell::Lstm, rng)
    }

    /// Builds the BS network with an explicit recurrent cell type.
    pub fn with_cell(
        feature_dim: usize,
        hidden_dim: usize,
        cell: RnnCell,
        rng: &mut impl Rng,
    ) -> Self {
        let net = build_stack(feature_dim, hidden_dim, cell, rng);
        BsNetwork {
            net,
            feature_dim,
            hidden_dim,
            cell,
        }
    }

    /// Per-step input feature count.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Recurrent hidden units.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// The configured cell type.
    pub fn cell(&self) -> RnnCell {
        self.cell
    }

    /// Forward pass: `[B, L, F]` feature sequences → `[B, 1]` predicted
    /// normalized power.
    pub fn forward(&mut self, features: &Tensor) -> Tensor {
        self.net.forward(features)
    }

    /// [`BsNetwork::forward`]'s output without caching (inference).
    pub fn infer(&self, features: &Tensor) -> Tensor {
        self.net.infer(features)
    }

    /// Backward pass from the prediction gradient; returns the gradient
    /// with respect to the `[B, L, F]` input features (the part that must
    /// travel back over the downlink).
    pub fn backward(&mut self, grad_pred: &Tensor) -> Tensor {
        self.net.backward(grad_pred)
    }

    /// Parameter/gradient pairs for the BS-side optimizer.
    pub fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        self.net.params_and_grads()
    }

    /// Clears accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.net.zero_grads();
    }

    /// Total trainable parameters.
    pub fn parameter_count(&mut self) -> usize {
        self.net.parameter_count()
    }

    /// Modelled forward FLOPs per sequence of length `seq_len`.
    pub fn flops_forward_per_sequence(&self, seq_len: usize) -> f64 {
        let h = self.hidden_dim() as f64;
        let f = self.feature_dim() as f64;
        // Per step: gate matmuls 2·(blocks·H)·(F+H) plus ~12H pointwise.
        let per_step = 2.0 * self.cell.gate_blocks() * h * (f + h) + 12.0 * h;
        seq_len as f64 * per_step + 2.0 * h // head
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_rng::rngs::StdRng;

    #[test]
    fn forward_shape() {
        let mut net = BsNetwork::new(2, 8, &mut StdRng::seed_from_u64(1));
        let out = net.forward(&Tensor::zeros([5, 4, 2]));
        assert_eq!(out.dims(), &[5, 1]);
        assert_eq!(net.feature_dim(), 2);
        assert_eq!(net.hidden_dim(), 8);
    }

    #[test]
    fn backward_returns_feature_gradient() {
        let mut net = BsNetwork::new(3, 6, &mut StdRng::seed_from_u64(2));
        let mut rng = StdRng::seed_from_u64(3);
        let x = sl_tensor::randn([2, 4, 3], 0.0, 1.0, &mut rng);
        let y = net.forward(&x);
        let gx = net.backward(&Tensor::ones(y.dims()));
        assert_eq!(gx.dims(), x.dims());
        assert!(gx.sum_sq() > 0.0, "input gradient must be nonzero");
    }

    #[test]
    fn parameter_count_formula() {
        let mut net = BsNetwork::new(2, 8, &mut StdRng::seed_from_u64(4));
        // LSTM: 4H·(F) + 4H·H + 4H = 32·2 + 32·8 + 32; head: 8 + 1.
        assert_eq!(net.parameter_count(), 64 + 256 + 32 + 9);
    }

    #[test]
    fn can_learn_sequence_mean() {
        use sl_nn::{mse_loss, Adam, Optimizer};
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = BsNetwork::new(1, 8, &mut rng);
        let mut opt = Adam::new(0.02, 0.9, 0.999, 1e-8);
        let x = sl_tensor::randn([32, 4, 1], 0.0, 1.0, &mut rng);
        // Target: mean of the sequence.
        let y = Tensor::from_fn([32, 1], |b| {
            (0..4).map(|t| x.at(&[b, t, 0])).sum::<f32>() / 4.0
        });
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..250 {
            let pred = net.forward(&x);
            let l = mse_loss(&pred, &y);
            net.backward(&l.grad);
            opt.step(&mut net.params_and_grads());
            net.zero_grads();
            first.get_or_insert(l.loss);
            last = l.loss;
        }
        assert!(last < first.unwrap() * 0.1, "{:?} -> {last}", first);
    }

    #[test]
    fn flops_grow_with_sequence_length() {
        let net = BsNetwork::new(2, 8, &mut StdRng::seed_from_u64(6));
        assert!(net.flops_forward_per_sequence(8) > net.flops_forward_per_sequence(4));
    }

    #[test]
    fn gru_cell_variant_works_end_to_end() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = BsNetwork::with_cell(3, 6, RnnCell::Gru, &mut rng);
        assert_eq!(net.cell(), RnnCell::Gru);
        let x = sl_tensor::randn([2, 4, 3], 0.0, 1.0, &mut rng);
        let y = net.forward(&x);
        assert_eq!(y.dims(), &[2, 1]);
        let gx = net.backward(&Tensor::ones(y.dims()));
        assert_eq!(gx.dims(), x.dims());
        // GRU has 3 gate blocks vs the LSTM's 4 -> fewer params & FLOPs.
        let mut lstm = BsNetwork::with_cell(3, 6, RnnCell::Lstm, &mut rng);
        assert!(net.parameter_count() < lstm.parameter_count());
        assert!(net.flops_forward_per_sequence(4) < lstm.flops_forward_per_sequence(4));
        assert_eq!(BsNetwork::new(3, 6, &mut rng).cell(), RnnCell::Lstm);
    }
}
