//! The composed split model.

use sl_rng::Rng;

use sl_channel::PayloadSpec;
use sl_tensor::Tensor;

use crate::batch::Batch;
use crate::bs::{BsNetwork, RnnCell};
use crate::pooling::PoolingDim;
use crate::quantize::Quantizer;
use crate::scheme::Scheme;
use crate::ue::UeNetwork;

/// The full split network: UE half, cut-layer quantizer and BS half,
/// specialized by [`Scheme`] (the RF-only baseline has no UE half at
/// all — the BS already owns the power measurements).
pub struct SplitModel {
    scheme: Scheme,
    pooling: PoolingDim,
    quantizer: Quantizer,
    ue: Option<UeNetwork>,
    bs: BsNetwork,
    image_h: usize,
    image_w: usize,
    seq_len: usize,
    /// `(B, L)` of the most recent forward, for routing the backward.
    last_batch_shape: Option<(usize, usize)>,
}

impl SplitModel {
    /// Builds a split model.
    ///
    /// * `image_h × image_w` — raw depth-image (and CNN output) size.
    /// * `seq_len` — RNN sequence length `L`.
    /// * `conv_channels` — hidden channels of the UE CNN.
    /// * `hidden_dim` — BS LSTM units.
    /// * `bit_depth` — cut-layer quantization `R`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        scheme: Scheme,
        pooling: PoolingDim,
        image_h: usize,
        image_w: usize,
        seq_len: usize,
        conv_channels: usize,
        hidden_dim: usize,
        bit_depth: usize,
        rng: &mut impl Rng,
    ) -> Self {
        SplitModel::with_cell(
            scheme,
            pooling,
            image_h,
            image_w,
            seq_len,
            conv_channels,
            hidden_dim,
            bit_depth,
            RnnCell::Lstm,
            rng,
        )
    }

    /// [`SplitModel::new`] with an explicit BS recurrent cell type.
    #[allow(clippy::too_many_arguments)]
    pub fn with_cell(
        scheme: Scheme,
        pooling: PoolingDim,
        image_h: usize,
        image_w: usize,
        seq_len: usize,
        conv_channels: usize,
        hidden_dim: usize,
        bit_depth: usize,
        cell: RnnCell,
        rng: &mut impl Rng,
    ) -> Self {
        let ue = scheme
            .uses_images()
            .then(|| UeNetwork::new(image_h, image_w, conv_channels, pooling, rng));
        let pooled = pooling.output_pixels(image_h, image_w);
        let bs = BsNetwork::with_cell(scheme.feature_dim(pooled), hidden_dim, cell, rng);
        SplitModel {
            scheme,
            pooling,
            quantizer: Quantizer::new(bit_depth),
            ue,
            bs,
            image_h,
            image_w,
            seq_len,
            last_batch_shape: None,
        }
    }

    /// The input scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The cut-layer pooling dimension.
    pub fn pooling(&self) -> PoolingDim {
        self.pooling
    }

    /// Pooled feature pixels per image.
    pub fn pooled_pixels(&self) -> usize {
        self.pooling.output_pixels(self.image_h, self.image_w)
    }

    /// The UE half, when the scheme has one.
    pub fn ue_mut(&mut self) -> Option<&mut UeNetwork> {
        self.ue.as_mut()
    }

    /// The BS half.
    pub fn bs_mut(&mut self) -> &mut BsNetwork {
        &mut self.bs
    }

    /// Forward pass over a batch: runs the UE CNN (if any), quantizes the
    /// cut-layer activations to `R` bits (the exact values that would be
    /// transmitted), fuses with the RF history per the scheme and runs
    /// the BS half. Returns `[B, 1]` normalized power predictions.
    ///
    /// Composed from [`SplitModel::forward_ue`] and
    /// [`SplitModel::forward_bs`] — the trainers call the two halves on
    /// either side of their BS link, this method chains them directly.
    pub fn forward(&mut self, batch: &Batch) -> Tensor {
        let b = batch.batch_size();
        let l = batch.seq_len;
        let img_features = self.forward_ue(batch);
        self.forward_bs(img_features.as_ref(), &batch.powers_norm, b, l)
    }

    /// [`SplitModel::forward`]'s prediction computed without touching
    /// either half's training caches or gradients (validation and
    /// prediction traces). Composed from [`SplitModel::infer_ue`] and
    /// [`SplitModel::infer_bs`], like `forward`.
    pub fn infer(&self, batch: &Batch) -> Tensor {
        let cut = self.infer_ue(batch);
        self.infer_bs(
            cut.as_ref(),
            &batch.powers_norm,
            batch.batch_size(),
            batch.seq_len,
        )
    }

    /// [`SplitModel::forward_ue`] without the training caches: the
    /// quantized cut activations, `None` for RF-only.
    ///
    /// The CNN, the pool and the quantizer each work image by image, so
    /// they run once per distinct frame of the batch, and the quantized
    /// rows are then gathered into step order: the same `[B·L, 1, ph,
    /// pw]` bits that encoding every step's frame would give.
    pub fn infer_ue(&self, batch: &Batch) -> Option<Tensor> {
        self.ue.as_ref().map(|ue| {
            let frames = Self::require_images(batch.distinct_frames());
            let pooled = ue.infer(&frames.images);
            frames.per_step(&self.quantizer.quantize(&pooled))
        })
    }

    /// [`SplitModel::forward_bs`] without the training caches: the
    /// `[B, 1]` predictions from delivered cut activations.
    pub fn infer_bs(
        &self,
        cut: Option<&Tensor>,
        powers_norm: &Tensor,
        b: usize,
        l: usize,
    ) -> Tensor {
        self.check_seq_len(l);
        let features = self.fuse(cut, powers_norm, b, l);
        self.bs.infer(&features)
    }

    fn require_images<T>(images: Option<T>) -> T {
        images
            // slm-lint: allow(no-expect) scheme/batch agreement is validated by the WiringSpec pre-run check and Batch construction
            .expect("SplitModel: image scheme requires batch images")
    }

    fn check_seq_len(&self, l: usize) {
        assert_eq!(
            l, self.seq_len,
            "SplitModel: batch L {l} != model L {}",
            self.seq_len
        );
    }

    /// UE-side forward: runs the CNN + pooling over the batch images and
    /// quantizes the cut-layer activations to `R` bits — exactly the
    /// `[B·L, 1, ph, pw]` tensor a real UE would put on the air. `None`
    /// for the RF-only scheme, which has no UE half.
    ///
    /// Training runs the CNN on every step's frame, repeats included:
    /// each step's gradient must reach the weights through its own
    /// per-image slot, in step order.
    pub fn forward_ue(&mut self, batch: &Batch) -> Option<Tensor> {
        self.ue.as_mut().map(|ue| {
            // [B·L, 1, ph, pw]; what actually crosses the link is its
            // R-bit-quantized form.
            let pooled = ue.forward(Self::require_images(batch.images.as_ref()));
            self.quantizer.quantize(&pooled)
        })
    }

    /// BS-side forward from the (delivered) quantized cut activations:
    /// fuses them with the normalized RF power history per the scheme and
    /// runs the BS half. Returns `[B, 1]` normalized power predictions
    /// and arms the backward routing for this `(B, L)`. `cut` must be
    /// `Some` exactly when the scheme uses images.
    pub fn forward_bs(
        &mut self,
        cut: Option<&Tensor>,
        powers_norm: &Tensor,
        b: usize,
        l: usize,
    ) -> Tensor {
        self.check_seq_len(l);
        self.last_batch_shape = Some((b, l));
        let features = self.fuse(cut, powers_norm, b, l);
        self.bs.forward(&features)
    }

    /// Builds the `[B, L, F]` BS input from the (quantized) image
    /// features and the normalized powers.
    fn fuse(&self, img: Option<&Tensor>, powers: &Tensor, b: usize, l: usize) -> Tensor {
        let p = self.pooled_pixels();
        match self.scheme {
            Scheme::RfOnly => powers.reshape([b, l, 1]),
            Scheme::ImgOnly => {
                // slm-lint: allow(no-expect) forward() always computes image features for image schemes
                let img = img.expect("ImgOnly scheme requires image features");
                img.reshape([b, l, p])
            }
            Scheme::ImgRf => {
                // slm-lint: allow(no-expect) forward() always computes image features for image schemes
                let img = img.expect("ImgRf scheme requires image features");
                let f = p + 1;
                let mut out = Tensor::zeros([b, l, f]);
                let src = img.data(); // row (b·L + t) holds p pixels
                for bi in 0..b {
                    for t in 0..l {
                        let row = bi * l + t;
                        let dst_base = (bi * l + t) * f;
                        out.data_mut()[dst_base..dst_base + p]
                            .copy_from_slice(&src[row * p..(row + 1) * p]);
                        out.data_mut()[dst_base + p] = powers.at(&[bi, t]);
                    }
                }
                out
            }
        }
    }

    /// Backward pass from the prediction gradient. Accumulates gradients
    /// in both halves and returns the cut-layer gradient tensor
    /// (`[B·L, 1, ph, pw]`) that the downlink would carry, or `None` for
    /// the RF-only scheme.
    ///
    /// Composed from [`SplitModel::backward_bs`] and
    /// [`SplitModel::backward_ue`], mirroring the forward split.
    pub fn backward(&mut self, grad_pred: &Tensor) -> Option<Tensor> {
        let cut = self.backward_bs(grad_pred)?;
        self.backward_ue(&cut);
        Some(cut)
    }

    /// BS-side backward: backprops the BS half from the prediction
    /// gradient and returns the cut-layer gradient that the downlink
    /// would carry (`None` for RF-only). Does *not* touch the UE half —
    /// the trainers apply [`SplitModel::backward_ue`] after the
    /// gradient crosses the link.
    pub fn backward_bs(&mut self, grad_pred: &Tensor) -> Option<Tensor> {
        let (b, l) = self
            .last_batch_shape
            .take()
            // slm-lint: allow(no-expect) forward-before-backward is the Layer trait's documented calling contract
            .expect("SplitModel::backward called without a preceding forward");
        let grad_features = self.bs.backward(grad_pred); // [B, L, F]
        if !self.scheme.uses_images() {
            return None;
        }
        let p = self.pooled_pixels();
        let f = self.scheme.feature_dim(p);
        let (ph, pw) = self.pooling_output();
        // Extract the image-feature slice of each step's gradient. For
        // ImgOnly this is the whole row (and the copy below is layout-
        // preserving); for ImgRf it drops the trailing RF column.
        let mut cut = Tensor::zeros([b * l, 1, ph, pw]);
        let src = grad_features.data();
        for row in 0..b * l {
            let base = row * f;
            cut.data_mut()[row * p..(row + 1) * p].copy_from_slice(&src[base..base + p]);
        }
        Some(cut)
    }

    /// UE-side backward from the delivered cut-layer gradient. The
    /// straight-through estimator makes the quantizer's gradient the
    /// identity, so the cut gradient feeds the pooling layer directly.
    /// No-op for the RF-only scheme.
    pub fn backward_ue(&mut self, cut_grad: &Tensor) {
        if let Some(ue) = self.ue.as_mut() {
            ue.backward(cut_grad);
        }
    }

    fn pooling_output(&self) -> (usize, usize) {
        self.pooling.output_size(self.image_h, self.image_w)
    }

    /// The per-step uplink payload in bits for batch size `b` (the
    /// paper's `B_UL` formula); `0` for the RF-only scheme.
    pub fn uplink_payload_bits(&self, b: usize) -> u64 {
        if !self.scheme.uses_images() {
            return 0;
        }
        let spec = PayloadSpec {
            image_height: self.image_h,
            image_width: self.image_w,
            batch_size: b,
            bit_depth: self.quantizer.bit_depth(),
            sequence_len: self.seq_len,
        };
        spec.uplink_bits(self.pooling.h, self.pooling.w)
    }

    /// The per-step downlink (cut-gradient) payload in bits.
    pub fn downlink_payload_bits(&self, b: usize) -> u64 {
        self.uplink_payload_bits(b)
    }

    /// Modelled UE FLOPs for one forward+backward step over batch `b`
    /// (backward ≈ 2× forward, the usual heuristic).
    pub fn ue_step_flops(&self, b: usize) -> f64 {
        match &self.ue {
            Some(ue) => ue.flops_forward_per_image() * (b * self.seq_len) as f64 * 3.0,
            None => 0.0,
        }
    }

    /// Modelled BS FLOPs for one forward+backward step over batch `b`.
    pub fn bs_step_flops(&self, b: usize) -> f64 {
        self.bs.flops_forward_per_sequence(self.seq_len) * b as f64 * 3.0
    }

    /// UE-side inference for one deployed frame: runs the CNN + pooling
    /// on a single `[H, W]` depth frame and returns the quantized
    /// feature vector (`[pooled_pixels]`) exactly as it would be put on
    /// the air. Returns an empty tensor for the RF-only scheme.
    pub fn encode_frame(&self, frame: &Tensor) -> Tensor {
        let p = self.pooled_pixels();
        match self.ue.as_ref() {
            Some(ue) => {
                let pooled = ue.infer_pooled_map(frame);
                self.quantizer.quantize(&pooled).reshape([p])
            }
            None => Tensor::zeros([0]),
        }
    }

    /// Per-frame inference payload in bits (`pooled_pixels · R`); `0`
    /// for RF-only.
    pub fn frame_payload_bits(&self) -> u64 {
        if !self.scheme.uses_images() {
            return 0;
        }
        (self.pooled_pixels() * self.quantizer.bit_depth()) as u64
    }

    /// BS-side inference over a rolling window: `features[t]` is the
    /// (possibly stale) feature vector for step `t` and `powers_norm[t]`
    /// the normalized RF power; both must have length `L`. Returns the
    /// normalized power prediction.
    pub fn predict_window(&mut self, features: &[Tensor], powers_norm: &[f32]) -> f32 {
        let l = self.seq_len;
        assert_eq!(
            powers_norm.len(),
            l,
            "predict_window: power history must have length L"
        );
        let p = self.pooled_pixels();
        let f = self.scheme.feature_dim(p);
        let mut input = Tensor::zeros([1, l, f]);
        if self.scheme.uses_images() {
            assert_eq!(
                features.len(),
                l,
                "predict_window: feature history must have length L"
            );
            for (t, feat) in features.iter().enumerate() {
                assert_eq!(
                    feat.numel(),
                    p,
                    "predict_window: feature {t} has wrong size"
                );
                input.data_mut()[t * f..t * f + p].copy_from_slice(feat.data());
            }
        }
        if self.scheme.uses_rf() {
            for (t, &pw) in powers_norm.iter().enumerate() {
                // The RF value sits after the image features (or alone).
                input.data_mut()[t * f + f - 1] = pw;
            }
        }
        let out = self.bs.forward(&input);
        self.bs.zero_grads();
        out.item()
    }

    /// Parameter/gradient pairs of the UE half (empty for RF-only).
    pub fn ue_params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        self.ue
            .as_mut()
            .map(|u| u.params_and_grads())
            .unwrap_or_default()
    }

    /// Parameter/gradient pairs of the BS half.
    pub fn bs_params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        self.bs.params_and_grads()
    }

    /// Clears accumulated gradients on both sides.
    pub fn zero_grads(&mut self) {
        self.zero_ue_grads();
        self.bs.zero_grads();
    }

    /// Clears the UE half's accumulated gradients (no-op for RF-only).
    pub fn zero_ue_grads(&mut self) {
        if let Some(u) = self.ue.as_mut() {
            u.zero_grads();
        }
    }

    /// Total trainable parameters across both halves.
    pub fn parameter_count(&mut self) -> usize {
        let ue = self.ue.as_mut().map(|u| u.parameter_count()).unwrap_or(0);
        ue + self.bs.parameter_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_rng::rngs::StdRng;
    use sl_scene::{Scene, SceneConfig, SequenceDataset};

    fn dataset() -> SequenceDataset {
        let mut rng = StdRng::seed_from_u64(60);
        let scene = Scene::generate(SceneConfig::tiny(), &mut rng);
        SequenceDataset::paper_windowing(scene.simulate(&mut rng))
    }

    fn model(scheme: Scheme, pooling: PoolingDim) -> SplitModel {
        SplitModel::new(
            scheme,
            pooling,
            16,
            16,
            4,
            2,
            8,
            8,
            &mut StdRng::seed_from_u64(61),
        )
    }

    fn batch(ds: &SequenceDataset, scheme: Scheme, n: usize) -> Batch {
        let idx: Vec<usize> = ds.train_indices()[..n].to_vec();
        Batch::assemble(ds, ds.normalizer(), &idx, scheme.uses_images())
    }

    #[test]
    fn forward_shapes_for_all_schemes() {
        let ds = dataset();
        for scheme in Scheme::ALL {
            let mut m = model(scheme, PoolingDim::new(4, 4));
            let b = batch(&ds, scheme, 3);
            let pred = m.forward(&b);
            assert_eq!(pred.dims(), &[3, 1], "{scheme}");
            assert!(pred.all_finite());
        }
    }

    #[test]
    fn backward_produces_cut_gradient_for_image_schemes() {
        let ds = dataset();
        let mut m = model(Scheme::ImgRf, PoolingDim::new(4, 4));
        let b = batch(&ds, Scheme::ImgRf, 2);
        let pred = m.forward(&b);
        let cut = m.backward(&Tensor::ones(pred.dims())).unwrap();
        assert_eq!(cut.dims(), &[8, 1, 4, 4]);
        // Both halves accumulated gradients.
        assert!(m
            .ue_params_and_grads()
            .iter()
            .any(|(_, g)| g.sum_sq() > 0.0));
        assert!(m
            .bs_params_and_grads()
            .iter()
            .any(|(_, g)| g.sum_sq() > 0.0));
    }

    #[test]
    fn rf_only_has_no_ue_and_no_payload() {
        let ds = dataset();
        let mut m = model(Scheme::RfOnly, PoolingDim::new(16, 16));
        assert!(m.ue_mut().is_none());
        assert_eq!(m.uplink_payload_bits(64), 0);
        assert_eq!(m.ue_step_flops(64), 0.0);
        let b = batch(&ds, Scheme::RfOnly, 2);
        let pred = m.forward(&b);
        assert!(m.backward(&Tensor::ones(pred.dims())).is_none());
    }

    #[test]
    fn payload_matches_paper_formula() {
        // 16×16 images, 4×4 pooling -> 16 px; B=8, R=8, L=4.
        let m = model(Scheme::ImgRf, PoolingDim::new(4, 4));
        assert_eq!(m.uplink_payload_bits(8), (16 * 8 * 8 * 4) as u64);
        assert_eq!(m.downlink_payload_bits(8), m.uplink_payload_bits(8));
    }

    #[test]
    fn fused_features_place_rf_last() {
        let ds = dataset();
        let mut m = model(Scheme::ImgRf, PoolingDim::new(16, 16)); // 1 px
        let b = batch(&ds, Scheme::ImgRf, 2);
        // Run forward, then inspect the fusion directly.
        let _ = m.forward(&b);
        let ue = m.ue.as_mut().unwrap();
        let pooled = ue.forward(b.images.as_ref().unwrap());
        let q = m.quantizer.quantize(&pooled);
        let f = m.fuse(Some(&q), &b.powers_norm, 2, 4);
        assert_eq!(f.dims(), &[2, 4, 2]);
        for bi in 0..2 {
            for t in 0..4 {
                assert_eq!(f.at(&[bi, t, 0]), q.data()[bi * 4 + t]);
                assert_eq!(f.at(&[bi, t, 1]), b.powers_norm.at(&[bi, t]));
            }
        }
    }

    #[test]
    fn infer_ue_matches_encoding_every_step() {
        let ds = dataset();
        let m = model(Scheme::ImgRf, PoolingDim::new(4, 4));
        let v = ds.val_indices();
        // Overlapping windows and a repeat: 7 distinct frames, 16 steps.
        let b = Batch::assemble(&ds, ds.normalizer(), &[v[0], v[1], v[3], v[1]], true);
        assert_eq!(b.distinct_frames().unwrap().images.dims()[0], 7);
        let ue = m.ue.as_ref().unwrap();
        let want = m.quantizer.quantize(&ue.infer(b.images.as_ref().unwrap()));
        let got = m.infer_ue(&b).unwrap();
        assert_eq!(got.dims(), &[16, 1, 4, 4]);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn quantized_activations_lie_on_grid() {
        let ds = dataset();
        let mut m = model(Scheme::ImgOnly, PoolingDim::new(4, 4));
        let b = batch(&ds, Scheme::ImgOnly, 2);
        let _ = m.forward(&b);
        // Re-run the UE by hand and check the quantized grid.
        let ue = m.ue.as_mut().unwrap();
        let pooled = ue.forward(b.images.as_ref().unwrap());
        let q = m.quantizer.quantize(&pooled);
        for &v in q.data() {
            let steps = v * 255.0;
            assert!((steps - steps.round()).abs() < 1e-4);
        }
    }

    #[test]
    fn one_training_step_reduces_loss() {
        use sl_nn::{mse_loss, Adam, Optimizer};
        let ds = dataset();
        let mut m = model(Scheme::ImgRf, PoolingDim::new(16, 16));
        let b = batch(&ds, Scheme::ImgRf, 16);
        let mut opt_ue = Adam::new(0.01, 0.9, 0.999, 1e-8);
        let mut opt_bs = Adam::new(0.01, 0.9, 0.999, 1e-8);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            let pred = m.forward(&b);
            let l = mse_loss(&pred, &b.targets_norm);
            m.backward(&l.grad);
            opt_ue.step(&mut m.ue_params_and_grads());
            opt_bs.step(&mut m.bs_params_and_grads());
            m.zero_grads();
            first.get_or_insert(l.loss);
            last = l.loss;
        }
        assert!(
            last < first.unwrap(),
            "fixed-batch loss must decrease: {first:?} -> {last}"
        );
    }

    #[test]
    fn parameter_count_sums_halves() {
        let mut m = model(Scheme::ImgRf, PoolingDim::new(4, 4));
        let mut ue_only = model(Scheme::ImgOnly, PoolingDim::new(4, 4));
        let mut rf_only = model(Scheme::RfOnly, PoolingDim::new(4, 4));
        assert!(m.parameter_count() > rf_only.parameter_count());
        // Img and Img+RF differ only in the LSTM input width.
        assert!(m.parameter_count() > ue_only.parameter_count());
    }
}
