//! The UE-side network: CNN + average-pooling cut layer.

use sl_rng::Rng;

use sl_nn::{AvgPool2d, FusedCnn, Layer, Sequential};
use sl_tensor::Tensor;

use crate::pooling::PoolingDim;

/// Layer count of the convolutional stack before the cut-layer pool (the
/// one [`FusedCnn`] layer, `conv → relu → conv → sigmoid`), i.e. the
/// prefix that produces the Fig. 2 "CNN output image".
pub(crate) const CNN_LAYERS: usize = 1;

/// Builds the UE-side layer stack (the single source of truth for its
/// wiring, shared by [`UeNetwork::new`] and the static shape checker in
/// [`crate::WiringSpec`]). Performs no tiling validation — the shape
/// contracts report non-tiling pools instead.
pub(crate) fn build_stack(channels: usize, pooling: PoolingDim, rng: &mut impl Rng) -> Sequential {
    Sequential::new()
        .labelled("nn.ue")
        .push(FusedCnn::new(channels, 3, rng))
        .push(AvgPool2d::new(pooling.h, pooling.w))
}

/// The network half that stays on the mmWave UE (paper Fig. 1, left):
///
/// `Conv2d(1→C, 3×3, same) → ReLU → Conv2d(C→1, 3×3, same) → Sigmoid →
/// AvgPool2d(w_H × w_W)`
///
/// 'Same' padding keeps the CNN output at the raw image's `N_H × N_W`, so
/// the pooling window alone decides the transmitted feature-map size; the
/// sigmoid bounds the output in `[0, 1]` for `R`-bit quantization.
///
/// The four CNN layers run as one [`FusedCnn`] layer, which keeps each
/// image's `C`-channel hidden map inside its pool job and recomputes it
/// in the backward; the stack is `[fused_cnn, avg_pool2d]`, bit for bit
/// the four separate layers plus the pool. The whole stack lives in one
/// [`Sequential`] labelled `nn.ue`, so the per-layer metrics cover both
/// UE-side layers;
/// the pre-pool CNN map is recovered with a partial inference. The
/// inference methods never touch the training caches or gradients, so
/// they may run between a step's [`UeNetwork::forward`] and
/// [`UeNetwork::backward`].
pub struct UeNetwork {
    /// The full UE-side stack, cut-layer pool included.
    net: Sequential,
    image_h: usize,
    image_w: usize,
    channels: usize,
    pooling: PoolingDim,
}

impl UeNetwork {
    /// Builds the UE network for `image_h × image_w` inputs with `channels`
    /// hidden channels and the given cut-layer pooling.
    pub fn new(
        image_h: usize,
        image_w: usize,
        channels: usize,
        pooling: PoolingDim,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(channels > 0, "UeNetwork: channels must be positive");
        // Validate tiling up front.
        let _ = pooling.output_size(image_h, image_w);
        let net = build_stack(channels, pooling, rng);
        UeNetwork {
            net,
            image_h,
            image_w,
            channels,
            pooling,
        }
    }

    /// The cut-layer pooling dimension.
    pub fn pooling(&self) -> PoolingDim {
        self.pooling
    }

    /// Pooled feature pixels per image.
    pub fn pooled_pixels(&self) -> usize {
        self.pooling.output_pixels(self.image_h, self.image_w)
    }

    /// Forward pass: `[N, 1, H, W]` images → `[N, 1, H/w_H, W/w_W]`
    /// pooled maps (caching for [`UeNetwork::backward`]).
    pub fn forward(&mut self, images: &Tensor) -> Tensor {
        self.check_images(images);
        self.net.forward(images)
    }

    /// [`UeNetwork::forward`]'s output without caching (inference).
    pub fn infer(&self, images: &Tensor) -> Tensor {
        self.check_images(images);
        self.net.infer(images)
    }

    fn check_images(&self, images: &Tensor) {
        assert_eq!(
            images.dims()[2..],
            [self.image_h, self.image_w],
            "UeNetwork: image size {} does not match configured {}x{}",
            images.shape(),
            self.image_h,
            self.image_w
        );
    }

    /// Backward pass from the cut-layer gradient (as received over the
    /// downlink), accumulating CNN parameter gradients. The gradient with
    /// respect to the depth images has no consumer, so the fused CNN
    /// skips computing it.
    pub fn backward(&mut self, grad_pooled: &Tensor) {
        self.net.backward_params(grad_pooled);
    }

    /// The pre-pooling CNN output for one `[H, W]` image — the Fig. 2
    /// "CNN output image" visualization (inference only, no caching).
    pub fn infer_cnn_map(&self, image: &Tensor) -> Tensor {
        let x = image.reshape([1, 1, self.image_h, self.image_w]);
        let y = self.net.infer_partial(CNN_LAYERS, &x);
        y.reshape([self.image_h, self.image_w])
    }

    /// The pooled cut-layer output for one `[H, W]` image (inference).
    pub fn infer_pooled_map(&self, image: &Tensor) -> Tensor {
        let x = image.reshape([1, 1, self.image_h, self.image_w]);
        let pooled = self.net.infer(&x);
        let (ph, pw) = self.pooling.output_size(self.image_h, self.image_w);
        pooled.reshape([ph, pw])
    }

    /// Parameter/gradient pairs for the UE-side optimizer.
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

    /// Modelled forward FLOPs per image: two 'same' 3×3 convolutions.
    pub fn flops_forward_per_image(&self) -> f64 {
        let px = (self.image_h * self.image_w) as f64;
        let c = self.channels as f64;
        // 2 FLOPs per MAC; conv1: 9·1·C taps, conv2: 9·C·1 taps.
        2.0 * 9.0 * c * px * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_rng::rngs::StdRng;

    fn net(pooling: PoolingDim) -> UeNetwork {
        UeNetwork::new(16, 16, 4, pooling, &mut StdRng::seed_from_u64(1))
    }

    #[test]
    fn forward_shapes_track_pooling() {
        let mut one_pixel = net(PoolingDim::new(16, 16));
        let out = one_pixel.forward(&Tensor::zeros([6, 1, 16, 16]));
        assert_eq!(out.dims(), &[6, 1, 1, 1]);

        let mut raw = net(PoolingDim::RAW);
        let out = raw.forward(&Tensor::zeros([2, 1, 16, 16]));
        assert_eq!(out.dims(), &[2, 1, 16, 16]);
    }

    #[test]
    fn output_in_unit_interval() {
        let mut n = net(PoolingDim::new(4, 4));
        let mut rng = StdRng::seed_from_u64(2);
        let x = sl_tensor::uniform([3, 1, 16, 16], 0.0, 1.0, &mut rng);
        let y = n.forward(&x);
        assert!(
            y.min() >= 0.0 && y.max() <= 1.0,
            "sigmoid+avgpool must stay in [0,1]"
        );
    }

    #[test]
    fn backward_accumulates_conv_grads() {
        let mut n = net(PoolingDim::new(4, 4));
        let x = Tensor::ones([2, 1, 16, 16]);
        let y = n.forward(&x);
        n.backward(&Tensor::ones(y.dims()));
        let grads_nonzero = n.params_and_grads().iter().any(|(_, g)| g.sum_sq() > 0.0);
        assert!(grads_nonzero, "backward must reach the conv weights");
        n.zero_grads();
        assert!(n.params_and_grads().iter().all(|(_, g)| g.sum_sq() == 0.0));
    }

    #[test]
    fn infer_mid_step_leaves_the_step_bit_identical() {
        let mut clean = net(PoolingDim::new(4, 4));
        let mut probed = net(PoolingDim::new(4, 4));
        let mut rng = StdRng::seed_from_u64(5);
        let x = sl_tensor::uniform([3, 1, 16, 16], 0.0, 1.0, &mut rng);
        let img = sl_tensor::uniform([16, 16], 0.0, 1.0, &mut rng);
        // Gradients already accumulated by an earlier step must survive too.
        for n in [&mut clean, &mut probed] {
            let y = n.forward(&x);
            n.backward(&Tensor::full(y.dims(), 0.5));
        }
        let y = clean.forward(&x);
        assert_eq!(probed.forward(&x), y);
        probed.infer_cnn_map(&img);
        probed.infer_pooled_map(&img);
        probed.infer(&x);
        let g = Tensor::from_fn(y.dims(), |i| (i as f32 * 0.37).sin());
        clean.backward(&g);
        probed.backward(&g);
        let bits = |n: &mut UeNetwork| -> Vec<Vec<u32>> {
            n.params_and_grads()
                .iter()
                .map(|(_, g)| g.data().iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&mut clean), bits(&mut probed));
    }

    #[test]
    fn infer_maps_are_consistent() {
        let n = net(PoolingDim::new(4, 4));
        let mut rng = StdRng::seed_from_u64(3);
        let img = sl_tensor::uniform([16, 16], 0.0, 1.0, &mut rng);
        let full = n.infer_cnn_map(&img);
        let pooled = n.infer_pooled_map(&img);
        assert_eq!(full.dims(), &[16, 16]);
        assert_eq!(pooled.dims(), &[4, 4]);
        // Pooling the full map by hand must give the pooled map.
        let by_hand = sl_tensor::avg_pool2d(&full.reshape([1, 1, 16, 16]), 4, 4);
        for (a, b) in by_hand.data().iter().zip(pooled.data()) {
            assert!((a - b).abs() < 1e-6);
        }
        // Global mean is invariant under average pooling.
        assert!((full.mean() - pooled.mean()).abs() < 1e-5);
    }

    #[test]
    fn parameter_count_formula() {
        let mut n = net(PoolingDim::RAW);
        // conv1: 4·1·9+4, conv2: 1·4·9+1.
        assert_eq!(n.parameter_count(), 40 + 37);
    }

    #[test]
    fn flops_scale_with_channels() {
        let narrow = net(PoolingDim::RAW);
        let wide = UeNetwork::new(16, 16, 8, PoolingDim::RAW, &mut StdRng::seed_from_u64(4));
        assert!(
            (wide.flops_forward_per_image() / narrow.flops_forward_per_image() - 2.0).abs() < 1e-9
        );
    }
}
