//! Cut-layer payload sizing.

/// Parameters that size the split-layer communication payload.
///
/// The paper's uplink payload formula is
/// `B_UL = N_H · N_W · B · R · L / (w_H · w_W)`:
/// a minibatch of `B` sequence samples, each a length-`L` sequence of
/// pooled CNN output images of `(N_H/w_H) × (N_W/w_W)` pixels at `R` bits
/// per pixel. The backward-pass (downlink) gradient payload has the same
/// element count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadSpec {
    /// CNN output height before pooling (`N_H`).
    pub image_height: usize,
    /// CNN output width before pooling (`N_W`).
    pub image_width: usize,
    /// Minibatch size (`B`).
    pub batch_size: usize,
    /// Bit depth per transmitted pixel (`R`).
    pub bit_depth: usize,
    /// Sequence length (`L`).
    pub sequence_len: usize,
}

impl PayloadSpec {
    /// The paper's configuration: 40×40 CNN output, 8-bit pixels, `L = 4`,
    /// caller-chosen minibatch size (the paper trains with `B = 64`).
    pub fn paper(batch_size: usize) -> Self {
        PayloadSpec {
            image_height: 40,
            image_width: 40,
            batch_size,
            bit_depth: 8,
            sequence_len: 4,
        }
    }

    /// Pixels per pooled image for a `wh × ww` pooling window.
    ///
    /// # Panics
    /// Panics when the window does not tile the CNN output exactly.
    pub fn pooled_pixels(&self, wh: usize, ww: usize) -> usize {
        assert!(
            wh > 0 && ww > 0,
            "PayloadSpec: pooling window must be non-empty"
        );
        assert!(
            self.image_height.is_multiple_of(wh) && self.image_width.is_multiple_of(ww),
            "PayloadSpec: window {wh}x{ww} does not tile {}x{}",
            self.image_height,
            self.image_width
        );
        (self.image_height / wh) * (self.image_width / ww)
    }

    /// Uplink payload in bits for one SGD step with pooling `wh × ww`
    /// (the paper's `B_UL` formula).
    pub fn uplink_bits(&self, wh: usize, ww: usize) -> u64 {
        (self.pooled_pixels(wh, ww) * self.batch_size * self.bit_depth * self.sequence_len) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_payload_sizes() {
        let spec = PayloadSpec::paper(64);
        // 1×1 pooling: full 1600-pixel maps -> 40·40·64·8·4 bits.
        assert_eq!(spec.uplink_bits(1, 1), 3_276_800);
        // 4×4 pooling: 100 pixels.
        assert_eq!(spec.uplink_bits(4, 4), 204_800);
        // 10×10 pooling: 16 pixels.
        assert_eq!(spec.uplink_bits(10, 10), 32_768);
        // 40×40 pooling: the one-pixel image.
        assert_eq!(spec.uplink_bits(40, 40), 2_048);
    }

    #[test]
    fn payload_scales_linearly_with_batch() {
        let spec1 = PayloadSpec::paper(1);
        let spec64 = PayloadSpec::paper(64);
        assert_eq!(spec64.uplink_bits(4, 4), 64 * spec1.uplink_bits(4, 4));
    }

    #[test]
    fn compression_factor_is_window_area() {
        let spec = PayloadSpec::paper(8);
        assert_eq!(
            spec.uplink_bits(1, 1) / spec.uplink_bits(4, 4),
            16 // w_H · w_W
        );
    }

    #[test]
    #[should_panic(expected = "does not tile")]
    fn rejects_non_tiling_window() {
        PayloadSpec::paper(64).pooled_pixels(7, 7);
    }
}
