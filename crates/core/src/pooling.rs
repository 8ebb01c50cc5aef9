//! The cut-layer pooling dimension.

use std::fmt;

/// The average-pooling window `w_H × w_W` applied to the CNN output
/// before transmission — the paper's single compression/privacy knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolingDim {
    /// Window height `w_H` in pixels.
    pub h: usize,
    /// Window width `w_W` in pixels.
    pub w: usize,
}

impl PoolingDim {
    /// `1×1`: no compression — the full CNN output crosses the link.
    pub const RAW: PoolingDim = PoolingDim { h: 1, w: 1 };
    /// `4×4` pooling (a 10×10 feature map for the 40×40 CNN output).
    pub const MEDIUM: PoolingDim = PoolingDim { h: 4, w: 4 };
    /// `10×10` pooling (a 4×4 feature map).
    pub const COARSE: PoolingDim = PoolingDim { h: 10, w: 10 };
    /// `40×40` pooling: the paper's headline **one-pixel image**.
    pub const ONE_PIXEL: PoolingDim = PoolingDim { h: 40, w: 40 };

    /// The four pooling dimensions evaluated in the paper's Table 1.
    pub const TABLE1: [PoolingDim; 4] = [
        PoolingDim::RAW,
        PoolingDim::MEDIUM,
        PoolingDim::COARSE,
        PoolingDim::ONE_PIXEL,
    ];

    /// Creates a pooling window.
    pub fn new(h: usize, w: usize) -> Self {
        assert!(h > 0 && w > 0, "PoolingDim: window must be non-empty");
        PoolingDim { h, w }
    }

    /// The pooled feature-map size for a `img_h × img_w` CNN output.
    ///
    /// # Panics
    /// Panics when the window does not tile the CNN output.
    pub fn output_size(&self, img_h: usize, img_w: usize) -> (usize, usize) {
        assert!(
            img_h.is_multiple_of(self.h) && img_w.is_multiple_of(self.w),
            "PoolingDim: window {self} does not tile {img_h}x{img_w}"
        );
        (img_h / self.h, img_w / self.w)
    }

    /// Pixels in the pooled feature map.
    pub fn output_pixels(&self, img_h: usize, img_w: usize) -> usize {
        let (h, w) = self.output_size(img_h, img_w);
        h * w
    }

    /// The compression factor `w_H · w_W`.
    pub fn compression_factor(&self) -> usize {
        self.h * self.w
    }
}

/// Prints the paper's notation, e.g. `4x4` or `40x40 (1-pixel)`.
impl fmt::Display for PoolingDim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == PoolingDim::ONE_PIXEL {
            write!(f, "{}x{} (1-pixel)", self.h, self.w)
        } else {
            write!(f, "{}x{}", self.h, self.w)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_presets() {
        assert_eq!(PoolingDim::TABLE1.len(), 4);
        assert_eq!(PoolingDim::RAW.output_pixels(40, 40), 1600);
        assert_eq!(PoolingDim::MEDIUM.output_pixels(40, 40), 100);
        assert_eq!(PoolingDim::COARSE.output_pixels(40, 40), 16);
        assert_eq!(PoolingDim::ONE_PIXEL.output_pixels(40, 40), 1);
    }

    #[test]
    fn output_size_divides() {
        assert_eq!(PoolingDim::new(4, 2).output_size(16, 16), (4, 8));
        assert_eq!(PoolingDim::new(4, 2).compression_factor(), 8);
    }

    #[test]
    fn display_notation() {
        assert_eq!(PoolingDim::MEDIUM.to_string(), "4x4");
        assert_eq!(PoolingDim::ONE_PIXEL.to_string(), "40x40 (1-pixel)");
    }

    #[test]
    #[should_panic(expected = "does not tile")]
    fn non_tiling_window_panics() {
        PoolingDim::new(3, 3).output_size(40, 40);
    }
}
