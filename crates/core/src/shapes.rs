//! Pre-run wiring validation for the split model.
//!
//! [`WiringSpec`] captures everything that determines the tensor shapes
//! of the UE→pool→payload→BS graph — image size, pooling window,
//! scheme, sequence length and network widths — and [`WiringSpec::check`]
//! propagates symbolic shapes through the *actual* layer stacks (built by
//! the same `ue::build_stack` / `bs::build_stack` the trainer uses)
//! without running a single forward pass. A miswired configuration —
//! a `w_H × w_W` window that does not tile the CNN output, or a BS input
//! dimension that disagrees with the fused feature width — is rejected
//! with a per-layer shape trace instead of panicking deep inside a
//! training run.
//!
//! Validated paths:
//!
//! 1. **UE training path**: `[B·L, 1, H, W]` through the full CNN + cut
//!    pool.
//! 2. **Fig. 2 partial path**: `[1, 1, H, W]` through the pre-pool CNN
//!    prefix, which must preserve the image size (the pooled-map /
//!    CNN-map extraction reshapes assume it).
//! 3. **BS training path**: the fused `[B, L, F]` sequence (with
//!    `F = scheme.feature_dim(pooled pixels)`) through the recurrent
//!    cell + dense head to the `[B, 1]` prediction.
//!
//! `SplitTrainer::new` runs this check before constructing the model,
//! and this module's tests run it for every experiment profile.

use std::fmt;

use sl_rng::rngs::StdRng;

use sl_nn::shape::format_dims;
use sl_nn::{ShapeError, ShapeTrace};

use crate::bs::RnnCell;
use crate::config::ExperimentConfig;
use crate::pooling::PoolingDim;
use crate::scheme::Scheme;
use crate::{bs, ue};

/// The shape-determining parameters of one split-model configuration.
#[derive(Debug, Clone)]
pub struct WiringSpec {
    /// Input scheme (decides how pooled pixels and RF fuse into `F`).
    pub scheme: Scheme,
    /// Cut-layer pooling window.
    pub pooling: PoolingDim,
    /// Depth-image height `N_H`.
    pub image_h: usize,
    /// Depth-image width `N_W`.
    pub image_w: usize,
    /// Sequence length `L`.
    pub seq_len: usize,
    /// Minibatch size `B`.
    pub batch_size: usize,
    /// UE CNN hidden channels.
    pub conv_channels: usize,
    /// BS recurrent hidden units.
    pub hidden_dim: usize,
    /// BS recurrent cell type.
    pub rnn_cell: RnnCell,
    /// Per-step input width the BS stack is built with. `None` (the
    /// default) derives it from the scheme and pooling — the correct
    /// wiring. `Some(n)` overrides it, which is how a test injects a
    /// deliberately wrong BS input dimension to prove the checker
    /// rejects it.
    pub bs_feature_dim: Option<usize>,
}

impl WiringSpec {
    /// The wiring implied by an [`ExperimentConfig`] for a given scene
    /// geometry (image size and sequence length come from the dataset,
    /// not the config — mirroring `SplitTrainer::new`).
    pub fn from_config(
        config: &ExperimentConfig,
        image_h: usize,
        image_w: usize,
        seq_len: usize,
    ) -> Self {
        WiringSpec {
            scheme: config.scheme,
            pooling: config.pooling,
            image_h,
            image_w,
            seq_len,
            batch_size: config.batch_size,
            conv_channels: config.conv_channels,
            hidden_dim: config.hidden_dim,
            rnn_cell: config.rnn_cell,
            bs_feature_dim: None,
        }
    }

    /// Statically validates the full UE→pool→payload→BS graph, returning
    /// the per-layer traces of all three checked paths — or the first
    /// wiring fault, located to a layer.
    pub fn check(&self) -> Result<WiringReport, WiringError> {
        // Weight *values* are irrelevant to shape propagation; a fixed
        // seed keeps the checker deterministic and dependency-free.
        let mut rng = StdRng::seed_from_u64(0);
        let ue_stack = ue::build_stack(self.conv_channels.max(1), self.pooling, &mut rng);

        // Path 1: the training batch through the full UE stack.
        let n_images = self.batch_size * self.seq_len;
        let ue_trace = ue_stack
            .shape_trace(&[n_images, 1, self.image_h, self.image_w])
            .map_err(WiringError::Ue)?;

        // Path 2: the Fig. 2 pre-pool prefix must preserve the image
        // size (the `infer_cnn_map` reshape back to `[H, W]` depends on
        // it).
        let ue_partial_trace = ue_stack
            .shape_trace_partial(ue::CNN_LAYERS, &[1, 1, self.image_h, self.image_w])
            .map_err(WiringError::UePartial)?;
        let expected_partial = vec![1, 1, self.image_h, self.image_w];
        if ue_partial_trace.output != expected_partial {
            return Err(WiringError::PartialNotSizePreserving {
                expected: expected_partial,
                trace: ue_partial_trace,
            });
        }

        // The cut-layer payload: pooled pixels per image, fused with the
        // RF scalar according to the scheme.
        let pooled_pixels = ue_trace.output[1..].iter().product::<usize>();
        let feature_dim = self.scheme.feature_dim(pooled_pixels);

        // Path 3: the fused sequence through the BS stack (built with
        // the possibly-overridden input width — a mismatch surfaces as
        // a per-layer shape error at the recurrent cell).
        let bs_input = self.bs_feature_dim.unwrap_or(feature_dim);
        let bs_stack = bs::build_stack(bs_input, self.hidden_dim, self.rnn_cell, &mut rng);
        let bs_trace = bs_stack
            .shape_trace(&[self.batch_size, self.seq_len, feature_dim])
            .map_err(|e| WiringError::Bs {
                error: e,
                pooled_pixels,
                feature_dim,
            })?;
        let expected_out = vec![self.batch_size, 1];
        if bs_trace.output != expected_out {
            return Err(WiringError::BsOutput {
                expected: expected_out,
                trace: bs_trace,
            });
        }

        Ok(WiringReport {
            ue_trace,
            ue_partial_trace,
            bs_trace,
            pooled_pixels,
            feature_dim,
        })
    }
}

/// The per-layer traces of a successfully validated wiring.
#[derive(Debug, Clone)]
pub struct WiringReport {
    /// UE training path `[B·L, 1, H, W]` → pooled maps.
    pub ue_trace: ShapeTrace,
    /// Fig. 2 pre-pool prefix `[1, 1, H, W]` → CNN map.
    pub ue_partial_trace: ShapeTrace,
    /// BS path `[B, L, F]` → `[B, 1]` prediction.
    pub bs_trace: ShapeTrace,
    /// Cut-layer payload pixels per image.
    pub pooled_pixels: usize,
    /// Fused per-step feature width `F`.
    pub feature_dim: usize,
}

impl fmt::Display for WiringReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "UE stack:")?;
        writeln!(f, "{}", self.ue_trace)?;
        writeln!(f, "UE pre-pool prefix (Fig. 2 CNN map):")?;
        writeln!(f, "{}", self.ue_partial_trace)?;
        writeln!(
            f,
            "cut-layer payload: {} pooled pixel(s)/image, fused feature width {}",
            self.pooled_pixels, self.feature_dim
        )?;
        writeln!(f, "BS stack:")?;
        write!(f, "{}", self.bs_trace)
    }
}

/// A located wiring fault.
#[derive(Debug, Clone)]
pub enum WiringError {
    /// The UE training path rejected its input.
    Ue(ShapeError),
    /// The Fig. 2 pre-pool prefix rejected its input.
    UePartial(ShapeError),
    /// The pre-pool prefix no longer preserves the image size.
    PartialNotSizePreserving {
        /// The `[1, 1, H, W]` shape the Fig. 2 reshapes assume.
        expected: Vec<usize>,
        /// The trace that produced something else.
        trace: ShapeTrace,
    },
    /// The BS path rejected the fused sequence.
    Bs {
        /// The per-layer shape error (located at the recurrent cell for
        /// a feature-width mismatch).
        error: ShapeError,
        /// Pooled pixels the UE path produced.
        pooled_pixels: usize,
        /// The fused feature width the scheme derived from them.
        feature_dim: usize,
    },
    /// The BS stack produced something other than `[B, 1]`.
    BsOutput {
        /// The expected prediction shape.
        expected: Vec<usize>,
        /// The trace that produced something else.
        trace: ShapeTrace,
    },
}

impl fmt::Display for WiringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WiringError::Ue(e) => {
                writeln!(f, "UE stack rejected its input:")?;
                write!(f, "{e}")
            }
            WiringError::UePartial(e) => {
                writeln!(f, "UE pre-pool prefix (Fig. 2 path) rejected its input:")?;
                write!(f, "{e}")
            }
            WiringError::PartialNotSizePreserving { expected, trace } => {
                writeln!(
                    f,
                    "UE pre-pool prefix must preserve the image size {} but produced {}:",
                    format_dims(expected),
                    format_dims(&trace.output)
                )?;
                write!(f, "{trace}")
            }
            WiringError::Bs {
                error,
                pooled_pixels,
                feature_dim,
            } => {
                writeln!(
                    f,
                    "BS stack rejected the fused sequence ({pooled_pixels} pooled pixel(s)/image \
                     fuse to feature width {feature_dim}):"
                )?;
                write!(f, "{error}")
            }
            WiringError::BsOutput { expected, trace } => {
                writeln!(
                    f,
                    "BS stack must predict {} but produced {}:",
                    format_dims(expected),
                    format_dims(&trace.output)
                )?;
                write!(f, "{trace}")
            }
        }
    }
}

impl std::error::Error for WiringError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's scene geometry: 40×40 depth images, L = 4.
    fn paper_spec(config: &ExperimentConfig) -> WiringSpec {
        WiringSpec::from_config(config, 40, 40, 4)
    }

    #[test]
    fn every_paper_profile_config_is_well_wired() {
        for scheme in [Scheme::ImgRf, Scheme::ImgOnly, Scheme::RfOnly] {
            for pooling in PoolingDim::TABLE1 {
                for config in [
                    ExperimentConfig::paper(scheme, pooling),
                    ExperimentConfig::paper_literal_link(scheme, pooling),
                ] {
                    let report = paper_spec(&config)
                        .check()
                        .unwrap_or_else(|e| panic!("{scheme:?}/{pooling}: {e}"));
                    let pooled = (40 / pooling.h) * (40 / pooling.w);
                    assert_eq!(report.pooled_pixels, pooled);
                    assert_eq!(report.feature_dim, scheme.feature_dim(pooled));
                    assert_eq!(report.bs_trace.output, vec![config.batch_size, 1]);
                    assert_eq!(report.ue_partial_trace.output, vec![1, 1, 40, 40]);
                }
            }
        }
    }

    #[test]
    fn quick_config_is_well_wired_on_test_scenes() {
        // The quick profile trains on 16×16 scenes, so every Table 1
        // pooling that tiles 16×16 applies (1×1 and 4×4).
        let mut checked = 0;
        for scheme in Scheme::ALL {
            for pooling in PoolingDim::TABLE1 {
                if !(16usize.is_multiple_of(pooling.h) && 16usize.is_multiple_of(pooling.w)) {
                    continue;
                }
                let config = ExperimentConfig::quick(scheme, pooling);
                let report = WiringSpec::from_config(&config, 16, 16, 4)
                    .check()
                    .unwrap_or_else(|e| panic!("{scheme:?}/{pooling}: {e}"));
                let pooled = (16 / pooling.h) * (16 / pooling.w);
                assert_eq!(report.pooled_pixels, pooled);
                assert_eq!(report.feature_dim, scheme.feature_dim(pooled));
                assert_eq!(report.bs_trace.output, vec![config.batch_size, 1]);
                assert_eq!(report.ue_partial_trace.output, vec![1, 1, 16, 16]);
                checked += 1;
            }
        }
        assert_eq!(checked, 6);
        // 4×4 Img+RF: 16 pooled pixels plus the RF feature.
        let config = ExperimentConfig::quick(Scheme::ImgRf, PoolingDim::MEDIUM);
        let report = WiringSpec::from_config(&config, 16, 16, 4).check().unwrap();
        assert_eq!((report.pooled_pixels, report.feature_dim), (16, 17));
    }

    #[test]
    fn non_tiling_pool_is_rejected_at_the_pool_layer() {
        let config = ExperimentConfig::paper(Scheme::ImgRf, PoolingDim::new(3, 3));
        let err = paper_spec(&config).check().unwrap_err();
        match &err {
            WiringError::Ue(e) => {
                assert_eq!(e.layer, "avg_pool2d");
                assert_eq!(e.index, 1);
                // The size-preserving fused CNN layer checked out first.
                assert_eq!(e.steps.len(), 1);
            }
            other => panic!("expected a UE pool error, got {other}"),
        }
        let rendered = err.to_string();
        assert!(rendered.contains("does not tile"), "{rendered}");
        assert!(rendered.contains("SHAPE ERROR"), "{rendered}");
    }

    #[test]
    fn miswired_bs_input_dim_is_rejected_with_a_trace() {
        let config = ExperimentConfig::paper(Scheme::ImgRf, PoolingDim::ONE_PIXEL);
        let mut spec = paper_spec(&config);
        // 1-pixel Img+RF fuses to 2 features; wire the BS for 17.
        spec.bs_feature_dim = Some(17);
        let err = spec.check().unwrap_err();
        match &err {
            WiringError::Bs {
                error, feature_dim, ..
            } => {
                assert_eq!(*feature_dim, 2);
                assert_eq!(error.layer, "lstm");
                assert_eq!(error.index, 0);
            }
            other => panic!("expected a BS error, got {other}"),
        }
        let rendered = err.to_string();
        assert!(rendered.contains("input_dim 17"), "{rendered}");
        assert!(rendered.contains("SHAPE ERROR"), "{rendered}");
        assert!(rendered.contains("lstm"), "{rendered}");
    }

    #[test]
    fn report_renders_all_three_paths() {
        let config = ExperimentConfig::paper(Scheme::ImgRf, PoolingDim::ONE_PIXEL);
        let report = paper_spec(&config).check().unwrap();
        let s = report.to_string();
        assert!(s.contains("UE stack:"), "{s}");
        assert!(s.contains("Fig. 2"), "{s}");
        assert!(s.contains("BS stack:"), "{s}");
        assert!(s.contains("fused feature width 2"), "{s}");
    }
}
