//! # `sl-scene` — synthetic mmWave pedestrian-blockage scene
//!
//! The paper evaluates on a private trace of 13,228 time-aligned
//! (depth-image, received-power) samples captured with a Microsoft Kinect
//! and a 60.48 GHz transmitter while pedestrians walked through the link
//! (Nishio et al. \[4\]). That dataset is not public, so this crate builds
//! the closest synthetic equivalent (see DESIGN.md §1):
//!
//! * a 2-D corridor with a BS and a UE `r = 4 m` apart and pedestrians
//!   crossing the line-of-sight path ([`Pedestrian`], [`SceneConfig`]),
//! * a pinhole **depth camera** at the UE looking toward the BS,
//!   rendering pedestrians into Kinect-style normalized depth frames at
//!   the Kinect frame interval `γ = 33 ms` ([`DepthCamera`]),
//! * a **received-power model**: a line-of-sight baseline with deep
//!   (~20 dB) human-body shadowing ramps when a pedestrian's body
//!   penetrates the Fresnel-zone margin around the LoS segment, plus
//!   temporally-correlated shadowing and fast-fading jitter
//!   ([`PowerModel`]),
//! * trace and dataset assembly with the paper's exact sample count,
//!   sequence length `L = 4`, prediction horizon `⌈T/γ⌉ = 4` frames and
//!   train/validation split indices ([`MeasurementTrace`],
//!   [`SequenceDataset`]).
//!
//! The essential property this preserves is the paper's *cross-modal
//! timing*: the camera sees an approaching pedestrian several frames
//! before the RF power drops, while the RF signal alone gives almost no
//! warning — exactly the signal the multimodal split network exploits.

mod camera;
mod config;
mod dataset;
mod pedestrian;
mod power;
mod trace;

pub use camera::DepthCamera;
pub use config::{CameraConfig, SceneConfig};
pub use dataset::{PowerNormalizer, SequenceDataset, SequenceSample, SplitIndices, PAPER_SEQ_LEN};
pub use pedestrian::Pedestrian;
pub use power::PowerModel;
pub use trace::{ascii_frame, MeasurementTrace, Scene};
