//! # `sl-privacy` — MDS-based privacy-leakage metric
//!
//! Table 1 of the paper quantifies the privacy leakage of the cut-layer
//! payload as the similarity between each raw image `x_k` and its CNN
//! output feature map `φ(x_k)`, "measured by multidimensional scaling
//! algorithm" (after Hout et al. \[2\]). The pipeline implemented here:
//!
//! 1. pairwise Euclidean [`distance_matrix`] over a sample of raw images
//!    and over the matching feature maps,
//! 2. classical (Torgerson) [`mds`] embeddings of both — double-centred
//!    Gram matrix, [`jacobi_eigen`] decomposition, top-`k` coordinates,
//! 3. [`procrustes_similarity`]: optimal rotation/scale/translation
//!    alignment of the two configurations; the similarity is
//!    `1 − R²_residual ∈ [0, 1]`,
//! 4. [`privacy_leakage`] = that similarity. Feature maps that preserve
//!    the raw images' geometry embed congruently (high leakage ≈ an
//!    eavesdropper reconstructs the images' relations); heavy pooling
//!    collapses the geometry and drives the leakage down — the paper's
//!    Table 1 trend.
//!
//! The paper's phrase "the inverse of the similarity" is ambiguous (read
//! literally it would make *more* compression leak *more*, contradicting
//! the table); we follow the table's semantics: leakage is monotone in
//! structural similarity. A [`congruence_coefficient`] on the raw
//! distance matrices is provided as a secondary, alignment-free metric.
//!
//! ```
//! use sl_privacy::privacy_leakage;
//! use sl_tensor::Tensor;
//!
//! let raw: Vec<Tensor> = (0..8)
//!     .map(|i| Tensor::from_slice(&[i as f32, (i * i) as f32]))
//!     .collect();
//! let raw_refs: Vec<&Tensor> = raw.iter().collect();
//!
//! // Transmitting the images unchanged leaks their whole geometry…
//! assert!(privacy_leakage(&raw_refs, &raw_refs) > 0.99);
//! // …while a constant payload leaks nothing.
//! let flat: Vec<Tensor> = (0..8).map(|_| Tensor::from_slice(&[1.0])).collect();
//! assert_eq!(privacy_leakage(&raw_refs, &flat.iter().collect::<Vec<_>>()), 0.0);
//! ```

mod distance;
mod eigen;
mod mds;
mod similarity;

pub use distance::{distance_matrix, DistanceMatrix};
pub use eigen::{jacobi_eigen, EigenDecomposition};
pub use mds::{mds, MdsEmbedding};
pub use similarity::{congruence_coefficient, privacy_leakage, procrustes_similarity};
