//! Configuration similarity and the privacy-leakage metric.

use sl_tensor::Tensor;

use crate::distance::{distance_matrix, DistanceMatrix};
use crate::eigen::jacobi_eigen;
use crate::mds::{mds, MdsEmbedding};

/// The embedding dimensionality used by [`privacy_leakage`] — 2, matching
/// the planar MDS configurations of Hout et al. [2].
pub const LEAKAGE_MDS_DIM: usize = 2;

/// Procrustes similarity between two centred configurations of the same
/// `n` points: `(Σᵢ σᵢ(AᵀB))² / (‖A‖²F · ‖B‖²F) ∈ [0, 1]`.
///
/// This is `1 − d` where `d` is the (scale-optimal, rotation/reflection-
/// invariant) Procrustes statistic, i.e. the fraction of configuration
/// variance that survives the best orthogonal alignment. `1` means the
/// configurations are identical up to rotation/reflection/scale; `0`
/// means no linear alignment matches at all (or one configuration is
/// degenerate).
pub fn procrustes_similarity(a: &MdsEmbedding, b: &MdsEmbedding) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "procrustes_similarity: point counts differ"
    );
    assert_eq!(a.dim(), b.dim(), "procrustes_similarity: dimensions differ");
    let n = a.len();
    let k = a.dim();
    if n == 0 {
        return 1.0;
    }

    let norm_a: f64 = a.coords().iter().map(|x| x * x).sum();
    let norm_b: f64 = b.coords().iter().map(|x| x * x).sum();
    if norm_a < 1e-18 || norm_b < 1e-18 {
        return 0.0;
    }

    // C = AᵀB (k × k).
    let mut c = vec![0.0f64; k * k];
    for i in 0..n {
        let pa = a.point(i);
        let pb = b.point(i);
        for r in 0..k {
            for s in 0..k {
                c[r * k + s] += pa[r] * pb[s];
            }
        }
    }
    // Nuclear norm of C = Σ singular values = Σ sqrt(eig(CᵀC)).
    let mut ctc = vec![0.0f64; k * k];
    for r in 0..k {
        for s in 0..k {
            ctc[r * k + s] = (0..k).map(|t| c[t * k + r] * c[t * k + s]).sum();
        }
    }
    let eig = jacobi_eigen(k, &ctc);
    let nuclear: f64 = eig.values.iter().map(|&l| l.max(0.0).sqrt()).sum();

    (nuclear * nuclear / (norm_a * norm_b)).clamp(0.0, 1.0)
}

/// Congruence coefficient between two distance matrices over the same
/// points: `Σ d1ᵢⱼ·d2ᵢⱼ / √(Σ d1ᵢⱼ² · Σ d2ᵢⱼ²)` over `i < j`.
///
/// An alignment-free secondary similarity in `[0, 1]` (both matrices are
/// non-negative).
pub fn congruence_coefficient(d1: &DistanceMatrix, d2: &DistanceMatrix) -> f64 {
    assert_eq!(d1.len(), d2.len(), "congruence_coefficient: sizes differ");
    let n = d1.len();
    let mut dot = 0.0f64;
    let mut n1 = 0.0f64;
    let mut n2 = 0.0f64;
    for i in 0..n {
        for j in (i + 1)..n {
            let a = d1.get(i, j);
            let b = d2.get(i, j);
            dot += a * b;
            n1 += a * a;
            n2 += b * b;
        }
    }
    if n1 < 1e-18 || n2 < 1e-18 {
        return 0.0;
    }
    (dot / (n1 * n2).sqrt()).clamp(0.0, 1.0)
}

/// The paper's Table 1 privacy-leakage metric: how much of the raw
/// images' pairwise geometry an eavesdropper holding only the CNN output
/// feature maps could reconstruct.
///
/// Pipeline: MDS-embed (to `LEAKAGE_MDS_DIM` = 2 dimensions) the raw images and the
/// matching feature maps, then measure [`procrustes_similarity`] between
/// the two planar configurations. High ⇒ the cut-layer payload still
/// mirrors the raw images (leaky); low ⇒ pooling has collapsed the
/// geometry (private).
///
/// # Panics
/// Panics when the two slices differ in length.
pub fn privacy_leakage(raw_images: &[&Tensor], feature_maps: &[&Tensor]) -> f64 {
    assert_eq!(
        raw_images.len(),
        feature_maps.len(),
        "privacy_leakage: sample counts differ"
    );
    let d_raw = distance_matrix(raw_images);
    let d_feat = distance_matrix(feature_maps);
    let e_raw = mds(&d_raw, LEAKAGE_MDS_DIM);
    let e_feat = mds(&d_feat, LEAKAGE_MDS_DIM);
    procrustes_similarity(&e_raw, &e_feat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_rng::rngs::StdRng;
    use sl_rng::Rng;

    fn embed(points: &[Vec<f32>]) -> MdsEmbedding {
        let ts: Vec<Tensor> = points.iter().map(|p| Tensor::from_slice(p)).collect();
        let refs: Vec<&Tensor> = ts.iter().collect();
        mds(&distance_matrix(&refs), 2)
    }

    #[test]
    fn identical_configurations_score_one() {
        let pts = vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 2.0],
            vec![3.0, 1.0],
        ];
        let a = embed(&pts);
        let s = procrustes_similarity(&a, &a);
        assert!((s - 1.0).abs() < 1e-9, "s = {s}");
    }

    #[test]
    fn rotation_and_scale_invariance() {
        let pts = vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 2.0],
            vec![3.0, 1.0],
        ];
        // Rotate by 40° and scale by 3.
        let (sin, cos) = 40f32.to_radians().sin_cos();
        let moved: Vec<Vec<f32>> = pts
            .iter()
            .map(|p| {
                vec![
                    3.0 * (cos * p[0] - sin * p[1]),
                    3.0 * (sin * p[0] + cos * p[1]),
                ]
            })
            .collect();
        let s = procrustes_similarity(&embed(&pts), &embed(&moved));
        assert!((s - 1.0).abs() < 1e-6, "s = {s}");
    }

    #[test]
    fn unrelated_configurations_score_low() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 40;
        let a: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..6).map(|_| rng.random_range(-1.0..1.0)).collect())
            .collect();
        let b: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..6).map(|_| rng.random_range(-1.0..1.0)).collect())
            .collect();
        let s = procrustes_similarity(&embed(&a), &embed(&b));
        let same = procrustes_similarity(&embed(&a), &embed(&a));
        assert!(s < 0.6 * same, "unrelated {s} vs identical {same}");
    }

    #[test]
    fn collapsed_configuration_scores_zero() {
        let pts = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 2.0]];
        let collapsed = vec![vec![5.0, 5.0]; 3];
        let s = procrustes_similarity(&embed(&pts), &embed(&collapsed));
        assert_eq!(s, 0.0);
    }

    #[test]
    fn congruence_of_identical_matrices_is_one() {
        let ts: Vec<Tensor> = [[0.0f32, 0.0], [1.0, 0.5], [2.0, 2.0]]
            .iter()
            .map(|p| Tensor::from_slice(p))
            .collect();
        let refs: Vec<&Tensor> = ts.iter().collect();
        let d = distance_matrix(&refs);
        assert!((congruence_coefficient(&d, &d) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn leakage_decreases_with_information_destruction() {
        // Raw points live on a 2-D manifold (coordinates (u, v) repeated
        // across 8 dims). Three "feature map" levels mimic increasing
        // pooling: identity, a 1-D projection (keep u only), and a
        // constant. Leakage must fall monotonically.
        let mut rng = StdRng::seed_from_u64(8);
        let n = 30;
        let uv: Vec<(f32, f32)> = (0..n)
            .map(|_| (rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)))
            .collect();
        let raw: Vec<Tensor> = uv
            .iter()
            .map(|&(u, v)| Tensor::from_slice(&[u, v, u, v, u, v, u, v]))
            .collect();
        let copy: Vec<Tensor> = raw.clone();
        let projected: Vec<Tensor> = uv.iter().map(|&(u, _)| Tensor::from_slice(&[u])).collect();
        let constant: Vec<Tensor> = (0..n).map(|_| Tensor::from_slice(&[0.5])).collect();

        let refs_raw: Vec<&Tensor> = raw.iter().collect();
        let l_copy = privacy_leakage(&refs_raw, &copy.iter().collect::<Vec<_>>());
        let l_projected = privacy_leakage(&refs_raw, &projected.iter().collect::<Vec<_>>());
        let l_constant = privacy_leakage(&refs_raw, &constant.iter().collect::<Vec<_>>());
        assert!(
            l_copy > l_projected && l_projected > l_constant,
            "leakage not monotone: copy {l_copy}, projected {l_projected}, constant {l_constant}"
        );
        assert!(
            l_copy > 0.9,
            "identity features must leak ≈ everything: {l_copy}"
        );
        assert_eq!(l_constant, 0.0, "a constant payload leaks nothing");
    }

    #[test]
    #[should_panic(expected = "sample counts differ")]
    fn leakage_checks_lengths() {
        let a = Tensor::zeros([2]);
        privacy_leakage(&[&a], &[]);
    }
}
