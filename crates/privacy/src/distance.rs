//! Pairwise Euclidean distance matrices.

use sl_tensor::Tensor;

/// A symmetric `n × n` matrix of pairwise distances with zero diagonal.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    /// Row-major `n × n` distances.
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for the degenerate zero-point matrix.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Distance between points `i` and `j`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.n && j < self.n,
            "DistanceMatrix: index out of bounds"
        );
        self.data[i * self.n + j]
    }

    /// The raw row-major buffer.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mean of the off-diagonal distances (0 for n < 2).
    pub fn mean_off_diagonal(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let sum: f64 = (0..self.n)
            .flat_map(|i| (0..self.n).filter(move |&j| j != i).map(move |j| (i, j)))
            .map(|(i, j)| self.get(i, j))
            .sum();
        sum / (self.n * (self.n - 1)) as f64
    }
}

/// Pairwise Euclidean distances between the flattened tensors in
/// `points`.
///
/// # Panics
/// Panics when the tensors have differing element counts.
pub fn distance_matrix(points: &[&Tensor]) -> DistanceMatrix {
    let n = points.len();
    if n == 0 {
        return DistanceMatrix {
            n: 0,
            data: Vec::new(),
        };
    }
    let dim = points[0].numel();
    for (idx, p) in points.iter().enumerate() {
        assert_eq!(
            p.numel(),
            dim,
            "distance_matrix: point {idx} has {} elements, expected {dim}",
            p.numel()
        );
    }
    let mut data = vec![0.0f64; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d: f64 = points[i]
                .data()
                .iter()
                .zip(points[j].data())
                .map(|(&a, &b)| {
                    let diff = (a - b) as f64;
                    diff * diff
                })
                .sum::<f64>()
                .sqrt();
            data[i * n + j] = d;
            data[j * n + i] = d;
        }
    }
    DistanceMatrix { n, data }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_345() {
        let a = Tensor::from_slice(&[0.0, 0.0]);
        let b = Tensor::from_slice(&[3.0, 0.0]);
        let c = Tensor::from_slice(&[0.0, 4.0]);
        let d = distance_matrix(&[&a, &b, &c]);
        assert_eq!(d.len(), 3);
        assert!((d.get(0, 1) - 3.0).abs() < 1e-9);
        assert!((d.get(0, 2) - 4.0).abs() < 1e-9);
        assert!((d.get(1, 2) - 5.0).abs() < 1e-9);
        // Symmetry, zero diagonal.
        assert_eq!(d.get(1, 0), d.get(0, 1));
        assert_eq!(d.get(2, 2), 0.0);
    }

    #[test]
    fn identical_points_zero_distance() {
        let a = Tensor::ones([4]);
        let d = distance_matrix(&[&a, &a]);
        assert_eq!(d.get(0, 1), 0.0);
    }

    #[test]
    fn works_on_images() {
        let a = Tensor::zeros([4, 4]);
        let b = Tensor::ones([4, 4]);
        let d = distance_matrix(&[&a, &b]);
        assert!((d.get(0, 1) - 4.0).abs() < 1e-9); // sqrt(16)
    }

    #[test]
    fn mean_off_diagonal() {
        let a = Tensor::from_slice(&[0.0]);
        let b = Tensor::from_slice(&[2.0]);
        let d = distance_matrix(&[&a, &b]);
        assert!((d.mean_off_diagonal() - 2.0).abs() < 1e-12);
        assert_eq!(distance_matrix(&[&a]).mean_off_diagonal(), 0.0);
    }

    #[test]
    #[should_panic(expected = "elements")]
    fn mismatched_dims_panic() {
        let a = Tensor::zeros([2]);
        let b = Tensor::zeros([3]);
        distance_matrix(&[&a, &b]);
    }
}
