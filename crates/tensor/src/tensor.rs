//! The [`Tensor`] type: a row-major `f32` buffer with an explicit shape.

use std::fmt;

use crate::shape::{broadcastable, Shape};

/// Errors returned by fallible, data-driven tensor constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The provided buffer length does not match the requested shape.
    LengthMismatch {
        /// Elements implied by the shape.
        expected: usize,
        /// Elements actually provided.
        actual: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::LengthMismatch { expected, actual } => write!(
                f,
                "buffer length {actual} does not match shape element count {expected}"
            ),
        }
    }
}

impl std::error::Error for TensorError {}

/// A dense, row-major `f32` tensor.
///
/// `Tensor` owns its buffer; all operations either consume/borrow tensors
/// and allocate fresh outputs, or mutate in place (`*_inplace`, `fill`,
/// [`Tensor::at_mut`]). Shape mismatches panic — see the crate docs.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// A tensor of `shape` filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let numel = shape.numel();
        Tensor {
            shape,
            data: vec![0.0; numel],
        }
    }

    /// A tensor of `shape` filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// A tensor of `shape` filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let numel = shape.numel();
        Tensor {
            shape,
            data: vec![value; numel],
        }
    }

    /// A rank-0 (scalar) tensor holding `value`.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::new(&[]),
            data: vec![value],
        }
    }

    /// Builds a tensor from an existing buffer.
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` differs
    /// from the element count implied by `shape`.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self, TensorError> {
        let shape = shape.into();
        if shape.numel() != data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Builds a tensor from a buffer whose length is correct by
    /// construction (kernel outputs and batch assemblers that size the
    /// buffer as `shape.numel()` up front).
    /// Checked in debug builds only; fallible callers use [`Tensor::from_vec`].
    pub fn from_parts(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        debug_assert_eq!(
            shape.numel(),
            data.len(),
            "from_parts: buffer length {} does not match shape {shape}",
            data.len()
        );
        Tensor { shape, data }
    }

    /// Builds a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            shape: Shape::new(&[data.len()]),
            data: data.to_vec(),
        }
    }

    /// Builds a tensor by evaluating `f` at every multi-index, in row-major
    /// order. `f` receives the flat index.
    pub fn from_fn(shape: impl Into<Shape>, f: impl FnMut(usize) -> f32) -> Self {
        let shape = shape.into();
        let data = (0..shape.numel()).map(f).collect();
        Tensor { shape, data }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The axis extents (shorthand for `shape().dims()`).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// The raw row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the raw row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// The element at multi-index `idx`.
    ///
    /// # Panics
    /// Panics on rank mismatch or out-of-bounds coordinates.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.flat_index(idx)]
    }

    /// Mutable reference to the element at multi-index `idx`.
    ///
    /// # Panics
    /// Panics on rank mismatch or out-of-bounds coordinates.
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let flat = self.shape.flat_index(idx);
        &mut self.data[flat]
    }

    /// The single value of a scalar or one-element tensor.
    ///
    /// # Panics
    /// Panics if the tensor holds more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.numel(),
            1,
            "item: tensor {} has {} elements, expected 1",
            self.shape,
            self.numel()
        );
        self.data[0]
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns a tensor with the same buffer and a new shape.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            self.numel(),
            "reshape: cannot view {} ({} elems) as {} ({} elems)",
            self.shape,
            self.numel(),
            shape,
            shape.numel()
        );
        Tensor {
            shape,
            data: self.data.clone(),
        }
    }

    /// Copies row `row` of a rank-2 tensor into a rank-1 tensor.
    ///
    /// # Panics
    /// Panics unless the tensor is rank-2 and `row` is in bounds.
    pub fn row(&self, row: usize) -> Tensor {
        assert_eq!(
            self.shape.rank(),
            2,
            "row: tensor {} is not rank-2",
            self.shape
        );
        let (rows, cols) = (self.shape.dim(0), self.shape.dim(1));
        assert!(
            row < rows,
            "row: index {row} out of bounds for {}",
            self.shape
        );
        Tensor::from_slice(&self.data[row * cols..(row + 1) * cols])
    }

    // ------------------------------------------------------------------
    // Elementwise operations
    // ------------------------------------------------------------------

    /// Elementwise sum. Supports trailing-axis broadcast of `other` onto
    /// `self` (e.g. `[N, C] + [C]`).
    ///
    /// # Panics
    /// Panics when the shapes are not broadcast-compatible.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_broadcast("add", other, |a, b| a + b)
    }

    /// Elementwise difference (`self - other`, trailing-axis broadcast).
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_broadcast("sub", other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product, trailing-axis broadcast.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_broadcast("mul", other, |a, b| a * b)
    }

    /// Adds `other` into `self` in place (shapes must match exactly).
    pub fn add_inplace(&mut self, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "add_inplace: shape mismatch {} vs {}",
            self.shape, other.shape
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_inplace(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Returns `self * s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|a| a * s)
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&a| f(a)).collect(),
        }
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Elementwise combine with exact shape match.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "zip: shape mismatch {} vs {}",
            self.shape, other.shape
        );
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    fn zip_broadcast(&self, op: &str, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert!(
            broadcastable(&self.shape, &other.shape),
            "{op}: shape {} is not broadcast-compatible with {}",
            other.shape,
            self.shape
        );
        if self.shape == other.shape {
            return self.zip(other, f);
        }
        let chunk = other.numel();
        let data = self
            .data
            .chunks(chunk)
            .flat_map(|c| c.iter().zip(&other.data).map(|(&a, &b)| f(a, b)))
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Population variance of all elements.
    pub fn variance(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let mean = self.mean();
        self.data
            .iter()
            .map(|&a| (a - mean) * (a - mean))
            .sum::<f32>()
            / self.data.len() as f32
    }

    /// Maximum element (`-inf` for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (`+inf` for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Sum of squares of all elements.
    pub fn sum_sq(&self) -> f32 {
        self.data.iter().map(|&a| a * a).sum()
    }

    /// Euclidean (Frobenius) norm.
    pub fn norm(&self) -> f32 {
        self.sum_sq().sqrt()
    }

    /// Column sums of a rank-2 tensor: `[N, C] -> [C]`.
    ///
    /// # Panics
    /// Panics unless the tensor is rank-2.
    pub fn sum_axis0(&self) -> Tensor {
        assert_eq!(
            self.shape.rank(),
            2,
            "sum_axis0: tensor {} is not rank-2",
            self.shape
        );
        let (rows, cols) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0; cols];
        for r in 0..rows {
            for (c, o) in out.iter_mut().enumerate() {
                *o += self.data[r * cols + c];
            }
        }
        Tensor {
            shape: Shape::new(&[cols]),
            data: out,
        }
    }

    /// `true` when every element is finite (no NaN / infinities).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|a| a.is_finite())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 8;
        write!(f, "Tensor({} ", self.shape)?;
        let preview: Vec<String> = self
            .data
            .iter()
            .take(PREVIEW)
            .map(|v| format!("{v:.4}"))
            .collect();
        write!(f, "[{}", preview.join(", "))?;
        if self.data.len() > PREVIEW {
            write!(f, ", …")?;
        }
        write!(f, "])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros([2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones([2, 2]).sum(), 4.0);
        assert_eq!(Tensor::full([3], 2.5).sum(), 7.5);
        assert_eq!(Tensor::scalar(5.0).item(), 5.0);
        assert_eq!(
            Tensor::from_fn([4], |i| i as f32).data(),
            &[0.0, 1.0, 2.0, 3.0]
        );
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec([2, 2], vec![1.0; 4]).is_ok());
        assert_eq!(
            Tensor::from_vec([2, 2], vec![1.0; 3]).unwrap_err(),
            TensorError::LengthMismatch {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros([2, 3]);
        *t.at_mut(&[1, 2]) = 7.0;
        assert_eq!(t.at(&[1, 2]), 7.0);
        assert_eq!(t.data()[5], 7.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn broadcast_bias_add() {
        let x = Tensor::from_vec([2, 3], vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0]).unwrap();
        let bias = Tensor::from_slice(&[10.0, 20.0, 30.0]);
        let y = x.add(&bias);
        assert_eq!(y.data(), &[10.0, 20.0, 30.0, 11.0, 21.0, 31.0]);
    }

    #[test]
    #[should_panic(expected = "broadcast-compatible")]
    fn broadcast_rejects_leading_axis_match() {
        let x = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([2]);
        let _ = x.add(&b);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.min(), 1.0);
        assert_eq!(t.sum_sq(), 30.0);
        assert!((t.variance() - 1.25).abs() < 1e-6);
        assert!((t.norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn sum_axis0_columns() {
        let t = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0]).unwrap();
        assert_eq!(t.sum_axis0().data(), &[11.0, 22.0, 33.0]);
    }

    #[test]
    fn row_copies_one_row() {
        let t = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(t.row(1).data(), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let r = t.reshape([2, 2]);
        assert_eq!(r.at(&[1, 0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "reshape")]
    fn reshape_checks_numel() {
        Tensor::zeros([3]).reshape([2, 2]);
    }

    #[test]
    fn finiteness_check() {
        let mut t = Tensor::ones([2]);
        assert!(t.all_finite());
        t.data_mut()[0] = f32::NAN;
        assert!(!t.all_finite());
    }

    #[test]
    fn inplace_ops() {
        let mut a = Tensor::from_slice(&[1.0, 2.0]);
        a.add_inplace(&Tensor::from_slice(&[10.0, 10.0]));
        assert_eq!(a.data(), &[11.0, 12.0]);
        a.scale_inplace(0.5);
        assert_eq!(a.data(), &[5.5, 6.0]);
        a.fill(9.0);
        assert_eq!(a.data(), &[9.0, 9.0]);
    }
}
