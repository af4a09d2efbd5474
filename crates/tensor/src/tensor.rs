//! The dense `f32` tensor type.

use crate::shape::{checked_numel, flat_index, numel, strides_for};
use crate::ShapeError;
use std::fmt;

/// A dense, row-major tensor of `f32` values.
///
/// This is the single numeric container used across the ApproxNN workspace:
/// network activations, weights, gradients, and lowered convolution buffers
/// are all `Tensor`s. Layout is always contiguous row-major; views are not
/// supported (all reshapes are `O(1)` metadata changes, all slices copy).
///
/// # Example
///
/// ```
/// use axnn_tensor::Tensor;
///
/// # fn main() -> Result<(), axnn_tensor::ShapeError> {
/// let t = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0], &[2, 3])?;
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.at(&[1, 2]), 5.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    ///
    /// ```
    /// let t = axnn_tensor::Tensor::zeros(&[2, 2]);
    /// assert_eq!(t.sum(), 0.0);
    /// ```
    pub fn zeros(shape: &[usize]) -> Self {
        Self {
            data: vec![0.0; numel(shape)],
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self {
            data: vec![value; numel(shape)],
            shape: shape.to_vec(),
        }
    }

    /// Creates a square identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from an existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len()` does not equal the element
    /// count implied by `shape`, or if that count overflows a `usize`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, ShapeError> {
        let elements = element_count(shape)?;
        if data.len() != elements {
            return Err(ShapeError::new(format!(
                "buffer of length {} cannot form shape {:?} ({} elements)",
                data.len(),
                shape,
                elements
            )));
        }
        Ok(Self {
            data,
            shape: shape.to_vec(),
        })
    }

    /// Creates a 0-dimensional (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Self {
            data: vec![value],
            shape: vec![],
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements (some dimension is zero).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Consumes the tensor, returning its row-major data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        assert_eq!(
            index.len(),
            self.shape.len(),
            "index rank {} does not match tensor rank {}",
            index.len(),
            self.shape.len()
        );
        let strides = strides_for(&self.shape);
        self.data[flat_index(index, &strides)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        assert_eq!(index.len(), self.shape.len());
        let strides = strides_for(&self.shape);
        let flat = flat_index(index, &strides);
        self.data[flat] = value;
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the new shape has a different element
    /// count, or one that overflows a `usize`.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self, ShapeError> {
        let elements = element_count(shape)?;
        if elements != self.data.len() {
            return Err(ShapeError::new(format!(
                "cannot reshape {:?} ({} elements) to {:?} ({} elements)",
                self.shape,
                self.data.len(),
                shape,
                elements
            )));
        }
        Ok(Self {
            data: self.data.clone(),
            shape: shape.to_vec(),
        })
    }

    /// Transposes a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose2(&self) -> Self {
        assert_eq!(self.shape.len(), 2, "transpose2 requires a 2-D tensor");
        let (rows, cols) = (self.shape[0], self.shape[1]);
        let mut out = Self::zeros(&[cols, rows]);
        for r in 0..rows {
            for c in 0..cols {
                out.data[c * rows + r] = self.data[r * cols + c];
            }
        }
        out
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shape tensors elementwise with `f`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(
            self.shape, other.shape,
            "zip_map shape mismatch: {:?} vs {:?}",
            self.shape, other.shape
        );
        Self {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0.0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (−∞ for empty tensors).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (+∞ for empty tensors).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Maximum absolute value (0.0 for empty tensors).
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Index of the maximum element of a 1-D tensor (first on ties).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        for (i, &x) in self.data.iter().enumerate() {
            if x > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Copies row `r` of a 2-D tensor into a new 1-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `r` is out of range.
    pub fn row(&self, r: usize) -> Self {
        assert_eq!(self.shape.len(), 2, "row requires a 2-D tensor");
        let cols = self.shape[1];
        let start = r * cols;
        Self {
            data: self.data[start..start + cols].to_vec(),
            shape: vec![cols],
        }
    }

    /// Copies the contiguous sub-tensor spanning outer-dimension indices
    /// `[start, end)` — e.g. a mini-batch slice of an `[N, …]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is 0-D or the range is out of bounds.
    pub fn slice_outer(&self, start: usize, end: usize) -> Self {
        assert!(!self.shape.is_empty(), "slice_outer requires rank >= 1");
        assert!(start <= end && end <= self.shape[0]);
        let inner: usize = self.shape[1..].iter().product();
        let mut shape = self.shape.clone();
        shape[0] = end - start;
        Self {
            data: self.data[start * inner..end * inner].to_vec(),
            shape,
        }
    }

    /// Copies channels `[start, end)` of an `[N, C, H, W]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 4-D or the range is out of bounds.
    pub fn slice_channels(&self, start: usize, end: usize) -> Self {
        assert_eq!(self.shape.len(), 4, "slice_channels requires NCHW");
        let (n, c, h, w) = (self.shape[0], self.shape[1], self.shape[2], self.shape[3]);
        assert!(start <= end && end <= c, "channel range out of bounds");
        let hw = h * w;
        let mut data = Vec::with_capacity(n * (end - start) * hw);
        for ni in 0..n {
            data.extend_from_slice(&self.data[(ni * c + start) * hw..(ni * c + end) * hw]);
        }
        Self::from_vec(data, &[n, end - start, h, w]).expect("one value per element")
    }

    /// Concatenates `[N, Cᵢ, H, W]` tensors along the channel dimension.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `parts` is empty or batch/spatial dims differ.
    pub fn concat_channels(parts: &[Self]) -> Result<Self, ShapeError> {
        let first = parts
            .first()
            .ok_or_else(|| ShapeError::new("cannot concat zero tensors"))?;
        if first.shape.len() != 4 {
            return Err(ShapeError::new("concat_channels requires NCHW tensors"));
        }
        let (n, h, w) = (first.shape[0], first.shape[2], first.shape[3]);
        let mut total_c = 0;
        for p in parts {
            if p.shape.len() != 4 || p.shape[0] != n || p.shape[2] != h || p.shape[3] != w {
                return Err(ShapeError::new(format!(
                    "concat_channels mismatch: {:?} vs {:?}",
                    first.shape, p.shape
                )));
            }
            total_c += p.shape[1];
        }
        let hw = h * w;
        let mut out = Self::zeros(&[n, total_c, h, w]);
        for ni in 0..n {
            let mut ch_off = 0;
            for p in parts {
                let pc = p.shape[1];
                let src_base = ni * pc * hw;
                let dst_base = (ni * total_c + ch_off) * hw;
                out.data[dst_base..dst_base + pc * hw]
                    .copy_from_slice(&p.data[src_base..src_base + pc * hw]);
                ch_off += pc;
            }
        }
        Ok(out)
    }

    /// Stacks same-shape tensors along a new leading dimension.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `parts` is empty or shapes differ.
    pub fn stack(parts: &[Self]) -> Result<Self, ShapeError> {
        let first = parts
            .first()
            .ok_or_else(|| ShapeError::new("cannot stack zero tensors"))?;
        let mut data = Vec::with_capacity(first.len() * parts.len());
        for p in parts {
            if p.shape != first.shape {
                return Err(ShapeError::new(format!(
                    "stack shape mismatch: {:?} vs {:?}",
                    first.shape, p.shape
                )));
            }
            data.extend_from_slice(&p.data);
        }
        let mut shape = vec![parts.len()];
        shape.extend_from_slice(&first.shape);
        Ok(Self { data, shape })
    }
}

/// The element count of `shape`, or an error naming a shape whose count
/// overflows a `usize` (where `numel` would wrap).
fn element_count(shape: &[usize]) -> Result<usize, ShapeError> {
    checked_numel(shape).ok_or_else(|| {
        ShapeError::new(format!(
            "shape {shape:?} has more elements than a usize can count"
        ))
    })
}

impl Default for Tensor {
    /// An empty 1-D tensor.
    fn default() -> Self {
        Self {
            data: Vec::new(),
            shape: vec![0],
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.data.len() <= 8 {
            write!(f, "Tensor{:?} {:?}", self.shape, self.data)
        } else {
            write!(
                f,
                "Tensor{:?} [{:?}, {:?}, ... ({} elems)]",
                self.shape,
                self.data[0],
                self.data[1],
                self.data.len()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn shapes_whose_element_count_overflows_are_rejected() {
        // Regression: the product wrapped to 0 (release) and an empty
        // buffer formed a 2^63 x 2 tensor; debug builds panicked.
        let huge = [1usize << 63, 2];
        let err = Tensor::from_vec(Vec::new(), &huge).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("shape error: shape {huge:?} has more elements than a usize can count")
        );
        let err = Tensor::from_vec(vec![1.0; 2], &[usize::MAX, 3, 5]).unwrap_err();
        assert!(
            err.to_string().contains("more elements than a usize"),
            "{err}"
        );
        assert!(Tensor::zeros(&[0]).reshape(&huge).is_err());
        // A zero dimension still makes an empty tensor, however large the rest.
        assert!(Tensor::from_vec(Vec::new(), &[usize::MAX, 0, 2]).is_ok());
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        assert_eq!(i.at(&[0, 0]), 1.0);
        assert_eq!(i.at(&[0, 1]), 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert_eq!(r.shape(), &[3, 2]);
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn transpose2_round_trips() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let tt = t.transpose2().transpose2();
        assert_eq!(tt, t);
        assert_eq!(t.transpose2().at(&[2, 1]), t.at(&[1, 2]));
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![-2.0, 0.5, 3.0, -1.0], &[4]).unwrap();
        assert_eq!(t.sum(), 0.5);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
        assert_eq!(t.abs_max(), 3.0);
        assert_eq!(t.argmax(), 2);
        assert!((t.mean() - 0.125).abs() < 1e-7);
    }

    #[test]
    fn slice_outer_takes_batch() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 2, 2]).unwrap();
        let s = t.slice_outer(1, 3);
        assert_eq!(s.shape(), &[2, 2, 2]);
        assert_eq!(s.as_slice()[0], 4.0);
        assert_eq!(s.as_slice()[7], 11.0);
    }

    #[test]
    fn stack_builds_batch() {
        let a = Tensor::full(&[2], 1.0);
        let b = Tensor::full(&[2], 2.0);
        let s = Tensor::stack(&[a, b]).unwrap();
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.as_slice(), &[1.0, 1.0, 2.0, 2.0]);
        assert!(Tensor::stack(&[]).is_err());
    }

    #[test]
    fn stack_rejects_mismatched_shapes() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        assert!(Tensor::stack(&[a, b]).is_err());
    }

    #[test]
    fn row_copies() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        assert_eq!(t.row(1).as_slice(), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        assert_eq!(a.map(f32::abs).as_slice(), &[1.0, 2.0]);
        assert_eq!(a.zip_map(&b, |x, y| x * y).as_slice(), &[3.0, -8.0]);
    }

    #[test]
    fn slice_and_concat_channels_round_trip() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 2, 2]).unwrap();
        let a = t.slice_channels(0, 1);
        let b = t.slice_channels(1, 3);
        assert_eq!(a.shape(), &[2, 1, 2, 2]);
        assert_eq!(b.shape(), &[2, 2, 2, 2]);
        let back = Tensor::concat_channels(&[a, b]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn concat_channels_rejects_mismatch() {
        let a = Tensor::zeros(&[1, 2, 2, 2]);
        let b = Tensor::zeros(&[1, 2, 3, 2]);
        assert!(Tensor::concat_channels(&[a, b]).is_err());
        assert!(Tensor::concat_channels(&[]).is_err());
    }

    #[test]
    fn tensor_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tensor>();
    }
}
