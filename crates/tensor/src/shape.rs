//! Shape utilities shared by the tensor type and the lowering kernels.

/// Returns the number of elements implied by `shape`.
///
/// The empty shape `[]` denotes a scalar and has one element.
///
/// ```
/// assert_eq!(axnn_tensor::numel(&[2, 3, 4]), 24);
/// assert_eq!(axnn_tensor::numel(&[]), 1);
/// ```
pub fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// Like [`numel`], but `None` when the element count does not fit in a
/// `usize` (a shape with a zero dimension counts zero elements).
pub(crate) fn checked_numel(shape: &[usize]) -> Option<usize> {
    if shape.contains(&0) {
        return Some(0);
    }
    shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d))
}

/// Computes row-major strides for `shape`.
///
/// The last dimension is contiguous (stride 1).
///
/// ```
/// assert_eq!(axnn_tensor::strides_for(&[2, 3, 4]), vec![12, 4, 1]);
/// ```
pub fn strides_for(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    strides
}

/// Converts a multi-dimensional index to a flat offset given `strides`.
///
/// # Panics
///
/// Panics (in debug builds) if `index` and `strides` have different lengths.
pub(crate) fn flat_index(index: &[usize], strides: &[usize]) -> usize {
    debug_assert_eq!(index.len(), strides.len());
    index.iter().zip(strides).map(|(i, s)| i * s).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_of_scalar_is_one() {
        assert_eq!(numel(&[]), 1);
    }

    #[test]
    fn numel_with_zero_dim_is_zero() {
        assert_eq!(numel(&[3, 0, 2]), 0);
    }

    #[test]
    fn checked_numel_refuses_only_real_overflow() {
        assert_eq!(checked_numel(&[2, 3, 4]), Some(24));
        assert_eq!(checked_numel(&[]), Some(1));
        assert_eq!(checked_numel(&[usize::MAX, 2]), None);
        assert_eq!(checked_numel(&[usize::MAX, 2, 0]), Some(0));
    }

    #[test]
    fn strides_of_1d() {
        assert_eq!(strides_for(&[7]), vec![1]);
    }

    #[test]
    fn strides_of_scalar_is_empty() {
        assert_eq!(strides_for(&[]), Vec::<usize>::new());
    }

    #[test]
    fn flat_index_row_major() {
        let strides = strides_for(&[2, 3, 4]);
        assert_eq!(flat_index(&[0, 0, 0], &strides), 0);
        assert_eq!(flat_index(&[1, 2, 3], &strides), 23);
        assert_eq!(flat_index(&[1, 0, 1], &strides), 13);
    }
}
