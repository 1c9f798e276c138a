//! Shape bookkeeping helpers shared by [`crate::Tensor`] and the autograd ops.

/// Number of elements implied by a shape. The empty shape denotes a scalar
/// and has one element.
pub fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// Row-major strides for a shape.
pub fn strides(shape: &[usize]) -> Vec<usize> {
    let mut s = vec![1usize; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        s[i] = s[i + 1] * shape[i + 1];
    }
    s
}

/// Flat row-major offset of a multi-dimensional index.
///
/// # Panics
/// Panics (in debug builds) if the index rank does not match the shape rank
/// or any coordinate is out of range.
pub fn offset(shape: &[usize], index: &[usize]) -> usize {
    debug_assert_eq!(shape.len(), index.len(), "index rank mismatch");
    let mut off = 0usize;
    let mut stride = 1usize;
    for d in (0..shape.len()).rev() {
        debug_assert!(index[d] < shape[d], "index out of bounds");
        off += index[d] * stride;
        stride *= shape[d];
    }
    off
}

/// Split a shape into `(rows, cols)` treating every leading dimension as a
/// row dimension and the last dimension as the column dimension.
///
/// This is the canonical "matrix view" used by ops that operate along the
/// last axis (softmax, bias addition, ...).
pub fn as_rows_cols(shape: &[usize]) -> (usize, usize) {
    match shape.len() {
        0 => (1, 1),
        1 => (1, shape[0]),
        _ => (numel(&shape[..shape.len() - 1]), shape[shape.len() - 1]),
    }
}

/// Human readable shape, e.g. `[32, 5, 64]`.
pub fn fmt_shape(shape: &[usize]) -> String {
    let inner: Vec<String> = shape.iter().map(|d| d.to_string()).collect();
    format!("[{}]", inner.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_of_scalar_is_one() {
        assert_eq!(numel(&[]), 1);
    }

    #[test]
    fn numel_multiplies_dims() {
        assert_eq!(numel(&[2, 3, 4]), 24);
        assert_eq!(numel(&[7]), 7);
        assert_eq!(numel(&[0, 3]), 0);
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(strides(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides(&[5]), vec![1]);
        assert!(strides(&[]).is_empty());
    }

    #[test]
    fn offset_walks_row_major() {
        let shape = [2, 3, 4];
        assert_eq!(offset(&shape, &[0, 0, 0]), 0);
        assert_eq!(offset(&shape, &[0, 0, 3]), 3);
        assert_eq!(offset(&shape, &[0, 2, 1]), 9);
        assert_eq!(offset(&shape, &[1, 2, 3]), 23);
    }

    #[test]
    fn rows_cols_views() {
        assert_eq!(as_rows_cols(&[4, 5]), (4, 5));
        assert_eq!(as_rows_cols(&[2, 3, 4]), (6, 4));
        assert_eq!(as_rows_cols(&[7]), (1, 7));
        assert_eq!(as_rows_cols(&[]), (1, 1));
    }

    #[test]
    fn shape_formatting() {
        assert_eq!(fmt_shape(&[2, 3]), "[2, 3]");
        assert_eq!(fmt_shape(&[]), "[]");
    }
}
