//! Shape utilities: dimension bookkeeping, row-major strides, NumPy-style
//! broadcasting, and the stride walker that every broadcast, reduction and
//! permutation in the workspace runs on.

use std::fmt;

/// A tensor shape (row-major). Thin wrapper over `Vec<usize>` so that shape
/// logic (strides, broadcasting, element counts) lives in one place.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape(pub Vec<usize>);

impl Shape {
    /// Shape of a scalar (rank 0, one element).
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of dims; 1 for a scalar).
    #[inline]
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Size along dimension `d`. Panics if out of range.
    #[inline]
    pub fn dim(&self, d: usize) -> usize {
        self.0[d]
    }

    /// Row-major strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![0; self.0.len()];
        let mut acc = 1;
        for (i, &d) in self.0.iter().enumerate().rev() {
            strides[i] = acc;
            acc *= d;
        }
        strides
    }

    /// The broadcast result shape of `self` and `other`, or `None` if they
    /// are incompatible.
    pub fn broadcast_with(&self, other: &Shape) -> Option<Shape> {
        let r = self.rank().max(other.rank());
        let mut out = vec![0; r];
        for i in 0..r {
            let a = dim_from_right(&self.0, i);
            let b = dim_from_right(&other.0, i);
            let d = if a == b {
                a
            } else if a == 1 {
                b
            } else if b == 1 {
                a
            } else {
                return None;
            };
            out[r - 1 - i] = d;
        }
        Some(Shape(out))
    }

    /// Flat (row-major) index for a multi-dimensional index. Debug-asserts
    /// bounds.
    pub fn flat_index(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.rank(), "index rank mismatch");
        let mut flat = 0;
        let mut acc = 1;
        for (i, &d) in self.0.iter().enumerate().rev() {
            debug_assert!(idx[i] < d, "index {} out of bounds for dim {i} of size {d}", idx[i]);
            flat += idx[i] * acc;
            acc *= d;
        }
        flat
    }

    /// The dims as a slice.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.0
    }
}

#[inline]
fn dim_from_right(dims: &[usize], i: usize) -> usize {
    if i < dims.len() {
        dims[dims.len() - 1 - i]
    } else {
        1
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(v: Vec<usize>) -> Self {
        Shape(v)
    }
}

impl From<&[usize]> for Shape {
    fn from(v: &[usize]) -> Self {
        Shape(v.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(v: [usize; N]) -> Self {
        Shape(v.to_vec())
    }
}

/// Strides that read a tensor of shape `src` as if it were broadcast to
/// `target` (axes aligned from the right): a size-1 axis of `src`, and every
/// leading axis `src` lacks, gets stride 0. `src` must broadcast to `target`.
pub(crate) fn broadcast_strides(src: &Shape, target: &Shape) -> Vec<usize> {
    let rank_diff = target.rank() - src.rank();
    let mut strides = vec![0; target.rank()];
    for (sd, (&d, s)) in src.dims().iter().zip(src.strides()).enumerate() {
        if d != 1 {
            strides[rank_diff + sd] = s;
        }
    }
    strides
}

/// Walk every multi-index `idx` of `dims` in row-major order, handing `f`
/// each run along the innermost axis as `(offset, len, stride)`: the run's
/// elements sit at `offset + k · stride` for `k < len`, where an element's
/// offset is `Σ idx[d] · strides[d]`. Nothing is allocated. A rank-0 shape is
/// one run of length 1; a shape with a zero-size axis has no elements.
pub(crate) fn walk(dims: &[usize], strides: &[usize], mut f: impl FnMut(usize, usize, usize)) {
    assert_eq!(dims.len(), strides.len(), "walk needs one stride per axis");
    walk_from(dims, strides, 0, &mut f);
}

fn walk_from(
    dims: &[usize],
    strides: &[usize],
    base: usize,
    f: &mut impl FnMut(usize, usize, usize),
) {
    match dims {
        [] => f(base, 1, 0),
        [n] => f(base, *n, strides[0]),
        [n, inner @ ..] => {
            (0..*n).for_each(|i| walk_from(inner, &strides[1..], base + i * strides[0], f))
        }
    }
}

/// The elements of `data` at the offsets of `walk(dims, strides)`, in walk
/// order: a broadcast when `strides` come from [`broadcast_strides`], a
/// permutation when they are `data`'s own strides reordered.
pub(crate) fn gather(data: &[f32], dims: &[usize], strides: &[usize]) -> Vec<f32> {
    let mut out = crate::spares::with_capacity(dims.iter().product());
    walk(dims, strides, |base, n, s| out.extend((0..n).map(|k| data[base + k * s])));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.rank(), 3);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.numel(), 1);
        assert!(s.strides().is_empty());
    }

    #[test]
    fn flat_index_matches_strides() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.flat_index(&[0, 0, 0]), 0);
        assert_eq!(s.flat_index(&[1, 2, 3]), 23);
        assert_eq!(s.flat_index(&[1, 0, 2]), 14);
    }

    #[test]
    fn broadcasting_rules() {
        let a = Shape::from([3, 1, 4]);
        let b = Shape::from([2, 4]);
        assert_eq!(a.broadcast_with(&b).unwrap().dims(), &[3, 2, 4]);
        let c = Shape::from([3, 5]);
        assert!(a.broadcast_with(&c).is_none());
        // scalar broadcasts with anything
        assert_eq!(Shape::scalar().broadcast_with(&a).unwrap().dims(), a.dims());
    }

    fn walked(dims: &[usize], strides: &[usize]) -> Vec<usize> {
        let mut offsets = Vec::new();
        walk(dims, strides, |base, n, s| offsets.extend((0..n).map(|k| base + k * s)));
        offsets
    }

    #[test]
    fn walk_visits_row_major_offsets() {
        let s = Shape::from([2, 3, 2]);
        assert_eq!(walked(s.dims(), &s.strides()), (0..12).collect::<Vec<_>>());
        // Transposed strides read a (2, 3) matrix column by column.
        assert_eq!(walked(&[3, 2], &[1, 3]), vec![0, 3, 1, 4, 2, 5]);
        assert_eq!(walked(&[], &[]), vec![0]);
        assert!(walked(&[2, 0, 3], &[0, 3, 1]).is_empty());
    }

    #[test]
    fn broadcast_strides_zero_on_broadcast_axes() {
        let (src, target) = (Shape::from([3, 1]), Shape::from([2, 3, 4]));
        assert_eq!(broadcast_strides(&src, &target), vec![0, 1, 0]);
        assert_eq!(walked(target.dims(), &broadcast_strides(&src, &target)).len(), 24);
        assert_eq!(broadcast_strides(&Shape::scalar(), &target), vec![0, 0, 0]);
        assert_eq!(broadcast_strides(&target, &target), target.strides());
    }
}
