//! The dense `f32` tensor type backing every model in the workspace.
//!
//! Data is stored contiguously in row-major order. All autodiff machinery
//! operates on plain `Tensor` values (see [`crate::tape`]); `Tensor` itself is
//! a value type with no graph bookkeeping. Large buffers are taken from
//! [`crate::spares`] when one of the right size is held.

use crate::shape::{broadcast_strides, gather, walk, Shape};
use crate::spares;
use std::fmt;

/// A dense, row-major `f32` tensor.
#[derive(PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor { shape: self.shape.clone(), data: spares::copied(&self.data) }
    }
}

impl Tensor {
    /// Build a tensor from a shape and backing data. Panics if the element
    /// count does not match the shape.
    pub fn new(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            data.len(),
            "shape {shape} implies {} elements but {} were provided",
            shape.numel(),
            data.len()
        );
        Tensor { shape, data }
    }

    /// All-zeros tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor { data: spares::filled(shape.numel(), 0.0), shape }
    }

    /// All-ones tensor.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Tensor filled with a constant.
    pub fn full(shape: impl Into<Shape>, v: f32) -> Self {
        let shape = shape.into();
        Tensor { data: spares::filled(shape.numel(), v), shape }
    }

    /// Rank-0 scalar.
    pub fn scalar(v: f32) -> Self {
        Tensor { shape: Shape::scalar(), data: vec![v] }
    }

    /// 1-D tensor from a slice.
    pub fn from_vec(data: Vec<f32>) -> Self {
        let n = data.len();
        Tensor { shape: Shape(vec![n]), data }
    }

    /// 2-D tensor from nested rows. Panics on ragged input.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in Tensor::from_rows");
            data.extend_from_slice(row);
        }
        Tensor { shape: Shape(vec![r, c]), data }
    }

    /// Append one row to a rank-2 tensor in place (amortised O(row) — the
    /// streaming day-advance path grows price/return histories this way).
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(self.shape.rank(), 2, "push_row needs a rank-2 tensor");
        assert_eq!(row.len(), self.shape.0[1], "row length must match the column count");
        self.data.extend_from_slice(row);
        self.shape.0[0] += 1;
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros([n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// `n` evenly spaced values in `[start, end)` with unit step semantics of
    /// `numpy.arange` when `step = (end-start)/n`.
    pub fn linspace(start: f32, end: f32, n: usize) -> Self {
        if n == 0 {
            return Tensor::from_vec(vec![]);
        }
        if n == 1 {
            return Tensor::from_vec(vec![start]);
        }
        let step = (end - start) / (n as f32 - 1.0);
        Tensor::from_vec((0..n).map(|i| start + step * i as f32).collect())
    }

    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume and return the backing buffer.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Value at a multi-index.
    #[inline]
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.flat_index(idx)]
    }

    /// Mutable value at a multi-index.
    #[inline]
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let i = self.shape.flat_index(idx);
        &mut self.data[i]
    }

    /// The single value of a rank-0/1-element tensor. Panics otherwise.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() on tensor with {} elements", self.numel());
        self.data[0]
    }

    /// Reinterpret with a new shape of identical element count.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            self.numel(),
            "reshape {:?} -> {shape} changes element count",
            self.shape
        );
        Tensor { shape, data: spares::copied(&self.data) }
    }

    /// Map every element through `f`.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut data = spares::with_capacity(self.numel());
        data.extend(self.data.iter().map(|&x| f(x)));
        Tensor { shape: self.shape.clone(), data }
    }

    /// Zip two same-shaped tensors elementwise.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip requires identical shapes");
        let mut data = spares::with_capacity(self.numel());
        data.extend(self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)));
        Tensor { shape: self.shape.clone(), data }
    }

    /// Elementwise in-place accumulate: `self += other`. Shapes must match.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign requires identical shapes");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Elementwise in-place scale.
    pub fn scale_assign(&mut self, k: f32) {
        for a in self.data.iter_mut() {
            *a *= k;
        }
    }

    /// Fill with a constant.
    pub fn fill(&mut self, v: f32) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element; `f32::NEG_INFINITY` for empty tensors.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element; `f32::INFINITY` for empty tensors.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Euclidean (Frobenius) norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Broadcast this tensor to a larger shape (NumPy rules). Panics if
    /// incompatible. Returns a materialised contiguous tensor.
    pub fn broadcast_to(&self, target: &Shape) -> Tensor {
        if &self.shape == target {
            return self.clone();
        }
        assert!(
            self.shape.broadcast_with(target).is_some_and(|s| &s == target),
            "cannot broadcast {:?} to {:?}",
            self.shape,
            target
        );
        let data = gather(&self.data, target.dims(), &broadcast_strides(&self.shape, target));
        Tensor { shape: target.clone(), data }
    }

    /// Reduce a broadcast gradient back to the original shape by summing over
    /// broadcast dimensions. Inverse of [`Tensor::broadcast_to`] for autodiff.
    /// Each output sums its sources in row-major order of `self`. Panics
    /// unless `target` broadcasts to this tensor's shape.
    pub fn reduce_to(&self, target: &Shape) -> Tensor {
        if &self.shape == target {
            return self.clone();
        }
        assert!(
            target.broadcast_with(&self.shape).is_some_and(|s| s == self.shape),
            "cannot reduce {:?} to {:?}",
            self.shape,
            target
        );
        let mut out = Tensor::zeros(target.clone());
        let mut flat = 0;
        walk(self.shape.dims(), &broadcast_strides(target, &self.shape), |base, n, s| {
            for (k, &g) in self.data[flat..flat + n].iter().enumerate() {
                out.data[base + k * s] += g;
            }
            flat += n;
        });
        out
    }

    /// 2-D transpose. Panics unless rank == 2.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose requires a matrix, got {:?}", self.shape);
        let (r, c) = (self.dims()[0], self.dims()[1]);
        let mut out = Tensor::zeros([c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        out
    }

    /// Extract row `i` of a matrix as a 1-D tensor.
    pub fn row(&self, i: usize) -> Tensor {
        assert_eq!(self.rank(), 2, "row() requires a matrix");
        let c = self.dims()[1];
        Tensor::from_vec(self.data[i * c..(i + 1) * c].to_vec())
    }

    /// Slice along the first axis: rows `[start, end)` (works for any rank).
    pub fn slice_axis0(&self, start: usize, end: usize) -> Tensor {
        assert!(self.rank() >= 1, "slice_axis0 requires rank >= 1");
        let d0 = self.dims()[0];
        assert!(start <= end && end <= d0, "slice [{start}, {end}) out of bounds for axis of size {d0}");
        let inner: usize = self.dims()[1..].iter().product();
        let mut dims = self.dims().to_vec();
        dims[0] = end - start;
        Tensor::new(dims, self.data[start * inner..end * inner].to_vec())
    }

    /// Approximate equality with absolute tolerance, for tests.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol || (a.is_nan() && b.is_nan()))
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?} ", self.shape)?;
        if self.numel() <= 16 {
            write!(f, "{:?}", self.data)
        } else {
            write!(f, "[{:?}, ... ({} elements)]", &self.data[..8], self.numel())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::new([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.row(1).data(), &[4., 5., 6.]);
        assert_eq!(t.sum(), 21.0);
        assert!((t.mean() - 3.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "elements")]
    fn shape_mismatch_panics() {
        let _ = Tensor::new([2, 2], vec![1., 2., 3.]);
    }

    #[test]
    fn transpose_roundtrip() {
        let t = Tensor::new([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let tt = t.transpose();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.at(&[2, 1]), 6.0);
        assert_eq!(tt.transpose(), t);
    }

    #[test]
    fn broadcast_to_and_reduce_to_are_adjoint_on_shapes() {
        let t = Tensor::new([1, 3], vec![1., 2., 3.]);
        let b = t.broadcast_to(&Shape::from([2, 3]));
        assert_eq!(b.data(), &[1., 2., 3., 1., 2., 3.]);
        let r = b.reduce_to(&Shape::from([1, 3]));
        assert_eq!(r.data(), &[2., 4., 6.]);
    }

    #[test]
    fn broadcast_scalar() {
        let s = Tensor::scalar(5.0);
        let b = s.broadcast_to(&Shape::from([2, 2]));
        assert_eq!(b.data(), &[5., 5., 5., 5.]);
        let r = Tensor::ones([2, 2]).reduce_to(&Shape::scalar());
        assert_eq!(r.item(), 4.0);
    }

    #[test]
    fn slice_axis0_3d() {
        let t = Tensor::new([3, 2, 2], (0..12).map(|x| x as f32).collect());
        let s = t.slice_axis0(1, 3);
        assert_eq!(s.dims(), &[2, 2, 2]);
        assert_eq!(s.data()[0], 4.0);
    }

    #[test]
    fn eye_and_linspace() {
        let i = Tensor::eye(3);
        assert_eq!(i.at(&[1, 1]), 1.0);
        assert_eq!(i.at(&[0, 1]), 0.0);
        let l = Tensor::linspace(0.0, 1.0, 5);
        assert!(l.allclose(&Tensor::from_vec(vec![0., 0.25, 0.5, 0.75, 1.0]), 1e-6));
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros([2]);
        assert!(!t.has_non_finite());
        t.data_mut()[0] = f32::NAN;
        assert!(t.has_non_finite());
    }
}
