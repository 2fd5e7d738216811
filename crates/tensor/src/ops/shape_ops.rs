//! Shape-manipulation ops: reshape, transpose, permute, stack/concat, row
//! gather/slice. All are differentiable (their backward is the inverse data
//! movement).

use crate::shape::{gather, Shape};
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// Apply a rank-3 permutation to a shape.
fn permuted_dims(dims: &[usize], perm: [usize; 3]) -> [usize; 3] {
    [dims[perm[0]], dims[perm[1]], dims[perm[2]]]
}

fn permute3_data(x: &Tensor, perm: [usize; 3]) -> Tensor {
    assert_eq!(x.rank(), 3, "permute3 requires rank-3, got {:?}", x.shape());
    {
        let mut seen = [false; 3];
        for &p in &perm {
            assert!(p < 3 && !seen[p], "invalid permutation {perm:?}");
            seen[p] = true;
        }
    }
    let d = x.dims();
    let data = permute3_slice(x.data(), [d[0], d[1], d[2]], perm);
    Tensor::new(permuted_dims(d, perm), data)
}

/// Row-major `(d0, d1, d2)` data with its axes permuted so that output axis
/// `i` is input axis `perm[i]`: a gather over the output shape with the
/// input's strides in output-axis order.
pub(crate) fn permute3_slice(xd: &[f32], d: [usize; 3], perm: [usize; 3]) -> Vec<f32> {
    let stride = [d[1] * d[2], d[2], 1];
    gather(xd, &perm.map(|p| d[p]), &perm.map(|p| stride[p]))
}

/// Inverse of a rank-3 permutation.
fn inverse_perm(perm: [usize; 3]) -> [usize; 3] {
    let mut inv = [0usize; 3];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    inv
}

impl Tape {
    /// View with a new shape (same element count). Gradient reshapes back.
    pub fn reshape(&mut self, x: Var, shape: impl Into<Shape>) -> Var {
        let shape = shape.into();
        let out = self.value(x).reshape(shape);
        self.push_op_named("reshape", out, vec![x], |ctx| {
            vec![ctx.grad.reshape(ctx.parents[0].shape().clone())]
        })
    }

    /// Matrix transpose (rank-2 only).
    pub fn transpose2(&mut self, x: Var) -> Var {
        let out = self.value(x).transpose();
        self.push_op_named("transpose2", out, vec![x], |ctx| vec![ctx.grad.transpose()])
    }

    /// Permute the axes of a rank-3 tensor, e.g. `(T,N,F) → (N,F,T)` with
    /// `perm = [1, 2, 0]` (output axis `i` takes input axis `perm[i]`).
    pub fn permute3(&mut self, x: Var, perm: [usize; 3]) -> Var {
        let out = permute3_data(self.value(x), perm);
        let inv = inverse_perm(perm);
        self.push_op_named("permute3", out, vec![x], move |ctx| vec![permute3_data(ctx.grad, inv)])
    }

    /// Concatenate along axis 0. All inputs must agree on trailing dims.
    pub fn concat0(&mut self, xs: &[Var]) -> Var {
        assert!(!xs.is_empty(), "concat0 of zero tensors");
        let first = self.value(xs[0]);
        let tail: Vec<usize> = first.dims()[1..].to_vec();
        let inner: usize = tail.iter().product::<usize>().max(1);
        let mut total0 = 0;
        let mut lens = Vec::with_capacity(xs.len());
        for &x in xs {
            let v = self.value(x);
            assert_eq!(&v.dims()[1..], &tail[..], "concat0 trailing-dim mismatch");
            total0 += v.dims()[0];
            lens.push(v.dims()[0]);
        }
        let mut dims = vec![total0];
        dims.extend_from_slice(&tail);
        let mut data = Vec::with_capacity(total0 * inner);
        for &x in xs {
            data.extend_from_slice(self.value(x).data());
        }
        let out = Tensor::new(dims, data);
        self.push_op_named("concat0", out, xs.to_vec(), move |ctx| {
            let g = ctx.grad.data();
            let mut grads = Vec::with_capacity(lens.len());
            let mut offset = 0;
            for (p, &l) in ctx.parents.iter().zip(&lens) {
                let n = l * inner;
                grads.push(Tensor::new(p.shape().clone(), g[offset..offset + n].to_vec()));
                offset += n;
            }
            grads
        })
    }

    /// Concatenate two matrices along axis 1: `(P, X) + (P, Y) → (P, X+Y)`.
    /// Gradient splits the columns back. Used by the fused adjacency path to
    /// append per-plane self-loop weights to the relation-edge weights.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (self.value(a), self.value(b));
        assert_eq!(av.rank(), 2, "concat_cols expects matrices");
        assert_eq!(bv.rank(), 2, "concat_cols expects matrices");
        assert_eq!(av.dims()[0], bv.dims()[0], "concat_cols row-count mismatch");
        let (rows, x, y) = (av.dims()[0], av.dims()[1], bv.dims()[1]);
        let mut data = crate::spares::with_capacity(rows * (x + y));
        for r in 0..rows {
            data.extend_from_slice(&av.data()[r * x..(r + 1) * x]);
            data.extend_from_slice(&bv.data()[r * y..(r + 1) * y]);
        }
        let out = Tensor::new([rows, x + y], data);
        self.push_op_named("concat_cols", out, vec![a, b], move |ctx| {
            let g = ctx.grad.data();
            let mut ga = Vec::with_capacity(rows * x);
            let mut gb = Vec::with_capacity(rows * y);
            for r in 0..rows {
                let row = &g[r * (x + y)..(r + 1) * (x + y)];
                ga.extend_from_slice(&row[..x]);
                gb.extend_from_slice(&row[x..]);
            }
            vec![Tensor::new([rows, x], ga), Tensor::new([rows, y], gb)]
        })
    }

    /// Stack equal-shaped tensors along a new leading axis.
    pub fn stack0(&mut self, xs: &[Var]) -> Var {
        assert!(!xs.is_empty(), "stack0 of zero tensors");
        let shape = self.value(xs[0]).shape().clone();
        let inner = shape.numel();
        let mut dims = vec![xs.len()];
        dims.extend_from_slice(shape.dims());
        let mut data = Vec::with_capacity(xs.len() * inner);
        for &x in xs {
            let v = self.value(x);
            assert_eq!(v.shape(), &shape, "stack0 requires equal shapes");
            data.extend_from_slice(v.data());
        }
        let out = Tensor::new(dims, data);
        let n = xs.len();
        self.push_op_named("stack0", out, xs.to_vec(), move |ctx| {
            let g = ctx.grad.data();
            (0..n)
                .map(|i| {
                    Tensor::new(
                        ctx.parents[i].shape().clone(),
                        g[i * inner..(i + 1) * inner].to_vec(),
                    )
                })
                .collect()
        })
    }

    /// Slice rows `[start, end)` along axis 0; gradient zero-pads back.
    pub fn slice_rows(&mut self, x: Var, start: usize, end: usize) -> Var {
        let out = self.value(x).slice_axis0(start, end);
        self.push_op_named("slice_rows", out, vec![x], move |ctx| {
            let mut gx = Tensor::zeros(ctx.parents[0].shape().clone());
            let inner: usize = ctx.parents[0].dims()[1..].iter().product::<usize>().max(1);
            gx.data_mut()[start * inner..end * inner].copy_from_slice(ctx.grad.data());
            vec![gx]
        })
    }

    /// Gather rows of a matrix by index (duplicates allowed); gradient
    /// scatter-adds back into the source rows.
    pub fn gather_rows(&mut self, x: Var, indices: Vec<usize>) -> Var {
        let xv = self.value(x);
        assert_eq!(xv.rank(), 2, "gather_rows expects a matrix");
        let (r, c) = (xv.dims()[0], xv.dims()[1]);
        for &i in &indices {
            assert!(i < r, "gather index {i} out of bounds for {r} rows");
        }
        let mut data = Vec::with_capacity(indices.len() * c);
        for &i in &indices {
            data.extend_from_slice(&xv.data()[i * c..(i + 1) * c]);
        }
        let out = Tensor::new([indices.len(), c], data);
        self.push_op_named("gather_rows", out, vec![x], move |ctx| {
            let mut gx = Tensor::zeros(ctx.parents[0].shape().clone());
            let g = ctx.grad.data();
            for (k, &i) in indices.iter().enumerate() {
                let dst = &mut gx.data_mut()[i * c..(i + 1) * c];
                for (d, &v) in dst.iter_mut().zip(&g[k * c..(k + 1) * c]) {
                    *d += v;
                }
            }
            vec![gx]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::check_gradient;

    #[test]
    fn concat_cols_values_and_grad() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::new([2, 2], vec![1., 2., 3., 4.]));
        let b = tape.leaf(Tensor::new([2, 3], vec![5., 6., 7., 8., 9., 10.]));
        let c = tape.concat_cols(a, b);
        assert_eq!(tape.value(c).dims(), &[2, 5]);
        assert_eq!(tape.value(c).data(), &[1., 2., 5., 6., 7., 3., 4., 8., 9., 10.]);
        let a0 = Tensor::new([2, 2], vec![0.3, -0.5, 0.8, 0.1]);
        check_gradient(&a0, 1e-3, 1e-2, |tape, a| {
            let b = tape.leaf(Tensor::new([2, 1], vec![0.4, -0.9]));
            let c = tape.concat_cols(a, b);
            let sq = tape.square(c);
            tape.sum_all(sq)
        })
        .unwrap();
        // Zero-column operand degenerates gracefully (empty relation set).
        let mut tape = Tape::new();
        let empty = tape.leaf(Tensor::zeros([2, 0]));
        let b = tape.leaf(Tensor::new([2, 2], vec![1., 2., 3., 4.]));
        let c = tape.concat_cols(empty, b);
        assert_eq!(tape.value(c).data(), &[1., 2., 3., 4.]);
    }

    #[test]
    fn permute3_roundtrip() {
        let perms = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        for perm in perms {
            let mut tape = Tape::new();
            let x = tape.leaf(Tensor::new([2, 3, 4], (0..24).map(|v| v as f32).collect()));
            let p = tape.permute3(x, perm);
            let (xv, pv) = (tape.value(x), tape.value(p));
            assert_eq!(pv.dims(), permuted_dims(xv.dims(), perm), "{perm:?}");
            // Naive reference: out[o] == in[idx] with idx[perm[a]] = o[a].
            for i in 0..pv.dims()[0] {
                for j in 0..pv.dims()[1] {
                    for k in 0..pv.dims()[2] {
                        let mut idx = [0; 3];
                        for (a, o) in [i, j, k].into_iter().enumerate() {
                            idx[perm[a]] = o;
                        }
                        assert_eq!(pv.at(&[i, j, k]), xv.at(&idx), "{perm:?} at {:?}", [i, j, k]);
                    }
                }
            }
            let back = tape.permute3(p, inverse_perm(perm));
            assert_eq!(tape.value(back), tape.value(x), "{perm:?} round trip");
        }
    }

    #[test]
    fn permute3_grad_is_inverse_permutation() {
        let x = Tensor::new([2, 2, 3], (0..12).map(|v| v as f32 * 0.1).collect());
        check_gradient(&x, 1e-3, 1e-2, |tape, v| {
            let p = tape.permute3(v, [2, 0, 1]);
            let sq = tape.square(p);
            tape.sum_all(sq)
        })
        .unwrap();
    }

    #[test]
    fn concat0_and_grads() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::new([1, 2], vec![1., 2.]));
        let b = tape.leaf(Tensor::new([2, 2], vec![3., 4., 5., 6.]));
        let c = tape.concat0(&[a, b]);
        assert_eq!(tape.value(c).dims(), &[3, 2]);
        assert_eq!(tape.value(c).data(), &[1., 2., 3., 4., 5., 6.]);
        let s = tape.sum_all(c);
        tape.backward(s);
        assert_eq!(tape.grad(a).unwrap().dims(), &[1, 2]);
        assert_eq!(tape.grad(b).unwrap().dims(), &[2, 2]);
    }

    #[test]
    fn stack0_shape_and_grad() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::new([2, 2], vec![1., 2., 3., 4.]));
        let b = tape.leaf(Tensor::new([2, 2], vec![5., 6., 7., 8.]));
        let s = tape.stack0(&[a, b]);
        assert_eq!(tape.value(s).dims(), &[2, 2, 2]);
        let sq = tape.square(s);
        let total = tape.sum_all(sq);
        tape.backward(total);
        assert_eq!(tape.grad(a).unwrap().data(), &[2., 4., 6., 8.]);
        assert_eq!(tape.grad(b).unwrap().data(), &[10., 12., 14., 16.]);
    }

    #[test]
    fn gather_rows_with_duplicates_accumulates() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::new([3, 2], vec![1., 2., 3., 4., 5., 6.]));
        let g = tape.gather_rows(x, vec![0, 2, 0]);
        assert_eq!(tape.value(g).data(), &[1., 2., 5., 6., 1., 2.]);
        let s = tape.sum_all(g);
        tape.backward(s);
        // row 0 gathered twice -> grad 2, row 1 never -> 0, row 2 once -> 1.
        assert_eq!(tape.grad(x).unwrap().data(), &[2., 2., 0., 0., 1., 1.]);
    }

    #[test]
    fn slice_rows_grad_zero_pads() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::new([4, 1], vec![1., 2., 3., 4.]));
        let s = tape.slice_rows(x, 1, 3);
        assert_eq!(tape.value(s).data(), &[2., 3.]);
        let total = tape.sum_all(s);
        tape.backward(total);
        assert_eq!(tape.grad(x).unwrap().data(), &[0., 1., 1., 0.]);
    }

    #[test]
    fn reshape_grad_flows() {
        let x = Tensor::new([2, 3], (0..6).map(|v| v as f32).collect());
        check_gradient(&x, 1e-3, 1e-2, |tape, v| {
            let r = tape.reshape(v, [3, 2]);
            let sq = tape.square(r);
            tape.sum_all(sq)
        })
        .unwrap();
    }
}
