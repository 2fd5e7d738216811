//! Dense linear-algebra kernels.
//!
//! These are the hot loops of every model in the workspace, so they are
//! written cache-consciously (i-k-j loop order so the innermost loop streams
//! both the `b` row and the output row). Every product is accumulated, zeros
//! included, so a non-finite entry in either operand reaches every output it
//! touches (IEEE `0 × Inf = NaN`).

use crate::tensor::Tensor;

/// `C = A · B` for row-major matrices `A: (m×k)`, `B: (k×n)`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul lhs must be a matrix, got {:?}", a.shape());
    assert_eq!(b.rank(), 2, "matmul rhs must be a matrix, got {:?}", b.shape());
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul inner dims mismatch: {:?} x {:?}", a.shape(), b.shape());
    let mut out = Tensor::zeros([m, n]);
    let (ad, bd, od) = (a.data(), b.data(), out.data_mut());
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        let row = &mut od[i * n..(i + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            let brow = &bd[p * n..(p + 1) * n];
            for (r, &bv) in row.iter_mut().zip(brow) {
                *r += av * bv;
            }
        }
    }
    out
}

/// `C = Aᵀ · B` for `A: (k×m)`, `B: (k×n)` without materialising `Aᵀ`.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul_tn lhs must be a matrix");
    assert_eq!(b.rank(), 2, "matmul_tn rhs must be a matrix");
    let (k, m) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul_tn inner dims mismatch: {:?}ᵀ x {:?}", a.shape(), b.shape());
    let mut out = Tensor::zeros([m, n]);
    let (ad, bd, od) = (a.data(), b.data(), out.data_mut());
    // out[i, :] = Σ_p a[p, i] · b[p, :], accumulated in `p` order; the
    // column of `a` is read with stride `m`.
    for i in 0..m {
        let row = &mut od[i * n..(i + 1) * n];
        for p in 0..k {
            // SAFETY: `i < m` and `p < k` by the two loop bounds, so
            // `p * m + i <= (k-1)*m + (m-1) < k*m == ad.len()` (`ad` is the
            // data of the `(k×m)` tensor validated above). The unchecked
            // load drops a bounds check from the innermost column-strided
            // access the optimiser cannot elide.
            let av = unsafe { *ad.get_unchecked(p * m + i) };
            let brow = &bd[p * n..(p + 1) * n];
            for (r, &bv) in row.iter_mut().zip(brow) {
                *r += av * bv;
            }
        }
    }
    out
}

/// `C = A · Bᵀ` for `A: (m×k)`, `B: (n×k)` without materialising `Bᵀ`.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul_nt lhs must be a matrix");
    assert_eq!(b.rank(), 2, "matmul_nt rhs must be a matrix");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (n, k2) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul_nt inner dims mismatch: {:?} x {:?}ᵀ", a.shape(), b.shape());
    let mut out = Tensor::zeros([m, n]);
    let (ad, bd, od) = (a.data(), b.data(), out.data_mut());
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        let row = &mut od[i * n..(i + 1) * n];
        for (j, r) in row.iter_mut().enumerate() {
            let brow = &bd[j * k..(j + 1) * k];
            let mut acc = 0.0;
            for (&av, &bv) in arow.iter().zip(brow) {
                acc += av * bv;
            }
            *r = acc;
        }
    }
    out
}

/// Matrix–vector product `y = A·x` for `A: (m×k)`, `x: (k)`.
pub fn matvec(a: &Tensor, x: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matvec lhs must be a matrix");
    assert_eq!(x.rank(), 1, "matvec rhs must be a vector");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    assert_eq!(k, x.dims()[0], "matvec dims mismatch");
    let mut out = vec![0.0; m];
    let (ad, xd) = (a.data(), x.data());
    for (i, o) in out.iter_mut().enumerate() {
        let arow = &ad[i * k..(i + 1) * k];
        *o = arow.iter().zip(xd).map(|(&a, &b)| a * b).sum();
    }
    Tensor::from_vec(out)
}

/// Dot product of two equal-length vectors.
pub fn dot(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.numel(), b.numel(), "dot length mismatch");
    a.data().iter().zip(b.data()).map(|(&x, &y)| x * y).sum()
}

/// Outer product `x yᵀ` of two vectors.
pub fn outer(x: &Tensor, y: &Tensor) -> Tensor {
    assert_eq!(x.rank(), 1, "outer expects vectors");
    assert_eq!(y.rank(), 1, "outer expects vectors");
    let (m, n) = (x.dims()[0], y.dims()[0]);
    let mut out = Tensor::zeros([m, n]);
    for i in 0..m {
        let xv = x.data()[i];
        for j in 0..n {
            out.data_mut()[i * n + j] = xv * y.data()[j];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = Tensor::zeros([m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.at(&[i, p]) * b.at(&[p, j]);
                }
                *out.at_mut(&[i, j]) = acc;
            }
        }
        out
    }

    #[test]
    fn matmul_small_known() {
        let a = Tensor::new([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::new([3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_variants_agree() {
        let mut seed = 1u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        let a = Tensor::new([7, 5], (0..35).map(|_| next()).collect());
        let b = Tensor::new([5, 9], (0..45).map(|_| next()).collect());
        let expect = naive_matmul(&a, &b);
        assert!(matmul(&a, &b).allclose(&expect, 1e-4));
        assert!(matmul_tn(&a.transpose(), &b).allclose(&expect, 1e-4));
        assert!(matmul_nt(&a, &b.transpose()).allclose(&expect, 1e-4));
    }

    #[test]
    fn matvec_and_dot() {
        let a = Tensor::new([2, 3], vec![1., 0., 2., 0., 1., 3.]);
        let x = Tensor::from_vec(vec![1., 2., 3.]);
        let y = matvec(&a, &x);
        assert_eq!(y.data(), &[7., 11.]);
        assert_eq!(dot(&x, &x), 14.0);
    }

    #[test]
    fn outer_product() {
        let x = Tensor::from_vec(vec![1., 2.]);
        let y = Tensor::from_vec(vec![3., 4., 5.]);
        let o = outer(&x, &y);
        assert_eq!(o.dims(), &[2, 3]);
        assert_eq!(o.data(), &[3., 4., 5., 6., 8., 10.]);
    }

    #[test]
    #[should_panic(expected = "inner dims mismatch")]
    fn matmul_dim_mismatch_panics() {
        let _ = matmul(&Tensor::zeros([2, 3]), &Tensor::zeros([4, 2]));
    }
}
