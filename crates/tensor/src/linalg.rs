//! Dense linear-algebra kernels.
//!
//! Every product here, and the forward of the causal conv
//! (`ops/conv.rs`), runs on one register-tile micro-kernel, [`accumulate`]:
//! an `MR × NR` block of outputs held in local arrays that LLVM keeps in
//! vector registers, fed one reduction step at a time with `MR` values of
//! `A` (a base offset plus a fixed row stride) and one contiguous
//! `NR`-wide row of `B`. [`for_each_tile`] covers an output with such
//! tiles and its edges with smaller instances of the same tile (one row;
//! 8, 4 or 1 columns).
//!
//! Each output element starts from `+0.0` (a conv output from its bias) and
//! adds one product per step in reduction order, with no reassociation and
//! no fused multiply-add, so results are bit-identical to the
//! one-element-at-a-time loops the test modules keep as oracles. Every
//! product is accumulated, zeros included, so a non-finite entry in either
//! operand reaches every output it touches (IEEE `0 × Inf = NaN`).

use crate::tensor::Tensor;

/// Tile height: output rows that share each loaded row of `B`.
const MR: usize = 4;
/// Tile width: output columns that share each loaded value of `A`.
const NR: usize = 16;

/// An output that [`for_each_tile`] computes one tile at a time.
pub(crate) trait Tiles {
    /// Runs before the tiles of columns `j0..j0 + C`, in column order.
    #[inline(always)]
    fn columns<const C: usize>(&mut self, _j0: usize) {}

    /// Computes and stores the outputs at rows `i0..i0 + R`, columns
    /// `j0..j0 + C`.
    fn tile<const R: usize, const C: usize>(&mut self, i0: usize, j0: usize);
}

/// Covers a `rows × cols` output with tiles: blocks of `NR`, then 8, 4 and
/// 1 columns, each swept by `MR`-row tiles and then single rows. (The
/// 4-wide block serves `n = 4` products such as the input-feature gradient,
/// which run about 4× slower on single columns.)
pub(crate) fn for_each_tile(rows: usize, cols: usize, out: &mut impl Tiles) {
    let mut j = 0;
    while j + NR <= cols {
        column_block::<NR>(rows, j, out);
        j += NR;
    }
    if j + 8 <= cols {
        column_block::<8>(rows, j, out);
        j += 8;
    }
    if j + 4 <= cols {
        column_block::<4>(rows, j, out);
        j += 4;
    }
    for j in j..cols {
        column_block::<1>(rows, j, out);
    }
}

#[inline(always)]
fn column_block<const C: usize>(rows: usize, j0: usize, out: &mut impl Tiles) {
    out.columns::<C>(j0);
    let mut i = 0;
    while i + MR <= rows {
        out.tile::<MR, C>(i, j0);
        i += MR;
    }
    for i in i..rows {
        out.tile::<1, C>(i, j0);
    }
}

/// The micro-kernel: for each step `(a_at, b_at)`, in order, adds
/// `a[a_at + r·a_stride] · b[b_at + c]` into `acc[r][c]`.
#[inline(always)]
pub(crate) fn accumulate<const R: usize, const C: usize>(
    acc: &mut [[f32; C]; R],
    a: &[f32],
    a_stride: usize,
    b: &[f32],
    steps: impl Iterator<Item = (usize, usize)>,
) {
    for (a_at, b_at) in steps {
        let brow = &b[b_at..b_at + C];
        for (r, row) in acc.iter_mut().enumerate() {
            let av = a[a_at + r * a_stride];
            for (s, &bv) in row.iter_mut().zip(brow) {
                *s += av * bv;
            }
        }
    }
}

/// Writes `acc` to rows `i0..`, columns `j0..` of `out`, whose rows start
/// `ld` elements apart.
#[inline(always)]
pub(crate) fn store<const R: usize, const C: usize>(
    acc: &[[f32; C]; R],
    out: &mut [f32],
    ld: usize,
    i0: usize,
    j0: usize,
) {
    for (r, row) in acc.iter().enumerate() {
        out[(i0 + r) * ld + j0..][..C].copy_from_slice(row);
    }
}

/// `out (m×n) = A · B` for a row-major `B: (k×n)` and an `A` whose element
/// `(i, p)` sits at `a[i·rs + p·cs]`.
struct Strided<'a> {
    a: &'a [f32],
    rs: usize,
    cs: usize,
    b: &'a [f32],
    k: usize,
    n: usize,
    out: &'a mut [f32],
}

impl Tiles for Strided<'_> {
    #[inline(always)]
    fn tile<const R: usize, const C: usize>(&mut self, i0: usize, j0: usize) {
        let (rs, cs, n) = (self.rs, self.cs, self.n);
        let mut acc = [[0.0; C]; R];
        let steps = (0..self.k).map(|p| (i0 * rs + p * cs, p * n + j0));
        accumulate(&mut acc, self.a, rs, self.b, steps);
        store(&acc, self.out, n, i0, j0);
    }
}

/// `out (m×n) = A · Bᵀ` for row-major `A: (m×k)`, `B: (n×k)`. Each block of
/// `C` columns first packs its `(k × C)` block of `Bᵀ` into `panel`.
struct PackedNt<'a> {
    a: &'a [f32],
    b: &'a [f32],
    k: usize,
    n: usize,
    panel: Vec<f32>,
    out: &'a mut [f32],
}

impl Tiles for PackedNt<'_> {
    #[inline(always)]
    fn columns<const C: usize>(&mut self, j0: usize) {
        let (b, k) = (self.b, self.k);
        self.panel.clear();
        for p in 0..k {
            self.panel.extend((j0..j0 + C).map(|j| b[j * k + p]));
        }
    }

    #[inline(always)]
    fn tile<const R: usize, const C: usize>(&mut self, i0: usize, j0: usize) {
        let k = self.k;
        let mut acc = [[0.0; C]; R];
        accumulate(&mut acc, self.a, k, &self.panel, (0..k).map(|p| (i0 * k + p, p * C)));
        store(&acc, self.out, self.n, i0, j0);
    }
}

/// `C = A · B` for row-major matrices `A: (m×k)`, `B: (k×n)`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul lhs must be a matrix, got {:?}", a.shape());
    assert_eq!(b.rank(), 2, "matmul rhs must be a matrix, got {:?}", b.shape());
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul inner dims mismatch: {:?} x {:?}", a.shape(), b.shape());
    let mut out = Tensor::zeros([m, n]);
    let (a, b) = (a.data(), b.data());
    for_each_tile(m, n, &mut Strided { a, rs: k, cs: 1, b, k, n, out: out.data_mut() });
    out
}

/// `C = Aᵀ · B` for `A: (k×m)`, `B: (k×n)` without materialising `Aᵀ`: a
/// tile's `MR` values of `A` at step `p` are adjacent in row `p`.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul_tn lhs must be a matrix");
    assert_eq!(b.rank(), 2, "matmul_tn rhs must be a matrix");
    let (k, m) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul_tn inner dims mismatch: {:?}ᵀ x {:?}", a.shape(), b.shape());
    let mut out = Tensor::zeros([m, n]);
    let (a, b) = (a.data(), b.data());
    for_each_tile(m, n, &mut Strided { a, rs: 1, cs: m, b, k, n, out: out.data_mut() });
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
    let panel = Vec::with_capacity(k * NR.min(n));
    let (a, b) = (a.data(), b.data());
    for_each_tile(m, n, &mut PackedNt { a, b, k, n, panel, out: out.data_mut() });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The loops the tile kernel replaced, kept as its oracles: each output
    /// starts at `+0.0` and adds its products in `p` order.
    fn oracle_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let row = &mut out[i * n..(i + 1) * n];
            for (p, &av) in arow.iter().enumerate() {
                for (r, &bv) in row.iter_mut().zip(&b[p * n..(p + 1) * n]) {
                    *r += av * bv;
                }
            }
        }
        out
    }

    /// `Aᵀ · B` for `A: (k×m)`, the column of `A` read with stride `m`.
    fn oracle_matmul_tn(a: &[f32], b: &[f32], k: usize, m: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            let row = &mut out[i * n..(i + 1) * n];
            for p in 0..k {
                let av = a[p * m + i];
                for (r, &bv) in row.iter_mut().zip(&b[p * n..(p + 1) * n]) {
                    *r += av * bv;
                }
            }
        }
        out
    }

    /// `A · Bᵀ` for `B: (n×k)`, one dot product per output.
    fn oracle_matmul_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            for (j, r) in out[i * n..(i + 1) * n].iter_mut().enumerate() {
                let mut acc = 0.0;
                for (&av, &bv) in arow.iter().zip(&b[j * k..(j + 1) * k]) {
                    acc += av * bv;
                }
                *r = acc;
            }
        }
        out
    }

    /// Equal bit patterns, or both NaN (a NaN's payload is not portable).
    fn assert_same_bits(what: &str, got: &Tensor, want: &[f32]) {
        assert_eq!(got.numel(), want.len(), "{what}: length");
        for (i, (a, e)) in got.data().iter().zip(want).enumerate() {
            assert!(
                a.to_bits() == e.to_bits() || (a.is_nan() && e.is_nan()),
                "{what}[{i}]: tile kernel {a:e} vs oracle {e:e}"
            );
        }
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
        let expect = oracle_matmul(a.data(), b.data(), 7, 5, 9);
        assert_same_bits("matmul", &matmul(&a, &b), &expect);
        assert_same_bits("matmul_tn", &matmul_tn(&a.transpose(), &b), &expect);
        assert_same_bits("matmul_nt", &matmul_nt(&a, &b.transpose()), &expect);
    }

    #[test]
    fn all_negative_zero_products_sum_to_positive_zero() {
        // Each output starts at +0.0, and +0 + −0 = +0; a sum starting from
        // −0.0 (`Iterator::sum`'s identity) would give −0 here.
        let a = Tensor::new([1, 2], vec![-0.0, 1.0]);
        let b = Tensor::new([2, 1], vec![1.0, -0.0]);
        for c in [matmul(&a, &b), matmul_tn(&a.transpose(), &b), matmul_nt(&a, &b.transpose())] {
            assert_eq!(c.data()[0].to_bits(), 0.0f32.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "inner dims mismatch")]
    fn matmul_dim_mismatch_panics() {
        let _ = matmul(&Tensor::zeros([2, 3]), &Tensor::zeros([4, 2]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// All three products equal their oracle loops bit for bit on every
        /// shape up to 19 (so `k = 0`, `n = 1` and every tile remainder
        /// occur), with and without a NaN/±Inf planted in either operand.
        #[test]
        fn products_match_oracles_bit_for_bit(
            (m, k, n) in (0usize..20, 0usize..20, 0usize..20),
            seed in 0u64..1_000_000,
            (poison, in_a, site) in (0usize..4, 0usize..2, 0usize..1_000_000),
        ) {
            let mut rng = crate::init::rng(seed);
            let mut a = crate::init::uniform([m * k], -2.0, 2.0, &mut rng).into_data();
            let mut b = crate::init::uniform([k * n], -2.0, 2.0, &mut rng).into_data();
            let target = if in_a == 1 { &mut a } else { &mut b };
            if poison > 0 && !target.is_empty() {
                let len = target.len();
                target[site % len] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][poison - 1];
            }
            let (at, bt) = (Tensor::new([m, k], a.clone()), Tensor::new([k, n], b.clone()));
            let expect = oracle_matmul(&a, &b, m, k, n);
            assert_same_bits("matmul", &matmul(&at, &bt), &expect);
            let a_t = at.transpose();
            let tn = oracle_matmul_tn(a_t.data(), &b, k, m, n);
            assert_same_bits("matmul_tn", &matmul_tn(&a_t, &bt), &tn);
            let b_t = bt.transpose();
            let nt = oracle_matmul_nt(&a, b_t.data(), m, k, n);
            assert_same_bits("matmul_nt", &matmul_nt(&at, &b_t), &nt);
        }
    }
}
