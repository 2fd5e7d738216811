//! Property-based tests for the tensor engine: algebraic identities of the
//! linalg kernels and structural invariants of the sparse/conv ops under
//! random inputs.

use proptest::prelude::*;
use rtgcn_tensor::{linalg, ConvSpec, Edges, Tape, Tensor};

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |data| Tensor::new([rows, cols], data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A(B + C) == AB + AC (within f32 tolerance).
    #[test]
    fn matmul_distributes((m, k, n) in (1usize..6, 1usize..6, 1usize..6).prop_flat_map(Just)) {
        let runner = |seed: u64, r: usize, c: usize| {
            let mut rng = rtgcn_tensor::init::rng(seed);
            rtgcn_tensor::init::uniform([r, c], -2.0, 2.0, &mut rng)
        };
        let a = runner(1, m, k);
        let b = runner(2, k, n);
        let c = runner(3, k, n);
        let bc = b.zip(&c, |x, y| x + y);
        let lhs = linalg::matmul(&a, &bc);
        let ab = linalg::matmul(&a, &b);
        let ac = linalg::matmul(&a, &c);
        let rhs = ab.zip(&ac, |x, y| x + y);
        prop_assert!(lhs.allclose(&rhs, 1e-3));
    }

    /// matmul_tn(Aᵀ stored as A) and matmul_nt agree with explicit
    /// transposition for arbitrary rectangular matrices.
    #[test]
    fn transpose_free_kernels_agree(a in matrix(4, 3), b in matrix(3, 5)) {
        let expect = linalg::matmul(&a, &b);
        let via_tn = linalg::matmul_tn(&a.transpose(), &b);
        let via_nt = linalg::matmul_nt(&a, &b.transpose());
        prop_assert!(via_tn.allclose(&expect, 1e-3));
        prop_assert!(via_nt.allclose(&expect, 1e-3));
    }

    /// IEEE propagation through all three matmul variants: a NaN or ±Inf
    /// in one operand reaches every output that multiplies it, including
    /// where the entry it meets in the other operand is zero
    /// (`0 × Inf = NaN`), and no other output.
    #[test]
    fn matmul_variants_propagate_non_finite(
        (m, k, n) in (1usize..6, 1usize..6, 1usize..6),
        (row, col, bad) in (0usize..6, 0usize..6, 0usize..3),
        (poison_a, zero_partner) in (0usize..2, 0usize..2),
        seed in 0u64..10_000,
    ) {
        let mut rng = rtgcn_tensor::init::rng(seed);
        let mut a = rtgcn_tensor::init::uniform([m, k], -2.0, 2.0, &mut rng);
        let mut b = rtgcn_tensor::init::uniform([k, n], -2.0, 2.0, &mut rng);
        let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][bad];
        let p = col % k;
        // Poison a[i0, p] (row i0 of the product) or b[p, j0] (column j0);
        // optionally zero the entries of the other operand it meets.
        let (i0, j0) = (row % m, col % n);
        if poison_a == 1 {
            *a.at_mut(&[i0, p]) = bad;
            if zero_partner == 1 {
                (0..n).for_each(|j| *b.at_mut(&[p, j]) = 0.0);
            }
        } else {
            *b.at_mut(&[p, j0]) = bad;
            if zero_partner == 1 {
                (0..m).for_each(|i| *a.at_mut(&[i, p]) = 0.0);
            }
        }
        let reads_poison = |i: usize, j: usize| if poison_a == 1 { i == i0 } else { j == j0 };
        for (name, c) in [
            ("matmul", linalg::matmul(&a, &b)),
            ("matmul_tn", linalg::matmul_tn(&a.transpose(), &b)),
            ("matmul_nt", linalg::matmul_nt(&a, &b.transpose())),
        ] {
            for i in 0..m {
                for j in 0..n {
                    let v = c.at(&[i, j]);
                    prop_assert!(v.is_finite() != reads_poison(i, j), "{name}[{i},{j}] = {v}");
                }
            }
        }
    }

    /// Transpose is an involution.
    #[test]
    fn transpose_involution(a in matrix(5, 3)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    /// conv out_len: ⌈L/stride⌉ for any L, stride.
    #[test]
    fn conv_out_len_formula(l in 1usize..100, stride in 1usize..5, kernel in 1usize..5) {
        let spec = ConvSpec::new(kernel, stride, 1);
        prop_assert_eq!(spec.out_len(l), l.div_ceil(stride));
    }

    /// spmm against an explicit dense multiply for a random graph.
    #[test]
    fn spmm_matches_dense(
        n in 2usize..8,
        f in 1usize..5,
        edge_bits in proptest::collection::vec((0usize..8, 0usize..8, -3.0f32..3.0), 0..20),
    ) {
        let mut dense = Tensor::zeros([n, n]);
        let mut pairs = Vec::new();
        let mut weights = Vec::new();
        for (s, d, w) in edge_bits {
            let (s, d) = (s % n, d % n);
            pairs.push([s, d]);
            weights.push(w);
            *dense.at_mut(&[d, s]) += w;
        }
        let edges = Edges::new(n, pairs);
        let mut rng = rtgcn_tensor::init::rng(9);
        let x = rtgcn_tensor::init::uniform([n, f], -1.0, 1.0, &mut rng);
        let mut tape = Tape::new();
        let wv = tape.constant(Tensor::from_vec(weights));
        let xv = tape.constant(x.clone());
        let y = tape.spmm(&edges, wv, xv);
        let expect = linalg::matmul(&dense, &x);
        prop_assert!(tape.value(y).allclose(&expect, 1e-3));
    }

    /// Gradient of mean_all is uniform 1/n.
    #[test]
    fn mean_gradient_uniform(data in proptest::collection::vec(-5.0f32..5.0, 1..40)) {
        let n = data.len();
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(data));
        let m = tape.mean_all(x);
        tape.backward(m);
        let g = tape.grad(x).unwrap();
        for &v in g.data() {
            prop_assert!((v - 1.0 / n as f32).abs() < 1e-5);
        }
    }

    /// Backward through chained elementwise ops obeys the chain rule:
    /// d/dx sum(sigmoid(kx)) == k·σ'(kx).
    #[test]
    fn chain_rule_scale_sigmoid(data in proptest::collection::vec(-3.0f32..3.0, 1..20), k in -2.0f32..2.0) {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(data.clone()));
        let kx = tape.scale(x, k);
        let s = tape.sigmoid(kx);
        let total = tape.sum_all(s);
        tape.backward(total);
        let g = tape.grad(x).unwrap();
        for (i, &xv) in data.iter().enumerate() {
            let sig = 1.0 / (1.0 + (-k * xv).exp());
            let expect = k * sig * (1.0 - sig);
            prop_assert!((g.data()[i] - expect).abs() < 1e-4, "at {i}: {} vs {expect}", g.data()[i]);
        }
    }
}
