//! Property-based tests for the tensor engine: algebraic identities of the
//! linalg kernels, structural invariants of the sparse/conv ops, and
//! bit-for-bit broadcasting against a multi-index oracle, under random
//! inputs.

use proptest::prelude::*;
use rtgcn_tensor::{init, linalg, ConvSpec, Edges, Shape, Tape, Tensor, Var};

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |data| Tensor::new([rows, cols], data))
}

/// Every multi-index of `dims` in row-major order, advanced as an odometer:
/// the reference visiting order that `broadcast_to` and `reduce_to` must
/// reproduce bit for bit.
fn multi_indices(dims: &[usize]) -> Vec<Vec<usize>> {
    if dims.contains(&0) {
        return Vec::new();
    }
    let mut all = Vec::new();
    let mut cur = vec![0; dims.len()];
    loop {
        all.push(cur.clone());
        let mut d = dims.len();
        loop {
            if d == 0 {
                return all;
            }
            d -= 1;
            cur[d] += 1;
            if cur[d] < dims[d] {
                break;
            }
            cur[d] = 0;
        }
    }
}

/// Flat index into a tensor of shape `src` of the element that broadcasting
/// places at multi-index `idx` of the (higher-rank) broadcast shape.
fn oracle_source(src: &Shape, idx: &[usize]) -> usize {
    let rank_diff = idx.len() - src.rank();
    let strides = src.strides();
    let mut flat = 0;
    for (sd, &i) in idx[rank_diff..].iter().enumerate() {
        flat += if src.dims()[sd] == 1 { 0 } else { i * strides[sd] };
    }
    flat
}

fn oracle_broadcast(x: &Tensor, target: &Shape) -> Tensor {
    if x.shape() == target {
        return x.clone();
    }
    let data = multi_indices(target.dims())
        .iter()
        .map(|idx| x.data()[oracle_source(x.shape(), idx)])
        .collect();
    Tensor::new(target.clone(), data)
}

fn oracle_reduce(g: &Tensor, target: &Shape) -> Tensor {
    if g.shape() == target {
        return g.clone();
    }
    let mut out = Tensor::zeros(target.clone());
    for (flat, idx) in multi_indices(g.dims()).iter().enumerate() {
        out.data_mut()[oracle_source(target, idx)] += g.data()[flat];
    }
    out
}

type Forward = fn(f32, f32) -> f32;
type Partial = fn(f32, f32, f32) -> f32;
/// An op's name, its tape method, its forward and its two `(a, b, out)`
/// local derivatives.
type BinaryOp = (&'static str, fn(&mut Tape, Var, Var) -> Var, Forward, Partial, Partial);

/// The broadcasting binary ops, with derivatives written as the tape
/// defines them.
const BINARY_OPS: [BinaryOp; 4] = [
    ("add", |t, a, b| t.add(a, b), |x, y| x + y, |_, _, _| 1.0, |_, _, _| 1.0),
    ("sub", |t, a, b| t.sub(a, b), |x, y| x - y, |_, _, _| 1.0, |_, _, _| -1.0),
    ("mul", |t, a, b| t.mul(a, b), |x, y| x * y, |_, y, _| y, |x, _, _| x),
    ("div", |t, a, b| t.div(a, b), |x, y| x / y, |_, y, _| 1.0 / y, |x, y, _| -x / (y * y)),
];

/// Forward value and both gradients of a broadcasting binary op under the
/// upstream gradient `g` (whose shape is the broadcast shape), computed on
/// the oracle's materialised operands.
fn oracle_binary(
    a: &Tensor,
    b: &Tensor,
    g: &Tensor,
    fwd: Forward,
    dfa: Partial,
    dfb: Partial,
) -> [Tensor; 3] {
    let target = g.shape();
    let (ab, bb) = (oracle_broadcast(a, target), oracle_broadcast(b, target));
    let out = ab.zip(&bb, fwd);
    let local = |df: Partial| {
        let (ad, bd, od, gd) = (ab.data(), bb.data(), out.data(), g.data());
        let data = (0..out.numel()).map(|i| gd[i] * df(ad[i], bd[i], od[i])).collect();
        Tensor::new(target.clone(), data)
    };
    let (ga, gb) = (oracle_reduce(&local(dfa), a.shape()), oracle_reduce(&local(dfb), b.shape()));
    [out, ga, gb]
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// `full` with its first `drop` axes removed and every axis whose bit is set
/// in `ones` shrunk to 1: always broadcast-compatible with `full`.
fn operand_shape(full: &[usize], drop: usize, ones: u32) -> Shape {
    let drop = drop.min(full.len());
    Shape::from(
        (drop..full.len())
            .map(|d| if ones >> d & 1 == 1 { 1 } else { full[d] })
            .collect::<Vec<_>>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `broadcast_to`, `reduce_to`, and the forward value and both gradients
    /// of `add`/`sub`/`mul`/`div` are `to_bits`-equal to the multi-index
    /// odometer loops for random broadcast-compatible pairs: ranks 0–4,
    /// size-1 axes on either side, a rank difference, and sometimes a
    /// zero-size axis.
    #[test]
    fn broadcasting_is_bit_identical_to_odometer_oracle(
        dims in proptest::collection::vec(1usize..5, 0..5),
        (drop_a, drop_b) in (0usize..5, 0usize..5),
        (ones_a, ones_b, zero_axis) in (0u32..16, 0u32..16, 0usize..12),
        seed in 0u64..1_000_000,
    ) {
        let mut full = dims;
        if zero_axis < full.len() {
            full[zero_axis] = 0;
        }
        let sa = operand_shape(&full, drop_a, ones_a);
        let sb = operand_shape(&full, drop_b, ones_b);
        let target = sa.broadcast_with(&sb).expect("compatible by construction");
        let mut rng = init::rng(seed);
        let a = init::uniform(sa.clone(), -2.0, 2.0, &mut rng);
        // Keep divisors away from zero so every quotient stays finite.
        let b = init::uniform(sb.clone(), -2.0, 2.0, &mut rng).map(|v| v + 0.5f32.copysign(v));
        let g = init::uniform(target.clone(), -2.0, 2.0, &mut rng);
        for x in [&a, &b] {
            let s = x.shape();
            let (got, want) = (x.broadcast_to(&target), oracle_broadcast(x, &target));
            prop_assert_eq!(bits(&got), bits(&want), "broadcast {s:?} to {target:?}");
            let (got, want) = (g.reduce_to(s), oracle_reduce(&g, s));
            prop_assert_eq!(bits(&got), bits(&want), "reduce {target:?} to {s:?}");
        }
        for (name, op, fwd, dfa, dfb) in BINARY_OPS {
            let mut tape = Tape::new();
            let (av, bv) = (tape.leaf(a.clone()), tape.leaf(b.clone()));
            let y = op(&mut tape, av, bv);
            tape.backward_seeded(y, g.clone());
            let [out, ga, gb] = oracle_binary(&a, &b, &g, fwd, dfa, dfb);
            let case = format!("{name} of {sa:?} and {sb:?}");
            prop_assert_eq!(bits(tape.value(y)), bits(&out), "{case}: forward");
            prop_assert_eq!(bits(tape.grad(av).unwrap()), bits(&ga), "{case}: grad a");
            prop_assert_eq!(bits(tape.grad(bv).unwrap()), bits(&gb), "{case}: grad b");
        }
    }

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

    /// matmul_tn(Aᵀ stored as A) and matmul_nt agree bit for bit with
    /// explicit transposition for arbitrary rectangular matrices: all three
    /// add each output's products in the same order.
    #[test]
    fn transpose_free_kernels_agree(a in matrix(4, 3), b in matrix(3, 5)) {
        let expect = bits(&linalg::matmul(&a, &b));
        prop_assert_eq!(bits(&linalg::matmul_tn(&a.transpose(), &b)), expect.clone());
        prop_assert_eq!(bits(&linalg::matmul_nt(&a, &b.transpose())), expect);
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
