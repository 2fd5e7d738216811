//! Cross-crate property-based tests (proptest): invariants of the autodiff
//! engine, graph normalisation, metrics and significance tests that must
//! hold for arbitrary inputs.

use proptest::prelude::*;
use rtgcn::core::layers::{RelationalConv, TemporalConvBlock};
use rtgcn::core::strategy::DEGREE_EPS;
use rtgcn::core::{Strategy as RtStrategy, StrategyCtx};
use rtgcn::eval::{cumulative_irr, daily_topk_return, rank_of, reciprocal_rank, top_k_indices};
use rtgcn::eval::{signed_rank_from_diffs, Alternative};
use rtgcn::graph::RelationTensor;
use rtgcn::telemetry as tel;
use rtgcn::tensor::{check_param_gradients, init, ConvSpec, ParamStore, Shape, Tape, Tensor, Var};

fn finite_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-100.0f32..100.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Softmax rows always sum to 1 and stay in [0, 1].
    #[test]
    fn softmax_is_a_distribution(data in finite_vec(2..40)) {
        let n = data.len();
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::new([1, n], data));
        let y = tape.softmax(x);
        let yd = tape.value(y);
        let sum: f32 = yd.data().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4, "sum {sum}");
        prop_assert!(yd.data().iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
    }

    /// broadcast_to followed by reduce_to is the adjoint pair: reducing the
    /// broadcast of x must give x scaled by the broadcast multiplicity.
    #[test]
    fn broadcast_reduce_adjoint(rows in 1usize..5, cols in 1usize..5, data in finite_vec(1..5)) {
        let c = data.len().min(4);
        let x = Tensor::new([1, c], data[..c].to_vec());
        let target = Shape::from(vec![rows, c]);
        let b = x.broadcast_to(&target);
        let r = b.reduce_to(x.shape());
        for i in 0..c {
            prop_assert!((r.data()[i] - rows as f32 * x.data()[i]).abs() < 1e-3);
        }
        let _ = cols;
    }

    /// Σ grad of sum_all is exactly 1 everywhere, for any shape.
    #[test]
    fn sum_gradient_is_ones(data in finite_vec(1..60)) {
        let n = data.len();
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(data));
        let s = tape.sum_all(x);
        tape.backward(s);
        let g = tape.grad(x).unwrap();
        prop_assert!(g.data().iter().all(|&v| (v - 1.0).abs() < 1e-6));
        prop_assert_eq!(g.numel(), n);
    }

    /// Kipf-Welling renormalisation of any symmetric binary graph (the
    /// uniform strategy's adjacency) yields finite weights and
    /// `w(i→j) = w(j→i)`.
    #[test]
    fn renormalisation_finite_and_symmetric(
        n in 2usize..12,
        edges in proptest::collection::vec((0usize..12, 0usize..12), 0..30),
    ) {
        let mut rel = RelationTensor::new(n, 1);
        for (i, j) in edges {
            let (i, j) = (i % n, j % n);
            if i != j {
                rel.connect(i, j, 0);
            }
        }
        let ctx = StrategyCtx::new(&rel);
        let mut tape = Tape::new();
        let adj = ctx.adjacency_uniform(&mut tape);
        let weights = tape.value(adj).data();
        prop_assert!(weights.iter().all(|w| w.is_finite()));
        let mut dense = vec![0.0f32; n * n];
        for (&[s, d], &w) in ctx.csr.edges.pairs.iter().zip(weights) {
            dense[s * n + d] += w;
        }
        for i in 0..n {
            for j in 0..n {
                prop_assert!((dense[i * n + j] - dense[j * n + i]).abs() < 1e-5);
            }
        }
    }

    /// top_k returns distinct indices whose scores dominate the rest.
    #[test]
    fn top_k_dominates_rest(scores in finite_vec(1..40), k in 1usize..10) {
        let picks = top_k_indices(&scores, k);
        let k_eff = k.min(scores.len());
        prop_assert_eq!(picks.len(), k_eff);
        let mut sorted = picks.clone();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), picks.len(), "indices distinct");
        let worst_pick = picks.iter().map(|&i| scores[i]).fold(f32::INFINITY, f32::min);
        for (i, &s) in scores.iter().enumerate() {
            if !picks.contains(&i) {
                prop_assert!(s <= worst_pick + 1e-6);
            }
        }
    }

    /// Reciprocal rank is in (0, 1] and is 1 iff the argmax stocks agree.
    #[test]
    fn reciprocal_rank_bounds(pred in finite_vec(2..30), seed in 0u64..100) {
        let n = pred.len();
        let truth: Vec<f32> = (0..n).map(|i| ((i as u64 * 2654435761 + seed) % 1000) as f32 / 500.0 - 1.0).collect();
        let rr = reciprocal_rank(&pred, &truth);
        prop_assert!(rr > 0.0 && rr <= 1.0);
        let best_true = top_k_indices(&truth, 1)[0];
        if rank_of(&pred, best_true) == 1 {
            prop_assert_eq!(rr, 1.0);
        }
    }

    /// Cumulative IRR of k=N (whole market) equals the sum of daily market
    /// means regardless of prediction order.
    #[test]
    fn irr_whole_market_is_order_invariant(truth in finite_vec(2..20), pred in finite_vec(2..20)) {
        let n = truth.len().min(pred.len());
        let (t, p) = (&truth[..n], &pred[..n]);
        let all = daily_topk_return(p, t, n);
        let mean = t.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        prop_assert!((all - mean).abs() < 1e-6);
        let series = cumulative_irr(&[all, all]);
        prop_assert!((series[1] - 2.0 * all).abs() < 1e-9);
    }

    /// Wilcoxon p-values are always in [0, 1] and monotone in the obvious
    /// direction: shifting all diffs up cannot increase the one-sided p.
    #[test]
    fn wilcoxon_p_bounds_and_shift(diffs in proptest::collection::vec(-5.0f64..5.0, 3..20)) {
        let base = signed_rank_from_diffs(&diffs, Alternative::Greater);
        prop_assert!((0.0..=1.0).contains(&base.p_value));
        let shifted: Vec<f64> = diffs.iter().map(|d| d + 10.0).collect();
        let up = signed_rank_from_diffs(&shifted, Alternative::Greater);
        prop_assert!(up.p_value <= base.p_value + 1e-9);
    }

    /// Causal convolution never leaks the future: truncating the input to a
    /// prefix leaves the matching output prefix unchanged.
    #[test]
    fn conv_causality(data in finite_vec(8..24), kernel in 1usize..4) {
        use rtgcn::tensor::ConvSpec;
        let l = data.len();
        let spec = ConvSpec::new(kernel, 1, 1);
        let w: Vec<f32> = (0..kernel).map(|i| 0.3 * (i as f32 + 1.0)).collect();
        let run = |xs: &[f32]| -> Vec<f32> {
            let mut tape = Tape::new();
            let x = tape.leaf(Tensor::new([xs.len(), 1, 1], xs.to_vec()));
            let wv = tape.leaf(Tensor::new([1, 1, kernel], w.clone()));
            let b = tape.leaf(Tensor::zeros([1]));
            let y = tape.conv1d_causal(x, wv, b, spec);
            tape.value(y).data().to_vec()
        };
        let full = run(&data);
        let half = run(&data[..l / 2]);
        for i in 0..l / 2 {
            prop_assert!((full[i] - half[i]).abs() < 1e-4, "leak at step {i}");
        }
    }

    /// Gauge series read back exactly what was recorded, in recording order
    /// with strictly increasing indices, regardless of the sample values.
    #[test]
    fn gauge_series_readback_is_order_preserving(values in proptest::collection::vec(-1e6f64..1e6, 1..40)) {
        let _guard = tel::test_scope(tel::Level::Summary);
        for (i, &v) in values.iter().enumerate() {
            tel::gauge("prop.series", i as u64, v);
        }
        let pts = tel::series_points("prop.series");
        prop_assert_eq!(pts.len(), values.len());
        for (i, p) in pts.iter().enumerate() {
            prop_assert_eq!(p.index, i as u64);
            prop_assert_eq!(p.value, values[i]);
            if i > 0 {
                prop_assert!(p.index > pts[i - 1].index, "indices strictly increasing");
            }
        }
    }

    /// Telemetry events survive a JSONL round-trip bit-for-bit for any
    /// finite payload (NaN legitimately degrades to null and back to NaN).
    #[test]
    fn event_jsonl_round_trip(
        count in 0u64..1_000_000_000_000,
        total_ns in 0u64..1_000_000_000_000,
        value in -1e12f64..1e12,
        name_sel in 0usize..4,
        msg_sel in 0usize..3,
    ) {
        let names = ["fit.loss", "backtest.irr.k1", "seed/fit/epoch", "tape.nodes"];
        let msgs = ["", "Healthy", "loss \"quoted\" \\ and escaped"];
        let e = tel::Event {
            ts_ms: 1,
            kind: "series".into(),
            name: names[name_sel].into(),
            count,
            total_ns,
            p50_ns: total_ns / 2,
            p95_ns: total_ns,
            p99_ns: total_ns,
            value,
            msg: msgs[msg_sel].into(),
        };
        let line = serde_json::to_string(&e).unwrap();
        let back: tel::Event = serde_json::from_str(&line).unwrap();
        prop_assert_eq!(back, e);
    }
}

// ---------------------------------------------------------------------------
// Per-plane reference for the relational layer: Eq. 2 applied one time step
// at a time with the Eq. 3–5 adjacency renormalised on the tape. Built only
// from edge-list tape ops and the public `RelationalConv`/`StrategyCtx`
// fields, so it shares no code with the batched kernels (`spmm_batched`,
// `edge_dot_batched`, the CSR grouping, `renormalize_batched`) that
// `RelationalConv::forward` runs.
// ---------------------------------------------------------------------------

/// Strategy adjacency of one plane `x_t: (N, D)`, aligned with `ctx.csr`:
/// raw relation weights (Eq. 3: 1; Eq. 4: `𝒜ᵀw + b`; Eq. 5: that times
/// `x_iᵀx_j / √D`), unit self-loops, then `D̃^{-1/2}(A + I)D̃^{-1/2}` with the
/// abs-degree clamp.
fn reference_adjacency(
    tape: &mut Tape,
    store: &ParamStore,
    conv: &RelationalConv,
    ctx: &StrategyCtx,
    x_t: Var,
) -> Var {
    let n = ctx.n_nodes();
    let raw_rel = if conv.strategy == RtStrategy::Uniform {
        tape.constant(Tensor::ones([ctx.n_rel_edges]))
    } else {
        let (w, b) = (store.bind(tape, conv.w_rel), store.bind(tape, conv.b_rel));
        let hot = tape.constant(ctx.multi_hot.clone());
        let imp = tape.linear(hot, w, b);
        let imp = tape.reshape(imp, [ctx.n_rel_edges]);
        if conv.strategy == RtStrategy::TimeSensitive {
            let d = tape.value(x_t).dims()[1];
            let corr = tape.edge_dot(&ctx.rel_edges, x_t, (d as f32).sqrt());
            tape.mul(corr, imp)
        } else {
            imp
        }
    };
    let loops = tape.constant(Tensor::ones([n]));
    let raw = tape.concat0(&[raw_rel, loops]);
    let abs_w = tape.abs(raw);
    let ones_col = tape.constant(Tensor::ones([n, 1]));
    let deg = tape.spmm(&ctx.csr.edges, abs_w, ones_col);
    let deg = tape.reshape(deg, [n]);
    let deg = tape.clamp_min(deg, DEGREE_EPS);
    let sqrt_deg = tape.sqrt(deg);
    let one = tape.constant(Tensor::scalar(1.0));
    let dinv = tape.div(one, sqrt_deg);
    let d_src = tape.gather_src(&ctx.csr.edges, dinv);
    let d_dst = tape.gather_dst(&ctx.csr.edges, dinv);
    let scaled = tape.mul(raw, d_src);
    tape.mul(scaled, d_dst)
}

/// Eq. 2 plane by plane, `Z_t = ReLU(X_t Θ_self + Â(t) X_t Θ_nbr)`, over a
/// `(T, N, D)` window; the planes are stacked back to `(T, N, F)`.
fn reference_forward(
    tape: &mut Tape,
    store: &ParamStore,
    conv: &RelationalConv,
    ctx: &StrategyCtx,
    x3: Var,
) -> Var {
    let dims = tape.value(x3).dims().to_vec();
    let (t, n, d) = (dims[0], dims[1], dims[2]);
    let theta_self = store.bind(tape, conv.theta_self);
    let theta = store.bind(tape, conv.theta);
    let planes: Vec<Var> = (0..t)
        .map(|p| {
            let x_t = tape.slice_rows(x3, p, p + 1);
            let x_t = tape.reshape(x_t, [n, d]);
            let adj = reference_adjacency(tape, store, conv, ctx, x_t);
            let own = tape.matmul(x_t, theta_self);
            let agg = tape.spmm(&ctx.csr.edges, adj, x_t);
            let nbr = tape.matmul(agg, theta);
            let z = tape.add(own, nbr);
            tape.relu(z)
        })
        .collect();
    tape.stack0(&planes)
}

// ---------------------------------------------------------------------------
// Finite-difference gradient checks (shared harness:
// rtgcn::tensor::check_param_gradients, central differences, relative
// tolerance 1e-4).
// ---------------------------------------------------------------------------

fn grad_check_relations() -> RelationTensor {
    let mut r = RelationTensor::new(4, 2);
    r.connect(0, 1, 0);
    r.connect(1, 2, 1);
    r.connect(0, 3, 0);
    r
}

/// FD check of every parameter of one relational-layer formulation under
/// each of the three adjacency strategies.
fn relational_gradient_check(
    forward: impl Fn(&mut Tape, &ParamStore, &RelationalConv, &StrategyCtx, Var) -> Var,
) {
    let rel = grad_check_relations();
    let ctx = StrategyCtx::new(&rel);
    let mut rng = init::rng(41);
    let x = init::normal([3, 4, 2], 0.6, &mut rng);
    for strategy in RtStrategy::ALL {
        let mut store = ParamStore::new();
        let mut prng = init::rng(17);
        let conv = RelationalConv::new(&mut store, "rc", 2, 4, 2, strategy, &mut prng);
        check_param_gradients(&mut store, 1e-2, 1e-4, 16, |tape, store| {
            let x3 = tape.constant(x.clone());
            let out = forward(tape, store, &conv, &ctx, x3);
            let sq = tape.square(out);
            let s = tape.sum_all(sq);
            tape.scale(s, 0.1)
        })
        .unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
    }
}

/// The batched relational convolution (spmm_batched, edge_dot_batched,
/// concat_cols and the batched renormalisation end to end) matches central
/// differences for every parameter.
#[test]
fn fused_relational_conv_gradient_check_all_strategies() {
    relational_gradient_check(|tape, store, conv, ctx, x3| {
        conv.forward(tape, store, ctx, x3)
    });
}

/// Same check through the per-plane reference: both formulations must be
/// *correct*, not merely mutually consistent.
#[test]
fn serial_relational_conv_gradient_check_all_strategies() {
    relational_gradient_check(|tape, store, conv, ctx, x3| {
        reference_forward(tape, store, conv, ctx, x3)
    });
}

/// TCN residual block (weight-norm conv → ReLU → residual/1×1 skip): FD
/// check over v, gain, bias and the skip projection.
#[test]
fn temporal_conv_block_gradient_check() {
    let mut store = ParamStore::new();
    let mut rng = init::rng(24);
    let spec = ConvSpec::new(3, 2, 1);
    let block = TemporalConvBlock::new(&mut store, "tcn", 3, 4, spec, 0.0, &mut rng);
    assert!(block.skip.is_some(), "channel change must engage the 1×1 skip");
    let x = init::normal([6, 2, 3], 0.5, &mut rng);
    // eps is deliberately small: the block's ReLU means a larger probe step
    // can walk an activation across its kink and corrupt the central
    // difference.
    check_param_gradients(&mut store, 2e-3, 1e-4, 12, |tape, store| {
        let xv = tape.constant(x.clone());
        let mut drng = init::rng(0);
        let y = block.forward(tape, store, xv, false, &mut drng);
        let sq = tape.square(y);
        let s = tape.sum_all(sq);
        tape.scale(s, 0.1)
    })
    .unwrap();
}

/// The combined regression + pairwise-ranking objective (Eq. 9): FD check of
/// ∂loss/∂scores through `combined_rank_loss_parts`.
#[test]
fn combined_rank_loss_gradient_check() {
    let mut store = ParamStore::new();
    let scores =
        store.add("scores", Tensor::from_vec(vec![0.31, -0.52, 0.84, 0.12, -0.27]));
    let y = Tensor::from_vec(vec![0.02, -0.04, 0.07, -0.01, 0.03]);
    check_param_gradients(&mut store, 1e-2, 1e-4, 8, |tape, store| {
        let s = store.bind(tape, scores);
        tape.combined_rank_loss_parts(s, &y, 0.1).0
    })
    .unwrap();
}

// ---------------------------------------------------------------------------
// Batched vs per-plane parity of the relational layer. Everything after it
// in RT-GCN is one code path, so this is the only place the two
// formulations can differ.
// ---------------------------------------------------------------------------

/// Output, input gradient and every parameter gradient of one formulation
/// under the linear loss `Σ R ⊙ Z`, labelled for the error message.
fn layer_outputs_and_grads(
    store: &mut ParamStore,
    x: &Tensor,
    r: &Tensor,
    forward: impl FnOnce(&mut Tape, &ParamStore, Var) -> Var,
) -> Vec<(String, Vec<f32>)> {
    let mut tape = Tape::new();
    let x3 = tape.leaf(x.clone());
    let z = forward(&mut tape, store, x3);
    let rv = tape.constant(r.clone());
    let weighted = tape.mul(z, rv);
    let loss = tape.sum_all(weighted);
    tape.backward(loss);
    store.zero_grads();
    store.absorb_grads(&tape);
    let mut out = vec![
        ("output".to_string(), tape.value(z).data().to_vec()),
        ("input grad".to_string(), tape.grad(x3).unwrap().data().to_vec()),
    ];
    out.extend(store.ids().map(|id| (store.name(id).to_string(), store.grad(id).data().to_vec())));
    out
}

/// `RelationalConv::forward` against [`reference_forward`] on a random
/// `(T, N, D)` window with `F` filters: outputs and all gradients agree to
/// 1e-6 relative.
fn assert_layer_parity(
    rel: &RelationTensor,
    strategy: RtStrategy,
    t: usize,
    d: usize,
    f: usize,
    seed: u64,
) {
    let n = rel.num_stocks();
    let ctx = StrategyCtx::new(rel);
    let mut rng = init::rng(seed ^ 0x9e37);
    let x = init::normal([t, n, d], 0.5, &mut rng);
    let r = init::normal([t, n, f], 1.0, &mut rng);
    let mut store = ParamStore::new();
    let mut prng = init::rng(seed);
    let conv = RelationalConv::new(&mut store, "rc", d, f, ctx.k_types, strategy, &mut prng);
    let batched = layer_outputs_and_grads(&mut store, &x, &r, |tape, store, x3| {
        conv.forward(tape, store, &ctx, x3)
    });
    let serial = layer_outputs_and_grads(&mut store, &x, &r, |tape, store, x3| {
        reference_forward(tape, store, &conv, &ctx, x3)
    });
    for ((what, a), (_, b)) in batched.iter().zip(&serial) {
        assert_eq!(a.len(), b.len(), "{what}");
        for (i, (a, b)) in a.iter().zip(b).enumerate() {
            assert!(
                (a - b).abs() <= 1e-6 * b.abs().max(1.0),
                "{strategy:?} t={t} n={n} d={d} f={f}: {what}[{i}] batched {a} vs per-plane {b}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The batched relational layer and the per-plane reference agree to
    /// 1e-6 on outputs, the input gradient and every parameter gradient,
    /// across random window lengths, universe sizes, feature and filter
    /// counts, relation types, strategies and random (possibly empty, i.e.
    /// self-loops-only) graphs.
    #[test]
    fn fused_serial_parity_random_shapes(
        t in 1usize..6,
        n in 2usize..8,
        d in 1usize..5,
        f in 1usize..6,
        k in 1usize..4,
        strat_i in 0usize..3,
        edges in proptest::collection::vec((0usize..8, 0usize..8, 0usize..4), 0..16),
        seed in 0u64..1000,
    ) {
        let mut rel = RelationTensor::new(n, k);
        for (i, j, ty) in edges {
            let (i, j, ty) = (i % n, j % n, ty % k);
            if i != j {
                rel.connect(i, j, ty);
            }
        }
        assert_layer_parity(&rel, RtStrategy::ALL[strat_i], t, d, f, seed);
    }
}

/// Degenerate graphs exercised explicitly: no relation edges at all (the
/// renormalised adjacency is self-loops only) and a disconnected graph with
/// isolated nodes next to one connected pair.
#[test]
fn fused_serial_parity_degenerate_graphs() {
    for strategy in RtStrategy::ALL {
        // No edges: adjacency degenerates to pure self-loops.
        let empty = RelationTensor::new(5, 1);
        assert_layer_parity(&empty, strategy, 4, 2, 3, 3);
        // Disconnected: nodes 2..=5 isolated, one related pair at 0–1.
        let mut disc = RelationTensor::new(6, 2);
        disc.connect(0, 1, 1);
        assert_layer_parity(&disc, strategy, 3, 3, 4, 5);
    }
}

/// A healthy short fit must come back `Healthy` with finite gradient and
/// weight norms for every monitored epoch — the end-to-end contract of the
/// training-health monitor through the umbrella crate.
#[test]
fn smoke_fit_reports_finite_health_diagnostics() {
    use rtgcn::core::{RtGcn, RtGcnConfig, StockRanker};
    use rtgcn::market::{Market, RelationKind, Scale, StockDataset, UniverseSpec};

    let _guard = tel::test_scope(tel::Level::Summary);
    let mut spec = UniverseSpec::of(Market::Csi, Scale::Small);
    spec.stocks = 8;
    spec.train_days = 30;
    spec.test_days = 6;
    let ds = StockDataset::generate(spec, 9);
    let cfg = RtGcnConfig {
        t_steps: 6,
        n_features: 2,
        rel_filters: 6,
        temporal_filters: 6,
        epochs: 2,
        ..RtGcnConfig::default()
    };
    let mut model = RtGcn::new(cfg, &ds.relations(RelationKind::Both), 4);
    let report = model.fit(&ds);
    assert_eq!(report.health, tel::health::HealthVerdict::Healthy);
    assert_eq!(report.epoch_health.len(), 2);
    for eh in &report.epoch_health {
        assert!(eh.grad_norm.is_finite() && eh.grad_norm > 0.0, "{eh:?}");
        assert!(eh.weight_norm.is_finite() && eh.weight_norm > 0.0, "{eh:?}");
        assert!(eh.loss.is_finite(), "{eh:?}");
        assert_eq!(eh.non_finite_steps, 0);
    }
}
