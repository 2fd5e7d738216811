//! Sparse (edge-list) differentiable ops — the kernels behind every graph
//! layer in the workspace: GCN propagation, the time-sensitive strategy's
//! per-edge weights, and GAT's per-destination attention softmax.
//!
//! Edges are `[src, dst]` pairs shared via `Arc` so backward closures don't
//! copy potentially large lists.

use crate::tape::{Tape, Var};
use crate::tensor::Tensor;
use std::sync::Arc;

/// A shared edge list over `n` nodes. Self-loops and duplicates are allowed
/// (self-loops are how GCN's `A + I` renormalisation is expressed).
#[derive(Clone, Debug)]
pub struct Edges {
    pub n: usize,
    pub pairs: Arc<Vec<[usize; 2]>>,
}

impl Edges {
    pub fn new(n: usize, pairs: Vec<[usize; 2]>) -> Self {
        for &[s, d] in &pairs {
            assert!(s < n && d < n, "edge ({s},{d}) out of bounds for {n} nodes");
        }
        Edges { n, pairs: Arc::new(pairs) }
    }

    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// [`Edges`] plus CSR-style groupings of the edge ids by destination and by
/// source, built once and shared via `Arc`.
///
/// Grouping is *stable*: within one destination (or source) the edge ids keep
/// their original edge-list order, so a kernel that walks a CSR row performs
/// the exact same f32 additions, in the exact same order, as the edge-list
/// loop in [`Tape::spmm`] — the fused path is bit-identical per output
/// element, which is what makes tight fused-vs-serial parity tests possible.
#[derive(Clone, Debug)]
pub struct CsrEdges {
    pub edges: Edges,
    /// `dst_ptr[d]..dst_ptr[d+1]` indexes `dst_idx`, the edge ids whose
    /// destination is `d` (forward propagation gathers over these).
    dst_ptr: Arc<Vec<usize>>,
    dst_idx: Arc<Vec<usize>>,
    /// Same layout keyed by source (backward feature-gradient scatter).
    src_ptr: Arc<Vec<usize>>,
    src_idx: Arc<Vec<usize>>,
}

/// Stable counting-sort of edge ids by one endpoint (`which`: 0 = src,
/// 1 = dst). Returns `(ptr, idx)` with `ptr.len() == n + 1`.
fn group_by_endpoint(n: usize, pairs: &[[usize; 2]], which: usize) -> (Vec<usize>, Vec<usize>) {
    let mut ptr = vec![0usize; n + 1];
    for p in pairs {
        ptr[p[which] + 1] += 1;
    }
    for i in 0..n {
        ptr[i + 1] += ptr[i];
    }
    let mut pos = ptr.clone();
    let mut idx = vec![0usize; pairs.len()];
    for (e, p) in pairs.iter().enumerate() {
        idx[pos[p[which]]] = e;
        pos[p[which]] += 1;
    }
    (ptr, idx)
}

impl CsrEdges {
    pub fn new(edges: Edges) -> Self {
        let (dst_ptr, dst_idx) = group_by_endpoint(edges.n, &edges.pairs, 1);
        let (src_ptr, src_idx) = group_by_endpoint(edges.n, &edges.pairs, 0);
        CsrEdges {
            edges,
            dst_ptr: Arc::new(dst_ptr),
            dst_idx: Arc::new(dst_idx),
            src_ptr: Arc::new(src_ptr),
            src_idx: Arc::new(src_idx),
        }
    }

    pub fn from_pairs(n: usize, pairs: Vec<[usize; 2]>) -> Self {
        Self::new(Edges::new(n, pairs))
    }

    pub fn n(&self) -> usize {
        self.edges.n
    }

    pub fn len(&self) -> usize {
        self.edges.len()
    }

    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Edge ids arriving at destination node `d`, in original edge order.
    fn in_edges(&self, d: usize) -> &[usize] {
        &self.dst_idx[self.dst_ptr[d]..self.dst_ptr[d + 1]]
    }

    /// Edge ids leaving source node `s`, in original edge order.
    fn out_edges(&self, s: usize) -> &[usize] {
        &self.src_idx[self.src_ptr[s]..self.src_ptr[s + 1]]
    }
}

/// Forward kernel of [`Tape::spmm_batched`]:
/// `out[p, d] += w[p?, e] · x[p, s]` with the weight plane shared when
/// `plane_stride == 0`.
fn spmm_csr_forward(
    csr: &CsrEdges,
    wd: &[f32],
    plane_stride: usize,
    xd: &[f32],
    planes: usize,
    f: usize,
    out: &mut [f32],
) {
    let n = csr.n();
    for r in 0..planes * n {
        let (p, d) = (r / n, r % n);
        let row = &mut out[r * f..(r + 1) * f];
        let woff = p * plane_stride;
        for &e in csr.in_edges(d) {
            let w = wd[woff + e];
            if w == 0.0 {
                continue;
            }
            let s = csr.edges.pairs[e][0];
            let src = &xd[(p * n + s) * f..(p * n + s + 1) * f];
            for (o, &v) in row.iter_mut().zip(src) {
                *o += w * v;
            }
        }
    }
}

/// Backward kernel for the CSR propagation: weight gradients
/// `gw[p?, e] = Σ ⟨g[p, d], x[p, s]⟩` (summed over planes when the weight is
/// shared) and feature gradients `gx[p, s] = Σ_{e ∈ out(s)} w[p?, e] · g[p, d]`
/// via the source-grouped layout.
fn spmm_csr_backward(
    csr: &CsrEdges,
    wd: &[f32],
    plane_stride: usize,
    xd: &[f32],
    gd: &[f32],
    planes: usize,
    f: usize,
) -> (Vec<f32>, Vec<f32>) {
    let n = csr.n();
    let e_count = csr.len();
    let pairs = &csr.edges.pairs;
    let mut gw = crate::spares::filled(wd.len(), 0.0);
    if plane_stride == 0 {
        // Shared weights: one entry per edge, planes accumulated inside.
        for (g, &[s, d]) in gw.iter_mut().zip(pairs.iter()) {
            let mut acc = 0.0f32;
            for p in 0..planes {
                let gdst = &gd[(p * n + d) * f..(p * n + d + 1) * f];
                let src = &xd[(p * n + s) * f..(p * n + s + 1) * f];
                for (&gv, &xv) in gdst.iter().zip(src) {
                    acc += gv * xv;
                }
            }
            *g = acc;
        }
    } else {
        for (r, g) in gw.iter_mut().enumerate() {
            let (p, e) = (r / e_count, r % e_count);
            let [s, d] = pairs[e];
            let gdst = &gd[(p * n + d) * f..(p * n + d + 1) * f];
            let src = &xd[(p * n + s) * f..(p * n + s + 1) * f];
            let mut acc = 0.0f32;
            for (&gv, &xv) in gdst.iter().zip(src) {
                acc += gv * xv;
            }
            *g = acc;
        }
    }
    let mut gx = crate::spares::filled(xd.len(), 0.0);
    for r in 0..planes * n {
        let (p, s) = (r / n, r % n);
        let row = &mut gx[r * f..(r + 1) * f];
        let woff = p * plane_stride;
        for &e in csr.out_edges(s) {
            let w = wd[woff + e];
            if w == 0.0 {
                continue;
            }
            let d = pairs[e][1];
            let gdst = &gd[(p * n + d) * f..(p * n + d + 1) * f];
            for (o, &gv) in row.iter_mut().zip(gdst) {
                *o += w * gv;
            }
        }
    }
    (gw, gx)
}

impl Tape {
    /// Sparse weighted aggregation: `out[d] += w_e · x[s]` over all edges
    /// `e = (s, d)`. `weights: (E)`, `x: (N, F)` → `(N, F)`.
    ///
    /// Gradients: `∂L/∂w_e = ⟨g[d], x[s]⟩` and `∂L/∂x[s] += w_e · g[d]`, so
    /// the op is differentiable w.r.t. both the adjacency weights (needed by
    /// the weighted and time-sensitive strategies) and the node features.
    pub fn spmm(&mut self, edges: &Edges, weights: Var, x: Var) -> Var {
        static CALLS: std::sync::OnceLock<rtgcn_telemetry::Counter> = std::sync::OnceLock::new();
        crate::telemetry_hooks::kernel_counter(&CALLS, "tensor.spmm.calls").inc(1);
        // Summary-level with a short stable leaf name: hot kernels must land
        // under stable span paths (`…/relational/spmm`) so profiles and the
        // span-level regression attribution can name them.
        let _t = rtgcn_telemetry::span("spmm");
        let wv = self.value(weights);
        let xv = self.value(x);
        assert_eq!(wv.numel(), edges.len(), "one weight per edge required");
        assert_eq!(xv.rank(), 2, "spmm features must be (N, F)");
        assert_eq!(xv.dims()[0], edges.n, "feature rows must equal node count");
        let f = xv.dims()[1];
        let n = edges.n;
        let mut out = Tensor::zeros([n, f]);
        {
            let (od, wd, xd) = (out.data_mut(), wv.data(), xv.data());
            for (e, &[s, d]) in edges.pairs.iter().enumerate() {
                let w = wd[e];
                if w == 0.0 {
                    continue;
                }
                let src = &xd[s * f..(s + 1) * f];
                let dst = &mut od[d * f..(d + 1) * f];
                for (o, &v) in dst.iter_mut().zip(src) {
                    *o += w * v;
                }
            }
        }
        let pairs = Arc::clone(&edges.pairs);
        self.push_op_named("spmm", out, vec![weights, x], move |ctx| {
            let (wd, xd, g) = (ctx.parents[0].data(), ctx.parents[1].data(), ctx.grad.data());
            let mut gw = vec![0.0f32; wd.len()];
            let mut gx = vec![0.0f32; xd.len()];
            for (e, &[s, d]) in pairs.iter().enumerate() {
                let gdst = &g[d * f..(d + 1) * f];
                let src = &xd[s * f..(s + 1) * f];
                let mut acc = 0.0;
                for (&gv, &xv) in gdst.iter().zip(src) {
                    acc += gv * xv;
                }
                gw[e] = acc;
                let w = wd[e];
                if w != 0.0 {
                    let gsrc = &mut gx[s * f..(s + 1) * f];
                    for (o, &gv) in gsrc.iter_mut().zip(gdst) {
                        *o += w * gv;
                    }
                }
            }
            vec![
                Tensor::new(ctx.parents[0].shape().clone(), gw),
                Tensor::new(ctx.parents[1].shape().clone(), gx),
            ]
        })
    }

    /// Per-edge scaled dot product: `y_e = ⟨x[s], x[d]⟩ / scale` — the
    /// *time-correlation* term of the time-sensitive strategy (Eq. 5, where
    /// `scale = √n` with `n` the feature dimension).
    pub fn edge_dot(&mut self, edges: &Edges, x: Var, scale: f32) -> Var {
        let xv = self.value(x);
        assert_eq!(xv.rank(), 2, "edge_dot features must be (N, F)");
        assert_eq!(xv.dims()[0], edges.n, "feature rows must equal node count");
        assert!(scale > 0.0, "edge_dot scale must be positive");
        let f = xv.dims()[1];
        let inv = 1.0 / scale;
        let mut out = Vec::with_capacity(edges.len());
        {
            let xd = xv.data();
            for &[s, d] in edges.pairs.iter() {
                let a = &xd[s * f..(s + 1) * f];
                let b = &xd[d * f..(d + 1) * f];
                out.push(a.iter().zip(b).map(|(&u, &v)| u * v).sum::<f32>() * inv);
            }
        }
        let pairs = Arc::clone(&edges.pairs);
        self.push_op_named("edge_dot", Tensor::from_vec(out), vec![x], move |ctx| {
            let (xd, g) = (ctx.parents[0].data(), ctx.grad.data());
            let mut gx = vec![0.0f32; xd.len()];
            for (e, &[s, d]) in pairs.iter().enumerate() {
                let ge = g[e] * inv;
                if ge == 0.0 {
                    continue;
                }
                for j in 0..f {
                    gx[s * f + j] += ge * xd[d * f + j];
                    gx[d * f + j] += ge * xd[s * f + j];
                }
            }
            vec![Tensor::new(ctx.parents[0].shape().clone(), gx)]
        })
    }

    /// Softmax over the incoming edges of each destination node (numerically
    /// stable): `α_e = softmax_{e'∈in(d)}(y_e)`. One plane only; the test
    /// oracle for [`Tape::segment_softmax_batched`].
    #[cfg(test)]
    pub(crate) fn segment_softmax(&mut self, edges: &Edges, logits: Var) -> Var {
        let lv = self.value(logits);
        assert_eq!(lv.numel(), edges.len(), "one logit per edge required");
        let n = edges.n;
        let ld = lv.data();
        let mut max = vec![f32::NEG_INFINITY; n];
        for (e, &[_, d]) in edges.pairs.iter().enumerate() {
            max[d] = max[d].max(ld[e]);
        }
        let mut z = vec![0.0f32; n];
        let mut exp = vec![0.0f32; edges.len()];
        for (e, &[_, d]) in edges.pairs.iter().enumerate() {
            let v = (ld[e] - max[d]).exp();
            exp[e] = v;
            z[d] += v;
        }
        for (e, &[_, d]) in edges.pairs.iter().enumerate() {
            exp[e] /= z[d].max(1e-12);
        }
        let pairs = Arc::clone(&edges.pairs);
        self.push_op_named("segment_softmax", Tensor::from_vec(exp), vec![logits], move |ctx| {
            // Same Jacobian as row softmax, per destination group:
            // dx_e = y_e (g_e − Σ_{e'∈in(d)} g_{e'} y_{e'}).
            let (yd, g) = (ctx.output.data(), ctx.grad.data());
            let mut dot = vec![0.0f32; n];
            for (e, &[_, d]) in pairs.iter().enumerate() {
                dot[d] += g[e] * yd[e];
            }
            let mut gx = vec![0.0f32; yd.len()];
            for (e, &[_, d]) in pairs.iter().enumerate() {
                gx[e] = yd[e] * (g[e] - dot[d]);
            }
            vec![Tensor::new(ctx.parents[0].shape().clone(), gx)]
        })
    }

    /// Gather per-edge values from a per-node vector at the edge sources:
    /// `y_e = v[src_e]`. Gradient scatter-adds. Convenience for degree
    /// normalisation terms.
    pub fn gather_src(&mut self, edges: &Edges, v: Var) -> Var {
        self.gather_endpoint(edges, v, 0)
    }

    /// As [`Tape::gather_src`] but at edge destinations.
    pub fn gather_dst(&mut self, edges: &Edges, v: Var) -> Var {
        self.gather_endpoint(edges, v, 1)
    }

    fn gather_endpoint(&mut self, edges: &Edges, v: Var, which: usize) -> Var {
        let vv = self.value(v);
        assert_eq!(vv.numel(), edges.n, "per-node vector length mismatch");
        let vd = vv.data();
        let out: Vec<f32> = edges.pairs.iter().map(|p| vd[p[which]]).collect();
        let pairs = Arc::clone(&edges.pairs);
        self.push_op_named("gather_edge", Tensor::from_vec(out), vec![v], move |ctx| {
            let mut gv = vec![0.0f32; ctx.parents[0].numel()];
            for (e, p) in pairs.iter().enumerate() {
                gv[p[which]] += ctx.grad.data()[e];
            }
            vec![Tensor::new(ctx.parents[0].shape().clone(), gv)]
        })
    }

    /// Time-batched propagation — the fused kernel behind the RT-GCN forward
    /// pass: one op aggregates all `P` time planes at once instead of `P`
    /// separate [`Tape::spmm`] nodes.
    ///
    /// `x: (P, N, F)`; `weights` is either `(E)` (one adjacency shared by
    /// every plane — Uniform/Weighted strategies) or `(P, E)` (per-plane
    /// adjacency — TimeSensitive). Returns `(P, N, F)`. Gradients flow to
    /// both operands; for shared weights the per-plane weight gradients are
    /// summed over `P`.
    pub fn spmm_batched(&mut self, csr: &CsrEdges, weights: Var, x: Var) -> Var {
        static CALLS: std::sync::OnceLock<rtgcn_telemetry::Counter> = std::sync::OnceLock::new();
        crate::telemetry_hooks::kernel_counter(&CALLS, "tensor.spmm_batched.calls").inc(1);
        let _t = rtgcn_telemetry::span("spmm_batched");
        let wv = self.value(weights);
        let xv = self.value(x);
        assert_eq!(xv.rank(), 3, "spmm_batched features must be (P, N, F)");
        let (p, n, f) = (xv.dims()[0], xv.dims()[1], xv.dims()[2]);
        assert_eq!(n, csr.n(), "feature rows must equal node count");
        let plane_stride = match wv.rank() {
            1 => {
                assert_eq!(wv.numel(), csr.len(), "one weight per edge required");
                0
            }
            2 => {
                assert_eq!(
                    wv.dims(),
                    &[p, csr.len()][..],
                    "per-plane weights must be (P, E)"
                );
                csr.len()
            }
            // lint:allow(panic-free-hot-paths) weight rank is fixed by the call sites; anything else is a programming error
            r => panic!("spmm_batched weights must be (E) or (P, E), got rank {r}"),
        };
        let mut out = Tensor::zeros([p, n, f]);
        spmm_csr_forward(csr, wv.data(), plane_stride, xv.data(), p, f, out.data_mut());
        let csr = csr.clone();
        self.push_op_named("spmm_batched", out, vec![weights, x], move |ctx| {
            let (wd, xd, gd) = (ctx.parents[0].data(), ctx.parents[1].data(), ctx.grad.data());
            let (gw, gx) = spmm_csr_backward(&csr, wd, plane_stride, xd, gd, p, f);
            vec![
                Tensor::new(ctx.parents[0].shape().clone(), gw),
                Tensor::new(ctx.parents[1].shape().clone(), gx),
            ]
        })
    }

    /// Time-batched [`Tape::edge_dot`]: `y[p, e] = ⟨x[p, s], x[p, d]⟩ / scale`
    /// for all planes at once. `x: (P, N, F)` → `(P, E)`. One op replaces `P`
    /// per-plane nodes when the time-sensitive strategy recomputes its
    /// `XᵀX/√n` correlation factor each step.
    pub fn edge_dot_batched(&mut self, edges: &Edges, x: Var, scale: f32) -> Var {
        static CALLS: std::sync::OnceLock<rtgcn_telemetry::Counter> = std::sync::OnceLock::new();
        crate::telemetry_hooks::kernel_counter(&CALLS, "tensor.edge_dot_batched.calls").inc(1);
        let xv = self.value(x);
        assert_eq!(xv.rank(), 3, "edge_dot_batched features must be (P, N, F)");
        assert!(scale > 0.0, "edge_dot_batched scale must be positive");
        let (p, n, f) = (xv.dims()[0], xv.dims()[1], xv.dims()[2]);
        assert_eq!(n, edges.n, "feature rows must equal node count");
        let e_count = edges.len();
        let inv = 1.0 / scale;
        let mut out = Tensor::zeros([p, e_count]);
        {
            let xd = xv.data();
            let od = out.data_mut();
            let pairs = &edges.pairs;
            for pi in 0..p {
                let plane = &xd[pi * n * f..(pi + 1) * n * f];
                let row = &mut od[pi * e_count..(pi + 1) * e_count];
                for (e, &[s, d]) in pairs.iter().enumerate() {
                    let a = &plane[s * f..(s + 1) * f];
                    let b = &plane[d * f..(d + 1) * f];
                    row[e] = a.iter().zip(b).map(|(&u, &v)| u * v).sum::<f32>() * inv;
                }
            }
        }
        let pairs = Arc::clone(&edges.pairs);
        self.push_op_named("edge_dot_batched", out, vec![x], move |ctx| {
            let (xd, gd) = (ctx.parents[0].data(), ctx.grad.data());
            let mut gx = crate::spares::filled(xd.len(), 0.0);
            for pi in 0..p {
                let plane = &xd[pi * n * f..(pi + 1) * n * f];
                let grow = &mut gx[pi * n * f..(pi + 1) * n * f];
                let g = &gd[pi * e_count..(pi + 1) * e_count];
                for (e, &[s, d]) in pairs.iter().enumerate() {
                    let ge = g[e] * inv;
                    if ge == 0.0 {
                        continue;
                    }
                    for j in 0..f {
                        grow[s * f + j] += ge * plane[d * f + j];
                        grow[d * f + j] += ge * plane[s * f + j];
                    }
                }
            }
            vec![Tensor::new(ctx.parents[0].shape().clone(), gx)]
        })
    }

    /// Per-plane [`Tape::gather_src`]: `y[p, e] = v[p, src_e]` for
    /// `v: (P, N)` → `(P, E)`.
    pub fn gather_src_batched(&mut self, edges: &Edges, v: Var) -> Var {
        self.gather_endpoint_batched(edges, v, 0)
    }

    /// Per-plane [`Tape::gather_dst`]: `y[p, e] = v[p, dst_e]`.
    pub fn gather_dst_batched(&mut self, edges: &Edges, v: Var) -> Var {
        self.gather_endpoint_batched(edges, v, 1)
    }

    fn gather_endpoint_batched(&mut self, edges: &Edges, v: Var, which: usize) -> Var {
        let vv = self.value(v);
        assert_eq!(vv.rank(), 2, "batched gather expects (P, N)");
        let (p, n) = (vv.dims()[0], vv.dims()[1]);
        assert_eq!(n, edges.n, "per-node vector length mismatch");
        let e_count = edges.len();
        let vd = vv.data();
        let mut out = crate::spares::with_capacity(p * e_count);
        for pi in 0..p {
            let plane = &vd[pi * n..(pi + 1) * n];
            out.extend(edges.pairs.iter().map(|pair| plane[pair[which]]));
        }
        let pairs = Arc::clone(&edges.pairs);
        self.push_op_named("gather_edge_batched", Tensor::new([p, e_count], out), vec![v], move |ctx| {
            let gd = ctx.grad.data();
            let mut gv = vec![0.0f32; ctx.parents[0].numel()];
            for pi in 0..p {
                let g = &gd[pi * e_count..(pi + 1) * e_count];
                let grow = &mut gv[pi * n..(pi + 1) * n];
                for (e, pair) in pairs.iter().enumerate() {
                    grow[pair[which]] += g[e];
                }
            }
            vec![Tensor::new(ctx.parents[0].shape().clone(), gv)]
        })
    }

    /// Softmax over the incoming edges of each destination node
    /// (numerically stable), `α_e = softmax_{e'∈in(d)}(y_e)`, independently
    /// within each plane. `logits: (P, E)` → `(P, E)`. Used by the batched
    /// GAT attention.
    pub fn segment_softmax_batched(&mut self, edges: &Edges, logits: Var) -> Var {
        let lv = self.value(logits);
        assert_eq!(lv.rank(), 2, "batched segment softmax expects (P, E)");
        let (p, e_count) = (lv.dims()[0], lv.dims()[1]);
        assert_eq!(e_count, edges.len(), "one logit per edge required");
        let n = edges.n;
        let mut out = Tensor::zeros([p, e_count]);
        {
            let ld = lv.data();
            let od = out.data_mut();
            let pairs = &edges.pairs;
            for pi in 0..p {
                let l = &ld[pi * e_count..(pi + 1) * e_count];
                let row = &mut od[pi * e_count..(pi + 1) * e_count];
                let mut max = vec![f32::NEG_INFINITY; n];
                for (e, &[_, d]) in pairs.iter().enumerate() {
                    max[d] = max[d].max(l[e]);
                }
                let mut z = vec![0.0f32; n];
                for (e, &[_, d]) in pairs.iter().enumerate() {
                    let v = (l[e] - max[d]).exp();
                    row[e] = v;
                    z[d] += v;
                }
                for (e, &[_, d]) in pairs.iter().enumerate() {
                    row[e] /= z[d].max(1e-12);
                }
            }
        }
        let pairs = Arc::clone(&edges.pairs);
        self.push_op_named("segment_softmax_batched", out, vec![logits], move |ctx| {
            let (yd, gd) = (ctx.output.data(), ctx.grad.data());
            let mut gx = vec![0.0f32; yd.len()];
            for pi in 0..p {
                let y = &yd[pi * e_count..(pi + 1) * e_count];
                let g = &gd[pi * e_count..(pi + 1) * e_count];
                let grow = &mut gx[pi * e_count..(pi + 1) * e_count];
                let mut dot = vec![0.0f32; n];
                for (e, &[_, d]) in pairs.iter().enumerate() {
                    dot[d] += g[e] * y[e];
                }
                for (e, &[_, d]) in pairs.iter().enumerate() {
                    grow[e] = y[e] * (g[e] - dot[d]);
                }
            }
            vec![Tensor::new(ctx.parents[0].shape().clone(), gx)]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::check_gradient;

    fn path_edges() -> Edges {
        // 0 -> 1 -> 2 plus self loops.
        Edges::new(3, vec![[0, 1], [1, 2], [0, 0], [1, 1], [2, 2]])
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        // spmm with edges of a dense matrix == A·X.
        let a = Tensor::new([3, 3], vec![0.5, 0.2, 0.0, 0.1, 0.0, 0.7, 0.0, 0.3, 0.9]);
        let x = Tensor::new([3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let mut pairs = Vec::new();
        let mut weights = Vec::new();
        for d in 0..3 {
            for s in 0..3 {
                if a.at(&[d, s]) != 0.0 {
                    pairs.push([s, d]);
                    weights.push(a.at(&[d, s]));
                }
            }
        }
        let edges = Edges::new(3, pairs);
        let mut tape = Tape::new();
        let w = tape.leaf(Tensor::from_vec(weights));
        let xv = tape.leaf(x.clone());
        let y = tape.spmm(&edges, w, xv);
        let expect = crate::linalg::matmul(&a, &x);
        assert!(tape.value(y).allclose(&expect, 1e-5));
    }

    #[test]
    fn spmm_grad_check_weights_and_features() {
        let edges = path_edges();
        let x0 = Tensor::new([3, 2], vec![0.4, -0.8, 1.2, 0.3, -0.5, 0.9]);
        let w0 = Tensor::from_vec(vec![0.7, -0.2, 1.0, 0.5, 0.3]);
        let (e1, x1) = (edges.clone(), x0.clone());
        check_gradient(&w0, 1e-3, 1e-2, move |tape, w| {
            let x = tape.leaf(x1.clone());
            let y = tape.spmm(&e1, w, x);
            let sq = tape.square(y);
            tape.sum_all(sq)
        })
        .unwrap();
        let (e2, w2) = (edges, w0);
        check_gradient(&x0, 1e-3, 1e-2, move |tape, x| {
            let w = tape.leaf(w2.clone());
            let y = tape.spmm(&e2, w, x);
            let sq = tape.square(y);
            tape.sum_all(sq)
        })
        .unwrap();
    }

    #[test]
    fn edge_dot_values() {
        let edges = Edges::new(2, vec![[0, 1]]);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::new([2, 2], vec![1., 2., 3., 4.]));
        let y = tape.edge_dot(&edges, x, 2.0f32.sqrt());
        let expect = (1.0 * 3.0 + 2.0 * 4.0) / 2.0f32.sqrt();
        assert!((tape.value(y).data()[0] - expect).abs() < 1e-5);
    }

    #[test]
    fn edge_dot_grad_check_including_self_loop() {
        let edges = Edges::new(3, vec![[0, 1], [2, 2], [1, 0]]);
        let x0 = Tensor::new([3, 2], vec![0.3, -0.6, 0.9, 0.2, -0.4, 1.1]);
        check_gradient(&x0, 1e-3, 2e-2, move |tape, x| {
            let y = tape.edge_dot(&edges, x, 1.5);
            let w = tape.leaf(Tensor::from_vec(vec![1.0, -2.0, 0.5]));
            let p = tape.mul(y, w);
            tape.sum_all(p)
        })
        .unwrap();
    }

    #[test]
    fn segment_softmax_sums_to_one_per_destination() {
        let edges = Edges::new(3, vec![[0, 2], [1, 2], [2, 2], [0, 1], [1, 1]]);
        let mut tape = Tape::new();
        let logits = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 1.0]));
        let y = tape.segment_softmax(&edges, logits);
        let yd = tape.value(y).data();
        assert!((yd[0] + yd[1] + yd[2] - 1.0).abs() < 1e-5, "dst 2 normalises");
        assert!((yd[3] + yd[4] - 1.0).abs() < 1e-5, "dst 1 normalises");
        assert!(yd[2] > yd[1] && yd[1] > yd[0], "order preserved");
    }

    #[test]
    fn segment_softmax_grad_check() {
        let edges = Edges::new(3, vec![[0, 2], [1, 2], [2, 2], [0, 1], [1, 1]]);
        let l0 = Tensor::from_vec(vec![0.5, -0.3, 0.8, 0.1, -0.9]);
        check_gradient(&l0, 1e-3, 1e-2, move |tape, l| {
            let y = tape.segment_softmax(&edges, l);
            let w = tape.leaf(Tensor::from_vec(vec![2.0, -1.0, 0.5, 1.5, 3.0]));
            let p = tape.mul(y, w);
            tape.sum_all(p)
        })
        .unwrap();
    }

    #[test]
    fn gather_src_dst() {
        let edges = Edges::new(3, vec![[0, 1], [2, 0]]);
        let mut tape = Tape::new();
        let v = tape.leaf(Tensor::from_vec(vec![10., 20., 30.]));
        let s = tape.gather_src(&edges, v);
        let d = tape.gather_dst(&edges, v);
        assert_eq!(tape.value(s).data(), &[10., 30.]);
        assert_eq!(tape.value(d).data(), &[20., 10.]);
        let sum = tape.add(s, d);
        let total = tape.sum_all(sum);
        tape.backward(total);
        // node 0: src of e0 + dst of e1 -> 2; node 1: dst of e0 -> 1; node 2: src of e1 -> 1.
        assert_eq!(tape.grad(v).unwrap().data(), &[2., 1., 1.]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn edges_bounds_checked() {
        let _ = Edges::new(2, vec![[0, 2]]);
    }

    fn lcg(seed: u64) -> impl FnMut() -> f32 {
        let mut s = seed;
        move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        }
    }

    #[test]
    fn csr_grouping_is_stable() {
        // Duplicate (0,1) edges must keep their original relative order.
        let csr = CsrEdges::from_pairs(3, vec![[0, 1], [2, 1], [0, 1], [1, 1]]);
        assert_eq!(csr.in_edges(1), &[0, 1, 2, 3]);
        assert_eq!(csr.in_edges(0), &[] as &[usize]);
        assert_eq!(csr.out_edges(0), &[0, 2]);
        assert_eq!(csr.out_edges(1), &[3]);
        assert_eq!(csr.out_edges(2), &[1]);
    }

    #[test]
    fn spmm_batched_single_plane_bit_equal_to_edge_list_spmm() {
        // One plane with shared weights: the form RSR and STHAN-SR propagate in.
        let mut next = lcg(3);
        let edges = Edges::new(4, vec![[0, 1], [1, 2], [3, 0], [2, 2], [0, 0], [1, 1], [2, 2], [3, 3]]);
        let csr = CsrEdges::new(edges.clone());
        let w0 = Tensor::from_vec((0..edges.len()).map(|_| next()).collect());
        let x0 = Tensor::new([4, 3], (0..12).map(|_| next()).collect());
        let mut tape = Tape::new();
        let (w, x) = (tape.leaf(w0.clone()), tape.leaf(x0.clone()));
        let a = tape.spmm(&edges, w, x);
        let (w2, x2) = (tape.leaf(w0), tape.leaf(x0.reshape([1, 4, 3])));
        let b = tape.spmm_batched(&csr, w2, x2);
        let (va, vb) = (tape.value(a).data(), tape.value(b).data());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(va), bits(vb), "forward bit-equal");
        // Gradients bit-equal too: seed both ops with the same upstream grad
        // (backward resets retained grads, so capture between the two runs).
        let sa = tape.sum_all(a);
        let sb = tape.sum_all(b);
        tape.backward(sa);
        let (gw_a, gx_a) = (tape.grad(w).unwrap().clone(), tape.grad(x).unwrap().clone());
        tape.backward(sb);
        assert_eq!(bits(gw_a.data()), bits(tape.grad(w2).unwrap().data()));
        assert_eq!(bits(gx_a.data()), bits(tape.grad(x2).unwrap().data()));
    }

    #[test]
    fn spmm_batched_matches_per_plane_loop() {
        let mut next = lcg(7);
        let edges = path_edges();
        let csr = CsrEdges::new(edges.clone());
        let (p, n, f) = (3usize, 3usize, 2usize);
        let x0 = Tensor::new([p, n, f], (0..p * n * f).map(|_| next()).collect());
        // Per-plane weights (P, E).
        let w0 = Tensor::new([p, edges.len()], (0..p * edges.len()).map(|_| next()).collect());
        let mut tape = Tape::new();
        let (w, x) = (tape.leaf(w0.clone()), tape.leaf(x0.clone()));
        let y = tape.spmm_batched(&csr, w, x);
        for pi in 0..p {
            let wp = tape.leaf(Tensor::from_vec(w0.data()[pi * edges.len()..(pi + 1) * edges.len()].to_vec()));
            let xp = tape.leaf(Tensor::new([n, f], x0.data()[pi * n * f..(pi + 1) * n * f].to_vec()));
            let yp = tape.spmm(&edges, wp, xp);
            let got = tape.value(y).data()[pi * n * f..(pi + 1) * n * f].to_vec();
            assert_eq!(got, tape.value(yp).data(), "plane {pi} bit-equal");
        }
    }

    #[test]
    fn spmm_batched_shared_weights_grad_sums_planes() {
        let edges = path_edges();
        let csr = CsrEdges::new(edges.clone());
        let (p, n, f) = (2usize, 3usize, 2usize);
        let mut next = lcg(11);
        let x0 = Tensor::new([p, n, f], (0..p * n * f).map(|_| next()).collect());
        let w0 = Tensor::from_vec((0..edges.len()).map(|_| next()).collect());
        // Batched-with-shared-weights gradient == sum of per-plane spmm grads.
        let mut tape = Tape::new();
        let (w, x) = (tape.leaf(w0.clone()), tape.leaf(x0.clone()));
        let y = tape.spmm_batched(&csr, w, x);
        let s = tape.sum_all(y);
        tape.backward(s);
        let gw_batched = tape.grad(w).unwrap().clone();
        let mut gw_ref = vec![0.0f32; edges.len()];
        for pi in 0..p {
            let mut t2 = Tape::new();
            let wp = t2.leaf(w0.clone());
            let xp = t2.leaf(Tensor::new([n, f], x0.data()[pi * n * f..(pi + 1) * n * f].to_vec()));
            let yp = t2.spmm(&edges, wp, xp);
            let sp = t2.sum_all(yp);
            t2.backward(sp);
            for (acc, g) in gw_ref.iter_mut().zip(t2.grad(wp).unwrap().data()) {
                *acc += g;
            }
        }
        for (a, b) in gw_batched.data().iter().zip(&gw_ref) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn spmm_batched_grad_check_per_plane_weights() {
        let edges = path_edges();
        let csr = CsrEdges::new(edges.clone());
        let (p, n, f) = (2usize, 3usize, 2usize);
        let mut next = lcg(13);
        let x0 = Tensor::new([p, n, f], (0..p * n * f).map(|_| next()).collect());
        let w0 = Tensor::new([p, edges.len()], (0..p * edges.len()).map(|_| next()).collect());
        let (c1, x1) = (csr.clone(), x0.clone());
        check_gradient(&w0, 1e-3, 1e-2, move |tape, w| {
            let x = tape.leaf(x1.clone());
            let y = tape.spmm_batched(&c1, w, x);
            let sq = tape.square(y);
            tape.sum_all(sq)
        })
        .unwrap();
        check_gradient(&x0, 1e-3, 1e-2, move |tape, x| {
            let w = tape.leaf(w0.clone());
            let y = tape.spmm_batched(&csr, w, x);
            let sq = tape.square(y);
            tape.sum_all(sq)
        })
        .unwrap();
    }

    #[test]
    fn edge_dot_batched_matches_per_plane() {
        let edges = Edges::new(3, vec![[0, 1], [2, 0], [1, 1]]);
        let (p, n, f) = (3usize, 3usize, 2usize);
        let mut next = lcg(17);
        let x0 = Tensor::new([p, n, f], (0..p * n * f).map(|_| next()).collect());
        let mut tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let y = tape.edge_dot_batched(&edges, x, (f as f32).sqrt());
        for pi in 0..p {
            let xp = tape.leaf(Tensor::new([n, f], x0.data()[pi * n * f..(pi + 1) * n * f].to_vec()));
            let yp = tape.edge_dot(&edges, xp, (f as f32).sqrt());
            let got = &tape.value(y).data()[pi * edges.len()..(pi + 1) * edges.len()];
            assert_eq!(got, tape.value(yp).data(), "plane {pi}");
        }
        let e2 = edges.clone();
        check_gradient(&x0, 1e-3, 2e-2, move |tape, x| {
            let y = tape.edge_dot_batched(&e2, x, 1.3);
            let sq = tape.square(y);
            tape.sum_all(sq)
        })
        .unwrap();
    }

    #[test]
    fn gather_and_segment_softmax_batched_match_per_plane() {
        let edges = Edges::new(3, vec![[0, 2], [1, 2], [2, 2], [0, 1], [1, 1]]);
        let (p, n) = (2usize, 3usize);
        let mut next = lcg(19);
        let v0 = Tensor::new([p, n], (0..p * n).map(|_| next()).collect());
        let l0 = Tensor::new([p, edges.len()], (0..p * edges.len()).map(|_| next()).collect());
        let mut tape = Tape::new();
        let v = tape.leaf(v0.clone());
        let l = tape.leaf(l0.clone());
        let gs = tape.gather_src_batched(&edges, v);
        let gd = tape.gather_dst_batched(&edges, v);
        let sm = tape.segment_softmax_batched(&edges, l);
        for pi in 0..p {
            let vp = tape.leaf(Tensor::from_vec(v0.data()[pi * n..(pi + 1) * n].to_vec()));
            let lp = tape.leaf(Tensor::from_vec(
                l0.data()[pi * edges.len()..(pi + 1) * edges.len()].to_vec(),
            ));
            let gsp = tape.gather_src(&edges, vp);
            let gdp = tape.gather_dst(&edges, vp);
            let smp = tape.segment_softmax(&edges, lp);
            let r = pi * edges.len()..(pi + 1) * edges.len();
            assert_eq!(&tape.value(gs).data()[r.clone()], tape.value(gsp).data());
            assert_eq!(&tape.value(gd).data()[r.clone()], tape.value(gdp).data());
            assert_eq!(&tape.value(sm).data()[r], tape.value(smp).data());
        }
        let e2 = edges.clone();
        check_gradient(&l0, 1e-3, 1e-2, move |tape, l| {
            let y = tape.segment_softmax_batched(&e2, l);
            let w = tape.leaf(Tensor::new(
                [p, e2.len()],
                (0..p * e2.len()).map(|i| 0.5 + 0.3 * i as f32).collect(),
            ));
            let m = tape.mul(y, w);
            tape.sum_all(m)
        })
        .unwrap();
        check_gradient(&v0, 1e-3, 1e-2, move |tape, v| {
            let s = tape.gather_src_batched(&edges, v);
            let d = tape.gather_dst_batched(&edges, v);
            let m = tape.mul(s, d);
            let sq = tape.square(m);
            tape.sum_all(sq)
        })
        .unwrap();
    }

    #[test]
    fn batched_ops_handle_empty_edge_list() {
        let edges = Edges::new(3, vec![]);
        let csr = CsrEdges::new(edges.clone());
        let mut tape = Tape::new();
        let w = tape.leaf(Tensor::zeros([0]));
        let x = tape.leaf(Tensor::ones([2, 3, 4]));
        let y = tape.spmm_batched(&csr, w, x);
        assert_eq!(tape.value(y).dims(), &[2, 3, 4]);
        assert!(tape.value(y).data().iter().all(|&v| v == 0.0));
        let c = tape.edge_dot_batched(&edges, x, 2.0);
        assert_eq!(tape.value(c).dims(), &[2, 0]);
        let v = tape.leaf(Tensor::ones([2, 3]));
        let src = tape.gather_src_batched(&edges, v);
        let dst = tape.gather_dst_batched(&edges, v);
        assert_eq!(tape.value(src).dims(), &[2, 0]);
        assert_eq!(tape.value(dst).dims(), &[2, 0]);
        let logits = tape.add(c, src);
        let logits = tape.add(logits, dst);
        let a = tape.segment_softmax_batched(&edges, logits);
        assert_eq!(tape.value(a).dims(), &[2, 0]);
        let (sy, sa) = (tape.sum_all(y), tape.sum_all(a));
        let s = tape.add(sy, sa);
        tape.backward(s);
        assert_eq!(tape.grad(x).unwrap().dims(), &[2, 3, 4]);
        assert_eq!(tape.grad(v).unwrap().dims(), &[2, 3]);
        assert!(tape.grad(v).unwrap().data().iter().all(|&g| g == 0.0));
    }
}
