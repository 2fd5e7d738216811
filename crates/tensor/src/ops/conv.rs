//! Causal 1-D convolution — the temporal-convolution primitive of RT-GCN
//! (paper Section IV-C, Figure 4).
//!
//! Layout: input `(L, B, C_in)`, the model's `(T, N, C)`: `L` is the time
//! axis, `B` indexes stocks and channels are features; weight
//! `(C_out, C_in, k)`. Causality is enforced with left-only zero padding of
//! `dilation·(k−1)` so output step `t` never reads inputs later than `t` (no
//! future leakage — Eq. 6). A stride `> 1` compresses the temporal
//! dimension, expanding the receptive field as the paper describes.

use super::shape_ops::permute3_slice;
use crate::linalg;
use crate::spares;
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// Static configuration of a causal conv.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvSpec {
    pub kernel: usize,
    pub stride: usize,
    pub dilation: usize,
}

impl ConvSpec {
    pub fn new(kernel: usize, stride: usize, dilation: usize) -> Self {
        assert!(kernel >= 1 && stride >= 1 && dilation >= 1, "conv spec fields must be >= 1");
        ConvSpec { kernel, stride, dilation }
    }

    /// Left padding that makes the convolution causal.
    #[inline]
    pub fn pad(&self) -> usize {
        self.dilation * (self.kernel - 1)
    }

    /// Output length for input length `l` (always ≥ 1 for `l ≥ 1`).
    #[inline]
    pub fn out_len(&self, l: usize) -> usize {
        if l == 0 {
            0
        } else {
            (l - 1) / self.stride + 1
        }
    }
}

/// Shapes of one conv call, and the kernels that run it.
///
/// The forward packs the weight as a `(C_in·k, C_out)` panel and runs each
/// output step's `(B, C_out)` block on the register tile of
/// [`crate::linalg`]: a tile of consecutive stocks and filters at one step
/// shares that step's valid-tap range, and at reduction step `(ci, j)` it
/// reads channel `ci` of the tap's input row for each stock (row stride
/// `C_in`) and panel row `ci·k + j`. The backward reads each
/// upstream-gradient row in place, accumulates `gw` in that panel layout
/// (vectorised over `C_out`), and accumulates `gx` straight into its
/// `(L, B, C_in)` result against a `(C_out, k, C_in)` panel (vectorised over
/// `C_in`). Each element is still summed in the order of the scalar
/// one-element-at-a-time loops: bias first, then `ci`-major, tap-minor,
/// padded taps skipped; `gw` and `gb` over `(b, t)`; `gx` over
/// `(co, t, j)`. Results are therefore bit-identical to those loops, which
/// the test module keeps as the oracle.
#[derive(Clone, Copy, Debug)]
struct ConvGeom {
    l: usize,
    b: usize,
    c_in: usize,
    c_out: usize,
    l_out: usize,
    spec: ConvSpec,
}

impl ConvGeom {
    /// First tap of output step `t` that reads real input, and the input
    /// position it reads. Taps below it fall in the causal zero padding;
    /// tap `j ≥ j0` reads position `p0 + (j − j0)·dilation`. The last tap
    /// always reads step `t·stride` itself, so `j0 < k`.
    #[inline]
    fn first_tap(&self, t: usize) -> (usize, usize) {
        let (origin, pad, dil) = (t * self.spec.stride, self.spec.pad(), self.spec.dilation);
        let j0 = pad.saturating_sub(origin).div_ceil(dil);
        (j0, origin + j0 * dil - pad)
    }

    /// `(L_out, B, C_out)` output of `x: (L, B, C_in)`, `w: (C_out, C_in, k)`.
    fn forward(&self, x: &[f32], w: &[f32], bias: &[f32]) -> Vec<f32> {
        let ConvGeom { b, c_in, c_out, l_out, spec, .. } = *self;
        let k = spec.kernel;
        // Row `ci·k + j` holds tap `j` of input channel `ci` for every filter.
        let panel = permute3_slice(w, [1, c_out, c_in * k], [0, 2, 1]);
        let mut out = spares::filled(l_out * b * c_out, 0.0);
        let block = b * c_out;
        for t in 0..l_out {
            let (j0, p0) = self.first_tap(t);
            let out = &mut out[t * block..][..block];
            linalg::for_each_tile(b, c_out, &mut ConvStep { geom: self, x, panel: &panel, bias, j0, p0, out });
        }
        out
    }

    /// `(gx, gw, gb)` for the upstream gradient `g: (L_out, B, C_out)`.
    fn backward(&self, x: &[f32], w: &[f32], g: &[f32]) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let ConvGeom { l, b, c_in, c_out, l_out, spec } = *self;
        let (k, dil) = (spec.kernel, spec.dilation);
        // gb and gw, vectorised over C_out: one output step's upstream
        // gradient row at a time, gw in the forward's panel layout.
        let mut gb = vec![0.0f32; c_out];
        let mut gw_panel = vec![0.0f32; c_in * k * c_out];
        for bi in 0..b {
            for t in 0..l_out {
                let grow = &g[(t * b + bi) * c_out..][..c_out];
                for (s, &gv) in gb.iter_mut().zip(grow) {
                    *s += gv;
                }
                let (j0, p0) = self.first_tap(t);
                for ci in 0..c_in {
                    for j in j0..k {
                        let xv = x[((p0 + (j - j0) * dil) * b + bi) * c_in + ci];
                        let row = &mut gw_panel[(ci * k + j) * c_out..][..c_out];
                        for (s, &gv) in row.iter_mut().zip(grow) {
                            *s += gv * xv;
                        }
                    }
                }
            }
        }
        // gx, vectorised over C_in: filter-major, the order the scalar loop
        // summed it in, against a `(C_out, k, C_in)` weight panel.
        let wt = permute3_slice(w, [c_out, c_in, k], [0, 2, 1]);
        let mut gx = spares::filled(l * b * c_in, 0.0);
        for bi in 0..b {
            for co in 0..c_out {
                for t in 0..l_out {
                    let go = g[(t * b + bi) * c_out + co];
                    let (j0, p0) = self.first_tap(t);
                    for j in j0..k {
                        let p = p0 + (j - j0) * dil;
                        let dst = &mut gx[(p * b + bi) * c_in..][..c_in];
                        let wrow = &wt[(co * k + j) * c_in..][..c_in];
                        for (s, &wv) in dst.iter_mut().zip(wrow) {
                            *s += go * wv;
                        }
                    }
                }
            }
        }
        let gw = permute3_slice(&gw_panel, [1, c_in * k, c_out], [0, 2, 1]);
        (gx, gw, gb)
    }
}

/// The `(B, C_out)` output block of one step, whose first valid tap is
/// `j0`, reading input position `p0`.
struct ConvStep<'a> {
    geom: &'a ConvGeom,
    x: &'a [f32],
    panel: &'a [f32],
    bias: &'a [f32],
    j0: usize,
    p0: usize,
    out: &'a mut [f32],
}

impl linalg::Tiles for ConvStep<'_> {
    #[inline(always)]
    fn tile<const R: usize, const C: usize>(&mut self, bi0: usize, co0: usize) {
        let ConvGeom { b, c_in, c_out, spec, .. } = *self.geom;
        let (k, dil, j0, p0) = (spec.kernel, spec.dilation, self.j0, self.p0);
        let bias: [f32; C] = std::array::from_fn(|c| self.bias[co0 + c]);
        let mut acc = [bias; R];
        for ci in 0..c_in {
            let taps = (j0..k).map(|j| (((p0 + (j - j0) * dil) * b + bi0) * c_in + ci, (ci * k + j) * c_out + co0));
            linalg::accumulate(&mut acc, self.x, c_in, self.panel, taps);
        }
        linalg::store(&acc, self.out, c_out, bi0, co0);
    }
}

impl Tape {
    /// Causal strided 1-D convolution along the leading (time) axis.
    ///
    /// * `x`: `(L, B, C_in)`
    /// * `w`: `(C_out, C_in, k)`
    /// * `bias`: `(C_out)`
    ///
    /// Returns `(L_out, B, C_out)` with `L_out = ⌈L / stride⌉`. A non-finite
    /// input or weight reaches every output (and gradient) that reads it.
    pub fn conv1d_causal(&mut self, x: Var, w: Var, bias: Var, spec: ConvSpec) -> Var {
        static CALLS: std::sync::OnceLock<rtgcn_telemetry::Counter> = std::sync::OnceLock::new();
        crate::telemetry_hooks::kernel_counter(&CALLS, "tensor.conv1d_causal.calls").inc(1);
        let _t = rtgcn_telemetry::span("conv1d_causal");
        let xv = self.value(x);
        let wv = self.value(w);
        let bv = self.value(bias);
        assert_eq!(xv.rank(), 3, "conv1d input must be (L, B, C_in), got {:?}", xv.shape());
        assert_eq!(wv.rank(), 3, "conv1d weight must be (C_out, C_in, k), got {:?}", wv.shape());
        let (l, b, c_in) = (xv.dims()[0], xv.dims()[1], xv.dims()[2]);
        let (c_out, wc_in, k) = (wv.dims()[0], wv.dims()[1], wv.dims()[2]);
        assert_eq!(c_in, wc_in, "conv1d channel mismatch: input {c_in}, weight {wc_in}");
        assert_eq!(k, spec.kernel, "weight kernel dim {k} != spec kernel {}", spec.kernel);
        assert_eq!(bv.dims(), [c_out], "bias must be (C_out)");

        let geom = ConvGeom { l, b, c_in, c_out, l_out: spec.out_len(l), spec };
        let out = geom.forward(xv.data(), wv.data(), bv.data());
        let out = Tensor::new([geom.l_out, b, c_out], out);
        self.push_op_named("conv1d_causal", out, vec![x, w, bias], move |ctx| {
            let (gx, gw, gb) = geom.backward(ctx.parents[0].data(), ctx.parents[1].data(), ctx.grad.data());
            vec![Tensor::new([l, b, c_in], gx), Tensor::new([c_out, c_in, k], gw), Tensor::from_vec(gb)]
        })
    }

    /// Weight-normalised convolution weight (Salimans & Kingma): given the
    /// direction tensor `v: (C_out, C_in, k)` and per-filter gain `g: (C_out)`,
    /// returns `w = g · v / ‖v‖` with the norm taken per output filter. The
    /// paper applies weight normalisation to all TCN filters.
    pub fn weight_norm(&mut self, v: Var, gain: Var) -> Var {
        let vv = self.value(v);
        assert_eq!(vv.rank(), 3, "weight_norm expects (C_out, C_in, k)");
        let (c_out, c_in, k) = (vv.dims()[0], vv.dims()[1], vv.dims()[2]);
        let flat = self.reshape(v, [c_out, c_in * k]);
        let norm = self.row_norm(flat, 1e-6); // (C_out, 1)
        let gain2 = self.reshape(gain, [c_out, 1]);
        let scale = self.div(gain2, norm); // (C_out, 1)
        let scaled = self.mul(flat, scale); // broadcast over columns
        self.reshape(scaled, [c_out, c_in, k])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::check_gradient;
    use proptest::prelude::*;

    /// The scalar loops the conv kernels replaced, kept as their oracle:
    /// one output element at a time, the padding tested on every tap. The
    /// backward's former `go == 0.0` skip is left out; it only ever hid
    /// `0·Inf`, and adding `±0` to an accumulator that starts at `+0.0`
    /// changes nothing. `co` indexes four differently-strided buffers at
    /// once, so the loops stay index-based.
    #[allow(clippy::needless_range_loop)]
    fn oracle_forward(g: &ConvGeom, xd: &[f32], wd: &[f32], bd: &[f32]) -> Vec<f32> {
        let ConvGeom { b, c_in, c_out, l_out, spec, .. } = *g;
        let (k, pad) = (spec.kernel, spec.pad());
        let mut od = vec![0.0f32; l_out * b * c_out];
        for bi in 0..b {
            for co in 0..c_out {
                for t in 0..l_out {
                    let mut acc = bd[co];
                    let origin = t * spec.stride;
                    for ci in 0..c_in {
                        let wbase = (co * c_in + ci) * k;
                        for j in 0..k {
                            let ppos = origin + j * spec.dilation;
                            if ppos >= pad {
                                acc += wd[wbase + j] * xd[((ppos - pad) * b + bi) * c_in + ci];
                            }
                        }
                    }
                    od[(t * b + bi) * c_out + co] = acc;
                }
            }
        }
        od
    }

    #[allow(clippy::needless_range_loop)]
    fn oracle_backward(
        geom: &ConvGeom,
        xd: &[f32],
        wd: &[f32],
        g: &[f32],
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let ConvGeom { l, b, c_in, c_out, l_out, spec } = *geom;
        let (k, pad) = (spec.kernel, spec.pad());
        let mut gx = vec![0.0f32; l * b * c_in];
        let mut gw = vec![0.0f32; c_out * c_in * k];
        let mut gb = vec![0.0f32; c_out];
        for bi in 0..b {
            for co in 0..c_out {
                for t in 0..l_out {
                    let go = g[(t * b + bi) * c_out + co];
                    gb[co] += go;
                    let origin = t * spec.stride;
                    for ci in 0..c_in {
                        let wbase = (co * c_in + ci) * k;
                        for j in 0..k {
                            let ppos = origin + j * spec.dilation;
                            if ppos >= pad {
                                let xi = ((ppos - pad) * b + bi) * c_in + ci;
                                gw[wbase + j] += go * xd[xi];
                                gx[xi] += go * wd[wbase + j];
                            }
                        }
                    }
                }
            }
        }
        (gx, gw, gb)
    }

    /// Equal bit patterns, or both NaN (a NaN's payload is not portable).
    fn assert_same_bits(what: &str, got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (a, e)) in got.iter().zip(want).enumerate() {
            assert!(
                a.to_bits() == e.to_bits() || (a.is_nan() && e.is_nan()),
                "{what}[{i}]: kernel {a:e} vs scalar oracle {e:e}"
            );
        }
    }

    /// Run both kernels on seeded data and compare every output and
    /// gradient bit for bit. `poison` 1/2/3 plants a NaN/+Inf/−Inf in `x`
    /// (odd seeds) or `w` (even seeds), which must then reach every output
    /// that reads it.
    fn check_against_oracle(geom: ConvGeom, seed: u64, poison: usize) {
        let ConvGeom { l, b, c_in, c_out, l_out, spec } = geom;
        let k = spec.kernel;
        let mut rng = crate::init::rng(seed);
        let mut x = crate::init::uniform([l * b * c_in], -2.0, 2.0, &mut rng).into_data();
        let mut w = crate::init::uniform([c_out * c_in * k], -1.0, 1.0, &mut rng).into_data();
        let bias = crate::init::uniform([c_out], -0.5, 0.5, &mut rng).into_data();
        let g = crate::init::uniform([l_out * b * c_out], -1.0, 1.0, &mut rng).into_data();
        let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let poisoned_x = seed % 2 == 1;
        let site = (seed / 2) as usize;
        if poison > 0 {
            let target = if poisoned_x { &mut x } else { &mut w };
            let n = target.len();
            target[site % n] = bad[poison - 1];
        }
        let out = geom.forward(&x, &w, &bias);
        assert_same_bits("out", &out, &oracle_forward(&geom, &x, &w, &bias));
        let (gx, gw, gb) = geom.backward(&x, &w, &g);
        let (ox, ow, ob) = oracle_backward(&geom, &x, &w, &g);
        assert_same_bits("gx", &gx, &ox);
        assert_same_bits("gw", &gw, &ow);
        assert_same_bits("gb", &gb, &ob);
        if poison == 0 {
            return;
        }
        // Tap `j` of step `t` reads input position `t·stride + j·dilation − pad`.
        let reads = |t: usize, j: usize| (t * spec.stride + j * spec.dilation).checked_sub(spec.pad());
        for bi in 0..b {
            for co in 0..c_out {
                for t in 0..l_out {
                    let hit = if poisoned_x {
                        let s = site % x.len();
                        let (p, pb) = (s / (b * c_in), s / c_in % b);
                        bi == pb && (0..k).any(|j| reads(t, j) == Some(p))
                    } else {
                        let s = site % w.len();
                        co == s / (c_in * k) && reads(t, s % k).is_some()
                    };
                    let v = out[(t * b + bi) * c_out + co];
                    assert!(!hit || !v.is_finite(), "output ({bi},{co},{t}) dropped the poison: {v}");
                }
            }
        }
    }

    fn geom(l: usize, b: usize, c_in: usize, c_out: usize, spec: ConvSpec) -> ConvGeom {
        ConvGeom { l, b, c_in, c_out, l_out: spec.out_len(l), spec }
    }

    #[test]
    fn panel_kernels_match_oracle_on_corner_geometries() {
        // (L, B, C_in, C_out, k, stride, dilation)
        let corners = [
            (6, 2, 3, 5, 1, 1, 1),      // k = 1
            (7, 2, 3, 5, 1, 2, 1),      // the TCN's 1×1 stride-2 skip projection
            (9, 1, 2, 3, 3, 1, 3),      // dilation > 1
            (3, 2, 2, 4, 3, 1, 2),      // L ≤ pad: early steps read only padding but one tap
            (1, 1, 1, 7, 4, 3, 2),      // a single step, every tap but the last padded
            (8, 2, 4, 9, 2, 2, 1),      // C_out not a multiple of the vector width
            (16, 3, 32, 32, 3, 2, 1),   // the RT-GCN TCN block
            (16, 102, 32, 32, 3, 2, 1), // its serving shape: full 4 × 16 tiles and every remainder
            (16, 102, 32, 32, 1, 2, 1), // the block's 1×1 skip at that shape
        ];
        for (i, &(l, b, c_in, c_out, k, s, d)) in corners.iter().enumerate() {
            for poison in 0..4 {
                for seed in [2 * i as u64, 2 * i as u64 + 1] {
                    check_against_oracle(geom(l, b, c_in, c_out, ConvSpec::new(k, s, d)), seed, poison);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Forward and all three gradients equal the scalar oracle bit for
        /// bit on random shapes, with and without a non-finite input.
        #[test]
        fn panel_kernels_match_scalar_oracle(
            (l, b, c_in, c_out) in (1usize..14, 1usize..10, 1usize..6, 1usize..40),
            (k, stride, dilation) in (1usize..5, 1usize..4, 1usize..4),
            seed in 0u64..1_000_000,
            poison in 0usize..4,
        ) {
            let spec = ConvSpec::new(k, stride, dilation);
            check_against_oracle(geom(l, b, c_in, c_out, spec), seed, poison);
        }
    }

    #[test]
    fn zero_upstream_gradient_still_propagates_inf_weight() {
        // 0·Inf = NaN: a zero upstream gradient no longer hides an infinite
        // weight from the input gradient.
        let spec = ConvSpec::new(2, 1, 1);
        let geom = geom(3, 1, 1, 1, spec);
        let (gx, _, gb) = geom.backward(&[1.0, 2.0, 3.0], &[f32::INFINITY, 1.0], &[0.0, 0.0, 0.0]);
        assert!(gx[..2].iter().all(|v| v.is_nan()), "{gx:?}");
        assert_eq!(gx[2], 0.0);
        assert_eq!(gb, vec![0.0]);
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // k=1, stride=1: convolution is a pointwise map with weight 1.
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::new([4, 1, 1], vec![1., 2., 3., 4.]));
        let w = tape.leaf(Tensor::new([1, 1, 1], vec![1.0]));
        let b = tape.leaf(Tensor::from_vec(vec![0.0]));
        let y = tape.conv1d_causal(x, w, b, ConvSpec::new(1, 1, 1));
        assert_eq!(tape.value(y).data(), &[1., 2., 3., 4.]);
    }

    #[test]
    fn causal_sum_kernel() {
        // k=2 with weights [1,1]: y_t = x_{t-1} + x_t, with x_{-1}=0.
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::new([4, 1, 1], vec![1., 2., 3., 4.]));
        let w = tape.leaf(Tensor::new([1, 1, 2], vec![1.0, 1.0]));
        let b = tape.leaf(Tensor::from_vec(vec![0.0]));
        let y = tape.conv1d_causal(x, w, b, ConvSpec::new(2, 1, 1));
        assert_eq!(tape.value(y).data(), &[1., 3., 5., 7.]);
    }

    #[test]
    fn no_future_leakage() {
        // Perturbing x_t must never change outputs before t.
        let spec = ConvSpec::new(3, 1, 1);
        let base = Tensor::new([5, 1, 1], vec![1., 2., 3., 4., 5.]);
        let run = |x: &Tensor| -> Vec<f32> {
            let mut tape = Tape::new();
            let xv = tape.leaf(x.clone());
            let w = tape.leaf(Tensor::new([1, 1, 3], vec![0.3, -0.5, 0.8]));
            let b = tape.leaf(Tensor::from_vec(vec![0.1]));
            let y = tape.conv1d_causal(xv, w, b, spec);
            tape.value(y).data().to_vec()
        };
        let y0 = run(&base);
        let mut pert = base.clone();
        pert.data_mut()[3] += 10.0; // change x_3
        let y1 = run(&pert);
        assert_eq!(&y0[..3], &y1[..3], "outputs before t=3 must be unchanged");
        assert_ne!(y0[3], y1[3]);
    }

    #[test]
    fn stride_compresses_length() {
        let spec = ConvSpec::new(3, 2, 1);
        assert_eq!(spec.out_len(8), 4);
        assert_eq!(spec.out_len(7), 4);
        assert_eq!(spec.out_len(1), 1);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones([8, 2, 3]));
        let w = tape.leaf(Tensor::ones([4, 3, 3]));
        let b = tape.leaf(Tensor::zeros([4]));
        let y = tape.conv1d_causal(x, w, b, spec);
        assert_eq!(tape.value(y).dims(), &[4, 2, 4]);
    }

    #[test]
    fn dilation_expands_receptive_field() {
        // k=2, dilation=2: y_t = w0·x_{t-2} + w1·x_t.
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::new([5, 1, 1], vec![1., 2., 3., 4., 5.]));
        let w = tape.leaf(Tensor::new([1, 1, 2], vec![1.0, 10.0]));
        let b = tape.leaf(Tensor::from_vec(vec![0.0]));
        let y = tape.conv1d_causal(x, w, b, ConvSpec::new(2, 1, 2));
        assert_eq!(tape.value(y).data(), &[10., 20., 31., 42., 53.]);
    }

    #[test]
    fn conv_grad_check_input_and_weight() {
        let spec = ConvSpec::new(3, 2, 1);
        let x0 = Tensor::new([6, 2, 2], (0..24).map(|v| (v as f32) * 0.1 - 1.0).collect());
        let w0 = Tensor::new([3, 2, 3], (0..18).map(|v| (v as f32) * 0.05 - 0.4).collect());
        let w_for_x = w0.clone();
        check_gradient(&x0, 1e-2, 2e-2, move |tape, x| {
            let w = tape.leaf(w_for_x.clone());
            let b = tape.leaf(Tensor::from_vec(vec![0.1, -0.2, 0.3]));
            let y = tape.conv1d_causal(x, w, b, spec);
            let sq = tape.square(y);
            tape.sum_all(sq)
        })
        .unwrap();
        let x_for_w = x0;
        check_gradient(&w0, 1e-2, 2e-2, move |tape, w| {
            let x = tape.leaf(x_for_w.clone());
            let b = tape.leaf(Tensor::from_vec(vec![0.1, -0.2, 0.3]));
            let y = tape.conv1d_causal(x, w, b, spec);
            let sq = tape.square(y);
            tape.sum_all(sq)
        })
        .unwrap();
    }

    #[test]
    fn weight_norm_unit_direction() {
        // With gain g and any v, each output filter has norm g.
        let mut tape = Tape::new();
        let v = tape.leaf(Tensor::new([2, 1, 2], vec![3., 4., 1., 0.]));
        let g = tape.leaf(Tensor::from_vec(vec![2.0, 5.0]));
        let wn = tape.weight_norm(v, g);
        let w = tape.value(wn).clone();
        let f0: f32 = w.data()[..2].iter().map(|&x| x * x).sum::<f32>().sqrt();
        let f1: f32 = w.data()[2..].iter().map(|&x| x * x).sum::<f32>().sqrt();
        assert!((f0 - 2.0).abs() < 1e-4, "filter 0 norm {f0}");
        assert!((f1 - 5.0).abs() < 1e-4, "filter 1 norm {f1}");
    }

    #[test]
    fn weight_norm_grad_check() {
        let v0 = Tensor::new([2, 2, 2], vec![0.5, -1.0, 2.0, 0.3, 1.5, -0.7, 0.2, 0.9]);
        check_gradient(&v0, 1e-3, 2e-2, |tape, v| {
            let g = tape.leaf(Tensor::from_vec(vec![1.5, 0.8]));
            let w = tape.weight_norm(v, g);
            let wsum = tape.square(w);
            tape.sum_all(wsum)
        })
        .unwrap();
    }
}
