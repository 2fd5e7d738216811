//! SFM — State Frequency Memory recurrent network (Zhang, Aggarwal & Qi,
//! KDD 2017 [1]), a regression baseline that decomposes the cell state into
//! `K` frequency components.
//!
//! Recurrence (real/imaginary parts kept separately):
//!
//! ```text
//! f_t   = f_state ⊗ f_freq                         (joint forgetting, (H,K))
//! ReS_t = f_t ∘ ReS_{t−1} + (i_t ∘ c̃_t) ⊗ cos(ω t)
//! ImS_t = f_t ∘ ImS_{t−1} + (i_t ∘ c̃_t) ⊗ sin(ω t)
//! A_t   = √(ReS² + ImS²)                           (amplitude, (H,K))
//! c_t   = tanh(A_t · W_a + b_a)                    (combine frequencies)
//! h_t   = o_t ∘ tanh(c_t)
//! ```
//!
//! with frequencies `ω_k = 2πk/K` and LSTM-style gates. Trained with MSE on
//! the next-day return ratio (Table IV lists SFM under REG).

use crate::recurrent::{optimise_step, split_window};
use rtgcn_core::{fit_epochs, FitPlan, FitReport, StepStats, StockRanker};
use rtgcn_market::StockDataset;
use rtgcn_tensor::{init, ParamId, ParamStore, Tape, Tensor, Var};

/// SFM configuration.
#[derive(Clone, Debug)]
pub struct SfmConfig {
    pub t_steps: usize,
    pub n_features: usize,
    pub hidden: usize,
    /// Number of frequency components K.
    pub freqs: usize,
    pub epochs: usize,
    pub lr: f32,
}

impl Default for SfmConfig {
    fn default() -> Self {
        SfmConfig { t_steps: 16, n_features: 4, hidden: 24, freqs: 4, epochs: 6, lr: 1e-3 }
    }
}

struct GateParams {
    wx: ParamId,
    wh: ParamId,
    b: ParamId,
}

/// The SFM recurrent regressor.
pub struct Sfm {
    pub cfg: SfmConfig,
    store: ParamStore,
    f_state: GateParams,
    f_freq: GateParams,
    i_gate: GateParams,
    o_gate: GateParams,
    c_gate: GateParams,
    w_amp: ParamId,
    b_amp: ParamId,
    w_out: ParamId,
    b_out: ParamId,
}

impl Sfm {
    pub fn new(cfg: SfmConfig, seed: u64) -> Self {
        let mut rng = init::rng(seed);
        let mut store = ParamStore::new();
        let gate = |name: &str, out: usize, store: &mut ParamStore, rng: &mut _| GateParams {
            wx: store.add(format!("{name}.wx"), init::xavier([cfg.n_features, out], rng)),
            wh: store.add(format!("{name}.wh"), init::xavier([cfg.hidden, out], rng)),
            b: store.add(format!("{name}.b"), Tensor::zeros([out])),
        };
        let f_state = gate("f_state", cfg.hidden, &mut store, &mut rng);
        let f_freq = gate("f_freq", cfg.freqs, &mut store, &mut rng);
        let i_gate = gate("i", cfg.hidden, &mut store, &mut rng);
        let o_gate = gate("o", cfg.hidden, &mut store, &mut rng);
        let c_gate = gate("c", cfg.hidden, &mut store, &mut rng);
        let w_amp = store.add("amp.w", init::xavier([cfg.hidden * cfg.freqs, cfg.hidden], &mut rng));
        let b_amp = store.add("amp.b", Tensor::zeros([cfg.hidden]));
        let w_out = store.add("out.w", init::xavier([cfg.hidden, 1], &mut rng));
        let b_out = store.add("out.b", Tensor::zeros([1]));
        Sfm { cfg, store, f_state, f_freq, i_gate, o_gate, c_gate, w_amp, b_amp, w_out, b_out }
    }

    fn gate(&self, tape: &mut Tape, g: &GateParams, x: Var, h: Var) -> Var {
        let wx = self.store.bind(tape, g.wx);
        let wh = self.store.bind(tape, g.wh);
        let b = self.store.bind(tape, g.b);
        let xp = tape.linear(x, wx, b);
        let hp = tape.matmul(h, wh);
        let pre = tape.add(xp, hp);
        tape.sigmoid(pre)
    }

    /// Forward over a window; returns predicted return ratios `(N)`.
    fn forward(&self, tape: &mut Tape, x: &Tensor) -> Var {
        let n = x.dims()[1];
        let (hdim, k) = (self.cfg.hidden, self.cfg.freqs);
        let temporal = rtgcn_telemetry::span("temporal");
        let xs = split_window(tape, x);
        let mut h = tape.constant(Tensor::zeros([n, hdim]));
        let mut re_s = tape.constant(Tensor::zeros([n, hdim, k]));
        let mut im_s = tape.constant(Tensor::zeros([n, hdim, k]));
        for (t, &x_t) in xs.iter().enumerate() {
            let fs = self.gate(tape, &self.f_state, x_t, h); // (N, H)
            let ff = self.gate(tape, &self.f_freq, x_t, h); // (N, K)
            let ig = self.gate(tape, &self.i_gate, x_t, h); // (N, H)
            let og = self.gate(tape, &self.o_gate, x_t, h); // (N, H)
            let wx = self.store.bind(tape, self.c_gate.wx);
            let wh = self.store.bind(tape, self.c_gate.wh);
            let b = self.store.bind(tape, self.c_gate.b);
            let cx = tape.linear(x_t, wx, b);
            let ch = tape.matmul(h, wh);
            let c_pre = tape.add(cx, ch);
            let c_tilde = tape.tanh(c_pre); // (N, H)
            // Joint forget gate f_state ⊗ f_freq → (N, H, K).
            let fs3 = tape.reshape(fs, [n, hdim, 1]);
            let ff3 = tape.reshape(ff, [n, 1, k]);
            let f_joint = tape.mul(fs3, ff3);
            // Input contribution (i ∘ c̃) ⊗ [cos ωt | sin ωt].
            let inp = tape.mul(ig, c_tilde); // (N, H)
            let inp3 = tape.reshape(inp, [n, hdim, 1]);
            let step = (t + 1) as f32;
            let cos_row: Vec<f32> = (0..k)
                .map(|kk| (2.0 * std::f32::consts::PI * kk as f32 / k as f32 * step).cos())
                .collect();
            let sin_row: Vec<f32> = (0..k)
                .map(|kk| (2.0 * std::f32::consts::PI * kk as f32 / k as f32 * step).sin())
                .collect();
            let cos_c = tape.constant(Tensor::new([1, 1, k], cos_row));
            let sin_c = tape.constant(Tensor::new([1, 1, k], sin_row));
            let add_re = tape.mul(inp3, cos_c);
            let add_im = tape.mul(inp3, sin_c);
            let keep_re = tape.mul(f_joint, re_s);
            let keep_im = tape.mul(f_joint, im_s);
            re_s = tape.add(keep_re, add_re);
            im_s = tape.add(keep_im, add_im);
            // Amplitude and frequency combination.
            let re2 = tape.square(re_s);
            let im2 = tape.square(im_s);
            let sum = tape.add(re2, im2);
            let eps = tape.add_scalar(sum, 1e-8);
            let amp = tape.sqrt(eps); // (N, H, K)
            let amp_flat = tape.reshape(amp, [n, hdim * k]);
            let wa = self.store.bind(tape, self.w_amp);
            let ba = self.store.bind(tape, self.b_amp);
            let c_pre2 = tape.linear(amp_flat, wa, ba);
            let c_t = tape.tanh(c_pre2); // (N, H)
            let c_act = tape.tanh(c_t);
            h = tape.mul(og, c_act);
        }
        drop(temporal);
        let w = self.store.bind(tape, self.w_out);
        let b = self.store.bind(tape, self.b_out);
        let out = tape.linear(h, w, b);
        tape.reshape(out, [n])
    }
}

impl StockRanker for Sfm {
    fn name(&self) -> String {
        "SFM".into()
    }

    fn fit(&mut self, ds: &StockDataset) -> FitReport {
        let plan = FitPlan {
            name: self.name(),
            epochs: self.cfg.epochs,
            t_steps: self.cfg.t_steps,
            n_features: self.cfg.n_features,
            lr: self.cfg.lr,
            l2: 1e-4,
            abort_on_divergence: false,
        };
        fit_epochs(
            self,
            ds,
            plan,
            |m, opt, _, _, s| {
                let mut tape = Tape::new();
                let pred = m.forward(&mut tape, &s.x);
                let loss = tape.mse(pred, &s.y);
                let (loss, grad_norm) = optimise_step(&mut tape, loss, &mut m.store, opt, 5.0);
                StepStats { loss, mse: loss, rank: 0.0, grad_norm }
            },
            |m| m.store.value_norm(),
        )
    }

    fn scores_for_day(&mut self, ds: &StockDataset, end_day: usize) -> Vec<f32> {
        let s = ds.sample(end_day, self.cfg.t_steps, self.cfg.n_features);
        let mut tape = Tape::new();
        let pred = self.forward(&mut tape, &s.x);
        let out = tape.value(pred).data().to_vec();
        self.store.clear_bindings();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtgcn_market::{Market, Scale, UniverseSpec};

    fn tiny_ds() -> StockDataset {
        let mut spec = UniverseSpec::of(Market::Csi, Scale::Small);
        spec.stocks = 6;
        spec.train_days = 45;
        spec.test_days = 8;
        StockDataset::generate(spec, 7)
    }

    fn tiny_cfg() -> SfmConfig {
        SfmConfig { t_steps: 8, n_features: 2, hidden: 6, freqs: 3, epochs: 2, lr: 2e-3 }
    }

    #[test]
    fn fit_and_score_finite() {
        let ds = tiny_ds();
        let mut m = Sfm::new(tiny_cfg(), 1);
        let rep = m.fit(&ds);
        assert!(rep.final_loss.is_finite());
        let scores = m.scores_for_day(&ds, ds.test_end_days()[0]);
        assert_eq!(scores.len(), 6);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn frequency_state_is_three_dimensional() {
        // A forward pass must not panic on shape mismatches across
        // (N, H, K) broadcasting — this exercises the whole recurrence.
        let ds = tiny_ds();
        let m = Sfm::new(tiny_cfg(), 2);
        let s = ds.sample(40, 8, 2);
        let mut tape = Tape::new();
        let pred = m.forward(&mut tape, &s.x);
        assert_eq!(tape.value(pred).dims(), &[6]);
        m.store.clear_bindings();
    }

    #[test]
    fn loss_decreases() {
        let ds = tiny_ds();
        let mut cfg = tiny_cfg();
        cfg.epochs = 4;
        let mut m = Sfm::new(cfg, 3);
        let rep = m.fit(&ds);
        assert!(
            rep.epoch_losses.last().unwrap() <= rep.epoch_losses.first().unwrap(),
            "{:?}",
            rep.epoch_losses
        );
    }

    #[test]
    fn gradients_reach_frequency_gates() {
        let ds = tiny_ds();
        let mut m = Sfm::new(tiny_cfg(), 4);
        let s = ds.sample(40, 8, 2);
        let mut tape = Tape::new();
        let pred = m.forward(&mut tape, &s.x);
        let loss = tape.mse(pred, &s.y);
        tape.backward(loss);
        m.store.absorb_grads(&tape);
        let id = m.store.id("f_freq.wx").unwrap();
        assert!(m.store.grad(id).norm() > 0.0, "frequency forget gate must receive gradient");
    }
}
