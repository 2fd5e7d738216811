//! A-LSTM — attentive LSTM with adversarial training (Feng et al.,
//! IJCAI 2019 [41]), a *classification* baseline: it predicts
//! up / neutral / down and cannot rank (Table IV prints `-` for its MRR).
//!
//! Architecture: shared LSTM over each stock's window → temporal attention
//! over hidden states → latent `e = [h_T ; Σ_t α_t h_t]` → 3-class softmax.
//! Adversarial training perturbs the latent along the loss gradient
//! (`e_adv = e + ε·g/‖g‖`, FGSM-style) and adds the classification loss on
//! the perturbed latent. Simplification vs the original: the adversarial
//! pass back-propagates into the classification head only (the perturbed
//! latent is re-inserted as a fresh leaf), which preserves the
//! regularisation effect on the decision boundary.

use crate::recurrent::{split_window, LstmCell};
use rtgcn_core::{fit_epochs, FitPlan, FitReport, StepStats, StockRanker};
use rtgcn_eval::CLASS_UP;
use rtgcn_market::StockDataset;
use rtgcn_tensor::{clip_grad_norm, init, Optimizer, ParamId, ParamStore, Tape, Tensor, Var};

/// A-LSTM configuration.
#[derive(Clone, Debug)]
pub struct ALstmConfig {
    pub t_steps: usize,
    pub n_features: usize,
    pub hidden: usize,
    pub attn_dim: usize,
    pub epochs: usize,
    pub lr: f32,
    /// FGSM perturbation radius ε.
    pub epsilon: f32,
    /// Weight of the adversarial loss term.
    pub beta: f32,
    /// Return-ratio threshold separating up / neutral / down.
    pub class_threshold: f32,
}

impl Default for ALstmConfig {
    fn default() -> Self {
        ALstmConfig {
            t_steps: 16,
            n_features: 4,
            hidden: 32,
            attn_dim: 16,
            epochs: 6,
            lr: 1e-3,
            epsilon: 0.05,
            beta: 0.5,
            class_threshold: 0.002,
        }
    }
}

/// The adversarial attentive LSTM classifier.
pub struct ALstm {
    pub cfg: ALstmConfig,
    store: ParamStore,
    cell: LstmCell,
    w_attn: ParamId,
    b_attn: ParamId,
    v_attn: ParamId,
    w_cls: ParamId,
    b_cls: ParamId,
}

impl ALstm {
    pub fn new(cfg: ALstmConfig, seed: u64) -> Self {
        let mut rng = init::rng(seed);
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "lstm", cfg.n_features, cfg.hidden, &mut rng);
        let w_attn = store.add("attn.w", init::xavier([cfg.hidden, cfg.attn_dim], &mut rng));
        let b_attn = store.add("attn.b", Tensor::zeros([cfg.attn_dim]));
        let v_attn = store.add("attn.v", init::xavier([cfg.attn_dim, 1], &mut rng));
        let w_cls = store.add("cls.w", init::xavier([2 * cfg.hidden, 3], &mut rng));
        let b_cls = store.add("cls.b", Tensor::zeros([3]));
        ALstm { cfg, store, cell, w_attn, b_attn, v_attn, w_cls, b_cls }
    }

    /// Encode a window into the latent `(N, 2H)`.
    fn latent(&self, tape: &mut Tape, x: &Tensor) -> Var {
        let n = x.dims()[1];
        let _temporal = rtgcn_telemetry::span("temporal");
        let xs = split_window(tape, x);
        let hs = self.cell.encode(tape, &self.store, &xs, n);
        // Attention scores per step: s_t = vᵀ tanh(W h_t + b) → (N, 1).
        let wa = self.store.bind(tape, self.w_attn);
        let ba = self.store.bind(tape, self.b_attn);
        let va = self.store.bind(tape, self.v_attn);
        let scores: Vec<Var> = hs
            .iter()
            .map(|&h| {
                let u = tape.linear(h, wa, ba);
                let u = tape.tanh(u);
                let s = tape.matmul(u, va); // (N,1)
                tape.reshape(s, [n])
            })
            .collect();
        let st = tape.stack0(&scores); // (T, N)
        let stt = tape.transpose2(st); // (N, T)
        let alpha = tape.softmax(stt); // softmax over time
        let alpha_t = tape.transpose2(alpha); // (T, N)
        // Weighted sum of hidden states.
        let mut acc: Option<Var> = None;
        for (t, &h) in hs.iter().enumerate() {
            let a_row = tape.slice_rows(alpha_t, t, t + 1); // (1, N)
            let a_col = tape.reshape(a_row, [n, 1]);
            let term = tape.mul(h, a_col); // broadcast over H
            acc = Some(match acc {
                Some(prev) => tape.add(prev, term),
                None => term,
            });
        }
        let context = acc.expect("window must be non-empty");
        let last = *hs.last().expect("window must be non-empty");
        // Latent = [h_T ; context] — concat along features via transpose +
        // concat0 (axis-0 concat of transposed matrices).
        let last_t = tape.transpose2(last); // (H, N)
        let ctx_t = tape.transpose2(context); // (H, N)
        let cat = tape.concat0(&[last_t, ctx_t]); // (2H, N)
        tape.transpose2(cat) // (N, 2H)
    }

    fn logits_from_latent(&self, tape: &mut Tape, e: Var) -> Var {
        let w = self.store.bind(tape, self.w_cls);
        let b = self.store.bind(tape, self.b_cls);
        tape.linear(e, w, b)
    }

    fn labels(&self, y: &Tensor) -> Vec<usize> {
        y.data()
            .iter()
            .map(|&r| {
                if r > self.cfg.class_threshold {
                    2
                } else if r < -self.cfg.class_threshold {
                    0
                } else {
                    1
                }
            })
            .collect()
    }
}

impl StockRanker for ALstm {
    fn name(&self) -> String {
        "A-LSTM".into()
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
                let labels = m.labels(&s.y);
                // Clean pass.
                let mut tape = Tape::new();
                let e = m.latent(&mut tape, &s.x);
                let logits = m.logits_from_latent(&mut tape, e);
                let loss = tape.cross_entropy(logits, &labels);
                let loss_val = tape.value(loss).item();
                let backward = rtgcn_telemetry::span("backward");
                tape.backward(loss);
                let e_grad = tape.grad(e).cloned();
                let e_val = tape.value(e).clone();
                m.store.absorb_grads(&tape);
                // Adversarial pass on the perturbed latent.
                if let Some(g) = e_grad {
                    let norm = g.norm().max(1e-8);
                    let scale = m.cfg.epsilon / norm;
                    let mut adv = e_val;
                    for (a, &gv) in adv.data_mut().iter_mut().zip(g.data()) {
                        *a += scale * gv;
                    }
                    let mut tape2 = Tape::new();
                    let e_adv = tape2.constant(adv);
                    let logits2 = m.logits_from_latent(&mut tape2, e_adv);
                    let loss2 = tape2.cross_entropy(logits2, &labels);
                    let weighted = tape2.scale(loss2, m.cfg.beta);
                    tape2.backward(weighted);
                    m.store.absorb_grads(&tape2);
                }
                drop(backward);
                // One clip and step over the gradients of both tapes.
                let _optim = rtgcn_telemetry::span("optim");
                let grad_norm = clip_grad_norm(&mut m.store, 5.0);
                opt.step(&mut m.store);
                StepStats { loss: loss_val, mse: 0.0, rank: 0.0, grad_norm }
            },
            |m| m.store.value_norm(),
        )
    }

    fn scores_for_day(&mut self, ds: &StockDataset, end_day: usize) -> Vec<f32> {
        let s = ds.sample(end_day, self.cfg.t_steps, self.cfg.n_features);
        let mut tape = Tape::new();
        let e = self.latent(&mut tape, &s.x);
        let logits = self.logits_from_latent(&mut tape, e);
        let lv = tape.value(logits);
        let n = lv.dims()[0];
        let out = (0..n)
            .map(|i| {
                let row = &lv.data()[i * 3..(i + 1) * 3];
                let cls = (0..3).max_by(|&a, &b| row[a].total_cmp(&row[b])).unwrap();
                match cls {
                    2 => CLASS_UP,
                    1 => 1.0,
                    _ => 0.0,
                }
            })
            .collect();
        self.store.clear_bindings();
        out
    }

    fn can_rank(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtgcn_market::{Market, Scale, UniverseSpec};

    fn tiny_ds() -> StockDataset {
        let mut spec = UniverseSpec::of(Market::Csi, Scale::Small);
        spec.stocks = 8;
        spec.train_days = 50;
        spec.test_days = 8;
        StockDataset::generate(spec, 5)
    }

    fn tiny_cfg() -> ALstmConfig {
        ALstmConfig {
            t_steps: 8,
            n_features: 2,
            hidden: 8,
            attn_dim: 4,
            epochs: 2,
            ..Default::default()
        }
    }

    #[test]
    fn fit_and_classify() {
        let ds = tiny_ds();
        let mut m = ALstm::new(tiny_cfg(), 1);
        let rep = m.fit(&ds);
        assert!(rep.final_loss.is_finite());
        let day = ds.test_end_days()[0];
        let scores = m.scores_for_day(&ds, day);
        assert_eq!(scores.len(), 8);
        assert!(scores.iter().all(|&s| s == 0.0 || s == 1.0 || s == 2.0));
        assert!(!m.can_rank());
    }

    #[test]
    fn labels_thresholded() {
        let m = ALstm::new(tiny_cfg(), 1);
        let y = Tensor::from_vec(vec![0.05, -0.05, 0.0001]);
        assert_eq!(m.labels(&y), vec![2, 0, 1]);
    }

    #[test]
    fn latent_has_double_hidden_width() {
        let ds = tiny_ds();
        let m = ALstm::new(tiny_cfg(), 2);
        let s = ds.sample(40, 8, 2);
        let mut tape = Tape::new();
        let e = m.latent(&mut tape, &s.x);
        assert_eq!(tape.value(e).dims(), &[8, 16]);
        m.store.clear_bindings();
    }

    #[test]
    fn adversarial_training_reduces_loss() {
        let ds = tiny_ds();
        let mut cfg = tiny_cfg();
        cfg.epochs = 4;
        let mut m = ALstm::new(cfg, 3);
        let rep = m.fit(&ds);
        assert!(
            rep.epoch_losses.last().unwrap() <= rep.epoch_losses.first().unwrap(),
            "{:?}",
            rep.epoch_losses
        );
    }
}
