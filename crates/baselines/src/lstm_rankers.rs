//! The LSTM regression baseline (Bao et al. [16]) and its learning-to-rank
//! variant Rank_LSTM (Feng et al. [9]): a shared LSTM encodes each stock's
//! window (stocks = batch), the final hidden state is mapped to a scalar.
//! LSTM trains with pure MSE on the next-day return ratio; Rank_LSTM adds
//! the pairwise ranking hinge (Eq. 8) — the paper's canonical evidence that
//! ranking losses beat regression for investment revenue.

use crate::recurrent::{optimise_step, split_window, LstmCell};
use rtgcn_core::{fit_epochs, FitPlan, FitReport, StepStats, StockRanker};
use rtgcn_market::StockDataset;
use rtgcn_tensor::{init, ParamId, ParamStore, Tape, Tensor};
use serde::{Deserialize, Serialize};

/// L2 weight-decay λ of the LSTM/Rank_LSTM, RSR and STHAN-SR optimisers.
pub(crate) const BASELINE_L2: f32 = 1e-4;

/// Shared hyperparameters for the sequence baselines.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SeqConfig {
    pub t_steps: usize,
    pub n_features: usize,
    pub hidden: usize,
    pub epochs: usize,
    pub lr: f32,
    /// Ranking-loss weight (used only when ranking is enabled).
    pub alpha: f32,
    /// Stop the fit loop early once the health monitor reports divergence.
    pub abort_on_divergence: bool,
}

impl Default for SeqConfig {
    fn default() -> Self {
        SeqConfig {
            t_steps: 16,
            n_features: 4,
            hidden: 32,
            epochs: 6,
            lr: 1e-3,
            alpha: 0.1,
            abort_on_divergence: false,
        }
    }
}

/// LSTM / Rank_LSTM baseline.
pub struct LstmRanker {
    pub cfg: SeqConfig,
    store: ParamStore,
    cell: LstmCell,
    w_out: ParamId,
    b_out: ParamId,
    /// `false` → plain regression (LSTM [16]); `true` → Rank_LSTM [9].
    ranking: bool,
}

impl LstmRanker {
    pub fn regression(cfg: SeqConfig, seed: u64) -> Self {
        Self::build(cfg, seed, false)
    }

    pub fn ranking(cfg: SeqConfig, seed: u64) -> Self {
        Self::build(cfg, seed, true)
    }

    fn build(cfg: SeqConfig, seed: u64, ranking: bool) -> Self {
        let mut rng = init::rng(seed);
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "lstm", cfg.n_features, cfg.hidden, &mut rng);
        let w_out = store.add("out.w", init::xavier([cfg.hidden, 1], &mut rng));
        let b_out = store.add("out.b", Tensor::zeros([1]));
        LstmRanker { cfg, store, cell, w_out, b_out, ranking }
    }

    fn forward(&self, tape: &mut Tape, x: &Tensor) -> rtgcn_tensor::Var {
        let n = x.dims()[1];
        let temporal = rtgcn_telemetry::span("temporal");
        let xs = split_window(tape, x);
        let hs = self.cell.encode(tape, &self.store, &xs, n);
        drop(temporal);
        let w = self.store.bind(tape, self.w_out);
        let b = self.store.bind(tape, self.b_out);
        let out = tape.linear(*hs.last().expect("empty window"), w, b);
        tape.reshape(out, [n])
    }

    /// Inference scores for one `(T, N, D)` window.
    fn score(&self, x: &Tensor) -> Vec<f32> {
        let mut tape = Tape::new();
        let pred = self.forward(&mut tape, x);
        let out = tape.value(pred).data().to_vec();
        self.store.clear_bindings();
        out
    }
}

impl StockRanker for LstmRanker {
    fn name(&self) -> String {
        if self.ranking { "Rank_LSTM".into() } else { "LSTM".into() }
    }

    fn fit(&mut self, ds: &StockDataset) -> FitReport {
        let plan = FitPlan {
            name: self.name(),
            epochs: self.cfg.epochs,
            t_steps: self.cfg.t_steps,
            n_features: self.cfg.n_features,
            lr: self.cfg.lr,
            l2: BASELINE_L2,
            abort_on_divergence: self.cfg.abort_on_divergence,
        };
        fit_epochs(
            self,
            ds,
            plan,
            |m, opt, _, _, s| {
                let mut tape = Tape::new();
                let pred = m.forward(&mut tape, &s.x);
                let (loss, mse, rank) = if m.ranking {
                    tape.combined_rank_loss_parts(pred, &s.y, m.cfg.alpha)
                } else {
                    let loss = tape.mse(pred, &s.y);
                    let mse = tape.value(loss).item();
                    (loss, mse, 0.0)
                };
                let (loss, grad_norm) = optimise_step(&mut tape, loss, &mut m.store, opt, 5.0);
                StepStats { loss, mse, rank, grad_norm }
            },
            |m| m.store.value_norm(),
        )
    }

    fn scores_for_day(&mut self, ds: &StockDataset, end_day: usize) -> Vec<f32> {
        let s = ds.sample(end_day, self.cfg.t_steps, self.cfg.n_features);
        self.score(&s.x)
    }

    fn score_window(&mut self, x: &Tensor) -> Option<Vec<f32>> {
        Some(self.score(x))
    }

    fn param_store(&self) -> Option<&ParamStore> {
        Some(&self.store)
    }

    fn param_store_mut(&mut self) -> Option<&mut ParamStore> {
        Some(&mut self.store)
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
        spec.test_days = 10;
        StockDataset::generate(spec, 3)
    }

    fn tiny_cfg() -> SeqConfig {
        SeqConfig { t_steps: 8, n_features: 2, hidden: 8, epochs: 2, ..Default::default() }
    }

    #[test]
    fn both_variants_fit_and_score() {
        let ds = tiny_ds();
        for ranking in [false, true] {
            let mut m = if ranking {
                LstmRanker::ranking(tiny_cfg(), 1)
            } else {
                LstmRanker::regression(tiny_cfg(), 1)
            };
            let rep = m.fit(&ds);
            assert!(rep.final_loss.is_finite());
            let day = ds.test_end_days()[0];
            let scores = m.scores_for_day(&ds, day);
            assert_eq!(scores.len(), 8);
            assert!(scores.iter().all(|s| s.is_finite()));
        }
    }

    #[test]
    fn names() {
        assert_eq!(LstmRanker::regression(tiny_cfg(), 1).name(), "LSTM");
        assert_eq!(LstmRanker::ranking(tiny_cfg(), 1).name(), "Rank_LSTM");
    }

    #[test]
    fn training_loss_decreases() {
        let ds = tiny_ds();
        let mut cfg = tiny_cfg();
        cfg.epochs = 4;
        let mut m = LstmRanker::ranking(cfg, 5);
        let rep = m.fit(&ds);
        assert!(
            rep.epoch_losses.last().unwrap() <= rep.epoch_losses.first().unwrap(),
            "{:?}",
            rep.epoch_losses
        );
    }
}
