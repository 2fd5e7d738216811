//! STHAN-SR — spatiotemporal hypergraph attention network for stock ranking
//! (Sawhney et al., AAAI 2021 [10]), the Table V comparator.
//!
//! Faithful-at-moderate-simplification reimplementation:
//!
//! - **Hypergraph**: one hyperedge per industry group plus one per wiki
//!   relation pair; spatial propagation uses the HGNN operator
//!   `D_v^{-1/2} H W D_e^{-1} Hᵀ D_v^{-1/2}` (materialised by
//!   `rtgcn_graph::Hypergraph::propagation_edges`).
//! - **Hawkes temporal attention**: per-step embeddings are pooled with
//!   attention whose logits add a learnable exponential-decay excitation
//!   `ε·exp(−δ·(T−t))` — recent days excite the representation more, with
//!   learned intensity (the Hawkes kernel of [12]).
//!
//! Simplification vs the original (documented per DESIGN.md §6): hyperedge
//! attention is replaced by the fixed spectral operator; the temporal
//! Hawkes attention and the learning-to-rank objective are as published.

use crate::lstm_rankers::BASELINE_L2;
use crate::recurrent::{optimise_step, split_window};
use rtgcn_core::{fit_epochs, FitPlan, FitReport, StepStats, StockRanker};
use rtgcn_graph::Hypergraph;
use rtgcn_market::{RelationKind, StockDataset};
use rtgcn_tensor::{init, CsrEdges, ParamId, ParamStore, Tape, Tensor, Var};
use serde::{Deserialize, Serialize};

/// STHAN-SR configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SthanConfig {
    pub t_steps: usize,
    pub n_features: usize,
    pub hidden: usize,
    pub epochs: usize,
    pub lr: f32,
    pub alpha: f32,
    pub relation_kind: RelationKind,
    /// Stop the fit loop early once the health monitor reports divergence.
    pub abort_on_divergence: bool,
}

impl Default for SthanConfig {
    fn default() -> Self {
        SthanConfig {
            t_steps: 16,
            n_features: 4,
            hidden: 32,
            epochs: 6,
            lr: 1e-3,
            alpha: 0.1,
            relation_kind: RelationKind::Both,
            abort_on_divergence: false,
        }
    }
}

/// The STHAN-SR model.
pub struct Sthan {
    pub cfg: SthanConfig,
    seed: u64,
    store: ParamStore,
    built: bool,
    w_emb: Option<ParamId>,
    b_emb: Option<ParamId>,
    v_attn: Option<ParamId>,
    hawkes_eps: Option<ParamId>,
    hawkes_delta: Option<ParamId>,
    w_hg: Option<ParamId>,
    w_out: Option<ParamId>,
    b_out: Option<ParamId>,
    hg_csr: Option<CsrEdges>,
    hg_weights: Option<Tensor>,
}

impl Sthan {
    pub fn new(cfg: SthanConfig, seed: u64) -> Self {
        Sthan {
            cfg,
            seed,
            store: ParamStore::new(),
            built: false,
            w_emb: None,
            b_emb: None,
            v_attn: None,
            hawkes_eps: None,
            hawkes_delta: None,
            w_hg: None,
            w_out: None,
            b_out: None,
            hg_csr: None,
            hg_weights: None,
        }
    }

    fn ensure_built(&mut self, ds: &StockDataset) {
        if self.built {
            return;
        }
        let mut rng = init::rng(self.seed);
        let cfg = &self.cfg;
        let n = ds.n_stocks();
        // Build the hypergraph: industry groups + wiki pairs.
        let mut hg = Hypergraph::new(n);
        if matches!(cfg.relation_kind, RelationKind::Industry | RelationKind::Both) {
            let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
            for (stock, &g) in ds.industry.industry_of.iter().enumerate() {
                groups.entry(g).or_default().push(stock);
            }
            for members in groups.into_values() {
                if members.len() >= 2 {
                    hg.add_hyperedge(members);
                }
            }
        }
        if matches!(cfg.relation_kind, RelationKind::Wiki | RelationKind::Both) {
            for e in &ds.wiki.edges {
                hg.add_hyperedge(vec![e.leader, e.follower]);
            }
        }
        let (edges, weights) = hg.propagation_edges();
        self.hg_csr = Some(CsrEdges::new(edges));
        self.hg_weights = Some(Tensor::from_vec(weights));
        self.w_emb = Some(self.store.add("emb.w", init::xavier([cfg.n_features, cfg.hidden], &mut rng)));
        self.b_emb = Some(self.store.add("emb.b", Tensor::zeros([cfg.hidden])));
        self.v_attn = Some(self.store.add("attn.v", init::xavier([cfg.hidden, 1], &mut rng)));
        self.hawkes_eps = Some(self.store.add("hawkes.eps", Tensor::from_vec(vec![0.5])));
        self.hawkes_delta = Some(self.store.add("hawkes.delta", Tensor::from_vec(vec![0.3])));
        self.w_hg = Some(self.store.add("hg.w", init::xavier([cfg.hidden, cfg.hidden], &mut rng)));
        self.w_out = Some(self.store.add("out.w", init::xavier([2 * cfg.hidden, 1], &mut rng)));
        self.b_out = Some(self.store.add("out.b", Tensor::zeros([1])));
        self.built = true;
    }

    fn forward(&self, tape: &mut Tape, x: &Tensor) -> Var {
        let n = x.dims()[1];
        let t_len = x.dims()[0];
        let temporal = rtgcn_telemetry::span("temporal");
        let xs = split_window(tape, x);
        let w_emb = self.store.bind(tape, self.w_emb.unwrap());
        let b_emb = self.store.bind(tape, self.b_emb.unwrap());
        // Per-step embeddings.
        let es: Vec<Var> = xs
            .iter()
            .map(|&x_t| {
                let e = tape.linear(x_t, w_emb, b_emb);
                tape.tanh(e)
            })
            .collect();
        // Hawkes attention over time: logit_t = e_t·v + ε·exp(−δ(T−1−t)).
        let v = self.store.bind(tape, self.v_attn.unwrap());
        let eps = self.store.bind(tape, self.hawkes_eps.unwrap());
        let delta = self.store.bind(tape, self.hawkes_delta.unwrap());
        let scores: Vec<Var> = es
            .iter()
            .enumerate()
            .map(|(t, &e)| {
                let s = tape.matmul(e, v); // (N, 1)
                let s = tape.reshape(s, [n]);
                let lag = (t_len - 1 - t) as f32;
                let neg_lag = tape.scale(delta, -lag); // (1)
                let decay = tape.exp(neg_lag);
                let excite = tape.mul(eps, decay); // (1), broadcasts over N
                tape.add(s, excite)
            })
            .collect();
        let st = tape.stack0(&scores); // (T, N)
        let stt = tape.transpose2(st); // (N, T)
        let lam = tape.softmax(stt);
        let lam_t = tape.transpose2(lam); // (T, N)
        let mut pooled: Option<Var> = None;
        for (t, &e) in es.iter().enumerate() {
            let row = tape.slice_rows(lam_t, t, t + 1);
            let col = tape.reshape(row, [n, 1]);
            let term = tape.mul(e, col);
            pooled = Some(match pooled {
                Some(p) => tape.add(p, term),
                None => term,
            });
        }
        let z = pooled.expect("non-empty window"); // (N, H)
        drop(temporal);
        // Spatial hypergraph propagation.
        let relational = rtgcn_telemetry::span("relational");
        let hw = tape.constant(self.hg_weights.clone().unwrap());
        // One plane of the batched kernel, weights shared.
        let h = tape.value(z).dims()[1];
        let z_plane = tape.reshape(z, [1, n, h]);
        let prop = tape.spmm_batched(self.hg_csr.as_ref().unwrap(), hw, z_plane);
        let prop = tape.reshape(prop, [n, h]);
        let w_hg = self.store.bind(tape, self.w_hg.unwrap());
        let prop = tape.matmul(prop, w_hg);
        let zp = tape.relu(prop); // (N, H)
        drop(relational);
        // Score head on [z ; z'].
        let z_t = tape.transpose2(z);
        let zp_t = tape.transpose2(zp);
        let cat = tape.concat0(&[z_t, zp_t]);
        let feats = tape.transpose2(cat);
        let w = self.store.bind(tape, self.w_out.unwrap());
        let b = self.store.bind(tape, self.b_out.unwrap());
        let out = tape.linear(feats, w, b);
        tape.reshape(out, [n])
    }

    /// Inference scores for one `(T, N, D)` window (the model must be built).
    fn score(&self, x: &Tensor) -> Vec<f32> {
        let mut tape = Tape::new();
        let pred = self.forward(&mut tape, x);
        let out = tape.value(pred).data().to_vec();
        self.store.clear_bindings();
        out
    }
}

impl StockRanker for Sthan {
    fn name(&self) -> String {
        "STHAN-SR".into()
    }

    fn fit(&mut self, ds: &StockDataset) -> FitReport {
        self.ensure_built(ds);
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
                let (loss, mse, rank) = tape.combined_rank_loss_parts(pred, &s.y, m.cfg.alpha);
                let (loss, grad_norm) = optimise_step(&mut tape, loss, &mut m.store, opt, 5.0);
                StepStats { loss, mse, rank, grad_norm }
            },
            |m| m.store.value_norm(),
        )
    }

    fn scores_for_day(&mut self, ds: &StockDataset, end_day: usize) -> Vec<f32> {
        self.ensure_built(ds);
        let s = ds.sample(end_day, self.cfg.t_steps, self.cfg.n_features);
        self.score(&s.x)
    }

    fn prepare(&mut self, ds: &StockDataset) {
        self.ensure_built(ds);
    }

    fn score_window(&mut self, x: &Tensor) -> Option<Vec<f32>> {
        if !self.built {
            return None;
        }
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
        let mut spec = UniverseSpec::of(Market::Nasdaq, Scale::Small);
        spec.stocks = 10;
        spec.train_days = 50;
        spec.test_days = 8;
        StockDataset::generate(spec, 11)
    }

    fn tiny_cfg() -> SthanConfig {
        SthanConfig { t_steps: 8, n_features: 2, hidden: 8, epochs: 2, ..Default::default() }
    }

    #[test]
    fn fit_and_score() {
        let ds = tiny_ds();
        let mut m = Sthan::new(tiny_cfg(), 1);
        let rep = m.fit(&ds);
        assert!(rep.final_loss.is_finite());
        let scores = m.scores_for_day(&ds, ds.test_end_days()[0]);
        assert_eq!(scores.len(), 10);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn hawkes_parameters_receive_gradient() {
        let ds = tiny_ds();
        let mut m = Sthan::new(tiny_cfg(), 2);
        m.ensure_built(&ds);
        let s = ds.sample(40, 8, 2);
        let mut tape = Tape::new();
        let pred = m.forward(&mut tape, &s.x);
        let loss = tape.combined_rank_loss(pred, &s.y, 0.1);
        tape.backward(loss);
        m.store.absorb_grads(&tape);
        for name in ["hawkes.eps", "hawkes.delta"] {
            let id = m.store.id(name).unwrap();
            assert!(m.store.grad(id).norm() > 0.0, "no gradient at {name}");
        }
    }

    #[test]
    fn hypergraph_built_from_industries_and_wiki() {
        let ds = tiny_ds();
        let mut m = Sthan::new(tiny_cfg(), 3);
        m.ensure_built(&ds);
        assert!(m.hg_csr.as_ref().unwrap().len() > ds.n_stocks(), "more than self-loops");
    }

    #[test]
    fn training_improves() {
        let ds = tiny_ds();
        let mut cfg = tiny_cfg();
        cfg.epochs = 4;
        let mut m = Sthan::new(cfg, 4);
        let rep = m.fit(&ds);
        assert!(
            rep.epoch_losses.last().unwrap() <= rep.epoch_losses.first().unwrap(),
            "{:?}",
            rep.epoch_losses
        );
    }
}
