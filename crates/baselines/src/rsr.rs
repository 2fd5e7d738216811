//! RSR — Relational Stock Ranking (Feng et al., TOIS 2019 [9]), the paper's
//! strongest baseline family. Two-step architecture: an LSTM encodes each
//! stock's window into a sequential embedding, then a *temporal graph
//! convolution* revises embeddings through the relation graph, and a fully
//! connected head produces the ranking score (trained with the same
//! regression + pairwise-ranking objective).
//!
//! Two relation-strength variants, as in the original:
//! - **RSR_I (implicit)**: strength `g_ij = e_iᵀ e_j` from embedding
//!   similarity alone;
//! - **RSR_E (explicit)**: similarity is modulated by a learned function of
//!   the relation vector, `g_ij = (e_iᵀ e_j) · (𝒜_ijᵀ w + b)`.
//!
//! Both are normalised by destination degree before propagation.

use crate::lstm_rankers::BASELINE_L2;
use crate::recurrent::{optimise_step, split_window, LstmCell};
use rtgcn_core::{fit_epochs, FitPlan, FitReport, StepStats, StockRanker};
use rtgcn_graph::RelationTensor;
use rtgcn_market::{RelationKind, StockDataset};
use rtgcn_tensor::{init, CsrEdges, ParamId, ParamStore, Tape, Tensor, Var};
use serde::{Deserialize, Serialize};

/// Which relation-strength function RSR uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RsrVariant {
    Implicit,
    Explicit,
}

/// RSR configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RsrConfig {
    pub t_steps: usize,
    pub n_features: usize,
    pub hidden: usize,
    pub epochs: usize,
    pub lr: f32,
    pub alpha: f32,
    pub variant: RsrVariant,
    /// Relation family used to build the graph.
    pub relation_kind: RelationKind,
    /// Stop the fit loop early once the health monitor reports divergence.
    pub abort_on_divergence: bool,
}

impl Default for RsrConfig {
    fn default() -> Self {
        RsrConfig {
            t_steps: 16,
            n_features: 4,
            hidden: 32,
            epochs: 6,
            lr: 1e-3,
            alpha: 0.1,
            variant: RsrVariant::Explicit,
            relation_kind: RelationKind::Both,
            abort_on_divergence: false,
        }
    }
}

/// The RSR model. Built lazily on first `fit` because the relation graph
/// comes from the dataset.
pub struct Rsr {
    pub cfg: RsrConfig,
    seed: u64,
    store: ParamStore,
    cell: Option<LstmCell>,
    w_rel: Option<ParamId>,
    b_rel: Option<ParamId>,
    w_out: Option<ParamId>,
    b_out: Option<ParamId>,
    csr: Option<CsrEdges>,
    multi_hot: Option<Tensor>,
    inv_deg_dst: Option<Tensor>,
}

impl Rsr {
    pub fn new(cfg: RsrConfig, seed: u64) -> Self {
        Rsr {
            cfg,
            seed,
            store: ParamStore::new(),
            cell: None,
            w_rel: None,
            b_rel: None,
            w_out: None,
            b_out: None,
            csr: None,
            multi_hot: None,
            inv_deg_dst: None,
        }
    }

    fn ensure_built(&mut self, relations: &RelationTensor) {
        if self.cell.is_some() {
            return;
        }
        let mut rng = init::rng(self.seed);
        let cfg = &self.cfg;
        self.cell =
            Some(LstmCell::new(&mut self.store, "lstm", cfg.n_features, cfg.hidden, &mut rng));
        let k = relations.num_types().max(1);
        self.w_rel = Some(self.store.add("rel.w", init::normal([k, 1], 0.1, &mut rng)));
        self.b_rel = Some(self.store.add("rel.b", Tensor::from_vec(vec![1.0])));
        self.w_out = Some(self.store.add("out.w", init::xavier([2 * cfg.hidden, 1], &mut rng)));
        self.b_out = Some(self.store.add("out.b", Tensor::zeros([1])));
        let n = relations.num_stocks();
        let pairs = relations.directed_edges();
        let mut deg = vec![0.0f32; n];
        for &[_, d] in &pairs {
            deg[d] += 1.0;
        }
        let inv: Vec<f32> =
            pairs.iter().map(|&[_, d]| 1.0 / deg[d].max(1.0)).collect();
        self.inv_deg_dst = Some(Tensor::from_vec(inv));
        let hot = if relations.num_types() == 0 {
            Tensor::zeros([pairs.len(), 1])
        } else {
            Tensor::new([pairs.len(), relations.num_types()], relations.edge_multi_hot_flat())
        };
        self.multi_hot = Some(hot);
        self.csr = Some(CsrEdges::from_pairs(n, pairs));
    }

    /// Forward to ranking scores `(N)`.
    fn forward(&self, tape: &mut Tape, x: &Tensor) -> Var {
        let n = x.dims()[1];
        let cell = self.cell.as_ref().expect("fit() builds the model first");
        let csr = self.csr.as_ref().unwrap();
        let edges = &csr.edges;
        let temporal = rtgcn_telemetry::span("temporal");
        let xs = split_window(tape, x);
        let hs = cell.encode(tape, &self.store, &xs, n);
        let e = *hs.last().expect("non-empty window"); // (N, H)
        drop(temporal);
        let _relational = rtgcn_telemetry::span("relational");
        // Relation strength per edge.
        let sim = tape.edge_dot(edges, e, 1.0); // e_iᵀe_j
        let strength = match self.cfg.variant {
            RsrVariant::Implicit => sim,
            RsrVariant::Explicit => {
                let hot = tape.constant(self.multi_hot.clone().unwrap());
                let w = self.store.bind(tape, self.w_rel.unwrap());
                let b = self.store.bind(tape, self.b_rel.unwrap());
                let imp = tape.linear(hot, w, b);
                let imp = tape.reshape(imp, [edges.len()]);
                tape.mul(sim, imp)
            }
        };
        let inv_deg = tape.constant(self.inv_deg_dst.clone().unwrap());
        let weights = tape.mul(strength, inv_deg);
        // One plane of the batched kernel, weights shared.
        let h = tape.value(e).dims()[1];
        let e_plane = tape.reshape(e, [1, n, h]);
        let revised = tape.spmm_batched(csr, weights, e_plane);
        let revised = tape.reshape(revised, [n, h]); // (N, H)
        let revised = tape.leaky_relu(revised);
        drop(_relational);
        // Concat [e ; revised] along features.
        let e_t = tape.transpose2(e);
        let r_t = tape.transpose2(revised);
        let cat = tape.concat0(&[e_t, r_t]);
        let feats = tape.transpose2(cat); // (N, 2H)
        let w = self.store.bind(tape, self.w_out.unwrap());
        let b = self.store.bind(tape, self.b_out.unwrap());
        let out = tape.linear(feats, w, b);
        tape.reshape(out, [n])
    }

    /// Inference scores for one `(T, N, D)` window (the model must be built).
    fn score(&self, x: &Tensor) -> Vec<f32> {
        let mut tape = Tape::new();
        let pred = self.forward(&mut tape, x);
        tape.value(pred).data().to_vec()
    }
}

impl StockRanker for Rsr {
    fn name(&self) -> String {
        match self.cfg.variant {
            RsrVariant::Implicit => "RSR_I".into(),
            RsrVariant::Explicit => "RSR_E".into(),
        }
    }

    fn fit(&mut self, ds: &StockDataset) -> FitReport {
        let relations = ds.relations(self.cfg.relation_kind);
        self.ensure_built(&relations);
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
        let relations = ds.relations(self.cfg.relation_kind);
        self.ensure_built(&relations);
        let s = ds.sample(end_day, self.cfg.t_steps, self.cfg.n_features);
        self.score(&s.x)
    }

    fn prepare(&mut self, ds: &StockDataset) {
        let relations = ds.relations(self.cfg.relation_kind);
        self.ensure_built(&relations);
    }

    fn score_window(&mut self, x: &Tensor) -> Option<Vec<f32>> {
        self.cell.as_ref()?;
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
        spec.test_days = 8;
        StockDataset::generate(spec, 6)
    }

    fn tiny_cfg(variant: RsrVariant) -> RsrConfig {
        RsrConfig {
            t_steps: 8,
            n_features: 2,
            hidden: 8,
            epochs: 2,
            variant,
            ..Default::default()
        }
    }

    #[test]
    fn both_variants_fit_and_score() {
        let ds = tiny_ds();
        for variant in [RsrVariant::Implicit, RsrVariant::Explicit] {
            let mut m = Rsr::new(tiny_cfg(variant), 1);
            let rep = m.fit(&ds);
            assert!(rep.final_loss.is_finite(), "{variant:?}");
            let scores = m.scores_for_day(&ds, ds.test_end_days()[0]);
            assert_eq!(scores.len(), 8);
            assert!(scores.iter().all(|s| s.is_finite()), "{variant:?}");
        }
    }

    #[test]
    fn names() {
        assert_eq!(Rsr::new(tiny_cfg(RsrVariant::Implicit), 1).name(), "RSR_I");
        assert_eq!(Rsr::new(tiny_cfg(RsrVariant::Explicit), 1).name(), "RSR_E");
    }

    #[test]
    fn explicit_uses_relation_parameters() {
        let ds = tiny_ds();
        let mut m = Rsr::new(tiny_cfg(RsrVariant::Explicit), 2);
        let relations = ds.relations(RelationKind::Both);
        m.ensure_built(&relations);
        let s = ds.sample(40, 8, 2);
        let mut tape = Tape::new();
        let pred = m.forward(&mut tape, &s.x);
        let loss = tape.combined_rank_loss(pred, &s.y, 0.1);
        tape.backward(loss);
        m.store.absorb_grads(&tape);
        let id = m.store.id("rel.w").unwrap();
        assert!(m.store.grad(id).norm() > 0.0, "explicit variant must train rel.w");
    }

    #[test]
    fn revision_depends_on_relations() {
        // Same prices and weights, different relation graphs (wiki vs
        // industry — NASDAQ has both) must give different scores.
        let mut spec = UniverseSpec::of(Market::Nasdaq, Scale::Small);
        spec.stocks = 30;
        spec.train_days = 40;
        spec.test_days = 8;
        let ds = StockDataset::generate(spec, 6);
        let mut a = Rsr::new(
            RsrConfig { relation_kind: RelationKind::Wiki, ..tiny_cfg(RsrVariant::Implicit) },
            9,
        );
        let mut b = Rsr::new(
            RsrConfig { relation_kind: RelationKind::Industry, ..tiny_cfg(RsrVariant::Implicit) },
            9,
        );
        let day = ds.test_end_days()[0];
        let sa = a.scores_for_day(&ds, day);
        let sb = b.scores_for_day(&ds, day);
        // Identical LSTM weights (same seed), different graphs → generally
        // different revisions. (Equality would mean relations are ignored.)
        assert_ne!(sa, sb);
    }
}
