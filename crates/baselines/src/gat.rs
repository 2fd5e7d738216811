//! RT-GAT — the paper's graph-attention ablation of RT-GCN (Table IV):
//! identical relation-temporal architecture, but the relational graph
//! convolution is replaced by a GAT layer (Veličković et al. [31]). Edges
//! connect any pair with at least one relation; attention weights come from
//! node features only, *ignoring the multi-hot relation vectors* — exactly
//! the deficiency the paper attributes to RT-GAT's weaker results.

use crate::recurrent::optimise_step;
use rtgcn_core::layers::TemporalConvBlock;
use rtgcn_core::{fit_epochs, FitPlan, FitReport, StepStats, StockRanker};
use rtgcn_graph::RelationTensor;
use rtgcn_market::{RelationKind, StockDataset};
use rtgcn_tensor::{init, ConvSpec, CsrEdges, Edges, ParamId, ParamStore, Tape, Tensor, Var};

/// RT-GAT configuration (mirrors `RtGcnConfig` where applicable).
#[derive(Clone, Debug)]
pub struct RtGatConfig {
    pub t_steps: usize,
    pub n_features: usize,
    pub filters: usize,
    pub temporal_filters: usize,
    pub kernel: usize,
    pub stride: usize,
    pub epochs: usize,
    pub lr: f32,
    pub alpha: f32,
    pub dropout: f32,
    pub relation_kind: RelationKind,
}

impl Default for RtGatConfig {
    fn default() -> Self {
        RtGatConfig {
            t_steps: 16,
            n_features: 4,
            filters: 32,
            temporal_filters: 32,
            kernel: 3,
            stride: 2,
            epochs: 6,
            lr: 1e-3,
            alpha: 0.1,
            dropout: 0.1,
            relation_kind: RelationKind::Both,
        }
    }
}

/// The RT-GAT model (built lazily from the dataset's relation graph).
pub struct RtGat {
    pub cfg: RtGatConfig,
    seed: u64,
    store: ParamStore,
    csr: Option<CsrEdges>,
    w_feat: Option<ParamId>,
    w_self: Option<ParamId>,
    a_src: Option<ParamId>,
    a_dst: Option<ParamId>,
    tcn: Option<TemporalConvBlock>,
    fc_w: Option<ParamId>,
    fc_b: Option<ParamId>,
    rng: rand::rngs::StdRng,
}

impl RtGat {
    pub fn new(cfg: RtGatConfig, seed: u64) -> Self {
        RtGat {
            cfg,
            seed,
            store: ParamStore::new(),
            csr: None,
            w_feat: None,
            w_self: None,
            a_src: None,
            a_dst: None,
            tcn: None,
            fc_w: None,
            fc_b: None,
            rng: init::rng(seed ^ 0xd20),
        }
    }

    fn ensure_built(&mut self, relations: &RelationTensor) {
        if self.csr.is_some() {
            return;
        }
        let mut rng = init::rng(self.seed);
        let cfg = &self.cfg;
        let n = relations.num_stocks();
        // GAT connects any related pair plus self-loops.
        let mut pairs = relations.directed_edges();
        for i in 0..n {
            pairs.push([i, i]);
        }
        self.csr = Some(CsrEdges::from_pairs(n, pairs));
        self.w_feat =
            Some(self.store.add("gat.w", init::xavier([cfg.n_features, cfg.filters], &mut rng)));
        self.w_self =
            Some(self.store.add("gat.w_self", init::xavier([cfg.n_features, cfg.filters], &mut rng)));
        self.a_src = Some(self.store.add("gat.a_src", init::xavier([cfg.filters, 1], &mut rng)));
        self.a_dst = Some(self.store.add("gat.a_dst", init::xavier([cfg.filters, 1], &mut rng)));
        self.tcn = Some(TemporalConvBlock::new(
            &mut self.store,
            "tcn",
            cfg.filters,
            cfg.temporal_filters,
            ConvSpec::new(cfg.kernel, cfg.stride, 1),
            cfg.dropout,
            &mut rng,
        ));
        self.fc_w = Some(self.store.add("fc.w", init::xavier([cfg.temporal_filters, 1], &mut rng)));
        self.fc_b = Some(self.store.add("fc.b", Tensor::zeros([1])));
    }

    /// Attention coefficients `(T, E)` of every plane from the projected
    /// features `h2: (T·N, F)`: batched gathers of the source and
    /// destination scores, LeakyReLU, and a per-destination softmax.
    fn attention(&self, tape: &mut Tape, edges: &Edges, h2: Var, t: usize, n: usize) -> Var {
        let a_src = self.store.bind(tape, self.a_src.unwrap());
        let a_dst = self.store.bind(tape, self.a_dst.unwrap());
        let s_src = tape.matmul(h2, a_src); // (T·N, 1)
        let s_dst = tape.matmul(h2, a_dst);
        let s_src = tape.reshape(s_src, [t, n]);
        let s_dst = tape.reshape(s_dst, [t, n]);
        let per_src = tape.gather_src_batched(edges, s_src); // (T, E)
        let per_dst = tape.gather_dst_batched(edges, s_dst);
        let logits_pre = tape.add(per_src, per_dst);
        let logits = tape.leaky_relu(logits_pre);
        tape.segment_softmax_batched(edges, logits)
    }

    /// The GAT layer fused across all time planes: `(T, N, D)` → `(T, N, F)`
    /// via two `(T·N, D)` matmuls, the batched [`Self::attention`], and one
    /// batched propagation through the CSR layout.
    fn gat_all(&self, tape: &mut Tape, x3: Var, t: usize, n: usize) -> Var {
        let csr = self.csr.clone().unwrap();
        let f = self.cfg.filters;
        let d = tape.value(x3).dims()[2];
        let x2 = tape.reshape(x3, [t * n, d]);
        let w = self.store.bind(tape, self.w_feat.unwrap());
        let h2 = tape.matmul(x2, w); // (T·N, F)
        let attn = self.attention(tape, &csr.edges, h2, t, n); // (T, E)
        let h3 = tape.reshape(h2, [t, n, f]);
        let agg = tape.spmm_batched(&csr, attn, h3); // (T, N, F)
        // Root-node term (same ST-GCN partitioning rationale as RT-GCN's
        // relational conv — see rtgcn_core::layers::RelationalConv).
        let w_self = self.store.bind(tape, self.w_self.unwrap());
        let own2 = tape.matmul(x2, w_self);
        let own = tape.reshape(own2, [t, n, f]);
        let z = tape.add(own, agg);
        tape.relu(z)
    }

    fn forward(&mut self, tape: &mut Tape, x: &Tensor, training: bool) -> Var {
        let (t, n) = (x.dims()[0], x.dims()[1]);
        let x3 = tape.constant(x.clone());
        let relational = rtgcn_telemetry::span("relational");
        let stacked = self.gat_all(tape, x3, t, n); // (T, N, F)
        drop(relational);
        let nct = tape.permute3(stacked, [1, 2, 0]); // (N, F, T)
        let temporal = rtgcn_telemetry::span("temporal");
        let tcn = self.tcn.as_ref().unwrap();
        let out = tcn.forward(tape, &self.store, nct, training, &mut self.rng);
        let pooled3 = tape.permute3(out, [2, 0, 1]); // (T', N, H)
        let pooled = tape.mean_axis(pooled3, 0); // (N, H)
        drop(temporal);
        let w = self.store.bind(tape, self.fc_w.unwrap());
        let b = self.store.bind(tape, self.fc_b.unwrap());
        let scores = tape.linear(pooled, w, b);
        tape.reshape(scores, [n])
    }
}

impl StockRanker for RtGat {
    fn name(&self) -> String {
        "RT-GAT".into()
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
            l2: 1e-4,
            abort_on_divergence: false,
        };
        fit_epochs(
            self,
            ds,
            plan,
            |m, opt, _, _, s| {
                let mut tape = Tape::new();
                let pred = m.forward(&mut tape, &s.x, true);
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
        let mut tape = Tape::new();
        let pred = self.forward(&mut tape, &s.x, false);
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
        spec.stocks = 8;
        spec.train_days = 50;
        spec.test_days = 8;
        StockDataset::generate(spec, 8)
    }

    fn tiny_cfg() -> RtGatConfig {
        RtGatConfig {
            t_steps: 8,
            n_features: 2,
            filters: 8,
            temporal_filters: 8,
            epochs: 2,
            dropout: 0.0,
            ..Default::default()
        }
    }

    #[test]
    fn fit_and_score() {
        let ds = tiny_ds();
        let mut m = RtGat::new(tiny_cfg(), 1);
        let rep = m.fit(&ds);
        assert!(rep.final_loss.is_finite());
        let scores = m.scores_for_day(&ds, ds.test_end_days()[0]);
        assert_eq!(scores.len(), 8);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn attention_normalises_per_destination() {
        let ds = tiny_ds();
        let mut m = RtGat::new(tiny_cfg(), 2);
        m.ensure_built(&ds.relations(RelationKind::Both));
        let (t, n) = (8, 8);
        let s = ds.sample(40, t, 2);
        let mut tape = Tape::new();
        let x3 = tape.constant(s.x.clone());
        let x2 = tape.reshape(x3, [t * n, 2]);
        let w = m.store.bind(&mut tape, m.w_feat.unwrap());
        let h2 = tape.matmul(x2, w);
        let edges = m.csr.clone().unwrap().edges;
        let attn = m.attention(&mut tape, &edges, h2, t, n);
        assert_eq!(tape.value(attn).dims(), &[t, edges.len()]);
        for (p, plane) in tape.value(attn).data().chunks(edges.len()).enumerate() {
            let mut sums = [0.0f32; 8];
            for (a, pair) in plane.iter().zip(edges.pairs.iter()) {
                sums[pair[1]] += a;
            }
            for (i, s) in sums.iter().enumerate() {
                assert!((s - 1.0).abs() < 1e-4, "plane {p}: attention at node {i} sums to {s}");
            }
        }
        m.store.clear_bindings();
    }

    #[test]
    fn training_improves_loss() {
        let ds = tiny_ds();
        let mut cfg = tiny_cfg();
        cfg.epochs = 4;
        let mut m = RtGat::new(cfg, 3);
        let rep = m.fit(&ds);
        assert!(
            rep.epoch_losses.last().unwrap() <= rep.epoch_losses.first().unwrap(),
            "{:?}",
            rep.epoch_losses
        );
    }
}
