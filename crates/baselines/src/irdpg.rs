//! iRDPG — imitative recurrent deterministic policy gradient (Liu et al.,
//! AAAI 2020 [19]).
//!
//! A GRU encodes each stock's window into a state; a deterministic actor
//! maps the state to a position `a ∈ [−1, 1]`; a critic estimates
//! `Q(s, a)`. Training interleaves:
//!
//! 1. **Imitation (behaviour cloning)** toward the demonstration policy
//!    `a* = sign(next-day return)` — the "prophetic expert" used to
//!    bootstrap the agent, annealed over epochs;
//! 2. **Critic regression** of `Q(s, a)` onto the realised one-step reward
//!    `r = a · return` (daily round-trip episodes are terminal, as in the
//!    paper's daily buy-sell protocol);
//! 3. **Deterministic policy gradient**: the actor ascends `Q(s, π(s))`
//!    with the critic parameters frozen for that pass.
//!
//! Ranking score = actor output.

use crate::mlp::Mlp;
use crate::recurrent::{optimise_step, split_window, GruCell};
use rtgcn_core::{fit_epochs, FitPlan, FitReport, StepStats, StockRanker};
use rtgcn_market::StockDataset;
use rtgcn_tensor::{init, Adam, ParamId, ParamStore, Tape, Tensor, Var};

/// iRDPG configuration.
#[derive(Clone, Debug)]
pub struct IrdpgConfig {
    pub t_steps: usize,
    pub n_features: usize,
    pub hidden: usize,
    pub epochs: usize,
    pub lr: f32,
    /// Initial behaviour-cloning weight, annealed to 0 linearly over epochs.
    pub bc_weight: f32,
    /// Reward scale (see DQN).
    pub reward_scale: f32,
}

impl Default for IrdpgConfig {
    fn default() -> Self {
        IrdpgConfig {
            t_steps: 16,
            n_features: 4,
            hidden: 32,
            epochs: 3,
            lr: 1e-3,
            bc_weight: 1.0,
            reward_scale: 100.0,
        }
    }
}

/// The iRDPG agent. Actor and critic parameters live in separate stores so
/// the DPG pass can freeze the critic cleanly.
pub struct Irdpg {
    pub cfg: IrdpgConfig,
    actor_store: ParamStore,
    critic_store: ParamStore,
    encoder: GruCell,
    actor_w: ParamId,
    actor_b: ParamId,
    critic: Mlp,
}

impl Irdpg {
    pub fn new(cfg: IrdpgConfig, seed: u64) -> Self {
        let mut rng = init::rng(seed);
        let mut actor_store = ParamStore::new();
        let mut critic_store = ParamStore::new();
        let encoder = GruCell::new(&mut actor_store, "gru", cfg.n_features, cfg.hidden, &mut rng);
        let actor_w = actor_store.add("actor.w", init::xavier([cfg.hidden, 1], &mut rng));
        let actor_b = actor_store.add("actor.b", Tensor::zeros([1]));
        let critic = Mlp::new(&mut critic_store, "critic", &[cfg.hidden + 1, cfg.hidden, 1], &mut rng);
        Irdpg { cfg, actor_store, critic_store, encoder, actor_w, actor_b, critic }
    }

    /// Encode states `(N, H)` and actor actions `(N, 1)` in one tape.
    fn encode_and_act(&self, tape: &mut Tape, x: &Tensor) -> (Var, Var) {
        let n = x.dims()[1];
        let temporal = rtgcn_telemetry::span("temporal");
        let xs = split_window(tape, x);
        let state = self.encoder.encode_last(tape, &self.actor_store, &xs, n);
        drop(temporal);
        let w = self.actor_store.bind(tape, self.actor_w);
        let b = self.actor_store.bind(tape, self.actor_b);
        let pre = tape.linear(state, w, b);
        let action = tape.tanh(pre); // (N, 1)
        (state, action)
    }

    /// Critic forward `Q([s ; a])`, optionally with frozen parameters.
    fn critic_q(&self, tape: &mut Tape, state: Var, action: Var, frozen: bool) -> Var {
        // Concat along features via the transpose trick.
        let st = tape.transpose2(state);
        let at = tape.transpose2(action);
        let cat = tape.concat0(&[st, at]);
        let sa = tape.transpose2(cat); // (N, H+1)
        if frozen {
            // Re-insert critic weights as constants so no gradient reaches them.
            let mut h = sa;
            let dims = &self.critic.dims;
            let last = dims.len() - 2;
            for i in 0..dims.len() - 1 {
                let w = tape
                    .constant(self.critic_store.value(self.critic_store.id(&format!("critic.l{i}.w")).unwrap()).clone());
                let b = tape
                    .constant(self.critic_store.value(self.critic_store.id(&format!("critic.l{i}.b")).unwrap()).clone());
                h = tape.linear(h, w, b);
                if i != last {
                    h = tape.relu(h);
                }
            }
            h
        } else {
            self.critic.forward(tape, &self.critic_store, sa)
        }
    }
}

impl StockRanker for Irdpg {
    fn name(&self) -> String {
        "iRDPG".into()
    }

    fn fit(&mut self, ds: &StockDataset) -> FitReport {
        let plan = FitPlan {
            name: self.name(),
            epochs: self.cfg.epochs,
            t_steps: self.cfg.t_steps,
            n_features: self.cfg.n_features,
            lr: self.cfg.lr,
            l2: 1e-5,
            abort_on_divergence: false,
        };
        // The loop's optimiser steps the actor; the critic keeps its own.
        let mut critic_opt = Adam::new(self.cfg.lr, 1e-5);
        let n = ds.n_stocks();
        fit_epochs(
            self,
            ds,
            plan,
            |m, actor_opt, epoch, _, s| {
                let anneal = 1.0 - epoch as f32 / m.cfg.epochs.max(1) as f32;
                let bc_w = m.cfg.bc_weight * anneal;
                // Pass 1: actor BC + DPG (critic frozen).
                let mut tape = Tape::new();
                let (state, action) = m.encode_and_act(&mut tape, &s.x);
                let demo = Tensor::new(
                    [n, 1],
                    s.y.data().iter().map(|&r| if r > 0.0 { 1.0 } else { -1.0 }).collect(),
                );
                let bc = tape.mse(action, &demo);
                let bc_scaled = tape.scale(bc, bc_w);
                let q = m.critic_q(&mut tape, state, action, true);
                let q_mean = tape.mean_all(q);
                let neg_q = tape.scale(q_mean, -0.1);
                let actor_loss = tape.add(bc_scaled, neg_q);
                let (loss, grad_norm) =
                    optimise_step(&mut tape, actor_loss, &mut m.actor_store, actor_opt, 5.0);
                // Pass 2: critic TD regression with the taken actions.
                let mut tape2 = Tape::new();
                let (state2, action2) = m.encode_and_act(&mut tape2, &s.x);
                let a_val = tape2.value(action2).clone();
                let rewards = Tensor::new(
                    [n, 1],
                    s.y.data()
                        .iter()
                        .zip(a_val.data())
                        .map(|(&r, &a)| a * r * m.cfg.reward_scale)
                        .collect(),
                );
                let q2 = m.critic_q(&mut tape2, state2, action2, false);
                let critic_loss = tape2.mse(q2, &rewards);
                optimise_step(&mut tape2, critic_loss, &mut m.critic_store, &mut critic_opt, 5.0);
                StepStats { loss, mse: 0.0, rank: 0.0, grad_norm }
            },
            |m| m.actor_store.value_norm(),
        )
    }

    fn scores_for_day(&mut self, ds: &StockDataset, end_day: usize) -> Vec<f32> {
        let s = ds.sample(end_day, self.cfg.t_steps, self.cfg.n_features);
        let mut tape = Tape::new();
        let (_, action) = self.encode_and_act(&mut tape, &s.x);
        tape.value(action).data().to_vec()
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
        StockDataset::generate(spec, 10)
    }

    fn tiny_cfg() -> IrdpgConfig {
        IrdpgConfig { t_steps: 8, n_features: 2, hidden: 8, epochs: 2, ..Default::default() }
    }

    #[test]
    fn fit_and_score_bounded_actions() {
        let ds = tiny_ds();
        let mut m = Irdpg::new(tiny_cfg(), 1);
        let rep = m.fit(&ds);
        assert!(rep.final_loss.is_finite());
        let scores = m.scores_for_day(&ds, ds.test_end_days()[0]);
        assert_eq!(scores.len(), 6);
        assert!(scores.iter().all(|&a| (-1.0..=1.0).contains(&a)), "tanh actions");
    }

    #[test]
    fn frozen_critic_pass_leaves_critic_grads_zero() {
        let ds = tiny_ds();
        let mut m = Irdpg::new(tiny_cfg(), 2);
        let s = ds.sample(40, 8, 2);
        let mut tape = Tape::new();
        let (state, action) = m.encode_and_act(&mut tape, &s.x);
        let q = m.critic_q(&mut tape, state, action, true);
        let loss = tape.mean_all(q);
        tape.backward(loss);
        m.critic_store.absorb_grads(&tape);
        m.actor_store.absorb_grads(&tape);
        assert_eq!(m.critic_store.grad_norm(), 0.0, "frozen pass must not train the critic");
        assert!(m.actor_store.grad_norm() > 0.0, "actor must receive DPG gradient");
        m.actor_store.zero_grads();
    }

    #[test]
    fn behaviour_cloning_pulls_actions_toward_demo_sign() {
        let ds = tiny_ds();
        let mut cfg = tiny_cfg();
        cfg.epochs = 3;
        cfg.bc_weight = 2.0;
        let mut m = Irdpg::new(cfg, 3);
        m.fit(&ds);
        // After BC-heavy training, actions should correlate positively with
        // the demonstration sign on training data.
        let day = ds.train_end_days(8)[30];
        let scores = m.scores_for_day(&ds, day);
        let mut agree = 0;
        for (i, &a) in scores.iter().enumerate() {
            let demo = if ds.realized_return(day, i) > 0.0 { 1.0 } else { -1.0 };
            if (a > 0.0) == (demo > 0.0) {
                agree += 1;
            }
        }
        assert!(agree >= 3, "expected some sign agreement, got {agree}/6");
    }
}
