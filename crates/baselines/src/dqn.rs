//! DQN — deep Q-learning trading baseline (Carta et al. [18]).
//!
//! A Q-network maps each stock's flattened feature window to action values
//! for {buy, hold}. Daily trading gives one-step episodes: the reward of
//! *buy* is the realised next-day return ratio (×100 for gradient scale),
//! *hold* pays zero. Transitions collected ε-greedily fill an experience
//! replay buffer; minibatches regress `Q(s, a)` onto observed rewards
//! (one-step terminal episodes make the bootstrap/target-network term
//! vanish — a faithful reduction of the original ensemble for the paper's
//! daily buy-sell protocol). The ranking score is the action-value gap
//! `Q(buy) − Q(hold)` (Table IV lists DQN under RL with an MRR, so it ranks).

use crate::mlp::Mlp;
use crate::recurrent::optimise_step;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rtgcn_core::{fit_epochs, FitPlan, FitReport, StepStats, StockRanker};
use rtgcn_market::StockDataset;
use rtgcn_tensor::{init, Adam, ParamStore, Tape, Tensor};

/// DQN configuration.
#[derive(Clone, Debug)]
pub struct DqnConfig {
    pub t_steps: usize,
    pub n_features: usize,
    pub hidden: usize,
    /// Training epochs over the day stream.
    pub epochs: usize,
    pub lr: f32,
    /// Replay capacity and minibatch size.
    pub replay: usize,
    pub batch: usize,
    /// ε-greedy schedule: start, end, decay per day.
    pub eps_start: f32,
    pub eps_end: f32,
    pub eps_decay: f32,
    /// Reward scale (returns are ~1e−2; ×100 keeps Q targets O(1)).
    pub reward_scale: f32,
}

impl Default for DqnConfig {
    fn default() -> Self {
        DqnConfig {
            t_steps: 16,
            n_features: 4,
            hidden: 64,
            epochs: 3,
            lr: 1e-3,
            replay: 20_000,
            batch: 64,
            eps_start: 1.0,
            eps_end: 0.05,
            eps_decay: 0.98,
            reward_scale: 100.0,
        }
    }
}

struct Transition {
    state: Vec<f32>,
    action: usize, // 0 = hold, 1 = buy
    reward: f32,
}

/// The DQN agent.
pub struct Dqn {
    pub cfg: DqnConfig,
    store: ParamStore,
    qnet: Mlp,
    replay: Vec<Transition>,
    rng: StdRng,
}

impl Dqn {
    pub fn new(cfg: DqnConfig, seed: u64) -> Self {
        let mut rng = init::rng(seed);
        let mut store = ParamStore::new();
        let in_dim = cfg.t_steps * cfg.n_features;
        let qnet = Mlp::new(&mut store, "q", &[in_dim, cfg.hidden, cfg.hidden / 2, 2], &mut rng);
        Dqn { cfg, store, qnet, replay: Vec::new(), rng }
    }

    /// Per-stock state: the stock's flattened `(T, D)` slice of the window.
    fn states(&self, x: &Tensor) -> Vec<Vec<f32>> {
        let (t, n, d) = (x.dims()[0], x.dims()[1], x.dims()[2]);
        (0..n)
            .map(|i| {
                let mut s = Vec::with_capacity(t * d);
                for step in 0..t {
                    let base = (step * n + i) * d;
                    s.extend_from_slice(&x.data()[base..base + d]);
                }
                s
            })
            .collect()
    }

    /// Q-values `(B, 2)` for a batch of states.
    fn q_values(&self, tape: &mut Tape, states: &[Vec<f32>]) -> rtgcn_tensor::Var {
        let b = states.len();
        let dim = self.cfg.t_steps * self.cfg.n_features;
        let mut data = Vec::with_capacity(b * dim);
        for s in states {
            data.extend_from_slice(s);
        }
        let x = tape.constant(Tensor::new([b, dim], data));
        self.qnet.forward(tape, &self.store, x)
    }

    /// One replay minibatch step. Returns `(loss, pre-clip grad norm)`,
    /// `(0.0, 0.0)` while the buffer is shorter than a batch.
    fn learn_minibatch(&mut self, opt: &mut Adam) -> (f32, f32) {
        if self.replay.len() < self.cfg.batch {
            return (0.0, 0.0);
        }
        let idx: Vec<usize> = {
            let mut all: Vec<usize> = (0..self.replay.len()).collect();
            all.shuffle(&mut self.rng);
            all.truncate(self.cfg.batch);
            all
        };
        let states: Vec<Vec<f32>> = idx.iter().map(|&i| self.replay[i].state.clone()).collect();
        let mut tape = Tape::new();
        let q = self.q_values(&mut tape, &states); // (B, 2)
        // Regress the taken action's Q on the observed terminal reward via a
        // masked MSE: target equals prediction on the untaken action.
        let qv = tape.value(q).clone();
        let mut target = qv.clone();
        for (row, &i) in idx.iter().enumerate() {
            let t = &self.replay[i];
            *target.at_mut(&[row, t.action]) = t.reward;
        }
        let loss = tape.mse(q, &target);
        optimise_step(&mut tape, loss, &mut self.store, opt, 5.0)
    }
}

impl StockRanker for Dqn {
    fn name(&self) -> String {
        "DQN".into()
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
        let mut eps = self.cfg.eps_start;
        fit_epochs(
            self,
            ds,
            plan,
            |m, opt, _, day, s| {
                let states = m.states(&s.x);
                // ε-greedy action per stock (greedy needs current Q values).
                let greedy: Vec<usize> = {
                    let mut tape = Tape::new();
                    let q = m.q_values(&mut tape, &states);
                    let qv = tape.value(q);
                    m.store.clear_bindings();
                    (0..states.len())
                        .map(|i| if qv.at(&[i, 1]) > qv.at(&[i, 0]) { 1 } else { 0 })
                        .collect()
                };
                for (i, state) in states.into_iter().enumerate() {
                    let action = if m.rng.gen::<f32>() < eps {
                        m.rng.gen_range(0..2)
                    } else {
                        greedy[i]
                    };
                    let reward = if action == 1 {
                        ds.realized_return(day, i) * m.cfg.reward_scale
                    } else {
                        0.0
                    };
                    if m.replay.len() >= m.cfg.replay {
                        let evict = m.rng.gen_range(0..m.replay.len());
                        m.replay.swap_remove(evict);
                    }
                    m.replay.push(Transition { state, action, reward });
                }
                let (loss, grad_norm) = m.learn_minibatch(opt);
                eps = (eps * m.cfg.eps_decay).max(m.cfg.eps_end);
                StepStats { loss, mse: loss, rank: 0.0, grad_norm }
            },
            |m| m.store.value_norm(),
        )
    }

    fn scores_for_day(&mut self, ds: &StockDataset, end_day: usize) -> Vec<f32> {
        let s = ds.sample(end_day, self.cfg.t_steps, self.cfg.n_features);
        let states = self.states(&s.x);
        let mut tape = Tape::new();
        let q = self.q_values(&mut tape, &states);
        let qv = tape.value(q);
        let out = (0..states.len()).map(|i| qv.at(&[i, 1]) - qv.at(&[i, 0])).collect();
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
        spec.train_days = 50;
        spec.test_days = 8;
        StockDataset::generate(spec, 9)
    }

    fn tiny_cfg() -> DqnConfig {
        DqnConfig {
            t_steps: 8,
            n_features: 2,
            hidden: 16,
            epochs: 2,
            batch: 16,
            ..Default::default()
        }
    }

    #[test]
    fn fit_fills_replay_and_scores() {
        let ds = tiny_ds();
        let mut m = Dqn::new(tiny_cfg(), 1);
        let rep = m.fit(&ds);
        assert!(!m.replay.is_empty());
        assert!(rep.train_secs > 0.0);
        let scores = m.scores_for_day(&ds, ds.test_end_days()[0]);
        assert_eq!(scores.len(), 6);
        assert!(scores.iter().all(|s| s.is_finite()));
        assert!(m.can_rank(), "RL methods rank via Q-value gap (Table IV has their MRR)");
    }

    #[test]
    fn states_are_per_stock_slices() {
        let m = Dqn::new(tiny_cfg(), 2);
        // x[(t,i,f)] = 100t + 10i + f for easy checking.
        let mut x = Tensor::zeros([8, 6, 2]);
        for t in 0..8 {
            for i in 0..6 {
                for f in 0..2 {
                    *x.at_mut(&[t, i, f]) = (100 * t + 10 * i + f) as f32;
                }
            }
        }
        let states = m.states(&x);
        assert_eq!(states.len(), 6);
        assert_eq!(states[2][0], 20.0, "stock 2, step 0, feature 0");
        assert_eq!(states[2][3], 121.0, "stock 2, step 1, feature 1");
        assert_eq!(states[2].len(), 16);
    }

    #[test]
    fn replay_capacity_bounded() {
        let ds = tiny_ds();
        let mut cfg = tiny_cfg();
        cfg.replay = 30;
        let mut m = Dqn::new(cfg, 3);
        m.fit(&ds);
        assert!(m.replay.len() <= 30);
    }
}
