//! The assembled dataset: simulated prices + relations + chronological
//! train/test split, with window sampling for training and backtesting
//! (paper Section V-A, Table II).

use crate::features::{return_ratios, window_features, WARMUP_DAYS};
use crate::relations::{gen_industry_relations, gen_wiki_relations, IndustryRelations, WikiRelations};
use crate::synth::{simulate, MarketSim, SynthConfig};
use crate::universe::UniverseSpec;
use rtgcn_graph::RelationTensor;
use rtgcn_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Which relation family feeds the graph (the Table VI ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RelationKind {
    /// Wiki company relations only.
    Wiki,
    /// Sector-industry relations only.
    Industry,
    /// Union of both (the main-table configuration; types concatenated).
    Both,
}

/// One supervised sample: features for the window ending at `end_day` and
/// the next-day return-ratio targets.
#[derive(Clone, Debug)]
pub struct Sample {
    /// `X_t ∈ R^{T×N×D}`.
    pub x: Tensor,
    /// `r^{t+1} ∈ R^N` (Eq. 10).
    pub y: Tensor,
    /// Absolute day index the window ends at (the "trade at close of this
    /// day, sell next close" day).
    pub end_day: usize,
}

/// Always-on lead-lag edges from each industry's leader (first member by
/// convention) to its peers. Strengths are modest (≈ 0.1–0.2) so the sector
/// lead-lag signal is weaker per-edge but far denser than the wiki edges —
/// reproducing Table VI's finding that the denser industry relations carry
/// more total signal.
fn industry_leader_edges(industry: &IndustryRelations, seed: u64) -> Vec<crate::relations::WikiEdge> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x1ead_e46e);
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for (stock, &g) in industry.industry_of.iter().enumerate() {
        groups.entry(g).or_default().push(stock);
    }
    let mut edges = Vec::new();
    for members in groups.into_values() {
        if members.len() < 3 {
            continue;
        }
        let leader = members[0];
        for &follower in &members[1..] {
            edges.push(crate::relations::WikiEdge {
                leader,
                follower,
                types: Vec::new(),
                strength: rng.gen_range(0.10..0.20),
                period: 1,
                phase: 0,
                duty: 1.0,
            });
        }
    }
    edges
}

/// Relation mutations applied between trading days on the streaming path
/// (the dynamic graphs of MDGNN that a static `𝒜` cannot express): new wiki
/// edges appear (partnership announced), pairs disappear (relation lapses).
#[derive(Clone, Debug, Default)]
pub struct DayEvent {
    /// New wiki edges. `types` index the wiki type space; the edge also
    /// becomes a price spillover from `leader` to `follower`.
    pub add: Vec<crate::relations::WikiEdge>,
    /// Unordered stock pairs whose wiki relations (and spillovers, both
    /// directions) cease.
    pub drop: Vec<(usize, usize)>,
}

/// A complete market dataset.
#[derive(Clone, Debug)]
pub struct StockDataset {
    pub spec: UniverseSpec,
    pub sim: MarketSim,
    pub industry: IndustryRelations,
    pub wiki: WikiRelations,
}

impl StockDataset {
    /// Generate a dataset for a universe spec. The COVID-like shock lands at
    /// the first test day, as in the paper's timeline.
    ///
    /// Price spillovers come from two sources: the time-varying wiki edges
    /// (supplier-customer style, "product launch" activity windows — Figure
    /// 1(b)) and always-on *intra-industry leader* edges (the largest firm
    /// of each industry leads its peers by a day — the synchronous-sector
    /// movement of Figure 1(a) with a causal lag that makes industry
    /// relations genuinely predictive, as Table VI observes).
    pub fn generate(spec: UniverseSpec, seed: u64) -> Self {
        let days = spec.total_days();
        Self::generate_through(spec, seed, days)
    }

    /// Generate the same universe as [`StockDataset::generate`] but with the
    /// price history truncated after `days` days (same relations, loadings,
    /// and shock calendar — the shock still lands at `spec.test_start()`
    /// whether or not that day has been reached yet). The result can be
    /// rolled forward one day at a time with [`StockDataset::append_day`];
    /// doing so replays the exact batch RNG/op sequence, so a streamed
    /// dataset is bit-identical to a batch one of the same length.
    pub fn generate_through(spec: UniverseSpec, seed: u64, days: usize) -> Self {
        let industry = gen_industry_relations(&spec, seed);
        let wiki = gen_wiki_relations(&spec, seed);
        let mut cfg = SynthConfig::new(spec.stocks, days, seed, industry.industry_of.clone());
        cfg.spillover_edges = wiki.edges.clone();
        cfg.spillover_edges.extend(industry_leader_edges(&industry, seed));
        cfg.shock_day = Some(spec.test_start());
        let sim = simulate(cfg);
        StockDataset { spec, sim, industry, wiki }
    }

    /// Days of price history currently generated (may be shorter than
    /// `spec.total_days()` for a streaming dataset, or longer once the walk
    /// moves past the spec's nominal test window).
    pub fn days_generated(&self) -> usize {
        self.sim.days()
    }

    /// Apply a relation mutation event, effective from the next generated
    /// day: added edges start spilling over and enter the wiki relation
    /// tensor; dropped pairs stop spilling over (both directions, leader
    /// edges included) and leave the tensor. Returns whether the tensor
    /// changed: an add whose every type flag was already set still spills
    /// over but reports `false`. Mutating relations mid-stream invalidates
    /// any adjacency derived from the old tensor — callers (`StreamEngine`)
    /// rebuild their caches when this returns `true`.
    pub fn apply_event(&mut self, event: &DayEvent) -> bool {
        let mut relations_changed = false;
        for e in &event.add {
            assert!(
                !e.types.is_empty() && e.types.iter().all(|&t| t < self.wiki.relations.num_types()),
                "added edge types must fit the wiki type space \
                 (K={}; CSI-style universes without wiki types cannot take adds)",
                self.wiki.relations.num_types()
            );
            for &t in &e.types {
                relations_changed |= self.wiki.relations.connect(e.leader, e.follower, t);
            }
            self.wiki.edges.push(e.clone());
            self.sim.add_spillover_edge(e.clone());
        }
        for &(a, b) in &event.drop {
            let was_related = self.wiki.relations.disconnect_pair(a, b);
            self.wiki.edges.retain(|e| {
                !((e.leader == a && e.follower == b) || (e.leader == b && e.follower == a))
            });
            self.sim.remove_spillover_edges(a, b);
            relations_changed |= was_related;
        }
        relations_changed
    }

    /// Advance the market by one day, applying `event`'s relation mutations
    /// first so they take effect from the new day. Returns the new day's
    /// index. Pure append: all previously generated prices are untouched.
    pub fn append_day(&mut self, event: Option<&DayEvent>) -> usize {
        if let Some(ev) = event {
            self.apply_event(ev);
        }
        self.sim.append_day()
    }

    pub fn n_stocks(&self) -> usize {
        self.spec.stocks
    }

    /// Relation tensor for the requested family. `Both` concatenates the
    /// type spaces (wiki types first), preserving multi-hot semantics.
    pub fn relations(&self, kind: RelationKind) -> RelationTensor {
        match kind {
            RelationKind::Wiki => self.wiki.relations.clone(),
            RelationKind::Industry => self.industry.relations.clone(),
            RelationKind::Both => {
                if self.wiki.relations.num_types() == 0 {
                    self.industry.relations.clone()
                } else {
                    self.wiki.relations.union(&self.industry.relations)
                }
            }
        }
    }

    /// End-day indices usable for training with window length `t_steps`.
    /// Both the window and its next-day target stay inside the train period.
    pub fn train_end_days(&self, t_steps: usize) -> Vec<usize> {
        let first = (WARMUP_DAYS - 1 + t_steps).max(t_steps);
        let last = WARMUP_DAYS + self.spec.train_days - 2;
        (first..=last).collect()
    }

    /// End-day indices of the test trading days (one per paper "testing
    /// day"; Table II).
    pub fn test_end_days(&self) -> Vec<usize> {
        let start = self.spec.test_start();
        (start..start + self.spec.test_days).collect()
    }

    /// Build the sample for a window ending at `end_day`.
    pub fn sample(&self, end_day: usize, t_steps: usize, n_features: usize) -> Sample {
        Sample {
            x: window_features(&self.sim.prices, end_day, t_steps, n_features),
            y: return_ratios(&self.sim.prices, end_day),
            end_day,
        }
    }

    /// Actual (realised) return ratio of stock `i` bought at the close of
    /// `end_day` and sold next close — what the backtester pays out.
    pub fn realized_return(&self, end_day: usize, stock: usize) -> f32 {
        self.sim.return_ratio(end_day, stock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{Market, Scale};

    fn small() -> StockDataset {
        StockDataset::generate(UniverseSpec::of(Market::Csi, Scale::Small), 1)
    }

    #[test]
    fn split_counts_match_spec() {
        let ds = small();
        let t = 16;
        let train = ds.train_end_days(t);
        let test = ds.test_end_days();
        assert_eq!(test.len(), ds.spec.test_days);
        // Train windows fit after warm-up and before the test period.
        assert!(train.first().copied().unwrap() >= t);
        assert!(train.last().copied().unwrap() < ds.spec.test_start());
        // No overlap.
        assert!(train.last().unwrap() < test.first().unwrap());
    }

    #[test]
    fn last_test_day_target_observable() {
        let ds = small();
        let last = *ds.test_end_days().last().unwrap();
        // Must not panic: the +1 day exists.
        let s = ds.sample(last, 8, 4);
        assert_eq!(s.y.dims(), &[ds.n_stocks()]);
    }

    #[test]
    fn sample_shapes() {
        let ds = small();
        let s = ds.sample(50, 12, 3);
        assert_eq!(s.x.dims(), &[12, ds.n_stocks(), 3]);
        assert_eq!(s.end_day, 50);
    }

    #[test]
    fn relations_union_concatenates_types() {
        let ds = StockDataset::generate(UniverseSpec::of(Market::Nasdaq, Scale::Small), 2);
        let w = ds.relations(RelationKind::Wiki);
        let i = ds.relations(RelationKind::Industry);
        let b = ds.relations(RelationKind::Both);
        assert_eq!(b.num_types(), w.num_types() + i.num_types());
        assert!(b.num_related_pairs() >= i.num_related_pairs());
    }

    #[test]
    fn csi_both_falls_back_to_industry() {
        let ds = small();
        let b = ds.relations(RelationKind::Both);
        let i = ds.relations(RelationKind::Industry);
        assert_eq!(b.num_types(), i.num_types());
        assert_eq!(b.num_related_pairs(), i.num_related_pairs());
    }

    #[test]
    fn realized_return_consistent_with_sample_target() {
        let ds = small();
        let s = ds.sample(60, 8, 2);
        for i in 0..ds.n_stocks() {
            assert!((s.y.data()[i] - ds.realized_return(60, i)).abs() < 1e-7);
        }
    }

    #[test]
    fn deterministic_generation() {
        let spec = UniverseSpec::of(Market::Csi, Scale::Small);
        let a = StockDataset::generate(spec.clone(), 5);
        let b = StockDataset::generate(spec, 5);
        assert_eq!(a.sim.prices, b.sim.prices);
    }

    #[test]
    fn generate_through_plus_appends_equals_batch() {
        // Streamed dataset generation crossing the crash shock at
        // test_start() must be bit-identical to batch generation.
        let spec = UniverseSpec::of(Market::Csi, Scale::Small);
        let batch = StockDataset::generate(spec.clone(), 9);
        let t0 = spec.test_start();
        let mut streamed = StockDataset::generate_through(spec.clone(), 9, t0);
        assert_eq!(streamed.days_generated(), t0);
        while streamed.days_generated() < batch.days_generated() {
            streamed.append_day(None);
        }
        assert_eq!(streamed.sim.prices, batch.sim.prices);
        assert_eq!(streamed.sim.returns, batch.sim.returns);
    }

    /// A NASDAQ dataset cut at the shock day, and an add event for its first
    /// pair without a wiki relation.
    fn nasdaq_with_add() -> (StockDataset, DayEvent) {
        let spec = UniverseSpec::of(Market::Nasdaq, Scale::Small);
        let ds = StockDataset::generate_through(spec.clone(), 3, spec.test_start());
        assert!(ds.wiki.relations.num_types() > 0, "nasdaq universe has wiki types");
        let n = ds.n_stocks();
        let (leader, follower) = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .find(|&(i, j)| !ds.wiki.relations.related(i, j))
            .unwrap();
        let edge = crate::relations::WikiEdge {
            leader,
            follower,
            types: vec![0],
            strength: 0.4,
            period: 10,
            phase: 0,
            duty: 1.0,
        };
        (ds, DayEvent { add: vec![edge], drop: vec![] })
    }

    #[test]
    fn repeated_add_reports_a_change_once() {
        let (mut ds, ev) = nasdaq_with_add();
        let spillovers = ds.sim.config.spillover_edges.len();
        assert!(ds.apply_event(&ev), "a new pair changes the graph");
        assert!(!ds.apply_event(&ev), "the same add again flips no flag");
        assert_eq!(ds.sim.config.spillover_edges.len(), spillovers + 2, "both adds spill over");
    }

    #[test]
    fn day_events_mutate_relations_and_spillovers() {
        let (mut ds, mut ev) = nasdaq_with_add();
        let (x, y) = (ev.add[0].leader, ev.add[0].follower);
        // Drop an existing related pair in the same event.
        let (a, b, _) = ds.wiki.relations.pairs().next().unwrap();
        ev.drop.push((a, b));
        let pairs_before = ds.wiki.relations.num_related_pairs();
        let edges_before = ds.sim.config.spillover_edges.len();
        let day = ds.append_day(Some(&ev));
        assert_eq!(day + 1, ds.days_generated());
        assert_eq!(ds.wiki.relations.num_related_pairs(), pairs_before, "one in, one out");
        assert!(ds.wiki.relations.related(x, y));
        assert!(!ds.wiki.relations.related(a, b));
        // Spillover list gained the new edge and lost every (a,b) edge.
        assert!(ds.sim.config.spillover_edges.len() <= edges_before + 1);
        assert!(ds
            .sim
            .config
            .spillover_edges
            .iter()
            .all(|e| !((e.leader == a && e.follower == b) || (e.leader == b && e.follower == a))));
        assert!(ds
            .sim
            .config
            .spillover_edges
            .iter()
            .any(|e| e.leader == x && e.follower == y));
    }
}
