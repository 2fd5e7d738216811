//! Table VI — ablation over relation families: RT-GCN's three strategies
//! (plus the relation-blind Rank_LSTM reference) trained with wiki-only vs
//! industry-only relations on NASDAQ and NYSE.

// Opt-in allocation tracking (RTGCN_ALLOC_STATS=1) needs the tracking
// global allocator installed in every harness binary.
rtgcn_telemetry::install_tracking_allocator!();

use rtgcn_bench::{HarnessArgs, RosterTable, Spec};
use rtgcn_baselines::ModelKind;
use rtgcn_core::Strategy;
use rtgcn_market::{Market, RelationKind};

fn main() {
    let (args, _telemetry) = HarnessArgs::init("table6_relation_types");
    RosterTable {
        tag: "table6",
        title: "Table VI",
        // CSI has no wiki relations; the paper runs this on NASDAQ and NYSE.
        markets: &[Market::Nasdaq, Market::Nyse],
        roster: vec![
            Spec::Baseline(ModelKind::RankLstm),
            Spec::Gcn(Strategy::Uniform),
            Spec::Gcn(Strategy::Weighted),
            Spec::Gcn(Strategy::TimeSensitive),
        ],
        relations: &[RelationKind::Wiki, RelationKind::Industry],
        ks: &[1, 5, 10],
    }
    .run(&args, |_| {});
}
