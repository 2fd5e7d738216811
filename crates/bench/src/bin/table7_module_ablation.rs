//! Table VII — module ablation: R-Conv (relational convolution only) and
//! T-Conv (temporal convolution only) vs the full RT-GCN (U), across all
//! three markets.

// Opt-in allocation tracking (RTGCN_ALLOC_STATS=1) needs the tracking
// global allocator installed in every harness binary.
rtgcn_telemetry::install_tracking_allocator!();

use rtgcn_bench::{HarnessArgs, RosterTable, Spec};
use rtgcn_core::Strategy;
use rtgcn_market::{Market, RelationKind};

fn main() {
    let (args, _telemetry) = HarnessArgs::init("table7_module_ablation");
    RosterTable {
        tag: "table7",
        title: "Table VII",
        markets: &Market::ALL,
        roster: vec![Spec::Gcn(Strategy::Uniform), Spec::RConv, Spec::TConv],
        relations: &[RelationKind::Both],
        ks: &[1, 5, 10],
    }
    .run(&args, |_| {});
}
