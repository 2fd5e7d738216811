//! Table V — RT-GCN (T) vs RSR_I/RSR_E/STHAN-SR on the published-data
//! setting: *industry relations only* (the NASDAQ-II / NYSE-II datasets of
//! Feng et al.), same window size and learning rate for all models, with
//! one-sample Wilcoxon tests of our 15 runs against each baseline's mean
//! (the paper takes baseline rows from the original publications; we
//! regenerate them from our reimplementations — DESIGN.md §4.4).

// Opt-in allocation tracking (RTGCN_ALLOC_STATS=1) needs the tracking
// global allocator installed in every harness binary.
rtgcn_telemetry::install_tracking_allocator!();

use rtgcn_bench::{HarnessArgs, ModelRow, RosterTable, Spec};
use rtgcn_baselines::ModelKind;
use rtgcn_core::Strategy;
use rtgcn_eval::{fmt_p, one_sample, Alternative, Table};
use rtgcn_market::{Market, RelationKind};

/// One-sample tests of our per-seed runs against each baseline's mean (a
/// stand-in for its published value).
fn print_p_values(rows: &[ModelRow]) {
    let Some((ours, baselines)) = rows.split_last() else { return };
    let p = |samples: &[f64], mean: f64| {
        if samples.len() >= 2 {
            fmt_p(one_sample(samples, mean, Alternative::Greater).p_value)
        } else {
            "-".into()
        }
    };
    let mut table = Table::new(["Baseline", "p (MRR)", "p (IRR-5)"]);
    for r in baselines {
        table.add_row([
            r.name.clone(),
            r.mrr.map_or_else(|| "-".into(), |m| p(&ours.mrr_samples, m)),
            p(&ours.irr_samples[&5], r.irr[&5]),
        ]);
    }
    println!("{}", table.render());
}

fn main() {
    let (args, _telemetry) = HarnessArgs::init("table5_published_setting");
    let table = RosterTable {
        tag: "table5",
        title: "Table V (industry relations only)",
        // NASDAQ-II and NYSE-II.
        markets: &[Market::Nasdaq, Market::Nyse],
        roster: vec![
            Spec::Baseline(ModelKind::RsrI),
            Spec::Baseline(ModelKind::RsrE),
            Spec::Baseline(ModelKind::Sthan),
            Spec::Gcn(Strategy::TimeSensitive),
        ],
        relations: &[RelationKind::Industry],
        ks: &[5, 10],
    };
    table.run(&args, print_p_values);
}
