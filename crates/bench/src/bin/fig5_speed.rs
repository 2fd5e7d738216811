//! Figure 5 — training and testing speed of the ranking-based methods
//! (Rank_LSTM, RSR, RT-GAT, RT-GCN (T)). The paper reports wall-clock per
//! training/testing pass; we print per-epoch training seconds and full
//! test-pass seconds, plus the speedup ratios the paper quotes (up to 3.2×
//! over Rank_LSTM and 13.4× over RSR on NASDAQ). ASCII bars approximate the
//! figure's layout (shaded part = testing time).

// Opt-in allocation tracking (RTGCN_ALLOC_STATS=1) needs the tracking
// global allocator installed in every harness binary.
rtgcn_telemetry::install_tracking_allocator!();

use rtgcn_bench::{evaluate_roster, for_each_market, HarnessArgs, RunnerConfig, Spec};
use rtgcn_baselines::{CommonConfig, ModelKind};
use rtgcn_core::Strategy;
use rtgcn_market::{Market, RelationKind};
use serde::Serialize;

#[derive(Serialize)]
struct SpeedRow {
    name: String,
    train_secs_per_epoch: f64,
    test_secs: f64,
}

fn main() {
    let (args, _telemetry) = HarnessArgs::init("fig5_speed");
    // One epoch is enough to measure throughput.
    let common = CommonConfig { epochs: 1, ..Default::default() };
    let roster = [
        Spec::Baseline(ModelKind::RankLstm),
        Spec::Baseline(ModelKind::RsrE),
        Spec::Baseline(ModelKind::RtGat),
        Spec::Gcn(Strategy::TimeSensitive),
    ];
    // Timings need the machine to themselves and must come from this run:
    // one job at a time, and no journal to resume from.
    let cfg = RunnerConfig { jobs: 1, ..RunnerConfig::from_env() };

    for_each_market(&args, "fig5", &Market::ALL, |market, ds| {
        let rows: Vec<SpeedRow> =
            evaluate_roster(&roster, ds, &common, RelationKind::Both, &[args.base_seed], &[5], &cfg)
                .into_iter()
                .map(|r| SpeedRow {
                    name: r.name,
                    train_secs_per_epoch: r.mean_train_secs,
                    test_secs: r.mean_test_secs,
                })
                .collect();
        println!("\nFigure 5 — speed comparison, {} (scale {:?})\n", market.name(), args.scale);
        let max = rows
            .iter()
            .map(|r| r.train_secs_per_epoch + r.test_secs)
            .fold(f64::MIN, f64::max);
        for r in &rows {
            let train_units = (40.0 * r.train_secs_per_epoch / max).round() as usize;
            let test_units = (40.0 * r.test_secs / max).round() as usize;
            println!(
                "{:>11}  {}{} {:.2}s train + {:.2}s test",
                r.name,
                "#".repeat(train_units.max(1)),
                "░".repeat(test_units.max(1)),
                r.train_secs_per_epoch,
                r.test_secs
            );
        }
        let ours = rows.last().unwrap();
        println!();
        for r in &rows[..rows.len() - 1] {
            println!(
                "RT-GCN (T) vs {:>10}: {:.1}x faster training, {:.1}x faster testing",
                r.name,
                r.train_secs_per_epoch / ours.train_secs_per_epoch,
                r.test_secs / ours.test_secs
            );
        }
        rows
    });
}
