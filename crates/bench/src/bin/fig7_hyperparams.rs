//! Figure 7 — hyperparameter sensitivity of RT-GCN (T): training window
//! size T ∈ {5, 10, 15, 20} (a–c), feature count 1–4 per Table VIII (d–f),
//! and ranking-loss weight α ∈ {0, 1e-4, 1e-3, 1e-2, 0.1, 0.2, 0.5} (g–i).
//! One panel group per market; each prints IRR-1/5/10 per setting.

// Opt-in allocation tracking (RTGCN_ALLOC_STATS=1) needs the tracking
// global allocator installed in every harness binary.
rtgcn_telemetry::install_tracking_allocator!();

use rtgcn_bench::{context, evaluate_roster, for_each_market, HarnessArgs, RunnerConfig, Spec};
use rtgcn_baselines::CommonConfig;
use rtgcn_core::Strategy;
use rtgcn_eval::Table;
use rtgcn_market::{Market, RelationKind};
use serde::Serialize;
use std::collections::BTreeMap;

const KS: [usize; 3] = [1, 5, 10];
const WINDOWS: [usize; 4] = [5, 10, 15, 20];
/// Feature counts and the Table VIII combinations they stand for.
const FEATURES: [(usize, &str); 4] =
    [(1, "close"), (2, "close+5d MA"), (3, "close+5d+10d MA"), (4, "close+5d+10d+20d MA")];
const ALPHAS: [f32; 7] = [0.0, 1e-4, 1e-3, 1e-2, 0.1, 0.2, 0.5];

#[derive(Serialize)]
struct SweepPoint {
    sweep: String,
    value: f64,
    irr: BTreeMap<usize, f64>,
}

/// One setting of a one-axis sweep: its printed label (which also names its
/// journal context), its artifact value, and the model configuration.
type Point = (String, f64, CommonConfig);

fn main() {
    let (args, _telemetry) = HarnessArgs::init("fig7_hyperparams");
    let base = CommonConfig { epochs: args.epochs, ..Default::default() };
    let seeds = args.seed_list();
    let windows =
        WINDOWS.map(|t| (t.to_string(), t as f64, CommonConfig { t_steps: t, ..base.clone() }));
    let features = FEATURES.map(|(nf, combo)| {
        (format!("{nf} ({combo})"), nf as f64, CommonConfig { n_features: nf, ..base.clone() })
    });
    let alphas =
        ALPHAS.map(|a| (format!("{a}"), a as f64, CommonConfig { alpha: a, ..base.clone() }));
    // (sweep, heading, first column, points)
    let sweeps: [(&str, &str, &str, &[Point]); 3] = [
        ("window", "\n(a-c) training window size", "Window T", &windows),
        ("features", "(d-f) feature number (Table VIII)", "Features", &features),
        ("alpha", "(g-i) balancing parameter alpha", "alpha", &alphas),
    ];

    for_each_market(&args, "fig7", &Market::ALL, |market, ds| {
        println!(
            "\nFigure 7 — RT-GCN (T) hyperparameter sweeps, {} (scale {:?}, {} seeds)",
            market.name(),
            args.scale,
            seeds.len()
        );
        let mut artifact = Vec::new();
        for (sweep, heading, column, points) in sweeps {
            let mut table = Table::new([column, "IRR-1", "IRR-5", "IRR-10"]);
            for (label, value, common) in points {
                eprintln!("[fig7] {} {sweep}={label}", market.name());
                let variant = format!("{sweep}{label}");
                let cfg = RunnerConfig::from_env()
                    .with_journal(context("fig7", market, Some(&variant), &args));
                let roster = [Spec::Gcn(Strategy::TimeSensitive)];
                let rows =
                    evaluate_roster(&roster, ds, common, RelationKind::Both, &seeds, &KS, &cfg);
                let row = &rows[0];
                for f in &row.failed_seeds {
                    eprintln!("[fig7]   seed {} left out of the mean: {}", f.seed, f.reason);
                }
                let cells = KS.iter().map(|k| format!("{:.2}", row.irr[k]));
                table.add_row(std::iter::once(label.clone()).chain(cells));
                let irr = row.irr.clone();
                artifact.push(SweepPoint { sweep: sweep.into(), value: *value, irr });
            }
            println!("{heading}:\n{}", table.render());
        }
        artifact
    });
}
