//! Figure 6 — cumulative return-ratio curves over the test period for the
//! three RT-GCN strategies at IRR-1/5/10, against the market index (DJI,
//! S&P 500 or CSI 300 stand-ins). Prints an ASCII chart plus the raw series
//! as a JSON artifact.

// Opt-in allocation tracking (RTGCN_ALLOC_STATS=1) needs the tracking
// global allocator installed in every harness binary.
rtgcn_telemetry::install_tracking_allocator!();

use rtgcn_bench::{context, for_each_market, run_roster, HarnessArgs, RunnerConfig, Spec};
use rtgcn_baselines::CommonConfig;
use rtgcn_core::Strategy;
use rtgcn_market::{index_cumulative_returns, Market, RelationKind};
use serde::Serialize;
use std::collections::BTreeMap;

const KS: [usize; 3] = [1, 5, 10];

#[derive(Serialize)]
struct CurveArtifact {
    market: String,
    index_name: String,
    index: Vec<f32>,
    /// strategy label -> k -> cumulative series
    curves: BTreeMap<String, BTreeMap<usize, Vec<f64>>>,
}

/// Plot several named series as a compact ASCII chart.
fn ascii_chart(series: &[(String, Vec<f64>)], width: usize, height: usize) {
    let all: Vec<f64> = series.iter().flat_map(|(_, s)| s.iter().copied()).collect();
    // NaN-aware bounds: a diverged (NaN) curve must not blank the whole
    // chart — finite points still plot, non-finite points are skipped below.
    let (min, max) = rtgcn_eval::finite_bounds(all.iter().copied()).unwrap_or((0.0, 0.0));
    let span = rtgcn_eval::floor_span(max - min, 1e-9);
    let marks = ['1', '5', 'X', 'I'];
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, s)) in series.iter().enumerate() {
        for (i, &v) in s.iter().enumerate() {
            if !v.is_finite() {
                continue;
            }
            let x = i * (width - 1) / (s.len() - 1).max(1);
            let y = ((v - min) / span * (height - 1) as f64).round() as usize;
            grid[height - 1 - y][x] = marks[si % marks.len()];
        }
    }
    println!("  {max:+.3}");
    for row in grid {
        println!("  |{}", row.into_iter().collect::<String>());
    }
    println!("  {min:+.3}");
    for (si, (name, _)) in series.iter().enumerate() {
        println!("    {} = {}", marks[si % marks.len()], name);
    }
}

fn main() {
    let (args, _telemetry) = HarnessArgs::init("fig6_return_curves");
    let common = CommonConfig { epochs: args.epochs, ..Default::default() };
    let roster = Strategy::ALL.map(Spec::Gcn);

    for_each_market(&args, "fig6", &Market::ALL, |market, ds| {
        let test_days = ds.test_end_days();
        let index = index_cumulative_returns(ds, &test_days);
        println!(
            "\nFigure 6 — {} cumulative return ratio over {} test days (scale {:?})",
            market.name(),
            test_days.len(),
            args.scale
        );
        let cfg = RunnerConfig::from_env().with_journal(context("fig6", market, None, &args));
        let results =
            run_roster(&roster, ds, &common, RelationKind::Both, &[args.base_seed], &KS, &cfg);
        let mut curves: BTreeMap<String, BTreeMap<usize, Vec<f64>>> = BTreeMap::new();
        for (strategy, (mut runs, failed)) in Strategy::ALL.into_iter().zip(results) {
            let label = strategy.label().to_string();
            let Some(run) = runs.pop() else {
                let why = failed.first().map_or("", |f| f.reason.as_str());
                eprintln!("[fig6] {label}: job failed, no curve: {why}");
                continue;
            };
            let curve = run.outcome.daily_cumulative;
            println!("\n{label} vs {}:", market.index_name());
            let mut named: Vec<(String, Vec<f64>)> =
                KS.iter().map(|k| (format!("IRR-{k}"), curve[k].clone())).collect();
            named.push((
                market.index_name().to_string(),
                index.iter().map(|&v| v as f64).collect(),
            ));
            ascii_chart(&named, 64, 12);
            // An empty test split yields empty curves (index.degenerate /
            // backtest.degenerate warns fire upstream); print NaN, not panic.
            let final_vals: Vec<String> = KS
                .iter()
                .map(|k| {
                    let v = curve[k].last().copied().unwrap_or(f64::NAN);
                    format!("IRR-{k} = {v:+.2}")
                })
                .collect();
            println!(
                "    final: {}, {} = {:+.2}",
                final_vals.join(", "),
                market.index_name(),
                index.last().copied().unwrap_or(f32::NAN)
            );
            curves.insert(label, curve);
        }
        CurveArtifact {
            market: market.name().into(),
            index_name: market.index_name().into(),
            index,
            curves,
        }
    });
}
