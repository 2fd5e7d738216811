//! Figure 8 — case study: five related stocks from the NASDAQ test set.
//! Prints (a) the relational subgraph with RT-GCN (T)'s learned edge
//! weights, (c) a heatmap of predicted return ratios over ~22 trading days,
//! and (d) the ground-truth normalised prices — showing the model tracks
//! the temporal dimension and that closely connected stocks get similar
//! predictions.

// Opt-in allocation tracking (RTGCN_ALLOC_STATS=1) needs the tracking
// global allocator installed in every harness binary.
rtgcn_telemetry::install_tracking_allocator!();

use rtgcn_bench::HarnessArgs;
use rtgcn_core::{RtGcn, RtGcnConfig, StockRanker, Strategy};
use rtgcn_eval::write_json;
use rtgcn_market::{RelationKind, StockDataset, UniverseSpec};
use serde::Serialize;

/// Map a value in [lo, hi] to a heat shade.
fn shade(v: f64, lo: f64, hi: f64) -> char {
    const RAMP: [char; 7] = [' ', '░', '▒', '▓', '█', '█', '█'];
    let t = ((v - lo) / rtgcn_eval::floor_span(hi - lo, 1e-9)).clamp(0.0, 1.0);
    RAMP[(t * (RAMP.len() - 1) as f64).round() as usize]
}

#[derive(Serialize)]
struct CaseArtifact {
    stocks: Vec<usize>,
    days: Vec<usize>,
    predicted: Vec<Vec<f32>>,
    actual: Vec<Vec<f32>>,
    edges: Vec<(usize, usize, f32)>,
}

fn main() {
    let (mut args, _telemetry) = HarnessArgs::init("fig8_case_study");
    args.markets = vec![rtgcn_market::Market::Nasdaq];
    let spec = UniverseSpec::of(rtgcn_market::Market::Nasdaq, args.scale);
    let ds = StockDataset::generate(spec, args.base_seed);
    let relations = ds.relations(RelationKind::Both);

    // Pick the most connected stock and four of its neighbours.
    let nbrs = relations.neighbor_lists();
    let center = (0..ds.n_stocks()).max_by_key(|&i| nbrs[i].len()).unwrap();
    let mut stocks = vec![center];
    stocks.extend(nbrs[center].iter().take(4).copied());
    println!("Figure 8 — case study on stocks {stocks:?} (center: {center})\n");

    // Train RT-GCN (T).
    let cfg = RtGcnConfig { epochs: args.epochs, ..RtGcnConfig::with_strategy(Strategy::TimeSensitive) };
    let t_steps = cfg.t_steps;
    let n_features = cfg.n_features;
    let mut model = RtGcn::new(cfg, &relations, args.base_seed);
    eprintln!("[fig8] training RT-GCN (T)...");
    model.fit(&ds);

    // (a) learned edge weights among the five stocks, averaged over the
    // window's per-step adjacencies at the first test day.
    let test_days: Vec<usize> = ds.test_end_days().into_iter().take(22).collect();
    let sample = ds.sample(test_days[0], t_steps, n_features);
    let snaps = model.adjacency_snapshot(&sample.x);
    let mut edge_weights = Vec::new();
    println!("(a) learned relational subgraph (mean |A(t)| across the window):");
    for (e, p) in model.ctx.csr.edges.pairs.iter().enumerate() {
        let (s, d) = (p[0], p[1]);
        if s < d && stocks.contains(&s) && stocks.contains(&d) {
            let w: f32 =
                snaps.iter().map(|snap| snap[e].abs()).sum::<f32>() / snaps.len() as f32;
            let bar = "=".repeat(((w * 200.0).round() as usize).clamp(1, 30));
            println!("    {s:>4} {bar} {d:<4}  weight {w:.4}");
            edge_weights.push((s, d, w));
        }
    }

    // (c)+(d): predicted return heatmap and actual normalised prices.
    let mut predicted = vec![Vec::new(); stocks.len()];
    let mut actual = vec![Vec::new(); stocks.len()];
    for &day in &test_days {
        let scores = model.scores_for_day(&ds, day);
        for (row, &s) in stocks.iter().enumerate() {
            predicted[row].push(scores[s]);
            actual[row].push(ds.realized_return(day, s));
        }
    }
    let flat: Vec<f64> = predicted.iter().flatten().map(|&v| v as f64).collect();
    let lo = flat.iter().copied().fold(f64::MAX, f64::min);
    let hi = flat.iter().copied().fold(f64::MIN, f64::max);
    println!("\n(c) predicted return-ratio heatmap (rows = stocks, cols = {} test days):", test_days.len());
    for (row, &s) in stocks.iter().enumerate() {
        let line: String =
            predicted[row].iter().map(|&v| shade(v as f64, lo, hi)).collect();
        println!("    {s:>4} |{line}|");
    }
    println!("\n(d) ground-truth price (normalised to day 0):");
    for &s in &stocks {
        let p0 = ds.sim.price(test_days[0], s);
        let series: Vec<f64> =
            test_days.iter().map(|&d| (ds.sim.price(d, s) / p0) as f64).collect();
        let (mn, mx) =
            rtgcn_eval::finite_bounds(series.iter().copied()).unwrap_or((0.0, 0.0));
        let line: String = series.iter().map(|&v| shade(v, mn, mx)).collect();
        println!("    {s:>4} |{line}|  range {mn:.3}..{mx:.3}");
    }

    // Temporal fidelity: rank correlation between predicted and realised
    // day-mean movement across the 5 stocks.
    let mut agree = 0usize;
    let mut total = 0usize;
    for d in 1..test_days.len() {
        for row in 0..stocks.len() {
            let dp = predicted[row][d] - predicted[row][d - 1];
            let da = actual[row][d] - actual[row][d - 1];
            // `.abs() > 0.0` is false for NaN too, so NaN moves (degenerate
            // fits) are excluded from the agreement denominator.
            if dp.abs() > 0.0 && da.abs() > 0.0 {
                total += 1;
                if (dp > 0.0) == (da > 0.0) {
                    agree += 1;
                }
            }
        }
    }
    println!(
        "\nday-over-day direction agreement between predicted and realised returns: {agree}/{total} ({:.0}%)",
        100.0 * agree as f64 / total.max(1) as f64
    );

    let artifact = CaseArtifact { stocks, days: test_days, predicted, actual, edges: edge_weights };
    let path = format!("{}/fig8_case_study.json", args.out_dir);
    write_json(&path, &artifact).unwrap_or_else(|e| rtgcn_bench::harness_error("fig8_case_study", &e));
    eprintln!("[fig8] wrote {path}");
}
