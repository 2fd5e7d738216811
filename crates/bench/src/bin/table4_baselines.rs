//! Table IV — the main result: MRR and IRR-1/5/10 of all thirteen models on
//! NASDAQ, NYSE and CSI, with the improvement of RT-GCN (T) over the
//! strongest baseline and paired Wilcoxon p-values over the seeded runs.

// Opt-in allocation tracking (RTGCN_ALLOC_STATS=1) needs the tracking
// global allocator installed in every harness binary.
rtgcn_telemetry::install_tracking_allocator!();

use rtgcn_bench::{strongest_baseline, HarnessArgs, ModelRow, RosterTable, Spec};
use rtgcn_eval::{fmt_p, paired, Alternative, Table};
use rtgcn_market::{Market, RelationKind};

const KS: [usize; 3] = [1, 5, 10];

/// Improvement and significance of RT-GCN (T) over the strongest baseline,
/// per metric.
fn print_improvement(rows: &[ModelRow], seeds: usize) {
    let ours = rows.last().expect("roster ends with RT-GCN (T)");
    let mut imp = Table::new(["Metric", "Strongest baseline", "RT-GCN (T)", "Improvement", "p-value"]);
    // `None` is MRR, `Some(k)` IRR-k.
    for k in std::iter::once(None).chain(KS.map(Some)) {
        let mean = |r: &ModelRow| k.map_or(r.mrr, |k| r.irr.get(&k).copied());
        let Some(best) = strongest_baseline(rows, mean) else { continue };
        let (ov, bv) = (mean(ours).unwrap_or(f64::NAN), mean(best).unwrap_or(f64::NAN));
        let improvement = if bv.abs() > 1e-12 { 100.0 * (ov - bv) / bv.abs() } else { f64::NAN };
        let (ours_samples, best_samples) = match k {
            None => (&ours.mrr_samples, &best.mrr_samples),
            Some(k) => (&ours.irr_samples[&k], &best.irr_samples[&k]),
        };
        let p = if ours_samples.len() == best_samples.len() && ours_samples.len() >= 2 {
            Some(paired(ours_samples, best_samples, Alternative::Greater).p_value)
        } else {
            None
        };
        imp.add_row([
            k.map_or("MRR".to_string(), |k| format!("IRR-{k}")),
            format!("{} ({bv:.3})", best.name),
            format!("{ov:.3}"),
            format!("{improvement:+.1}%"),
            p.map(fmt_p).unwrap_or_else(|| "-".into()),
        ]);
    }
    println!("{}", imp.render());
    if seeds < 15 {
        println!(
            "note: paper uses 15 seeds; {seeds} seed(s) here — rerun with --seeds 15 for paper-grade p-values\n"
        );
    }
}

fn main() {
    let (args, _telemetry) = HarnessArgs::init("table4_baselines");
    let table = RosterTable {
        tag: "table4",
        title: "Table IV",
        markets: &Market::ALL,
        roster: Spec::table4_roster(),
        relations: &[RelationKind::Both],
        ks: &KS,
    };
    table.run(&args, |rows| print_improvement(rows, args.seeds));
}
