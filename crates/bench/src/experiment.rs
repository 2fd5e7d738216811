//! What every experiment harness shares: the markets it covers, one dataset
//! and one `<out>/<tag>_<market>.json` artifact per market
//! ([`for_each_market`]), the journal context a rerun resumes by
//! ([`context`]), and the roster-ranking table behind Tables IV–VII
//! ([`RosterTable`]): a model roster trained per market and relation
//! family, then ranked by MRR and IRR-k. Every model run of a harness except
//! fig8's single inspected model goes through [`crate::runner`].

use crate::{
    evaluate_roster, harness_ctx, harness_error, HarnessArgs, ModelRow, RunnerConfig, Spec,
};
use rtgcn_baselines::CommonConfig;
use rtgcn_eval::{fmt_opt, write_json, Table};
use rtgcn_market::{Market, RelationKind, StockDataset, UniverseSpec};
use serde::{Serialize, Value};

/// The journal context of one evaluation,
/// `<tag>-<MARKET>[-<variant>]-<Scale>-e<epochs>-s<seed>`. It pins every
/// knob that changes results, so a resumed run never mixes configurations;
/// a drifting format would silently stop earlier journals from resuming.
pub fn context(tag: &str, market: Market, variant: Option<&str>, args: &HarnessArgs) -> String {
    let variant = variant.map(|v| format!("-{v}")).unwrap_or_default();
    let (scale, epochs, seed) = (args.scale, args.epochs, args.base_seed);
    format!("{tag}-{}{variant}-{scale:?}-e{epochs}-s{seed}", market.name())
}

/// Run `body` on every `--markets` entry (in the order given) that
/// `allowed` contains, with that market's generated dataset, and write what
/// it returns to `<out>/<tag>_<market>.json`.
pub fn for_each_market<T: Serialize>(
    args: &HarnessArgs,
    tag: &str,
    allowed: &[Market],
    mut body: impl FnMut(Market, &StockDataset) -> T,
) {
    for &market in args.markets.iter().filter(|m| allowed.contains(m)) {
        let ds = StockDataset::generate(UniverseSpec::of(market, args.scale), args.base_seed);
        let artifact = body(market, &ds);
        let path = format!("{}/{tag}_{}.json", args.out_dir, market.name().to_lowercase());
        if let Err(e) = write_json(&path, &artifact) {
            harness_error(harness_ctx().map_or(tag, |(h, _)| h), &e);
        }
        eprintln!("[{tag}] wrote {path}");
    }
}

/// One roster-ranking table of the paper: `roster` trained on each market
/// and relation family, one seeded job per (model, seed) through the runner.
pub struct RosterTable {
    /// Artifact name and journal-context prefix (`table4`).
    pub tag: &'static str,
    /// Heading text before the market name (`Table IV`).
    pub title: &'static str,
    /// Markets the table covers; `--markets` picks among them.
    pub markets: &'static [Market],
    /// Models in table order (the Table IV and V printers read the last
    /// row as RT-GCN (T)).
    pub roster: Vec<Spec>,
    /// Relation families. With two, each family gets a label line in the
    /// output, a `-<kind>` context variant, and `(label, row)` artifact pairs.
    pub relations: &'static [RelationKind],
    /// IRR cut-offs, one table column each.
    pub ks: &'static [usize],
}

impl RosterTable {
    /// Evaluate, print and write the table for every market. `extra` sees
    /// each family's rows right after their table is printed.
    pub fn run(&self, args: &HarnessArgs, mut extra: impl FnMut(&[ModelRow])) {
        let common = CommonConfig { epochs: args.epochs, ..Default::default() };
        let seeds = args.seed_list();
        let labelled = self.relations.len() > 1;
        for_each_market(args, self.tag, self.markets, |market, ds| {
            eprintln!(
                "[{}] {}: {} stocks, {} train days, {} test days, {} seeds x {} models",
                self.tag,
                market.name(),
                ds.n_stocks(),
                ds.spec.train_days,
                ds.spec.test_days,
                seeds.len(),
                self.roster.len()
            );
            println!(
                "\n{} — {} (scale {:?}, {} seeds)\n",
                self.title,
                market.name(),
                args.scale,
                seeds.len()
            );
            let mut artifact: Vec<Value> = Vec::new();
            for &kind in self.relations {
                let label = format!("{kind:?}-relation");
                let variant = labelled.then(|| format!("{kind:?}"));
                let cfg = RunnerConfig::from_env()
                    .with_journal(context(self.tag, market, variant.as_deref(), args));
                let rows = evaluate_roster(&self.roster, ds, &common, kind, &seeds, self.ks, &cfg);
                if labelled {
                    println!("{label}:");
                }
                println!("{}", self.metric_table(&rows).render());
                for r in rows.iter().filter(|r| !r.failed_seeds.is_empty()) {
                    let n = r.failed_seeds.len();
                    eprintln!("[{}]   {}: {n} failed seed(s)", self.tag, r.name);
                }
                extra(&rows);
                artifact.extend(rows.iter().map(|r| {
                    if labelled {
                        (&label, r).to_value()
                    } else {
                        r.to_value()
                    }
                }));
            }
            artifact
        });
    }

    /// `Cat | Model | MRR | IRR-k…`, one line per row.
    fn metric_table(&self, rows: &[ModelRow]) -> Table {
        let header = ["Cat", "Model", "MRR"].map(String::from).into_iter();
        let mut table = Table::new(header.chain(self.ks.iter().map(|k| format!("IRR-{k}"))));
        for r in rows {
            let cells = [r.category.clone(), r.name.clone(), fmt_opt(r.mrr, 3)].into_iter();
            table.add_row(cells.chain(self.ks.iter().map(|k| fmt_opt(r.irr.get(k).copied(), 2))));
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(flags: &[&str]) -> HarnessArgs {
        HarnessArgs::parse(flags.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn journal_contexts_match_the_resumable_format() {
        let a = args(&["--epochs", "2"]);
        assert_eq!(context("table4", Market::Csi, None, &a), "table4-CSI-Small-e2-s7");
        let a = args(&["--epochs", "1"]);
        assert_eq!(
            context("table6", Market::Nasdaq, Some("Wiki"), &a),
            "table6-NASDAQ-Wiki-Small-e1-s7"
        );
        assert_eq!(
            context("table6", Market::Nasdaq, Some("Industry"), &a),
            "table6-NASDAQ-Industry-Small-e1-s7"
        );
        assert_eq!(
            context("fig7", Market::Csi, Some("alpha0.0001"), &a),
            "fig7-CSI-alpha0.0001-Small-e1-s7"
        );
        let a = args(&["--scale", "medium", "--epochs", "3", "--seed", "11"]);
        assert_eq!(context("table5", Market::Nyse, None, &a), "table5-NYSE-Medium-e3-s11");
    }
}
