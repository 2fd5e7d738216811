//! Machine-readable perf baselines: fold per-model telemetry JSONL run logs
//! into a `BenchSnapshot` (kernel percentiles, epoch timings, span tree,
//! backtest throughput, health verdicts), render it as a markdown
//! table, and diff two snapshots to flag regressions. The `rtgcn-report`
//! binary is the CLI front-end; `run_experiments.sh --bench-snapshot` wires
//! it into the experiment pipeline.
//!
//! Robustness contract: JSONL lines that fail to parse (older schema
//! versions, truncated writes) are skipped, not fatal — a snapshot built
//! from a partially-readable log is still a snapshot. Aggregate events are
//! emitted *after* streaming ones by `flush_aggregates`, so "last event per
//! name wins" yields the end-of-run totals.

use rtgcn_telemetry::Event;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// End-of-run histogram stats for one metric (e.g. `backtest.day_score_ns`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HistStat {
    pub name: String,
    pub count: u64,
    pub mean_ns: f64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
}

/// End-of-run totals for one span path (e.g. `seed/fit/epoch/relational`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SpanStatSnap {
    pub path: String,
    pub count: u64,
    pub total_ns: u64,
}

/// One node of the hierarchical span tree: the flat totals of
/// [`SpanStatSnap`] plus the derived *self* time (total minus direct
/// children), stored in pre-order (lexicographic path order).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SpanTreeNode {
    pub path: String,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// One point of a gauge series.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PointSnap {
    pub index: u64,
    pub value: f64,
}

/// A full gauge series (per-epoch losses, per-day cumulative IRR, ...).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SeriesSnap {
    pub name: String,
    pub points: Vec<PointSnap>,
}

/// Everything the snapshot keeps about one model's run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ModelSnapshot {
    pub model: String,
    /// Training-health verdict string ("Healthy"/"Warn"/"Diverged", empty
    /// for unmonitored single-shot fits).
    pub health: String,
    /// Epochs observed by the health monitor (0 when unmonitored).
    pub epochs: u64,
    /// Mean wall-clock seconds per `fit/epoch` span (0 when the model does
    /// not emit epoch spans).
    pub epoch_secs_mean: f64,
    pub hists: Vec<HistStat>,
    pub spans: Vec<SpanStatSnap>,
    /// Hierarchical view of `spans` with derived self times. `Option` so
    /// snapshots written before this field existed still deserialize
    /// (the vendored serde maps a missing `Option` field to `None`).
    pub span_tree: Option<Vec<SpanTreeNode>>,
    pub counters: BTreeMap<String, u64>,
    pub series: Vec<SeriesSnap>,
    /// Backtest throughput: scored days per second of backtest-span time.
    pub backtest_days_per_sec: f64,
}

/// One harness run's machine-readable perf baseline.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchSnapshot {
    pub harness: String,
    pub created_ms: u64,
    pub models: Vec<ModelSnapshot>,
}

/// One metric that moved past the regression threshold.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Regression {
    pub model: String,
    pub metric: String,
    pub base: f64,
    pub new: f64,
    /// Signed percent change relative to the baseline.
    pub pct: f64,
}

/// Parse JSONL lines into events, silently skipping lines the current
/// schema cannot read.
pub fn parse_events<'a>(lines: impl IntoIterator<Item = &'a str>) -> Vec<Event> {
    lines
        .into_iter()
        .filter_map(|l| serde_json::from_str::<Event>(l.trim()).ok())
        .collect()
}

fn last_per_name<'a>(events: &'a [Event], kind: &str) -> BTreeMap<&'a str, &'a Event> {
    let mut out = BTreeMap::new();
    for e in events {
        if e.kind == kind {
            out.insert(e.name.as_str(), e);
        }
    }
    out
}

/// Fold one model's event stream into a [`ModelSnapshot`]. `model` is a
/// fallback display name; a `meta model` event in the stream wins.
pub fn model_snapshot(model: &str, events: &[Event]) -> ModelSnapshot {
    let mut name = model.to_string();
    for e in events {
        if e.kind == "meta" && e.name == "model" && !e.msg.is_empty() {
            name = e.msg.clone();
        }
    }

    let hists: Vec<HistStat> = last_per_name(events, "hist")
        .values()
        .map(|e| HistStat {
            name: e.name.clone(),
            count: e.count,
            mean_ns: if e.count > 0 { e.total_ns as f64 / e.count as f64 } else { 0.0 },
            p50_ns: e.p50_ns,
            p95_ns: e.p95_ns,
            p99_ns: e.p99_ns,
        })
        .collect();

    let spans: Vec<SpanStatSnap> = last_per_name(events, "span")
        .values()
        .map(|e| SpanStatSnap { path: e.name.clone(), count: e.count, total_ns: e.total_ns })
        .collect();

    let counters: BTreeMap<String, u64> =
        last_per_name(events, "counter").values().map(|e| (e.name.clone(), e.count)).collect();

    // Hierarchical span tree: self time = total minus direct children,
    // computed from the flat totals exactly like the telemetry summary.
    let totals: BTreeMap<String, u64> =
        spans.iter().map(|s| (s.path.clone(), s.total_ns)).collect();
    let selfs = rtgcn_telemetry::spantree::self_totals(&totals);
    let span_tree: Vec<SpanTreeNode> = spans
        .iter()
        .map(|s| SpanTreeNode {
            path: s.path.clone(),
            count: s.count,
            total_ns: s.total_ns,
            self_ns: selfs.get(&s.path).copied().unwrap_or(s.total_ns),
        })
        .collect();

    // Gauge series: every streamed point, grouped by name in arrival order.
    let mut series_map: BTreeMap<String, Vec<PointSnap>> = BTreeMap::new();
    for e in events.iter().filter(|e| e.kind == "series") {
        series_map
            .entry(e.name.clone())
            .or_default()
            .push(PointSnap { index: e.count, value: e.value });
    }
    let series: Vec<SeriesSnap> =
        series_map.into_iter().map(|(name, points)| SeriesSnap { name, points }).collect();

    // Health verdict: the monitor emits exactly one end-of-fit record per
    // fit; the last one (last seed) wins.
    let (mut health, mut epochs) = (String::new(), 0u64);
    for e in events.iter().filter(|e| e.kind == "health") {
        health = e.msg.clone();
        epochs = e.count;
    }

    // Epoch timing from the span tree (paths end in `fit/epoch`).
    let mut epoch_secs_mean = 0.0;
    for s in &spans {
        if s.path.ends_with("fit/epoch") && s.count > 0 {
            epoch_secs_mean = s.total_ns as f64 / s.count as f64 / 1e9;
        }
    }

    // Backtest throughput: days scored (the per-day histogram count) over
    // wall-clock seconds inside the backtest span.
    let day_count = hists
        .iter()
        .find(|h| h.name == "backtest.day_score_ns")
        .map(|h| h.count)
        .unwrap_or(0);
    let backtest_ns: u64 =
        spans.iter().filter(|s| s.path.ends_with("backtest")).map(|s| s.total_ns).sum();
    let backtest_days_per_sec =
        if backtest_ns > 0 { day_count as f64 / (backtest_ns as f64 / 1e9) } else { 0.0 };

    ModelSnapshot {
        model: name,
        health,
        epochs,
        epoch_secs_mean,
        hists,
        spans,
        span_tree: Some(span_tree),
        counters,
        series,
        backtest_days_per_sec,
    }
}

/// Scan `logs_dir` for this harness's per-model run logs
/// (`run-<harness>-<model>.jsonl`), returning `(model_stem, path)` pairs in
/// filename order. The bare `run-<harness>.jsonl` preamble log is excluded.
pub fn collect_model_logs(logs_dir: &Path, harness: &str) -> std::io::Result<Vec<(String, PathBuf)>> {
    let tag = rtgcn_telemetry::sanitize_label(harness);
    let prefix = format!("run-{tag}-");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(logs_dir)? {
        let path = entry?.path();
        let Some(file) = path.file_name().and_then(|f| f.to_str()) else { continue };
        if let Some(stem) = file.strip_prefix(&prefix).and_then(|r| r.strip_suffix(".jsonl")) {
            out.push((stem.to_string(), path.clone()));
        }
    }
    out.sort();
    Ok(out)
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        // lint:allow(nan-discipline) u128 -> u64 millisecond clamp, not a float metric
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// Build the full snapshot for one harness from its per-model logs.
pub fn build_snapshot(logs_dir: &Path, harness: &str) -> std::io::Result<BenchSnapshot> {
    let mut models = Vec::new();
    for (stem, path) in collect_model_logs(logs_dir, harness)? {
        let text = std::fs::read_to_string(&path)?;
        let events = parse_events(text.lines());
        models.push(model_snapshot(&stem, &events));
    }
    Ok(BenchSnapshot { harness: harness.to_string(), created_ms: unix_ms(), models })
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// Render the snapshot as a markdown table (one row per model).
pub fn render_markdown(snap: &BenchSnapshot) -> String {
    let mut out = format!("# BENCH snapshot — {}\n\n", snap.harness);
    out.push_str(
        "| Model | Health | Epochs | Epoch s | day_score p50 ms | p95 ms | p99 ms | days/s |\n",
    );
    out.push_str("|---|---|---:|---:|---:|---:|---:|---:|\n");
    for m in &snap.models {
        let day = m.hists.iter().find(|h| h.name == "backtest.day_score_ns");
        let (p50, p95, p99, days_per_sec) = day
            .map(|h| {
                let rate = format!("{:.1}", m.backtest_days_per_sec);
                (fmt_ms(h.p50_ns), fmt_ms(h.p95_ns), fmt_ms(h.p99_ns), rate)
            })
            .unwrap_or_else(|| ("-".into(), "-".into(), "-".into(), "-".into()));
        // A model that ran no epochs (ARIMA) has no epoch time either.
        let (epochs, epoch_secs) = if m.epochs == 0 {
            ("-".into(), "-".into())
        } else {
            (m.epochs.to_string(), format!("{:.3}", m.epoch_secs_mean))
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} |\n",
            m.model,
            if m.health.is_empty() { "-" } else { &m.health },
            epochs,
            epoch_secs,
            p50,
            p95,
            p99,
            days_per_sec,
        ));
    }
    out
}

fn pct_change(base: f64, new: f64) -> f64 {
    100.0 * (new - base) / base
}

/// Minimum baseline magnitude for a latency metric to participate in the
/// regression diff. Sub-millisecond paths (ARIMA scoring, DQN inference)
/// swing far past any realistic threshold from machine noise alone
/// (measured ±40% between same-binary runs on the single-core reference
/// box), and a regression that stays under a millisecond cannot move an
/// end-to-end number the repo reports.
const HIST_FLOOR_NS: f64 = 1e6;

/// Compare two snapshots; a metric regresses when it moves past
/// `threshold_pct` in the bad direction (slower histograms / slower epochs /
/// lower backtest throughput). Histograms are compared on their exact
/// sample mean, not the p50/p95 bucket bounds: the buckets are log-spaced
/// at 2x, so a bucket-bound comparison can only ever read 0% or ≥100% and
/// trips on any sample drifting one bucket. Sub-millisecond baselines are
/// skipped entirely (see [`HIST_FLOOR_NS`]), as is the throughput check for
/// models whose per-day scoring baseline is sub-millisecond. Models present
/// in only one snapshot are ignored — a roster change is not a perf
/// regression.
pub fn diff_snapshots(base: &BenchSnapshot, new: &BenchSnapshot, threshold_pct: f64) -> Vec<Regression> {
    let mut out = Vec::new();
    for nm in &new.models {
        let Some(bm) = base.models.iter().find(|m| m.model == nm.model) else { continue };
        let mut slower = |metric: String, b: f64, n: f64| {
            if b > 0.0 && n > b * (1.0 + threshold_pct / 100.0) {
                out.push(Regression {
                    model: nm.model.clone(),
                    metric,
                    base: b,
                    new: n,
                    pct: pct_change(b, n),
                });
            }
        };
        for nh in &nm.hists {
            if let Some(bh) = bm.hists.iter().find(|h| h.name == nh.name) {
                if bh.mean_ns >= HIST_FLOOR_NS {
                    slower(format!("{}.mean_ns", nh.name), bh.mean_ns, nh.mean_ns);
                }
            }
        }
        slower("epoch_secs_mean".into(), bm.epoch_secs_mean, nm.epoch_secs_mean);
        let day_mean = bm
            .hists
            .iter()
            .find(|h| h.name == "backtest.day_score_ns")
            .map(|h| h.mean_ns)
            .unwrap_or(0.0);
        let (b, n) = (bm.backtest_days_per_sec, nm.backtest_days_per_sec);
        if day_mean >= HIST_FLOOR_NS && b > 0.0 && n < b * (1.0 - threshold_pct / 100.0) {
            out.push(Regression {
                model: nm.model.clone(),
                metric: "backtest_days_per_sec".into(),
                base: b,
                new: n,
                pct: pct_change(b, n),
            });
        }
    }
    out
}

/// One span path whose *self* time grew relative to the baseline — the
/// attribution unit `rtgcn-report` prints when a baseline diff fails.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SpanRegression {
    pub model: String,
    pub path: String,
    pub base_self_ns: u64,
    pub new_self_ns: u64,
    /// Signed percent change of self time relative to the baseline.
    pub pct: f64,
}

/// Minimum baseline self time for a span path to participate in
/// attribution. Same rationale as [`HIST_FLOOR_NS`]: sub-millisecond spans
/// swing wildly from scheduling noise and cannot explain a visible
/// end-to-end regression.
const SPAN_FLOOR_NS: u64 = 1_000_000;

/// Attribute a regression to span paths: for every model present in both
/// snapshots, compare self time per shared span path and return the top-`k`
/// growers (by percent change, descending), skipping paths whose baseline
/// self time is under [`SPAN_FLOOR_NS`]. Paths present in only one snapshot
/// are ignored — renamed spans are a code change, not a regression.
pub fn attribute_span_regressions(
    base: &BenchSnapshot,
    new: &BenchSnapshot,
    k: usize,
) -> Vec<SpanRegression> {
    let mut out = Vec::new();
    for nm in &new.models {
        let Some(bm) = base.models.iter().find(|m| m.model == nm.model) else { continue };
        let (Some(bt), Some(nt)) = (&bm.span_tree, &nm.span_tree) else { continue };
        for nn in nt {
            let Some(bn) = bt.iter().find(|n| n.path == nn.path) else { continue };
            if bn.self_ns < SPAN_FLOOR_NS || nn.self_ns <= bn.self_ns {
                continue;
            }
            out.push(SpanRegression {
                model: nm.model.clone(),
                path: nn.path.clone(),
                base_self_ns: bn.self_ns,
                new_self_ns: nn.self_ns,
                pct: pct_change(bn.self_ns as f64, nn.self_ns as f64),
            });
        }
    }
    out.sort_by(|a, b| b.pct.total_cmp(&a.pct).then_with(|| a.path.cmp(&b.path)));
    out.truncate(k);
    out
}

/// Render the attribution list as the lines `rtgcn-report` prints under a
/// failed perf gate, e.g. `RT-GCN  seed/fit/epoch/relational/spmm_batched  self +38.2%  (12.0ms -> 16.6ms)`.
pub fn render_span_attribution(regs: &[SpanRegression]) -> String {
    let mut out = String::new();
    for r in regs {
        out.push_str(&format!(
            "  {}  {}  self +{:.1}%  ({} -> {})\n",
            r.model,
            r.path,
            r.pct,
            fmt_ms(r.base_self_ns) + "ms",
            fmt_ms(r.new_self_ns) + "ms",
        ));
    }
    out
}

/// Render a profiling report: the top-`n` span paths by self time across
/// all models in the snapshot, as a markdown table.
pub fn render_profile_markdown(snap: &BenchSnapshot, n: usize) -> String {
    let mut rows: Vec<(&str, &SpanTreeNode)> = Vec::new();
    for m in &snap.models {
        if let Some(tree) = &m.span_tree {
            rows.extend(tree.iter().filter(|t| t.self_ns > 0).map(|t| (m.model.as_str(), t)));
        }
    }
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then_with(|| a.1.path.cmp(&b.1.path)));
    rows.truncate(n);
    let mut out = format!("# PROFILE — {} (top {} spans by self time)\n\n", snap.harness, n);
    out.push_str("| Model | Span path | Self ms | Total ms | Calls |\n");
    out.push_str("|---|---|---:|---:|---:|\n");
    for (model, t) in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            model,
            t.path,
            fmt_ms(t.self_ns),
            fmt_ms(t.total_ns),
            t.count,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: &str, name: &str) -> Event {
        Event {
            ts_ms: 0,
            kind: kind.into(),
            name: name.into(),
            count: 0,
            total_ns: 0,
            p50_ns: 0,
            p95_ns: 0,
            p99_ns: 0,
            value: 0.0,
            msg: String::new(),
        }
    }

    fn sample_events() -> Vec<Event> {
        vec![
            Event { msg: "RT-GCN (T)".into(), ..ev("meta", "model") },
            // A stale aggregate followed by the final one: last wins.
            Event { count: 2, p50_ns: 9_000_000, ..ev("hist", "backtest.day_score_ns") },
            Event {
                count: 8,
                total_ns: 40_000_000,
                p50_ns: 5_000_000,
                p95_ns: 7_000_000,
                p99_ns: 7_500_000,
                ..ev("hist", "backtest.day_score_ns")
            },
            Event { count: 4, total_ns: 8_000_000_000, ..ev("span", "seed/fit/epoch") },
            Event { count: 40, total_ns: 3_000_000_000, ..ev("span", "seed/fit/epoch/loss") },
            Event { count: 40, total_ns: 1_000_000_000, ..ev("span", "seed/fit/epoch/optim") },
            Event { count: 1, total_ns: 2_000_000_000, ..ev("span", "seed/backtest") },
            Event { count: 0, value: 0.01, ..ev("series", "fit.loss") },
            Event { count: 1, value: 0.005, ..ev("series", "fit.loss") },
            Event { count: 13, ..ev("counter", "tape.nodes") },
            Event { count: 4, value: 0.005, msg: "Healthy".into(), ..ev("health", "RT-GCN (T)") },
        ]
    }

    #[test]
    fn snapshot_folds_events_with_last_aggregate_winning() {
        let m = model_snapshot("rt-gcn-t", &sample_events());
        assert_eq!(m.model, "RT-GCN (T)");
        assert_eq!(m.health, "Healthy");
        assert_eq!(m.epochs, 4);
        let h = &m.hists[0];
        assert_eq!((h.count, h.p50_ns, h.p95_ns), (8, 5_000_000, 7_000_000));
        assert!((h.mean_ns - 5_000_000.0).abs() < 1.0);
        assert!((m.epoch_secs_mean - 2.0).abs() < 1e-9);
        // 8 days over 2 s of backtest span.
        assert!((m.backtest_days_per_sec - 4.0).abs() < 1e-9);
        assert_eq!(m.counters["tape.nodes"], 13);
        assert_eq!(m.series[0].points.len(), 2);
        assert_eq!(m.series[0].points[1].value, 0.005);
    }

    #[test]
    fn unparseable_lines_are_skipped() {
        let lines = ["not json", "{\"half\":", r#"{"ts_ms":1,"kind":"counter","name":"x","count":3,"total_ns":0,"p50_ns":0,"p95_ns":0,"p99_ns":0,"value":0.0,"msg":""}"#];
        let events = parse_events(lines);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].count, 3);
    }

    #[test]
    fn diff_flags_only_regressions_past_threshold() {
        let base_model = model_snapshot("m", &sample_events());
        let base = BenchSnapshot { harness: "h".into(), created_ms: 0, models: vec![base_model.clone()] };

        // +30% hist mean → flagged at 20%; a one-bucket p50/p95 jump alone
        // (the bounds double per bucket, so it reads +100%) → not.
        let mut worse = base_model.clone();
        worse.hists[0].mean_ns *= 1.3;
        worse.hists[0].p50_ns *= 2;
        worse.hists[0].p95_ns *= 2;
        worse.backtest_days_per_sec *= 0.5;
        let new = BenchSnapshot { harness: "h".into(), created_ms: 1, models: vec![worse.clone()] };
        let regs = diff_snapshots(&base, &new, 20.0);
        let metrics: Vec<&str> = regs.iter().map(|r| r.metric.as_str()).collect();
        assert!(metrics.contains(&"backtest.day_score_ns.mean_ns"), "{metrics:?}");
        assert!(metrics.contains(&"backtest_days_per_sec"), "{metrics:?}");
        assert!(!metrics.iter().any(|m| m.ends_with("p50_ns") || m.ends_with("p95_ns")), "{metrics:?}");

        // Bucket drift with an unchanged mean → clean diff.
        let mut bucket_only = base_model.clone();
        bucket_only.hists[0].p50_ns *= 2;
        bucket_only.hists[0].p95_ns *= 2;
        let new = BenchSnapshot { harness: "h".into(), created_ms: 1, models: vec![bucket_only] };
        assert!(diff_snapshots(&base, &new, 20.0).is_empty());

        // Identical snapshots → clean diff.
        assert!(diff_snapshots(&base, &base, 20.0).is_empty());
    }

    #[test]
    fn diff_ignores_sub_millisecond_latency_paths() {
        // A model whose scoring path is micro-latency (base mean < 1 ms):
        // relative noise dwarfs any threshold, so neither its histogram mean
        // nor its derived days/sec participates in the diff.
        let mut fast = model_snapshot("m", &sample_events());
        fast.hists[0].mean_ns = 200_000.0; // 0.2 ms
        fast.backtest_days_per_sec = 5_000.0;
        let base = BenchSnapshot { harness: "h".into(), created_ms: 0, models: vec![fast.clone()] };
        let mut worse = fast.clone();
        worse.hists[0].mean_ns *= 3.0;
        worse.backtest_days_per_sec /= 3.0;
        let new = BenchSnapshot { harness: "h".into(), created_ms: 1, models: vec![worse] };
        let regs = diff_snapshots(&base, &new, 20.0);
        assert!(
            regs.iter().all(|r| r.metric == "epoch_secs_mean"),
            "sub-ms paths must not be diffed: {regs:?}"
        );
    }

    #[test]
    fn markdown_has_a_row_per_model() {
        let snap = BenchSnapshot {
            harness: "table4".into(),
            created_ms: 0,
            models: vec![model_snapshot("m", &sample_events())],
        };
        let md = render_markdown(&snap);
        assert!(md.contains("| RT-GCN (T) | Healthy | 4 | 2.000 |"), "{md}");
        assert!(md.contains("| 4.0 |\n"), "{md}");
    }

    #[test]
    fn markdown_dashes_epochs_of_a_model_that_ran_none() {
        let mut m = model_snapshot("m", &sample_events());
        m.epochs = 0;
        m.epoch_secs_mean = 0.0;
        let snap = BenchSnapshot { harness: "table4".into(), created_ms: 0, models: vec![m] };
        let md = render_markdown(&snap);
        assert!(md.contains("| RT-GCN (T) | Healthy | - | - | 5.000 |"), "{md}");
    }

    #[test]
    fn markdown_dashes_days_per_sec_without_a_day_score_histogram() {
        let mut m = model_snapshot("m", &sample_events());
        m.hists.clear();
        let snap = BenchSnapshot { harness: "table4".into(), created_ms: 0, models: vec![m] };
        let md = render_markdown(&snap);
        assert!(md.contains("| 4 | 2.000 | - | - | - | - |\n"), "{md}");
    }

    #[test]
    fn span_tree_derives_self_time_from_direct_children() {
        let m = model_snapshot("m", &sample_events());
        let tree = m.span_tree.as_ref().expect("snapshot builds a span tree");
        let epoch = tree.iter().find(|t| t.path == "seed/fit/epoch").unwrap();
        assert_eq!(epoch.total_ns, 8_000_000_000);
        // 8 s total minus loss (3 s) and optim (1 s) children.
        assert_eq!(epoch.self_ns, 4_000_000_000);
        let loss = tree.iter().find(|t| t.path == "seed/fit/epoch/loss").unwrap();
        assert_eq!(loss.self_ns, loss.total_ns, "leaf self == total");
        // Pre-order: parent precedes children.
        let paths: Vec<&str> = tree.iter().map(|t| t.path.as_str()).collect();
        let epoch_i = paths.iter().position(|p| *p == "seed/fit/epoch").unwrap();
        let loss_i = paths.iter().position(|p| *p == "seed/fit/epoch/loss").unwrap();
        assert!(epoch_i < loss_i);
    }

    #[test]
    fn old_snapshot_json_without_span_tree_still_parses() {
        let mut m = model_snapshot("m", &sample_events());
        m.span_tree = None;
        let snap = BenchSnapshot { harness: "t".into(), created_ms: 0, models: vec![m] };
        let text = serde_json::to_string(&snap).unwrap();
        // An old snapshot simply lacks the field.
        let old = text.replace("\"span_tree\":null,", "");
        assert_ne!(old, text, "field must have been stripped");
        let back: BenchSnapshot = serde_json::from_str(&old).unwrap();
        assert!(back.models[0].span_tree.is_none());
        assert_eq!(back.models[0].epochs, 4);
    }

    #[test]
    fn attribution_names_the_grown_span_and_respects_the_floor() {
        let base_model = model_snapshot("m", &sample_events());
        let base =
            BenchSnapshot { harness: "h".into(), created_ms: 0, models: vec![base_model.clone()] };
        let mut worse = base_model.clone();
        {
            let tree = worse.span_tree.as_mut().unwrap();
            // loss self grows 50%, optim only 10%; epoch self unchanged.
            tree.iter_mut().find(|t| t.path == "seed/fit/epoch/loss").unwrap().self_ns =
                4_500_000_000;
            tree.iter_mut().find(|t| t.path == "seed/fit/epoch/optim").unwrap().self_ns =
                1_100_000_000;
        }
        let new = BenchSnapshot { harness: "h".into(), created_ms: 1, models: vec![worse] };
        let regs = attribute_span_regressions(&base, &new, 3);
        assert_eq!(regs[0].path, "seed/fit/epoch/loss");
        assert!((regs[0].pct - 50.0).abs() < 1e-6, "{}", regs[0].pct);
        assert_eq!(regs[1].path, "seed/fit/epoch/optim");
        // top-k truncation.
        assert_eq!(attribute_span_regressions(&base, &new, 1).len(), 1);
        // The printable form names the path and the percentage.
        let text = render_span_attribution(&regs);
        assert!(text.contains("seed/fit/epoch/loss  self +50.0%"), "{text}");
        // A tiny span under the floor never attributes, however much it grows.
        let mut tiny_base = base_model.clone();
        tiny_base.span_tree.as_mut().unwrap().iter_mut().for_each(|t| t.self_ns = 500);
        let mut tiny_new = tiny_base.clone();
        tiny_new.span_tree.as_mut().unwrap().iter_mut().for_each(|t| t.self_ns = 50_000);
        let b = BenchSnapshot { harness: "h".into(), created_ms: 0, models: vec![tiny_base] };
        let n = BenchSnapshot { harness: "h".into(), created_ms: 1, models: vec![tiny_new] };
        assert!(attribute_span_regressions(&b, &n, 10).is_empty());
    }

    #[test]
    fn profile_markdown_ranks_spans_by_self_time() {
        let snap = BenchSnapshot {
            harness: "table4".into(),
            created_ms: 0,
            models: vec![model_snapshot("m", &sample_events())],
        };
        let md = render_profile_markdown(&snap, 2);
        let lines: Vec<&str> = md.lines().collect();
        // Title + blank + header + separator + 2 rows, epoch self (4 s)
        // before loss self (3 s).
        assert!(lines[4].contains("seed/fit/epoch |"), "{md}");
        assert!(lines[5].contains("seed/fit/epoch/loss"), "{md}");
        assert_eq!(lines.len(), 6, "{md}");
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = BenchSnapshot {
            harness: "t".into(),
            created_ms: 42,
            models: vec![model_snapshot("m", &sample_events())],
        };
        let text = serde_json::to_string(&snap).unwrap();
        let back: BenchSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back.models[0].model, snap.models[0].model);
        assert_eq!(back.models[0].hists[0].p50_ns, snap.models[0].hists[0].p50_ns);
    }
}
