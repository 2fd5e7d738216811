//! Integration tests for the fault-isolated parallel runner: parallel ==
//! serial bit-for-bit, panic/timeout isolation across sibling jobs, journal
//! resume, per-model JSONL sinks staying unmixed under concurrency, and one
//! model's log keeping every evaluation of a process.

use rtgcn_baselines::{CommonConfig, ModelKind};
use rtgcn_bench::snapshot::{model_snapshot, parse_events};
use rtgcn_bench::{evaluate_roster, ModelRow, RunnerConfig, Spec};
use rtgcn_core::Strategy;
use rtgcn_market::{Market, RelationKind, Scale, StockDataset, UniverseSpec};
use std::path::PathBuf;
use std::time::Duration;

fn tiny_ds() -> StockDataset {
    let mut spec = UniverseSpec::of(Market::Csi, Scale::Small);
    spec.stocks = 8;
    spec.train_days = 40;
    spec.test_days = 8;
    StockDataset::generate(spec, 1)
}

fn tiny_common() -> CommonConfig {
    CommonConfig { t_steps: 8, n_features: 2, hidden: 8, epochs: 1, ..Default::default() }
}

fn cfg_with_jobs(jobs: usize) -> RunnerConfig {
    let mut cfg = RunnerConfig::from_env();
    cfg.jobs = jobs;
    cfg.timeout = None;
    cfg.retries = 0;
    cfg.journal = None;
    cfg.log_sink = None;
    cfg
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtgcn-runner-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Everything but wall-clock must match bit-for-bit between schedules.
fn assert_rows_identical(a: &[ModelRow], b: &[ModelRow]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.category, y.category);
        assert_eq!(x.mrr.map(f64::to_bits), y.mrr.map(f64::to_bits), "{}: mrr", x.name);
        assert_eq!(x.irr.len(), y.irr.len());
        for (k, v) in &x.irr {
            assert_eq!(v.to_bits(), y.irr[k].to_bits(), "{}: irr-{k}", x.name);
        }
        for (k, s) in &x.irr_samples {
            let bits: Vec<u64> = s.iter().map(|v| v.to_bits()).collect();
            let other: Vec<u64> = y.irr_samples[k].iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, other, "{}: irr_samples-{k}", x.name);
        }
        let bits: Vec<u64> = x.mrr_samples.iter().map(|v| v.to_bits()).collect();
        let other: Vec<u64> = y.mrr_samples.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, other, "{}: mrr_samples", x.name);
        assert_eq!(x.health, y.health, "{}: health", x.name);
        assert_eq!(x.failed_seeds, y.failed_seeds, "{}: failed_seeds", x.name);
    }
}

#[test]
fn parallel_run_reproduces_serial_rows_bit_identically() {
    let ds = tiny_ds();
    let common = tiny_common();
    let roster = [Spec::Gcn(Strategy::Uniform), Spec::Baseline(ModelKind::RankLstm)];
    let seeds = [1u64, 2, 3];
    let ks = [1usize, 5];
    let serial =
        evaluate_roster(&roster, &ds, &common, RelationKind::Both, &seeds, &ks, &cfg_with_jobs(1));
    let parallel =
        evaluate_roster(&roster, &ds, &common, RelationKind::Both, &seeds, &ks, &cfg_with_jobs(4));
    assert_rows_identical(&serial, &parallel);
    assert!(serial.iter().all(|r| r.failed_seeds.is_empty()));
    assert!(serial[0].mrr.unwrap().is_finite());
}

#[test]
fn a_panicking_model_fails_alone_and_siblings_survive() {
    let ds = tiny_ds();
    let roster = [Spec::PanicProbe, Spec::Gcn(Strategy::Uniform)];
    let rows = evaluate_roster(
        &roster,
        &ds,
        &tiny_common(),
        RelationKind::Both,
        &[1, 2],
        &[1],
        &cfg_with_jobs(2),
    );
    let probe = &rows[0];
    assert_eq!(probe.name, "PanicProbe");
    assert_eq!(probe.failed_seeds.len(), 2, "both probe seeds fail");
    assert!(probe.failed_seeds[0].reason.contains("injected fault"));
    assert!(probe.irr[&1].is_nan(), "no finite samples -> NaN mean, not 0.0");
    // The sibling model is untouched by the panics next door.
    let sibling = &rows[1];
    assert!(sibling.failed_seeds.is_empty());
    assert!(sibling.mrr.unwrap().is_finite());
    assert_eq!(sibling.irr_samples[&1].len(), 2);
}

#[test]
fn a_hung_model_times_out_and_is_journalled_as_failed() {
    let dir = tmp_dir("timeout");
    let journal = dir.join("jobs-test.jsonl");
    let ds = tiny_ds();
    // The timeout applies to every job, so the sibling is ARIMA: per-stock
    // closed-form least squares that settles far inside 150 ms however
    // slow the machine or the tensor kernels are.
    let roster = [Spec::SlowProbe, Spec::Baseline(ModelKind::Arima)];
    let mut cfg = cfg_with_jobs(2);
    cfg.timeout = Some(Duration::from_millis(150));
    cfg.retries = 1;
    cfg.context = "timeout-it".into();
    cfg.journal = Some(journal.clone());
    let rows =
        evaluate_roster(&roster, &ds, &tiny_common(), RelationKind::Both, &[1], &[1], &cfg);
    assert_eq!(rows[0].failed_seeds.len(), 1);
    assert!(rows[0].failed_seeds[0].reason.contains("timed out"));
    assert!(rows[1].failed_seeds.is_empty(), "fast sibling finishes despite the hung job");
    let lines = std::fs::read_to_string(&journal).unwrap();
    assert!(lines.contains("\"failed\""), "timeout lands in the journal: {lines}");
    assert!(lines.contains("\"ok\""), "sibling success lands in the journal");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_resume_skips_completed_jobs_and_reproduces_rows() {
    let dir = tmp_dir("resume");
    let journal = dir.join("jobs-test.jsonl");
    let ds = tiny_ds();
    let common = tiny_common();
    let roster = [Spec::Gcn(Strategy::Uniform)];
    let seeds = [1u64, 2, 3];
    let mut cfg = cfg_with_jobs(2);
    cfg.context = "resume-it".into();
    cfg.journal = Some(journal.clone());
    let first =
        evaluate_roster(&roster, &ds, &common, RelationKind::Both, &seeds, &[1, 5], &cfg);
    let count = |p: &PathBuf| std::fs::read_to_string(p).unwrap().lines().count();
    assert_eq!(count(&journal), 3, "one journal line per settled job");
    // Second run: everything resumes from the journal — no new journal
    // lines, identical rows (including Option-ness and NaN bit patterns).
    let second =
        evaluate_roster(&roster, &ds, &common, RelationKind::Both, &seeds, &[1, 5], &cfg);
    assert_eq!(count(&journal), 3, "resumed jobs are not re-journalled");
    assert_rows_identical(&first, &second);
    // A different context must NOT resume from these records.
    let mut other = cfg.clone();
    other.context = "different-config".into();
    let third =
        evaluate_roster(&roster, &ds, &common, RelationKind::Both, &seeds, &[1, 5], &other);
    assert_eq!(count(&journal), 6, "different context recomputes all jobs");
    assert_rows_identical(&first, &third);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn per_model_jsonl_sinks_stay_unmixed_under_concurrency() {
    // Holds the telemetry test lock (this test raises the global level).
    let _g = rtgcn_telemetry::test_scope(rtgcn_telemetry::Level::Summary);
    let dir = tmp_dir("sinks");
    let ds = tiny_ds();
    let roster = [Spec::Gcn(Strategy::Uniform), Spec::Baseline(ModelKind::RankLstm)];
    let mut cfg = cfg_with_jobs(4);
    cfg.log_sink = Some((dir.clone(), "itest".to_string()));
    let rows = evaluate_roster(
        &roster,
        &ds,
        &tiny_common(),
        RelationKind::Both,
        &[1, 2],
        &[1],
        &cfg,
    );
    assert_eq!(rows.len(), 2);
    let read = |model: &str| {
        let path = rtgcn_telemetry::run_log_path(&dir, "itest", model);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let ours = read("RT-GCN (U)");
    let lstm = read("Rank_LSTM");
    for (log, own, other) in
        [(&ours, "RT-GCN (U)", "Rank_LSTM"), (&lstm, "Rank_LSTM", "RT-GCN (U)")]
    {
        assert!(
            log.lines().any(|l| l.contains("\"model\"") && l.contains(own)),
            "{own}: missing model meta line"
        );
        assert!(
            !log.contains(other),
            "{own}'s JSONL mentions {other} — sinks mixed under concurrency"
        );
        // Seed spans from the worker threads landed in the right file.
        assert!(log.contains("\"seed\""), "{own}: no seed span events");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_model_log_keeps_every_evaluation_of_the_process() {
    // Holds the telemetry test lock (spans are recorded at summary level).
    let _g = rtgcn_telemetry::test_scope(rtgcn_telemetry::Level::Summary);
    let dir = tmp_dir("rerun-log");
    let ds = tiny_ds();
    let roster = [Spec::Gcn(Strategy::Uniform)];
    let mut cfg = cfg_with_jobs(1);
    cfg.log_sink = Some((dir.clone(), "itest".to_string()));
    // Two evaluations of one model, as Table VI makes per relation family.
    for kind in [RelationKind::Wiki, RelationKind::Industry] {
        let rows = evaluate_roster(&roster, &ds, &tiny_common(), kind, &[1], &[1], &cfg);
        assert!(rows[0].failed_seeds.is_empty());
    }
    let path = rtgcn_telemetry::run_log_path(&dir, "itest", "RT-GCN (U)");
    let log = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let events = parse_events(log.lines());
    let health = events.iter().filter(|e| e.kind == "health").count();
    assert_eq!(health, 2, "one health record per evaluation");
    let snap = model_snapshot("RT-GCN (U)", &events);
    let epochs = snap.spans.iter().find(|s| s.path == "seed/fit/epoch").map(|s| s.count);
    assert_eq!(epochs, Some(2), "the last aggregates cover both fits");
    let _ = std::fs::remove_dir_all(&dir);
}
