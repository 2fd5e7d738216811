//! Job journal for the fault-isolated parallel runner: every settled
//! (model, seed) job is appended to `results/logs/jobs-<harness>.jsonl` —
//! one flat JSON record per line, flushed immediately — so a killed or
//! crashed harness resumes from completed work instead of recomputing it.
//!
//! The record is deliberately flat (named scalar fields, no `Option`
//! payloads, status as a string) to stay inside what the vendored
//! `serde_derive` supports, and it round-trips NaN metrics faithfully:
//! `can_rank` carries the `Option`-ness of MRR separately from its value,
//! because NaN itself serialises as JSON `null` and parses back as NaN.

use crate::runner::SeedRun;
use rtgcn_core::FitReport;
use rtgcn_eval::BacktestOutcome;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::path::Path;

/// One settled job. `status` is `"ok"` (payload fields carry the run) or
/// `"failed"` (`reason` says why; payload fields are defaults). `context`
/// identifies the experiment configuration (market, scale, epochs, relation
/// kind, ...) so records from a differently parameterised run are never
/// resumed into this one.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JournalRecord {
    pub context: String,
    pub model: String,
    pub seed: u64,
    pub status: String,
    pub reason: String,
    pub attempts: u64,
    pub can_rank: bool,
    pub mrr: f64,
    pub irr: BTreeMap<usize, f64>,
    pub daily_cumulative: BTreeMap<usize, Vec<f64>>,
    pub test_secs: f64,
    pub fit: FitReport,
}

impl JournalRecord {
    pub fn ok(context: &str, model: &str, run: &SeedRun, attempts: u64) -> JournalRecord {
        JournalRecord {
            context: context.to_string(),
            model: model.to_string(),
            seed: run.seed,
            status: "ok".to_string(),
            reason: String::new(),
            attempts,
            can_rank: run.outcome.mrr.is_some(),
            mrr: run.outcome.mrr.unwrap_or(f64::NAN),
            irr: run.outcome.irr.clone(),
            daily_cumulative: run.outcome.daily_cumulative.clone(),
            test_secs: run.outcome.test_secs,
            fit: run.fit.clone(),
        }
    }

    pub fn failed(
        context: &str,
        model: &str,
        seed: u64,
        reason: &str,
        attempts: u64,
    ) -> JournalRecord {
        JournalRecord {
            context: context.to_string(),
            model: model.to_string(),
            seed,
            status: "failed".to_string(),
            reason: reason.to_string(),
            attempts,
            can_rank: false,
            mrr: f64::NAN,
            irr: BTreeMap::new(),
            daily_cumulative: BTreeMap::new(),
            test_secs: 0.0,
            fit: FitReport::default(),
        }
    }

    /// Rehydrate a completed run (`None` for failed records).
    pub fn to_seed_run(&self) -> Option<SeedRun> {
        if self.status != "ok" {
            return None;
        }
        Some(SeedRun {
            seed: self.seed,
            outcome: BacktestOutcome {
                name: self.model.clone(),
                mrr: if self.can_rank { Some(self.mrr) } else { None },
                irr: self.irr.clone(),
                daily_cumulative: self.daily_cumulative.clone(),
                test_secs: self.test_secs,
            },
            fit: self.fit.clone(),
        })
    }
}

/// Append-only journal writer. Each record is written as one JSONL line and
/// flushed immediately, so a `kill -9` mid-run loses at most the in-flight
/// jobs, never a settled one.
pub struct Journal {
    writer: std::io::BufWriter<std::fs::File>,
}

impl Journal {
    pub fn append(path: &Path) -> std::io::Result<Journal> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Journal { writer: std::io::BufWriter::new(file) })
    }

    /// Append one settled record. A failed write (disk full, revoked fd)
    /// silently voids the journal's crash-resume guarantee, so it is never
    /// swallowed: each failure emits a `journal.write_failed` warn event
    /// naming the record, and the runner keeps going — journalling is an
    /// optimisation, losing it must not kill a multi-hour sweep.
    pub fn write(&mut self, rec: &JournalRecord) {
        let line = match serde_json::to_string(rec) {
            Ok(line) => line,
            Err(e) => {
                rtgcn_telemetry::warn(
                    "journal.write_failed",
                    &format!("{}/{} seed {}: serialize: {e}", rec.context, rec.model, rec.seed),
                );
                // lint:allow(telemetry-span-discipline) scrapeable failure counter (monitor /metrics), deliberately root-scoped
                rtgcn_telemetry::count_always("journal.write_failed", 1);
                return;
            }
        };
        if let Err(e) = writeln!(self.writer, "{line}").and_then(|()| self.writer.flush()) {
            rtgcn_telemetry::warn(
                "journal.write_failed",
                &format!(
                    "{}/{} seed {}: {e} — this record will NOT survive a restart",
                    rec.context, rec.model, rec.seed
                ),
            );
            // lint:allow(telemetry-span-discipline) scrapeable failure counter (monitor /metrics), deliberately root-scoped
            rtgcn_telemetry::count_always("journal.write_failed", 1);
        }
    }
}

/// Load every parseable record from a journal file. A missing file is an
/// empty journal; unparseable lines (e.g. a record truncated by a kill) are
/// skipped, matching the snapshot pipeline's tolerance for torn writes.
pub fn load(path: &Path) -> Vec<JournalRecord> {
    let Ok(file) = std::fs::File::open(path) else { return Vec::new() };
    std::io::BufReader::new(file)
        .lines()
        .map_while(Result::ok)
        .filter_map(|l| serde_json::from_str::<JournalRecord>(l.trim()).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtgcn_telemetry::health::HealthVerdict;

    fn sample_run() -> SeedRun {
        SeedRun {
            seed: 1007,
            outcome: BacktestOutcome {
                name: "RT-GCN (U)".into(),
                mrr: Some(0.125),
                irr: [(1usize, 0.5), (5usize, f64::NAN)].into_iter().collect(),
                daily_cumulative: [(1usize, vec![0.1, 0.5])].into_iter().collect(),
                test_secs: 0.25,
            },
            fit: FitReport {
                train_secs: 1.5,
                final_loss: 0.03,
                epoch_losses: vec![0.1, 0.03],
                epoch_secs: vec![0.7, 0.8],
                health: HealthVerdict::Warn,
                ..FitReport::default()
            },
        }
    }

    #[test]
    fn journal_round_trips_ok_and_failed_records() {
        let dir = std::env::temp_dir().join(format!("rtgcn-journal-{}", std::process::id()));
        let path = dir.join("jobs-test.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::append(&path).unwrap();
            j.write(&JournalRecord::ok("ctx-a", "RT-GCN (U)", &sample_run(), 1));
            j.write(&JournalRecord::failed("ctx-a", "LSTM", 2007, "panicked: boom", 2));
        }
        let recs = load(&path);
        assert_eq!(recs.len(), 2);
        let run = recs[0].to_seed_run().unwrap();
        assert_eq!(run.seed, 1007);
        assert_eq!(run.outcome.mrr, Some(0.125));
        assert_eq!(run.outcome.irr[&1], 0.5);
        // NaN survives the null round-trip instead of collapsing to 0/None.
        assert!(run.outcome.irr[&5].is_nan());
        assert_eq!(run.outcome.daily_cumulative[&1], vec![0.1, 0.5]);
        assert_eq!(run.fit.epoch_losses, vec![0.1, 0.03]);
        assert_eq!(run.fit.health, HealthVerdict::Warn);
        assert!(recs[1].to_seed_run().is_none());
        assert_eq!(recs[1].attempts, 2);
        assert!(recs[1].reason.contains("boom"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A journal whose writes fail (here: ENOSPC via `/dev/full`) must warn
    /// per dropped record rather than silently voiding the crash-resume
    /// guarantee — and must not panic or kill the sweep.
    #[test]
    fn failed_write_warns_instead_of_silently_dropping() {
        let full = Path::new("/dev/full");
        if !full.exists() {
            return; // non-Linux dev environment; the ENOSPC fixture is unavailable
        }
        let _g = rtgcn_telemetry::test_scope(rtgcn_telemetry::Level::Off);
        let mut j = Journal::append(full).expect("open /dev/full");
        j.write(&JournalRecord::failed("ctx", "RT-GCN (U)", 7, "probe", 1));
        let lines = rtgcn_telemetry::drain_memory_sink();
        assert!(
            lines.iter().any(|l| l.contains("journal.write_failed") && l.contains("seed 7")),
            "a dropped record must emit journal.write_failed naming the record, got {lines:?}"
        );
        // The failure is also a counter, so a live /metrics scrape sees it.
        assert_eq!(rtgcn_telemetry::counter_value("journal.write_failed"), 1);
        assert!(
            rtgcn_telemetry::render_prometheus().contains("rtgcn_journal_write_failed_total 1"),
            "journal.write_failed must be scrapeable"
        );
    }

    #[test]
    fn nan_mrr_round_trips_via_can_rank() {
        let mut run = sample_run();
        run.outcome.mrr = Some(f64::NAN);
        let rec = JournalRecord::ok("ctx", "M", &run, 1);
        let back: JournalRecord =
            serde_json::from_str(&serde_json::to_string(&rec).unwrap()).unwrap();
        let rt = back.to_seed_run().unwrap();
        // Some(NaN) (a ranker with a degenerate split) must not become None
        // (a classification model) across a resume.
        assert!(rt.outcome.mrr.unwrap().is_nan());
    }

    #[test]
    fn truncated_and_garbage_lines_are_skipped() {
        let dir = std::env::temp_dir().join(format!("rtgcn-journal-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs-torn.jsonl");
        let good = serde_json::to_string(&JournalRecord::ok("c", "M", &sample_run(), 1)).unwrap();
        // Journals written before `FitReport::phase_secs` was removed carry
        // that object; it must be skipped, not fail the record.
        let legacy = good.replacen(
            "\"fit\":{",
            "\"fit\":{\"phase_secs\":{\"relational\":0.1,\"temporal\":0.2,\"loss\":0.01,\
             \"backward\":0.3,\"optim\":0.02},",
            1,
        );
        assert_ne!(legacy, good);
        std::fs::write(&path, format!("{good}\nnot json\n{legacy}\n{}", &good[..good.len() / 2]))
            .unwrap();
        assert_eq!(load(&path).len(), 2);
        assert!(load(Path::new("/nonexistent/jobs.jsonl")).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
