//! Seeded run orchestration and aggregation shared by the table/figure
//! harnesses: fit + backtest per seed, means across seeds, and the paired
//! significance samples Table IV/V need.
//!
//! The execution layer is a **fault-isolated parallel job runner**: every
//! (model, seed) pair becomes one job on a bounded worker pool
//! (`RTGCN_JOBS` workers, default = available parallelism, `1` = the serial
//! path). Each job runs wrapped in `catch_unwind` on its own thread, under
//! an optional per-job timeout (`RTGCN_JOB_TIMEOUT_SECS`) with a bounded
//! retry budget (`RTGCN_JOB_RETRIES`, default 1), so one panicking or
//! hanging fit fails only its own seed instead of taking the harness down.
//! Settled jobs are journalled to `jobs-<harness>.jsonl` (see
//! [`crate::journal`]) so a killed harness resumes from completed work.
//!
//! Worker threads enter a per-model [`rtgcn_telemetry::ModelScope`], so
//! concurrent models keep disjoint metric registries and disjoint
//! `run-<harness>-<model>.jsonl` sinks. A scope with a log lives for the
//! whole process: a harness that evaluates one model several times (per
//! market, relation family or sweep point) re-enters the same scope, so its
//! log accumulates every evaluation. Job results are re-sorted into
//! (model, seed) order before aggregation, which makes the parallel path
//! reproduce the serial path's `ModelRow`s bit-identically: the models
//! themselves are deterministic given a seed (kernels run on the job's own
//! thread in a fixed summation order; all RNGs are seeded per job).
//!
//! A job that times out is *abandoned*, not cancelled: Rust threads cannot
//! be killed, so the runner stops waiting, drops the eventual result, and
//! lets the thread run to completion in the background (it holds an `Arc`
//! of the dataset until then). That is the price of fault isolation without
//! process-per-job.

use crate::journal::{self, Journal, JournalRecord};
use crate::monitor;
use crate::models::Spec;
use parking_lot::Mutex;
use rtgcn_baselines::CommonConfig;
use rtgcn_core::FitReport;
use rtgcn_eval::{backtest, BacktestOutcome};
use rtgcn_market::{RelationKind, StockDataset};
use rtgcn_telemetry::{Event, ModelScope};
use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One seeded repetition of one model on one dataset.
pub struct SeedRun {
    pub seed: u64,
    pub outcome: BacktestOutcome,
    pub fit: FitReport,
}

/// A seed that produced no usable sample: either its job failed (panic,
/// timeout) or its metrics came back non-finite and were excluded from the
/// row means.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct FailedSeed {
    pub seed: u64,
    pub reason: String,
}

/// Aggregated results of a model over its seeds (what a table row shows).
#[derive(Clone, Debug, Serialize)]
pub struct ModelRow {
    pub name: String,
    pub category: String,
    pub mrr: Option<f64>,
    /// Mean IRR per k over the *finite* samples.
    pub irr: std::collections::BTreeMap<usize, f64>,
    /// Per-seed IRR samples per k (for Wilcoxon), in seed order, including
    /// non-finite samples so pairing by seed stays intact.
    pub irr_samples: std::collections::BTreeMap<usize, Vec<f64>>,
    /// Per-seed MRR samples (empty for CLF models).
    pub mrr_samples: Vec<f64>,
    pub mean_train_secs: f64,
    pub mean_test_secs: f64,
    /// Per-seed training-health verdicts ("Healthy"/"Warn"/"Diverged");
    /// anything but all-Healthy deserves a look before trusting the row.
    pub health: Vec<String>,
    /// Seeds excluded from the means: crashed/timed-out jobs and completed
    /// seeds whose IRR/MRR samples were non-finite.
    pub failed_seeds: Vec<FailedSeed>,
}

// ------------------------------------------------------------ runner config

/// Execution knobs for [`evaluate_roster`], normally read from the
/// environment (`RTGCN_JOBS`, `RTGCN_JOB_TIMEOUT_SECS`, `RTGCN_JOB_RETRIES`)
/// plus the harness context ([`crate::HarnessArgs::init`]) for the per-model
/// JSONL sinks and the job journal.
#[derive(Clone, Debug)]
pub struct RunnerConfig {
    /// Worker-pool width. `1` reproduces the serial path's schedule.
    pub jobs: usize,
    /// Per-job wall-clock budget; `None` = wait forever.
    pub timeout: Option<Duration>,
    /// Extra attempts after a failed first try (panic or timeout).
    pub retries: u32,
    /// Experiment-configuration key journalled with every record; only
    /// records with a matching context are resumed.
    pub context: String,
    /// Job-journal path (`jobs-<harness>.jsonl`); `None` disables journalling.
    pub journal: Option<PathBuf>,
    /// `(logs dir, harness tag)` for per-model `run-<harness>-<model>.jsonl`
    /// sinks; `None` runs model scopes without sinks (library tests).
    pub log_sink: Option<(PathBuf, String)>,
}

impl RunnerConfig {
    /// Pool knobs from the environment, per-model sinks from the harness
    /// context when [`crate::HarnessArgs::init`] has run, no journal.
    pub fn from_env() -> RunnerConfig {
        let jobs = std::env::var("RTGCN_JOBS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&j| j >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            });
        let timeout = std::env::var("RTGCN_JOB_TIMEOUT_SECS")
            .ok()
            .and_then(|v| v.trim().parse::<f64>().ok())
            .filter(|&s| s > 0.0 && s.is_finite())
            .map(Duration::from_secs_f64);
        let retries = std::env::var("RTGCN_JOB_RETRIES")
            .ok()
            .and_then(|v| v.trim().parse::<u32>().ok())
            .unwrap_or(1);
        let log_sink =
            crate::cli::harness_ctx().map(|(h, d)| (d.to_path_buf(), h.to_string()));
        RunnerConfig { jobs, timeout, retries, context: String::new(), journal: None, log_sink }
    }

    /// Enable the job journal at `<logs>/jobs-<harness>.jsonl` (requires the
    /// harness context) under the given experiment-configuration key. The
    /// context must pin everything that changes results — market, scale,
    /// epochs, relation kind — so stale records are never resumed.
    pub fn with_journal(mut self, context: impl Into<String>) -> RunnerConfig {
        self.context = context.into();
        if let Some((h, d)) = crate::cli::harness_ctx() {
            self.journal =
                Some(d.join(format!("jobs-{}.jsonl", rtgcn_telemetry::sanitize_label(h))));
        }
        self
    }
}

// ------------------------------------------------------------ worker pool

/// One unit of pool work: a labelled, retryable closure.
pub(crate) struct PoolTask<T> {
    pub label: String,
    pub work: Arc<dyn Fn() -> T + Send + Sync + 'static>,
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

struct PoolState<T> {
    results: Vec<Option<Result<T, String>>>,
    queue: VecDeque<usize>,
    attempts: Vec<u32>,
    settled: usize,
}

fn settle_attempt<T>(
    state: &mut PoolState<T>,
    job: usize,
    out: Result<T, String>,
    retries: u32,
    label: &str,
    on_settle: &mut impl FnMut(usize, &Result<T, String>, u64),
) {
    match out {
        Ok(v) => {
            let res = Ok(v);
            on_settle(job, &res, state.attempts[job] as u64);
            state.results[job] = Some(res);
            state.settled += 1;
        }
        Err(reason) => {
            if state.attempts[job] <= retries {
                if rtgcn_telemetry::enabled(rtgcn_telemetry::Level::Summary) {
                    eprintln!(
                        "[runner] {label} failed ({reason}); retrying (attempt {}/{})",
                        state.attempts[job] + 1,
                        retries + 1
                    );
                }
                // lint:allow(telemetry-span-discipline) pool-level retry counter, deliberately root-scoped
                rtgcn_telemetry::count("runner.jobs.retried", 1);
                state.queue.push_back(job);
            } else {
                let res = Err(reason);
                on_settle(job, &res, state.attempts[job] as u64);
                state.results[job] = Some(res);
                state.settled += 1;
            }
        }
    }
}

/// Run `tasks` on `workers` detached threads with `catch_unwind` isolation,
/// an optional per-attempt timeout, and `retries` extra attempts per job.
/// Returns per-task results in task order. `on_start(task_idx, attempt)`
/// fires on the orchestrator thread just before each attempt's worker
/// spawns (attempt is 1-based — the live status board uses it to show
/// `running` with a retry count); `on_settle(task_idx, result, attempts)`
/// fires once per task as it reaches its final state (in completion order —
/// journal writes must land the moment a job settles, not when the whole
/// pool drains).
///
/// Timed-out attempts are abandoned: their threads keep running detached
/// and their eventual results are dropped (stale attempt ids are ignored),
/// so a retry can run concurrently with the hung attempt it replaces.
pub(crate) fn run_pool<T: Send + 'static>(
    tasks: Vec<PoolTask<T>>,
    workers: usize,
    timeout: Option<Duration>,
    retries: u32,
    mut on_start: impl FnMut(usize, u64),
    mut on_settle: impl FnMut(usize, &Result<T, String>, u64),
) -> Vec<Result<T, String>> {
    let total = tasks.len();
    if total == 0 {
        return Vec::new();
    }
    // lint:allow(nan-discipline) usize worker-count clamp, not a float metric
    let workers = workers.max(1).min(total);
    let mut state = PoolState::<T> {
        results: (0..total).map(|_| None).collect(),
        queue: (0..total).collect(),
        attempts: vec![0; total],
        settled: 0,
    };
    let (tx, rx) = mpsc::channel::<(u64, usize, Result<T, String>)>();
    // attempt id -> (job, deadline); stale ids (timed out) are dropped.
    let mut inflight: BTreeMap<u64, (usize, Instant)> = BTreeMap::new();
    let mut next_attempt_id: u64 = 0;
    // Far-future stand-in deadline when no timeout is configured (recv()
    // blocks instead, so it is never consulted).
    const NO_TIMEOUT: Duration = Duration::from_secs(24 * 3600);

    while state.settled < total {
        while inflight.len() < workers {
            let Some(job) = state.queue.pop_front() else { break };
            state.attempts[job] += 1;
            on_start(job, state.attempts[job] as u64);
            let id = next_attempt_id;
            next_attempt_id += 1;
            let work = Arc::clone(&tasks[job].work);
            let tx = tx.clone();
            std::thread::spawn(move || {
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work()))
                    .map_err(|p| format!("panicked: {}", panic_message(p.as_ref())));
                // The orchestrator may have stopped listening (pool done or
                // attempt abandoned); a failed send is fine.
                let _ = tx.send((id, job, out));
            });
            inflight.insert(id, (job, Instant::now() + timeout.unwrap_or(NO_TIMEOUT)));
        }
        let received = match timeout {
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(_) => {
                let now = Instant::now();
                let wait = inflight
                    .values()
                    .map(|&(_, d)| d.saturating_duration_since(now))
                    .min()
                    .unwrap_or(Duration::ZERO);
                rx.recv_timeout(wait)
            }
        };
        match received {
            Ok((id, job, out)) => {
                if inflight.remove(&id).is_some() {
                    let label = tasks[job].label.clone();
                    settle_attempt(&mut state, job, out, retries, &label, &mut on_settle);
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                let now = Instant::now();
                let expired: Vec<u64> = inflight
                    .iter()
                    .filter(|&(_, &(_, d))| d <= now)
                    .map(|(&id, _)| id)
                    .collect();
                for id in expired {
                    // lint:allow(panic-free-hot-paths) id was collected from `inflight` three lines up
                    let (job, _) = inflight.remove(&id).expect("expired id is inflight");
                    let label = tasks[job].label.clone();
                    let reason = format!(
                        "timed out after {:.1}s (attempt abandoned)",
                        timeout.unwrap_or(NO_TIMEOUT).as_secs_f64()
                    );
                    settle_attempt(&mut state, job, Err(reason), retries, &label, &mut on_settle);
                }
            }
            // Unreachable while we hold the original `tx`; fail closed.
            Err(RecvTimeoutError::Disconnected) => {
                for job in 0..total {
                    if state.results[job].is_none() {
                        state.results[job] = Some(Err("worker channel closed".to_string()));
                    }
                }
                break;
            }
        }
    }
    // lint:allow(panic-free-hot-paths) the drain loop above exits only once every job settled
    state.results.into_iter().map(|r| r.expect("all jobs settled")).collect()
}

// ------------------------------------------------------------ evaluation

/// Per-model scopes that own a `run-<harness>-<model>.jsonl` log, one per
/// log path for the whole process. A later evaluation of the same model
/// re-enters its scope, so the log, the registry and the trace buffer keep
/// every evaluation instead of being truncated by the next one.
/// [`finish_model_scopes`] closes them when the harness exits.
static LOGGED_SCOPES: Mutex<BTreeMap<PathBuf, ModelScope>> = Mutex::new(BTreeMap::new());

fn logged_scope(dir: &Path, harness: &str, model: &str) -> ModelScope {
    let path = rtgcn_telemetry::run_log_path(dir, harness, model);
    let mut scopes = LOGGED_SCOPES.lock();
    let scope = scopes.entry(path).or_insert_with_key(|path| {
        let scope = ModelScope::new();
        if let Err(e) = scope.install_file_sink(path) {
            eprintln!("[runner] cannot open JSONL sink {}: {e}", path.display());
        }
        scope.emit(&Event::meta("harness", harness));
        scope.emit(&Event::meta("model", model));
        scope
    });
    scope.clone()
}

/// Finish every per-model scope with a log (aggregates, trace exports,
/// closed sink). The guard [`crate::HarnessArgs::init`] returns calls this
/// before the root telemetry guard drops.
pub(crate) fn finish_model_scopes() {
    let scopes = std::mem::take(&mut *LOGGED_SCOPES.lock());
    for scope in scopes.into_values() {
        scope.finish();
    }
}

/// Evaluate a whole roster: every (model, seed) pair becomes one pool job.
/// Returns each spec's completed runs and failed seeds, in seed order, so
/// the result matches a `jobs = 1` run bit-for-bit (wall-clock fields
/// aside). Completed jobs found in the journal (matching `cfg.context`) are
/// reused instead of recomputed; their models keep their previous JSONL logs.
pub fn run_roster(
    specs: &[Spec],
    ds: &StockDataset,
    common: &CommonConfig,
    relation_kind: RelationKind,
    seeds: &[u64],
    ks: &[usize],
    cfg: &RunnerConfig,
) -> Vec<(Vec<SeedRun>, Vec<FailedSeed>)> {
    let names: Vec<String> = specs.iter().map(|s| s.name()).collect();
    let slots: Vec<(usize, u64)> = specs
        .iter()
        .enumerate()
        .flat_map(|(mi, _)| seeds.iter().map(move |&s| (mi, s)))
        .collect();
    let mut results: Vec<Option<Result<SeedRun, String>>> =
        (0..slots.len()).map(|_| None).collect();

    // Resume settled jobs from the journal (last record per key wins, so a
    // re-run after a fix supersedes older entries).
    let mut completed: BTreeMap<(String, u64), SeedRun> = BTreeMap::new();
    if let Some(path) = &cfg.journal {
        for rec in journal::load(path) {
            if rec.context == cfg.context {
                if let Some(run) = rec.to_seed_run() {
                    completed.insert((rec.model.clone(), rec.seed), run);
                }
            }
        }
    }
    let mut pending: Vec<usize> = Vec::new();
    let mut resumed_keys: Vec<(String, u64)> = Vec::new();
    for (si, &(mi, seed)) in slots.iter().enumerate() {
        match completed.remove(&(names[mi].clone(), seed)) {
            Some(run) => {
                results[si] = Some(Ok(run));
                resumed_keys.push((names[mi].clone(), seed));
            }
            None => pending.push(si),
        }
    }
    let n_resumed = slots.len() - pending.len();
    if n_resumed > 0 {
        rtgcn_telemetry::count("runner.jobs.resumed", n_resumed as u64);
        eprintln!(
            "[runner] resumed {n_resumed} completed job(s) from journal; {} left to run",
            pending.len()
        );
    }

    // Publish the roster to the live status board (the monitor's /runs).
    // Board updates are off the results path: they must never change rows.
    let queued_keys: Vec<(String, u64)> = pending
        .iter()
        .map(|&si| {
            let (mi, seed) = slots[si];
            (names[mi].clone(), seed)
        })
        .collect();
    monitor::board_open(&cfg.context, &queued_keys, &resumed_keys);

    // One telemetry scope per model that still has work; models fully
    // resumed from the journal get no scope (and keep their old log files).
    let scopes: Vec<Option<ModelScope>> = specs
        .iter()
        .enumerate()
        .map(|(mi, _)| {
            if !pending.iter().any(|&si| slots[si].0 == mi) {
                return None;
            }
            Some(match &cfg.log_sink {
                Some((dir, harness)) => logged_scope(dir, harness, &names[mi]),
                None => ModelScope::new(),
            })
        })
        .collect();

    // Jobs run on detached threads (abandonable on timeout), so they own
    // `Arc` clones of the shared inputs rather than borrows.
    let ds_shared = Arc::new(ds.clone());
    let common_shared = Arc::new(common.clone());
    let ks_shared = Arc::new(ks.to_vec());
    let tasks: Vec<PoolTask<SeedRun>> = pending
        .iter()
        .map(|&si| {
            let (mi, seed) = slots[si];
            let spec = specs[mi];
            let scope = scopes[mi].clone();
            let ds = Arc::clone(&ds_shared);
            let common = Arc::clone(&common_shared);
            let ks = Arc::clone(&ks_shared);
            PoolTask {
                label: format!("{} seed {seed}", names[mi]),
                work: Arc::new(move || {
                    let _scope_guard = scope.as_ref().map(|s| s.enter());
                    let _seed_span = rtgcn_telemetry::span("seed");
                    let mut model = spec.build(&ds, &common, relation_kind, seed);
                    let fit = model.fit(&ds);
                    let outcome = backtest(model.as_mut(), &ds, &ks, seed);
                    SeedRun { seed, outcome, fit }
                }),
            }
        })
        .collect();

    let mut writer = cfg.journal.as_ref().and_then(|path| match Journal::append(path) {
        Ok(j) => Some(j),
        Err(e) => {
            eprintln!("[runner] cannot open job journal {}: {e}", path.display());
            None
        }
    });
    let verbose = rtgcn_telemetry::enabled(rtgcn_telemetry::Level::Summary);
    let pool_results = run_pool(
        tasks,
        cfg.jobs,
        cfg.timeout,
        cfg.retries,
        |ti, attempt| {
            let (mi, seed) = slots[pending[ti]];
            monitor::board_running(&cfg.context, &names[mi], seed, attempt);
        },
        |ti, res, attempts| {
            let (mi, seed) = slots[pending[ti]];
            monitor::board_settled(&cfg.context, &names[mi], seed, res.is_ok(), attempts);
            match res {
                Ok(run) => {
                    rtgcn_telemetry::count("runner.jobs.completed", 1);
                    if let Some(j) = writer.as_mut() {
                        j.write(&JournalRecord::ok(&cfg.context, &names[mi], run, attempts));
                    }
                    if verbose {
                        eprintln!("[runner] {} seed {seed}: done", names[mi]);
                    }
                }
                Err(reason) => {
                    rtgcn_telemetry::count("runner.jobs.failed", 1);
                    rtgcn_telemetry::warn(
                        "runner.job_failed",
                        &format!("{} seed {seed}: {reason}", names[mi]),
                    );
                    if let Some(j) = writer.as_mut() {
                        j.write(&JournalRecord::failed(
                            &cfg.context,
                            &names[mi],
                            seed,
                            reason,
                            attempts,
                        ));
                    }
                }
            }
        },
    );
    for (ti, r) in pool_results.into_iter().enumerate() {
        results[pending[ti]] = Some(r);
    }
    for (mi, scope) in scopes.iter().enumerate() {
        let Some(scope) = scope else { continue };
        // Per-model span tree on stderr at summary level, like the serial
        // path's exit summary used to show for its last model — here every
        // model gets one, since each scope holds its own registry.
        if verbose {
            let _g = scope.enter();
            eprintln!("[runner] telemetry summary for {}:", names[mi]);
            rtgcn_telemetry::print_summary();
        }
        // A logged scope outlives this call: publish its totals so far and
        // leave closing it to `finish_model_scopes`.
        if cfg.log_sink.is_some() {
            scope.flush();
        } else {
            scope.finish();
        }
    }

    let mut per_spec: Vec<(Vec<SeedRun>, Vec<FailedSeed>)> =
        specs.iter().map(|_| (Vec::new(), Vec::new())).collect();
    for (si, &(mi, seed)) in slots.iter().enumerate() {
        // lint:allow(panic-free-hot-paths) run_pool returns one settled result per slot
        match results[si].take().expect("every slot settled") {
            Ok(run) => per_spec[mi].0.push(run),
            Err(reason) => per_spec[mi].1.push(FailedSeed { seed, reason }),
        }
    }
    per_spec
}

/// [`run_roster`] aggregated into one table row per spec.
pub fn evaluate_roster(
    specs: &[Spec],
    ds: &StockDataset,
    common: &CommonConfig,
    relation_kind: RelationKind,
    seeds: &[u64],
    ks: &[usize],
    cfg: &RunnerConfig,
) -> Vec<ModelRow> {
    run_roster(specs, ds, common, relation_kind, seeds, ks, cfg)
        .into_iter()
        .zip(specs)
        .map(|((runs, failed), spec)| aggregate_with_failures(spec, &runs, failed, ks))
        .collect()
}

/// Mean over the finite samples; NaN when none are finite (so an all-failed
/// row reads as "no score", never as a fake 0.0).
fn finite_mean(samples: &[f64]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for &v in samples {
        if v.is_finite() {
            sum += v;
            n += 1;
        }
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

/// Aggregate seed runs into a table row. `failed` carries seeds whose jobs
/// never produced a run; completed seeds with non-finite IRR/MRR samples are
/// excluded from the means, warned about, and appended to `failed_seeds` —
/// a Diverged seed can no longer silently drag a whole row to NaN.
pub fn aggregate_with_failures(
    spec: &Spec,
    runs: &[SeedRun],
    mut failed: Vec<FailedSeed>,
    ks: &[usize],
) -> ModelRow {
    let n = runs.len().max(1) as f64;
    let mut non_finite: BTreeMap<u64, String> = BTreeMap::new();
    let mut irr = std::collections::BTreeMap::new();
    let mut irr_samples = std::collections::BTreeMap::new();
    for &k in ks {
        let samples: Vec<f64> = runs
            .iter()
            .map(|r| r.outcome.irr.get(&k).copied().unwrap_or(f64::NAN))
            .collect();
        for (r, &v) in runs.iter().zip(samples.iter()) {
            if !v.is_finite() {
                non_finite
                    .entry(r.seed)
                    .or_insert_with(|| format!("non-finite IRR-{k} sample"));
            }
        }
        irr.insert(k, finite_mean(&samples));
        irr_samples.insert(k, samples);
    }
    let mrr_samples: Vec<f64> = runs.iter().filter_map(|r| r.outcome.mrr).collect();
    for r in runs {
        if let Some(v) = r.outcome.mrr {
            if !v.is_finite() {
                non_finite.entry(r.seed).or_insert_with(|| "non-finite MRR sample".to_string());
            }
        }
    }
    let mrr = if mrr_samples.is_empty() { None } else { Some(finite_mean(&mrr_samples)) };
    for (seed, why) in non_finite {
        rtgcn_telemetry::warn(
            "aggregate.non_finite",
            &format!("{} seed {seed}: {why}; excluded from row means", spec.name()),
        );
        if !failed.iter().any(|f| f.seed == seed) {
            failed.push(FailedSeed { seed, reason: why });
        }
    }
    failed.sort_by(|a, b| a.seed.cmp(&b.seed).then_with(|| a.reason.cmp(&b.reason)));
    ModelRow {
        name: spec.name(),
        category: spec.category().to_string(),
        mrr,
        irr,
        irr_samples,
        mrr_samples,
        mean_train_secs: runs.iter().map(|r| r.fit.train_secs).sum::<f64>() / n,
        mean_test_secs: runs.iter().map(|r| r.outcome.test_secs).sum::<f64>() / n,
        health: runs.iter().map(|r| r.fit.health.to_string()).collect(),
        failed_seeds: failed,
    }
}

/// The strongest baseline for a metric: highest *finite* mean among
/// non-"Ours" rows. Non-finite means are skipped — `total_cmp` orders NaN
/// above every finite value, so a diverged baseline would otherwise win the
/// Wilcoxon comparison with a NaN "score".
pub fn strongest_baseline(
    rows: &[ModelRow],
    metric: impl Fn(&ModelRow) -> Option<f64>,
) -> Option<&ModelRow> {
    rows.iter()
        .filter(|r| r.category != "Ours")
        .filter_map(|r| metric(r).map(|v| (r, v)))
        .filter(|(_, v)| v.is_finite())
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(r, _)| r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtgcn_core::Strategy;
    use rtgcn_market::{Market, Scale, UniverseSpec};
    use std::sync::atomic::{AtomicU32, Ordering};

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

    #[test]
    fn evaluate_rtgcn_over_two_seeds() {
        let ds = tiny_ds();
        let rows = evaluate_roster(
            &[Spec::Gcn(Strategy::Uniform)],
            &ds,
            &tiny_common(),
            RelationKind::Both,
            &[1, 2],
            &[1, 5],
            &RunnerConfig::from_env(),
        );
        let row = &rows[0];
        assert_eq!(row.name, "RT-GCN (U)");
        assert_eq!(row.irr_samples[&1].len(), 2);
        assert_eq!(row.mrr_samples.len(), 2);
        assert!(row.mrr.unwrap() > 0.0);
        assert!(row.mean_train_secs > 0.0);
        assert!(row.failed_seeds.is_empty());
    }

    #[test]
    fn strongest_baseline_excludes_ours() {
        let mk = |name: &str, cat: &str, irr1: f64| ModelRow {
            name: name.into(),
            category: cat.into(),
            mrr: Some(0.01),
            irr: [(1usize, irr1)].into_iter().collect(),
            irr_samples: Default::default(),
            mrr_samples: vec![],
            mean_train_secs: 0.0,
            mean_test_secs: 0.0,
            health: vec![],
            failed_seeds: vec![],
        };
        let rows = vec![mk("A", "RAN", 0.5), mk("B", "RAN", 0.9), mk("Ours", "Ours", 2.0)];
        let best = strongest_baseline(&rows, |r| r.irr.get(&1).copied()).unwrap();
        assert_eq!(best.name, "B");
        // Regression: a NaN mean must never be "strongest" (total_cmp ranks
        // NaN above every finite value).
        let rows = vec![mk("A", "RAN", 0.5), mk("Diverged", "RAN", f64::NAN)];
        let best = strongest_baseline(&rows, |r| r.irr.get(&1).copied()).unwrap();
        assert_eq!(best.name, "A");
        // All-NaN baselines: no strongest baseline at all.
        let rows = vec![mk("Diverged", "RAN", f64::NAN), mk("Ours", "Ours", 2.0)];
        assert!(strongest_baseline(&rows, |r| r.irr.get(&1).copied()).is_none());
    }

    fn run_with(seed: u64, irr1: f64, mrr: f64) -> SeedRun {
        SeedRun {
            seed,
            outcome: BacktestOutcome {
                name: "M".into(),
                mrr: Some(mrr),
                irr: [(1usize, irr1)].into_iter().collect(),
                daily_cumulative: Default::default(),
                test_secs: 0.0,
            },
            fit: FitReport::default(),
        }
    }

    #[test]
    fn aggregate_skips_non_finite_samples_and_records_failed_seeds() {
        let _g = rtgcn_telemetry::test_scope(rtgcn_telemetry::Level::Off);
        let spec = Spec::Gcn(Strategy::Uniform);
        let runs =
            vec![run_with(1, 0.4, 0.1), run_with(2, f64::NAN, f64::NAN), run_with(3, 0.6, 0.3)];
        let row = aggregate_with_failures(&spec, &runs, Vec::new(), &[1]);
        // The NaN seed no longer poisons the means...
        assert_eq!(row.irr[&1], 0.5);
        assert!((row.mrr.unwrap() - 0.2).abs() < 1e-12);
        // ...but stays visible: raw samples keep seed pairing, and the seed
        // is counted in failed_seeds with a warn event.
        assert_eq!(row.irr_samples[&1].len(), 3);
        assert!(row.irr_samples[&1][1].is_nan());
        assert_eq!(row.failed_seeds.len(), 1);
        assert_eq!(row.failed_seeds[0].seed, 2);
        let warned = rtgcn_telemetry::drain_memory_sink()
            .iter()
            .any(|l| l.contains("aggregate.non_finite"));
        assert!(warned, "expected aggregate.non_finite warn");
        // All seeds non-finite: NaN mean, not 0.0.
        let all_nan = [run_with(1, f64::NAN, f64::NAN)];
        let row = aggregate_with_failures(&spec, &all_nan, Vec::new(), &[1]);
        assert!(row.irr[&1].is_nan());
        assert!(row.mrr.unwrap().is_nan());
    }

    #[test]
    fn aggregate_tolerates_failed_seeds_and_missing_ks() {
        let _g = rtgcn_telemetry::test_scope(rtgcn_telemetry::Level::Off);
        let spec = Spec::Gcn(Strategy::Uniform);
        let failed = vec![FailedSeed { seed: 2, reason: "panicked: boom".into() }];
        // Seed 1's outcome has no k=5 entry: NaN sample, no panic.
        let row = aggregate_with_failures(&spec, &[run_with(1, 0.4, 0.1)], failed, &[1, 5]);
        assert_eq!(row.irr[&1], 0.4);
        assert!(row.irr[&5].is_nan());
        assert!(row.failed_seeds.iter().any(|f| f.seed == 2 && f.reason.contains("boom")));
    }

    #[test]
    fn pool_isolates_a_panicking_job() {
        let mk = |v: u64| PoolTask::<u64> {
            label: format!("job{v}"),
            work: Arc::new(move || v * 10),
        };
        let tasks = vec![
            mk(1),
            PoolTask { label: "boom".into(), work: Arc::new(|| panic!("injected panic")) },
            mk(3),
        ];
        let results = run_pool(tasks, 2, None, 0, |_, _| {}, |_, _, _| {});
        assert_eq!(results[0].as_ref().unwrap(), &10);
        assert!(results[1].as_ref().unwrap_err().contains("injected panic"));
        assert_eq!(results[2].as_ref().unwrap(), &30);
    }

    #[test]
    fn pool_times_out_a_hung_job_and_retries_once() {
        static ATTEMPTS: AtomicU32 = AtomicU32::new(0);
        let tasks = vec![PoolTask::<u64> {
            label: "hang".into(),
            work: Arc::new(|| {
                ATTEMPTS.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_secs(5));
                1
            }),
        }];
        let t0 = Instant::now();
        let mut settled = Vec::new();
        let results =
            run_pool(tasks, 1, Some(Duration::from_millis(80)), 1, |_, _| {}, |i, r, attempts| {
                settled.push((i, r.is_ok(), attempts));
            });
        assert!(results[0].as_ref().unwrap_err().contains("timed out"));
        // Exactly one retry: two attempts started, one settle callback.
        assert_eq!(ATTEMPTS.load(Ordering::SeqCst), 2);
        assert_eq!(settled, vec![(0, false, 2)]);
        // Both attempts were abandoned, not awaited: the pool returned in
        // ~2x the timeout, far below the 5s the job actually sleeps.
        assert!(t0.elapsed() < Duration::from_secs(3), "took {:?}", t0.elapsed());
    }

    #[test]
    fn pool_retry_recovers_a_flaky_job() {
        static CALLS: AtomicU32 = AtomicU32::new(0);
        let tasks = vec![PoolTask::<u64> {
            label: "flaky".into(),
            work: Arc::new(|| {
                if CALLS.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("first attempt fails");
                }
                42
            }),
        }];
        let mut final_attempts = 0;
        let results =
            run_pool(tasks, 1, None, 1, |_, _| {}, |_, _, attempts| final_attempts = attempts);
        assert_eq!(results[0].as_ref().unwrap(), &42);
        assert_eq!(final_attempts, 2);
    }

    #[test]
    fn pool_preserves_task_order_under_concurrency() {
        let tasks: Vec<PoolTask<usize>> = (0..16)
            .map(|i| PoolTask {
                label: format!("t{i}"),
                work: Arc::new(move || {
                    // Earlier tasks sleep longer so completion order inverts.
                    std::thread::sleep(Duration::from_millis(2 * (16 - i as u64)));
                    i
                }),
            })
            .collect();
        let results = run_pool(tasks, 8, None, 0, |_, _| {}, |_, _, _| {});
        let got: Vec<usize> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
    }
}
