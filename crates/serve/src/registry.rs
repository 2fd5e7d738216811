//! Versioned model registry with atomic hot-swap.
//!
//! Each market maps to an `Arc<ModelEntry>`. Handlers clone the `Arc` out
//! of the table, then work on their snapshot without holding any registry
//! lock — so installing v(N+1) is a pointer swap and every in-flight
//! request finishes coherently on v(N). `/rank` never takes even the
//! model lock: the top-day scores are precomputed at install time, making
//! torn reads structurally impossible.
//!
//! `/advance` day-advances a market through a [`rtgcn_stream::StreamEngine`]
//! kept per market key. The engine shares the entry's model `Arc`, so a
//! walk-forward refit is immediately visible to `/score`; each advanced
//! day publishes a rolled entry (`<checkpoint-id>+d<day>`) whose `/rank`
//! snapshot is the freshly streamed ranking. Installing a checkpoint
//! drops the market's stream — the engine state belonged to the replaced
//! model.

use crate::servable::{build_model, market_key, ServeError};
use parking_lot::Mutex;
use rtgcn_core::{Checkpoint, DataSpec, RefitPolicy};
use rtgcn_graph::{NormalizedAdjCache, SharedAdjCache};
use rtgcn_market::{DayEvent, RelationKind, StockDataset};
use rtgcn_stream::{DayOutcome, SharedModel, StreamConfig, StreamEngine};
use rtgcn_tensor::Tensor;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One installed model version. Immutable after construction except for
/// the mutex-guarded model (used by `/score` forward passes and by the
/// market's stream engine, which shares the same `Arc`).
pub struct ModelEntry {
    /// Content-addressed checkpoint id ([`Checkpoint::content_id`]); a
    /// streamed roll-forward appends `+d<day>`.
    pub version: String,
    /// Family tag (`"rtgcn"`, `"rsr"`, …).
    pub family: String,
    /// Registry key (lowercase market name).
    pub market: String,
    pub n_stocks: usize,
    pub t_steps: usize,
    pub n_features: usize,
    /// Day the precomputed ranking refers to (latest test end-day, or the
    /// newest streamed day after an `/advance`).
    pub end_day: usize,
    /// Scores for `end_day`, index-aligned with stocks; `/rank` reads
    /// these without touching the model.
    pub scores: Vec<f32>,
    /// The checkpoint's verbatim dataset descriptor, kept so a stream
    /// engine can regenerate the exact dataset this model was built on.
    pub data_json: String,
    pub relation_kind: RelationKind,
    model: SharedModel,
}

impl ModelEntry {
    /// Rebuild the checkpointed model against `ds` and precompute the
    /// latest-day scores. `ds` must be generated from the checkpoint's
    /// [`rtgcn_core::DataSpec`]; [`Registry::install_checkpoint`] handles
    /// that (and dataset reuse across swaps) for you.
    pub fn from_checkpoint(
        ckpt: &Checkpoint,
        ds: &StockDataset,
        cache: Option<&SharedAdjCache>,
    ) -> Result<ModelEntry, ServeError> {
        let data = ckpt.data_spec()?;
        let mut built = build_model(ckpt, ds, cache)?;
        let end_day = *ds
            .test_end_days()
            .last()
            .ok_or_else(|| ServeError::BadInput("dataset has no scorable test day".into()))?;
        let scores = built.model.scores_for_day(ds, end_day);
        Ok(ModelEntry {
            version: ckpt.content_id(),
            family: ckpt.family.clone(),
            market: market_key(data.spec.market),
            n_stocks: ds.n_stocks(),
            t_steps: built.t_steps,
            n_features: built.n_features,
            end_day,
            scores,
            data_json: ckpt.data_json.clone(),
            relation_kind: data.relation_kind,
            model: Arc::new(Mutex::new(built.model)),
        })
    }

    /// Top-`k` stocks by precomputed score, ties broken by stock index.
    /// `k` past the universe size clamps to every stock.
    pub fn ranked(&self, k: usize) -> Vec<(usize, f32)> {
        let mut order: Vec<usize> = (0..self.scores.len()).collect();
        order.sort_by(|&a, &b| {
            self.scores[b].total_cmp(&self.scores[a]).then_with(|| a.cmp(&b))
        });
        order.truncate(k.min(self.scores.len()));
        order.into_iter().map(|i| (i, self.scores[i])).collect()
    }

    /// Score a raw `(t_steps, n_stocks, n_features)` window, supplied as
    /// a row-major flat slice. Takes the model lock (`/score` path).
    pub fn score_window(&self, flat: &[f32]) -> Result<Vec<f32>, ServeError> {
        let expect = self.t_steps * self.n_stocks * self.n_features;
        if flat.len() != expect {
            return Err(ServeError::BadInput(format!(
                "window must have t_steps*n_stocks*n_features = {expect} values, got {}",
                flat.len()
            )));
        }
        let x = Tensor::new([self.t_steps, self.n_stocks, self.n_features], flat.to_vec());
        self.model
            .lock()
            .score_window(&x)
            .ok_or_else(|| ServeError::BadInput(format!("{} cannot score raw windows", self.family)))
    }

    /// Shared handle to the entry's model (the stream engine drives the
    /// same instance `/score` serves).
    pub fn shared_model(&self) -> SharedModel {
        Arc::clone(&self.model)
    }

    /// A roll-forward of this entry: same model `Arc` and metadata, new
    /// version tag and `/rank` snapshot for the streamed day.
    fn rolled(&self, version: String, end_day: usize, scores: Vec<f32>) -> ModelEntry {
        ModelEntry {
            version,
            family: self.family.clone(),
            market: self.market.clone(),
            n_stocks: self.n_stocks,
            t_steps: self.t_steps,
            n_features: self.n_features,
            end_day,
            scores,
            data_json: self.data_json.clone(),
            relation_kind: self.relation_kind,
            model: Arc::clone(&self.model),
        }
    }
}

/// A market's live day-advance state: the engine plus the checkpoint id
/// it was built from, so a hot-swap to a different model invalidates it.
struct MarketStream {
    base_version: String,
    engine: StreamEngine,
}

/// The serving registry: market key → current [`ModelEntry`], plus
/// per-dataset caches so a hot-swap of the same market reuses the
/// generated dataset and the shared normalised-adjacency layout instead
/// of rebuilding them.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<BTreeMap<String, Arc<ModelEntry>>>,
    /// Keyed by the checkpoint's verbatim data JSON (a deterministic
    /// dataset descriptor).
    datasets: Mutex<BTreeMap<String, Arc<StockDataset>>>,
    adj_caches: Mutex<BTreeMap<String, SharedAdjCache>>,
    /// Day-advance engines by market key. Lock order: `streams` before
    /// `entries` — never the reverse.
    streams: Mutex<BTreeMap<String, MarketStream>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The current entry for a market key, if any (a snapshot: the
    /// returned `Arc` stays valid across concurrent swaps).
    pub fn get(&self, market: &str) -> Option<Arc<ModelEntry>> {
        self.entries.lock().get(market).cloned()
    }

    /// Registered market keys in sorted order.
    pub fn markets(&self) -> Vec<String> {
        self.entries.lock().keys().cloned().collect()
    }

    /// Atomically install a prebuilt entry under its market key,
    /// returning the replaced version (the hot-swap primitive). Any
    /// stream engine for the market is dropped: its incremental state
    /// belonged to the replaced model.
    pub fn install_entry(&self, entry: Arc<ModelEntry>) -> Option<Arc<ModelEntry>> {
        let mut streams = self.streams.lock();
        streams.remove(&entry.market);
        self.entries.lock().insert(entry.market.clone(), entry)
    }

    /// Decode nothing, build everything: regenerate (or reuse) the
    /// checkpoint's dataset, rebuild the model, precompute its ranking,
    /// and swap it in. Returns the installed entry.
    pub fn install_checkpoint(&self, ckpt: &Checkpoint) -> Result<Arc<ModelEntry>, ServeError> {
        let ds = self.dataset_for(ckpt)?;
        let cache = self.adj_cache_for(ckpt, &ds);
        let entry = Arc::new(ModelEntry::from_checkpoint(ckpt, &ds, Some(&cache))?);
        self.install_entry(Arc::clone(&entry));
        Ok(entry)
    }

    /// Day-advance a market's stream engine `days` times, applying
    /// `event`'s relation mutations on the first advanced day, and publish
    /// a rolled entry so `/rank` serves the newest streamed ranking.
    ///
    /// The stream is created lazily from the market's current entry (and
    /// re-created whenever the installed checkpoint changed underneath
    /// it). The registry's `streams` lock serialises advances per
    /// process; `/rank` and `/score` stay lock-free on their snapshots.
    pub fn advance_market(
        &self,
        market: &str,
        days: usize,
        event: Option<DayEvent>,
    ) -> Result<(Arc<ModelEntry>, Vec<DayOutcome>), ServeError> {
        if days == 0 {
            return Err(ServeError::BadInput("days must be a positive integer".into()));
        }
        // Read the entry only under `streams`. `install_entry` takes
        // `streams` first too, so a hot-swap lands wholly before this
        // advance (which then rolls the new entry) or wholly after it (and
        // drops the stream). An entry read before the lock could be
        // replaced in between, and the roll would publish over the swap.
        let mut streams = self.streams.lock();
        let entry =
            self.get(market).ok_or_else(|| ServeError::BadInput("unknown market".into()))?;
        let base = base_version(&entry.version).to_string();
        let stale = streams.get(market).map(|s| s.base_version != base).unwrap_or(true);
        if stale {
            let engine = self.stream_for(&entry)?;
            streams
                .insert(market.to_string(), MarketStream { base_version: base.clone(), engine });
        }
        let stream = streams.get_mut(market).expect("stream just ensured");
        if let Some(ev) = event.as_ref() {
            // `StockDataset::apply_event` asserts validity — screen the
            // request instead of letting a bad body panic the server.
            validate_event(stream.engine.dataset(), ev)?;
        }

        let mut event = event;
        let mut outcomes = Vec::with_capacity(days);
        for _ in 0..days {
            outcomes.push(stream.engine.advance(event.take()));
        }
        let (day, scores) = stream.engine.latest_scores();
        let rolled =
            Arc::new(entry.rolled(format!("{base}+d{day}"), day, scores.to_vec()));
        // Publish directly — `install_entry` would drop the very stream
        // that produced this snapshot.
        self.entries.lock().insert(market.to_string(), Arc::clone(&rolled));
        Ok((rolled, outcomes))
    }

    /// Build a fresh stream engine for `entry`, reusing the registry's
    /// generated dataset when one is cached for the same descriptor.
    fn stream_for(&self, entry: &ModelEntry) -> Result<StreamEngine, ServeError> {
        let ds: StockDataset = match self.datasets.lock().get(&entry.data_json) {
            Some(ds) => (**ds).clone(),
            None => {
                let data: DataSpec = serde_json::from_str(&entry.data_json).map_err(|e| {
                    ServeError::BadConfig(format!("entry data spec JSON: {e:?}"))
                })?;
                StockDataset::generate(data.spec, data.seed)
            }
        };
        if ds.days_generated() < rtgcn_market::WARMUP_DAYS + entry.t_steps {
            return Err(ServeError::BadInput(format!(
                "dataset too short to stream a {}-step window",
                entry.t_steps
            )));
        }
        let mut cfg = StreamConfig::new(entry.t_steps, entry.n_features, entry.relation_kind);
        cfg.refit = refit_policy_from_env();
        Ok(StreamEngine::new(ds, entry.shared_model(), cfg))
    }

    /// The dataset described by the checkpoint's data JSON, generated at
    /// most once per descriptor.
    fn dataset_for(&self, ckpt: &Checkpoint) -> Result<Arc<StockDataset>, ServeError> {
        if let Some(ds) = self.datasets.lock().get(&ckpt.data_json) {
            return Ok(Arc::clone(ds));
        }
        let data = ckpt.data_spec()?;
        // Generation happens outside the lock (it is the expensive part);
        // a concurrent duplicate insert is harmless — both values are
        // identical and one Arc wins.
        let ds = Arc::new(StockDataset::generate(data.spec, data.seed));
        self.datasets.lock().insert(ckpt.data_json.clone(), Arc::clone(&ds));
        Ok(ds)
    }

    /// The shared normalised-adjacency layout for the checkpoint's
    /// dataset descriptor, built at most once per descriptor.
    fn adj_cache_for(&self, ckpt: &Checkpoint, ds: &StockDataset) -> SharedAdjCache {
        if let Some(c) = self.adj_caches.lock().get(&ckpt.data_json) {
            return Arc::clone(c);
        }
        let kind = ckpt
            .data_spec()
            .map(|d| d.relation_kind)
            .unwrap_or(rtgcn_market::RelationKind::Both);
        let relations = ds.relations(kind);
        let cache = NormalizedAdjCache::new(relations.num_stocks(), &relations.directed_edges())
            .into_shared();
        self.adj_caches.lock().insert(ckpt.data_json.clone(), Arc::clone(&cache));
        cache
    }
}

/// The checkpoint id a (possibly rolled) version tag started from.
fn base_version(version: &str) -> &str {
    version.split("+d").next().unwrap_or(version)
}

/// Walk-forward refit policy for server-side streams, off by default:
/// `RTGCN_STREAM_REFIT_EVERY=<days>` enables the day-count schedule,
/// `RTGCN_STREAM_DRIFT=<window>,<frac>` the MRR drift trigger.
fn refit_policy_from_env() -> RefitPolicy {
    if let Ok(v) = std::env::var("RTGCN_STREAM_REFIT_EVERY") {
        if let Ok(days) = v.trim().parse::<usize>() {
            if days > 0 {
                return RefitPolicy::every(days);
            }
        }
    }
    if let Ok(v) = std::env::var("RTGCN_STREAM_DRIFT") {
        if let Some((w, f)) = v.split_once(',') {
            if let (Ok(w), Ok(f)) = (w.trim().parse::<usize>(), f.trim().parse::<f32>()) {
                if w > 0 && f > 0.0 {
                    return RefitPolicy::on_drift(w, f);
                }
            }
        }
    }
    RefitPolicy::disabled()
}

/// Screen a [`DayEvent`] against the dataset's universe before handing it
/// to `apply_event` (which `assert!`s the same conditions).
fn validate_event(ds: &StockDataset, ev: &DayEvent) -> Result<(), ServeError> {
    let n = ds.n_stocks();
    let k = ds.wiki.relations.num_types();
    for e in &ev.add {
        if e.leader >= n || e.follower >= n {
            return Err(ServeError::BadInput(format!(
                "add edge stock out of range (universe has {n} stocks)"
            )));
        }
        if e.leader == e.follower {
            return Err(ServeError::BadInput(
                "add edge must connect two distinct stocks".into(),
            ));
        }
        if e.types.is_empty() {
            return Err(ServeError::BadInput(
                "add edge needs at least one relation type".into(),
            ));
        }
        if e.types.iter().any(|&t| t >= k) {
            return Err(ServeError::BadInput(format!(
                "add edge relation type out of range (market has {k} wiki types)"
            )));
        }
    }
    for &(a, b) in &ev.drop {
        if a >= n || b >= n {
            return Err(ServeError::BadInput(format!(
                "drop pair stock out of range (universe has {n} stocks)"
            )));
        }
    }
    Ok(())
}
