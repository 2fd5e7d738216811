//! Checkpoint ↔ model dispatch for every servable family. `rtgcn-core`
//! cannot depend on the baselines crate, so the family registry lives
//! here: a family tag string in the checkpoint selects the constructor,
//! the verbatim config JSON rebuilds the configuration, and
//! [`rtgcn_core::Checkpoint::apply_to`] restores the trained parameters.

use crate::probe::{ProbeConfig, WindowSumProbe};
use rtgcn_baselines::{LstmRanker, Rsr, RsrConfig, SeqConfig, Sthan, SthanConfig};
use rtgcn_core::{Checkpoint, CheckpointError, DataSpec, RtGcn, RtGcnConfig, StockRanker};
use rtgcn_market::{Market, StockDataset};
use rtgcn_tensor::CsrEdges;
use std::fmt;

/// Family tags understood by [`build_model`].
pub const FAMILIES: [&str; 6] = ["rtgcn", "lstm", "rank_lstm", "rsr", "sthan", "probe"];

/// Registry key for a market (`/rank?market=<key>`): the lowercase market
/// name, e.g. `"nasdaq"`.
pub fn market_key(market: Market) -> String {
    market.name().to_ascii_lowercase()
}

/// Serving-layer failures (checkpoint decode errors pass through).
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    Checkpoint(CheckpointError),
    /// Checkpoint family tag not in [`FAMILIES`].
    UnknownFamily(String),
    /// Config JSON does not parse as the family's config type.
    BadConfig(String),
    /// The model exposes no parameter store (closed-form baselines).
    NotServable(String),
    /// Request-shaped failure (bad window length, empty test split, …).
    BadInput(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Checkpoint(e) => write!(f, "{e}"),
            ServeError::UnknownFamily(fam) => {
                write!(f, "unknown model family {fam:?} (expected one of {FAMILIES:?})")
            }
            ServeError::BadConfig(msg) => write!(f, "bad config: {msg}"),
            ServeError::NotServable(name) => {
                write!(f, "{name} has no parameter store and cannot be served")
            }
            ServeError::BadInput(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Checkpoint(e)
    }
}

/// Capture a trained model into a durable [`Checkpoint`]. `config_json`
/// must be the JSON of the family's config type (the per-family helpers
/// below produce it); it is stored verbatim.
pub fn checkpoint_model(
    family: &str,
    config_json: String,
    data: &DataSpec,
    model: &dyn StockRanker,
) -> Result<Checkpoint, ServeError> {
    let store = model.param_store().ok_or_else(|| ServeError::NotServable(model.name()))?;
    let data_json = serde_json::to_string(data)
        .map_err(|e| ServeError::BadConfig(format!("data spec: {e:?}")))?;
    Ok(Checkpoint::from_store(family, config_json, data_json, store))
}

fn config_json<T: serde::Serialize>(cfg: &T) -> Result<String, ServeError> {
    serde_json::to_string(cfg).map_err(|e| ServeError::BadConfig(format!("{e:?}")))
}

pub fn checkpoint_rtgcn(model: &RtGcn, data: &DataSpec) -> Result<Checkpoint, ServeError> {
    checkpoint_model("rtgcn", config_json(&model.config)?, data, model)
}

/// Works for both variants: the family tag follows the model's name.
pub fn checkpoint_lstm(model: &LstmRanker, data: &DataSpec) -> Result<Checkpoint, ServeError> {
    let family = if model.name() == "Rank_LSTM" { "rank_lstm" } else { "lstm" };
    checkpoint_model(family, config_json(&model.cfg)?, data, model)
}

pub fn checkpoint_rsr(model: &Rsr, data: &DataSpec) -> Result<Checkpoint, ServeError> {
    checkpoint_model("rsr", config_json(&model.cfg)?, data, model)
}

pub fn checkpoint_sthan(model: &Sthan, data: &DataSpec) -> Result<Checkpoint, ServeError> {
    checkpoint_model("sthan", config_json(&model.cfg)?, data, model)
}

#[doc(hidden)]
pub fn checkpoint_probe(model: &WindowSumProbe, data: &DataSpec) -> Result<Checkpoint, ServeError> {
    checkpoint_model("probe", config_json(&model.cfg)?, data, model)
}

/// A model rebuilt from a checkpoint, plus the window geometry `/score`
/// validates request bodies against.
pub struct BuiltModel {
    pub model: Box<dyn StockRanker + Send>,
    pub t_steps: usize,
    pub n_features: usize,
}

fn parse<T: serde::Deserialize>(json: &str, family: &str) -> Result<T, ServeError> {
    serde_json::from_str(json).map_err(|e| ServeError::BadConfig(format!("{family}: {e:?}")))
}

/// Rebuild the checkpointed model against `ds` (which must match the
/// checkpoint's [`DataSpec`]): construct the family from the verbatim
/// config, force lazy graph state via `prepare`, then restore the trained
/// parameters. The construction seed is irrelevant — every parameter is
/// overwritten by the checkpoint — so a fixed 0 is used. When `layout` is
/// given ([`rtgcn_core::strategy::layout`] of the checkpoint's relations),
/// RT-GCN shares it instead of building its own.
pub fn build_model(
    ckpt: &Checkpoint,
    ds: &StockDataset,
    layout: Option<&CsrEdges>,
) -> Result<BuiltModel, ServeError> {
    let data = ckpt.data_spec()?;
    let mut built = match ckpt.family.as_str() {
        "rtgcn" => {
            let cfg: RtGcnConfig = parse(&ckpt.config_json, "rtgcn")?;
            let relations = ds.relations(data.relation_kind);
            let (t, d) = (cfg.t_steps, cfg.n_features);
            let model = match layout {
                Some(l) => RtGcn::with_layout(cfg, &relations, l, 0),
                None => RtGcn::new(cfg, &relations, 0),
            };
            BuiltModel { model: Box::new(model), t_steps: t, n_features: d }
        }
        "lstm" => {
            let cfg: SeqConfig = parse(&ckpt.config_json, "lstm")?;
            let (t, d) = (cfg.t_steps, cfg.n_features);
            BuiltModel { model: Box::new(LstmRanker::regression(cfg, 0)), t_steps: t, n_features: d }
        }
        "rank_lstm" => {
            let cfg: SeqConfig = parse(&ckpt.config_json, "rank_lstm")?;
            let (t, d) = (cfg.t_steps, cfg.n_features);
            BuiltModel { model: Box::new(LstmRanker::ranking(cfg, 0)), t_steps: t, n_features: d }
        }
        "rsr" => {
            let cfg: RsrConfig = parse(&ckpt.config_json, "rsr")?;
            let (t, d) = (cfg.t_steps, cfg.n_features);
            BuiltModel { model: Box::new(Rsr::new(cfg, 0)), t_steps: t, n_features: d }
        }
        "sthan" => {
            let cfg: SthanConfig = parse(&ckpt.config_json, "sthan")?;
            let (t, d) = (cfg.t_steps, cfg.n_features);
            BuiltModel { model: Box::new(Sthan::new(cfg, 0)), t_steps: t, n_features: d }
        }
        "probe" => {
            let cfg: ProbeConfig = parse(&ckpt.config_json, "probe")?;
            let (t, d) = (cfg.t_steps, cfg.n_features);
            BuiltModel { model: Box::new(WindowSumProbe::new(cfg, 1.0)), t_steps: t, n_features: d }
        }
        other => return Err(ServeError::UnknownFamily(other.to_string())),
    };
    built.model.prepare(ds);
    let store = built
        .model
        .param_store_mut()
        .ok_or_else(|| ServeError::NotServable(ckpt.family.clone()))?;
    ckpt.apply_to(store)?;
    Ok(built)
}
