//! Tiny hand-rolled CLI shared by every experiment harness (keeps the
//! dependency set inside the allowed list — no clap), plus the shared
//! telemetry bootstrap: every harness gets a JSONL sink under the log
//! directory and a span-tree summary on exit via [`HarnessArgs::init`].

use rtgcn_market::{Market, Scale};
use std::path::PathBuf;
use std::sync::OnceLock;

/// Options common to all harness binaries.
#[derive(Clone, Debug)]
pub struct HarnessArgs {
    /// Dataset scale (DESIGN.md §4.5). Default: small.
    pub scale: Scale,
    /// Number of seeded repetitions (paper: 15). Default: 3.
    pub seeds: usize,
    /// Training epochs per model. Default: 4.
    pub epochs: usize,
    /// Markets to run. Default: all three.
    pub markets: Vec<Market>,
    /// Output directory for JSON artifacts.
    pub out_dir: String,
    /// Telemetry JSONL directory (`--logs`). Default: `<out_dir>/logs`.
    pub logs_dir: Option<String>,
    /// Base RNG seed.
    pub base_seed: u64,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            scale: Scale::Small,
            seeds: 3,
            epochs: 4,
            markets: Market::ALL.to_vec(),
            out_dir: "results".into(),
            logs_dir: None,
            base_seed: 7,
        }
    }
}

/// (harness name, resolved logs dir) for the running binary, set once by
/// [`HarnessArgs::init`]. The runner reads this to swap per-model JSONL
/// sinks without threading the context through every call signature.
static HARNESS_CTX: OnceLock<(String, PathBuf)> = OnceLock::new();

/// The single structured error path every `src/bin/*` shares: an event in
/// the JSONL stream, a `error[<harness>]:`-prefixed line on stderr, and a
/// nonzero exit so shell pipelines (run_experiments.sh) stop on failure.
pub fn harness_error(harness: &str, err: &dyn std::fmt::Display) -> ! {
    rtgcn_telemetry::warn("harness.error", &format!("{harness}: {err}"));
    eprintln!("error[{harness}]: {err}");
    std::process::exit(2);
}

/// Begin a per-model telemetry scope: flushes the previous model's
/// aggregates and points the JSONL sink at
/// `<logs>/run-<harness>-<model>.jsonl`. No-op before [`HarnessArgs::init`]
/// (library tests and benches run without a sink).
pub fn begin_model_scope(model: &str) {
    if let Some((harness, dir)) = HARNESS_CTX.get() {
        rtgcn_telemetry::begin_model_run(dir, harness, model);
    }
}

/// Read-only view of the harness context set by [`HarnessArgs::init`]:
/// `(harness name, logs dir)`, or `None` in library tests and benches. The
/// runner uses it to place per-model JSONL sinks and the job journal.
pub fn harness_ctx() -> Option<(&'static str, &'static std::path::Path)> {
    HARNESS_CTX.get().map(|(h, d)| (h.as_str(), d.as_path()))
}

/// Returned by [`HarnessArgs::init`]. On drop it finishes the runner's
/// per-model scopes (their logs and trace exports), then drops the root
/// [`rtgcn_telemetry::Telemetry`] guard.
pub struct HarnessGuard {
    _telemetry: rtgcn_telemetry::Telemetry,
}

impl Drop for HarnessGuard {
    fn drop(&mut self) {
        crate::runner::finish_model_scopes();
    }
}

fn parse_market(s: &str) -> Option<Market> {
    match s.to_ascii_lowercase().as_str() {
        "nasdaq" => Some(Market::Nasdaq),
        "nyse" => Some(Market::Nyse),
        "csi" => Some(Market::Csi),
        _ => None,
    }
}

impl HarnessArgs {
    /// Parse `--scale`, `--seeds`, `--epochs`, `--markets a,b`, `--out`,
    /// `--logs`, `--seed`. Unknown flags abort with usage (fail fast beats
    /// silently running the wrong experiment).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = HarnessArgs::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next().ok_or_else(|| format!("{name} requires a value"))
            };
            match flag.as_str() {
                "--scale" => {
                    let v = value("--scale")?;
                    out.scale =
                        Scale::parse(&v).ok_or_else(|| format!("unknown scale {v:?}"))?;
                }
                "--seeds" => {
                    out.seeds = value("--seeds")?
                        .parse()
                        .map_err(|e| format!("--seeds: {e}"))?;
                }
                "--epochs" => {
                    out.epochs = value("--epochs")?
                        .parse()
                        .map_err(|e| format!("--epochs: {e}"))?;
                }
                "--markets" => {
                    let v = value("--markets")?;
                    out.markets = v
                        .split(',')
                        .map(|m| parse_market(m).ok_or_else(|| format!("unknown market {m:?}")))
                        .collect::<Result<_, _>>()?;
                }
                "--out" => out.out_dir = value("--out")?,
                "--logs" => out.logs_dir = Some(value("--logs")?),
                "--seed" => {
                    out.base_seed =
                        value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
                }
                other => {
                    return Err(format!(
                        "unknown flag {other:?}\nusage: [--scale small|medium|paper] [--seeds N] \
                         [--epochs N] [--markets nasdaq,nyse,csi] [--out DIR] [--logs DIR] \
                         [--seed N]"
                    ))
                }
            }
        }
        if out.seeds == 0 || out.epochs == 0 {
            return Err("--seeds and --epochs must be >= 1".into());
        }
        Ok(out)
    }

    /// Resolved telemetry log directory: `--logs` if given, else
    /// `<out_dir>/logs`.
    pub fn logs_dir(&self) -> PathBuf {
        match &self.logs_dir {
            Some(d) => PathBuf::from(d),
            None => PathBuf::from(&self.out_dir).join("logs"),
        }
    }

    /// Parse from the process environment and bootstrap telemetry. On a bad
    /// flag this routes through [`harness_error`] (named harness, nonzero
    /// exit). Returns the parsed args plus a [`HarnessGuard`] — keep it
    /// alive for the whole `main` so the summary and JSONL flush fire on
    /// exit.
    pub fn init(harness: &str) -> (Self, HarnessGuard) {
        let args = match Self::parse(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(e) => harness_error(harness, &e),
        };
        let logs = args.logs_dir();
        // The monitor server (RTGCN_MONITOR) starts inside init_harness;
        // the /runs route must be on the table before that.
        crate::monitor::install_runs_route();
        let telemetry = rtgcn_telemetry::init_harness(harness, &logs);
        let _ = HARNESS_CTX.set((harness.to_string(), logs));
        (args, HarnessGuard { _telemetry: telemetry })
    }

    /// The seed list for repetition `0..seeds`.
    pub fn seed_list(&self) -> Vec<u64> {
        (0..self.seeds as u64).map(|i| self.base_seed + 1000 * i).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.scale, Scale::Small);
        assert_eq!(a.seeds, 3);
        assert_eq!(a.markets.len(), 3);
    }

    #[test]
    fn full_flags() {
        let a = parse(&[
            "--scale", "paper", "--seeds", "15", "--epochs", "10", "--markets", "csi,nasdaq",
            "--out", "/tmp/x", "--seed", "99",
        ])
        .unwrap();
        assert_eq!(a.scale, Scale::Paper);
        assert_eq!(a.seeds, 15);
        assert_eq!(a.epochs, 10);
        assert_eq!(a.markets, vec![Market::Csi, Market::Nasdaq]);
        assert_eq!(a.out_dir, "/tmp/x");
        assert_eq!(a.seed_list()[1], 1099);
    }

    #[test]
    fn logs_dir_defaults_under_out_dir() {
        let a = parse(&["--out", "/tmp/x"]).unwrap();
        assert_eq!(a.logs_dir(), PathBuf::from("/tmp/x/logs"));
        let b = parse(&["--out", "/tmp/x", "--logs", "/var/log/rtgcn"]).unwrap();
        assert_eq!(b.logs_dir(), PathBuf::from("/var/log/rtgcn"));
    }

    #[test]
    fn rejects_unknown() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--scale", "tiny"]).is_err());
        assert!(parse(&["--seeds", "0"]).is_err());
        assert!(parse(&["--markets", "tse"]).is_err());
    }
}
