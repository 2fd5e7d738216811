//! `fit-backtest`: fit RT-GCN (T) for a fixed number of epochs, run the
//! daily top-N backtest over the test split, then fit RSR_E (the Fig. 5
//! comparator) for the same number of epochs. Tensor kernels and the tape's
//! backward pass do nearly all the work; HTTP does none.
//!
//! Runnable, but not gated in `BENCHMARK.json`: a single thread computing
//! flat out for half a minute is at the mercy of the shared host (README.md).
//! Its cut-down [`PROBE`] form attributes the training layers in the traced
//! `serve-mix` run.

use crate::common::{
    data_spec, hist_mean_ns, median_call, rtgcn_config, set_up_repeatedly, span_self_ns,
    span_total_ns, spans, timed, Report, Rng,
};
use crate::stats::{median, Summary};
use rtgcn_baselines::{Rsr, RsrConfig};
use rtgcn_core::{FitReport, RtGcn, StockRanker};
use rtgcn_eval::{backtest, daily_topk_return, reciprocal_rank};
use rtgcn_market::StockDataset;
use rtgcn_telemetry::health::HealthVerdict;
use rtgcn_tensor::{linalg, Adam, Tensor};
use std::time::{Duration, Instant};

/// Epochs of each fit (RT-GCN (T) and RSR_E alike).
const EPOCHS: usize = 2;
/// Portfolio sizes settled each day (the paper's top-1/5/10).
const TOP_KS: [usize; 3] = [1, 5, 10];

/// Times every `scores_for_day` call the backtest makes.
struct Timed<'a> {
    inner: &'a mut RtGcn,
    day_secs: Vec<f64>,
    last_scores: Vec<f32>,
}

impl StockRanker for Timed<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn fit(&mut self, ds: &StockDataset) -> FitReport {
        self.inner.fit(ds)
    }

    fn scores_for_day(&mut self, ds: &StockDataset, end_day: usize) -> Vec<f32> {
        let t = Instant::now();
        let s = self.inner.scores_for_day(ds, end_day);
        self.day_secs.push(t.elapsed().as_secs_f64());
        self.last_scores.extend_from_slice(&s);
        s
    }
}

struct Setup {
    ds: StockDataset,
    model: RtGcn,
    rsr: Rsr,
    generate: Duration,
}

fn set_up(seed: u64) -> Setup {
    let data = data_spec(seed);
    let (generate, ds) = timed(|| StockDataset::generate(data.spec.clone(), data.seed));
    let init = Rng::new(seed).next_u64();
    let model = RtGcn::new(
        rtgcn_config(EPOCHS),
        &ds.relations(data.relation_kind),
        init,
    );
    let mut rsr = Rsr::new(
        RsrConfig {
            epochs: EPOCHS,
            ..RsrConfig::default()
        },
        init,
    );
    rsr.prepare(&ds);
    Setup {
        ds,
        model,
        rsr,
        generate,
    }
}

fn check_fit(r: &mut Report, what: &str, fit: &FitReport) {
    r.attempted += 1;
    let finite = fit.epoch_losses.len() == EPOCHS && fit.epoch_losses.iter().all(|l| l.is_finite());
    let healthy = fit.health != HealthVerdict::Diverged;
    if !(finite && healthy) {
        r.failed += 1;
        r.errors.push(format!(
            "{what}: losses {:?}, health {:?}",
            fit.epoch_losses, fit.health
        ));
    }
}

/// Digest of the bit patterns of everything the fit produced.
fn digest(parts: &[&[f32]]) -> String {
    let bytes = parts
        .iter()
        .flat_map(|p| p.iter())
        .flat_map(|v| v.to_bits().to_le_bytes());
    format!("{:016x}", crate::common::fnv1a(bytes))
}

/// Backtest passes and the checks on them: every pass must give finite
/// metrics identical to the first pass's.
struct Passes<'a> {
    model: Timed<'a>,
    secs: Vec<f64>,
    first: Option<(u64, Vec<u64>)>,
    per_block: usize,
}

impl Passes<'_> {
    fn run(&mut self, r: &mut Report, ds: &StockDataset, seed: u64) {
        let test_days = ds.test_end_days().len() as u64;
        for _ in 0..self.per_block {
            self.model.last_scores.clear();
            let (d, out) = timed(|| backtest(&mut self.model, ds, &TOP_KS, seed));
            self.secs.push(d.as_secs_f64());
            r.attempted += test_days;
            let mrr = out.mrr.unwrap_or(f64::NAN);
            let irr: Vec<u64> = out.irr.values().map(|v| v.to_bits()).collect();
            let finite = mrr.is_finite() && out.irr.values().all(|v| v.is_finite());
            let same = self
                .first
                .as_ref()
                .is_none_or(|(m, i)| *m == mrr.to_bits() && *i == irr);
            if !(finite && same) {
                r.failed += test_days;
                r.errors.push(format!(
                    "backtest: MRR {mrr}, IRR {:?} (finite {finite}, repeatable {same})",
                    out.irr
                ));
            }
            self.first.get_or_insert((mrr.to_bits(), irr));
        }
    }
}

/// How much of the fit-backtest work a run does.
pub struct Size {
    /// Training days kept from the universe (`None`: all of `Scale::Small`).
    train_days: Option<usize>,
    passes_per_block: usize,
}

/// The `fit-backtest` workload.
pub const FULL: Size = Size {
    train_days: None,
    passes_per_block: 3,
};
/// A cut-down fit that another workload's traced run uses to attribute
/// the tensor and core layers (about 4 s).
pub const PROBE: Size = Size {
    train_days: Some(60),
    passes_per_block: 1,
};

pub fn run(seed: u64, traced: bool, size: &Size) -> Report {
    let mut r = Report::default();
    let mut gen_s = Vec::new();
    let set_up = set_up_repeatedly(|| {
        let mut s = set_up(seed);
        if let Some(days) = size.train_days {
            s.ds.spec.train_days = days;
        }
        gen_s.push(s.generate.as_secs_f64());
        Ok(s)
    });
    let (
        Setup {
            ds,
            mut model,
            mut rsr,
            ..
        },
        setup_s,
    ) = match set_up {
        Ok(done) => done,
        Err(e) => {
            r.errors.push(e);
            return r;
        }
    };
    let steps = (EPOCHS * ds.train_end_days(model.config.t_steps).len()) as f64;
    let test_days = ds.test_end_days().len();
    rtgcn_telemetry::reset();

    // RT-GCN (T): fit, then a block of backtest passes.
    let fit = model.fit(&ds);
    check_fit(&mut r, "RT-GCN (T) fit", &fit);
    let timed_model = Timed {
        inner: &mut model,
        day_secs: Vec::new(),
        last_scores: Vec::new(),
    };
    let mut passes = Passes {
        model: timed_model,
        secs: Vec::new(),
        first: None,
        per_block: size.passes_per_block,
    };
    passes.run(&mut r, &ds, seed);
    let rt_spans = traced.then(spans);
    let (relational_ns, _) = hist_mean_ns("kernel.gcn.relational_ns");
    let (temporal_ns, _) = hist_mean_ns("kernel.gcn.temporal_ns");
    let (day_score_ns, _) = hist_mean_ns("backtest.day_score_ns");
    let hit_ratio =
        crate::common::counter_ratio("kernel.gcn.adj_cache.hit", "kernel.gcn.adj_cache.miss");
    rtgcn_telemetry::reset();

    // RSR_E: the same number of epochs on the same data; then a second
    // block of passes, so the backtest samples both ends of the run.
    let rsr_fit = rsr.fit(&ds);
    check_fit(&mut r, "RSR_E fit", &rsr_fit);
    let rsr_spans = traced.then(spans);
    passes.run(&mut r, &ds, seed);
    match crate::common::peak_rss_mb() {
        Ok(mb) => r.e2e("peak_rss_mb", "peak_rss_mb", mb, 1, "VmHWM".into()),
        Err(e) => r.errors.push(e),
    }
    let day = Summary::of(
        &passes
            .model
            .day_secs
            .iter()
            .map(|s| s * 1e3)
            .collect::<Vec<_>>(),
    );
    let scores = std::mem::take(&mut passes.model.last_scores);
    let pass_secs = passes.secs;

    let epoch_ms = median(&fit.epoch_secs) * 1e3;
    let rsr_epoch_ms = median(&rsr_fit.epoch_secs) * 1e3;
    let days_per_s = test_days as f64 / median(&pass_secs);
    r.e2e(
        "setup_s",
        "setup_s",
        median(&setup_s),
        setup_s.len(),
        "dataset, RT-GCN and RSR_E build".into(),
    );
    r.e2e(
        "main_p50_ms",
        "epoch_s (x1000)",
        epoch_ms,
        fit.epoch_secs.len(),
        "RT-GCN (T) epoch".into(),
    );
    if let Some((q, tail)) = day.tail {
        r.notes.push(format!(
            "backtest day scoring: p50 {:.6} ms, tail {tail:.6} ms (q {q}) over {} days",
            day.p50, day.n
        ));
    }
    r.e2e(
        "alt_p50_ms",
        "baseline_epoch_s (x1000)",
        rsr_epoch_ms,
        rsr_fit.epoch_secs.len(),
        "RSR_E epoch".into(),
    );
    r.e2e(
        "rate_per_s",
        "backtest_days_per_s",
        days_per_s,
        pass_secs.len(),
        format!("{test_days} test days per pass"),
    );
    r.notes.push(format!(
        "epoch_s {:.4} s | baseline_epoch_s {:.4} s | RT-GCN/RSR_E epoch ratio {:.3} | {} train steps per fit",
        epoch_ms / 1e3,
        rsr_epoch_ms / 1e3,
        epoch_ms / rsr_epoch_ms,
        steps
    ));
    r.notes.push(format!(
        "final losses: RT-GCN {:.6}, RSR_E {:.6}; health {:?} / {:?}",
        fit.final_loss, rsr_fit.final_loss, fit.health, rsr_fit.health
    ));
    let losses: Vec<f32> = fit
        .epoch_losses
        .iter()
        .chain(&rsr_fit.epoch_losses)
        .copied()
        .collect();
    r.digest = Some(digest(&[&scores, &losses]));

    if let (Some(rt), Some(rs)) = (rt_spans, rsr_spans) {
        let per_step_ms = |ns: f64| ns / steps / 1e6;
        let l = &mut r.layers;
        l.insert(
            "tensor.backward_ms",
            per_step_ms(span_self_ns(&rt, "fit/epoch/backward")),
        );
        l.insert(
            "tensor.conv1d_causal_ms",
            per_step_ms(span_total_ns(&rt, "fit/", &["conv1d_causal"])),
        );
        l.insert(
            "tensor.spmm_ms",
            per_step_ms(span_total_ns(&rt, "fit/", &["spmm_csr", "spmm_batched"])),
        );
        l.insert(
            "tensor.optim_ms",
            per_step_ms(span_total_ns(&rt, "fit/", &["optim"])),
        );
        l.insert(
            "tensor.linear_ms",
            per_step_ms(span_total_ns(&rs, "fit/", &["linear", "matmul"])),
        );
        l.insert(
            "tensor.rsr_backward_ms",
            per_step_ms(span_self_ns(&rs, "fit/epoch/backward")),
        );
        l.insert("core.relational_us", relational_ns / 1e3);
        l.insert("core.temporal_us", temporal_ns / 1e3);
        l.insert("graph.adj_cache_hit_ratio", hit_ratio);
        l.insert("eval.day_score_ms", day_score_ns / 1e6);
        l.insert("market.generate_s", median(&gen_s));
        probe_layers(&mut r, &ds, &mut model, seed);
    }
    r
}

/// Direct calls into each module's public functions, timed from here.
fn probe_layers(r: &mut Report, ds: &StockDataset, model: &mut RtGcn, seed: u64) {
    let cfg = model.config.clone();
    let (t, n) = (cfg.t_steps, ds.n_stocks());
    let (m, k, h) = (t * n, cfg.n_features, cfg.rel_filters);
    let mut rng = Rng::new(seed ^ 0x6d61_746d);
    let a = Tensor::new([m, k], (0..m * k).map(|_| rng.unit() as f32).collect());
    let b = Tensor::new([k, h], (0..k * h).map(|_| rng.unit() as f32).collect());
    let matmul_s = median_call(400, |_| {
        std::hint::black_box(linalg::matmul(std::hint::black_box(&a), &b));
    });
    r.layers.insert("tensor.matmul_us", matmul_s * 1e6);
    r.layers.insert(
        "tensor.matmul_gflops",
        (2 * m * k * h) as f64 / matmul_s / 1e9,
    );

    let train_days = ds.train_end_days(t);
    let test_days = ds.test_end_days();
    let mut side = RtGcn::new(
        cfg.clone(),
        &ds.relations(data_spec(seed).relation_kind),
        seed,
    );
    let mut opt = Adam::new(cfg.lr, cfg.lambda);
    let samples: Vec<_> = train_days
        .iter()
        .take(40)
        .map(|&d| ds.sample(d, t, k))
        .collect();
    let step_s = median_call(samples.len(), |i| {
        side.train_step_stats(&samples[i].x, &samples[i].y, &mut opt);
    });
    r.layers.insert("core.train_step_ms", step_s * 1e3);
    let x = ds.sample(test_days[0], t, k).x;
    r.layers.insert(
        "core.forward_ms",
        median_call(40, |_| drop(model.score(&x))) * 1e3,
    );
    let sample_s = median_call(400, |i| {
        drop(ds.sample(train_days[i % train_days.len()], t, k))
    });
    r.layers.insert("market.sample_us", sample_s * 1e6);
    let truth: Vec<f32> = (0..n)
        .map(|i| ds.realized_return(test_days[0], i))
        .collect();
    let scores = model.score(&x);
    let settle_s = median_call(2000, |_| {
        std::hint::black_box(
            reciprocal_rank(&scores, &truth) + daily_topk_return(&scores, &truth, 10),
        );
    });
    r.layers.insert("eval.settle_us", settle_s * 1e6);
}
