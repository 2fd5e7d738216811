//! Pieces every workload shares: the seeded generator, the universe and
//! model configuration, timing helpers, the metric tables and the fold of
//! the telemetry the crates already record.

use rtgcn_core::{DataSpec, RtGcnConfig};
use rtgcn_market::{Market, RelationKind, Scale, UniverseSpec};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// SplitMix64: every benchmark input is drawn from the workload seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The benchmark universe: NASDAQ at `Scale::Small` (102 stocks, wiki and
/// industry relations), generated from the workload seed.
pub fn data_spec(seed: u64) -> DataSpec {
    DataSpec {
        spec: UniverseSpec::of(Market::Nasdaq, Scale::Small),
        seed,
        relation_kind: RelationKind::Both,
    }
}

/// Registry key of the benchmark market.
pub const MARKET: &str = "nasdaq";

/// RT-GCN (T) at the paper defaults (T = 16, 4 features, one layer).
pub fn rtgcn_config(epochs: usize) -> RtGcnConfig {
    RtGcnConfig {
        epochs,
        ..RtGcnConfig::default()
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Wall time of `f`, and its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed(), r)
}

/// CPU time used so far by every thread of this process, the server's
/// included (`CLOCK_PROCESS_CPUTIME_ID`). Unlike wall time it leaves out
/// the time a thread waits for a core, so load from other tenants of a
/// shared host (run-queue waits, hypervisor steal) does not enter it.
pub fn process_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a constant the kernel
    // always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Process CPU time spent while `f` ran, and its result.
pub fn cpu_timed<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let t = process_cpu();
    let r = f();
    (process_cpu().saturating_sub(t), r)
}

/// A fixed piece of CPU work in the benchmark's own code, so no change to
/// the crates can speed it up: print 256 floats as text and parse them
/// back, the branchy integer work of the HTTP and JSON paths. On a shared
/// host a core runs the same work up to 1.7x slower while neighbours load
/// it; this work slows by about the same factor as `/advance` does (a
/// matrix product, a sort and a pointer chase tracked it worse), so its
/// CPU time tells how fast the core runs at the moment.
fn calibration_work() -> f64 {
    let vals: Vec<f32> = (0..256).map(|i| (i as f32 * 0.37).sin()).collect();
    let mut text = String::new();
    for v in std::hint::black_box(&vals) {
        text.push_str(&format!("{},", *v as f64));
    }
    text.split_terminator(',')
        .map(|t| t.parse::<f64>().unwrap_or(0.0))
        .sum()
}

/// CPU seconds of one [`calibration_work`] on a core of the reference box
/// (Intel Xeon, KVM) running at full speed.
pub const REFERENCE_CALIBRATION_S: f64 = 62e-6;

/// CPU seconds of one [`calibration_work`] on the calling thread now.
pub fn calibration_s() -> f64 {
    cpu_timed(|| std::hint::black_box(calibration_work()))
        .0
        .as_secs_f64()
}

/// How many times slower than the reference core this one runs now: the
/// median of `calls` calibrations over [`REFERENCE_CALIBRATION_S`].
pub fn slowdown(calls: usize) -> f64 {
    let secs: Vec<f64> = (0..calls).map(|_| calibration_s()).collect();
    crate::stats::median(&secs) / REFERENCE_CALIBRATION_S
}

/// Pin the calling thread, and every thread it starts afterwards, to the
/// first core it may run on; returns that core. A core's speed on a shared
/// host changes independently of its sibling's, so work and calibration
/// must share one core for the one to correct the other.
pub fn pin_to_one_core() -> Result<usize, String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, the
    // size of the kernel's `cpu_set_t`; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..mask.len() * 64)
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("empty CPU affinity mask")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes holding a
    // mask with one CPU the thread was already allowed to run on.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Set-ups per run; `setup_s` is the median of their CPU times at
/// reference speed.
pub const SETUP_REPS: usize = 11;

/// Calibrations before each set-up.
const SETUP_CALIBRATIONS: usize = 15;

/// Run `set_up` [`SETUP_REPS`] times (dropping each fixture before the
/// next is built); returns the last fixture and every set-up's process CPU
/// seconds, divided by the [`slowdown`] measured just before it.
pub fn set_up_repeatedly<T>(
    mut set_up: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let slow = slowdown(SETUP_CALIBRATIONS);
        let (d, fixture) = cpu_timed(&mut set_up);
        last = Some(fixture?);
        secs.push(d.as_secs_f64() / slow);
    }
    Ok((last.expect("SETUP_REPS is positive"), secs))
}

/// Per-call wall times (seconds) of `calls` invocations of `f`.
pub fn per_call(calls: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    (0..calls)
        .map(|i| {
            let t = Instant::now();
            f(i);
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// Median per-call wall time of `f`, in seconds.
pub fn median_call(calls: usize, f: impl FnMut(usize)) -> f64 {
    crate::stats::median(&per_call(calls, f))
}

/// FNV-1a, for digests and reply fingerprints.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The end-to-end metrics every workload reports: `(name, unit)`. Each
/// workload maps its own operations onto these names (see README.md).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("main_p50_ms", "ms"),
    ("alt_p50_ms", "ms"),
    ("rate_per_s", "1/s"),
];

/// One per-layer metric: name, unit, the end-to-end metric it should move,
/// and where it should not.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
    pub no_change: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    no_change: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        moves,
        no_change,
    }
}

/// Every per-layer metric of the traced run. A workload in which a layer
/// does no work reports it as 0.
#[rustfmt::skip]
pub const LAYERS: &[Layer] = &[
    layer("tensor.backward_ms", "ms", "epoch_s (fit-backtest)", "serve-mix rank_*"),
    layer("tensor.conv1d_causal_ms", "ms", "epoch_s (fit-backtest)", "baseline_epoch_s"),
    layer("tensor.spmm_ms", "ms", "epoch_s, score_p50_ms", "rank_p50_ms"),
    layer("tensor.linear_ms", "ms", "baseline_epoch_s (fit-backtest)", "stream-advance"),
    layer("tensor.rsr_backward_ms", "ms", "baseline_epoch_s (fit-backtest)", "serve-mix"),
    layer("tensor.optim_ms", "ms", "epoch_s (fit-backtest)", "serve-mix"),
    layer("tensor.matmul_us", "us", "epoch_s, score_p50_ms", "rank_p50_ms"),
    layer("tensor.matmul_gflops", "GFLOP/s", "epoch_s, score_p50_ms", "rank_p50_ms"),
    layer("core.train_step_ms", "ms", "epoch_s (fit-backtest)", "serve-mix"),
    layer("core.forward_ms", "ms", "backtest_days_per_s, score_p50_ms, advance_p50_ms", "rank_p50_ms"),
    layer("core.relational_us", "us", "epoch_s (fit-backtest)", "rank_p50_ms"),
    layer("core.temporal_us", "us", "epoch_s (fit-backtest)", "rank_p50_ms"),
    layer("market.generate_s", "s", "setup_s (all)", "every steady-state metric"),
    layer("market.sample_us", "us", "epoch_s, backtest_days_per_s", "stream-advance"),
    layer("market.append_day_us", "us", "advance_p50_ms (stream-advance)", "fit-backtest"),
    layer("market.feature_push_us", "us", "advance_p50_ms (stream-advance)", "fit-backtest"),
    layer("graph.adj_cache_hit_ratio", "ratio", "epoch_s, score_p50_ms", "rank_p50_ms"),
    layer("graph.plane_push_us", "us", "advance_p50_ms", "advance_event_p50_ms"),
    layer("graph.plane_rebuild_ms", "ms", "advance_event_p50_ms", "advance_p50_ms"),
    layer("graph.corr_window_us", "us", "advance_p50_ms (stream-advance)", "fit-backtest"),
    layer("graph.plane_refresh_ratio", "ratio", "advance_p50_ms (stream-advance)", "fit-backtest"),
    layer("eval.day_score_ms", "ms", "backtest_days_per_s (fit-backtest)", "serve-mix"),
    layer("eval.settle_us", "us", "backtest_days_per_s, advance_p50_ms", "serve-mix"),
    layer("http.connect_us", "us", "rank_p50_ms, max_rate_rps", "fit-backtest"),
    layer("http.gap_us", "us", "rank_p50_ms, max_rate_rps", "epoch_s"),
    layer("http.shed_frac", "ratio", "fail_frac, max_rate_rps", "fit-backtest"),
    layer("http.gen_lag_ms", "ms", "none (validity check)", "none"),
    layer("serve.rank_handler_us", "us", "rank_p50_ms (serve-mix)", "score_p50_ms"),
    layer("serve.score_handler_ms", "ms", "score_p50_ms (serve-mix)", "rank_p50_ms"),
    layer("serve.score_parse_ms", "ms", "score_p50_ms (serve-mix)", "rank_p50_ms"),
    layer("serve.score_window_ms", "ms", "score_p50_ms (serve-mix)", "rank_p50_ms"),
    layer("serve.ranked_us", "us", "rank_p50_ms (serve-mix)", "score_p50_ms"),
    layer("serve.registry_get_ns", "ns", "rank_p99_ms (serve-mix)", "fit-backtest"),
    layer("serve.install_checkpoint_ms", "ms", "setup_s, rank_p99_ms, score_p99_ms", "fit-backtest"),
    layer("serve.swaps", "count", "none (work count, must be > 0)", "none"),
    layer("serve.advance_handler_ms", "ms", "advance_p50_ms (stream-advance)", "serve-mix"),
    layer("stream.advance_ms", "ms", "advance_p50_ms (stream-advance)", "fit-backtest"),
    layer("stream.score_ms", "ms", "advance_p50_ms", "advance_event_p50_ms"),
    layer("stream.engine_build_ms", "ms", "setup_s (stream-advance)", "steady-state metrics"),
    layer("stream.refresh_relations_ms", "ms", "advance_event_p50_ms", "advance_p50_ms"),
];

/// One end-to-end value as a workload measured it.
pub struct EndToEnd {
    pub name: &'static str,
    /// The workload-specific name of the same quantity (README.md).
    pub alias: &'static str,
    pub value: f64,
    pub samples: usize,
    /// Free-text detail (the percentile behind a tail, the rate step …).
    pub detail: String,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    pub end_to_end: Vec<EndToEnd>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Operations attempted and failed (a failure is any wrong output).
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Extra human-readable lines (issue-named metrics, sample counts).
    pub notes: Vec<String>,
    /// Determinism digest of the run's outputs, where they are seed-pure.
    pub digest: Option<String>,
}

impl Report {
    pub fn e2e(
        &mut self,
        name: &'static str,
        alias: &'static str,
        value: f64,
        samples: usize,
        detail: String,
    ) {
        self.end_to_end.push(EndToEnd {
            name,
            alias,
            value,
            samples,
            detail,
        });
    }
}

// ------------------------------------------------------------- telemetry

/// Span rows of the current telemetry scope (total and self time).
pub fn spans() -> Vec<rtgcn_telemetry::spantree::SpanAgg> {
    rtgcn_telemetry::spantree::snapshot_current()
}

fn last_segment(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// Summed total time (ns) of every span under `prefix` whose last path
/// segment is one of `names`.
pub fn span_total_ns(
    aggs: &[rtgcn_telemetry::spantree::SpanAgg],
    prefix: &str,
    names: &[&str],
) -> f64 {
    aggs.iter()
        .filter(|a| a.path.starts_with(prefix) && names.contains(&last_segment(&a.path)))
        .map(|a| a.total_ns as f64)
        .sum()
}

/// Self time (ns) of the span at exactly `path` (0 when absent).
pub fn span_self_ns(aggs: &[rtgcn_telemetry::spantree::SpanAgg], path: &str) -> f64 {
    aggs.iter()
        .find(|a| a.path == path)
        .map_or(0.0, |a| a.self_ns as f64)
}

/// Mean (ns) of a telemetry latency histogram and its sample count.
pub fn hist_mean_ns(name: &str) -> (f64, u64) {
    let h = rtgcn_telemetry::histogram(name);
    (h.mean_ns() as f64, h.count())
}

/// `a / (a + b)` of two telemetry counters (0 when both are 0).
pub fn counter_ratio(a: &str, b: &str) -> f64 {
    let (a, b) = (
        rtgcn_telemetry::counter_value(a) as f64,
        rtgcn_telemetry::counter_value(b) as f64,
    );
    if a + b == 0.0 {
        0.0
    } else {
        a / (a + b)
    }
}
