//! `serve-mix`: one RT-GCN (T) checkpoint served from a `Registry` behind
//! the real `telemetry::http` server. Requests arrive open-loop, on a
//! seeded Poisson schedule, at a few fixed offered rates: mostly
//! `GET /rank?k=10`, the rest `POST /score` with a full 16×102×4 window
//! from the dataset. A writer swaps two checkpoint versions in with
//! `Registry::install_entry` every few milliseconds and rebuilds one with
//! `Registry::install_checkpoint` on a slower cadence, so writes land beside
//! the reads. `/rank` is almost all transport; `/score` is a forward pass
//! plus JSON parsing of about 6.5k floats.
//!
//! Two generator threads on loopback (no more than `nproc`), one per
//! request kind, each holding at most one connection, so a slow `/score`
//! never holds up the `/rank` schedule inside the generator.

use crate::common::{
    data_spec, fnv1a, hist_mean_ns, median_call, ms, peak_rss_mb, rtgcn_config, set_up_repeatedly,
    timed, Report, Rng, MARKET,
};
use crate::http::{self, Reply, Service};
use crate::stats::{drive_open_loop, median, quantile, Sent, Summary};
use rtgcn_core::{Checkpoint, RtGcn};
use rtgcn_market::StockDataset;
use rtgcn_serve::servable::checkpoint_rtgcn;
use rtgcn_serve::{ModelEntry, Registry};
use serde::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered total request rates (req/s) of the open-loop steps, lowest first.
pub const RATES: [f64; 4] = [50.0, 200.0, 400.0, 800.0];
/// The step whose latencies are reported as `rank_*` and `score_*`.
const NOMINAL: usize = 1;
/// The step whose `/score` median is reported as `score_load_p50_ms`.
const LOADED: usize = 2;
/// Share of the measuring time given to the nominal step; the other steps
/// split the rest evenly.
const NOMINAL_SHARE: f64 = 0.5;
/// Rounds over all steps; each round starts a fresh server.
const SEGMENTS: usize = 5;
/// Share of requests that are `POST /score`.
const SCORE_SHARE: f64 = 0.1;
/// Latency limit behind `max_rate_rps`: a step passes when its p99 (or the
/// highest percentile its sample supports) over both request kinds stays
/// within it, nothing failed, and the requests at its end were not sent
/// later than this behind schedule (no growing backlog).
pub const LIMIT_MS: f64 = 50.0;
/// A generator whose p99 wake-up lag at the nominal step exceeds this share
/// of its mean inter-arrival time cannot vouch for the load it offered, and
/// the run is invalid. (On a 2-core box the scheduler alone delays wake-ups
/// by a few ms while `/score` forward passes hold the cores.)
const GEN_LAG_SHARE: f64 = 2.0;
/// Distinct `/score` windows drawn from the test split.
const WINDOWS: usize = 8;
const TOP_K: usize = 10;
/// Writer cadence: an `install_entry` swap every `SWAP_EVERY`, and every
/// `RELOAD_EVERY`-th write a full `install_checkpoint` instead.
const SWAP_EVERY: Duration = Duration::from_millis(5);
const RELOAD_EVERY: u64 = 300;

struct Version {
    ckpt: Checkpoint,
    entry: Arc<ModelEntry>,
    ranked: Vec<(usize, f32)>,
    /// Expected `/score` reply per window, from an in-process `score_window`.
    scores: Vec<Vec<f32>>,
}

struct Fixture {
    service: Service,
    versions: Vec<Version>,
    windows: Vec<Vec<f32>>,
    score_bodies: Vec<String>,
    generate: Duration,
}

fn set_up(seed: u64) -> Result<Fixture, String> {
    let data = data_spec(seed);
    let (generate, ds) = timed(|| StockDataset::generate(data.spec.clone(), data.seed));
    let relations = ds.relations(data.relation_kind);
    let mut rng = Rng::new(seed);
    let cfg = rtgcn_config(0);
    let (t, d) = (cfg.t_steps, cfg.n_features);
    let registry = Arc::new(Registry::new());
    let test_days = ds.test_end_days();
    let windows: Vec<Vec<f32>> = (0..WINDOWS)
        .map(|_| {
            ds.sample(test_days[rng.below(test_days.len())], t, d)
                .x
                .data()
                .to_vec()
        })
        .collect();
    let mut versions = Vec::new();
    for _ in 0..2 {
        let model = RtGcn::new(cfg.clone(), &relations, rng.next_u64());
        let ckpt = checkpoint_rtgcn(&model, &data).map_err(|e| e.to_string())?;
        let entry = registry
            .install_checkpoint(&ckpt)
            .map_err(|e| e.to_string())?;
        versions.push(Version {
            ranked: entry.ranked(TOP_K),
            ckpt,
            entry,
            scores: Vec::new(),
        });
    }
    if versions[0].entry.version == versions[1].entry.version {
        return Err("the two checkpoint versions are identical".into());
    }
    registry.install_entry(Arc::clone(&versions[0].entry));
    let score_bodies = windows
        .iter()
        .map(|w| {
            // f32 → f64 is exact and `{}` prints the shortest f64 that
            // round-trips, so the server parses back the very same f32.
            let vals: Vec<String> = w.iter().map(|&v| format!("{}", v as f64)).collect();
            format!(
                "{{\"market\":\"{MARKET}\",\"window\":[{}]}}",
                vals.join(",")
            )
        })
        .collect::<Vec<_>>();
    let service = Service::start(registry)?;
    // Warm-up: both routes answer once before anything is timed.
    http::ok_body(http::send(service.addr, &rank_request()))
        .map_err(|e| format!("warm-up /rank: {e}"))?;
    http::ok_body(http::send(
        service.addr,
        &http::post_request("/score", &score_bodies[0]),
    ))
    .map_err(|e| format!("warm-up /score: {e}"))?;
    Ok(Fixture {
        service,
        versions,
        windows,
        score_bodies,
        generate,
    })
}

/// The reference `/score` replies: an in-process `score_window` per version
/// and window (the benchmark's oracle, kept out of `setup_s`).
fn expect_scores(f: &mut Fixture) -> Result<(), String> {
    for v in &mut f.versions {
        v.scores = f
            .windows
            .iter()
            .map(|w| v.entry.score_window(w).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
    }
    Ok(())
}

fn rank_request() -> Vec<u8> {
    http::get_request(&format!("/rank?market={MARKET}&k={TOP_K}"))
}

/// The version a reply names, as an index into `versions`.
fn version_of(v: &Value, versions: &[Version]) -> Result<usize, String> {
    let tag = v
        .get("version")
        .and_then(Value::as_str)
        .ok_or("reply has no version")?;
    versions
        .iter()
        .position(|x| x.entry.version == tag)
        .ok_or_else(|| format!("unknown version {tag}"))
}

fn f32_of(v: &Value) -> Option<f32> {
    v.as_f64().map(|x| x as f32)
}

/// A `/rank` body must name one installed version and equal that version's
/// `ModelEntry::ranked(10)` bit for bit.
fn check_rank(body: &str, versions: &[Version]) -> Result<(), String> {
    let v: Value = serde_json::from_str(body).map_err(|e| format!("/rank body: {e:?}"))?;
    let want = &versions[version_of(&v, versions)?].ranked;
    let got: Vec<(usize, f32)> = v
        .get("ranked")
        .and_then(Value::as_seq)
        .ok_or("/rank body has no ranked list")?
        .iter()
        .map(|r| {
            let stock = r.get("stock").and_then(Value::as_u64).map(|s| s as usize);
            Some((stock?, r.get("score").and_then(f32_of)?))
        })
        .collect::<Option<_>>()
        .ok_or("malformed ranked entry")?;
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.0 == w.0 && g.1.to_bits() == w.1.to_bits());
    same.then_some(())
        .ok_or_else(|| "/rank differs from ModelEntry::ranked(10)".into())
}

/// A `/score` body must equal an in-process `score_window` of the same
/// window on the version it names, bit for bit.
fn check_score(body: &str, window: usize, versions: &[Version]) -> Result<(), String> {
    let v: Value = serde_json::from_str(body).map_err(|e| format!("/score body: {e:?}"))?;
    let want = &versions[version_of(&v, versions)?].scores[window];
    let got: Vec<f32> = v
        .get("scores")
        .and_then(Value::as_seq)
        .ok_or("/score body has no scores")?
        .iter()
        .map(f32_of)
        .collect::<Option<_>>()
        .ok_or("non-numeric score")?;
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.to_bits() == w.to_bits());
    same.then_some(())
        .ok_or_else(|| "/score differs from ModelEntry::score_window".into())
}

/// Poisson arrivals at `rate` over `secs`.
fn poisson(rng: &mut Rng, rate: f64, secs: f64) -> Vec<Duration> {
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= secs {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// A reply as the generator keeps it: the body is fingerprinted on the
/// spot and only distinct bodies are stored, so the benchmark's own memory
/// stays out of `peak_rss_mb`.
struct Answer {
    status: Result<u16, String>,
    /// `(score window or None for /rank, body fingerprint)`.
    key: (Option<usize>, u64),
    connect: Duration,
}

type Bodies = BTreeMap<(Option<usize>, u64), String>;

fn answer(reply: Result<Reply, String>, window: Option<usize>, seen: &mut Bodies) -> Answer {
    match reply {
        Ok(r) => {
            let key = (window, fnv1a(r.body.bytes()));
            seen.entry(key).or_insert(r.body);
            Answer {
                status: Ok(r.status),
                key,
                connect: r.connect,
            }
        }
        Err(e) => Answer {
            status: Err(e),
            key: (window, 0),
            connect: Duration::ZERO,
        },
    }
}

/// One request of the load.
struct Req {
    sent: Sent,
    answer: Answer,
    /// Answered 200 with a correct body (set after the load).
    ok: bool,
}

/// One generator thread's requests in one step.
struct Stream {
    mean_gap_ms: f64,
    reqs: Vec<Req>,
    /// How far behind schedule the last tenth of a segment's requests were
    /// sent, worst over the segments.
    end_backlog_ms: f64,
}

impl Stream {
    fn add_segment(&mut self, sent: Vec<(Sent, Answer)>) {
        let tail = (sent.len() / 10).max(1);
        let backlog = sent
            .iter()
            .rev()
            .take(tail)
            .map(|(s, _)| ms(s.send_delay))
            .fold(0.0, f64::max);
        self.end_backlog_ms = self.end_backlog_ms.max(backlog);
        self.reqs.extend(sent.into_iter().map(|(sent, answer)| Req {
            sent,
            answer,
            ok: false,
        }));
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.reqs.iter().map(|q| ms(q.sent.latency)).collect()
    }

    /// p99 generator lag (ms) of the on-time sends, and whether it stays
    /// within the allowed share of the inter-arrival time.
    fn gen_lag(&self) -> (f64, bool) {
        let mut lags: Vec<f64> = self
            .reqs
            .iter()
            .filter_map(|q| q.sent.gen_lag.map(ms))
            .collect();
        if lags.is_empty() {
            return (0.0, true);
        }
        lags.sort_by(f64::total_cmp);
        let p99 = quantile(&lags, 0.99);
        (p99, p99 <= GEN_LAG_SHARE * self.mean_gap_ms)
    }
}

struct Step {
    rate: f64,
    rank: Stream,
    score: Stream,
    /// Summed over the segments: from each segment's start to its last reply.
    wall: Duration,
}

impl Step {
    fn new(rate: f64) -> Step {
        let stream = |share: f64| Stream {
            mean_gap_ms: 1e3 / (rate * share),
            reqs: Vec::new(),
            end_backlog_ms: 0.0,
        };
        Step {
            rate,
            rank: stream(1.0 - SCORE_SHARE),
            score: stream(SCORE_SHARE),
            wall: Duration::ZERO,
        }
    }

    fn requests(&self) -> impl Iterator<Item = &Req> {
        self.rank.reqs.iter().chain(&self.score.reqs)
    }

    fn failures(&self) -> usize {
        self.requests().filter(|q| !q.ok).count()
    }

    fn achieved(&self) -> f64 {
        self.requests().filter(|q| q.ok).count() as f64 / self.wall.as_secs_f64()
    }

    /// Whether the step meets the latency limit: see [`LIMIT_MS`].
    fn verdict(&self) -> (bool, String) {
        let all: Vec<f64> = self.requests().map(|q| ms(q.sent.latency)).collect();
        let tail = Summary::of(&all);
        let tail_ms = tail.tail.map_or(f64::INFINITY, |t| t.1);
        let backlog_ms = self.rank.end_backlog_ms.max(self.score.end_backlog_ms);
        let lag_ms = self.rank.gen_lag().0.max(self.score.gen_lag().0);
        let failures = self.failures();
        let pass = failures == 0 && tail_ms <= LIMIT_MS && backlog_ms <= LIMIT_MS;
        let detail = format!(
            "offered {:>4.0} req/s: achieved {:>6.1} req/s, /rank p50 {:.3} ms, /score p50 {:.3} ms, {} {:.3} ms \
             over {} requests, end backlog {:.3} ms, {failures} failed, generator lag p99 {lag_ms:.3} ms -> {}",
            self.rate,
            self.achieved(),
            Summary::of(&self.rank.latencies_ms()).p50,
            Summary::of(&self.score.latencies_ms()).p50,
            tail.tail_label(),
            tail_ms,
            all.len(),
            backlog_ms,
            if pass { "meets" } else { "misses" }
        );
        (pass, detail)
    }
}

struct Writer {
    swaps: u64,
    install_ms: Vec<f64>,
    errors: Vec<String>,
}

fn write_loop(registry: &Registry, versions: &[Version], stop: &AtomicBool) -> Writer {
    let mut w = Writer {
        swaps: 0,
        install_ms: Vec::new(),
        errors: Vec::new(),
    };
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(SWAP_EVERY);
        w.swaps += 1;
        let v = &versions[(w.swaps % 2) as usize];
        // The first write is a full install, so every run has one.
        if w.swaps % RELOAD_EVERY == 1 {
            let (d, installed) = timed(|| registry.install_checkpoint(&v.ckpt));
            w.install_ms.push(ms(d));
            if let Err(e) = installed {
                w.errors.push(format!("install_checkpoint: {e}"));
            }
        } else {
            registry.install_entry(Arc::clone(&v.entry));
        }
    }
    w
}

/// One segment's arrivals: `/rank` dues, `/score` dues and their windows.
struct Schedule {
    rank: Vec<Duration>,
    score: Vec<Duration>,
    windows: Vec<usize>,
}

/// Run the rate steps in rounds, each round on a freshly started server
/// with fresh generator threads, so every step samples the whole run and a
/// slow stretch of the shared host lands on all steps alike.
fn load(
    registry: &Arc<Registry>,
    versions: &[Version],
    score_bodies: &[String],
    plan: &[Vec<Schedule>],
) -> Result<(Vec<Step>, Writer, Bodies), String> {
    let rank_req = &rank_request();
    let score_reqs: &[Vec<u8>] = &score_bodies
        .iter()
        .map(|b| http::post_request("/score", b))
        .collect::<Vec<_>>();
    let stop = AtomicBool::new(false);
    let mut bodies = Bodies::new();
    let mut steps: Vec<Step> = RATES.iter().map(|&r| Step::new(r)).collect();
    let writer = std::thread::scope(|s| -> Result<Writer, String> {
        let writer = s.spawn(|| write_loop(registry, versions, &stop));
        let mut run_rounds = || -> Result<(), String> {
            for round in plan {
                let service = Service::start(Arc::clone(registry))?;
                let addr = service.addr;
                for (step, sched) in steps.iter_mut().zip(round) {
                    let start = Instant::now();
                    let rank = s.spawn(move || {
                        let mut seen = Bodies::new();
                        let sent = drive_open_loop(start, &sched.rank, |_| {
                            answer(http::send(addr, rank_req), None, &mut seen)
                        });
                        (sent, seen)
                    });
                    let score = s.spawn(move || {
                        let mut seen = Bodies::new();
                        let sent = drive_open_loop(start, &sched.score, |i| {
                            let w = sched.windows[i];
                            answer(http::send(addr, &score_reqs[w]), Some(w), &mut seen)
                        });
                        (sent, seen)
                    });
                    let (rank, seen_rank) = rank.join().expect("rank generator panicked");
                    let (score, seen_score) = score.join().expect("score generator panicked");
                    step.wall += start.elapsed();
                    step.rank.add_segment(rank);
                    step.score.add_segment(score);
                    bodies.extend(seen_rank);
                    bodies.extend(seen_score);
                }
            }
            Ok(())
        };
        let res = run_rounds();
        stop.store(true, Ordering::SeqCst);
        let writer = writer.join().expect("writer panicked");
        res.map(|()| writer)
    })?;
    Ok((steps, writer, bodies))
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Report {
    let mut r = Report::default();
    let mut gen_s = Vec::new();
    let set_up = set_up_repeatedly(|| {
        let f = set_up(seed)?;
        gen_s.push(f.generate.as_secs_f64());
        Ok(f)
    });
    let (mut f, setup_s) = match set_up {
        Ok(done) => done,
        Err(e) => {
            r.errors.push(format!("set-up: {e}"));
            return r;
        }
    };
    if let Err(e) = expect_scores(&mut f) {
        r.errors.push(format!("reference scores: {e}"));
        return r;
    }
    rtgcn_telemetry::reset();

    // The open-loop schedule, drawn from the seed before anything runs.
    let mut rng = Rng::new(seed ^ 0x7365_7276);
    let plan: Vec<Vec<Schedule>> = (0..SEGMENTS)
        .map(|_| {
            RATES
                .iter()
                .enumerate()
                .map(|(i, &rate)| {
                    let share = if i == NOMINAL {
                        NOMINAL_SHARE
                    } else {
                        (1.0 - NOMINAL_SHARE) / (RATES.len() - 1) as f64
                    };
                    let secs = share * seconds as f64 / SEGMENTS as f64;
                    let rank = poisson(&mut rng, rate * (1.0 - SCORE_SHARE), secs);
                    let score = poisson(&mut rng, rate * SCORE_SHARE, secs);
                    let windows = score.iter().map(|_| rng.below(WINDOWS)).collect();
                    Schedule {
                        rank,
                        score,
                        windows,
                    }
                })
                .collect()
        })
        .collect();

    let registry = Arc::clone(&f.service.registry);
    let (mut steps, writer, bodies) = match load(&registry, &f.versions, &f.score_bodies, &plan) {
        Ok(done) => done,
        Err(e) => {
            r.errors.push(e);
            return r;
        }
    };
    let rss = peak_rss_mb();
    let rank_handler_ns = hist_mean_ns("serve.rank_ns").0;
    let score_handler_ns = hist_mean_ns("serve.score_ns").0;

    // Correctness of every distinct reply body, checked after the load so
    // parsing stays off the timed path.
    let verdicts: BTreeMap<_, Result<(), String>> = bodies
        .iter()
        .map(|(&(window, h), body)| {
            let v = match window {
                Some(w) => check_score(body, w, &f.versions),
                None => check_rank(body, &f.versions),
            };
            ((window, h), v)
        })
        .collect();
    let mut first_errors: Vec<String> = Vec::new();
    let mut shed = 0u64;
    for q in steps
        .iter_mut()
        .flat_map(|s| s.rank.reqs.iter_mut().chain(s.score.reqs.iter_mut()))
    {
        let res = match &q.answer.status {
            Ok(200) => verdicts
                .get(&q.answer.key)
                .cloned()
                .unwrap_or_else(|| Err("reply body lost".into())),
            Ok(status) => {
                shed += (*status == 503) as u64;
                Err(format!("status {status}"))
            }
            Err(e) => Err(e.clone()),
        };
        q.ok = res.is_ok();
        if let Err(e) = res {
            if first_errors.len() < 5 {
                first_errors.push(e);
            }
        }
    }
    let attempted: usize = steps
        .iter()
        .map(|s| s.rank.reqs.len() + s.score.reqs.len())
        .sum();
    let failed: usize = steps.iter().map(Step::failures).sum();
    r.attempted = attempted as u64;
    r.failed = failed as u64;
    // A failure fails its step (and `max_rate_rps` with it); a failure at
    // the nominal step makes the run incorrect.
    if steps[NOMINAL].failures() > 0 || !writer.errors.is_empty() {
        r.errors.extend(first_errors);
        r.errors.extend(writer.errors.iter().cloned());
    }
    if writer.swaps == 0 {
        r.errors.push("no hot-swap happened during the load".into());
    }

    let nominal = &steps[NOMINAL];
    let rank = Summary::of(&nominal.rank.latencies_ms());
    let score = Summary::of(&nominal.score.latencies_ms());
    let (lag_rank, lag_rank_ok) = nominal.rank.gen_lag();
    let (lag_score, lag_score_ok) = nominal.score.gen_lag();
    if !(lag_rank_ok && lag_score_ok) {
        r.errors.push(format!(
            "invalid run: generator lag p99 {lag_rank:.3} / {lag_score:.3} ms exceeds {GEN_LAG_SHARE} of the inter-arrival time"
        ));
    }
    let mut max_rate = None;
    for step in &steps {
        let (pass, detail) = step.verdict();
        r.notes.push(detail);
        if pass {
            max_rate = Some(step.achieved());
        }
    }
    let max_rate = max_rate.unwrap_or_else(|| {
        r.errors
            .push(format!("no rate step met the {LIMIT_MS} ms limit"));
        f64::NAN
    });

    r.e2e(
        "setup_s",
        "setup_s",
        median(&setup_s),
        setup_s.len(),
        "dataset, 2 checkpoints, registry, server, warm-up".into(),
    );
    match rss {
        Ok(mb) => r.e2e(
            "peak_rss_mb",
            "peak_rss_mb",
            mb,
            1,
            "VmHWM after the load".into(),
        ),
        Err(e) => r.errors.push(e),
    }
    // The `/rank` latencies are a few hundred µs of connect, thread spawn
    // and wake-ups, and their run-to-run spread on a shared 2-vCPU VM
    // reaches the largest bound a metric may carry, so they are reported,
    // not gated (README.md).
    let loaded = Summary::of(&steps[LOADED].score.latencies_ms());
    let tail = |s: &Summary| {
        s.tail
            .map_or("-".to_string(), |(q, v)| format!("{v:.6} (q {q})"))
    };
    r.e2e(
        "main_p50_ms",
        "score_p50_ms",
        score.p50,
        score.n,
        format!("/score at {} req/s offered", RATES[NOMINAL]),
    );
    r.e2e(
        "alt_p50_ms",
        "score_load_p50_ms",
        loaded.p50,
        loaded.n,
        format!("/score at {} req/s offered", RATES[LOADED]),
    );
    r.e2e(
        "rate_per_s",
        "max_rate_rps",
        max_rate,
        steps.len(),
        format!("achieved rate of the highest step within {LIMIT_MS} ms"),
    );
    r.notes.push(format!(
        "at {} req/s, reported, not gated: rank_p50_ms {:.6} and rank_p99_ms {} over {} /rank; score_p99_ms {} over {} /score",
        RATES[NOMINAL],
        rank.p50,
        tail(&rank),
        rank.n,
        tail(&score),
        score.n
    ));
    r.notes.push(format!(
        "fail_frac {:.6} ({failed} of {attempted}); {} hot-swaps, {} checkpoint installs",
        failed as f64 / attempted as f64,
        writer.swaps,
        writer.install_ms.len()
    ));

    if traced {
        let connects: Vec<f64> = steps
            .iter()
            .flat_map(Step::requests)
            .filter(|q| q.answer.status.is_ok())
            .map(|q| q.answer.connect.as_secs_f64() * 1e6)
            .collect();
        let l = &mut r.layers;
        l.insert("http.connect_us", median(&connects));
        l.insert("http.gap_us", rank.p50 * 1e3 - rank_handler_ns / 1e3);
        l.insert("http.shed_frac", shed as f64 / attempted as f64);
        l.insert("http.gen_lag_ms", lag_rank.max(lag_score));
        l.insert("serve.rank_handler_us", rank_handler_ns / 1e3);
        l.insert("serve.score_handler_ms", score_handler_ns / 1e6);
        l.insert("serve.install_checkpoint_ms", median(&writer.install_ms));
        l.insert("serve.swaps", writer.swaps as f64);
        l.insert("market.generate_s", median(&gen_s));
        probe_layers(&mut r, &f);
        // The tensor and core layers behind `/score`, and the training
        // kernels, attributed on a cut-down fit-backtest.
        let fit = crate::fit_backtest::run(seed, true, &crate::fit_backtest::PROBE);
        r.errors.extend(fit.errors);
        for (name, v) in fit.layers {
            r.layers.entry(name).or_insert(v);
        }
    }
    r
}

fn probe_layers(r: &mut Report, f: &Fixture) {
    let entry = &f.versions[0].entry;
    let body = &f.score_bodies[0];
    let parse_s = median_call(20, |_| {
        drop(std::hint::black_box(serde_json::from_str::<Value>(body)))
    });
    r.layers.insert("serve.score_parse_ms", parse_s * 1e3);
    let window_s = median_call(20, |_| {
        drop(std::hint::black_box(entry.score_window(&f.windows[0])))
    });
    r.layers.insert("serve.score_window_ms", window_s * 1e3);
    let ranked_s = median_call(2000, |_| drop(std::hint::black_box(entry.ranked(TOP_K))));
    r.layers.insert("serve.ranked_us", ranked_s * 1e6);
    // `Registry::get` while another thread keeps swapping entries in.
    let registry = &f.service.registry;
    let stop = AtomicBool::new(false);
    let get_ns = std::thread::scope(|s| {
        s.spawn(|| {
            let mut i = 0;
            while !stop.load(Ordering::SeqCst) {
                registry.install_entry(Arc::clone(&f.versions[i % 2].entry));
                i += 1;
            }
        });
        let per_batch = median_call(400, |_| {
            for _ in 0..100 {
                drop(std::hint::black_box(registry.get(MARKET)));
            }
        });
        stop.store(true, Ordering::SeqCst);
        per_batch / 100.0 * 1e9
    });
    r.layers.insert("serve.registry_get_ns", get_ns);
}
