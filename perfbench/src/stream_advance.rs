//! `stream-advance`: one client in a closed loop (a daily feed that waits
//! for each reply) POSTs `/advance {"days":1}` on the time-sensitive
//! RT-GCN checkpoint for a fixed number of days. Every fiftieth day
//! carries a wiki-edge add or drop drawn from the seed; refits stay off
//! (the program default). Plain days exercise `append_day`,
//! `FeatureStream`, the one-plane `TimePlaneCache::push_day`, streamed
//! scoring and lagged settlement; event days add the O(days·E·d)
//! `set_edges` rebuild and `refresh_relations`.
//!
//! Correctness: after the loop, a side `StreamEngine` built from the same
//! checkpoint replays the same days and events in process; every
//! `/advance` reply must match it bit for bit, and `verify_parity()` must
//! pass on it at the final day.

use crate::common::{
    calibration_s, cpu_timed, data_spec, fnv1a, hist_mean_ns, median_call, ms, peak_rss_mb,
    pin_to_one_core, rtgcn_config, set_up_repeatedly, timed, Report, Rng, MARKET,
    REFERENCE_CALIBRATION_S,
};
use crate::http::{self, Service};
use crate::stats::{median, Summary};
use rtgcn_core::{Checkpoint, DataSpec, RtGcn};
use rtgcn_graph::TimePlaneCache;
use rtgcn_market::{DayEvent, FeatureStream, StockDataset, WikiEdge};
use rtgcn_serve::servable::{build_model, checkpoint_rtgcn};
use rtgcn_serve::Registry;
use rtgcn_stream::{StreamConfig, StreamEngine};
use serde::Value;
use std::sync::Arc;
use std::time::Duration;

/// Every `EVENT_EVERY`-th day carries an edge event.
const EVENT_EVERY: u64 = 50;
/// Days advanced per second of `--seconds`: a fixed amount of work sized to
/// take about that long on the reference box (~9 ms per day), so the event
/// schedule, the history length and every reply are a function of the seed.
const DAYS_PER_SECOND: u64 = 100;
/// Days per calibration block: a core's speed holds for seconds at a time,
/// and 25 days take a fraction of a second.
const CAL_BLOCK: usize = 25;

struct Fixture {
    service: Service,
    ds: StockDataset,
    data: DataSpec,
    ckpt: Checkpoint,
    /// Reply to the lazy first `/advance` that built the server's engine.
    first_reply: String,
    generate: Duration,
}

fn advance_body(event: Option<&DayEvent>) -> String {
    let mut body = format!("{{\"market\":\"{MARKET}\",\"days\":1");
    if let Some(ev) = event {
        for e in &ev.add {
            // f32 → f64 is exact, and `{}` round-trips, so the server
            // parses back the very same f32 fields.
            body.push_str(&format!(
                ",\"add\":[{{\"leader\":{},\"follower\":{},\"types\":[{}],\"strength\":{},\"period\":{},\"phase\":{},\"duty\":{}}}]",
                e.leader, e.follower, e.types[0], e.strength as f64, e.period, e.phase, e.duty as f64
            ));
        }
        for (a, b) in &ev.drop {
            body.push_str(&format!(",\"drop\":[[{a},{b}]]"));
        }
    }
    body.push('}');
    body
}

fn set_up(seed: u64) -> Result<Fixture, String> {
    let data = data_spec(seed);
    let (generate, ds) = timed(|| StockDataset::generate(data.spec.clone(), data.seed));
    let model = RtGcn::new(
        rtgcn_config(0),
        &ds.relations(data.relation_kind),
        Rng::new(seed).next_u64(),
    );
    let ckpt = checkpoint_rtgcn(&model, &data).map_err(|e| e.to_string())?;
    let registry = Arc::new(Registry::new());
    registry
        .install_checkpoint(&ckpt)
        .map_err(|e| e.to_string())?;
    let service = Service::start(registry)?;
    // The first advance builds the server's stream engine lazily.
    let first_reply = http::ok_body(http::send(
        service.addr,
        &http::post_request("/advance", &advance_body(None)),
    ))
    .map_err(|e| format!("first /advance: {e}"))?;
    Ok(Fixture {
        service,
        ds,
        data,
        ckpt,
        first_reply,
        generate,
    })
}

/// `count` seeded edge events: even ones add a wiki edge between a pair
/// with no wiki relation at the start (each pair used once), odd ones drop
/// the pair the previous event added. Every seed gets the same mix, and
/// every event changes the relation graph.
fn events(ds: &StockDataset, rng: &mut Rng, count: u64) -> Vec<DayEvent> {
    let n = ds.n_stocks();
    let k = ds.wiki.relations.num_types();
    let mut used = Vec::new();
    let mut out: Vec<DayEvent> = Vec::new();
    while (out.len() as u64) < count {
        if let Some(added) = out.last().filter(|_| out.len() % 2 == 1).map(|e| &e.add[0]) {
            let pair = (added.leader, added.follower);
            out.push(DayEvent {
                add: Vec::new(),
                drop: vec![pair],
            });
            continue;
        }
        let (a, b) = (rng.below(n), rng.below(n));
        let pair = (a.min(b), a.max(b));
        if a == b || ds.wiki.relations.related(a, b) || used.contains(&pair) {
            continue;
        }
        used.push(pair);
        out.push(DayEvent {
            add: vec![WikiEdge {
                leader: pair.0,
                follower: pair.1,
                types: vec![rng.below(k)],
                strength: 0.1 + 0.3 * rng.unit() as f32,
                period: 5 + rng.below(20),
                phase: rng.below(5),
                duty: 0.5,
            }],
            drop: Vec::new(),
        });
    }
    out
}

/// What the client saw for one advanced day.
struct Day {
    event: Option<DayEvent>,
    latency: Duration,
    /// Process CPU time (client and server threads) the day cost.
    cpu: Duration,
    /// CPU seconds of the calibration run just before the request.
    calibration_s: f64,
    reply: Result<String, String>,
}

/// Compare one `/advance` reply with the side engine's outcome.
fn check_reply(body: &str, base: &str, out: &rtgcn_stream::DayOutcome) -> Result<(), String> {
    let v: Value = serde_json::from_str(body).map_err(|e| format!("/advance body: {e:?}"))?;
    let end_day = v.get("end_day").and_then(Value::as_u64);
    let version = v.get("version").and_then(Value::as_str);
    let mrr = v.get("mrr").and_then(Value::as_f64);
    let cum_irr = v.get("cum_irr").and_then(Value::as_f64);
    let refits = v.get("refits").and_then(Value::as_u64);
    let want_version = format!("{base}+d{}", out.day);
    let same = end_day == Some(out.day as u64)
        && version == Some(want_version.as_str())
        && mrr.map(f64::to_bits) == out.mrr.map(f64::to_bits)
        && cum_irr.map(f64::to_bits) == Some(out.cum_irr.to_bits())
        && refits == Some(0);
    same.then_some(()).ok_or_else(|| {
        format!(
            "/advance day {} differs from the side engine: {body} vs {out:?}",
            out.day
        )
    })
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Report {
    let mut r = Report::default();
    // The closed loop is serial, so one core serves it; the calibrations
    // then run on the core that does the work.
    match pin_to_one_core() {
        Ok(cpu) => r
            .notes
            .push(format!("client and server threads pinned to core {cpu}")),
        Err(e) => {
            r.errors.push(format!("pinning: {e}"));
            return r;
        }
    }
    let mut gen_s = Vec::new();
    let set_up = set_up_repeatedly(|| {
        let f = set_up(seed)?;
        gen_s.push(f.generate.as_secs_f64());
        Ok(f)
    });
    let (f, setup_s) = match set_up {
        Ok(done) => done,
        Err(e) => {
            r.errors.push(format!("set-up: {e}"));
            return r;
        }
    };
    rtgcn_telemetry::reset();

    let mut rng = Rng::new(seed ^ 0x7374_7265);
    let total = seconds * DAYS_PER_SECOND;
    let mut events = events(&f.ds, &mut rng, total / EVENT_EVERY).into_iter();
    let addr = f.service.addr;
    let mut days = Vec::new();
    for day in 1..=total {
        // Event days fall on a fixed cadence, so the history length an
        // event rebuilds over does not depend on the seed; the seed picks
        // the events themselves.
        let event = if day % EVENT_EVERY == 0 {
            events.next()
        } else {
            None
        };
        let req = http::post_request("/advance", &advance_body(event.as_ref()));
        let calibration_s = calibration_s();
        let (cpu, (latency, reply)) = cpu_timed(|| timed(|| http::ok_body(http::send(addr, &req))));
        days.push(Day {
            event,
            latency,
            cpu,
            calibration_s,
            reply,
        });
    }
    match peak_rss_mb() {
        Ok(mb) => r.e2e(
            "peak_rss_mb",
            "peak_rss_mb",
            mb,
            1,
            "VmHWM before the replay".into(),
        ),
        Err(e) => r.errors.push(e),
    }
    let handler_ns = hist_mean_ns("serve.advance_ns").0;
    let refresh_ratio =
        crate::common::counter_ratio("stream.plane.refresh", "stream.plane.rebuild");

    // Replay on a side engine built from the same checkpoint.
    let side = build_model(&f.ckpt, &f.ds, None).map_err(|e| e.to_string());
    let side = match side {
        Ok(built) => built,
        Err(e) => {
            r.errors.push(format!("side model: {e}"));
            return r;
        }
    };
    let cfg = StreamConfig::new(side.t_steps, side.n_features, f.data.relation_kind);
    let model: rtgcn_stream::SharedModel = Arc::new(parking_lot::Mutex::new(side.model));
    let (build, mut engine) = timed(|| StreamEngine::new(f.ds.clone(), model, cfg));
    let base = f.ckpt.content_id();
    let mut replay_ms = Vec::new();
    let mut score_ms = Vec::new();
    let first = engine.advance(None);
    r.attempted += 1;
    if let Err(e) = check_reply(&f.first_reply, &base, &first) {
        r.failed += 1;
        r.errors.push(e);
    }
    for day in &days {
        let (d, out) = timed(|| engine.advance(day.event.clone()));
        if day.event.is_none() {
            replay_ms.push(ms(d));
            score_ms.push(out.score_ns as f64 / 1e6);
        }
        r.attempted += 1;
        let checked = day
            .reply
            .as_deref()
            .map_err(|e| e.clone())
            .and_then(|b| check_reply(b, &base, &out));
        if let Err(e) = checked {
            r.failed += 1;
            if r.errors.len() < 5 {
                r.errors.push(e);
            }
        }
        if day.event.is_some() && !out.relations_changed {
            r.errors.push(format!(
                "the event on day {} did not change the relation graph",
                out.day
            ));
        }
    }
    if let Err(e) = engine.verify_parity() {
        r.errors.push(format!(
            "verify_parity at day {}: {e}",
            engine.current_day()
        ));
    }
    let replies = days
        .iter()
        .flat_map(|d| d.reply.as_deref().unwrap_or("").bytes());
    r.digest = Some(format!(
        "{:016x}",
        fnv1a(f.first_reply.bytes().chain(replies))
    ));

    // The gated figures are each day's process CPU time (client and
    // server) divided by the slowdown of its core, the median calibration
    // over the day's block of `CAL_BLOCK` days: milliseconds on a reference
    // core at full speed. Client-observed wall latency and raw CPU time are
    // printed beside them.
    let ref_ms: Vec<f64> = days
        .chunks(CAL_BLOCK)
        .flat_map(|block| {
            let cal: Vec<f64> = block.iter().map(|d| d.calibration_s).collect();
            let slow = median(&cal) / REFERENCE_CALIBRATION_S;
            block.iter().map(move |d| ms(d.cpu) / slow)
        })
        .collect();
    let summary = |event_day: bool, of: &dyn Fn(usize) -> f64| {
        let v: Vec<f64> = (0..days.len())
            .filter(|&i| days[i].event.is_some() == event_day)
            .map(of)
            .collect();
        Summary::of(&v)
    };
    let plain = summary(false, &|i| ref_ms[i]);
    let event = summary(true, &|i| ref_ms[i]);
    let plain_cpu = summary(false, &|i| ms(days[i].cpu));
    let plain_wall = summary(false, &|i| ms(days[i].latency));
    let event_wall = summary(true, &|i| ms(days[i].latency));
    if event.n == 0 {
        r.errors
            .push("no event day in the run; lengthen --seconds".into());
    }
    if std::env::var("PERFBENCH_DBG").is_ok() {
        for kind in [true, false] {
            let mut v: Vec<(f64, f64, f64)> = (0..days.len())
                .filter(|&i| days[i].event.as_ref().is_some_and(|e| e.add.is_empty() != kind))
                .map(|i| (ref_ms[i], ref_ms.get(i + 1).copied().unwrap_or(0.0), ms(days[i].latency)))
                .collect();
            v.sort_by(|a, b| a.0.total_cmp(&b.0));
            let s: Vec<String> = v.iter().map(|x| format!("{:.1}/{:.1}/{:.1}", x.0, x.1, x.2)).collect();
            println!("DBG add={kind}: {}", s.join(" "));
        }
    }
    r.e2e(
        "setup_s",
        "setup_s",
        median(&setup_s),
        setup_s.len(),
        "CPU time at reference speed: dataset, checkpoint install, server, engine build".into(),
    );
    r.e2e(
        "main_p50_ms",
        "advance_p50_ms",
        plain.p50,
        plain.n,
        "CPU time per /advance at reference speed, days without an event".into(),
    );
    r.e2e(
        "alt_p50_ms",
        "advance_event_p50_ms",
        event.p50,
        event.n,
        "CPU time per /advance at reference speed, edge-event days".into(),
    );
    let cal: Vec<f64> = days.iter().map(|d| d.calibration_s).collect();
    r.notes.push(format!(
        "reported, not gated: client-observed wall latency p50 {:.6} ms over {} plain days, \
         {:.6} ms over {} event days; raw CPU time p50 {:.6} ms on plain days; \
         median core slowdown {:.4}",
        plain_wall.p50,
        plain_wall.n,
        event_wall.p50,
        event_wall.n,
        plain_cpu.p50,
        median(&cal) / REFERENCE_CALIBRATION_S
    ));
    for (name, s) in [("advance", &plain), ("advance_wall", &plain_wall)] {
        if let Some((q, tail)) = s.tail {
            r.notes.push(format!(
                "{name}_{}_ms {tail:.6} (q {q}) over {} plain days (reported, not gated)",
                s.tail_label(),
                s.n
            ));
        }
    }
    // Days per reference CPU-second for each block of `DAYS_PER_SECOND`
    // consecutive days, median over the blocks.
    let blocks: Vec<f64> = ref_ms
        .chunks(DAYS_PER_SECOND as usize)
        .map(|b| b.len() as f64 * 1e3 / b.iter().sum::<f64>())
        .collect();
    r.e2e(
        "rate_per_s",
        "advance_days_per_s",
        median(&blocks),
        blocks.len(),
        format!(
            "median over {}-day blocks of days advanced per CPU-second at reference speed",
            DAYS_PER_SECOND
        ),
    );
    r.notes.push(format!(
        "{} days advanced ({} with an edge event) to day {}; parity verified on the side engine",
        days.len(),
        event.n,
        engine.current_day()
    ));

    if traced {
        let l = &mut r.layers;
        l.insert("serve.advance_handler_ms", handler_ns / 1e6);
        l.insert("graph.plane_refresh_ratio", refresh_ratio);
        l.insert("stream.advance_ms", median(&replay_ms));
        l.insert("stream.score_ms", median(&score_ms));
        l.insert("stream.engine_build_ms", ms(build));
        l.insert("market.generate_s", median(&gen_s));
        probe_layers(&mut r, &f, &engine, seed);
    }
    r
}

/// Direct calls into the market, graph and core layers of the day advance.
fn probe_layers(r: &mut Report, f: &Fixture, engine: &StreamEngine, seed: u64) {
    let mut ds = f.ds.clone();
    let append_s = median_call(200, |_| {
        ds.append_day(None);
    });
    r.layers.insert("market.append_day_us", append_s * 1e6);
    let mut fs = FeatureStream::new(ds.n_stocks());
    let push_s = median_call(ds.days_generated(), |_| fs.push_day(&ds.sim.prices));
    r.layers.insert("market.feature_push_us", push_s * 1e6);

    let (n, d) = (ds.n_stocks(), rtgcn_config(0).n_features);
    let edges = engine
        .dataset()
        .relations(f.data.relation_kind)
        .directed_edges();
    let mut rng = Rng::new(seed ^ 0x706c_616e);
    let days = engine.current_day() + 1;
    let raw: Vec<f32> = (0..days * n * d).map(|_| 1.0 + rng.unit() as f32).collect();
    let mut planes = TimePlaneCache::new(n, d, edges.clone());
    let plane_s = median_call(days, |i| planes.push_day(&raw[i * n * d..(i + 1) * n * d]));
    r.layers.insert("graph.plane_push_us", plane_s * 1e6);
    let rebuild_s = median_call(5, |_| planes.set_edges(edges.clone()));
    r.layers.insert("graph.plane_rebuild_ms", rebuild_s * 1e3);
    let anchors = vec![1.0f32; n];
    let t = rtgcn_config(0).t_steps;
    let corr_s = median_call(500, |i| {
        drop(planes.corr_window(t - 1 + i % (days - t), t, &anchors, 2.0))
    });
    r.layers.insert("graph.corr_window_us", corr_s * 1e6);

    let relations = engine.dataset().relations(f.data.relation_kind);
    let mut model = RtGcn::new(rtgcn_config(0), &relations, seed);
    let refresh_s = median_call(10, |_| {
        model.refresh_relations(&relations);
    });
    r.layers
        .insert("stream.refresh_relations_ms", refresh_s * 1e3);
}
