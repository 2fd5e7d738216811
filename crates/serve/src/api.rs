//! The scoring routes, plugged into the `rtgcn_telemetry::http` monitor
//! server via [`rtgcn_telemetry::http::register_route`] (so `/rank` and
//! `/score` live next to the built-in `/metrics` and `/healthz`):
//!
//! | route      | method | request | 200 body |
//! |------------|--------|---------|----------|
//! | `/rank`    | GET    | `?market=<key>&k=<n>` (`k` defaults to 10) | `{"market","version","k","end_day","ranked":[{"stock","score"},…]}` |
//! | `/score`   | POST   | `{"market":<key>,"window":[f;T*N*D]}` | `{"market","version","scores":[f;N]}` |
//! | `/advance` | POST   | `{"market":<key>,"days":<n=1>,"add":[edge…],"drop":[[a,b]…]}` | `{"market","version","end_day","days","mrr","cum_irr","refits"}` |
//!
//! `/advance` rolls the market's registry snapshot forward through the
//! streaming day-advance pipeline ([`Registry::advance_market`]): each add
//! edge is `{"leader","follower","types":[…],"strength"?,"period"?,
//! "phase"?,"duty"?}`, and the mutations land on the first advanced day.
//! After a 200, `/rank` serves the streamed ranking under version
//! `<checkpoint-id>+d<day>`.
//!
//! Responses are deterministic for a fixed model version — the golden
//! tests assert bodies byte-for-byte — so everything is rendered through
//! the vendored `serde_json` writer (stable float formatting, ordered
//! maps).

use crate::registry::Registry;
use rtgcn_market::{DayEvent, WikiEdge};
use rtgcn_telemetry::http::{register_route, Request, Response};
use serde::Value;
use std::sync::Arc;
use std::time::Instant;

/// Default `k` for `/rank` when the query string omits it (paper tables
/// report top-10 portfolios).
pub const DEFAULT_K: usize = 10;

fn err_json(status: u16, msg: &str) -> Response {
    Response::json(status, &Value::Map(vec![("error".to_string(), Value::Str(msg.to_string()))]))
}

/// Most days one `/advance` request may generate; keeps a fat-fingered
/// body from tying the server up in a year-long simulation.
pub const MAX_ADVANCE_DAYS: usize = 365;

/// Register `/rank`, `/score`, and `/advance` against `registry`. Call
/// before (or after — the route table is live) the monitor server starts.
pub fn install_routes(registry: Arc<Registry>) {
    let rank_registry = Arc::clone(&registry);
    let score_registry = Arc::clone(&registry);
    register_route("/rank", move |req| handle_rank(&rank_registry, req));
    register_route("/score", move |req| handle_score(&score_registry, req));
    register_route("/advance", move |req| handle_advance(&registry, req));
}

fn handle_rank(registry: &Registry, req: &Request) -> Response {
    if req.method != "GET" {
        return err_json(405, "/rank is GET-only");
    }
    let start = Instant::now();
    rtgcn_telemetry::counter("serve.rank.requests").inc(1);
    let resp = rank_response(registry, req);
    rtgcn_telemetry::record_ns("serve.rank_ns", start.elapsed().as_nanos() as u64);
    resp
}

fn rank_response(registry: &Registry, req: &Request) -> Response {
    let Some(market) = req.query_param("market") else {
        return err_json(400, "missing required query parameter: market");
    };
    let k = match req.query_param("k") {
        None => DEFAULT_K,
        Some(raw) => match raw.parse::<usize>() {
            Ok(k) => k,
            Err(_) => return err_json(400, "k must be a non-negative integer"),
        },
    };
    let Some(entry) = registry.get(market) else {
        return err_json(404, "unknown market");
    };
    let ranked: Vec<Value> = entry
        .ranked(k)
        .into_iter()
        .map(|(stock, score)| {
            Value::Map(vec![
                ("stock".to_string(), Value::U64(stock as u64)),
                ("score".to_string(), Value::F64(score as f64)),
            ])
        })
        .collect();
    Response::json(
        200,
        &Value::Map(vec![
            ("market".to_string(), Value::Str(entry.market.clone())),
            ("version".to_string(), Value::Str(entry.version.clone())),
            ("k".to_string(), Value::U64(k as u64)),
            ("end_day".to_string(), Value::U64(entry.end_day as u64)),
            ("ranked".to_string(), Value::Seq(ranked)),
        ]),
    )
}

fn handle_score(registry: &Registry, req: &Request) -> Response {
    if req.method != "POST" {
        return err_json(405, "/score is POST-only");
    }
    let start = Instant::now();
    rtgcn_telemetry::counter("serve.score.requests").inc(1);
    let resp = score_response(registry, req);
    rtgcn_telemetry::record_ns("serve.score_ns", start.elapsed().as_nanos() as u64);
    resp
}

fn score_response(registry: &Registry, req: &Request) -> Response {
    let Some(text) = req.body_str() else {
        return err_json(400, "body is not valid UTF-8");
    };
    let Ok(parsed) = serde_json::from_str::<Value>(text) else {
        return err_json(400, "body is not valid JSON");
    };
    let Some(market) = parsed.get("market").and_then(Value::as_str) else {
        return err_json(400, "body must have a string \"market\" field");
    };
    let Some(raw_window) = parsed.get("window").and_then(Value::as_seq) else {
        return err_json(400, "body must have a numeric-array \"window\" field");
    };
    let mut window = Vec::with_capacity(raw_window.len());
    for v in raw_window {
        match v.as_f64().map(|f| f as f32) {
            Some(f) if f.is_finite() => window.push(f),
            Some(_) => return err_json(400, "window values must be finite f32 numbers"),
            None => return err_json(400, "window values must be numbers"),
        }
    }
    let Some(entry) = registry.get(market) else {
        return err_json(404, "unknown market");
    };
    let scores = match entry.score_window(&window) {
        Ok(s) => s,
        Err(e) => return err_json(400, &e.to_string()),
    };
    let scores: Vec<Value> = scores.into_iter().map(|s| Value::F64(s as f64)).collect();
    Response::json(
        200,
        &Value::Map(vec![
            ("market".to_string(), Value::Str(entry.market.clone())),
            ("version".to_string(), Value::Str(entry.version.clone())),
            ("scores".to_string(), Value::Seq(scores)),
        ]),
    )
}

fn handle_advance(registry: &Registry, req: &Request) -> Response {
    if req.method != "POST" {
        return err_json(405, "/advance is POST-only");
    }
    let start = Instant::now();
    rtgcn_telemetry::counter("serve.advance.requests").inc(1);
    let resp = advance_response(registry, req);
    rtgcn_telemetry::record_ns("serve.advance_ns", start.elapsed().as_nanos() as u64);
    resp
}

fn advance_response(registry: &Registry, req: &Request) -> Response {
    let Some(text) = req.body_str() else {
        return err_json(400, "body is not valid UTF-8");
    };
    let Ok(parsed) = serde_json::from_str::<Value>(text) else {
        return err_json(400, "body is not valid JSON");
    };
    let Some(market) = parsed.get("market").and_then(Value::as_str) else {
        return err_json(400, "body must have a string \"market\" field");
    };
    let days = match parsed.get("days") {
        None => 1,
        Some(v) => match v.as_u64() {
            Some(d) if (1..=MAX_ADVANCE_DAYS as u64).contains(&d) => d as usize,
            _ => {
                return err_json(
                    400,
                    &format!("days must be an integer in 1..={MAX_ADVANCE_DAYS}"),
                )
            }
        },
    };
    let event = match parse_event(&parsed) {
        Ok(ev) => ev,
        Err(msg) => return err_json(400, &msg),
    };
    if registry.get(market).is_none() {
        return err_json(404, "unknown market");
    }
    let (entry, outcomes) = match registry.advance_market(market, days, event) {
        Ok(ok) => ok,
        Err(e) => return err_json(400, &e.to_string()),
    };
    // Every advance settles the previous day's prediction, so the last
    // outcome's lagged MRR is present in practice; `null` covers a model
    // with nothing outstanding.
    let last = outcomes.last().expect("days >= 1 produces an outcome");
    let refits = outcomes.iter().filter(|o| o.refit.is_some()).count();
    Response::json(
        200,
        &Value::Map(vec![
            ("market".to_string(), Value::Str(entry.market.clone())),
            ("version".to_string(), Value::Str(entry.version.clone())),
            ("end_day".to_string(), Value::U64(entry.end_day as u64)),
            ("days".to_string(), Value::U64(outcomes.len() as u64)),
            ("mrr".to_string(), last.mrr.map(Value::F64).unwrap_or(Value::Null)),
            ("cum_irr".to_string(), Value::F64(last.cum_irr)),
            ("refits".to_string(), Value::U64(refits as u64)),
        ]),
    )
}

/// Parse the optional relation mutations from an `/advance` body.
/// `Ok(None)` when the body carries no mutation at all.
fn parse_event(parsed: &Value) -> Result<Option<DayEvent>, String> {
    let mut ev = DayEvent { add: Vec::new(), drop: Vec::new() };
    if let Some(adds) = parsed.get("add") {
        let Some(seq) = adds.as_seq() else {
            return Err("\"add\" must be an array of edge objects".into());
        };
        for item in seq {
            ev.add.push(parse_edge(item)?);
        }
    }
    if let Some(drops) = parsed.get("drop") {
        let Some(seq) = drops.as_seq() else {
            return Err("\"drop\" must be an array of [a,b] stock pairs".into());
        };
        for item in seq {
            let pair = item.as_seq().filter(|p| p.len() == 2);
            let Some(pair) = pair else {
                return Err("each drop must be a two-element [a,b] stock pair".into());
            };
            match (pair[0].as_u64(), pair[1].as_u64()) {
                (Some(a), Some(b)) => ev.drop.push((a as usize, b as usize)),
                _ => return Err("drop pair values must be stock indices".into()),
            }
        }
    }
    Ok((!ev.add.is_empty() || !ev.drop.is_empty()).then_some(ev))
}

fn parse_edge(v: &Value) -> Result<WikiEdge, String> {
    let int = |field: &str| v.get(field).and_then(Value::as_u64).map(|x| x as usize);
    let num = |field: &str| v.get(field).and_then(Value::as_f64).map(|x| x as f32);
    let leader = int("leader").ok_or("each add edge needs an integer \"leader\"")?;
    let follower = int("follower").ok_or("each add edge needs an integer \"follower\"")?;
    let types = v
        .get("types")
        .and_then(Value::as_seq)
        .ok_or("each add edge needs an integer-array \"types\"")?
        .iter()
        .map(|t| t.as_u64().map(|x| x as usize).ok_or("edge types must be integers"))
        .collect::<Result<Vec<usize>, _>>()?;
    // `WikiEdge::active` computes `day % period` — a zero period is a
    // divide-by-zero, screened here instead of panicking the server.
    let period = int("period").unwrap_or(1);
    if period == 0 {
        return Err("edge period must be at least 1 day".into());
    }
    let strength = num("strength").unwrap_or(0.5);
    let duty = num("duty").unwrap_or(1.0);
    if !(strength.is_finite() && duty.is_finite()) {
        return Err("edge strength and duty must be finite numbers".into());
    }
    Ok(WikiEdge {
        leader,
        follower,
        types,
        strength,
        period,
        phase: int("phase").unwrap_or(0),
        duty,
    })
}
