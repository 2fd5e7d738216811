//! Hot-swap determinism: hammer `/rank` from several client threads while
//! the registry swaps between two model versions in a tight loop. The
//! contract under test:
//!
//! - zero connection errors and zero non-200 responses;
//! - every response body is **exactly** one of the two versions' bodies
//!   (an `Arc` snapshot per request — never a torn mix of old scores with
//!   a new version tag);
//! - both versions are actually observed (the swap really happened
//!   mid-load).
//!
//! Client count stays well under the server's in-flight budget (8) so
//! load-shedding 503s cannot contaminate the result.

use rtgcn_core::DataSpec;
use rtgcn_market::{Market, RelationKind, Scale, StockDataset, UniverseSpec};
use rtgcn_serve::probe::{ProbeConfig, WindowSumProbe};
use rtgcn_serve::servable::checkpoint_probe;
use rtgcn_serve::{install_routes, ModelEntry, Registry};
use rtgcn_telemetry::http::{roundtrip, Server};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 120;

fn rank_once(addr: SocketAddr) -> Result<(u16, String), String> {
    roundtrip(addr, b"GET /rank?market=csi&k=4 HTTP/1.1\r\nHost: t\r\n\r\n")
}

#[test]
fn concurrent_rank_requests_see_exactly_one_version_during_swaps() {
    let mut spec = UniverseSpec::of(Market::Csi, Scale::Small);
    spec.stocks = 4;
    spec.train_days = 12;
    spec.test_days = 3;
    let data = DataSpec { spec, seed: 3, relation_kind: RelationKind::Both };
    let ds = StockDataset::generate(data.spec.clone(), data.seed);
    let cfg = ProbeConfig { t_steps: 2, n_features: 2 };
    // Two versions of the same family, differing only in the trained
    // scale parameter — and therefore in every served score.
    let ckpt_v1 = checkpoint_probe(&WindowSumProbe::new(cfg, 0.5), &data).unwrap();
    let ckpt_v2 = checkpoint_probe(&WindowSumProbe::new(cfg, 2.0), &data).unwrap();
    assert_ne!(ckpt_v1.content_id(), ckpt_v2.content_id());

    let registry = Arc::new(Registry::new());
    let entry_v1 = registry.install_checkpoint(&ckpt_v1).unwrap();
    let entry_v2 = Arc::new(ModelEntry::from_checkpoint(&ckpt_v2, &ds, None).unwrap());
    install_routes(Arc::clone(&registry));
    let server = Server::start("127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Reference bodies for both versions, captured single-threadedly.
    let (s1, body_v1) = rank_once(addr).unwrap();
    registry.install_entry(Arc::clone(&entry_v2));
    let (s2, body_v2) = rank_once(addr).unwrap();
    assert_eq!((s1, s2), (200, 200));
    assert_ne!(body_v1, body_v2, "versions must serve distinguishable bodies");
    registry.install_entry(Arc::clone(&entry_v1));

    let stop = Arc::new(AtomicBool::new(false));
    let swapper = {
        let (registry, stop) = (Arc::clone(&registry), Arc::clone(&stop));
        let (v1, v2) = (Arc::clone(&entry_v1), Arc::clone(&entry_v2));
        std::thread::spawn(move || {
            let mut swaps: u64 = 0;
            while !stop.load(Ordering::Relaxed) {
                registry.install_entry(if swaps.is_multiple_of(2) {
                    Arc::clone(&v2)
                } else {
                    Arc::clone(&v1)
                });
                swaps += 1;
                std::thread::sleep(Duration::from_micros(500));
            }
            swaps
        })
    };

    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let (body_v1, body_v2) = (body_v1.clone(), body_v2.clone());
            std::thread::spawn(move || -> Result<HashSet<&'static str>, String> {
                let mut seen = HashSet::new();
                for _ in 0..REQUESTS_PER_CLIENT {
                    let (status, body) = rank_once(addr)?;
                    if status != 200 {
                        return Err(format!("non-200 under swap load: {status} ({body:?})"));
                    }
                    if body == body_v1 {
                        seen.insert("v1");
                    } else if body == body_v2 {
                        seen.insert("v2");
                    } else {
                        return Err(format!("torn/unknown response body: {body:?}"));
                    }
                }
                Ok(seen)
            })
        })
        .collect();

    let mut seen_all: HashSet<&'static str> = HashSet::new();
    let mut errors = Vec::new();
    for c in clients {
        match c.join().expect("client thread must not panic") {
            Ok(seen) => seen_all.extend(seen),
            Err(e) => errors.push(e),
        }
    }
    stop.store(true, Ordering::Relaxed);
    let swaps = swapper.join().unwrap();
    assert!(errors.is_empty(), "hot-swap load errors: {errors:?}");
    assert!(swaps >= 2, "swap loop barely ran ({swaps} swaps)");
    assert_eq!(
        seen_all,
        HashSet::from(["v1", "v2"]),
        "both versions must be observed across {} requests and {swaps} swaps",
        CLIENTS * REQUESTS_PER_CLIENT
    );
}
