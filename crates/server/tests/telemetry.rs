//! The telemetry listener over one unlabelled engine (the
//! `serve-bench --serve-metrics` mode): the three pages, no stale page
//! across a shard failure and recovery, port release on stop, and a
//! listener that keeps answering while a hostile peer holds a
//! connection.

use cslack_algorithms::{Greedy, OnlineScheduler};
use cslack_engine::{Engine, EngineConfig, FlightConfig, ObsConfig, ShardHealth, ShardState};
use cslack_kernel::{Job, JobId, Time};
use cslack_obs::{FlightSnapshot, MetricsRegistry};
use cslack_server::telemetry::{self, EngineSource, Source, WRITE_BUDGET};
use cslack_sim::fault::{FaultSpec, FaultyScheduler};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runs `work` against a listener on an ephemeral port serving
/// `source` unlabelled, and returns the port with `work`'s result.
fn with_listener<R>(source: &dyn Source, work: impl FnOnce(SocketAddr) -> R) -> (SocketAddr, R) {
    let listener = telemetry::bind("127.0.0.1:0".parse().unwrap()).expect("bind");
    let addr = listener.local_addr().unwrap();
    let out = telemetry::serve_while(listener, &[(None, source)], || work(addr));
    (addr, out)
}

/// One GET: (status line and headers, body). Times out rather than
/// hangs when the listener is wedged.
fn get(addr: SocketAddr, path: &str) -> (String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("listener reachable");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .expect("response before the timeout");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    (
        String::from_utf8_lossy(&raw[..split]).to_string(),
        raw[split + 4..].to_vec(),
    )
}

fn text(addr: SocketAddr, path: &str) -> (String, String) {
    let (head, body) = get(addr, path);
    (head, String::from_utf8(body).unwrap())
}

fn greedy(_shard: usize, g: usize) -> Box<dyn OnlineScheduler> {
    Box::new(Greedy::new(g))
}

fn loose_job(id: u32) -> Job {
    Job::new(JobId(id), Time::ZERO, 1.0, Time::new(1e9))
}

fn observed(registry: &Arc<MetricsRegistry>) -> ObsConfig {
    ObsConfig {
        registry: Some(Arc::clone(registry)),
        flight: Some(FlightConfig::new(4096, "greedy", 0.5, 0)),
        ..ObsConfig::default()
    }
}

/// Shard 0's first build panics on its first offer; rebuilds run clean.
fn one_shot_panic() -> impl Fn(usize, usize) -> Box<dyn OnlineScheduler> {
    let spec: FaultSpec = "panic@0".parse().unwrap();
    let armed = AtomicBool::new(true);
    move |shard, g| {
        let inner = greedy(shard, g);
        if shard == 0 && armed.swap(false, Ordering::SeqCst) {
            Box::new(FaultyScheduler::new(inner, spec))
        } else {
            inner
        }
    }
}

fn wait_for_failed(engine: &Engine, shard: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.health()[shard].state != ShardState::Failed {
        assert!(Instant::now() < deadline, "shard {shard} never failed");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn telemetry_endpoint_serves_metrics_health_and_flight() {
    let registry = Arc::new(MetricsRegistry::enabled());
    let engine =
        Engine::start_observed(2, EngineConfig::new(2), observed(&registry), greedy).unwrap();
    for id in 0..16u32 {
        engine.submit(loose_job(id)).unwrap();
    }
    let source = EngineSource {
        engine: &engine,
        registry: &registry,
    };
    with_listener(&source, |addr| {
        let (head, health) = text(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(health.starts_with("ok\n"), "{health}");
        assert!(health.contains("\nshard 0 alive heartbeat_ns "), "{health}");
        assert!(health.contains("\nshard 1 alive heartbeat_ns "), "{health}");
        let (head, page) = text(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"), "{head}");
        // Unlabelled: the single-engine exposition, process lines last.
        assert!(page.contains("\ncslack_submitted_total "), "{page}");
        assert!(page.contains("cslack_build_info{"), "{page}");
        assert!(!page.contains("tenant="), "{page}");
        // Neither a query string nor a fragment breaks routing.
        for path in ["/metrics?debug=1", "/metrics#top"] {
            let (head, page) = text(addr, path);
            assert!(head.starts_with("HTTP/1.1 200"), "{path}: {head}");
            assert!(page.contains("# TYPE"), "{path}");
        }
        let (head, cfr) = get(addr, "/flight/snapshot");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let snap = FlightSnapshot::read_cfr(&mut cfr.as_slice()).unwrap();
        assert_eq!(snap.header.m, 2);
        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    });
    engine.finish().unwrap();
}

#[test]
fn failed_shard_degrades_healthz() {
    let registry = Arc::new(MetricsRegistry::enabled());
    let engine = Engine::start_observed(
        2,
        EngineConfig::new(2),
        observed(&registry),
        one_shot_panic(),
    )
    .unwrap();
    // Job 0 routes to shard 0 and trips the fault on arrival.
    let _ = engine.submit(loose_job(0));
    wait_for_failed(&engine, 0);
    let source = EngineSource {
        engine: &engine,
        registry: &registry,
    };
    with_listener(&source, |addr| {
        let (head, health) = text(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 503"), "{head}");
        assert!(health.starts_with("degraded\n"), "{health}");
        assert!(health.contains("shard 0 failed"), "{health}");
        assert!(health.contains("shard 1 alive"), "{health}");
    });
    engine.finish().expect("degraded finish");
}

#[test]
fn healthz_and_metrics_are_never_stale_across_fail_and_recover() {
    let registry = Arc::new(MetricsRegistry::enabled());
    let engine = Engine::start_observed(
        2,
        EngineConfig::new(2),
        observed(&registry),
        one_shot_panic(),
    )
    .unwrap();
    let source = EngineSource {
        engine: &engine,
        registry: &registry,
    };
    with_listener(&source, |addr| {
        // Healthy: 200, and prime the /metrics scrape cache.
        assert!(text(addr, "/healthz").0.starts_with("HTTP/1.1 200"));
        let (_, before) = text(addr, "/metrics");
        assert!(before.contains("cslack_shard_restarts_total 0"), "{before}");

        // Fail shard 0; the very next scrapes must see it — the 250 ms
        // TTL may not serve the cached healthy page across the change.
        let _ = engine.submit(loose_job(0));
        wait_for_failed(&engine, 0);
        let (head, health) = text(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 503"), "stale healthz: {head}");
        assert!(health.contains("shard 0 failed"), "{health}");

        // Recover; again the next scrapes must flip immediately.
        engine.restart_shard(0).expect("restart succeeds");
        assert!(text(addr, "/healthz").0.starts_with("HTTP/1.1 200"));
        let (_, after) = text(addr, "/metrics");
        assert!(
            after.contains("cslack_shard_restarts_total 1"),
            "metrics page not rekeyed on health generation: {after}"
        );
    });
    engine.finish().expect("healthy finish");
}

#[test]
fn stopping_the_listener_releases_its_port() {
    let registry = Arc::new(MetricsRegistry::enabled());
    let engine =
        Engine::start_observed(2, EngineConfig::new(1), observed(&registry), greedy).unwrap();
    let source = EngineSource {
        engine: &engine,
        registry: &registry,
    };
    let (addr, ()) = with_listener(&source, |addr| {
        assert!(text(addr, "/healthz").0.starts_with("HTTP/1.1 200"));
    });
    TcpListener::bind(addr).expect("telemetry port released when the listener stops");
    engine.finish().unwrap();
}

/// A source with a fixed flight body and one healthy shard.
struct Fake {
    registry: MetricsRegistry,
    cfr: Vec<u8>,
}

impl Source for Fake {
    fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    fn health(&self) -> Option<Vec<ShardHealth>> {
        Some(vec![ShardHealth {
            shard: 0,
            state: ShardState::Alive,
            heartbeat_ns: 0,
        }])
    }

    fn health_generation(&self) -> Option<u64> {
        Some(0)
    }

    fn flight_cfr(&self) -> Option<Vec<u8>> {
        Some(self.cfr.clone())
    }
}

/// With a hostile peer connected, a concurrent `/healthz` still answers
/// 200 within the write budget plus a second. The hostile peer
/// connected first and the listener accepts in arrival order, so this
/// request queues behind it.
fn healthz_answers_behind_a_hostile_peer(addr: SocketAddr) {
    let started = Instant::now();
    let (head, _) = get(addr, "/healthz");
    let took = started.elapsed();
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(
        took < WRITE_BUDGET + Duration::from_secs(1),
        "/healthz took {took:?} behind a hostile peer"
    );
}

#[test]
fn a_dribbling_peer_does_not_wedge_the_listener() {
    let fake = Fake {
        registry: MetricsRegistry::enabled(),
        cfr: Vec::new(),
    };
    with_listener(&fake, |addr| {
        let mut hostile = TcpStream::connect(addr).unwrap();
        let dribble = std::thread::spawn(move || {
            // One byte of an unfinished request head per 0.4 s, until
            // the listener hangs up.
            for &byte in b"GET /healthz HTTP/1.1\r\nX: y" {
                if hostile.write_all(&[byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(400));
            }
        });
        healthz_answers_behind_a_hostile_peer(addr);
        dribble.join().unwrap();
    });
}

#[test]
fn a_never_reading_peer_does_not_wedge_the_listener() {
    // Far more than loopback socket buffers hold (the receive buffer
    // autotunes up to 32 MB on common Linux defaults), so writing the
    // response blocks until the write budget runs out.
    let fake = Fake {
        registry: MetricsRegistry::enabled(),
        cfr: vec![0xA5; 64 << 20],
    };
    with_listener(&fake, |addr| {
        let mut hostile = TcpStream::connect(addr).unwrap();
        hostile
            .write_all(b"GET /flight/snapshot HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        healthz_answers_behind_a_hostile_peer(addr);
        drop(hostile);
    });
}
