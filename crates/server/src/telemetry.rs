//! The telemetry HTTP listener: `/metrics`, `/healthz` and
//! `/flight/snapshot` for every engine a process fronts.
//!
//! `cslack serve` runs it over one `tenant`-labelled [`Source`] per
//! tenant, `cslack serve-bench --serve-metrics` over one unlabelled
//! [`EngineSource`]. Connections are handled inline on the listener
//! thread, so each one runs on a clock: the whole request head must
//! arrive within [`HEAD_DEADLINE`] of the accept and the whole response
//! must be written within [`WRITE_BUDGET`], or the request is dropped.
//! Both are totals, not per-call timeouts, so a peer that dribbles its
//! request or never reads its response holds the listener for a
//! bounded time.

use cslack_engine::{Engine, ShardHealth, ShardState};
use cslack_obs::{FlightSnapshot, MetricsRegistry};
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Total time a peer gets to deliver its request head.
pub const HEAD_DEADLINE: Duration = Duration::from_millis(500);
/// Total time one response may take to write.
pub const WRITE_BUDGET: Duration = Duration::from_secs(2);
/// Longest request head read.
const HEAD_LIMIT: usize = 8192;
/// How long a rendered `/metrics` page is reused. Scrape storms
/// (several Prometheus replicas, a dashboard and an alerter) then cost
/// one render per TTL instead of one per request.
const SCRAPE_CACHE_TTL: Duration = Duration::from_millis(250);
const TEXT: &str = "text/plain; charset=utf-8";

/// What one fronted engine contributes to the pages.
pub trait Source: Sync {
    /// The registry `/metrics` renders.
    fn registry(&self) -> &MetricsRegistry;
    /// Per-shard liveness for `/healthz`; `None` once drained.
    fn health(&self) -> Option<Vec<ShardHealth>>;
    /// The engine's [`Engine::health_generation`]; `None` once drained.
    fn health_generation(&self) -> Option<u64>;
    /// The current flight recording as `.cfr` bytes, if there is one.
    fn flight_cfr(&self) -> Option<Vec<u8>>;
}

/// A source and its `tenant` label (`None` for an unlabelled page).
pub type Labelled<'a> = (Option<&'a str>, &'a dyn Source);

/// The source for one in-process engine and the registry it streams
/// into.
pub struct EngineSource<'a> {
    /// The running engine.
    pub engine: &'a Engine,
    /// The registry passed in the engine's `ObsConfig`.
    pub registry: &'a MetricsRegistry,
}

impl Source for EngineSource<'_> {
    fn registry(&self) -> &MetricsRegistry {
        self.registry
    }

    fn health(&self) -> Option<Vec<ShardHealth>> {
        Some(self.engine.health())
    }

    fn health_generation(&self) -> Option<u64> {
        Some(self.engine.health_generation())
    }

    fn flight_cfr(&self) -> Option<Vec<u8>> {
        self.engine.flight_snapshot().as_ref().map(cfr_bytes)
    }
}

/// A flight snapshot serialized as `.cfr` bytes.
pub(crate) fn cfr_bytes(snap: &FlightSnapshot) -> Vec<u8> {
    let mut bytes = Vec::new();
    let _ = snap.write_cfr(&mut bytes);
    bytes
}

/// Binds the listener for [`serve_while`] (or the server's own telemetry
/// thread) to accept on. Its `accept` blocks: the loop sleeps until a
/// request arrives, and its stop wakes it by connecting once.
pub fn bind(addr: SocketAddr) -> io::Result<TcpListener> {
    TcpListener::bind(addr)
}

/// Serves `sources` until `stop` is set, blocked in `accept` between
/// requests. The stop sets the flag and then wakes the loop with
/// [`wake`]; whatever is accepted once the flag is set ends the loop.
/// Real accept errors (EMFILE, netns teardown) are counted into every
/// enabled registry's `telemetry_errors` and back off exponentially from
/// 5 to 500 ms, so a wedged listener does not spin a core.
pub(crate) fn serve(listener: TcpListener, sources: &[Labelled<'_>], stop: &AtomicBool) {
    const MIN_BACKOFF: Duration = Duration::from_millis(5);
    const MAX_BACKOFF: Duration = Duration::from_millis(500);
    let mut backoff = MIN_BACKOFF;
    let mut cache = ScrapeCache::default();
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok(_) if stop.load(Ordering::Relaxed) => break,
            Ok((stream, _)) => {
                backoff = MIN_BACKOFF;
                let _ = handle(stream, sources, &mut cache);
            }
            Err(_) => {
                for (_, source) in sources {
                    if source.registry().is_enabled() {
                        source.registry().telemetry_errors.inc();
                    }
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(MAX_BACKOFF);
            }
        }
    }
}

/// Wakes a loop blocked in `accept` on `addr`, whose stop flag is
/// already set, by connecting to it once; an unspecified bind address
/// is reached through loopback. A connect that times out found the
/// listener's backlog full, so the loop is busy accepting and sees the
/// flag on its next connection.
pub(crate) fn wake(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

/// Serves `sources` on `listener` from a scoped thread while `work`
/// runs, then stops the listener (also when `work` panics) and returns
/// what `work` returned. The listener may borrow what `work` uses, such
/// as the engine of an [`EngineSource`].
pub fn serve_while<R>(
    listener: TcpListener,
    sources: &[Labelled<'_>],
    work: impl FnOnce() -> R,
) -> R {
    struct StopOnDrop<'a>(&'a AtomicBool, SocketAddr);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
            wake(self.1);
        }
    }
    // Without its address the listener could not be woken to stop.
    let Ok(addr) = listener.local_addr() else {
        return work();
    };
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let flag = &stop;
        scope.spawn(move || serve(listener, sources, flag));
        let _stop = StopOnDrop(flag, addr);
        work()
    })
}

/// Answers one request, or drops it when the peer overruns either
/// deadline.
fn handle(
    mut stream: TcpStream,
    sources: &[Labelled<'_>],
    cache: &mut ScrapeCache,
) -> io::Result<()> {
    let head = read_head(&mut stream, Instant::now() + HEAD_DEADLINE)?;
    let request = String::from_utf8_lossy(&head);
    let target = request.split_whitespace().nth(1).unwrap_or("/");
    // Route on the path alone: drop any fragment a sloppy client sends
    // on the wire, then split off the query.
    let target = target.split('#').next().unwrap_or(target);
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let (status, content_type, body) = route(path, query, sources, cache);
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let deadline = Instant::now() + WRITE_BUDGET;
    write_before(&mut stream, header.as_bytes(), deadline)?;
    write_before(&mut stream, &body, deadline)
}

fn route(
    path: &str,
    query: &str,
    sources: &[Labelled<'_>],
    cache: &mut ScrapeCache,
) -> (&'static str, &'static str, Vec<u8>) {
    match path {
        "/metrics" => {
            // Every request counts as a scrape, served from cache or
            // not: the counter tracks demand, the cache bounds renders.
            cslack_obs::metrics::count_scrape();
            let key = sources.iter().map(|(_, s)| s.health_generation()).collect();
            let page = cache.page(key, || {
                let mut out = String::new();
                for (label, source) in sources {
                    let labels = label.map(|name| ("tenant", name));
                    source
                        .registry()
                        .render_prometheus_into(&mut out, labels.as_slice());
                }
                // Process-wide families render once per page.
                cslack_obs::metrics::render_process_lines(&mut out);
                out.into_bytes()
            });
            ("200 OK", "text/plain; version=0.0.4; charset=utf-8", page)
        }
        "/healthz" => {
            let mut any_failed = false;
            let mut lines = String::new();
            for (label, source) in sources {
                let prefix = label.map(|name| format!("tenant {name} "));
                let prefix = prefix.as_deref().unwrap_or("");
                let Some(health) = source.health() else {
                    let _ = writeln!(lines, "{prefix}drained");
                    continue;
                };
                for h in health {
                    any_failed |= h.state == ShardState::Failed;
                    let _ = writeln!(
                        lines,
                        "{prefix}shard {} {} heartbeat_ns {}",
                        h.shard,
                        h.state.as_str(),
                        h.heartbeat_ns
                    );
                }
            }
            let (status, verdict) = if any_failed {
                ("503 Service Unavailable", "degraded")
            } else {
                ("200 OK", "ok")
            };
            (status, TEXT, format!("{verdict}\n{lines}").into_bytes())
        }
        "/flight/snapshot" => {
            let wanted = query.split('&').find_map(|kv| kv.strip_prefix("tenant="));
            let source = match (wanted, sources) {
                (Some(name), _) => sources.iter().find(|(label, _)| *label == Some(name)),
                // Unambiguous when there is a single source.
                (None, [only]) => Some(only),
                (None, _) => None,
            };
            match source.and_then(|(_, s)| s.flight_cfr()) {
                Some(bytes) => ("200 OK", "application/octet-stream", bytes),
                None => (
                    "404 Not Found",
                    TEXT,
                    b"no such tenant or no flight snapshot (multi-tenant servers need ?tenant=NAME)\n"
                        .to_vec(),
                ),
            }
        }
        _ => ("404 Not Found", TEXT, b"not found\n".to_vec()),
    }
}

/// Time left before `deadline`, or `TimedOut` once it has passed.
fn remaining(deadline: Instant) -> io::Result<Duration> {
    deadline
        .checked_duration_since(Instant::now())
        .filter(|left| !left.is_zero())
        .ok_or_else(|| io::ErrorKind::TimedOut.into())
}

/// Reads up to the blank line ending the request head, at most
/// [`HEAD_LIMIT`] bytes, all before `deadline`.
fn read_head(stream: &mut TcpStream, deadline: Instant) -> io::Result<Vec<u8>> {
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while head.len() < HEAD_LIMIT && !head.windows(4).any(|w| w == b"\r\n\r\n") {
        stream.set_read_timeout(Some(remaining(deadline)?))?;
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&chunk[..n]);
    }
    Ok(head)
}

/// Writes all of `bytes` before `deadline`; each blocking write waits
/// only for the time left.
fn write_before(stream: &mut TcpStream, mut bytes: &[u8], deadline: Instant) -> io::Result<()> {
    while !bytes.is_empty() {
        stream.set_write_timeout(Some(remaining(deadline)?))?;
        match stream.write(bytes) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The `/metrics` page cache. Besides the TTL it keys on every
/// source's health generation, `None` once drained, compared exactly:
/// any fail, recover or drain anywhere forces a re-render, so a page
/// rendered before a transition is never served after it.
#[derive(Default)]
struct ScrapeCache {
    page: Vec<u8>,
    rendered_at: Option<Instant>,
    key: Vec<Option<u64>>,
}

impl ScrapeCache {
    fn page(&mut self, key: Vec<Option<u64>>, render: impl FnOnce() -> Vec<u8>) -> Vec<u8> {
        let fresh = self
            .rendered_at
            .is_some_and(|at| at.elapsed() < SCRAPE_CACHE_TTL)
            && self.key == key;
        if !fresh {
            self.page = render();
            self.rendered_at = Some(Instant::now());
            self.key = key;
        }
        self.page.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_reuses_a_page_only_under_the_same_generations() {
        let mut cache = ScrapeCache::default();
        let mut renders = 0;
        let mut page = |cache: &mut ScrapeCache, key: Vec<Option<u64>>| {
            cache.page(key, || {
                renders += 1;
                vec![renders]
            })
        };
        assert_eq!(page(&mut cache, vec![Some(0), Some(0)]), [1]);
        assert_eq!(page(&mut cache, vec![Some(0), Some(0)]), [1]);
        // A drains while one of B's shards fails. A key summing
        // `generation + 1` per source gives 2 both times.
        assert_eq!(page(&mut cache, vec![None, Some(1)]), [2]);
    }
}
