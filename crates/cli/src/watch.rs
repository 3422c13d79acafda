//! `cslack watch` — a refreshing single-screen quality dashboard.
//!
//! Live mode polls a `/metrics` endpoint (engine or multi-tenant
//! server), parses the Prometheus text exposition, and renders the
//! windowed gauges the observatory publishes: throughput, accept rate,
//! the empirical competitive ratio against its `c(eps, m)` floor,
//! per-stage p99s, and per-shard health. Offline mode replays a `.cfr`
//! flight recording through the engine's pure [`window_quality`] slicer
//! and prints the same quality view per release window.

use crate::args::Opts;
use crate::cmd::{http_get_bytes, read_cfr_file};
use cslack_engine::{window_quality, WindowQuality};
use cslack_obs::FlightEvent;
use cslack_ratio::RatioFn;
use serde::Serialize;
use std::collections::BTreeMap;

/// One parsed Prometheus sample: `name{labels} value`.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

impl Sample {
    fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses a Prometheus text exposition into samples. Comment and blank
/// lines are skipped; lines that do not parse are ignored (forward
/// compatibility beats strictness for a dashboard).
fn parse_prometheus(text: &str) -> Vec<Sample> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(parse_sample)
        .collect()
}

fn parse_sample(line: &str) -> Option<Sample> {
    let (series, raw_value) = line.rsplit_once(' ')?;
    let value: f64 = raw_value.trim().parse().ok()?;
    let (name, labels) = match series.find('{') {
        Some(open) => {
            let inner = series[open + 1..].strip_suffix('}')?;
            let mut labels = Vec::new();
            // The cslack exposition never puts commas or escapes inside
            // label values, so a flat split is exact here.
            for part in inner.split(',').filter(|p| !p.is_empty()) {
                let (k, v) = part.split_once('=')?;
                labels.push((k.to_string(), v.trim_matches('"').to_string()));
            }
            (series[..open].to_string(), labels)
        }
        None => (series.trim().to_string(), Vec::new()),
    };
    Some(Sample {
        name,
        labels,
        value,
    })
}

/// One tenant's (or a single engine's) slice of a watch snapshot.
#[derive(Default, Serialize)]
struct TenantView {
    tenant: String,
    /// Windowed decision throughput by resolution label (`1s`/`10s`/`60s`).
    decisions_per_sec: BTreeMap<String, f64>,
    /// Windowed accept rate by resolution label.
    accept_rate: BTreeMap<String, f64>,
    /// Aggregate empirical ratio (`shard="all"`), if a window closed.
    ratio: Option<f64>,
    /// Admitted load of the last closed aggregate window.
    admitted_load: Option<f64>,
    /// OPT upper bound of the same window.
    opt_upper_bound: Option<f64>,
    /// Alerting floor derived from `c(eps, m)`.
    ratio_floor: Option<f64>,
    /// Aggregate windows closed so far.
    quality_windows: Option<f64>,
    /// Of those, windows closed without being scored (absent on pages
    /// that predate the family).
    quality_windows_skipped: Option<f64>,
    /// Windows that fell below the floor.
    ratio_alerts: Option<f64>,
    /// Per-shard empirical ratios (shard label -> ratio).
    shard_ratio: BTreeMap<String, f64>,
    /// 10s-window p99 per pipeline stage (stage label -> ns).
    stage_p99_ns: BTreeMap<String, f64>,
    /// 10s-window p99 enqueue-to-dequeue wait (the `queue` stage).
    queue_wait_p99_ns: Option<f64>,
    /// Highest queue depth sampled in the 10s window.
    queue_depth_max: Option<f64>,
    /// Live per-shard queue depth gauge (shard label -> jobs).
    queue_depth: BTreeMap<String, f64>,
    /// Shard resurrections performed so far.
    shard_restarts: Option<f64>,
    /// Jobs carried across those restarts (replayed commitments plus
    /// re-admitted re-offers).
    recovered_jobs: Option<f64>,
}

/// The full `cslack watch --json` snapshot.
#[derive(Serialize)]
struct WatchSnapshot {
    source: String,
    tenants: Vec<TenantView>,
    scrapes_total: Option<f64>,
}

/// Folds parsed samples into per-tenant views. Samples without a
/// `tenant` label (a single-engine endpoint, or process-wide families)
/// fall into the unnamed tenant.
fn build_snapshot(source: &str, samples: &[Sample]) -> WatchSnapshot {
    let mut tenants: BTreeMap<String, TenantView> = BTreeMap::new();
    let mut scrapes_total = None;
    for s in samples {
        if s.name == "cslack_scrapes_total" {
            scrapes_total = Some(s.value);
            continue;
        }
        let tenant = s.label("tenant").unwrap_or("").to_string();
        let view = tenants.entry(tenant.clone()).or_insert_with(|| TenantView {
            tenant,
            ..TenantView::default()
        });
        match s.name.as_str() {
            "cslack_window_decisions_per_sec" => {
                if let Some(w) = s.label("window") {
                    view.decisions_per_sec.insert(w.to_string(), s.value);
                }
            }
            "cslack_window_accept_rate" => {
                if let Some(w) = s.label("window") {
                    view.accept_rate.insert(w.to_string(), s.value);
                }
            }
            "cslack_empirical_ratio" => match s.label("shard") {
                Some("all") => view.ratio = Some(s.value),
                Some(shard) => {
                    view.shard_ratio.insert(shard.to_string(), s.value);
                }
                None => {}
            },
            "cslack_window_admitted_load" if s.label("shard") == Some("all") => {
                view.admitted_load = Some(s.value);
            }
            "cslack_window_opt_upper_bound" if s.label("shard") == Some("all") => {
                view.opt_upper_bound = Some(s.value);
            }
            "cslack_ratio_floor" => view.ratio_floor = Some(s.value),
            "cslack_quality_windows_total" => view.quality_windows = Some(s.value),
            "cslack_quality_windows_skipped_total" => {
                view.quality_windows_skipped = Some(s.value);
            }
            "cslack_ratio_alerts_total" => view.ratio_alerts = Some(s.value),
            "cslack_window_stage_p99_ns" if s.label("window") == Some("10s") => {
                if let Some(stage) = s.label("stage") {
                    if stage == "queue" {
                        view.queue_wait_p99_ns = Some(s.value);
                    }
                    view.stage_p99_ns.insert(stage.to_string(), s.value);
                }
            }
            "cslack_window_queue_depth_max" if s.label("window") == Some("10s") => {
                view.queue_depth_max = Some(s.value);
            }
            "cslack_queue_depth" => {
                if let Some(shard) = s.label("shard") {
                    view.queue_depth.insert(shard.to_string(), s.value);
                }
            }
            "cslack_shard_restarts_total" => view.shard_restarts = Some(s.value),
            "cslack_recovered_jobs_total" => view.recovered_jobs = Some(s.value),
            _ => {}
        }
    }
    WatchSnapshot {
        source: source.to_string(),
        tenants: tenants.into_values().collect(),
        scrapes_total,
    }
}

fn fmt_rate(v: Option<&f64>) -> String {
    match v {
        Some(v) => format!("{v:.1}/s"),
        None => "-".to_string(),
    }
}

fn render_snapshot(snap: &WatchSnapshot, every: f64) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "cslack watch — {} (every {every}s)", snap.source);
    for t in &snap.tenants {
        let name = if t.tenant.is_empty() {
            "engine".to_string()
        } else {
            format!("tenant {}", t.tenant)
        };
        let _ = writeln!(out, "\n{name}");
        let _ = writeln!(
            out,
            "  throughput  1s {}  10s {}  60s {}   accept(10s) {}",
            fmt_rate(t.decisions_per_sec.get("1s")),
            fmt_rate(t.decisions_per_sec.get("10s")),
            fmt_rate(t.decisions_per_sec.get("60s")),
            t.accept_rate
                .get("10s")
                .map(|r| format!("{:.1}%", r * 100.0))
                .unwrap_or_else(|| "-".to_string()),
        );
        match (t.ratio, t.ratio_floor) {
            (Some(r), floor) => {
                let floor_str = floor
                    .map(|f| format!("{f:.3}"))
                    .unwrap_or_else(|| "-".to_string());
                let mark = match floor {
                    Some(f) if r < f => "  ** BELOW FLOOR **",
                    _ => "",
                };
                let scored = match (t.quality_windows, t.quality_windows_skipped) {
                    (Some(closed), Some(skipped)) => {
                        format!("  scored {} of {closed} windows", closed - skipped)
                    }
                    _ => String::new(),
                };
                let _ = writeln!(
                    out,
                    "  quality     ratio {r:.3} (floor {floor_str}){mark}  admitted {} / bound {}{scored}",
                    t.admitted_load
                        .map(|v| format!("{v:.1}"))
                        .unwrap_or_else(|| "-".to_string()),
                    t.opt_upper_bound
                        .map(|v| format!("{v:.1}"))
                        .unwrap_or_else(|| "-".to_string()),
                );
                let _ = writeln!(
                    out,
                    "              windows {}  alerts {}",
                    t.quality_windows.unwrap_or(0.0),
                    t.ratio_alerts.unwrap_or(0.0),
                );
            }
            _ => {
                let _ = writeln!(out, "  quality     no closed window yet");
            }
        }
        if !t.stage_p99_ns.is_empty() {
            let stages = t
                .stage_p99_ns
                .iter()
                .map(|(k, v)| format!("{k} {v:.0}"))
                .collect::<Vec<_>>()
                .join("  ");
            let _ = writeln!(out, "  p99 ns(10s) {stages}");
        }
        let mut health = Vec::new();
        if let Some(q) = t.queue_wait_p99_ns {
            health.push(format!("queue-wait p99 {q:.0} ns"));
        }
        if let Some(d) = t.queue_depth_max {
            health.push(format!("depth max(10s) {d:.0}"));
        }
        if !t.shard_ratio.is_empty() {
            let shards = t
                .shard_ratio
                .iter()
                .map(|(k, v)| format!("{k}:{v:.3}"))
                .collect::<Vec<_>>()
                .join(" ");
            health.push(format!("shard ratio {shards}"));
        }
        if !health.is_empty() {
            let _ = writeln!(out, "  shards      {}", health.join("   "));
        }
        if let Some(r) = t.shard_restarts {
            if r > 0.0 {
                let _ = writeln!(
                    out,
                    "  recovery    restarts {r:.0}  recovered jobs {}",
                    t.recovered_jobs
                        .map(|v| format!("{v:.0}"))
                        .unwrap_or_else(|| "-".to_string()),
                );
            }
        }
    }
    if let Some(s) = snap.scrapes_total {
        let _ = writeln!(out, "\nscrapes {s:.0}");
    }
    out
}

/// The offline (`.cfr`) watch report.
#[derive(Serialize)]
struct CfrWatchReport {
    source: String,
    algorithm: String,
    m: u32,
    shards: u32,
    eps: f64,
    window: f64,
    ratio_floor: f64,
    windows: Vec<WindowQuality>,
}

fn watch_cfr(opts: &Opts, path: &str) -> Result<(), String> {
    let snap = read_cfr_file(path)?;
    let window: f64 = opts.get_or("window", 16.0)?;
    if window <= 0.0 {
        return Err("`--window` must be positive".to_string());
    }
    let max_jobs: usize = opts.get_or("max-window-jobs", 1024)?;
    let m = (snap.header.m as usize).max(1);
    let mut decisions = Vec::new();
    for shard in &snap.shards {
        for event in &shard.events {
            if let FlightEvent::Decision(d) = event {
                decisions.push(d.event.clone());
            }
        }
    }
    let windows = window_quality(&decisions, window, m, max_jobs);
    let floor = if snap.header.eps > 0.0 {
        1.0 / RatioFn::new(m).eval(snap.header.eps).c
    } else {
        1.0
    };
    let report = CfrWatchReport {
        source: path.to_string(),
        algorithm: snap.header.algorithm.clone(),
        m: snap.header.m,
        shards: snap.header.shards,
        eps: snap.header.eps,
        window,
        ratio_floor: floor,
        windows,
    };
    if opts.flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    println!(
        "watch {path}: algo {}, m = {}, shards = {}, eps = {}, window = {window}, floor = {floor:.3}",
        report.algorithm, report.m, report.shards, report.eps
    );
    println!(
        "  {:>6} {:>14} {:>6} {:>8} {:>10} {:>10} {:>7}",
        "window", "span", "jobs", "accepted", "admitted", "bound", "ratio"
    );
    for w in &report.windows {
        let mark = if w.ratio < floor { " !" } else { "" };
        println!(
            "  {:>6} [{:>5.1},{:>6.1}) {:>6} {:>8} {:>10.2} {:>10.2} {:>7.3}{mark}",
            w.index, w.start, w.end, w.jobs, w.accepted, w.admitted_load, w.opt_bound, w.ratio
        );
    }
    Ok(())
}

/// `cslack watch` — live quality dashboard over `/metrics`, or the
/// offline per-window quality table of a `.cfr` recording.
pub fn watch(opts: &Opts) -> Result<(), String> {
    if let Some(path) = opts.get("in") {
        return watch_cfr(opts, path);
    }
    let url = opts
        .get("url")
        .ok_or("watch needs `--url http://<addr>/metrics` or a `.cfr` file")?;
    let every: f64 = opts.get_or("every", 2.0)?;
    if !(every.is_finite() && every > 0.0) {
        return Err("`--every` must be positive".to_string());
    }
    let once = opts.flag("once");
    let json = opts.flag("json");
    loop {
        let body = http_get_bytes(url)?;
        let text = String::from_utf8_lossy(&body);
        let snap = build_snapshot(url, &parse_prometheus(&text));
        if json {
            // One compact JSON object per poll: pipeline-friendly in
            // follow mode, a single object with `--once`.
            println!(
                "{}",
                serde_json::to_string(&snap).map_err(|e| e.to_string())?
            );
        } else {
            if !once {
                // ANSI clear + home: refresh in place.
                print!("\x1b[2J\x1b[H");
            }
            print!("{}", render_snapshot(&snap, every));
            crate::stdout::flush();
        }
        if once {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(every));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: &str = "\
# HELP cslack_window_decisions_per_sec Decision throughput over the trailing window.
# TYPE cslack_window_decisions_per_sec gauge
cslack_window_decisions_per_sec{tenant=\"alpha\",window=\"1s\"} 1500.000
cslack_window_decisions_per_sec{tenant=\"alpha\",window=\"10s\"} 1200.500
cslack_window_accept_rate{tenant=\"alpha\",window=\"10s\"} 0.93
cslack_empirical_ratio{tenant=\"alpha\",shard=\"0\",window=\"16\"} 0.971000
cslack_empirical_ratio{tenant=\"alpha\",shard=\"all\",window=\"16\"} 0.982000
cslack_window_admitted_load{tenant=\"alpha\",shard=\"all\",window=\"16\"} 123.400000
cslack_window_opt_upper_bound{tenant=\"alpha\",shard=\"all\",window=\"16\"} 125.600000
cslack_ratio_floor{tenant=\"alpha\"} 0.417000
cslack_quality_windows_total{tenant=\"alpha\"} 42
cslack_quality_windows_skipped_total{tenant=\"alpha\"} 40
cslack_ratio_alerts_total{tenant=\"alpha\"} 0
cslack_window_stage_p99_ns{tenant=\"alpha\",window=\"10s\",stage=\"decide\"} 890
cslack_window_stage_p99_ns{tenant=\"alpha\",window=\"10s\",stage=\"queue\"} 1234
cslack_window_queue_depth_max{tenant=\"alpha\",window=\"10s\"} 37
cslack_queue_depth{tenant=\"alpha\",shard=\"0\"} 12
cslack_shard_restarts_total{tenant=\"alpha\"} 1
cslack_recovered_jobs_total{tenant=\"alpha\"} 58
cslack_scrapes_total 7
";

    #[test]
    fn parses_labeled_samples() {
        let samples = parse_prometheus(PAGE);
        assert_eq!(samples.len(), 18);
        let s = &samples[0];
        assert_eq!(s.name, "cslack_window_decisions_per_sec");
        assert_eq!(s.label("tenant"), Some("alpha"));
        assert_eq!(s.label("window"), Some("1s"));
        assert!((s.value - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_groups_by_tenant_and_extracts_quality() {
        let snap = build_snapshot("test", &parse_prometheus(PAGE));
        assert_eq!(snap.scrapes_total, Some(7.0));
        assert_eq!(snap.tenants.len(), 1);
        let t = &snap.tenants[0];
        assert_eq!(t.tenant, "alpha");
        assert_eq!(t.ratio, Some(0.982));
        assert_eq!(t.ratio_floor, Some(0.417));
        assert_eq!(t.shard_ratio.get("0"), Some(&0.971));
        assert_eq!(t.decisions_per_sec.get("1s"), Some(&1500.0));
        assert_eq!(t.stage_p99_ns.get("decide"), Some(&890.0));
        assert_eq!(t.queue_wait_p99_ns, Some(1234.0));
        assert_eq!(t.queue_depth.get("0"), Some(&12.0));
        assert_eq!(t.shard_restarts, Some(1.0));
        assert_eq!(t.recovered_jobs, Some(58.0));
        assert_eq!(t.quality_windows, Some(42.0));
        assert_eq!(t.quality_windows_skipped, Some(40.0));
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"quality_windows_skipped\":40"), "{json}");
    }

    #[test]
    fn rendering_mentions_ratio_and_throughput() {
        let snap = build_snapshot("test", &parse_prometheus(PAGE));
        let text = render_snapshot(&snap, 2.0);
        assert!(text.contains("tenant alpha"));
        assert!(text.contains("ratio 0.982"));
        assert!(text.contains("floor 0.417"));
        assert!(text.contains("scored 2 of 42 windows"));
        assert!(text.contains("1500.0/s"));
        assert!(text.contains("queue-wait p99 1234 ns"));
        assert!(!text.contains("BELOW FLOOR"));
        assert!(text.contains("restarts 1"));
        assert!(text.contains("recovered jobs 58"));
        assert!(text.contains("scrapes 7"));
    }

    #[test]
    fn below_floor_is_flagged() {
        let page = "\
cslack_empirical_ratio{shard=\"all\",window=\"16\"} 0.200000
cslack_ratio_floor 0.417000
";
        let snap = build_snapshot("test", &parse_prometheus(page));
        let text = render_snapshot(&snap, 1.0);
        assert!(text.contains("BELOW FLOOR"));
        // A page without the skipped family still renders, without a
        // scored count.
        assert_eq!(snap.tenants[0].quality_windows_skipped, None);
        assert!(!text.contains("scored"));
    }
}
