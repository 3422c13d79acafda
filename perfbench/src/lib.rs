//! The cslack layered benchmark.
//!
//! Three seeded workloads drive the repository's public APIs:
//!
//! * [`sim`] — `sim_iaas_m64`, single-threaded `sim::simulate`;
//! * [`engine`] — `engine_burst_m8`, an in-process `Engine` built like a
//!   server tenant, fed by one closed-loop producer;
//! * [`wire`] — `wire_burst_m8`, a loopback `Server` loaded by a
//!   closed-loop protocol client and a `/metrics` scraper.
//!
//! Every timed span is taken here, around calls into the program; the
//! program itself carries no benchmark code. A measurement process runs
//! one workload for a fixed time and prints one JSON report; set-up is
//! measured in separate cold processes (the `c(eps, m)` solve is
//! memoized process-wide). `run.py` orchestrates the processes.

pub mod closed_loop;
pub mod digest;
pub mod engine;
pub mod report;
pub mod sim;
pub mod spans;
pub mod stats;
pub mod timed;
pub mod wire;

use std::path::PathBuf;

/// System slack of every workload.
pub const EPS: f64 = 0.25;
/// Most raw samples any one series keeps: above the post-warm-up
/// answers a full-length wire run reads, so its latency quantiles are
/// taken over every answer.
pub const SAMPLE_CAP: usize = 1 << 23;

/// The workload names, in run order.
pub const WORKLOADS: [&str; 3] = ["sim_iaas_m64", "engine_burst_m8", "wire_burst_m8"];

/// One measurement's settings.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload seed.
    pub seed: u64,
    /// How long to keep running cycles.
    pub seconds: f64,
    /// Per-layer timing on (spans, offer wrapper, stamp breakdowns).
    pub traced: bool,
    /// Where a traced run writes its spans.
    pub spans_out: Option<PathBuf>,
}

/// Why a run cannot report `peak_rss_mb`.
pub const RSS_ERR: &str = "cannot read VmHWM from /proc/self/status";

/// `VmHWM` (peak resident set) of this process in MiB; runs read it
/// when their last cycle has ended.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
