//! One benchmark process. `run.py` spawns these; each prints one JSON
//! report line on success and exits 1 with a message on stderr
//! otherwise.
//!
//! ```text
//! perfbench setup   <workload> --seed N [--solve]
//! perfbench measure <workload> --seed N --seconds S [--trace] [--spans FILE]
//! ```
//!
//! `setup` times cold-process construction (`--solve`: only the
//! scheduler constructor); `measure` runs the workload for `S` seconds.

use cslack_perfbench::{engine, sim, wire, Opts, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: perfbench (setup|measure) <workload> --seed N [--seconds S] [--trace] \
         [--spans FILE] [--solve]\nworkloads: {}",
        WORKLOADS.join(", ")
    )
}

fn run(args: &[String]) -> Result<String, String> {
    let (mode, workload) = match args {
        [mode, workload, ..] => (mode.as_str(), workload.as_str()),
        _ => return Err(usage()),
    };
    let mut opts = Opts {
        seed: 0,
        seconds: 1.0,
        traced: false,
        spans_out: None,
    };
    let mut solve = false;
    let mut rest = args[2..].iter();
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--spans" => opts.spans_out = Some(PathBuf::from(value()?)),
            "--trace" => opts.traced = true,
            "--solve" => solve = true,
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let report = match (mode, workload) {
        ("setup", "sim_iaas_m64") => sim::setup(opts.seed),
        ("setup", "engine_burst_m8") => engine::setup(opts.seed, solve)?,
        ("setup", "wire_burst_m8") if solve => engine::setup(opts.seed, true)?,
        ("setup", "wire_burst_m8") => wire::setup()?,
        ("measure", "sim_iaas_m64") => sim::measure(&opts)?,
        ("measure", "engine_burst_m8") => engine::measure(&opts)?,
        ("measure", "wire_burst_m8") => wire::measure(&opts)?,
        _ => return Err(usage()),
    };
    Ok(report.to_json())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
