//! `cslack` — command-line interface to the library.
//!
//! ```text
//! cslack ratio     --m 4 --eps 0.1
//! cslack generate  --m 4 --eps 0.1 --n 100 --seed 7 --out trace.json
//! cslack simulate  --algo threshold --trace trace.json
//! cslack simulate  --algo greedy --m 4 --eps 0.1 --n 100 --seed 7
//! cslack adversary --algo threshold --m 3 --eps 0.25
//! cslack opt       --trace trace.json
//! cslack replay    run.cfr
//! cslack audit     run.cfr
//! ```

use std::process::ExitCode;

mod args;
mod cmd;
mod watch;

/// One subcommand: its name, the `--name value` options and the
/// `--name` switches it reads (space-separated), and its entry point.
type Command = (
    &'static str,
    &'static str,
    &'static str,
    fn(&args::Opts) -> Result<(), String>,
);

/// Every subcommand with exactly the options it reads; the parser
/// refuses any other option before the command runs, so a misspelled
/// one is an error instead of a silently ignored pair.
const COMMANDS: &[Command] = &[
    ("ratio", "m eps", "", cmd::ratio),
    ("generate", "m eps n seed out", "", cmd::generate),
    (
        "simulate",
        "algo trace m eps n seed exact-limit gantt",
        "json",
        cmd::simulate,
    ),
    (
        "serve-bench",
        "algo shards m eps n seed queue-cap batch metrics-out prom-out flight-out flight-cap \
         serve-metrics hold window inject crash-out",
        "json flight-audit recover",
        cmd::serve_bench,
    ),
    (
        "serve",
        "tenants listen telemetry inflight queue-cap batch inject max-secs",
        "recover exit-when-drained",
        cmd::serve,
    ),
    (
        "loadgen",
        "tenants connect conns rate n batch seed out",
        "no-drain json",
        cmd::loadgen,
    ),
    ("trace-summary", "in", "json", cmd::trace_summary),
    ("replay", "in", "json", cmd::replay),
    ("audit", "in", "json", cmd::audit),
    (
        "latency",
        "in url top every polls",
        "json follow",
        cmd::latency,
    ),
    (
        "watch",
        "in url every window max-window-jobs",
        "once json",
        watch::watch,
    ),
    ("adversary", "algo m eps beta seed", "", cmd::adversary),
    (
        "opt",
        "trace m eps n seed exact-limit local-search",
        "",
        cmd::opt,
    ),
    (
        "import-swf",
        "file m eps out seed procs-scale time-scale",
        "",
        cmd::import_swf,
    ),
    ("tree", "m eps", "", cmd::tree),
    ("cover", "algo trace m eps n seed", "", cmd::cover),
];

fn main() -> ExitCode {
    // Pin the uptime base before any work so every subcommand's
    // `/metrics` exposition reports uptime from process start.
    cslack_obs::metrics::mark_process_start();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{}", cmd::USAGE);
        return ExitCode::FAILURE;
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        println!("{}", cmd::USAGE);
        return ExitCode::SUCCESS;
    }
    let Some(&(_, options, switches, run)) = COMMANDS.iter().find(|c| c.0 == command) else {
        eprintln!("error: unknown command `{command}`");
        return ExitCode::FAILURE;
    };
    // A command that reads `--in` also takes its input file as a
    // leading positional argument (`cslack replay run.cfr`).
    let mut rest: Vec<String> = rest.to_vec();
    let reads_input = options.split_whitespace().any(|name| name == "in");
    if reads_input && rest.first().is_some_and(|a| !a.starts_with("--")) {
        rest.insert(0, "--in".to_string());
    }
    let opts = match args::Opts::parse(&rest, options, switches) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", cmd::USAGE);
            return ExitCode::FAILURE;
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
