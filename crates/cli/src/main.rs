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

fn main() -> ExitCode {
    // Pin the uptime base before any work so every subcommand's
    // `/metrics` exposition reports uptime from process start.
    cslack_obs::metrics::mark_process_start();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{}", cmd::USAGE);
        return ExitCode::FAILURE;
    };
    // `trace-summary`, `replay`, `audit`, `latency` and `watch` take
    // their input file as a positional argument (`cslack replay
    // run.cfr`); rewrite it to `--in`.
    let mut rest: Vec<String> = rest.to_vec();
    if matches!(
        command.as_str(),
        "trace-summary" | "replay" | "audit" | "latency" | "watch"
    ) {
        if let Some(first) = rest.first() {
            if !first.starts_with("--") {
                rest.insert(0, "--in".to_string());
            }
        }
    }
    let opts = match args::Opts::parse_with_flags(
        &rest,
        &[
            "json",
            "flight-audit",
            "exit-when-drained",
            "no-drain",
            "once",
            "follow",
            "recover",
        ],
    ) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", cmd::USAGE);
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "ratio" => cmd::ratio(&opts),
        "generate" => cmd::generate(&opts),
        "simulate" => cmd::simulate(&opts),
        "serve-bench" => cmd::serve_bench(&opts),
        "serve" => cmd::serve(&opts),
        "loadgen" => cmd::loadgen(&opts),
        "trace-summary" => cmd::trace_summary(&opts),
        "replay" => cmd::replay(&opts),
        "audit" => cmd::audit(&opts),
        "latency" => cmd::latency(&opts),
        "watch" => watch::watch(&opts),
        "adversary" => cmd::adversary(&opts),
        "opt" => cmd::opt(&opts),
        "import-swf" => cmd::import_swf(&opts),
        "tree" => cmd::tree(&opts),
        "cover" => cmd::cover(&opts),
        "help" | "--help" | "-h" => {
            println!("{}", cmd::USAGE);
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
