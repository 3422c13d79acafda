//! End-to-end CLI tests (spawn the real binary).

use std::process::Command;

fn cslack(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cslack"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn ratio_prints_corners_and_phase() {
    let (ok, stdout, _) = cslack(&["ratio", "--m", "2", "--eps", "0.5"]);
    assert!(ok);
    assert!(stdout.contains("corner eps_(1,2) = 0.285714")); // 2/7
    assert!(stdout.contains("phase k = 2"));
    assert!(stdout.contains("f_2 = 3.000000"));
}

#[test]
fn generate_then_simulate_then_opt_round_trip() {
    let dir = std::env::temp_dir().join("cslack-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");
    let path_str = path.to_str().unwrap();

    let (ok, stdout, stderr) = cslack(&[
        "generate", "--m", "2", "--eps", "0.4", "--n", "10", "--seed", "3", "--out", path_str,
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("wrote 10 jobs"));

    let (ok, stdout, stderr) = cslack(&["simulate", "--algo", "threshold", "--trace", path_str]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("threshold: accepted"));
    assert!(stdout.contains("measured ratio"));

    let (ok, stdout, stderr) = cslack(&["opt", "--trace", path_str]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("exact optimum"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn adversary_reports_forced_ratio() {
    let (ok, stdout, _) = cslack(&[
        "adversary",
        "--algo",
        "threshold",
        "--m",
        "1",
        "--eps",
        "0.25",
    ]);
    assert!(ok);
    assert!(stdout.contains("c(eps, m)   : 6.0000"));
    assert!(stdout.contains("ratio/c = 1.00"));
}

#[test]
fn unknown_command_and_algo_fail_cleanly() {
    let (ok, _, stderr) = cslack(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));

    let (ok, _, stderr) = cslack(&["adversary", "--algo", "nope", "--m", "2", "--eps", "0.5"]);
    assert!(!ok);
    assert!(stderr.contains("unknown algorithm"));

    let (ok, _, stderr) = cslack(&["simulate", "--algo", "threshold"]);
    assert!(!ok);
    assert!(stderr.contains("missing required option"));
}

#[test]
fn bad_machine_count_or_slack_exits_1_naming_the_value() {
    let dir = std::env::temp_dir().join("cslack-cli-bad-params");
    std::fs::create_dir_all(&dir).unwrap();
    let swf = dir.join("log.swf");
    std::fs::write(&swf, "1 0 -1 3600 2\n2 1800 -1 7200 4\n").unwrap();
    let swf = swf.to_str().unwrap();
    let out = dir.join("trace.json");
    let out = out.to_str().unwrap();
    // Each of these sampled a workload, sized per-machine state or
    // solved c(eps, m) before anything checked `m`, `eps` or the SWF
    // time scale.
    let import = format!("import-swf --file {swf} --m 2 --eps nan --out {out}");
    let scale = format!("import-swf --file {swf} --m 2 --eps 0.25 --time-scale 0 --out {out}");
    let cases = [
        ("ratio --m 0", "m = 0"),
        ("ratio --m 4 --eps nan", "eps=NaN"),
        ("ratio --m 4 --eps -1", "eps=-1"),
        ("ratio --m 2 --eps inf", "eps=inf"),
        ("simulate --m 0 --eps 0.25 --n 10", "m = 0"),
        ("opt --m 0 --eps 0.25 --n 10", "m = 0"),
        ("cover --m 0 --eps 0.25 --n 10", "m = 0"),
        ("serve-bench --m 0 --eps 0.25 --n 10", "m = 0"),
        ("simulate --m 4 --eps nan --n 10", "eps=NaN"),
        ("serve-bench --m 4 --eps nan --n 10", "eps=NaN"),
        ("adversary --m 0 --eps 0.25", "m = 0"),
        ("adversary --m 4 --eps nan", "eps=NaN"),
        ("tree --m 0 --eps 0.25", "m = 0"),
        ("tree --m 2 --eps nan", "eps=NaN"),
        (import.as_str(), "eps=NaN"),
        (scale.as_str(), "--time-scale 0"),
        ("serve --tenants a:4:nan", "eps=NaN"),
        ("serve --tenants a:4:-1", "eps=-1"),
    ];
    for (argv, names) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_cslack"))
            .args(argv.split_whitespace())
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{argv}: {stderr}");
        assert!(!stderr.contains("panicked"), "{argv}: {stderr}");
        assert!(
            stderr.contains(names),
            "{argv} must name `{names}`: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn import_swf_produces_a_usable_trace() {
    let dir = std::env::temp_dir().join("cslack-cli-swf");
    std::fs::create_dir_all(&dir).unwrap();
    let swf = dir.join("log.swf");
    let out = dir.join("trace.json");
    std::fs::write(
        &swf,
        "; comment\n1 0 -1 3600 2 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1\n\
         2 1800 -1 7200 4 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1\n",
    )
    .unwrap();
    let (ok, stdout, stderr) = cslack(&[
        "import-swf",
        "--file",
        swf.to_str().unwrap(),
        "--m",
        "2",
        "--eps",
        "0.25",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("imported 2 SWF jobs"));
    let (ok, stdout, stderr) = cslack(&["simulate", "--trace", out.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("threshold: accepted"));
    std::fs::remove_file(&swf).ok();
    std::fs::remove_file(&out).ok();
}

#[test]
fn tree_prints_minimax_matching_c() {
    let (ok, stdout, _) = cslack(&["tree", "--m", "2", "--eps", "0.5"]);
    assert!(ok);
    assert!(stdout.contains("minimax = 3.5000"));
    assert!(stdout.contains("Lemma 2"));
}

#[test]
fn cover_reports_intervals() {
    let (ok, stdout, stderr) = cslack(&[
        "cover", "--algo", "greedy", "--m", "1", "--eps", "0.1", "--n", "20", "--seed", "3",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("covered interval"));
}

#[test]
fn help_is_available() {
    let (ok, stdout, _) = cslack(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("threshold"));
}

#[test]
fn serve_bench_writes_trace_and_summary_reproduces_counters() {
    let dir = std::env::temp_dir().join("cslack-cli-obs");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.cfr");
    let metrics = dir.join("metrics.json");
    let prom = dir.join("metrics.prom");
    let (ok, stdout, stderr) = cslack(&[
        "serve-bench",
        "--algo",
        "threshold",
        "--m",
        "4",
        "--shards",
        "2",
        "--eps",
        "0.25",
        "--n",
        "200",
        "--seed",
        "7",
        "--json",
        "--flight-out",
        trace.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--prom-out",
        prom.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("\"flight_dropped\": 0"), "{stdout}");
    assert!(stdout.contains("\"p99_ns\""));
    assert!(stdout.contains("\"rejected_by_reason\""));

    // trace-summary (positional arg) reproduces the engine counters: one
    // decision per submission, and every rejection typed.
    let (ok, summary, stderr) = cslack(&["trace-summary", trace.to_str().unwrap(), "--json"]);
    assert!(ok, "{stderr}");
    assert!(summary.contains("\"decisions\": 200"));
    // Pull accepted/rejected out of the serve-bench JSON and compare.
    let grab = |hay: &str, key: &str| -> u64 {
        let at = hay.find(key).unwrap_or_else(|| panic!("{key} in {hay}"));
        hay[at + key.len()..]
            .trim_start_matches([':', ' '])
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap()
    };
    assert_eq!(
        grab(&summary, "\"accepted\""),
        grab(&stdout, "\"accepted\""),
        "trace-summary must reproduce the engine's accepted counter"
    );
    // The first `unattributed` is the run-wide count: rejections are typed.
    assert_eq!(grab(&summary, "\"unattributed\""), 0, "{summary}");

    // Registry snapshot and Prometheus exposition were written.
    let snap = std::fs::read_to_string(&metrics).unwrap();
    assert!(snap.contains("\"submitted\": 200"));
    assert!(snap.contains("\"decision_latency\""));
    assert!(snap.contains("\"backpressure_stalls\""));
    let exposition = std::fs::read_to_string(&prom).unwrap();
    assert!(exposition.contains("cslack_submitted_total 200"));
    assert!(exposition.contains("# TYPE cslack_stage_duration_ns histogram"));
    assert!(!exposition.contains("cslack_decision_latency_ns"));
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&metrics).ok();
    std::fs::remove_file(&prom).ok();
}

#[test]
fn flight_recording_is_one_record_per_decision() {
    use cslack_obs::flight::RECORD_SIZE;
    let dir = std::env::temp_dir().join("cslack-cli-record-size");
    std::fs::create_dir_all(&dir).unwrap();
    let cfr = dir.join("run.cfr");
    let cfr = cfr.to_str().unwrap();
    let (n, shards) = (300, 2);
    let (ok, stdout, stderr) = cslack(&[
        "serve-bench",
        "--algo",
        "threshold",
        "--m",
        "4",
        "--shards",
        "2",
        "--eps",
        "0.25",
        "--n",
        "300",
        "--seed",
        "7",
        "--json",
        "--flight-out",
        cfr,
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("\"flight_events\": 300"), "{stdout}");
    // Magic and version; m, shards, eps, seed, the algorithm label,
    // submitted, accepted, four reject counters and the block count;
    // a 20-byte header per shard block; the records; the checksum.
    let header = 4 + 4 + 4 + 4 + 8 + 8 + 4 + "threshold".len() + 8 + 8 + 4 * 8 + 4;
    let len = std::fs::metadata(cfr).unwrap().len() as usize;
    assert_eq!(len, header + shards * 20 + n * RECORD_SIZE + 8);
    for command in ["replay", "audit"] {
        let (ok, _, stderr) = cslack(&[command, cfr]);
        assert!(ok, "{command}: {stderr}");
    }
    std::fs::remove_file(cfr).ok();
}

#[test]
fn serve_bench_zero_jobs_reports_all_zero_latency() {
    let (ok, stdout, stderr) = cslack(&[
        "serve-bench",
        "--algo",
        "greedy",
        "--m",
        "2",
        "--shards",
        "1",
        "--eps",
        "0.5",
        "--n",
        "0",
        "--json",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("\"submitted\": 0"), "{stdout}");
    // Empty histograms must report zeros, not uninitialized sentinels.
    assert!(stdout.contains("\"min_ns\": 0"));
    assert!(stdout.contains("\"p99_ns\": 0"));
    assert!(!stdout.contains(&u64::MAX.to_string()));
}

#[test]
fn serve_bench_refuses_oversized_engine_sizes() {
    // Unchecked, the first wraps the ring's power-of-two rounding to a
    // ring with no slots (a hang) and the second overflows the
    // worker's batch buffer outside its fault containment.
    for flag in ["--queue-cap", "--batch"] {
        let max = u64::MAX.to_string();
        let (ok, _, stderr) = cslack(&[
            "serve-bench",
            "--m",
            "4",
            "--shards",
            "1",
            "--eps",
            "0.25",
            "--n",
            "10",
            flag,
            &max,
        ]);
        assert!(!ok, "{flag} {max} must fail");
        assert!(stderr.contains("exceeds the engine ceiling"), "{stderr}");
    }
}

#[test]
fn trace_summary_rejects_garbage_input() {
    let dir = std::env::temp_dir().join("cslack-cli-obs-bad");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.cfr");
    std::fs::write(&bad, "not a flight recording\n").unwrap();
    let (ok, _, stderr) = cslack(&["trace-summary", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("bad magic"), "{stderr}");
    let (ok, _, stderr) = cslack(&["trace-summary"]);
    assert!(!ok);
    assert!(stderr.contains("--in"), "{stderr}");
    std::fs::remove_file(&bad).ok();
}

#[test]
fn cfr_header_with_too_many_machines_exits_1_naming_m() {
    use cslack_obs::flight::{FlightHeader, FlightSnapshot, ShardFlight};
    // One empty shard block under a checksummed header announcing
    // 2^32 - 16 machines: replay and audit would size per-machine
    // state from it.
    let snap = FlightSnapshot {
        header: FlightHeader {
            m: 0xFFFF_FFF0,
            shards: 1,
            eps: 0.25,
            seed: 0,
            algorithm: "threshold".to_string(),
            submitted: 0,
            accepted: 0,
            rejected: Default::default(),
        },
        shards: vec![ShardFlight {
            shard: 0,
            dropped: 0,
            events: vec![],
        }],
    };
    let mut bytes = Vec::new();
    snap.write_cfr(&mut bytes).unwrap();
    assert_eq!(bytes.len(), 125);
    let dir = std::env::temp_dir().join("cslack-cli-huge-m");
    std::fs::create_dir_all(&dir).unwrap();
    let cfr = dir.join("huge-m.cfr");
    std::fs::write(&cfr, &bytes).unwrap();
    for command in ["audit", "replay"] {
        let out = Command::new(env!("CARGO_BIN_EXE_cslack"))
            .args([command, cfr.to_str().unwrap()])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command}: {stderr}");
        assert!(stderr.contains("m = 4294967280"), "{command}: {stderr}");
    }
    std::fs::remove_file(&cfr).ok();
}

#[test]
fn empty_recording_says_no_decisions_recorded() {
    let dir = std::env::temp_dir().join("cslack-cli-empty");
    std::fs::create_dir_all(&dir).unwrap();
    let cfr = dir.join("empty.cfr");
    let cfr = cfr.to_str().unwrap();
    let (ok, _, stderr) = cslack(&[
        "serve-bench",
        "--m",
        "2",
        "--shards",
        "1",
        "--eps",
        "0.5",
        "--n",
        "0",
        "--flight-out",
        cfr,
    ]);
    assert!(ok, "{stderr}");
    for command in ["latency", "trace-summary"] {
        let (ok, stdout, stderr) = cslack(&[command, cfr]);
        assert!(ok, "{command}: {stderr}");
        assert!(
            stdout.contains("no decisions recorded"),
            "{command}: {stdout}"
        );
    }
    std::fs::remove_file(cfr).ok();
}

#[test]
fn misspelled_option_is_refused_by_name() {
    let (ok, _, stderr) = cslack(&[
        "serve-bench",
        "--m",
        "4",
        "--shards",
        "2",
        "--eps",
        "0.25",
        "--n",
        "50",
        "--flight-ouy",
        "x.cfr",
    ]);
    assert!(!ok);
    assert!(stderr.contains("unknown option `--flight-ouy`"), "{stderr}");
    let (ok, _, stderr) = cslack(&["ratio", "--m", "2", "--bogus", "1"]);
    assert!(!ok);
    assert!(stderr.contains("`--bogus`"), "{stderr}");
}

#[test]
fn randomized_algo_machine_mismatch_is_reported() {
    let (ok, _, stderr) = cslack(&[
        "simulate",
        "--algo",
        "randomized",
        "--m",
        "3",
        "--eps",
        "0.2",
        "--n",
        "5",
    ]);
    assert!(!ok);
    assert!(stderr.contains("machine"), "{stderr}");
}

#[test]
fn a_reader_closing_stdout_early_is_not_an_error() {
    use std::io::Read;
    use std::process::Stdio;
    // About 470 KB of JSON: far more than a pipe buffers, so the
    // command is still printing when the reader goes away.
    let mut child = Command::new(env!("CARGO_BIN_EXE_cslack"))
        .args([
            "simulate",
            "--algo",
            "threshold",
            "--m",
            "8",
            "--eps",
            "0.25",
            "--n",
            "2000",
            "--json",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut head = [0u8; 100];
    child
        .stdout
        .take()
        .expect("stdout piped")
        .read_exact(&mut head)
        .expect("the command prints");
    // Dropping the read end closes the pipe, as `| head -c 100` does.
    let out = child.wait_with_output().expect("command exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
