//! A server start that fails leaves nothing behind: no thread, no bound
//! port, no tenant engine.
//!
//! It looks for the server's threads by name, so it runs in a test
//! binary of its own: a test running in parallel in the same process
//! would start threads of the same names.
#![cfg(target_os = "linux")]

use cslack_server::{Server, ServerConfig, TenantSpec};
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// Names of this process's threads still running whose name is one of
/// `names`. Linux keeps the first 15 bytes of a thread's name.
fn running(names: &[&str]) -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("list threads")
        .filter_map(|task| {
            let comm = std::fs::read_to_string(task.ok()?.path().join("comm")).ok()?;
            let comm = comm.trim_end();
            names.contains(&comm).then(|| comm.to_string())
        })
        .collect()
}

#[test]
fn a_taken_telemetry_port_fails_the_start_and_leaves_nothing_running() {
    // A port that was free a moment ago, for the admission listener.
    let listen = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("pick a free port");
    let taken = TcpListener::bind("127.0.0.1:0").expect("bind the telemetry port first");
    let telemetry = taken.local_addr().unwrap();

    let err = match Server::start(ServerConfig {
        listen,
        telemetry: Some(telemetry),
        tenants: vec![TenantSpec::new("t", 4, 0.25)],
    }) {
        Ok(_) => panic!("a taken telemetry port must fail the start"),
        Err(err) => err,
    };
    assert!(
        err.contains(&format!("bind telemetry {telemetry}")),
        "error names the telemetry bind: {err}"
    );

    // The admission port is free again at once.
    TcpListener::bind(listen).expect("admission port released");

    let threads = ["cslack-accept", "cslack-shard-0", "cslack-observat"];
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let left = running(&threads);
        if left.is_empty() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "threads outlive the failed start: {left:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(taken);
}
