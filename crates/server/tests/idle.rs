//! An idle server's accept loops sleep in `accept` until a connection
//! or the stop wakes them.
//!
//! It finds the loops by their thread names, so it runs in a test binary
//! of its own: a test running in parallel in the same process would
//! start a `cslack-accept` of its own.
#![cfg(target_os = "linux")]

use cslack_server::client::Connection;
use cslack_server::{Server, ServerConfig, TenantSpec};
use std::time::{Duration, Instant};

/// The thread id of this process's thread named `name`, once it has
/// started. Linux keeps the first 15 bytes of a thread's name.
fn thread_named(name: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        for task in std::fs::read_dir("/proc/self/task").expect("list threads") {
            let task = task.expect("thread entry").path();
            let comm = std::fs::read_to_string(task.join("comm")).unwrap_or_default();
            if comm.trim_end() == name {
                return task.file_name().unwrap().to_string_lossy().into_owned();
            }
        }
        assert!(Instant::now() < deadline, "no thread named {name}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// How many times thread `tid` has given up the CPU of its own accord.
fn voluntary_switches(tid: &str) -> u64 {
    let status =
        std::fs::read_to_string(format!("/proc/self/task/{tid}/status")).expect("thread status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
        .expect("voluntary_ctxt_switches line")
        .trim()
        .parse()
        .expect("a count")
}

#[test]
fn idle_accept_loops_do_not_wake_up_and_stop_at_once() {
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".parse().unwrap(),
        telemetry: Some("127.0.0.1:0".parse().unwrap()),
        tenants: vec![TenantSpec::new("t", 4, 0.25)],
    })
    .expect("server start");
    let loops = ["cslack-accept", "cslack-server-t"].map(|name| (name, thread_named(name)));
    let before = loops.clone().map(|(_, tid)| voluntary_switches(&tid));
    std::thread::sleep(Duration::from_millis(500));
    for ((name, tid), before) in loops.iter().zip(before) {
        let woke = voluntary_switches(tid) - before;
        assert!(woke <= 10, "idle {name} woke {woke} times in 500 ms");
    }
    let mut conn = Connection::connect(server.addr()).expect("connect");
    conn.hello("t").expect("hello");
    let start = Instant::now();
    server.shutdown();
    let took = start.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
}
