//! The one writer every command prints through (the crate's `print!`
//! and `println!`). A reader that closes the pipe early (`cslack
//! simulate ... --json | head -c 100`) ends the output, not the
//! command: `BrokenPipe` counts as success and later prints are
//! skipped. Any other write error panics, as `std::println!` does.

use std::io::{ErrorKind, Write};
use std::sync::atomic::{AtomicBool, Ordering};

/// Set once stdout's reader has gone away.
static CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes formatted output to stdout.
pub(crate) fn print(args: std::fmt::Arguments<'_>) {
    if !CLOSED.load(Ordering::Relaxed) {
        settle(std::io::stdout().lock().write_fmt(args));
    }
}

/// Flushes stdout, for output a pipe reader needs before the command
/// exits.
pub(crate) fn flush() {
    if !CLOSED.load(Ordering::Relaxed) {
        settle(std::io::stdout().flush());
    }
}

fn settle(written: std::io::Result<()>) {
    match written {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => CLOSED.store(true, Ordering::Relaxed),
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}
