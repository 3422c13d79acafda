//! `read_frame` allocates as a frame's bytes arrive, not as its header
//! announces: a hostile header cannot make a reader reserve the whole
//! [`MAX_FRAME`] before sending a payload byte.
//!
//! The global allocator below records the largest request any thread
//! makes, so this runs in a test binary of its own, and its tests take
//! turns.

use cslack_server::proto::{
    encode_frame, read_frame, Frame, ProtoError, WireJob, MAGIC, MAX_FRAME, VERSION,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// [`System`], recording the largest size it is asked for.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments;
// recording a size touches only an atomic.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// Held by each test, so one test's allocations never land in another's
/// measurement.
static TURN: Mutex<()> = Mutex::new(());

#[test]
fn a_header_announcing_max_frame_then_eof_reserves_at_most_64_kib() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let mut header = Vec::new();
    header.extend_from_slice(&MAGIC.to_le_bytes());
    header.push(VERSION);
    header.push(0x03); // SubmitBatch
    header.extend_from_slice(&MAX_FRAME.to_le_bytes());
    LARGEST.store(0, Ordering::Relaxed);
    let read = read_frame(&mut header.as_slice());
    let largest = LARGEST.load(Ordering::Relaxed);
    assert_eq!(read, Err(ProtoError::Truncated));
    assert!(
        largest <= 64 * 1024,
        "a bare header made the reader ask for {largest} bytes"
    );
}

#[test]
fn a_submit_batch_of_40_000_jobs_round_trips() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let frame = Frame::SubmitBatch {
        jobs: (0..40_000)
            .map(|id| WireJob {
                id,
                release: f64::from(id),
                proc_time: 1.5,
                deadline: f64::from(id) + 4.0,
            })
            .collect(),
        client_send_ns: 99,
    };
    let bytes = encode_frame(&frame);
    assert!(bytes.len() > 1_100_000, "{} bytes", bytes.len());
    assert_eq!(read_frame(&mut bytes.as_slice()), Ok(frame));
}
