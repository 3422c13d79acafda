//! The cslack wire protocol: length-prefixed little-endian binary
//! frames over TCP.
//!
//! ## Frame layout
//!
//! ```text
//! +--------+---------+------+----------+=========+----------+
//! | magic  | version | type | len      | payload | checksum |
//! | u16 LE | u8      | u8   | u32 LE   | len B   | u64 LE   |
//! +--------+---------+------+----------+=========+----------+
//! ```
//!
//! The checksum ([`checksum`]) covers the 8-byte header and the payload
//! and is verified before the payload is interpreted. From the FNV-1a
//! 64-bit offset basis, it folds in each little-endian `u64` word `w`
//! (then each trailing byte, as a word of its own) as
//! `h = (h ^ w) * P; h ^= h >> 32`, with `P` the FNV 64-bit prime. The
//! multiply by an odd `P` and the xorshift are both invertible, so each
//! step is a bijection of the 64-bit state: any corruption within one
//! word always changes the checksum. The xorshift carries the top bit
//! down; without it a bit-63 difference passes every multiply unchanged,
//! and flipping bit 63 of any two words would cancel. Every two-bit flip
//! of a `Decision` frame is tested exhaustively; wider corruption is
//! caught with probability about 1 − 2⁻⁶⁴, not with certainty.
//!
//! `len` counts payload bytes only and is bounded by [`MAX_FRAME`]; a
//! peer announcing more is cut off without allocating, and below the cap
//! a frame's buffer grows only as its bytes arrive.
//!
//! Within payloads: integers and floats are little-endian and
//! fixed-width, strings are a `u32` byte length followed by UTF-8
//! bytes, `Option<T>` is a `u8` tag (0 absent / 1 present) followed by
//! the value. A `Decision` payload is exactly one flight record
//! ([`RECORD_SIZE`] bytes, encoded by `cslack_obs::flight`), so a
//! decision has one byte layout on the wire, in the flight rings and
//! in `.cfr` files. All decoding is total: any malformed input becomes
//! a typed [`ProtoError`], never a panic, and trailing bytes after a
//! well-formed payload are an error (no smuggling).

use cslack_obs::flight::{
    decode_event, encode_decision, FlightEvent, StampedDecision, RECORD_SIZE,
};
use serde::Serialize;
use std::fmt;
use std::io::{Read, Write};

/// Frame magic: `0xC57A` ("cslack admission", little-endian on the
/// wire as `7A C5`).
pub const MAGIC: u16 = 0xC57A;
/// The protocol version, the only one read or written: `SubmitBatch`
/// carries the client-send timestamp, `Decision` is one 136-byte flight
/// record (stage timeline included), `Retry` marks a transiently
/// refused job whose shard is being resurrected, and the trailer is the
/// 64-bit word [`checksum`]. Every client lives in this repository, so
/// a frame of any other version (1 to 5 are retired; 5 carried a 32-bit
/// byte-wise FNV-1a trailer) is a [`ProtoError::BadVersion`].
pub const VERSION: u8 = 6;
/// Hard cap on a frame's payload length. A `SubmitBatch` of maximum
/// size is ~28 B per job, so this admits batches of ~500k jobs while
/// bounding what a hostile length field can make the server allocate.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 8;
/// Checksum trailer size in bytes.
pub const CHECKSUM_LEN: usize = 8;
/// Longest accepted string field (tenant names, reject details).
pub const MAX_STRING: usize = 4096;
/// The largest frame, header and checksum included, that [`read_frame`]
/// reads into a stack buffer: every `Decision`, `Retry`, `Backpressure`,
/// `Drain` and `StatsRequest`, and short `Hello`s and `Reject`s.
const STACK_FRAME: usize = 256;
/// The most a larger frame's buffer reserves before its payload arrives.
const RESERVE_AHEAD: usize = 64 * 1024;

/// The frame checksum over `bytes`, as the [module docs](self) define
/// it.
pub fn checksum(bytes: &[u8]) -> u64 {
    let (words, tail) = bytes.as_chunks::<8>();
    let mut h = 0xcbf2_9ce4_8422_2325;
    for &word in words {
        h = fold(h, u64::from_le_bytes(word));
    }
    for &b in tail {
        h = fold(h, u64::from(b));
    }
    h
}

/// One [`checksum`] step.
#[inline]
fn fold(mut h: u64, w: u64) -> u64 {
    h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    h ^= h >> 32;
    h
}

/// A job as submitted on the wire. Validated server-side before it
/// touches a scheduler (finite fields, positive processing time) — the
/// submitter is untrusted.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct WireJob {
    /// Tenant-scoped job identifier. It must not be the id of one of the
    /// tenant's undecided jobs, which the server refuses with
    /// [`RejectCode::DuplicateJob`], nor of a job the tenant already
    /// accepted. The server does not check the second case: the job
    /// reaches its shard, whose schedule refuses it as a duplicate
    /// commitment, and the shard dies with a
    /// [`FailureKind::Contract`](cslack_engine::FailureKind) fault. The
    /// id of a rejected job may be reused.
    pub id: u32,
    /// Release date `r_j`.
    pub release: f64,
    /// Processing time `p_j > 0`.
    pub proc_time: f64,
    /// Hard completion deadline `d_j`.
    pub deadline: f64,
}

/// Why the server refused a job (or the whole connection).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum RejectCode {
    /// The byte stream broke framing; the connection closes after this
    /// frame (there is no way to resynchronize).
    Protocol,
    /// The frame parsed but its content is invalid (non-finite job
    /// fields, non-positive processing time, empty batch).
    Malformed,
    /// `Hello` named a tenant this server does not host.
    UnknownTenant,
    /// The job id is already in flight (or repeated within the batch)
    /// for this tenant.
    DuplicateJob,
    /// The job's target shard died to a contained fault; other shards
    /// keep serving.
    ShardFailed,
    /// The tenant's engine has been drained; no further admissions.
    Closed,
    /// The tenant drained while this job was queued; it was never
    /// offered to a scheduler.
    Undecided,
    /// A frame that only makes sense after `Hello` arrived first, or a
    /// `Hello` arrived twice.
    BadState,
}

impl RejectCode {
    const ALL: [RejectCode; 8] = [
        RejectCode::Protocol,
        RejectCode::Malformed,
        RejectCode::UnknownTenant,
        RejectCode::DuplicateJob,
        RejectCode::ShardFailed,
        RejectCode::Closed,
        RejectCode::Undecided,
        RejectCode::BadState,
    ];

    /// Stable machine-readable name.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectCode::Protocol => "protocol",
            RejectCode::Malformed => "malformed",
            RejectCode::UnknownTenant => "unknown_tenant",
            RejectCode::DuplicateJob => "duplicate_job",
            RejectCode::ShardFailed => "shard_failed",
            RejectCode::Closed => "closed",
            RejectCode::Undecided => "undecided",
            RejectCode::BadState => "bad_state",
        }
    }

    fn to_u8(self) -> u8 {
        RejectCode::ALL.iter().position(|&c| c == self).unwrap() as u8
    }

    fn from_u8(v: u8) -> Option<RejectCode> {
        RejectCode::ALL.get(v as usize).copied()
    }
}

/// A tenant's live counters, served in response to `StatsRequest`.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct TenantStats {
    /// Tenant name.
    pub tenant: String,
    /// Jobs offered to the tenant's engine.
    pub submitted: u64,
    /// Jobs admitted.
    pub accepted: u64,
    /// Jobs rejected by the admission algorithm.
    pub rejected: u64,
    /// Submissions that found a full shard queue.
    pub backpressure_stalls: u64,
    /// Jobs submitted but not yet decided.
    pub inflight: u32,
    /// Whether the tenant has been drained.
    pub drained: bool,
}

/// A tenant's final schedule summary, streamed on drain.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct TenantSummary {
    /// Tenant name.
    pub tenant: String,
    /// Total jobs decided.
    pub submitted: u64,
    /// Jobs admitted with a commitment.
    pub accepted: u64,
    /// Jobs rejected.
    pub rejected: u64,
    /// Total processing time admitted (the paper's objective).
    pub accepted_load: f64,
    /// Completion time of the last committed job.
    pub makespan: f64,
    /// Machines in the tenant's cluster.
    pub machines: u32,
    /// Shards lost to contained faults during the run.
    pub failed_shards: u32,
}

/// Every message that travels the wire, in both directions.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client → server: bind this connection to a tenant namespace.
    /// Must be the first frame on a connection.
    Hello {
        /// Tenant to join.
        tenant: String,
    },
    /// Server → client: the tenant's engine parameters, so a client
    /// can reproduce the run offline (the determinism contract).
    HelloAck {
        /// Tenant name (echoed).
        tenant: String,
        /// Machines in the tenant's cluster.
        m: u32,
        /// System slack `eps`.
        eps: f64,
        /// Engine shard count.
        shards: u32,
        /// Base RNG seed (shard `s` derives `seed + s`).
        seed: u64,
        /// Admission algorithm (CLI vocabulary).
        algorithm: String,
        /// Maximum undecided jobs the tenant may have in flight.
        inflight_limit: u32,
    },
    /// Client → server: a batch of jobs to admit, in arrival order.
    SubmitBatch {
        /// The jobs; the whole batch shares one quota check.
        jobs: Vec<WireJob>,
        /// The client's monotonic send stamp, in the *client's* clock
        /// domain (never comparable to server stamps); `0` means
        /// unset.
        client_send_ns: u64,
    },
    /// Server → client: one admission decision, streamed as the engine
    /// makes it, as the same record the flight recorder keeps. Carries
    /// `(shard, seq)` so the client can reconstruct the deterministic
    /// per-shard order, plus the server's stage timeline for the job.
    Decision(StampedDecision),
    /// Server → client: the batch was refused because it would exceed
    /// the tenant's in-flight quota. Retryable — resubmit after
    /// decisions drain the quota.
    Backpressure {
        /// Undecided jobs currently in flight for the tenant.
        inflight: u32,
        /// The tenant's in-flight quota.
        limit: u32,
        /// Jobs in the refused batch.
        refused: u32,
    },
    /// Server → client: a job (or the connection) was refused with a
    /// typed cause. `job` is `None` for connection-level rejections.
    Reject {
        /// The refused job id, when job-scoped.
        job: Option<u32>,
        /// Typed cause.
        code: RejectCode,
        /// Human-readable detail.
        detail: String,
    },
    /// Client → server: ask for the tenant's live counters.
    StatsRequest,
    /// Server → client: the tenant's live counters.
    Stats(TenantStats),
    /// Client → server: gracefully drain this connection's tenant —
    /// finish the engine, decide nothing further, stream the summary.
    Drain,
    /// Server → client: the tenant's final schedule summary.
    Summary(TenantSummary),
    /// Server → client: the job was *not* decided because its target
    /// shard failed and is being resurrected — resubmit it. A transient
    /// condition, unlike the terminal `ShardFailed` reject a
    /// non-recovering server sends.
    Retry {
        /// The job to resubmit.
        job: u32,
    },
}

const TYPE_HELLO: u8 = 0x01;
const TYPE_HELLO_ACK: u8 = 0x02;
const TYPE_SUBMIT_BATCH: u8 = 0x03;
const TYPE_DECISION: u8 = 0x04;
const TYPE_BACKPRESSURE: u8 = 0x05;
const TYPE_REJECT: u8 = 0x06;
const TYPE_STATS_REQUEST: u8 = 0x07;
const TYPE_STATS: u8 = 0x08;
const TYPE_DRAIN: u8 = 0x09;
const TYPE_SUMMARY: u8 = 0x0A;
const TYPE_RETRY: u8 = 0x0B;

impl Frame {
    fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello { .. } => TYPE_HELLO,
            Frame::HelloAck { .. } => TYPE_HELLO_ACK,
            Frame::SubmitBatch { .. } => TYPE_SUBMIT_BATCH,
            Frame::Decision(_) => TYPE_DECISION,
            Frame::Backpressure { .. } => TYPE_BACKPRESSURE,
            Frame::Reject { .. } => TYPE_REJECT,
            Frame::StatsRequest => TYPE_STATS_REQUEST,
            Frame::Stats(_) => TYPE_STATS,
            Frame::Drain => TYPE_DRAIN,
            Frame::Summary(_) => TYPE_SUMMARY,
            Frame::Retry { .. } => TYPE_RETRY,
        }
    }
}

/// Typed decode / framing failures. `Eof` is the *clean* close (the
/// peer hung up between frames); everything else is a protocol fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// Stream closed cleanly at a frame boundary.
    Eof,
    /// Stream closed mid-frame.
    Truncated,
    /// First two header bytes are not [`MAGIC`].
    BadMagic(u16),
    /// Version byte this build does not speak.
    BadVersion(u8),
    /// Announced payload length exceeds [`MAX_FRAME`].
    Oversized(u32),
    /// Checksum mismatch — the frame was corrupted in flight.
    BadChecksum,
    /// Unknown frame type byte.
    UnknownType(u8),
    /// Payload did not decode as its frame type.
    Malformed(&'static str),
    /// Underlying transport error.
    Io(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Eof => write!(f, "connection closed"),
            ProtoError::Truncated => write!(f, "stream closed mid-frame"),
            ProtoError::BadMagic(m) => write!(f, "bad magic {m:#06x}"),
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::Oversized(n) => {
                write!(f, "frame length {n} exceeds cap {MAX_FRAME}")
            }
            ProtoError::BadChecksum => write!(f, "frame checksum mismatch"),
            ProtoError::UnknownType(t) => write!(f, "unknown frame type {t:#04x}"),
            ProtoError::Malformed(what) => write!(f, "malformed payload: {what}"),
            ProtoError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl ProtoError {
    /// Whether the connection can continue after this error. Framing is
    /// length-prefixed, so after any error that reached a full frame
    /// read the stream is still in sync; errors that lose sync (bad
    /// magic, truncation, transport faults) are fatal.
    pub fn is_fatal(&self) -> bool {
        !matches!(self, ProtoError::UnknownType(_) | ProtoError::Malformed(_))
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}
fn put_opt_u32(out: &mut Vec<u8>, v: Option<u32>) {
    match v {
        Some(x) => {
            out.push(1);
            put_u32(out, x);
        }
        None => out.push(0),
    }
}

fn encode_payload(frame: &Frame, out: &mut Vec<u8>) {
    match frame {
        Frame::Hello { tenant } => put_str(out, tenant),
        Frame::HelloAck {
            tenant,
            m,
            eps,
            shards,
            seed,
            algorithm,
            inflight_limit,
        } => {
            put_str(out, tenant);
            put_u32(out, *m);
            put_f64(out, *eps);
            put_u32(out, *shards);
            put_u64(out, *seed);
            put_str(out, algorithm);
            put_u32(out, *inflight_limit);
        }
        Frame::SubmitBatch {
            jobs,
            client_send_ns,
        } => {
            put_u64(out, *client_send_ns);
            put_u32(out, jobs.len() as u32);
            for job in jobs {
                put_u32(out, job.id);
                put_f64(out, job.release);
                put_f64(out, job.proc_time);
                put_f64(out, job.deadline);
            }
        }
        Frame::Decision(d) => out.extend_from_slice(&encode_decision(d)),
        Frame::Backpressure {
            inflight,
            limit,
            refused,
        } => {
            put_u32(out, *inflight);
            put_u32(out, *limit);
            put_u32(out, *refused);
        }
        Frame::Reject { job, code, detail } => {
            put_opt_u32(out, *job);
            out.push(code.to_u8());
            put_str(out, detail);
        }
        Frame::StatsRequest | Frame::Drain => {}
        Frame::Stats(s) => {
            put_str(out, &s.tenant);
            put_u64(out, s.submitted);
            put_u64(out, s.accepted);
            put_u64(out, s.rejected);
            put_u64(out, s.backpressure_stalls);
            put_u32(out, s.inflight);
            out.push(u8::from(s.drained));
        }
        Frame::Summary(s) => {
            put_str(out, &s.tenant);
            put_u64(out, s.submitted);
            put_u64(out, s.accepted);
            put_u64(out, s.rejected);
            put_f64(out, s.accepted_load);
            put_f64(out, s.makespan);
            put_u32(out, s.machines);
            put_u32(out, s.failed_shards);
        }
        Frame::Retry { job } => put_u32(out, *job),
    }
}

/// Encodes a frame into its full wire representation (header, payload,
/// checksum).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    // Sized for a `Decision`, the frame a server sends most.
    let mut buf = Vec::with_capacity(HEADER_LEN + RECORD_SIZE + CHECKSUM_LEN);
    encode_frame_into(frame, &mut buf);
    buf
}

/// Appends a frame's full wire representation to `out` — the
/// allocation-free form of [`encode_frame`] for a writer that batches
/// many frames into one reused buffer.
pub fn encode_frame_into(frame: &Frame, out: &mut Vec<u8>) {
    let start = out.len();
    put_u16(out, MAGIC);
    out.push(VERSION);
    out.push(frame.type_byte());
    put_u32(out, 0); // payload length backpatched below
    encode_payload(frame, out);
    let len = (out.len() - start - HEADER_LEN) as u32;
    out[start + 4..start + 8].copy_from_slice(&len.to_le_bytes());
    let sum = checksum(&out[start..]);
    put_u64(out, sum);
}

/// Encodes and writes a frame. One `write_all`, no interleaving hazard
/// for a single writer.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&encode_frame(frame))
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Bounds-checked little-endian reader over a payload slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ProtoError::Malformed("payload shorter than field"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        if len > MAX_STRING {
            return Err(ProtoError::Malformed("string field over length cap"));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::Malformed("string not UTF-8"))
    }

    fn opt_u32(&mut self) -> Result<Option<u32>, ProtoError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            _ => Err(ProtoError::Malformed("bad option tag")),
        }
    }

    fn bool(&mut self) -> Result<bool, ProtoError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ProtoError::Malformed("bad bool")),
        }
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::Malformed("trailing bytes after payload"))
        }
    }
}

fn decode_payload(type_byte: u8, payload: &[u8]) -> Result<Frame, ProtoError> {
    let mut c = Cursor::new(payload);
    let frame = match type_byte {
        TYPE_HELLO => Frame::Hello {
            tenant: c.string()?,
        },
        TYPE_HELLO_ACK => Frame::HelloAck {
            tenant: c.string()?,
            m: c.u32()?,
            eps: c.f64()?,
            shards: c.u32()?,
            seed: c.u64()?,
            algorithm: c.string()?,
            inflight_limit: c.u32()?,
        },
        TYPE_SUBMIT_BATCH => {
            let client_send_ns = c.u64()?;
            let count = c.u32()? as usize;
            // 28 bytes per encoded job: a count the remaining payload
            // cannot hold is rejected before any allocation sized by it.
            if count > payload.len().saturating_sub(c.pos) / 28 {
                return Err(ProtoError::Malformed("job count exceeds payload"));
            }
            let mut jobs = Vec::with_capacity(count);
            for _ in 0..count {
                jobs.push(WireJob {
                    id: c.u32()?,
                    release: c.f64()?,
                    proc_time: c.f64()?,
                    deadline: c.f64()?,
                });
            }
            Frame::SubmitBatch {
                jobs,
                client_send_ns,
            }
        }
        TYPE_DECISION => match decode_event(c.take(RECORD_SIZE)?) {
            Ok(FlightEvent::Decision(d)) => Frame::Decision(d),
            _ => return Err(ProtoError::Malformed("not a decision record")),
        },
        TYPE_BACKPRESSURE => Frame::Backpressure {
            inflight: c.u32()?,
            limit: c.u32()?,
            refused: c.u32()?,
        },
        TYPE_REJECT => Frame::Reject {
            job: c.opt_u32()?,
            code: RejectCode::from_u8(c.u8()?)
                .ok_or(ProtoError::Malformed("unknown reject code"))?,
            detail: c.string()?,
        },
        TYPE_STATS_REQUEST => Frame::StatsRequest,
        TYPE_STATS => Frame::Stats(TenantStats {
            tenant: c.string()?,
            submitted: c.u64()?,
            accepted: c.u64()?,
            rejected: c.u64()?,
            backpressure_stalls: c.u64()?,
            inflight: c.u32()?,
            drained: c.bool()?,
        }),
        TYPE_DRAIN => Frame::Drain,
        TYPE_RETRY => Frame::Retry { job: c.u32()? },
        TYPE_SUMMARY => Frame::Summary(TenantSummary {
            tenant: c.string()?,
            submitted: c.u64()?,
            accepted: c.u64()?,
            rejected: c.u64()?,
            accepted_load: c.f64()?,
            makespan: c.f64()?,
            machines: c.u32()?,
            failed_shards: c.u32()?,
        }),
        other => return Err(ProtoError::UnknownType(other)),
    };
    c.finish()?;
    Ok(frame)
}

/// Reads exactly `buf.len()` bytes. Distinguishes a clean close before
/// the first byte (`clean_eof` becomes [`ProtoError::Eof`]) from a
/// close mid-read ([`ProtoError::Truncated`]).
fn read_exactly(r: &mut impl Read, buf: &mut [u8], clean_eof: bool) -> Result<(), ProtoError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 && clean_eof {
                    ProtoError::Eof
                } else {
                    ProtoError::Truncated
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e.to_string())),
        }
    }
    Ok(())
}

/// Reads and decodes one frame from `r`.
///
/// Every failure is a typed [`ProtoError`]; malformed or hostile input
/// never panics. The header is validated (magic, [`VERSION`], length
/// cap) before the payload is read, and the checksum before the
/// payload is interpreted. A frame of at most 256 bytes (every
/// `Decision`) is read without touching the heap; a larger one reserves
/// at most 64 KiB before its payload arrives and grows as it does, so a
/// header announcing [`MAX_FRAME`] bytes and then going quiet costs no
/// more than that.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, ProtoError> {
    let mut stack = [0u8; STACK_FRAME];
    read_exactly(r, &mut stack[..HEADER_LEN], true)?;
    let magic = u16::from_le_bytes([stack[0], stack[1]]);
    if magic != MAGIC {
        return Err(ProtoError::BadMagic(magic));
    }
    if stack[2] != VERSION {
        return Err(ProtoError::BadVersion(stack[2]));
    }
    let type_byte = stack[3];
    let len = u32::from_le_bytes([stack[4], stack[5], stack[6], stack[7]]);
    if len > MAX_FRAME {
        return Err(ProtoError::Oversized(len));
    }
    let body_len = HEADER_LEN + len as usize;
    let frame_len = body_len + CHECKSUM_LEN;
    let heap;
    let frame = if frame_len <= STACK_FRAME {
        read_exactly(r, &mut stack[HEADER_LEN..frame_len], false)?;
        &stack[..frame_len]
    } else {
        heap = read_growing(r, &stack[..HEADER_LEN], frame_len)?;
        &heap[..]
    };
    let (body, sum) = frame.split_at(body_len);
    if checksum(body).to_le_bytes() != sum {
        return Err(ProtoError::BadChecksum);
    }
    decode_payload(type_byte, &body[HEADER_LEN..])
}

/// Reads the rest of a `frame_len`-byte frame after its `header`, into
/// a buffer that reserves at most `RESERVE_AHEAD` bytes up front and
/// grows as the rest arrives.
fn read_growing(r: &mut impl Read, header: &[u8], frame_len: usize) -> Result<Vec<u8>, ProtoError> {
    let mut buf = Vec::with_capacity(frame_len.min(RESERVE_AHEAD));
    buf.extend_from_slice(header);
    r.take((frame_len - header.len()) as u64)
        .read_to_end(&mut buf)
        .map_err(|e| ProtoError::Io(e.to_string()))?;
    if buf.len() < frame_len {
        return Err(ProtoError::Truncated);
    }
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a `Decision` frame's checksum covers: its header and
    /// payload, without the trailer.
    fn decision_frame_body() -> Vec<u8> {
        let mut bytes = encode_frame(&stamped());
        bytes.truncate(bytes.len() - CHECKSUM_LEN);
        assert_eq!(bytes.len(), HEADER_LEN + RECORD_SIZE);
        bytes
    }

    #[test]
    fn every_two_bit_flip_of_a_decision_frame_changes_the_checksum() {
        let mut bytes = decision_frame_body();
        let sum = checksum(&bytes);
        let bits = bytes.len() * 8;
        let mut pairs = 0;
        for i in 0..bits {
            bytes[i / 8] ^= 1 << (i % 8);
            for j in i + 1..bits {
                bytes[j / 8] ^= 1 << (j % 8);
                assert_ne!(checksum(&bytes), sum, "bits {i} and {j} flipped");
                bytes[j / 8] ^= 1 << (j % 8);
                pairs += 1;
            }
            bytes[i / 8] ^= 1 << (i % 8);
        }
        assert_eq!(pairs, 662_976);
    }

    /// Plain word-wise FNV, without the xorshift, carries a bit-63
    /// difference through every multiply unchanged, so a second one
    /// cancels it.
    #[test]
    fn top_bit_flips_in_two_words_change_the_checksum() {
        let bytes = decision_frame_body();
        let sum = checksum(&bytes);
        let words = bytes.len() / 8;
        for a in 0..words {
            for b in a + 1..words {
                let mut flipped = bytes.clone();
                flipped[a * 8 + 7] ^= 0x80;
                flipped[b * 8 + 7] ^= 0x80;
                assert_ne!(checksum(&flipped), sum, "words {a} and {b}");
            }
        }
    }

    #[test]
    fn round_trip_simple_frames() {
        for frame in [
            Frame::Hello {
                tenant: "alpha".into(),
            },
            Frame::StatsRequest,
            Frame::Drain,
            Frame::Backpressure {
                inflight: 3,
                limit: 8,
                refused: 5,
            },
            Frame::Retry { job: 17 },
        ] {
            let bytes = encode_frame(&frame);
            let back = read_frame(&mut bytes.as_slice()).unwrap();
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn corrupted_byte_is_a_checksum_error() {
        let mut bytes = encode_frame(&Frame::Hello {
            tenant: "alpha".into(),
        });
        let mid = HEADER_LEN + 2;
        bytes[mid] ^= 0x40;
        assert_eq!(
            read_frame(&mut bytes.as_slice()),
            Err(ProtoError::BadChecksum)
        );
    }

    #[test]
    fn clean_close_is_eof_not_truncated() {
        assert_eq!(read_frame(&mut (&[][..])), Err(ProtoError::Eof));
        let bytes = encode_frame(&Frame::Drain);
        assert_eq!(read_frame(&mut &bytes[..3]), Err(ProtoError::Truncated));
    }

    fn stamped() -> Frame {
        use cslack_obs::timeline::TimelineStamps;
        use cslack_obs::trace::DecisionEvent;
        Frame::Decision(StampedDecision::new(
            DecisionEvent {
                seq: 7,
                job: 42,
                shard: 1,
                release: 0.0,
                proc_time: 2.0,
                deadline: 9.0,
                candidates: 3,
                threshold: Some(1.5),
                min_load: Some(0.5),
                accepted: true,
                machine: Some(2),
                start: Some(0.25),
                reject_reason: None,
            },
            TimelineStamps([10, 20, 30, 40, 50, 60, 70]),
        ))
    }

    #[test]
    fn frames_round_trip_stamps_and_client_send() {
        let batch = Frame::SubmitBatch {
            jobs: vec![WireJob {
                id: 1,
                release: 0.0,
                proc_time: 1.0,
                deadline: 3.0,
            }],
            client_send_ns: 12_345,
        };
        for frame in [batch, stamped()] {
            let bytes = encode_frame(&frame);
            let back = read_frame(&mut bytes.as_slice()).unwrap();
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn frames_appended_to_one_buffer_read_back_in_order() {
        let frames = [stamped(), Frame::Retry { job: 3 }, stamped()];
        let mut buf = b"already queued".to_vec();
        let queued = buf.len();
        for frame in &frames {
            encode_frame_into(frame, &mut buf);
        }
        let separate: Vec<u8> = frames.iter().flat_map(encode_frame).collect();
        assert_eq!(&buf[queued..], &separate[..]);
        let mut stream = &buf[queued..];
        for frame in &frames {
            assert_eq!(&read_frame(&mut stream).unwrap(), frame);
        }
        assert_eq!(read_frame(&mut stream), Err(ProtoError::Eof));
    }

    #[test]
    fn future_versions_are_rejected() {
        let mut bytes = encode_frame(&Frame::Drain);
        bytes[2] = VERSION + 1;
        // Checksum covers the header, so repair it after the bump.
        let body = bytes.len() - CHECKSUM_LEN;
        let sum = checksum(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            read_frame(&mut bytes.as_slice()),
            Err(ProtoError::BadVersion(VERSION + 1))
        );
    }
}
