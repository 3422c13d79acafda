//! The **flight recorder**: a bounded binary ring capturing the complete
//! causal record of an engine run, snapshottable to a `.cfr` file.
//!
//! Under the paper's immediate commitment an accept fixes machine and
//! start the moment the job arrives, so one record per decision is the
//! whole life cycle:
//!
//! * [`FlightEvent::Decision`] — the full [`DecisionEvent`] the shard
//!   produced: the job triple (arrival order *and* shard routing are
//!   thereby recorded), candidates, threshold, min-load and, for an
//!   accept, the irrevocable `(machine, start)` in global machine ids;
//! * [`FlightEvent::Submission`] — a job that entered a shard's decision
//!   loop but never got a decision: the one a crash dump records for the
//!   job that tripped the fault.
//!
//! Together they are enough to *replay* the run (rebuild the per-shard
//! submission streams, re-run the scheduler, compare decision streams
//! bit for bit) and to *audit* it (recheck every schedule invariant and
//! the threshold admission rule from the trace alone) — see
//! `cslack_sim::audit`.
//!
//! Each shard writes its own lock-free [`SharedFlightRing`], one
//! compact [`RECORD_SIZE`]-byte record per decision; the ring is
//! allocated and touched at construction, so recording never allocates
//! or page-faults. A snapshot holds exactly the records the ring holds.
//! When the ring is full the oldest record is overwritten and counted
//! in [`SharedFlightRing::dropped`] — a long run keeps the most recent
//! window instead of stalling the shard. Every reader — live snapshots,
//! crash dumps, recovery and the quality observatory — goes through one
//! seqlock loop, which copies the records pushed since a
//! [`FlightCursor`] in bounded chunks: whole records for
//! [`SharedFlightRing::read_since`], and for the observatory's
//! [`SharedFlightRing::read_decided_since`] only the four words it
//! scores.
//!
//! The `.cfr` ("cslack flight recording") container holds a header with
//! the run parameters needed for deterministic replay (`m`, shard
//! count, `eps`, seed, algorithm label) plus the engine's own counters,
//! followed by one record block per shard, and ends in an FNV-1a
//! checksum so a truncated or bit-flipped file is rejected on read.

use crate::timeline::{TimelineStamps, STAGES};
use crate::trace::{DecisionEvent, RejectCounts, RejectReason};
use std::io::{Read, Write};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};

/// Size in bytes of one encoded flight record: the decision fields plus
/// one u64 timeline stamp per [`crate::timeline::Stage`].
pub const RECORD_SIZE: usize = STAMPS_OFFSET + STAGES * 8;

/// Byte offset of the timeline stamps within a record.
const STAMPS_OFFSET: usize = 80;

/// Byte offsets of the job triple within a record.
const RELEASE_OFFSET: usize = 24;
const PROC_TIME_OFFSET: usize = 32;
const DEADLINE_OFFSET: usize = 40;

/// The largest machine count a `.cfr` header may announce (and an
/// engine may run): replay and audit size per-machine state from the
/// header, so a larger `m` is refused before anything is allocated.
pub const MAX_MACHINES: usize = 1 << 16;

/// Magic bytes opening a `.cfr` file.
pub const CFR_MAGIC: &[u8; 4] = b"CFR1";

/// The `.cfr` container version, the only one read or written
/// (stage-stamped [`RECORD_SIZE`]-byte records).
pub const CFR_VERSION: u32 = 3;

const KIND_SUBMISSION: u8 = 0;
const KIND_DECISION: u8 = 1;

const FLAG_ACCEPTED: u8 = 1 << 0;
const FLAG_THRESHOLD: u8 = 1 << 1;
const FLAG_MIN_LOAD: u8 = 1 << 2;
const FLAG_PLACEMENT: u8 = 1 << 3;
const FLAG_REJECT_REASON: u8 = 1 << 4;

/// A [`DecisionEvent`] plus its per-stage timeline stamps — the one
/// record of a decision, whether it sits in a flight ring, a `.cfr`
/// file or a wire `Decision` frame.
///
/// The stamps time the decision but never change it, so replay and the
/// audit's bit-identity checks read only the event; `StampedDecision`
/// derefs to its [`DecisionEvent`], so read sites keep saying
/// `d.accepted`, `d.threshold`, and so on.
#[derive(Clone, Debug, PartialEq)]
pub struct StampedDecision {
    /// The decision the shard produced.
    pub event: DecisionEvent,
    /// Nanosecond stamps per pipeline stage (0 = the hop never stamped).
    pub stamps: TimelineStamps,
}

impl StampedDecision {
    /// Pairs a decision with its stamps.
    pub fn new(event: DecisionEvent, stamps: TimelineStamps) -> StampedDecision {
        StampedDecision { event, stamps }
    }
}

impl Deref for StampedDecision {
    type Target = DecisionEvent;

    fn deref(&self) -> &DecisionEvent {
        &self.event
    }
}

impl DerefMut for StampedDecision {
    fn deref_mut(&mut self) -> &mut DecisionEvent {
        &mut self.event
    }
}

/// One entry of the causal flight record.
#[derive(Clone, Debug, PartialEq)]
pub enum FlightEvent {
    /// A job entered `shard`'s decision loop as its `seq`-th submission
    /// and its decision never completed: the failing job a crash dump
    /// records.
    Submission {
        /// Per-shard arrival index (0-based).
        seq: u64,
        /// The deciding shard.
        shard: u32,
        /// Job id.
        job: u32,
        /// Release time `r_j`.
        release: f64,
        /// Processing time `p_j`.
        proc_time: f64,
        /// Deadline `d_j`.
        deadline: f64,
    },
    /// The decision the shard produced for its `seq`-th submission,
    /// with its stage-resolved timeline stamps.
    Decision(StampedDecision),
}

fn reject_reason_code(r: RejectReason) -> u8 {
    match r {
        RejectReason::ThresholdExceeded => 0,
        RejectReason::NoFeasibleMachine => 1,
        RejectReason::PolicyFiltered => 2,
        RejectReason::Unattributed => 3,
    }
}

fn reject_reason_from_code(code: u8) -> Result<RejectReason, String> {
    Ok(match code {
        0 => RejectReason::ThresholdExceeded,
        1 => RejectReason::NoFeasibleMachine,
        2 => RejectReason::PolicyFiltered,
        3 => RejectReason::Unattributed,
        other => return Err(format!("unknown reject-reason code {other}")),
    })
}

/// Encodes one event into its fixed-size binary record.
///
/// Layout (little-endian; 17 words):
/// ```text
/// off  len  field
///   0    1  kind (0 submission, 1 decision)
///   1    1  flags (accepted / threshold / min_load / placement / reason)
///   2    1  reject reason code (valid when flagged)
///   3    1  reserved (0)
///   4    4  shard         u32
///   8    8  seq           u64
///  16    4  job           u32
///  20    4  candidates    u32
///  24    8  release       f64
///  32    8  proc_time     f64
///  40    8  deadline      f64
///  48    8  threshold     f64 (valid when flagged)
///  56    8  min_load      f64 (valid when flagged)
///  64    4  machine       u32 (valid when flagged)
///  68    4  reserved (0)
///  72    8  start         f64 (valid when flagged)
///  80   56  timeline stamps, 7 × u64 ns in stage order (0 = absent)
/// ```
///
/// A submission fills only the first 48 bytes.
pub fn encode_event(event: &FlightEvent) -> [u8; RECORD_SIZE] {
    let mut rec = [0u8; RECORD_SIZE];
    match event {
        FlightEvent::Submission {
            seq,
            shard,
            job,
            release,
            proc_time,
            deadline,
        } => {
            let mut put = |off: usize, bytes: &[u8]| {
                rec[off..off + bytes.len()].copy_from_slice(bytes);
            };
            put(0, &[KIND_SUBMISSION]);
            put(4, &shard.to_le_bytes());
            put(8, &seq.to_le_bytes());
            put(16, &job.to_le_bytes());
            put(RELEASE_OFFSET, &release.to_le_bytes());
            put(PROC_TIME_OFFSET, &proc_time.to_le_bytes());
            put(DEADLINE_OFFSET, &deadline.to_le_bytes());
        }
        FlightEvent::Decision(sd) => encode_decision_to(&mut rec, &sd.event, &sd.stamps),
    }
    rec
}

/// Encodes one decision as its [`RECORD_SIZE`]-byte record — the
/// payload of the wire `Decision` frame, byte for byte the record a
/// flight ring and a `.cfr` file hold.
pub fn encode_decision(d: &StampedDecision) -> [u8; RECORD_SIZE] {
    let mut rec = [0u8; RECORD_SIZE];
    encode_decision_to(&mut rec, &d.event, &d.stamps);
    rec
}

/// Encodes a decision record from its parts — the hot-path encoder
/// behind [`encode_event`], [`encode_decision`] and
/// [`SharedFlightRing::record_decision`] (which skips building the
/// [`FlightEvent`] wrapper entirely).
#[inline]
fn encode_decision_to(rec: &mut [u8], d: &DecisionEvent, stamps: &TimelineStamps) {
    let put_u32 = |rec: &mut [u8], off: usize, v: u32| {
        rec[off..off + 4].copy_from_slice(&v.to_le_bytes());
    };
    let put_u64 = |rec: &mut [u8], off: usize, v: u64| {
        rec[off..off + 8].copy_from_slice(&v.to_le_bytes());
    };
    let put_f64 = |rec: &mut [u8], off: usize, v: f64| {
        rec[off..off + 8].copy_from_slice(&v.to_le_bytes());
    };
    rec[0] = KIND_DECISION;
    let mut flags = 0u8;
    if d.accepted {
        flags |= FLAG_ACCEPTED;
    }
    if d.threshold.is_some() {
        flags |= FLAG_THRESHOLD;
    }
    if d.min_load.is_some() {
        flags |= FLAG_MIN_LOAD;
    }
    if d.machine.is_some() && d.start.is_some() {
        flags |= FLAG_PLACEMENT;
    }
    if let Some(reason) = d.reject_reason {
        flags |= FLAG_REJECT_REASON;
        rec[2] = reject_reason_code(reason);
    }
    rec[1] = flags;
    put_u32(rec, 4, d.shard as u32);
    put_u64(rec, 8, d.seq);
    put_u32(rec, 16, d.job);
    put_u32(rec, 20, d.candidates);
    put_f64(rec, RELEASE_OFFSET, d.release);
    put_f64(rec, PROC_TIME_OFFSET, d.proc_time);
    put_f64(rec, DEADLINE_OFFSET, d.deadline);
    put_f64(rec, 48, d.threshold.unwrap_or(0.0));
    put_f64(rec, 56, d.min_load.unwrap_or(0.0));
    put_u32(rec, 64, d.machine.unwrap_or(0));
    put_f64(rec, 72, d.start.unwrap_or(0.0));
    for (i, &stamp) in stamps.0.iter().enumerate() {
        put_u64(rec, STAMPS_OFFSET + i * 8, stamp);
    }
}

/// A record's validated first word: kind, flags and reject reason.
/// Nothing else in a [`RECORD_SIZE`]-byte record can fail to decode, so
/// both ring readers validate through this and count the same records
/// as lost.
struct RecordHead {
    kind: u8,
    flags: u8,
    reject_reason: Option<RejectReason>,
}

impl RecordHead {
    fn decode(word: [u8; 8]) -> Result<RecordHead, String> {
        let [kind, flags, reason, ..] = word;
        let reject_reason = match kind {
            KIND_DECISION if flags & FLAG_REJECT_REASON != 0 => {
                Some(reject_reason_from_code(reason)?)
            }
            KIND_SUBMISSION | KIND_DECISION => None,
            other => return Err(format!("unknown flight record kind {other}")),
        };
        Ok(RecordHead {
            kind,
            flags,
            reject_reason,
        })
    }
}

/// Decodes one [`RECORD_SIZE`]-byte record back into its event.
pub fn decode_event(rec: &[u8]) -> Result<FlightEvent, String> {
    if rec.len() != RECORD_SIZE {
        return Err(format!(
            "flight record must be {RECORD_SIZE} bytes, got {}",
            rec.len()
        ));
    }
    let get_u32 = |off: usize| u32::from_le_bytes(rec[off..off + 4].try_into().unwrap());
    let get_u64 = |off: usize| u64::from_le_bytes(rec[off..off + 8].try_into().unwrap());
    let get_f64 = |off: usize| f64::from_le_bytes(rec[off..off + 8].try_into().unwrap());
    let head = RecordHead::decode(rec[..8].try_into().unwrap())?;
    let flags = head.flags;
    let shard = get_u32(4);
    let seq = get_u64(8);
    let job = get_u32(16);
    Ok(match head.kind {
        KIND_SUBMISSION => FlightEvent::Submission {
            seq,
            shard,
            job,
            release: get_f64(RELEASE_OFFSET),
            proc_time: get_f64(PROC_TIME_OFFSET),
            deadline: get_f64(DEADLINE_OFFSET),
        },
        // `RecordHead::decode` admits no other kind.
        _ => {
            let mut stamps = TimelineStamps::empty();
            for (i, slot) in stamps.0.iter_mut().enumerate() {
                *slot = get_u64(STAMPS_OFFSET + i * 8);
            }
            FlightEvent::Decision(StampedDecision {
                event: DecisionEvent {
                    seq,
                    job,
                    shard: shard as usize,
                    release: get_f64(RELEASE_OFFSET),
                    proc_time: get_f64(PROC_TIME_OFFSET),
                    deadline: get_f64(DEADLINE_OFFSET),
                    candidates: get_u32(20),
                    threshold: (flags & FLAG_THRESHOLD != 0).then(|| get_f64(48)),
                    min_load: (flags & FLAG_MIN_LOAD != 0).then(|| get_f64(56)),
                    accepted: flags & FLAG_ACCEPTED != 0,
                    machine: (flags & FLAG_PLACEMENT != 0).then(|| get_u32(64)),
                    start: (flags & FLAG_PLACEMENT != 0).then(|| get_f64(72)),
                    reject_reason: head.reject_reason,
                },
                stamps,
            })
        }
    })
}

/// What the quality observatory scores of one decision: the job triple
/// and whether it was admitted. [`SharedFlightRing::read_decided_since`]
/// copies just these four of a record's words.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DecidedJob {
    /// Release time `r_j`.
    pub release: f64,
    /// Processing time `p_j`.
    pub proc_time: f64,
    /// Deadline `d_j`.
    pub deadline: f64,
    /// Whether the job was admitted.
    pub accepted: bool,
}

impl From<&DecisionEvent> for DecidedJob {
    fn from(d: &DecisionEvent) -> DecidedJob {
        DecidedJob {
            release: d.release,
            proc_time: d.proc_time,
            deadline: d.deadline,
            accepted: d.accepted,
        }
    }
}

const RECORD_WORDS: usize = RECORD_SIZE / 8;

/// The head word and the job triple: what
/// [`SharedFlightRing::read_decided_since`] copies.
const DECIDED_WORDS: [usize; 4] = [
    0,
    RELEASE_OFFSET / 8,
    PROC_TIME_OFFSET / 8,
    DEADLINE_OFFSET / 8,
];

/// Records a ring read copies per seqlock validation: the size of a
/// [`FlightCursor`]'s scratch buffer.
const READ_CHUNK: usize = 256;

/// A bounded **single-writer, lock-free** ring of encoded flight
/// records, readable from any thread without stopping the writer.
///
/// This is the shape the engine's hot path wants: the shard worker owns
/// the write side exclusively and appends with plain relaxed word
/// stores — no mutex, no CAS loop, no allocation (the whole buffer is
/// one `Box<[AtomicU64]>`, written once at construction so every page
/// is touched before the first decision). Records are stored in their
/// [`RECORD_SIZE`]-byte encoding, one `u64` word per 8 bytes of a slot.
///
/// Every record has a **push ordinal** — 0 for the first record ever
/// pushed, 1 for the next — and ordinal `k` lives in slot `k % cap`.
/// The writer publishes in two regimes:
///
/// * **Append** (fewer than `cap` pushes): the writer fills the slot's
///   words, then publishes with `pushed.store(k + 1, Release)`. A
///   reader loads `pushed` with `Acquire` and only reads ordinals below
///   it — a slot is never mutated again until the ring wraps.
/// * **Wrap**: push `cap + w` overwrites the slot of ordinal `w`, data
///   a reader may be copying. The writer brackets the overwrite in a
///   seqlock: `wrap_seq` goes to `2w + 1`, the slot is written,
///   `wrap_seq` goes to `2w + 2`. So `wrap_seq.div_ceil(2)` is always
///   the oldest ordinal whose slot no overwrite has started on.
///
/// Readers never retry. A read copies a chunk, then reads `wrap_seq`
/// behind an `Acquire` fence: every copied ordinal below
/// `wrap_seq.div_ceil(2)` may be torn and is dropped and counted as
/// lost; every ordinal at or above it was copied intact.
#[derive(Debug)]
pub struct SharedFlightRing {
    cap: usize,
    /// Records pushed so far (fully written; monotone).
    pushed: AtomicU64,
    /// The slot the next overwrite goes to (writer-private).
    head: AtomicUsize,
    /// Seqlock word guarding wrap-path overwrites: two per overwrite,
    /// odd while the writer is inside a slot.
    wrap_seq: AtomicU64,
    buf: Box<[AtomicU64]>,
}

/// A reader's position in one [`SharedFlightRing`]'s push sequence,
/// plus the scratch buffer its reads copy through (one chunk, reused
/// across reads, independent of the ring's size).
#[derive(Debug)]
pub struct FlightCursor {
    /// Push ordinal of the next record to read.
    next: u64,
    /// Records copied per seqlock validation.
    chunk: usize,
    scratch: Vec<u64>,
}

impl Default for FlightCursor {
    fn default() -> FlightCursor {
        FlightCursor::new()
    }
}

impl FlightCursor {
    /// A cursor at the first record ever pushed.
    pub fn new() -> FlightCursor {
        FlightCursor {
            next: 0,
            chunk: READ_CHUNK,
            scratch: Vec::new(),
        }
    }

    /// Push ordinal of the next record to read: every record before it
    /// was read or lost to overwrite.
    pub(crate) fn position(&self) -> u64 {
        self.next
    }
}

impl SharedFlightRing {
    /// A ring holding at most `capacity` records (0 disables recording:
    /// every push is counted as dropped). Allocates — and touches — the
    /// full backing buffer up front.
    pub fn new(capacity: usize) -> SharedFlightRing {
        SharedFlightRing {
            cap: capacity,
            pushed: AtomicU64::new(0),
            head: AtomicUsize::new(0),
            wrap_seq: AtomicU64::new(0),
            buf: (0..capacity * RECORD_WORDS)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// Ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Records pushed so far, overwritten ones included.
    fn pushed(&self) -> u64 {
        self.pushed.load(Ordering::Acquire)
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.pushed().min(self.cap as u64) as usize
    }

    /// Whether nothing is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records overwritten (or discarded by a zero-capacity ring).
    pub fn dropped(&self) -> u64 {
        self.pushed().saturating_sub(self.cap as u64)
    }

    fn store_slot(&self, slot: usize, rec: &[u8; RECORD_SIZE]) {
        let base = slot * RECORD_WORDS;
        let words = &self.buf[base..base + RECORD_WORDS];
        for (word, chunk) in words.iter().zip(rec.chunks_exact(8)) {
            word.store(
                u64::from_le_bytes(chunk.try_into().unwrap()),
                Ordering::Relaxed,
            );
        }
    }

    /// Writes one encoded record into the ring — the shared tail of
    /// [`SharedFlightRing::record`] and
    /// [`SharedFlightRing::record_decision`].
    fn push_record(&self, rec: &[u8; RECORD_SIZE]) {
        let pushed = self.pushed.load(Ordering::Relaxed);
        if pushed < self.cap as u64 {
            self.store_slot(pushed as usize, rec);
        } else {
            let head = self.head.load(Ordering::Relaxed);
            let seq = self.wrap_seq.load(Ordering::Relaxed);
            self.wrap_seq.store(seq.wrapping_add(1), Ordering::Relaxed);
            fence(Ordering::Release);
            self.store_slot(head, rec);
            let next = head + 1;
            self.head
                .store(if next == self.cap { 0 } else { next }, Ordering::Relaxed);
            self.wrap_seq.store(seq.wrapping_add(2), Ordering::Release);
        }
        self.pushed.store(pushed + 1, Ordering::Release);
    }

    /// Counts a push a zero-capacity ring cannot hold.
    fn discard(&self) {
        let pushed = self.pushed.load(Ordering::Relaxed);
        self.pushed.store(pushed + 1, Ordering::Release);
    }

    /// Appends one event. **Single-writer**: exactly one thread may call
    /// this (and [`SharedFlightRing::record_decision`]) per ring — the
    /// engine gives each shard worker its own ring. Wait-free on the
    /// append path; the wrap path is a short seqlock write.
    pub fn record(&self, event: &FlightEvent) {
        if self.cap == 0 {
            return self.discard();
        }
        self.push_record(&encode_event(event));
    }

    /// Records a decision straight from its parts: no [`FlightEvent`]
    /// wrapper, no [`StampedDecision`] copy — one stack-buffer encode
    /// and one pass of relaxed stores. This is the per-decision write
    /// on the engine's hot path, where the whole flight tax has to fit
    /// the < 5% observability budget.
    pub fn record_decision(&self, event: &DecisionEvent, stamps: &TimelineStamps) {
        if self.cap == 0 {
            return self.discard();
        }
        let mut rec = [0u8; RECORD_SIZE];
        encode_decision_to(&mut rec, event, stamps);
        self.push_record(&rec);
    }

    /// Reads every record pushed since `cursor`, whole — the read behind
    /// live snapshots, crash dumps and recovery. Never blocks or
    /// retries, and never stalls the writer.
    ///
    /// Reads up to the push count seen on entry, oldest first, handing
    /// each intact record to `visit` with its push ordinal, and moves
    /// the cursor to that push count. Records are copied 256 at a
    /// time (`READ_CHUNK`) through the cursor's scratch buffer and
    /// validated against the wrap seqlock after each chunk; ordinals
    /// already overwritten on entry are skipped without copying. Returns
    /// how many records between the old and the new cursor position
    /// were lost to overwrite instead of visited: the visited ordinals
    /// and the lost ones exactly tile that range. A reader that keeps
    /// up with the writer loses nothing.
    pub fn read_since(
        &self,
        cursor: &mut FlightCursor,
        mut visit: impl FnMut(u64, FlightEvent),
    ) -> u64 {
        let every_word: [usize; RECORD_WORDS] = std::array::from_fn(|i| i);
        self.read_chunked(cursor, every_word, |ordinal, words| {
            let mut rec = [0u8; RECORD_SIZE];
            for (bytes, word) in rec.chunks_exact_mut(8).zip(words) {
                bytes.copy_from_slice(&word.to_le_bytes());
            }
            decode_event(&rec)
                .map(|event| visit(ordinal, event))
                .is_ok()
        })
    }

    /// [`SharedFlightRing::read_since`] for the quality observatory:
    /// copies four of each record's words — the head and the job triple
    /// — and hands `visit` each decision as a [`DecidedJob`]. Other
    /// record kinds are read but not handed over, and the lost count is
    /// exactly the one `read_since` returns for the same records.
    pub fn read_decided_since(
        &self,
        cursor: &mut FlightCursor,
        mut visit: impl FnMut(u64, DecidedJob),
    ) -> u64 {
        self.read_chunked(
            cursor,
            DECIDED_WORDS,
            |ordinal, &[head, release, proc_time, deadline]| {
                let Ok(head) = RecordHead::decode(head.to_le_bytes()) else {
                    return false;
                };
                if head.kind == KIND_DECISION {
                    visit(
                        ordinal,
                        DecidedJob {
                            release: f64::from_bits(release),
                            proc_time: f64::from_bits(proc_time),
                            deadline: f64::from_bits(deadline),
                            accepted: head.flags & FLAG_ACCEPTED != 0,
                        },
                    );
                }
                true
            },
        )
    }

    /// The ring's one seqlock loop: copies `words` of every record
    /// pushed since `cursor`, chunk by chunk, and hands each intact
    /// copy to `visit`, which says whether the record decoded. Returns
    /// the records skipped as overwritten, torn or undecodable.
    fn read_chunked<const N: usize>(
        &self,
        cursor: &mut FlightCursor,
        words: [usize; N],
        mut visit: impl FnMut(u64, &[u64; N]) -> bool,
    ) -> u64 {
        let target = self.pushed.load(Ordering::Acquire);
        let cap = self.cap as u64;
        let chunk = cursor.chunk;
        let from = cursor.next;
        let mut visited = 0u64;
        cursor.next = from.max(target.saturating_sub(cap));
        if cursor.next < target {
            cursor.scratch.resize(chunk * N, 0);
        }
        while cursor.next < target {
            let lo = cursor.next;
            let hi = target.min(lo + chunk as u64);
            let mut slot = (lo % cap) as usize;
            for rec in cursor.scratch[..(hi - lo) as usize * N].chunks_exact_mut(N) {
                let held = &self.buf[slot * RECORD_WORDS..(slot + 1) * RECORD_WORDS];
                for (copy, &word) in rec.iter_mut().zip(&words) {
                    *copy = held[word].load(Ordering::Relaxed);
                }
                slot = if slot + 1 == self.cap { 0 } else { slot + 1 };
            }
            // Any copied word that came from an overwrite makes that
            // overwrite's odd `wrap_seq` store visible here.
            fence(Ordering::Acquire);
            let intact_from = self.wrap_seq.load(Ordering::Relaxed).div_ceil(2);
            for ordinal in lo.max(intact_from)..hi {
                let k = (ordinal - lo) as usize;
                let rec = cursor.scratch[k * N..(k + 1) * N]
                    .try_into()
                    .expect("a scratch record is N words");
                // A validated copy always decodes; an undecodable record
                // counts as lost rather than panicking a telemetry path.
                if visit(ordinal, rec) {
                    visited += 1;
                }
            }
            cursor.next = hi.max(intact_from.min(target));
        }
        cursor.next - from - visited
    }

    /// Decodes the held records in push order without stopping the
    /// writer — a [`SharedFlightRing::read_since`] from the oldest
    /// ordinal, and the read behind every snapshot and recovery.
    /// Returns the events and how many earlier records they do not
    /// include. The events are always a contiguous, validated suffix of
    /// everything pushed before the call: when a wrapping writer
    /// overtakes the read mid-way, the records read before the gap are
    /// discarded with the ones it overwrote.
    pub fn snapshot_events(&self) -> (Vec<FlightEvent>, u64) {
        let mut cursor = FlightCursor::new();
        let mut events = Vec::with_capacity(self.len());
        let mut expected = 0u64;
        self.read_since(&mut cursor, |ordinal, event| {
            if ordinal != expected {
                events.clear();
            }
            expected = ordinal + 1;
            events.push(event);
        });
        let dropped = cursor.position() - events.len() as u64;
        (events, dropped)
    }
}

/// The replay/audit metadata of one recorded run.
///
/// Everything a reader needs to rebuild the engine configuration and
/// re-run the schedulers deterministically, plus the engine's own
/// counters so an auditor can cross-check them against the recomputed
/// totals.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightHeader {
    /// Cluster machine count.
    pub m: u32,
    /// Shard count (disjoint contiguous machine groups, engine layout).
    pub shards: u32,
    /// System slack `eps` the schedulers were configured with.
    pub eps: f64,
    /// Base RNG seed; shard `s` ran with `seed + s` (engine convention).
    pub seed: u64,
    /// Algorithm label in CLI vocabulary (`threshold`, `greedy`, ...).
    pub algorithm: String,
    /// Jobs the engine reported as submitted.
    pub submitted: u64,
    /// Jobs the engine reported as accepted.
    pub accepted: u64,
    /// Engine rejection counters by typed reason.
    pub rejected: RejectCounts,
}

/// One shard's slice of a flight snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardFlight {
    /// Shard index.
    pub shard: u32,
    /// Records the shard's bounded ring overwrote.
    pub dropped: u64,
    /// The records the ring held, in push order: one decision per
    /// decision, plus a crash dump's failing-job submission.
    pub events: Vec<FlightEvent>,
}

/// A complete flight recording: header plus one event block per shard.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightSnapshot {
    /// Run metadata and engine counters.
    pub header: FlightHeader,
    /// Per-shard event streams, indexed by shard.
    pub shards: Vec<ShardFlight>,
}

impl FlightSnapshot {
    /// Total records across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.events.len()).sum()
    }

    /// Whether no shard recorded anything.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.events.is_empty())
    }

    /// Total records dropped by the bounded rings.
    pub fn total_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped).sum()
    }

    /// All decision events, in `(shard, seq)` order.
    pub fn decisions(&self) -> Vec<&DecisionEvent> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for event in &shard.events {
                if let FlightEvent::Decision(d) = event {
                    out.push(&d.event);
                }
            }
        }
        out
    }

    /// All decisions with their timeline stamps, in `(shard, seq)`
    /// order.
    pub fn stamped_decisions(&self) -> Vec<&StampedDecision> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for event in &shard.events {
                if let FlightEvent::Decision(d) = event {
                    out.push(d);
                }
            }
        }
        out
    }

    /// Serializes the snapshot as a `.cfr` byte stream.
    pub fn write_cfr<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let mut body: Vec<u8> = Vec::new();
        let h = &self.header;
        body.extend_from_slice(&h.m.to_le_bytes());
        body.extend_from_slice(&h.shards.to_le_bytes());
        body.extend_from_slice(&h.eps.to_le_bytes());
        body.extend_from_slice(&h.seed.to_le_bytes());
        let name = h.algorithm.as_bytes();
        body.extend_from_slice(&(name.len() as u32).to_le_bytes());
        body.extend_from_slice(name);
        body.extend_from_slice(&h.submitted.to_le_bytes());
        body.extend_from_slice(&h.accepted.to_le_bytes());
        for reason in RejectReason::ALL {
            body.extend_from_slice(&h.rejected.get(reason).to_le_bytes());
        }
        body.extend_from_slice(&(self.shards.len() as u32).to_le_bytes());
        for shard in &self.shards {
            body.extend_from_slice(&shard.shard.to_le_bytes());
            body.extend_from_slice(&shard.dropped.to_le_bytes());
            body.extend_from_slice(&(shard.events.len() as u64).to_le_bytes());
            for event in &shard.events {
                body.extend_from_slice(&encode_event(event));
            }
        }
        w.write_all(CFR_MAGIC)?;
        w.write_all(&CFR_VERSION.to_le_bytes())?;
        w.write_all(&body)?;
        w.write_all(&fnv1a(&body).to_le_bytes())?;
        Ok(())
    }

    /// Reads a `.cfr` byte stream back, verifying magic, version and
    /// checksum. Counts the body cannot hold are refused before any
    /// memory is reserved for them, and a header `m` above
    /// [`MAX_MACHINES`] before any reader sizes per-machine state from
    /// it, so a hostile file is an error, never an allocation failure.
    pub fn read_cfr<R: Read>(r: &mut R) -> Result<FlightSnapshot, String> {
        let mut raw = Vec::new();
        r.read_to_end(&mut raw).map_err(|e| e.to_string())?;
        if raw.len() < 16 || &raw[..4] != CFR_MAGIC {
            return Err("not a .cfr flight recording (bad magic)".to_string());
        }
        let version = u32::from_le_bytes(raw[4..8].try_into().unwrap());
        if version != CFR_VERSION {
            return Err(format!(
                "unsupported .cfr version {version} (expected {CFR_VERSION})"
            ));
        }
        let body = &raw[8..raw.len() - 8];
        let stored = u64::from_le_bytes(raw[raw.len() - 8..].try_into().unwrap());
        let computed = fnv1a(body);
        if stored != computed {
            return Err(format!(
                "corrupt .cfr: checksum {computed:#018x} != recorded {stored:#018x}"
            ));
        }
        let mut cur = Cursor::new(body);
        let m = cur.u32()?;
        if m as usize > MAX_MACHINES {
            return Err(format!(
                "corrupt .cfr: header m = {m} machines exceeds the ceiling of {MAX_MACHINES}"
            ));
        }
        let shard_count_header = cur.u32()?;
        let eps = cur.f64()?;
        let seed = cur.u64()?;
        let name_len = cur.u32()? as usize;
        let algorithm = String::from_utf8(cur.bytes(name_len)?.to_vec())
            .map_err(|_| "algorithm label is not UTF-8".to_string())?;
        let submitted = cur.u64()?;
        let accepted = cur.u64()?;
        // Field order is `RejectReason::ALL`, as `write_cfr` writes it.
        let rejected = RejectCounts {
            threshold_exceeded: cur.u64()?,
            no_feasible_machine: cur.u64()?,
            policy_filtered: cur.u64()?,
            unattributed: cur.u64()?,
        };
        let announced = cur.u32()?.into();
        let blocks = cur.count(announced, BLOCK_HEADER_SIZE, "shard block")?;
        let mut shards = Vec::with_capacity(blocks);
        for _ in 0..blocks {
            let shard = cur.u32()?;
            let dropped = cur.u64()?;
            let announced = cur.u64()?;
            let count = cur.count(announced, RECORD_SIZE, "record")?;
            let mut events = Vec::with_capacity(count);
            for _ in 0..count {
                events.push(decode_event(cur.bytes(RECORD_SIZE)?)?);
            }
            shards.push(ShardFlight {
                shard,
                dropped,
                events,
            });
        }
        Ok(FlightSnapshot {
            header: FlightHeader {
                m,
                shards: shard_count_header,
                eps,
                seed,
                algorithm,
                submitted,
                accepted,
                rejected,
            },
            shards,
        })
    }
}

/// Bytes of a shard block's header: shard, dropped and record count.
const BLOCK_HEADER_SIZE: usize = 4 + 8 + 8;

/// FNV-1a 64-bit checksum — cheap, dependency-free integrity check for
/// `.cfr` payloads.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Bounds-checked little-endian reader over a byte slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| "truncated .cfr payload".to_string())?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// A count of `size`-byte items announced by the file, refused when
    /// the rest of the body cannot hold that many.
    fn count(&self, n: u64, size: usize, what: &str) -> Result<usize, String> {
        let room = (self.buf.len() - self.pos) / size;
        usize::try_from(n)
            .ok()
            .filter(|&n| n <= room)
            .ok_or_else(|| format!("corrupt .cfr: {n} {what}(s) announced, room for {room}"))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(seq: u64, accepted: bool) -> DecisionEvent {
        DecisionEvent {
            seq,
            job: seq as u32 * 2,
            shard: 1,
            release: 0.25 * seq as f64,
            proc_time: 1.5,
            deadline: 12.5,
            candidates: 3,
            threshold: Some(4.75),
            min_load: Some(0.5),
            accepted,
            machine: accepted.then_some(2),
            start: accepted.then_some(3.25),
            reject_reason: (!accepted).then_some(RejectReason::ThresholdExceeded),
        }
    }

    /// A decision record with no timeline stamps.
    fn bare(d: DecisionEvent) -> FlightEvent {
        FlightEvent::Decision(StampedDecision::new(d, TimelineStamps::empty()))
    }

    /// The undecided arrival a crash dump records as its `seq`-th
    /// submission.
    fn arrival(seq: u64) -> FlightEvent {
        FlightEvent::Submission {
            seq,
            shard: 0,
            job: seq as u32,
            release: 0.5,
            proc_time: 1.5,
            deadline: 12.5,
        }
    }

    /// Two decisions and the arrival that failed the shard after them.
    fn sample_events() -> Vec<FlightEvent> {
        vec![
            FlightEvent::Decision(StampedDecision::new(
                decision(0, true),
                TimelineStamps([11, 12, 13, 14, 15, 16, 17]),
            )),
            bare(decision(1, false)),
            arrival(2),
        ]
    }

    #[test]
    fn record_codec_round_trips_every_kind() {
        for event in sample_events() {
            let rec = encode_event(&event);
            let back = decode_event(&rec).unwrap();
            assert_eq!(back, event);
        }
    }

    #[test]
    fn record_codec_round_trips_every_reject_reason() {
        for reason in RejectReason::ALL {
            let mut d = decision(7, false);
            d.reject_reason = Some(reason);
            let event = bare(d);
            assert_eq!(decode_event(&encode_event(&event)).unwrap(), event);
        }
    }

    #[test]
    fn decision_without_optionals_round_trips() {
        let d = DecisionEvent {
            threshold: None,
            min_load: None,
            machine: None,
            start: None,
            reject_reason: None,
            ..decision(3, true)
        };
        let event = bare(d);
        assert_eq!(decode_event(&encode_event(&event)).unwrap(), event);
    }

    #[test]
    fn bad_records_are_rejected() {
        assert!(decode_event(&[0u8; 10]).is_err());
        // A record of any other width is refused, stamps cut off or not.
        let rec = encode_event(&sample_events()[0]);
        assert!(decode_event(&rec[..RECORD_SIZE - 8]).is_err());
        let mut rec = encode_event(&sample_events()[2]);
        rec[0] = 2; // the retired commitment kind is unknown too
        assert!(decode_event(&rec).is_err());
        rec[0] = 77; // unknown kind
        assert!(decode_event(&rec).is_err());
        let mut rec = encode_event(&bare(decision(0, false)));
        rec[2] = 9; // unknown reject reason
        assert!(decode_event(&rec).is_err());
    }

    fn sample_snapshot() -> FlightSnapshot {
        let mut rejected = RejectCounts::default();
        rejected.bump(RejectReason::ThresholdExceeded);
        FlightSnapshot {
            header: FlightHeader {
                m: 4,
                shards: 2,
                eps: 0.25,
                seed: 42,
                algorithm: "threshold".to_string(),
                submitted: 2,
                accepted: 1,
                rejected,
            },
            shards: vec![
                ShardFlight {
                    shard: 0,
                    dropped: 0,
                    events: sample_events(),
                },
                ShardFlight {
                    shard: 1,
                    dropped: 3,
                    events: vec![],
                },
            ],
        }
    }

    #[test]
    fn cfr_file_round_trips() {
        let snap = sample_snapshot();
        let mut buf = Vec::new();
        snap.write_cfr(&mut buf).unwrap();
        assert_eq!(&buf[..4], CFR_MAGIC);
        let back = FlightSnapshot::read_cfr(&mut buf.as_slice()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.len(), 3);
        assert_eq!(back.total_dropped(), 3);
        assert_eq!(back.decisions().len(), 2);
        // Header, two block headers, one record per event, checksum.
        let header = 8 + 4 + 4 + 8 + 8 + 4 + "threshold".len() + 2 * 8 + 4 * 8 + 4;
        assert_eq!(
            buf.len(),
            header + 2 * BLOCK_HEADER_SIZE + 3 * RECORD_SIZE + 8
        );
    }

    #[test]
    fn unknown_cfr_version_is_rejected() {
        let snap = sample_snapshot();
        let mut buf = Vec::new();
        snap.write_cfr(&mut buf).unwrap();
        for version in [1u32, 2, 4, 99] {
            buf[4..8].copy_from_slice(&version.to_le_bytes());
            let err = FlightSnapshot::read_cfr(&mut buf.as_slice()).unwrap_err();
            assert!(err.contains("version"), "unexpected error: {err}");
        }
    }

    /// A `.cfr` of `sample_snapshot`'s header and one empty shard block,
    /// with `patch` applied to the raw bytes and the checksum resealed.
    fn crafted_cfr(patch: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut snap = sample_snapshot();
        snap.shards = vec![ShardFlight {
            shard: 0,
            dropped: 0,
            events: vec![],
        }];
        let mut buf = Vec::new();
        snap.write_cfr(&mut buf).unwrap();
        patch(&mut buf);
        let end = buf.len() - 8;
        let sum = fnv1a(&buf[8..end]);
        buf[end..].copy_from_slice(&sum.to_le_bytes());
        buf
    }

    #[test]
    fn cfr_announcing_more_records_than_it_holds_is_refused() {
        // The block's record count is the last field before the checksum.
        let buf = crafted_cfr(|buf| {
            let at = buf.len() - 16;
            buf[at..at + 8].copy_from_slice(&(1u64 << 50).to_le_bytes());
        });
        let err = FlightSnapshot::read_cfr(&mut buf.as_slice()).unwrap_err();
        assert!(err.contains("record"), "unexpected error: {err}");
    }

    #[test]
    fn cfr_announcing_more_blocks_than_it_holds_is_refused() {
        // The block count precedes the 20-byte header of the one block.
        let buf = crafted_cfr(|buf| {
            let at = buf.len() - 8 - 20 - 4;
            buf[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        });
        let err = FlightSnapshot::read_cfr(&mut buf.as_slice()).unwrap_err();
        assert!(err.contains("shard block"), "unexpected error: {err}");
    }

    #[test]
    fn cfr_announcing_too_many_machines_is_refused() {
        // `m` is the body's first field, right after magic and version.
        let buf = crafted_cfr(|buf| buf[8..12].copy_from_slice(&0xFFFF_FFF0u32.to_le_bytes()));
        assert_eq!(buf.len(), 125);
        let err = FlightSnapshot::read_cfr(&mut buf.as_slice()).unwrap_err();
        assert!(err.contains("m = 4294967280"), "unexpected error: {err}");
    }

    #[test]
    fn a_record_is_17_words_with_stamps_at_80() {
        assert_eq!(RECORD_SIZE, 136);
        let rec = encode_event(&sample_events()[0]);
        assert_eq!(rec[STAMPS_OFFSET..STAMPS_OFFSET + 8], 11u64.to_le_bytes());
        assert_eq!(rec[RECORD_SIZE - 8..], 17u64.to_le_bytes());
    }

    #[test]
    fn cfr_reject_counters_read_back_as_written() {
        let mut snap = sample_snapshot();
        snap.header.rejected.threshold_exceeded = 3_000_000_000;
        snap.header.rejected.unattributed = u64::MAX;
        let mut buf = Vec::new();
        snap.write_cfr(&mut buf).unwrap();
        let back = FlightSnapshot::read_cfr(&mut buf.as_slice()).unwrap();
        assert_eq!(back.header.rejected, snap.header.rejected);
    }

    #[test]
    fn shared_ring_keeps_most_recent_window_and_counts_drops() {
        let ring = SharedFlightRing::new(3);
        for seq in 0..5u64 {
            ring.record(&arrival(seq));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let (events, dropped) = ring.snapshot_events();
        assert_eq!(events, (2..5).map(arrival).collect::<Vec<_>>());
        assert_eq!(dropped, 2);
        // Snapshot is non-destructive.
        assert_eq!(ring.len(), 3);
    }

    #[test]
    fn shared_ring_zero_capacity_records_nothing() {
        let ring = SharedFlightRing::new(0);
        ring.record(&sample_events()[0]);
        ring.record_decision(&decision(1, false), &TimelineStamps::empty());
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 2);
        assert!(ring.snapshot_events().0.is_empty());
    }

    #[test]
    fn shared_ring_round_trips_stamps() {
        let ring = SharedFlightRing::new(8);
        let event = sample_events()[0].clone();
        ring.record(&event);
        let (events, _) = ring.snapshot_events();
        assert_eq!(events, vec![event]);
    }

    #[test]
    fn shared_ring_append_snapshots_are_exact_prefixes() {
        use std::sync::Arc;

        // Never wraps, so every snapshot takes the validated path and
        // must be an exact prefix 0..len of the recorded stream.
        let ring = Arc::new(SharedFlightRing::new(20_000));
        let writer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for seq in 0..20_000u64 {
                    ring.record(&arrival(seq));
                }
            })
        };
        for _ in 0..200 {
            let (events, dropped) = ring.snapshot_events();
            assert_eq!(dropped, 0);
            for (i, event) in events.iter().enumerate() {
                assert_eq!(event, &arrival(i as u64));
            }
        }
        writer.join().unwrap();
        assert_eq!(ring.snapshot_events().0.len(), 20_000);
    }

    #[test]
    fn shared_ring_wrapping_writer_never_breaks_a_snapshot() {
        use std::sync::Arc;

        // A tiny ring under a fast writer: every snapshot is a
        // contiguous, validated suffix of the pushes — exactly the
        // records that follow the `dropped` it reports — and the final
        // quiesced snapshot is exact.
        let ring = Arc::new(SharedFlightRing::new(64));
        let writer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for seq in 0..20_000u64 {
                    ring.record(&arrival(seq));
                }
            })
        };
        for _ in 0..100 {
            let (events, dropped) = ring.snapshot_events();
            assert!(events.len() <= 64);
            for (i, event) in events.iter().enumerate() {
                assert_eq!(event, &arrival(dropped + i as u64));
            }
        }
        writer.join().unwrap();
        let (events, dropped) = ring.snapshot_events();
        let expected: Vec<FlightEvent> = (20_000 - 64..20_000).map(arrival).collect();
        assert_eq!(events, expected);
        assert_eq!(dropped, 20_000 - 64);
    }

    /// The decision pushed with ordinal `k` in the cursor tests.
    fn pushed(k: u64) -> DecisionEvent {
        decision(k, !k.is_multiple_of(3))
    }

    /// One read of a ring of `pushed` decisions by either reader, as
    /// one shape: `visit` gets the [`DecidedJob`] of every decision
    /// read, and the lost count is returned. The whole-record reader
    /// also checks every event it decodes.
    fn read_with(
        ring: &SharedFlightRing,
        cursor: &mut FlightCursor,
        whole: bool,
        mut visit: impl FnMut(u64, DecidedJob),
    ) -> u64 {
        if !whole {
            return ring.read_decided_since(cursor, visit);
        }
        ring.read_since(cursor, |ordinal, event| {
            if let FlightEvent::Decision(d) = &event {
                assert_eq!(event, bare(pushed(ordinal)));
                visit(ordinal, DecidedJob::from(&d.event));
            }
        })
    }

    /// Reads `ring` with both readers, each through its own cursor, and
    /// checks they agree on every ordinal, field and lost count.
    fn read_both(
        ring: &SharedFlightRing,
        whole: &mut FlightCursor,
        decided: &mut FlightCursor,
    ) -> (Vec<u64>, u64) {
        let mut reads = [true, false].map(|read_whole| {
            let cursor = if read_whole {
                &mut *whole
            } else {
                &mut *decided
            };
            let mut ordinals = Vec::new();
            let lost = read_with(ring, cursor, read_whole, |ordinal, job| {
                assert_eq!(job, DecidedJob::from(&pushed(ordinal)));
                ordinals.push(ordinal);
            });
            (ordinals, lost)
        });
        assert_eq!(reads[0], reads[1], "the readers disagree");
        assert_eq!(whole.position(), decided.position());
        std::mem::take(&mut reads[0])
    }

    #[test]
    fn cursor_reads_only_new_records_and_counts_overwrites() {
        let ring = SharedFlightRing::new(8);
        let (mut whole, mut decided) = (FlightCursor::new(), FlightCursor::new());
        assert_eq!(read_both(&ring, &mut whole, &mut decided), (vec![], 0));
        for seq in 0..5 {
            ring.record_decision(&pushed(seq), &TimelineStamps::empty());
        }
        assert_eq!(
            read_both(&ring, &mut whole, &mut decided),
            ((0..5).collect(), 0)
        );
        assert_eq!(
            read_both(&ring, &mut whole, &mut decided),
            (vec![], 0),
            "nothing new, nothing read"
        );
        // 13 more pushes into 8 slots: ordinals 5..10 are overwritten
        // before the cursors reach them. Ordinal 12 is an undecided
        // arrival, read but not a decision, so neither lost nor handed
        // over.
        for seq in 5..18 {
            if seq == 12 {
                ring.record(&arrival(seq));
            } else {
                ring.record_decision(&pushed(seq), &TimelineStamps::empty());
            }
        }
        let decisions: Vec<u64> = (10..18).filter(|&k| k != 12).collect();
        assert_eq!(read_both(&ring, &mut whole, &mut decided), (decisions, 5));
        assert_eq!(whole.position(), 18);
        assert_eq!(ring.dropped(), 10);

        // A zero-capacity ring only counts.
        let empty = SharedFlightRing::new(0);
        empty.record(&arrival(0));
        let (mut whole, mut decided) = (FlightCursor::new(), FlightCursor::new());
        assert_eq!(read_both(&empty, &mut whole, &mut decided), (vec![], 1));
        assert_eq!(whole.position(), 1);
    }

    #[test]
    fn cursor_read_overlapping_a_wrapping_writer_tiles_the_pushes() {
        for whole in [true, false] {
            overlapping_read_tiles_the_pushes(whole);
        }
    }

    fn overlapping_read_tiles_the_pushes(whole: bool) {
        use std::sync::{Arc, Barrier};

        // A 64-slot ring, read 8 records per chunk. Each round the
        // writer pushes a few fresh records, then the reader starts a
        // read; once its first chunk is validated the reader parks
        // inside `visit` while the writer pushes a burst of up to ~3
        // laps, so the chunks still to be copied are (partly)
        // overwritten *during* the read. After the reader resumes, the
        // writer's next fresh batch runs concurrently with the rest of
        // the read. The barrier forces the overlap on every round.
        const CAP: usize = 64;
        const ROUNDS: u64 = 200;
        let ring = Arc::new(SharedFlightRing::new(CAP));
        let sync = Arc::new(Barrier::new(2));
        let writer = {
            let ring = Arc::clone(&ring);
            let sync = Arc::clone(&sync);
            std::thread::spawn(move || {
                let mut seq = 0u64;
                let mut push = |count: u64| {
                    for _ in 0..count {
                        ring.record_decision(&pushed(seq), &TimelineStamps::empty());
                        seq += 1;
                    }
                };
                for round in 0..ROUNDS {
                    push(1 + round % 80);
                    sync.wait(); // the reader may start
                    sync.wait(); // its first chunk is validated
                    push(round * 37 % 200);
                    sync.wait(); // let the read continue
                }
                seq
            })
        };
        // Validate every 8 records, so one read spans several chunks.
        let mut cursor = FlightCursor::new();
        cursor.chunk = 8;
        let (mut visited, mut lost) = (0u64, 0u64);
        for _ in 0..ROUNDS {
            sync.wait();
            let from = cursor.position();
            let mut expected = from;
            let mut gaps = 0u64;
            let mut parked = false;
            let missed = read_with(&ring, &mut cursor, whole, |ordinal, job| {
                if !parked {
                    parked = true;
                    sync.wait();
                    sync.wait();
                }
                // In order, each the record the writer pushed with that
                // ordinal; any skipped run must be reported as missed.
                assert!(ordinal >= expected, "ordinal {ordinal} repeats or reorders");
                gaps += ordinal - expected;
                expected = ordinal + 1;
                assert_eq!(job, DecidedJob::from(&pushed(ordinal)));
                visited += 1;
            });
            assert!(
                parked,
                "the first chunk of a read is copied while the writer waits"
            );
            let to = cursor.position();
            gaps += to - expected;
            assert_eq!(missed, gaps, "missed is exactly the skipped ordinals");
            assert!(to > from);
            lost += missed;
        }
        let pushed_total = writer.join().unwrap();
        // Whatever the last burst left unread.
        lost += read_with(&ring, &mut cursor, whole, |ordinal, job| {
            assert_eq!(job, DecidedJob::from(&pushed(ordinal)));
            visited += 1;
        });
        assert_eq!(cursor.position(), pushed_total);
        assert_eq!(
            visited + lost,
            pushed_total,
            "every push read or counted lost"
        );
        assert!(lost > 0, "the bursts lap the reader");
    }

    #[test]
    fn cfr_detects_corruption_truncation_and_bad_magic() {
        let snap = sample_snapshot();
        let mut buf = Vec::new();
        snap.write_cfr(&mut buf).unwrap();

        let mut flipped = buf.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        let err = FlightSnapshot::read_cfr(&mut flipped.as_slice()).unwrap_err();
        assert!(err.contains("checksum"), "unexpected error: {err}");

        let truncated = &buf[..buf.len() - 20];
        assert!(FlightSnapshot::read_cfr(&mut &truncated[..]).is_err());

        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        let err = FlightSnapshot::read_cfr(&mut bad_magic.as_slice()).unwrap_err();
        assert!(err.contains("magic"), "unexpected error: {err}");
    }
}
