//! Per-memnode write-ahead (redo) log.
//!
//! Sinfonia memnodes log every state change *before* applying it: one-phase
//! commits, two-phase prepares (with the full participant list, so recovery
//! can decide in-doubt outcomes), and commit/abort decisions. Records are
//! CRC-framed; a torn tail left by a crash is detected on replay and
//! truncated back to the last valid record.
//!
//! The log offers four durability levels ([`SyncMode`]): no syncing at all,
//! background (asynchronous) syncing, an fsync per forced record, and group
//! commit — the classic batching trade-off the paper's lineage (Sinfonia
//! §4; MV-PBT's persistent index) leans on. Every fsync is counted in
//! [`WalStats`], mirroring how the instrumented transport counts round
//! trips, so benches can report the cost of each mode.
//!
//! ## One log, two media
//!
//! A log and the checkpoint image that bounds it live in a store: files
//! (`wal-NNNN.log` and `ckpt-NNNN.img` in a durability directory), or
//! bytes in memory. This module is the only one that knows which. A memory
//! log is what an in-memory memnode journals to: the same frames, the same
//! failpoints, the same image and the same read-back after a crash — only
//! nothing to fsync, and no process restart to survive. It bounds itself
//! ([`Wal::wants_checkpoint`]); a file's checkpoints are its owner's
//! policy.
//!
//! ## Consistency contract
//!
//! Every logged mutation appends its record and applies its in-memory
//! effect while holding the appender lock ([`Wal::lock`]). The checkpointer
//! relies on this: freezing the appender lock yields a log tail such that
//! the in-memory state reflects exactly the records at or before that tail
//! (see [`crate::checkpoint`]).

use crate::addr::MemNodeId;
use crate::bytes::Bytes;
use crate::checkpoint;
use crate::crc::crc32;
use minuet_faults as faults;
use minuet_obs::{Counter, HistHandle, ObsPlane};
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How (and whether) the log is fsynced before a forced operation is
/// acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Never fsync. Appends still hit the file via `write(2)`, so the log
    /// survives a *process* crash; an OS crash may lose the unsynced tail.
    None,
    /// A background flusher thread fsyncs every few milliseconds. Commits
    /// are acknowledged before they are durable (bounded-loss window).
    Async,
    /// fsync before acknowledging every forced record. Maximum durability;
    /// concurrent committers still share fsyncs through the same
    /// leader/follower pipeline as [`SyncMode::GroupCommit`], just without
    /// the batching window — the fsync's own duration is the window.
    Sync,
    /// Group commit: the first waiter becomes the leader, sleeps `window`
    /// to let concurrent commits pile up, then issues one fsync covering
    /// the whole batch.
    GroupCommit {
        /// How long the leader waits before syncing the batch.
        window: Duration,
    },
}

/// Durability settings of a cluster.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding per-memnode logs and checkpoint images. `None`
    /// disables durability entirely (purely in-memory memnodes).
    pub dir: Option<PathBuf>,
    /// Log sync mode.
    pub sync: SyncMode,
    /// Auto-checkpoint a memnode once its retained log exceeds this many
    /// bytes (`0` = manual checkpoints only).
    pub checkpoint_log_bytes: u64,
}

/// The default `checkpoint_log_bytes`, and the least a memory log retains
/// before it asks for a checkpoint.
const CHECKPOINT_LOG_BYTES: u64 = 8 << 20;

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            dir: None,
            sync: SyncMode::Sync,
            checkpoint_log_bytes: CHECKPOINT_LOG_BYTES,
        }
    }
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with the given sync mode.
    pub fn at(dir: impl Into<PathBuf>, sync: SyncMode) -> Self {
        DurabilityConfig {
            dir: Some(dir.into()),
            sync,
            ..Default::default()
        }
    }

    /// Durability in a fresh unique directory under the system temp dir —
    /// for tests, benches and examples. The caller owns cleanup.
    pub fn ephemeral(tag: &str, sync: SyncMode) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "minuet-dur-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        Self::at(dir, sync)
    }

    /// True when durability is enabled.
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// Largest admissible record payload; frames claiming more are treated as
/// torn/corrupt.
pub const MAX_RECORD: u32 = 1 << 28;

/// Size of the frame header: payload length + payload CRC.
pub const FRAME_HEADER: u64 = 8;

/// A redo record as appended (borrowing the transaction's buffers).
#[derive(Debug)]
pub enum Record<'a> {
    /// One-phase commit: writes applied atomically at this memnode.
    Apply {
        /// Minitransaction id.
        txid: u64,
        /// `(offset, data)` writes (payloads shared with the caller).
        writes: &'a [(u64, Bytes)],
    },
    /// Phase-one vote Ok: staged writes plus the lock spans and the full
    /// participant list (needed to resolve in-doubt outcomes after a
    /// coordinator crash).
    Prepare {
        /// Minitransaction id.
        txid: u64,
        /// All memnodes participating in the minitransaction.
        participants: &'a [u16],
        /// Canonical lock spans held at this memnode.
        spans: &'a [(u64, u64)],
        /// Staged `(offset, data)` writes (payloads shared with the
        /// prepared transaction).
        writes: &'a [(u64, Bytes)],
    },
    /// Phase-two commit decision for a previously prepared transaction.
    Commit {
        /// Minitransaction id.
        txid: u64,
    },
    /// Phase-two abort decision.
    Abort {
        /// Minitransaction id.
        txid: u64,
    },
    /// A record incorporated from a *primary's* log by a replication
    /// follower. `src_off` is the logical end offset of the source frame
    /// in the primary's log — the follower's durable replication
    /// watermark is the maximum `src_off` it has logged, so a restarted
    /// follower knows exactly where to resume the stream (and skips
    /// redelivered frames at or below it). `payload` is the primary
    /// record's encoded payload, verbatim.
    Repl {
        /// Logical end offset of the source frame in the primary's log.
        src_off: u64,
        /// The primary record's encoded payload.
        payload: &'a [u8],
    },
}

/// What a [`Record::Repl`] puts in front of the payload it wraps: its tag
/// byte and the source offset.
pub const REPL_WRAP: usize = 1 + 8;

/// A redo record as decoded during replay (owning its buffers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OwnedRecord {
    /// See [`Record::Apply`].
    Apply {
        /// Minitransaction id.
        txid: u64,
        /// `(offset, data)` writes.
        writes: Vec<(u64, Bytes)>,
    },
    /// See [`Record::Prepare`].
    Prepare {
        /// Minitransaction id.
        txid: u64,
        /// Participant memnode ids.
        participants: Vec<u16>,
        /// Lock spans held at this memnode.
        spans: Vec<(u64, u64)>,
        /// Staged writes.
        writes: Vec<(u64, Bytes)>,
    },
    /// See [`Record::Commit`].
    Commit {
        /// Minitransaction id.
        txid: u64,
    },
    /// See [`Record::Abort`].
    Abort {
        /// Minitransaction id.
        txid: u64,
    },
    /// See [`Record::Repl`].
    Repl {
        /// Logical end offset of the source frame in the primary's log.
        src_off: u64,
        /// The decoded primary record (never itself `Repl`).
        inner: Box<OwnedRecord>,
    },
}

/// Appends a `(offset, data)` write list in the shared framing used by
/// both log records and checkpoint images.
pub(crate) fn put_writes(out: &mut Vec<u8>, writes: &[(u64, Bytes)]) {
    out.extend_from_slice(&(writes.len() as u32).to_le_bytes());
    for (off, data) in writes {
        out.extend_from_slice(&off.to_le_bytes());
        out.extend_from_slice(&(data.len() as u32).to_le_bytes());
        out.extend_from_slice(data);
    }
}

/// Appends a prepared transaction — its participants, lock spans and
/// staged writes — in the one layout `Prepare` records and checkpoint
/// images share (read back by `Cur::prepared`).
pub(crate) fn put_prepared(
    out: &mut Vec<u8>,
    participants: impl ExactSizeIterator<Item = u16>,
    spans: &[(u64, u64)],
    writes: &[(u64, Bytes)],
) {
    out.extend_from_slice(&(participants.len() as u16).to_le_bytes());
    for p in participants {
        out.extend_from_slice(&p.to_le_bytes());
    }
    out.extend_from_slice(&(spans.len() as u32).to_le_bytes());
    for (a, b) in spans {
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
    }
    put_writes(out, writes);
}

impl Record<'_> {
    /// Serializes the record payload (excluding the frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Appends the record payload to `out` — how [`WalAppender::append`]
    /// builds a frame in place behind its header.
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Record::Apply { txid, writes } => {
                out.push(1);
                out.extend_from_slice(&txid.to_le_bytes());
                put_writes(out, writes);
            }
            Record::Prepare {
                txid,
                participants,
                spans,
                writes,
            } => {
                out.push(2);
                out.extend_from_slice(&txid.to_le_bytes());
                put_prepared(out, participants.iter().copied(), spans, writes);
            }
            Record::Commit { txid } => {
                out.push(3);
                out.extend_from_slice(&txid.to_le_bytes());
            }
            Record::Abort { txid } => {
                out.push(4);
                out.extend_from_slice(&txid.to_le_bytes());
            }
            Record::Repl { src_off, payload } => {
                out.push(5);
                out.extend_from_slice(&src_off.to_le_bytes());
                out.extend_from_slice(payload);
            }
        }
    }
}

/// A prepared transaction as [`Cur::prepared`] reads it back.
pub(crate) type Prepared = (Vec<u16>, Vec<(u64, u64)>, Vec<(u64, Bytes)>);

/// A bounds-checked little-endian cursor, shared by record and
/// checkpoint-image decoding.
pub(crate) struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }
    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }
    /// The next `N` bytes as an array: the one fixed-size read.
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }
    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.array().map(u8::from_le_bytes)
    }
    pub(crate) fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }
    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }
    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }
    /// True once every byte has been consumed.
    pub(crate) fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }
    /// Consumes and returns every remaining byte.
    pub(crate) fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }
    pub(crate) fn writes(&mut self) -> Option<Vec<(u64, Bytes)>> {
        let n = self.u32()? as usize;
        let mut v = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let off = self.u64()?;
            let len = self.u32()? as usize;
            v.push((off, Bytes::from(self.take(len)?)));
        }
        Some(v)
    }
    /// What [`put_prepared`] wrote: participants, lock spans, writes.
    pub(crate) fn prepared(&mut self) -> Option<Prepared> {
        let np = self.u16()?;
        let participants = (0..np).map(|_| self.u16()).collect::<Option<_>>()?;
        let ns = self.u32()?;
        let spans = (0..ns)
            .map(|_| self.u64().zip(self.u64()))
            .collect::<Option<_>>()?;
        Some((participants, spans, self.writes()?))
    }
    /// The next whole log frame; `None` at a torn or corrupt one.
    fn frame(&mut self) -> Option<Frame<'a>> {
        let len = self.u32()?;
        let crc = self.u32()?;
        if len > MAX_RECORD {
            return None;
        }
        let payload = self.take(len as usize)?;
        if crc32(payload) != crc {
            return None;
        }
        Some((self.pos as u64, OwnedRecord::decode(payload)?, payload))
    }
}

impl OwnedRecord {
    /// Decodes a record payload; `None` on any structural corruption.
    pub fn decode(payload: &[u8]) -> Option<OwnedRecord> {
        let mut c = Cur::new(payload);
        let tag = c.u8()?;
        let txid = c.u64()?;
        let rec = match tag {
            1 => OwnedRecord::Apply {
                txid,
                writes: c.writes()?,
            },
            2 => {
                let (participants, spans, writes) = c.prepared()?;
                OwnedRecord::Prepare {
                    txid,
                    participants,
                    spans,
                    writes,
                }
            }
            3 => OwnedRecord::Commit { txid },
            4 => OwnedRecord::Abort { txid },
            5 => {
                // The u64 read above is the source offset for this tag.
                let payload = c.rest();
                // Nesting is rejected *before* recursing so corrupt input
                // can't build a deep `Repl(Repl(..))` tower on the stack.
                if payload.first() == Some(&5) {
                    return None;
                }
                OwnedRecord::Repl {
                    src_off: txid,
                    inner: Box::new(OwnedRecord::decode(payload)?),
                }
            }
            _ => return None,
        };
        if !c.finished() {
            return None;
        }
        Some(rec)
    }

    /// The record's minitransaction id.
    pub fn txid(&self) -> u64 {
        match self {
            OwnedRecord::Apply { txid, .. }
            | OwnedRecord::Prepare { txid, .. }
            | OwnedRecord::Commit { txid }
            | OwnedRecord::Abort { txid } => *txid,
            OwnedRecord::Repl { inner, .. } => inner.txid(),
        }
    }
}

/// One whole frame of a log buffer: its end offset relative to the start
/// of the buffer, the record it decodes to, and its CRC-checked payload.
pub type Frame<'a> = (u64, OwnedRecord, &'a [u8]);

/// Parses a log buffer into [`Frame`]s, stopping at the first torn or
/// corrupt one; also returns the byte length of the valid prefix.
/// Replication consumers need both extras of a frame: a follower's
/// watermark is the source-log offset of the last frame it incorporated,
/// and what it logs is that frame's payload, verbatim.
pub fn parse_frames(buf: &[u8]) -> (Vec<Frame<'_>>, u64) {
    let mut c = Cur::new(buf);
    let frames: Vec<Frame<'_>> = std::iter::from_fn(|| c.frame()).collect();
    let valid = frames.last().map_or(0, |(end, ..)| *end);
    (frames, valid)
}

/// Parses a log buffer into records, stopping at the first torn or corrupt
/// frame. Returns the records and the byte offset of the valid prefix
/// (callers truncate the file there).
pub fn parse_log(buf: &[u8]) -> (Vec<OwnedRecord>, u64) {
    let (frames, valid) = parse_frames(buf);
    (frames.into_iter().map(|(_, rec, _)| rec).collect(), valid)
}

/// A chunk of raw framed log bytes handed to a replication follower.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalSegment {
    /// Logical offset of the first byte of `bytes`.
    pub from: u64,
    /// Logical offset of the oldest byte still retained in the log. A
    /// requested `from` below this means the prefix was checkpointed away
    /// and the follower can no longer be caught up by log shipping alone.
    pub base: u64,
    /// Logical tail of the log at read time.
    pub tail: u64,
    /// Raw framed record bytes; may end mid-frame (consumers keep only the
    /// whole-frame prefix and re-request the rest).
    pub bytes: Bytes,
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A typed write-ahead-log failure. Any append or fsync error is **sticky**:
/// the log refuses further appends ([`WalError::Failed`]) and the owning
/// memnode degrades to read-only instead of panicking. The log stays valid
/// up to the last whole frame: what a failed append leaves past it is a
/// torn tail, which replay's CRC framing ignores and reading the log back
/// ([`Wal::read_back`]) cuts off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// Underlying I/O error (message preserved; the handle may be dead).
    Io(String),
    /// The device accepted only a prefix of the frame.
    ShortWrite {
        /// Bytes that reached the medium.
        wrote: u64,
        /// Bytes the frame needed.
        want: u64,
    },
    /// The device is out of space.
    NoSpace,
    /// A previous failure latched the log; it no longer accepts appends.
    Failed,
}

impl WalError {
    /// Classifies an `io::Error` (real ENOSPC becomes [`WalError::NoSpace`]).
    fn from_io(e: &io::Error) -> WalError {
        if e.raw_os_error() == Some(28) {
            WalError::NoSpace
        } else {
            WalError::Io(e.to_string())
        }
    }
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(msg) => write!(f, "wal i/o error: {msg}"),
            WalError::ShortWrite { wrote, want } => {
                write!(f, "wal short write: {wrote} of {want} bytes")
            }
            WalError::NoSpace => write!(f, "wal device out of space"),
            WalError::Failed => write!(f, "wal failed earlier; log is read-only"),
        }
    }
}

impl std::error::Error for WalError {}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// Counters and latency series of one memnode's log, in the spirit of
/// [`crate::transport::NetStats`]. The counter fields are registered
/// [`Counter`] handles (see [`WalStats::register`]).
#[derive(Debug, Default)]
pub struct WalStats {
    /// Records appended.
    pub appends: Counter,
    /// Payload + frame bytes appended.
    pub bytes: Counter,
    /// fsync calls issued (by any path: sync, group leader, flusher,
    /// checkpoint rotation).
    pub fsyncs: Counter,
    /// Wall-clock latency of each fsync, in nanoseconds.
    pub fsync_ns: HistHandle,
    /// Records covered per commit-path fsync (recorded by the
    /// leader/follower pipeline in [`SyncMode::Sync`] and
    /// [`SyncMode::GroupCommit`]; 1 means no sharing happened).
    pub group_batch: HistHandle,
    /// Appends counter value at the last group-commit fsync (internal
    /// bookkeeping for `group_batch`).
    last_sync_appends: AtomicU64,
}

impl WalStats {
    /// Snapshot `(appends, bytes, fsyncs)`.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.appends.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
            self.fsyncs.load(Ordering::Relaxed),
        )
    }

    /// Registers every series under `wal.*` in `plane`'s registry.
    pub fn register(&self, plane: &ObsPlane) {
        let r = &plane.registry;
        r.register_counter("wal.appends", &self.appends);
        r.register_counter("wal.bytes", &self.bytes);
        r.register_counter("wal.fsyncs", &self.fsyncs);
        r.register_histogram("wal.fsync_ns", &self.fsync_ns);
        r.register_histogram("wal.group_batch", &self.group_batch);
    }

    /// Records one fsync of duration `dur`.
    fn record_fsync(&self, dur: Duration) {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.fsync_ns.record_duration(dur);
    }

    /// Records a group-commit fsync covering everything appended since the
    /// previous one.
    fn record_group_fsync(&self, dur: Duration) {
        self.record_fsync(dur);
        let cur = self.appends.get();
        let prev = self.last_sync_appends.swap(cur, Ordering::Relaxed);
        self.group_batch.record(cur.saturating_sub(prev));
    }
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// Path of a memnode's redo log within the durability directory.
pub fn wal_path(dir: &Path, id: MemNodeId) -> PathBuf {
    dir.join(format!("wal-{:04}.log", id.0))
}

/// Path of a memnode's checkpoint image within the durability directory.
pub fn ckpt_path(dir: &Path, id: MemNodeId) -> PathBuf {
    dir.join(format!("ckpt-{:04}.img", id.0))
}

/// Where a log and the checkpoint image that bounds it keep their bytes:
/// the one place the medium is named. Framing, the failure latch, sync
/// modes, rotation, installing an image and reading everything back are
/// written once, above it.
enum Store {
    /// On disk: the log, read and written only at explicit offsets
    /// (`FileExt`) so appends, reads and rotation share no cursor, and the
    /// image file beside it ([`ckpt_path`]; none for a log opened alone).
    /// Rotation swaps in the handle of the file it renamed over the log.
    File {
        log: RwLock<File>,
        path: PathBuf,
        image: Option<PathBuf>,
    },
    /// In memory: kept across a crash of the node, lost with the process.
    Memory {
        log: Mutex<Vec<u8>>,
        image: Mutex<Option<Bytes>>,
    },
}

/// Writes `bytes` to a new file at `path` and syncs it; returns how long
/// the fsync took.
fn write_synced(path: &Path, bytes: &[u8]) -> io::Result<Duration> {
    let mut f = File::create(path)?;
    f.write_all(bytes)?;
    let t0 = Instant::now();
    f.sync_data()?;
    Ok(t0.elapsed())
}

/// Renames `from` over `to` and syncs the directory, so the rename lasts.
fn rename_synced(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::rename(from, to)?;
    if let Some(dir) = to.parent().and_then(|dir| File::open(dir).ok()) {
        let _ = dir.sync_all();
    }
    Ok(())
}

impl Store {
    /// Bytes the log holds, a torn tail included.
    fn len(&self) -> io::Result<u64> {
        match self {
            Store::File { log, .. } => Ok(log.read().metadata()?.len()),
            Store::Memory { log, .. } => Ok(log.lock().len() as u64),
        }
    }

    fn write_at(&self, at: u64, bytes: &[u8]) -> io::Result<()> {
        match self {
            Store::File { log, .. } => log.read().write_all_at(bytes, at),
            Store::Memory { log, .. } => {
                let mut log = log.lock();
                log.truncate(at as usize);
                log.extend_from_slice(bytes);
                Ok(())
            }
        }
    }

    /// The log's bytes from `from` up to `to`.
    fn read(&self, from: u64, to: u64) -> io::Result<Vec<u8>> {
        match self {
            Store::File { log, .. } => {
                let mut buf = vec![0; (to - from) as usize];
                log.read().read_exact_at(&mut buf, from)?;
                Ok(buf)
            }
            Store::Memory { log, .. } => (log.lock().get(from as usize..to as usize))
                .map(<[u8]>::to_vec)
                .ok_or_else(|| io::ErrorKind::UnexpectedEof.into()),
        }
    }

    /// Makes what was written durable: an fsync, or nothing in memory.
    fn sync(&self) -> io::Result<()> {
        match self {
            Store::File { log, .. } => log.read().sync_data(),
            Store::Memory { .. } => Ok(()),
        }
    }

    /// Keeps only the log's bytes from `from` up to `to`, dropping a
    /// checkpointed prefix or a torn tail: on disk through a synced sibling
    /// renamed over the log, so a crash leaves one or the other; in memory
    /// in place.
    fn keep(&self, from: u64, to: u64, stats: &WalStats) -> io::Result<()> {
        match self {
            Store::File { log, path, .. } => {
                let tmp = path.with_extension("rot");
                stats.record_fsync(write_synced(&tmp, &self.read(from, to)?)?);
                rename_synced(&tmp, path)?;
                *log.write() = OpenOptions::new().read(true).write(true).open(path)?;
            }
            Store::Memory { log, .. } => {
                let mut log = log.lock();
                log.truncate(to as usize);
                log.drain(..from as usize);
            }
        }
        Ok(())
    }

    /// Installs `bytes` as the image, as `checkpoint::write_atomic` says:
    /// on disk they land in a synced sibling that is renamed over the
    /// image; in memory the swap alone is atomic.
    fn install(&self, bytes: Vec<u8>) -> io::Result<()> {
        match self {
            Store::File { image, .. } => {
                let image = image.as_deref().ok_or(io::ErrorKind::Unsupported)?;
                let tmp = image.with_extension("tmp");
                let stage = |b: &[u8]| write_synced(&tmp, b).map(drop);
                checkpoint::write_atomic(bytes, stage, |_| rename_synced(&tmp, image))
            }
            Store::Memory { image, .. } => {
                let swap = |b| {
                    *image.lock() = Some(Bytes::from(b));
                    Ok(())
                };
                checkpoint::write_atomic(bytes, |_| Ok(()), swap)
            }
        }
    }

    /// The image, if one was ever installed.
    fn image(&self) -> io::Result<Option<Bytes>> {
        match self {
            Store::File { image, .. } => (image.as_deref().filter(|path| path.exists()))
                .map(|path| std::fs::read(path).map(Bytes::from))
                .transpose(),
            Store::Memory { image, .. } => Ok(image.lock().clone()),
        }
    }
}

// ---------------------------------------------------------------------------
// The log
// ---------------------------------------------------------------------------

struct WalInner {
    /// Bytes of whole frames in the store. A failed append can leave a
    /// torn tail past them, which [`Wal::read_back`] cuts.
    len: u64,
    /// Logical stream offset of the store's byte 0 (advances when a
    /// checkpoint drops the replayed prefix).
    base: u64,
    /// The frame under construction, reused across appends.
    frame: Vec<u8>,
}

/// Capacity above which the append buffer is released after use rather
/// than kept, so one huge record does not pin its size for good.
const FRAME_BUF_KEEP: usize = 64 << 10;

/// State shared with the sync paths (and the async flusher thread).
struct SyncShared {
    /// Where the bytes live.
    store: Store,
    /// Logical tail: total bytes ever appended this process.
    tail: AtomicU64,
    /// Logical offset known durable.
    synced: AtomicU64,
    /// Flusher shutdown flag.
    stop: AtomicBool,
    /// Latched on any append/fsync failure; the log is then read-only.
    failed: AtomicBool,
}

struct GroupState {
    leader_active: bool,
}

/// A per-memnode redo log. See the module docs for the locking contract.
pub struct Wal {
    mode: SyncMode,
    inner: Mutex<WalInner>,
    sync: Arc<SyncShared>,
    group: Mutex<GroupState>,
    group_cv: Condvar,
    /// Operation counters.
    pub stats: Arc<WalStats>,
    flusher: Option<std::thread::JoinHandle<()>>,
    /// Logical tail past which a memory log asks for a checkpoint
    /// ([`Wal::wants_checkpoint`]).
    due: AtomicU64,
}

/// Interval between background fsyncs in [`SyncMode::Async`].
const ASYNC_FLUSH_EVERY: Duration = Duration::from_millis(2);

impl Wal {
    /// Opens (or creates) the log file at `path`, appending after any
    /// existing content. A log opened alone keeps no checkpoint image. A
    /// log a crash may have torn is read back ([`Wal::read_back`]) before
    /// anything is appended.
    pub fn open(path: impl Into<PathBuf>, mode: SyncMode) -> io::Result<Wal> {
        Self::on_disk(path.into(), None, mode)
    }

    /// Memnode `id`'s log in `dcfg`'s directory, with its image beside it
    /// ([`wal_path`], [`ckpt_path`]). `fresh` first removes whatever an
    /// earlier run left there.
    pub(crate) fn durable(dcfg: &DurabilityConfig, id: MemNodeId, fresh: bool) -> io::Result<Wal> {
        let missing = io::Error::new(
            io::ErrorKind::InvalidInput,
            "durable memnode needs a directory",
        );
        let dir = dcfg.dir.as_deref().ok_or(missing)?;
        std::fs::create_dir_all(dir)?;
        let (path, image) = (wal_path(dir, id), ckpt_path(dir, id));
        if fresh {
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_file(&image);
        }
        Self::on_disk(path, Some(image), dcfg.sync)
    }

    /// A log held in memory: nothing to sync, and bounded by checkpoints
    /// it asks for itself.
    pub(crate) fn in_memory() -> Wal {
        let (log, image) = Default::default();
        Self::with_store(Store::Memory { log, image }, 0, SyncMode::None)
    }

    fn on_disk(path: PathBuf, image: Option<PathBuf>, mode: SyncMode) -> io::Result<Wal> {
        let log = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)?;
        let len = log.metadata()?.len();
        let store = Store::File {
            log: RwLock::new(log),
            path,
            image,
        };
        Ok(Self::with_store(store, len, mode))
    }

    fn with_store(store: Store, len: u64, mode: SyncMode) -> Wal {
        let sync = Arc::new(SyncShared {
            store,
            tail: AtomicU64::new(len),
            synced: AtomicU64::new(len),
            stop: AtomicBool::new(false),
            failed: AtomicBool::new(false),
        });
        let stats = Arc::new(WalStats::default());
        let flusher = if mode == SyncMode::Async {
            let sync = sync.clone();
            let stats = stats.clone();
            Some(std::thread::spawn(move || {
                while !sync.stop.load(Ordering::Acquire) {
                    std::thread::sleep(ASYNC_FLUSH_EVERY);
                    let tail = sync.tail.load(Ordering::Acquire);
                    if tail > sync.synced.load(Ordering::Acquire) {
                        let t0 = Instant::now();
                        match sync.store.sync() {
                            Ok(()) => {
                                stats.record_fsync(t0.elapsed());
                                sync.synced.fetch_max(tail, Ordering::AcqRel);
                            }
                            Err(_) => sync.failed.store(true, Ordering::Release),
                        }
                    }
                }
            }))
        } else {
            None
        };
        Wal {
            mode,
            inner: Mutex::new(WalInner {
                len,
                base: 0,
                frame: Vec::new(),
            }),
            sync,
            group: Mutex::new(GroupState {
                leader_active: false,
            }),
            group_cv: Condvar::new(),
            stats,
            flusher,
            due: AtomicU64::new(len + CHECKPOINT_LOG_BYTES),
        }
    }

    /// Acquires the appender lock. State mutations paired with a record
    /// must happen while this guard is held (see module docs).
    pub fn lock(&self) -> WalAppender<'_> {
        WalAppender {
            wal: self,
            inner: self.inner.lock(),
        }
    }

    /// Bytes currently retained in the log file (shrinks at checkpoints).
    pub fn retained_bytes(&self) -> u64 {
        self.inner.lock().len
    }

    /// Current logical tail: total bytes ever appended (never shrinks —
    /// checkpoints advance the base, not the tail).
    pub fn tail(&self) -> u64 {
        self.sync.tail.load(Ordering::Acquire)
    }

    /// Blocks until logical offset `upto` is durable per the sync mode.
    /// [`SyncMode::None`] and [`SyncMode::Async`] return immediately.
    ///
    /// [`SyncMode::Sync`] and [`SyncMode::GroupCommit`] share one
    /// leader/follower pipeline: the first waiter becomes the leader and
    /// issues the fsync; everyone who appended before that fsync rides it
    /// and returns without issuing their own. The only difference is the
    /// batching window — GroupCommit sleeps `window` to let the group
    /// build, Sync goes straight to the fsync and lets the fsync's own
    /// duration collect concurrent committers (an idle log still pays
    /// exactly one fsync per commit, so latency is unchanged).
    pub fn wait_durable(&self, upto: u64) -> Result<(), WalError> {
        let window = match self.mode {
            SyncMode::None | SyncMode::Async => return Ok(()),
            SyncMode::Sync => Duration::ZERO,
            SyncMode::GroupCommit { window } => window,
        };
        let mut g = self.group.lock();
        loop {
            if self.sync.synced.load(Ordering::Acquire) >= upto {
                return Ok(());
            }
            if self.sync.failed.load(Ordering::Acquire) {
                return Err(WalError::Failed);
            }
            if !g.leader_active {
                g.leader_active = true;
                drop(g);
                if !window.is_zero() {
                    std::thread::sleep(window);
                }
                let fault = faults::check_delay(faults::Site::WalFsync);
                if fault == Some(faults::Action::Panic) {
                    panic!("injected panic at wal.fsync");
                }
                let t0 = Instant::now();
                // Snapshot the tail right before the fsync: any append
                // whose tail store is visible here has its bytes in the
                // page cache, so the sync below covers it and it must be
                // credited.
                let tail = self.sync.tail.load(Ordering::Acquire);
                let synced = match fault {
                    Some(a) => Err(faults::io_error(faults::Site::WalFsync, a)),
                    None => self.sync.store.sync(),
                };
                if synced.is_ok() {
                    self.stats.record_group_fsync(t0.elapsed());
                    self.sync.synced.fetch_max(tail, Ordering::AcqRel);
                }
                // Hand leadership back (and wake the group) even on
                // failure, so waiters surface the error themselves
                // instead of hanging on a dead leader.
                g = self.group.lock();
                g.leader_active = false;
                if let Err(e) = synced {
                    // Latch the failure *before* waking the group so every
                    // waiter observes it and errors out instead of
                    // re-electing a leader against a dead device forever.
                    self.sync.failed.store(true, Ordering::Release);
                    self.group_cv.notify_all();
                    drop(g);
                    return Err(WalError::from_io(&e));
                }
                self.group_cv.notify_all();
            } else {
                self.group_cv.wait(&mut g);
            }
        }
    }

    /// True when the log survives the process: it is a file.
    pub fn is_durable(&self) -> bool {
        matches!(self.sync.store, Store::File { .. })
    }

    /// True once a memory log retains more than its bound — the larger of
    /// the default `checkpoint_log_bytes` and the last image's length, so a
    /// checkpoint encodes at most one image byte per byte logged. Never
    /// true of a file, whose checkpoints are its owner's policy.
    pub fn wants_checkpoint(&self) -> bool {
        let past = self.tail() > self.due.load(Ordering::Relaxed);
        past && matches!(self.sync.store, Store::Memory { .. })
    }

    /// Reads the image (if one was ever installed) and the retained log
    /// back from the store, for [`crate::recovery::recover_node`]. A torn
    /// tail — a failed append's, or a crash's mid-append — is first cut
    /// back to the last whole frame (on disk, durably), so appends extend
    /// a clean log; and the failure latch is cleared: the medium is
    /// trusted again (a chaos nemesis heals a degraded node this way).
    pub fn read_back(&self) -> io::Result<(Option<Bytes>, Vec<u8>)> {
        let store = &self.sync.store;
        let mut inner = self.inner.lock();
        let mut log = store.read(0, store.len()?)?;
        let valid = parse_frames(&log).1;
        if valid < log.len() as u64 {
            log.truncate(valid as usize);
            store.keep(0, valid, &self.stats)?;
        }
        inner.len = log.len() as u64;
        let tail = inner.base + inner.len;
        self.sync.tail.store(tail, Ordering::Release);
        self.sync.synced.fetch_min(tail, Ordering::AcqRel);
        self.sync.failed.store(false, Ordering::Release);
        Ok((store.image()?, log))
    }

    /// Installs `image`, a checkpoint of the state the log describes up to
    /// logical offset `upto`, then drops the log prefix it covers. The
    /// image goes in as `checkpoint::write_atomic` says, so a failure at
    /// either of its stages leaves the previous image and the whole log.
    pub fn install_image(&self, image: Vec<u8>, upto: u64) -> io::Result<()> {
        let due = upto + CHECKPOINT_LOG_BYTES.max(image.len() as u64);
        self.sync.store.install(image)?;
        self.drop_prefix(upto)?;
        self.due.store(due, Ordering::Relaxed);
        Ok(())
    }

    /// Reads up to `max` raw framed bytes starting at logical offset
    /// `from`, for shipping to a replication follower. Appends are blocked
    /// for the duration of the (bounded) read. When `from` predates the
    /// retained log (`from < base`, the prefix was checkpointed away) the
    /// segment comes back empty with `base > from` so the caller can
    /// detect that log shipping alone can no longer catch the follower up.
    pub fn read_from(&self, from: u64, max: u32) -> io::Result<WalSegment> {
        let inner = self.inner.lock();
        let (base, tail) = (inner.base, inner.base + inner.len);
        let mut seg = WalSegment {
            from,
            base,
            tail,
            bytes: Bytes::new(),
        };
        if (base..tail).contains(&from) {
            let to = tail.min(from + max as u64);
            seg.bytes = Bytes::from(self.sync.store.read(from - base, to - base)?);
        }
        Ok(seg)
    }

    /// Drops the log prefix before logical offset `upto` (records already
    /// captured by a checkpoint image), atomically: on disk via a sibling
    /// file and rename. Appends are blocked for the duration.
    pub fn drop_prefix(&self, upto: u64) -> io::Result<()> {
        let mut inner = self.inner.lock();
        let cut = upto.saturating_sub(inner.base);
        if cut == 0 {
            return Ok(());
        }
        if let Some(a) = faults::check_delay(faults::Site::WalTruncate) {
            if a == faults::Action::Panic {
                panic!("injected panic at wal.truncate");
            }
            return Err(faults::io_error(faults::Site::WalTruncate, a));
        }
        debug_assert!(cut <= inner.len, "checkpoint tail beyond log end");
        self.sync.store.keep(cut, inner.len, &self.stats)?;
        (inner.len, inner.base) = (inner.len - cut, upto);
        Ok(())
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        self.sync.stop.store(true, Ordering::Release);
        if let Some(h) = self.flusher.take() {
            let _ = h.join();
        }
    }
}

/// Guard over the log's appender lock; see [`Wal::lock`].
pub struct WalAppender<'a> {
    wal: &'a Wal,
    inner: MutexGuard<'a, WalInner>,
}

impl WalAppender<'_> {
    /// Appends one framed record; returns the logical end offset to pass
    /// to [`Wal::wait_durable`]. On I/O failure (real or injected) the
    /// failure latches and the owning memnode degrades
    /// to read-only instead of panicking; whatever part of the frame
    /// reached the store is a torn tail, which [`Wal::read_back`] cuts.
    pub fn append(&mut self, rec: &Record<'_>) -> Result<u64, WalError> {
        let wal = self.wal;
        if wal.sync.failed.load(Ordering::Acquire) {
            return Err(WalError::Failed);
        }
        let WalInner { len, frame, .. } = &mut *self.inner;
        frame.clear();
        frame.resize(FRAME_HEADER as usize, 0);
        rec.encode_into(frame);
        let (header, payload) = frame.split_at_mut(FRAME_HEADER as usize);
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        let at = *len;
        let store = &wal.sync.store;
        let res = match faults::check_delay(faults::Site::WalAppend) {
            None => store.write_at(at, frame).map_err(|e| WalError::from_io(&e)),
            Some(faults::Action::Panic) => panic!("injected panic at wal.append"),
            Some(faults::Action::NoSpace) => Err(WalError::NoSpace),
            Some(faults::Action::ShortWrite(n)) => {
                // The torn tail a real short write leaves behind.
                let n = (n as usize).min(frame.len());
                let _ = store.write_at(at, &frame[..n]);
                Err(WalError::ShortWrite {
                    wrote: n as u64,
                    want: frame.len() as u64,
                })
            }
            Some(other) => Err(WalError::Io(format!("injected {other:?} at wal.append"))),
        };
        let wrote = frame.len() as u64;
        if frame.capacity() > FRAME_BUF_KEEP {
            *frame = Vec::new();
        }
        if let Err(e) = res {
            wal.sync.failed.store(true, Ordering::Release);
            wal.group_cv.notify_all();
            return Err(e);
        }
        *len += wrote;
        let end = self.inner.base + self.inner.len;
        self.wal.sync.tail.store(end, Ordering::Release);
        self.wal.stats.appends.fetch_add(1, Ordering::Relaxed);
        self.wal.stats.bytes.fetch_add(wrote, Ordering::Relaxed);
        Ok(end)
    }

    /// Current logical tail (all records at or before it are reflected in
    /// memnode state — the checkpoint freeze point).
    pub fn tail(&self) -> u64 {
        self.inner.base + self.inner.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(tag: &str) -> PathBuf {
        let d = DurabilityConfig::ephemeral(tag, SyncMode::None)
            .dir
            .unwrap();
        std::fs::create_dir_all(&d).unwrap();
        d.join("wal.log")
    }

    #[test]
    fn record_roundtrip() {
        let writes = vec![(64u64, Bytes::from(vec![1, 2, 3])), (0u64, Bytes::new())];
        let spans = vec![(0u64, 8u64), (64, 67)];
        let parts = vec![0u16, 3];
        for rec in [
            Record::Apply {
                txid: 7,
                writes: &writes,
            },
            Record::Prepare {
                txid: 8,
                participants: &parts,
                spans: &spans,
                writes: &writes,
            },
            Record::Commit { txid: 9 },
            Record::Abort { txid: 10 },
        ] {
            let payload = rec.encode();
            let owned = OwnedRecord::decode(&payload).expect("decodes");
            assert_eq!(owned, OwnedRecord::decode(&payload).unwrap());
            match (&rec, &owned) {
                (
                    Record::Apply { txid, .. },
                    OwnedRecord::Apply {
                        txid: t2,
                        writes: w2,
                    },
                ) => {
                    assert_eq!(*txid, *t2);
                    assert_eq!(*w2, writes);
                }
                (
                    Record::Prepare { txid, .. },
                    OwnedRecord::Prepare {
                        txid: t2,
                        participants,
                        spans: s2,
                        writes: w2,
                    },
                ) => {
                    assert_eq!(*txid, *t2);
                    assert_eq!(*participants, parts);
                    assert_eq!(*s2, spans);
                    assert_eq!(*w2, writes);
                }
                (Record::Commit { txid }, OwnedRecord::Commit { txid: t2 }) => {
                    assert_eq!(txid, t2)
                }
                (Record::Abort { txid }, OwnedRecord::Abort { txid: t2 }) => {
                    assert_eq!(txid, t2)
                }
                other => panic!("mismatched decode {other:?}"),
            }
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(OwnedRecord::decode(&[]).is_none());
        assert!(OwnedRecord::decode(&[99]).is_none());
        let mut ok = Record::Commit { txid: 1 }.encode();
        ok.push(0); // trailing byte
        assert!(OwnedRecord::decode(&ok).is_none());
    }

    #[test]
    fn repl_record_roundtrip() {
        let writes = vec![(64u64, Bytes::from(vec![1, 2, 3]))];
        let inner = Record::Apply {
            txid: 7,
            writes: &writes,
        }
        .encode();
        let payload = Record::Repl {
            src_off: 4096,
            payload: &inner,
        }
        .encode();
        match OwnedRecord::decode(&payload).expect("decodes") {
            OwnedRecord::Repl { src_off, inner } => {
                assert_eq!(src_off, 4096);
                assert_eq!(*inner, OwnedRecord::Apply { txid: 7, writes });
            }
            other => panic!("wrong decode {other:?}"),
        }
        assert_eq!(OwnedRecord::decode(&payload).unwrap().txid(), 7);
    }

    #[test]
    fn nested_repl_rejected() {
        let inner = Record::Commit { txid: 1 }.encode();
        let once = Record::Repl {
            src_off: 10,
            payload: &inner,
        }
        .encode();
        let twice = Record::Repl {
            src_off: 20,
            payload: &once,
        }
        .encode();
        assert!(OwnedRecord::decode(&once).is_some());
        assert!(OwnedRecord::decode(&twice).is_none());
        // A repl record wrapping garbage is structural corruption too.
        let bad = Record::Repl {
            src_off: 30,
            payload: b"nonsense",
        }
        .encode();
        assert!(OwnedRecord::decode(&bad).is_none());
    }

    #[test]
    fn read_from_streams_whole_log() {
        let path = temp("readfrom");
        let wal = Wal::open(&path, SyncMode::None).unwrap();
        let writes = vec![(0u64, Bytes::from(vec![5u8; 32]))];
        let mut ends = Vec::new();
        for t in 0..6 {
            let mut a = wal.lock();
            ends.push(
                a.append(&Record::Apply {
                    txid: t,
                    writes: &writes,
                })
                .unwrap(),
            );
        }
        let tail = *ends.last().unwrap();
        // Full read from 0.
        let seg = wal.read_from(0, 1 << 20).unwrap();
        assert_eq!((seg.from, seg.base, seg.tail), (0, 0, tail));
        let (frames, valid) = parse_frames(&seg.bytes);
        assert_eq!(valid, tail);
        assert_eq!(frames.len(), 6);
        assert_eq!(
            frames.iter().map(|(end, ..)| *end).collect::<Vec<_>>(),
            ends
        );
        // A bounded read tears mid-frame; the parsed prefix is whole
        // frames only and the caller resumes at `from + valid`.
        let seg = wal
            .read_from(ends[1], (ends[3] - ends[1] + 3) as u32)
            .unwrap();
        let (frames, valid) = parse_frames(&seg.bytes);
        assert_eq!(frames.len(), 2);
        assert_eq!(ends[1] + valid, ends[3]);
        // Past the tail: empty.
        assert!(wal.read_from(tail, 1024).unwrap().bytes.is_empty());
        // Before the base after rotation: empty, with base exposing why.
        wal.drop_prefix(ends[2]).unwrap();
        let seg = wal.read_from(0, 1024).unwrap();
        assert!(seg.bytes.is_empty());
        assert_eq!(seg.base, ends[2]);
        let seg = wal.read_from(ends[2], 1 << 20).unwrap();
        let (frames, _) = parse_frames(&seg.bytes);
        assert_eq!(frames.len(), 3);
    }

    #[test]
    fn append_then_parse() {
        let path = temp("parse");
        let wal = Wal::open(&path, SyncMode::Sync).unwrap();
        let writes = vec![(8u64, Bytes::from(vec![9u8; 4]))];
        let end = {
            let mut a = wal.lock();
            a.append(&Record::Apply {
                txid: 1,
                writes: &writes,
            })
            .unwrap();
            a.append(&Record::Commit { txid: 2 }).unwrap()
        };
        wal.wait_durable(end).unwrap();
        assert_eq!(wal.stats.snapshot().0, 2);
        assert!(wal.stats.snapshot().2 >= 1);
        drop(wal);

        let buf = std::fs::read(&path).unwrap();
        let (recs, valid) = parse_log(&buf);
        assert_eq!(valid, buf.len() as u64);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1], OwnedRecord::Commit { txid: 2 });
    }

    #[test]
    fn torn_tail_truncates_to_last_valid() {
        let path = temp("torn");
        let wal = Wal::open(&path, SyncMode::None).unwrap();
        let writes = vec![(0u64, Bytes::from(vec![1u8; 16]))];
        for t in 0..5 {
            let mut a = wal.lock();
            a.append(&Record::Apply {
                txid: t,
                writes: &writes,
            })
            .unwrap();
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        let frame = full.len() / 5;
        // Tear mid-way through the last frame.
        let torn = &full[..full.len() - frame / 2];
        let (recs, valid) = parse_log(torn);
        assert_eq!(recs.len(), 4);
        assert_eq!(valid as usize, 4 * frame);
        // Corrupt a byte in the middle: parsing stops at that record.
        let mut bad = full.clone();
        bad[2 * frame + 12] ^= 0xFF;
        let (recs, valid) = parse_log(&bad);
        assert_eq!(recs.len(), 2);
        assert_eq!(valid as usize, 2 * frame);
    }

    #[test]
    fn drop_prefix_keeps_suffix() {
        let path = temp("rotate");
        let wal = Wal::open(&path, SyncMode::None).unwrap();
        let writes = vec![(0u64, Bytes::from(vec![7u8; 8]))];
        let mid = {
            let mut a = wal.lock();
            a.append(&Record::Apply {
                txid: 1,
                writes: &writes,
            })
            .unwrap()
        };
        {
            let mut a = wal.lock();
            a.append(&Record::Commit { txid: 2 }).unwrap();
        }
        wal.drop_prefix(mid).unwrap();
        let buf = std::fs::read(&path).unwrap();
        let (recs, _) = parse_log(&buf);
        assert_eq!(recs, vec![OwnedRecord::Commit { txid: 2 }]);
        // Appends continue after rotation.
        {
            let mut a = wal.lock();
            a.append(&Record::Abort { txid: 3 }).unwrap();
        }
        let buf = std::fs::read(&path).unwrap();
        let (recs, _) = parse_log(&buf);
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn group_commit_batches_fsyncs() {
        let path = temp("group");
        let wal = Arc::new(
            Wal::open(
                &path,
                SyncMode::GroupCommit {
                    window: Duration::from_millis(5),
                },
            )
            .unwrap(),
        );
        let writes = vec![(0u64, Bytes::from(vec![1u8; 8]))];
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let wal = wal.clone();
                let writes = writes.clone();
                s.spawn(move || {
                    let end = {
                        let mut a = wal.lock();
                        a.append(&Record::Apply {
                            txid: t,
                            writes: &writes,
                        })
                        .unwrap()
                    };
                    wal.wait_durable(end).unwrap();
                });
            }
        });
        let (appends, _, fsyncs) = wal.stats.snapshot();
        assert_eq!(appends, 8);
        assert!((1..8).contains(&fsyncs), "fsyncs {fsyncs} not batched");
    }

    /// Sync mode shares fsyncs too: when every append lands before any
    /// waiter reaches `wait_durable` (forced by the barrier), the first
    /// leader's fsync covers all of them and the rest ride it. Allows 2
    /// for the race where a thread claims leadership between the first
    /// leader's tail snapshot and its credit.
    #[test]
    fn sync_mode_shares_fsyncs_under_concurrency() {
        let path = temp("sync-share");
        let wal = Arc::new(Wal::open(&path, SyncMode::Sync).unwrap());
        let writes = vec![(0u64, Bytes::from(vec![1u8; 8]))];
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let wal = wal.clone();
                let writes = writes.clone();
                let barrier = &barrier;
                s.spawn(move || {
                    let end = {
                        let mut a = wal.lock();
                        a.append(&Record::Apply {
                            txid: t,
                            writes: &writes,
                        })
                        .unwrap()
                    };
                    barrier.wait();
                    wal.wait_durable(end).unwrap();
                });
            }
        });
        let (appends, _, fsyncs) = wal.stats.snapshot();
        assert_eq!(appends, 8);
        assert!(
            (1..=2).contains(&fsyncs),
            "fsyncs {fsyncs}: sync-mode committers did not share"
        );
    }
}
