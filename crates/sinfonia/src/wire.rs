//! Binary wire protocol for the memnode RPC surface.
//!
//! Frames are length-prefixed and CRC-checked: `[len: u32 LE][crc32: u32
//! LE][payload]`, reusing the WAL's IEEE CRC-32 ([`crate::wal::crc32`]).
//! Payloads are tag-byte messages with little-endian fixed-width fields —
//! the same style as the redo-log records, so the two on-disk/on-wire
//! formats stay mutually legible.
//!
//! Decoding is **total**: every malformed input (torn frame, truncated
//! length, bit flip, bad tag) surfaces as a [`WireError`], never a panic,
//! and never an allocation sized by an unverified field: frames are capped
//! at [`MAX_FRAME`], and below that cap a length prefix reserves at most
//! the 64 KiB of a connection's read buffer until the bytes it promises
//! have arrived. Decoding is also **zero-copy** on the payload plane: a
//! [`FrameReader`] hands each frame out as one owned buffer and write/read
//! payloads are [`Bytes`] slices of it, so a received minitransaction
//! flows into the memnode's staging area and redo log without being
//! copied again (the PR 5 data plane, now over a socket). A frame that has
//! fully arrived costs its connection one `read`.
//!
//! The module is std-only: plain blocking TCP / Unix-domain sockets, no
//! async runtime. [`Endpoint`] names a listening address in either family.

use crate::bytes::Bytes;
use crate::lock::TxId;
use crate::memnode::{SingleResult, Vote};
use crate::minitx::LockPolicy;
use crate::recovery::NodeMeta;
use crate::rpc::NodeStats;
use crate::wal::crc32;
use minuet_obs::SpanRecord;
use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::time::Duration;

/// Protocol version carried in `Hello`; bumped on incompatible changes.
/// Version 2 added the `Traced` request envelope (optional trace context,
/// answered by a `TracedReply` carrying server-side spans) and the
/// `ObsSnapshot` / `TraceDump` admin requests. Version 3 appends a
/// one-byte [`NodeFlags`] trailer to **every** reply frame, so clients
/// learn crashed/joining/retiring state as a side effect of any RPC and
/// never need a dedicated `Flags` round trip on the hot path. Version 4
/// adds the epoch/replication family: `EpochMark`, and the WAL-streaming
/// requests `ReplFetch` / `ReplApply` / `ReplStatus` with their `Epoch`,
/// `Frames`, and `ReplStatus` replies.
pub const PROTO_VERSION: u16 = 4;

/// Largest admissible frame payload. Frames claiming more are rejected
/// outright; what a smaller, still-untrue length prefix can cost is
/// bounded by [`FrameReader`]'s reserve cap.
pub const MAX_FRAME: u32 = 64 << 20;

/// Size of the frame header (length + CRC), in bytes.
pub const FRAME_HDR: usize = 8;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A protocol-level decoding failure. Connection-fatal: the peer that
/// observes one closes the connection (stream framing cannot resynchronize
/// after corruption).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the announced frame or field did.
    Truncated,
    /// The payload CRC did not match the frame header.
    BadCrc {
        /// CRC announced in the frame header.
        want: u32,
        /// CRC computed over the received payload.
        got: u32,
    },
    /// Unknown message tag.
    BadTag(u8),
    /// The length prefix exceeds [`MAX_FRAME`].
    FrameTooLarge(u32),
    /// A field held an inadmissible value.
    BadValue(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadCrc { want, got } => {
                write!(
                    f,
                    "frame CRC mismatch: header {want:#10x}, payload {got:#10x}"
                )
            }
            WireError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            WireError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds MAX_FRAME"),
            WireError::BadValue(what) => write!(f, "inadmissible field value: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

// ---------------------------------------------------------------------------
// Endpoints and streams
// ---------------------------------------------------------------------------

/// A listening address for a memnode server, in either socket family.
///
/// Parsed from `tcp:HOST:PORT` or `unix:/path/to.sock`:
///
/// ```
/// use minuet_sinfonia::wire::Endpoint;
/// let e = Endpoint::parse("tcp:127.0.0.1:7000").unwrap();
/// assert_eq!(e.to_string(), "tcp:127.0.0.1:7000");
/// assert!(Endpoint::parse("quic:nope").is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address (`host:port` as accepted by `ToSocketAddrs`).
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses `tcp:HOST:PORT` / `unix:PATH`.
    pub fn parse(s: &str) -> Result<Endpoint, WireError> {
        if let Some(addr) = s.strip_prefix("tcp:") {
            if addr.is_empty() {
                return Err(WireError::BadValue("empty tcp address"));
            }
            Ok(Endpoint::Tcp(addr.to_string()))
        } else if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(WireError::BadValue("empty unix path"));
            }
            Ok(Endpoint::Unix(PathBuf::from(path)))
        } else {
            Err(WireError::BadValue(
                "endpoint must start with tcp: or unix:",
            ))
        }
    }

    /// Opens a listener on this endpoint. For Unix endpoints a stale
    /// socket file from a previous run is removed first.
    pub fn listen(&self) -> io::Result<Listener> {
        match self {
            Endpoint::Tcp(addr) => Ok(Listener::Tcp(std::net::TcpListener::bind(addr)?)),
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
                Ok(Listener::Unix(std::os::unix::net::UnixListener::bind(
                    path,
                )?))
            }
        }
    }

    /// Connects to this endpoint with a dial timeout (best-effort for
    /// Unix sockets, which connect or fail immediately).
    pub fn dial(&self, timeout: Duration) -> io::Result<Stream> {
        match self {
            Endpoint::Tcp(addr) => {
                use std::net::ToSocketAddrs;
                let addr = addr
                    .to_socket_addrs()?
                    .next()
                    .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no address"))?;
                let s = std::net::TcpStream::connect_timeout(&addr, timeout)?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
            Endpoint::Unix(path) => {
                Ok(Stream::Unix(std::os::unix::net::UnixStream::connect(path)?))
            }
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// A bound listener in either socket family.
pub enum Listener {
    /// TCP listener.
    Tcp(std::net::TcpListener),
    /// Unix-domain listener.
    Unix(std::os::unix::net::UnixListener),
}

impl Listener {
    /// Accepts one connection (blocking unless the listener is
    /// nonblocking).
    pub fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                Ok(Stream::Unix(s))
            }
        }
    }

    /// Switches the listener between blocking and nonblocking accepts.
    pub fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nb),
            Listener::Unix(l) => l.set_nonblocking(nb),
        }
    }
}

/// A connected stream in either socket family.
#[derive(Debug)]
pub enum Stream {
    /// TCP connection.
    Tcp(std::net::TcpStream),
    /// Unix-domain connection.
    Unix(std::os::unix::net::UnixStream),
}

impl Stream {
    /// Sets both read and write timeouts (`None` blocks forever).
    pub fn set_timeouts(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => {
                s.set_read_timeout(t)?;
                s.set_write_timeout(t)
            }
            Stream::Unix(s) => {
                s.set_read_timeout(t)?;
                s.set_write_timeout(t)
            }
        }
    }

    /// Clones the stream handle (shares the underlying socket).
    pub fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    /// Abruptly shuts down both directions, waking any blocked reader —
    /// the fault-injection hammer the tests use to simulate a died server.
    pub fn shutdown(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Builds a sealed frame: reserves the 8-byte header, lets `body` append
/// the payload, then stamps length and CRC.
fn seal(body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut buf = vec![0u8; FRAME_HDR];
    body(&mut buf);
    let len = (buf.len() - FRAME_HDR) as u32;
    debug_assert!(len <= MAX_FRAME, "oversized frame built locally");
    let crc = crc32(&buf[FRAME_HDR..]);
    buf[0..4].copy_from_slice(&len.to_le_bytes());
    buf[4..8].copy_from_slice(&crc.to_le_bytes());
    buf
}

/// Parses a frame header — the one place a length prefix is validated —
/// returning the payload length and the announced CRC.
fn parse_header(buf: &[u8]) -> Result<(usize, u32), WireError> {
    let Some(hdr) = buf.first_chunk::<FRAME_HDR>() else {
        return Err(WireError::Truncated);
    };
    let len = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge(len));
    }
    let want = u32::from_le_bytes([hdr[4], hdr[5], hdr[6], hdr[7]]);
    Ok((len as usize, want))
}

fn check_crc(payload: &[u8], want: u32) -> Result<(), WireError> {
    let got = crc32(payload);
    if got == want {
        Ok(())
    } else {
        Err(WireError::BadCrc { want, got })
    }
}

/// Size of a connection's read buffer, and the most a frame's length
/// prefix may reserve before its payload bytes have actually arrived.
const READ_BUF: usize = 64 << 10;

/// A connection with a buffered frame reader: a frame that has fully
/// arrived costs one `read` (header and payload together), and bytes read
/// past it stay with the connection for the next call.
pub struct FrameReader<R> {
    inner: R,
    buf: Box<[u8]>,
    /// `buf[pos..end]` holds bytes received but not yet handed out.
    pos: usize,
    end: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a connection; nothing is read until the first frame is asked for.
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader {
            inner,
            buf: vec![0u8; READ_BUF].into_boxed_slice(),
            pos: 0,
            end: 0,
        }
    }

    /// The underlying connection (for timeouts and handle clones).
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// The underlying connection, for writing: replies and requests go
    /// straight to it, only the inbound direction is buffered.
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Reads one frame, validating length and CRC. The payload is one
    /// owned buffer, returned as [`Bytes`] so message decoding can alias
    /// it zero-copy.
    ///
    /// Protocol-level failures arrive as `io::ErrorKind::InvalidData`
    /// wrapping a [`WireError`]; an early end of stream surfaces as
    /// `UnexpectedEof`. Either way the connection is unusable afterwards.
    pub fn read_frame(&mut self) -> io::Result<Bytes> {
        while self.end - self.pos < FRAME_HDR {
            // Fewer than eight bytes are pending; move them to the front
            // so the read below has the whole buffer to fill.
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
            match self.inner.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let (len, want) = parse_header(&self.buf[self.pos..self.end])?;
        self.pos += FRAME_HDR;
        let buffered = len.min(self.end - self.pos);
        let mut payload = Vec::new();
        read_payload(
            &self.buf[self.pos..self.pos + buffered],
            &mut self.inner,
            len,
            &mut payload,
        )?;
        self.pos += buffered;
        check_crc(&payload, want)?;
        Ok(Bytes::from(payload))
    }
}

/// Assembles a `len`-byte payload in `out` from the bytes already
/// `buffered` and, for the remainder, straight from `r`. The untrusted
/// `len` is believed only as far as bytes have arrived to back it: `out`
/// never holds more than [`READ_BUF`] or twice what has been received,
/// whichever is larger, ends at exactly `len`, and is never zero-filled
/// to the announced length.
fn read_payload(
    buffered: &[u8],
    r: &mut impl Read,
    len: usize,
    out: &mut Vec<u8>,
) -> io::Result<()> {
    out.reserve_exact(len.min(READ_BUF));
    out.extend_from_slice(buffered);
    while out.len() < len {
        let step = len.min((2 * out.len()).max(READ_BUF)) - out.len();
        out.reserve_exact(step);
        if r.by_ref().take(step as u64).read_to_end(out)? < step {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
    }
    Ok(())
}

/// In-memory frame decoding for tests and fuzzing: decodes one frame from
/// the front of `buf`, returning the payload and the total frame size
/// consumed.
pub fn decode_frame(buf: &[u8]) -> Result<(Bytes, usize), WireError> {
    let (len, want) = parse_header(buf)?;
    let total = FRAME_HDR + len;
    let payload = buf.get(FRAME_HDR..total).ok_or(WireError::Truncated)?;
    check_crc(payload, want)?;
    Ok((Bytes::copy_from_slice(payload), total))
}

// ---------------------------------------------------------------------------
// Cursor (bounds-checked zero-copy reader over a frame payload)
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian reader over a frame payload. Variable-
/// length fields come back as [`Bytes`] slices of the frame buffer.
struct Cur<'a> {
    buf: &'a Bytes,
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a Bytes) -> Self {
        Cur { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadValue("boolean")),
        }
    }

    /// A length-prefixed byte payload, aliased from the frame buffer.
    fn bytes(&mut self) -> Result<Bytes, WireError> {
        let len = self.u32()? as usize;
        let end = self.pos.checked_add(len).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let b = self.buf.slice(self.pos, len);
        self.pos = end;
        Ok(b)
    }

    fn done(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::BadValue("trailing bytes after message"))
        }
    }
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

// ---------------------------------------------------------------------------
// Shards on the wire
// ---------------------------------------------------------------------------

/// A minitransaction shard as shipped to one memnode: the compare, read,
/// and write items destined there, each carrying its index in the original
/// minitransaction so the coordinator can reassemble results.
///
/// Building one from a borrowed [`crate::minitx::Shard`] is cheap: write
/// payloads are `Bytes` clones (refcount bumps), compare expectations are
/// small copies.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireShard {
    /// `(original index, offset, expected bytes)` compare items.
    pub compares: Vec<(u32, u64, Bytes)>,
    /// `(original index, offset, length)` read items.
    pub reads: Vec<(u32, u64, u32)>,
    /// `(original index, offset, payload)` write items.
    pub writes: Vec<(u32, u64, Bytes)>,
}

impl WireShard {
    /// Captures a borrowed coordinator-side shard.
    pub fn from_shard(shard: &crate::minitx::Shard<'_>) -> WireShard {
        WireShard {
            compares: shard
                .compares
                .iter()
                .map(|(i, c)| (*i as u32, c.range.off, Bytes::copy_from_slice(&c.expected)))
                .collect(),
            reads: shard
                .reads
                .iter()
                .map(|(i, r)| (*i as u32, r.range.off, r.range.len))
                .collect(),
            writes: shard
                .writes
                .iter()
                .map(|(i, w)| (*i as u32, w.range.off, w.data.clone()))
                .collect(),
        }
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.compares.len() as u32);
        for (idx, off, expected) in &self.compares {
            put_u32(buf, *idx);
            put_u64(buf, *off);
            put_bytes(buf, expected);
        }
        put_u32(buf, self.reads.len() as u32);
        for (idx, off, len) in &self.reads {
            put_u32(buf, *idx);
            put_u64(buf, *off);
            put_u32(buf, *len);
        }
        put_u32(buf, self.writes.len() as u32);
        for (idx, off, data) in &self.writes {
            put_u32(buf, *idx);
            put_u64(buf, *off);
            put_bytes(buf, data);
        }
    }

    fn decode(c: &mut Cur<'_>) -> Result<WireShard, WireError> {
        let mut s = WireShard::default();
        for _ in 0..c.u32()? {
            let idx = c.u32()?;
            let off = c.u64()?;
            let expected = c.bytes()?;
            s.compares.push((idx, off, expected));
        }
        for _ in 0..c.u32()? {
            let idx = c.u32()?;
            let off = c.u64()?;
            let len = c.u32()?;
            s.reads.push((idx, off, len));
        }
        for _ in 0..c.u32()? {
            let idx = c.u32()?;
            let off = c.u64()?;
            let data = c.bytes()?;
            s.writes.push((idx, off, data));
        }
        Ok(s)
    }

    /// Highest byte offset any item touches (exclusive); used by the
    /// server for bounds validation before dispatch.
    pub fn max_extent(&self) -> u64 {
        let c = self
            .compares
            .iter()
            .map(|(_, off, e)| off.saturating_add(e.len() as u64));
        let r = self
            .reads
            .iter()
            .map(|(_, off, len)| off.saturating_add(*len as u64));
        let w = self
            .writes
            .iter()
            .map(|(_, off, d)| off.saturating_add(d.len() as u64));
        c.chain(r).chain(w).max().unwrap_or(0)
    }
}

fn encode_policy(buf: &mut Vec<u8>, p: LockPolicy) {
    match p {
        LockPolicy::AbortOnBusy => buf.push(0),
        LockPolicy::Block(d) => {
            buf.push(1);
            put_u64(buf, d.as_nanos().min(u128::from(u64::MAX)) as u64);
        }
    }
}

fn decode_policy(c: &mut Cur<'_>) -> Result<LockPolicy, WireError> {
    match c.u8()? {
        0 => Ok(LockPolicy::AbortOnBusy),
        1 => Ok(LockPolicy::Block(Duration::from_nanos(c.u64()?))),
        _ => Err(WireError::BadValue("lock policy")),
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One batched minitransaction as shipped in [`Request::ExecBatch`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireBatchItem {
    /// Minitransaction id (coordinator-assigned).
    pub txid: TxId,
    /// Lock contention policy.
    pub policy: LockPolicy,
    /// The items destined for this memnode.
    pub shard: WireShard,
}

/// A client→server message. One request per frame; every request gets
/// exactly one [`Response`] frame back on the same connection.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake: the server answers with its id, capacity, and version.
    Hello {
        /// Client's protocol version.
        version: u16,
    },
    /// Collapsed one-phase minitransaction execution.
    ExecSingle {
        /// Minitransaction id.
        txid: TxId,
        /// Lock contention policy.
        policy: LockPolicy,
        /// Items destined for this memnode.
        shard: WireShard,
    },
    /// A batch of independent single-memnode minitransactions sharing this
    /// round trip (the `exec_many` fast path).
    ExecBatch {
        /// The batch members, executed in order.
        items: Vec<WireBatchItem>,
    },
    /// Two-phase prepare (vote request).
    Prepare {
        /// Minitransaction id.
        txid: TxId,
        /// Lock contention policy.
        policy: LockPolicy,
        /// Full participant set (logged for in-doubt resolution).
        participants: Vec<u16>,
        /// Items destined for this memnode.
        shard: WireShard,
    },
    /// Two-phase commit decision.
    Commit {
        /// Minitransaction id.
        txid: TxId,
    },
    /// Two-phase abort decision.
    Abort {
        /// Minitransaction id.
        txid: TxId,
    },
    /// Unsynchronized raw read (bootstrap / GC scans).
    RawRead {
        /// Byte offset.
        off: u64,
        /// Length.
        len: u32,
    },
    /// Raw bootstrap write.
    RawWrite {
        /// Byte offset.
        off: u64,
        /// Payload.
        data: Bytes,
    },
    /// Sets / clears the elastic-join fence (no replicated reads until
    /// seeded).
    SetJoining(bool),
    /// Sets / clears the drain fence (allocation steers away).
    SetRetiring(bool),
    /// Crash injection: drop volatile state.
    Crash,
    /// Recover from mirror / disk.
    Recover,
    /// Take a checkpoint now.
    Checkpoint,
    /// Fetch operation / durability counters.
    Stats,
    /// Fetch crashed/joining/retiring flags.
    Flags,
    /// Fetch recovery metadata (in-doubt transactions + decided set).
    Meta,
    /// Compare primary and backup images over the probe ranges.
    MirrorConsistent {
        /// `(offset, length)` probe ranges.
        probe: Vec<(u64, u32)>,
    },
    /// Ask the server process to exit cleanly after replying.
    Shutdown,
    /// Trace envelope: the inner request executes normally, and the reply
    /// comes back as [`Response::TracedReply`] carrying the server-side
    /// spans recorded while serving it. Envelopes do not nest.
    Traced {
        /// Client-assigned trace id (stitches server spans onto the
        /// client's trace).
        trace_id: u64,
        /// The request being traced.
        inner: Box<Request>,
    },
    /// Fetch the server's full metrics snapshot (every registered counter
    /// and histogram), answered by [`Response::Obs`].
    ObsSnapshot,
    /// Fetch recent traces from the server's buffer, answered by
    /// [`Response::Traces`].
    TraceDump {
        /// At most this many traces, newest last.
        max: u32,
        /// Dump the slow-op buffer instead of the recent-trace buffer.
        slow: bool,
    },
    /// Advances the memnode's advisory epoch register (forward-only);
    /// answered by [`Response::Epoch`] carrying the previous value.
    EpochMark {
        /// The epoch to advance to.
        epoch: u64,
        /// Whether this marks the close of the epoch (advisory).
        closing: bool,
    },
    /// Fetches raw WAL frames starting at logical offset `from`, answered
    /// by [`Response::Frames`]. The replication pull path.
    ReplFetch {
        /// Logical WAL offset to read from.
        from: u64,
        /// At most this many bytes back.
        max: u32,
    },
    /// Applies a fetched segment of primary WAL frames on a follower;
    /// answered by [`Response::ReplStatus`].
    ReplApply {
        /// Logical source-WAL offset the segment starts at.
        from: u64,
        /// Raw CRC-framed WAL bytes as fetched from the primary.
        frames: Bytes,
    },
    /// Fetches the follower-side replication watermark and counters,
    /// answered by [`Response::ReplStatus`].
    ReplStatus,
    /// Admin: applies a fault-injection spec (`minuet_faults::apply_spec`
    /// grammar, e.g. `"wal.fsync=err:count=3"` or `"clear"`) inside the
    /// server process; answered by [`Response::Faults`] carrying the
    /// number of failpoints armed afterwards.
    Faults {
        /// The spec string, handed to `apply_spec` verbatim.
        spec: String,
    },
}

/// Request/response tag bytes. Public so tests and benches can identify
/// RPC kinds in traces (client [`minuet_obs::SpanKind::Rtt`] spans carry
/// the request tag).
pub mod tag {
    /// Version/feature handshake.
    pub const HELLO: u8 = 0x01;
    /// One-phase single-memnode minitransaction.
    pub const EXEC_SINGLE: u8 = 0x02;
    /// Batch of independent single-memnode minitransactions.
    pub const EXEC_BATCH: u8 = 0x03;
    /// 2PC phase one (vote).
    pub const PREPARE: u8 = 0x04;
    /// 2PC phase two (commit).
    pub const COMMIT: u8 = 0x05;
    /// 2PC phase two (abort).
    pub const ABORT: u8 = 0x06;
    /// Raw object read (recovery / admin).
    pub const RAW_READ: u8 = 0x07;
    /// Raw object write (recovery / admin).
    pub const RAW_WRITE: u8 = 0x08;
    /// Set/clear the joining membership flag.
    pub const SET_JOINING: u8 = 0x09;
    /// Set/clear the retiring membership flag.
    pub const SET_RETIRING: u8 = 0x0A;
    /// Fault injection: drop state, refuse service.
    pub const CRASH: u8 = 0x0B;
    /// Fault injection: recover from the WAL.
    pub const RECOVER: u8 = 0x0C;
    /// Checkpoint the WAL + space.
    pub const CHECKPOINT: u8 = 0x0D;
    /// Memnode counters snapshot.
    pub const STATS: u8 = 0x0E;
    /// Explicit membership-flag probe (liveness checks only — flags
    /// normally ride every reply's trailer byte).
    pub const FLAGS: u8 = 0x0F;
    /// Space geometry / capacity metadata.
    pub const META: u8 = 0x10;
    /// Backup mirror of the full space.
    pub const MIRROR: u8 = 0x11;
    /// Clean daemon shutdown.
    pub const SHUTDOWN: u8 = 0x12;
    /// Envelope: inner request + server-side trace in the reply.
    pub const TRACED: u8 = 0x13;
    /// Observability registry snapshot.
    pub const OBS_SNAPSHOT: u8 = 0x14;
    /// Drain the recent/slow trace ring.
    pub const TRACE_DUMP: u8 = 0x15;
    /// Advance the advisory epoch register.
    pub const EPOCH_MARK: u8 = 0x16;
    /// Fetch raw WAL frames for replication.
    pub const REPL_FETCH: u8 = 0x17;
    /// Apply fetched WAL frames on a follower.
    pub const REPL_APPLY: u8 = 0x18;
    /// Probe follower replication watermark and counters.
    pub const REPL_STATUS: u8 = 0x19;
    /// Apply a fault-injection spec in the server process (admin).
    pub const FAULTS: u8 = 0x1A;

    /// Reply to [`HELLO`].
    pub const R_HELLO: u8 = 0x81;
    /// Reply to [`EXEC_SINGLE`].
    pub const R_SINGLE: u8 = 0x82;
    /// Reply to [`EXEC_BATCH`].
    pub const R_BATCH: u8 = 0x83;
    /// Reply to [`PREPARE`].
    pub const R_VOTE: u8 = 0x84;
    /// Empty acknowledgement.
    pub const R_UNIT: u8 = 0x85;
    /// Byte-payload reply.
    pub const R_DATA: u8 = 0x86;
    /// Boolean reply.
    pub const R_BOOL: u8 = 0x87;
    /// Reply to [`STATS`].
    pub const R_STATS: u8 = 0x88;
    /// Reply to [`FLAGS`].
    pub const R_FLAGS: u8 = 0x89;
    /// Reply to [`META`].
    pub const R_META: u8 = 0x8A;
    /// Memnode up but refusing service (crashed / draining).
    pub const R_UNAVAILABLE: u8 = 0x8B;
    /// Typed error reply.
    pub const R_ERROR: u8 = 0x8C;
    /// Reply envelope carrying the server-side trace.
    pub const R_TRACED: u8 = 0x8D;
    /// Reply to [`OBS_SNAPSHOT`].
    pub const R_OBS: u8 = 0x8E;
    /// Reply to [`TRACE_DUMP`].
    pub const R_TRACES: u8 = 0x8F;
    /// Reply to [`EPOCH_MARK`] (previous epoch value).
    pub const R_EPOCH: u8 = 0x90;
    /// Reply to [`REPL_FETCH`]: a raw WAL segment.
    pub const R_FRAMES: u8 = 0x91;
    /// Reply to [`REPL_APPLY`] / [`REPL_STATUS`].
    pub const R_REPL_STATUS: u8 = 0x92;
    /// Reply to [`FAULTS`]: failpoints armed after applying the spec.
    pub const R_FAULTS: u8 = 0x93;
}

impl Request {
    /// Encodes the request as a complete sealed frame, ready to write.
    pub fn encode(&self) -> Vec<u8> {
        seal(|buf| self.encode_payload(buf))
    }

    /// Stable kind name for metric series (`wire.lat.exec_single`). A
    /// [`Request::Traced`] envelope reports its inner request's kind.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Request::Hello { .. } => "hello",
            Request::ExecSingle { .. } => "exec_single",
            Request::ExecBatch { .. } => "exec_batch",
            Request::Prepare { .. } => "prepare",
            Request::Commit { .. } => "commit",
            Request::Abort { .. } => "abort",
            Request::RawRead { .. } => "raw_read",
            Request::RawWrite { .. } => "raw_write",
            Request::SetJoining(_) => "set_joining",
            Request::SetRetiring(_) => "set_retiring",
            Request::Crash => "crash",
            Request::Recover => "recover",
            Request::Checkpoint => "checkpoint",
            Request::Stats => "stats",
            Request::Flags => "flags",
            Request::Meta => "meta",
            Request::MirrorConsistent { .. } => "mirror",
            Request::Shutdown => "shutdown",
            Request::Traced { inner, .. } => inner.kind_name(),
            Request::ObsSnapshot => "obs_snapshot",
            Request::TraceDump { .. } => "trace_dump",
            Request::EpochMark { .. } => "epoch_mark",
            Request::ReplFetch { .. } => "repl_fetch",
            Request::ReplApply { .. } => "repl_apply",
            Request::ReplStatus => "repl_status",
            Request::Faults { .. } => "faults",
        }
    }

    /// The wire tag byte (inner tag for a [`Request::Traced`] envelope);
    /// used to tag RTT spans with the request kind.
    pub fn tag_byte(&self) -> u8 {
        match self {
            Request::Hello { .. } => tag::HELLO,
            Request::ExecSingle { .. } => tag::EXEC_SINGLE,
            Request::ExecBatch { .. } => tag::EXEC_BATCH,
            Request::Prepare { .. } => tag::PREPARE,
            Request::Commit { .. } => tag::COMMIT,
            Request::Abort { .. } => tag::ABORT,
            Request::RawRead { .. } => tag::RAW_READ,
            Request::RawWrite { .. } => tag::RAW_WRITE,
            Request::SetJoining(_) => tag::SET_JOINING,
            Request::SetRetiring(_) => tag::SET_RETIRING,
            Request::Crash => tag::CRASH,
            Request::Recover => tag::RECOVER,
            Request::Checkpoint => tag::CHECKPOINT,
            Request::Stats => tag::STATS,
            Request::Flags => tag::FLAGS,
            Request::Meta => tag::META,
            Request::MirrorConsistent { .. } => tag::MIRROR,
            Request::Shutdown => tag::SHUTDOWN,
            Request::Traced { inner, .. } => inner.tag_byte(),
            Request::ObsSnapshot => tag::OBS_SNAPSHOT,
            Request::TraceDump { .. } => tag::TRACE_DUMP,
            Request::EpochMark { .. } => tag::EPOCH_MARK,
            Request::ReplFetch { .. } => tag::REPL_FETCH,
            Request::ReplApply { .. } => tag::REPL_APPLY,
            Request::ReplStatus => tag::REPL_STATUS,
            Request::Faults { .. } => tag::FAULTS,
        }
    }

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Hello { version } => {
                buf.push(tag::HELLO);
                put_u16(buf, *version);
            }
            Request::ExecSingle {
                txid,
                policy,
                shard,
            } => {
                buf.push(tag::EXEC_SINGLE);
                put_u64(buf, *txid);
                encode_policy(buf, *policy);
                shard.encode(buf);
            }
            Request::ExecBatch { items } => {
                buf.push(tag::EXEC_BATCH);
                put_u32(buf, items.len() as u32);
                for it in items {
                    put_u64(buf, it.txid);
                    encode_policy(buf, it.policy);
                    it.shard.encode(buf);
                }
            }
            Request::Prepare {
                txid,
                policy,
                participants,
                shard,
            } => {
                buf.push(tag::PREPARE);
                put_u64(buf, *txid);
                encode_policy(buf, *policy);
                put_u32(buf, participants.len() as u32);
                for p in participants {
                    put_u16(buf, *p);
                }
                shard.encode(buf);
            }
            Request::Commit { txid } => {
                buf.push(tag::COMMIT);
                put_u64(buf, *txid);
            }
            Request::Abort { txid } => {
                buf.push(tag::ABORT);
                put_u64(buf, *txid);
            }
            Request::RawRead { off, len } => {
                buf.push(tag::RAW_READ);
                put_u64(buf, *off);
                put_u32(buf, *len);
            }
            Request::RawWrite { off, data } => {
                buf.push(tag::RAW_WRITE);
                put_u64(buf, *off);
                put_bytes(buf, data);
            }
            Request::SetJoining(v) => {
                buf.push(tag::SET_JOINING);
                buf.push(*v as u8);
            }
            Request::SetRetiring(v) => {
                buf.push(tag::SET_RETIRING);
                buf.push(*v as u8);
            }
            Request::Crash => buf.push(tag::CRASH),
            Request::Recover => buf.push(tag::RECOVER),
            Request::Checkpoint => buf.push(tag::CHECKPOINT),
            Request::Stats => buf.push(tag::STATS),
            Request::Flags => buf.push(tag::FLAGS),
            Request::Meta => buf.push(tag::META),
            Request::MirrorConsistent { probe } => {
                buf.push(tag::MIRROR);
                put_u32(buf, probe.len() as u32);
                for (off, len) in probe {
                    put_u64(buf, *off);
                    put_u32(buf, *len);
                }
            }
            Request::Shutdown => buf.push(tag::SHUTDOWN),
            Request::Traced { trace_id, inner } => {
                debug_assert!(
                    !matches!(**inner, Request::Traced { .. }),
                    "traced envelopes do not nest"
                );
                buf.push(tag::TRACED);
                put_u64(buf, *trace_id);
                inner.encode_payload(buf);
            }
            Request::ObsSnapshot => buf.push(tag::OBS_SNAPSHOT),
            Request::TraceDump { max, slow } => {
                buf.push(tag::TRACE_DUMP);
                put_u32(buf, *max);
                buf.push(*slow as u8);
            }
            Request::EpochMark { epoch, closing } => {
                buf.push(tag::EPOCH_MARK);
                put_u64(buf, *epoch);
                buf.push(*closing as u8);
            }
            Request::ReplFetch { from, max } => {
                buf.push(tag::REPL_FETCH);
                put_u64(buf, *from);
                put_u32(buf, *max);
            }
            Request::ReplApply { from, frames } => {
                buf.push(tag::REPL_APPLY);
                put_u64(buf, *from);
                put_bytes(buf, frames);
            }
            Request::ReplStatus => buf.push(tag::REPL_STATUS),
            Request::Faults { spec } => {
                buf.push(tag::FAULTS);
                put_bytes(buf, spec.as_bytes());
            }
        }
    }

    /// Decodes a request from a frame payload (as returned by
    /// [`FrameReader::read_frame`]). Write payloads alias the frame buffer.
    pub fn decode(payload: &Bytes) -> Result<Request, WireError> {
        let mut c = Cur::new(payload);
        let req = Self::decode_payload(&mut c, 0)?;
        c.done()?;
        Ok(req)
    }

    fn decode_payload(c: &mut Cur<'_>, depth: u8) -> Result<Request, WireError> {
        let req = match c.u8()? {
            tag::HELLO => Request::Hello { version: c.u16()? },
            tag::EXEC_SINGLE => Request::ExecSingle {
                txid: c.u64()?,
                policy: decode_policy(c)?,
                shard: WireShard::decode(c)?,
            },
            tag::EXEC_BATCH => {
                let n = c.u32()?;
                let mut items = Vec::new();
                for _ in 0..n {
                    items.push(WireBatchItem {
                        txid: c.u64()?,
                        policy: decode_policy(c)?,
                        shard: WireShard::decode(c)?,
                    });
                }
                Request::ExecBatch { items }
            }
            tag::PREPARE => {
                let txid = c.u64()?;
                let policy = decode_policy(c)?;
                let n = c.u32()?;
                let mut participants = Vec::new();
                for _ in 0..n {
                    participants.push(c.u16()?);
                }
                Request::Prepare {
                    txid,
                    policy,
                    participants,
                    shard: WireShard::decode(c)?,
                }
            }
            tag::COMMIT => Request::Commit { txid: c.u64()? },
            tag::ABORT => Request::Abort { txid: c.u64()? },
            tag::RAW_READ => Request::RawRead {
                off: c.u64()?,
                len: c.u32()?,
            },
            tag::RAW_WRITE => Request::RawWrite {
                off: c.u64()?,
                data: c.bytes()?,
            },
            tag::SET_JOINING => Request::SetJoining(c.bool()?),
            tag::SET_RETIRING => Request::SetRetiring(c.bool()?),
            tag::CRASH => Request::Crash,
            tag::RECOVER => Request::Recover,
            tag::CHECKPOINT => Request::Checkpoint,
            tag::STATS => Request::Stats,
            tag::FLAGS => Request::Flags,
            tag::META => Request::Meta,
            tag::MIRROR => {
                let n = c.u32()?;
                let mut probe = Vec::new();
                for _ in 0..n {
                    let off = c.u64()?;
                    let len = c.u32()?;
                    probe.push((off, len));
                }
                Request::MirrorConsistent { probe }
            }
            tag::SHUTDOWN => Request::Shutdown,
            tag::TRACED => {
                if depth > 0 {
                    return Err(WireError::BadValue("nested traced envelope"));
                }
                let trace_id = c.u64()?;
                let inner = Request::decode_payload(c, depth + 1)?;
                Request::Traced {
                    trace_id,
                    inner: Box::new(inner),
                }
            }
            tag::OBS_SNAPSHOT => Request::ObsSnapshot,
            tag::TRACE_DUMP => Request::TraceDump {
                max: c.u32()?,
                slow: c.bool()?,
            },
            tag::EPOCH_MARK => Request::EpochMark {
                epoch: c.u64()?,
                closing: c.bool()?,
            },
            tag::REPL_FETCH => Request::ReplFetch {
                from: c.u64()?,
                max: c.u32()?,
            },
            tag::REPL_APPLY => Request::ReplApply {
                from: c.u64()?,
                frames: c.bytes()?,
            },
            tag::REPL_STATUS => Request::ReplStatus,
            tag::FAULTS => {
                let b = c.bytes()?;
                Request::Faults {
                    spec: String::from_utf8_lossy(&b).into_owned(),
                }
            }
            t => return Err(WireError::BadTag(t)),
        };
        Ok(req)
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Crashed/joining/retiring state of a memnode, fetched in one RPC or —
/// since protocol v3 — piggybacked as a one-byte trailer on every reply
/// frame (see [`NodeFlags::to_byte`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeFlags {
    /// Node is crashed (rejects every data operation).
    pub crashed: bool,
    /// Elastic join in progress (no replicated reads).
    pub joining: bool,
    /// Drain in progress (no new allocations).
    pub retiring: bool,
}

impl NodeFlags {
    /// Packs the flags into the reply-trailer byte: bit 0 crashed, bit 1
    /// joining, bit 2 retiring.
    pub fn to_byte(self) -> u8 {
        self.crashed as u8 | (self.joining as u8) << 1 | (self.retiring as u8) << 2
    }

    /// Unpacks a reply-trailer byte; rejects undefined bits so a version
    /// skew (or corruption the CRC missed) fails loudly.
    pub fn from_byte(b: u8) -> Result<NodeFlags, WireError> {
        if b & !0x07 != 0 {
            return Err(WireError::BadValue("flags trailer"));
        }
        Ok(NodeFlags {
            crashed: b & 1 != 0,
            joining: b & 2 != 0,
            retiring: b & 4 != 0,
        })
    }
}

/// Splits a v3 reply frame payload into the response body and the
/// piggybacked [`NodeFlags`] trailer byte every reply carries.
pub fn split_reply_flags(payload: &Bytes) -> Result<(Bytes, NodeFlags), WireError> {
    let n = payload.len();
    if n == 0 {
        return Err(WireError::Truncated);
    }
    let flags = NodeFlags::from_byte(payload[n - 1])?;
    Ok((payload.slice(0, n - 1), flags))
}

/// A server→client message. `Unavailable` mirrors the in-process
/// [`crate::memnode::Unavailable`] error; `Error` carries anything else
/// (bounds violations, I/O failures) as text.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake reply.
    Hello {
        /// Server's protocol version.
        version: u16,
        /// Server's memnode id.
        node: u16,
        /// Server's address-space capacity in bytes.
        capacity: u64,
    },
    /// One-phase execution result.
    Single(SingleResult),
    /// Per-member batch results (`Err` members hit a crashed node).
    Batch(Vec<Result<SingleResult, u16>>),
    /// Prepare vote.
    Vote(Vote),
    /// Success with no payload.
    Unit,
    /// Raw read payload.
    Data(Bytes),
    /// Boolean result (checkpoint taken, mirror consistent).
    Bool(bool),
    /// Operation / durability counters.
    Stats(NodeStats),
    /// Node state flags.
    Flags(NodeFlags),
    /// Recovery metadata.
    Meta(NodeMeta),
    /// The memnode is crashed; carries its id.
    Unavailable(u16),
    /// Any other server-side failure, as text.
    Error(String),
    /// Reply to a [`Request::Traced`] envelope: the server-side spans
    /// recorded while serving the inner request, plus the inner reply.
    /// Envelopes do not nest.
    TracedReply {
        /// Spans recorded on the server (start offsets server-relative).
        spans: Vec<SpanRecord>,
        /// The inner request's reply.
        inner: Box<Response>,
    },
    /// An encoded [`minuet_obs::ObsSnapshot`], shipped opaquely.
    Obs(Bytes),
    /// Encoded traces ([`minuet_obs::Trace::encode_many`]), shipped
    /// opaquely.
    Traces(Bytes),
    /// Reply to [`Request::EpochMark`]: the register's previous value.
    Epoch(u64),
    /// Reply to [`Request::ReplFetch`]: a raw WAL segment.
    Frames {
        /// Logical offset the segment starts at (echoes the request).
        from: u64,
        /// The server WAL's base offset (start of retained log). When
        /// `base > from` the requested prefix has been checkpointed away.
        base: u64,
        /// The server WAL's logical tail at fetch time.
        tail: u64,
        /// Raw CRC-framed WAL bytes (whole frames; may be empty).
        bytes: Bytes,
    },
    /// Reply to [`Request::ReplApply`] / [`Request::ReplStatus`].
    ReplStatus {
        /// Largest source-WAL offset durably incorporated.
        watermark: u64,
        /// Largest txid applied through replication.
        applied_txid: u64,
        /// The follower's own WAL tail.
        tail: u64,
        /// Total frames applied.
        applies: u64,
        /// Frames skipped as already-applied duplicates.
        dup_skips: u64,
    },
    /// Reply to [`Request::Faults`]: the number of failpoints armed after
    /// the spec was applied (0 after `"clear"`).
    Faults {
        /// Armed failpoint count.
        armed: u32,
    },
}

fn encode_pairs(buf: &mut Vec<u8>, pairs: &[(usize, Bytes)]) {
    put_u32(buf, pairs.len() as u32);
    for (idx, data) in pairs {
        put_u32(buf, *idx as u32);
        put_bytes(buf, data);
    }
}

fn decode_pairs(c: &mut Cur<'_>) -> Result<Vec<(usize, Bytes)>, WireError> {
    let n = c.u32()?;
    let mut pairs = Vec::new();
    for _ in 0..n {
        let idx = c.u32()? as usize;
        let data = c.bytes()?;
        pairs.push((idx, data));
    }
    Ok(pairs)
}

fn encode_indices(buf: &mut Vec<u8>, idx: &[usize]) {
    put_u32(buf, idx.len() as u32);
    for i in idx {
        put_u32(buf, *i as u32);
    }
}

fn decode_indices(c: &mut Cur<'_>) -> Result<Vec<usize>, WireError> {
    let n = c.u32()?;
    let mut idx = Vec::new();
    for _ in 0..n {
        idx.push(c.u32()? as usize);
    }
    Ok(idx)
}

fn encode_single(buf: &mut Vec<u8>, r: &SingleResult) {
    match r {
        SingleResult::Committed(pairs) => {
            buf.push(0);
            encode_pairs(buf, pairs);
        }
        SingleResult::BadCompare(idx) => {
            buf.push(1);
            encode_indices(buf, idx);
        }
        SingleResult::Busy => buf.push(2),
    }
}

fn decode_single(c: &mut Cur<'_>) -> Result<SingleResult, WireError> {
    match c.u8()? {
        0 => Ok(SingleResult::Committed(decode_pairs(c)?)),
        1 => Ok(SingleResult::BadCompare(decode_indices(c)?)),
        2 => Ok(SingleResult::Busy),
        _ => Err(WireError::BadValue("single result kind")),
    }
}

/// Encodes `inner` wrapped in a [`Request::Traced`] envelope as a sealed
/// frame, without boxing the request (the client's hot path wraps every
/// sampled RPC this way).
pub fn encode_traced_request(trace_id: u64, inner: &Request) -> Vec<u8> {
    debug_assert!(
        !matches!(inner, Request::Traced { .. }),
        "traced envelopes do not nest"
    );
    seal(|buf| {
        buf.push(tag::TRACED);
        put_u64(buf, trace_id);
        inner.encode_payload(buf);
    })
}

/// Encodes a response's payload bytes alone (no frame header). The
/// server's traced path uses this so the `srv.encode` span measures
/// message encoding without the envelope bookkeeping around it.
pub fn encode_response_payload(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    resp.encode_payload(&mut buf);
    buf
}

/// Seals a complete [`Response::TracedReply`] frame from server-side spans
/// plus an inner payload already produced by [`encode_response_payload`],
/// ending with the v3 [`NodeFlags`] trailer byte.
pub fn seal_traced_reply(spans: &[SpanRecord], inner_payload: &[u8], flags: NodeFlags) -> Vec<u8> {
    seal(|buf| {
        buf.push(tag::R_TRACED);
        put_u32(buf, spans.len() as u32);
        for s in spans {
            s.encode_into(buf);
        }
        buf.extend_from_slice(inner_payload);
        buf.push(flags.to_byte());
    })
}

/// Seals a complete reply frame: the encoded response followed by the v3
/// [`NodeFlags`] trailer byte. This is what the server writes for every
/// untraced request (traced ones go through [`seal_traced_reply`]).
pub fn seal_reply(resp: &Response, flags: NodeFlags) -> Vec<u8> {
    seal(|buf| {
        resp.encode_payload(buf);
        buf.push(flags.to_byte());
    })
}

impl Response {
    /// Encodes the response as a complete sealed frame.
    pub fn encode(&self) -> Vec<u8> {
        seal(|buf| self.encode_payload(buf))
    }

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Hello {
                version,
                node,
                capacity,
            } => {
                buf.push(tag::R_HELLO);
                put_u16(buf, *version);
                put_u16(buf, *node);
                put_u64(buf, *capacity);
            }
            Response::Single(r) => {
                buf.push(tag::R_SINGLE);
                encode_single(buf, r);
            }
            Response::Batch(members) => {
                buf.push(tag::R_BATCH);
                put_u32(buf, members.len() as u32);
                for m in members {
                    match m {
                        Ok(r) => {
                            buf.push(0);
                            encode_single(buf, r);
                        }
                        Err(id) => {
                            buf.push(1);
                            put_u16(buf, *id);
                        }
                    }
                }
            }
            Response::Vote(v) => {
                buf.push(tag::R_VOTE);
                match v {
                    Vote::Ok(pairs) => {
                        buf.push(0);
                        encode_pairs(buf, pairs);
                    }
                    Vote::BadCompare(idx) => {
                        buf.push(1);
                        encode_indices(buf, idx);
                    }
                    Vote::Busy => buf.push(2),
                }
            }
            Response::Unit => buf.push(tag::R_UNIT),
            Response::Data(b) => {
                buf.push(tag::R_DATA);
                put_bytes(buf, b);
            }
            Response::Bool(v) => {
                buf.push(tag::R_BOOL);
                buf.push(*v as u8);
            }
            Response::Stats(s) => {
                buf.push(tag::R_STATS);
                for v in [
                    s.single_commits,
                    s.prepares,
                    s.commits,
                    s.aborts,
                    s.busy,
                    s.read_fastpath,
                    s.read_fastpath_misses,
                    s.write_fastpath,
                    s.write_fastpath_misses,
                    s.in_doubt,
                    s.wal_appends,
                    s.wal_bytes,
                    s.wal_fsyncs,
                    s.checkpoints,
                    s.wal_retained_bytes,
                ] {
                    put_u64(buf, v);
                }
                buf.push(s.durable as u8);
            }
            Response::Flags(f) => {
                buf.push(tag::R_FLAGS);
                buf.push(f.crashed as u8);
                buf.push(f.joining as u8);
                buf.push(f.retiring as u8);
            }
            Response::Meta(m) => {
                buf.push(tag::R_META);
                put_u32(buf, m.staged.len() as u32);
                // Deterministic order (HashMap iteration is not).
                let mut staged: Vec<_> = m.staged.iter().collect();
                staged.sort_by_key(|(txid, _)| **txid);
                for (txid, parts) in staged {
                    put_u64(buf, *txid);
                    put_u32(buf, parts.len() as u32);
                    for p in parts {
                        put_u16(buf, p.0);
                    }
                }
                let mut decided: Vec<_> = m.decided.iter().copied().collect();
                decided.sort_unstable();
                put_u32(buf, decided.len() as u32);
                for txid in decided {
                    put_u64(buf, txid);
                }
            }
            Response::Unavailable(id) => {
                buf.push(tag::R_UNAVAILABLE);
                put_u16(buf, *id);
            }
            Response::Error(msg) => {
                buf.push(tag::R_ERROR);
                put_bytes(buf, msg.as_bytes());
            }
            Response::TracedReply { spans, inner } => {
                debug_assert!(
                    !matches!(**inner, Response::TracedReply { .. }),
                    "traced replies do not nest"
                );
                buf.push(tag::R_TRACED);
                put_u32(buf, spans.len() as u32);
                for s in spans {
                    s.encode_into(buf);
                }
                inner.encode_payload(buf);
            }
            Response::Obs(b) => {
                buf.push(tag::R_OBS);
                put_bytes(buf, b);
            }
            Response::Traces(b) => {
                buf.push(tag::R_TRACES);
                put_bytes(buf, b);
            }
            Response::Epoch(prev) => {
                buf.push(tag::R_EPOCH);
                put_u64(buf, *prev);
            }
            Response::Frames {
                from,
                base,
                tail,
                bytes,
            } => {
                buf.push(tag::R_FRAMES);
                put_u64(buf, *from);
                put_u64(buf, *base);
                put_u64(buf, *tail);
                put_bytes(buf, bytes);
            }
            Response::ReplStatus {
                watermark,
                applied_txid,
                tail,
                applies,
                dup_skips,
            } => {
                buf.push(tag::R_REPL_STATUS);
                for v in [watermark, applied_txid, tail, applies, dup_skips] {
                    put_u64(buf, *v);
                }
            }
            Response::Faults { armed } => {
                buf.push(tag::R_FAULTS);
                put_u32(buf, *armed);
            }
        }
    }

    /// Decodes a response from a frame payload. Data payloads alias the
    /// frame buffer.
    pub fn decode(payload: &Bytes) -> Result<Response, WireError> {
        let mut c = Cur::new(payload);
        let resp = Self::decode_payload(&mut c, 0)?;
        c.done()?;
        Ok(resp)
    }

    fn decode_payload(c: &mut Cur<'_>, depth: u8) -> Result<Response, WireError> {
        let resp = match c.u8()? {
            tag::R_HELLO => Response::Hello {
                version: c.u16()?,
                node: c.u16()?,
                capacity: c.u64()?,
            },
            tag::R_SINGLE => Response::Single(decode_single(c)?),
            tag::R_BATCH => {
                let n = c.u32()?;
                let mut members = Vec::new();
                for _ in 0..n {
                    members.push(match c.u8()? {
                        0 => Ok(decode_single(c)?),
                        1 => Err(c.u16()?),
                        _ => return Err(WireError::BadValue("batch member kind")),
                    });
                }
                Response::Batch(members)
            }
            tag::R_VOTE => Response::Vote(match c.u8()? {
                0 => Vote::Ok(decode_pairs(c)?),
                1 => Vote::BadCompare(decode_indices(c)?),
                2 => Vote::Busy,
                _ => return Err(WireError::BadValue("vote kind")),
            }),
            tag::R_UNIT => Response::Unit,
            tag::R_DATA => Response::Data(c.bytes()?),
            tag::R_BOOL => Response::Bool(c.bool()?),
            tag::R_STATS => {
                let mut v = [0u64; 15];
                for slot in v.iter_mut() {
                    *slot = c.u64()?;
                }
                Response::Stats(NodeStats {
                    single_commits: v[0],
                    prepares: v[1],
                    commits: v[2],
                    aborts: v[3],
                    busy: v[4],
                    read_fastpath: v[5],
                    read_fastpath_misses: v[6],
                    write_fastpath: v[7],
                    write_fastpath_misses: v[8],
                    in_doubt: v[9],
                    wal_appends: v[10],
                    wal_bytes: v[11],
                    wal_fsyncs: v[12],
                    checkpoints: v[13],
                    wal_retained_bytes: v[14],
                    durable: c.bool()?,
                })
            }
            tag::R_FLAGS => Response::Flags(NodeFlags {
                crashed: c.bool()?,
                joining: c.bool()?,
                retiring: c.bool()?,
            }),
            tag::R_META => {
                let n = c.u32()?;
                let mut staged = HashMap::new();
                for _ in 0..n {
                    let txid = c.u64()?;
                    let np = c.u32()?;
                    let mut parts = Vec::new();
                    for _ in 0..np {
                        parts.push(crate::addr::MemNodeId(c.u16()?));
                    }
                    staged.insert(txid, parts);
                }
                let nd = c.u32()?;
                let mut decided = HashSet::new();
                for _ in 0..nd {
                    decided.insert(c.u64()?);
                }
                Response::Meta(NodeMeta { staged, decided })
            }
            tag::R_UNAVAILABLE => Response::Unavailable(c.u16()?),
            tag::R_ERROR => {
                let b = c.bytes()?;
                Response::Error(String::from_utf8_lossy(&b).into_owned())
            }
            tag::R_TRACED => {
                if depth > 0 {
                    return Err(WireError::BadValue("nested traced reply"));
                }
                let n = c.u32()?;
                if n > minuet_obs::trace::MAX_TRACE_SPANS as u32 {
                    return Err(WireError::BadValue("span count"));
                }
                let mut spans = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let raw = c.take(19)?;
                    let mut pos = 0;
                    spans.push(
                        SpanRecord::decode_from(raw, &mut pos)
                            .ok_or(WireError::BadValue("span record"))?,
                    );
                }
                let inner = Response::decode_payload(c, depth + 1)?;
                Response::TracedReply {
                    spans,
                    inner: Box::new(inner),
                }
            }
            tag::R_OBS => Response::Obs(c.bytes()?),
            tag::R_TRACES => Response::Traces(c.bytes()?),
            tag::R_EPOCH => Response::Epoch(c.u64()?),
            tag::R_FRAMES => Response::Frames {
                from: c.u64()?,
                base: c.u64()?,
                tail: c.u64()?,
                bytes: c.bytes()?,
            },
            tag::R_REPL_STATUS => Response::ReplStatus {
                watermark: c.u64()?,
                applied_txid: c.u64()?,
                tail: c.u64()?,
                applies: c.u64()?,
                dup_skips: c.u64()?,
            },
            tag::R_FAULTS => Response::Faults { armed: c.u32()? },
            t => return Err(WireError::BadTag(t)),
        };
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip_req(req: Request) {
        let frame = req.encode();
        let payload = FrameReader::new(Cursor::new(&frame)).read_frame().unwrap();
        assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let frame = resp.encode();
        let (payload, used) = decode_frame(&frame).unwrap();
        assert_eq!(used, frame.len());
        assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Hello { version: 1 });
        roundtrip_req(Request::ExecSingle {
            txid: 42,
            policy: LockPolicy::Block(Duration::from_millis(3)),
            shard: WireShard {
                compares: vec![(0, 8, Bytes::from(vec![1, 2]))],
                reads: vec![(1, 16, 4)],
                writes: vec![(0, 24, Bytes::from(vec![9; 16]))],
            },
        });
        roundtrip_req(Request::Commit { txid: 7 });
        roundtrip_req(Request::MirrorConsistent {
            probe: vec![(0, 64), (128, 32)],
        });
        roundtrip_req(Request::Shutdown);
        roundtrip_req(Request::EpochMark {
            epoch: 9,
            closing: true,
        });
        roundtrip_req(Request::ReplFetch {
            from: 4096,
            max: 512,
        });
        roundtrip_req(Request::ReplApply {
            from: 128,
            frames: Bytes::from(vec![3u8; 40]),
        });
        roundtrip_req(Request::ReplStatus);
        roundtrip_req(Request::Faults {
            spec: "wal.fsync=err:count=3;wire.server.send=drop".into(),
        });
        roundtrip_req(Request::Faults {
            spec: "clear".into(),
        });
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(Response::Hello {
            version: 1,
            node: 3,
            capacity: 1 << 20,
        });
        roundtrip_resp(Response::Single(SingleResult::Committed(vec![(
            2,
            Bytes::from(vec![5; 8]),
        )])));
        roundtrip_resp(Response::Batch(vec![
            Ok(SingleResult::Busy),
            Err(4),
            Ok(SingleResult::BadCompare(vec![0, 3])),
        ]));
        roundtrip_resp(Response::Vote(Vote::Ok(vec![(0, Bytes::from(vec![1]))])));
        roundtrip_resp(Response::Error("nope".into()));
        roundtrip_resp(Response::Epoch(41));
        roundtrip_resp(Response::Frames {
            from: 64,
            base: 0,
            tail: 1024,
            bytes: Bytes::from(vec![5u8; 96]),
        });
        roundtrip_resp(Response::ReplStatus {
            watermark: 7,
            applied_txid: 9,
            tail: 11,
            applies: 13,
            dup_skips: 2,
        });
        roundtrip_resp(Response::Faults { armed: 2 });
        roundtrip_resp(Response::Faults { armed: 0 });
    }

    #[test]
    fn traced_envelope_roundtrips() {
        roundtrip_req(Request::Traced {
            trace_id: 0xDEAD_BEEF,
            inner: Box::new(Request::ExecSingle {
                txid: 42,
                policy: LockPolicy::AbortOnBusy,
                shard: WireShard {
                    compares: vec![],
                    reads: vec![(1, 16, 4)],
                    writes: vec![(0, 24, Bytes::from(vec![9; 16]))],
                },
            }),
        });
        roundtrip_req(Request::ObsSnapshot);
        roundtrip_req(Request::TraceDump {
            max: 32,
            slow: true,
        });
        roundtrip_resp(Response::TracedReply {
            spans: vec![
                SpanRecord {
                    kind: 11,
                    tag: 0,
                    depth: 1,
                    start_ns: 123,
                    dur_ns: 456,
                },
                SpanRecord {
                    kind: 13,
                    tag: 2,
                    depth: 2,
                    start_ns: 999,
                    dur_ns: 1,
                },
            ],
            inner: Box::new(Response::Single(SingleResult::Busy)),
        });
        roundtrip_resp(Response::Obs(Bytes::from(vec![1, 2, 3])));
        roundtrip_resp(Response::Traces(Bytes::from(vec![0; 4])));
    }

    #[test]
    fn nested_trace_envelopes_rejected() {
        // Hand-build a Traced(Traced(Stats)) payload: 0x13 id 0x13 id 0x0E.
        let frame = seal(|buf| {
            buf.push(tag::TRACED);
            put_u64(buf, 1);
            buf.push(tag::TRACED);
            put_u64(buf, 2);
            buf.push(tag::STATS);
        });
        let (payload, _) = decode_frame(&frame).unwrap();
        assert_eq!(
            Request::decode(&payload),
            Err(WireError::BadValue("nested traced envelope"))
        );
        let rframe = seal(|buf| {
            buf.push(tag::R_TRACED);
            put_u32(buf, 0);
            buf.push(tag::R_TRACED);
            put_u32(buf, 0);
            buf.push(tag::R_UNIT);
        });
        let (rpayload, _) = decode_frame(&rframe).unwrap();
        assert_eq!(
            Response::decode(&rpayload),
            Err(WireError::BadValue("nested traced reply"))
        );
    }

    #[test]
    fn kind_names_pierce_the_envelope() {
        let req = Request::Traced {
            trace_id: 1,
            inner: Box::new(Request::Commit { txid: 9 }),
        };
        assert_eq!(req.kind_name(), "commit");
        assert_eq!(req.tag_byte(), tag::COMMIT);
        assert_eq!(Request::ObsSnapshot.kind_name(), "obs_snapshot");
    }

    #[test]
    fn corrupt_frames_fail_cleanly() {
        let frame = Request::Commit { txid: 1 }.encode();
        // Truncations at every prefix length.
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut]).is_err());
        }
        // Single bit flips anywhere must be detected.
        for byte in 0..frame.len() {
            let mut bad = frame.clone();
            bad[byte] ^= 0x10;
            assert!(decode_frame(&bad).is_err(), "flip at {byte} undetected");
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut frame = vec![0u8; FRAME_HDR];
        frame[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_frame(&frame),
            Err(WireError::FrameTooLarge(u32::MAX))
        );
        let err = FrameReader::new(Cursor::new(&frame)).read_frame();
        assert_eq!(err.unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    /// Eight bytes announcing a `MAX_FRAME` payload, then a trickle, then
    /// EOF: the reader reports the short stream and never reserved more
    /// than its fixed cap on the header's say-so.
    #[test]
    fn untrusted_length_reserves_at_most_the_cap() {
        let mut stream = MAX_FRAME.to_le_bytes().to_vec();
        stream.extend_from_slice(&[0xAB; 4 + 100]);
        let err = FrameReader::new(Cursor::new(&stream)).read_frame();
        assert_eq!(err.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);

        let mut out = Vec::new();
        let err = read_payload(
            &stream[FRAME_HDR..],
            &mut io::empty(),
            MAX_FRAME as usize,
            &mut out,
        );
        assert_eq!(err.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(out, vec![0xAB; 100], "holds what arrived and no more");
        assert!(out.capacity() <= READ_BUF, "reserved {}", out.capacity());
    }

    /// Frame-size conformance: the modeled byte accounting in the minitx
    /// module must match what the encoders actually put on the wire, per
    /// RPC type — so in-process byte counters agree with wire mode.
    #[test]
    fn modeled_bytes_match_real_frames() {
        use crate::addr::ItemRange;
        use crate::memnode::SingleResult;
        use crate::minitx::Minitransaction;

        let mem = crate::addr::MemNodeId(0);
        let mut m = Minitransaction::new();
        m.compare(ItemRange::new(mem, 0, 3), vec![1, 2, 3]);
        m.read(ItemRange::new(mem, 8, 16));
        m.read(ItemRange::new(mem, 64, 5));
        m.write(ItemRange::new(mem, 128, 7), vec![9; 7]);
        let (model_out, model_in) = m.wire_bytes();

        // One-phase request: ExecSingle carrying the full shard.
        let shards = m.shard();
        let shard = shards.get(&mem).unwrap();
        let req = Request::ExecSingle {
            txid: 7,
            policy: LockPolicy::AbortOnBusy,
            shard: WireShard::from_shard(shard),
        };
        assert_eq!(req.encode().len() as u64, model_out, "exec_single request");

        // Committed reply carrying both reads (+ the v3 flags trailer).
        let resp = Response::Single(SingleResult::Committed(vec![
            (0, Bytes::from(vec![0u8; 16])),
            (1, Bytes::from(vec![0u8; 5])),
        ]));
        assert_eq!(
            seal_reply(&resp, NodeFlags::default()).len() as u64,
            model_in,
            "exec_single reply"
        );

        // Blocking policy adds the u64 budget.
        let mb = m.clone().blocking(Duration::from_millis(1));
        let req = Request::ExecSingle {
            txid: 7,
            policy: LockPolicy::Block(Duration::from_millis(1)),
            shard: WireShard::from_shard(shard),
        };
        assert_eq!(
            req.encode().len() as u64,
            mb.wire_bytes().0,
            "blocking exec_single request"
        );

        // Two-phase prepare with a 3-node participant list.
        let participants = vec![0u16, 1, 2];
        let (prep_out, prep_in) =
            shard.prepare_wire_bytes(participants.len(), LockPolicy::AbortOnBusy);
        let req = Request::Prepare {
            txid: 7,
            policy: LockPolicy::AbortOnBusy,
            participants,
            shard: WireShard::from_shard(shard),
        };
        assert_eq!(req.encode().len() as u64, prep_out, "prepare request");
        let resp = Response::Vote(Vote::Ok(vec![
            (0, Bytes::from(vec![0u8; 16])),
            (1, Bytes::from(vec![0u8; 5])),
        ]));
        assert_eq!(
            seal_reply(&resp, NodeFlags::default()).len() as u64,
            prep_in,
            "vote reply"
        );

        // Decision round trips: 17 bytes out, 10 back (see exec.rs).
        assert_eq!(Request::Commit { txid: 7 }.encode().len(), 17);
        assert_eq!(Request::Abort { txid: 7 }.encode().len(), 17);
        assert_eq!(seal_reply(&Response::Unit, NodeFlags::default()).len(), 10);

        // Batched execution: 13 bytes of request envelope + exact member
        // shares; the reply envelope is 14 (trailer included).
        let members = [m.clone(), m.clone()];
        let (batch_out, batch_in) = members.iter().fold((13u64, 14u64), |(o, b), mm| {
            let (wo, wb) = mm.batch_member_wire_bytes();
            (o + wo, b + wb)
        });
        let req = Request::ExecBatch {
            items: members
                .iter()
                .map(|mm| {
                    let shards = mm.shard();
                    WireBatchItem {
                        txid: 7,
                        policy: LockPolicy::AbortOnBusy,
                        shard: WireShard::from_shard(shards.get(&mem).unwrap()),
                    }
                })
                .collect(),
        };
        assert_eq!(req.encode().len() as u64, batch_out, "exec_batch request");
        let resp = Response::Batch(vec![
            Ok(SingleResult::Committed(vec![
                (0, Bytes::from(vec![0u8; 16])),
                (1, Bytes::from(vec![0u8; 5])),
            ])),
            Ok(SingleResult::Committed(vec![
                (0, Bytes::from(vec![0u8; 16])),
                (1, Bytes::from(vec![0u8; 5])),
            ])),
        ]);
        assert_eq!(
            seal_reply(&resp, NodeFlags::default()).len() as u64,
            batch_in,
            "exec_batch reply"
        );
    }

    #[test]
    fn flags_trailer_roundtrips_and_rejects_junk() {
        for flags in [
            NodeFlags::default(),
            NodeFlags {
                crashed: true,
                joining: false,
                retiring: true,
            },
            NodeFlags {
                crashed: false,
                joining: true,
                retiring: false,
            },
        ] {
            assert_eq!(NodeFlags::from_byte(flags.to_byte()).unwrap(), flags);
            let frame = seal_reply(&Response::Unit, flags);
            let (payload, _) = decode_frame(&frame).unwrap();
            let (body, got) = split_reply_flags(&payload).unwrap();
            assert_eq!(got, flags);
            assert_eq!(Response::decode(&body).unwrap(), Response::Unit);
        }
        assert!(NodeFlags::from_byte(0x08).is_err());
        assert!(split_reply_flags(&Bytes::from(vec![])).is_err());
    }

    #[test]
    fn zero_copy_decode_aliases_the_frame() {
        let payload = Bytes::from(vec![7u8; 1024]);
        let req = Request::RawWrite {
            off: 0,
            data: payload,
        };
        let frame = req.encode();
        let buf = FrameReader::new(Cursor::new(&frame)).read_frame().unwrap();
        match Request::decode(&buf).unwrap() {
            Request::RawWrite { data, .. } => {
                assert!(Bytes::same_buffer(&data, &buf), "decode must not copy");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
