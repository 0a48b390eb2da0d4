//! Binary wire protocol for the memnode RPC surface.
//!
//! Frames are length-prefixed and CRC-checked: `[len: u32 LE][crc32: u32
//! LE][payload]`, with the IEEE CRC-32 that also frames log records and
//! images ([`crate::crc::crc32`]).
//! Payloads are tag-byte messages with little-endian fixed-width fields —
//! the same style as the redo-log records, so the two on-disk/on-wire
//! formats stay mutually legible.
//!
//! The codec is written **per field type, not per message**. A private
//! `Wire` trait says once how a `u64`, a `Bytes`, a `Vec<T>`, a
//! [`WireShard`] or a [`ReplStatus`] travels; each direction's messages are
//! then one table (`messages!`), one row per message — tag byte, tag
//! constant, kind name, variant and fields — from which the enum, the
//! [`tag`] constants, `kind_name`, `tag_byte`, the encoder and the decoder
//! are all generated. A message is its tag byte followed by its fields in
//! row order. There are four tables: [`Request`] and [`Response`] for the
//! data plane, [`AdminOp`] and [`AdminReply`] for everything else; the
//! admin tables are grouped under `Request::Admin` / `Response::Admin` in
//! Rust only — on the wire an admin message is an ordinary message with
//! its own tag.
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
//! async runtime. [`Endpoint`] names a listening address in either family;
//! an in-process memnode is reached with the same frames and no socket.

use crate::addr::{merge_intervals, MemNodeId};
use crate::bytes::Bytes;
use crate::crc::crc32;
use crate::lock::TxId;
use crate::memnode::{ReplStatus, SingleResult, Vote};
use crate::minitx::LockPolicy;
use crate::recovery::NodeMeta;
use minuet_obs::SpanRecord;
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Protocol version carried in `Hello`; bumped on incompatible changes.
/// Version 2 added the `Traced` request envelope (optional trace context,
/// answered by a `TracedReply` carrying server-side spans) and the
/// `ObsSnapshot` / `TraceDump` admin requests. Version 3 appends a
/// one-byte [`NodeFlags`] trailer to **every** reply frame, so clients
/// learn crashed/joining/retiring state as a side effect of any RPC and
/// never need a dedicated `Flags` round trip on the hot path. Version 4
/// adds the replication family: the WAL-streaming requests `ReplFetch` /
/// `ReplApply` / `ReplStatus` with their `Frames` and `ReplStatus`
/// replies (its `EpochMark` / `Epoch` pair is retired; the tags stay
/// reserved).
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

/// Opens `frame`, exactly one sealed frame, in place: header and CRC are
/// checked as off a socket, and the payload is a view of the same buffer
/// (how an in-process connection, handed whole frames, receives).
pub(crate) fn open_frame(frame: Vec<u8>) -> Result<Bytes, WireError> {
    let (len, want) = parse_header(&frame)?;
    if FRAME_HDR + len != frame.len() {
        return Err(WireError::BadValue("not one whole frame"));
    }
    check_crc(&frame[FRAME_HDR..], want)?;
    Ok(Bytes::shared(Arc::new(frame), FRAME_HDR, len))
}

// ---------------------------------------------------------------------------
// Field codecs: one `Wire` impl per type a message field can have
// ---------------------------------------------------------------------------

/// Bounds-checked reader over a frame payload. Variable-length fields
/// come back as [`Bytes`] slices of the frame buffer.
struct Cur<'a> {
    buf: &'a Bytes,
    pos: usize,
    /// Set once a trace envelope has been opened; a second one is refused.
    enveloped: bool,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a Bytes) -> Self {
        Cur {
            buf,
            pos: 0,
            enveloped: false,
        }
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

    fn done(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::BadValue("trailing bytes after message"))
        }
    }
}

/// How one field type travels: little-endian fixed-width integers, a
/// `u32` length or count in front of anything variable, one kind byte in
/// front of an enum. A message is a row of such fields (see `messages!`),
/// so a type is taught to the protocol here, once — and a message field
/// whose type has no impl does not compile.
///
/// `get` never trusts a count or length for preallocation: collections
/// grow as their elements decode.
///
/// The leaf impls (integers, `bool`, `Bytes`, tuples, `Vec`) are
/// `#[inline(always)]`: a shard decodes through a dozen of them, and left
/// as calls they cost every request ~20 ns on the server that the
/// hand-written per-message arms did not pay.
trait Wire: Sized {
    fn put(&self, buf: &mut Vec<u8>);
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError>;
}

macro_rules! wire_int {
    ($($t:ty),+) => {$(
        impl Wire for $t {
            #[inline(always)]
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            #[inline(always)]
            fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
                let raw = c.take(size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(raw.try_into().expect("took exactly the width")))
            }
        }
    )+};
}
wire_int!(u8, u16, u32, u64);

/// Item indices are `usize` in memory and `u32` on the wire.
impl Wire for usize {
    #[inline(always)]
    fn put(&self, buf: &mut Vec<u8>) {
        (*self as u32).put(buf);
    }
    #[inline(always)]
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        Ok(u32::get(c)? as usize)
    }
}

impl Wire for bool {
    #[inline(always)]
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
    #[inline(always)]
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        match u8::get(c)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadValue("boolean")),
        }
    }
}

/// A length-prefixed byte payload; decoded, it aliases the frame buffer.
impl Wire for Bytes {
    #[inline(always)]
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        buf.extend_from_slice(self);
    }
    #[inline(always)]
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        let len = u32::get(c)? as usize;
        let start = c.pos;
        c.take(len)?;
        Ok(c.buf.slice(start, len))
    }
}

impl Wire for String {
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        String::from_utf8(Bytes::get(c)?.to_vec()).map_err(|_| WireError::BadValue("utf-8 string"))
    }
}

/// A lock-wait budget, as whole nanoseconds.
impl Wire for Duration {
    fn put(&self, buf: &mut Vec<u8>) {
        (self.as_nanos().min(u128::from(u64::MAX)) as u64).put(buf);
    }
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        Ok(Duration::from_nanos(u64::get(c)?))
    }
}

impl<T: Wire> Wire for Vec<T> {
    #[inline(always)]
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        for item in self {
            item.put(buf);
        }
    }
    #[inline(always)]
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        let n = u32::get(c)?;
        let mut items = Vec::new();
        for _ in 0..n {
            items.push(T::get(c)?);
        }
        Ok(items)
    }
}

macro_rules! wire_tuple {
    ($($T:ident $i:tt),+) => {
        impl<$($T: Wire),+> Wire for ($($T,)+) {
            #[inline(always)]
            fn put(&self, buf: &mut Vec<u8>) {
                $(self.$i.put(buf);)+
            }
            #[inline(always)]
            fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
                Ok(($($T::get(c)?,)+))
            }
        }
    };
}
wire_tuple!(A 0, B 1);
wire_tuple!(A 0, B 1, C 2);

/// A batch member: its result, or the id of the crashed node it hit.
impl<T: Wire, E: Wire> Wire for Result<T, E> {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            Ok(v) => {
                buf.push(0);
                v.put(buf);
            }
            Err(e) => {
                buf.push(1);
                e.put(buf);
            }
        }
    }
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        match u8::get(c)? {
            0 => Ok(Ok(T::get(c)?)),
            1 => Ok(Err(E::get(c)?)),
            _ => Err(WireError::BadValue("batch member kind")),
        }
    }
}

/// A struct travels as its fields, in the order listed.
macro_rules! wire_struct {
    ($T:ty { $($f:tt),+ $(,)? }) => {
        impl Wire for $T {
            fn put(&self, buf: &mut Vec<u8>) {
                $(self.$f.put(buf);)+
            }
            fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
                Ok(Self { $($f: Wire::get(c)?),+ })
            }
        }
    };
}

/// A small enum travels as one kind byte, then the variant's field if it
/// has one (written `(0: T)`, the positional-field form).
macro_rules! wire_enum {
    ($T:ident, $what:literal: $($kind:literal => $V:ident $(($i:tt: $f:ty))?),+ $(,)?) => {
        impl Wire for $T {
            fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $($T::$V { $($i: v)? } => {
                        buf.push($kind);
                        $(<$f as Wire>::put(v, buf);)?
                    })+
                }
            }
            fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
                match u8::get(c)? {
                    $($kind => Ok($T::$V { $($i: <$f as Wire>::get(c)?)? }),)+
                    _ => Err(WireError::BadValue($what)),
                }
            }
        }
    };
}

wire_struct!(MemNodeId { 0 });
wire_struct!(ReplStatus {
    watermark,
    applied_txid,
    tail,
    applies,
    dup_skips
});

wire_enum!(LockPolicy, "lock policy": 0 => AbortOnBusy, 1 => Block(0: Duration));
wire_enum!(SingleResult, "single result kind":
    0 => Committed(0: Vec<(usize, Bytes)>), 1 => BadCompare(0: Vec<usize>), 2 => Busy);
wire_enum!(Vote, "vote kind":
    0 => Ok(0: Vec<(usize, Bytes)>), 1 => BadCompare(0: Vec<usize>), 2 => Busy);

/// Staged transactions and the decided set travel sorted, so equal metas
/// are equal frames (`HashMap` iteration order is not stable).
impl Wire for NodeMeta {
    fn put(&self, buf: &mut Vec<u8>) {
        let mut staged: Vec<(TxId, Vec<MemNodeId>)> =
            self.staged.iter().map(|(t, p)| (*t, p.clone())).collect();
        staged.sort_unstable_by_key(|(txid, _)| *txid);
        staged.put(buf);
        let mut decided: Vec<TxId> = self.decided.iter().copied().collect();
        decided.sort_unstable();
        decided.put(buf);
    }
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        Ok(NodeMeta {
            staged: Vec::<(TxId, Vec<MemNodeId>)>::get(c)?.into_iter().collect(),
            decided: Vec::<TxId>::get(c)?.into_iter().collect(),
        })
    }
}

fn put_spans(spans: &[SpanRecord], buf: &mut Vec<u8>) {
    (spans.len() as u32).put(buf);
    for s in spans {
        s.encode_into(buf);
    }
}

/// Server-side spans ride in the obs crate's own 19-byte form, at most one
/// trace's worth per reply.
impl Wire for Vec<SpanRecord> {
    fn put(&self, buf: &mut Vec<u8>) {
        put_spans(self, buf);
    }
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        let n = u32::get(c)?;
        if n > minuet_obs::trace::MAX_TRACE_SPANS as u32 {
            return Err(WireError::BadValue("span count"));
        }
        (0..n)
            .map(|_| {
                SpanRecord::decode_from(c.take(19)?, &mut 0)
                    .ok_or(WireError::BadValue("span record"))
            })
            .collect()
    }
}

/// The message inside a trace envelope. Envelopes do not nest: opening a
/// second one is a protocol error, which also bounds the decoder's
/// recursion on hostile input.
macro_rules! wire_enveloped {
    ($E:ident, $Envelope:ident, $nested:literal) => {
        impl Wire for Box<$E> {
            fn put(&self, buf: &mut Vec<u8>) {
                debug_assert!(!matches!(**self, $E::$Envelope { .. }), $nested);
                (**self).put(buf);
            }
            fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
                if std::mem::replace(&mut c.enveloped, true) {
                    return Err(WireError::BadValue($nested));
                }
                $E::get(c).map(Box::new)
            }
        }
    };
}
wire_enveloped!(Request, Traced, "nested traced envelope");
wire_enveloped!(Response, TracedReply, "nested traced reply");

// ---------------------------------------------------------------------------
// Shards on the wire
// ---------------------------------------------------------------------------

/// One memnode's share of a minitransaction: the compare, read and write
/// items that live there, each carrying its index in the whole
/// minitransaction so the coordinator can reassemble results. This is the
/// only shape the share ever has — [`crate::minitx::Minitransaction`]
/// stores its items in these, the frame carries them, and the memnode
/// executes them — so its invariants (bounds, lock spans) live here.
/// Cloning one copies three small vectors and bumps payload refcounts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireShard {
    /// `(original index, offset, expected bytes)` compare items.
    pub compares: Vec<(u32, u64, Bytes)>,
    /// `(original index, offset, length)` read items.
    pub reads: Vec<(u32, u64, u32)>,
    /// `(original index, offset, payload)` write items.
    pub writes: Vec<(u32, u64, Bytes)>,
}
wire_struct!(WireShard {
    compares,
    reads,
    writes
});

impl WireShard {
    /// The `(offset, end)` byte span of every item. Ends saturate: an
    /// offset near `u64::MAX` is out of range, never a wrap-around.
    fn spans(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let compares = self.compares.iter().map(|(_, off, e)| (*off, e.len()));
        let reads = self.reads.iter().map(|(_, off, len)| (*off, *len as usize));
        let writes = self.writes.iter().map(|(_, off, d)| (*off, d.len()));
        (compares.chain(reads).chain(writes))
            .map(|(off, len)| (off, off.saturating_add(len as u64)))
    }

    /// Highest byte offset any item touches (exclusive). A share is in
    /// bounds iff this is at most the memnode's capacity: checked by the
    /// coordinator before anything is sent, by the server on bytes from
    /// outside, and asserted by the memnode before it locks or logs.
    pub fn max_extent(&self) -> u64 {
        self.spans().map(|(_, end)| end).max().unwrap_or(0)
    }

    /// Canonicalized lock spans covering every item in the share.
    pub fn lock_spans(&self) -> Vec<(u64, u64)> {
        merge_intervals(self.spans().collect())
    }

    /// The `(offset, payload)` pairs the redo log and the staging area
    /// keep: refcount bumps, the shipped buffers themselves.
    pub fn staged_writes(&self) -> Vec<(u64, Bytes)> {
        self.writes
            .iter()
            .map(|(_, off, data)| (*off, data.clone()))
            .collect()
    }
}

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
wire_struct!(WireBatchItem {
    txid,
    policy,
    shard
});

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
wire_struct!(NodeFlags {
    crashed,
    joining,
    retiring
});

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

// ---------------------------------------------------------------------------
// The message tables
// ---------------------------------------------------------------------------

/// Generates one direction's messages from a table with one row per
/// message: `tag CONST "kind" => Variant`, then the variant's fields — none,
/// one positional `(0: T)`, or named `{ a: T, b: U }`. From the rows come
/// the enum, the `tag::CONST` bytes, `ALL_TAGS`, `kind_name`, `tag_byte`
/// and the codec: the tag byte, then each field's `Wire` form in order.
///
/// A row ending in `via field` is an envelope: its `kind_name` and
/// `tag_byte` are those of the message in `field`. A `group { V(Table) }`
/// after the rows nests a second table whose rows keep their own tags —
/// a grouping on the Rust side, not an envelope on the wire.
macro_rules! messages {
    (
        $(#[$emeta:meta])*
        pub enum $E:ident, tags in $tagmod:ident {
            $(
                $(#[$vmeta:meta])*
                $tag:literal $CONST:ident $kind:literal => $V:ident
                $(($i:tt: $tty:ty))?
                $({ $($(#[$fmeta:meta])* $f:ident: $fty:ty),+ $(,)? })?
                $(via $via:ident)?,
            )+
        }
        $(group { $(#[$gmeta:meta])* $G:ident($GT:ident) })?
    ) => {
        $(#[$emeta])*
        #[derive(Debug, Clone, PartialEq)]
        pub enum $E {
            $(
                $(#[$vmeta])*
                $V $(($tty))? $({ $($(#[$fmeta])* $f: $fty),+ })?,
            )+
            $($(#[$gmeta])* $G($GT),)?
        }

        mod $tagmod {
            #[allow(unused_imports)]
            use super::*;
            $($(#[$vmeta])* pub const $CONST: u8 = $tag;)+
        }

        impl $E {
            /// The tag byte of every row of this message table.
            pub const ALL_TAGS: &'static [u8] = &[$($tag),+];

            /// Stable kind name; request kinds name the metric series
            /// (`wire.lat.exec_single`). A trace envelope reports the kind
            /// of the message it carries.
            pub fn kind_name(&self) -> &'static str {
                match self {
                    $($E::$V { $($via,)? .. } => messages!(@of kind_name $kind $(, $via)?),)+
                    $($E::$G(g) => g.kind_name(),)?
                }
            }

            /// The wire tag byte (the carried message's, for a trace
            /// envelope); RTT spans are tagged with it.
            pub fn tag_byte(&self) -> u8 {
                match self {
                    $($E::$V { $($via,)? .. } => messages!(@of tag_byte $tag $(, $via)?),)+
                    $($E::$G(g) => g.tag_byte(),)?
                }
            }

            /// Decodes the message whose tag byte has just been read.
            fn get_tagged(tag: u8, c: &mut Cur<'_>) -> Result<Self, WireError> {
                Ok(match tag {
                    $($tag => $E::$V {
                        $($i: <$tty as Wire>::get(c)?,)?
                        $($($f: <$fty as Wire>::get(c)?,)+)?
                    },)+
                    other => return messages!(@rest other, c $(, $E::$G, $GT)?),
                })
            }
        }

        impl Wire for $E {
            fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $($E::$V { $($i: v,)? $($($f,)+)? } => {
                        buf.push($tag);
                        $(<$tty as Wire>::put(v, buf);)?
                        $($(<$fty as Wire>::put($f, buf);)+)?
                    })+
                    $($E::$G(g) => g.put(buf),)?
                }
            }
            fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
                let tag = u8::get(c)?;
                Self::get_tagged(tag, c)
            }
        }
    };
    (@of $method:ident $own:literal) => { $own };
    (@of $method:ident $own:literal, $via:ident) => { $via.$method() };
    (@rest $tag:ident, $c:ident) => { Err(WireError::BadTag($tag)) };
    (@rest $tag:ident, $c:ident, $E:ident::$G:ident, $GT:ident) => {
        $GT::get_tagged($tag, $c).map($E::$G)
    };
}

messages! {
    /// A client→server message. One request per frame; every request gets
    /// exactly one [`Response`] frame back on the same connection.
    pub enum Request, tags in request_tag {
        /// Handshake: the server answers with its id, capacity, and version.
        0x01 HELLO "hello" => Hello {
            /// Client's protocol version.
            version: u16,
        },
        /// Collapsed one-phase minitransaction execution.
        0x02 EXEC_SINGLE "exec_single" => ExecSingle {
            /// Minitransaction id.
            txid: TxId,
            /// Lock contention policy.
            policy: LockPolicy,
            /// Items destined for this memnode.
            shard: WireShard,
        },
        /// A batch of independent single-memnode minitransactions sharing
        /// this round trip (the `exec_many` fast path).
        0x03 EXEC_BATCH "exec_batch" => ExecBatch {
            /// The batch members, executed in order.
            items: Vec<WireBatchItem>,
        },
        /// Two-phase prepare (vote request).
        0x04 PREPARE "prepare" => Prepare {
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
        0x05 COMMIT "commit" => Commit {
            /// Minitransaction id.
            txid: TxId,
        },
        /// Two-phase abort decision.
        0x06 ABORT "abort" => Abort {
            /// Minitransaction id.
            txid: TxId,
        },
        /// Unsynchronized raw read (bootstrap / GC scans).
        0x07 RAW_READ "raw_read" => RawRead {
            /// Byte offset.
            off: u64,
            /// Length.
            len: u32,
        },
        /// Raw bootstrap write.
        0x08 RAW_WRITE "raw_write" => RawWrite {
            /// Byte offset.
            off: u64,
            /// Payload.
            data: Bytes,
        },
        /// Fetch crashed/joining/retiring flags. Liveness probes only:
        /// flags normally ride every reply's trailer byte.
        0x0F FLAGS "flags" => Flags,
        /// Trace envelope: the inner request executes normally, and the
        /// reply comes back as [`Response::TracedReply`] carrying the
        /// server-side spans recorded while serving it. Envelopes do not
        /// nest.
        0x13 TRACED "traced" => Traced {
            /// Client-assigned trace id (stitches server spans onto the
            /// client's trace).
            trace_id: u64,
            /// The request being traced.
            inner: Box<Request>,
        } via inner,
        // 0x16 was `EpochMark` (an advisory register nothing read):
        // retired, never to be reused. A v4 peer that still sends it gets
        // a bad-tag refusal.
        /// Fetches raw WAL frames starting at logical offset `from`,
        /// answered by [`Response::Frames`]. The replication pull path.
        0x17 REPL_FETCH "repl_fetch" => ReplFetch {
            /// Logical WAL offset to read from.
            from: u64,
            /// At most this many bytes back.
            max: u32,
        },
        /// Applies a fetched segment of primary WAL frames on a follower;
        /// answered by [`Response::ReplStatus`].
        0x18 REPL_APPLY "repl_apply" => ReplApply {
            /// Logical source-WAL offset the segment starts at.
            from: u64,
            /// Raw CRC-framed WAL bytes as fetched from the primary.
            frames: Bytes,
        },
        /// Fetches the follower-side replication watermark and counters,
        /// answered by [`Response::ReplStatus`].
        0x19 REPL_STATUS "repl_status" => ReplStatus,
    }
    group {
        /// An admin operation. A grouping on the Rust side only: on the
        /// wire each [`AdminOp`] is an ordinary request with its own tag.
        Admin(AdminOp)
    }
}

messages! {
    /// Everything a memnode does besides executing minitransactions and
    /// shipping its log: membership fences, fault and lifecycle hooks,
    /// checkpoints, and introspection. One call carries them all
    /// ([`crate::client::RemoteNode::admin`]), answered by an [`AdminReply`].
    pub enum AdminOp, tags in admin_op_tag {
        /// Sets / clears the elastic-join fence (no replicated reads until
        /// seeded). Answered by [`AdminReply::Unit`].
        0x09 SET_JOINING "set_joining" => SetJoining(0: bool),
        /// Sets / clears the drain fence (allocation steers away).
        /// Answered by [`AdminReply::Unit`].
        0x0A SET_RETIRING "set_retiring" => SetRetiring(0: bool),
        /// Crash injection: drop volatile state, refuse service.
        0x0B CRASH "crash" => Crash,
        /// Recover: replay the node's image and log.
        0x0C RECOVER "recover" => Recover,
        /// Take a checkpoint now. Answered by [`AdminReply::Bool`] (false
        /// when skipped) or [`AdminReply::Error`].
        0x0D CHECKPOINT "checkpoint" => Checkpoint,
        // 0x0E was `Stats` (a fixed row of counters that `ObsSnapshot`
        // also carries): retired, never to be reused. A v4 peer that still
        // sends it gets a bad-tag refusal.
        /// Fetch recovery metadata: in-doubt transactions and the decided
        /// set ([`AdminReply::Meta`]).
        0x10 META "meta" => Meta,
        // 0x11 was `MirrorConsistent` (a probe of the in-memory backup
        // mirror, which no memnode keeps any more): retired, never to be
        // reused. A v4 peer that still sends it gets a bad-tag refusal.
        /// Ask the server process to exit cleanly after replying. A no-op
        /// on an in-process memnode.
        0x12 SHUTDOWN "shutdown" => Shutdown,
        /// Fetch every series the node exports — its registry plus the
        /// values read as the snapshot is taken
        /// ([`crate::memnode::MemNode::obs_snapshot`], [`AdminReply::Obs`]).
        0x14 OBS_SNAPSHOT "obs_snapshot" => ObsSnapshot,
        /// Fetch recent traces from the node's buffer
        /// ([`AdminReply::Traces`]).
        0x15 TRACE_DUMP "trace_dump" => TraceDump {
            /// At most this many traces, newest last.
            max: u32,
            /// Dump the slow-op buffer instead of the recent-trace buffer.
            slow: bool,
        },
        /// Applies a fault-injection spec (`minuet_faults::apply_spec`
        /// grammar, e.g. `"wal.fsync=err:count=3"` or `"clear"`) inside the
        /// memnode's process; answered by [`AdminReply::Faults`].
        0x1A FAULTS "faults" => Faults {
            /// The spec string, handed to `apply_spec` verbatim.
            spec: String,
        },
    }
}

messages! {
    /// A server→client message. `Unavailable` mirrors the in-process
    /// [`crate::memnode::Unavailable`] error; `Error` carries anything else
    /// (bounds violations, I/O failures) as text.
    pub enum Response, tags in response_tag {
        /// Handshake reply.
        0x81 R_HELLO "hello" => Hello {
            /// Server's protocol version.
            version: u16,
            /// Server's memnode id.
            node: u16,
            /// Server's address-space capacity in bytes.
            capacity: u64,
        },
        /// One-phase execution result.
        0x82 R_SINGLE "single" => Single(0: SingleResult),
        /// Per-member batch results (`Err` members hit a crashed node).
        0x83 R_BATCH "batch" => Batch(0: Vec<Result<SingleResult, u16>>),
        /// Prepare vote.
        0x84 R_VOTE "vote" => Vote(0: Vote),
        /// Success with no payload.
        0x85 R_UNIT "unit" => Unit,
        /// Raw read payload.
        0x86 R_DATA "data" => Data(0: Bytes),
        /// Node state flags.
        0x89 R_FLAGS "flags" => Flags(0: NodeFlags),
        /// The memnode is crashed; carries its id.
        0x8B R_UNAVAILABLE "unavailable" => Unavailable(0: u16),
        /// Any other server-side failure, as text.
        0x8C R_ERROR "error" => Error(0: String),
        /// Reply to a [`Request::Traced`] envelope: the server-side spans
        /// recorded while serving the inner request, plus the inner reply.
        /// Envelopes do not nest.
        0x8D R_TRACED "traced" => TracedReply {
            /// Spans recorded on the server (start offsets server-relative).
            spans: Vec<SpanRecord>,
            /// The inner request's reply.
            inner: Box<Response>,
        } via inner,
        // 0x90 was `Epoch`, the reply to `EpochMark`: retired with it,
        // never to be reused.
        /// Reply to [`Request::ReplFetch`]: a raw WAL segment.
        0x91 R_FRAMES "frames" => Frames {
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
        0x92 R_REPL_STATUS "repl_status" => ReplStatus(0: ReplStatus),
    }
    group {
        /// The reply to a [`Request::Admin`]; like the request side, a
        /// grouping in Rust only.
        Admin(AdminReply)
    }
}

messages! {
    /// What an [`AdminOp`] answers. The bare acknowledgement and the
    /// textual failure are the same frames as [`Response::Unit`] and
    /// [`Response::Error`], which is how a client decodes them (see
    /// [`Response::into_admin`]).
    pub enum AdminReply, tags in admin_reply_tag {
        /// Done; nothing to report.
        0x85 R_ADMIN_UNIT "unit" => Unit,
        /// Boolean result (checkpoint taken).
        0x87 R_BOOL "bool" => Bool(0: bool),
        // 0x88 was `Stats`, the reply to the retired `AdminOp::Stats`:
        // retired with it, never to be reused.
        /// Recovery metadata.
        0x8A R_META "meta" => Meta(0: NodeMeta),
        /// The operation reached the node and failed there, as text.
        0x8C R_ADMIN_ERROR "error" => Error(0: String),
        /// An encoded [`minuet_obs::ObsSnapshot`], shipped opaquely.
        0x8E R_OBS "obs" => Obs(0: Bytes),
        /// Encoded traces ([`minuet_obs::Trace::encode_many`]), shipped
        /// opaquely.
        0x8F R_TRACES "traces" => Traces(0: Bytes),
        /// Failpoints armed after a [`AdminOp::Faults`] spec was applied
        /// (0 after `"clear"`).
        0x93 R_FAULTS "faults" => Faults {
            /// Armed failpoint count.
            armed: u32,
        },
    }
}

/// Request/response tag bytes, one per table row above. Public so tests
/// and benches can identify RPC kinds in traces (client
/// [`minuet_obs::SpanKind::Rtt`] spans carry the request tag) and fault
/// specs can name them.
pub mod tag {
    pub use super::{admin_op_tag::*, admin_reply_tag::*, request_tag::*, response_tag::*};
}

fn decode_message<T: Wire>(payload: &Bytes) -> Result<T, WireError> {
    let mut c = Cur::new(payload);
    let msg = T::get(&mut c)?;
    c.done()?;
    Ok(msg)
}

impl Request {
    /// Encodes the request as a complete sealed frame, ready to write.
    pub fn encode(&self) -> Vec<u8> {
        seal(|buf| self.put(buf))
    }

    /// Decodes a request from a frame payload (as returned by
    /// [`FrameReader::read_frame`]). Write payloads alias the frame buffer.
    pub fn decode(payload: &Bytes) -> Result<Request, WireError> {
        decode_message(payload)
    }
}

impl Response {
    /// Encodes the response as a complete sealed frame.
    pub fn encode(&self) -> Vec<u8> {
        seal(|buf| self.put(buf))
    }

    /// Decodes a response from a frame payload. Data payloads alias the
    /// frame buffer.
    pub fn decode(payload: &Bytes) -> Result<Response, WireError> {
        decode_message(payload)
    }

    /// Reads this reply as the answer to an admin operation, or hands it
    /// back if it cannot be one. `Unit` and `Error` frames answer both
    /// planes and decode as the data-plane variants; this is where they
    /// become [`AdminReply::Unit`] and [`AdminReply::Error`].
    // The `Err` is the reply itself, unchanged, for the caller to report.
    #[allow(clippy::result_large_err)]
    pub fn into_admin(self) -> Result<AdminReply, Response> {
        match self {
            Response::Admin(reply) => Ok(reply),
            Response::Unit => Ok(AdminReply::Unit),
            Response::Error(msg) => Ok(AdminReply::Error(msg)),
            other => Err(other),
        }
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
        trace_id.put(buf);
        inner.put(buf);
    })
}

/// Encodes a response's payload bytes alone (no frame header). The
/// server's traced path uses this so the `srv.encode` span measures
/// message encoding without the envelope bookkeeping around it.
pub fn encode_response_payload(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    resp.put(&mut buf);
    buf
}

/// Seals a complete [`Response::TracedReply`] frame from server-side spans
/// plus an inner payload already produced by [`encode_response_payload`],
/// ending with the v3 [`NodeFlags`] trailer byte.
pub fn seal_traced_reply(spans: &[SpanRecord], inner_payload: &[u8], flags: NodeFlags) -> Vec<u8> {
    seal(|buf| {
        buf.push(tag::R_TRACED);
        put_spans(spans, buf);
        buf.extend_from_slice(inner_payload);
        buf.push(flags.to_byte());
    })
}

/// Seals a complete reply frame: the encoded response followed by the v3
/// [`NodeFlags`] trailer byte. This is what the server writes for every
/// untraced request (traced ones go through [`seal_traced_reply`]).
pub fn seal_reply(resp: &Response, flags: NodeFlags) -> Vec<u8> {
    seal(|buf| {
        resp.put(buf);
        buf.push(flags.to_byte());
    })
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
        roundtrip_req(Request::Admin(AdminOp::TraceDump {
            max: 32,
            slow: true,
        }));
        roundtrip_req(Request::Admin(AdminOp::Shutdown));
        roundtrip_req(Request::ReplFetch {
            from: 4096,
            max: 512,
        });
        roundtrip_req(Request::ReplApply {
            from: 128,
            frames: Bytes::from(vec![3u8; 40]),
        });
        roundtrip_req(Request::ReplStatus);
        roundtrip_req(Request::Admin(AdminOp::Faults {
            spec: "wal.fsync=err:count=3;wire.server.send=drop".into(),
        }));
        roundtrip_req(Request::Admin(AdminOp::Faults {
            spec: "clear".into(),
        }));
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
        roundtrip_resp(Response::Frames {
            from: 64,
            base: 0,
            tail: 1024,
            bytes: Bytes::from(vec![5u8; 96]),
        });
        roundtrip_resp(Response::ReplStatus(ReplStatus {
            watermark: 7,
            applied_txid: 9,
            tail: 11,
            applies: 13,
            dup_skips: 2,
        }));
        roundtrip_resp(Response::Admin(AdminReply::Faults { armed: 2 }));
        roundtrip_resp(Response::Admin(AdminReply::Faults { armed: 0 }));
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
        roundtrip_req(Request::Admin(AdminOp::ObsSnapshot));
        roundtrip_req(Request::Admin(AdminOp::TraceDump {
            max: 32,
            slow: true,
        }));
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
        roundtrip_resp(Response::Admin(AdminReply::Obs(Bytes::from(vec![1, 2, 3]))));
        roundtrip_resp(Response::Admin(AdminReply::Traces(Bytes::from(vec![0; 4]))));
    }

    #[test]
    fn nested_trace_envelopes_rejected() {
        // Hand-build a Traced(Traced(Checkpoint)) payload: 0x13 id 0x13 id 0x0D.
        let frame = seal(|buf| {
            buf.push(tag::TRACED);
            1u64.put(buf);
            buf.push(tag::TRACED);
            2u64.put(buf);
            buf.push(tag::CHECKPOINT);
        });
        let (payload, _) = decode_frame(&frame).unwrap();
        assert_eq!(
            Request::decode(&payload),
            Err(WireError::BadValue("nested traced envelope"))
        );
        let rframe = seal(|buf| {
            buf.push(tag::R_TRACED);
            0u32.put(buf);
            buf.push(tag::R_TRACED);
            0u32.put(buf);
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
        assert_eq!(
            Request::Admin(AdminOp::ObsSnapshot).kind_name(),
            "obs_snapshot"
        );
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

    /// Frame-size conformance: the frames the encoders put on the wire,
    /// per RPC type, are the sizes the v4 layout says, spelled out here
    /// once as the reference.
    #[test]
    fn modeled_bytes_match_real_frames() {
        use crate::addr::ItemRange;
        use crate::memnode::SingleResult;
        use crate::minitx::Minitransaction;

        let weighs = |req: &Request, want: u64, what: &str| {
            assert_eq!(req.encode().len() as u64, want, "{what}: frame");
        };
        let reply_weighs = |resp: &Response, want: u64, what: &str| {
            let frame = seal_reply(resp, NodeFlags::default());
            assert_eq!(frame.len() as u64, want, "{what}: frame");
        };

        let mem = crate::addr::MemNodeId(0);
        let mut m = Minitransaction::new();
        m.compare(ItemRange::new(mem, 0, 3), vec![1, 2, 3]);
        m.read(ItemRange::new(mem, 8, 16));
        m.read(ItemRange::new(mem, 64, 5));
        m.write(ItemRange::new(mem, 128, 7), vec![9; 7]);
        let shard = m.shards()[0].1.clone();
        // Three u32 counts, then per item a 16-byte descriptor (u32 index,
        // u64 offset, u32 length or length prefix) and any payload.
        let items = 12 + (16 + 3) + 2 * 16 + (16 + 7);
        // A committed result: kind byte, pair count, then u32 index + u32
        // length prefix + data per read.
        let pairs = || {
            vec![
                (0, Bytes::from(vec![0u8; 16])),
                (1, Bytes::from(vec![0u8; 5])),
            ]
        };
        let committed = 1 + 4 + (8 + 16) + (8 + 5);

        // One-phase request: frame header, tag, txid, policy byte, shard.
        let req = Request::ExecSingle {
            txid: 7,
            policy: LockPolicy::AbortOnBusy,
            shard: shard.clone(),
        };
        weighs(&req, 8 + 1 + 8 + 1 + items, "exec_single request");

        // Committed reply carrying both reads: header, tag, result, and
        // the v3 flags trailer.
        let resp = Response::Single(SingleResult::Committed(pairs()));
        reply_weighs(&resp, 8 + 1 + committed + 1, "exec_single reply");

        // Blocking policy adds the u64 budget.
        let req = Request::ExecSingle {
            txid: 7,
            policy: LockPolicy::Block(Duration::from_millis(1)),
            shard: shard.clone(),
        };
        weighs(&req, 8 + 1 + 8 + 9 + items, "blocking exec_single request");

        // Two-phase prepare with a 3-node participant list (u32 count +
        // u16 each), and its vote.
        let req = Request::Prepare {
            txid: 7,
            policy: LockPolicy::AbortOnBusy,
            participants: vec![0u16, 1, 2],
            shard: shard.clone(),
        };
        weighs(&req, 8 + 1 + 8 + 1 + 4 + 2 * 3 + items, "prepare request");
        let resp = Response::Vote(Vote::Ok(pairs()));
        reply_weighs(&resp, 8 + 1 + committed + 1, "vote reply");

        // Decision round trips: 17 bytes out, 10 back.
        weighs(&Request::Commit { txid: 7 }, 17, "commit");
        weighs(&Request::Abort { txid: 7 }, 17, "abort");
        reply_weighs(&Response::Unit, 10, "unit reply");

        // Batched execution: 13 bytes of request envelope (header, tag,
        // member count) + each member's txid, policy and shard; the reply
        // envelope is 14 (trailer included) + an ok byte and the result
        // per member.
        let member = WireBatchItem {
            txid: 7,
            policy: LockPolicy::AbortOnBusy,
            shard,
        };
        let req = Request::ExecBatch {
            items: vec![member.clone(), member],
        };
        weighs(&req, 13 + 2 * (8 + 1 + items), "exec_batch request");
        let resp = Response::Batch(vec![
            Ok(SingleResult::Committed(pairs())),
            Ok(SingleResult::Committed(pairs())),
        ]);
        reply_weighs(&resp, 14 + 2 * (1 + committed), "exec_batch reply");
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
